"""Host fingerprint, calibration score and small statistics helpers.

A timing is only comparable with another taken on the same kind of
host.  Every record this benchmark prints carries :func:`fingerprint`,
and ``compare.py`` refuses to compare records whose fingerprints differ.

Even one host does not keep one speed: a shared 2-vCPU cloud host was
seen to run the same pure-Python work up to 1.5x slower for stretches of
seconds to minutes.  :class:`HostSpeed` samples short fixed loops
between units of work, so each timing can be stated in *reference
seconds*: the time the work would have taken on this host running the
loops at fixed reference rates.
"""

from __future__ import annotations

import array
import bisect
import math
import os
import platform
import random
import resource
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Iterations of the fixed calibration loop (about 0.1 s on a 2020s core).
CALIBRATION_ITERS = 300_000

#: Two calibration scores count as the same host when their ratio is
#: within this factor.  One 2-vCPU cloud host was seen to drift 1.5x
#: within minutes under neighbours' load, so the score is a coarse guard;
#: CPU model, nproc and Python version must match exactly.
CALIBRATION_TOLERANCE = 1.6


def cpu_model() -> str:
    """The CPU model string from ``/proc/cpuinfo`` (``platform`` fallback)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def calibration_loop(iters: int) -> None:
    """A fixed pure-Python loop: integer arithmetic, a dict store and a
    list append, the operations the simulator's hot loops are made of."""
    acc, table, seq = 0, {}, []
    for i in range(iters):
        acc = (acc + i * 7) & 0xFFFF
        table[i & 255] = acc
        if i & 1023 == 0:
            seq.append(acc)


def calibration_score() -> float:
    """Best-of-3 rate (million loop iterations per second) of
    :func:`calibration_loop`."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop(CALIBRATION_ITERS)
        best = min(best, time.perf_counter() - t0)
    return round(CALIBRATION_ITERS / best / 1e6, 3)


#: Entries of the table :func:`table_loop` reads (8 bytes each, 4 MiB):
#: more than a core's own caches hold, so the loop slows when other
#: tenants share the caches and the memory bus.
TABLE_LEN = 1 << 19
_table: List[array.array] = []


def table_loop(iters: int) -> None:
    """A fixed pure-Python loop with a cache-missing read per iteration:
    an LCG step, a read at a pseudo-random place in a 4 MiB table, and a
    small dict store."""
    if not _table:
        rng = random.Random(1)
        _table.append(array.array(
            "q", (rng.getrandbits(62) for _ in range(TABLE_LEN))))
    table, mask, acc, small = _table[0], TABLE_LEN - 1, 0, {}
    for _ in range(iters):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        small[table[acc & mask] & 4095] = acc


class HostSpeed:
    """Host speed sampled between units of work, to state their times in
    reference seconds.

    A sample times two fixed loops on ``clock``, the clock the work is
    timed on: :func:`calibration_loop`, which runs in a core's own
    caches, and :func:`table_loop`, which misses them.  The sample's
    *speed* is the geometric mean of the two loops' rates, each over its
    reference rate, raised to the reference ``exponent``; a time in
    reference seconds is the measured time times the speed around it.
    In two trials on a 2-vCPU host, with a concurrent load for part of
    each, fig-regular pass times scaled by the blend spread less than
    scaled by either loop alone.  The loops' speed swings further than
    the simulator's: over 45 runs of the three workloads, the simulator's
    rate moved as the loops' speed to the power 0.7-0.8 (the exponent
    that left the least spread), so ``exponent`` is 0.8.

    With ``time.perf_counter`` (wall time) a sample also reads CPU time
    the host withholds (steal, quota throttling); with
    ``time.thread_time`` it reads only how fast the host runs code while
    it runs it.  Callers take samples only while none of the measured
    program's own work runs, so the samples read the host and not the
    program.
    """

    #: Iterations of one sample of each loop, about 5 ms each on a
    #: 2-vCPU Xeon.
    PLAIN_ITERS = 30_000
    TABLE_ITERS = 8_000

    #: Samples this many seconds either side of an interval also count
    #: towards its speed: the host's speed holds for seconds at a time,
    #: and one short sample reads it only to within a few per cent.
    WINDOW_S = 3.0

    def __init__(self, reference: Dict[str, float],
                 clock: Callable[[], float] = time.perf_counter):
        self.reference = reference
        self.clock = clock
        #: (perf_counter at the sample's end, plain Mi/s, table Mi/s).
        self.samples: List[Tuple[float, float, float]] = []

    def _rate(self, loop, iters: int) -> float:
        t0 = self.clock()
        loop(iters)
        return iters / max(self.clock() - t0, 1e-9) / 1e6

    def sample(self) -> None:
        plain = self._rate(calibration_loop, self.PLAIN_ITERS)
        table = self._rate(table_loop, self.TABLE_ITERS)
        self.samples.append((time.perf_counter(), plain, table))

    def _speed(self, plain: float, table: float) -> float:
        ref = self.reference
        return (plain / ref["plain_mips"] * table / ref["table_mips"]
                ) ** (ref["exponent"] / 2)

    def speed(self, t0: float, t1: float) -> float:
        """Median speed of the samples taken within :data:`WINDOW_S` of
        ``[t0, t1]`` and of the nearest sample on each side of that (a
        median, as a sample the host pre-empted reads far too slow)."""
        times = [s[0] for s in self.samples]
        lo = max(bisect.bisect_left(times, t0 - self.WINDOW_S) - 1, 0)
        hi = min(bisect.bisect_right(times, t1 + self.WINDOW_S) + 1,
                 len(times))
        near = [self._speed(p, t) for _, p, t in self.samples[lo:hi]]
        if not near:
            raise RuntimeError("HostSpeed has no samples")
        return median(near)

    def to_reference(self, measured_s: float, t0: float, t1: float
                     ) -> float:
        """``measured_s`` (a time on ``clock``), measured over
        ``[t0, t1]`` (``perf_counter`` readings), in reference seconds."""
        return measured_s * self.speed(t0, t1)

    def summary(self) -> Dict[str, float]:
        """Median rates of the run's samples, for the record."""
        return {"samples": len(self.samples),
                "plain_mips": median(s[1] for s in self.samples),
                "table_mips": median(s[2] for s in self.samples)}


def fingerprint() -> Dict[str, object]:
    """Identity of the host a record was measured on."""
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "calibration_mips": calibration_score(),
    }


def same_host(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Reasons two fingerprints differ (empty when comparable)."""
    reasons = [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
               for k in ("cpu_model", "nproc", "python")
               if a.get(k) != b.get(k)]
    ca, cb = a.get("calibration_mips"), b.get("calibration_mips")
    if not ca or not cb or max(ca, cb) / min(ca, cb) > CALIBRATION_TOLERANCE:
        reasons.append(f"calibration_mips: {ca} vs {cb} differ by more "
                       f"than {CALIBRATION_TOLERANCE}x")
    return reasons


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """User + system CPU seconds of this process's waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (scans ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
