"""``serve-mixed``: the request path under an open-loop mix plus a sweep.

Path: ``repro fleet --backends 1 --jobs 2`` (router -> backend
``repro.serve`` -> ``repro.exec`` pool -> simulator), with a fresh disk
cache per fleet.  One process drives it over two connections:

* connection A sends a seeded **open-loop** stream at :data:`RATE_RPS`:
  arrivals are a Poisson process conditioned on its count (sorted
  uniform times), so every seed offers exactly the same number of
  requests.  Most requests hit the hot set, warmed before timing; a
  fixed share are fresh TINY cells that no tier holds, made unique by a
  seeded ``max_cycles`` override (which changes the cell key, not the
  result, so their output is still checked against a pinned digest).
  Each request is timed from the moment it was *due*;
* connection B is a **closed-loop** sweep client stepping one knob
  (``dram.row_miss_cycles``) by +1 from a seeded start, the way a sweep
  script calls ``repro request``; the backend's predictor may speculate
  the next steps.

Every answer is checked against the digests pinned in ``spec.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import host
from host import median, percentile

#: Offered open-loop rate (requests/s).  At 20 s per run this gives
#: 1200 timed requests, enough for a p99 with 12 samples beyond it.
RATE_RPS = 60
#: Each block of COLD_EVERY consecutive open-loop requests holds one
#: pair of fresh (cold) cells due at the same instant, at a seeded place
#: in the block (2% of requests).  A pair always shares a batch, so every
#: fresh cell goes through an exec-pool spawn whatever the sweep is
#: doing; stratifying keeps pairs from clumping, so each run sees about
#: the same number of spawns.
COLD_EVERY = 100
#: Hot set: (benchmark, engine) at TINY scale, small preset.
HOT = (("MM", "caps"), ("MM", "none"), ("BFS", "caps"), ("BFS", "none"),
       ("CP", "caps"), ("HST", "inter"), ("FFT", "caps"), ("SCN", "none"))
#: Cold cells cycle through these (engine ``caps``), so every seed
#: simulates the same number of each.
COLD = ("BFS", "CCL", "PVR", "HST", "KM")
#: Sweep cell and knob: ``dram.row_miss_cycles`` over SWEEP_VALUES.
#: LPS is in neither the hot nor the cold set: the predictor groups
#: requests by cell signature, and hot requests for the same signature
#: would break every run of sweep steps it tries to detect.
SWEEP_BENCH = ("LPS", "caps")
SWEEP_VALUES = range(6, 6 + 512)
#: Pause between sweep steps: the sweep script's own work between
#: requests.  At 0.15 s the sweep holds about a third of one vCPU, so
#: the tail is still set by the fresh cells' pool spawns; an unpaced
#: sweep kept both vCPUs busy and made ``req_p99_ms`` unsteady, and a
#: 0.3 s pause (a fresh ``repro request`` process per step) left so few
#: steps that their median latency spread 0.10-0.13 over ten runs,
#: against 0.07 at 0.15 s.
SWEEP_PAUSE_S = 0.15
#: Seconds between host-speed samples during the stream, each taken
#: when no fresh cell or sweep step is in flight; a sample holds the
#: generator's event loop for about 10 ms.
SPEED_EVERY_S = 0.5
#: Fleet starts timed per run (the last one serves the workload).
FLEET_STARTS = 5
#: Bound on one request; a request still unanswered after it failed.
REQUEST_TIMEOUT_S = 30.0

SCALE = "tiny"
PRESET = "small"


def simulate_payload(rid: str, bench: str, engine: str,
                     overrides: Optional[dict] = None,
                     priority: str = "interactive") -> dict:
    """A protocol-v1 ``simulate`` request."""
    payload = {"v": 1, "id": rid, "op": "simulate", "benchmark": bench,
               "engine": engine, "scale": SCALE, "preset": PRESET,
               "priority": priority}
    if overrides:
        payload["overrides"] = overrides
    return payload


def cell_name(bench: str, engine: str) -> str:
    return f"{bench}/{engine}"


def sweep_overrides(value: int) -> dict:
    return {"dram": {"row_miss_cycles": value}}


def payload_digest(result_payload: dict) -> str:
    """sha256 of a served result's canonical bytes (``result_bytes``)."""
    from repro.exec import deserialize_result, result_bytes

    return hashlib.sha256(
        result_bytes(deserialize_result(result_payload))).hexdigest()


# ------------------------------------------------------------ schedule
@dataclass
class Planned:
    """One open-loop request: due offset (s), class and payload fields."""

    at: float
    cls: str  # "hot" or "cold"
    bench: str
    engine: str
    overrides: Optional[dict] = None


def schedule(seed: int, seconds: float) -> Tuple[List[Planned], int]:
    """The seeded open-loop stream and the sweep's start index."""
    rng = random.Random(seed)
    n = int(round(RATE_RPS * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    pairs = [block * COLD_EVERY + rng.randrange(COLD_EVERY - 1)
             for block in range(n // COLD_EVERY)]
    cold_at = set(pairs) | {i + 1 for i in pairs}
    for i in pairs:
        times[i + 1] = times[i]
    uniques = rng.sample(range(1, 1_000_000), len(cold_at))
    plan, cold_i = [], 0
    for i, at in enumerate(times):
        if i in cold_at:
            plan.append(Planned(at, "cold", COLD[cold_i % len(COLD)], "caps",
                                {"max_cycles": 2_000_000 + uniques[cold_i]}))
            cold_i += 1
        else:
            bench, engine = rng.choice(HOT)
            plan.append(Planned(at, "hot", bench, engine))
    return plan, rng.randrange(len(SWEEP_VALUES))


# --------------------------------------------------------------- fleet
class Fleet:
    """One ``repro fleet`` subprocess with its own runtime dir and cache."""

    def __init__(self, run_dir: pathlib.Path, index: int, env: dict):
        self.dir = run_dir / f"f{index}"
        self.dir.mkdir(parents=True)
        # Relative socket paths keep under the 108-byte sun_path limit
        # however deep the checkout is; every fleet process shares cwd.
        rel = os.path.relpath(self.dir)
        self.socket = os.path.join(rel, "r.sock")
        self.backend_socket = os.path.join(rel, "backend-0.sock")
        self.log = open(self.dir / "fleet.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--backends", "1",
             "--jobs", "2", "--cache", os.path.join(rel, "cache"),
             "--runtime-dir", rel, "--socket", self.socket],
            env=env, stdout=subprocess.DEVNULL, stderr=self.log)

    async def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Until the router answers and reports its backend healthy."""
        from repro.serve.client import AsyncServeClient

        deadline = time.perf_counter() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"fleet exited early: {self.tail()}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"fleet not ready: {self.tail()}")
            try:
                async with AsyncServeClient(socket_path=self.socket,
                                            connect_timeout=1.0) as client:
                    stats = await asyncio.wait_for(client.stats(), 5.0)
                # A breaker starts closed before the first probe, so
                # ready also needs a probe that reached the backend.
                if all(b["healthy"] and b["probes"]["ok"] > 0
                       and b["circuit"]["state"] == "closed"
                       for b in stats["backends"]):
                    return
            except (OSError, asyncio.TimeoutError, KeyError,
                    ConnectionError):
                pass
            await asyncio.sleep(0.01)

    def tail(self) -> str:
        self.log.flush()
        return (self.dir / "fleet.log").read_text()[-800:]

    def peak_rss_mb(self) -> float:
        """Σ peak RSS of the fleet's live processes (router, backend,
        resource tracker, any pool workers alive at the call)."""
        pids = [self.proc.pid] + host.descendants(self.proc.pid)
        return sum(host.proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM (graceful drain), SIGKILL after 30 s; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                for pid in host.descendants(self.proc.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.kill()
                self.proc.wait(30)
        self.log.close()


async def start_fleets(run_dir: pathlib.Path, env: dict,
                       speed: host.HostSpeed) -> Tuple[Fleet, List[float]]:
    """Start FLEET_STARTS fleets one after another, timing each from
    process start to ready in reference seconds (a host-speed sample
    before and after each start); all but the last are stopped again."""
    spans, fleet = [], None
    for i in range(FLEET_STARTS):
        if fleet is not None:
            fleet.stop()
        speed.sample()
        t0 = time.perf_counter()
        fleet = Fleet(run_dir, i, env)
        try:
            await fleet.wait_ready()
        except BaseException:
            fleet.stop()
            raise
        spans.append((t0, time.perf_counter()))
    speed.sample()
    return fleet, [speed.to_reference(t1 - t0, t0, t1) for t0, t1 in spans]


# --------------------------------------------------------------- drive
@dataclass
class Answer:
    """Outcome of one request as the client saw it."""

    cls: str
    latency_s: float = 0.0  # from due (open loop) or send (sweep)
    #: ``latency_s`` in reference seconds (:class:`host.HostSpeed`).
    ref_latency_s: float = 0.0
    #: perf_counter readings bounding ``latency_s``.
    start: float = 0.0
    end: float = 0.0
    lag_s: float = 0.0
    hop_s: float = 0.0  # client round trip minus backend meta.wall_s
    backend_s: float = 0.0
    source: str = ""
    instructions: int = 0
    ok: bool = False
    error: str = ""
    done_s: float = 0.0  # completion, seconds after the stream started
    #: The response and its pinned digest, checked after the stream so
    #: the check's own work never delays another request.
    response: Optional[dict] = None
    expected: Optional[str] = None


@dataclass
class StreamOutcome:
    answers: List[Answer] = field(default_factory=list)
    sweep: List[Answer] = field(default_factory=list)
    warm: List[Answer] = field(default_factory=list)
    hot_results: list = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    speed: Optional[host.HostSpeed] = None
    #: The backend's ``stats`` payload before and after the stream.
    backend_stats: Tuple[dict, dict] = ({}, {})


def check(answer: Answer, response: dict, expected: Optional[str]) -> None:
    """Fill ``answer`` from a response envelope and the pinned digest."""
    if not response.get("ok"):
        err = response.get("error") or {}
        answer.error = f"{err.get('code')}: {err.get('message', '')[:120]}"
        return
    meta = response.get("meta") or {}
    answer.source = meta.get("source", "")
    answer.backend_s = float(meta.get("wall_s", 0.0))
    result = response["result"]
    answer.instructions = int(result.get("instructions", 0))
    got = payload_digest(result)
    if expected is None or got != expected:
        answer.error = f"digest {got[:16]} != pinned {str(expected)[:16]}"
        return
    answer.ok = True


async def fetch_stats(socket_path: str) -> dict:
    from repro.serve.client import AsyncServeClient

    async with AsyncServeClient(socket_path=socket_path) as client:
        return await asyncio.wait_for(client.stats(), 10.0)


async def warm(fleet: Fleet, pins: dict, out: StreamOutcome) -> None:
    """Request each hot cell once, one at a time, and check it."""
    from repro.exec import deserialize_result
    from repro.serve.client import AsyncServeClient

    async with AsyncServeClient(socket_path=fleet.socket) as client:
        for i, (bench, engine) in enumerate(HOT):
            answer = Answer("warm")
            out.warm.append(answer)
            try:
                response = await asyncio.wait_for(client.request_raw(
                    simulate_payload(f"warm-{i}", bench, engine)),
                    REQUEST_TIMEOUT_S)
            except Exception as exc:  # counted as a failed operation
                answer.error = repr(exc)
                continue
            check(answer, response, pins["hot"].get(cell_name(bench, engine)))
            if answer.ok:
                out.hot_results.append(
                    deserialize_result(response["result"]))


async def drive(fleet: Fleet, plan: List[Planned], sweep_start: int,
                seconds: float, pins: dict, out: StreamOutcome) -> None:
    """Run the open-loop stream, the sweep client and host-speed samples
    side by side, then check every answer."""
    from repro.serve.client import AsyncServeClient

    perf = time.perf_counter
    stream = AsyncServeClient(socket_path=fleet.socket)
    sweeper = AsyncServeClient(socket_path=fleet.socket)
    await stream.connect()
    await sweeper.connect()
    t0 = perf() + 0.05
    t_end = t0 + seconds
    # Fresh cells and sweep steps in flight: they keep the CPUs busy, so
    # host-speed samples wait until none is.
    heavy = [0]

    async def send(client, answer: Answer, payload: dict) -> None:
        heavy[0] += answer.cls != "hot"
        try:
            answer.response = await asyncio.wait_for(
                client.request_raw(payload), REQUEST_TIMEOUT_S)
        except Exception as exc:  # counted as a failed operation
            answer.error = repr(exc)
        heavy[0] -= answer.cls != "hot"
        answer.end = perf()
        answer.latency_s = answer.end - answer.start

    async def one(i: int, req: Planned, due: float) -> None:
        answer = Answer(req.cls, start=due, lag_s=perf() - due)
        answer.expected = pins["hot" if req.cls == "hot" else "cold"].get(
            cell_name(req.bench, req.engine))
        out.answers.append(answer)
        await send(stream, answer, simulate_payload(
            f"o{i}", req.bench, req.engine, req.overrides))
        answer.done_s = answer.end - t0

    async def generate() -> None:
        tasks = []
        for i, req in enumerate(plan):
            due = t0 + req.at
            delay = due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(i, req, due)))
        await asyncio.gather(*tasks)

    async def sweep() -> None:
        step = 0
        while perf() < t_end:
            value = SWEEP_VALUES[(sweep_start + step) % len(SWEEP_VALUES)]
            answer = Answer("sweep", start=perf(),
                            expected=pins["sweep"].get(str(value)))
            out.sweep.append(answer)
            await send(sweeper, answer, simulate_payload(
                f"s{step}", *SWEEP_BENCH, sweep_overrides(value), "sweep"))
            step += 1
            await asyncio.sleep(SWEEP_PAUSE_S)

    async def calibrate() -> None:
        while perf() < t_end:
            if heavy[0]:
                await asyncio.sleep(0.01)
                continue
            out.speed.sample()
            await asyncio.sleep(SPEED_EVERY_S)

    try:
        await asyncio.gather(generate(), sweep(), calibrate())
    finally:
        await stream.close()
        await sweeper.close()
    out.speed.sample()
    for answer in out.answers + out.sweep:
        if answer.response is not None:
            check(answer, answer.response, answer.expected)
            answer.response = None
        answer.hop_s = answer.latency_s - answer.lag_s - answer.backend_s
        answer.ref_latency_s = out.speed.to_reference(
            answer.latency_s, answer.start, answer.end)


async def run_stream(seed: int, seconds: float, spec: dict,
                     run_dir: pathlib.Path, env: dict,
                     with_stats: bool) -> StreamOutcome:
    """Start fleets (timed), warm, drive one stream, stop the fleet."""
    pins = spec["serve_digests"]
    plan, sweep_start = schedule(seed, seconds)
    out = StreamOutcome(speed=host.HostSpeed(
        spec["reference_speed"]))
    fleet, out.setup_times = await start_fleets(run_dir, env, out.speed)
    try:
        await warm(fleet, pins, out)
        before = (await fetch_stats(fleet.backend_socket)
                  if with_stats else {})
        await drive(fleet, plan, sweep_start, seconds, pins, out)
        if with_stats:
            out.backend_stats = (before,
                                 await fetch_stats(fleet.backend_socket))
        out.peak_rss_mb = fleet.peak_rss_mb() + host.self_peak_rss_mb()
    finally:
        fleet.stop()
    return out


def in_run_dir(root: pathlib.Path, fn):
    """Run ``fn(run_dir)`` with cwd at the checkout root and a fresh
    scratch directory under it, removed afterwards."""
    run_dir = root / ".perfbench-run" / str(os.getpid())
    previous = os.getcwd()
    os.chdir(root)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        return fn(run_dir)
    finally:
        os.chdir(previous)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


# ------------------------------------------------------------- metrics
def failures(out: StreamOutcome) -> List[str]:
    return [f"{a.cls}: {a.error}" for a in out.warm + out.answers + out.sweep
            if not a.ok]


def end_to_end(out: StreamOutcome, seconds: float, limit_ms: float) -> dict:
    """The end-to-end metrics of one stream.

    The two rates use the *median* sweep step.  Whether a step lands in
    a batch that spawns an exec pool, and when the predictor mutes the
    sweep's group, vary from run to run and swing a count-per-second by
    40 %; the spawn cost is measured by ``req_p99_ms`` instead.  Fresh
    open-loop cells are left out of the rates: they always spawn, and
    mixing the two populations would put the median on their boundary.
    Latencies are in reference seconds; the stream's span is wall time,
    as the offered rate is.
    """
    lat = [a.ref_latency_s for a in out.answers]
    good = sum(1 for a in out.answers
               if a.ok and a.ref_latency_s * 1e3 <= limit_ms)
    # The stream lasts, as measured, from its start to its last answer.
    span = max((a.done_s for a in out.answers), default=seconds)
    steps = [a for a in out.sweep if a.ok]
    return {
        "setup_s": median(out.setup_times),
        "peak_rss_mb": out.peak_rss_mb,
        "sim_instr_per_s": median(a.instructions / a.ref_latency_s
                                  for a in steps),
        "req_p50_ms": percentile(lat, 50) * 1e3,
        "req_p99_ms": percentile(lat, 99) * 1e3,
        "goodput_rps": good / span,
        "sweep_steps_per_s": (1.0 / median(a.ref_latency_s for a in steps)
                              if steps else 0.0),
    }


def lag_p99_ms(out: StreamOutcome) -> float:
    return percentile([a.lag_s for a in out.answers], 99) * 1e3


def validity(out: StreamOutcome, spec: dict) -> List[str]:
    lag = lag_p99_ms(out)
    bound = spec["gen_lag_p99_limit_ms"]
    if lag > bound:
        return [f"invalid run: generator lag p99 {lag:.1f} ms exceeds "
                f"{bound} ms, so the offered load was not met"]
    return []


def hot_counters(out: StreamOutcome) -> dict:
    """``model.*`` over the warmed hot set (the same cells every seed)."""
    import figsweep
    from repro.config import small_config

    return figsweep.model_counters(out.hot_results, small_config().num_sms)


def measure(seed: int, seconds: float, spec: dict, root: pathlib.Path,
            env: dict) -> dict:
    """Untraced run: the end-to-end metrics."""
    out = in_run_dir(root, lambda d: asyncio.run(
        run_stream(seed, seconds, spec, d, env, with_stats=False)))
    errors = failures(out)
    return {
        "attempted": len(out.warm) + len(out.answers) + len(out.sweep),
        "failed": len(errors),
        "errors": errors,
        "invalid": validity(out, spec),
        "samples": sample_counts(out),
        "counters": hot_counters(out),
        "host_speed": out.speed.summary(),
        "metrics": end_to_end(out, seconds,
                              spec["goodput_limit_ms"]["serve-mixed"]),
    }


def sample_counts(out: StreamOutcome) -> Dict[str, int]:
    return {
        "requests": len(out.answers),
        "hot": sum(1 for a in out.answers if a.cls == "hot"),
        "cold": sum(1 for a in out.answers if a.cls == "cold"),
        "sweep_steps": len(out.sweep),
        "fleet_starts": len(out.setup_times),
    }


def _delta(after: dict, before: dict, *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = (a or {}).get(key), (b or {}).get(key)
    return (a or 0) - (b or 0)


def traced(seed: int, seconds: float, spec: dict, root: pathlib.Path,
           env: dict) -> dict:
    """Traced run: an untraced stream, then the same stream with the
    backend's ``stats`` read before and after it."""
    def both(run_dir):
        plain = asyncio.run(run_stream(seed, seconds, spec, run_dir / "a",
                                       env, with_stats=False))
        return plain, asyncio.run(run_stream(seed, seconds, spec,
                                             run_dir / "b", env,
                                             with_stats=True))

    plain, out = in_run_dir(root, both)
    ms = 1e3

    def pct(answers, q):
        return percentile([a.latency_s for a in answers], q) * ms

    hot = [a for a in out.answers if a.cls == "hot"]
    cold = [a for a in out.answers if a.cls == "cold"]
    plain_hot = [a for a in plain.answers if a.cls == "hot"]
    b0, b1 = out.backend_stats
    lat = b1.get("latency_s", {})
    mem_hits = _delta(b1, b0, "memcache", "hits")
    mem_lookups = mem_hits + _delta(b1, b0, "memcache", "misses")
    disk_hits = _delta(b1, b0, "tiers", "totals", "disk", "hits")
    disk_lookups = _delta(b1, b0, "tiers", "totals", "disk", "lookups")
    batches = _delta(b1, b0, "batches")
    spec_done = _delta(b1, b0, "speculation", "completed")
    warm_hits = _delta(b1, b0, "speculation", "warm_hits")
    speculative = sum(1 for a in out.sweep
                      if a.source.endswith("-speculative"))
    client_total = sum(a.latency_s - a.lag_s for a in out.answers)
    metrics = dict(hot_counters(out))
    metrics.update({
        "client.hot.p50_ms": pct(hot, 50),
        "client.hot.p99_ms": pct(hot, 99),
        "client.cold.p50_ms": pct(cold, 50),
        "client.cold.p99_ms": pct(cold, 99),
        "client.sweep.p50_ms": pct(out.sweep, 50),
        "router.hop.p50_ms": percentile([a.hop_s for a in out.answers],
                                        50) * ms,
        "router.hop.p99_ms": percentile([a.hop_s for a in out.answers],
                                        99) * ms,
        "tier.memcache.hit_ratio": (mem_hits / mem_lookups
                                    if mem_lookups else 0.0),
        "tier.disk.hit_ratio": (disk_hits / disk_lookups
                                if disk_lookups else 0.0),
        "tier.dedup.joins": _delta(b1, b0, "dedup_joined"),
        "backend.queue_wait.p50_ms": lat.get("queue_wait", {}).get("p50", 0)
        * ms,
        "backend.queue_wait.p99_ms": lat.get("queue_wait", {}).get("p99", 0)
        * ms,
        "backend.dispatch.p50_ms": lat.get("dispatch", {}).get("p50", 0) * ms,
        "backend.dispatch.p99_ms": lat.get("dispatch", {}).get("p99", 0) * ms,
        "backend.cells_per_batch": (_delta(b1, b0, "dispatched_cells")
                                    / batches if batches else 0.0),
        "predict.predicted_hit_ratio": (speculative / len(out.sweep)
                                        if out.sweep else 0.0),
        "predict.spec_admitted": _delta(b1, b0, "speculation", "admitted"),
        "predict.spec_wasted": spec_done - warm_hits,
        "gen.lag_p99_ms": lag_p99_ms(out),
        "trace.overhead_ratio": (percentile([a.latency_s for a in hot], 50)
                                 / percentile([a.latency_s
                                               for a in plain_hot], 50)
                                 if plain_hot else 0.0),
        "trace.coverage": (sum(a.backend_s for a in out.answers)
                           / client_total if client_total else 0.0),
    })
    errors = failures(plain) + failures(out)
    return {
        "attempted": sum(len(o.warm) + len(o.answers) + len(o.sweep)
                         for o in (plain, out)),
        "failed": len(errors),
        "errors": errors,
        "invalid": validity(plain, spec) + validity(out, spec),
        "samples": sample_counts(out),
        "counters": hot_counters(out),
        "metrics": metrics,
    }
