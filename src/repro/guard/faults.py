"""Deterministic, seeded fault injection for chaos testing.

A :class:`FaultPlan` is a frozen, picklable description of the faults a
run should experience.  Consumers derive independent deterministic
random streams from it (seeded by SHA-256 of ``seed:label``, never by
Python's salted ``hash``), so the same plan produces the same fault
sequence in every process, on every platform — which is what lets the
chaos suite assert exact recovery behaviour:

* the **memory subsystem** consults a :class:`MemoryFaultInjector` to
  drop or delay read responses (a dropped demand response wedges its
  warp forever, which is precisely what the watchdog must catch);
* the **execution runner** consults :meth:`FaultPlan.should_crash` to
  kill worker attempts (raising :class:`repro.errors.InjectedWorkerCrash`,
  or hard-exiting the process to break the pool), proving the
  retry/backoff/pool-rebuild paths fire;
* the **result cache** consults :meth:`FaultPlan.should_corrupt_cache`
  to truncate freshly written entries, proving corrupted entries load
  as misses instead of crashing a sweep.

Plans with memory faults perturb simulation timing, so the execution
engine refuses to persist their results into the shared on-disk cache.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import InjectedWorkerCrash


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject into a run."""

    seed: int = 0
    #: Probability that a read response is silently dropped.
    drop_response_rate: float = 0.0
    #: Cap on dropped responses (0 = unlimited), so a plan can wedge
    #: exactly one warp instead of the whole machine.
    max_drops: int = 0
    #: Probability that a read response is delayed by ``delay_cycles``.
    delay_response_rate: float = 0.0
    delay_cycles: int = 500
    #: Worker attempts 1..crash_attempts raise/exit before simulating.
    crash_attempts: int = 0
    #: ``True``: the worker hard-exits (``os._exit``), breaking the
    #: process pool; ``False``: it raises :class:`InjectedWorkerCrash`.
    crash_hard: bool = False
    #: Probability that a just-written result-cache entry is truncated.
    corrupt_cache_rate: float = 0.0

    def __post_init__(self):
        for name in ("drop_response_rate", "delay_response_rate",
                     "corrupt_cache_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1] (got {rate})")
        if self.crash_attempts < 0 or self.max_drops < 0:
            raise ValueError("crash_attempts and max_drops must be >= 0")
        if self.delay_cycles < 1:
            raise ValueError("delay_cycles must be >= 1")

    # ------------------------------------------------------------ streams
    def stream(self, label: str) -> random.Random:
        """Independent deterministic RNG for one consumer.

        Stable across processes and platforms: seeded from SHA-256 of
        ``seed:label`` (never from Python's per-process salted hash).
        """
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # ------------------------------------------------------------ queries
    @property
    def affects_simulation(self) -> bool:
        """True when the plan perturbs simulation timing/results."""
        return self.drop_response_rate > 0 or self.delay_response_rate > 0

    def should_crash(self, attempt: int) -> bool:
        """Whether worker ``attempt`` (1-based) should be killed."""
        return attempt <= self.crash_attempts

    def crash(self, attempt: int, cell: str = "") -> None:
        """Kill the current worker attempt per the plan."""
        if self.crash_hard:
            import os
            os._exit(43)
        raise InjectedWorkerCrash(
            f"fault plan (seed {self.seed}) crashed attempt {attempt}"
            + (f" of {cell}" if cell else "")
        )

    def should_corrupt_cache(self, rng: random.Random) -> bool:
        """Roll the dice: corrupt this cache write under the plan?"""
        return (self.corrupt_cache_rate > 0
                and rng.random() < self.corrupt_cache_rate)


@dataclass(frozen=True)
class ServeFaultPlan:
    """Seeded description of serve-tier faults (the fleet chaos harness).

    Where :class:`FaultPlan` perturbs the *simulator* (memory responses,
    worker crashes, cache bytes), this plan perturbs the *serving path*:
    backend processes, connections and response framing.  A
    :class:`~repro.serve.server.SimulationServer` given a plan (via
    ``ServeConfig.fault_plan``) consults a :class:`ServeFaultInjector`
    per process; all randomness derives from SHA-256 streams of
    ``seed:label`` so a plan replays identically on every platform —
    which is what lets the chaos suite assert exact recovery behaviour
    (zero lost requests, byte-identical answers, breaker transitions).

    Fault classes:

    * **kill** — backend ``kill_backend`` hard-exits (``os._exit``)
      while serving its ``kill_after_requests``-th simulate request:
      mid-flight crash, in-flight work lost, stale socket left behind.
      The kill fires once per plan: a supervisor restarts the victim
      with :meth:`without_kill`, so recovery is tested against one
      crash however the sweep's requests land across the restart;
    * **slow** — a fraction of simulate requests sleep
      ``slow_request_s`` before answering (a degraded backend);
    * **blackhole** — a fraction of simulate requests are accepted and
      never answered (a wedged backend; only forward timeouts or
      deadlines recover the caller);
    * **torn** — a fraction of responses are cut mid-line and the
      connection dropped (a crash between ``write`` and ``flush``).
    """

    seed: int = 0
    #: Index of the one backend the kill fault arms on (-1 = none).
    kill_backend: int = -1
    #: The n-th simulate request (1-based) that backend dies serving.
    kill_after_requests: int = 0
    #: Probability a simulate request is answered ``slow_request_s`` late.
    slow_request_rate: float = 0.0
    slow_request_s: float = 0.05
    #: Probability a simulate request is accepted but never answered.
    blackhole_rate: float = 0.0
    #: Probability a response line is torn mid-write (connection drops).
    torn_response_rate: float = 0.0

    def __post_init__(self):
        for name in ("slow_request_rate", "blackhole_rate",
                     "torn_response_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1] (got {rate})")
        if self.kill_after_requests < 0:
            raise ValueError("kill_after_requests must be >= 0")
        if self.slow_request_s < 0:
            raise ValueError("slow_request_s must be >= 0")

    def stream(self, label: str) -> random.Random:
        """Independent deterministic RNG for one consumer (see
        :meth:`FaultPlan.stream`)."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def without_kill(self) -> "ServeFaultPlan":
        """This plan with the kill fault disarmed (every other fault
        class and its random streams unchanged)."""
        return replace(self, kill_backend=-1, kill_after_requests=0)

    @property
    def any_faults(self) -> bool:
        """True when the plan can inject at least one fault."""
        return (self.kill_after_requests > 0 and self.kill_backend >= 0) \
            or self.slow_request_rate > 0 or self.blackhole_rate > 0 \
            or self.torn_response_rate > 0


#: Exit code a fault-plan backend kill uses (distinguishable from the
#: worker-crash code 43 of :meth:`FaultPlan.crash`).
SERVE_KILL_EXIT = 44


class ServeFaultInjector:
    """Per-server adapter applying a :class:`ServeFaultPlan`.

    One injector per :class:`~repro.serve.server.SimulationServer`
    process; ``backend_index`` selects which backend of a fleet the
    plan's kill fault arms on and namespaces the random streams, so
    every backend of one fleet draws an independent deterministic
    sequence from the same plan.
    """

    def __init__(self, plan: ServeFaultPlan, backend_index: int = 0):
        self.plan = plan
        self.backend_index = backend_index
        self._slow_rng = plan.stream(f"serve.slow.{backend_index}")
        self._black_rng = plan.stream(f"serve.blackhole.{backend_index}")
        self._torn_rng = plan.stream(f"serve.torn.{backend_index}")
        #: Simulate requests seen (drives the kill countdown).
        self.simulate_seen = 0
        self.slowed = 0
        self.blackholed = 0
        self.torn = 0

    def on_simulate(self) -> str:
        """Fate of one simulate request: ``kill``/``blackhole``/``slow``/
        ``serve``.  Called once per admitted simulate request."""
        self.simulate_seen += 1
        plan = self.plan
        if (plan.kill_backend == self.backend_index
                and plan.kill_after_requests > 0
                and self.simulate_seen == plan.kill_after_requests):
            return "kill"
        if plan.blackhole_rate > 0 and \
                self._black_rng.random() < plan.blackhole_rate:
            self.blackholed += 1
            return "blackhole"
        if plan.slow_request_rate > 0 and \
                self._slow_rng.random() < plan.slow_request_rate:
            self.slowed += 1
            return "slow"
        return "serve"

    def kill_now(self) -> None:  # pragma: no cover - exits the process
        """Hard-exit the backend process (a mid-flight crash)."""
        import os
        os._exit(SERVE_KILL_EXIT)

    def tear(self, data: bytes) -> Optional[bytes]:
        """Return the torn prefix of a response line, or ``None``.

        ``None`` means deliver intact; a ``bytes`` return means write
        only that prefix and drop the connection (the torn-line fault).
        """
        if self.plan.torn_response_rate > 0 and len(data) > 1 and \
                self._torn_rng.random() < self.plan.torn_response_rate:
            self.torn += 1
            return data[:max(1, len(data) // 2)]
        return None

    def stats(self) -> dict:
        """JSON-able injector counters (exported via server stats)."""
        return {
            "backend_index": self.backend_index,
            "simulate_seen": self.simulate_seen,
            "slowed": self.slowed,
            "blackholed": self.blackholed,
            "torn": self.torn,
        }


class MemoryFaultInjector:
    """Per-simulation adapter applying a plan to the response path.

    One injector per :class:`repro.mem.subsystem.MemorySubsystem`; it
    owns the plan's RNG streams and the drop/delay counters the
    invariant checker uses to keep conservation exact under injection.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._drop_rng = plan.stream("mem.drop")
        self._delay_rng = plan.stream("mem.delay")
        self.dropped = 0
        self.delayed = 0

    def on_response(self, req) -> str:
        """Fate of a read response: ``deliver``, ``drop`` or ``delay``.

        Each response is delayed at most once (the retry would otherwise
        starve under high delay rates), and drops respect ``max_drops``.
        """
        plan = self.plan
        if plan.drop_response_rate > 0 and (
            plan.max_drops == 0 or self.dropped < plan.max_drops
        ):
            if self._drop_rng.random() < plan.drop_response_rate:
                self.dropped += 1
                return "drop"
        if plan.delay_response_rate > 0 and not getattr(
            req, "fault_delayed", False
        ):
            if self._delay_rng.random() < plan.delay_response_rate:
                self.delayed += 1
                req.fault_delayed = True
                return "delay"
        return "deliver"
