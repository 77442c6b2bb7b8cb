"""Top-level GPU: SMs + shared memory system + CTA distributor.

:func:`simulate` is the main entry point used by examples, tests and the
benchmark harness: it runs one kernel to completion under a given config
and prefetcher and returns a :class:`SimResult` holding every metric the
paper's figures report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import GPUConfig
from repro.guard.invariants import InvariantChecker
from repro.guard.watchdog import Watchdog, build_snapshot
from repro.mem.subsystem import MemorySubsystem
from repro.obs import build as build_obs
from repro.prefetch.base import NoPrefetcher
from repro.prefetch.stats import PrefetchStats
from repro.sim.cta import CTADistributor
from repro.sim.fastcore import _dispatch, _next_hook
from repro.sim.kernel import KernelInfo
from repro.sim.sm import SM, SMStats


@dataclass
class SimResult:
    """Aggregated outcome of one simulation run."""

    kernel: str
    prefetcher: str
    scheduler: str
    cycles: int
    instructions: int
    sm_stats: SMStats
    prefetch_stats: PrefetchStats
    l1_accesses: int
    l1_hits: int
    l1_misses: int
    l2_hit_rate: float
    dram_reads: int
    dram_writes: int
    dram_row_hit_rate: float
    core_requests: int
    core_demand_requests: int
    core_prefetch_requests: int
    core_store_requests: int
    completed: bool
    ctas_total: int
    #: Free-form extras; incomplete runs carry their diagnostic
    #: ``hang_snapshot`` here (see :mod:`repro.guard.watchdog`).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """Fraction of L1D accesses that hit (demand only)."""
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    def coverage(self) -> float:
        """Prefetch coverage: useful prefetches / demand fetches."""
        return self.prefetch_stats.coverage(self.sm_stats.demand_mem_fetches)

    def accuracy(self) -> float:
        """Prefetch accuracy: useful prefetches / issued prefetches."""
        return self.prefetch_stats.accuracy()

    def stall_fraction(self) -> float:
        """Fraction of SM cycles stalled with every warp waiting on memory."""
        active = self.sm_stats.active_cycles
        return self.sm_stats.stall_mem_all / active if active else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flatten the headline metrics into a JSON-able dict."""
        return {
            "kernel": self.kernel,
            "prefetcher": self.prefetcher,
            "scheduler": self.scheduler,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "core_requests": self.core_requests,
            "coverage": self.coverage(),
            "accuracy": self.accuracy(),
            "stall_fraction": self.stall_fraction(),
            "completed": self.completed,
            **{f"pf_{k}": v for k, v in self.prefetch_stats.as_dict().items()},
        }


class GPU:
    """Whole-GPU simulation driver.

    Owns the SMs, the shared memory subsystem, the CTA distributor and
    the optional cross-cutting services: the hang watchdog and runtime
    invariants (:mod:`repro.guard`, enabled via ``config.hang_cycles`` /
    ``config.deep_checks``) and the observability hub
    (:mod:`repro.obs`, enabled via ``config.obs``).  Construction
    launches the initial CTA wave; :meth:`run` advances the machine
    cycle by cycle until every CTA retires.

    Most callers should use :func:`simulate` rather than instantiating
    this class directly.
    """

    def __init__(
        self,
        kernel: KernelInfo,
        config: GPUConfig,
        prefetcher_factory=None,
        faults=None,
    ):
        self.kernel = kernel
        self.config = config
        factory = prefetcher_factory or (lambda cfg, sm_id: NoPrefetcher(cfg, sm_id))
        injector = None
        if faults is not None and faults.affects_simulation:
            from repro.guard.faults import MemoryFaultInjector
            injector = MemoryFaultInjector(faults)
        self.subsystem = MemorySubsystem(
            config, config.num_sms, self._on_response, faults=injector
        )
        self.watchdog = (Watchdog(config.hang_cycles)
                         if config.hang_cycles else None)
        self.invariants = InvariantChecker(config)
        # Created before the SMs: _launch_initial() below already emits
        # CTA/warp launch events through the hub.
        self.obs = build_obs(config, config.num_sms)
        self.sms: List[SM] = []
        for sm_id in range(config.num_sms):
            pf = factory(config, sm_id)
            self.sms.append(
                SM(sm_id, config, kernel, pf, self.subsystem,
                   self._on_cta_done, obs=self.obs)
            )
        max_ctas = min(config.max_ctas_per_sm, kernel.max_ctas_per_sm(config))
        self.distributor = CTADistributor(
            num_ctas=kernel.num_ctas,
            num_sms=config.num_sms,
            max_ctas_per_sm=max_ctas,
        )
        self.now = 0
        self._launch_initial()

    def _launch_initial(self) -> None:
        for cta_id, sm_id in self.distributor.initial_fill():
            self.sms[sm_id].launch_cta(cta_id, self.now)

    def _on_response(self, req) -> None:
        self.sms[req.sm_id].on_mem_response(req, self.now)

    def _on_cta_done(self, sm_id: int, cta, now: int) -> None:
        nxt = self.distributor.on_cta_finish(sm_id)
        if nxt is not None:
            self.sms[sm_id].launch_cta(nxt, self.now)

    @property
    def done(self) -> bool:
        """True once every SM has retired all of its CTAs."""
        return all(sm.done for sm in self.sms)

    def run(self, max_cycles: Optional[int] = None,
            monitor=None) -> SimResult:
        """Run to completion (or ``max_cycles``).

        ``monitor`` is an optional sampling observer (e.g.
        :class:`repro.analysis.timeline.TimelineMonitor`): its
        ``sample(gpu, now)`` is invoked every ``monitor.interval``
        cycles.
        """
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        interval = getattr(monitor, "interval", 0)
        obs = self.obs
        if obs is not None and obs.profiler is not None:
            self._run_loop_profiled(limit, monitor, interval,
                                    obs.window_interval)
        else:
            self._run_loop(limit, monitor, interval)
        completed = self.done
        cycles = self.now
        if completed:
            self._flush_memory(limit)
        for sm in self.sms:
            sm.finalize()
        if obs is not None:
            obs.finalize(self, cycles)
        self.invariants.verify_end(self, completed)
        result = self._collect(completed, cycles)
        if obs is not None:
            obs.attach_results(result.extra, self.config.num_sms)
        if not completed:
            result.extra["hang_snapshot"] = build_snapshot(self, cycles)
        return result

    def _run_loop(self, limit: int, monitor, interval: int) -> None:
        """The main loop of both engines.

        Each cycle advances every SM whose issue span has ended — through
        the reference ``SM.cycle`` under ``engine="cycle"``, through
        :func:`repro.sim.fastcore._dispatch` (which may open a new span)
        under ``engine="event"`` — then the memory subsystem, then the
        periodic hooks.  Deep per-cycle invariant checks inspect every
        cycle's state, so they run without spans."""
        sms = self.sms
        sub = self.subsystem
        obs = self.obs
        wd = self.watchdog
        deep = self.config.deep_checks
        obs_interval = obs.window_interval if obs is not None else 0
        wd_interval = wd.check_interval if wd is not None else 0
        spans = self.config.engine == "event" and not deep
        now = self.now
        hook_at = _next_hook(now, limit, interval, obs_interval, wd_interval)
        cap_box = [0]
        while now < limit:
            # Cheap done probe: an SM with unfinished warps is not done.
            for sm in sms:
                if sm.unfinished_warps:
                    break
            else:
                if self.done:
                    break
            if spans:
                cap_box[0] = 0
                for sm in sms:
                    if sm._skip_until <= now:
                        _dispatch(sm, now, hook_at, sub, cap_box)
            else:
                for sm in sms:
                    sm.cycle(now)
            sub.cycle(now)
            now += 1
            self.now = now
            if deep or now >= hook_at:
                if interval and now % interval == 0:
                    monitor.sample(self, now)
                if obs_interval and now % obs_interval == 0:
                    obs.flush(self, now)
                if deep:
                    self.invariants.check_cycle(self, now)
                if wd_interval and now % wd_interval == 0:
                    wd.check(self, now)
                hook_at = _next_hook(now, limit, interval, obs_interval,
                                     wd_interval)

    def _run_loop_profiled(self, limit: int, monitor, interval: int,
                           obs_interval: int) -> None:
        """Main loop variant with per-phase wall timing (``obs.profile``).

        Kept separate from the default loop so the common un-profiled
        path carries no timing calls at all."""
        obs = self.obs
        prof = obs.profiler
        wd = self.watchdog
        deep = self.config.deep_checks
        perf = time.perf_counter
        cycles0 = self.now
        while not self.done and self.now < limit:
            t0 = perf()
            for sm in self.sms:
                sm.cycle(self.now)
            t1 = perf()
            self.subsystem.cycle(self.now)
            t2 = perf()
            prof.add("sm_cycle", t1 - t0)
            prof.add("mem_cycle", t2 - t1)
            self.now += 1
            if interval and self.now % interval == 0:
                monitor.sample(self, self.now)
            if obs_interval and self.now % obs_interval == 0:
                t3 = perf()
                obs.flush(self, self.now)
                prof.add("obs_flush", perf() - t3)
            if deep:
                t4 = perf()
                self.invariants.check_cycle(self, self.now)
                prof.add("deep_checks", perf() - t4)
            if wd is not None and self.now % wd.check_interval == 0:
                wd.check(self, self.now)
        # Record the simulated-cycle count so profile consumers can
        # derive host-seconds-per-cycle without the SimResult in hand.
        prof.add("cycles", 0.0, calls=self.now - cycles0)

    def _flush_memory(self, limit: int) -> None:
        """Drain in-flight stores/prefetches after the last warp retires
        so traffic counters balance.  Flush cycles are not charged to the
        kernel (completion time is the last warp's retirement)."""
        t = self.now
        deadline = t + min(100_000, max(0, limit - t) + 100_000)
        while t < deadline:
            busy = False
            for sm in self.sms:
                if sm.miss_queue or sm.store_queue or sm.prefetch_miss_queue:
                    sm._drain_miss_queue(t)
                    busy = True
            self.subsystem.cycle(t)
            t += 1
            if not busy and self.subsystem.drained():
                return

    def _collect(self, completed: bool, cycles: Optional[int] = None) -> SimResult:
        sm_stats = SMStats()
        pstats = PrefetchStats()
        l1_acc = l1_hit = l1_miss = 0
        for sm in self.sms:
            sm_stats.merge(sm.stats)
            pstats.merge(sm.pstats)
            l1_acc += sm.l1.accesses
            l1_hit += sm.l1.hits
            l1_miss += sm.l1.misses
        sub = self.subsystem
        return SimResult(
            kernel=self.kernel.name,
            prefetcher=self.sms[0].prefetcher.name,
            scheduler=self.config.scheduler.value,
            cycles=cycles if cycles is not None else self.now,
            instructions=sm_stats.instructions,
            sm_stats=sm_stats,
            prefetch_stats=pstats,
            l1_accesses=l1_acc,
            l1_hits=l1_hit,
            l1_misses=l1_miss,
            l2_hit_rate=sub.l2_hit_rate(),
            dram_reads=sub.dram_reads,
            dram_writes=sub.dram_writes,
            dram_row_hit_rate=sub.dram_row_hit_rate,
            core_requests=sub.core_requests,
            core_demand_requests=sub.core_demand_requests,
            core_prefetch_requests=sub.core_prefetch_requests,
            core_store_requests=sub.core_store_requests,
            completed=completed,
            ctas_total=self.kernel.num_ctas,
        )


def simulate(
    kernel: KernelInfo,
    config: GPUConfig,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    monitor=None,
    faults=None,
) -> SimResult:
    """Run ``kernel`` on a fresh GPU and return its :class:`SimResult`.

    ``faults`` is an optional :class:`repro.guard.faults.FaultPlan`; when
    it perturbs simulation timing the memory subsystem routes responses
    through a seeded injector (chaos testing only — such results are
    never persisted to the shared result cache).
    """
    gpu = GPU(kernel, config, prefetcher_factory, faults=faults)
    return gpu.run(max_cycles=max_cycles, monitor=monitor)
