"""Reusable helpers for differential engine testing.

The event engine's issue spans (``repro.sim.fastcore``) must be
*bit-identical* to the reference per-cycle SM step: every headline metric, stall counter, component
counter, windowed observability series and hang snapshot has to match to
the integer.  These helpers run one workload under both engines from
identical initial conditions and produce deep fingerprints whose
comparison yields readable diffs.

Used by ``tests/sim/test_differential_engines.py`` (the pinned matrix),
the property-based suite (``tests/test_properties_engines.py``) and the
CI ``engine-matrix`` job.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, Optional

import repro.mem.request as _request_mod
import repro.sim.warp as _warp_mod
from repro.sim.gpu import GPU
from repro.sim.kernel import KernelInfo


def reset_uid_counters() -> None:
    """Restart the global warp/request uid counters.

    Warp and request uids are allocated from process-global
    ``itertools.count`` streams; paired runs must start from the same
    numbering or uid-keyed state (hit heaps, MSHR waiter lists, hang
    snapshots) diverges for bookkeeping rather than behavioural reasons.
    """
    _warp_mod._warp_uid = itertools.count()
    _request_mod._uid = itertools.count()


def run_engine(
    kernel_fn: Callable[[], KernelInfo],
    config,
    engine: str,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    faults=None,
):
    """Run ``kernel_fn()`` under ``config`` with the given engine.

    Returns ``(gpu, result)`` so fingerprints can reach component-level
    counters the :class:`repro.sim.gpu.SimResult` does not aggregate.
    The uid counters are reset first, so two successive calls see
    identical initial conditions.
    """
    reset_uid_counters()
    cfg = dataclasses.replace(config, engine=engine)
    gpu = GPU(kernel_fn(), cfg, prefetcher_factory, faults=faults)
    result = gpu.run(max_cycles=max_cycles)
    return gpu, result


def fingerprint(gpu: GPU, result) -> Dict[str, Any]:
    """Deep state digest of a finished run.

    Everything in the returned dict is plain ints/floats/strings, so
    ``assert_identical`` can diff two fingerprints key by key.
    """
    fp: Dict[str, Any] = dict(result.as_dict())
    fp["sm_stats"] = dataclasses.asdict(result.sm_stats)
    fp["pf_stats"] = result.prefetch_stats.as_dict()
    for sm in gpu.sms:
        p = f"sm{sm.sm_id}"
        fp[f"{p}.stats"] = dataclasses.asdict(sm.stats)
        l1 = sm.l1
        fp[f"{p}.l1"] = (l1.accesses, l1.hits, l1.misses, l1._tick,
                         l1.occupancy())
        fp[f"{p}.mshr"] = (l1.mshr.allocated, l1.mshr.released)
        fp[f"{p}.queues"] = (len(sm.miss_queue), len(sm.store_queue),
                             len(sm.prefetch_miss_queue),
                             len(sm.prefetch_queue))
    sub = gpu.subsystem
    fp["sub.core"] = (sub.core_requests, sub.core_demand_requests,
                      sub.core_prefetch_requests, sub.core_store_requests,
                      sub.responses_delivered)
    fp["sub.pipes"] = (sub.request_pipe.total_entered,
                       sub.request_pipe.peak_occupancy,
                       sub.response_pipe.total_entered,
                       sub.response_pipe.peak_occupancy)
    for part in sub.partitions:
        c = part.cache
        fp[f"l2.{part.pid}"] = (c.accesses, c.hits, c.misses,
                                part.stall_cycles, part.mshr.allocated,
                                part.mshr.released)
    for ch in sub.channels:
        fp[f"dram.{ch.channel_id}"] = (
            ch.reads, ch.writes, ch.row_hits, ch.row_misses,
            ch.busy_cycles, ch.cycles_observed, ch.queue_occupancy_sum,
            ch.service_wait_sum,
        )
    if "timeseries" in result.extra:
        fp["timeseries"] = result.extra["timeseries"]
    if "hang_snapshot" in result.extra:
        fp["hang_snapshot"] = result.extra["hang_snapshot"]
    return fp


def diff_fingerprints(a: Dict[str, Any], b: Dict[str, Any]) -> list:
    """All keys whose values differ, as ``(key, a_value, b_value)``."""
    out = []
    for key in sorted(set(a) | set(b)):
        va = a.get(key, "<missing>")
        vb = b.get(key, "<missing>")
        if va != vb:
            out.append((key, va, vb))
    return out


def assert_identical(a: Dict[str, Any], b: Dict[str, Any],
                     label: str = "") -> None:
    """Assert two fingerprints match, with a per-key failure report."""
    delta = diff_fingerprints(a, b)
    if delta:
        lines = [f"engines diverge for {label or 'run'}:"]
        for key, va, vb in delta:
            lines.append(f"  {key}: cycle={va!r} event={vb!r}")
        raise AssertionError("\n".join(lines))


def run_differential(
    kernel_fn: Callable[[], KernelInfo],
    config,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    label: str = "",
):
    """Run both engines and assert their fingerprints are identical.

    Returns the reference result (for further assertions by the caller).
    """
    gpu_ref, res_ref = run_engine(kernel_fn, config, "cycle",
                                  prefetcher_factory, max_cycles)
    gpu_evt, res_evt = run_engine(kernel_fn, config, "event",
                                  prefetcher_factory, max_cycles)
    assert_identical(fingerprint(gpu_ref, res_ref),
                     fingerprint(gpu_evt, res_evt), label)
    return res_ref


# ------------------------------------------------------ multi-kernel co-runs

def run_corun_engine(
    kernels_fn: Callable[[], list],
    config,
    engine: str,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
):
    """Run a multi-kernel co-schedule under the given engine.

    ``kernels_fn`` must build *fresh* kernels on every call (kernel
    programs are virtualized in place by :class:`MultiKernelApp`, so
    instances cannot be shared between the paired runs).
    """
    from repro.sim.multi import MultiGPU, MultiKernelApp

    reset_uid_counters()
    cfg = dataclasses.replace(config, engine=engine)
    gpu = MultiGPU(MultiKernelApp(kernels_fn()), cfg, prefetcher_factory)
    result = gpu.run(max_cycles=max_cycles)
    return gpu, result


def corun_fingerprint(gpu, result) -> Dict[str, Any]:
    """:func:`fingerprint` plus the per-kernel sub-records and the
    allocation-policy summary (grant history length, finish cycles,
    predictor estimates) — the parts of a co-run the global counters
    cannot see."""
    fp = fingerprint(gpu, result)
    fp["kernels"] = repr(result.extra["kernels"])
    fp["multi"] = repr(result.extra["multi"])
    return fp


def run_corun_differential(
    kernels_fn: Callable[[], list],
    config,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    label: str = "",
):
    """Run a co-schedule under both engines; assert bit-identity.

    Returns the reference result (for further assertions by the caller).
    """
    gpu_ref, res_ref = run_corun_engine(kernels_fn, config, "cycle",
                                        prefetcher_factory, max_cycles)
    gpu_evt, res_evt = run_corun_engine(kernels_fn, config, "event",
                                        prefetcher_factory, max_cycles)
    assert_identical(corun_fingerprint(gpu_ref, res_ref),
                     corun_fingerprint(gpu_evt, res_evt), label)
    return res_ref
