"""Differential harness pinning the event engine to the cycle engine.

The guarantee of the event engine's issue spans
(:mod:`repro.sim.fastcore`) is *bit-identical* results: for every
workload, scheduler and prefetcher combination the batched path must
produce exactly the counters, series and snapshots of the reference
per-cycle SM step.  This suite sweeps the full workload matrix at TINY
scale and compares deep fingerprints (see :mod:`tests._difftools`).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.guard.faults import FaultPlan
from repro.obs.collector import series
from repro.prefetch.factory import make_prefetcher
from repro.workloads import ALL_BENCHMARKS, Scale, build

from tests._difftools import (
    assert_identical,
    fingerprint,
    run_corun_differential,
    run_differential,
    run_engine,
)

SCHEDULERS = tuple(SchedulerKind)
PREFETCHERS = (None, "caps")


def _factory(name):
    return make_prefetcher(name) if name else None


class TestFullMatrix:
    """Every workload x scheduler x prefetch combination, both engines."""

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    def test_workloads_identical(self, bench, pf):
        cfg = tiny_config()
        res = run_differential(
            lambda: build(bench, Scale.TINY), cfg, _factory(pf),
            label=f"{bench}/{cfg.scheduler.value}/{pf or 'none'}",
        )
        assert res.completed

    @pytest.mark.parametrize("sched", SCHEDULERS, ids=lambda s: s.value)
    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    @pytest.mark.parametrize("bench", ("MRQ", "MM", "BFS"))
    def test_schedulers_identical(self, bench, sched, pf):
        cfg = tiny_config(scheduler=sched)
        res = run_differential(
            lambda: build(bench, Scale.TINY), cfg, _factory(pf),
            label=f"{bench}/{sched.value}/{pf or 'none'}",
        )
        assert res.completed


class TestObservability:
    """Windowed obs series must match window by window."""

    @pytest.mark.parametrize("bench", ("MRQ", "BFS"))
    def test_timeseries_identical(self, bench):
        cfg = tiny_config().with_obs(metrics=True, window=128)
        res = run_differential(
            lambda: build(bench, Scale.TINY), cfg,
            _factory("caps"), label=f"{bench}/timeseries",
        )
        assert "timeseries" in res.extra
        assert res.extra["timeseries"]["samples"]

    def test_series_reconciles_with_counters(self):
        """Windowed series summed over all windows == final counters."""
        cfg = tiny_config().with_obs(metrics=True, window=64)
        _, res = run_engine(lambda: build("MRQ", Scale.TINY), cfg, "event")
        ts = res.extra["timeseries"]
        issued = sum(series(ts, "instructions"))
        assert issued == res.instructions


class TestHangAndGuards:
    """Incomplete runs and guard services behave identically."""

    def test_hang_snapshot_identical(self):
        """A max_cycles cutoff yields the same diagnostic snapshot."""
        cfg = tiny_config(hang_cycles=0)
        gpu_ref, res_ref = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "cycle", max_cycles=400)
        gpu_evt, res_evt = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "event", max_cycles=400)
        assert not res_ref.completed and not res_evt.completed
        assert res_ref.cycles == res_evt.cycles == 400
        assert_identical(fingerprint(gpu_ref, res_ref),
                         fingerprint(gpu_evt, res_evt), "hang@400")

    def test_deep_checks_force_reference_loop(self):
        """deep_checks inspects every cycle, so the event engine defers."""
        cfg = tiny_config(deep_checks=True)
        _, res = run_engine(lambda: build("MRQ", Scale.TINY), cfg, "event")
        assert res.completed  # ran (and passed) under per-cycle invariants

    def test_fault_injection_identical(self):
        """Delayed responses perturb timing the same way in both engines."""
        plan = FaultPlan(seed=7, delay_response_rate=0.3, delay_cycles=40)
        cfg = tiny_config()
        gpu_ref, res_ref = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "cycle", faults=plan)
        gpu_evt, res_evt = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "event", faults=plan)
        assert_identical(fingerprint(gpu_ref, res_ref),
                         fingerprint(gpu_evt, res_evt), "faults/delay")


class TestEngineKnob:
    """The config knob itself: validation and default."""

    def test_default_is_event(self):
        assert tiny_config().engine == "event"

    def test_cycle_opt_in(self):
        cfg = dataclasses.replace(tiny_config(), engine="cycle")
        assert cfg.engine == "cycle"

    def test_invalid_engine_rejected(self):
        with pytest.raises(Exception):
            tiny_config(engine="warp-drive")


class TestMultiKernel:
    """Concurrent-kernel co-runs must be bit-identical too — including
    the per-kernel sub-records and the allocation-policy summary."""

    PAIRS = (("MRQ", "MM"), ("BFS", "CP"), ("KM", "FFT"))
    POLICIES = ("spatial", "leftover", "preempt")

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: "+".join(p))
    def test_corun_identical(self, pair, policy, pf):
        cfg = tiny_config().with_multi(alloc_policy=policy)
        res = run_corun_differential(
            lambda: [build(b, Scale.TINY) for b in pair], cfg,
            _factory(pf),
            label=f"{'+'.join(pair)}/{policy}/{pf or 'none'}",
        )
        assert res.completed
        assert len(res.extra["kernels"]) == 2

    @pytest.mark.parametrize("policy", POLICIES)
    def test_truncated_corun_identical(self, policy):
        """A run cut off mid-flight (CTAs still resident, preemption
        decisions half-made, prefetches in flight) must still
        fingerprint identically."""
        cfg = tiny_config().with_multi(alloc_policy=policy)
        full = run_corun_differential(
            lambda: [build(b, Scale.TINY) for b in ("MRQ", "MM")], cfg,
            _factory("caps"), label=f"corun/{policy}/full",
        )
        cut = max(64, full.cycles // 3)
        res = run_corun_differential(
            lambda: [build(b, Scale.TINY) for b in ("MRQ", "MM")], cfg,
            _factory("caps"), max_cycles=cut,
            label=f"corun/{policy}/truncated@{cut}",
        )
        assert not res.completed
