"""Watchdog chaos tests: wedged simulations must terminate, with a
diagnosable snapshot, in bounded time."""

import pickle

import pytest

from repro.config import test_config as tiny_config
from repro.errors import SimulationHangError
from repro.guard.faults import FaultPlan
from repro.guard.watchdog import Watchdog, build_snapshot, format_snapshot
from repro.sim.gpu import GPU, simulate
from repro.sim.warp import WarpState
from tests.conftest import make_stream_kernel


def test_wedged_scheduler_trips_watchdog():
    """A machine making zero progress terminates well before max_cycles."""
    cfg = tiny_config(hang_cycles=2_000)
    gpu = GPU(make_stream_kernel(), cfg)
    for sm in gpu.sms:
        sm.cycle = lambda now: None  # the stuck-scheduler chaos monkey
    with pytest.raises(SimulationHangError) as err:
        gpu.run()
    e = err.value
    assert e.stalled_for >= 2_000
    # Detection latency is bounded: limit + one check interval, not
    # anywhere near the 200k-cycle budget the spin would have burned.
    assert e.cycle <= 2_000 + gpu.watchdog.check_interval + 1
    assert e.snapshot["kernel"] == "stream"
    assert len(e.snapshot["sms"]) == cfg.num_sms
    assert e.snapshot["memory"]["responses_delivered"] == 0


def test_dropped_demand_response_wedges_one_warp():
    """Dropping exactly one read response must hang the machine (the
    warp waits forever) and the watchdog must attribute it."""
    plan = FaultPlan(seed=11, drop_response_rate=1.0, max_drops=1)
    cfg = tiny_config(hang_cycles=3_000)
    with pytest.raises(SimulationHangError) as err:
        simulate(make_stream_kernel(), cfg, faults=plan)
    snap = err.value.snapshot
    assert snap["memory"]["responses_dropped"] == 1
    waiting = sum(sm["waiting_mem_warps"] for sm in snap["sms"])
    assert waiting >= 1
    # The wedged warp appears in the per-warp scoreboard view, blocked
    # since (roughly) the drop.
    views = [w for sm in snap["sms"] for w in sm["warps"]]
    assert any(v["state"] == WarpState.WAITING_MEM.value
               and v["blocked_for"] >= 3_000 for v in views)


def test_watchdog_quiet_on_healthy_run():
    cfg = tiny_config(hang_cycles=1_000)
    result = simulate(make_stream_kernel(), cfg)
    assert result.completed
    assert "hang_snapshot" not in result.extra


def test_watchdog_disabled_by_zero():
    cfg = tiny_config(hang_cycles=0)
    gpu = GPU(make_stream_kernel(), cfg)
    assert gpu.watchdog is None


def test_incomplete_run_carries_snapshot():
    """completed=False results must carry the diagnostic snapshot."""
    cfg = tiny_config(hang_cycles=0)
    result = simulate(make_stream_kernel(), cfg, max_cycles=60)
    assert not result.completed
    snap = result.extra["hang_snapshot"]
    assert snap["cycle"] == 60
    assert snap["ctas"]["total"] == 8
    assert len(snap["sms"]) == cfg.num_sms


def test_snapshot_is_jsonable():
    import json

    cfg = tiny_config(hang_cycles=0)
    gpu = GPU(make_stream_kernel(), cfg)
    gpu.run(max_cycles=120)
    snap = build_snapshot(gpu, 120)
    json.dumps(snap)  # must not raise


def test_format_snapshot_summary():
    cfg = tiny_config(hang_cycles=0)
    result = simulate(make_stream_kernel(), cfg, max_cycles=60)
    text = format_snapshot(result.extra["hang_snapshot"])
    assert "hang snapshot @ cycle 60" in text
    assert "SM0" in text
    assert "CTAs" in text
    assert format_snapshot({}) == "(no snapshot available)"


def test_hang_error_survives_pickling():
    """The error must cross the spawn-pool boundary intact."""
    cfg = tiny_config(hang_cycles=1_500)
    gpu = GPU(make_stream_kernel(), cfg)
    for sm in gpu.sms:
        sm.cycle = lambda now: None
    with pytest.raises(SimulationHangError) as err:
        gpu.run()
    clone = pickle.loads(pickle.dumps(err.value))
    assert clone.cycle == err.value.cycle
    assert clone.stalled_for == err.value.stalled_for
    assert clone.snapshot["kernel"] == "stream"


class TestWatchdogEventEngine:
    """The event engine must keep every watchdog guarantee in *simulated*
    cycles: batching issue cycles into spans is not allowed to stretch
    (or shrink) hang-detection latency or move the detection point."""

    def test_wedged_warp_detected_at_same_cycle_both_engines(self):
        """A dropped response wedges one warp; both engines must detect
        the hang at the identical simulated cycle with the same stall
        attribution."""
        import dataclasses

        from tests._difftools import reset_uid_counters

        errors = {}
        for engine in ("cycle", "event"):
            reset_uid_counters()
            plan = FaultPlan(seed=11, drop_response_rate=1.0, max_drops=1)
            cfg = dataclasses.replace(tiny_config(hang_cycles=3_000),
                                      engine=engine)
            with pytest.raises(SimulationHangError) as err:
                simulate(make_stream_kernel(), cfg, faults=plan)
            errors[engine] = err.value
        ref, evt = errors["cycle"], errors["event"]
        assert evt.cycle == ref.cycle
        assert evt.stalled_for == ref.stalled_for
        assert evt.snapshot == ref.snapshot

    def test_wedged_scheduler_bounded_latency_event_engine(self):
        """Chaos-monkeyed SMs make zero progress; the event engine's
        hook boundaries must still bound detection latency by the limit
        plus one check interval of *simulated* cycles."""
        cfg = tiny_config(hang_cycles=2_000)
        assert cfg.engine == "event"
        gpu = GPU(make_stream_kernel(), cfg)
        for sm in gpu.sms:
            sm.cycle = lambda now: None  # the stuck-scheduler chaos monkey
        with pytest.raises(SimulationHangError) as err:
            gpu.run()
        e = err.value
        assert e.stalled_for >= 2_000
        assert e.cycle <= 2_000 + gpu.watchdog.check_interval + 1
        assert e.snapshot["memory"]["responses_delivered"] == 0

    def test_flush_deadline_is_simulated_cycles_event_engine(self):
        """Post-retirement draining must not leave traffic in flight."""
        cfg = tiny_config(hang_cycles=1_000)
        gpu = GPU(make_stream_kernel(), cfg)
        result = gpu.run()
        assert result.completed
        assert gpu.subsystem.drained()
        for sm in gpu.sms:
            assert not sm.store_queue and not sm.miss_queue


def test_watchdog_validation():
    with pytest.raises(ValueError):
        Watchdog(limit=0)


def test_check_interval_bounds():
    assert Watchdog(limit=50_000).check_interval == 4096
    assert Watchdog(limit=16).check_interval == 2
    assert Watchdog(limit=1).check_interval == 1
