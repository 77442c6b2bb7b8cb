"""Invariant-checker tests: conservation holds on every real workload,
and seeded corruption of any audited counter is caught."""

import pytest

from repro.config import test_config as tiny_config
from repro.errors import InvariantViolation
from repro.prefetch.factory import default_scheduler_for, make_prefetcher
from repro.sim.gpu import GPU, simulate
from repro.workloads import ALL_BENCHMARKS, Scale, build
from tests.conftest import make_stream_kernel


def _run(bench, engine="none", **overrides):
    cfg = tiny_config(**overrides).with_scheduler(
        default_scheduler_for(engine))
    factory = make_prefetcher(engine) if engine != "none" else None
    return simulate(build(bench, Scale.TINY), cfg, factory)


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
@pytest.mark.parametrize("engine", ["none", "caps"])
def test_conservation_holds_across_benchmark_matrix(bench, engine):
    """verify_end runs inside every simulate(); Fig. 10's full benchmark
    set completing without InvariantViolation is the assertion."""
    assert _run(bench, engine).completed


@pytest.mark.parametrize("bench", ["SCN", "BFS", "KM"])
def test_deep_checks_pass_on_real_workloads(bench):
    cfg = tiny_config(deep_checks=True).with_scheduler(
        default_scheduler_for("caps"))
    result = simulate(build(bench, Scale.TINY), cfg,
                      make_prefetcher("caps"))
    assert result.completed


def test_deep_checks_pass_incomplete_run():
    cfg = tiny_config(deep_checks=True, hang_cycles=0)
    result = simulate(make_stream_kernel(), cfg, max_cycles=80)
    assert not result.completed


@pytest.mark.parametrize("core", ["cycle", "event"])
@pytest.mark.parametrize("cut", [300, 500, 800])
@pytest.mark.parametrize("bench", ["MRQ", "MM", "BFS", "CNV"])
def test_truncated_prefetch_runs_conserve_outcomes(bench, cut, core):
    """A CAPS run cut with prefetches in flight (some already merged
    into by demands) passes every end-of-run invariant, and each issued
    prefetch has exactly one outcome: a merged in-flight prefetch is a
    late_merge from its first merge on, not a separate term."""
    cfg = tiny_config(engine=core).with_scheduler(
        default_scheduler_for("caps"))
    gpu = GPU(build(bench, Scale.TINY), cfg, make_prefetcher("caps"))
    result = gpu.run(max_cycles=cut)
    assert not result.completed
    if cut == 300:
        # The case that used to be counted twice: merged, still in flight.
        assert any(m.waiters for sm in gpu.sms
                   for m in sm._inflight_prefetch.values())
    p = result.prefetch_stats
    assert p.issued > 0
    assert p.issued == (p.useful + p.late_merge + p.early_evicted
                        + p.unused_at_end)


@pytest.mark.parametrize("cut", [64, 258, 355, 452])
def test_truncated_prefetch_corun_conserves_outcomes(cut):
    """The same on a preemptive MRQ+MM co-run, per kernel as well."""
    from repro.sim.multi import simulate_corun

    cfg = tiny_config().with_multi(alloc_policy="preempt").with_scheduler(
        default_scheduler_for("caps"))
    result = simulate_corun([build(b, Scale.TINY) for b in ("MRQ", "MM")],
                            cfg, make_prefetcher("caps"), max_cycles=cut)
    assert not result.completed
    p = result.prefetch_stats
    assert p.issued == (p.useful + p.late_merge + p.early_evicted
                        + p.unused_at_end)


def _finished_gpu():
    gpu = GPU(make_stream_kernel(), tiny_config())
    gpu.run()
    return gpu


def test_mshr_leak_detected():
    gpu = _finished_gpu()
    gpu.sms[0].l1.mshr.allocated += 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    assert err.value.name == "mshr_balance"
    assert err.value.details["allocated"] > err.value.details["released"]


def test_cache_counter_corruption_detected():
    gpu = _finished_gpu()
    gpu.sms[0].l1.hits += 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    assert err.value.name == "cache_counter_coherence"


def test_lost_response_detected():
    gpu = _finished_gpu()
    gpu.subsystem.responses_delivered -= 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    assert err.value.name == "read_request_conservation"


def test_store_leak_detected():
    gpu = _finished_gpu()
    gpu.subsystem.core_store_requests += 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    assert err.value.name == "store_conservation"


def test_prefetch_outcome_corruption_detected():
    cfg = tiny_config().with_scheduler(default_scheduler_for("caps"))
    gpu = GPU(build("SCN", Scale.TINY), cfg, make_prefetcher("caps"))
    gpu.run()
    assert gpu.sms[0].pstats.issued > 0
    gpu.sms[0].pstats.issued += 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    assert err.value.name == "prefetch_outcome_conservation"


def test_cta_loss_detected():
    gpu = _finished_gpu()
    gpu.sms[0].stats.ctas_executed -= 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    assert err.value.name == "cta_conservation"


def test_deep_check_catches_counter_drift():
    gpu = GPU(make_stream_kernel(), tiny_config())
    gpu.sms[0].unfinished_warps += 1
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.check_cycle(gpu, now=0)
    assert err.value.name == "unfinished_warp_count"


def test_violation_carries_structured_details():
    gpu = _finished_gpu()
    gpu.sms[0].l1.mshr.allocated += 3
    with pytest.raises(InvariantViolation) as err:
        gpu.invariants.verify_end(gpu, completed=True)
    details = err.value.details
    assert details["mshr"] == "l1.0"
    assert "allocated" in str(err.value)


def test_violation_survives_pickling():
    import pickle

    exc = InvariantViolation("boom", name="x", details={"a": 1})
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.name == "x" and clone.details == {"a": 1}
