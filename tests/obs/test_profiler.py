"""PhaseProfiler accounting, merge_profiles and format_profile."""

from __future__ import annotations

import repro.sim.gpu as gpu_mod
from repro.config import test_config as tiny_config
from repro.obs import PhaseProfiler, format_profile, merge_profiles
from repro.prefetch import make_prefetcher
from repro.sim.fastcore import _dispatch
from repro.sim.gpu import simulate
from repro.workloads import Scale, build
from tests._difftools import assert_identical, fingerprint, run_engine


class TestPhaseProfiler:
    def test_add_accumulates(self):
        prof = PhaseProfiler()
        prof.add("sm", 0.25)
        prof.add("sm", 0.25, calls=3)
        prof.add("mem", 0.5)
        d = prof.as_dict()
        assert d["phases"]["sm"] == {"seconds": 0.5, "calls": 4}
        assert d["phases"]["mem"]["seconds"] == 0.5
        assert d["accounted_seconds"] == 1.0
        assert d["wall_seconds"] >= 0.0

    def test_simulated_profile_covers_the_hot_loop(self):
        cfg = tiny_config().with_obs(profile=True)
        res = simulate(build("MM", Scale.TINY), cfg, make_prefetcher("caps"))
        prof = res.extra["profile"]
        assert {"sm_cycle", "mem_cycle", "cycles"} <= set(prof["phases"])
        assert prof["phases"]["cycles"]["calls"] == res.cycles
        assert prof["accounted_seconds"] <= prof["wall_seconds"] + 1e-6

    def test_profile_times_the_event_engine_it_runs(self, monkeypatch):
        """``--profile`` under ``engine="event"`` goes through the span
        dispatcher and leaves the result bit-identical."""
        cfg = tiny_config()
        factory = make_prefetcher("caps")
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return _dispatch(*args)

        with monkeypatch.context() as patch:
            patch.setattr(gpu_mod, "_dispatch", counting)
            gpu, profiled = run_engine(
                lambda: build("MM", Scale.TINY),
                cfg.with_obs(profile=True), "event", factory)
        assert calls[0] > 0
        assert "profile" in profiled.extra
        # The phase hooks are back to the class methods.
        assert "cycle" not in vars(gpu.subsystem)
        plain_gpu, plain = run_engine(lambda: build("MM", Scale.TINY), cfg,
                                      "event", factory)
        assert_identical(fingerprint(plain_gpu, plain),
                         fingerprint(gpu, profiled), "profile")


class TestAggregation:
    def test_merge_profiles_sums_cells(self):
        a = PhaseProfiler()
        a.add("sm", 1.0, calls=10)
        b = PhaseProfiler()
        b.add("sm", 2.0, calls=5)
        b.add("mem", 3.0)
        merged = merge_profiles([a.as_dict(), None, b.as_dict()])
        assert merged["cells"] == 2
        assert merged["phases"]["sm"] == {"seconds": 3.0, "calls": 15}
        assert merged["phases"]["mem"]["seconds"] == 3.0

    def test_format_profile_lines(self):
        prof = PhaseProfiler()
        prof.add("sm_cycle", 0.5, calls=100)
        lines = format_profile(prof.as_dict())
        text = "\n".join(lines)
        assert "sm_cycle" in text
        assert "wall time" in text
