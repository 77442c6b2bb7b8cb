"""The benchmark's per-layer tracer must keep wrapping the simulator.

``perfbench/tracer.py`` patches simulator methods by name through
``cls.__dict__[name]``, so renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` with a KeyError.  This pins the coupling:
install every layer, run a small simulation, and restore the originals.
"""

import importlib.util
import sys
from pathlib import Path

from repro.config import test_config as tiny_config
from repro.mem.subsystem import MemorySubsystem
from repro.prefetch.factory import default_scheduler_for, make_prefetcher
from repro.sim.gpu import GPU, simulate
from repro.sim.sm import SM
from repro.workloads import Scale, build

TOOL = Path(__file__).resolve().parents[2] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TOOL)
tracer_mod = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("perfbench_tracer", tracer_mod)
_spec.loader.exec_module(tracer_mod)


def test_install_sim_layers_traces_and_restores():
    originals = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in ((GPU, "run"), (SM, "cycle"),
                          (MemorySubsystem, "cycle"),
                          (MemorySubsystem, "cycle_event"))
    }
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_sim_layers(tracer)
        cfg = tiny_config().with_scheduler(default_scheduler_for("caps"))
        result = simulate(build("MM", Scale.TINY), cfg,
                          make_prefetcher("caps"))
    finally:
        tracer.restore()
    assert result.completed
    assert tracer.calls["sim.gpu.run"] == 1
    assert tracer.calls["mem.subsystem.cycle"] >= result.cycles
    assert tracer.calls["sim.sm.cycle"] > 0
    assert tracer.calls["guard.verify_end"] == 1
    for (cls, attr), fn in originals.items():
        assert cls.__dict__[attr] is fn, f"{cls.__name__}.{attr} not restored"
