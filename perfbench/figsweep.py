"""Figure-sweep workloads: ``fig-regular`` and ``fig-memory``.

Both drive the path a figure regeneration takes:
``repro.analysis.driver.run_matrix`` -> ``repro.exec`` (inline, ``jobs=1``,
no disk cache) -> the simulator.  A *pass* runs every cell of the
workload's matrix once on a fresh execution engine, so the in-process
memo never answers a cell.  Each cell is submitted on its own, so one
failing cell is counted and the pass goes on.

The seed only permutes the cell order: the simulator is deterministic,
so every seed simulates the same work and the ``model.*`` counters
repeat exactly.  A full garbage collection before each cell, outside its
timed interval, keeps one cell's time from depending on which cells ran
before it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from host import HostSpeed, median, percentile, self_peak_rss_mb
from tracer import Tracer, install_sim_layers

#: High-IPC regular kernels of Fig. 10 (IPC about 2.8-3.9 at SMALL).
REGULAR = ("CP", "MM", "HSP", "LPS", "STE", "CNV", "JC1", "MRQ", "SCN")
#: Memory-bound / irregular kernels (IPC about 0.8-2.1 at SMALL): two
#: graph kernels (BFS, CCL), one indirect-access kernel (PVR) and FFT.
#: HST is left out to keep a pass near 16 s on a 2-vCPU host.
MEMORY = ("BFS", "CCL", "PVR", "FFT")

#: One matrix cell: (benchmark, prefetch engine, co-run alloc policy).
Cell = Tuple[str, str, Optional[str]]

WORKLOADS: Dict[str, List[Cell]] = {
    "fig-regular": [(b, p, None) for b in REGULAR for p in ("none", "caps")]
    + [("MRQ+MM", "caps", "preempt")],
    "fig-memory": [(b, p, None) for b in MEMORY
                   for p in ("none", "caps", "inter")],
}


def cell_id(cell: Cell) -> str:
    """Stable name of a cell, the key of its pinned digest."""
    bench, engine, policy = cell
    return f"{bench}/{engine}" + (f"/{policy}" if policy else "")


def run_cell(cell: Cell):
    """Simulate one cell through ``run_matrix``; returns the SimResult."""
    from repro.analysis.driver import run_matrix
    from repro.config import small_config

    bench, engine, policy = cell
    config = small_config()
    if policy is not None:
        config = config.with_multi(alloc_policy=policy)
    return run_matrix([bench], [engine], config=config)[(bench, engine)]


def digest(result) -> str:
    """sha256 of the result's canonical bytes (``result_bytes``)."""
    from repro.exec import result_bytes

    return hashlib.sha256(result_bytes(result)).hexdigest()


@dataclass
class PassOutcome:
    """Timings and results of one pass over a matrix.

    Every cell's CPU time is also kept in reference seconds
    (:class:`host.HostSpeed`), from host-speed samples taken on the same
    clock around it.
    """

    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    ref_times: List[float] = field(default_factory=list)
    #: Reference seconds of the cells whose output matched its pin.
    ok_ref_times: List[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def ref_time(self) -> float:
        return sum(self.ref_times)


def run_pass(cells: List[Cell], pins: Dict[str, str],
             speed: Optional[HostSpeed] = None) -> PassOutcome:
    """One pass on a fresh engine; failures are counted, never raised.

    With ``speed``, a host-speed sample is taken before every cell and
    after the last one, outside the cells' timed intervals, and each
    cell's process CPU time is scaled by the samples around it.
    """
    from repro.analysis.driver import set_engine
    from repro.exec import ExecutionEngine

    set_engine(ExecutionEngine(jobs=1))
    out = PassOutcome()
    spans = []  # (t0, t1, output correct) per cell
    for cell in cells:
        gc.collect()
        if speed is not None:
            speed.sample()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = run_cell(cell)
        except Exception as exc:  # counted as a failed operation
            result = None
            out.failed += 1
            out.errors.append(f"{cell_id(cell)}: {exc!r}")
        t1 = time.perf_counter()
        out.cpus.append(time.process_time() - c0)
        out.walls.append(t1 - t0)
        ok = False
        if result is not None:
            got = digest(result)
            ok = got == pins.get(cell_id(cell))
            if ok:
                out.results.append(result)
            else:
                out.failed += 1
                out.errors.append(f"{cell_id(cell)}: digest {got[:16]} "
                                  "does not match the pinned digest")
        spans.append((t0, t1, ok))
    if speed is not None:
        speed.sample()
        for cpu, (t0, t1, ok) in zip(out.cpus, spans):
            ref = speed.to_reference(cpu, t0, t1)
            out.ref_times.append(ref)
            if ok:
                out.ok_ref_times.append(ref)
    return out


def model_counters(results, num_sms: int) -> Dict[str, float]:
    """Host-independent work counters over a pass's results.

    Float sums use ``math.fsum``, which is exactly rounded whatever the
    (seeded) cell order, so every counter repeats bit for bit.
    """
    cycles = sum(r.cycles for r in results)
    l1_acc = sum(r.l1_accesses for r in results)
    active = sum(r.sm_stats.active_cycles for r in results)
    issued = sum(r.prefetch_stats.issued for r in results)
    useful = sum(r.prefetch_stats.useful for r in results)
    demand = sum(r.sm_stats.demand_mem_fetches for r in results)
    n = len(results) or 1
    return {
        "model.cycles": cycles,
        "model.sm_cycles": cycles * num_sms,
        "model.instructions": sum(r.instructions for r in results),
        "model.l1_hit_rate": (sum(r.l1_hits for r in results) / l1_acc
                              if l1_acc else 0.0),
        "model.l2_hit_rate": math.fsum(r.l2_hit_rate for r in results) / n,
        "model.dram_reads": sum(r.dram_reads for r in results),
        "model.dram_row_hit_rate": math.fsum(r.dram_row_hit_rate
                                             for r in results) / n,
        "model.pf_issued": issued,
        "model.pf_accuracy": useful / issued if issued else 0.0,
        "model.pf_coverage": useful / demand if demand else 0.0,
        "model.stall_fraction": (sum(r.sm_stats.stall_mem_all
                                     for r in results) / active
                                 if active else 0.0),
    }


def ordered_cells(workload: str, seed: int) -> List[Cell]:
    """The workload's matrix in a seeded order."""
    cells = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cells)
    return cells


def measure(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    """Untraced run: whole passes for about ``seconds`` of sweep time.

    Passes go on while the next one would end less than half a pass past
    ``seconds``, so a run measures ``seconds`` to within half a pass
    whatever the host's speed.  Every time is the simulating process's
    CPU time, stated in reference seconds: on a 2-vCPU host shared with
    other tenants, and with a concurrent load for part of the time, the
    time of 26 fig-regular passes spread 0.44 (interquartile range over
    the median) in wall time, 0.18 in CPU time and 0.06 in reference CPU
    seconds.  A request on this path is a figure regeneration, one pass:
    the latency is the median of the run's pass times and their p99 (the
    slowest pass).  Single cells are too short to time steadily on such
    a host; their latencies are in the traced run (``exec.cell.*``).
    Peak memory is read after the first pass: later passes add a little
    to it, so a run with more passes would read higher.
    """
    from repro.config import small_config

    cells = ordered_cells(workload, seed)
    pins = spec["fig_digests"]
    limit_s = spec["goodput_limit_ms"][workload] / 1000.0
    speed = HostSpeed(spec["reference_speed"], clock=time.thread_time)
    passes: List[PassOutcome] = []
    elapsed = 0.0
    while not passes or elapsed + elapsed / len(passes) / 2 < seconds:
        passes.append(run_pass(cells, pins, speed))
        elapsed += passes[-1].wall
        if len(passes) == 1:
            peak_rss_mb = self_peak_rss_mb()
    pass_times = [p.ref_time for p in passes]
    ref_total = sum(pass_times)
    good = sum(1 for p in passes for t in p.ok_ref_times if t <= limit_s)
    return {
        "attempted": len(cells) * len(passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors],
        "samples": {"passes": len(passes),
                    "cells": len(cells) * len(passes),
                    "speed_samples": len(speed.samples),
                    "wall_s": round(elapsed, 3)},
        "counters": model_counters(passes[0].results,
                                   small_config().num_sms),
        "host_speed": speed.summary(),
        "metrics": {
            "sim_instr_per_s": sum(r.instructions for p in passes
                                   for r in p.results) / ref_total,
            "req_p50_ms": median(pass_times) * 1e3,
            "req_p99_ms": percentile(pass_times, 99) * 1e3,
            "goodput_rps": good / ref_total,
            "sweep_steps_per_s": sum(len(p.results)
                                     for p in passes) / ref_total,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced(workload: str, seed: int, spec: dict) -> dict:
    """Traced run: one untraced pass, then the same pass traced.

    Per-layer ``calls``/``self_s`` come from the traced pass; cell
    latencies and host time per SM-cycle from the untraced one, whose
    wall is also the base of ``trace.overhead_ratio``.
    """
    from repro.config import small_config

    cells = ordered_cells(workload, seed)
    pins = spec["fig_digests"]
    plain = run_pass(cells, pins)
    with Tracer() as tracer:
        install_sim_layers(tracer)
        traced_pass = run_pass(cells, pins)
    model = model_counters(plain.results, small_config().num_sms)
    metrics: Dict[str, float] = dict(model)
    for name in tracer.calls:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    sm_cycles = model["model.sm_cycles"]
    metrics.update({
        "sim.skip_ratio": (1.0 - tracer.calls["sim.sm.cycle"] / sm_cycles
                           if sm_cycles else 0.0),
        "sim.host_ns_per_sm_cycle": (plain.wall / sm_cycles * 1e9
                                     if sm_cycles else 0.0),
        "exec.cell.p50_ms": percentile(plain.walls, 50) * 1e3,
        "exec.cell.p99_ms": percentile(plain.walls, 99) * 1e3,
        "trace.overhead_ratio": traced_pass.wall / plain.wall,
        "trace.coverage": tracer.total_self_s() / traced_pass.wall,
    })
    return {
        "attempted": len(plain.walls) + len(traced_pass.walls),
        "failed": plain.failed + traced_pass.failed,
        "errors": plain.errors + traced_pass.errors,
        "samples": {"cells": len(plain.walls)},
        "metrics": metrics,
    }
