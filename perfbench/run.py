#!/usr/bin/env python3
"""Same-host benchmark of the CAPS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig-regular --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``fig-regular`` and ``fig-memory``
time a figure sweep through ``repro.analysis.driver.run_matrix``;
``serve-mixed`` drives ``repro fleet`` with an open-loop request stream
plus a closed-loop sweep client.  With ``--trace 0`` the result carries
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` a
separate traced run reports every per-layer metric.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``).  The line before it is the full record: host
fingerprint, sample counts, work counters and failure messages, which
``perfbench/compare.py`` reads.  The exit code is 0 whenever a result
was printed; a missing program or a benchmark bug exits non-zero
without one.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import host  # noqa: E402

#: Fresh-interpreter set-ups timed per run, half before the sweep and
#: half after it, so the median ``setup_s`` spans the run's host states.
SETUP_REPEATS = 8

#: Per-layer metric prefixes of the request path.  A traced run of a
#: workload that does not drive a path reports that path's metrics as 0
#: (no calls, no time), so every traced run carries every metric.
SERVE_LAYERS = ("client.", "router.", "tier.", "backend.", "predict.",
                "gen.")
SIM_LAYERS = ("sim.", "mem.", "prefetch.", "guard.", "exec.")

#: What a figure sweep must do before its first cell can be issued.
FIG_SETUP = (
    "from repro.analysis.driver import set_engine\n"
    "from repro.exec import ExecutionEngine\n"
    "set_engine(ExecutionEngine(jobs=1))\n"
    "print('ready', flush=True)\n"
)


#: The yardstick for set-up time: a fresh interpreter importing standard
#: library modules the program's set-up imports too.
REFERENCE_START = "import asyncio, dataclasses, hashlib, json\n"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def start_cpu_s(code: str, expect: str = "") -> float:
    """CPU seconds (user + system) of a fresh interpreter running
    ``code``, which must print ``expect``."""
    c0 = host.children_cpu_s()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    if proc.stdout.strip() != expect:
        raise RuntimeError(f"start probe failed: {proc.stderr[-500:]}")
    return host.children_cpu_s() - c0


def fig_setup_times(reference_start_s: float, repeats: int,
                    warm: bool = False) -> list:
    """Set-up times, in reference seconds, of ``repeats`` fresh
    interpreters from start to a ready execution engine.

    Each start's time is the CPU time (user + system) of the child, so a
    start the host delayed does not read slow.  Right before each, a
    yardstick start (:data:`REFERENCE_START`, standard library only)
    is timed the same way, and the set-up time is scaled by
    ``reference_start_s`` over the yardstick's time.  Process start-up
    and imports slow with the host differently from the simulator: over
    150 s of back-to-back starts on a 2-vCPU host, the median of five
    set-up times spread 0.15 (coefficient of variation) raw, 0.15 scaled
    by the host-speed loops, and 0.05 scaled by the yardstick.  With
    ``warm``, one untimed start first compiles bytecode, a cost users pay
    once.
    """
    if warm:
        start_cpu_s(FIG_SETUP, "ready")
    times = []
    for _ in range(repeats):
        yardstick = start_cpu_s(REFERENCE_START)
        times.append(start_cpu_s(FIG_SETUP, "ready")
                     * reference_start_s / yardstick)
    return times


def load_json(path: pathlib.Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    spec = load_json(HERE / "spec.json")

    fingerprint = host.fingerprint()
    if args.workload == "serve-mixed":
        import serve_mixed

        run = serve_mixed.traced if args.trace else serve_mixed.measure
        outcome = run(args.seed, args.seconds, spec, ROOT, child_env())
    else:
        import figsweep

        if args.trace:
            outcome = figsweep.traced(args.workload, args.seed, spec)
        else:
            half = SETUP_REPEATS // 2
            setups = fig_setup_times(spec["reference_start_s"], half, True)
            outcome = figsweep.measure(args.workload, args.seed,
                                       args.seconds, spec)
            setups += fig_setup_times(spec["reference_start_s"], half)
            outcome["metrics"]["setup_s"] = host.median(setups)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    produced = outcome["metrics"]
    if args.trace:
        idle = SIM_LAYERS if args.workload == "serve-mixed" else SERVE_LAYERS
        for m in declared:
            if m["name"].startswith(idle):
                produced.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in declared if m["name"] not in produced]
    if missing:
        print(f"perfbench: workload produced no value for {missing}",
              file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
               for m in declared}
    # Work counters must repeat exactly between runs of one commit.
    counters = dict(outcome.get("counters", {}))
    counters.update((k, v["value"]) for k, v in metrics.items()
                    if k.endswith(".calls"))
    invalid = outcome.get("invalid", [])
    failed = outcome["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint,
        "host_speed": outcome.get("host_speed"),
        "samples": outcome.get("samples", {}),
        "counters": counters,
        "invalid": invalid,
        "errors": outcome.get("errors", [])[:20],
        "metrics": metrics,
    }
    for line in record["errors"] + invalid:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not invalid,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
