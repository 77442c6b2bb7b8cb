#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

Run from the repository root::

    python3 perfbench/steady.py --workload fig-regular --seeds 1-10 \\
        --out fig-regular.jsonl
    python3 perfbench/steady.py --workload all --seeds 1   # every workload

Each run prints every metric with its unit and the run's sample counts.
For every end-to-end metric it prints the median and the interquartile
range as a share of the median (``statistics.quantiles(n=4)``), next to
the metric's bound from ``BENCHMARK.json``; a spread above a third of the
bound is flagged.  It also checks that every work counter of the run
records (``model.*``) repeats exactly across seeds.  The records are
appended to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    record["result"] = json.loads(lines[-1])
    return record


def spread(values: List[float]) -> float:
    """Interquartile range over the median (what the bound limits)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def counters_drift(records: List[dict]) -> Dict[str, set]:
    """Counters whose values differ between records."""
    names = set().union(*(r["counters"] for r in records))
    drift = {}
    for name in sorted(names):
        values = {r["counters"].get(name) for r in records}
        if len(values) > 1:
            drift[name] = values
    return drift


def report(records: List[dict], bench: dict) -> bool:
    """Print spreads; True when every one is under a third of its bound."""
    ok = True
    declared = bench["per_layer" if records[0]["trace"] else "end_to_end"]
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in records]
        s = spread(values) if len(values) >= 2 else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s" and s > bound / 3:
            flag, ok = "  <-- above bound/3", False
        print(f"{m['name']:<32} median {statistics.median(values):>14.6g} "
              f"{m['unit']:<6} spread {s:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    failed = sum(r["result"]["failed"] for r in records)
    incorrect = sum(1 for r in records if not r["result"]["correct"])
    print(f"runs {len(records)}, failed operations {failed}, "
          f"incorrect runs {incorrect}")
    drift = counters_drift(records)
    for name, values in drift.items():
        print(f"counter {name} drifts: {sorted(values)}")
    return ok and not failed and not incorrect and not drift


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    ok = True
    for workload in workloads:
        print(f"== {workload}", flush=True)
        records = []
        for seed in parse_seeds(args.seeds):
            record = run_once(workload, seed, seconds, args.trace)
            records.append(record)
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g} {v['unit']}"
                for k, v in record["metrics"].items() if not args.trace)
                + f"; samples {record['samples']}", flush=True)
            if args.out is not None:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        ok = report(records, bench) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
