#!/usr/bin/env python3
"""Compare two sets of benchmark records taken on the same host.

    python3 perfbench/compare.py base.jsonl head.jsonl

Each file holds records written by ``steady.py --out`` (one JSON record
per line, any workloads).  The comparison is refused (exit 2) when any
two records carry different host fingerprints: a timing from another
machine is not a baseline.  Otherwise, per workload, it compares the
median of every end-to-end metric against the bound in
``BENCHMARK.json`` (exit 1 on a regression) and requires every work
counter to match exactly between the two sets.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import same_host  # noqa: E402


def load(path: pathlib.Path) -> Dict[tuple, List[dict]]:
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=pathlib.Path)
    ap.add_argument("head", type=pathlib.Path)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base, head = load(args.base), load(args.head)
    records = [r for g in (base, head) for rs in g.values() for r in rs]
    if not records:
        print("no records to compare", file=sys.stderr)
        return 2
    for record in records[1:]:
        reasons = same_host(records[0]["host"], record["host"])
        if reasons:
            print("refusing to compare records from different hosts: "
                  + "; ".join(reasons), file=sys.stderr)
            return 2
    status = 0
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        if not trace:
            for m in bench["end_to_end"]:
                a = statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in base[key])
                b = statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in head[key])
                change = (b - a) / a if a else 0.0
                worse = change > m["bound"] if m["better"] == "lower" \
                    else -change > m["bound"]
                print(f"{m['name']:<24} {a:>14.6g} -> {b:>14.6g} "
                      f"{m['unit']:<6} {change:+8.2%}"
                      + ("  REGRESSION" if worse else ""))
                status = max(status, 1 if worse else 0)
        for name in sorted(set().union(*(r["counters"] for r in
                                         base[key] + head[key]))):
            values = {r["counters"].get(name) for r in base[key] + head[key]}
            if len(values) > 1:
                print(f"counter {name} differs: {sorted(map(str, values))}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
