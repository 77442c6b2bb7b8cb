#!/usr/bin/env python3
"""Recompute the output digests pinned in ``perfbench/spec.json``.

Run from the repository root after a change that is *meant* to alter
simulated results (never to make a failing benchmark pass)::

    python3 perfbench/pin.py            # print what would change
    python3 perfbench/pin.py --write    # rewrite spec.json

Figure cells are simulated through the same ``run_matrix`` path the
benchmark times.  Served cells go through the server's own request
mapping (``protocol.parse_request`` -> ``request_to_key``) and
``execute_cell``, so a pin is what a correct server must answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import figsweep  # noqa: E402
import serve_mixed  # noqa: E402


def served_digest(payload: dict) -> str:
    from repro.exec import execute_cell, result_bytes
    from repro.serve import protocol

    key = protocol.request_to_key(protocol.parse_request(payload))
    return hashlib.sha256(result_bytes(execute_cell(key))).hexdigest()


def compute() -> dict:
    fig = {}
    for cells in figsweep.WORKLOADS.values():
        for cell in cells:
            fig[figsweep.cell_id(cell)] = figsweep.digest(
                figsweep.run_cell(cell))
    sp = serve_mixed.simulate_payload
    hot = {serve_mixed.cell_name(b, e): served_digest(sp("pin", b, e))
           for b, e in serve_mixed.HOT}
    cold = {serve_mixed.cell_name(b, "caps"):
            served_digest(sp("pin", b, "caps")) for b in serve_mixed.COLD}
    sweep = {str(v): served_digest(sp("pin", *serve_mixed.SWEEP_BENCH,
                                      serve_mixed.sweep_overrides(v)))
             for v in serve_mixed.SWEEP_VALUES}
    return {"fig_digests": fig,
            "serve_digests": {"hot": hot, "cold": cold, "sweep": sweep}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite spec.json instead of reporting")
    args = ap.parse_args(argv)
    path = HERE / "spec.json"
    spec = json.loads(path.read_text())
    fresh = compute()
    changed = [f"{group}/{sub}" for group, table in fresh.items()
               for sub, value in table.items() if spec.get(group, {}).get(sub)
               != value]
    for name in changed:
        print(f"changed: {name}")
    if args.write:
        spec.update(fresh)
        path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
