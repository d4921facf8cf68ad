"""The repo benchmark: campaign cells/s, checkpoint MiB/s, per-layer attribution.

Two ways in, one measurement underneath (``measure.py``):

* one run of one workload, the form ``BENCHMARK.json`` declares::

      python3 benchmarks/e2e/run.py --workload campaign-ckpt --seed 7 --seconds 20 --trace 0

  prints every metric by name with its unit, then one JSON object as the last
  line (``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``;

* the whole suite, untraced then traced per workload, as one document::

      python3 benchmarks/e2e/run.py [--seed 2018] [--scale full|smoke]
          [--workloads a,b] [--samples 5] [--seconds S] [--out PATH] [--strict] [--aa]

  ``--aa`` runs the suite twice and compares the two documents
  (``compare.py``); ``--strict`` exits non-zero when a traced layer no
  longer resolves.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import compare
import hostinfo
import measure
from workloads import WORKLOADS

def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")


def run_one(args, declared: dict) -> int:
    """One run of one workload, reported as the last line of stdout."""
    with measure.Session() as session:
        run = measure.WorkloadRun(session, args.workload, args.seed, args.scale)
        if args.trace:
            result = run.traced()
            values = result["per_layer"]
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
            for name in result["unresolved_layers"]:
                print(f"unresolved layer: {name}", file=sys.stderr)
        else:
            result = run.untraced(args.seconds, args.samples)
            values = {name: row["value"] for name, row in result["end_to_end"].items()}
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"declared but not measured: {', '.join(missing)}")
    values = {name: float(values[name]) for name in units}
    _print_metrics(f"{args.workload}  seed={args.seed}  trace={args.trace}", values, units)
    correct = run.ops_failed == 0 and all(math.isfinite(v) for v in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": run.ops_attempted,
        "failed": run.ops_failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 1 if args.strict and args.trace and result["unresolved_layers"] else 0


def run_suite(args, declared: dict) -> dict:
    """Every selected workload, untraced then traced; the result document."""
    started = time.perf_counter()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    document = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "host": hostinfo.fingerprint(),
        "workloads": {},
    }
    for name in names:
        with measure.Session() as session:
            run = measure.WorkloadRun(session, name, args.seed, args.scale)
            untraced = run.untraced(args.seconds, args.samples)
            traced = run.traced(reference=untraced)
        for metric, row in untraced["end_to_end"].items():
            row["unit"] = units[metric]
        entry = document["workloads"][name] = {
            "end_to_end": untraced["end_to_end"],
            "per_layer": {
                metric: {"value": float(value), "unit": units[metric]}
                for metric, value in traced["per_layer"].items()
            },
            "ops_attempted": run.ops_attempted,
            "ops_failed": run.ops_failed,
            "unresolved_layers": traced["unresolved_layers"],
            "samples": {
                "setup": len(run.setup_walls),
                "cold": len(untraced["walls_s"]["cold"]),
                "warm": len(untraced["walls_s"]["warm"]),
                "parallel": len(untraced["walls_s"]["parallel"]),
                "stream_passes": untraced["stream_passes"],
            },
            "parallel_workers": measure.parallel_workers(),
            "parallel_walls_s": untraced["walls_s"]["parallel"],
            "campaign_cells": run.campaign.known["cells"],
            "stream_vector_bytes": untraced["stream_vector_bytes"],
        }
        _print_metrics(
            f"{name}  end to end  ({entry['ops_failed']} of {entry['ops_attempted']} ops failed)",
            {m: row["value"] for m, row in entry["end_to_end"].items()}, units,
        )
        _print_metrics(
            f"{name}  per layer",
            {m: row["value"] for m, row in entry["per_layer"].items()}, units,
        )
    document["total_wall_s"] = time.perf_counter() - started
    return document


def main(argv=None) -> int:
    declared = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this one workload")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, help="measuring time of one untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workloads", help="comma-separated subset for the suite")
    parser.add_argument("--samples", type=int, default=5, help="least samples of each kind")
    parser.add_argument("--out", help="write the suite's document here")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--aa", action="store_true", help="run the suite twice and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.scale == "smoke" else float(declared["run_seconds"])
    if args.samples < 1:
        parser.error("--samples must be at least 1")

    if args.workload:
        return run_one(args, declared)

    documents = [run_suite(args, declared) for _ in range(2 if args.aa else 1)]
    status = 0
    for index, document in enumerate(documents):
        if args.out:
            path = Path(args.out)
            if args.aa:
                path = path.with_name(f"{path.stem}.{'ab'[index]}{path.suffix}")
            path.write_text(json.dumps(document, indent=2, sort_keys=True))
            print(f"document written to {path}")
        unresolved = {n: w["unresolved_layers"] for n, w in document["workloads"].items()
                      if w["unresolved_layers"]}
        if unresolved:
            print(f"unresolved layers: {unresolved}", file=sys.stderr)
            status = max(status, 1 if args.strict else 0)
    if not args.out and not args.aa:
        print(json.dumps(documents[0], sort_keys=True))
    if args.aa:
        status = max(status, compare.report(documents[0], documents[1], declared))
    return status


if __name__ == "__main__":
    sys.exit(main())
