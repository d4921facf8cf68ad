"""Compare two result documents of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians with their quartiles,
how much worse B is than A as a share of A (negative = better), the metric's
bound from ``BENCHMARK.json``, and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  the run-to-run spread of either side (quartile distance over
                median) is wider than the bound and the two sides' samples
                overlap, so the pair cannot be told apart either way.

Exit status is non-zero on any ``regressed``, when B fails a larger share of
its operations, or when a metric that must repeat exactly for equal seeds
(simulated time, byte ratios, every count) differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: End-to-end metrics that are functions of the seed alone.
DETERMINISTIC = ("sim_ft_overhead", "stored_bytes_per_state_byte")


def _worse_by(a: float, b: float, better: str) -> float:
    change = (b - a) / a if a else 0.0
    return change if better == "lower" else -change


def _verdict(a: dict, b: dict, better: str, bound: float) -> str:
    spread = max((row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0
                 for row in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved"
    return "regressed" if _worse_by(a["value"], b["value"], better) > bound else "ok"


def report(doc_a: dict, doc_b: dict, declared: dict) -> int:
    """Print the comparison; return the process exit status."""
    status = 0
    header = (f"{'workload':<16} {'metric':<28} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict")
    print(header)
    same_seed = doc_a.get("seed") == doc_b.get("seed") and doc_a.get("scale") == doc_b.get("scale")
    counts = [m["name"] for m in declared["per_layer"] if m["unit"] == "count"]
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        side_a, side_b = doc_a["workloads"][name], doc_b["workloads"][name]
        for metric in declared["end_to_end"]:
            a = side_a["end_to_end"][metric["name"]]
            b = side_b["end_to_end"][metric["name"]]
            verdict = _verdict(a, b, metric["better"], metric["bound"])
            if same_seed and metric["name"] in DETERMINISTIC and a["value"] != b["value"]:
                verdict = "regressed"
            if verdict == "regressed":
                status = 1
            cells = [f"{row['value']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]" for row in (a, b)]
            worse = _worse_by(a["value"], b["value"], metric["better"])
            print(f"{name:<16} {metric['name']:<28} {cells[0]:>34} {cells[1]:>34} "
                  f"{worse:>+9.1%} {metric['bound']:>6.0%}  {verdict}")
        if same_seed:
            for count in counts:
                a = side_a["per_layer"].get(count, {}).get("value")
                b = side_b["per_layer"].get(count, {}).get("value")
                if a != b:
                    print(f"{name:<16} {count:<28} count differs for equal seeds: {a} vs {b}")
                    status = 1
        failed_a = side_a["ops_failed"] / side_a["ops_attempted"]
        failed_b = side_b["ops_failed"] / side_b["ops_attempted"]
        if failed_b > failed_a:
            print(f"{name:<16} failed operations rose: {failed_a:.3%} -> {failed_b:.3%}")
            status = 1
    return status


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    documents = [json.loads(Path(path).read_text()) for path in argv[1:]]
    return report(documents[0], documents[1], declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
