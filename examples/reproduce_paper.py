#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

Runs the full experiment harness (Figures 1-10 and Table 3) with the default
configuration and prints each artefact as a text table; README.md's "Paper
figure map" lists the module behind each one.

Every figure is expressed as a campaign (see :mod:`repro.campaign`), so the
expensive cells fan out over worker processes and are cached on disk: a
re-run with the same configuration executes zero cells.

Run:  python examples/reproduce_paper.py                 # default configuration
      python examples/reproduce_paper.py --small         # faster, smaller problems
      python examples/reproduce_paper.py --workers 4     # parallel cells
      python examples/reproduce_paper.py --no-cache      # force re-execution
"""

from __future__ import annotations

import argparse
import time

from repro.campaign import ResultCache
from repro.experiments import (
    DEFAULT_CONFIG,
    SMALL_CONFIG,
    fig1_table,
    fig2_table,
    fig3_table,
    fig456_table,
    fig7_table,
    fig8_table,
    fig9_table,
    fig10_table,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig456,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table3,
    table3_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="small/fast configuration")
    parser.add_argument(
        "--workers", "-j", type=int, default=1,
        help="worker processes for campaign cells; 1 = serial (default), "
        "0 = auto from core count",
    )
    parser.add_argument(
        "--cache-dir", default=".campaign-cache",
        help="campaign result cache directory (default: .campaign-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="re-execute every campaign cell"
    )
    args = parser.parse_args()

    config = SMALL_CONFIG if args.small else DEFAULT_CONFIG
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    kw = {"n_workers": None if args.workers == 0 else args.workers, "cache": cache}
    start = time.perf_counter()

    sections = [
        ("Figure 1", lambda: fig1_table(run_fig1(**kw))),
        ("Figure 2", lambda: fig2_table(run_fig2(config, **kw))),
        ("Figure 3", lambda: fig3_table(run_fig3(config, **kw))),
        ("Table 3", lambda: table3_table(run_table3(config, **kw))),
        ("Figure 4 (Jacobi)", lambda: fig456_table(run_fig456(config, method="jacobi", **kw))),
        ("Figure 5 (GMRES)", lambda: fig456_table(run_fig456(config, method="gmres", **kw))),
        ("Figure 6 (CG)", lambda: fig456_table(run_fig456(config, method="cg", **kw))),
        ("Figure 7", lambda: fig7_table(run_fig7(config, **kw))),
        ("Figure 8", lambda: fig8_table(run_fig8(config, **kw))),
        ("Figure 9", lambda: fig9_table(run_fig9(config, **kw))),
        ("Figure 10", lambda: fig10_table(run_fig10(config, **kw))),
    ]
    for name, build in sections:
        print("=" * 78)
        print(build())
        print()
    print("=" * 78)
    print(f"Regenerated all artefacts in {time.perf_counter() - start:.1f} s "
          f"(config: grid {config.grid_n}^3, {config.repetitions} repetitions, "
          f"{'auto' if args.workers == 0 else args.workers} worker(s), cache "
          f"{'disabled' if cache is None else args.cache_dir})")


if __name__ == "__main__":
    main()
