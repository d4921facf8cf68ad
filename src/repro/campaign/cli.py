"""Command-line front end: ``python -m repro.campaign``.

Runs a campaign — either a named preset or a JSON spec file — through the
parallel executor with the on-disk result cache, printing per-cell progress
and the aggregated report table.

Examples
--------
List what is available::

    python -m repro.campaign --list-presets

Run the 24-cell demo sweep on 4 workers (second invocation hits the cache)::

    python -m repro.campaign --preset demo --workers 4

Run a spec you saved (``CampaignSpec.to_json``)::

    python -m repro.campaign --spec sweep.json --workers 8 --json out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign.cache import ResultCache
from repro.campaign.execute import PROFILE_ENV
from repro.campaign.executor import CellOutcome, run_campaign
from repro.campaign.report import CampaignReport
from repro.campaign.spec import CampaignSpec, RunSpec

__all__ = ["main", "PRESETS", "demo_campaign"]

DEFAULT_CACHE_DIR = ".campaign-cache"


def demo_campaign(*, grid_n: int = 10, seed: int = 2018) -> CampaignSpec:
    """A fast 24-cell failure-injected demo sweep (scheme x scale x rep)."""
    return CampaignSpec(
        name="demo",
        kind="ft",
        methods=("jacobi",),
        schemes=("traditional", "lossless", "lossy"),
        process_counts=(256, 2048),
        repetitions=4,
        grid_n=grid_n,
        seed=seed,
    )


def _scheme_sweep() -> CampaignSpec:
    """Every method under every scheme across the paper's scales."""
    return CampaignSpec(
        name="scheme-sweep",
        kind="ft",
        methods=("jacobi", "gmres", "cg"),
        schemes=("traditional", "lossless", "lossy"),
        process_counts=(256, 1024, 2048),
        repetitions=3,
    )


def _error_bound_sweep() -> CampaignSpec:
    """Lossy checkpointing across the paper's error bounds and compressors."""
    return CampaignSpec(
        name="error-bound-sweep",
        kind="ft",
        methods=("jacobi", "cg"),
        schemes=("lossy",),
        compressors=("sz", "zfp"),
        error_bounds=(1e-3, 1e-4, 1e-5, 1e-6),
        repetitions=3,
    )


def _async_vs_blocking() -> CampaignSpec:
    """Overlapped (async) vs stop-the-world checkpoint writes per scheme.

    Sweeps ``write_mode`` over the paper's three schemes so the overhead
    reduction from draining checkpoint writes on the I/O channel can be read
    per scheme.
    """
    return CampaignSpec(
        name="async-vs-blocking",
        kind="ft",
        methods=("jacobi",),
        schemes=("traditional", "lossless", "lossy"),
        write_modes=("blocking", "async"),
        repetitions=3,
    )


def _store_backends() -> CampaignSpec:
    """Lossy checkpointing across every checkpoint-store backend.

    Sweeps ``store_backend x write_mode`` under FTI multilevel recovery so
    the priced profiles (memory staging, node-local disk, remote object
    store) and the chunked backend's dedup ratio can be compared against the
    paper's implicit PFS on the same failure trace.
    """
    return CampaignSpec(
        name="store-backends",
        kind="ft",
        methods=("jacobi",),
        schemes=("lossy",),
        recovery_levels=("fti",),
        write_modes=("blocking", "async"),
        store_backends=("pfs", "memory", "disk", "object", "chunked"),
        repetitions=2,
    )


def _mtti_sweep() -> CampaignSpec:
    """Lossy vs traditional as the machine gets less reliable."""
    return CampaignSpec(
        name="mtti-sweep",
        kind="ft",
        methods=("jacobi",),
        schemes=("traditional", "lossy"),
        mttis=(1800.0, 3600.0, 10800.0),
        process_counts=(1024, 2048),
        repetitions=3,
    )


PRESETS: Dict[str, object] = {
    "demo": demo_campaign,
    "scheme-sweep": _scheme_sweep,
    "error-bound-sweep": _error_bound_sweep,
    "async-vs-blocking": _async_vs_blocking,
    "store-backends": _store_backends,
    "mtti-sweep": _mtti_sweep,
}


def _load_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CampaignSpec:
    if args.spec is not None:
        path = Path(args.spec)
        try:
            payload = path.read_text()
        except OSError as exc:
            parser.error(f"cannot read spec file {path}: {exc}")
        try:
            return CampaignSpec.from_json(payload)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            parser.error(f"invalid campaign spec {path}: {exc}")
    factory = PRESETS[args.preset]
    return factory()


def _progress_printer(stream) -> "callable":
    def progress(done: int, total: int, outcome: CellOutcome) -> None:
        spec = outcome.spec
        label = f"{spec.kind}:{spec.method}/{spec.scheme}@{spec.num_processes}"
        status = "cached" if outcome.cached else f"{outcome.seconds:.2f}s"
        print(f"[{done:>{len(str(total))}}/{total}] {label:<40} {status}", file=stream)

    return progress


def _write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so a killed run leaves old or new, never torn."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run an experiment campaign through the parallel executor.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="demo",
        help="named campaign to run (default: demo)",
    )
    source.add_argument("--spec", help="path to a CampaignSpec JSON file")
    parser.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="worker processes; 1 = serial (default), 0 = auto from core count",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="execute every cell, cache nothing"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the full report JSON to PATH"
    )
    parser.add_argument(
        "--group-by",
        default="method,scheme,num_processes",
        help="comma-separated spec fields to aggregate over",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        help="profile each executed cell with cProfile and dump one pstats "
        "file per cell into DIR (sets REPRO_PROFILE; cache hits execute "
        "nothing, so combine with --no-cache to profile every cell)",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-cell progress lines"
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list available presets and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in sorted(PRESETS):
            spec = PRESETS[name]()
            print(f"{name:<20} {len(spec):>4} cells  kind={spec.kind}")
        return 0

    spec = _load_spec(args, parser)
    by = tuple(part.strip() for part in args.group_by.split(",") if part.strip())
    valid_axes = {f.name for f in dataclasses.fields(RunSpec)}
    unknown = [axis for axis in by if axis not in valid_axes]
    if unknown:
        parser.error(
            f"unknown --group-by field(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(valid_axes))}"
        )
    # Checked before any cell runs, so a typo costs nothing.
    if args.json and not Path(args.json).parent.is_dir():
        parser.error(
            f"cannot write --json {args.json}: "
            f"{Path(args.json).parent} is not a directory"
        )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    n_workers = None if args.workers == 0 else args.workers
    progress = None if args.quiet else _progress_printer(sys.stderr)
    # Worker processes inherit the environment, so the env hook covers both
    # the serial path and forked pool workers; restored after the run so an
    # in-process caller's environment is left untouched.
    saved_profile = os.environ.get(PROFILE_ENV)
    if args.profile:
        os.environ[PROFILE_ENV] = args.profile
    try:
        result = run_campaign(spec, n_workers=n_workers, cache=cache, progress=progress)
    finally:
        if args.profile:
            if saved_profile is None:
                os.environ.pop(PROFILE_ENV, None)
            else:
                os.environ[PROFILE_ENV] = saved_profile
    report = CampaignReport(result)
    print(report.table(by=by))
    print(
        f"{len(result)} cells: {result.executed_count} executed, "
        f"{result.cached_count} from cache, {result.wall_seconds:.1f}s wall"
    )
    if args.json:
        _write_atomically(Path(args.json), report.to_json(by=by))
        print(f"report written to {args.json}")
    if args.profile:
        profiles = sorted(Path(args.profile).glob("*.pstats"))
        print(f"{len(profiles)} cell profile(s) in {args.profile}")
    return 0
