#!/usr/bin/env python
"""Sanity-check benchmark artifact schemas before CI uploads them.

The nightly benchmarks workflow writes ``BENCH_pipeline.json`` /
``BENCH_runner.json`` / ``BENCH_store.json`` and uploads them as artifacts.
A refactor that silently stops populating a section would still upload a
syntactically valid — but empty — file, and the regression would only be
noticed when someone reads the artifact weeks later.  This checker fails
the job instead: each known artifact must parse, contain its expected
sections, and carry positive measured rates.

Usage::

    python benchmarks/check_bench_schema.py BENCH_pipeline.json [more.json...]

Exits non-zero with a per-file report when any check fails.  Not a pytest
file on purpose: it validates artifacts of a *previous* run, so it must not
be collected into the benchmark suite itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List


def _positive(row: dict, key: str, errors: List[str], context: str) -> None:
    value = row.get(key)
    if not isinstance(value, (int, float)) or not value > 0:
        errors.append(f"{context}: {key!r} should be a positive number, got {value!r}")


def _nonnegative_int(row: dict, key: str, errors: List[str], context: str) -> None:
    value = row.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        errors.append(f"{context}: {key!r} should be a non-negative integer, "
                      f"got {value!r}")


#: In-container snapshot-throughput floors (MB/s) per scheme.  The sharded,
#: byte-shuffled v2 compression stage is a throughput feature; a refactor
#: that quietly reverts to whole-buffer DEFLATE would still produce a
#: schema-valid artifact, so the checker pins the rates themselves.  The
#: seed measured ~26-30 MB/s lossless and ~60-66 MB/s lossy; the floors sit
#: between seed and current (quiet-container lossless >= 120, lossy >= 110)
#: to absorb CI load variance without ever re-admitting the seed rates.
#: ``lossy-zfp`` wrote v1 frames (bit-packing + whole-frame DEFLATE) at
#: 35-60 MB/s before it moved onto the v2 plane frame (>= 120).  The floors
#: hold at the default thread setting: frames this small never fan out.
_PIPELINE_MIN_SNAPSHOT_MB_S = {
    "lossless": 60.0,
    "lossy": 100.0,
    "lossy-adaptive": 100.0,
    "lossy-zfp": 80.0,
}


def check_pipeline(data: dict) -> List[str]:
    """``BENCH_pipeline.json``: scheme x solver snapshot/restore throughput."""
    errors: List[str] = []
    combos = data.get("combinations")
    if not isinstance(combos, dict) or not combos:
        return ["'combinations' must be a non-empty object"]
    for name, row in combos.items():
        if not isinstance(row, dict):
            errors.append(f"combination {name!r} is not an object")
            continue
        for key in ("snapshot_mb_per_s", "restore_mb_per_s", "checkpoints_per_s",
                    "payload_bytes", "dynamic_bytes"):
            _positive(row, key, errors, f"combination {name!r}")
        for key in ("scheme", "method"):
            if not row.get(key):
                errors.append(f"combination {name!r}: missing {key!r}")
        threads = row.get("compress_threads")
        if not isinstance(threads, int) or threads < 1:
            errors.append(f"combination {name!r}: 'compress_threads' should be "
                          f"a positive integer, got {threads!r}")
        version = row.get("format_version")
        if not isinstance(version, int) or version < 0:
            errors.append(f"combination {name!r}: 'format_version' should be "
                          f"a non-negative integer, got {version!r}")
        floor = _PIPELINE_MIN_SNAPSHOT_MB_S.get(row.get("scheme"))
        rate = row.get("snapshot_mb_per_s")
        if (floor is not None and isinstance(rate, (int, float)) and 0 < rate < floor):
            errors.append(f"combination {name!r}: snapshot_mb_per_s {rate:.1f} "
                          f"is below the {row['scheme']} floor of {floor:g} MB/s")
    schemes = {row.get("scheme") for row in combos.values() if isinstance(row, dict)}
    if len(schemes) < 2:
        errors.append(f"expected several schemes, found {sorted(map(str, schemes))}")
    errors.extend(_check_threads_sweep(data.get("threads_sweep")))
    return errors


def _check_threads_sweep(sweep) -> List[str]:
    """The input-size sweep behind the shard fan-out threshold."""
    if not isinstance(sweep, list) or not sweep:
        return ["'threads_sweep' must be a non-empty list"]
    errors: List[str] = []
    for index, row in enumerate(sweep):
        context = f"threads_sweep[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{context} is not an object")
            continue
        for key in ("input_bytes", "coded_bytes", "threads", "payload_bytes",
                    "compress_mb_per_s"):
            _positive(row, key, errors, context)
        if row.get("payload_identical") is not True:
            errors.append(f"{context}: payload bytes depend on the thread count")
    sizes = [row.get("input_bytes", 0) for row in sweep if isinstance(row, dict)]
    if sizes and max(sizes) < 16 << 20:
        errors.append("threads_sweep stops below 16 MiB of input, where "
                      "fan-out can never pay")
    return errors


#: Per-series event-throughput floors (events/s) for the runner benchmark,
#: mirroring the pipeline snapshot floors above.  The trajectory-replay cache
#: is a throughput feature: a refactor that quietly stopped replaying (or
#: broke the event calendar) would still produce a schema-valid artifact.
#: The floors are set *below* the replay-off rates (seed measured ~19.3k /
#: 16.4k events/s on the traditional series and ~3.6-4.0k on the lossy ones),
#: so both the replay-on and the ``REPRO_REPLAY=off`` comparison artifact
#: pass on a loaded CI host while a real event-loop regression still fails.
_RUNNER_MIN_EVENTS_PER_S = {
    "traditional-poisson": 5000.0,
    "traditional-poisson-async": 4000.0,
    "lossy-poisson": 1000.0,
    "lossy-poisson-async": 1000.0,
    "lossy-weibull-fti": 1000.0,
}


def check_runner(data: dict) -> List[str]:
    """``BENCH_runner.json``: per-scenario event-loop throughput."""
    errors: List[str] = []
    scenarios = data.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return ["'scenarios' must be a non-empty object"]
    for name, row in scenarios.items():
        if not isinstance(row, dict):
            errors.append(f"scenario {name!r} is not an object")
            continue
        _positive(row, "iterations_per_second", errors, f"scenario {name!r}")
        _positive(row, "total_iterations", errors, f"scenario {name!r}")
        # The event-calendar engine reports how many sequence numbers its
        # calendars claimed; a refactor that stops counting would zero this.
        _positive(row, "events_per_second", errors, f"scenario {name!r}")
        # Trajectory-replay accounting: zero is legal (REPRO_REPLAY=off runs
        # write the comparison artifact), but the fields must be present —
        # a missing counter means the harness stopped reporting the cache.
        _nonnegative_int(row, "replay_hits", errors, f"scenario {name!r}")
        _nonnegative_int(row, "replay_iterations_saved", errors,
                         f"scenario {name!r}")
        if row.get("converged") is not True:
            errors.append(f"scenario {name!r}: run did not converge")
        floor = _RUNNER_MIN_EVENTS_PER_S.get(name)
        rate = row.get("events_per_second")
        if (floor is not None and isinstance(rate, (int, float))
                and 0 < rate < floor):
            errors.append(f"scenario {name!r}: events_per_second {rate:.0f} "
                          f"is below the floor of {floor:g} events/s")
    modes = {name.endswith("-async") for name in scenarios}
    if modes != {True, False}:
        errors.append("expected both blocking and -async scenario series")
    return errors


def check_store(data: dict) -> List[str]:
    """``BENCH_store.json``: per-backend throughput, pricing and dedup."""
    errors: List[str] = []
    backends = data.get("backends")
    if not isinstance(backends, dict) or not backends:
        return ["'backends' must be a non-empty object"]
    for name, row in backends.items():
        if not isinstance(row, dict):
            errors.append(f"backend {name!r} is not an object")
            continue
        for key in ("write_mb_per_s", "read_mb_per_s", "modeled_write_seconds",
                    "modeled_read_seconds", "dedup_ratio"):
            _positive(row, key, errors, f"backend {name!r}")
        if not row.get("durability"):
            errors.append(f"backend {name!r}: missing 'durability'")
    modeled = [row.get("modeled_write_seconds") for row in backends.values()
               if isinstance(row, dict)]
    if len(set(modeled)) < len(modeled):
        errors.append("modeled_write_seconds must be distinct per backend "
                      "(the priced profiles are the point of the artifact)")
    chunked = backends.get("chunked")
    if isinstance(chunked, dict):
        ratio = chunked.get("dedup_ratio")
        if not isinstance(ratio, (int, float)) or not ratio > 1.0:
            errors.append(f"backend 'chunked': dedup_ratio should exceed 1, "
                          f"got {ratio!r}")
    else:
        errors.append("missing 'chunked' backend row")
    return errors


CHECKERS: Dict[str, Callable[[dict], List[str]]] = {
    "BENCH_pipeline.json": check_pipeline,
    "BENCH_runner.json": check_runner,
    "BENCH_store.json": check_store,
}


def _resolve_checker(name: str) -> Callable[[dict], List[str]]:
    """Map an artifact filename to its schema checker.

    Exact names win; variant artifacts that extend a known base name with an
    underscore-suffixed qualifier (e.g. ``BENCH_runner_replay_off.json``, the
    replay-disabled comparison run the benchmarks workflow uploads alongside
    ``BENCH_runner.json``) share the base schema.
    """
    if name in CHECKERS:
        return CHECKERS[name]
    for known, checker in CHECKERS.items():
        base = known[: -len(".json")]
        if name.startswith(base + "_") and name.endswith(".json"):
            return checker
    raise KeyError(name)


def check_file(path: Path) -> List[str]:
    """All schema errors for one artifact (empty list = valid)."""
    try:
        checker = _resolve_checker(path.name)
    except KeyError:
        return [f"no schema registered for {path.name!r} "
                f"(known: {sorted(CHECKERS)})"]
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        return [f"cannot read: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    return checker(data)


def main(argv: List[str]) -> int:
    if not argv:
        print(f"usage: {Path(__file__).name} BENCH_*.json [BENCH_*.json ...]",
              file=sys.stderr)
        return 2
    failed = False
    for name in argv:
        errors = check_file(Path(name))
        if errors:
            failed = True
            print(f"FAIL {name}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
