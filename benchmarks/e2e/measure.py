"""Measure one workload: untraced end-to-end samples, or one traced run.

Everything the program does is done in child processes started from here,
one at a time (a closed loop with one client), with the thread and ``REPRO_*``
environment variables removed so the shipped defaults are what is timed.
Campaign children are the CLI exactly as a user types it; a sample's wall
time runs from interpreter start to exit and its peak RSS comes from
``os.wait4``.  All files live in a work directory inside the checkout that is
removed when the session closes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import ckpt_stream
import layers
from workloads import SCHEMES, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_e2e"

_SCRUBBED_NAMES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: No single child comes near this; it only keeps a hung child from
#: outliving the driver's own 180 s limit.
CHILD_TIMEOUT_S = 120.0
#: Timed set-ups of an untraced run, after one discarded; ``setup_s`` is their
#: median.
SETUP_REPEATS = 3
#: Untraced serial / parallel reference samples a stand-alone traced run takes.
TRACE_SERIAL_REFS, TRACE_PARALLEL_REFS = 3, 2


def parallel_workers() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


def scrubbed_environment() -> List[str]:
    """Names of the variables removed from every child's environment."""
    return sorted(
        k for k in os.environ if k.startswith("REPRO_") or k in _SCRUBBED_NAMES
    )


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


class ChildFailed(RuntimeError):
    """A child process the measurement cannot do without exited non-zero."""


class Session:
    """Work directory, child environment and child runner of one run."""

    def __init__(self) -> None:
        if not (SRC / "repro").is_dir():
            raise SystemExit(f"benchmark needs the program's sources at {SRC}")
        while True:
            WORK_PARENT.mkdir(exist_ok=True)
            try:
                self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
                break
            except FileNotFoundError:
                continue  # a concurrent run just removed the empty parent
        tmp = self.work / "tmp"
        tmp.mkdir()
        scrubbed = set(scrubbed_environment())
        self.env = {k: v for k, v in os.environ.items() if k not in scrubbed}
        # The checkout's sources first; the engine's disk backend and every
        # other tempfile user stay inside the work directory.
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(tmp)
        self._counter = 0

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run is using it

    def path(self, stem: str) -> Path:
        self._counter += 1
        return self.work / f"{self._counter:04d}-{stem}"

    def run(self, argv: List[str], *, check: bool = False) -> dict:
        """Run one child to completion; wall seconds, peak RSS, exit code."""
        log = self.path("stderr.log")
        with open(log, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            # Pool workers of a killed or crashed child must not outlive it.
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if check and proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{tail}")
        return {
            "wall_s": wall,
            "rss_mib": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode,
        }


# -- campaign surface ---------------------------------------------------------
class Campaign:
    """The campaign side of one workload: the spec file and its samples.

    ``known`` describes the report every sample must reproduce byte for byte
    (digest, cell count, unconverged cells, mean simulated overhead); without
    one, the first sample's report becomes it.
    """

    def __init__(self, session: Session, spec_path: Path, known: Optional[dict] = None) -> None:
        self.session = session
        self.spec_path = spec_path
        self.known = known
        self.attempted = 0
        self.failed = 0

    def sample(self, cache_dir: Path, workers: int) -> dict:
        """One CLI invocation, its report checked."""
        out = self.session.path("report.json")
        child = self.session.run([
            sys.executable, "-m", "repro.campaign", "--spec", str(self.spec_path),
            "--cache-dir", str(cache_dir), "--workers", str(workers), "--quiet",
            "--json", str(out),
        ])
        self.check(out.read_bytes() if child["returncode"] == 0 and out.exists() else None)
        return child

    def check(self, report: Optional[bytes]) -> None:
        """Count one sample's cells; all fail unless the report is the known one."""
        if self.known is None:
            if report is None:
                raise ChildFailed("the first campaign sample produced no report")
            cells = json.loads(report)["cells"]
            self.known = {
                "digest": hashlib.sha256(report).hexdigest(),
                "cells": len(cells),
                "unconverged": sum(
                    1 for cell in cells if not cell["result"]["report"]["converged"]
                ),
                "sim_ft_overhead": statistics.fmean(
                    cell["result"]["overhead_fraction"] for cell in cells
                ),
            }
        same = report is not None and hashlib.sha256(report).hexdigest() == self.known["digest"]
        self.attempted += self.known["cells"]
        self.failed += self.known["unconverged"] if same else self.known["cells"]

    def rounds(self, seconds: float, min_rounds: int, warm_up: bool) -> Dict[str, list]:
        """Cold serial, warm rerun and cold parallel samples, round by round."""
        session, workers = self.session, parallel_workers()
        if warm_up:
            cache = session.path("cache")
            self.sample(cache, 1)
            shutil.rmtree(cache, ignore_errors=True)
        samples: Dict[str, list] = {"cold": [], "warm": [], "parallel": []}
        deadline = time.perf_counter() + seconds
        round_s = 0.0
        while len(samples["cold"]) < min_rounds or time.perf_counter() + round_s <= deadline:
            start = time.perf_counter()
            serial_cache, parallel_cache = session.path("cache"), session.path("cache")
            samples["cold"].append(self.sample(serial_cache, 1))
            samples["warm"].append(self.sample(serial_cache, 1))
            samples["parallel"].append(self.sample(parallel_cache, workers))
            shutil.rmtree(serial_cache, ignore_errors=True)
            shutil.rmtree(parallel_cache, ignore_errors=True)
            round_s = time.perf_counter() - start
        return samples

    def rates(self, samples: List[dict]) -> List[float]:
        return [self.known["cells"] / s["wall_s"] for s in samples]


class WorkloadRun:
    """One workload at one seed: set-up, then untraced and/or traced runs.

    Both kinds of run share the spec file and the known report, so a traced
    report is held to the untraced one, and ``ops_attempted`` / ``ops_failed``
    count every cell and stream cycle of the whole run.
    """

    def __init__(self, session: Session, name: str, seed: int, scale: str) -> None:
        self.session = session
        self.smoke = scale == "smoke"
        self.config = workload(name, seed, scale)
        self.campaign = Campaign(session, session.path("spec.json"))
        self.setup_walls: List[float] = []
        self.set_up()
        self.stream_attempted = 0
        self.stream_failed = 0

    def set_up(self) -> None:
        """Run the set-up child once more; it (re)writes the spec file."""
        argv = [sys.executable, str(HERE / "prepare.py"), json.dumps(self.config),
                str(self.campaign.spec_path)]
        self.setup_walls.append(self.session.run(argv, check=True)["wall_s"])

    @property
    def ops_attempted(self) -> int:
        return self.campaign.attempted + self.stream_attempted

    @property
    def ops_failed(self) -> int:
        return self.campaign.failed + self.stream_failed

    def stream(self, seconds: float, min_passes: int, trace: bool = False) -> dict:
        """Run the stream child; its JSON result plus wall time and peak RSS."""
        out = self.session.path("stream.json")
        argv = [
            sys.executable, str(HERE / "ckpt_stream.py"),
            "--config", json.dumps(self.config["stream"]), "--seconds", repr(seconds),
            "--min-passes", str(min_passes), "--out", str(out),
            "--work-dir", str(self.session.work),
        ]
        child = self.session.run(argv + (["--trace"] if trace else []), check=True)
        result = json.loads(out.read_text())
        result.update(child)
        result["summary"] = ckpt_stream.summarize(result)
        self.stream_attempted += result["summary"]["attempted"]
        self.stream_failed += result["summary"]["failed"]
        return result

    # -- tracing off ----------------------------------------------------------
    def untraced(self, seconds: float, min_samples: int) -> dict:
        """All end-to-end metrics, each with the spread of its samples."""
        campaign, share = self.campaign, self.config["stream_share"]
        if not self.smoke:
            # The set-up that wrote the spec was the warm-up: the first one of
            # a run can take twice as long as the rest.
            self.setup_walls.clear()
            for _ in range(SETUP_REPEATS):
                self.set_up()
        samples = campaign.rounds(seconds * (1.0 - share), min_samples, warm_up=not self.smoke)
        streamed = self.stream(seconds * share, min(3, min_samples))
        summary = streamed["summary"]
        cold_rss = [s["rss_mib"] for s in samples["cold"]]
        if statistics.median(cold_rss) < streamed["rss_mib"]:
            cold_rss = [streamed["rss_mib"]]
        return {
            "end_to_end": {
                "setup_s": spread(self.setup_walls),
                "cells_per_s": spread(campaign.rates(samples["cold"])),
                "warm_cells_per_s": spread(campaign.rates(samples["warm"])),
                "parallel_cells_per_s": spread(campaign.rates(samples["parallel"])),
                "sim_ft_overhead": spread([campaign.known["sim_ft_overhead"]]),
                "snapshot_mib_s": spread(summary["snapshot_mib_s"]),
                "restore_mib_s": spread(summary["restore_mib_s"]),
                "stored_bytes_per_state_byte": spread([summary["stored_bytes_per_state_byte"]]),
                # The larger of the serial campaign child and the stream child.
                "peak_rss_mib": spread(cold_rss),
            },
            "walls_s": {kind: [s["wall_s"] for s in rows] for kind, rows in samples.items()},
            "stream_wall_s": streamed["inner_wall_s"],
            "stream_passes": len(streamed["passes"]),
            "stream_vector_bytes": streamed["vector_bytes"],
        }

    # -- tracing on -----------------------------------------------------------
    def traced(self, reference: Optional[dict] = None) -> dict:
        """All per-layer metrics from one traced campaign and one traced stream.

        ``reference`` is this run's :meth:`untraced` result, whose walls serve
        as the untraced side of ``trace.overhead_frac`` and
        ``campaign.parallel_speedup``; without one, a few untraced samples are
        taken first.  The traced stream runs one timed pass, so that the
        stream does not outweigh the grid in the layer sums of the campaign
        workloads; an untraced stream wall is only reused if it ran one too.
        """
        session, campaign = self.session, self.campaign
        if reference is None:
            serial = [campaign.sample(session.path("cache"), 1)["wall_s"]
                      for _ in range(TRACE_SERIAL_REFS)]
            parallel = [campaign.sample(session.path("cache"), parallel_workers())["wall_s"]
                        for _ in range(TRACE_PARALLEL_REFS)]
        else:
            serial, parallel = reference["walls_s"]["cold"], reference["walls_s"]["parallel"]
        if reference is not None and reference["stream_passes"] == 1:
            stream_wall = reference["stream_wall_s"]
        else:
            stream_wall = self.stream(0.0, 1)["inner_wall_s"]

        report, out = session.path("traced-report.json"), session.path("traced.json")
        session.run([
            sys.executable, str(HERE / "traced_campaign.py"), "--spec", str(campaign.spec_path),
            "--cache-dir", str(session.path("cache")), "--json", str(report), "--out", str(out),
        ], check=True)
        traced = json.loads(out.read_text())
        # The cold pass and the warm pass are two samples of the grid.
        cold_report = report.read_bytes()
        campaign.check(cold_report)
        campaign.check(cold_report if traced["warm_matches_cold"] else None)
        traced_stream = self.stream(0.0, 1, trace=True)

        cold, warm, stream_agg = traced["cold"], traced["warm"], traced_stream["trace"]
        metrics = layers.derive(layers.merge(cold, stream_agg))
        warm_metrics = layers.derive(warm)
        for key in ("campaign.expand_s", "campaign.cache_get_s", "campaign.report_s",
                    "campaign.cache_hits"):
            metrics[key] = warm_metrics[key]
        metrics.update(layers.codec_rates(stream_agg))
        metrics.update(traced_stream["backend_rates"])
        schemes = traced_stream["summary"]["schemes"]
        for scheme in SCHEMES:
            metrics[f"checkpoint.{scheme}.snapshot_mib_s"] = schemes[scheme]["snapshot_mib_s"]
            metrics[f"checkpoint.{scheme}.restore_mib_s"] = schemes[scheme]["restore_mib_s"]
            if scheme != "traditional":
                metrics[f"checkpoint.{scheme}.ratio"] = (
                    schemes[scheme]["uncompressed_bytes"] / schemes[scheme]["serialized_bytes"]
                )
        serial_wall = statistics.median(serial)
        metrics["campaign.parallel_speedup"] = serial_wall / statistics.median(parallel)
        metrics["trace.overhead_frac"] = (
            (cold["wall_s"] + stream_agg["wall_s"]) / (serial_wall + stream_wall) - 1.0
        )
        return {
            "per_layer": metrics,
            "unresolved_layers": sorted(
                set(traced["unresolved_layers"]) | set(traced_stream["unresolved_layers"])
            ),
        }
