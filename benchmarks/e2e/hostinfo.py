"""Host fingerprint stored in every result document.

Run as a script it is the *probe*: a child with the benchmark's scrubbed
environment that reports what the program itself would see — library
versions, the BLAS build and thread count, and the resolved ``REPRO_*``
defaults — as one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from measure import HERE, ROOT, Session, scrubbed_environment


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _last_level_cache() -> str:
    """Size of the highest cache level cpu0 reports, e.g. ``"260M"``."""
    best = (0, "")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, size = _read(f"{index}/level").strip(), _read(f"{index}/size").strip()
        if level.isdigit() and size:
            best = max(best, (int(level), size))
    return best[1]


def _ram_mib() -> float:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _git(*argv: str) -> str:
    try:
        done = subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def fingerprint() -> dict:
    """Hardware, software and configuration the numbers were taken on."""
    with Session() as session:
        out = session.path("probe.json")
        with open(out, "w") as stdout:
            subprocess.run(
                [sys.executable, str(HERE / "hostinfo.py")],
                env=session.env, stdout=stdout, check=True, timeout=120,
            )
        probe = json.loads(out.read_text())
    commit = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "ram_mib": _ram_mib(),
        "python": platform.python_version(),
        "git_commit": commit or None,
        "git_dirty": bool(_git("status", "--porcelain")) if commit else None,
        "scrubbed_environment": scrubbed_environment(),
        **probe,
    }


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read from the library itself."""
    import ctypes

    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" not in os.path.basename(path):
            continue
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def _probe() -> dict:
    import numpy
    import scipy
    from repro.compression.sharded import resolve_threads
    from repro.engine import replay_enabled

    numpy.ones((4, 4)) @ numpy.ones((4, 4))  # make sure the BLAS is mapped
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "repro_defaults": {
            "resolve_threads": resolve_threads(),
            "replay_enabled": bool(replay_enabled()),
        },
    }


if __name__ == "__main__":
    print(json.dumps(_probe()))
