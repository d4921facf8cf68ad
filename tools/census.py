"""Census of the public ``src/repro`` API: which functions does an artefact reach?

Runs every artefact of the repository under ``sys.setprofile`` and records
every function of ``src/repro`` that ran.  The artefacts are:

* every campaign preset, cold and then warm, with ``--workers 2``;
* every ``benchmarks/e2e`` workload: the set-up child writes its spec,
  which then runs cold and warm;
* the checkpoint stream ``benchmarks/e2e/ckpt_stream.py --trace`` at each
  workload's stream size, and the benchmark's host probe;
* every example in ``examples/``;
* the paper-claim tests (:data:`CLAIM_TESTS`): Figures 1-9, Table 3 and the
  ablations under ``tests/experiments/``, and Figure 10's pooled verdicts in
  ``benchmarks/test_bench_fig10.py``.

A public function or class (see :func:`public_units`) that no artefact
reaches must be named, with its reason, in ``tools/census_allow.txt``;
otherwise the census fails.  An allow-list entry that is reached, or that
names no function, fails it too, so the list only shrinks.

Stdlib only.  Run it from anywhere; it exits 1 and lists the offending names
when the census fails::

    python tools/census.py

Two artefacts run at a time, each in its own interpreter started through
this file's ``trace`` sub-command, which installs the profiler, runs the
target with ``runpy`` and writes the reached code objects to
``<out>.<pid>``.  Forked pool workers leave through ``os._exit``, which
skips ``atexit``; the tracer therefore wraps ``os._exit`` so that every
worker writes its own file first.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW_LIST = Path(__file__).with_name("census_allow.txt")

#: Why a public function may stay unreached: every allow-list entry names one.
REASONS = ("oracle", "generator", "bench-pinned", "inverse", "observability")

#: Arguments of the examples that take some.  The failure-injection study
#: runs BiCGSTAB, the one method no preset or paper figure uses.
EXAMPLE_ARGS = {
    "reproduce_paper.py": ["--small", "--no-cache", "--workers", "1"],
    "failure_injection_study.py": ["bicgstab"],
}
#: Seed of the benchmark workloads' specs (``run.py --seed`` default).
SEED = 2018
#: The paper-claim tests, as two runs of similar length.  Figure 1's claim
#: shares its call with the harness test that asserts it.
CLAIM_TESTS = (
    (
        "tests/experiments/test_experiments.py::TestFig1",
        "tests/experiments/test_paper_claims.py",
        "tests/experiments/test_ablations.py",
    ),
    ("benchmarks/test_bench_fig10.py",),
)


# -- the tracer (runs inside each artefact's interpreter) ----------------------
def _trace(out: str, argv: List[str]) -> None:
    """Run ``argv`` (``-m module args`` or ``script args``) under the profiler."""
    import runpy

    seen: Dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code

    prefix = str(PACKAGE) + os.sep

    def flush() -> None:
        sys.setprofile(None)
        lines = {
            f"{code.co_filename}:{code.co_firstlineno}"
            for code in list(seen.values())
            if code.co_filename.startswith(prefix)
        }
        with open(f"{out}.{os.getpid()}", "w") as handle:
            handle.write("\n".join(sorted(lines)))

    real_exit = os._exit

    def exit_after_flush(code):
        flush()
        real_exit(code)

    os._exit = exit_after_flush
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise
    finally:
        flush()


# -- what the census runs ------------------------------------------------------
def _artefacts(work: Path) -> List[Tuple[str, Path, List[List[str]]]]:
    """``(name, cwd, [argv, ...])``: argvs of one artefact run in order."""
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]
    from repro.campaign.cli import PRESETS
    from workloads import WORKLOADS, workload

    runs: List[Tuple[str, Path, List[List[str]]]] = []
    for preset in sorted(PRESETS):
        cache = work / f"cache-{preset}"
        argv = ["-m", "repro.campaign", "--preset", preset, "--workers", "2", "-q",
                "--cache-dir", str(cache), "--json", str(work / f"{preset}.json")]
        runs.append((f"preset {preset}", work, [argv, argv]))
    e2e = ROOT / "benchmarks" / "e2e"
    runs.append(("host probe", work, [[str(e2e / "hostinfo.py")]]))
    for name in sorted(WORKLOADS):
        config = workload(name, SEED)
        spec = work / f"spec-{name}.json"
        prepare = [str(e2e / "prepare.py"), json.dumps(config), str(spec)]
        argv = ["-m", "repro.campaign", "--spec", str(spec), "--workers", "1", "-q",
                "--cache-dir", str(work / f"cache-{name}"),
                "--json", str(work / f"{name}.json")]
        runs.append((f"workload {name}", work, [prepare, argv, argv]))
        stream = [str(e2e / "ckpt_stream.py"), "--config", json.dumps(config["stream"]),
                  "--min-passes", "1", "--trace", "--out", str(work / f"stream-{name}.json"),
                  "--work-dir", str(work)]
        runs.append((f"stream {name}", work, [stream]))
    for script in sorted((ROOT / "examples").glob("*.py")):
        argv = [str(script), *EXAMPLE_ARGS.get(script.name, [])]
        runs.append((f"example {script.name}", work, [argv]))
    for index, modules in enumerate(CLAIM_TESTS, 1):
        argv = ["-m", "pytest", *modules, "-q", "-p", "no:cacheprovider"]
        runs.append((f"paper claims, part {index}", ROOT, [argv]))
    return runs


def _run(name: str, cwd: Path, argvs: List[List[str]], work: Path) -> Tuple[str, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Artefacts run side by side; BLAS threads on top of that oversubscribe
    # a small host by 3-10x.  Reachability does not depend on them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.perf_counter()
    for index, argv in enumerate(argvs):
        out = work / "traces" / f"{name.replace(' ', '_').replace(',', '')}-{index}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "trace", str(out), "--", *argv]
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{name}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr[-4000:]}"
            )
    return name, time.perf_counter() - start


def reached(trace_dir: Path) -> Set[Tuple[str, int]]:
    """``(path relative to src/repro, first line)`` of every code object run."""
    found = set()
    for path in trace_dir.iterdir():
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition(":")
            found.add((Path(filename).relative_to(PACKAGE).as_posix(), int(lineno)))
    return found


# -- what counts as public -----------------------------------------------------
def _is_stub(node: ast.FunctionDef) -> bool:
    """An interface declaration: abstract, or a body that only raises or passes."""
    for deco in node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
        if name == "abstractmethod":
            return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or (isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt))
        for stmt in body
    )


def _first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of the function: its first decorator, else its ``def``."""
    return min([node.lineno] + [deco.lineno for deco in node.decorator_list])


Key = Tuple[str, int]


def _code_key(rel: Path, node: ast.AST) -> Key:
    return rel.as_posix(), _first_line(node)


def public_units() -> Dict[str, Tuple[Set[Key], int]]:
    """``dotted name -> (code that counts as reaching it, line count)``.

    A public module-level function is reached when its code runs.  A public
    class is reached when any function defined in its body, or in a
    subclass's, runs; a dataclass (whose generated ``__init__`` the profiler
    cannot attribute) or a class that defines only stubs is not counted.  A
    public method is reached when it runs or, if it overrides a method of a
    ``repro`` base class, when that method or any override of it runs: an
    interface is reached as a whole.  Stubs (abstract, or a body that only
    raises ``NotImplementedError``) are skipped.
    """
    units: Dict[str, Tuple[Set[Key], int]] = {}
    classes: Dict[str, dict] = {}  # dotted class name -> its record
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        private = any(part.startswith("_") and part != "__init__.py" for part in rel.parts)
        module = ".".join(("repro",) + rel.with_suffix("").parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                continue
            public = not private and not node.name.startswith("_")
            size = node.end_lineno - _first_line(node) + 1
            if isinstance(node, ast.FunctionDef):
                if public and not _is_stub(node):
                    units[f"{module}.{node.name}"] = ({_code_key(rel, node)}, size)
                continue
            dataclass = any("dataclass" in ast.unparse(deco) for deco in node.decorator_list)
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            classes[f"{module}.{node.name}"] = {
                "simple": node.name,
                "public": public,
                "counted": not dataclass,
                "size": size,
                "bases": [ast.unparse(base).rpartition(".")[2] for base in node.bases],
                "methods": {
                    item.name: (
                        _code_key(rel, item),
                        item.end_lineno - _first_line(item) + 1,
                        _is_stub(item),
                    )
                    for item in methods
                },
            }

    by_simple: Dict[str, List[str]] = {}
    for name, cls in classes.items():
        by_simple.setdefault(cls["simple"], []).append(name)

    def ancestors(name: str) -> List[str]:
        found, queue = [], list(classes[name]["bases"])
        while queue:
            for base in by_simple.get(queue.pop(0), []):
                if base not in found:
                    found.append(base)
                    queue.extend(classes[base]["bases"])
        return found

    lineage = {name: ancestors(name) for name in classes}
    for name, cls in classes.items():
        if not cls["public"]:
            continue
        if cls["counted"] and any(not stub for _, _, stub in cls["methods"].values()):
            # A base class is reached through any subclass.
            keys = {
                key
                for other_name, other in classes.items()
                if other_name == name or name in lineage[other_name]
                for key, _, _ in other["methods"].values()
            }
            units[name] = (keys, cls["size"])
        for method, (key, size, stub) in cls["methods"].items():
            if method.startswith("_") or stub:
                continue
            defining = [a for a in lineage[name] if method in classes[a]["methods"]]
            root = defining[-1] if defining else name
            family = {
                other["methods"][method][0]
                for other_name, other in classes.items()
                if method in other["methods"]
                and (other_name == root or root in lineage[other_name])
            }
            units[f"{name}.{method}"] = (family, size)
    return units


def load_allow_list(path: Path = ALLOW_LIST) -> Dict[str, str]:
    """``dotted name -> reason`` from ``name  reason  free text`` lines."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, reason, *_ = line.split() + [""]
        if reason not in REASONS:
            raise SystemExit(
                f"{path.name}:{number}: reason {reason!r} is not one of {sorted(REASONS)}"
            )
        if name in entries:
            raise SystemExit(f"{path.name}:{number}: {name} is listed twice")
        entries[name] = reason
    return entries


def verdict(units, hits, allowed) -> Tuple[List[str], List[str], List[str]]:
    """Unreached unlisted units, listed units that were reached, unknown entries."""
    unreached = sorted(name for name, (keys, _) in units.items() if not keys & hits)
    missing = [name for name in unreached if name not in allowed]
    stale = sorted(name for name in allowed if name in units and name not in unreached)
    unknown = sorted(name for name in allowed if name not in units)
    return missing, stale, unknown


def census() -> int:
    units = public_units()
    allowed = load_allow_list()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        (work / "traces").mkdir()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_run, name, cwd, argvs, work)
                for name, cwd, argvs in _artefacts(work)
            ]
            for future in futures:
                name, seconds = future.result()
                print(f"  {seconds:6.1f} s  {name}", file=sys.stderr)
        hits = reached(work / "traces")
    wall = time.perf_counter() - start
    missing, stale, unknown = verdict(units, hits, allowed)
    reached_count = sum(1 for keys, _ in units.values() if keys & hits)
    print(f"census: {len(units)} public functions and classes, {reached_count} reached, "
          f"{len(allowed)} allow-listed, {wall:.0f} s")
    for name in missing:
        print(f"UNREACHED {name} ({units[name][1]} lines): "
              "reached by no artefact and not allow-listed")
    for name in stale:
        print(f"STALE {name}: allow-listed ({allowed[name]}) but reached; delete its entry")
    for name in unknown:
        print(f"UNKNOWN {name}: allow-listed but no such public function")
    return 1 if (missing or stale or unknown) else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["trace"]:
        _trace(argv[1], argv[argv.index("--") + 1:])
        return 0
    return census()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
