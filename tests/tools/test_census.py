"""The API census's bookkeeping (``tools/census.py``).

The census itself runs every artefact of the repository and takes about a
minute, so it is a CI job of its own.  These tests pin what decides its
verdict, on small synthetic packages: which names count as public units and
which code reaches them, how the allow-list parses, how the verdict sorts
names, that a forked worker leaving through ``os._exit`` still reports what
it ran, and that the artefact list covers what the census claims to run.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


@pytest.fixture
def package(tmp_path, monkeypatch):
    """Write modules of a synthetic ``repro`` package; return ``public_units()``."""
    root = tmp_path / "repro"
    root.mkdir()
    monkeypatch.setattr(census, "PACKAGE", root)

    def build(files):
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return census.public_units()

    return build


def _keys(units, name):
    return units[name][0]


# -- what counts as a public unit ----------------------------------------------
class TestPublicUnits:
    def test_public_module_function_is_a_unit(self, package):
        units = package({"mod.py": """\
            def helper():
                return 1
            """})
        assert _keys(units, "repro.mod.helper") == {("mod.py", 1)}
        assert units["repro.mod.helper"][1] == 2

    def test_private_function_is_not_a_unit(self, package):
        units = package({"mod.py": """\
            def _helper():
                return 1
            """})
        assert units == {}

    @pytest.mark.parametrize("rel", ["_impl.py", "_private/mod.py"])
    def test_private_module_is_not_scanned(self, package, rel):
        assert package({rel: "def helper():\n    return 1\n"}) == {}

    @pytest.mark.parametrize(
        "body",
        [
            "raise NotImplementedError",
            "raise NotImplementedError('subclasses implement this')",
            "pass",
            '"""Only a docstring."""',
            "...",
        ],
    )
    def test_stub_is_not_a_unit(self, package, body):
        units = package({"mod.py": f"def hook():\n    {body}\n"})
        assert "repro.mod.hook" not in units

    def test_abstract_method_is_not_a_unit(self, package):
        units = package({"mod.py": """\
            from abc import ABC, abstractmethod

            class Base(ABC):
                @abstractmethod
                def run(self):
                    return 1
            """})
        assert "repro.mod.Base.run" not in units
        # A class that only declares stubs is an interface, not a unit.
        assert "repro.mod.Base" not in units

    def test_decorated_function_is_keyed_by_its_first_decorator(self, package):
        units = package({"mod.py": """\
            import functools


            @functools.lru_cache(maxsize=None)
            def cached():
                return 1
            """})
        # co_firstlineno of a decorated function is its decorator's line.
        assert _keys(units, "repro.mod.cached") == {("mod.py", 4)}
        assert units["repro.mod.cached"][1] == 3

    def test_init_module_takes_the_package_name(self, package):
        units = package({"sub/__init__.py": "def entry():\n    return 1\n"})
        assert set(units) == {"repro.sub.entry"}
        assert _keys(units, "repro.sub.entry") == {("sub/__init__.py", 1)}

    def test_override_is_reached_through_its_interface_family(self, package):
        units = package({
            "base.py": """\
                class Base:
                    def run(self):
                        return 0
                """,
            "impl.py": """\
                from repro.base import Base

                class Impl(Base):
                    def run(self):
                        return 1

                    def extra(self):
                        return 2
                """,
        })
        family = {("base.py", 2), ("impl.py", 4)}
        assert _keys(units, "repro.base.Base.run") == family
        assert _keys(units, "repro.impl.Impl.run") == family
        # A method no base class defines is reached only by its own code.
        assert _keys(units, "repro.impl.Impl.extra") == {("impl.py", 7)}

    def test_base_class_is_reached_through_a_subclass(self, package):
        units = package({"mod.py": """\
            class Base:
                def run(self):
                    return 0

            class Child(Base):
                def step(self):
                    return 1
            """})
        assert _keys(units, "repro.mod.Base") == {("mod.py", 2), ("mod.py", 6)}
        # A subclass is not reached through its base's own methods.
        assert _keys(units, "repro.mod.Child") == {("mod.py", 6)}

    def test_dataclass_is_not_counted_but_its_methods_are(self, package):
        units = package({"mod.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Record:
                value: int

                def doubled(self):
                    return 2 * self.value
            """})
        assert "repro.mod.Record" not in units
        assert _keys(units, "repro.mod.Record.doubled") == {("mod.py", 7)}

    def test_private_methods_are_not_units(self, package):
        units = package({"mod.py": """\
            class Thing:
                def __init__(self):
                    self.x = 1

                def _hidden(self):
                    return 2
            """})
        assert set(units) == {"repro.mod.Thing"}


# -- the allow-list --------------------------------------------------------------
class TestAllowList:
    def test_parses_names_reasons_free_text_and_comments(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text(
            "# header comment\n"
            "\n"
            "repro.a.f   oracle\n"
            "repro.b.g   inverse     of repro.b.h   # trailing comment\n"
        )
        assert census.load_allow_list(path) == {"repro.a.f": "oracle", "repro.b.g": "inverse"}

    @pytest.mark.parametrize("line", ["repro.a.f  unused\n", "repro.a.f\n"])
    def test_rejects_an_entry_without_a_known_reason(self, tmp_path, line):
        path = tmp_path / "allow.txt"
        path.write_text(line)
        with pytest.raises(SystemExit, match="is not one of"):
            census.load_allow_list(path)

    def test_rejects_a_name_listed_twice(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("repro.a.f  oracle\nrepro.a.f  generator\n")
        with pytest.raises(SystemExit, match="listed twice"):
            census.load_allow_list(path)

    def test_checked_in_list_names_only_public_units(self):
        allowed = census.load_allow_list()
        assert allowed
        assert set(allowed.values()) <= set(census.REASONS)
        assert sorted(set(allowed) - set(census.public_units())) == []


# -- the verdict -----------------------------------------------------------------
UNITS = {
    "repro.m.reached": ({("m.py", 1)}, 3),
    "repro.m.unreached": ({("m.py", 5)}, 3),
    "repro.m.listed": ({("m.py", 9)}, 3),
}


class TestVerdict:
    def test_clean_when_every_unreached_unit_is_listed(self):
        hits = {("m.py", 1)}
        allowed = {"repro.m.unreached": "oracle", "repro.m.listed": "oracle"}
        assert census.verdict(UNITS, hits, allowed) == ([], [], [])

    def test_unreached_unlisted_unit_is_missing(self):
        missing, stale, unknown = census.verdict(UNITS, {("m.py", 1)}, {"repro.m.listed": "oracle"})
        assert (missing, stale, unknown) == (["repro.m.unreached"], [], [])

    def test_reached_listed_unit_is_stale(self):
        hits = {("m.py", 1), ("m.py", 9)}
        allowed = {"repro.m.unreached": "oracle", "repro.m.listed": "oracle"}
        assert census.verdict(UNITS, hits, allowed) == ([], ["repro.m.listed"], [])

    def test_listed_name_without_a_unit_is_unknown(self):
        hits = {("m.py", 1)}
        allowed = {"repro.m.unreached": "oracle", "repro.m.listed": "oracle",
                   "repro.m.gone": "generator"}
        assert census.verdict(UNITS, hits, allowed) == ([], [], ["repro.m.gone"])

    def test_any_member_of_a_family_reaches_the_unit(self):
        units = {"repro.m.Base.run": ({("m.py", 2), ("n.py", 4)}, 2)}
        assert census.verdict(units, {("n.py", 4)}, {}) == ([], [], [])


# -- the traces ------------------------------------------------------------------
def _rng_line(name):
    """The trace line of a function of ``repro.utils.rng``."""
    import repro.utils.rng as rng

    code = getattr(rng, name).__code__
    return f"{code.co_filename}:{code.co_firstlineno}"


class TestTraces:
    def test_reached_unions_every_trace_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(census, "PACKAGE", Path("/pkg/repro"))
        (tmp_path / "a.1").write_text("/pkg/repro/m.py:3\n/pkg/repro/sub/n.py:10")
        (tmp_path / "a.2").write_text("/pkg/repro/m.py:3\n/pkg/repro/m.py:7")
        assert census.reached(tmp_path) == {("m.py", 3), ("m.py", 7), ("sub/n.py", 10)}

    @staticmethod
    def _trace(tmp_path, script_source):
        script = tmp_path / "script.py"
        script.write_text(textwrap.dedent(script_source))
        out = tmp_path / "traces" / "run"
        out.parent.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "tools" / "census.py"), "trace", str(out),
             "--", str(script)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        stdout, stderr = proc.communicate(timeout=120)
        files = {int(path.suffix[1:]): path.read_text().splitlines()
                 for path in out.parent.iterdir()}
        return proc, stdout, stderr, files

    def test_forked_worker_writes_its_own_trace(self, tmp_path):
        from repro.utils.rng import derive_seed

        proc, stdout, stderr, files = self._trace(tmp_path, """\
            import multiprocessing

            from repro.utils.rng import derive_seed


            def work():
                print(derive_seed(1, "census"))


            if __name__ == "__main__":
                child = multiprocessing.get_context("fork").Process(target=work)
                child.start()
                child.join()
                assert child.exitcode == 0
            """)
        assert proc.returncode == 0, stderr
        assert stdout.strip() == str(derive_seed(1, "census"))
        line = _rng_line("derive_seed")
        assert proc.pid in files and len(files) == 2
        (worker,) = set(files) - {proc.pid}
        # Only the worker called the function; it left through os._exit and
        # still wrote what it ran.
        assert line in files[worker]
        assert line not in files[proc.pid]

    def test_tracer_keeps_a_failing_exit_code_and_still_flushes(self, tmp_path):
        proc, _, _, files = self._trace(tmp_path, """\
            import sys

            from repro.utils.rng import derive_seed

            derive_seed(3)
            sys.exit(3)
            """)
        assert proc.returncode == 3
        assert list(files) == [proc.pid]
        assert _rng_line("derive_seed") in files[proc.pid]


# -- what the census runs ----------------------------------------------------------
@pytest.fixture
def artefacts(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    return {name: (cwd, argvs) for name, cwd, argvs in census._artefacts(tmp_path)}


class TestArtefacts:
    def test_every_preset_runs_cold_then_warm_on_two_workers(self, artefacts):
        from repro.campaign.cli import PRESETS

        for preset in PRESETS:
            _, argvs = artefacts[f"preset {preset}"]
            cold, warm = argvs
            assert cold == warm
            assert cold[:2] == ["-m", "repro.campaign"]
            assert cold[cold.index("--workers") + 1] == "2"
            assert cold[cold.index("--preset") + 1] == preset

    def test_every_workload_is_prepared_then_run_cold_and_warm(self, artefacts, tmp_path):
        names = sorted(name.split(" ", 1)[1] for name in artefacts
                       if name.startswith("workload "))
        assert names and names == sorted(
            name.split(" ", 1)[1] for name in artefacts if name.startswith("stream ")
        )
        for name in names:
            _, (prepare, cold, warm) = artefacts[f"workload {name}"]
            assert Path(prepare[0]).name == "prepare.py"
            assert json.loads(prepare[1])["stream"]
            assert cold == warm
            assert cold[cold.index("--spec") + 1] == prepare[2]
            _, (stream,) = artefacts[f"stream {name}"]
            assert Path(stream[0]).name == "ckpt_stream.py" and "--trace" in stream

    def test_every_example_runs(self, artefacts):
        examples = {path.name for path in (ROOT / "examples").glob("*.py")}
        listed = {name.split(" ", 1)[1] for name in artefacts if name.startswith("example ")}
        assert examples and listed == examples
        assert set(census.EXAMPLE_ARGS) <= examples

    def test_the_claim_runs_cover_every_claim_module(self, artefacts):
        runs = [argvs for name, (_, argvs) in artefacts.items()
                if name.startswith("paper claims, part")]
        assert len(runs) == len(census.CLAIM_TESTS) == 2
        files = [arg.split("::")[0] for (argv,) in runs for arg in argv
                 if arg.startswith(("tests/", "benchmarks/"))]
        assert len(files) == len(set(files))
        assert all((ROOT / name).is_file() for name in files)
        # Every test module left under benchmarks/ is a claim test.
        assert {
            str(path.relative_to(ROOT)) for path in ROOT.glob("benchmarks/test_*.py")
        } <= set(files)
