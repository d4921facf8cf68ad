"""CLI smoke tests for ``python -m repro.campaign``."""

import json
import os

import pytest

from repro.campaign import cli
from repro.campaign.cache import ResultCache
from repro.campaign.cli import PRESETS, demo_campaign, main
from repro.campaign.executor import run_campaign
from repro.campaign.report import CampaignReport
from repro.campaign.spec import CampaignSpec, RunSpec


def _model_spec(tmp_path):
    spec = CampaignSpec(
        name="cli-model",
        cells=tuple(
            RunSpec(kind="model", params={"lam": 1e-4, "tckp": float(t)})
            for t in (10.0, 20.0)
        ),
    )
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return path


def _ft_spec_path(tmp_path):
    """Four small failure-injected cells (two methods x two failure models)."""
    spec = CampaignSpec(
        name="cli-ft", kind="ft", methods=("jacobi", "cg"), schemes=("traditional",),
        failure_models=("poisson", "bursty"), mttis=(1800.0,),
        checkpoint_intervals=(150.0,), repetitions=1, grid_n=6, seed=3,
    )
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return spec, path


class TestPresets:
    def test_demo_campaign_has_at_least_24_cells(self):
        assert len(demo_campaign()) >= 24

    def test_all_presets_expand(self):
        for name, factory in PRESETS.items():
            spec = factory()
            assert isinstance(spec, CampaignSpec)
            assert len(spec.expand()) >= 1, name

    def test_list_presets_exits_cleanly(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out


class TestMain:
    def test_runs_spec_file_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "--spec", str(_model_spec(tmp_path)),
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(out_path),
                "--group-by", "kind",
                "--quiet",
            ]
        )
        assert code == 0
        assert "cli-model" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert len(payload["cells"]) == 2

    def test_cached_rerun_executes_nothing(self, tmp_path, capsys):
        spec = CampaignSpec(
            name="cli-cache",
            cells=(RunSpec(kind="model", params={"lam": 1e-4, "tckp": 5.0}),),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        args = ["--spec", str(spec_path), "--cache-dir", str(tmp_path / "c"), "--quiet"]
        main(args)
        capsys.readouterr()
        main(args)
        assert "1 from cache" in capsys.readouterr().out


class TestJsonReport:
    """``--json``: checked up front, written atomically, stdlib-identical bytes."""

    def test_json_equals_the_stdlib_encoding_of_the_report(self, tmp_path):
        spec, spec_path = _ft_spec_path(tmp_path)
        out_path, cache = tmp_path / "report.json", tmp_path / "cache"
        argv = ["--spec", str(spec_path), "--cache-dir", str(cache), "--quiet"]
        assert main(argv + ["--json", str(out_path)]) == 0
        result = run_campaign(spec, cache=ResultCache(cache))
        expected = json.dumps(CampaignReport(result).to_dict(), indent=2, sort_keys=True)
        assert out_path.read_text() == expected
        mask = os.umask(0)
        os.umask(mask)
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~mask

    def test_json_is_identical_cold_warm_parallel_and_uncached(self, tmp_path, capsys):
        """The spliced report does not depend on where the fragments came from."""
        _, spec_path = _ft_spec_path(tmp_path)
        runs = {
            "cold": ["--cache-dir", str(tmp_path / "serial")],
            "warm": ["--cache-dir", str(tmp_path / "serial")],
            "parallel": ["--cache-dir", str(tmp_path / "pool"), "--workers", "2"],
            "uncached": ["--no-cache"],
        }
        reports, logs = {}, {}
        for name, options in runs.items():
            out_path = tmp_path / f"{name}.json"
            argv = ["--spec", str(spec_path), "--quiet", *options, "--json", str(out_path)]
            assert main(argv) == 0
            logs[name] = capsys.readouterr().out
            reports[name] = out_path.read_bytes()
        assert "4 cells: 0 executed, 4 from cache" in logs["warm"]
        for name in ("cold", "parallel", "uncached"):
            assert "4 cells: 4 executed, 0 from cache" in logs[name], name
        assert reports["warm"] == reports["cold"]
        assert reports["parallel"] == reports["cold"]
        assert reports["uncached"] == reports["cold"]

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_bad_destination_fails_before_any_cell_runs(self, tmp_path, capsys, parent):
        if parent == "file":
            (tmp_path / "file").write_text("")
        cache = tmp_path / "cache"
        argv = [
            "--spec", str(_model_spec(tmp_path)), "--cache-dir", str(cache), "--quiet",
            "--json", str(tmp_path / parent / "report.json"),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "is not a directory" in capsys.readouterr().err
        assert not cache.exists()

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_write_keeps_the_previous_report(
        self, tmp_path, capsys, monkeypatch, failure
    ):
        out_path = tmp_path / "report.json"
        argv = [
            "--spec", str(_model_spec(tmp_path)), "--cache-dir", str(tmp_path / "c"),
            "--quiet", "--json", str(out_path),
        ]
        main(argv)
        before = out_path.read_bytes()
        real_open = open

        class TornFile:
            """Writes half of the report, then the disk is full."""

            def __init__(self, path, mode):
                self.handle = real_open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError("disk full")

        def refuse(src, dst):
            raise OSError("rename refused")

        if failure == "write":
            monkeypatch.setattr(cli, "open", TornFile, raising=False)
        else:
            monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError):
            main(argv + ["--group-by", "kind"])
        assert out_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "report.json", "spec.json"]
