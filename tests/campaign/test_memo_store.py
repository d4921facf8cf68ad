"""On-disk sub-result memos: byte-identity, reuse, and corruption handling.

The executor persists each configuration's failure-free baseline and each
scheme's payload characterization into ``<cache>/memos`` so that fresh worker
processes (and later campaign invocations) skip the solves entirely.  The
contract under test: a memo-served campaign is byte-identical to a cold one,
and the memo actually prevents recomputation.
"""

import json

import numpy as np
import pytest

import repro.campaign.execute as execute
from repro.campaign.cache import MemoStore
from repro.campaign.executor import run_campaign
from repro.campaign.report import CampaignReport
from repro.campaign.spec import CampaignSpec


def _report_json(result) -> str:
    """The campaign report of ``result`` as sorted-key JSON."""
    return json.dumps(CampaignReport(result).to_dict(), sort_keys=True)


def _clear_process_memos():
    """Drop the in-process lru layers so disk is the only warm cache."""
    execute._cached_setup.cache_clear()
    execute._cached_characterization.cache_clear()


@pytest.fixture(autouse=True)
def _isolated_memo_state():
    """Leave no memo configuration behind for other test modules."""
    _clear_process_memos()
    yield
    _clear_process_memos()
    execute.configure_memo_store(None)


def demo_spec() -> CampaignSpec:
    return CampaignSpec(
        name="memo-test",
        kind="ft",
        methods=("jacobi",),
        schemes=("traditional", "lossy"),
        process_counts=(256,),
        repetitions=2,
        grid_n=8,
    )


class TestMemoStore:
    def test_round_trip(self, tmp_path):
        store = MemoStore(tmp_path / "memos")
        payload = {"x": [0.1, 1.0 / 3.0, 1e-300], "n": 3}
        store.put("abc123", payload)
        assert "abc123" in store
        assert len(store) == 1
        restored = store.get("abc123")
        assert restored == payload
        # Bit-exact float round trip is what keeps memo-served cells
        # byte-identical to cold ones.
        for a, b in zip(restored["x"], payload["x"]):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = MemoStore(tmp_path)
        (tmp_path / "bad.json").write_text("{torn")
        assert store.get("bad") is None
        assert not (tmp_path / "bad.json").exists()
        (tmp_path / "list.json").write_text(json.dumps([1, 2]))
        assert store.get("list") is None

    def test_miss_returns_none(self, tmp_path):
        assert MemoStore(tmp_path).get("nope") is None


class TestBaselineAndCharacterizationMemos:
    def test_sub_results_round_trip_bit_exactly(self, tmp_path):
        execute.configure_memo_store(tmp_path / "memos")
        problem_key = ("jacobi", 8, 48, 42, None, 30, 100000)
        _, _, cold = execute._cached_setup(*problem_key)
        _clear_process_memos()
        _, _, warm = execute._cached_setup(*problem_key)
        assert warm.iterations == cold.iterations
        assert warm.converged == cold.converged
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.residual_norms == cold.residual_norms
        assert warm.final_residual_norm == cold.final_residual_norm

        scheme_key = problem_key + ("lossy", "sz", 1e-4, False, "fixed")
        cold_char = execute._cached_characterization(*scheme_key)
        _clear_process_memos()
        warm_char = execute._cached_characterization(*scheme_key)
        assert execute._characterization_to_dict(
            warm_char
        ) == execute._characterization_to_dict(cold_char)

    def test_memo_prevents_recomputation(self, tmp_path, monkeypatch):
        execute.configure_memo_store(tmp_path / "memos")
        problem_key = ("jacobi", 8, 48, 42, None, 30, 100000)
        execute._cached_setup(*problem_key)
        _clear_process_memos()

        def boom(*args, **kwargs):  # pragma: no cover - failure is the point
            raise AssertionError("baseline was recomputed despite a disk memo")

        import repro.engine

        monkeypatch.setattr(repro.engine, "run_failure_free", boom)
        execute._cached_setup(*problem_key)


class TestExecutorMemoIntegration:
    def test_memo_dir_lands_next_to_cell_results(self, tmp_path):
        cold = run_campaign(demo_spec(), n_workers=1, cache=tmp_path / "cache")
        memos = tmp_path / "cache" / "memos"
        assert memos.is_dir()
        # One baseline for the shared jacobi configuration plus one
        # characterization per scheme.
        assert len(list(memos.glob("*.json"))) == 3

        # A fresh process would start with cold lru caches; simulate that and
        # force re-execution by clearing the *cell* cache but keeping memos.
        _clear_process_memos()
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.unlink()
        warm = run_campaign(demo_spec(), n_workers=1, cache=tmp_path / "cache")
        assert warm.executed_count == len(demo_spec())
        assert _report_json(warm) == _report_json(cold)

    def test_no_cache_means_no_memo_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_campaign(demo_spec(), n_workers=1, cache=None)
        assert execute._MEMO_STORE is None
