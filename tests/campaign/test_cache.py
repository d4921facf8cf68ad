"""Tests for the content-addressed result cache."""

import json
import multiprocessing
from pathlib import Path

from repro.campaign.cache import MemoStore, ResultCache
from repro.campaign.spec import RunSpec


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cell = RunSpec(kind="model", params={"lam": 1e-4, "tckp": 30.0})
        assert cache.get(cell) is None
        cache.put(cell, {"overhead_fraction": 0.25})
        assert cache.get(cell) == {"overhead_fraction": 0.25}
        assert cell in cache
        assert len(cache) == 1

    def test_key_isolation(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
        b = RunSpec(kind="model", params={"lam": 2.0, "tckp": 1.0})
        cache.put(a, {"v": 1})
        assert cache.get(b) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
        cache.put(cell, {"v": 1})
        path = next(tmp_path.glob("*.json"))
        path.write_text("{ not json")
        assert cache.get(cell) is None
        # The broken file was removed so a fresh put works.
        cache.put(cell, {"v": 2})
        assert cache.get(cell) == {"v": 2}

    def test_binary_garbage_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
        cache.put(cell, {"v": 1})
        path = next(tmp_path.glob("*.json"))
        path.write_bytes(b"\xff\xfe\x00 not utf-8")
        assert cache.get(cell) is None
        assert not path.exists()

    def test_entry_stores_spec_alongside_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = RunSpec(kind="characterize", method="cg", scheme="lossless")
        cache.put(cell, {"mean_ratio": 1.3})
        payload = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert payload["spec"] == cell.to_dict()
        assert payload["result"] == {"mean_ratio": 1.3}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for tckp in (1.0, 2.0, 3.0):
            cache.put(RunSpec(kind="model", params={"lam": 1.0, "tckp": tckp}), {})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


# -- N processes racing on one cache directory --------------------------------
_RACERS = 6  # more than the CPUs of any CI host this runs on
_ROUNDS = 20
_SHARED_KEYS = 3
#: Large enough that one entry is many write() calls: a non-atomic writer
#: would expose a half-written file to a concurrent reader.
_FILL = 4_000


def _shared_cell(k: int) -> RunSpec:
    return RunSpec(kind="model", params={"lam": 1.0, "tckp": float(k)})


def _entry(worker: int, round_: int) -> dict:
    return {"worker": worker, "round": round_, "fill": [worker * 1000 + round_] * _FILL}


def _is_whole(entry: dict) -> bool:
    stamp = entry["worker"] * 1000 + entry["round"]
    return len(entry["fill"]) == _FILL and set(entry["fill"]) == {stamp}


def _racer(directory: str, worker: int, start) -> None:
    """Interleaved put/get of keys every racer writes and keys only this one
    does, on one ``ResultCache`` and one ``MemoStore`` directory.  Any
    assertion or exception makes the process exit non-zero."""
    cache = ResultCache(Path(directory) / "cells")
    memos = MemoStore(Path(directory) / "memos")
    own_cell = RunSpec(kind="model", params={"lam": 2.0, "tckp": float(worker)})
    start.wait(timeout=60)
    for round_ in range(_ROUNDS):
        mine = _entry(worker, round_)
        for k in range(_SHARED_KEYS):
            # Shared keys: someone's entry is always there once we have put
            # ours, and whoever wrote the one we read, it is whole.
            cache.put(_shared_cell(k), mine)
            seen = cache.get(_shared_cell(k))
            assert seen is not None and _is_whole(seen), ("cells", k, round_)
            memos.put(f"shared{k}", mine)
            seen = memos.get(f"shared{k}")
            assert seen is not None and _is_whole(seen), ("memos", k, round_)
        # Private keys: nobody else writes them, so reads return our bytes.
        cache.put(own_cell, mine)
        assert cache.get(own_cell) == mine
        memos.put(f"own{worker}", mine)
        assert memos.get(f"own{worker}") == mine
        # A key nobody writes stays a clean miss.
        assert memos.get("never-written") is None


def test_processes_racing_on_one_cache_directory(tmp_path):
    """No torn entry, no exception, no ``*.tmp`` left behind."""
    context = multiprocessing.get_context("spawn")
    start = context.Barrier(_RACERS)
    racers = [
        context.Process(target=_racer, args=(str(tmp_path), worker, start))
        for worker in range(_RACERS)
    ]
    for process in racers:
        process.start()
    for process in racers:
        process.join(timeout=120)
    alive = [process for process in racers if process.is_alive()]
    for process in alive:
        process.kill()
    assert not alive, "racers did not finish in time"
    assert [process.exitcode for process in racers] == [0] * _RACERS

    assert not list(tmp_path.rglob("*.tmp"))
    cache = ResultCache(tmp_path / "cells")
    memos = MemoStore(tmp_path / "memos")
    assert len(cache) == _SHARED_KEYS + _RACERS
    assert len(memos) == _SHARED_KEYS + _RACERS
    for k in range(_SHARED_KEYS):
        assert _is_whole(cache.get(_shared_cell(k)))
        assert _is_whole(memos.get(f"shared{k}"))
