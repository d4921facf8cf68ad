"""Tests for the content-addressed result cache and the sub-result memo."""

import hashlib
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.campaign.cache import MemoStore, ResultCache
from repro.campaign.fragment import CellFragment
from repro.campaign.spec import RunSpec


def _put(cache: ResultCache, cell: RunSpec, result: dict) -> CellFragment:
    fragment = CellFragment.render(cell, result)
    cache.put(cell, fragment)
    return fragment


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cell = RunSpec(kind="model", params={"lam": 1e-4, "tckp": 30.0})
        assert cache.get(cell) is None
        stored = _put(cache, cell, {"overhead_fraction": 0.25, "trace": [1.0, 2.0]})
        hit = cache.get(cell)
        assert hit.text == stored.text
        assert hit.scalars == {"overhead_fraction": 0.25}
        assert hit.result == {"overhead_fraction": 0.25, "trace": [1.0, 2.0]}
        assert cell in cache
        assert len(cache) == 1

    def test_key_isolation(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
        b = RunSpec(kind="model", params={"lam": 2.0, "tckp": 1.0})
        _put(cache, a, {"v": 1})
        assert cache.get(b) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
        _put(cache, cell, {"v": 1})
        path = next(tmp_path.glob("*.json"))
        path.write_text("{ not json")
        assert cache.get(cell) is None
        # The broken file was removed so a fresh put works.
        _put(cache, cell, {"v": 2})
        assert cache.get(cell).result == {"v": 2}

    def test_binary_garbage_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
        _put(cache, cell, {"v": 1})
        path = next(tmp_path.glob("*.json"))
        path.write_bytes(b"\xff\xfe\x00 not utf-8")
        assert cache.get(cell) is None
        assert not path.exists()

    def test_entry_stores_spec_alongside_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = RunSpec(kind="characterize", method="cg", scheme="lossless")
        _put(cache, cell, {"mean_ratio": 1.3})
        head, body = next(tmp_path.glob("*.json")).read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert header == {
            "digest": hashlib.blake2b(body, digest_size=16).hexdigest(),
            "length": len(body),
            "scalars": {"mean_ratio": 1.3},
        }
        payload = json.loads(body)
        assert payload["spec"] == cell.to_dict()
        assert payload["result"] == {"mean_ratio": 1.3}

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for tckp in (1.0, 2.0, 3.0):
            _put(cache, RunSpec(kind="model", params={"lam": 1.0, "tckp": tckp}), {})
        assert len(cache) == 3


# -- entries that fail their header's check ------------------------------------
_CELL = RunSpec(kind="model", params={"lam": 1.0, "tckp": 1.0})
_RESULT = {"overhead_fraction": 0.25, "trace": [0.5, 0.25]}


def _corrupt(raw: bytes, legacy: bytes, mode: str) -> bytes:
    """``raw`` (a stored entry) damaged as ``mode`` says; ``legacy`` is the
    same value in the previous, header-less layout."""
    head, body = raw.split(b"\n", 1)
    if mode == "edited-value":  # same length, so only the digest catches it
        assert body.count(b"0.25") == 2
        return head + b"\n" + body.replace(b"0.25", b"0.75")
    if mode == "truncated":
        return raw[:-1]
    if mode == "appended":
        return raw + b" "
    if mode == "no-header":
        return body
    if mode == "non-json-header":
        return b"digest=" + head + b"\n" + body
    if mode == "legacy-entry":
        return legacy
    raise AssertionError(mode)


_MODES = ("edited-value", "truncated", "appended", "no-header", "non-json-header",
          "legacy-entry")


class TestResultCacheIntegrity:
    @pytest.mark.parametrize("mode", _MODES)
    def test_failed_check_is_a_removed_miss(self, tmp_path, mode):
        cache = ResultCache(tmp_path)
        _put(cache, _CELL, _RESULT)
        path = next(tmp_path.glob("*.json"))
        legacy = json.dumps({"result": _RESULT, "spec": _CELL.to_dict()}, sort_keys=True)
        path.write_bytes(_corrupt(path.read_bytes(), legacy.encode(), mode))
        assert cache.get(_CELL) is None
        assert not path.exists()
        _put(cache, _CELL, _RESULT)
        assert cache.get(_CELL).result == _RESULT

    def test_sealed_entry_without_scalars_is_a_removed_miss(self, tmp_path):
        cache, memos = ResultCache(tmp_path), MemoStore(tmp_path / "memos")
        memos.put("k", _RESULT)
        path = tmp_path / f"{_CELL.cache_key()}.json"
        path.write_bytes((tmp_path / "memos" / "k.json").read_bytes())
        assert cache.get(_CELL) is None
        assert not path.exists()


class TestMemoStoreIntegrity:
    @pytest.mark.parametrize("mode", _MODES)
    def test_failed_check_is_a_removed_miss(self, tmp_path, mode):
        memos = MemoStore(tmp_path)
        memos.put("k", _RESULT)
        path = tmp_path / "k.json"
        legacy = json.dumps(_RESULT, sort_keys=True)
        path.write_bytes(_corrupt(path.read_bytes(), legacy.encode(), mode))
        assert memos.get("k") is None
        assert not path.exists()
        memos.put("k", _RESULT)
        assert memos.get("k") == _RESULT

    def test_entry_is_header_then_compact_json(self, tmp_path):
        memos = MemoStore(tmp_path)
        memos.put("k", _RESULT)
        head, body = (tmp_path / "k.json").read_bytes().split(b"\n", 1)
        assert json.loads(head) == {
            "digest": hashlib.blake2b(body, digest_size=16).hexdigest(),
            "length": len(body),
        }
        assert body == json.dumps(_RESULT, sort_keys=True).encode()


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
            _put(cache, _shared_cell(k), mine)
            seen = cache.get(_shared_cell(k))
            assert seen is not None and _is_whole(seen.result), ("cells", k, round_)
            memos.put(f"shared{k}", mine)
            seen = memos.get(f"shared{k}")
            assert seen is not None and _is_whole(seen), ("memos", k, round_)
        # Private keys: nobody else writes them, so reads return our bytes.
        _put(cache, own_cell, mine)
        assert cache.get(own_cell).result == mine
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
        assert _is_whole(cache.get(_shared_cell(k)).result)
        assert _is_whole(memos.get(f"shared{k}"))
