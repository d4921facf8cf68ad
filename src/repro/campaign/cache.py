"""Content-addressed on-disk caches for campaign execution.

:class:`ResultCache` stores finished cell results: each cell's
:meth:`~repro.campaign.spec.RunSpec.cache_key` (a SHA-256 over the canonical
JSON of the spec plus an engine version salt) names one file in the cache
directory holding the cell's :class:`~repro.campaign.fragment.CellFragment`.
Re-running a campaign therefore only executes cells whose spec changed;
everything else is served from disk.

:class:`MemoStore` stores the expensive *sub-results* many cells share — the
failure-free baseline of one solver configuration and the payload
characterization of one scheme (see :mod:`repro.campaign.execute`).  Unlike
cell results these are keyed by an explicit content digest rather than a
:class:`~repro.campaign.spec.RunSpec`, because one memo serves cells whose
specs differ in every other axis (seed, scale, failure model, ...).

Every entry of both stores is one line of compact JSON, the *header*, then
the *body*::

    {"digest":"<BLAKE2b-128 of the body, hex>","length":<body bytes>,...}
    <body>

Both stores write through a temporary file and ``os.replace``, so concurrent
campaigns (or a crash mid-write) never leave a torn entry.  On read, an
entry whose header is missing or not JSON, or whose body does not match the
header's length and digest (a torn write, a manual edit, an entry of an
older layout), is a miss, and the file is removed so the caller simply
recomputes (:func:`_seal` / :func:`_unseal`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.campaign.fragment import CellFragment, _compact
from repro.campaign.spec import RunSpec

__all__ = ["ResultCache", "MemoStore"]


def _digest(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def _seal(body: str, **fields) -> bytes:
    """``body`` behind a header of its digest, its length and ``fields``."""
    data = body.encode("utf-8")
    header = _compact({"digest": _digest(data), "length": len(data), **fields})
    return header.encode("utf-8") + b"\n" + data


def _unseal(path: Path) -> Optional[Tuple[dict, str]]:
    """The header and body stored at ``path``, or ``None`` on a miss.

    An entry that fails its header's check is removed.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        # Missing file or a transient I/O error: a miss, but the entry
        # (if any) may be perfectly valid — leave it alone.
        return None
    head, newline, body = raw.partition(b"\n")
    try:
        header = json.loads(head) if newline else None
    except ValueError:  # not JSON, or not even UTF-8
        header = None
    if (
        isinstance(header, dict)
        and header.get("length") == len(body)
        and header.get("digest") == _digest(body)
    ):
        return header, body.decode("utf-8")
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _store_entry(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: same-directory temporary file,
    then ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of ``<cache_key>.json`` cell fragments.

    An entry's header also holds the result's scalars (``"scalars"``), so a
    hit is served without decoding the fragment: the report splices its
    text and aggregates its scalars.
    """

    def __init__(self, directory: "str | os.PathLike") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, cell: RunSpec) -> Path:
        return self.directory / f"{cell.cache_key()}.json"

    def get(self, cell: RunSpec) -> Optional[CellFragment]:
        """The cached fragment for ``cell``, or ``None`` on a miss.

        A corrupt entry is treated as a miss and removed so the cell simply
        re-executes.
        """
        path = self._path(cell)
        entry = _unseal(path)
        if entry is None:
            return None
        header, text = entry
        scalars = header.get("scalars")
        if not isinstance(scalars, dict):
            path.unlink(missing_ok=True)
            return None
        return CellFragment(text, scalars)

    def put(self, cell: RunSpec, fragment: CellFragment) -> None:
        """Store ``fragment`` for ``cell`` atomically."""
        _store_entry(self._path(cell), _seal(fragment.text, scalars=fragment.scalars))

    def __contains__(self, cell: RunSpec) -> bool:
        return self._path(cell).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


class MemoStore:
    """A directory of ``<digest>.json`` memos for shared sub-results.

    Keys are caller-computed content digests (hex strings); values are
    JSON-safe dictionaries, stored as compact JSON behind the digest header.
    The float fields round-trip bit-exactly — Python's JSON encoder emits
    ``repr``-faithful doubles — so a baseline trajectory restored from a memo
    is numerically indistinguishable from a freshly computed one, which is
    what keeps memo-served campaign cells byte-identical to cold ones.  The
    header's digest keeps an edited memo from feeding every cell that shares
    it.
    """

    def __init__(self, directory: "str | os.PathLike") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The memoized payload for ``key``, or ``None`` on a miss.

        A corrupt entry is treated as a miss and removed so the sub-result
        simply recomputes.
        """
        entry = _unseal(self._path(key))
        return None if entry is None else json.loads(entry[1])

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``key`` atomically."""
        _store_entry(self._path(key), _seal(json.dumps(payload, sort_keys=True)))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
