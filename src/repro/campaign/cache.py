"""Content-addressed on-disk caches for campaign execution.

:class:`ResultCache` stores finished cell results: each cell's
:meth:`~repro.campaign.spec.RunSpec.cache_key` (a SHA-256 over the canonical
JSON of the spec plus an engine version salt) names one JSON file in the cache
directory holding ``{"spec": ..., "result": ...}``.  Re-running a campaign
therefore only executes cells whose spec changed; everything else is served
from disk.

:class:`MemoStore` stores the expensive *sub-results* many cells share — the
failure-free baseline of one solver configuration and the payload
characterization of one scheme (see :mod:`repro.campaign.execute`).  Unlike
cell results these are keyed by an explicit content digest rather than a
:class:`~repro.campaign.spec.RunSpec`, because one memo serves cells whose
specs differ in every other axis (seed, scale, failure model, ...).

Both stores write through a temporary file and ``os.replace`` so that
concurrent campaigns (or a crash mid-write) never leave a torn entry, and
both read a corrupt entry as a miss (:func:`_store_entry` /
:func:`_load_entry`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.campaign.spec import RunSpec

__all__ = ["ResultCache", "MemoStore"]


def _load_entry(path: Path, field: Optional[str] = None):
    """The JSON object stored at ``path`` (or one ``field`` of it), or
    ``None`` on a miss.

    A corrupt entry (torn write from a killed process, manual edit) is
    treated as a miss and removed so the caller simply recomputes.
    """
    try:
        payload = json.loads(path.read_text())
    except OSError:
        # Missing file or a transient I/O error: a miss, but the entry
        # (if any) may be perfectly valid — leave it alone.
        return None
    except ValueError:  # not JSON, or not even UTF-8
        payload = None
    if isinstance(payload, dict) and (field is None or field in payload):
        return payload if field is None else payload[field]
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _store_entry(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: same-directory temporary file,
    then ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """A directory of ``<cache_key>.json`` cell results."""

    def __init__(self, directory: "str | os.PathLike") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, cell: RunSpec) -> Path:
        return self.directory / f"{cell.cache_key()}.json"

    def get(self, cell: RunSpec) -> Optional[Dict[str, object]]:
        """The cached result for ``cell``, or ``None`` on a miss.

        A corrupt entry (torn write from a killed process, manual edit) is
        treated as a miss and removed so the cell simply re-executes.
        """
        return _load_entry(self._path(cell), "result")

    def put(self, cell: RunSpec, result: Dict[str, object]) -> None:
        """Store ``result`` for ``cell`` atomically."""
        payload = json.dumps(
            {"spec": cell.to_dict(), "result": result}, sort_keys=True
        )
        _store_entry(self._path(cell), payload)

    def __contains__(self, cell: RunSpec) -> bool:
        return self._path(cell).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


class MemoStore:
    """A directory of ``<digest>.json`` memos for shared sub-results.

    Keys are caller-computed content digests (hex strings); values are
    JSON-safe dictionaries.  The float fields round-trip bit-exactly —
    Python's JSON encoder emits ``repr``-faithful doubles — so a baseline
    trajectory restored from a memo is numerically indistinguishable from a
    freshly computed one, which is what keeps memo-served campaign cells
    byte-identical to cold ones.
    """

    def __init__(self, directory: "str | os.PathLike") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The memoized payload for ``key``, or ``None`` on a miss.

        A corrupt entry (torn write from a killed process, manual edit) is
        treated as a miss and removed so the sub-result simply recomputes.
        """
        return _load_entry(self._path(key))

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``key`` atomically."""
        _store_entry(self._path(key), json.dumps(payload, sort_keys=True))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
