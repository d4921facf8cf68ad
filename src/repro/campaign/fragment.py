"""The single encoded form of a campaign cell's result.

A cell is JSON-encoded once, where it runs (in the pool worker under
``--workers N``), into its *fragment*: exactly the text the ``--json`` report
holds for it, ``{"spec": ..., "result": ...}`` indented for its place in the
report's ``cells`` list.  The result cache stores that text verbatim, and the
report splices it, so a warm rerun never decodes or re-encodes a cell.
Beside the text a :class:`CellFragment` carries the result's *scalars* (the
result with every list left out), which is all the aggregate reads; the
full result is decoded only when a caller asks for it.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Dict, Optional

__all__ = ["CellFragment"]

#: The C encoder's compact, key-sorted rendering of a whole subtree.
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Newline plus indentation of a cell's line in the report's ``cells`` list.
CELL_INDENT = "\n    "


def _dumps_indented(obj, nl: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, only faster.

    With an indent, ``json`` runs its pure-Python encoder.  Here the
    containers are walked in Python but each list of plain numbers (e.g. a
    ``residual_trace`` of ``[it, res]`` pairs) is encoded once by the C
    encoder and re-indented with string operations.  ``nl`` is the newline
    plus indentation of the line ``obj`` starts on.  Whatever this walk does
    not handle (non-``str`` keys, unknown types) goes to the stdlib; its
    output holds no raw newline, so re-indenting it is a plain replace.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return repr(obj)
    inner = nl + "  "
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        items = (
            encode_basestring_ascii(key) + ": " + _dumps_indented(value, inner)
            for key, value in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not isinstance(obj[0], dict):
            text = _compact(obj)
            # No strings (nor keys, so no non-empty dicts): every comma and
            # bracket is structure, and "{}" renders the same indented.
            if '"' not in text:
                body = text[1:-1]
                if "[" not in body:
                    return "[" + inner + body.replace(",", "," + inner) + nl + "]"
                rows = body[1:-1]
                if (
                    body[0] == "[" and body[-1] == "]" and "[]" not in body
                    and rows.count("[") == rows.count("]") == rows.count("],[")
                ):
                    # Non-empty flat rows: each "],[" is a joint between two.
                    deeper = inner + "  "
                    rows = rows.replace(",", "," + deeper).replace(
                        "]," + deeper + "[", inner + "]," + inner + "[" + deeper
                    )
                    return "[" + inner + "[" + deeper + rows + inner + "]" + nl + "]"
        items = (_dumps_indented(value, inner) for value in obj)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if obj is None or obj is True or obj is False or kind is float:
        return _compact(obj)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _scalars(obj: Dict[str, object]) -> Dict[str, object]:
    """``obj`` with every list (at any depth of nested dicts) left out."""
    return {
        key: _scalars(value) if isinstance(value, dict) else value
        for key, value in obj.items()
        if not isinstance(value, (list, tuple))
    }


class CellFragment:
    """One cell's report text, its result's scalars, and the result on demand.

    ``text`` is ``_dumps_indented({"spec": ..., "result": ...}, CELL_INDENT)``;
    ``scalars`` is the result without its lists.  :attr:`result` decodes
    ``text`` the first time it is read.
    """

    __slots__ = ("text", "scalars", "_result")

    def __init__(self, text: str, scalars: Dict[str, object]) -> None:
        self.text = text
        self.scalars = scalars
        self._result: Optional[Dict[str, object]] = None

    @classmethod
    def render(cls, spec, result: Dict[str, object]) -> "CellFragment":
        """Encode ``result`` of the cell ``spec`` (a ``RunSpec``).

        The fragment does not keep ``result``: its text is the smaller form.
        """
        text = _dumps_indented({"spec": spec.to_dict(), "result": result}, CELL_INDENT)
        return cls(text, _scalars(result))

    @property
    def result(self) -> Dict[str, object]:
        """The cell's result dictionary, decoded from :attr:`text` once."""
        if self._result is None:
            self._result = json.loads(self.text)["result"]
        return self._result
