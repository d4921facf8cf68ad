"""Aggregation of campaign outcomes into tables and JSON summaries.

:class:`CampaignReport` groups cells along any subset of spec axes and
reduces the numeric fields of their results (means over repetitions is the
common case).  The report is built purely from the ordered
:class:`~repro.campaign.executor.CampaignResult`, so serial, parallel and
cache-served executions of the same spec render byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Sequence, Tuple

from repro.campaign.executor import CampaignResult
from repro.utils.tables import format_table

__all__ = ["CampaignReport"]

#: The C encoder's compact, key-sorted rendering of a whole subtree.
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


#: Per-cell metrics pulled out of an ``ft`` result for aggregation.
_FT_METRICS = (
    "overhead_fraction",
    "extra_iterations",
    "interval_seconds",
    "estimated_checkpoint_seconds",
    "mean_ratio",
)
#: FTRunReport fields additionally aggregated for ``ft`` cells.
_FT_REPORT_METRICS = (
    "total_seconds",
    "num_failures",
    "num_checkpoints",
    "total_iterations",
)


def _cell_metrics(spec, result: Dict[str, object]) -> Dict[str, float]:
    """Flatten one cell result into a {metric: value} mapping."""
    metrics: Dict[str, float] = {}
    if spec.kind == "ft":
        for name in _FT_METRICS:
            if name in result:
                metrics[name] = float(result[name])
        report = result.get("report", {})
        for name in _FT_REPORT_METRICS:
            if name in report:
                metrics[name] = float(report[name])
    else:
        for name, value in result.items():
            if isinstance(value, bool):
                metrics[name] = float(value)
            elif isinstance(value, (int, float)):
                metrics[name] = float(value)
    return metrics


@dataclass
class CampaignReport:
    """Aggregated view of one executed campaign."""

    result: CampaignResult

    # ------------------------------------------------------------------
    def aggregate(
        self, by: Sequence[str] = ("method", "scheme", "num_processes")
    ) -> "Dict[Tuple, Dict[str, float]]":
        """Group cells by the given spec fields and average their metrics.

        Returns an insertion-ordered mapping from the group key tuple to
        ``{metric: mean, ..., "cells": count}``.
        """
        groups: Dict[Tuple, List[Dict[str, float]]] = {}
        for outcome in self.result.outcomes:
            key = tuple(getattr(outcome.spec, axis) for axis in by)
            groups.setdefault(key, []).append(
                _cell_metrics(outcome.spec, outcome.result)
            )
        aggregated: Dict[Tuple, Dict[str, float]] = {}
        for key, rows in groups.items():
            merged: Dict[str, float] = {}
            names = sorted({name for row in rows for name in row})
            for name in names:
                values = [row[name] for row in rows if name in row]
                merged[name] = sum(values) / len(values)
            merged["cells"] = float(len(rows))
            aggregated[key] = merged
        return aggregated

    # ------------------------------------------------------------------
    def table(
        self,
        by: Sequence[str] = ("method", "scheme", "num_processes"),
        metrics: "Sequence[str] | None" = None,
        title: "str | None" = None,
    ) -> str:
        """Render the aggregated campaign as a text table."""
        aggregated = self.aggregate(by)
        if metrics is None:
            seen: List[str] = []
            for row in aggregated.values():
                for name in row:
                    if name != "cells" and name not in seen:
                        seen.append(name)
            metrics = seen
        headers = list(by) + list(metrics) + ["cells"]
        rows = []
        for key, row in aggregated.items():
            rendered = [str(part) for part in key]
            for name in metrics:
                value = row.get(name)
                rendered.append("-" if value is None else f"{value:.4g}")
            rendered.append(f"{int(row['cells'])}")
            rows.append(rendered)
        if title is None:
            title = (
                f"Campaign '{self.result.name}' — {len(self.result)} cells "
                f"({self.result.executed_count} executed, "
                f"{self.result.cached_count} cached) "
                f"in {self.result.wall_seconds:.1f}s with "
                f"{self.result.n_workers} worker(s)"
            )
        return format_table(headers, rows, title=title)

    # ------------------------------------------------------------------
    def to_dict(self, by: Sequence[str] = ("method", "scheme", "num_processes")) -> Dict:
        """Deterministic JSON-safe summary (used for byte-identity checks).

        Deliberately excludes wall-clock timing and worker counts so that the
        serial and parallel paths serialize identically.
        """
        aggregated = self.aggregate(by)
        return {
            "name": self.result.name,
            "cells": [
                {"spec": o.spec.to_dict(), "result": o.result}
                for o in self.result.outcomes
            ],
            "aggregate": [
                {"key": list(key), "metrics": row} for key, row in aggregated.items()
            ],
        }

    def to_json(self, by: Sequence[str] = ("method", "scheme", "num_processes")) -> str:
        """Canonical JSON of :meth:`to_dict` (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(by), sort_keys=True, separators=(",", ":"))
