"""Aggregation of campaign outcomes into tables and JSON summaries.

:class:`CampaignReport` groups cells along any subset of spec axes and
reduces the numeric fields of their results (means over repetitions is the
common case).  The report is built purely from the ordered
:class:`~repro.campaign.executor.CampaignResult`, so serial, parallel and
cache-served executions of the same spec render byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.campaign.executor import CampaignResult
from repro.campaign.fragment import CELL_INDENT, _dumps_indented
from repro.utils.tables import format_table

__all__ = ["CampaignReport"]

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
    """Flatten one cell result (its scalars suffice) into {metric: value}."""
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
                _cell_metrics(outcome.spec, outcome.fragment.scalars)
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
    def to_dict(
        self, by: Sequence[str] = ("method", "scheme", "num_processes"), *, cells: bool = True
    ) -> Dict:
        """Deterministic JSON-safe summary (used for byte-identity checks).

        Deliberately excludes wall-clock timing and worker counts so that the
        serial and parallel paths serialize identically.  ``cells=False``
        leaves out the per-cell list, which :meth:`to_json` splices in from
        the cells' fragments instead of decoding them.
        """
        aggregated = self.aggregate(by)
        summary: Dict = {
            "name": self.result.name,
            "aggregate": [
                {"key": list(key), "metrics": row} for key, row in aggregated.items()
            ],
        }
        if cells:
            summary["cells"] = [
                {"spec": o.spec.to_dict(), "result": o.result}
                for o in self.result.outcomes
            ]
        return summary

    # ------------------------------------------------------------------
    def to_json(self, by: Sequence[str] = ("method", "scheme", "num_processes")) -> str:
        """``json.dumps(self.to_dict(by), indent=2, sort_keys=True)``, by splicing.

        Each cell's fragment already is its text at its place in ``cells``,
        so only the summary members are encoded here.  The keys are written
        in sorted order: ``aggregate``, ``cells``, ``name``.
        """
        summary = self.to_dict(by, cells=False)
        pieces = ['{\n  "aggregate": ', _dumps_indented(summary["aggregate"], "\n  ")]
        if self.result.outcomes:
            pieces.append(',\n  "cells": [')
            for outcome in self.result.outcomes:
                pieces += (CELL_INDENT, outcome.fragment.text, ",")
            pieces[-1] = "\n  ]"
        else:
            pieces.append(',\n  "cells": []')
        pieces += (',\n  "name": ', _dumps_indented(summary["name"], "\n  "), "\n}")
        return "".join(pieces)
