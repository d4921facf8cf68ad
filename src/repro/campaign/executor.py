"""Fan a campaign's cells out over worker processes (or run them serially).

The executor guarantees a crucial invariant: *results are a function of the
spec, never of the execution strategy*.  Cells are fully self-seeded, the
worker function is deterministic, and outcomes are collected by cell index —
so ``n_workers=4`` and ``n_workers=1`` produce byte-identical campaign
results, and a cached re-run is indistinguishable from a fresh one.

A run whose every cell is cached imports no numerics and no process-pool
machinery: the execution stack (:func:`~repro.campaign.execute.load_stack`)
is imported once, in the parent, only when some cell must run — before the
serial loop or before the pool forks, so workers inherit it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import ResultCache
from repro.campaign.execute import _scheme_key, configure_memo_store, execute_cell, load_stack
from repro.campaign.fragment import CellFragment
from repro.campaign.spec import CampaignSpec, RunSpec

__all__ = ["CellOutcome", "CampaignResult", "ParallelExecutor", "run_campaign"]

#: ``progress(done, total, outcome)`` callback signature.
ProgressFn = Callable[[int, int, "CellOutcome"], None]


@dataclass
class CellOutcome:
    """One executed (or cache-served) campaign cell.

    The cell's result lives in its :class:`~repro.campaign.fragment.
    CellFragment`; :attr:`result` decodes it on first use.
    """

    index: int
    spec: RunSpec
    fragment: CellFragment
    cached: bool
    seconds: float = 0.0

    @property
    def result(self) -> Dict[str, object]:
        """The cell's result dictionary."""
        return self.fragment.result


@dataclass
class CampaignResult:
    """Ordered outcomes of one campaign execution."""

    name: str
    outcomes: List[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    n_workers: int = 1

    @property
    def executed_count(self) -> int:
        """Cells that actually ran (cache misses)."""
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached_count(self) -> int:
        """Cells served from the result cache."""
        return sum(1 for o in self.outcomes if o.cached)

    def results(self) -> List[Dict[str, object]]:
        """The per-cell result dictionaries, in cell order."""
        return [o.result for o in self.outcomes]

    def cells(self) -> List[RunSpec]:
        """The cell specs, in cell order."""
        return [o.spec for o in self.outcomes]

    def __len__(self) -> int:
        return len(self.outcomes)


def _default_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))


class ParallelExecutor:
    """Execute campaign cells, optionally in parallel and through a cache.

    Parameters
    ----------
    n_workers:
        Worker processes; ``1`` runs everything serially in-process (the
        deterministic fallback — no pool, no pickling).  ``None`` picks a
        sensible default from the core count.
    cache:
        A :class:`~repro.campaign.cache.ResultCache` (or a directory path to
        create one in); ``None`` disables caching.
    progress:
        Optional ``progress(done, total, outcome)`` callback, invoked in the
        parent process as each cell completes.
    """

    def __init__(
        self,
        n_workers: Optional[int] = 1,
        *,
        cache: "ResultCache | str | os.PathLike | None" = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.n_workers = _default_workers() if n_workers is None else max(1, int(n_workers))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress

    # ------------------------------------------------------------------
    def run(
        self, campaign: Union[CampaignSpec, Sequence[RunSpec]]
    ) -> CampaignResult:
        """Execute every cell of ``campaign`` and return the ordered outcomes."""
        if isinstance(campaign, CampaignSpec):
            name = campaign.name
            cells = campaign.expand()
        else:
            name = "cells"
            cells = list(campaign)

        # Shared sub-results (baselines, characterizations) persist next to
        # the cell results; without a result cache there is no durable
        # directory to anchor them, so the memo stays in-process only.
        memo_dir = (
            str(self.cache.directory / "memos") if self.cache is not None else None
        )
        configure_memo_store(memo_dir)

        start = time.perf_counter()
        total = len(cells)
        outcomes: List[Optional[CellOutcome]] = [None] * total
        pending: List[int] = []
        done = 0

        for index, cell in enumerate(cells):
            hit = self.cache.get(cell) if self.cache is not None else None
            if hit is not None:
                outcome = CellOutcome(index=index, spec=cell, fragment=hit, cached=True)
                outcomes[index] = outcome
                done += 1
                if self.progress:
                    self.progress(done, total, outcome)
            else:
                pending.append(index)

        if pending:
            load_stack()
            if self.n_workers == 1:
                for index in pending:
                    outcome = self._execute_one(index, cells[index])
                    outcomes[index] = outcome
                    done += 1
                    if self.progress:
                        self.progress(done, total, outcome)
            else:
                done = self._execute_parallel(
                    cells, pending, outcomes, done, total, memo_dir
                )

        return CampaignResult(
            name=name,
            outcomes=[o for o in outcomes if o is not None],
            wall_seconds=time.perf_counter() - start,
            n_workers=self.n_workers,
        )

    # ------------------------------------------------------------------
    def _execute_one(self, index: int, cell: RunSpec) -> CellOutcome:
        fragment, seconds = _execute_cell(cell)
        if self.cache is not None:
            self.cache.put(cell, fragment)
        return CellOutcome(
            index=index, spec=cell, fragment=fragment, cached=False, seconds=seconds
        )

    def _execute_parallel(
        self,
        cells: List[RunSpec],
        pending: List[int],
        outcomes: List[Optional[CellOutcome]],
        done: int,
        total: int,
        memo_dir: Optional[str] = None,
    ) -> int:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        submitted = {}
        first_error: Optional[BaseException] = None
        with ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(memo_dir,),
        ) as pool:
            for chunk in self._chunk_pending(cells, pending):
                future = pool.submit(_execute_chunk, [cells[i] for i in chunk])
                submitted[future] = chunk
            remaining = set(submitted)
            while remaining:
                completed, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in completed:
                    chunk = submitted[future]
                    try:
                        chunk_results = future.result()
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        # Keep draining so every other chunk's results still
                        # land in the cache; only this chunk's cells are lost.
                        if first_error is None:
                            first_error = exc
                        continue
                    for index, (fragment, seconds) in zip(chunk, chunk_results):
                        if self.cache is not None:
                            self.cache.put(cells[index], fragment)
                        outcome = CellOutcome(
                            index=index,
                            spec=cells[index],
                            fragment=fragment,
                            cached=False,
                            seconds=seconds,
                        )
                        outcomes[index] = outcome
                        done += 1
                        if self.progress:
                            self.progress(done, total, outcome)
        if first_error is not None:
            raise first_error
        return done

    def _chunk_pending(
        self, cells: List[RunSpec], pending: List[int]
    ) -> List[List[int]]:
        """Batch pending cells into worker tasks that amortise shared setup.

        Cells sharing a (problem, scheme) configuration reuse the same
        expensive sub-results — the failure-free baseline and the scheme's
        compression characterization — which are memoized *per worker
        process*.  Shipping such cells one at a time makes every worker redo
        that setup, so same-configuration cells are grouped and each group
        split into at most ``n_workers`` contiguous chunks: enough tasks to
        keep every worker busy, few enough that the setup is paid O(n_workers)
        times instead of O(cells).  Chunks are interleaved round-robin across
        groups so the first tasks the pool hands out carry *distinct*
        configurations — the shared setups themselves then run in parallel.
        """
        groups: Dict[tuple, List[int]] = {}
        for index in pending:
            groups.setdefault(_scheme_key(cells[index]), []).append(index)
        per_group: List[List[List[int]]] = []
        for group in groups.values():
            n_chunks = min(self.n_workers, len(group))
            size = -(-len(group) // n_chunks)  # ceil division
            per_group.append(
                [group[i : i + size] for i in range(0, len(group), size)]
            )
        chunks: List[List[int]] = []
        for round_index in range(max(len(g) for g in per_group)):
            for group_chunks in per_group:
                if round_index < len(group_chunks):
                    chunks.append(group_chunks[round_index])
        return chunks


def _init_worker(memo_dir: Optional[str] = None) -> None:
    """Campaign worker-process init: attach the shared sub-result memo.

    ``memo_dir`` points the worker at the campaign's on-disk memo, so
    baselines and characterizations computed by any process are reused by
    all.
    """
    configure_memo_store(memo_dir)


def _execute_cell(cell: RunSpec) -> Tuple[CellFragment, float]:
    """Run ``cell``; its fragment, and the seconds :func:`execute_cell` took.

    The result is encoded here, where the cell runs, and the dictionary is
    dropped: the fragment's text is what the cache and the report store.
    """
    start = time.perf_counter()
    result = execute_cell(cell)
    seconds = time.perf_counter() - start
    return CellFragment.render(cell, result), seconds


def _execute_chunk(chunk: List[RunSpec]) -> List[Tuple[CellFragment, float]]:
    """Worker-side execution of a batch of cells (module-level for pickling)."""
    return [_execute_cell(cell) for cell in chunk]


def run_campaign(
    campaign: Union[CampaignSpec, Sequence[RunSpec]],
    *,
    n_workers: Optional[int] = 1,
    cache: "ResultCache | str | os.PathLike | None" = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignResult:
    """Convenience wrapper: build a :class:`ParallelExecutor` and run once."""
    executor = ParallelExecutor(n_workers, cache=cache, progress=progress)
    return executor.run(campaign)
