"""Benchmark-side span tracing around the program's public entry points.

Nothing in ``src/`` knows about this file.  :func:`install` wraps a fixed
table of public callables at run time — methods are patched on the class
(and on every subclass that overrides them), module-level functions are
rebound in every loaded ``repro.*`` module that holds the original object —
and every wrapped call records one span ``[name, start, end, parent, tag, a,
b]`` in memory.  A layer's *self* time is its span's duration minus the part
its child spans cover, so the self times of all spans sum to the traced wall.

:func:`aggregate` reduces a span list to JSON-safe sums (what the traced
child processes print) and :func:`derive` turns merged aggregates into the
``<layer>.<metric>`` numbers declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

#: Span record indices.
NAME, START, END, PARENT, TAG, A, B = range(7)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = _clock()
        return span

    def end(self, span: list) -> None:
        span[END] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager for spans the child scripts open themselves."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def drain(self) -> List[list]:
        """Hand over the finished spans and start an empty list."""
        if self._stack:
            raise RuntimeError("cannot drain a tracer with open spans")
        spans, self.spans = self.spans, []
        return spans


# -- what each wrapped call notes on its span ---------------------------------
# ``note(span, args, kwargs, result)`` runs after a successful call; ``args[0]``
# is ``self`` for methods.  ``a``/``b`` are the span's two counters.

def _note_compress(span, args, kwargs, result) -> None:
    blob = result[0] if isinstance(result, tuple) else result
    span[TAG] = args[0].name
    span[A] = int(getattr(args[1], "nbytes", 0))
    span[B] = int(blob.nbytes)


def _note_decompress(span, args, kwargs, result) -> None:
    span[TAG] = args[0].name
    span[A] = int(result.nbytes)
    span[B] = int(args[1].nbytes)


def _note_snapshot(span, args, kwargs, result) -> None:
    span[A] = int(result.uncompressed_bytes)
    span[B] = int(result.serialized_bytes)


def _note_store_write(span, args, kwargs, result) -> None:
    span[TAG] = type(args[0]).__name__
    span[A] = int(getattr(result, "nbytes", 0))
    # Only the chunked store reports how many of those bytes were new.
    span[B] = int(getattr(result, "unique_bytes", None) or 0)


def _note_store_read(span, args, kwargs, result) -> None:
    span[TAG] = type(args[0]).__name__
    span[A] = len(result)


def _note_cache_get(span, args, kwargs, result) -> None:
    span[A] = 0 if result is None else 1


def _note_engine_run(span, args, kwargs, result) -> None:
    engine = args[0]
    span[TAG] = {
        "events": int(engine.events_processed),
        "failures": int(result.num_failures),
        "checkpoints": int(result.num_checkpoints),
        "replay_hits": int(engine.replay_hits),
        "replay_iterations_saved": int(engine.replay_iterations_saved),
    }


#: ``(span name, module, attribute path, note)``.  Modules are the package
#: ``__init__`` that exports the name where one does, else the defining
#: module.  A target that no longer resolves is reported, not fatal.
TARGETS = (
    ("sparse.build", "repro.sparse", "poisson_system", None),
    ("engine.baseline", "repro.engine", "run_failure_free", None),
    ("engine.run", "repro.engine", "FaultToleranceEngine.run", _note_engine_run),
    ("experiments.characterize", "repro.experiments.characterize", "measure_scheme_ratio", None),
    ("checkpoint.snapshot", "repro.checkpoint", "CheckpointPipeline.snapshot", _note_snapshot),
    ("checkpoint.commit", "repro.checkpoint", "CheckpointPipeline.commit", None),
    ("checkpoint.restore", "repro.checkpoint", "CheckpointPipeline.restore", None),
    ("checkpoint.serialize", "repro.checkpoint", "serialize_checkpoint", None),
    ("checkpoint.deserialize", "repro.checkpoint", "deserialize_checkpoint", None),
    ("checkpoint.delta", "repro.checkpoint", "delta_encode", None),
    ("checkpoint.delta", "repro.checkpoint", "delta_decode", None),
    ("checkpoint.store_write", "repro.checkpoint", "CheckpointStore.write", _note_store_write),
    ("checkpoint.store_read", "repro.checkpoint", "CheckpointStore.read", _note_store_read),
    ("compression.compress", "repro.compression", "Compressor.compress", _note_compress),
    ("compression.compress", "repro.compression", "Compressor.compress_with_record",
     _note_compress),
    ("compression.compress", "repro.compression", "Compressor.compress_with_reconstruction",
     _note_compress),
    ("compression.decompress", "repro.compression", "Compressor.decompress", _note_decompress),
    ("compression.sharded", "repro.compression.sharded", "compress_sections", None),
    ("compression.sharded", "repro.compression.sharded", "decompress_sections", None),
    ("compression.codec", "repro.compression", "encode_frame", None),
    ("compression.codec", "repro.compression", "decode_frame", None),
    ("compression.codec", "repro.compression", "encode_signed", None),
    ("compression.codec", "repro.compression", "decode_signed", None),
    ("campaign.run", "repro.campaign", "run_campaign", None),
    ("campaign.expand", "repro.campaign", "CampaignSpec.expand", None),
    ("campaign.cache_get", "repro.campaign", "ResultCache.get", _note_cache_get),
    ("campaign.cache_put", "repro.campaign", "ResultCache.put", None),
    ("campaign.cell", "repro.campaign", "execute_cell", None),
    ("campaign.report", "repro.campaign", "CampaignReport.to_dict", None),
)

def _traced(tracer: Tracer, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            # Injected failures leave solves and callbacks by exception.
            tracer.end(span)
        if note is not None:
            note(span, args, kwargs, result)
        return result

    return wrapper


def _all_subclasses(cls) -> list:
    found, queue = [], [cls]
    while queue:
        for sub in queue.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                queue.append(sub)
    return found


def _patch_method(tracer, name, cls, attr, note, wrap=_traced, subclasses=True) -> bool:
    patched = False
    for owner in [cls, *(_all_subclasses(cls) if subclasses else ())]:
        fn = owner.__dict__.get(attr)
        if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
            setattr(owner, attr, wrap(tracer, name, fn, note))
            patched = True
    return patched


def _patch_function(tracer, name, module, attr, note) -> bool:
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapped = _traced(tracer, name, original, note)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return True


def _traced_solve(tracer: Tracer, name: str, fn: Callable, note) -> Callable:
    """``IterativeSolver.solve`` with the callback billed to the engine.

    Each callback invocation is one emitted iteration; a solve without a
    callback reports its iteration count from the result instead.
    """

    @functools.wraps(fn)
    def wrapper(self, b, **kwargs):
        span = tracer.begin(name)
        callback = kwargs.get("callback")
        if callback is not None:
            def traced_callback(state):
                span[A] += 1
                inner = tracer.begin("engine.callback")
                try:
                    callback(state)
                finally:
                    tracer.end(inner)

            kwargs["callback"] = traced_callback
        try:
            result = fn(self, b, **kwargs)
        finally:
            tracer.end(span)
        if callback is None:
            span[A] = int(result.iterations)
        return result

    return wrapper


def _traced_solver_init(tracer: Tracer, name: str, fn: Callable, note) -> Callable:
    """Wrap the ``matvec`` each solver instance binds in ``__init__``."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        matvec = self.matvec
        begin, end = tracer.begin, tracer.end

        def traced_matvec(x):
            span = begin(name)
            try:
                return matvec(x)
            finally:
                end(span)

        self.matvec = traced_matvec

    return wrapper


def install(tracer: Tracer) -> List[str]:
    """Wrap every target; return the ``module:attribute`` names that failed.

    A module imported later sees the wrapped attributes of the modules it
    imports from, so only aliases that exist now need rebinding.
    """
    unresolved: List[str] = []

    def resolve(mod_name, path):
        obj = importlib.import_module(mod_name)
        for part in path.split(".")[:-1]:
            obj = getattr(obj, part)
        return obj

    for name, mod_name, path, note in TARGETS:
        try:
            owner = resolve(mod_name, path)
            attr = path.split(".")[-1]
            if "." in path:
                ok = _patch_method(tracer, name, owner, attr, note)
            else:
                ok = _patch_function(tracer, name, owner, attr, note)
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            unresolved.append(f"{mod_name}:{path}")
    try:
        solver = resolve("repro.solvers", "IterativeSolver.solve")
        # Base class only: subclasses reach both through ``super()``, and a
        # second wrapper would trace every callback twice.
        ok = _patch_method(
            tracer, "solvers.solve", solver, "solve", None, _traced_solve, subclasses=False
        )
        ok = _patch_method(
            tracer, "solvers.matvec", solver, "__init__", None, _traced_solver_init,
            subclasses=False,
        ) and ok
    except (ImportError, AttributeError):
        ok = False
    if not ok:
        unresolved.append("repro.solvers:IterativeSolver.solve/.matvec")
    return unresolved


# -- reduction ----------------------------------------------------------------
def aggregate(spans: List[list], wall_s: float) -> Dict[str, object]:
    """Reduce spans to sums that can be added across processes.

    Per span name: call count, self seconds, inclusive seconds and the two
    counters.  Counts, inclusive time and counters skip a span nested directly
    in one of the same name (``compress`` calling ``compress_with_record``),
    so each logical call counts once; the per-tag rows keep a nested span
    whose tag differs (a chunked store inside a multilevel one).
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    layers: Dict[str, list] = {}
    tagged: Dict[str, Dict[str, list]] = {}
    durations: Dict[str, List[float]] = {"checkpoint.snapshot": [], "campaign.cell": []}
    engine = {}
    for index, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        row = layers.setdefault(name, [0, 0.0, 0.0, 0, 0])
        row[1] += duration - child_s[index]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        nested = parent is not None and parent[NAME] == name
        tag = span[TAG]
        if isinstance(tag, str) and not (nested and parent[TAG] == tag):
            tag_row = tagged.setdefault(name, {}).setdefault(tag, [0, 0.0, 0, 0])
            tag_row[0] += 1
            tag_row[1] += duration
            tag_row[2] += span[A]
            tag_row[3] += span[B]
        if nested:
            continue
        row[0] += 1
        row[2] += duration
        row[3] += span[A]
        row[4] += span[B]
        if name in durations:
            durations[name].append(duration)
        if isinstance(tag, dict):
            for key, value in tag.items():
                engine[key] = engine.get(key, 0) + value
    return {
        "wall_s": wall_s,
        "layers": layers,
        "tagged": tagged,
        "durations": durations,
        "engine": engine,
    }


def merge(*aggregates: Dict[str, object]) -> Dict[str, object]:
    """Add aggregates of several traced processes into one."""
    total = {"wall_s": 0.0, "layers": {}, "tagged": {}, "durations": {}, "engine": {}}
    for agg in aggregates:
        total["wall_s"] += agg["wall_s"]
        for name, row in agg["layers"].items():
            into = total["layers"].setdefault(name, [0] * len(row))
            into[:] = [x + y for x, y in zip(into, row)]
        for name, tags in agg["tagged"].items():
            for tag, row in tags.items():
                into = total["tagged"].setdefault(name, {}).setdefault(tag, [0] * len(row))
                into[:] = [x + y for x, y in zip(into, row)]
        for name, values in agg["durations"].items():
            total["durations"].setdefault(name, []).extend(values)
        for key, value in agg["engine"].items():
            total["engine"][key] = total["engine"].get(key, 0) + value
    return total


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100)
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_MIB = float(1 << 20)


def derive(agg: Dict[str, object]) -> Dict[str, float]:
    """The generic ``<layer>.<metric>`` numbers of one (merged) aggregate."""
    layers = agg["layers"]

    def column(index):
        return lambda name: layers[name][index] if name in layers else 0

    count, self_s, incl_s, a, b = (column(index) for index in range(5))

    engine = agg["engine"]
    iterations = a("solvers.solve")
    saved = engine.get("replay_iterations_saved", 0)
    snapshot_ms = [1e3 * d for d in agg["durations"].get("checkpoint.snapshot", [])]
    cell_ms = [1e3 * d for d in agg["durations"].get("campaign.cell", [])]
    chunked = agg["tagged"].get("checkpoint.store_write", {}).get("ChunkedStore")
    return {
        "runtime.import_s": self_s("runtime.import"),
        "sparse.build_s": self_s("sparse.build"),
        "solvers.solve_self_s": self_s("solvers.solve"),
        "solvers.matvec_s": self_s("solvers.matvec"),
        "solvers.iter_us": 1e6
        * _ratio(self_s("solvers.solve") + self_s("solvers.matvec"), iterations),
        "solvers.iterations": iterations,
        "solvers.matvecs": count("solvers.matvec"),
        "engine.baseline_s": incl_s("engine.baseline"),
        "experiments.characterize_s": incl_s("experiments.characterize"),
        "experiments.characterize_calls": count("experiments.characterize"),
        "engine.run_self_s": self_s("engine.run"),
        "engine.callback_self_s": self_s("engine.callback"),
        "engine.events": engine.get("events", 0),
        "engine.events_per_s": _ratio(
            engine.get("events", 0), self_s("engine.run") + self_s("engine.callback")
        ),
        "engine.failures": engine.get("failures", 0),
        "engine.checkpoints": engine.get("checkpoints", 0),
        "engine.replay_hits": engine.get("replay_hits", 0),
        "engine.replay_iterations_saved": saved,
        "engine.replay_saved_frac": _ratio(saved, saved + iterations),
        "compression.compress_s": self_s("compression.compress"),
        "compression.decompress_s": self_s("compression.decompress"),
        "compression.sharded_s": incl_s("compression.sharded"),
        "compression.codec_s": incl_s("compression.codec"),
        "compression.compress_calls": count("compression.compress"),
        "compression.bytes_in": a("compression.compress"),
        "compression.bytes_out": b("compression.compress"),
        "checkpoint.snapshot_self_s": self_s("checkpoint.snapshot"),
        "checkpoint.serialize_s": self_s("checkpoint.serialize"),
        "checkpoint.delta_s": self_s("checkpoint.delta"),
        "checkpoint.snapshots": count("checkpoint.snapshot"),
        "checkpoint.payload_bytes": b("checkpoint.snapshot"),
        "checkpoint.state_bytes": a("checkpoint.snapshot"),
        "checkpoint.snapshot_p50_ms": percentile(snapshot_ms, 50),
        "checkpoint.snapshot_p90_ms": percentile(snapshot_ms, 90),
        "checkpoint.restore_self_s": self_s("checkpoint.restore"),
        "checkpoint.deserialize_s": self_s("checkpoint.deserialize"),
        "checkpoint.restores": count("checkpoint.restore"),
        "checkpoint.store_write_s": self_s("checkpoint.store_write")
        + self_s("checkpoint.commit"),
        "checkpoint.store_read_s": self_s("checkpoint.store_read"),
        "checkpoint.store_writes": count("checkpoint.store_write"),
        "checkpoint.chunked.dedup_ratio": _ratio(chunked[2], chunked[3]) if chunked else 0.0,
        "campaign.expand_s": self_s("campaign.expand"),
        "campaign.cache_get_s": self_s("campaign.cache_get"),
        "campaign.cache_hits": a("campaign.cache_get"),
        "campaign.cache_put_s": self_s("campaign.cache_put"),
        "campaign.report_s": self_s("campaign.report"),
        "campaign.self_s": self_s("campaign.run"),
        "campaign.cells": count("campaign.cell"),
        "campaign.cell_p50_ms": percentile(cell_ms, 50),
        "campaign.cell_p90_ms": percentile(cell_ms, 90),
        "trace.coverage_frac": _ratio(sum(row[1] for row in layers.values()), agg["wall_s"]),
    }


def codec_rates(agg: Dict[str, object]) -> Dict[str, float]:
    """Per-compressor MiB/s of uncompressed data from the tagged spans."""
    rates = {}
    for codec in ("zlib", "sz", "zfp"):
        for op in ("compress", "decompress"):
            row = agg["tagged"].get(f"compression.{op}", {}).get(codec)
            rates[f"compression.{codec}.{op}_mib_s"] = (
                _ratio(row[2] / _MIB, row[1]) if row else 0.0
            )
    return rates
