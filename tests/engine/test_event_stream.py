"""Event-stream pins for the discrete-event engine.

The golden reports pin what a run *concludes*; this suite pins how it gets
there.  For each case it records the run's ``events_processed`` count and
its full :class:`~repro.engine.events.EventLog` as ``(seq, type, time)``
triples, so any change to the order, timing or sequence numbering of the
timeline shows up even when the final report happens not to move.  The
cases cover the paths a report pin exercises least:

* blocking FTI recovery whose survival draws fall back to older
  checkpoints (exact scheme: inline recovery; lossy scheme: solver
  restart);
* traditional async writes with one staging slot, so captures defer
  behind in-flight drains;
* traditional async writes under bursty failures, which discard dirty
  drains.

Regenerate (only when a behavior change is intentional) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/engine/test_event_stream.py -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.machine import BEBOP_LIKE, ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.solvers import JacobiSolver

GOLDEN_PATH = Path(__file__).parent / "golden" / "event_streams.json"
_REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

# name -> (scheme factory, scenario, staging slots).  Every case runs the
# golden-report configuration: Jacobi on the 8^3 Poisson problem, 2048
# processes, MTTI 300 s, interval 120 s, seed 2018.
_CASES = {
    "fti-lossless-blocking": (
        lambda: CheckpointingScheme.lossless(),
        Scenario(recovery_levels="fti"),
        2,
    ),
    "fti-lossy-bursty-blocking": (
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(failure_model="bursty", recovery_levels="fti"),
        2,
    ),
    "traditional-async-one-slot": (
        lambda: CheckpointingScheme.traditional(),
        Scenario(write_mode="async"),
        1,
    ),
    "traditional-async-bursty": (
        lambda: CheckpointingScheme.traditional(),
        Scenario(failure_model="bursty", write_mode="async"),
        2,
    ),
}


@pytest.fixture(scope="module")
def stream_setup(poisson_small):
    solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
    return poisson_small, solver, run_failure_free(solver, poisson_small.b)


def _stream(stream_setup, name):
    problem, solver, baseline = stream_setup
    scheme_factory, scenario, slots = _CASES[name]
    cluster = ClusterModel(
        num_processes=2048, spec=replace(BEBOP_LIKE, async_staging_slots=slots)
    )
    engine = FaultToleranceEngine(
        solver,
        problem.b,
        scheme_factory(),
        cluster=cluster,
        scale=paper_scale(2048),
        mtti_seconds=300.0,
        checkpoint_interval_seconds=120.0,
        iteration_seconds=cluster.calibrated_iteration_time(
            "jacobi", baseline.iterations
        ),
        baseline=baseline,
        seed=2018,
        scenario=scenario,
        record_events=True,
    )
    engine.run()
    return {
        "events_processed": engine.events_processed,
        "events": [
            [event.seq, type(event).__name__, event.time] for event in engine.events
        ],
    }


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.skip(f"golden fixture missing: {GOLDEN_PATH}")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.skipif(_REGEN, reason="regenerating fixture")
@pytest.mark.parametrize("name", sorted(_CASES))
def test_event_stream_matches_golden(stream_setup, golden, name):
    assert name in golden, f"{name} missing from fixture — regenerate"
    actual = json.loads(json.dumps(_stream(stream_setup, name)))
    expected = golden[name]
    assert actual["events_processed"] == expected["events_processed"]
    assert actual["events"] == expected["events"]


@pytest.mark.skipif(not _REGEN, reason="set REPRO_REGEN_GOLDEN=1 to regenerate")
def test_regenerate_event_streams(stream_setup):
    # One event per line keeps the fixture's diffs readable.
    cases = []
    for name in sorted(_CASES):
        stream = _stream(stream_setup, name)
        events = ",\n".join(f"   {json.dumps(event)}" for event in stream["events"])
        cases.append(
            f' {json.dumps(name)}: {{\n'
            f'  "events_processed": {stream["events_processed"]},\n'
            f'  "events": [\n{events}\n  ]\n }}'
        )
    GOLDEN_PATH.write_text("{\n" + ",\n".join(cases) + "\n}\n")
