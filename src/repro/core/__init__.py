"""The paper's contribution: lossy checkpointing for iterative methods.

This package layers the primary contribution on top of the substrates:

* :mod:`repro.core.model` — the checkpoint/restart performance model
  (Young's interval, expected overheads, Theorem 1);
* :mod:`repro.core.stationary_theory` — Theorem 2's extra-iteration bound for
  stationary methods;
* :mod:`repro.core.gmres_theory` — Theorem 3's adaptive error-bound policy for
  GMRES;
* :mod:`repro.core.schemes` — the traditional / lossless / lossy checkpointing
  schemes;
* :mod:`repro.core.extra_iterations` — the empirical N' measurement (Fig. 2).

The failure-injected execution engine lives in :mod:`repro.engine`; its
report types are re-exported here.
"""

from repro.core.model import (
    young_interval,
    overhead_function,
    expected_overhead_fraction,
    expected_total_time,
    lossy_expected_overhead_fraction,
    lossy_expected_total_time,
    max_acceptable_extra_iterations,
    CheckpointTimings,
)
from repro.core.stationary_theory import (
    extra_iterations_at,
    expected_extra_iterations_interval,
    expected_extra_iterations,
    StationaryImpactModel,
)
from repro.core.gmres_theory import (
    adaptive_relative_bound,
    residual_jump_bound,
    GMRESErrorBoundPolicy,
)
from repro.core.schemes import CheckpointingScheme
from repro.core.scale import ExperimentScale, PAPER_WEAK_SCALING, paper_scale
from repro.engine.report import BaselineRun, FTRunReport, run_failure_free
from repro.core.extra_iterations import (
    ExtraIterationStudy,
    ExtraIterationTrial,
    measure_extra_iterations,
)

__all__ = [
    "young_interval",
    "overhead_function",
    "expected_overhead_fraction",
    "expected_total_time",
    "lossy_expected_overhead_fraction",
    "lossy_expected_total_time",
    "max_acceptable_extra_iterations",
    "CheckpointTimings",
    "extra_iterations_at",
    "expected_extra_iterations_interval",
    "expected_extra_iterations",
    "StationaryImpactModel",
    "adaptive_relative_bound",
    "residual_jump_bound",
    "GMRESErrorBoundPolicy",
    "CheckpointingScheme",
    "ExperimentScale",
    "PAPER_WEAK_SCALING",
    "paper_scale",
    "FTRunReport",
    "BaselineRun",
    "run_failure_free",
    "ExtraIterationStudy",
    "ExtraIterationTrial",
    "measure_extra_iterations",
]
