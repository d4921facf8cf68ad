"""Experiment harness: one module per table/figure of the paper's evaluation.

Every experiment follows the same pattern since the campaign refactor: a
``*_cells`` function expresses the figure as a list of independent campaign
cells (see :mod:`repro.campaign`), the ``run_*`` function executes them
through :func:`repro.campaign.executor.run_campaign` (accepting ``n_workers``
and ``cache`` so figures parallelise and memoise on disk) and post-processes
the cell results into a plain dataclass, and a ``*_table`` helper renders the
text table printed by the ``examples``/benchmark harness.  The mapping from
paper artefact to module is README.md's "Paper figure map".  The figure
modules load on first use of one of their names.
"""

from importlib import import_module

from repro.experiments.config import (
    ExperimentConfig,
    SMALL_CONFIG,
    DEFAULT_CONFIG,
    campaign_fields,
    method_solver,
    method_problem,
)

#: Each figure's module, by the prefix of its ``run_*``/``*_table``/``*_cells``
#: names.  A module loads on first use of one of its names (PEP 562), so a
#: campaign cell imports only the figure code its own kind runs.
_FIGURES = {
    "fig1": "fig1_overhead_surface",
    "fig2": "fig2_cg_extra_iterations",
    "fig3": "fig3_kkt_scaling",
    "table3": "table3_checkpoint_sizes",
    "fig456": "fig456_ckpt_recovery_time",
    "fig7": "fig7_expected_overhead",
    "fig8": "fig8_convergence_iterations",
    "fig9": "fig9_jacobi_trajectories",
    "fig10": "fig10_experimental_vs_expected",
}

#: Every public figure name, by the module it lives in.
_LAZY = {
    name: module
    for figure, module in _FIGURES.items()
    for name in (f"run_{figure}", f"{figure}_table", f"{figure}_cells")
}

__all__ = [
    "ExperimentConfig",
    "SMALL_CONFIG",
    "DEFAULT_CONFIG",
    "campaign_fields",
    "method_solver",
    "method_problem",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
