"""Experiment harness: one module per table/figure of the paper's evaluation.

Every experiment follows the same pattern since the campaign refactor: a
``*_cells`` function expresses the figure as a list of independent campaign
cells (see :mod:`repro.campaign`), the ``run_*`` function executes them
through :func:`repro.campaign.executor.run_campaign` (accepting ``n_workers``
and ``cache`` so figures parallelise and memoise on disk) and post-processes
the cell results into a plain dataclass, and a ``*_table`` helper renders the
text table printed by the ``examples``/benchmark harness.  The mapping from
paper artefact to module is README.md's "Paper figure map".
"""

from repro.experiments.config import (
    ExperimentConfig,
    SMALL_CONFIG,
    DEFAULT_CONFIG,
    campaign_fields,
    method_solver,
    method_problem,
)
from repro.experiments.fig1_overhead_surface import run_fig1, fig1_table, fig1_cells
from repro.experiments.fig2_cg_extra_iterations import run_fig2, fig2_table, fig2_cells
from repro.experiments.fig3_kkt_scaling import run_fig3, fig3_table, fig3_cells
from repro.experiments.table3_checkpoint_sizes import run_table3, table3_table, table3_cells
from repro.experiments.fig456_ckpt_recovery_time import run_fig456, fig456_table, fig456_cells
from repro.experiments.fig7_expected_overhead import run_fig7, fig7_table, fig7_cells
from repro.experiments.fig8_convergence_iterations import run_fig8, fig8_table, fig8_cells
from repro.experiments.fig9_jacobi_trajectories import run_fig9, fig9_table, fig9_cells
from repro.experiments.fig10_experimental_vs_expected import run_fig10, fig10_table, fig10_cells

__all__ = [
    "ExperimentConfig",
    "SMALL_CONFIG",
    "DEFAULT_CONFIG",
    "campaign_fields",
    "method_solver",
    "method_problem",
    "run_fig1",
    "fig1_table",
    "fig1_cells",
    "run_fig2",
    "fig2_table",
    "fig2_cells",
    "run_fig3",
    "fig3_table",
    "fig3_cells",
    "run_table3",
    "table3_table",
    "table3_cells",
    "run_fig456",
    "fig456_table",
    "fig456_cells",
    "run_fig7",
    "fig7_table",
    "fig7_cells",
    "run_fig8",
    "fig8_table",
    "fig8_cells",
    "run_fig9",
    "fig9_table",
    "fig9_cells",
    "run_fig10",
    "fig10_table",
    "fig10_cells",
]
