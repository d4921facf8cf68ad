"""The paper's qualitative claims for Figures 2-9 and Table 3 at ``DEFAULT_CONFIG``.

Each table or figure of the evaluation section (see README.md's "Paper figure
map") is regenerated once, and each test asserts one claim about it: who wins,
roughly by how much and where crossovers fall.  Run with ``-s`` to see the text
tables.  Figure 1
shares its call with ``test_experiments.py`` and is asserted there; the
pooled Figure 10 verdicts live in ``benchmarks/test_bench_fig10.py``.
"""

import pytest

from repro.experiments import (
    fig2_table,
    fig3_table,
    fig456_table,
    fig7_table,
    fig8_table,
    fig9_table,
    run_fig2,
    run_fig3,
    run_fig456,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table3,
    table3_table,
)


def test_fig2_cg_extra_iterations(paper_config):
    result = run_fig2(paper_config, trials=12)
    print("\n" + fig2_table(result))
    # The paper reports averages between roughly 10% and 25% of the total
    # iterations across bounds 1e-3..1e-6; at reduced problem size we accept a
    # slightly wider band but the order of magnitude must match.
    for eb in result.error_bounds:
        fraction = result.mean_extra_fraction(eb)
        assert 0.0 <= fraction <= 0.5
    mean_over_bounds = sum(result.mean_extra_fraction(eb) for eb in result.error_bounds) / len(
        result.error_bounds
    )
    assert 0.03 <= mean_over_bounds <= 0.4


def test_fig3_kkt_scaling(paper_config):
    result = run_fig3(paper_config)
    print("\n" + fig3_table(result))
    assert result.converged
    # Strong scaling: time decreases monotonically with the process count and
    # the largest run still takes on the order of an hour (paper: >1 h at 4,096).
    times = [result.modeled_seconds[p] for p in result.process_counts]
    assert all(b < a for a, b in zip(times, times[1:]))
    assert times[-1] > 3000.0
    assert times[0] > times[-1] * 2


@pytest.mark.parametrize("method", ["jacobi", "gmres", "cg"])
def test_fig456_checkpoint_recovery_times(paper_config, method):
    result = run_fig456(paper_config, method=method)
    print("\n" + fig456_table(result))
    first, last = result.process_counts[0], result.process_counts[-1]
    for procs in result.process_counts:
        # Lossy checkpointing is the cheapest at every scale, for both the
        # checkpoint write and the recovery read.
        assert result.checkpoint(procs, "lossy") < result.checkpoint(procs, "lossless")
        assert result.checkpoint(procs, "lossless") <= result.checkpoint(procs, "traditional")
        assert result.recovery(procs, "lossy") < result.recovery(procs, "traditional")
    # Times grow roughly linearly with scale (weak scaling, fixed PFS bandwidth).
    assert result.checkpoint(last, "traditional") > 4 * result.checkpoint(first, "traditional")
    # The 2,048-process traditional checkpoint is the paper's ~120 s anchor
    # (doubled for CG, which checkpoints x and p).
    anchor = result.checkpoint(last, "traditional")
    if method == "cg":
        assert 180 < anchor < 280
    else:
        assert 100 < anchor < 140


@pytest.fixture(scope="module")
def fig7(paper_config):
    result = run_fig7(paper_config)
    print("\n" + fig7_table(result))
    return result


@pytest.mark.parametrize("method", ["jacobi", "gmres"])
def test_fig7_lossy_wins_at_every_scale(fig7, method):
    # Lossy checkpointing is expected to win at every scale for Jacobi and
    # GMRES (N' ~ 0).
    for mtti in fig7.mtti_hours:
        for procs in fig7.process_counts:
            assert fig7.value(mtti, procs, method, "lossy") < fig7.value(
                mtti, procs, method, "traditional"
            )


def test_fig7_overheads_grow_with_scale(fig7):
    # Weak scaling: every MTTI's traditional Jacobi overhead grows with scale.
    largest = max(fig7.process_counts)
    smallest = min(fig7.process_counts)
    for mtti in fig7.mtti_hours:
        assert fig7.value(mtti, largest, "jacobi", "traditional") > fig7.value(
            mtti, smallest, "jacobi", "traditional"
        )


def test_fig7_cg_crossover(fig7):
    # CG's crossover: lossy wins at the largest scales for MTTI = 1 h even with
    # the 25% extra-iteration penalty (paper: crossover around 768-1536 procs).
    largest = max(fig7.process_counts)
    assert fig7.value(1.0, largest, "cg", "lossy") < fig7.value(
        1.0, largest, "cg", "traditional"
    )


def test_fig7_lower_failure_rate_lowers_overhead(fig7):
    # Lower failure rate (3 h MTTI) lowers every overhead.
    largest = max(fig7.process_counts)
    assert fig7.value(3.0, largest, "gmres", "traditional") < fig7.value(
        1.0, largest, "gmres", "traditional"
    )


@pytest.fixture(scope="module")
def fig8(paper_config):
    result = run_fig8(paper_config)
    print("\n" + fig8_table(result))
    return result


@pytest.mark.parametrize(
    "method, max_delay",
    [
        # Jacobi: lossy checkpointing introduces no convergence delay.
        ("jacobi", 0.02),
        # GMRES with the Theorem-3 adaptive bound: no delay beyond a restart
        # cycle's worth of iterations at this reduced scale.
        ("gmres", 0.5),
        # CG: restarted CG is delayed, but converges (paper: ~25% on average).
        ("cg", 0.6),
    ],
)
def test_fig8_convergence_delay(fig8, method, max_delay):
    for procs in fig8.process_counts:
        assert fig8.delay_fraction(method, procs) <= max_delay


def test_fig8_cg_pays_the_visible_delay(fig8):
    # CG is the method that pays a visible delay, as in the paper.
    assert all(fig8.delay_fraction("cg", p) >= 0.0 for p in fig8.process_counts)
    worst_cg = max(fig8.delay_fraction("cg", p) for p in fig8.process_counts)
    worst_jacobi = max(fig8.delay_fraction("jacobi", p) for p in fig8.process_counts)
    assert worst_cg >= worst_jacobi


def test_fig9_jacobi_trajectories(paper_config):
    result = run_fig9(paper_config)
    print("\n" + fig9_table(result))
    # The paper's claim: after a lossy recovery the Jacobi residual rejoins the
    # failure-free trajectory with no extra iterations.
    assert result.extra_iterations("1 lossy restart") <= 3
    assert result.extra_iterations("2 lossy restarts") <= 5
    # Residuals decrease overall along every trace.
    for label, trace in result.traces.items():
        assert trace[-1][1] < trace[0][1]


@pytest.fixture(scope="module")
def table3(paper_config):
    result = run_table3(paper_config)
    print("\n" + table3_table(result))
    return result


@pytest.mark.parametrize("method", ["jacobi", "gmres", "cg"])
def test_table3_checkpoint_sizes(table3, method):
    assert method in table3.methods
    for procs in table3.process_counts:
        trad = table3.size_mb(procs, method, "traditional")
        lossless = table3.size_mb(procs, method, "lossless")
        lossy = table3.size_mb(procs, method, "lossy")
        # Ordering and magnitude claims of Table 3.
        assert lossy < lossless <= trad * 1.01
        assert lossy < 0.5 * trad
    # Lossy compression achieves clearly higher ratios than lossless.
    assert table3.ratios[(method, "lossy")] > 2 * table3.ratios[(method, "lossless")]


def test_table3_traditional_sizes(table3):
    # Traditional checkpoints are ~38 MB/process (one vector) and CG doubles that.
    assert 30 < table3.size_mb(2048, "jacobi", "traditional") < 45
    assert 60 < table3.size_mb(2048, "cg", "traditional") < 90
