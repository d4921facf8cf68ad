"""Property-based tests for solver invariants.

Hypothesis generates random diagonally dominant / SPD systems and checks the
invariants the checkpoint/restart layer relies on: solvers converge to the
true solution, residual histories are consistent, and restarting from any
intermediate iterate still converges to the same solution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import CGSolver, GMRESSolver, JacobiSolver
from repro.sparse.matrices import diagonally_dominant, random_spd


@st.composite
def dominant_systems(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    A = diagonally_dominant(n, density=0.2, dominance=2.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x_true = rng.uniform(-1.0, 1.0, n)
    return A, x_true, A @ x_true


@st.composite
def spd_systems(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    A = random_spd(n, density=0.3, condition=100.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x_true = rng.uniform(-1.0, 1.0, n)
    return A, x_true, A @ x_true


class TestStationaryProperties:
    @given(system=dominant_systems())
    @settings(max_examples=25, deadline=None)
    def test_jacobi_converges_on_dominant_systems(self, system):
        A, x_true, b = system
        result = JacobiSolver(A, rtol=1e-9, max_iter=10000).solve(b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)


class TestKrylovProperties:
    @given(system=spd_systems())
    @settings(max_examples=25, deadline=None)
    def test_cg_converges_on_spd(self, system):
        A, x_true, b = system
        result = CGSolver(A, rtol=1e-10, max_iter=500).solve(b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-4)

    @given(system=spd_systems())
    @settings(max_examples=20, deadline=None)
    def test_gmres_converges_on_spd(self, system):
        A, x_true, b = system
        result = GMRESSolver(A, rtol=1e-10, max_iter=2000).solve(b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-4)

    @given(system=spd_systems(), fraction=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_cg_restart_from_any_iterate_converges(self, system, fraction):
        """The restarted-CG invariant behind lossy checkpointing."""
        A, x_true, b = system
        solver = CGSolver(A, rtol=1e-10, max_iter=500)
        full = solver.solve(b)
        if full.iterations < 2:
            return
        target = max(1, int(fraction * full.iterations))
        captured = {}

        def capture(state):
            if state.iteration == target:
                captured["x"] = state.x

        solver.solve(b, callback=capture)
        resumed = solver.solve(b, x0=captured["x"])
        assert resumed.converged
        assert np.allclose(resumed.x, x_true, atol=1e-4)

    @given(system=spd_systems())
    @settings(max_examples=20, deadline=None)
    def test_residual_history_matches_final_norm(self, system):
        A, _, b = system
        result = CGSolver(A, rtol=1e-8, max_iter=500).solve(b)
        true_res = np.linalg.norm(b - A @ result.x)
        assert abs(result.final_residual_norm - true_res) <= 1e-6 * max(1.0, true_res) + 1e-9
