"""Jacobi and GMRES reuse the residual they already computed, bit for bit.

Jacobi's sweep consumes the residual its solve loop computes for the reported
norm, and a GMRES cycle starts from the preconditioned residual the previous
cycle's divergence check computed.  The reference solvers below keep the
formulas that recomputed both; the same expression on the same ``x`` gives
the same bits, so iterates, residual histories and every emitted state must
be equal, including for resumed and offset solves.
"""

from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precond import JacobiPreconditioner
from repro.solvers import GMRESSolver, JacobiSolver
from repro.solvers.base import Callback, SolveResult
from repro.sparse.matrices import diagonally_dominant
from repro.sparse.poisson import poisson_system


class ReferenceJacobi(JacobiSolver):
    """Jacobi with one matvec for the sweep and another for the norm."""

    def _solve(self, b, x0, *, callback: Optional[Callback], max_iter, iteration_offset):
        def residual_norm(x):
            return float(np.linalg.norm(b - self.matvec(x)))

        x = x0
        b_norm = float(np.linalg.norm(b))
        residual_norms = [residual_norm(x)]
        converged = self.criterion.has_converged(residual_norms[-1], b_norm)
        iterations = 0
        for local_iter in range(1, max_iter + 1):
            if converged:
                break
            x = x + (b - self.matvec(x)) / self._diag
            res = residual_norm(x)
            residual_norms.append(res)
            iterations = local_iter
            converged = self.criterion.has_converged(res, b_norm)
            self._emit(callback, iteration_offset + local_iter, x, res, converged=converged)
            if self.criterion.has_diverged(res, b_norm):
                break
        return SolveResult(x=x, converged=converged, iterations=iterations,
                           residual_norms=residual_norms, solver=self.name, b_norm=b_norm)


class ReferenceGMRES(GMRESSolver):
    """GMRES(k) that recomputes ``M^-1 (b - A x)`` at the start of every cycle."""

    def _solve(self, b, x0, *, callback: Optional[Callback], max_iter, iteration_offset):
        matvec, M, n, k, x = self.matvec, self.preconditioner, self.n, self.restart, x0
        b_norm = float(np.linalg.norm(M.solve(b))) or 1.0
        iterations, converged = 0, False
        beta = float(np.linalg.norm(M.solve(b - matvec(x))))
        residual_norms = [beta]
        if self.criterion.has_converged(beta, b_norm):
            return SolveResult(x=x, converged=True, iterations=0,
                               residual_norms=residual_norms, solver=self.name, b_norm=b_norm)
        while iterations < max_iter and not converged:
            r = M.solve(b - matvec(x))
            beta = float(np.linalg.norm(r))
            if beta == 0.0:
                converged = True
                break
            V = np.zeros((k + 1, n))
            H = np.zeros((k + 1, k))
            cs, sn, g = np.zeros(k), np.zeros(k), np.zeros(k + 1)
            V[0], g[0] = r / beta, beta
            inner = 0
            for j in range(k):
                if iterations >= max_iter:
                    break
                w = M.solve(matvec(V[j]))
                for i in range(j + 1):
                    H[i, j] = float(w @ V[i])
                    w -= H[i, j] * V[i]
                H[j + 1, j] = float(np.linalg.norm(w))
                if H[j + 1, j] > 0.0:
                    V[j + 1] = w / H[j + 1, j]
                for i in range(j):
                    temp = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                    H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                    H[i, j] = temp
                denom = float(np.hypot(H[j, j], H[j + 1, j]))
                if denom == 0.0:
                    cs[j], sn[j] = 1.0, 0.0
                else:
                    cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
                H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
                H[j + 1, j] = 0.0
                g[j + 1] = -sn[j] * g[j]
                g[j] = cs[j] * g[j]
                inner = j + 1
                iterations += 1
                res = abs(float(g[j + 1]))
                residual_norms.append(res)
                converged = self.criterion.has_converged(res, b_norm)
                x_current = (
                    self._form_iterate(x, V, H, g, inner)
                    if callback is not None or converged else None
                )
                if callback is not None:
                    self._emit(callback, iteration_offset + iterations, x_current, res,
                               cycle_end=(inner == k), converged=converged)
                if converged:
                    x = x_current
                    break
                if H[j + 1, j] == 0.0 and denom == 0.0:
                    break
            if not converged and inner > 0:
                x = self._form_iterate(x, V, H, g, inner)
                true_res = float(np.linalg.norm(M.solve(b - matvec(x))))
                if self.criterion.has_diverged(true_res, b_norm):
                    break
            if inner == 0:
                break
        return SolveResult(x=x, converged=converged, iterations=iterations,
                           residual_norms=residual_norms, solver=self.name, b_norm=b_norm,
                           info={"restart": self.restart})


def _counting(solver):
    """Wrap ``solver.matvec`` so it counts its calls; returns the counter."""
    calls = [0]
    matvec = solver.matvec

    def counted(x):
        calls[0] += 1
        return matvec(x)

    solver.matvec = counted
    return calls


def _run(solver, b, **kwargs):
    states = []
    result = solver.solve(b, callback=states.append, **kwargs)
    return result, [(s.iteration, s.x.tobytes(), s.residual_norm, s.extras) for s in states]


def _assert_same(new, reference):
    (result, states), (ref_result, ref_states) = new, reference
    assert result.x.tobytes() == ref_result.x.tobytes()
    assert result.residual_norms == ref_result.residual_norms
    assert (result.iterations, result.converged) == (ref_result.iterations, ref_result.converged)
    assert states == ref_states


@st.composite
def systems(draw):
    """A diagonally dominant system or a Poisson system, with its right-hand side."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=5, max_value=40))
        A = diagonally_dominant(n, density=0.2, dominance=2.0, seed=seed)
        b = A @ np.random.default_rng(seed + 1).uniform(-1.0, 1.0, n)
        return A, b
    problem = poisson_system(draw(st.integers(min_value=3, max_value=6)), seed=seed)
    return problem.A, problem.b


_SOLVES = dict(rtol=st.sampled_from([1e-4, 1e-8]), max_iter=st.integers(1, 400),
               resume_at=st.floats(min_value=0.0, max_value=1.0), offset=st.integers(0, 50))


class TestJacobi:
    @given(system=systems(), **_SOLVES)
    @settings(max_examples=40, deadline=None)
    def test_iterates_match_the_two_matvec_formula(self, system, rtol, max_iter, resume_at, offset):
        A, b = system
        solver = JacobiSolver(A, rtol=rtol, max_iter=max_iter)
        reference = ReferenceJacobi(A, rtol=rtol, max_iter=max_iter)
        matvecs = _counting(solver)
        full = _run(solver, b)
        assert matvecs[0] == full[0].iterations + 1
        _assert_same(full, _run(reference, b))

        states = full[1]
        if not states:
            return
        captured = []
        target = states[min(len(states) - 1, int(resume_at * len(states)))][0]
        solver.solve(b, callback=lambda s: captured.append(s) if s.iteration == target else None)
        state = captured[0]
        resume = dict(x0=state.x, iteration_offset=state.iteration + offset,
                      resume_state=solver.capture_resume_state(state))
        _assert_same(_run(solver, b, **resume), _run(reference, b, **resume))


class TestGMRES:
    @given(system=systems(), restart=st.integers(2, 8), preconditioned=st.booleans(), **_SOLVES)
    @settings(max_examples=40, deadline=None)
    def test_iterates_match_the_recomputed_cycle_start(
        self, system, restart, preconditioned, rtol, max_iter, resume_at, offset
    ):
        A, b = system

        def build(cls):
            M = JacobiPreconditioner(A) if preconditioned else None
            return cls(A, rtol=rtol, max_iter=max_iter, restart=restart, preconditioner=M)

        solver, reference = build(GMRESSolver), build(ReferenceGMRES)
        matvecs, reference_matvecs = _counting(solver), _counting(reference)
        full = _run(solver, b)
        _assert_same(full, _run(reference, b))
        assert matvecs[0] <= reference_matvecs[0]
        _assert_same((solver.solve(b), []), (reference.solve(b), []))

        boundaries = [s for s in full[1] if s[3].get("cycle_end")]
        if not boundaries:
            return
        iteration = boundaries[min(len(boundaries) - 1, int(resume_at * len(boundaries)))][0]
        captured = []
        solver.solve(b, callback=lambda s: captured.append(s) if s.iteration == iteration else None)
        state = captured[0]
        resume = dict(x0=state.x, iteration_offset=state.iteration + offset,
                      resume_state=solver.capture_resume_state(state))
        assert resume["resume_state"] is not None
        _assert_same(_run(solver, b, **resume), _run(reference, b, **resume))
