"""CheckpointPipeline: bitwise round trips, per-variable bounds, measurement,
snapshot/restore, timing attribution and file stores."""

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.checkpoint import (
    CheckpointPipeline,
    FileCheckpointStore,
    MemoryCheckpointStore,
)
from repro.checkpoint.serialization import deserialize_checkpoint
from repro.compression import make_compressor
from repro.compression.base import CompressionRecord
from repro.compression.errorbounds import (
    FixedBoundPolicy,
    ResidualAdaptiveBoundPolicy,
    ValueRangeBoundPolicy,
)
from repro.compression.identity import IdentityCompressor
from repro.compression.lossless import ZlibCompressor
from repro.compression.sz import SZCompressor
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.solvers import BiCGStabSolver, CGSolver, GMRESSolver, JacobiSolver
from repro.solvers.base import CheckpointSpec, ResumeState
from repro.sparse import poisson_system

SOLVER_FACTORIES = {
    "jacobi": lambda A: JacobiSolver(A, rtol=1e-4, max_iter=50000),
    "cg": lambda A: CGSolver(A, rtol=1e-7, max_iter=50000),
    "gmres": lambda A: GMRESSolver(A, rtol=7e-5, max_iter=50000),
    "bicgstab": lambda A: BiCGStabSolver(A, rtol=1e-7, max_iter=50000),
}

EXACT_SCHEMES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
}


def _mid_run_state(solver, b, iterations=12):
    states = []
    solver.solve(b, callback=lambda s: states.append(s), max_iter=iterations)
    # Prefer a state whose full resume declaration is capturable (GMRES only
    # exposes one at restart-cycle boundaries / convergence).
    for state in reversed(states):
        if solver.capture_resume_state(state) is not None:
            return state
    return states[-1]


class TestExactRoundTrip:
    @pytest.mark.parametrize("scheme_name", sorted(EXACT_SCHEMES))
    @pytest.mark.parametrize("method", sorted(SOLVER_FACTORIES))
    def test_bitwise_round_trip_all_solvers(self, poisson_small, scheme_name, method):
        """Exact schemes round-trip x, resume vectors and scalars bitwise."""
        solver = SOLVER_FACTORIES[method](poisson_small.A)
        state = _mid_run_state(solver, poisson_small.b)
        resume = solver.capture_resume_state(state)
        scheme = EXACT_SCHEMES[scheme_name]()
        pipeline = CheckpointPipeline(scheme, solver=solver)
        snap = pipeline.snapshot(
            state.x,
            iteration=state.iteration,
            resume_state=resume,
            residual_norm=state.residual_norm,
            b_norm=1.0,
        )
        restored = pipeline.restore(payload=snap.payload)
        assert restored.iteration == state.iteration
        assert restored.x.tobytes() == state.x.tobytes()
        if resume is not None and pipeline.stores_resume_state:
            assert restored.resume_state is not None
            for name, vec in resume.vectors.items():
                assert restored.resume_state.vectors[name].tobytes() == vec.tobytes()
            for name, value in resume.scalars.items():
                stored = restored.resume_state.scalars[name]
                assert stored == value or (np.isnan(stored) and np.isnan(value))

    def test_store_round_trip_through_commit(self, poisson_small):
        solver = CGSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        state = _mid_run_state(solver, poisson_small.b)
        resume = solver.capture_resume_state(state)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            solver=solver,
            store=MemoryCheckpointStore(),
        )
        snap = pipeline.snapshot(state.x, iteration=state.iteration, resume_state=resume)
        pipeline.commit(snap)
        restored = pipeline.restore()  # latest from the store
        assert restored.x.tobytes() == state.x.tobytes()
        assert restored.resume_state.vectors["p"].tobytes() == resume.vectors["p"].tobytes()



# Hypothesis: arbitrary (finite) state round-trips bitwise through the full
# payload for exact schemes — including denormals, negative zeros and huge
# magnitudes that a codec bug would corrupt first.
finite_vectors = arrays(
    np.float64,
    st.shared(st.integers(min_value=2, max_value=64), key="n"),
    elements=st.floats(
        min_value=-1e300, max_value=1e300, allow_nan=False, width=64
    ),
)
finite_scalars = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


class TestPropertyRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        x=finite_vectors,
        r=finite_vectors,
        r_hat=finite_vectors,
        p=finite_vectors,
        v=finite_vectors,
        rho_old=finite_scalars,
        alpha=finite_scalars,
        omega=finite_scalars,
        scheme_name=st.sampled_from(sorted(EXACT_SCHEMES)),
    )
    def test_full_payload_bitwise(
        self, x, r, r_hat, p, v, rho_old, alpha, omega, scheme_name
    ):
        """The five-vector BiCGSTAB payload survives serialization bitwise."""
        resume = ResumeState(
            iteration=7,
            vectors={"r": r, "r_hat": r_hat, "p": p, "v": v},
            scalars={"rho_old": rho_old, "alpha": alpha, "omega": omega},
        )
        pipeline = CheckpointPipeline(
            EXACT_SCHEMES[scheme_name](),
            spec=BiCGStabSolver.checkpoint_spec,
        )
        snap = pipeline.snapshot(x, iteration=7, resume_state=resume)
        restored = pipeline.restore(payload=snap.payload)
        assert restored.x.tobytes() == np.ascontiguousarray(x).tobytes()
        for name, vec in resume.vectors.items():
            assert (
                restored.resume_state.vectors[name].tobytes()
                == np.ascontiguousarray(vec).tobytes()
            )
        for name, value in resume.scalars.items():
            assert restored.resume_state.scalars[name] == value

    @settings(max_examples=25, deadline=None)
    @given(
        x=arrays(
            np.float64,
            st.integers(min_value=8, max_value=128),
            elements=st.floats(
                min_value=-1e12, max_value=1e12, allow_nan=False, width=64
            ),
        ),
        eb=st.sampled_from([1e-2, 1e-4, 1e-6]),
        mode=st.sampled_from(["fixed", "value_range"]),
    )
    def test_lossy_respects_resolved_bound(self, x, eb, mode):
        """Lossy payloads respect the policy-resolved bound per element."""
        policy = (
            FixedBoundPolicy(eb) if mode == "fixed" else ValueRangeBoundPolicy(eb)
        )
        scheme = CheckpointingScheme.lossy(eb, bound_policy=policy)
        pipeline = CheckpointPipeline(scheme, spec=JacobiSolver.checkpoint_spec)
        snap = pipeline.snapshot(x, iteration=1)
        restored = pipeline.restore(payload=snap.payload)
        bound = policy.resolve(variable="x")
        tolerance = bound.per_element(x)
        assert np.all(np.abs(restored.x - x) <= tolerance + 1e-300)


def _memo_states(count=4, n=96):
    """Nearby CG-shaped states (``x`` plus the declared ``p``/``rho``)."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(n)
    states = []
    for step in range(count):
        x = x + rng.standard_normal(n) * 10.0 ** (-3 - step)
        resume = ResumeState(
            iteration=step,
            vectors={"p": rng.standard_normal(n)},
            scalars={"rho": float(step) + 0.5},
        )
        states.append((x.copy(), resume))
    return states


MEMO_SCHEMES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
    "lossy": lambda: CheckpointingScheme.lossy(1e-4),
    "adaptive": lambda: CheckpointingScheme.lossy(1e-4, adaptive=True),
}

#: One snapshot call: ``(state, checkpoint id, residual norm, committed?)``
#: — an uncommitted snapshot is a checkpoint a mid-write failure discarded.
memo_calls = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([1.0, 1e-3, 1e-7]),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)


class TestSnapshotMemoDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        scheme_name=st.sampled_from(sorted(MEMO_SCHEMES)),
        histories=st.lists(memo_calls, min_size=2, max_size=3),
    )
    def test_memo_serves_the_bytes_a_fresh_pass_writes(self, scheme_name, histories):
        """Memoized and memo-free pipelines write byte-identical payloads
        over random snapshot/commit/discard histories, and the memo answers
        every repeated call whatever was committed or discarded before it."""
        from repro.engine.replay import SnapshotMemo

        states = _memo_states()
        memo = SnapshotMemo()
        seen, repeats = set(), 0
        for history in histories:
            scheme = MEMO_SCHEMES[scheme_name]()
            memoed, reference = (
                CheckpointPipeline(
                    scheme, spec=CGSolver.checkpoint_spec, store=MemoryCheckpointStore()
                )
                for _ in range(2)
            )
            memoed.enable_snapshot_memo(memo, b"context")
            for state, checkpoint_id, residual_norm, committed in history:
                call = (state, checkpoint_id, residual_norm)
                repeats += call in seen
                seen.add(call)
                x, resume = states[state]
                kwargs = dict(
                    iteration=10 * state,
                    resume_state=resume,
                    residual_norm=residual_norm,
                    b_norm=1.0,
                    checkpoint_id=checkpoint_id,
                )
                got = memoed.snapshot(x, **kwargs)
                want = reference.snapshot(x, **kwargs)
                assert got.payload == want.payload
                assert got.checkpoint_id == want.checkpoint_id == checkpoint_id
                if committed:
                    memoed.commit(got)
                    reference.commit(want)
            for checkpoint_id in reference.store.ids():
                assert memoed.store.read(checkpoint_id) == reference.store.read(
                    checkpoint_id
                )
                restored = memoed.restore(checkpoint_id)
                expected = reference.restore(checkpoint_id)
                assert restored.x.tobytes() == expected.x.tobytes()
        assert memo.hits == repeats


def _drifting_states(n=256, steps=8, seed=5):
    """Successive iterate-like states that stay close to each other."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    states = [x.copy()]
    for step in range(1, steps):
        x = x + rng.standard_normal(n) * 10.0 ** (-6.0 - 0.4 * step)
        states.append(x.copy())
    return states


class TestFullPayloads:
    """Every payload is self-contained: it restores on its own, whatever
    was committed, discarded or mutated around it."""

    def test_every_lossless_payload_restores_bitwise_on_a_fresh_pipeline(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), spec=JacobiSolver.checkpoint_spec
        )
        states = _drifting_states()
        snaps = []
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            snaps.append(snap)
        for i, (x, snap) in enumerate(zip(states, snaps)):
            fresh = CheckpointPipeline(
                CheckpointingScheme.lossless(), spec=JacobiSolver.checkpoint_spec
            )
            restored = fresh.restore(payload=snap.payload)
            assert restored.x.tobytes() == x.tobytes(), f"checkpoint {i}"
            assert restored.iteration == i

    def test_lossy_restores_respect_the_bound_at_every_checkpoint(
        self, poisson_small
    ):
        """The pointwise bound holds at every checkpoint of a run, with no
        error carried from one payload to the next."""
        eb = 1e-4
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=50000)
        pipeline = CheckpointPipeline(CheckpointingScheme.lossy(eb), solver=solver)
        captured = []
        solver.solve(poisson_small.b, callback=lambda s: captured.append(s.x.copy()))
        states = captured[:: max(1, len(captured) // 10)][:10]
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            restored = pipeline.restore(payload=snap.payload)
            assert np.all(
                np.abs(restored.x - x) <= eb * np.abs(x) + 1e-300
            ), f"bound violated at checkpoint {i}"

    def test_exact_resume_vectors_survive_every_checkpoint(self, poisson_small):
        solver = CGSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        states = []
        solver.solve(poisson_small.b, callback=lambda s: states.append(s))
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            solver=solver,
            store=MemoryCheckpointStore(),
        )
        picks = states[2:8]
        resumes = [solver.capture_resume_state(state) for state in picks]
        for i, (state, resume) in enumerate(zip(picks, resumes)):
            pipeline.commit(
                pipeline.snapshot(
                    state.x, iteration=state.iteration, resume_state=resume,
                    checkpoint_id=i,
                )
            )
        # Read back after the whole run: no later write disturbs an earlier one.
        for i, (state, resume) in enumerate(zip(picks, resumes)):
            restored = pipeline.restore(i)
            assert restored.x.tobytes() == state.x.tobytes()
            assert (
                restored.resume_state.vectors["p"].tobytes()
                == resume.vectors["p"].tobytes()
            )

    def test_discarded_snapshot_leaves_the_next_payload_unchanged(self):
        """A mid-write failure discards a snapshot; the next payload is the
        one a pipeline that never took it would write."""
        states = _drifting_states(steps=3)
        with_discard, without = (
            CheckpointPipeline(
                CheckpointingScheme.lossless(),
                spec=JacobiSolver.checkpoint_spec,
                store=MemoryCheckpointStore(),
            )
            for _ in range(2)
        )
        for pipeline in (with_discard, without):
            pipeline.commit(pipeline.snapshot(states[0], iteration=0, checkpoint_id=1))
        with_discard.snapshot(states[1], iteration=1, checkpoint_id=2)
        got = with_discard.snapshot(states[2], iteration=2, checkpoint_id=3)
        want = without.snapshot(states[2], iteration=2, checkpoint_id=3)
        assert got.payload == want.payload
        with_discard.commit(got)
        assert with_discard.store.ids() == [1, 3]
        assert with_discard.restore(3).x.tobytes() == states[2].tobytes()

    @pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
    def test_payload_survives_in_place_mutation_of_source(self, memo):
        """Solvers update ``x`` in place; a taken payload must not follow,
        and a memo must not serve it for the mutated buffer."""
        from repro.engine.replay import SnapshotMemo

        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(), spec=JacobiSolver.checkpoint_spec
        )
        if memo:
            pipeline.enable_snapshot_memo(SnapshotMemo(), b"context")
        live = np.linspace(1.0, 2.0, 256)
        original = live.copy()
        snap = pipeline.snapshot(live, iteration=1, checkpoint_id=1)
        live *= -3.0  # the solver moves on
        assert pipeline.restore(payload=snap.payload).x.tobytes() == original.tobytes()
        again = pipeline.snapshot(live, iteration=1, checkpoint_id=1)
        assert pipeline.restore(payload=again.payload).x.tobytes() == live.tobytes()

    @pytest.mark.parametrize("scheme_name", ["traditional", "lossless", "lossy"])
    def test_payload_is_independent_of_the_history(self, scheme_name):
        """A snapshot after a run of commits is byte-identical to the same
        call on a pipeline that has taken nothing before."""
        scheme = MEMO_SCHEMES[scheme_name]
        states = _memo_states()
        seasoned = CheckpointPipeline(scheme(), spec=CGSolver.checkpoint_spec)
        for i, (x, resume) in enumerate(states[:-1]):
            seasoned.commit(
                seasoned.snapshot(
                    x, iteration=i, resume_state=resume, residual_norm=1e-3,
                    b_norm=1.0, checkpoint_id=i,
                )
            )
        x, resume = states[-1]
        kwargs = dict(
            iteration=len(states), resume_state=resume, residual_norm=1e-3,
            b_norm=1.0, checkpoint_id=len(states),
        )
        fresh = CheckpointPipeline(scheme(), spec=CGSolver.checkpoint_spec)
        assert seasoned.snapshot(x, **kwargs).payload == fresh.snapshot(
            x, **kwargs
        ).payload


class TestBoundPolicies:
    def test_lossy_x_exact_recurrence(self, poisson_small):
        """A lossy scheme that *does* keep Krylov state stores it exactly
        while x honours its resolved bound."""
        solver = BiCGStabSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        state = _mid_run_state(solver, poisson_small.b)
        resume = solver.capture_resume_state(state)
        scheme = CheckpointingScheme.lossy(1e-3, bound_policy=FixedBoundPolicy(1e-3))
        # Force the (non-paper) hybrid: lossy x + declared recurrence state.
        scheme.checkpoint_krylov_state = True
        pipeline = CheckpointPipeline(scheme, solver=solver)
        snap = pipeline.snapshot(
            state.x, iteration=state.iteration, resume_state=resume
        )
        restored = pipeline.restore(payload=snap.payload)
        # x is lossy within its resolved bound...
        assert np.all(
            np.abs(restored.x - state.x) <= 1e-3 * np.abs(state.x) + 1e-300
        )
        # ...but every recurrence vector round-trips bitwise (DEFLATE path).
        for name, vec in resume.vectors.items():
            assert restored.resume_state.vectors[name].tobytes() == vec.tobytes()

    def test_residual_adaptive_abstains_without_residual(self):
        policy = ResidualAdaptiveBoundPolicy()
        assert policy.resolve(variable="x") is None
        assert policy.resolve(residual_norm=1e-2, b_norm=1.0).value == pytest.approx(
            1e-2
        )


class TestMeasurement:
    def test_scaled_bytes_prices_each_vector_by_its_own_ratio(self, poisson_small):
        solver = CGSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        state = _mid_run_state(solver, poisson_small.b)
        resume = solver.capture_resume_state(state)
        pipeline = CheckpointPipeline(CheckpointingScheme.lossless(), solver=solver)
        snap = pipeline.snapshot(
            state.x, iteration=state.iteration, resume_state=resume
        )
        scale = paper_scale(2048)
        uncompressed, compressed = snap.scaled_bytes(scale)
        ratios = snap.variable_ratios()
        assert set(ratios) == {"x", "p"}
        expected = (
            sum(scale.vector_bytes / r for r in ratios.values())
            + snap.overhead_bytes
        )
        assert compressed == pytest.approx(expected)
        # Two vectors plus the exactly-stored iteration counter and rho.
        assert uncompressed == pytest.approx(2 * scale.vector_bytes + 16)

    def test_snapshot_measures_every_entry(self, poisson_small):
        solver = BiCGStabSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        state = _mid_run_state(solver, poisson_small.b)
        resume = solver.capture_resume_state(state)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(), solver=solver
        )
        snap = pipeline.snapshot(
            state.x, iteration=state.iteration, resume_state=resume
        )
        names = {m.name for m in snap.variables}
        assert names == {
            "iteration", "x", "r", "r_hat", "p", "v", "rho_old", "alpha", "omega",
        }
        assert snap.ratio_of("x") == pytest.approx(1.0)
        with pytest.raises(KeyError):
            snap.ratio_of("nope")

    def test_partial_resume_stores_just_x(self, poisson_small):
        """A GMRES-style missing resume state degrades to an x-only payload."""
        solver = BiCGStabSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), solver=solver
        )
        snap = pipeline.snapshot(np.ones(solver.n), iteration=3, resume_state=None)
        assert {m.name for m in snap.vector_measurements} == {"x"}
        restored = pipeline.restore(payload=snap.payload)
        assert restored.resume_state is None


#: SHA-256 of exact payloads (CG and Jacobi on ``poisson_small`` after 12
#: iterations, with resume state) written before lossy payloads learned the
#: grid layout: giving lossy compressors the grid must not move a byte here.
_EXACT_PAYLOAD_SHA256 = {
    ("cg", "traditional"): "a06bca448ac145295de6ab49e7860a3e8b47e9b17fdcada40b076584efc1a830",
    ("cg", "lossless"): "6e0f264255e55a9320e5d0a5b56b337c69f68ccf669c1c29bb73a0679dbd2015",
    ("jacobi", "traditional"): "ae7be61b89a43ebd87d3a2b44eb68e7cbbc59afb5ec7aa5fbe24a81abe7bc7bb",
    ("jacobi", "lossless"): "3459c2e0e8e331b21bf38362159647a965deb3e4d0c393b6296d4bfab190275e",
}


class TestGridLayout:
    """Lossy compressors see ``x`` on the operator's grid; nothing else moves."""

    def _stream_pipeline(self, compressor, n=10):
        # Built the way the checkpoint-stream benchmark builds its pipelines.
        problem = poisson_system(n, seed=2018)
        solver = CGSolver(problem.A, rtol=1e-15, max_iter=14)
        states = []
        solver.solve(problem.b, callback=states.append)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossy(1e-4, compressor=compressor),
            solver=solver,
            store=MemoryCheckpointStore(),
        )
        return pipeline, solver, states[-1]

    @pytest.mark.parametrize("compressor", ["sz", "zfp"])
    def test_lossy_x_ships_on_the_grid_and_restores_flat(self, compressor):
        pipeline, solver, state = self._stream_pipeline(compressor)
        snap = pipeline.snapshot(
            state.x, iteration=state.iteration,
            resume_state=solver.capture_resume_state(state),
            residual_norm=state.residual_norm, b_norm=1.0, checkpoint_id=0,
        )
        blob = deserialize_checkpoint(snap.payload).entries["x"]
        assert blob.compressor == compressor
        assert blob.shape == (10, 10, 10)
        assert snap.ratio_of("x") == pytest.approx(state.x.nbytes / blob.nbytes)
        pipeline.commit(snap)
        restored = pipeline.restore(0)
        assert restored.x.shape == (1000,)
        assert restored.x.flags.writeable and restored.x.flags.c_contiguous
        # The grid layout moves bytes only: x decodes to exactly what the
        # compressor makes of the flat vector.
        flat = make_compressor(compressor, error_bound=1e-4)
        assert restored.x.tobytes() == flat.decompress(flat.compress(state.x)).tobytes()

    def test_no_grid_without_a_stencil(self, kkt_small):
        solver = GMRESSolver(kkt_small.K, rtol=1e-6, max_iter=50)
        pipeline = CheckpointPipeline(CheckpointingScheme.lossy(1e-4), solver=solver)
        x = np.linspace(1.0, 2.0, solver.n)
        snap = pipeline.snapshot(x)
        assert deserialize_checkpoint(snap.payload).entries["x"].shape == (solver.n,)

    @pytest.mark.parametrize("scheme_name", sorted(EXACT_SCHEMES))
    @pytest.mark.parametrize("method", ["cg", "jacobi"])
    def test_exact_payload_bytes_unchanged(self, poisson_small, method, scheme_name):
        if scheme_name == "lossless" and "ng" in zlib.ZLIB_RUNTIME_VERSION:
            pytest.skip("DEFLATE payload pins assume the reference zlib")
        solver = SOLVER_FACTORIES[method](poisson_small.A)
        states = []
        solver.solve(poisson_small.b, callback=states.append, max_iter=12)
        state = states[-1]
        pipeline = CheckpointPipeline(EXACT_SCHEMES[scheme_name](), solver=solver)
        snap = pipeline.snapshot(
            state.x, iteration=state.iteration,
            resume_state=solver.capture_resume_state(state),
            residual_norm=state.residual_norm, b_norm=1.0,
        )
        digest = hashlib.sha256(snap.payload).hexdigest()
        assert digest == _EXACT_PAYLOAD_SHA256[(method, scheme_name)]


# ---------------------------------------------------------------------------
# Snapshot/restore on a CG-like declaration
# ---------------------------------------------------------------------------

#: A CG-like declaration: iterate ``x`` plus one recurrence vector and scalar.
_SPEC = CheckpointSpec(extra_vectors=("p",), scalars=("rho",), exact_resume=True)


@pytest.fixture
def solver_like_state(smooth_vector):
    return {"x": smooth_vector.copy(), "p": smooth_vector * 0.5, "i": 10, "rho": 0.123}


def _pipeline_for(scheme=None, store=None, **kwargs):
    return CheckpointPipeline(
        scheme or CheckpointingScheme.traditional(),
        spec=_SPEC,
        store=store if store is not None else MemoryCheckpointStore(),
        **kwargs,
    )


def _snapshot(pipeline, state, **tag):
    resume = ResumeState(
        iteration=state["i"],
        vectors={"p": state["p"]},
        scalars={"rho": state["rho"]},
    )
    snap = pipeline.snapshot(
        state["x"], iteration=state["i"], resume_state=resume, **tag
    )
    pipeline.commit(snap)
    return snap


class TestSnapshotRestore:
    def test_lossy_snapshot_restores_within_bound(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossy(1e-4))
        original = solver_like_state["x"].copy()
        snap = _snapshot(pipeline, solver_like_state, phase="mid-run")
        assert snap.compression_ratio > 1.0
        restored = pipeline.restore()
        assert restored.iteration == 10
        rel = np.abs(restored.x - original) / np.abs(original)
        assert np.max(rel) <= 1e-4 * (1 + 1e-9)
        # Algorithm 2: a lossy checkpoint restarts from ``x`` alone.
        assert restored.resume_state is None
        assert restored.tag == {"phase": "mid-run"}

    def test_lossless_snapshot_exact(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        _snapshot(pipeline, solver_like_state)
        restored = pipeline.restore()
        assert np.array_equal(restored.x, solver_like_state["x"])
        assert np.array_equal(restored.resume_state.vectors["p"], solver_like_state["p"])
        assert restored.resume_state.scalars["rho"] == 0.123

    def test_default_compressor_is_identity(self, solver_like_state):
        snap = _snapshot(_pipeline_for(), solver_like_state)
        assert snap.compression_ratio <= 1.05
        assert {v.compressor for v in snap.vector_measurements} == {"none"}

    def test_restore_specific_checkpoint(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        _snapshot(pipeline, solver_like_state)
        solver_like_state["i"] = 20
        _snapshot(pipeline, solver_like_state)
        assert pipeline.restore(0).iteration == 10
        assert pipeline.restore().iteration == 20

    def test_restore_without_apply(self, solver_like_state):
        """A restore hands back fresh arrays; live state is never written."""
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        _snapshot(pipeline, solver_like_state)
        live = solver_like_state["x"]
        before = live.copy()
        restored = pipeline.restore()
        restored.x[:] = 0.0
        assert np.array_equal(live, before)
        assert solver_like_state["i"] == 10

    def test_no_dynamic_variables_raises(self):
        """A pipeline needs a declaration of what it protects."""
        with pytest.raises(ValueError):
            CheckpointPipeline(CheckpointingScheme.traditional())

    def test_restore_without_checkpoint_raises(self):
        with pytest.raises(KeyError):
            _pipeline_for().restore()
        with pytest.raises(ValueError):
            CheckpointPipeline(CheckpointingScheme.traditional(), spec=_SPEC).restore()

    def test_has_checkpoint_and_records(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossy(1e-3))
        assert pipeline.store.ids() == []
        snap = _snapshot(pipeline, solver_like_state)
        assert pipeline.store.ids() == [snap.checkpoint_id] == [0]
        assert snap.ratio_of("x") > 1.0
        assert [v.name for v in snap.vector_measurements] == ["x"]


class _SharedCompressor(IdentityCompressor):
    """Simulates an instance shared with another pipeline: every compress is
    immediately followed by a foreign record landing in ``records``, so
    ``records[-1]`` no longer belongs to the caller's own call."""

    def compress_with_record(self, data):
        blob, record = super().compress_with_record(data)
        self.records.append(CompressionRecord("compress", 1, 1, 999.0))
        return blob, record


class TestTimingAttribution:
    def test_compress_with_record_returns_per_call_record(self, smooth_vector):
        comp = SZCompressor(1e-4)
        blob_a, rec_a = comp.compress_with_record(smooth_vector)
        blob_b, rec_b = comp.compress_with_record(smooth_vector[: 100])
        assert rec_a is not rec_b
        assert rec_a.compressed_bytes == len(blob_a.payload)
        assert rec_b.compressed_bytes == len(blob_b.payload)
        assert rec_a.original_bytes == smooth_vector.nbytes
        assert comp.last_record is rec_b

    def test_snapshot_uses_per_call_record_not_records_tail(self, solver_like_state):
        """Measurements come from each call's own blob, so a compressor shared
        with another writer cannot leak its numbers into this snapshot."""
        shared = _SharedCompressor()
        scheme = CheckpointingScheme(
            "traditional", compressor_factory=lambda: shared, lossy=False
        )
        snap = _snapshot(_pipeline_for(scheme), solver_like_state)
        nbytes = solver_like_state["x"].nbytes
        for measurement in snap.vector_measurements:
            assert measurement.uncompressed_bytes == nbytes
            assert measurement.stored_bytes == nbytes
        assert shared.records[-1].seconds == 999.0

    def test_records_stay_bounded_over_a_long_stream(self):
        comp = IdentityCompressor()
        data = np.arange(8, dtype=np.float64)
        for _ in range(10_000):
            blob, record = comp.compress_with_record(data)
        comp.decompress(blob)
        assert len(comp.records) == comp.RECORD_HISTORY
        assert comp.records[-2] is record
        assert comp.records[-1] is comp.last_record
        assert comp.last_record.operation == "decompress"
        assert [r.operation for r in comp.records].count("compress") == comp.RECORD_HISTORY - 1

    def test_reset_records_clears_last_record(self, smooth_vector):
        comp = ZlibCompressor()
        comp.compress(smooth_vector)
        assert comp.last_record is not None
        comp.reset_records()
        assert comp.last_record is None


class TestFileBackedPipeline:
    def test_file_store_integration(self, solver_like_state, tmp_path):
        store = FileCheckpointStore(tmp_path / "ck")
        pipeline = _pipeline_for(CheckpointingScheme.lossy(1e-4), store=store)
        _snapshot(pipeline, solver_like_state)
        # A fresh pipeline over the same directory reads the file back.
        reader = _pipeline_for(
            CheckpointingScheme.lossy(1e-4), store=FileCheckpointStore(tmp_path / "ck")
        )
        restored = reader.restore()
        assert np.allclose(restored.x, solver_like_state["x"], rtol=1e-3)
