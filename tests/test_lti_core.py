import json

import numpy as np
import pytest

from canonctrl import harness, lti_core
from canonctrl.cli import main
from canonctrl.errors import (
    DimensionError,
    GenerationError,
    MinimalityError,
    NumericalDegeneracyError,
    PartitionError,
)
from canonctrl.lti_core import (
    StateSpaceModel,
    behavior_window_map,
    hidden_restricted_basis,
    horizon_lag,
    invariants_of,
    observable_realization,
    model_from_dict,
    model_to_dict,
    observability_matrix,
    product_model,
    projected_invariants,
    projected_restricted_basis,
    random_minimal_model,
    read_model_json,
    restricted_behavior_basis,
    simulate,
    write_model_json,
)
from canonctrl.signal import Trajectory, channel_rows
from canonctrl.subspace import (
    DEFAULT_ANGLE_TOL,
    DEFAULT_RANK_TOL,
    BehaviorBasis,
    orthonormal_basis,
    subspaces_equal,
)

from conftest import free_model, long_draw_models


def identity_model():
    """Static single-input single-output pass-through y = u."""
    return StateSpaceModel(
        np.zeros((0, 0)),
        np.zeros((0, 1)),
        np.zeros((1, 0)),
        np.array([[1.0]]),
        (1,),
        (2,),
    )


def integrator_model():
    return StateSpaceModel(
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.array([[0.0]]),
        (1,),
        (2,),
    )


class TestStateSpaceModel:
    def test_minimality_rejects_unobservable(self):
        with pytest.raises(MinimalityError, match="observable"):
            StateSpaceModel(
                np.diag([0.5, 0.3]),
                np.ones((2, 1)),
                np.array([[1.0, 0.0]]) * 0,
                np.zeros((1, 1)),
                (1,),
                (2,),
            )

    def test_uncontrollable_but_observable_is_a_valid_behavior_model(self):
        # the free initial state carries the uncontrollable mode, so the
        # behavior genuinely has order 2
        model = StateSpaceModel(
            np.diag([0.5, 0.3]),
            np.array([[1.0], [0.0]]),
            np.ones((1, 2)),
            np.zeros((1, 1)),
            (1,),
            (2,),
        )
        inv = invariants_of(model)
        assert inv.n_order == 2
        L = inv.lag + 1
        assert restricted_behavior_basis(model, L).dim == inv.m_inputs * L + 2

    def test_autonomous_model_allowed(self):
        model = harness.decaying_reference()
        assert model.m == 0 and model.p == 1 and model.n == 1

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            StateSpaceModel(
                np.zeros((0, 0)),
                np.zeros((0, 1)),
                np.zeros((1, 0)),
                np.ones((2, 1)),
                (1,),
                (2,),
            )

    def test_holds_read_only_copies(self):
        A, B, C, D = np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]])
        model = StateSpaceModel(A, B, C, D, (1,), (2,))
        C[:] = 0.0  # would make (A, C) unobservable if the model shared it
        assert model.C[0, 0] == 1.0 and invariants_of(model).lag == 1
        for source, M in zip((A, B, C, D), (model.A, model.B, model.C, model.D)):
            assert not np.shares_memory(source, M) and not M.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.A[0, 0] = 2.0

    @pytest.mark.parametrize(
        "B, C, message",
        [
            ([1.0, 1.0], [[1.0, 1.0]], r"B must have shape \(2, 1\), got \(2,\)"),
            ([[1.0, 1.0]], [[1.0, 1.0]], r"B must have shape \(2, 1\), got \(1, 2\)"),
            ([[1.0], [1.0]], [[1.0], [1.0]], r"C must have shape \(1, 2\), got \(2, 1\)"),
        ],
        ids=["flat-B", "row-B", "transposed-C"],
    )
    def test_matrix_of_the_right_size_in_another_shape(self, B, C, message):
        with pytest.raises(DimensionError, match=message):
            StateSpaceModel(np.diag([0.5, 0.3]), B, C, [[0.0]], (1,), (2,))

    def test_empty_block_in_any_empty_shape(self):
        model = StateSpaceModel([], [], [[]], [[1.0]], (1,), (2,))
        assert model.A.shape == (0, 0) and model.B.shape == (0, 1) and model.C.shape == (1, 0)

    @pytest.mark.parametrize(
        "model",
        [
            harness.decaying_reference(),
            StateSpaceModel([[0.5, 0.0], [0.0, 0.2]], np.zeros((2, 0)), np.eye(2), [], (), (2, 1)),
            free_model(2),
        ],
        ids=["no-inputs", "no-inputs-two-outputs", "no-outputs"],
    )
    def test_empty_input_or_output_block(self, tmp_path, model):
        # a model places its own channels: unlike a control split, a block may be empty
        assert not model.input_picks or not model.output_picks
        run = harness.plant_data(model, 6, seed=3)
        assert run.q == model.q and run.T == 6
        path = tmp_path / "model.json"
        write_model_json(path, model)
        back = read_model_json(path)
        assert (back.input_picks, back.output_picks) == (model.input_picks, model.output_picks)
        assert np.array_equal(harness.plant_data(back, 6, seed=3).values, run.values)

    @pytest.mark.parametrize(
        "inputs, outputs, message",
        [
            ((1,), (3,), "must partition 1..2"),
            ((1,), (1,), "must partition 1..2"),
            ((1.0,), (2,), "picks_w must hold integer channels"),
            ((1,), (True,), "picks_c must hold integer channels"),
        ],
    )
    def test_placement_checked_as_a_partition_is(self, inputs, outputs, message):
        with pytest.raises(PartitionError, match=message):
            StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], inputs, outputs)


def stepwise_simulate(model, U, x0):
    """Reference simulation: outputs and state update one sample at a time."""
    out = np.empty((U.shape[0], model.q))
    u_cols = [pick - 1 for pick in model.input_picks]
    y_cols = [pick - 1 for pick in model.output_picks]
    x = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    for t in range(U.shape[0]):
        out[t, u_cols] = U[t]
        out[t, y_cols] = model.C @ x + model.D @ U[t]
        x = model.A @ x + model.B @ U[t]
    return out


def simulate_both(model, T, x0, rng):
    """(simulate's values, the stepwise reference's values, the input array)."""
    if model.m == 0:
        U = np.zeros((T, 0))
        out = simulate(model, T=T, x0=x0)
    else:
        U = rng.standard_normal((T, model.m))
        out = simulate(model, Trajectory(U), x0=x0)
    return out.values, stepwise_simulate(model, U, x0), U


class TestSimulate:
    def test_static_identity(self):
        u = Trajectory(np.array([[1.0], [-1.0], [2.0]]))
        out = simulate(identity_model(), u)
        assert np.array_equal(out.values[:, 1], [1, -1, 2])
        assert np.array_equal(out.values[:, 0], [1, -1, 2])

    def test_integrator_step(self):
        out = simulate(integrator_model(), Trajectory(np.array([[1.0], [1.0]])), x0=[0.0])
        assert np.array_equal(out.values[:, 1], [0, 1])

    def test_matches_independent_recursion(self, rng):
        for seed in range(30):
            q_w, q_c, n = 1 + seed % 3, 1 + seed % 2, seed % 6
            model, _ = random_minimal_model(q_w, q_c, n, seed=seed)
            T = int(rng.integers(1, 400))
            x0 = rng.standard_normal(model.n) if seed % 2 else None
            got, want, _ = simulate_both(model, T, x0, rng)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (seed, T)

    @pytest.mark.parametrize(
        "model",
        [
            harness.static_plant()[0],  # n = 0
            harness.decaying_reference(),  # m = 0
            free_model(2),  # p = 0
            integrator_model(),
        ],
        ids=["n0", "m0", "p0", "integrator"],
    )
    @pytest.mark.parametrize("T", [1, 7])
    @pytest.mark.parametrize("given_x0", [False, True])
    def test_degenerate_dimensions(self, model, T, given_x0, rng):
        x0 = rng.standard_normal(model.n) if given_x0 else None
        got, want, U = simulate_both(model, T, x0, rng)
        assert got.shape == (T, model.q)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        # input columns are copied, not computed
        assert np.array_equal(got[:, [pick - 1 for pick in model.input_picks]], U)

    def test_input_columns_copied_bit_for_bit(self, rng):
        model, _ = random_minimal_model(3, 2, 5, seed=11)
        U = rng.standard_normal((200, model.m))
        out = simulate(model, Trajectory(U), x0=rng.standard_normal(model.n))
        assert np.array_equal(out.values[:, [pick - 1 for pick in model.input_picks]], U)

    def test_repeat_calls_byte_identical(self, rng):
        model, _ = random_minimal_model(4, 3, 12, seed=3)
        u = Trajectory(rng.standard_normal((2000, model.m)))
        x0 = rng.standard_normal(model.n)
        first, second = simulate(model, u, x0=x0), simulate(model, u, x0=x0)
        assert first.values.tobytes() == second.values.tobytes()

    def test_state_recursion_bit_for_bit(self, rng):
        # each state is written in place; the result is the recursion
        # x(t+1) = A x(t) + (B u)(t) bit for bit, with B u and the outputs the
        # whole-array products simulate documents
        models = [random_minimal_model(1 + s % 3, 1 + s % 2, s % 6, seed=s)[0] for s in range(40)]
        models += [harness.static_plant()[0], integrator_model()]
        for model in models:
            for T in (1, 2, 300):
                U = rng.standard_normal((T, model.m))
                x = rng.standard_normal(model.n)
                x0, BU, X = x, U @ model.B.T, np.empty((T, model.n))
                for t in range(T):
                    X[t] = x
                    x = model.A @ x + BU[t]
                want = np.empty((T, model.q))
                want[:, [pick - 1 for pick in model.input_picks]] = U
                want[:, [pick - 1 for pick in model.output_picks]] = X @ model.C.T + U @ model.D.T
                got = simulate(model, Trajectory(U), x0=x0).values
                assert got.tobytes() == want.tobytes(), (model.n, model.m, T)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            simulate(identity_model(), Trajectory(np.ones((4, 2))))

    def test_autonomous_needs_length(self):
        ref = harness.decaying_reference()
        with pytest.raises(DimensionError):
            simulate(ref)
        out = simulate(ref, T=4, x0=[1.0])
        assert np.allclose(out.values.ravel(), [1, 0.5, 0.25, 0.125])

    def test_autonomous_rejects_input(self):
        with pytest.raises(DimensionError):
            simulate(harness.decaying_reference(), Trajectory(np.ones((3, 1))))


class TestObservabilityMatrix:
    def test_static_model_has_p_depth_empty_rows(self):
        assert observability_matrix(np.zeros((0, 0)), np.zeros((2, 0)), 5).shape == (10, 0)

    def test_depth_zero_has_no_rows(self):
        model, _ = random_minimal_model(2, 1, 3, seed=5)
        assert observability_matrix(model.A, model.C, 0).shape == (0, 3)
        assert observability_matrix(np.zeros((0, 0)), np.zeros((2, 0)), 0).shape == (0, 0)


class TestInvariants:
    def test_static(self):
        inv = invariants_of(identity_model())
        assert (inv.m_inputs, inv.p_outputs, inv.n_order, inv.lag) == (1, 1, 0, 0)

    def test_integrator(self):
        inv = invariants_of(integrator_model())
        assert (inv.m_inputs, inv.p_outputs, inv.n_order, inv.lag) == (1, 1, 1, 1)

    def test_single_output_lag_equals_order(self, rng):
        # single-output minimal systems have observability index n
        for seed in range(5):
            gen = np.random.default_rng(seed)
            while True:
                A = gen.standard_normal((3, 3))
                A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
                try:
                    model = StateSpaceModel(
                        A,
                        gen.standard_normal((3, 1)),
                        gen.standard_normal((1, 3)),
                        gen.standard_normal((1, 1)),
                        (1,),
                        (2,),
                    )
                    break
                except MinimalityError:
                    continue
            assert invariants_of(model).lag == 3

    def test_lag_bounded_by_order(self):
        with pytest.raises(ValueError):
            from canonctrl.lti_core import IntegerInvariants

            IntegerInvariants(1, 1, 1, 2)


def per_column_window_map(model, L):
    """Reference window map: one simulation per parameter basis vector."""
    n, m, q = model.n, model.m, model.q
    M = np.empty((q * L, n + m * L))
    for j in range(n + m * L):
        theta = np.zeros(n + m * L)
        theta[j] = 1.0
        x0 = theta[:n]
        if m > 0:
            traj = simulate(model, Trajectory(theta[n:].reshape(L, m)), x0=x0)
        else:
            traj = simulate(model, T=L, x0=x0)
        M[:, j] = traj.values.reshape(-1)
    return M


class TestRestrictedBasis:
    def test_static_line(self):
        basis = restricted_behavior_basis(identity_model(), 1)
        ok, _ = subspaces_equal(basis, orthonormal_basis(np.array([[1.0], [1.0]])))
        assert ok

    def test_integrator_dimension(self):
        assert restricted_behavior_basis(integrator_model(), 2).dim == 3

    def test_horizon_one_dimension_rule(self):
        # at L=1 the image is spanned by the free input and the output range
        for seed in range(5):
            model, _ = random_minimal_model(2, 1, 2, seed=seed)
            expected = model.m + np.linalg.matrix_rank(model.C)
            assert restricted_behavior_basis(model, 1).dim == expected

    def test_dimension_law_above_lag(self):
        for seed in range(8):
            model, _ = random_minimal_model(1, 2, 2, seed=seed)
            inv = invariants_of(model)
            for L in (inv.lag + 1, inv.lag + 2):
                assert restricted_behavior_basis(model, L).dim == inv.m_inputs * L + inv.n_order

    @staticmethod
    def _dimension_cases():
        """Random minimal models, and the m = 0 and n = 0 fixtures, at L from 1 to
        n + 3, past the lag."""
        models = [random_minimal_model(1 + s % 3, 1 + s % 2, s % 6, seed=s)[0] for s in range(30)]
        models += [harness.decaying_reference(), free_model(2), identity_model()]
        for model in models:
            for L in range(1, model.n + 4):
                yield model, L

    def test_dimension_is_read_off_the_model(self):
        # the window map's input rows are free and its output rows hold O_L,
        # so its rank is m L + rank O_L at every L, below the lag too
        for model, L in self._dimension_cases():
            M = behavior_window_map(model, L)
            O_L = observability_matrix(model.A, model.C, L)
            expected = model.m * L + np.linalg.matrix_rank(O_L)
            basis = restricted_behavior_basis(model, L)
            assert basis.dim == expected == np.linalg.matrix_rank(M), (model.n, model.m, L)
            assert np.allclose(basis.basis.T @ basis.basis, np.eye(basis.dim))
            assert np.linalg.norm(M - basis.basis @ (basis.basis.T @ M)) < 1e-10 * np.linalg.norm(M)

    def test_equals_the_cut_basis_where_the_cut_keeps_as_many(self):
        compared = 0
        for model, L in self._dimension_cases():
            new = restricted_behavior_basis(model, L)
            cut = orthonormal_basis(behavior_window_map(model, L))
            if cut.dim == new.dim:
                ok, angle = subspaces_equal(new, cut, DEFAULT_ANGLE_TOL)
                assert ok, (model.n, model.m, L, angle)
                compared += 1
        assert compared >= 100

    def test_equals_the_leading_singular_vectors_of_the_window_map(self):
        # the reference: the m L + rank O_L leading left singular vectors of
        # the whole window map; O_L is rank-deficient below the lag
        zero = StateSpaceModel(np.zeros((0, 0)), [], [], [], (), ())  # n = m = 0
        below_lag = 0
        for model, L in [*self._dimension_cases(), (zero, 1), (zero, 3)]:
            rank_O = DEFAULT_RANK_TOL.rank(observability_matrix(model.A, model.C, L))
            U = np.linalg.svd(behavior_window_map(model, L), full_matrices=False)[0]
            reference = BehaviorBasis(U[:, : model.m * L + rank_O])
            basis = restricted_behavior_basis(model, L)
            assert basis.ambient_dim == model.q * L
            ok, angle = subspaces_equal(basis, reference, DEFAULT_ANGLE_TOL)
            assert ok, (model.n, model.m, L, basis.dim, reference.dim, angle)
            Q = basis.basis
            assert np.linalg.norm(Q.T @ Q - np.eye(basis.dim)) <= 1e-12
            below_lag += rank_O < model.n
        assert below_lag >= 20

    def test_window_map_shape(self):
        M = behavior_window_map(integrator_model(), 3)
        assert M.shape == (6, 4)

    def test_window_map_equals_per_column_simulation(self):
        # the input rows and the Markov block T_L are simulated, bit for bit;
        # the free block is O_L on the output rows, exactly, so it differs from
        # a simulation by rounding only: (C A^(t-1)) A against C (A ... e_j).
        # Each side is within gamma_(nL) |C| |A|^t of the exact C A^t, where
        # gamma_k = k eps / (1 - k eps) bounds k rounded products and sums
        cases = []
        for seed in range(60):
            model, _ = random_minimal_model(1 + seed % 3, 1 + seed % 2, seed % 5, seed=seed)
            cases.append((model, 1 + seed % 9))
        static_plant, _ = harness.static_plant()
        special = (harness.decaying_reference(), static_plant, free_model(2), integrator_model())
        cases += [(model, L) for model in special for L in (1, 2, 5)]
        assert len(cases) == 72
        eps = np.finfo(float).eps
        for model, L in cases:
            n, case = model.n, (model.n, model.m, L)
            M, reference = behavior_window_map(model, L), per_column_window_map(model, L)
            u_rows = channel_rows(model.input_picks, model.q, L)
            y_rows = channel_rows(model.output_picks, model.q, L)
            assert np.array_equal(M[u_rows], reference[u_rows]), case
            assert np.array_equal(M[:, n:], reference[:, n:]), case
            assert np.array_equal(M[y_rows, :n], observability_matrix(model.A, model.C, L)), case
            gamma = n * L * eps / (1 - n * L * eps)
            bound = 2 * gamma * observability_matrix(np.abs(model.A), np.abs(model.C), L)
            assert np.all(np.abs(M[y_rows, :n] - reference[y_rows, :n]) <= bound), case

    @pytest.mark.parametrize("n, L", [(0, 1), (0, 6), (3, 1), (3, 6)])
    def test_window_map_runs_m_simulations(self, monkeypatch, n, L):
        # one impulse response per input; the free responses are not simulated
        model, _ = random_minimal_model(2, 2, n, seed=7)
        assert len(window_map_simulations(monkeypatch, model, L)) == model.m

    def test_autonomous_window_map_runs_no_simulation(self, monkeypatch):
        assert window_map_simulations(monkeypatch, harness.decaying_reference(), 6) == []


def window_map_simulations(monkeypatch, model, L):
    """The `simulate` calls one window map of `model` at depth L makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(lti_core, "simulate", counted)
    behavior_window_map(model, L)
    return calls


class TestRandomModel:
    def test_deterministic(self):
        m1, p1 = random_minimal_model(2, 1, 3, seed=42)
        m2, p2 = random_minimal_model(2, 1, 3, seed=42)
        assert np.array_equal(m1.A, m2.A) and np.array_equal(m1.B, m2.B)
        assert np.array_equal(m1.C, m2.C) and np.array_equal(m1.D, m2.D)
        assert p1 == p2 and m1.input_picks == m2.input_picks
        assert m1.output_picks == m2.output_picks

    def test_always_minimal_and_stable(self):
        for seed in range(100):
            model, partition = random_minimal_model(2, 2, 3, seed=seed)
            invariants_of(model)  # raises on non-minimal
            assert np.max(np.abs(np.linalg.eigvals(model.A))) < 1.0
            assert partition.n_w == 2 and partition.n_c == 2

    def test_static_case(self):
        model, _ = random_minimal_model(1, 1, 0, seed=3)
        assert model.n == 0 and invariants_of(model).lag == 0

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(lti_core, "MODEL_DRAWS", 0)
        with pytest.raises(GenerationError, match="after 0 draws"):
            random_minimal_model(1, 1, 2, seed=0)

    def test_draw_budget_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            random_minimal_model(1, 1, 2, seed=0, max_draws=0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            random_minimal_model(0, 1, 1, seed=0)


class TestObservableRealization:
    def test_strips_unobservable_states(self, rng):
        model, _ = random_minimal_model(2, 1, 2, seed=11)
        n, m, p = model.n, model.m, model.p
        # pad with an unobservable state (zero output column): no trajectory
        # can see it, so the behavior is unchanged
        A_big = np.zeros((n + 1, n + 1))
        A_big[:n, :n] = model.A
        A_big[n, n] = 0.25
        B_big = np.vstack([model.B, rng.standard_normal((1, m))])
        C_big = np.hstack([model.C, np.zeros((p, 1))])
        Am, Bm, Cm, Dm = observable_realization(A_big, B_big, C_big, model.D)
        assert Am.shape == (n, n)
        reduced = StateSpaceModel(Am, Bm, Cm, Dm, model.input_picks, model.output_picks)
        for L in (1, 3, 5):
            ok, angle = subspaces_equal(
                restricted_behavior_basis(reduced, L),
                restricted_behavior_basis(model, L),
            )
            assert ok, f"L={L}: angle {angle}"

    def test_keeps_uncontrollable_observable_states(self, rng):
        # an autonomous mode visible in the output is genuine behavior
        model, _ = random_minimal_model(2, 1, 2, seed=11)
        n, m, p = model.n, model.m, model.p
        A_big = np.zeros((n + 1, n + 1))
        A_big[:n, :n] = model.A
        A_big[n, n] = 0.25
        B_big = np.vstack([model.B, np.zeros((1, m))])
        C_big = np.hstack([model.C, rng.standard_normal((p, 1))])
        Am, _, _, _ = observable_realization(A_big, B_big, C_big, model.D)
        assert Am.shape == (n + 1, n + 1)

    def test_already_observable_untouched(self):
        model, _ = random_minimal_model(1, 1, 2, seed=4)
        Am, _, _, _ = observable_realization(model.A, model.B, model.C, model.D)
        assert Am.shape == model.A.shape


class TestProjectionOracles:
    def test_projected_basis_matches_random_simulations(self, rng):
        # span of w-parts of random simulations equals the row selection
        for seed in range(10):
            model, partition = random_minimal_model(2, 1, 2, seed=seed)
            L = invariants_of(model).lag + 1
            rows = projected_restricted_basis(model, partition.picks_w, L)
            cols = []
            for _ in range(rows.dim + 6):
                x0 = rng.standard_normal(model.n)
                u = Trajectory(rng.standard_normal((L, model.m)))
                full = simulate(model, u, x0=x0)
                w_vals = full.values[:, [pk - 1 for pk in partition.picks_w]]
                cols.append(w_vals.reshape(-1))
            sampled = orthonormal_basis(np.column_stack(cols))
            ok, angle = subspaces_equal(rows, sampled)
            assert ok, f"seed {seed}: angle {angle}"

    def test_projected_invariants_of_full_projection(self):
        for seed in range(5):
            model, _ = random_minimal_model(2, 1, 2, seed=seed)
            inv = invariants_of(model)
            proj = projected_invariants(model, tuple(range(1, model.q + 1)))
            assert (proj.m_inputs, proj.n_order, proj.lag) == (
                inv.m_inputs,
                inv.n_order,
                inv.lag,
            )

    def test_window_map_is_prefix_of_deeper_map(self):
        for seed in range(20):
            model, _ = random_minimal_model(2, 2, seed % 4, seed=seed)
            M_hi = behavior_window_map(model, 7)
            for L in range(1, 8):
                lead = M_hi[: model.q * L, : model.n + model.m * L]
                assert np.array_equal(lead, behavior_window_map(model, L))

    def test_projected_invariants_match_per_depth_dims(self):
        # the invariants read off the profile to depth n + 2 predict the
        # per-depth bases' dimensions up to 2n + 4; the long draws are the
        # benchmark's (4, 3, 12) plants
        draws = {f"seed {s}": random_minimal_model(2, 2, s % 4, seed=s) for s in range(20)}
        draws.update({f"long draw {k}": long_draw_models(k)[:2] for k in range(4)})
        for name, (model, partition) in draws.items():
            inv = projected_invariants(model, partition.picks_w)
            for L in range(1, 2 * model.n + 5):
                d = projected_restricted_basis(model, partition.picks_w, L).dim
                affine = inv.m_inputs * L + inv.n_order
                assert (d == affine) == (L >= max(inv.lag, 1)), f"{name}, L={L}"

    def test_profile_not_affine_at_the_order_bound_raises(self, monkeypatch):
        # a rank rule that adds one dimension at depth n + 2 only bends the
        # profile where the order bound says it is affine: no lag is returned
        model, partition = random_minimal_model(2, 2, 3, seed=1)
        ref, _ = harness.integrator_plant()
        n, m, k = model.n, model.m, len(partition.picks_w)
        deepest = (k * (n + 2), n + m * (n + 2))

        class BentAtTheTop:
            def rank(self, M):
                return DEFAULT_RANK_TOL.rank(M) + (M.shape == deepest)

        monkeypatch.setattr(lti_core, "DEFAULT_RANK_TOL", BentAtTheTop())
        with pytest.raises(NumericalDegeneracyError, match="profile"):
            projected_invariants(model, partition.picks_w)
        with pytest.raises(NumericalDegeneracyError, match="profile"):
            horizon_lag(model, partition.picks_w, ref)

    def test_integrator_w_projection_is_free(self):
        model, partition = harness.integrator_plant()
        proj = projected_invariants(model, partition.picks_w)
        assert (proj.m_inputs, proj.p_outputs, proj.n_order, proj.lag) == (1, 0, 0, 0)

    def test_hidden_basis_static_is_zero(self):
        model, partition = harness.static_plant()
        U = restricted_behavior_basis(model, 2)
        assert hidden_restricted_basis(U, partition, 2).dim == 0

    def test_hidden_basis_integrator_is_constants(self):
        model, partition = harness.integrator_plant()
        N = hidden_restricted_basis(restricted_behavior_basis(model, 2), partition, 2)
        ok, _ = subspaces_equal(N, orthonormal_basis(np.array([[1.0], [1.0]])))
        assert ok

    def test_hidden_basis_rejects_basis_of_another_horizon(self):
        model, partition = harness.integrator_plant()
        with pytest.raises(DimensionError):
            hidden_restricted_basis(restricted_behavior_basis(model, 2), partition, 3)

    def test_hidden_inside_uncontrolled(self):
        for seed in range(20):
            model, partition = random_minimal_model(2, 2, 2, seed=seed)
            L = invariants_of(model).lag + 1
            N = hidden_restricted_basis(restricted_behavior_basis(model, L), partition, L)
            Pw = projected_restricted_basis(model, partition.picks_w, L)
            from canonctrl.subspace import is_subspace_of

            assert is_subspace_of(N, Pw)[0]


class TestProductAndFree:
    def test_free_model_behavior_is_everything(self):
        model = free_model(2)
        assert restricted_behavior_basis(model, 3).dim == 6

    def test_product_dims(self):
        prod = product_model(integrator_model(), identity_model())
        assert prod.q == 4 and prod.n == 1
        inv = invariants_of(prod)
        assert inv.m_inputs == 2 and inv.n_order == 1


class TestModelJson:
    @pytest.mark.parametrize(
        "model",
        [
            identity_model(),
            integrator_model(),
            harness.decaying_reference(),
            free_model(2),
            random_minimal_model(2, 2, 3, seed=9)[0],
        ],
    )
    def test_round_trip(self, tmp_path, model):
        path = tmp_path / "model.json"
        write_model_json(path, model)
        back = read_model_json(path)
        assert np.allclose(back.A, model.A) and np.allclose(back.B, model.B)
        assert np.allclose(back.C, model.C) and np.allclose(back.D, model.D)
        assert back.input_picks == model.input_picks
        assert back.output_picks == model.output_picks

    def test_dict_fields(self):
        d = model_to_dict(identity_model())
        assert set(d) == {"A", "B", "C", "D", "picks_w", "picks_c"}
        assert model_from_dict(d).q == 2

    def test_wrongly_sized_matrix_named(self):
        d = model_to_dict(random_minimal_model(2, 1, 3, seed=9)[0])
        d["B"] = d["B"][:-1]
        with pytest.raises(DimensionError, match="B must have shape"):
            model_from_dict(d)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("D", [[True]], "D entries must be JSON numbers"),
            ("D", [["1"]], "D entries must be JSON numbers"),
            ("D", "1", "D entries must be JSON numbers"),
            ("D", [[None]], "D entries must be JSON numbers"),
            ("A", [[False]], "A entries must be JSON numbers"),
            ("D", [[float("nan")]], "D has a non-finite entry"),
            ("B", [[float("inf")]], "B has a non-finite entry"),
            ("A", [[-float("inf")]], "A has a non-finite entry"),
            ("C", [[-(10**400)]], "C has a non-finite entry"),
        ],
    )
    def test_non_number_entry_rejected(self, name, value, message):
        d = model_to_dict(integrator_model())
        d[name] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(d)

    @pytest.mark.parametrize("name", ["picks_w", "picks_c"])
    @pytest.mark.parametrize("value", [2, None, 2.0, "1"])
    def test_non_list_picks_named(self, name, value):
        d = model_to_dict(integrator_model())
        d[name] = value
        with pytest.raises(ValueError, match=f"{name} must be a JSON list"):
            model_from_dict(d)

    @pytest.mark.parametrize("key", ["A", "B", "C", "D", "picks_w", "picks_c"])
    def test_missing_key_named_with_the_file(self, tmp_path, key):
        d = model_to_dict(integrator_model())
        del d[key]
        with pytest.raises(ValueError, match=f"a model has no key '{key}'"):
            model_from_dict(d)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"model.json: the model has no key '{key}'"):
            read_model_json(path)

    def test_invalid_json_named_with_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="model.json: not valid JSON"):
            read_model_json(path)

    @pytest.mark.parametrize("payload", [[1, 2], 3, None, "model"])
    def test_non_object_rejected(self, payload):
        with pytest.raises(ValueError, match="a model must be a JSON object"):
            model_from_dict(payload)

    def test_non_finite_matrix_rejected_by_the_model(self):
        with pytest.raises(ValueError, match="C has a non-finite entry"):
            StateSpaceModel([[0.5]], [[1.0]], [[np.nan]], [[0.0]], (1,), (2,))

    @pytest.mark.parametrize(
        "name, token",
        [
            ("D", "[[true]]"),
            ("D", '[["1"]]'),
            ("D", "[[NaN]]"),
            ("B", "[[Infinity]]"),
            ("B", "[1.0]"),
            ("A", "[[1.0], [1.0, 2.0]]"),
            ("B", "[[1.0], [1.0, 2.0]]"),
            ("C", "[[1.0], [1.0, 2.0]]"),
        ],
    )
    def test_simulate_rejects_the_model_json(self, tmp_path, capsys, name, token):
        d = model_to_dict(integrator_model())
        d[name] = "TOKEN"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(d).replace('"TOKEN"', token))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--model", str(model), "--T", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {name} ")
        assert not out.exists()

    def test_simulate_rejects_a_transposed_output_matrix(self, tmp_path, capsys):
        # C is 1 x 2: its 2 x 1 transpose has the right size but not the right shape
        d = {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]], "C": [[1.0], [1.0]]}
        d.update(D=[[0.0]], picks_w=[1], picks_c=[2])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(d))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--model", str(model), "--T", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: C must have shape (1, 2)")
        assert not out.exists()

    @pytest.mark.parametrize("A", [0.5, [0.5]])
    def test_unnested_state_matrix_rejected(self, A):
        d = model_to_dict(integrator_model())
        d["A"] = A
        with pytest.raises(DimensionError, match="A must be square"):
            model_from_dict(d)
