import json
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from canonctrl import harness, subspace
from canonctrl.canonical import (
    ClosedLoopReport,
    ControllerBasis,
    PermutationPlan,
    controller_basis,
    controller_basis_intersection_route,
    lift_controller,
    plant_projector,
    read_controller_csv,
    reference_lift_projector,
    synthesize,
    verify_closed_loop,
    write_controller_csv,
)
from canonctrl.errors import DimensionError
from canonctrl.implementability import (
    DataBundle,
    InvariantBounds,
    check_data,
    check_model,
    reference_basis,
)
from canonctrl.lti_core import invariants_of, product_model, restricted_behavior_basis
from canonctrl.signal import Trajectory, arrange_by_partition, channel_rows, hankel
from canonctrl.subspace import (
    Projector,
    intersect,
    image_basis,
    orthonormal_basis,
    principal_angles,
    projector_onto,
    subspaces_equal,
)
from conftest import dense_controller_formula, free_model


def line(*vals):
    return orthonormal_basis(np.array(vals, dtype=float).reshape(-1, 1))


@pytest.fixture
def static_setup():
    plant, partition = harness.static_plant()
    data = arrange_by_partition(harness.plant_data(plant, 40, seed=7), partition)
    ref = harness.decaying_reference_data(40)
    return data, ref


def block_to_canonical(plan: PermutationPlan) -> np.ndarray:
    """The permutation matrix Pi with Pi @ (all w samples, then all c samples) canonical."""
    return np.eye(plan.ambient_dim)[:, np.concatenate([plan.w_rows, plan.c_rows])]


class TestPermutationPlan:
    def test_rows_partition_indices(self):
        plan = PermutationPlan(2, 1, 3)
        combined = np.sort(np.concatenate([plan.w_rows, plan.c_rows]))
        assert np.array_equal(combined, np.arange(plan.ambient_dim))

    def test_rows_match_channel_rows(self):
        plan = PermutationPlan(2, 3, 2)
        assert np.array_equal(plan.w_rows, channel_rows((1, 2), 5, 2))
        assert np.array_equal(plan.c_rows, channel_rows((3, 4, 5), 5, 2))

    def test_reference_lift_is_conjugated_block_form(self, static_setup):
        _, ref = static_setup
        plan = PermutationPlan(1, 2, 3)
        Pi = block_to_canonical(plan)
        Q = reference_basis(ref, 3).basis
        block = scipy.linalg.block_diag(Q @ Q.T, np.eye(6))
        P = reference_lift_projector(ref, 2, 3, plan)
        assert np.array_equal(P.matrix, Pi @ block @ Pi.T)

    def test_controller_lift_is_permuted_block_form(self, rng):
        plan = PermutationPlan(2, 1, 3)
        Qc = orthonormal_basis(rng.standard_normal((3, 2)))
        Pi = block_to_canonical(plan)
        block = scipy.linalg.block_diag(np.eye(6), Qc.basis)
        lift = lift_controller(ControllerBasis(Qc, 1, 3), plan)
        assert subspaces_equal(lift, orthonormal_basis(Pi @ block))[0]
        # orthonormal as assembled, with no factorization
        assert np.abs(lift.basis.T @ lift.basis - np.eye(lift.dim)).max() < 1e-14


class TestPlantProjector:
    def test_static_depth_one(self, static_setup):
        data, _ = static_setup
        P = plant_projector(data, 1)
        assert np.allclose(P.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_image_matches_model_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            plant, partition = harness.random_plant(2, 1, 2, rng)
            L = invariants_of(plant).lag + 1
            T = harness.gpe_length(plant.m, plant.n, L, plant.q)
            data = arrange_by_partition(
                harness.gpe_trajectory(plant, L, T, rng), partition
            )
            P = plant_projector(data, L)
            # the oracle basis, with channels rearranged into (w, c) order
            oracle = restricted_behavior_basis(plant, L)
            rows = channel_rows(
                partition.picks_w + partition.picks_c, plant.q, L
            )
            oracle_arranged = orthonormal_basis(oracle.basis[rows, :])
            ok, angle = subspaces_equal(image_basis(P), oracle_arranged)
            assert ok, f"seed {seed}: angle {angle}"

    def test_rank_law(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 50)
            plant, partition = harness.random_plant(1, 2, 2, rng)
            inv = invariants_of(plant)
            L = inv.lag + 1
            T = harness.gpe_length(plant.m, plant.n, L, plant.q)
            data = arrange_by_partition(
                harness.gpe_trajectory(plant, L, T, rng), partition
            )
            assert image_basis(plant_projector(data, L)).dim == inv.m_inputs * L + inv.n_order


class TestReferenceLiftProjector:
    def test_full_reference_gives_identity(self, rng):
        plan = PermutationPlan(1, 1, 2)
        ref = Trajectory(rng.standard_normal((20, 1)))  # free scalar behavior
        P = reference_lift_projector(ref, 1, 2, plan)
        assert np.allclose(P.matrix, np.eye(4))

    def test_zero_reference_gives_control_mask(self):
        plan = PermutationPlan(1, 1, 2)
        ref = Trajectory(np.zeros((20, 1)))
        P = reference_lift_projector(ref, 1, 2, plan)
        expected = np.diag([0.0, 1.0, 0.0, 1.0])  # (w1, c1, w2, c2) layout
        assert np.allclose(P.matrix, expected)

    def test_image_matches_product_behavior_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed + 10)
            ref_model = harness.random_reference_model(2, 2, rng)
            k = 2
            L = invariants_of(ref_model).lag + 1
            T = harness.gpe_length(ref_model.m, ref_model.n, L, ref_model.q)
            ref_data = harness.gpe_trajectory(ref_model, L, T, rng)
            plan = PermutationPlan(2, k, L)
            P = reference_lift_projector(ref_data, k, L, plan)
            lifted = product_model(ref_model, free_model(k))
            oracle = restricted_behavior_basis(lifted, L)
            ok, angle = subspaces_equal(image_basis(P), oracle)
            assert ok, f"seed {seed}: angle {angle}"

    def test_plan_mismatch(self, rng):
        plan = PermutationPlan(2, 1, 2)
        with pytest.raises(DimensionError):
            reference_lift_projector(Trajectory(rng.standard_normal((10, 1))), 1, 2, plan)


class TestControllerBasis:
    def test_static_decaying_controller(self, static_setup):
        data, ref = static_setup
        plan = PermutationPlan(1, 1, 2)
        P_p = plant_projector(data, 2)
        P_r = reference_lift_projector(ref, 1, 2, plan)
        ctrl = controller_basis(P_r, P_p, plan)
        assert ctrl.dim == 1
        ok, angle = subspaces_equal(ctrl.basis, line(1.0, 0.5))
        assert ok and angle < 1e-8

    def test_full_reference_gives_full_controller(self, static_setup, rng):
        data, _ = static_setup
        plan = PermutationPlan(1, 1, 2)
        P_p = plant_projector(data, 2)
        free_ref = Trajectory(rng.standard_normal((30, 1)))
        P_r = reference_lift_projector(free_ref, 1, 2, plan)
        ctrl = controller_basis(P_r, P_p, plan)
        assert ctrl.dim == 2  # all of the c coordinate space

    def test_matches_model_pipeline_oracle(self):
        # data formula versus intersect-then-project on exact model bases
        for seed in range(10):
            case = harness.build_case(seed * 2 + 4000, "closed_loop")
            q_w, q_c, L = case.wc_partition.n_w, case.wc_partition.n_c, case.L
            plan = PermutationPlan(q_w, q_c, L)
            arranged = arrange_by_partition(case.plant_traj, case.wc_partition)
            ctrl = controller_basis(
                reference_lift_projector(case.ref_traj, q_c, L, plan),
                plant_projector(arranged, L),
                plan,
            )
            # oracle: exact plant basis and exact lifted reference basis
            plant_rows = channel_rows(
                case.wc_partition.picks_w + case.wc_partition.picks_c,
                case.plant.q,
                L,
            )
            plant_basis = orthonormal_basis(
                restricted_behavior_basis(case.plant, L).basis[plant_rows, :]
            )
            lifted_model = product_model(case.ref_model, free_model(q_c))
            lift_basis = orthonormal_basis(
                restricted_behavior_basis(lifted_model, L).basis
            )
            P_int = intersect(projector_onto(plant_basis), projector_onto(lift_basis))
            oracle = orthonormal_basis(
                image_basis(P_int).basis[plan.c_rows, :], scale=1.0
            )
            ok, angle = subspaces_equal(ctrl.basis, oracle, 1e-8)
            assert ok, f"seed {seed * 2 + 4000}: angle {angle}"

    def test_matches_dense_formula_on_both_branches(self):
        # seeds 2, 3, 5, 18, 20, 27 and 33 have r_r + r_p <= d and evaluate
        # the formula on the coefficient Gram K; the others on the d x d Gram
        branches = set()
        for seed in range(40):
            case = harness.build_case(seed, "closed_loop")
            plan = PermutationPlan(case.wc_partition.n_w, case.wc_partition.n_c, case.L)
            P_p = plant_projector(arrange_by_partition(case.plant_traj, case.wc_partition), case.L)
            P_r = reference_lift_projector(case.ref_traj, plan.k, case.L, plan)
            branches.add(P_r.basis.dim + P_p.basis.dim <= plan.ambient_dim)
            ctrl = controller_basis(P_r, P_p, plan)
            dense = dense_controller_formula(P_r, P_p, plan)
            assert ctrl.dim == dense.dim, seed
            if ctrl.dim:
                assert principal_angles(ctrl.basis, dense)[0] < 1e-8, seed
        assert branches == {True, False}

    def test_coefficient_gram_branch_memory(self, rng):
        # long-horizon's shapes: q = k = 2, L = 120 (d = 480), a rank-5
        # reference lifted to r = 5 + 240 columns and a rank-124 plant, so K
        # is 369 x 369.  Beyond its inputs the step holds K and at most two
        # more arrays of its size.
        plan = PermutationPlan(2, 2, 120)
        A = np.linalg.qr(rng.standard_normal((5, 5)))[0]  # a 5-state rotation
        x, samples = rng.standard_normal(5), []
        C = rng.standard_normal((2, 5))
        for _ in range(400):
            samples.append(C @ x)
            x = A @ x
        P_r = reference_lift_projector(Trajectory(np.array(samples)), 2, 120, plan)
        shared = P_r.basis.basis @ rng.standard_normal((245, 4))
        plant = np.hstack([shared, rng.standard_normal((480, 120))])
        P_p = projector_onto(orthonormal_basis(plant))
        assert (P_r.basis.dim, P_p.basis.dim) == (245, 124)
        plan.c_rows  # cached before tracing
        tracemalloc.start()
        try:
            ctrl = controller_basis(P_r, P_p, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ctrl.dim == 4
        assert peak <= 3.3 * 369**2 * 8, peak / (369**2 * 8)

    def test_two_routes_agree(self, static_setup):
        data, ref = static_setup
        plan = PermutationPlan(1, 1, 2)
        P_p = plant_projector(data, 2)
        P_r = reference_lift_projector(ref, 1, 2, plan)
        a = controller_basis(P_r, P_p, plan)
        b = controller_basis_intersection_route(P_r, P_p, plan)
        ok, angle = subspaces_equal(a.basis, b.basis)
        assert ok and angle < 1e-8


class TestVerifyClosedLoop:
    def test_zero_controller_on_integrator_yields_constants(self):
        plant, partition = harness.integrator_plant()
        data = arrange_by_partition(harness.plant_data(plant, 40, seed=3), partition)
        plan = PermutationPlan(1, 1, 2)
        zero_ctrl = ControllerBasis(orthonormal_basis(np.zeros((2, 0))), 1, 2)
        P_basis = orthonormal_basis(hankel(data, 2))
        constants = orthonormal_basis(np.array([[1.0], [1.0]]))
        ok, report = verify_closed_loop(P_basis, zero_ctrl, constants, plan)
        assert ok and report.verified

    def test_full_controller_yields_uncontrolled_behavior(self):
        plant, partition = harness.integrator_plant()
        data = arrange_by_partition(harness.plant_data(plant, 40, seed=3), partition)
        plan = PermutationPlan(1, 1, 2)
        full_ctrl = ControllerBasis(orthonormal_basis(np.eye(2)), 1, 2)
        P_basis = orthonormal_basis(hankel(data, 2))
        uncontrolled = orthonormal_basis(np.eye(2))  # integrator reaches all of R^2
        ok, _ = verify_closed_loop(P_basis, full_ctrl, uncontrolled, plan)
        assert ok

    def test_non_implementable_reference_rejected(self):
        plant, partition = harness.integrator_plant()
        data = arrange_by_partition(harness.plant_data(plant, 40, seed=3), partition)
        ref = harness.decaying_reference_data(40)
        plan = PermutationPlan(1, 1, 2)
        P_p = plant_projector(data, 2)
        P_r = reference_lift_projector(ref, 1, 2, plan)
        ctrl = controller_basis(P_r, P_p, plan)
        P_basis = orthonormal_basis(hankel(data, 2))
        ok, report = verify_closed_loop(P_basis, ctrl, reference_basis(ref, 2), plan)
        assert not ok
        assert report.max_angle > 1e-8

    def test_loop_nonempty_whenever_reference_is(self):
        # interconnecting the canonical controller never empties the loop
        for seed in (6000, 6002, 6004):
            case = harness.build_case(seed, "closed_loop")
            plan = PermutationPlan(case.wc_partition.n_w, case.wc_partition.n_c, case.L)
            arranged = arrange_by_partition(case.plant_traj, case.wc_partition)
            ctrl = controller_basis(
                reference_lift_projector(case.ref_traj, plan.k, case.L, plan),
                plant_projector(arranged, case.L),
                plan,
            )
            R_basis = reference_basis(case.ref_traj, case.L)
            _, report = verify_closed_loop(
                orthonormal_basis(hankel(arranged, case.L)), ctrl, R_basis, plan
            )
            if R_basis.dim > 0:
                assert report.dim_controlled > 0

    def test_zero_reference_on_static_plant(self):
        # the zero behavior is implementable on the w = c plant; the
        # canonical controller and the controlled behavior both collapse to 0
        plant, partition = harness.static_plant()
        data = arrange_by_partition(harness.plant_data(plant, 40, seed=3), partition)
        zero_ref = Trajectory(np.zeros((40, 1)))
        plan = PermutationPlan(1, 1, 2)
        ctrl = controller_basis(
            reference_lift_projector(zero_ref, 1, 2, plan),
            plant_projector(data, 2),
            plan,
        )
        assert ctrl.dim == 0
        ok, report = verify_closed_loop(
            orthonormal_basis(hankel(data, 2)),
            ctrl,
            reference_basis(zero_ref, 2),
            plan,
        )
        assert ok and report.dim_controlled == 0

    def test_report_serializes(self):
        report = ClosedLoopReport(True, 0.0, (0.0,), 1, 1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verified"] is True


class TestSynthesize:
    def test_static_plant_decaying_reference(self):
        plant, partition = harness.static_plant()
        bundle = DataBundle(
            harness.plant_data(plant, 40, seed=3),
            harness.decaying_reference_data(40),
            2,
            partition,
            InvariantBounds(1, 0, 0, 1, 0),
        )
        syn = synthesize(bundle)
        assert syn.report.verified
        expected = orthonormal_basis(np.array([[1.0], [0.5]]))
        assert subspaces_equal(syn.controller.basis, expected)[0]

    def test_integrator_decaying_reference_not_verified(self):
        plant, partition = harness.integrator_plant()
        bundle = DataBundle(
            harness.plant_data(plant, 40, seed=3),
            harness.decaying_reference_data(40),
            2,
            partition,
            InvariantBounds(1, 1, 0, 1, 1),
        )
        syn = synthesize(bundle)
        assert not syn.report.verified
        assert syn.report.max_angle > 1e-8

    def test_stale_positional_rank_tolerance_is_a_type_error(self):
        # the rank rule is no parameter; a tolerance passed where it once went
        # fails at the call, not later as a residual or angle tolerance.  The
        # residual and angle tolerances are fixed too: naming one fails as well.
        plant, partition = harness.static_plant()
        bundle = DataBundle(
            harness.plant_data(plant, 40, seed=3),
            harness.decaying_reference_data(40),
            2,
            partition,
            InvariantBounds(1, 0, 0, 1, 0),
        )
        syn = synthesize(bundle)
        R_basis = reference_basis(bundle.ref_traj, 2)
        stale = subspace.RankTolerance()
        calls = (
            lambda: check_data(bundle, stale),
            lambda: check_model(plant, partition, harness.decaying_reference(), 2, stale),
            lambda: synthesize(bundle, stale),
            lambda: verify_closed_loop(syn.P_p.basis, syn.controller, R_basis, syn.plan, stale),
            lambda: orthonormal_basis(np.eye(2), stale),
            lambda: check_data(bundle, residual_tol=1.0),
            lambda: check_model(
                plant, partition, harness.decaying_reference(), 2, residual_tol=1.0
            ),
            lambda: synthesize(bundle, angle_tol=1e-40),
            lambda: verify_closed_loop(
                syn.P_p.basis, syn.controller, R_basis, syn.plan, angle_tol=1e-40
            ),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_matches_step_by_step_sequence(self):
        for seed in (6000, 6002, 6004):
            case = harness.build_case(seed, "closed_loop")
            bundle = DataBundle(
                case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
            )
            syn = synthesize(bundle)
            plan = PermutationPlan(case.wc_partition.n_w, case.wc_partition.n_c, case.L)
            arranged = arrange_by_partition(case.plant_traj, case.wc_partition)
            P_p = plant_projector(arranged, case.L)
            ctrl = controller_basis(
                reference_lift_projector(case.ref_traj, plan.k, case.L, plan), P_p, plan
            )
            assert syn.plan == plan
            assert subspaces_equal(syn.controller.basis, ctrl.basis)[0]
            # the plant basis read off P_p is the Hankel image
            assert subspaces_equal(
                image_basis(P_p), orthonormal_basis(hankel(arranged, case.L))
            )[0]
            assert syn.report.verified, seed

    @pytest.mark.parametrize("seed", [2, 4])  # r_r + r_p <= d, then > d
    def test_no_projector_matrix_formed(self, seed, monkeypatch):
        case = harness.build_case(seed, "closed_loop")
        bundle = DataBundle(
            case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
        )
        expected = synthesize(bundle).controller.dim

        def no_matrix(self):
            raise AssertionError("Projector.matrix formed")

        monkeypatch.setattr(Projector, "matrix", property(no_matrix))
        syn = synthesize(bundle)
        assert syn.controller.dim == expected
        assert syn.report.verified

    def test_one_hankel_matrix_per_trajectory(self, hankel_calls):
        case = harness.build_case(6000, "closed_loop")
        bundle = DataBundle(
            case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
        )
        hankel_calls.clear()  # the excitation tests of the case's construction
        assert synthesize(bundle).report.verified
        assert len(hankel_calls) == 2
        ref_calls = [w for w in hankel_calls if w is bundle.ref_traj]
        plant_calls = [w for w in hankel_calls if w is not bundle.ref_traj]
        assert len(ref_calls) == 1 and plant_calls == [bundle.plant_traj]

    def test_check_then_synthesize_factors_each_trajectory_once(self, hankel_calls):
        case = harness.build_case(6000, "closed_loop")  # channels not in (w, c) order
        bundle = DataBundle(
            case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
        )
        hankel_calls.clear()  # the excitation tests of the case's construction
        assert check_data(bundle).implementable
        assert synthesize(bundle).report.verified
        assert len(hankel_calls) == 2
        assert {id(w) for w in hankel_calls} == {id(bundle.plant_traj), id(bundle.ref_traj)}

    def test_report_is_verification_against_reference_basis(self):
        for seed, kind in ((6000, "closed_loop"), (6001, "adversarial")):
            case = harness.build_case(seed, kind)
            bundle = DataBundle(
                case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
            )
            syn = synthesize(bundle)
            verified, report = verify_closed_loop(
                syn.P_p.basis, syn.controller, reference_basis(case.ref_traj, case.L), syn.plan
            )
            assert report == syn.report and verified == syn.report.verified

    def test_no_square_factorization(self, monkeypatch):
        case = harness.build_case(6000, "closed_loop")
        bundle = DataBundle(
            case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
        )
        d = (case.wc_partition.n_w + case.wc_partition.n_c) * case.L
        square_calls = []
        original_basis = subspace.orthonormal_basis

        def counting_basis(M, *args, **kwargs):
            if np.shape(M) == (d, d):
                square_calls.append(np.shape(M))
            return original_basis(M, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "canonctrl":
                continue
            if getattr(mod, "orthonormal_basis", None) is original_basis:
                monkeypatch.setattr(mod, "orthonormal_basis", counting_basis)
        assert synthesize(bundle).report.verified
        # the closed-loop intersection is a section of the plant basis, and
        # the plant and reference bases are the ones the projectors hold
        assert square_calls == []


class TestControllerExport:
    def test_round_trip(self, tmp_path, static_setup):
        data, ref = static_setup
        plan = PermutationPlan(1, 1, 2)
        ctrl = controller_basis(
            reference_lift_projector(ref, 1, 2, plan), plant_projector(data, 2), plan
        )
        path = tmp_path / "controller.csv"
        write_controller_csv(path, ctrl)
        sidecar = json.loads((tmp_path / "controller.json").read_text())
        assert sidecar == {"k": 1, "L": 2, "layout": "interleaved-time-major"}
        back = read_controller_csv(path)
        assert back.k == 1 and back.L == 2
        assert subspaces_equal(back.basis, ctrl.basis)[0]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1.0\nnan\n", "non-finite entry on line 2"),
            ("1.0,2.0\n3.0\n", "ragged row on line 2"),
            ("1.0\n\nx\n", "non-numeric entry on line 3"),
        ],
    )
    def test_malformed_basis_rejected_with_line(self, tmp_path, rows, message):
        path = tmp_path / "controller.csv"
        path.write_text(rows)
        (tmp_path / "controller.json").write_text('{"k": 1, "L": 2}')
        with pytest.raises(ValueError, match=message):
            read_controller_csv(path)

    @pytest.mark.parametrize(
        "sidecar",
        [{"k": 1.9, "L": 2}, {"k": True, "L": 2}, {"k": 1, "L": 2.0}, {"k": 1, "L": "2"}],
    )
    def test_non_integer_sidecar_rejected(self, tmp_path, sidecar):
        # int() would read k = 1.9 and k = true as k = 1
        path = tmp_path / "controller.csv"
        path.write_text("1.0\n0.0\n")
        (tmp_path / "controller.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=r"controller\.json: (k|L) must be an integer, got"):
            read_controller_csv(path)

    @pytest.mark.parametrize(
        "sidecar, rows, message",
        [
            # k * L = 2 matches the two rows, and k = 0 matches an empty file
            ({"k": -1, "L": -2}, "1.0\n0.0\n", "k must be >= 1, got -1"),
            ({"k": 1, "L": -2}, "1.0\n0.0\n", "L must be >= 1, got -2"),
            ({"k": 0, "L": 5}, "", "k must be >= 1, got 0"),
        ],
        ids=["k=-1,L=-2", "L=-2", "k=0,empty"],
    )
    def test_sidecar_count_below_one_rejected(self, tmp_path, sidecar, rows, message):
        path = tmp_path / "controller.csv"
        path.write_text(rows)
        (tmp_path / "controller.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=rf"controller\.json: {message}$"):
            read_controller_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"L": 2}', "controller.json: the sidecar has no key 'k'"),
            ('{"k": 1}', "controller.json: the sidecar has no key 'L'"),
            ("{not json", "controller.json: not valid JSON"),
        ],
    )
    def test_unreadable_sidecar_named(self, tmp_path, text, message):
        path = tmp_path / "controller.csv"
        path.write_text("1.0\n0.0\n")
        (tmp_path / "controller.json").write_text(text)
        with pytest.raises(ValueError, match=message):
            read_controller_csv(path)

    @pytest.mark.parametrize("sidecar", [[1, 2], 2, None])
    def test_non_object_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "controller.csv"
        path.write_text("1.0\n0.0\n")
        (tmp_path / "controller.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="controller.json: the sidecar must be a JSON object"):
            read_controller_csv(path)

    def test_empty_file_is_zero_dim_controller(self, tmp_path):
        ctrl = ControllerBasis(orthonormal_basis(np.zeros((4, 0))), 2, 2)
        path = tmp_path / "controller.csv"
        write_controller_csv(path, ctrl)
        for text in ("\r\n" * 4, ""):  # blank rows are skipped
            path.write_text(text)
            back = read_controller_csv(path)
            assert (back.k, back.L, back.dim, back.basis.ambient_dim) == (2, 2, 0, 4)

    def test_zero_dim_controller_writes_empty_file(self, tmp_path):
        ctrl = ControllerBasis(orthonormal_basis(np.zeros((4, 0))), 2, 2)
        path = tmp_path / "controller.csv"
        write_controller_csv(path, ctrl)
        assert path.stat().st_size == 0
        with pytest.warns(UserWarning, match="no data"):
            assert np.loadtxt(path, delimiter=",", ndmin=2).shape[0] == 0
        back = read_controller_csv(path)
        assert (back.k, back.L, back.dim, back.basis.ambient_dim) == (2, 2, 0, 4)

    def test_lift_shape(self):
        plan = PermutationPlan(2, 1, 2)
        ctrl = ControllerBasis(orthonormal_basis(np.eye(2)[:, :1]), 1, 2)
        lifted = lift_controller(ctrl, plan)
        assert lifted.ambient_dim == 6 and lifted.dim == 5
