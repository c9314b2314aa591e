import json
import tracemalloc

import numpy as np
import pytest

from canonctrl import harness, implementability, lti_core
from canonctrl.canonical import (
    controller_basis_intersection_route,
    synthesize,
    verify_closed_loop,
)
from canonctrl.errors import (
    DimensionError,
    GenerationError,
    HorizonError,
    InfeasibleRankError,
    PartitionError,
)
from canonctrl.implementability import (
    DataBundle,
    InvariantBounds,
    check_data,
    check_model,
    hidden_basis,
    reference_basis,
    uncontrolled_basis,
)
from canonctrl.lti_core import horizon_lag, invariants_of
from canonctrl.signal import (
    Partition,
    Trajectory,
    channel_rows,
    hankel,
    hankel_image,
    is_gpe,
)
from canonctrl.subspace import (
    DEFAULT_ANGLE_TOL,
    orthonormal_basis,
    principal_angles,
    subspaces_equal,
)

from conftest import free_model, long_draw_models


@pytest.fixture
def static_case():
    plant, partition = harness.static_plant()
    return plant, partition, harness.plant_data(plant, 40, seed=7)


@pytest.fixture
def integrator_case():
    plant, partition = harness.integrator_plant()
    return plant, partition, harness.plant_data(plant, 40, seed=7)


@pytest.fixture
def decay_ref():
    return harness.decaying_reference(), harness.decaying_reference_data(40)


class TestHiddenBasis:
    def test_static_plant_hidden_is_zero(self, static_case):
        _, partition, data = static_case
        assert hidden_basis(data, partition, 2).dim == 0

    def test_integrator_hidden_is_constants(self, integrator_case):
        _, partition, data = integrator_case
        N = hidden_basis(data, partition, 2)
        ok, angle = subspaces_equal(N, orthonormal_basis(np.array([[1.0], [1.0]])))
        assert ok, angle

    def test_zero_control_data_degenerates_to_full_hankel(self):
        # c identically zero: the annihilator is the identity
        rng = np.random.default_rng(0)
        w = rng.standard_normal((20, 1))
        data = Trajectory(np.column_stack([w, np.zeros(20)]))
        partition = Partition(2, (1,), (2,))
        N = hidden_basis(data, partition, 3)
        H = orthonormal_basis(hankel(Trajectory(data.values[:, [0]]), 3))
        assert subspaces_equal(N, H)[0]

    def test_partition_required(self, static_case):
        _, _, data = static_case
        # an empty block is no control split, so no such Partition reaches hidden_basis
        with pytest.raises(PartitionError):
            hidden_basis(data, Partition(2, (), (1, 2)), 2)

    def test_matches_model_oracle_on_random_cases(self):
        nonzero = 0
        for seed in range(60):
            kind = "closed_loop" if seed % 2 == 0 else "adversarial"
            case = harness.build_case(seed, kind)
            N_data = hidden_basis(case.plant_traj, case.wc_partition, case.L)
            N_model = lti_core.hidden_restricted_basis(
                lti_core.restricted_behavior_basis(case.plant, case.L),
                case.wc_partition,
                case.L,
            )
            ok, angle = subspaces_equal(N_data, N_model)
            assert ok, f"seed {seed}: dims {N_data.dim}/{N_model.dim}, angle {angle:.3e}"
            nonzero += N_model.dim > 0
        assert nonzero >= 30  # the cases exercise nontrivial hidden behaviors


def _control_block(plant, partition):
    """Which of the plant's inputs and outputs the control channels hold."""
    pinned = [pick in partition.picks_c for pick in plant.input_picks]
    held = [pick in partition.picks_c for pick in plant.output_picks]
    return {(True, False): "inputs", (False, True): "outputs", (True, True): "both"}[
        (any(pinned), any(held))
    ]


class TestPinnedHiddenBasis:
    """The oracle's hidden behavior, cut from the windows whose control inputs vanish."""

    @staticmethod
    def _cases():
        cases = [(*harness.static_plant(), 1), (*harness.static_plant(), 3)]
        cases += [(*harness.integrator_plant(), L) for L in (1, 2, 4)]
        for seed in range(40):
            plant, partition = lti_core.random_minimal_model(
                1 + seed % 3, 1 + seed % 2, seed % 5, seed=seed
            )
            cases += [(plant, partition, L) for L in (1, plant.n + 2)]
        return cases

    def test_equals_the_section_of_the_unpinned_basis(self):
        seen = {"inputs": 0, "outputs": 0, "both": 0}
        for plant, partition, L in self._cases():
            U, U_pinned = lti_core.restricted_behavior_bases(plant, L, partition.picks_c)
            pinned = lti_core.hidden_restricted_basis(U_pinned, partition, L)
            unpinned = lti_core.hidden_restricted_basis(
                lti_core.restricted_behavior_basis(plant, L), partition, L
            )
            ok, angle = subspaces_equal(pinned, unpinned, DEFAULT_ANGLE_TOL)
            assert ok, (plant.n, plant.m, L, pinned.dim, unpinned.dim, angle)
            ok, angle = subspaces_equal(U, lti_core.restricted_behavior_basis(plant, L))
            assert ok, (plant.n, plant.m, L, angle)
            seen[_control_block(plant, partition)] += 1
        assert min(seen.values()) >= 10, seen

    def test_pinned_windows_hold_zero_control_inputs(self):
        # the fixtures' control channel is their input: the pinned basis is
        # the free responses alone, zero on every c sample
        for plant, partition in (harness.static_plant(), harness.integrator_plant()):
            _, U_pinned = lti_core.restricted_behavior_bases(plant, 3, partition.picks_c)
            assert U_pinned.dim == plant.n
            c_rows = channel_rows(partition.picks_c, plant.q, 3)
            assert np.array_equal(U_pinned.basis[c_rows], np.zeros((3, plant.n)))

    def test_nothing_pinned_when_the_control_block_holds_outputs_only(self):
        compared = 0
        for plant, partition, L in self._cases():
            if _control_block(plant, partition) == "outputs":
                U, U_pinned = lti_core.restricted_behavior_bases(plant, L, partition.picks_c)
                assert np.array_equal(U.basis, U_pinned.basis)
                compared += 1
        assert compared >= 10


class TestBundlePartition:
    """A bundle's plant goes with the bundle's partition, in the plant's own channel order."""

    @pytest.fixture
    def out_of_order(self):
        case = harness.build_case(6018, "closed_loop")  # picks_w (2, 3), picks_c (1,)
        bundle = DataBundle(case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds)
        return case, bundle

    @pytest.mark.parametrize("basis", [hidden_basis, uncontrolled_basis])
    def test_bundle_pair_matches_raw_pair(self, out_of_order, basis):
        case, bundle = out_of_order
        raw = basis(case.plant_traj, case.wc_partition, case.L)
        assert 0 < raw.dim < case.wc_partition.n_w * case.L
        assert subspaces_equal(basis(bundle.plant_traj, bundle.partition, case.L), raw)[0]
        # the arranged plant with the caller's partition reads other channels
        mixed = basis(bundle.plant_traj, case.wc_partition, case.L)
        assert not subspaces_equal(mixed, raw)[0]


class TestReferenceBasis:
    def test_impulse_reference(self):
        # next r = 0: only the first window has a nonzero leading entry
        r = Trajectory(np.concatenate([[1.0], np.zeros(19)]).reshape(-1, 1))
        R = reference_basis(r, 2)
        assert subspaces_equal(R, orthonormal_basis(np.array([[1.0], [0.0]])))[0]

    def test_decaying_reference_is_one_dimensional(self, decay_ref):
        _, data = decay_ref
        R = reference_basis(data, 2)
        assert R.dim == 1
        assert subspaces_equal(R, orthonormal_basis(np.array([[1.0], [0.5]])))[0]

    def test_zero_reference(self):
        assert reference_basis(Trajectory(np.zeros((10, 1))), 2).dim == 0


class TestUncontrolledBasis:
    def test_static_plant_spans_everything(self, static_case):
        _, partition, data = static_case
        assert uncontrolled_basis(data, partition, 3).dim == 3

    def test_integrator_spans_everything_at_depth_two(self, integrator_case):
        _, partition, data = integrator_case
        assert uncontrolled_basis(data, partition, 2).dim == 2

    def test_zero_w_data(self):
        data = Trajectory(np.column_stack([np.zeros(15), np.ones(15)]))
        assert uncontrolled_basis(data, Partition(2, (1,), (2,)), 2).dim == 0


class TestStoredFactorization:
    """The Hankel factorization stored with a trajectory gives what a fresh one would."""

    @staticmethod
    def cases(n):
        for seed in range(n):
            yield harness.build_case(seed, "closed_loop" if seed % 2 == 0 else "adversarial")

    def test_is_gpe_same_with_and_without_stored_factorization(self):
        for case in self.cases(40):
            for traj, m, n in (
                (case.plant_traj, case.bounds.m_plant, case.bounds.n_plant),
                (case.ref_traj, case.bounds.m_ref, case.bounds.n_ref),
            ):
                fresh = Trajectory(traj.values)
                unstored = is_gpe(fresh, case.L, m, n)
                assert not fresh.hankel_images
                hankel_image(fresh, case.L)
                assert is_gpe(fresh, case.L, m, n) == unstored, f"seed {case.seed}"

    def test_entries_keyed_by_horizon(self):
        case = harness.build_case(4, "closed_loop")
        first = DataBundle(case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds)
        # in (w, c) order a bundle keeps the plant trajectory it is given
        plant, ref, partition = first.plant_traj, first.ref_traj, first.partition
        for L in (case.L, case.L + 1):
            shared = DataBundle(plant, ref, L, partition, case.bounds)
            assert shared.plant_traj is plant and shared.ref_traj is ref
            fresh = DataBundle(
                Trajectory(plant.values), Trajectory(ref.values), L, partition, case.bounds
            )
            assert check_data(shared).to_dict() == check_data(fresh).to_dict(), f"L={L}"
        assert set(plant.hankel_images) == set(ref.hankel_images) == {case.L, case.L + 1}

    def test_uncontrolled_basis_matches_w_channel_hankel(self):
        for case in self.cases(40):
            partition = case.wc_partition
            Pw = uncontrolled_basis(case.plant_traj, partition, case.L)
            w = Trajectory(case.plant_traj.values[:, [p - 1 for p in partition.picks_w]])
            direct = orthonormal_basis(hankel(w, case.L))
            assert Pw.dim == direct.dim, f"seed {case.seed}"
            angles = principal_angles(Pw, direct)
            assert angles.size == 0 or angles[0] < 1e-8, f"seed {case.seed}: {angles[0]:.3e}"


class TestCheckData:
    def test_static_plant_decaying_reference_implementable(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        bundle = DataBundle(data, ref_data, 2, partition, InvariantBounds(1, 0, 0, 1, 0))
        verdict = check_data(bundle)
        assert verdict.implementable
        assert verdict.residual_hidden_in_ref < 1e-10
        assert verdict.residual_ref_in_plant < 1e-10

    def test_integrator_decaying_reference_not_implementable(
        self, integrator_case, decay_ref
    ):
        _, partition, data = integrator_case
        _, ref_data = decay_ref
        bundle = DataBundle(data, ref_data, 2, partition, InvariantBounds(1, 1, 0, 1, 1))
        verdict = check_data(bundle)
        assert not verdict.implementable
        assert verdict.residual_hidden_in_ref > 0.1

    def test_reference_equal_to_own_w_data(self, integrator_case):
        plant, partition, data = integrator_case
        w = Trajectory(data.values[:, [p - 1 for p in partition.picks_w]])
        proj_inv = invariants_of(plant)
        bundle = DataBundle(
            data, w, 2, partition, InvariantBounds(1, 1, 1, 0, 1)
        )
        verdict = check_data(bundle)
        assert verdict.implementable

    def test_missing_bounds_refused(self, static_case, decay_ref):
        # the bounds are a required field: a bundle without them is a call error
        _, partition, data = static_case
        _, ref_data = decay_ref
        with pytest.raises(TypeError, match="bounds"):
            DataBundle(data, ref_data, 2, partition)

    def test_horizon_error(self, integrator_case, decay_ref):
        # raised when the bundle is built, before anything is factored
        _, partition, data = integrator_case
        _, ref_data = decay_ref
        with pytest.raises(HorizonError, match=r"^L=1 must exceed the lag bound 1$"):
            DataBundle(data, ref_data, 1, partition, InvariantBounds(1, 1, 0, 1, 1))

    def test_failed_excitation_blocks_positive(self):
        # constant control input: plant data is not exciting at depth 2, and
        # the verdict must refuse to certify even though the inclusions hold
        plant, partition = harness.static_plant()
        c = np.ones(30)
        data = Trajectory(np.column_stack([c, c]))
        ref = Trajectory(np.ones((30, 1)))
        bundle = DataBundle(data, ref, 2, partition, InvariantBounds(1, 0, 0, 1, 0))
        verdict = check_data(bundle)
        assert not verdict.gpe_plant
        assert not verdict.implementable
        assert verdict.residual_hidden_in_ref < 1e-10
        assert verdict.residual_ref_in_plant < 1e-10


class TestCheckModel:
    def test_reference_equals_hidden_behavior(self):
        # controller clamping c to zero leaves the constant trajectories
        plant, partition = harness.integrator_plant()
        constants = lti_core.StateSpaceModel(
            np.array([[1.0]]),
            np.zeros((1, 0)),
            np.array([[1.0]]),
            np.zeros((1, 0)),
            (),
            (1,),
        )
        verdict = check_model(plant, partition, constants, 2)
        assert verdict.implementable

    def test_reference_equals_uncontrolled_behavior(self):
        plant, partition = harness.integrator_plant()
        verdict = check_model(plant, partition, free_model(1), 2)
        assert verdict.implementable

    def test_static_decay_implementable(self, decay_ref):
        plant, partition = harness.static_plant()
        ref, _ = decay_ref
        assert check_model(plant, partition, ref, 2).implementable

    def test_integrator_decay_not_implementable(self, decay_ref):
        plant, partition = harness.integrator_plant()
        ref, _ = decay_ref
        verdict = check_model(plant, partition, ref, 2)
        assert not verdict.implementable
        assert verdict.residual_hidden_in_ref > 0.1

    def test_closed_loop_references_always_implementable(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            plant, partition = harness.random_plant(2, 2, 2, rng)
            ref = harness.feedback_reference_model(plant, partition, 1, rng)
            lag = horizon_lag(plant, partition.picks_w, ref)
            verdict = check_model(plant, partition, ref, lag + 1)
            assert verdict.implementable, f"seed {seed}"

    @pytest.mark.parametrize("seed", [0, 1, 16, 22])
    def test_horizon_must_exceed_horizon_lag(self, seed):
        # on closed-loop cases 16 and 22 the projected plant's lag is the
        # largest of the three
        kind = "closed_loop" if seed % 2 == 0 else "adversarial"
        case = harness.build_case(seed, kind)
        picks_w = case.wc_partition.picks_w
        lag = horizon_lag(case.plant, picks_w, case.ref_model)
        assert lag == case.bounds.lag == max(
            invariants_of(case.plant).lag,
            invariants_of(case.ref_model).lag,
            lti_core.projected_invariants(case.plant, picks_w).lag,
        )
        with pytest.raises(HorizonError):
            check_model(case.plant, case.wc_partition, case.ref_model, lag)
        check_model(case.plant, case.wc_partition, case.ref_model, lag + 1)

    def test_nearly_touching_plant_and_zero_c_subspace(self):
        # harness case 191: the plant's restricted behavior and {c = 0} meet
        # only in 0 but nearly touch, where a projector intersection of the
        # two loses the answer; the window-space section keeps it
        case = harness.build_case(191, "adversarial")
        model = check_model(case.plant, case.wc_partition, case.ref_model, case.L)
        assert model.implementable and model.rank_hidden == 0
        data = check_data(
            DataBundle(case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds)
        )
        assert data.implementable
        assert data.to_dict()["ranks"] == model.to_dict()["ranks"]

    def test_uncontrolled_basis_matches_projected_oracle(self, monkeypatch):
        # P_w is read off the plant's restricted basis it shares with N; it
        # must be the projected restricted behavior on the w channels
        # (simulations check that one in test_lti_core)
        seen = {}
        verdict_from_bases = implementability._verdict_from_bases

        def spy(N, R, Pw, *args):
            seen["Pw"] = Pw
            return verdict_from_bases(N, R, Pw, *args)

        monkeypatch.setattr(implementability, "_verdict_from_bases", spy)
        for seed in range(40):
            kind = "closed_loop" if seed % 2 == 0 else "adversarial"
            case = harness.build_case(seed, kind)
            check_model(case.plant, case.wc_partition, case.ref_model, case.L)
            oracle = lti_core.projected_restricted_basis(
                case.plant, case.wc_partition.picks_w, case.L
            )
            ok, angle = subspaces_equal(seen["Pw"], oracle)
            assert ok, f"seed {seed}: dims {seen['Pw'].dim}/{oracle.dim}, angle {angle:.3e}"

    def test_horizon_error(self):
        plant, partition = harness.integrator_plant()
        with pytest.raises(HorizonError):
            check_model(plant, partition, harness.decaying_reference(), 1)

    def test_channel_mismatch(self):
        plant, partition = harness.integrator_plant()
        with pytest.raises(DimensionError):
            check_model(plant, partition, free_model(2), 3)


class TestVerdictSerialization:
    def test_json_schema(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        bundle = DataBundle(data, ref_data, 2, partition, InvariantBounds(1, 0, 0, 1, 0))
        payload = json.loads(json.dumps(check_data(bundle).to_dict()))
        assert payload["implementable"] is True
        assert set(payload["residuals"]) == {"hidden_in_ref", "ref_in_plant"}
        assert set(payload["gpe"]) == {"plant", "ref"}
        assert set(payload["ranks"]) == {"N", "R", "Pw"}


class TestBundleValidation:
    def test_fractional_bound_rejected(self):
        # the rank target m L + 0.5 is never an integer, so the reference
        # excitation test could only fail: the verdict was a silent negative
        with pytest.raises(ValueError, match="n_ref must be an integer"):
            InvariantBounds(1, 0, 0, 0.5, 0)

    @pytest.mark.parametrize("field", ["m_plant", "n_plant", "m_ref", "n_ref", "lag"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_bound_rejected(self, field, value):
        values = dict(m_plant=1, n_plant=0, m_ref=0, n_ref=1, lag=0)
        values[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            InvariantBounds(**values)

    def test_numpy_integer_bounds_and_horizon_accepted(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        bounds = InvariantBounds(*np.array([1, 0, 0, 1, 0]))
        bundle = DataBundle(data, ref_data, np.int64(2), partition, bounds)
        assert check_data(bundle).implementable

    def test_fractional_horizon_rejected(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        with pytest.raises(ValueError, match="L must be an integer"):
            DataBundle(data, ref_data, 2.0, partition, InvariantBounds(1, 0, 0, 1, 0))

    def test_channel_counts(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        bounds = InvariantBounds(1, 0, 0, 1, 0)
        with pytest.raises(DimensionError):
            DataBundle(ref_data, ref_data, 2, partition, bounds)
        with pytest.raises(DimensionError):
            DataBundle(data, data, 2, partition, bounds)

    def test_horizon_inside_data(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        with pytest.raises(ValueError):
            DataBundle(data, ref_data, 99, partition, InvariantBounds(1, 0, 0, 1, 0))

    def test_holds_plant_in_synthesis_order(self):
        case = harness.build_case(6000, "closed_loop")  # channels not in (w, c) order
        p = case.wc_partition
        assert p.picks_w + p.picks_c != tuple(range(1, p.total + 1))
        bundle = DataBundle(case.plant_traj, case.ref_traj, case.L, p, case.bounds)
        order = [i - 1 for i in p.picks_w + p.picks_c]
        assert np.array_equal(bundle.plant_traj.values, case.plant_traj.values[:, order])
        in_order = Partition(p.total, range(1, p.n_w + 1), range(p.n_w + 1, p.total + 1))
        assert bundle.partition == in_order
        by_hand = DataBundle(
            Trajectory(case.plant_traj.values[:, order]),
            case.ref_traj,
            case.L,
            in_order,
            case.bounds,
        )
        verdict, expected = check_data(bundle), check_data(by_hand)
        assert verdict.implementable, verdict.to_dict()
        assert verdict.to_dict() == expected.to_dict()

    @pytest.mark.parametrize(
        "bounds, error, message",
        [
            # at L = 2: the horizon first, then the plant's target, then the reference's
            ((9, 0, 0, 3, 2), HorizonError, r"^L=2 must exceed the lag bound 2$"),
            ((9, 0, 0, 3, 1), InfeasibleRankError, r"^plant excitation target m\*L \+ n = 9\*2"),
            ((1, 0, 0, 3, 1), InfeasibleRankError, r"^reference excitation target .* = 3 "),
        ],
    )
    def test_bounds_checked_when_built(self, static_case, decay_ref, bounds, error, message):
        _, partition, data = static_case
        _, ref_data = decay_ref
        with pytest.raises(error, match=message):
            DataBundle(data, ref_data, 2, partition, InvariantBounds(*bounds))
        assert not data.hankel_images and not ref_data.hankel_images  # nothing factored

    def test_in_order_plant_kept_as_given(self, static_case, decay_ref):
        _, partition, data = static_case
        _, ref_data = decay_ref
        bundle = DataBundle(data, ref_data, 2, partition, InvariantBounds(1, 0, 0, 1, 0))
        assert bundle.plant_traj is data and bundle.partition == partition


class TestConsistencyProperties:
    def test_data_and_model_agree(self):
        for seed in range(16):
            kind = "closed_loop" if seed % 2 == 0 else "adversarial"
            case = harness.build_case(seed + 300, kind)
            result = harness.evaluate_case(case)
            assert result.passed, f"seed {seed + 300}: {result.failures}"

    def test_evaluate_case_factors_each_trajectory_once(self, hankel_calls):
        # channels not in (w, c) order: the bundle holds the arranged plant,
        # so synthesis reuses the factorization the check stored
        case = harness.build_case(6000, "closed_loop")
        hankel_calls.clear()  # the excitation tests of the case's construction
        result = harness.evaluate_case(case)
        assert result.passed, result.failures
        assert len(hankel_calls) == 2
        assert sum(w is case.ref_traj for w in hankel_calls) == 1

    def test_batch_counts_failures_per_check(self, monkeypatch):
        evaluate, build = harness.evaluate_case, harness.build_case

        def forced_evaluate(case, cfg):
            result = evaluate(case, cfg)
            if case.seed == 1:
                result.failures.append("closed_loop_exact")
            return result

        def forced_build(seed, kind, cfg):
            if seed == 2:
                raise GenerationError("forced")
            return build(seed, kind, cfg)

        monkeypatch.setattr(harness, "evaluate_case", forced_evaluate)
        monkeypatch.setattr(harness, "build_case", forced_build)
        report = harness.run_batch(4)
        assert report["passes"] == 2
        assert report["failure_counts"] == {"closed_loop_exact": 1, "exception": 1}
        assert [f["seed"] for f in report["failures"]] == [1, 2]
        assert report["failures"][1]["checks"] == ["exception: forced"]

    @pytest.mark.parametrize("n_cases, base_seed", [(0, 0), (2, -1)])
    def test_batch_rejects_bad_inputs(self, n_cases, base_seed):
        # a bad input is an error, not a batch of failing cases
        with pytest.raises(ValueError, match="seed"):
            harness.run_batch(n_cases, base_seed)

    def test_batch_report_holds_its_base_seed(self):
        report = harness.run_batch(2, 5)
        assert report["base_seed"] == 5
        assert list(report)[-1] == "base_seed"  # the key the CLI printed last

    def test_generators_raise_when_every_draw_is_unstable(self, monkeypatch):
        # spectral radius 1 on every draw: all 50 draws are rejected
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.ones(len(A)))
        plant, partition = harness.integrator_plant()
        rng = np.random.default_rng(0)
        with pytest.raises(
            GenerationError, match="^no minimal closed-loop reference after 50 draws$"
        ):
            harness.feedback_reference_model(plant, partition, 1, rng)
        with pytest.raises(GenerationError, match="^no minimal sub-behavior after 50 draws$"):
            harness.random_sub_behavior_model(plant, 0, rng)

    def test_monotone_in_horizon(self):
        # implementable at L+1 implies implementable at L
        checked = 0
        for seed in range(10):
            case = harness.build_case(seed + 900, "closed_loop")
            L = case.L
            if min(case.plant_traj.T, case.ref_traj.T) < L + 1:
                continue
            bundle_hi = DataBundle(
                case.plant_traj, case.ref_traj, L + 1, case.wc_partition, case.bounds
            )
            if not check_data(bundle_hi).implementable:
                continue
            bundle_lo = DataBundle(
                case.plant_traj, case.ref_traj, L, case.wc_partition, case.bounds
            )
            assert check_data(bundle_lo).implementable
            checked += 1
        assert checked >= 5

    def test_model_verdict_stable_across_horizons(self):
        for seed in range(8):
            kind = "closed_loop" if seed % 2 == 0 else "adversarial"
            case = harness.build_case(seed + 1200, kind)
            v1 = check_model(case.plant, case.wc_partition, case.ref_model, case.L)
            v2 = check_model(case.plant, case.wc_partition, case.ref_model, case.L + 1)
            assert v1.implementable == v2.implementable


def long_data_draw(index: int, T: int, L: int, seed: int = 0):
    """Draw `index` (from 0) of the (2,2,4), (3,2,8), (4,3,12) sequence from default_rng(seed).

    The (4, 3, 12) plant and feedback reference of :func:`long_draw_models`,
    simulated with data seeds 2 index + 1 and 2 index + 2.
    """
    plant, partition, ref = long_draw_models(index, seed)
    plant_traj = harness.plant_data(plant, T, seed=2 * index + 1)
    ref_traj = harness.plant_data(ref, T, seed=2 * index + 2)
    bounds = InvariantBounds(plant.m, plant.n, ref.m, ref.n, max(plant.n, ref.n))
    return plant, partition, ref, DataBundle(plant_traj, ref_traj, L, partition, bounds)


class TestLongDataReproducer:
    """(q_w, q_c, n) = (4, 3, 12) at T = 8000, L = 60.

    The first draw of :func:`long_data_draw`, with data seeds 1 and 2.  A
    hidden basis formed through the T x T annihilator I - H_L(c)^+ H_L(c)
    cut a genuine direction of H_L(c) here, because the rank cutoff then
    scaled with the matrix's long dimension T, and reported a spurious
    hidden dimension, so the data verdict was a false negative.
    """

    T, L = 8000, 60

    @pytest.fixture(scope="class")
    def instance(self):
        return long_data_draw(0, self.T, self.L)

    def test_data_verdict_implementable_and_agrees_with_model(self, instance):
        plant, partition, ref, bundle = instance
        vd = check_data(bundle)
        vm = check_model(plant, partition, ref, self.L)
        assert vd.rank_hidden == 0
        assert vd.implementable, vd.to_dict()
        assert vd.implementable == vm.implementable

    def test_hidden_basis_memory_stays_in_window_space(self, instance):
        *_, bundle = instance
        hankel_bytes = bundle.partition.total * self.L * (self.T - self.L + 1) * 8
        plant_traj = Trajectory(bundle.plant_traj.values)  # with no stored factorization
        tracemalloc.start()
        try:
            hidden_basis(plant_traj, bundle.partition, self.L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a T x T annihilator alone would take (T - L + 1)^2 * 8 bytes, ~19x this bound
        assert peak < 4 * hankel_bytes, f"peak {peak / 1e6:.1f} MB"

    def test_reference_rank_kept_on_third_draw(self):
        # The reference Hankel matrix is 240 x 1141, and its 193rd singular
        # value is 8.4e-8 sigma_max, above a gap down to 1e-16 sigma_max.  A
        # cutoff scaled by the column count (1.1e-7 sigma_max) cut it: the GPE
        # test saw rank 192 and the data verdict was a false negative, as it
        # was for the same draw at T = 8000.
        plant, partition, ref, bundle = long_data_draw(2, 1200, self.L)
        vd = check_data(bundle)
        vm = check_model(plant, partition, ref, self.L)
        assert vd.gpe_ref and vd.rank_ref == 193, vd.to_dict()
        assert vd.implementable, vd.to_dict()
        assert vd.implementable == vm.implementable

    @pytest.fixture(scope="class")
    def fourth_draw(self):
        *_, bundle = long_data_draw(3, self.T, self.L)
        return bundle, synthesize(bundle)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the formula P_r (P_r + P_p)^+ P_p keeps a spurious direction: a pair at "
        "theta = 6.2e-5 adds theta^2 / 2 = 1.9e-9 to P_r + P_p, below the pinv_symmetric "
        "cutoff of 8.4e-8, so the controller is 122-dim and the controlled behavior "
        "134-dim against a 133-dim reference; window-space synthesis (ROADMAP Open "
        "item 2) is the fix",
    )
    def test_synthesis_verifies_fourth_draw(self, fourth_draw):
        # r_r + r_p = 313 + 192 > d = 420: the formula factors the d x d Gram,
        # whose eigenvalues run up to 2, so its cutoff is 1e-10 * 2 * 420
        _, syn = fourth_draw
        report = syn.report
        assert report.verified, (syn.controller.dim, report.dim_controlled, report.dim_reference)

    def test_intersection_route_verifies_fourth_draw(self, fourth_draw):
        # the intersection decides the theta = 6.2e-5 pair on sin(theta), not theta^2 / 2
        bundle, syn = fourth_draw
        ctrl = controller_basis_intersection_route(syn.P_r, syn.P_p, syn.plan)
        R_basis = reference_basis(bundle.ref_traj, self.L)
        verified, report = verify_closed_loop(syn.P_p.basis, ctrl, R_basis, syn.plan)
        assert ctrl.dim == 121
        assert verified, report
        assert report.dim_controlled == report.dim_reference == 133


class TestRankDriftWithHorizon:
    """The oracle's reference rank at the benchmark's channel counts, by horizon.

    The first (4, 3, 12) draw of the (2,2,4), (3,2,8), (4,3,12) sequence from
    default_rng(6) (``long_data_draw(0, T, L, seed=6)``) has a reference
    implementable by construction.  Its depth-L window map is qL x (n + mL),
    and its smallest singular value stays at 1.78-1.81e-8 sigma_max at every
    L.  A rank cutoff 1e-10 sigma_max min(shape) on that map grows with
    n + mL: 5.5e-9 at L = 14, 1.93e-8 at L = 60.  So at L = 60 it cut a
    genuine direction (rank 192 of 193), the hidden behavior no longer fit
    in the reference (residual 4.9e-4), and check_model reported a false
    negative.  The oracle now keeps m L + rank O_L directions, read off the
    model, at every L.
    """

    @pytest.fixture(scope="class")
    def draw(self):
        plant, partition, ref, _ = long_data_draw(0, 8000, 60, seed=6)
        return plant, partition, ref

    @pytest.mark.parametrize("L", [14, 16, 30])
    def test_implementable_below_the_crossing(self, draw, L):
        plant, partition, ref = draw
        verdict = check_model(plant, partition, ref, L)
        assert verdict.implementable and verdict.rank_ref == ref.n + ref.m * L

    def test_implementable_at_benchmark_horizon(self, draw):
        plant, partition, ref = draw
        verdict = check_model(plant, partition, ref, 60)
        assert verdict.implementable, verdict.to_dict()
        assert verdict.rank_ref == ref.n + ref.m * 60


#: The long-draw set: draw j of seed s is long_data_draw(j, 8000, 60, seed=s).
LONG_DRAW_SET = [(s, j) for s in range(10) for j in range(2)]

def _ref_excitation(rank):
    return (
        f"the reference Hankel matrix keeps {rank} of 193 directions under the rank cutoff, "
        "so the reference excitation test fails (ROADMAP item 8)"
    )


#: (s, j) -> why the data verdict is a false negative
DATA_FALSE_NEGATIVES = {
    (2, 0): _ref_excitation(190),
    (3, 1): _ref_excitation(192),
    (6, 0): _ref_excitation(191),
    (7, 1): _ref_excitation(192),
    (8, 0): "the plant Hankel matrix keeps 371 of 372 directions and the reference's 191 "
    "of 193, so both excitation tests fail (ROADMAP item 8)",
    (9, 0): _ref_excitation(192),
    (9, 1): "the plant Hankel matrix keeps 370 of 372 directions, so the plant excitation "
    "test fails (ROADMAP item 8)",
}


def _long_draw_params(false_negatives):
    return [
        pytest.param(
            s,
            j,
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=f"({s}, {j}): {false_negatives[s, j]}"
            ),
        )
        if (s, j) in false_negatives
        else (s, j)
        for s, j in LONG_DRAW_SET
    ]


class TestLongDrawSet:
    """Data and oracle verdicts on the long-draw set, at the benchmark's size.

    Seeds s = 0..9, draws j = 0, 1 of :func:`long_data_draw` at T = 8000,
    L = 60: twenty (4, 3, 12) plants with feedback references, each
    implementable by construction, so both verdicts must be implementable.
    The oracle's are; the data false negatives that remain are strict xfails
    named by (s, j).
    """

    T, L = 8000, 60

    @pytest.fixture(scope="class")
    def verdicts(self):
        out = {}
        for s, j in LONG_DRAW_SET:
            plant, partition, ref, bundle = long_data_draw(j, self.T, self.L, seed=s)
            out[s, j] = check_data(bundle), check_model(plant, partition, ref, self.L)
        return out

    @pytest.mark.parametrize("s, j", LONG_DRAW_SET)
    def test_oracle_verdict_implementable(self, verdicts, s, j):
        _, vm = verdicts[s, j]
        assert vm.implementable, vm.to_dict()

    @pytest.mark.parametrize("s, j", _long_draw_params(DATA_FALSE_NEGATIVES))
    def test_data_verdict_implementable(self, verdicts, s, j):
        vd, _ = verdicts[s, j]
        assert vd.implementable, vd.to_dict()

    @pytest.mark.parametrize("s, j", LONG_DRAW_SET)
    def test_oracle_ranks_follow_the_dimension_law(self, verdicts, s, j):
        # L = 60 exceeds every lag, so R = m L + n of the reference and
        # P_w = m_proj L + n_proj of the plant projected on w
        _, vm = verdicts[s, j]
        plant, partition, ref = long_draw_models(j, s)
        proj = lti_core.projected_invariants(plant, partition.picks_w)
        assert vm.rank_ref == ref.m * self.L + ref.n
        assert vm.rank_uncontrolled == proj.m_inputs * self.L + proj.n_order
