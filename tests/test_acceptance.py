"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np

from canonctrl import harness
from canonctrl.canonical import (
    PermutationPlan,
    controller_basis,
    controller_basis_intersection_route,
    plant_projector,
    reference_lift_projector,
    verify_closed_loop,
)
from canonctrl.cli import main as cli_main
from canonctrl.implementability import (
    DataBundle,
    InvariantBounds,
    check_data,
    check_model,
    reference_basis,
)
from canonctrl.lti_core import (
    invariants_of,
    product_model,
    projected_restricted_basis,
    random_minimal_model,
    restricted_behavior_basis,
    simulate,
)
from canonctrl.signal import Trajectory, arrange_by_partition, hankel, is_gpe
from canonctrl.subspace import (
    image_basis,
    intersect,
    is_subspace_of,
    orthonormal_basis,
    projector_onto,
    subspaces_equal,
)

from conftest import kernel_method_intersection, null_space

ANGLE_TOL = 1e-8


def report(number, elapsed, budget, detail):
    print(f"criterion {number}: PASS ({elapsed:.1f}s < {budget}s) {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_hankel_image_equals_restricted_behavior():
    t0 = time.time()
    worst_angle = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q_total = int(rng.integers(2, 5))
        q_w = int(rng.integers(1, q_total))
        n = int(rng.integers(0, 5))
        model, _ = random_minimal_model(q_w, q_total - q_w, n, seed=seed)
        inv = invariants_of(model)
        for L in (inv.lag + 1, inv.lag + 2):
            T = (inv.m_inputs + 1) * (L + inv.n_order) + inv.n_order + 4
            traj = harness.gpe_trajectory(model, L, T, rng)
            ok, rank = is_gpe(traj, L, inv.m_inputs, inv.n_order)
            assert ok and rank == inv.m_inputs * L + inv.n_order, f"seed {seed}, L={L}"
            data_image = orthonormal_basis(hankel(traj, L))
            oracle = restricted_behavior_basis(model, L)
            equal, angle = subspaces_equal(data_image, oracle, ANGLE_TOL)
            assert equal, f"seed {seed}, L={L}: angle {angle}"
            worst_angle = max(worst_angle, angle)
    report(1, time.time() - t0, 30, f"100 seeds, worst angle {worst_angle:.2e}")


def test_criterion_2_data_and_model_verdicts_agree():
    t0 = time.time()
    positives = negatives = 0
    worst_residual = 0.0
    for i in range(100):
        kind = "closed_loop" if i % 2 == 0 else "adversarial"
        case = harness.build_case(20_000 + i, kind)
        bundle = DataBundle(
            case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds
        )
        vd = check_data(bundle)
        vm = check_model(case.plant, case.wc_partition, case.ref_model, case.L)
        assert vd.implementable == vm.implementable, f"case {i} ({kind})"
        if kind == "closed_loop":
            assert vm.implementable, f"case {i}: closed loop must be implementable"
        if vd.implementable:
            positives += 1
            residual = max(vd.residual_hidden_in_ref, vd.residual_ref_in_plant)
            assert residual < 1e-8, f"case {i}: residual {residual}"
            worst_residual = max(worst_residual, residual)
        else:
            negatives += 1
    report(
        2,
        time.time() - t0,
        60,
        f"{positives} positives / {negatives} negatives, worst residual {worst_residual:.2e}",
    )


def test_criterion_3_canonical_controller_exactness():
    t0 = time.time()
    worst_loop = worst_routes = 0.0
    for i in range(50):
        case = harness.build_case(30_000 + i, "closed_loop")
        q_w, q_c, L = case.wc_partition.n_w, case.wc_partition.n_c, case.L
        plan = PermutationPlan(q_w, q_c, L)
        arranged = arrange_by_partition(case.plant_traj, case.wc_partition)
        P_p = plant_projector(arranged, L)
        P_r = reference_lift_projector(case.ref_traj, q_c, L, plan)
        ctrl = controller_basis(P_r, P_p, plan)
        via_intersection = controller_basis_intersection_route(P_r, P_p, plan)
        routes_ok, routes_angle = subspaces_equal(
            ctrl.basis, via_intersection.basis, ANGLE_TOL
        )
        assert routes_ok, f"case {i}: route angle {routes_angle}"
        P_basis = orthonormal_basis(hankel(arranged, L))
        R_basis = reference_basis(case.ref_traj, L)
        verified, rep = verify_closed_loop(P_basis, ctrl, R_basis, plan)
        assert verified and rep.max_angle < ANGLE_TOL, f"case {i}: {rep.max_angle}"
        worst_loop = max(worst_loop, rep.max_angle)
        worst_routes = max(worst_routes, routes_angle)
    report(
        3,
        time.time() - t0,
        60,
        f"50 syntheses, worst loop angle {worst_loop:.2e}, worst route gap {worst_routes:.2e}",
    )


def test_criterion_4_projector_intersection_matches_kernel_oracle():
    t0 = time.time()
    ambient = 20
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(40_000 + i)
        shared_dim = int(rng.integers(0, 5))
        d1 = shared_dim + int(rng.integers(1, 6))
        d2 = shared_dim + int(rng.integers(1, 6))
        shared = rng.standard_normal((ambient, shared_dim))
        QA = orthonormal_basis(
            np.hstack([shared, rng.standard_normal((ambient, d1 - shared_dim))])
        )
        QB = orthonormal_basis(
            np.hstack([shared, rng.standard_normal((ambient, d2 - shared_dim))])
        )
        P = intersect(projector_onto(QA), projector_onto(QB))
        scale = 1.0 + float(np.linalg.norm(P.matrix))
        assert np.linalg.norm(P.matrix - P.matrix.T) <= 1e-10 * scale
        assert np.linalg.norm(P.matrix @ P.matrix - P.matrix) <= 1e-8 * scale
        ours = image_basis(P)
        oracle = kernel_method_intersection(QA.basis, QB.basis)
        equal, angle = subspaces_equal(ours, oracle, ANGLE_TOL)
        assert equal, f"pair {i}: angle {angle} (shared dim {shared_dim})"
        worst = max(worst, angle)
    report(4, time.time() - t0, 10, f"200 pairs, worst angle {worst:.2e}")


def _restricted_intersection_oracle(model1, model2, L, rank_tol_anchor=1.0):
    """(B1 ∩ B2)|_L via stacked constraints at a horizon above both lags."""
    lag = max(invariants_of(model1).lag, invariants_of(model2).lag)
    L_big = max(L, lag + 1) + 1
    d = model1.q * L_big
    P1 = projector_onto(restricted_behavior_basis(model1, L_big)).matrix
    P2 = projector_onto(restricted_behavior_basis(model2, L_big)).matrix
    stacked = np.vstack([np.eye(d) - P1, np.eye(d) - P2])
    joint = null_space(stacked)
    return orthonormal_basis(joint[: model1.q * L, :], scale=rank_tol_anchor)


def test_criterion_5_restricted_behavior_lemmas():
    t0 = time.time()

    # projection commutes with windowing (row selection vs sampled windows)
    for i in range(50):
        rng = np.random.default_rng(50_000 + i)
        model, partition = random_minimal_model(
            int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(0, 4)),
            seed=50_000 + i,
        )
        for L in (1, invariants_of(model).lag + 1):
            rows = projected_restricted_basis(model, partition.picks_w, L)
            cols = []
            for _ in range(rows.dim + 6):
                x0 = rng.standard_normal(model.n)
                u = Trajectory(rng.standard_normal((L, model.m)))
                full = simulate(model, u, x0=x0)
                cols.append(
                    full.values[:, [p - 1 for p in partition.picks_w]].reshape(-1)
                )
            sampled = orthonormal_basis(np.column_stack(cols))
            equal, angle = subspaces_equal(rows, sampled, ANGLE_TOL)
            assert equal, f"projection case {i}, L={L}: angle {angle}"

    # intersection commutes with windowing above the lag; only ⊆ below.
    # Two families where the equality claim genuinely holds:
    # (a) nested pairs, where the intersected behavior has an exact model;
    # (b) unrelated pairs past the dimension-count horizon
    #     (m1 + m2) L + n1 + n2 <= qL, below which the window spaces overlap
    #     for dimension reasons alone and equality cannot hold.
    for i in range(25):
        rng = np.random.default_rng(51_000 + i)
        base, _ = random_minimal_model(1, 1, int(rng.integers(1, 4)), seed=51_000 + i)
        sub = harness.random_sub_behavior_model(
            base, int(rng.integers(0, base.m + 1)), rng
        )
        lag = max(invariants_of(base).lag, invariants_of(sub).lag)
        for L in (lag + 1, lag + 2):
            formula = image_basis(
                intersect(
                    projector_onto(restricted_behavior_basis(base, L)),
                    projector_onto(restricted_behavior_basis(sub, L)),
                )
            )
            oracle = restricted_behavior_basis(sub, L)
            equal, angle = subspaces_equal(formula, oracle, ANGLE_TOL)
            assert equal, f"nested intersection case {i}, L={L}: angle {angle}"
        for L_small in range(1, lag + 1):
            formula = image_basis(
                intersect(
                    projector_onto(restricted_behavior_basis(base, L_small)),
                    projector_onto(restricted_behavior_basis(sub, L_small)),
                )
            )
            included, residual = is_subspace_of(
                restricted_behavior_basis(sub, L_small), formula
            )
            assert included, f"nested intersection case {i}, L={L_small}: {residual}"

    for i in range(25):
        rng = np.random.default_rng(51_500 + i)
        q = int(rng.integers(2, 4))
        while True:
            m1 = harness.random_reference_model(q, int(rng.integers(1, 4)), rng)
            m2 = harness.random_reference_model(q, int(rng.integers(1, 4)), rng)
            if m1.m + m2.m < q:
                break
        inv1, inv2 = invariants_of(m1), invariants_of(m2)
        lag = max(inv1.lag, inv2.lag)
        margin = -(-(inv1.n_order + inv2.n_order) // (q - m1.m - m2.m))
        L = max(lag + 1, margin)
        formula = image_basis(
            intersect(
                projector_onto(restricted_behavior_basis(m1, L)),
                projector_onto(restricted_behavior_basis(m2, L)),
            )
        )
        joint = _restricted_intersection_oracle(m1, m2, L)
        equal, angle = subspaces_equal(formula, joint, ANGLE_TOL)
        assert equal, f"margin intersection case {i}: angle {angle}"

    # products split across factors after the interleaving permutation
    for i in range(50):
        rng = np.random.default_rng(52_000 + i)
        q1, q2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        m1 = harness.random_reference_model(q1, int(rng.integers(0, 3)), rng)
        m2 = harness.random_reference_model(q2, int(rng.integers(0, 3)), rng)
        prod = product_model(m1, m2)
        lag = invariants_of(prod).lag
        for L in {1, 2, lag + 1}:
            plan = PermutationPlan(q1, q2, L)
            B1 = restricted_behavior_basis(m1, L).basis
            B2 = restricted_behavior_basis(m2, L).basis
            joint = np.zeros((plan.ambient_dim, B1.shape[1] + B2.shape[1]))
            joint[plan.w_rows, : B1.shape[1]] = B1
            joint[plan.c_rows, B1.shape[1] :] = B2
            stacked = orthonormal_basis(joint)
            equal, angle = subspaces_equal(
                stacked, restricted_behavior_basis(prod, L), ANGLE_TOL
            )
            assert equal, f"product case {i}, L={L}: angle {angle}"

    # inclusions established above the lag persist at longer horizons
    for i in range(50):
        rng = np.random.default_rng(53_000 + i)
        model, _ = random_minimal_model(1, 1, int(rng.integers(1, 4)), seed=53_000 + i)
        sub = harness.random_sub_behavior_model(
            model, int(rng.integers(0, model.m + 1)), rng
        )
        L0 = max(invariants_of(model).lag, invariants_of(sub).lag) + 1
        for L in (L0, L0 + 1, L0 + 2):
            included, residual = is_subspace_of(
                restricted_behavior_basis(sub, L), restricted_behavior_basis(model, L)
            )
            assert included, f"inclusion case {i}, L={L}: residual {residual}"

    report(5, time.time() - t0, 120, "projection/intersection/product/inclusion x50")


def test_criterion_6_hand_analyzable_fixtures():
    t0 = time.time()
    ref_data = harness.decaying_reference_data(40)

    integrator, ipart = harness.integrator_plant()
    idata = harness.plant_data(integrator, 40, seed=7)
    iverdict = check_data(
        DataBundle(idata, ref_data, 2, ipart, InvariantBounds(1, 1, 0, 1, 1))
    )
    assert not iverdict.implementable
    assert iverdict.residual_hidden_in_ref > 0.1

    static, spart = harness.static_plant()
    sdata = harness.plant_data(static, 40, seed=7)
    sverdict = check_data(
        DataBundle(sdata, ref_data, 2, spart, InvariantBounds(1, 0, 0, 1, 0))
    )
    assert sverdict.implementable

    plan = PermutationPlan(1, 1, 2)
    arranged = arrange_by_partition(sdata, spart)
    ctrl = controller_basis(
        reference_lift_projector(ref_data, 1, 2, plan),
        plant_projector(arranged, 2),
        plan,
    )
    expected = orthonormal_basis(np.array([[1.0], [0.5]]))
    equal, angle = subspaces_equal(ctrl.basis, expected, ANGLE_TOL)
    assert ctrl.dim == 1 and equal, f"controller angle {angle}"
    report(
        6,
        time.time() - t0,
        30,
        f"integrator residual {iverdict.residual_hidden_in_ref:.3f} > 0.1, "
        f"controller angle {angle:.2e}",
    )


def test_criterion_7_cli_contract(tmp_path, capsys):
    t0 = time.time()
    from canonctrl import lti_core, signal

    static, _ = harness.static_plant()
    integrator, _ = harness.integrator_plant()
    static_model = tmp_path / "static.json"
    integ_model = tmp_path / "integrator.json"
    lti_core.write_model_json(static_model, static)
    lti_core.write_model_json(integ_model, integrator)
    ref_path = tmp_path / "ref.csv"
    signal.write_csv(ref_path, harness.decaying_reference_data(50))

    def run(args):
        try:
            code = cli_main(args)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        return code, out

    # determinism: repeated simulate runs are byte-identical
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _ = run(
            ["simulate", "--model", str(static_model), "--T", "50", "--seed", "7",
             "--out", str(path)]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

    code, _ = run(
        ["simulate", "--model", str(integ_model), "--T", "50", "--seed", "7",
         "--out", str(tmp_path / "integ.csv")]
    )
    assert code == 0

    base = ["--ref", str(ref_path), "--picks-w", "1", "--picks-c", "2", "--L", "2"]
    code_static, out_static = run(
        ["check", "--plant", str(tmp_path / "a.csv"), *base,
         "--lag-bound", "0", "--m-bound", "1,0", "--n-bound", "0,1"]
    )
    code_integ, out_integ = run(
        ["check", "--plant", str(tmp_path / "integ.csv"), *base,
         "--lag-bound", "1", "--m-bound", "1,0", "--n-bound", "1,1"]
    )
    assert code_static == 0 and json.loads(out_static)["implementable"] is True
    assert code_integ == 1 and json.loads(out_integ)["implementable"] is False

    # repeated check runs print identical verdicts
    code_again, out_again = run(
        ["check", "--plant", str(tmp_path / "a.csv"), *base,
         "--lag-bound", "0", "--m-bound", "1,0", "--n-bound", "0,1"]
    )
    assert code_again == 0 and out_again == out_static
    report(7, time.time() - t0, 30, "exit codes 0/1 and byte-identical reruns")
