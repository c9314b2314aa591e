"""Randomized experiment harness and hand-analyzable fixtures.

Builds reproducible test cases: random plants, references that are
implementable by construction (closed loop of the plant with a random LTI
controller acting on the control variables) or adversarial, excitation-
verified trajectories, and the battery of cross-checks between the data
route and the model route.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .canonical import controller_basis_intersection_route, synthesize
from .errors import GenerationError, MinimalityError
from .implementability import DataBundle, InvariantBounds, check_data, check_model
from .lti_core import (
    StateSpaceModel,
    horizon_lag,
    observable_realization,
    random_minimal_model,
    simulate,
)
from .signal import Partition, Trajectory, is_gpe, require_count
from .subspace import DEFAULT_RESIDUAL_TOL, subspaces_equal


# ---------------------------------------------------------------------------
# hand-analyzable fixtures


def static_plant() -> tuple[StateSpaceModel, Partition]:
    """Memoryless plant enforcing w = c (channel 1 is w, channel 2 is c, its input)."""
    model = StateSpaceModel([], [], [], [[1.0]], (2,), (1,))
    return model, Partition(2, (1,), (2,))


def integrator_plant() -> tuple[StateSpaceModel, Partition]:
    """Accumulator plant: next w = w + c (channel 1 is w, channel 2 is c, its input)."""
    model = StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]], (2,), (1,))
    return model, Partition(2, (1,), (2,))


def decaying_reference() -> StateSpaceModel:
    """Autonomous scalar reference: next r = 0.5 r (no inputs, so B and D are empty)."""
    return StateSpaceModel([[0.5]], [], [[1.0]], [], (), (1,))


def decaying_reference_data(T: int) -> Trajectory:
    """T samples of :func:`decaying_reference` from r(1) = 1: r(t) = 0.5^(t-1)."""
    return Trajectory((0.5 ** np.arange(require_count(T, "T", 1))).reshape(-1, 1))


def _random_run(model: StateSpaceModel, T: int, rng: np.random.Generator) -> Trajectory:
    """Simulation from a random x0 with a random input (drawn in that order)."""
    require_count(T, "T", 1)
    x0 = rng.standard_normal(model.n)
    U = rng.standard_normal((T, model.m))
    return simulate(model, Trajectory(U) if model.m else None, x0=x0, T=T)


def plant_data(model: StateSpaceModel, T: int, seed: int) -> Trajectory:
    """Seeded random-input simulation of a plant model."""
    return _random_run(model, T, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# random case construction


def gpe_length(m: int, n: int, L: int, q: int) -> int:
    """Trajectory length comfortably above the excitation requirements."""
    return max((m + 1) * (L + n) + n, q * L + L + n) + 8


def gpe_trajectory(model: StateSpaceModel, L: int, T: int, rng: np.random.Generator) -> Trajectory:
    """Simulate until the trajectory passes the excitation rank test."""
    for _ in range(25):
        traj = _random_run(model, T, rng)
        ok, _ = is_gpe(traj, L, model.m, model.n)
        if ok:
            return traj
    raise GenerationError(f"no exciting trajectory of length {T} after 25 tries")


def random_plant(
    q_w: int,
    q_c: int,
    n: int,
    rng: np.random.Generator,
) -> tuple[StateSpaceModel, Partition]:
    """Random minimal plant whose control block contains at least one input.

    The closed-loop reference construction needs an actuated control
    variable; role splits without one are redrawn.
    """
    for _ in range(50):
        model, partition = random_minimal_model(
            q_w, q_c, n, seed=int(rng.integers(0, 2**63))
        )
        if any(pos in model.input_picks for pos in partition.picks_c):
            return model, partition
    raise GenerationError("no actuated plant split after 50 draws")


def _stable_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    A = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    if radius < 1e-9:
        return np.zeros((n, n))
    return A * float(rng.uniform(0.3, 0.9)) / radius


def _stable_minimal(draw, ins, outs, what: str) -> StateSpaceModel:
    """The observable realization of the first of 50 draws with spectral radius below 0.95.

    `draw(gain)` gives (A, B, C, D) with its loop gain scaled by 0.6^attempt:
    as that goes to zero the loop matrix turns block triangular with stable
    blocks, so a stable draw is always reached.  Nonminimal draws are redrawn.
    """
    for attempt in range(50):
        A, B, C, D = draw(0.6**attempt)
        if A.size and np.max(np.abs(np.linalg.eigvals(A))) >= 0.95:
            continue
        try:
            return StateSpaceModel(*observable_realization(A, B, C, D), ins, outs)
        except MinimalityError:
            continue
    raise GenerationError(f"no minimal {what} after 50 draws")


def feedback_reference_model(
    plant: StateSpaceModel,
    wc_partition: Partition,
    n_ctrl: int,
    rng: np.random.Generator,
) -> StateSpaceModel:
    """Reference implementable by construction: the plant in closed loop
    with a random strictly proper LTI controller on the control variables.

    The controller reads the control variables that are plant outputs and
    drives the ones that are plant inputs; eliminating the shared variables
    then leaves an ordinary input/state/output system over the w channels,
    which is reduced to a minimal realization.
    """
    in_pos = {pos: i for i, pos in enumerate(plant.input_picks)}
    out_pos = {pos: i for i, pos in enumerate(plant.output_picks)}
    cu = [in_pos[p] for p in wc_partition.picks_c if p in in_pos]
    cy = [out_pos[p] for p in wc_partition.picks_c if p in out_pos]
    if not cu:
        raise GenerationError("closed-loop construction needs an actuated control variable")
    # w channels (1-based) that are plant inputs / outputs, and their plant rows
    wu = [(j + 1, in_pos[p]) for j, p in enumerate(wc_partition.picks_w) if p in in_pos]
    wy = [(j + 1, out_pos[p]) for j, p in enumerate(wc_partition.picks_w) if p in out_pos]
    wy_rows = [i for _, i in wy]
    ins, outs = [j for j, _ in wu], [j for j, _ in wy]  # the reference's channel placement

    # the products below multiply by selection matrices rather than index
    # rows: that keeps their summation order, so the drawn models stay the same
    E_c = np.eye(plant.m)[:, cu]
    E_w = np.eye(plant.m)[:, [i for _, i in wu]]
    S_cy = np.eye(plant.p)[cy]

    def draw(gain: float):
        Az = _stable_matrix(n_ctrl, rng)
        Bz = rng.standard_normal((n_ctrl, len(cy)))
        Cz = rng.standard_normal((len(cu), n_ctrl)) * gain
        # closed-loop state (x, z), free input v = the w channels that are
        # plant inputs
        BEcCz = plant.B @ E_c @ Cz
        DEcCz = plant.D @ E_c @ Cz
        A_cl = np.block(
            [
                [plant.A, BEcCz],
                [Bz @ S_cy @ plant.C, Az + Bz @ S_cy @ DEcCz],
            ]
        )
        B_cl = np.vstack([plant.B @ E_w, Bz @ S_cy @ plant.D @ E_w])
        C_cl = np.hstack([plant.C[wy_rows], DEcCz[wy_rows]])
        return A_cl, B_cl, C_cl, (plant.D @ E_w)[wy_rows]

    return _stable_minimal(draw, ins, outs, "closed-loop reference")


def random_reference_model(q: int, n: int, rng: np.random.Generator) -> StateSpaceModel:
    """Random stable reference behavior over q channels (adversarial cases).

    The input count is drawn from [0, q-1]; input-free draws keep at least
    one state so the behavior is not the zero behavior.
    """
    for _ in range(100):
        m = int(rng.integers(0, q))
        n_eff = max(n, 1) if m == 0 else n
        p = q - m
        A = _stable_matrix(n_eff, rng)
        B = rng.standard_normal((n_eff, m))
        C = rng.standard_normal((p, n_eff))
        D = rng.standard_normal((p, m))
        order = rng.permutation(q) + 1
        try:
            return StateSpaceModel(A, B, C, D, order[:m], order[m:])
        except MinimalityError:
            continue
    raise GenerationError("no minimal reference after 100 draws")


def random_sub_behavior_model(
    model: StateSpaceModel,
    m_sub: int,
    rng: np.random.Generator,
) -> StateSpaceModel:
    """Random LTI sub-behavior of a model's behavior, over the same channels.

    Keeps m_sub of the inputs free and ties the rest to the state and the
    free inputs; every trajectory of the result is a trajectory of the
    original behavior.
    """
    require_count(m_sub, "m_sub", 0, model.m)
    E_s = np.eye(model.m)[:, :m_sub]
    E_r = np.eye(model.m)[:, m_sub:]
    # channels: free inputs stay inputs; tied inputs and the original
    # outputs become outputs of the sub-behavior
    ins, outs = model.input_picks[:m_sub], model.input_picks[m_sub:] + model.output_picks

    def draw(gain: float):
        K = rng.standard_normal((model.m - m_sub, model.n)) * gain
        G = rng.standard_normal((model.m - m_sub, m_sub))
        A_s = model.A + model.B @ E_r @ K
        B_s = model.B @ (E_s + E_r @ G)
        C_s = np.vstack([K, model.C + model.D @ E_r @ K])
        return A_s, B_s, C_s, np.vstack([G, model.D @ (E_s + E_r @ G)])

    return _stable_minimal(draw, ins, outs, "sub-behavior")


# ---------------------------------------------------------------------------
# batch cases


@dataclass(frozen=True)
class HarnessConfig:
    """Upper bounds of a random case: channels of each role and plant order."""

    q_w_max: int = 2
    q_c_max: int = 2
    n_max: int = 3

    def __post_init__(self):
        for name, low in (("q_w_max", 1), ("q_c_max", 1), ("n_max", 0)):
            require_count(getattr(self, name), name, low)


@dataclass(frozen=True, eq=False)
class Case:
    seed: int
    kind: str
    plant: StateSpaceModel
    wc_partition: Partition
    ref_model: StateSpaceModel
    L: int
    plant_traj: Trajectory
    ref_traj: Trajectory
    bounds: InvariantBounds


@dataclass
class CaseResult:
    seed: int
    kind: str
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def build_case(seed: int, kind: str, cfg: HarnessConfig = HarnessConfig()) -> Case:
    """Deterministically build a random test case for the given seed.

    kind "closed_loop" makes the reference implementable by construction;
    "adversarial" draws an unrelated random reference.
    """
    if kind not in ("closed_loop", "adversarial"):
        raise ValueError(f"unknown case kind {kind!r}")
    rng = np.random.default_rng(seed)
    q_w = int(rng.integers(1, cfg.q_w_max + 1))
    q_c = int(rng.integers(1, cfg.q_c_max + 1))
    n_p = int(rng.integers(0, cfg.n_max + 1))
    plant, partition = random_plant(q_w, q_c, n_p, rng)
    if kind == "closed_loop":
        n_ctrl = int(rng.integers(0, 3))  # controller order 0..2
        ref = feedback_reference_model(plant, partition, n_ctrl, rng)
    else:
        ref = random_reference_model(q_w, int(rng.integers(0, cfg.n_max + 1)), rng)

    lag_bound = horizon_lag(plant, partition.picks_w, ref)
    L = lag_bound + int(rng.integers(1, 3))
    T_plant = gpe_length(plant.m, plant.n, L, plant.q)
    T_ref = gpe_length(ref.m, ref.n, L, ref.q)
    plant_traj = gpe_trajectory(plant, L, T_plant, rng)
    ref_traj = gpe_trajectory(ref, L, T_ref, rng)
    bounds = InvariantBounds(
        m_plant=plant.m, n_plant=plant.n, m_ref=ref.m, n_ref=ref.n, lag=lag_bound
    )
    return Case(seed, kind, plant, partition, ref, L, plant_traj, ref_traj, bounds)


# cfg is unused; perfbench/workloads.py calls evaluate_case(case, CFG)
def evaluate_case(case: Case, cfg: HarnessConfig = HarnessConfig()) -> CaseResult:
    """Run every cross-check on one case; failures are named for replay."""
    failures: list[str] = []
    bundle = DataBundle(case.plant_traj, case.ref_traj, case.L, case.wc_partition, case.bounds)
    vd = check_data(bundle)
    vm = check_model(case.plant, case.wc_partition, case.ref_model, case.L)
    if not (vd.gpe_plant and vd.gpe_ref):
        failures.append("gpe_flags")
    if vd.implementable != vm.implementable:
        failures.append("data_model_agreement")
    if case.kind == "closed_loop" and not vm.implementable:
        failures.append("model_positive")
    if vd.implementable:
        # flat, stricter than is_subspace_of's tol*(1 + ||Q||_F): folding it in would loosen it
        if max(vd.residual_hidden_in_ref, vd.residual_ref_in_plant) > DEFAULT_RESIDUAL_TOL:
            failures.append("certificate_residuals")
    if vm.implementable and vd.implementable:
        failures.extend(_synthesis_checks(bundle))
    return CaseResult(case.seed, case.kind, failures)


def _synthesis_checks(bundle: DataBundle) -> list[str]:
    failures: list[str] = []
    syn = synthesize(bundle)
    ctrl_via_intersection = controller_basis_intersection_route(syn.P_r, syn.P_p, syn.plan)
    routes_agree, _ = subspaces_equal(syn.controller.basis, ctrl_via_intersection.basis)
    if not routes_agree:
        failures.append("synthesis_routes_agree")
    if not syn.report.verified:
        failures.append("closed_loop_exact")
    return failures


def run_batch(
    n_cases: int,
    base_seed: int = 0,
    cfg: HarnessConfig = HarnessConfig(),
) -> dict:
    """Alternate implementable/adversarial cases and collect the `proptest` report.

    `failure_counts` maps each check name to the number of cases failing it;
    cases that raised count under "exception".  An error names the
    `proptest` option: seeds for n_cases, seed for base_seed.
    """
    require_count(n_cases, "seeds", 1)
    require_count(base_seed, "seed")
    results = []
    for i in range(n_cases):
        seed = base_seed + i
        kind = "closed_loop" if i % 2 == 0 else "adversarial"
        try:
            case = build_case(seed, kind, cfg)
            results.append(evaluate_case(case, cfg))
        except Exception as exc:  # recorded, not raised: seeds stay replayable
            results.append(CaseResult(seed, kind, [f"exception: {exc}"]))
    failures = [
        {"seed": r.seed, "kind": r.kind, "checks": r.failures}
        for r in results
        if not r.passed
    ]
    failure_counts = Counter(
        "exception" if check.startswith("exception: ") else check
        for r in results
        for check in set(r.failures)
    )
    return {
        "cases": n_cases,
        "passes": sum(1 for r in results if r.passed),
        "failures": failures,
        "failure_counts": dict(sorted(failure_counts.items())),
        "base_seed": base_seed,
    }
