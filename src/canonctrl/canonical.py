"""Canonical controller synthesis from data and closed-loop verification.

The controller's finite-horizon behavior is the c-coordinate image of the
intersection of the plant's restricted behavior with the lift of the
reference (reference on w, anything on c).  All projector algebra happens in
the canonical interleaved layout: the lifts place their blocks directly at
the w and c positions that :class:`PermutationPlan` reads off
:func:`canonctrl.signal.channel_rows`.  The paper's formula
(:func:`controller_basis`) is evaluated on the smaller Gram of the two
projectors' stacked bases, d x d only when their dimensions add up to more
than d, and intersections are sections of bases
(:func:`canonctrl.subspace.intersect`).

Plant trajectories entering this module must carry their channels in
(w-block, c-block) order, as a :class:`~canonctrl.implementability.DataBundle`
holds them (:func:`canonctrl.signal.arrange_by_partition` arranges any
other).  :func:`synthesize` runs the whole sequence on a bundle.  Its
projectors read the Hankel factorizations stored with the trajectories
(:func:`canonctrl.signal.hankel_image`), so a checked bundle is factored no
further, and the closed-loop check gets the bases the check stored.  The
closed-loop check is an exact subspace equality, decided on the fixed angle
tolerance :data:`canonctrl.subspace.DEFAULT_ANGLE_TOL`; no caller sets it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .implementability import DataBundle, reference_basis
from .signal import (
    Trajectory,
    channel_rows,
    hankel_image,
    read_float_rows,
    read_json_object,
    require_count,
    write_float_rows,
)
from .subspace import (
    BehaviorBasis,
    Projector,
    equal_by_angles,
    intersect,
    orthonormal_basis,
    pinv_symmetric,
    principal_angles,
    projector_onto,
    row_span,
)


@dataclass(frozen=True)
class PermutationPlan:
    """Positions of the w and c coordinates in the canonical interleaved layout.

    Canonical layout interleaves per time step: (w(1), c(1), ..., w(L), c(L)).
    """

    q: int
    k: int
    L: int

    def __post_init__(self):
        for name in ("q", "k", "L"):
            require_count(getattr(self, name), name, 1)

    @property
    def ambient_dim(self) -> int:
        return (self.q + self.k) * self.L

    @cached_property
    def w_rows(self) -> np.ndarray:
        """Canonical-layout positions of the w coordinates."""
        return channel_rows(tuple(range(1, self.q + 1)), self.q + self.k, self.L)

    @cached_property
    def c_rows(self) -> np.ndarray:
        """Canonical-layout positions of the c coordinates."""
        picks = tuple(range(self.q + 1, self.q + self.k + 1))
        return channel_rows(picks, self.q + self.k, self.L)


@dataclass(frozen=True, eq=False)
class ControllerBasis:
    """Finite-horizon controller behavior: a subspace of the c-window space."""

    basis: BehaviorBasis
    k: int
    L: int

    def __post_init__(self):
        if self.basis.ambient_dim != self.k * self.L:
            raise DimensionError(
                f"controller ambient {self.basis.ambient_dim} != k*L = {self.k * self.L}"
            )

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass(frozen=True)
class ClosedLoopReport:
    """Principal-angle comparison of the controlled behavior with the reference."""

    verified: bool
    max_angle: float
    angles: tuple[float, ...]
    dim_controlled: int
    dim_reference: int

    def to_dict(self) -> dict:
        return {
            "verified": self.verified,
            "max_angle": self.max_angle,
            "angles": list(self.angles),
            "dim_controlled": self.dim_controlled,
            "dim_reference": self.dim_reference,
        }


def plant_projector(plant_traj: Trajectory, L: int) -> Projector:
    """Orthogonal projector onto the plant's restricted behavior from data.

    `plant_traj` must hold the full (w, c) variables with w channels first;
    the Hankel image then sits in canonical interleaved layout directly.
    """
    return projector_onto(hankel_image(plant_traj, L).basis)


def reference_lift_projector(
    ref_traj: Trajectory, k: int, L: int, plan: PermutationPlan
) -> Projector:
    """Projector onto (reference windows) x (anything on c), canonical layout.

    Its basis lifts the reference Hankel image's basis: that basis on the w
    rows (the leading columns), then unit columns on the c rows.
    """
    if plan.q != ref_traj.q or plan.k != k or plan.L != L:
        raise DimensionError("plan does not match (q, k, L) of the inputs")
    QR = reference_basis(ref_traj, L).basis
    return projector_onto(_lift(plan, QR, np.eye(k * L)))


def controller_basis(P_r: Projector, P_p: Projector, plan: PermutationPlan) -> ControllerBasis:
    """Controller behavior synthesized from the two data projectors.

    The paper's formula: X = P_r (P_r + P_p)^+ P_p, its c rows,
    orthonormalized.  It is evaluated on the bases Q_r, Q_p the projectors
    hold, never on their d x d matrices.  With G = [Q_r | Q_p], P_r + P_p = G G^T
    and (G G^T)^+ = G (G^T G)^{+2} G^T, so X = Q_r M Q_p^T with

        M = (K^+ K)[:r_r, r_r:],  K = G^T G = [[I, C], [C^T, I]],  C = Q_r^T Q_p.

    When r_r + r_p > d the d x d Gram is the smaller one, and
    M = Q_r^T (G G^T)^+ Q_p.  Either Gram has the nonzero eigenvalues
    1 +- cos(theta) of P_r + P_p (Anderson-Duffin), so both branches make the
    formula's own rank decision, through `pinv_symmetric`, counting on the
    Gram they factor.  Q_p^T has orthonormal rows, so Q_r[c] M has the image
    and singular values of X[c].  K is assembled in place, and G is freed
    before its Gram is factored, so the step holds the Gram and at most two
    more arrays of its size.  The formula is evaluated unconditionally:
    whether the result implements the reference is decided by
    `verify_closed_loop`.
    """
    if {P_r.basis.ambient_dim, P_p.basis.ambient_dim} != {plan.ambient_dim}:
        raise DimensionError("projector ambient dims do not match the plan")
    Q_r, Q_p = P_r.basis.basis, P_p.basis.basis
    r, p = Q_r.shape[1], Q_p.shape[1]
    if r + p <= plan.ambient_dim:
        K = np.eye(r + p)
        K[:r, r:] = Q_r.T @ Q_p
        K[r:, :r] = K[:r, r:].T
        M = pinv_symmetric(K)[:r] @ K[:, r:]
    else:
        G = np.hstack([Q_r, Q_p])
        GGt = G @ G.T
        del G
        M = Q_r.T @ pinv_symmetric(GGt) @ Q_p
    # X is (half) a projector, so Q_r[c] M, with its singular values, is on the 0..1 scale
    return ControllerBasis(orthonormal_basis(Q_r[plan.c_rows] @ M, scale=1.0), plan.k, plan.L)


def controller_basis_intersection_route(
    P_r: Projector, P_p: Projector, plan: PermutationPlan
) -> ControllerBasis:
    """Same controller subspace through the subspace intersection.

    Intersects the two projectors' images, then takes the c rows.  Agrees
    with `controller_basis` up to numerical tolerance; kept as an independent
    cross-check.  It decides a nearly touching pair on sin(theta), where the
    formula sees theta^2 / 2, so it can drop a direction the formula keeps.
    """
    return ControllerBasis(row_span(intersect(P_r, P_p).basis, plan.c_rows), plan.k, plan.L)


def _lift(plan: PermutationPlan, Qw: np.ndarray, Qc: np.ndarray) -> BehaviorBasis:
    """Qw on the w rows, then Qc on the c rows: a basis of R^d as assembled.

    The row sets are disjoint, so the columns are orthonormal with no factorization.
    """
    r = Qw.shape[1]
    lift = np.zeros((plan.ambient_dim, r + Qc.shape[1]))
    lift[plan.w_rows, :r] = Qw
    lift[plan.c_rows, r:] = Qc
    return BehaviorBasis(lift)


def lift_controller(C: ControllerBasis, plan: PermutationPlan) -> BehaviorBasis:
    """Lift a controller subspace to (anything on w) x C, canonical layout."""
    return _lift(plan, np.eye(plan.q * plan.L), C.basis.basis)


def verify_closed_loop(
    P_basis: BehaviorBasis,
    C: ControllerBasis,
    R_basis: BehaviorBasis,
    plan: PermutationPlan,
) -> tuple[bool, ClosedLoopReport]:
    """Does interconnecting the plant with C reproduce the reference on w?

    Intersects the plant's restricted behavior with the controller lift,
    takes the span of the w rows (:func:`~canonctrl.subspace.row_span`),
    and compares against the reference by principal angles.  True iff the
    subspaces coincide: equal dimensions and a largest angle below the fixed
    :data:`~canonctrl.subspace.DEFAULT_ANGLE_TOL`.  The verdict is returned
    beside the report that holds it, as callers unpack the pair.
    """
    if P_basis.ambient_dim != plan.ambient_dim:
        raise DimensionError("plant basis ambient does not match the plan")
    if R_basis.ambient_dim != plan.q * plan.L:
        raise DimensionError("reference basis ambient does not match the plan")
    P_loop = intersect(projector_onto(P_basis), projector_onto(lift_controller(C, plan)))
    controlled = row_span(P_loop.basis, plan.w_rows)
    angles = principal_angles(controlled, R_basis)
    verified, max_angle = equal_by_angles(controlled.dim, R_basis.dim, angles)
    report = ClosedLoopReport(
        verified=verified,
        max_angle=max_angle,
        angles=tuple(float(a) for a in angles),
        dim_controlled=controlled.dim,
        dim_reference=R_basis.dim,
    )
    return verified, report


@dataclass(frozen=True, eq=False)
class Synthesis:
    """The two data projectors, the controller they give, and its verification."""

    plan: PermutationPlan
    P_p: Projector
    P_r: Projector
    controller: ControllerBasis
    report: ClosedLoopReport


def synthesize(bundle: DataBundle) -> Synthesis:
    """Canonical controller from measured data, verified in closed loop.

    Builds the plant and reference-lift projectors, synthesizes the
    controller, and checks that the plant interconnected with it reproduces
    the reference.  Each trajectory is factored at most once: the plant
    basis of that check is the one P_p holds, and the reference basis the
    one P_r's lift was built from.
    """
    L = bundle.L
    plan = PermutationPlan(bundle.partition.n_w, bundle.partition.n_c, L)
    P_p = plant_projector(bundle.plant_traj, L)
    P_r = reference_lift_projector(bundle.ref_traj, plan.k, L, plan)
    ctrl = controller_basis(P_r, P_p, plan)
    R_basis = reference_basis(bundle.ref_traj, L)
    _, report = verify_closed_loop(P_p.basis, ctrl, R_basis, plan)
    return Synthesis(plan, P_p, P_r, ctrl, report)


def write_controller_csv(path, C: ControllerBasis) -> None:
    """Basis matrix as CSV (kL rows, one column per basis vector) plus sidecar.

    The sidecar JSON (same path with .json suffix) records k, L, and the
    vector layout.  A .json path would be its own sidecar, so it is refused
    before anything is written.
    """
    path = Path(path)
    if path.suffix == ".json":
        raise ValueError(f"{path}: a .json path would be overwritten by its own sidecar")
    with open(path, "w", newline="", encoding="utf-8") as f:
        write_float_rows(f, C.basis.basis)
    sidecar = {"k": C.k, "L": C.L, "layout": "interleaved-time-major"}
    with open(path.with_suffix(".json"), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def read_controller_csv(path) -> ControllerBasis:
    """Read back a controller basis written by `write_controller_csv`; no rows: 0-dim.

    The sidecar is a JSON object whose `k` and `L` are counts >= 1
    (:func:`~canonctrl.signal.require_count`); every error names the sidecar.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    meta = read_json_object(sidecar, ("k", "L"), "the sidecar")
    k, L = (require_count(meta[key], f"{sidecar}: {key}", 1) for key in ("k", "L"))
    matrix = read_float_rows(path)
    if matrix.size == 0:
        matrix = np.zeros((k * L, 0))
    return ControllerBasis(orthonormal_basis(matrix), k, L)
