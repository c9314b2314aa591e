"""Implementability of a reference behavior, from data and from models.

The data route builds three raw-data subspaces over horizon L -- the hidden
behavior N (w-windows compatible with c pinned to zero), the reference R,
and the uncontrolled plant behavior P_w -- and decides implementability by
testing the inclusion chain N ⊆ R ⊆ P_w through least-squares residuals,
each held to the fixed :data:`~canonctrl.subspace.DEFAULT_RESIDUAL_TOL`
(no caller sets it: on exact data, another value could only flip a right
verdict).
The model route computes the same three subspaces exactly from state-space
oracles; the two must agree whenever the data is sufficiently exciting.

Every data subspace is read off the orthonormal image basis of a Hankel
matrix, in the window space: no matrix is ever indexed by data length on
both sides.  A :class:`DataBundle` holds its plant in the (w, c) order
synthesis reads, and each trajectory is factored once
(:func:`canonctrl.signal.hankel_image` stores the factorization with it),
so the excitation tests and synthesis reuse it.  Both routes read N and
P_w off a joint plant basis the same way: N is its section at c = 0
(:func:`~canonctrl.lti_core.hidden_restricted_basis`, the one section both
call) and P_w the span of its w rows (:func:`~canonctrl.subspace.row_span`,
the one coordinate projection).  The model route hands the section a basis
with the control inputs already pinned to zero, which c = 0 sets exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import lti_core
from .errors import DimensionError, HorizonError
from .signal import (
    Partition,
    Trajectory,
    arrange_by_partition,
    channel_rows,
    excitation_target,
    hankel_image,
    is_gpe,
    require_count,
)
from .subspace import BehaviorBasis, is_subspace_of, row_span


@dataclass(frozen=True)
class InvariantBounds:
    """Caller-supplied invariant bounds for the data route.

    m_*/n_* are input-count and order bounds used in the excitation rank
    tests; lag bounds the largest of the three lags entering the horizon
    precondition (plant, reference, uncontrolled plant).  Each is a
    nonnegative count (:func:`~canonctrl.signal.require_count`): a bool, a
    float or a negative value raises ValueError naming the field.
    """

    m_plant: int
    n_plant: int
    m_ref: int
    n_ref: int
    lag: int

    def __post_init__(self):
        for f in fields(self):
            require_count(getattr(self, f.name), f.name)


def _check_channels(plant_q: int, ref_q: int, partition: Partition) -> None:
    """The plant carries the partition's channels and the reference its w channels."""
    if plant_q != partition.total:
        raise DimensionError(f"plant has {plant_q} channels, partition {partition.total}")
    if ref_q != partition.n_w:
        raise DimensionError(f"reference has {ref_q} channels, expected {partition.n_w}")


@dataclass(frozen=True, eq=False)
class DataBundle:
    """Measured plant and reference trajectories plus the test configuration.

    The bounds are required and checked when the bundle is built, before
    anything is factored: L must exceed the lag bound (HorizonError), and
    each excitation target must fit its Hankel matrix (InfeasibleRankError).
    The plant is held in (w, c) order, with the in-order partition
    (1..n_w | n_w+1..total), so a check and a synthesis of the bundle share
    one plant trajectory and its stored factorization.
    """

    plant_traj: Trajectory
    ref_traj: Trajectory
    L: int
    partition: Partition
    bounds: InvariantBounds

    def __post_init__(self):
        p, b = self.partition, self.bounds
        _check_channels(self.plant_traj.q, self.ref_traj.q, p)
        require_count(self.L, "L", 1, min(self.plant_traj.T, self.ref_traj.T))
        if self.L <= b.lag:
            raise HorizonError(f"L={self.L} must exceed the lag bound {b.lag}")
        excitation_target(self.plant_traj, self.L, b.m_plant, b.n_plant, "plant")
        excitation_target(self.ref_traj, self.L, b.m_ref, b.n_ref, "reference")
        in_order = Partition(p.total, range(1, p.n_w + 1), range(p.n_w + 1, p.total + 1))
        object.__setattr__(self, "plant_traj", arrange_by_partition(self.plant_traj, p))
        object.__setattr__(self, "partition", in_order)


@dataclass(frozen=True, eq=False)
class ImplementabilityVerdict:
    """Decision plus the residuals, excitation flags and ranks behind it.

    implementable is true only when both inclusion residuals pass and both
    excitation flags hold.
    """

    implementable: bool
    residual_hidden_in_ref: float
    residual_ref_in_plant: float
    gpe_plant: bool
    gpe_ref: bool
    rank_hidden: int
    rank_ref: int
    rank_uncontrolled: int

    def to_dict(self) -> dict:
        return {
            "implementable": self.implementable,
            "residuals": {
                "hidden_in_ref": self.residual_hidden_in_ref,
                "ref_in_plant": self.residual_ref_in_plant,
            },
            "gpe": {"plant": self.gpe_plant, "ref": self.gpe_ref},
            "ranks": {
                "N": self.rank_hidden,
                "R": self.rank_ref,
                "Pw": self.rank_uncontrolled,
            },
        }


def hidden_basis(plant_traj: Trajectory, partition: Partition, L: int) -> BehaviorBasis:
    """Data representation of the hidden behavior over horizon L.

    The hidden behavior is the image of H_L(w) (I - H_L(c)^+ H_L(c)): the
    w-windows whose c-windows vanish, ambient |w| L.  With U an orthonormal
    image basis of the joint Hankel matrix H_L(w, c) = U C (C of full row
    rank), the same subspace is the image of U_w (I - U_c^+ U_c), where
    U_w, U_c are the w and c rows of U.  So the annihilator is formed in
    the r x r coefficient space of U, not the T x T column space of H.
    U (the stored :func:`~canonctrl.signal.hankel_image`) goes to
    :func:`~canonctrl.lti_core.hidden_restricted_basis`, the section
    function the model oracle applies to its window map image.

    `partition` names channels of `plant_traj` in its own order: a
    :class:`DataBundle` rearranges its plant, so pass ``bundle.plant_traj``
    with ``bundle.partition``, not with the partition the bundle was built from.
    """
    U = hankel_image(plant_traj, L).basis
    return lti_core.hidden_restricted_basis(U, partition, L)


def reference_basis(ref_traj: Trajectory, L: int) -> BehaviorBasis:
    """Data representation of the restricted reference behavior: image of H_L(r)."""
    return hankel_image(ref_traj, L).basis


def uncontrolled_basis(plant_traj: Trajectory, partition: Partition, L: int) -> BehaviorBasis:
    """Data representation of the uncontrolled plant behavior: image of H_L(w).

    Read off the joint Hankel image basis, as :func:`check_model` reads it
    off the oracle's.  As in :func:`hidden_basis`, `partition` names channels
    of `plant_traj` in its own order, so ``bundle.plant_traj`` goes with
    ``bundle.partition``.
    """
    U = hankel_image(plant_traj, L).basis
    return row_span(U, channel_rows(partition.picks_w, plant_traj.q, L))


def _verdict_from_bases(
    N: BehaviorBasis,
    R: BehaviorBasis,
    Pw: BehaviorBasis,
    gpe_plant: bool,
    gpe_ref: bool,
) -> ImplementabilityVerdict:
    ok_left, res_left = is_subspace_of(N, R)
    ok_right, res_right = is_subspace_of(R, Pw)
    return ImplementabilityVerdict(
        implementable=ok_left and ok_right and gpe_plant and gpe_ref,
        residual_hidden_in_ref=res_left,
        residual_ref_in_plant=res_right,
        gpe_plant=gpe_plant,
        gpe_ref=gpe_ref,
        rank_hidden=N.dim,
        rank_ref=R.dim,
        rank_uncontrolled=Pw.dim,
    )


def check_data(bundle: DataBundle) -> ImplementabilityVerdict:
    """Decide implementability of the reference directly from trajectories.

    The bundle is valid by construction (:class:`DataBundle`), so this only
    computes.  A failed excitation test forces a negative decision (the
    inclusion residuals are still reported); the bases come first, so those
    tests count singular values already stored.
    """
    bounds = bundle.bounds
    N = hidden_basis(bundle.plant_traj, bundle.partition, bundle.L)
    R = reference_basis(bundle.ref_traj, bundle.L)
    Pw = uncontrolled_basis(bundle.plant_traj, bundle.partition, bundle.L)
    gpe_plant, _ = is_gpe(bundle.plant_traj, bundle.L, bounds.m_plant, bounds.n_plant)
    gpe_ref, _ = is_gpe(bundle.ref_traj, bundle.L, bounds.m_ref, bounds.n_ref)
    return _verdict_from_bases(N, R, Pw, gpe_plant, gpe_ref)


def check_model(
    plant: lti_core.StateSpaceModel,
    wc_partition: Partition,
    ref: lti_core.StateSpaceModel,
    L: int,
) -> ImplementabilityVerdict:
    """Decide implementability from state-space oracles of plant and reference.

    Builds the exact restricted bases of the hidden behavior, the reference,
    and the uncontrolled plant, and tests the same inclusion chain as the
    data route.  The plant's depth-L window map is built once and gives two
    bases from one QR (:func:`~canonctrl.lti_core.restricted_behavior_bases`):
    P_w is the span of the full basis's w rows, and N the section at c = 0 of
    the basis whose inputs on control channels are pinned to zero, as c = 0
    pins them exactly.  The horizon must exceed all three lags, which are
    computed from the models.
    """
    _check_channels(plant.q, ref.q, wc_partition)
    lag_needed = lti_core.horizon_lag(plant, wc_partition.picks_w, ref)
    if L <= lag_needed:
        raise HorizonError(f"L={L} must exceed the lag bound {lag_needed}")
    U, U_pinned = lti_core.restricted_behavior_bases(plant, L, wc_partition.picks_c)
    N = lti_core.hidden_restricted_basis(U_pinned, wc_partition, L)
    R = lti_core.restricted_behavior_basis(ref, L)
    Pw = row_span(U, channel_rows(wc_partition.picks_w, plant.q, L))
    return _verdict_from_bases(N, R, Pw, True, True)
