"""Numerical subspace algebra.

Subspaces of R^d are carried around as orthonormal-column matrices
(:class:`BehaviorBasis`); an orthogonal projector (:class:`Projector`) holds
one and forms its d x d matrix only on request (no step of the package
asks; the paper's controller formula works on the bases too).  Two
operations act on the window space of a basis.  A section of a basis
(:func:`section`) is the one primitive for "the vectors of a subspace that
satisfy a constraint": the hidden behavior (the section of a joint basis's
w rows by its c rows) and the intersection (:func:`intersect`) are both
sections.  :func:`is_subspace_of` is the one inclusion test, of the verdict
chain N ⊆ R ⊆ P_w and of an intersection in its inputs.  The row span of a
basis (:func:`row_span`) is the one coordinate projection: the uncontrolled
behavior P_w, the closed loop's w rows and a controller's c rows are all row
spans.  Everything is
SVD-based, through the one routine :func:`svd`, which factors the transpose
where LAPACK's gesdd does not converge; numpy factors empty matrices, so no
function special-cases them.  Every rank decision reads the one rule
:data:`DEFAULT_RANK_TOL`, so the whole package cuts singular values the same
way.  Wide matrices
(data Hankel matrices have far more columns than rows) are reduced to a
square factor by a block-wise QR factorization of their transpose before
the SVD, which then never sees the long dimension.  The QR holds one block
of columns at a time, so its memory is bounded by rows x block, not by the
column count; a matrix of at most one block takes a single QR.
The pseudoinverse of an exactly symmetric semidefinite Gram
(:func:`pinv_symmetric`) comes from its eigenvectors as a symmetric
product, exactly symmetric, with at most two arrays of the Gram's size held
beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalDegeneracyError

#: Default tolerance on principal angles when deciding subspace equality.
DEFAULT_ANGLE_TOL = 1e-8

#: Tolerance of the fixed inclusion rule on residuals (see :func:`is_subspace_of`).
DEFAULT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class RankTolerance:
    """The package's one rank rule: keep singular values above a relative cutoff.

    The cutoff is ``tol_rel * anchor * min(rows, cols)``; the anchor is
    sigma_max, or `scale` when that is larger.  More columns of a Hankel
    matrix are more windows of the same behavior, so a factor that grew with
    the long dimension would drop genuine directions as T grows.  The rule
    takes no argument: `tol_rel` is a class constant, not a dataclass field.
    """

    tol_rel = 1e-10

    def count(self, s: np.ndarray, shape: tuple, scale: float | None = None) -> int:
        """The number kept of the nonincreasing singular values s of a `shape` matrix."""
        if s.size == 0:
            return 0
        cutoff = self.tol_rel * max(s[0], scale or 0.0) * min(shape)
        return int(np.count_nonzero(s > cutoff))

    def rank(self, M: np.ndarray, shape: tuple | None = None) -> int:
        M = np.asarray(M, dtype=float)
        return self.count(svd(_thin_factor(M), compute_uv=False), shape or M.shape)


#: The rank rule every rank decision of the package reads; it is not a parameter.
DEFAULT_RANK_TOL = RankTolerance()


def svd(M: np.ndarray, compute_uv: bool = True):
    """Thin SVD (U, s, Vt) of M, or s alone; if gesdd fails on M, that of M^T, swapped back."""
    try:
        return np.linalg.svd(M, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = np.linalg.svd(M.T, full_matrices=False, compute_uv=compute_uv)
        return (out[2].T, out[1], out[0].T) if compute_uv else out


def _thin_factor(M: np.ndarray) -> np.ndarray:
    """A matrix with M's left singular vectors and singular values.

    A wide M = R^T Q^T (QR of M^T) shares them with the rows x rows factor
    R^T, so the SVD never touches the long dimension.  The QR runs block by
    block (sequential tall-skinny QR): R of the first b columns, then R of
    R stacked on each next block, with b = max(4 rows, 1024).  No array is
    larger than (rows + b) x rows, whatever the column count; with at most
    b columns it is the one QR of M^T, bit for bit.  Below 1.5 columns per
    row the extra QR costs more than it saves, and M passes through.
    """
    rows, cols = M.shape
    if 2 * cols <= 3 * rows:
        return M
    b = max(4 * rows, 1024)
    R = np.linalg.qr(M[:, :b].T, mode="r")
    for j in range(b, cols, b):
        R = np.linalg.qr(np.vstack([R, M[:, j : j + b].T]), mode="r")
    return R.T


@dataclass(frozen=True, eq=False)
class BehaviorBasis:
    """Orthonormal basis of a subspace of R^{ambient_dim}.

    ``basis`` has shape (ambient_dim, r) with orthonormal columns; r may be
    zero (the zero subspace is first-class).
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise DimensionError(f"a basis is a matrix, got shape {b.shape}")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector onto the image of an orthonormal basis Q.

    `matrix` forms Q Q^T on each access; the package's algebra reads `basis`.
    """

    basis: BehaviorBasis

    def __post_init__(self):
        Q = self.basis.basis
        # Q Q^T is idempotent exactly when Q^T Q = I: O(d r^2), not O(d^3)
        defect = np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))
        if defect > 1e-8 * (1.0 + np.linalg.norm(Q)):
            raise NumericalDegeneracyError(f"projector basis not orthonormal: defect {defect:.3e}")

    @property
    def matrix(self) -> np.ndarray:
        Q = self.basis.basis
        return Q @ Q.T


def orthonormal_basis(M: np.ndarray, *, scale: float | None = None) -> BehaviorBasis:
    """Orthonormal basis of the column space of M (zero matrix gives r = 0).

    The leading left singular vectors that the package rank rule keeps.
    `scale` anchors the cutoff when M is a product whose own largest
    singular value may be pure rounding noise (for example a block of an
    orthonormal basis times an annihilator, or a numerically zero
    projector); see :class:`RankTolerance`.
    """
    return image_svd(M, scale=scale)[0]


def image_svd(
    M: np.ndarray, *, scale: float | None = None, shape: tuple | None = None
) -> tuple[BehaviorBasis, np.ndarray]:
    """`orthonormal_basis(M, scale=scale)` and all singular values of M, from one SVD.

    The rank rule counts against `shape`, that of the matrix M holds columns of
    (M's own by default); :meth:`RankTolerance.rank` takes it too.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={M.ndim}")
    U, s, _ = svd(_thin_factor(M))
    return BehaviorBasis(U[:, : DEFAULT_RANK_TOL.count(s, shape or M.shape, scale)].copy()), s


def image_basis(P: Projector) -> BehaviorBasis:
    """Orthonormal basis of a projector's image."""
    return P.basis


def pinv(M: np.ndarray, *, scale: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank rule.

    Inverts the singular triplets that rule keeps (`scale` anchors the
    cutoff as in :func:`orthonormal_basis`) and drops the rest.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = svd(M)
    r = DEFAULT_RANK_TOL.count(s, M.shape, scale)
    return (Vt[:r].T / s[:r]) @ U[:, :r].T


def section(keep: np.ndarray, constraint: np.ndarray) -> BehaviorBasis:
    """The image of keep on the coefficient vectors that constraint annihilates.

    keep and constraint share their r columns: the image of
    keep (I - constraint^+ constraint), an r x r annihilator.  Both are
    blocks of, or products with, an orthonormal basis, on the 0..1 scale, so
    both cutoffs are anchored at 1: rounding-level rows (an identically zero
    block) do not count as rank, and a trivial section comes out empty.
    """
    annihilator = np.eye(keep.shape[1]) - pinv(constraint, scale=1.0) @ constraint
    return orthonormal_basis(keep @ annihilator, scale=1.0)


def row_span(B: BehaviorBasis, rows: np.ndarray) -> BehaviorBasis:
    """The coordinate projection of Image(B) onto `rows`: the span of B's rows there.

    Rows of an orthonormal basis live on the 0..1 scale, so the cutoff is
    anchored at 1, as in :func:`section`.
    """
    return orthonormal_basis(B.basis[rows], scale=1.0)


def pinv_symmetric(S: np.ndarray) -> np.ndarray:
    """Pseudoinverse of an exactly symmetric semidefinite matrix (a Gram).

    Inverts the eigenpairs whose |eigenvalue| (a singular value) the package
    rank rule keeps.  S must equal S^T entry for entry, and every kept
    eigenvalue must be positive; any other input raises
    NumericalDegeneracyError.  The kept eigenvectors, scaled once by
    1/sqrt(eigenvalue), form the result as Y Y^T, a symmetric product that
    is exactly symmetric, which a generic SVD pinv is not.  It holds at most
    two n x n arrays beyond S: the eigenvectors and Y, then Y and the result.
    """
    S = np.asarray(S, dtype=float)
    if not np.array_equal(S, S.T):
        raise NumericalDegeneracyError("pinv_symmetric needs an exactly symmetric matrix")
    w, V = np.linalg.eigh(S)
    order = np.argsort(-np.abs(w))
    keep = order[: DEFAULT_RANK_TOL.count(np.abs(w[order]), S.shape)]
    w, Y = w[keep], V[:, keep]
    del V
    if (w < 0).any():
        raise NumericalDegeneracyError(
            f"pinv_symmetric needs a semidefinite matrix, got eigenvalue {w.min():.3e}"
        )
    Y /= np.sqrt(w)
    return Y @ Y.T


def projector_onto(B: BehaviorBasis) -> Projector:
    """Orthogonal projector onto the image of an orthonormalized basis."""
    return Projector(B)


def _same_ambient(B1: BehaviorBasis, B2: BehaviorBasis) -> None:
    if B1.ambient_dim != B2.ambient_dim:
        raise DimensionError(f"ambient dims differ: {B1.ambient_dim} vs {B2.ambient_dim}")


def intersect(PV: Projector, PW: Projector) -> Projector:
    """Orthogonal projector onto the intersection of two subspaces.

    V ∩ W is the :func:`section` of Q_V by (I - Q_W Q_W^T) Q_V, all O(d r^2)
    on the two bases; a pair at principal angle theta leaves sin(theta) in
    that constraint.  :func:`is_subspace_of` checks the image in both
    inputs and raises NumericalDegeneracyError, rather than rounding
    silently, when angles whose sines the rank cutoff drops add up
    (Frobenius norm) to more than the residual tolerance.
    """
    _same_ambient(PV.basis, PW.basis)
    QV, QW = PV.basis.basis, PW.basis.basis
    inter = section(QV, QV - QW @ (QW.T @ QV))
    inside = [is_subspace_of(inter, B) for B in (PV.basis, PW.basis)]
    if not all(ok for ok, _ in inside):
        raise NumericalDegeneracyError(
            f"intersection image not inside both inputs: defect {max(r for _, r in inside):.3e}"
        )
    return Projector(inter)


def is_subspace_of(Bsub: BehaviorBasis, Bsup: BehaviorBasis) -> tuple[bool, float]:
    """Inclusion test Image(Bsub) ⊆ Image(Bsup) with residual diagnostics.

    The residual is ||(I - P_sup) Q_sub||_F; inclusion holds when it stays
    below DEFAULT_RESIDUAL_TOL * (1 + ||Q_sub||_F), a fixed rule.
    """
    _same_ambient(Bsub, Bsup)
    Q, Qs = Bsub.basis, Bsup.basis
    residual = float(np.linalg.norm(Q - Qs @ (Qs.T @ Q)))
    return residual <= DEFAULT_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(Q))), residual


def principal_angles(B1: BehaviorBasis, B2: BehaviorBasis) -> np.ndarray:
    """Principal angles between two subspaces, nonincreasing, in [0, pi/2].

    The cosines are the singular values of Q1^T Q2 (clamped to [-1, 1]);
    angles below pi/4 are recomputed through the sine route (singular values
    of the out-of-subspace component), since arccos alone cannot resolve
    angles under ~1.5e-8.  The list has min(dim1, dim2) entries; subspace
    equality means equal dims and max angle below tolerance.
    """
    _same_ambient(B1, B2)
    Q1, Q2 = B1.basis, B2.basis
    M = Q1.T @ Q2
    cosines = svd(M, compute_uv=False)  # nonincreasing
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))  # nondecreasing
    small = cosines**2 >= 0.5
    if np.any(small):
        if Q1.shape[1] >= Q2.shape[1]:
            residual = Q2 - Q1 @ M
        else:
            residual = Q1 - Q2 @ M.T
        sines = svd(residual, compute_uv=False)[::-1]  # nondecreasing
        angles[small] = np.arcsin(np.clip(sines[small], -1.0, 1.0))
    return angles[::-1].copy()


def subspaces_equal(
    B1: BehaviorBasis,
    B2: BehaviorBasis,
    angle_tol: float = DEFAULT_ANGLE_TOL,
) -> tuple[bool, float]:
    """Equality of subspaces: same dimension and max principal angle < tol.

    Returns the max angle for diagnostics (0 for two zero subspaces,
    pi/2 when the dimensions differ).  `angle_tol` stays a parameter only
    because the acceptance battery passes its own tolerance positionally.
    """
    angles = principal_angles(B1, B2) if B1.dim == B2.dim > 0 else np.zeros(0)
    return equal_by_angles(B1.dim, B2.dim, angles, angle_tol)


def equal_by_angles(
    dim1: int, dim2: int, angles: np.ndarray, angle_tol: float = DEFAULT_ANGLE_TOL
) -> tuple[bool, float]:
    """:func:`subspaces_equal`'s verdict on principal angles already computed.

    Differing dimensions give (False, pi/2) whatever the angles; no angles
    (two zero subspaces) give (True, 0.0).
    """
    if dim1 != dim2:
        return False, float(np.pi / 2)
    if len(angles) == 0:
        return True, 0.0
    max_angle = float(angles[0])
    return max_angle < angle_tol, max_angle
