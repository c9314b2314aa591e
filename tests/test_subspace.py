import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from canonctrl import harness
from canonctrl.errors import DimensionError, NumericalDegeneracyError
from canonctrl.signal import hankel
from canonctrl.subspace import (
    DEFAULT_RANK_TOL,
    BehaviorBasis,
    Projector,
    RankTolerance,
    image_basis,
    image_svd,
    intersect,
    is_subspace_of,
    orthonormal_basis,
    pinv,
    pinv_symmetric,
    principal_angles,
    projector_onto,
    section,
    subspaces_equal,
)

from conftest import kernel_method_intersection, null_space


def span(*cols):
    return orthonormal_basis(np.column_stack([np.asarray(c, dtype=float) for c in cols]))


class TestRankTolerance:
    def test_zero_matrix(self):
        assert RankTolerance().rank(np.zeros((4, 3))) == 0

    def test_scale_invariance(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        tol = RankTolerance()
        assert tol.rank(M) == tol.rank(1e6 * M) == 1

    def test_full_rank(self):
        assert RankTolerance().rank(np.eye(5)) == 5

    def test_stale_knobs_are_type_errors(self):
        # one rank rule, one inclusion rule, one reference fixture: a value
        # passed where a knob once went fails at the call
        a = span([1.0, 0.0])
        calls = (
            lambda: RankTolerance(1e-3),
            lambda: is_subspace_of(a, a, 1.0),
            lambda: harness.decaying_reference_data(40, 0.3),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()
        assert DEFAULT_RANK_TOL.tol_rel == RankTolerance.tol_rel == 1e-10


class TestOrthonormalBasis:
    def test_rank_one_example(self):
        B = orthonormal_basis(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert B.dim == 1
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert pytest.approx(abs(float(B.basis.ravel() @ expected))) == 1.0

    def test_identity(self):
        assert orthonormal_basis(np.eye(6)).dim == 6

    def test_image_preserved(self, rng):
        for _ in range(10):
            M = rng.standard_normal((9, 4))
            B = orthonormal_basis(M)
            angles = principal_angles(B, orthonormal_basis(M @ rng.standard_normal((4, 4))))
            assert B.dim == 4
            assert float(np.max(angles)) < 1e-10

    def test_idempotent_on_own_output(self, rng):
        B = orthonormal_basis(rng.standard_normal((8, 3)))
        again = orthonormal_basis(B.basis)
        assert np.allclose(again.basis.T @ again.basis, np.eye(3), atol=1e-14)
        assert subspaces_equal(B, again)[0]

    def test_zero_matrix_gives_zero_subspace(self):
        assert orthonormal_basis(np.zeros((5, 2))).dim == 0

    def test_scale_anchor_suppresses_noise(self, rng):
        noise = 1e-14 * rng.standard_normal((6, 3))
        assert orthonormal_basis(noise).dim == 3
        assert orthonormal_basis(noise, scale=1.0).dim == 0


def wide_matrix(rng, rows, cols, spectrum, zero_rows=()):
    """rows x cols matrix with the given singular values; `zero_rows` are exactly zero."""
    live = [i for i in range(rows) if i not in zero_rows]
    U, _ = np.linalg.qr(rng.standard_normal((len(live), len(spectrum))))
    V, _ = np.linalg.qr(rng.standard_normal((cols, len(spectrum))))
    M = np.zeros((rows, cols))
    M[live] = (U * spectrum) @ V.T
    return M


class TestWideMatrices:
    """Wide inputs go through a QR of the transpose; the answers match a direct SVD.

    Every case has more than 1.5 columns per row, so it takes the QR route.
    """

    CASES = (
        (12, 300, [5.0, 2.0, 1.0, 0.5]),
        (20, 500, [1e3, 1.0, 1e-2, 1e-4, 1e-6]),
        (8, 13, list(np.geomspace(1.0, 1e-5, 8))),
    )

    def test_rank_and_subspace_match_direct_svd(self, rng):
        tol = DEFAULT_RANK_TOL
        for rows, cols, spectrum in self.CASES:
            for zero_rows in ((), (0, rows - 1)):
                M = wide_matrix(rng, rows, cols, spectrum[: rows - len(zero_rows)], zero_rows)
                U, s, _ = np.linalg.svd(M, full_matrices=False)
                r = int(np.count_nonzero(s > tol.tol_rel * s[0] * min(M.shape)))
                B = orthonormal_basis(M)
                assert tol.rank(M) == B.dim == r
                # kept subspaces agree within rows times the perturbation
                # bound eps sigma_1 / (sigma_r - sigma_{r+1}) of each case
                gap = s[r - 1] - (s[r] if r < s.size else 0.0)
                bound = rows * np.finfo(float).eps * s[0] / gap
                sines = np.sin(principal_angles(B, BehaviorBasis(U[:, :r])))
                assert sines.max() <= bound, (sines.max(), bound)
                assert np.abs(B.basis[list(zero_rows)]).max(initial=0.0) < 1e-10

    def test_rank_does_not_grow_with_repeated_windows(self, rng):
        # hstack([M] * k) / sqrt(k) shows the same windows k times: same
        # singular values, same left singular vectors.  The 1e-7 one sits
        # above a clear gap and must stay kept however many columns there are.
        M = wide_matrix(rng, 12, 40, [1.0, 0.3, 1e-2, 1e-7])
        B = orthonormal_basis(M)
        assert RankTolerance().rank(M) == B.dim == 4
        for k in (5, 25, 50, 100):
            repeated = np.hstack([M] * k) / np.sqrt(k)
            assert RankTolerance().rank(repeated) == 4
            assert subspaces_equal(orthonormal_basis(repeated), B, 1e-8)[0]

    def test_zero_and_single_row(self, rng):
        assert RankTolerance().rank(np.zeros((3, 50))) == 0
        assert orthonormal_basis(np.zeros((3, 50))).dim == 0
        row = rng.standard_normal((1, 40))
        assert RankTolerance().rank(row) == 1
        assert np.allclose(np.abs(orthonormal_basis(row).basis), 1.0)


def block_width(rows):
    """Columns per block of the wide-matrix QR (see `subspace._thin_factor`)."""
    return max(4 * rows, 1024)


def one_qr_svd(M):
    """Left singular vectors and singular values of M from one QR of M^T."""
    U, s, _ = np.linalg.svd(np.linalg.qr(M.T, mode="r").T, full_matrices=False)
    return U, s


class TestBlockwiseFactor:
    """Past one block of columns the QR of M^T runs block by block.

    It factors the same matrix as one QR: same rank, singular values to
    rounding of sigma_max, and kept subspaces within rows times the
    perturbation bound eps sigma_max / (sigma_r - sigma_{r+1}).  Up to one
    block it is that QR.
    """

    def assert_matches_one_qr(self, M):
        tol = DEFAULT_RANK_TOL
        B, s = image_svd(M)
        U1, s1 = one_qr_svd(M)
        r = tol.count(s1, M.shape)
        assert tol.count(s, M.shape) == B.dim == tol.rank(M) == r
        assert np.abs(s - s1).max() <= 1e-14 * s1[0]
        gap = s1[r - 1] - (s1[r] if r < s1.size else 0.0)
        bound = M.shape[0] * np.finfo(float).eps * s1[0] / gap
        angles = principal_angles(B, BehaviorBasis(U1[:, :r]))
        assert np.sin(angles).max() <= bound, (np.sin(angles).max(), bound)
        return r

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (12, block_width(12) + 1),
            (12, 3 * block_width(12)),
            (20, 5 * block_width(20) + 307),
            (300, 2 * block_width(300) + 480),
        ],
        ids=["one-column-over", "exact-multiple", "remainder", "tall-blocks"],
    )
    def test_matches_one_qr(self, rng, rows, cols):
        spectrum = list(np.geomspace(1e3, 1e-2, (2 * rows) // 3))
        for zero_rows in ((), (0, rows - 1)):
            M = wide_matrix(rng, rows, cols, spectrum, zero_rows)
            assert self.assert_matches_one_qr(M) == len(spectrum)

    def test_rank_deficient_long_hankel(self):
        # (q_w, q_c, n) = (4, 3, 12) data at T = 8000, L = 60: a 420 x 7941
        # Hankel matrix of rank m L + n < 420, factored in five blocks
        rng = np.random.default_rng(0)
        plant, _ = harness.random_plant(4, 3, 12, rng)
        H = hankel(harness.plant_data(plant, 8000, seed=1), 60)
        assert H.shape[1] > 4 * block_width(H.shape[0])
        assert self.assert_matches_one_qr(H) == plant.m * 60 + plant.n < H.shape[0]

    @pytest.mark.parametrize("rows, cols", [(12, 19), (12, 1024), (300, 1200), (100, 700)])
    def test_single_block_is_the_one_qr(self, rng, rows, cols):
        M = rng.standard_normal((rows, cols)) * np.geomspace(1.0, 1e-8, rows)[:, None]
        B, s = image_svd(M)
        U1, s1 = one_qr_svd(M)
        assert np.array_equal(s, s1)
        assert np.array_equal(B.basis, U1[:, : B.dim])


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_orthonormal_transpose(self, rng):
        Q = orthonormal_basis(rng.standard_normal((7, 3))).basis
        assert np.allclose(pinv(Q), Q.T, atol=1e-12)

    def test_penrose_identities(self, rng):
        for shape in [(6, 3), (3, 6), (5, 5)]:
            M = rng.standard_normal(shape)
            P = pinv(M)
            scale = np.linalg.norm(M)
            assert np.linalg.norm(M @ P @ M - M) < 1e-10 * scale
            assert np.linalg.norm(P @ M @ P - P) < 1e-8 * np.linalg.norm(P)
            assert np.linalg.norm((M @ P).T - M @ P) < 1e-8
            assert np.linalg.norm((P @ M).T - P @ M) < 1e-8

    def test_scale_anchor_drops_rounding_level_values(self, rng):
        noise = 1e-14 * rng.standard_normal((4, 3))
        assert np.abs(pinv(noise)).max() > 1e12
        assert np.array_equal(pinv(noise, scale=1.0), np.zeros((3, 4)))

    def test_symmetric_variant_rejects_an_indefinite_matrix(self, rng):
        S = rng.standard_normal((6, 6))
        S = S + S.T
        assert np.linalg.eigvalsh(S).min() < -1e-3
        with pytest.raises(NumericalDegeneracyError, match="semidefinite"):
            pinv_symmetric(S)

    def test_symmetric_variant_of_a_gram_is_exactly_symmetric(self, rng):
        G = rng.standard_normal((4, 6))
        S = G.T @ G  # rank 4 of 6
        X = pinv_symmetric(S)
        assert np.array_equal(X, X.T)
        assert np.allclose(X, pinv(S), atol=1e-10)

    def test_symmetric_variant_rejects_a_nonsymmetric_matrix(self, rng):
        S = rng.standard_normal((6, 6))
        S = S @ S.T + 1e-6 * rng.standard_normal((6, 6))
        assert not np.array_equal(S, S.T)
        with pytest.raises(NumericalDegeneracyError, match="exactly symmetric"):
            pinv_symmetric(S)

    @pytest.mark.parametrize("rank", [369, 300])
    def test_symmetric_variant_holds_two_square_arrays(self, rng, rank):
        # a Gram the size of long-horizon's K: beyond S, the eigenvectors and
        # their kept scaled columns, then those and the result
        G = rng.standard_normal((rank, 369))
        S = G.T @ G
        tracemalloc.start()
        try:
            pinv_symmetric(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * S.nbytes, peak / S.nbytes


def planted_section(rng, n_keep, n_zero, r, s):
    """Orthonormal U (rows shuffled) whose image has an s-dim part vanishing on the zero rows.

    Needs r - s <= n_zero, so the other r - s columns add no vanishing direction.
    """
    rows = rng.permutation(n_keep + n_zero)
    keep, zero = rows[:n_keep], rows[n_keep:]
    M = rng.standard_normal((n_keep + n_zero, r))
    M[zero, :s] = 0.0
    return np.linalg.qr(M)[0], keep, zero


class TestZeroSection:
    """The section of a basis's keep rows by its zero rows, as the hidden behavior cuts it."""

    @pytest.mark.parametrize(
        "n_keep, n_zero, r, s",
        [(6, 4, 5, 2), (6, 4, 4, 0), (3, 5, 3, 1), (8, 2, 5, 3), (4, 3, 4, 4)],
    )
    def test_matches_kernel_method(self, rng, n_keep, n_zero, r, s):
        U, keep, zero = planted_section(rng, n_keep, n_zero, r, s)
        E = np.eye(n_keep + n_zero)[:, keep]  # the subspace {zero rows = 0}
        oracle = orthonormal_basis(kernel_method_intersection(U, E).basis[keep])
        cut = section(U[keep], U[zero])
        assert cut.ambient_dim == n_keep
        assert cut.dim == oracle.dim == s
        assert subspaces_equal(cut, oracle)[0]

    def test_matches_null_space_of_zero_rows(self, rng):
        for _ in range(20):
            U, keep, zero = planted_section(rng, 7, 5, 6, int(rng.integers(1, 5)))
            oracle = orthonormal_basis(U[keep] @ null_space(U[zero]))
            assert subspaces_equal(section(U[keep], U[zero]), oracle)[0]

    def test_identically_zero_block_keeps_everything(self, rng):
        U = np.zeros((9, 4))
        U[:6] = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        assert subspaces_equal(section(U[:6], U[6:]), orthonormal_basis(U[:6]))[0]

    def test_rounding_level_block_counts_as_zero(self, rng):
        U = np.zeros((9, 4))
        U[:6] = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        U[6:] = 1e-15 * rng.standard_normal((3, 4))
        assert section(U[:6], U[6:]).dim == 4


class TestProjector:
    def test_coordinate_line(self):
        P = projector_onto(span([1.0, 0.0]))
        assert np.allclose(P.matrix, [[1, 0], [0, 0]])

    def test_full_space(self):
        P = projector_onto(orthonormal_basis(np.eye(3)))
        assert np.allclose(P.matrix, np.eye(3))

    def test_fixes_basis_columns(self, rng):
        B = orthonormal_basis(rng.standard_normal((10, 4)))
        P = projector_onto(B)
        assert np.linalg.norm(P.matrix @ B.basis - B.basis) < 1e-10

    def test_holds_the_basis_and_forms_a_projector_matrix(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 12))
            B = orthonormal_basis(rng.standard_normal((d, int(rng.integers(0, d + 1)))))
            P = projector_onto(B)
            assert P.basis is B and image_basis(P) is B
            M = P.matrix
            assert np.abs(M - M.T).max() <= 1e-12
            assert np.abs(M @ M - M).max() <= 1e-12

    def test_basis_must_be_orthonormal(self):
        with pytest.raises(NumericalDegeneracyError):
            Projector(BehaviorBasis(np.array([[1.0, 1.0], [0.0, 1.0]])))
        with pytest.raises(NumericalDegeneracyError):
            Projector(BehaviorBasis(np.array([[0.5], [0.0]])))


class TestIntersect:
    def test_orthogonal_lines(self):
        P = intersect(projector_onto(span([1, 0])), projector_onto(span([0, 1])))
        assert np.allclose(P.matrix, np.zeros((2, 2)), atol=1e-12)

    def test_identical_subspaces(self, rng):
        B = orthonormal_basis(rng.standard_normal((8, 3)))
        PV = projector_onto(B)
        P = intersect(PV, PV)
        assert np.allclose(P.matrix, PV.matrix, atol=1e-10)

    def test_matches_kernel_method_oracle(self, rng):
        for _ in range(20):
            shared = rng.standard_normal((10, 2))
            QA = orthonormal_basis(np.hstack([shared, rng.standard_normal((10, 3))])).basis
            QB = orthonormal_basis(np.hstack([shared, rng.standard_normal((10, 2))])).basis
            P = intersect(
                projector_onto(BehaviorBasis(QA)),
                projector_onto(BehaviorBasis(QB)),
            )
            ours = image_basis(P)
            oracle = kernel_method_intersection(QA, QB)
            ok, angle = subspaces_equal(ours, oracle, 1e-8)
            assert ok, f"angle {angle}"

    def test_commutative(self, rng):
        QA = orthonormal_basis(rng.standard_normal((9, 4)))
        QB = orthonormal_basis(rng.standard_normal((9, 4)))
        P1 = intersect(projector_onto(QA), projector_onto(QB))
        P2 = intersect(projector_onto(QB), projector_onto(QA))
        assert np.allclose(P1.matrix, P2.matrix, atol=1e-8)

    def test_image_inside_both(self, rng):
        shared = rng.standard_normal((12, 3))
        A = orthonormal_basis(np.hstack([shared, rng.standard_normal((12, 2))]))
        B = orthonormal_basis(np.hstack([shared, rng.standard_normal((12, 4))]))
        inter = image_basis(intersect(projector_onto(A), projector_onto(B)))
        assert is_subspace_of(inter, A)[0]
        assert is_subspace_of(inter, B)[0]

    def test_zero_subspace_input(self):
        P = intersect(
            projector_onto(BehaviorBasis(np.zeros((5, 0)))),
            projector_onto(orthonormal_basis(np.eye(5))),
        )
        assert np.allclose(P.matrix, np.zeros((5, 5)))

    def test_nearly_touching_lines_intersect_trivially(self):
        # sin(theta) = 1e-6 is far above the rank cutoff; theta^2 / 2 is not
        theta = 1e-6
        v = np.array([1.0, 0.0])
        w = np.array([np.cos(theta), np.sin(theta)])
        assert intersect(projector_onto(span(v)), projector_onto(span(w))).basis.dim == 0

    def test_image_outside_an_input_raises(self, rng):
        # 120 of V's 200 directions tilted out of it by 1.9e-8: each sine
        # falls below the cutoff (2e-8), so the section keeps all of V, but
        # together they leave it 2.1e-7 (Frobenius) outside W
        Q = np.linalg.qr(rng.standard_normal((420, 320)))[0]
        V = Q[:, :200]
        theta = 1.9e-8
        W = V.copy()
        W[:, :120] = np.cos(theta) * V[:, :120] + np.sin(theta) * Q[:, 200:]
        with pytest.raises(NumericalDegeneracyError, match="not inside both inputs"):
            intersect(projector_onto(BehaviorBasis(V)), projector_onto(BehaviorBasis(W)))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            intersect(
                projector_onto(BehaviorBasis(np.zeros((3, 0)))),
                projector_onto(BehaviorBasis(np.zeros((4, 0)))),
            )


class TestIsSubspaceOf:
    def test_reflexive(self, rng):
        B = orthonormal_basis(rng.standard_normal((7, 3)))
        ok, residual = is_subspace_of(B, B)
        assert ok and residual < 1e-14

    def test_orthogonal_lines(self):
        ok, residual = is_subspace_of(span([1, 0]), span([0, 1]))
        assert not ok
        assert pytest.approx(residual) == 1.0

    def test_zero_subspace_in_anything(self):
        zero = orthonormal_basis(np.zeros((4, 0)))
        ok, residual = is_subspace_of(zero, span([1, 0, 0, 0]))
        assert ok and residual == 0.0

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            is_subspace_of(span([1, 0]), span([1, 0, 0]))


class TestPrincipalAngles:
    def test_identical(self, rng):
        B = orthonormal_basis(rng.standard_normal((8, 3)))
        assert float(np.max(principal_angles(B, B))) < 1e-10

    def test_orthogonal_lines(self):
        angles = principal_angles(span([1, 0]), span([0, 1]))
        assert pytest.approx(angles[0]) == np.pi / 2

    def test_diagonal_line(self):
        angles = principal_angles(span([1, 0]), span([1, 1]))
        assert pytest.approx(angles[0]) == np.pi / 4

    def test_zero_dim_gives_empty(self):
        zero = orthonormal_basis(np.zeros((4, 0)))
        assert principal_angles(zero, span([1, 0, 0, 0])).size == 0

    def test_matches_scipy(self, rng):
        for _ in range(10):
            A = rng.standard_normal((12, 4))
            B = rng.standard_normal((12, 6))
            ours = principal_angles(orthonormal_basis(A), orthonormal_basis(B))
            ref = np.sort(scipy.linalg.subspace_angles(A, B))[::-1]
            assert np.allclose(ours, ref, atol=1e-12)

    def test_resolves_tiny_angles(self):
        theta = 1e-12
        tilted = span([np.cos(theta), np.sin(theta), 0.0])
        angles = principal_angles(span([1, 0, 0]), tilted)
        assert pytest.approx(angles[0], rel=1e-3) == theta

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_range_and_order(self, dim, seed):
        gen = np.random.default_rng(seed)
        A = orthonormal_basis(gen.standard_normal((8, dim)))
        B = orthonormal_basis(gen.standard_normal((8, dim)))
        angles = principal_angles(A, B)
        assert angles.size == dim
        assert np.all(angles >= -1e-15) and np.all(angles <= np.pi / 2 + 1e-15)
        assert np.all(np.diff(angles) <= 1e-12)


class TestSubspacesEqual:
    def test_zero_dims_equal(self):
        zero = orthonormal_basis(np.zeros((4, 0)))
        assert subspaces_equal(zero, zero) == (True, 0.0)

    def test_dim_mismatch(self):
        full = orthonormal_basis(np.eye(4))
        line = span([1, 0, 0, 0])
        ok, angle = subspaces_equal(full, line)
        assert not ok and angle == pytest.approx(np.pi / 2)

    def test_same_space_different_basis(self, rng):
        M = rng.standard_normal((9, 4))
        B1 = orthonormal_basis(M)
        B2 = orthonormal_basis(M @ rng.standard_normal((4, 4)))
        ok, angle = subspaces_equal(B1, B2)
        assert ok and angle < 1e-10
