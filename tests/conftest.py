"""Shared helpers: independent oracles the library code must agree with."""

import sys

import numpy as np
import pytest

from canonctrl import harness, signal
from canonctrl.lti_core import StateSpaceModel
from canonctrl.subspace import BehaviorBasis, orthonormal_basis, pinv_symmetric


def null_space(M: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of ker M via SVD (independent of the library's rank rule)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.eye(M.shape[1])
    U, s, Vt = np.linalg.svd(M)
    cutoff = rel_tol * (s[0] if s.size else 0.0) * max(M.shape)
    rank = int(np.count_nonzero(s > cutoff))
    return Vt[rank:].T


def kernel_method_intersection(QA: np.ndarray, QB: np.ndarray) -> BehaviorBasis:
    """Intersection of two column spaces via the stacked null-space method.

    Solves QA x = QB y; the intersection is QA applied to the x-parts of the
    null space of [QA, -QB].
    """
    if QA.shape[1] == 0 or QB.shape[1] == 0:
        return orthonormal_basis(np.zeros((QA.shape[0], 0)))
    stacked = np.hstack([QA, -QB])
    N = null_space(stacked)
    return orthonormal_basis(QA @ N[: QA.shape[1], :])


def dense_controller_formula(P_r, P_p, plan) -> BehaviorBasis:
    """The paper's controller formula as written: the c rows of P_r (P_r + P_p)^+ P_p.

    Forms the d x d projector matrices; the reference `controller_basis` must match.
    """
    Mr, Mp = P_r.matrix, P_p.matrix
    X = Mr @ pinv_symmetric(Mr + Mp) @ Mp
    return orthonormal_basis(X[plan.c_rows], scale=1.0)


def free_model(k: int) -> StateSpaceModel:
    """Model of the totally free behavior on k channels (k inputs, no outputs, no state)."""
    signal.require_count(k, "k", 1)
    return StateSpaceModel([], [], [], [], range(1, k + 1), ())


def long_draw_models(index: int, seed: int = 0):
    """Draw `index` (from 0) of the (2,2,4), (3,2,8), (4,3,12) sequence from default_rng(seed).

    Each draw runs the whole sequence of `harness.random_plant` plus a
    feedback reference, and keeps its (4, 3, 12) plant, partition and reference.
    """
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        for q_w, q_c, n in ((2, 2, 4), (3, 2, 8), (4, 3, 12)):
            plant, partition = harness.random_plant(q_w, q_c, n, rng)
            ref = harness.feedback_reference_model(plant, partition, 1, rng)
    return plant, partition, ref


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def hankel_calls(monkeypatch):
    """Records the trajectory of every `signal.hankel` call the package makes."""
    calls = []
    original = signal.hankel

    def counting(w, L):
        calls.append(w)
        return original(w, L)

    # `from .signal import hankel` binds the function in each importer
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "canonctrl" and getattr(mod, "hankel", None) is original:
            monkeypatch.setattr(mod, "hankel", counting)
    return calls
