"""State-space simulation and exact finite-horizon behavior oracles.

Models here are the ground truth against which all data-driven
representations are cross-checked: a minimal (A, B, C, D) realization that
places its own inputs and outputs in the full variable vector.  Restricted
behaviors are images of the window map [O_L | T_L], never of kernel
representations: O_L in closed form, T_L from m simulations shifted by time
invariance (while the benchmark declares simulate's metrics).  Their dimension
m L + rank O_L is read off the model, and their basis is the Q factor of one
QR of the map's independent columns [O_L V_r | T_L].  A simulation steps
only the state sequentially, in place; `B u` and the outputs are whole-array
products.  :func:`hidden_restricted_basis` reads the hidden behavior off any
orthonormal basis of a joint restricted behavior -- the oracle's window map
image, with the control inputs pinned to zero exactly, or the data route's
Hankel image -- so both routes cut it with the one
:func:`~canonctrl.subspace.section`.  Lag <= order <= n holds for any channel
projection, so :func:`projected_invariants` reads its profile to depth n + 2.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, GenerationError, MinimalityError, NumericalDegeneracyError
from .signal import (
    Partition,
    Trajectory,
    channel_blocks,
    channel_rows,
    read_json_object,
    require_count,
    require_keys,
)
from .subspace import DEFAULT_RANK_TOL, BehaviorBasis, orthonormal_basis, row_span, section, svd


@dataclass(frozen=True)
class IntegerInvariants:
    """Structure integers of an LTI behavior: inputs, outputs, order, lag.

    Each is a nonnegative count (:func:`~canonctrl.signal.require_count`).
    """

    m_inputs: int
    p_outputs: int
    n_order: int
    lag: int

    def __post_init__(self):
        for f in fields(self):
            require_count(getattr(self, f.name), f.name)
        if self.lag > self.n_order:
            raise ValueError(f"lag {self.lag} exceeds order {self.n_order}")


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Minimal realization sigma x = Ax + Bu, y = Cx + Du.

    `input_picks` and `output_picks` place the m inputs and p outputs in the
    full q-channel vector, covering its channels once
    (:func:`~canonctrl.signal.channel_blocks`).  Either may be empty
    (autonomous systems have no inputs, free systems no outputs).

    The model holds read-only copies of its matrices, each in its exact
    shape (an empty block may come in any empty shape, as JSON writes it
    `[]`), and every entry must be finite.  Construction verifies that (A, C)
    is observable, which makes the realization a minimal representation of
    its behavior: the initial state is free, so uncontrollable-but-observable
    states still carry behavior and must not be removed.
    (`random_minimal_model` additionally rejects uncontrollable draws so
    generated plants are controllable as well.)
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    input_picks: tuple[int, ...]
    output_picks: tuple[int, ...]

    def __post_init__(self):
        picks = tuple(self.input_picks), tuple(self.output_picks)
        m, p = map(len, picks)
        for name, block in zip(("input_picks", "output_picks"), channel_blocks(m + p, *picks)):
            object.__setattr__(self, name, block)
        A = _shaped(self.A, None, None, "A")
        n = A.shape[0]
        B = _shaped(self.B, n, m, "B")
        C = _shaped(self.C, p, n, "C")
        D = _shaped(self.D, p, m, "D")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} has a non-finite entry")
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        if DEFAULT_RANK_TOL.rank(observability_matrix(A, C, n)) != n:
            raise MinimalityError("(A, C) is not observable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.m + self.p


def _shaped(M, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    """A copy of matrix `name`, of shape (rows, cols), or square if both are None.

    An empty M fits any empty shape; a ragged M raises DimensionError.
    """
    try:
        M = np.array(M, dtype=float)
    except ValueError as exc:  # numpy: "setting an array element with a sequence"
        if "sequence" not in str(exc):
            raise
        raise DimensionError(f"{name} is ragged: its rows differ in length") from None
    if rows is None:
        if M.size == 0:
            M = M.reshape(0, 0)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"{name} must be square, got shape {M.shape}")
        return M
    if M.size == 0 == rows * cols:
        M = M.reshape(rows, cols)
    if M.shape != (rows, cols):
        raise DimensionError(f"{name} must have shape ({rows}, {cols}), got {M.shape}")
    return M


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B], the transpose of the observability matrix of (A^T, B^T)."""
    return observability_matrix(A.T, B.T, A.shape[0]).T


def observability_matrix(A: np.ndarray, C: np.ndarray, depth: int) -> np.ndarray:
    """[C; C A; ...; C A^(depth-1)], shape (p depth, n), each block the one above times A.

    A static model (n = 0) gives p depth empty rows; depth 0 gives none.
    """
    if depth == 0:
        return np.zeros((0, A.shape[0]))
    blocks = [C]
    for _ in range(depth - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def simulate(
    model: StateSpaceModel,
    u: Trajectory | None = None,
    x0: np.ndarray | None = None,
    T: int | None = None,
) -> Trajectory:
    """Simulate the model, returning the full-variable trajectory.

    For models with inputs, `u` drives the recursion and sets the length (a
    `T` given too must equal it); an autonomous model takes `T` instead.
    x0 defaults to zero.  Only the state recursion runs sample by sample;
    `B u` and the outputs `C x + D u` are whole-array products over all T
    samples.
    """
    if model.m > 0:
        if u is None:
            raise DimensionError("model has inputs; an input trajectory is required")
        if u.q != model.m:
            raise DimensionError(f"input has {u.q} channels, model expects {model.m}")
        U = u.values
        length = u.T
        if T is not None and T != length:
            raise DimensionError(f"T={T} conflicts with input length {length}")
    else:
        if u is not None:
            raise DimensionError("autonomous model takes no input trajectory")
        if T is None or T < 1:
            raise DimensionError("autonomous model needs a positive length T")
        U = np.zeros((T, 0))
        length = T
    x = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (model.n,):
        raise DimensionError(f"x0 has shape {x.shape}, expected ({model.n},)")

    out = np.empty((length, model.q))
    out[:, [pick - 1 for pick in model.input_picks]] = U
    # an unstable model may leave float range: Trajectory names the first
    # sample that is not finite, so numpy's overflow warnings say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        BU = U @ model.B.T
        X = np.empty((length, model.n))
        X[0] = x
        for x_t, x_next, bu in zip(X, X[1:], BU):
            np.matmul(model.A, x_t, out=x_next)
            x_next += bu
        out[:, [pick - 1 for pick in model.output_picks]] = X @ model.C.T + U @ model.D.T
    return Trajectory(out)


def invariants_of(model: StateSpaceModel) -> IntegerInvariants:
    """Integer invariants of the model's behavior; lag is the observability index,
    the first depth d at which the leading p d rows of O_n have rank n."""
    n = model.n
    O = observability_matrix(model.A, model.C, n)
    lag = next(d for d in range(n + 1) if DEFAULT_RANK_TOL.rank(O[: model.p * d]) == n)
    return IntegerInvariants(model.m, model.p, n, lag)


def behavior_window_map(model: StateSpaceModel, L: int) -> np.ndarray:
    """Linear map (x0, u(1..L)) -> stacked length-L window, shape (qL, n + mL).

    [O_L | T_L], whose image is the restricted behavior; column j is the
    response to the j-th parameter basis vector.  The n free responses
    (x0 = e_j, zero input) are :func:`observability_matrix` on the output
    rows and exact zeros on the input rows.  T_L is m simulated impulse
    responses (u(1) = e_i, x0 = 0), shifted by time invariance: input i's
    column at time t is that response moved down (t - 1) q rows, above exact
    zeros.  T_L stays simulated, not read off O_(L-1) B, because the benchmark
    declares per-layer metrics of :func:`simulate` and each must have a value.
    """
    require_count(L, "L", 1)
    n, m, q = model.n, model.m, model.q
    M = np.zeros((q * L, n + m * L))
    M[channel_rows(model.output_picks, q, L), :n] = observability_matrix(model.A, model.C, L)
    for i in range(m):
        U = np.zeros((L, m))
        U[0, i] = 1.0
        M[:, n + i] = simulate(model, Trajectory(U)).values.reshape(-1)
    for t in range(1, L):
        M[q * t :, n + m * t : n + m * (t + 1)] = M[: q * (L - t), n : n + m]
    return M


def restricted_behavior_basis(model: StateSpaceModel, L: int) -> BehaviorBasis:
    """Orthonormal basis of the restricted behavior over horizon L (ambient qL).

    The Q factor of one QR of the window map's independent columns
    [O_L V_r | T_L]: the first of :func:`restricted_behavior_bases`, with
    nothing pinned.
    """
    return restricted_behavior_bases(model, L, ())[0]


def restricted_behavior_bases(
    model: StateSpaceModel, L: int, pinned: tuple[int, ...]
) -> tuple[BehaviorBasis, BehaviorBasis]:
    """The restricted basis over horizon L, and that of its windows with the
    inputs on channels `pinned` at zero, both from one window map.

    The window map [O_L | T_L] holds the free inputs on its input rows, where
    O_L is zero, so [O_L V_r | T_L] has independent columns by structure
    (V_r the right singular vectors of O_L that the package rank rule keeps)
    and rank m L + rank O_L at every L, below the lag too.  The only rank
    decided is that of the pL x n matrix O_L; no cutoff is set on the map's
    own spectrum.  Both bases are Q of one Householder QR: a window whose
    pinned inputs vanish has zero coefficients on their T_L columns, which
    come last, so the leading Q columns span the pinned windows.
    """
    M = behavior_window_map(model, L)
    n, m = model.n, model.m
    O = M[channel_rows(model.output_picks, model.q, L), :n]
    _, s, Vt = svd(O)
    V_r = Vt[: DEFAULT_RANK_TOL.count(s, O.shape)].T
    T_cols = np.arange(n, n + m * L).reshape(L, m)  # [t, i]: input i at time t + 1
    on_pinned = np.isin(model.input_picks, pinned)
    free, last = T_cols[:, ~on_pinned].ravel(), T_cols[:, on_pinned].ravel()
    Q = np.linalg.qr(np.hstack([M[:, :n] @ V_r, M[:, free], M[:, last]]))[0]
    return BehaviorBasis(Q), BehaviorBasis(Q[:, : Q.shape[1] - last.size])


def projected_restricted_basis(
    model: StateSpaceModel, picks: tuple[int, ...], L: int
) -> BehaviorBasis:
    """Restricted behavior of the projection onto the given channels.

    Coordinate projection commutes with windowing, so this is the
    :func:`~canonctrl.subspace.row_span` of the full restricted basis on the
    channels' rows, the rank decision :func:`check_model` makes for P_w.
    """
    return row_span(restricted_behavior_basis(model, L), channel_rows(picks, model.q, L))


def hidden_restricted_basis(U: BehaviorBasis, wc_partition: Partition, L: int) -> BehaviorBasis:
    """Windows of the plant's w-variables compatible with the c-variables pinned to zero.

    U is an orthonormal basis of the plant's joint restricted behavior over
    horizon L (ambient |w, c| L): the image of the oracle's window map or of
    the data Hankel matrix.  Returns the w rows of its vectors that vanish on
    the c rows (ambient |w| L).  U a vanishes on the c rows exactly when a is
    in ker U_c, so this is the :func:`~canonctrl.subspace.section` of U_w by U_c.
    """
    if U.ambient_dim != wc_partition.total * L:
        raise DimensionError(
            f"basis ambient {U.ambient_dim} != {wc_partition.total} channels x L={L}"
        )
    w_rows = channel_rows(wc_partition.picks_w, wc_partition.total, L)
    c_rows = channel_rows(wc_partition.picks_c, wc_partition.total, L)
    return section(U.basis[w_rows], U.basis[c_rows])


def projected_invariants(model: StateSpaceModel, picks: tuple[int, ...]) -> IntegerInvariants:
    """Integer invariants of the behavior projected onto the given channels.

    From the projected lag on, the dimension profile d(L), the ranks of the
    projected window maps, is m L + n_proj (m inputs, order n_proj).  The
    model's state is a state of the projection, so lag <= n_proj <= n and
    depths to n + 2 decide all three.  By causality one depth-(n + 2) map
    serves every depth: its leading qL x (n + mL) block is the depth-L map.
    Raises NumericalDegeneracyError when the last two steps of d differ.
    """
    n, m, depth = model.n, model.m, model.n + 2
    M = behavior_window_map(model, depth)
    dims = [0] + [
        DEFAULT_RANK_TOL.rank(M[channel_rows(picks, model.q, L), : n + m * L])
        for L in range(1, depth + 1)
    ]
    m_proj = dims[depth] - dims[depth - 1]
    if dims[depth - 1] - dims[depth - 2] != m_proj:
        raise NumericalDegeneracyError(
            f"projected dimension profile {dims[1:]} is not affine at depths {n}..{depth}"
        )
    n_proj = dims[depth] - m_proj * depth
    misses = [L for L in range(depth + 1) if dims[L] != m_proj * L + n_proj]
    lag = 1 + max(misses) if n_proj else 0  # d(0) = 0 misses when n_proj > 0
    return IntegerInvariants(m_proj, len(picks) - m_proj, n_proj, lag)


def horizon_lag(plant: StateSpaceModel, picks_w: tuple[int, ...], ref: StateSpaceModel) -> int:
    """The lag a horizon L must exceed: the largest of the plant's, the
    reference's and the projected (uncontrolled) plant's on `picks_w`."""
    return max(
        invariants_of(plant).lag,
        invariants_of(ref).lag,
        projected_invariants(plant, picks_w).lag,
    )


def observable_realization(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quotient by the unobservable subspace (exact structural reduction).

    This is the behavior-preserving state reduction: unobservable states
    never influence any trajectory, while uncontrollable-but-observable
    states are carried by the free initial condition and must be kept.  The
    unobservable subspace is A-invariant, so the orthonormal change of
    coordinates leaves an observable realization of the same behavior.
    """
    A = _shaped(A, None, None, "A")
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    if n == 0:
        return A, B, C, D
    W = orthonormal_basis(observability_matrix(A, C, n).T).basis
    return W.T @ A @ W, W.T @ B, C @ W, D


def product_model(first: StateSpaceModel, second: StateSpaceModel) -> StateSpaceModel:
    """Cartesian product of two behaviors; second model's channels are appended."""

    def blkdiag(M1, M2):
        out = np.zeros((M1.shape[0] + M2.shape[0], M1.shape[1] + M2.shape[1]))
        out[: M1.shape[0], : M1.shape[1]] = M1
        out[M1.shape[0] :, M1.shape[1] :] = M2
        return out

    offset = first.q
    picks_u = first.input_picks + tuple(p + offset for p in second.input_picks)
    picks_y = first.output_picks + tuple(p + offset for p in second.output_picks)
    blocks = [blkdiag(getattr(first, M), getattr(second, M)) for M in "ABCD"]
    return StateSpaceModel(*blocks, picks_u, picks_y)


#: draws `random_minimal_model` makes before it gives up
MODEL_DRAWS = 1000


def random_minimal_model(
    q_w: int, q_c: int, n: int, seed: int
) -> tuple[StateSpaceModel, Partition]:
    """Random stable minimal model over q_w + q_c channels, plus a role split.

    Deterministic in the seed.  The model's input/output placement and the
    returned (w, c) role partition are drawn independently; the spectral
    radius is rescaled below 1 so simulated trajectories stay bounded.
    Raises GenerationError if the minimality rejection loop exhausts its
    budget of :data:`MODEL_DRAWS` draws.
    """
    require_count(q_w, "q_w", 1)
    require_count(q_c, "q_c", 1)
    require_count(n, "n")
    q_total = q_w + q_c
    rng = np.random.default_rng(seed)
    for _ in range(MODEL_DRAWS):
        m = int(rng.integers(1, q_total))
        p = q_total - m
        if n > 0:
            A = rng.standard_normal((n, n))
            radius = float(np.max(np.abs(np.linalg.eigvals(A))))
            if radius < 1e-9:
                continue
            A *= float(rng.uniform(0.3, 0.9)) / radius
        else:
            A = np.zeros((0, 0))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        io_order = rng.permutation(q_total) + 1
        role_order = rng.permutation(q_total) + 1
        partition = Partition(q_total, role_order[:q_w], role_order[q_w:])
        if DEFAULT_RANK_TOL.rank(controllability_matrix(A, B)) != n:
            continue
        try:
            model = StateSpaceModel(A, B, C, D, io_order[:m], io_order[m:])
        except MinimalityError:
            continue
        return model, partition
    raise GenerationError(f"no minimal model found after {MODEL_DRAWS} draws")


#: the keys of a model JSON, each required
MODEL_KEYS = ("A", "B", "C", "D", "picks_w", "picks_c")


def model_to_dict(model: StateSpaceModel) -> dict:
    return {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "D": model.D.tolist(),
        "picks_w": list(model.input_picks),
        "picks_c": list(model.output_picks),
    }


def _require_numbers(value, name: str) -> None:
    """A JSON matrix holds numbers, nested in lists: true/false and strings are not numbers."""
    if isinstance(value, list):
        for entry in value:
            _require_numbers(entry, name)
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} entries must be JSON numbers, got {value!r}")
    elif isinstance(value, int) and abs(value) > sys.float_info.max:  # beyond float range
        raise ValueError(f"{name} has a non-finite entry")


def model_from_dict(d: dict) -> StateSpaceModel:
    """The model of :func:`model_to_dict`: picks_w holds its inputs and picks_c its outputs."""
    require_keys(d, MODEL_KEYS, "a model")
    for name in "ABCD":
        _require_numbers(d[name], name)
    for name in ("picks_w", "picks_c"):
        if not isinstance(d[name], list):
            raise ValueError(f"{name} must be a JSON list of channels, got {d[name]!r}")
    return StateSpaceModel(d["A"], d["B"], d["C"], d["D"], d["picks_w"], d["picks_c"])


def write_model_json(path, model: StateSpaceModel) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")


def read_model_json(path) -> StateSpaceModel:
    """The model in a JSON file; invalid JSON and a missing key are errors naming the file."""
    return model_from_dict(read_json_object(path, MODEL_KEYS, "the model"))
