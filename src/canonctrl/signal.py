"""Trajectories, the Hankel operator, and the excitation rank test.

Conventions used everywhere in the package:

* a trajectory is time-major: sample t (1-based) is a contiguous q-vector;
* every finite-horizon vector stacks samples in that interleaved time-major
  order, so a depth-L Hankel column reads
  (w_1(t), ..., w_q(t), w_1(t+1), ..., w_q(t+L-1)).

A trajectory's samples are read-only, so a factorization of its Hankel
matrix never goes stale: :func:`hankel_image` stores one with the
trajectory, and every basis, rank and excitation test of the data route
reads it, so a command factors each trajectory it reads once, skipping
the windows below the rounding floor (a decayed reference's silent tail).

Trajectory and controller CSVs are read by :func:`read_float_rows`: numpy's
C reader parses a well-formed file, and a line-by-line reader, which gives
the same array bit for bit, reads any other file and gives every error.
Model JSONs and controller sidecars are read by :func:`read_json_object`,
whose every error names the file.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InfeasibleRankError, PartitionError
from .subspace import DEFAULT_RANK_TOL, BehaviorBasis, image_svd

_LINE_BREAKS = re.compile(r"[\r\n]*")


class HankelImage(NamedTuple):
    """The kept orthonormal image basis of H_L(w) and its factored windows' singular values."""

    basis: BehaviorBasis
    singular_values: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A length-T, q-channel time series of finite reals, stored as a (T, q) array.

    `hankel_images` holds the factorizations :func:`hankel_image` made of
    this trajectory's Hankel matrices, keyed by the depth L.
    """

    values: np.ndarray
    hankel_images: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise DimensionError(f"trajectory array must be (T, q), got {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionError(f"trajectory needs T >= 1 and q >= 1, got {v.shape}")
        if not np.isfinite(v).all():
            t = np.flatnonzero(~np.isfinite(v).all(axis=1))[0] + 1
            raise ValueError(f"trajectory sample {t} of {v.shape[0]} is not finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool or a float (int() would truncate 2.7) is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_count(value, name: str, low: int = 0, high: int | None = None):
    """value itself, an integer (:func:`is_integer`) in [low, high], else a ValueError.

    The one count rule: every count and horizon the package takes goes
    through it, and its errors name the argument (`name`).  No upper limit
    when `high` is None.
    """
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name}={value} outside [{low}, {high}]")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def channel_blocks(total: int, picks_w, picks_c) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two disjoint blocks of channels that together cover {1, ..., total} exactly once.

    The placement check of a :class:`Partition` and of a state-space
    model's inputs and outputs (its JSON keys picks_w and picks_c); either
    block may be empty here.  A channel that is not an integer
    (:func:`is_integer`) raises PartitionError.
    """
    blocks = []
    for name, picks in (("picks_w", tuple(picks_w)), ("picks_c", tuple(picks_c))):
        if not all(map(is_integer, picks)):
            raise PartitionError(f"{name} must hold integer channels, got {picks}")
        blocks.append(tuple(int(i) for i in picks))
    w, c = blocks
    if sorted(w + c) != list(range(1, total + 1)):
        raise PartitionError(f"picks {w} + {c} must partition 1..{total}")
    return w, c


@dataclass(frozen=True)
class Partition:
    """The control split: channels {1, ..., total} as to-be-controlled and control.

    picks_w holds the to-be-controlled channels w and picks_c the control
    channels c.  The blocks cover every channel exactly once
    (:func:`channel_blocks`), and neither is empty, so every Partition is a
    control split and no operation checks it again.
    """

    total: int
    picks_w: tuple[int, ...]
    picks_c: tuple[int, ...]

    def __post_init__(self):
        picks_w, picks_c = channel_blocks(self.total, self.picks_w, self.picks_c)
        if not picks_w or not picks_c:
            raise PartitionError("control split needs both picks_w and picks_c nonempty")
        object.__setattr__(self, "picks_w", picks_w)
        object.__setattr__(self, "picks_c", picks_c)

    @property
    def n_w(self) -> int:
        return len(self.picks_w)

    @property
    def n_c(self) -> int:
        return len(self.picks_c)


def _hankel_shape(w: Trajectory, L: int) -> tuple[int, int]:
    require_count(L, "L", 1, w.T)
    return w.q * L, w.T - L + 1


def hankel(w: Trajectory, L: int) -> np.ndarray:
    """Depth-L Hankel matrix of w, shape (q*L, T-L+1).

    Column j (1-based) is the window (w(j), ..., w(j+L-1)) stacked
    time-major with channels contiguous per sample.  Entry (t*q + i, j) is
    sample j + t of channel i, so H is a read-only strided view of w's
    (immutable) samples; nothing is copied.
    """
    rows, _ = _hankel_shape(w, L)
    # windows[j, i, t] = w(j + t)_i; axes (t, i) merge into one row axis
    windows = np.lib.stride_tricks.sliding_window_view(w.values, L, axis=0)
    return windows.transpose(2, 1, 0).reshape(rows, -1)


def _informative_windows(w: Trajectory, L: int) -> np.ndarray:
    """H_L(w) without its smallest windows (columns) whose squared norms total <= eps^2 ||H||_F^2.

    By Weyl's inequality they move no singular value by more than
    eps ||H||_F <= eps sqrt(r) sigma_1, below the QR's own backward error.
    The norms come from the samples scaled by the largest |entry| (no square
    overflows or underflows), each window summed on its own (differences of
    cumulative sums would cancel), and totalled in ascending order, so a
    silent tail of zeros changes nothing at any T.  Nothing dropped: H itself.
    """
    H = hankel(w, L)
    scaled = w.values / (np.abs(w.values).max() or 1.0)
    norms = np.lib.stride_tricks.sliding_window_view((scaled**2).sum(axis=1), L).sum(axis=1)
    order = np.argsort(norms, kind="stable")
    total = np.cumsum(norms[order])
    dropped = np.count_nonzero(total <= np.finfo(float).eps ** 2 * total[-1])
    return H[:, np.sort(order[dropped:])] if dropped else H


def hankel_image(w: Trajectory, L: int) -> HankelImage:
    """Orthonormal image basis and singular values of H_L(w), factored once.

    The first call for L runs one thin SVD of the windows above the
    rounding floor (:func:`_informative_windows`) and stores the result in
    `w.hankel_images`, so it lives exactly as long as w; the basis is a
    read-only copy of the columns the package rank rule keeps, counted
    against the full shape of H_L(w).
    """
    if L not in w.hankel_images:
        basis, s = image_svd(_informative_windows(w, L), shape=_hankel_shape(w, L))
        basis.basis.flags.writeable = False
        w.hankel_images[L] = HankelImage(basis, s)
    return w.hankel_images[L]


def excitation_target(w: Trajectory, L: int, m_bound: int, n_bound: int, name="trajectory") -> int:
    """The rank m_bound*L + n_bound an exciting H_L(w) has; nothing is factored.

    A target above min(H shape) is an InfeasibleRankError naming the
    trajectory (`name`) and the bounds.
    """
    require_count(m_bound, "m_bound")
    require_count(n_bound, "n_bound")
    shape = _hankel_shape(w, L)
    target = m_bound * L + n_bound
    if target > min(shape):
        raise InfeasibleRankError(
            f"{name} excitation target m*L + n = {m_bound}*{L} + {n_bound} = {target} "
            f"exceeds min(H shape)={min(shape)} of its {shape[0]} x {shape[1]} Hankel matrix"
        )
    return target


def is_gpe(w: Trajectory, L: int, m_bound: int, n_bound: int) -> tuple[bool, int]:
    """Excitation rank test: does rank H_L(w) equal m_bound*L + n_bound?

    m_bound and n_bound are caller-supplied input-count and order bounds for
    the generating system; the achieved rank is returned for diagnostics.
    The rank is the dimension of the image :func:`hankel_image` stored for
    L, which the package rank rule cut; with none stored, only singular
    values are computed (so a trajectory tried and rejected pays for no
    image basis), of the same windows and counted against the same full shape.
    """
    target = excitation_target(w, L, m_bound, n_bound)
    stored = w.hankel_images.get(L)
    if stored is None:
        achieved = DEFAULT_RANK_TOL.rank(_informative_windows(w, L), _hankel_shape(w, L))
    else:
        achieved = stored.basis.dim
    return achieved == target, achieved


def arrange_by_partition(w: Trajectory, partition: Partition) -> Trajectory:
    """Reorder channels to (picks_w block, then picks_c block).

    Channels already in that order return w itself, with its stored factorizations.
    """
    if w.q != partition.total:
        raise DimensionError(f"trajectory has {w.q} channels, partition {partition.total}")
    order = partition.picks_w + partition.picks_c
    if order == tuple(range(1, w.q + 1)):
        return w
    return Trajectory(w.values[:, [p - 1 for p in order]])


def channel_rows(picks: tuple[int, ...], q_total: int, L: int) -> np.ndarray:
    """Row indices (0-based) of the given channels inside a stacked L-window."""
    if any(not 1 <= p <= q_total for p in picks):
        raise PartitionError(f"picks {picks} outside 1..{q_total}")
    return np.array(
        [t * q_total + (p - 1) for t in range(L) for p in picks], dtype=np.intp
    )


def write_float_rows(f, values: np.ndarray) -> None:
    """One CSV line of repr floats per row of a 2-D array, as `csv.writer` writes them.

    A float's repr holds no comma, quote or line break, so no cell needs
    quoting; `f` must be opened with ``newline=""``.  An array with no
    columns writes nothing, not one blank line per row.
    """
    f.writelines(",".join(map(repr, row)) + "\r\n" for row in values.tolist() if row)


def write_csv(path, w: Trajectory) -> None:
    """Write a `ch1,...,chq` header, then one row per sample, backed by repr floats."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(f"ch{i}" for i in range(1, w.q + 1)) + "\r\n")
        write_float_rows(f, w.values)


def read_float_rows(path) -> np.ndarray:
    """Rows of floats from a CSV, the mirror of :func:`write_float_rows`.

    A `ch1,...,chq` header (first non-blank row) is optional, a UTF-8
    byte-order mark is skipped, and rows of blank cells are skipped; ragged
    rows and non-numeric or non-finite (nan, inf) entries are rejected with
    the number of the file line on which the row starts.  No rows give a
    (0, 0) array.

    A well-formed file is parsed by numpy's C reader; any other file is
    read line by line, and that reader alone gives every error.  Both give
    the same array, bit for bit.
    """
    values = _read_well_formed(path)
    return _read_line_by_line(path) if values is None else values


def _is_header(row: list[str]) -> bool:
    return row[0].strip().lower().startswith("ch")


def _read_well_formed(path) -> np.ndarray | None:
    """The rows of a well-formed file, parsed by `np.loadtxt`; None for any other file.

    The header is found as :func:`_read_line_by_line` finds it, in the
    first row `csv.reader` gives with a non-blank cell.  numpy parses each
    later cell with `float()`'s own parser (`PyOS_string_to_double`) but
    takes no quotes, underscores, non-ASCII digits or lines of spaces, so
    every cell it reads, `float()` reads to the same value.  A result is
    kept only if it fits the header and is finite.  A file with more bytes
    between two separators than `csv.field_size_limit()`, which
    `csv.reader` rejects, and a header with no data after it, on which
    `np.loadtxt` warns, are left to the line-by-line reader too.
    """
    with open(path, "rb") as f:
        raw = f.read()
    byte = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero((byte == ord(",")) | (byte == ord("\n")) | (byte == ord("\r")))
    if np.diff(ends, prepend=-1, append=len(raw)).max() > csv.field_size_limit() + 1:
        return None
    try:
        text = raw.decode("utf-8-sig")
        lines = io.StringIO(text, newline="")
        for row in csv.reader(lines):
            if any(cell.strip() for cell in row):
                break
        else:
            return None
        width = None
        if _is_header(row):
            width = len(row)
            if _LINE_BREAKS.fullmatch(text, lines.tell()):
                return None
        else:
            lines.seek(0)
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except (ValueError, csv.Error):
        return None
    if width not in (None, values.shape[1]) or not np.isfinite(values).all():
        return None
    return values


def _read_line_by_line(path) -> np.ndarray:
    """:func:`read_float_rows` one `csv.reader` row and one `float()` at a time.

    An error names the line of the file on which the offending row starts; a
    row with a quoted line break spans more than one.  A `csv.Error`, such as
    a field longer than `csv.field_size_limit()`, is a `ValueError` here too.
    """
    rows: list[list[float]] = []
    linenos: list[int] = []
    width: int | None = None
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        start = 1
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not any(cell.strip() for cell in row):
                    continue
                if width is None and _is_header(row):
                    width = len(row)
                    continue
                try:
                    vals = [float(x) for x in row]
                except ValueError as exc:
                    raise ValueError(f"{path}: non-numeric entry on line {lineno}") from exc
                if width is None:
                    width = len(vals)
                elif len(vals) != width:
                    raise ValueError(
                        f"{path}: ragged row on line {lineno} ({len(vals)} != {width})"
                    )
                rows.append(vals)
                linenos.append(lineno)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: {exc} on line {start}") from exc
    values = np.array(rows) if rows else np.zeros((0, 0))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValueError(f"{path}: non-finite entry on line {lineno}")
    return values


def require_keys(d, keys: tuple[str, ...], what: str) -> dict:
    """d itself, a JSON object (dict) holding each of `keys`; else a ValueError naming `what`."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{what} has no key {missing[0]!r}")
    return d


def read_json_object(path, keys: tuple[str, ...], what: str) -> dict:
    """The JSON object in the file at `path`, holding each of `keys` (:func:`require_keys`).

    Every error names the file: text that is not JSON, another top-level
    value, and a missing key.
    """
    with open(path, encoding="utf-8") as f:
        try:
            d = json.load(f)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    return require_keys(d, keys, f"{path}: {what}")


def read_csv(path) -> Trajectory:
    """Read a trajectory CSV, validated by :func:`read_float_rows`; it needs a data row."""
    values = read_float_rows(path)
    if not values.size:
        raise ValueError(f"{path}: no data rows")
    return Trajectory(values)
