import csv
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonctrl import cli, harness, lti_core, signal
from canonctrl.canonical import (
    ControllerBasis,
    PermutationPlan,
    read_controller_csv,
    write_controller_csv,
)
from canonctrl.errors import DimensionError, InfeasibleRankError, PartitionError
from canonctrl.implementability import DataBundle, InvariantBounds
from canonctrl.signal import (
    Partition,
    Trajectory,
    arrange_by_partition,
    channel_rows,
    excitation_target,
    hankel,
    hankel_image,
    is_gpe,
    read_csv,
    read_float_rows,
    require_count,
    write_csv,
    write_float_rows,
)
from canonctrl.subspace import (
    DEFAULT_ANGLE_TOL,
    BehaviorBasis,
    RankTolerance,
    image_svd,
    orthonormal_basis,
    subspaces_equal,
)

from conftest import long_draw_models


def scalar(*vals):
    return Trajectory(np.array(vals, dtype=float).reshape(-1, 1))


@st.composite
def trajectories(draw, max_T=12, max_q=3):
    T = draw(st.integers(min_value=1, max_value=max_T))
    q = draw(st.integers(min_value=1, max_value=max_q))
    vals = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=T * q,
            max_size=T * q,
        )
    )
    return Trajectory(np.array(vals).reshape(T, q))


class TestTrajectory:
    def test_shape_and_accessors(self):
        w = Trajectory(np.array([[1.0, 10.0], [2.0, 20.0]]))
        assert w.T == 2 and w.q == 2

    def test_one_dimensional_input_becomes_single_channel(self):
        assert scalar(1, 2, 3).q == 1

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Trajectory(np.zeros((0, 1)))
        with pytest.raises(DimensionError):
            Trajectory(np.zeros((3, 0)))

    def test_values_are_immutable(self):
        w = scalar(1, 2)
        with pytest.raises(ValueError):
            w.values[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sample(self, bad):
        values = np.ones((5, 2))
        values[3, 1] = bad
        values[4, 0] = bad
        with pytest.raises(ValueError, match=r"^trajectory sample 4 of 5 is not finite$"):
            Trajectory(values)


def _count_entry_points():
    """(entry point, argument, call, low, high) for each count the library takes.

    call(value, tmp_path) passes value as that argument, the others valid.
    """
    w = Trajectory(np.arange(20.0).reshape(10, 2))
    r = Trajectory(np.arange(10.0).reshape(10, 1))
    split = Partition(2, (1,), (2,))
    integrator, _ = harness.integrator_plant()
    rng = np.random.default_rng(0)

    def simulate_flags(tmp_path, T="5", seed="0"):
        model = tmp_path / "model.json"
        lti_core.write_model_json(model, integrator)
        argv = ["simulate", "--model", str(model), "--T", str(T), "--seed", str(seed)]
        return cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "x.csv")])

    def keyword(make, valid: dict, name: str):
        return lambda v, _: make(**{**valid, name: v})

    yield "hankel", "L", lambda v, _: hankel(w, v), 1, w.T
    bounds = InvariantBounds(0, 0, 0, 0, 0)
    yield "DataBundle", "L", lambda v, _: DataBundle(w, r, v, split, bounds), 1, w.T
    target = dict(w=w, L=2, m_bound=0, n_bound=0)
    for name in ("m_bound", "n_bound"):
        yield "excitation_target", name, keyword(excitation_target, target, name), 0, None
    bounds = dict(m_plant=1, n_plant=0, m_ref=0, n_ref=1, lag=0)
    for name in bounds:
        yield "InvariantBounds", name, keyword(InvariantBounds, bounds, name), 0, None
    invariants = dict(m_inputs=1, p_outputs=1, n_order=2, lag=1)
    for name in invariants:
        call = keyword(lti_core.IntegerInvariants, invariants, name)
        yield "IntegerInvariants", name, call, 0, None
    call = keyword(lti_core.behavior_window_map, dict(model=integrator), "L")
    yield "behavior_window_map", "L", call, 1, None
    sizes = dict(q_w=1, q_c=1, n=0, seed=0)
    for name, low in (("q_w", 1), ("q_c", 1), ("n", 0)):
        call = keyword(lti_core.random_minimal_model, sizes, name)
        yield "random_minimal_model", name, call, low, None
    for name, low in (("q_w_max", 1), ("q_c_max", 1), ("n_max", 0)):
        yield "HarnessConfig", name, keyword(harness.HarnessConfig, {}, name), low, None
    call = keyword(harness.random_sub_behavior_model, dict(model=integrator, rng=rng), "m_sub")
    yield "random_sub_behavior_model", "m_sub", call, 0, integrator.m
    yield "run_batch", "seeds", lambda v, _: harness.run_batch(v), 1, None
    yield "run_batch", "seed", lambda v, _: harness.run_batch(1, v), 0, None
    plan = dict(q=1, k=1, L=2)
    for name in plan:
        yield "PermutationPlan", name, keyword(PermutationPlan, plan, name), 1, None
    yield "decaying_reference_data", "T", lambda v, _: harness.decaying_reference_data(v), 1, None
    yield "plant_data", "T", lambda v, _: harness.plant_data(integrator, v, 0), 1, None
    call = keyword(harness.gpe_trajectory, dict(model=integrator, L=1, rng=rng), "T")
    yield "gpe_trajectory", "T", call, 1, None
    yield "cmd_simulate", "T", lambda v, p: cli.cmd_simulate(simulate_flags(p, T=v)), 1, None
    yield "cmd_simulate", "seed", lambda v, p: cli.cmd_simulate(simulate_flags(p, seed=v)), 0, None


def _bad_counts():
    for entry, name, call, low, high in _count_entry_points():
        values = [2.0, True, low - 1] + ([] if high is None else [high + 1])
        for value in values:
            yield pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")


class TestCountRule:
    def test_messages(self):
        assert require_count(np.int64(3), "L", 1, 3) == 3
        with pytest.raises(ValueError, match=r"^L must be an integer, got 2\.0$"):
            require_count(2.0, "L", 1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            require_count(-1, "seed")
        with pytest.raises(ValueError, match=r"^L=4 outside \[1, 3\]$"):
            require_count(4, "L", 1, 3)

    @pytest.mark.parametrize("call, name, value", _bad_counts())
    def test_entry_points_reject_bad_counts(self, call, name, value, tmp_path):
        # a flag's string is read by int() first: "2.0" and "True" name the option there
        with pytest.raises(ValueError, match=rf"^{name}\b|^option '{name}' takes integers"):
            call(value, tmp_path)


class TestHankel:
    def test_scalar_depth_two(self):
        H = hankel(scalar(1, 2, 3, 4), 2)
        assert np.array_equal(H, [[1, 2, 3], [2, 3, 4]])

    def test_full_depth_single_column(self):
        w = Trajectory(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        H = hankel(w, 3)
        assert H.shape == (6, 1)
        assert np.array_equal(H.ravel(), [1, 10, 2, 20, 3, 30])

    def test_two_channel_interleaving(self):
        w = Trajectory(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        H = hankel(w, 2)
        assert np.array_equal(H[:, 0], [1, 10, 2, 20])
        assert np.array_equal(H[:, 1], [2, 20, 3, 30])

    def test_range_error(self):
        with pytest.raises(ValueError):
            hankel(scalar(1, 2), 3)

    def test_matches_column_definition(self, rng):
        for T, q, L in ((30, 3, 5), (17, 2, 17), (9, 4, 1), (40, 1, 12)):
            w = Trajectory(rng.standard_normal((T, q)))
            expected = np.column_stack(
                [w.values[j : j + L].reshape(-1) for j in range(T - L + 1)]
            )
            assert np.array_equal(hankel(w, L), expected)

    def test_is_a_read_only_view(self):
        H = hankel(scalar(1, 2, 3, 4), 2)
        with pytest.raises(ValueError):
            H[0, 0] = 9.0

    @given(trajectories(), st.data())
    @settings(max_examples=40)
    def test_block_structure(self, w, data):
        L = data.draw(st.integers(min_value=1, max_value=w.T))
        H = hankel(w, L)
        q = w.q
        for i in range(1, L):
            for j in range(H.shape[1] - 1):
                assert np.array_equal(
                    H[i * q : (i + 1) * q, j], H[(i - 1) * q : i * q, j + 1]
                )


class TestHankelImage:
    def test_peak_memory_does_not_grow_with_T(self, rng):
        # q = 4, L = 30: a 120-row Hankel matrix, reduced 1024 columns at a
        # time.  One copy of its transpose would take 3.8 MB at T = 4000 and
        # 15.4 MB at T = 16000.
        q, L = 4, 30
        peaks = {}
        for T in (4000, 16000):
            w = Trajectory(rng.standard_normal((T, q)))
            tracemalloc.start()
            try:
                hankel_image(w, L)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra_samples = (16000 - 4000) * q * 8
        assert abs(peaks[16000] - peaks[4000]) < extra_samples, peaks
        assert max(peaks.values()) < 3e6, peaks


def decayed_draw_reference(T: int) -> Trajectory:
    """The autonomous reference of the first (4, 3, 12) long draw, simulated with data seed 2.

    Over 8000 samples most of its entries decay to exactly 0.
    """
    *_, ref = long_draw_models(0)
    return harness.plant_data(ref, T, seed=2)


def leading_zeros_then_decay(T: int) -> Trajectory:
    """1000 zeros, then :func:`~canonctrl.harness.decaying_reference_data`.

    The onset is an impulse response, so every window depth is excited: the
    windows across it span all L dimensions.
    """
    decay = harness.decaying_reference_data(T - 1000).values
    return Trajectory(np.vstack([np.zeros((1000, 1)), decay]))


#: decayed trajectories at depth L, with bounds (m, n) whose m L + n is the rank of H_L
DECAYED = {
    "decaying_reference": (harness.decaying_reference_data, 60, (0, 1)),
    "draw_reference": (decayed_draw_reference, 60, (0, 13)),
    "leading_zeros": (leading_zeros_then_decay, 10, (1, 0)),
}


class TestNegligibleWindows:
    """Hankel factorizations skip the windows below the rounding floor."""

    @pytest.mark.parametrize("T, q, L", [(300, 3, 10), (2000, 2, 10)])
    def test_no_negligible_window_factors_the_whole_matrix(self, rng, T, q, L):
        # 2000 samples take the block-wise QR; either way the factorization is the parent's
        w = Trajectory(rng.standard_normal((T, q)))
        assert signal._informative_windows(w, L).shape[1] == T - L + 1
        basis, s = image_svd(hankel(w, L))
        image = hankel_image(w, L)
        assert np.array_equal(image.basis.basis, basis.basis)
        assert np.array_equal(image.singular_values, s)

    @pytest.fixture(scope="class", params=list(DECAYED))
    def decayed(self, request):
        make, L, bounds = DECAYED[request.param]
        return make(8000), L, bounds

    def test_rank_and_basis_match_dense_svd(self, decayed):
        w, L, (m, n) = decayed
        H = hankel(w, L)
        assert signal._informative_windows(w, L).shape[1] < H.shape[1] // 10
        U, s, _ = np.linalg.svd(H, full_matrices=False)
        rank = RankTolerance().count(s, H.shape)
        assert rank == m * L + n
        basis = hankel_image(Trajectory(w.values), L).basis  # a fresh factorization
        assert basis.dim == rank
        same, angle = subspaces_equal(basis, BehaviorBasis(U[:, :rank]), DEFAULT_ANGLE_TOL)
        assert same, angle

    def test_same_factorization_at_any_length(self, decayed):
        # the silent tail beyond T = 2000 adds no window, so nothing changes, bit for bit
        w, L, _ = decayed
        short = hankel_image(Trajectory(w.values[:2000]), L)
        long = hankel_image(Trajectory(w.values), L)
        assert np.array_equal(short.basis.basis, long.basis.basis)
        assert np.array_equal(short.singular_values, long.singular_values)

    def test_gpe_rank_with_and_without_stored_image(self, decayed):
        w, L, (m, n) = decayed
        fresh = Trajectory(w.values)
        unstored = is_gpe(fresh, L, m, n)
        hankel_image(fresh, L)
        assert is_gpe(fresh, L, m, n) == unstored == (True, m * L + n)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_keep_every_window(self, rng, scale):
        # unscaled squares of these samples overflow to inf or underflow to 0
        values = rng.standard_normal((500, 2))
        w = Trajectory(scale * values)
        L = 5
        assert signal._informative_windows(w, L).shape[1] == 500 - L + 1
        assert hankel_image(w, L).basis.dim == 2 * L
        assert is_gpe(Trajectory(w.values), L, 2, 0) == (True, 2 * L)

    def test_zero_trajectory_keeps_no_window(self):
        w = Trajectory(np.zeros((50, 2)))
        assert signal._informative_windows(w, 3).shape == (6, 0)
        image = hankel_image(w, 3)
        assert image.basis.basis.shape == (6, 0) and image.singular_values.size == 0
        assert is_gpe(w, 3, 1, 0) == (False, 0)


class TestGpe:
    def test_static_plant_stacked_data(self, rng):
        c = rng.standard_normal(40)
        w = Trajectory(np.column_stack([c, c]))
        ok, rank = is_gpe(w, 2, m_bound=1, n_bound=0)
        assert ok and rank == 2
        assert np.linalg.matrix_rank(hankel(w, 2)) == 2

    def test_zero_trajectory_fails(self):
        w = Trajectory(np.zeros((20, 1)))
        ok, rank = is_gpe(w, 3, m_bound=1, n_bound=0)
        assert not ok and rank == 0

    def test_integrator_stacked_data(self, rng):
        c = rng.standard_normal(40)
        w = np.concatenate([[0.0], np.cumsum(c)[:-1]])
        traj = Trajectory(np.column_stack([w, c]))
        ok, rank = is_gpe(traj, 2, m_bound=1, n_bound=1)
        assert ok and rank == 3
        assert np.linalg.matrix_rank(hankel(traj, 2)) == 3

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleRankError):
            is_gpe(scalar(1, 2, 3), 2, m_bound=3, n_bound=0)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            is_gpe(scalar(1, 2, 3), 2, m_bound=-1, n_bound=0)

    def test_rank_never_exceeds_invariant_bound(self):
        # windows of any model trajectory live inside the restricted
        # behavior, whose dimension is m L + n above the lag
        from canonctrl.lti_core import invariants_of, random_minimal_model, simulate
        from canonctrl.subspace import RankTolerance

        tol = RankTolerance()
        for seed in range(15):
            rng = np.random.default_rng(seed)
            model, _ = random_minimal_model(2, 1, 2, seed=seed)
            inv = invariants_of(model)
            traj = simulate(
                model,
                Trajectory(rng.standard_normal((8 + int(rng.integers(0, 20)), model.m))),
                x0=rng.standard_normal(model.n),
            )
            for L in (inv.lag + 1, inv.lag + 2):
                rank = tol.rank(hankel(traj, L))
                assert rank <= inv.m_inputs * L + inv.n_order


class TestPartition:
    def test_valid_split(self):
        part = Partition(3, (2, 1), (3,))
        assert part.n_w == 2 and part.n_c == 1

    @pytest.mark.parametrize(
        "picks_w,picks_c",
        [((1,), (1, 2)), ((1,), (3,)), ((1, 2, 3), (4,))],
    )
    def test_invalid_split(self, picks_w, picks_c):
        with pytest.raises(PartitionError):
            Partition(3, picks_w, picks_c)

    @pytest.mark.parametrize(
        "picks_w, picks_c",
        [([2.7], [1]), ([2], [1.9]), ([2.0], [1]), ([True], [2]), ([np.float64(2)], [1])],
    )
    def test_non_integer_channels_rejected(self, picks_w, picks_c):
        # int() would read 2.7 as channel 2 and True as channel 1
        with pytest.raises(PartitionError, match="integer channels"):
            Partition(2, picks_w, picks_c)

    def test_numpy_integer_channels_accepted(self):
        part = Partition(3, np.array([3, 1]), np.array([2], dtype=np.int32))
        assert part.picks_w == (3, 1) and part.picks_c == (2,)
        assert all(type(i) is int for i in part.picks_w + part.picks_c)

    def test_empty_block_rejected(self):
        # a Partition is a control split: it needs a w channel and a c channel
        for picks_w, picks_c in (((), (1, 2)), ((1, 2), ())):
            with pytest.raises(PartitionError, match="control split needs both"):
                Partition(2, picks_w, picks_c)

    def test_channel_rows(self):
        rows = channel_rows((2,), q_total=3, L=2)
        assert np.array_equal(rows, [1, 4])

    def test_arrange_round_trip(self):
        # arranging by a partition, then by the inverse order, gives w back
        w = Trajectory(np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]]))
        for order in itertools.permutations((1, 2, 3)):
            for split in (1, 2):
                arranged = arrange_by_partition(w, Partition(3, order[:split], order[split:]))
                inverse = tuple(order.index(i) + 1 for i in (1, 2, 3))
                back = arrange_by_partition(arranged, Partition(3, inverse[:1], inverse[1:]))
                assert np.array_equal(back.values, w.values), (order, split)

    def test_arrange_by_partition(self):
        w = Trajectory(np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]]))
        part = Partition(3, (3, 1), (2,))
        assert np.array_equal(
            arrange_by_partition(w, part).values, [[100, 1, 10], [200, 2, 20]]
        )

    def test_arrange_in_order_returns_input(self):
        w = Trajectory(np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]]))
        assert arrange_by_partition(w, Partition(3, (1, 2), (3,))) is w


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        w = Trajectory(rng.standard_normal((17, 3)))
        path = tmp_path / "traj.csv"
        write_csv(path, w)
        back = read_csv(path)
        assert np.array_equal(back.values, w.values)

    def test_rows_match_csv_writer_and_round_trip_exactly(self, tmp_path, rng):
        extremes = [-0.0, 5e-324, 1e308, -1e308, 0.1, -2.5e-310, 1.0 / 3.0]
        values = np.vstack([np.array(extremes).reshape(-1, 1) * np.ones((1, 3)),
                            rng.standard_normal((5, 3))])  # fmt: skip
        w = Trajectory(values)
        path, reference = tmp_path / "fast.csv", tmp_path / "csv_writer.csv"
        write_csv(path, w)
        with open(reference, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["ch1", "ch2", "ch3"])
            for row in w.values:
                writer.writerow([repr(float(x)) for x in row])
        assert path.read_bytes() == reference.read_bytes()
        assert read_csv(path).values.tobytes() == values.tobytes()

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(read_csv(path).values, [[1, 2], [3, 4]])

    def test_header_after_blank_line(self, tmp_path):
        path = tmp_path / "blank_first.csv"
        path.write_text("\nch1,ch2\n1,2\n3,4\n")
        assert np.array_equal(read_csv(path).values, [[1, 2], [3, 4]])

    def test_whitespace_only_rows_skipped(self, tmp_path):
        path = tmp_path / "spaces.csv"
        path.write_text("   \nch1,ch2\n1,2\n   \n , \n3,4\n")
        assert np.array_equal(read_csv(path).values, [[1, 2], [3, 4]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("ch1,ch2\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            read_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nx,4.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"ch1,ch2\n1.0,2.0\n\n3.0,{cell}\n5.0,6.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: non-finite entry on line 4"):
            read_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ch1\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)

    @pytest.mark.parametrize("text", ["", "\n \n", "ch1,ch2\n", " , \n", "ch1,ch2\r\n\r\n"])
    def test_float_rows_of_no_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read_float_rows(path).shape == (0, 0)
        assert caught == []

    def test_float_rows_mirror_writer(self, tmp_path, rng):
        values = rng.standard_normal((6, 4))
        path = tmp_path / "rows.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            write_float_rows(f, values)
        assert read_float_rows(path).tobytes() == values.tobytes()


def read_outcome(read, path):
    """What a reader gives for a file: the array's shape and bytes, or the error's type and message."""
    try:
        values = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes()


EXTREMES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308, 0.1, -2.5e-310, 1.0 / 3.0]  # fmt: skip

# name -> (file text, written as UTF-8; the rows it reads to, its error message, or a shape)
CORPUS = {
    "lf": ("ch1,ch2\n1,2\n3,4\n", [[1, 2], [3, 4]]),
    "crlf": ("ch1,ch2\r\n1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    "cr": ("ch1,ch2\r1,2\r3,4\r", [[1, 2], [3, 4]]),
    "no final newline": ("ch1,ch2\n1,2\n3,4", [[1, 2], [3, 4]]),
    "no header": ("1,2\n3,4\n", [[1, 2], [3, 4]]),
    "blank line before header": ("\nch1,ch2\n1,2\n", [[1, 2]]),
    "spaces before header": ("   \n\t\nch1,ch2\n1,2\n", [[1, 2]]),
    "blank cells row": ("ch1,ch2\n1,2\n , \n3,4\n", [[1, 2], [3, 4]]),
    "blank lines between rows": ("1,2\n\n\r\n3,4\n\n", [[1, 2], [3, 4]]),
    "padded cells": ("ch1,ch2\n 1 ,\t2\n", [[1, 2]]),
    "one column": ("ch1\n1\n2\n3\n", [[1], [2], [3]]),
    "one row": ("1,2,3\n", [[1, 2, 3]]),
    "exponents": ("ch1,ch2\n+1.5E+3,-2e-3\n1E5,+0.0\n", [[1500, -0.002], [1e5, 0]]),
    "header case": ("CH1,Channel 2\n1,2\n", [[1, 2]]),
    "quoted header comma": ('ch1,"a,b"\n1,2\n', [[1, 2]]),
    "quoted header newline": ('ch1,"a\nb"\n1,2\n', [[1, 2]]),
    "quoted cell": ('ch1,ch2\n"1.0",2\n', [[1, 2]]),
    "underscore": ("1_0,2\n", [[10, 2]]),
    "arabic-indic digit": ("\u0661,2\n", [[1, 2]]),
    "ragged, no header": ("1,2\n3\n", "ragged row on line 2 (1 != 2)"),
    "ragged after header": ("ch1,ch2\n1,2\n3\n", "ragged row on line 3 (1 != 2)"),
    "wider than header": ("ch1,ch2\n1,2,3\n", "ragged row on line 2 (3 != 2)"),
    "wider than quoted header": ('ch1,"a,b"\n1,2,3\n', "ragged row on line 2 (3 != 2)"),
    "non-numeric": ("ch1,ch2\n1,2\nx,4\n", "non-numeric entry on line 3"),
    "hash": ("ch1,ch2\n1,2\n#3,4\n", "non-numeric entry on line 3"),
    "trailing comma": ("1,2,\n", "non-numeric entry on line 1"),
    "byte order mark": ("\ufeffch1,ch2\n1,2\n", [[1, 2]]),
    "byte order mark, no header": ("\ufeff1,2\n", [[1, 2]]),
    "header mid-file": ("1,2\nch1,ch2\n3,4\n", "non-numeric entry on line 2"),
    "line break in quotes": ('1,2\n"3\n",4\n', [[1, 2], [3, 4]]),
    "non-numeric after a quoted line break": ('ch1,"a\nb"\n1,2\n3,x\n', "non-numeric entry on line 4"),
    "ragged after a quoted line break": ('ch1,"a\nb"\n1,2\n3\n', "ragged row on line 4 (1 != 2)"),
    "nan after a quoted line break": ('1,2\n"3\n",4\n5,nan\n', "non-finite entry on line 4"),
    "non-numeric row with a quoted line break": ('1,2\n\n"x\n",4\n', "non-numeric entry on line 3"),
    "nul in header": ("ch1,ch\x002\n1,2\n", [[1, 2]]),
    "nul in a cell": ("1,2\n3,\x004\n", "non-numeric entry on line 2"),
    "form feed inside a cell": ("1,2\x0c3\n", "non-numeric entry on line 1"),
    "hex": ("0x10,2\n", "non-numeric entry on line 1"),
    "field over the csv limit": (
        "ch1,ch2\n1,2\n" + "3" * 200_000 + ",4\n",
        "field larger than field limit (131072) on line 3",
    ),
    "field over the csv limit after a quoted line break": (
        'ch1,"a\nb"\n1,2\n"' + "3" * 200_000 + '",4\n',
        "field larger than field limit (131072) on line 4",
    ),
    **{
        f"{cell} on a crlf line": (
            f"ch1,ch2\r\n1,2\r\n\r\n3,{cell}\r\n5,6\r\n",
            "non-finite entry on line 4",
        )
        for cell in ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"]
    },
    "empty": ("", (0, 0)),
    "blank only": ("\n \n\r\n , \n", (0, 0)),
    "header only": ("ch1,ch2\n", (0, 0)),
    "header and blank lines": ("ch1,ch2\r\n\r\n\n", (0, 0)),
    "header and spaces": ("ch1,ch2\n  \n", (0, 0)),
}


class TestReaderAgreement:
    """`read_float_rows` reads every file to what the line-by-line reader gives, bit for bit."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, tmp_path, name):
        text, expected = CORPUS[name]
        path = tmp_path / "rows.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = read_outcome(read_float_rows, path)
        assert outcome == read_outcome(signal._read_line_by_line, path)
        if isinstance(expected, str):
            assert outcome == (ValueError, f"{path}: {expected}")
        elif isinstance(expected, tuple):
            assert outcome[0] == expected
        else:
            assert outcome == (np.shape(expected), np.array(expected, dtype=float).tobytes())

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        outcome = read_outcome(read_float_rows, path)
        assert outcome == read_outcome(signal._read_line_by_line, path)
        assert outcome[0] is UnicodeDecodeError

    def test_field_size_limit(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("1,2\n1.00000000,2\n")  # a 10-character cell
        limit = csv.field_size_limit(9)
        try:
            outcome = read_outcome(read_float_rows, path)
            assert outcome == read_outcome(signal._read_line_by_line, path)
            assert outcome == (ValueError, f"{path}: field larger than field limit (9) on line 2")
            csv.field_size_limit(10)
            assert read_float_rows(path).shape == (2, 2)
        finally:
            csv.field_size_limit(limit)

    def test_extremes(self, tmp_path, rng):
        values = rng.standard_normal((20_000, 10)) * 10.0 ** rng.integers(-320, 308, (20_000, 10))
        values[:: 7] = EXTREMES
        path = tmp_path / "extremes.csv"
        write_csv(path, Trajectory(values))
        back = read_float_rows(path)
        assert back.tobytes() == values.tobytes()
        assert back.tobytes() == signal._read_line_by_line(path).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["1", "-2.5", "+3e2", " 4 ", "", " ", "nan", "1_0", '"5"', "x", "ch1"]),
                max_size=3,
            ),
            max_size=5,
        ),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
    )
    def test_random_files(self, tmp_path_factory, rows, newline, header):
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        lines = (["ch1,ch2"] if header else []) + [",".join(row) for row in rows]
        path.write_bytes(newline.join(lines).encode("utf-8"))
        assert read_outcome(read_float_rows, path) == read_outcome(signal._read_line_by_line, path)

    def test_written_files_take_the_c_reader(self, tmp_path, rng, monkeypatch):
        """Files the package writes never reach the line-by-line reader."""

        def refuse(path):
            raise AssertionError(f"{path} was read line by line")

        monkeypatch.setattr(signal, "_read_line_by_line", refuse)
        values = rng.standard_normal((8000, 7))
        values[:: 11] = EXTREMES[:7]
        path = tmp_path / "plant.csv"
        write_csv(path, Trajectory(values))
        assert read_csv(path).values.tobytes() == values.tobytes()
        ctrl = ControllerBasis(orthonormal_basis(rng.standard_normal((60, 5))), 3, 20)
        path = tmp_path / "controller.csv"
        write_controller_csv(path, ctrl)
        assert read_float_rows(path).tobytes() == ctrl.basis.basis.tobytes()
        back = read_controller_csv(path).basis.basis
        assert back.tobytes() == orthonormal_basis(ctrl.basis.basis).basis.tobytes()
