import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import (
    AverageExceedsOneError,
    ClassificationTask,
    ConfeeError,
    Dataset,
    E_MEAN_TOLERANCE,
    EValueVector,
    EmptyDatasetError,
    FoldPartition,
    KnnRule,
    LabelOutOfSpaceError,
    NegativeEntryError,
    NonFiniteEntryError,
    Observation,
    OnlineTrace,
    OutOfRangeError,
    PlausibilityTable,
    PredictorSpec,
    RegressionTask,
    RidgeRule,
    Scenario,
    SummaryVector,
    SupportSet,
    TooFewFoldsError,
    TooFewObservationsError,
    compare_e_vs_p,
    derive_seed,
    e_prediction_set,
    fit_cross,
    fit_split,
    get_scenario,
    make_fold_partition,
    mc_space_validity,
    online_time_validity,
    sample,
    spawn_rng,
    unit_margin_provider,
)
from confee import core
from confee.core import check_e_rows
from confee.normalize import FAST_ROWS

TASK01 = ClassificationTask((0, 1))


class TestEValueVector:
    def test_boundary_cases(self):
        assert EValueVector((3.0, 0.0, 0.0)).values == (3.0, 0.0, 0.0)
        assert EValueVector((1.0, 1.0, 1.0)).mean == 1.0
        with pytest.raises(AverageExceedsOneError):
            EValueVector((2.0, 1.0, 1.0))
        # nonnegative entries whose sum overflows have a mean above 1
        with pytest.raises(AverageExceedsOneError, match="the row's sum overflows"):
            EValueVector((1e308, 1e308))

    def test_rejects_bad_entries(self):
        with pytest.raises(NegativeEntryError):
            EValueVector((-0.1, 0.5))
        with pytest.raises(NonFiniteEntryError):
            EValueVector((float("nan"),))
        with pytest.raises(NonFiniteEntryError):
            EValueVector((float("inf"), 0.0))
        with pytest.raises(OutOfRangeError):
            EValueVector(())

    def test_mean_tolerance_edge(self):
        EValueVector((1.0 + 5e-13,))  # inside the 1e-12 slack
        with pytest.raises(AverageExceedsOneError):
            EValueVector((1.0 + 5e-12,))

    def test_fuzz_matches_direct_mean_check(self):
        rng = np.random.default_rng(20240815)
        for _ in range(2000):
            m = int(rng.integers(1, 30))
            values = rng.exponential(1.0, m) * rng.uniform(0.0, 1.5)
            should_pass = math.fsum(values) / m <= 1.0 + 1e-12
            if should_pass:
                assert len(EValueVector(values)) == m
            else:
                with pytest.raises(AverageExceedsOneError):
                    EValueVector(values)


# The row check as it was before the certified filter, kept as the
# reference: math.fsum of every row, in order.


def _ref_check_e_rows(block):
    if not np.isfinite(block).all():
        raise NonFiniteEntryError("e-values must be finite")
    if (block < 0).any():
        raise NegativeEntryError("e-values must be nonnegative")
    m = block.shape[1]
    try:
        for total in map(math.fsum, block.tolist()):
            if total / m > 1.0 + E_MEAN_TOLERANCE:
                raise AverageExceedsOneError(f"mean {total / m} exceeds 1")
    except OverflowError:
        raise AverageExceedsOneError("mean exceeds 1: the row's sum overflows") from None
    return block


_TOP = 1.0 + E_MEAN_TOLERANCE


def _nudged(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else 0.0)
    return value


def _lossy_row(m, fraction, steps):
    """One large entry and m - 1 entries below half its ulp, summing to
    about the largest passing total m * (1 + E_MEAN_TOLERANCE): numpy's
    pairwise sum drops some of the small entries into the large one, so
    it undershoots the exact sum by several ulp."""
    small = fraction * math.ulp(m * _TOP)
    return [_nudged(m * _TOP - (m - 1) * small, steps)] + [small] * (m - 1)


def _row(rng, m, kind):
    if kind == "lossy":
        return _lossy_row(m, rng.uniform(0.3, 0.5), int(rng.integers(-4, 12)))
    if kind == "zeros":
        return [0.0] * m
    if kind == "subnormal":
        return (rng.integers(0, 1000, m) * 5e-324).tolist()
    if kind == "huge":
        row = np.zeros(m)
        row[rng.integers(0, m, int(rng.integers(1, 4)))] = 10.0 ** rng.uniform(305, 308)
        return row.tolist()
    # "near": a total within a few ulp of the largest passing one
    row = rng.exponential(1.0, m) * rng.uniform(0.0, 1.0, m) ** 4
    row *= m * _TOP / math.fsum(row.tolist())
    top = int(row.argmax())
    row[top] = _nudged(row[top] + (m * _TOP - math.fsum(row.tolist())), int(rng.integers(-6, 7)))
    return np.maximum(row, 0.0).tolist()


@st.composite
def _e_blocks(draw):
    """(L, m) blocks, L from 1 to 24 and m up to 10**4,
    whose rows sit at the mean check's edge: totals within a few ulp of
    m * (1 + E_MEAN_TOLERANCE), rows numpy's sum undershoots, zeros,
    subnormals and entries whose sum overflows; now and then one entry is
    negative or not finite."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(41, 10_000)))
    L = draw(st.integers(1, 24))
    L = max(1, min(L, 250_000 // m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["near", "lossy", "zeros", "subnormal", "huge"]),
                          min_size=1, max_size=3))
    block = np.array([_row(rng, m, kinds[i % len(kinds)]) for i in range(L)])
    bad = draw(st.sampled_from([None] * 8 + [-1e-300, math.nan, math.inf]))
    if bad is not None:
        block[rng.integers(0, L), rng.integers(0, m)] = bad
    return block


def _check_outcome(check, block):
    """("ok", the returned block is the one given and read-only), or the
    error's class and message."""
    block = block.copy()
    try:
        out = check(block)
    except (AverageExceedsOneError, NegativeEntryError, NonFiniteEntryError) as exc:
        return type(exc), str(exc)
    return "ok", out is block and not out.flags.writeable


class TestCertifiedRowCheck:
    @settings(max_examples=200, deadline=None)
    @given(block=_e_blocks())
    @example(block=np.array([_lossy_row(1000, 0.49, 2)] * FAST_ROWS))
    @example(block=np.array([_lossy_row(128, 0.49, 1)] * (FAST_ROWS + 1)))
    @example(block=np.array([[1e308, 1e308, 0.0]] * FAST_ROWS))
    @example(block=np.array([[0.0] * 9] * FAST_ROWS))
    def test_matches_the_fsum_check(self, block):
        expected = _check_outcome(_ref_check_e_rows, block)
        if expected[0] == "ok":
            expected = ("ok", True)
        assert _check_outcome(check_e_rows, block) == expected

    def test_certified_rows_take_no_fsum(self, monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(core.math, "fsum", lambda row: calls.append(1) or fsum(row))
        # the filter covers a block of any row count, one row included
        for L in (1, 2, 7, 8, 24):
            check_e_rows(np.full((L, 5), 0.5))
            assert calls == []
            # rows at the largest passing mean are too close for the numpy
            # sum to clear; they are checked exactly and pass
            rows = np.full((L, 4), 0.5)
            rows[::3] = _TOP
            check_e_rows(rows)
            assert len(calls) == len(range(0, L, 3))
            calls.clear()


class TestVectorValues:
    def test_values_are_floats_and_vectors_compare_by_them(self):
        summary = SummaryVector(np.array([1.0, 2.5]))
        assert summary.values == (1.0, 2.5) and type(summary.values[0]) is float
        assert summary == SummaryVector((1.0, 2.5))
        assert hash(summary) == hash(SummaryVector([1.0, 2.5]))
        assert summary != SummaryVector((1.0, 2.0))
        assert EValueVector((0.5, 1.5)) != SummaryVector((0.5, 1.5))
        assert len(summary) == 2 and len(EValueVector(iter([1.0, 0.0]))) == 2

    def test_two_dimensional_input_refused(self):
        flat = r"must be a flat sequence, got shape \(1, 2\)$"
        with pytest.raises(OutOfRangeError, match=f"^summaries {flat}"):
            SummaryVector([[1.0, 2.0]])
        with pytest.raises(OutOfRangeError, match=f"^e-values {flat}"):
            EValueVector([[0.5, 1.0]])
        data = Dataset(np.zeros((3, 1)), np.array([0, 1, 0]), ClassificationTask((0, 1)))
        with pytest.raises(OutOfRangeError, match=f"^subset indices {flat}"):
            data.subset([[0, 1]])
        with pytest.raises(OutOfRangeError, match=f"^fold indices {flat}"):
            FoldPartition(([[0, 1]], [2]), 3, 0)


class TestFoldPartition:
    def test_bijection_balance_determinism(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 150))
            K = int(rng.integers(2, min(n, 9) + 1))
            seed = int(rng.integers(0, 2**32))
            part = make_fold_partition(n, K, seed)
            flat = sorted(i for fold in part.folds for i in fold)
            assert flat == list(range(n))
            sizes = [len(f) for f in part.folds]
            assert max(sizes) - min(sizes) <= 1
            assert part == make_fold_partition(n, K, seed)

    def test_compares_only_with_partitions(self):
        part = make_fold_partition(6, 2, 1)
        assert part != 3 and not part == 3
        assert part != make_fold_partition(6, 2, 2)

    def test_large_folds_come_first(self):
        part = make_fold_partition(23, 5, 3)
        assert [len(f) for f in part.folds] == [5, 5, 5, 4, 4]

    def test_preconditions(self):
        with pytest.raises(TooFewFoldsError):
            make_fold_partition(10, 1, 0)
        with pytest.raises(TooFewObservationsError):
            make_fold_partition(3, 4, 0)
        with pytest.raises(OutOfRangeError):
            make_fold_partition(10, 2, -1)

    def test_direct_construction_is_validated(self):
        FoldPartition(((0, 2), (1, 3)), 4, 0)
        with pytest.raises(OutOfRangeError):
            FoldPartition(((0, 1), (1, 2)), 3, 0)  # overlap
        with pytest.raises(OutOfRangeError):
            FoldPartition(((0,), (2,)), 3, 0)  # index 1 missing
        with pytest.raises(OutOfRangeError):
            FoldPartition(((0, 1, 2), (3,)), 4, 0)  # unbalanced
        with pytest.raises(TooFewFoldsError):
            FoldPartition(((0, 1),), 2, 0)
        # an index far past n - 1 is refused without sizing anything by it
        with pytest.raises(OutOfRangeError, match="partition 0..n-1 exactly"):
            FoldPartition(((0, 2**62), (1,)), 3, 0)
        with pytest.raises(OutOfRangeError, match="partition 0..n-1 exactly"):
            FoldPartition(((0, -2**62), (1,)), 3, 0)

    def test_fold_indices_must_be_integers(self):
        for folds, dtype in (
            (((0.5, 1.7), (2.2, 3.9)), "float64"),
            (((0, 1), (2.0, 3)), "float64"),
            ((np.array([True, False]), (2, 3)), "bool"),
        ):
            with pytest.raises(OutOfRangeError, match=f"^fold indices must be integers, got {dtype}$"):
                FoldPartition(folds, 4, 0)
        # an empty fold keeps its error; integer arrays of any width pass
        with pytest.raises(TooFewObservationsError):
            FoldPartition(((), (0, 1)), 2, 0)
        part = FoldPartition((np.array([0, 2], dtype=np.int8), range(1, 4, 2)), 4, 0)
        assert part.fold_of.tolist() == [0, 1, 0, 1]

    def test_complement_is_every_other_fold(self):
        # fold k is folds[k]; its complement is the rows whose fold_of
        # entry is any other index
        part = make_fold_partition(10, 3, 11)
        for k, fold in enumerate(part.folds):
            comp = np.flatnonzero(part.fold_of != k)
            assert sorted([*comp, *fold]) == list(range(10))
            assert (part.fold_of[fold] == k).all()
        assert not part.fold_of.flags.writeable


# The tuple-based partition code the array-backed one replaced, kept as the
# reference: FoldPartition's checks and make_fold_partition as they were.


def _ref_partition_folds(folds, n) -> tuple:
    folds = tuple(tuple(int(i) for i in fold) for fold in folds)
    if len(folds) < 2:
        raise TooFewFoldsError("need at least two folds")
    if any(not fold for fold in folds):
        raise TooFewObservationsError("every fold needs at least one observation")
    flat = sorted(i for fold in folds for i in fold)
    if flat != list(range(n)):
        raise OutOfRangeError("folds must partition 0..n-1 exactly")
    sizes = [len(fold) for fold in folds]
    if max(sizes) - min(sizes) > 1:
        raise OutOfRangeError(f"fold sizes {sizes} differ by more than one")
    return folds


def _ref_make_fold_partition(n, K, seed) -> tuple:
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, K)
    folds = []
    start = 0
    for k in range(K):
        size = base + (1 if k < extra else 0)
        folds.append(tuple(int(i) for i in perm[start:start + size]))
        start += size
    return _ref_partition_folds(tuple(folds), n)


class TestFoldPartitionDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 2000),
        K=st.integers(2, 2000),
        seed=st.sampled_from([0, 2**63 - 1]),
    )
    @example(n=2, K=2, seed=0)
    @example(n=2000, K=2000, seed=2**63 - 1)
    @example(n=2000, K=7, seed=0)
    def test_make_fold_partition_matches_tuple_code(self, n, K, seed):
        K = min(K, n)
        part = make_fold_partition(n, K, seed)
        assert tuple(tuple(fold.tolist()) for fold in part.folds) == _ref_make_fold_partition(
            n, K, seed
        )
        assert all(fold.dtype == np.intp and not fold.flags.writeable for fold in part.folds)
        again = make_fold_partition(n, K, seed)
        assert part == again and hash(part) == hash(again)
        for k in (0, K - 1):
            comp = np.flatnonzero(part.fold_of != k)
            assert comp.tolist() == sorted(set(range(n)) - set(part.folds[k].tolist()))

    @settings(max_examples=300, deadline=None)
    @given(
        folds=st.lists(st.lists(st.integers(-2, 9), max_size=5), max_size=5),
        n=st.integers(0, 9),
        as_arrays=st.booleans(),
    )
    @example(folds=[[0, 1], [1, 3]], n=4, as_arrays=True)  # 1 twice, 2 missing
    @example(folds=[[0], [0]], n=2, as_arrays=False)
    def test_construction_raises_the_reference_error(self, folds, n, as_arrays):
        given_folds = tuple(np.array(f, dtype=int) if as_arrays else tuple(f) for f in folds)
        try:
            expected = _ref_partition_folds(folds, n)
        except (TooFewFoldsError, TooFewObservationsError, OutOfRangeError) as exc:
            with pytest.raises(type(exc)):
                FoldPartition(given_folds, n, 0)
        else:
            part = FoldPartition(given_folds, n, 0)
            assert tuple(tuple(fold.tolist()) for fold in part.folds) == expected
            assert part.fold_of.tolist() == [
                next(k for k, fold in enumerate(expected) if i in fold) for i in range(n)
            ]

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 500), K=st.integers(2, 500), seed=st.integers(0, 2**63 - 1))
    @example(n=2, K=2, seed=0)
    @example(n=23, K=5, seed=3)
    def test_make_fold_partition_passes_the_public_checks(self, n, K, seed):
        K = min(K, n)
        part = make_fold_partition(n, K, seed)
        public = FoldPartition(part.folds, n, seed)
        assert part == public and hash(part) == hash(public)
        assert np.array_equal(part.fold_of, public.fold_of)
        assert part.fold_of.dtype == np.intp
        for array in (*part.folds, part.fold_of):
            assert not array.flags.writeable

    def test_folds_are_read_only_and_not_shared_with_the_caller(self):
        given_fold = np.array([0, 2])
        part = FoldPartition((given_fold, (1, 3)), 4, 0)
        given_fold[0] = 3
        assert part.folds[0].tolist() == [0, 2]
        for fold in (*part.folds, *make_fold_partition(10, 3, 1).folds):
            with pytest.raises(ValueError):
                fold[0] = 1


class TestTasksAndData:
    def test_classification_task(self):
        task = ClassificationTask(("a", "b"))
        assert task.candidates == ("a", "b")
        with pytest.raises(OutOfRangeError):
            ClassificationTask(())
        with pytest.raises(OutOfRangeError):
            ClassificationTask((1, 1))

    def test_regression_task(self):
        task = RegressionTask((-1.0, 0.0, 2.5))
        assert task.candidates == (-1.0, 0.0, 2.5)
        with pytest.raises(OutOfRangeError):
            RegressionTask((0.0, 0.0))
        with pytest.raises(OutOfRangeError):
            RegressionTask(())
        with pytest.raises(NonFiniteEntryError):
            RegressionTask((0.0, float("inf")))

    def test_len_counts_rows(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), TASK01)
        assert len(data) == data.n == 3
        assert len(data.subset([2])) == 1

    def test_observation_coerces_types(self):
        z = Observation((np.float64(1.5), 2), np.int64(3))
        assert z.x == (1.5, 2.0)
        assert isinstance(z.y, int) and z.y == 3
        with pytest.raises(NonFiniteEntryError):
            Observation((float("nan"),), 0)

    def test_dataset_invariants(self):
        task = ClassificationTask((0, 1))
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), task)
        assert (ds.n, ds.dim) == (3, 2)
        with pytest.raises(EmptyDatasetError):
            Dataset(np.zeros((0, 2)), np.array([]), task)
        with pytest.raises(LabelOutOfSpaceError):
            Dataset(np.zeros((1, 2)), np.array([7]), task)
        with pytest.raises(NonFiniteEntryError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]), task)
        with pytest.raises(OutOfRangeError):
            Dataset(np.zeros((2, 2)), np.array([0]), task)
        with pytest.raises(OutOfRangeError):
            Dataset(np.zeros(3), np.array([0, 1, 0]), task)
        # no feature column: a knn fit would fail inside its distance kernel
        message = r"^features: need at least one column, got shape \(6, 0\)$"
        with pytest.raises(OutOfRangeError, match=message):
            Dataset(np.zeros((6, 0)), [0, 1, 0, 1, 0, 1], task)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_regression_labels_must_be_finite(self, bad):
        with pytest.raises(NonFiniteEntryError, match="labels must be n finite reals"):
            Dataset(np.zeros((2, 1)), np.array([0.5, bad]), RegressionTask((0.0, 2.0)))

    def test_dataset_is_frozen(self):
        ds = Dataset(np.zeros((2, 1)), np.array([0.5, 1.5]), RegressionTask((0.0, 2.0)))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 9.0

    def test_subset_and_observations(self):
        task = ClassificationTask((0, 1))
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 1, 0]), task)
        sub = ds.subset([2, 0])
        assert sub.n == 2
        assert sub.observation(0) == Observation((4.0, 5.0), 1)
        assert [z.y for z in ds.observations()] == [0, 1, 1, 0]
        with pytest.raises(EmptyDatasetError):
            ds.subset([])

    def test_subset_rejects_indices_outside_the_rows(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 1, 0, 1]), TASK01)
        for indices, bad in (
            ([-1], -1),
            ([0, 7], 7),
            ([5], 5),
            (np.array([2, -1, 9]), -1),
            (range(3, 7), 5),
        ):
            with pytest.raises(OutOfRangeError, match=rf"subset index {bad} not in 0\.\.4"):
                ds.subset(indices)
        with pytest.raises(OutOfRangeError, match="subset index 3 not in 0..2"):
            ds.subset([4, 0, 1]).subset([3])

    @pytest.mark.parametrize("indices, dtype", [
        ([1.5], "float64"),
        ([0, 2.0], "float64"),
        (np.array([True, False, True, False, True]), "bool"),
        ([True], "bool"),
        (["1"], "<U1"),
        ([2**70], "object"),
    ])
    def test_subset_indices_must_be_integers(self, indices, dtype):
        ds = Dataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 1, 0, 1]), TASK01)
        with pytest.raises(OutOfRangeError, match=rf"^subset indices must be integers, got {dtype}$"):
            ds.subset(indices)
        with pytest.raises(OutOfRangeError, match="^subset indices must be integers: "):
            ds.subset([[0], [1, 2]])
        for indices in ([np.int32(3), 1], np.array([3, 1], dtype=np.uint8), range(3, 0, -2)):
            assert ds.subset(indices).X.tolist() == [[6.0, 7.0], [2.0, 3.0]]

    @pytest.mark.parametrize("X, y, task, message", [
        ([["a", "b"]], [0], TASK01, "features must be real numbers: could not convert"),
        ([[1.0], [1.0, 2.0]], [0, 1], TASK01, "features must be real numbers: setting an array"),
        ([[1.0], [2.0]], ["a", 1.0], RegressionTask((0.0, 1.0)), "labels must be real numbers: "),
        ([[1.0], [2.0]], [[0], [1, 1]], TASK01, "labels must be one per row: "),
    ], ids=["string-feature", "ragged-features", "string-label", "ragged-labels"])
    def test_malformed_numbers_named(self, X, y, task, message):
        with pytest.raises(OutOfRangeError, match=f"^{message}"):
            Dataset(X, y, task)

    def test_malformed_summaries_and_features_named(self):
        with pytest.raises(OutOfRangeError, match="^summaries must be real numbers: "):
            SummaryVector(["a"])
        with pytest.raises(OutOfRangeError, match="^e-values must be real numbers: "):
            EValueVector([0.5, [1.0]])
        with pytest.raises(OutOfRangeError, match="^feature vector must be real numbers: "):
            Observation((0.0, "a"), 1)
        with pytest.raises(OutOfRangeError, match="^feature vector must be real numbers: "):
            Observation(1.0, 1)
        # numbers numpy and float() read keep their path
        assert SummaryVector(["1.5", 2]).values == (1.5, 2.0)
        assert Observation(("1.5", np.float32(2.0)), 1).x == (1.5, 2.0)

    def test_malformed_task_and_table_inputs_named(self):
        with pytest.raises(OutOfRangeError, match="^regression grid must be real numbers: "):
            RegressionTask(("a",))
        with pytest.raises(OutOfRangeError, match="^classification labels must be hashable: "):
            ClassificationTask(([0], [1]))
        with pytest.raises(OutOfRangeError, match="^table values must be real numbers: "):
            PlausibilityTable(("a",), ("x",))
        with pytest.raises(OutOfRangeError, match="^candidate labels must be hashable: "):
            PlausibilityTable(([0],), (1.0,))
        # numbers float() reads keep their path
        assert RegressionTask(("1.5", np.float32(2.0))).grid == (1.5, 2.0)
        assert PlausibilityTable((0, 1), ("0.5", np.float64(2.0))).values == (0.5, 2.0)

    def test_subset_copies_rows_read_only_without_revalidating(self, monkeypatch):
        ds = Dataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 1, 0, 1]), TASK01)
        checks = []
        post_init = Dataset.__post_init__
        monkeypatch.setattr(
            Dataset, "__post_init__", lambda self: checks.append(1) or post_init(self)
        )
        sub = ds.subset([3, 1]).subset([1])
        assert checks == []
        assert sub.X.tolist() == [[2.0, 3.0]] and sub.y.tolist() == [1]
        assert not np.shares_memory(sub.X, ds.X) and not np.shares_memory(sub.y, ds.y)
        with pytest.raises(ValueError):
            sub.X[0, 0] = 9.0
        with pytest.raises(ValueError):
            sub.y[0] = 0

    def test_first_label_outside_the_task_is_named(self):
        for y, task, bad in (
            (np.array([0, 1, 5, 7]), TASK01, "5"),
            (np.array(["a", "c", "b", "d"]), ClassificationTask(("a", "b")), "'c'"),
            (np.array([0.0, 1.0, 0.5, 2.5]), TASK01, "0.5"),
        ):
            with pytest.raises(LabelOutOfSpaceError, match=rf"^label {bad} not in task labels$"):
                Dataset(np.zeros((4, 1)), y, task)
        floats = Dataset(np.zeros((2, 1)), np.array([1.0, 0.0]), TASK01)
        assert floats.label_codes[1].tolist() == [1, 0]

    def test_from_observations_round_trip(self):
        task = ClassificationTask(("x", "y"))
        obs = [Observation((0.0, 1.0), "x"), Observation((2.0, 3.0), "y")]
        ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array(["x", "y"]), task)
        assert list(ds.observations()) == obs


def _positions_by_label(y) -> dict:
    """label -> positions of y holding it: the grouping reference."""
    groups: dict = {}
    for i, label in enumerate(y.tolist()):
        groups.setdefault(label, []).append(i)
    return groups


def _groups(data) -> dict:
    """label -> positions, read off the dataset's label numbers."""
    labels, codes = data.label_codes
    groups: dict = {}
    for i, code in enumerate(codes.tolist()):
        groups.setdefault(labels[code], []).append(i)
    return groups


#: (task, label values the rows draw from) per label kind.
_LABEL_KINDS = {
    "ints": (ClassificationTask((0, 1, 2)), (0, 1, 2)),
    "strings": (ClassificationTask(("a", "b", "c")), ("a", "b", "c")),
    "grid": (RegressionTask((0.0, 1.0)), (-0.0, 0.0, 0.5, 1.0, 2.5)),
}


class TestLabelCodes:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_LABEL_KINDS)),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=30),
        chain=st.lists(st.lists(st.integers(0, 29), min_size=1, max_size=30), max_size=3),
    )
    def test_subset_chains_group_rows_as_revalidating_them(self, kind, picks, chain):
        task, values = _LABEL_KINDS[kind]
        y = np.array([values[p % len(values)] for p in picks])
        data = Dataset(np.arange(len(y), dtype=float)[:, None], y, task)
        parts = [data]
        for indices in chain:
            parts.append(parts[-1].subset([i % parts[-1].n for i in indices]))
        for part in parts:
            labels, codes = part.label_codes
            assert codes.dtype == np.intp and not codes.flags.writeable
            if isinstance(task, ClassificationTask):
                assert labels == task.labels
            again = Dataset(part.X, part.y, task)
            assert _groups(part) == _groups(again) == _positions_by_label(part.y)


class TestPlausibilityTable:
    def test_lookup(self):
        table = PlausibilityTable(("a", "b"), (0.5, 1.25))
        assert table["b"] == 1.25
        with pytest.raises(KeyError):
            table["c"]

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            PlausibilityTable(("a", "a"), (0.5, 0.5))
        with pytest.raises(NegativeEntryError):
            PlausibilityTable(("a",), (-1.0,))
        with pytest.raises(OutOfRangeError):
            PlausibilityTable(("a",), (0.5, 0.5))
        with pytest.raises(NonFiniteEntryError, match="table values must be finite"):
            PlausibilityTable(("a", "b"), (0.5, float("nan")))


class TestSeeding:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
        seen = {derive_seed(9, t, part) for t in range(200) for part in range(3)}
        assert len(seen) == 600
        assert all(0 <= s < 2**63 for s in seen)

    def test_spawn_rng_keyed(self):
        a = spawn_rng(5, 2).standard_normal(4)
        b = spawn_rng(5, 2).standard_normal(4)
        c = spawn_rng(5, 3).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        with pytest.raises(OutOfRangeError):
            spawn_rng(-1)

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**70 + 9])
    def test_streams_are_the_plain_numpy_seeding(self, seed):
        # the seeding each caller did by hand before every seed went
        # through core._seed_sequence, rebuilt here
        ss = np.random.SeedSequence
        assert derive_seed(seed) == int(ss((seed,)).generate_state(1, np.uint64)[0] >> 1)
        expected = np.random.default_rng(ss((seed,))).standard_normal(8)
        assert np.array_equal(spawn_rng(seed).standard_normal(8), expected)
        for n, K in ((50, 5), (1383, 5), (7, 3)):
            perm = np.random.default_rng(seed).permutation(n)
            base, extra = divmod(n, K)
            bounds = [k * base + min(k, extra) for k in range(K + 1)]
            folds = make_fold_partition(n, K, seed).folds
            assert [fold.tolist() for fold in folds] == [
                perm[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])
            ]
        for name in ("gm2d", "linreg3"):
            scenario = get_scenario(name)
            first, second = (np.random.default_rng(s) for s in ss(seed).spawn(2))
            X = second.standard_normal((51, scenario.dim))
            if scenario.kind == "gaussian_mixture":
                y = first.integers(scenario.classes, size=51)
                X += scenario.class_means()[y]
            else:
                y = np.array([scenario.weights() @ row for row in X])
                y += scenario.noise_sd * first.standard_normal(51)
            drawn = sample(scenario, 51, seed)
            assert np.array_equal(drawn.X, X) and np.array_equal(drawn.y, y)

    # master seeds of one, two and three or more key words
    SEEDS = st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),
        st.integers(2**64, 2**130),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        start=st.one_of(st.just(0), st.integers(0, 10**6), st.integers(2**32 - 8, 2**32 + 8)),
        count=st.integers(1, 12),
        tag=st.sampled_from([0, 2]),
    )
    @example(seed=2**32 + 5, start=0, count=3, tag=0)
    @example(seed=2**64 + 1, start=7, count=3, tag=2)
    def test_derive_seeds_is_derive_seed(self, seed, start, count, tag):
        # trial indices from 2**32 on have two key words
        ts = range(start, start + count)
        seeds = core._derive_seeds(seed, ts, tag)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(seed, t, tag) for t in ts]

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
            min_size=1, max_size=6,
        ),
        child=st.sampled_from([None, 0, 1]),
    )
    # derived seeds below 2**32 have one word: the same pools as two
    @example(seeds=[0, 5, 2**32 - 1, 2**32, 2**40 + 3], child=None)
    @example(seeds=[0, 5, 2**32 - 1, 2**32, 2**40 + 3], child=0)
    @example(seeds=[0, 5, 2**32 - 1, 2**32, 2**40 + 3], child=1)
    def test_pcg64_states_are_numpys(self, seeds, child):
        # the state of default_rng(SeedSequence(seed)), or of a child that
        # spawn gives, as `sample` and `make_fold_partition` seed them; a
        # reused generator set to it draws as a new one does
        states = core._pcg64_states(np.array(seeds, dtype=np.uint64), child)
        rng = np.random.default_rng(0)
        for seed, state in zip(seeds, states):
            sequence = np.random.SeedSequence(seed)
            if child is not None:
                sequence = sequence.spawn(2)[child]
            expected = np.random.default_rng(sequence)
            assert state == (
                expected.bit_generator.state["state"]["state"],
                expected.bit_generator.state["state"]["inc"],
            )
            assert core._reseeded(rng, state).bit_generator.state == expected.bit_generator.state
            assert rng.standard_normal(3).tobytes() == expected.standard_normal(3).tobytes()

    def test_make_fold_partition_runs_the_public_checks(self, monkeypatch):
        checked = []
        post_init = FoldPartition.__post_init__

        def spy(partition):
            checked.append(partition)
            post_init(partition)

        monkeypatch.setattr(FoldPartition, "__post_init__", spy)
        part = make_fold_partition(10, 3, 4)
        assert checked == [part] and checked[0] is part


_GM2D = get_scenario("gm2d")
_TRAINING = sample(_GM2D, 30, 1)
_CROSS = PredictorSpec(kind="cross", rule="knn")


# One call per malformed argument, and the name its error must start with.
# Each value is refused by operator.index (counts, seeds), by float()
# (reals) or as an unknown kind, and every refusal is a ConfeeError that
# names the argument.
MALFORMED = [
    ("seed parts", lambda: derive_seed(1.5)),
    ("seed parts", lambda: derive_seed("3")),
    ("seed parts", lambda: derive_seed(None)),
    ("seed parts", lambda: spawn_rng(2, 1.5)),
    ("seed parts", lambda: sample(_GM2D, 5, 1.5)),
    ("seed parts", lambda: make_fold_partition(10, 2, 1.5)),
    ("trace e-values", lambda: OnlineTrace(("a",))),
    ("epsilon", lambda: e_prediction_set(PlausibilityTable((0, 1), (0.5, 1.5)), "a")),
    ("epsilons", lambda: compare_e_vs_p(_GM2D, _CROSS, 100, 0, epsilons=("a",))),
    ("grid", lambda: Scenario("linear_regression", grid=("a",))),
    ("w", lambda: unit_margin_provider(("a",))),
    ("b", lambda: unit_margin_provider((1.0,), "a")),
    ("k", lambda: KnnRule(_TRAINING, 1.5)),
    ("calibration_size", lambda: fit_split(_TRAINING, 2.5)),
    ("K", lambda: fit_cross(_TRAINING, 5.0, 1)),
    ("n", lambda: make_fold_partition(10.0, 2, 1)),
    ("n", lambda: sample(_GM2D, 2.5, 1)),
    ("trials", lambda: mc_space_validity(_GM2D, _CROSS, 100.5, 0)),
    ("n_train", lambda: mc_space_validity(_GM2D, _CROSS, 100, 0, n_train=20.5)),
    ("threads", lambda: mc_space_validity(_GM2D, _CROSS, 100, 0, threads=1.5)),
    ("n_rounds", lambda: online_time_validity(_GM2D, _CROSS, 60.5, 0)),
    ("warmup", lambda: online_time_validity(_GM2D, _CROSS, 60, 0, warmup=20.5)),
    ("tolerance", lambda: online_time_validity(_GM2D, _CROSS, 60, 0, tolerance="a")),
    ("classes", lambda: Scenario("gaussian_mixture", classes=2.0)),
    ("dim", lambda: Scenario("gaussian_mixture", dim=np.float64(2))),
    ("seed", lambda: Scenario("gaussian_mixture", seed="0")),
    ("separation", lambda: Scenario("gaussian_mixture", separation="a")),
    ("noise_sd", lambda: Scenario("linear_regression", noise_sd="a", grid=(0.0, 1.0))),
    ("lam", lambda: RidgeRule(_TRAINING, lam="a")),
    ("const_value", lambda: PredictorSpec(kind="const", const_value="a")),
    ("support indices", lambda: SupportSet((1.5,), 3)),
    ("m", lambda: SupportSet((1,), 3.0)),
]


@pytest.mark.parametrize("name, call", MALFORMED)
def test_malformed_argument_is_named(name, call):
    with pytest.raises(ConfeeError, match=f"^{name} must be "):
        call()


# The same check for a spec or partition, which refuses a malformed field
# when it is built. A list of its own keeps the names of the cases above.
MALFORMED_FIELDS = [
    ("rule", lambda: PredictorSpec(k=1.5, folds=5.0, rule="nope")),
    ("k", lambda: PredictorSpec(k=1.5)),
    ("folds", lambda: PredictorSpec(folds=5.0)),
    ("calibration_size", lambda: PredictorSpec(calibration_size=2.5)),
    ("normalizer", lambda: PredictorSpec(normalizer="bogus", weighting="bogus")),
    ("weighting", lambda: PredictorSpec(weighting="bogus")),
    ("lam", lambda: PredictorSpec(lam="a")),
    ("margin_b", lambda: PredictorSpec(kind="full", margin_b="a")),
    ("seed", lambda: FoldPartition(((0, 2), (1, 3)), 4, "x")),
    ("n", lambda: FoldPartition(((0,), (1,)), 2.5, 0)),
]


@pytest.mark.parametrize("name, call", MALFORMED_FIELDS)
def test_malformed_field_is_named(name, call):
    with pytest.raises(ConfeeError, match=f"^{name} must be "):
        call()


def test_integer_counts_keep_their_numbers():
    # numpy integers pass wherever Python ints do, with the same results
    for n, K, seed in ((50, 5, 3), (np.int64(50), np.int32(5), np.uint64(3))):
        part = make_fold_partition(n, K, seed)
        assert part == make_fold_partition(50, 5, 3)
        assert np.array_equal(sample(_GM2D, n, seed).X, sample(_GM2D, 50, 3).X)
    assert KnnRule(_TRAINING, np.int64(3)).k == 3
    spec = PredictorSpec(k=np.int64(3), folds=np.int32(5), calibration_size=np.uint8(10),
                         lam=np.float32(2.0), margin_b=0)
    assert spec == PredictorSpec(lam=2.0) and type(spec.folds) is int
    assert type(spec.lam) is float and type(spec.margin_b) is float
    part = FoldPartition(((0, 2), (1, 3)), np.int64(4), np.uint64(3))
    assert (type(part.n), type(part.seed)) == (int, int) and part.seed == 3
    three = Scenario("gaussian_mixture", classes=np.int8(3))
    assert three == Scenario("gaussian_mixture", classes=3) and three.task.labels == (0, 1, 2)
