import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import (
    AverageExceedsOneError,
    ClassificationTask,
    Dataset,
    EValueVector,
    EmptyDatasetError,
    FoldPartition,
    LabelOutOfSpaceError,
    NegativeEntryError,
    NonFiniteEntryError,
    Observation,
    OutOfRangeError,
    PlausibilityTable,
    RegressionTask,
    SummaryVector,
    TooFewFoldsError,
    TooFewObservationsError,
    derive_seed,
    make_fold_partition,
    spawn_rng,
)

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
        with pytest.raises(OutOfRangeError, match=r"expected a flat sequence, got shape \(1, 2\)"):
            SummaryVector([[1.0, 2.0]])


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
