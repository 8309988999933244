import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import (
    ClassificationTask,
    Dataset,
    DimensionMismatchError,
    EmptyProperSetError,
    EmptySupportSetError,
    EPSILON_FLOOR,
    KTooLargeError,
    Observation,
    OutOfRangeError,
    RegressionTask,
    SingularSystemError,
    SupportSet,
    support_set_assignment,
    support_set_e_values,
    KnnRule,
    fit_split,
    train_conformity,
    unit_margin_provider,
)
from confee import conformity
from confee.conformity import (
    NeighbourTable,
    _knn_summaries,
    _pairwise_distances,
)
from conftest import _reference_distance, _reference_knn

TASK01 = ClassificationTask((0, 1))


def _score(rule, x, y) -> float:
    """One candidate's summary against every training row (a fit with no folds)."""
    return float(rule.score_folds(x, [y])[0, 0])


def _random_classification(rng, n=12, d=3):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 3, n)
    return Dataset(X, y, ClassificationTask((0, 1, 2)))


def _random_regression(rng, n=12, d=3):
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return Dataset(X, y, RegressionTask((-3.0, 0.0, 3.0)))


class TestKnn:
    def test_hand_oracle(self):
        proper = Dataset(np.array([[0.0], [2.0], [5.0]]), np.array([0, 0, 1]), TASK01)
        rule = train_conformity("knn", proper, k=1)
        assert _score(rule, (1.0,), 0) == 1.0 / (1.0 + 1.0)
        rule2 = train_conformity("knn", proper, k=2)
        assert _score(rule2, (1.0,), 0) == 1.0 / (1.0 + (1.0 + 1.0) / 2.0)

    def test_missing_label_gets_floor(self):
        proper = Dataset(np.array([[0.0]]), np.array([0]), TASK01)
        rule = train_conformity("knn", proper, k=1)
        assert _score(rule, (0.0,), 1) == EPSILON_FLOOR

    def test_fewer_neighbours_than_k(self):
        proper = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), TASK01)
        rule = train_conformity("knn", proper, k=2)
        # only one point of label 0 exists; mean runs over that one
        assert _score(rule, (3.0,), 0) == 1.0 / (1.0 + 3.0)

    def test_score_decays_with_distance(self):
        rng = np.random.default_rng(81)
        proper = Dataset(
            rng.standard_normal((20, 2)), np.zeros(20, dtype=int), ClassificationTask((0,))
        )
        rule = train_conformity("knn", proper, k=3)
        for _ in range(50):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            radii = (6.0, 9.0, 14.0, 30.0)  # beyond every proper point
            scores = [_score(rule, tuple(r * u), 0) for r in radii]
            assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_preconditions(self):
        proper = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), TASK01)
        with pytest.raises(KTooLargeError):
            train_conformity("knn", proper, k=4)
        with pytest.raises(OutOfRangeError):
            train_conformity("knn", proper, k=0)
        rule = train_conformity("knn", proper, k=1)
        with pytest.raises(DimensionMismatchError):
            _score(rule, (0.0, 0.0), 0)


def _kernel_inputs(a, b, d, seed, spread):
    """Rows with mixed column scales; the first min(a, b) // 2 pairs coincide."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-spread, spread, d)
    A = rng.standard_normal((a, d)) * scale
    B = rng.standard_normal((b, d)) * scale + rng.integers(-2, 3) * scale
    B[: min(a, b) // 2] = A[: min(a, b) // 2]  # some zero distances
    return A, B


class TestDistanceKernel:
    """The column-by-column kernel against a scalar left fold, and against
    the difference-tensor formula below 8 columns."""

    @settings(max_examples=200, deadline=None)
    @example(a=3, b=5, d=1, seed=1, spread=4.0)
    @example(a=3, b=5, d=8, seed=8, spread=4.0)
    @example(a=3, b=5, d=300, seed=300, spread=4.0)
    @given(
        a=st.integers(1, 9),
        b=st.integers(1, 9),
        d=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 6.0),
    )
    def test_matches_scalar_left_fold_exactly(self, a, b, d, seed, spread):
        A, B = _kernel_inputs(a, b, d, seed, spread)
        expected = [[_reference_distance(u, v) for v in B] for u in A]
        assert _pairwise_distances(A, B).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(1, 9),
        b=st.integers(1, 9),
        d=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 6.0),
    )
    def test_matches_tensor_reference_exactly(self, a, b, d, seed, spread):
        # numpy adds fewer than 8 terms left to right too, so the kernel
        # still gives the tensor formula's distances where the golden
        # reports take any (2 features)
        A, B = _kernel_inputs(a, b, d, seed, spread)
        diff = A[:, None, :] - B[None, :, :]
        assert np.array_equal(_pairwise_distances(A, B), np.sqrt((diff * diff).sum(axis=2)))


def _labelled_rows(rng, n, d, labels, present):
    """n rows whose labels come from labels[present], drawn from a pool of
    about n/3 points, so points repeat."""
    pool = rng.standard_normal((max(1, n // 3), d))
    return pool[rng.integers(0, len(pool), n)], [labels[i] for i in rng.choice(present, n)]


class TestKnnDifferential:
    """The one knn path, with no fold and with one split fold, against the
    scalar full-sort reference."""

    @settings(max_examples=150, deadline=None)
    @example(  # a label with no proper row, one with fewer than k
        string_labels=False, n_labels=3, n_proper=4, c=3, d=1, k=3, seed=7, array_labels=True
    )
    @given(
        string_labels=st.booleans(),
        n_labels=st.integers(1, 4),
        n_proper=st.integers(1, 40),
        c=st.integers(1, 12),
        d=st.integers(1, 4),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        array_labels=st.booleans(),
    )
    def test_matches_full_sort_reference(
        self, string_labels, n_labels, n_proper, c, d, k, seed, array_labels
    ):
        rng = np.random.default_rng(seed)
        labels = tuple("abcd"[:n_labels]) if string_labels else tuple(range(n_labels))
        task = ClassificationTask(labels)
        # proper labels come from a random subset of the task's labels, so
        # some labels have no proper point and others fewer than k; the
        # calibration rows may carry any label
        present = rng.choice(n_labels, size=int(rng.integers(1, n_labels + 1)), replace=False)
        proper_X, proper_y = _labelled_rows(rng, n_proper, d, labels, present)
        cal_X, cal_y = _labelled_rows(rng, c, d, labels, np.arange(n_labels))
        repeats = min(c // 2, n_proper)
        cal_X[:repeats] = proper_X[:repeats]  # calibration points that repeat proper ones
        proper = Dataset(proper_X, np.array(proper_y), task)
        training = Dataset(np.vstack([proper_X, cal_X]), np.array(proper_y + cal_y), task)
        k = min(k, n_proper)
        queries = np.vstack([proper_X[:3], rng.standard_normal((3, d))])
        candidates = np.array(labels) if array_labels else labels

        def reference(x):
            return [_reference_knn(proper, k, x, y) for y in labels]

        rule = train_conformity("knn", proper, k=k)
        assert rule.K == 1 and np.isnan(rule.held_out).all()
        for x in queries:
            assert rule.score_folds(x, candidates).tolist() == [reference(x)]

        split = fit_split(training, c, "knn", k=k)
        expected = [_reference_knn(proper, k, x, y) for x, y in zip(cal_X, cal_y)]
        assert split.calibration_summaries[0].values == tuple(expected)
        for x in queries:
            assert split.predict(x, candidates).sigmas.tolist() == [reference(x)]


def _fold_query_reference(rule, training, x, labels):
    """Fold f's summary of each candidate from the label's training rows
    outside f alone, as if they were concatenated: one distance row and one
    _knn_summaries call per (fold, label)."""
    out = np.empty((rule.K, len(labels)))
    for f in range(rule.K):
        for j, label in enumerate(labels):
            others = training.X[(rule.fold_of != f) & (training.y == label)]
            out[f, j] = _knn_summaries(_pairwise_distances(x[None, :], others), rule.k)[0]
    return out


class TestKnnQueryFolds:
    """A knn query selects every fold from one masked distance row per
    label, with one call per group of folds that keep the same number of
    the label's rows; bit for bit the per-fold selection."""

    @settings(max_examples=300, deadline=None)
    @example(n=9, d=2, K=2, k=1, n_labels=1, split=False, far=True, seed=0)
    @example(n=12, d=1, K=3, k=5, n_labels=2, split=True, far=False, seed=1)
    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 3),
        K=st.integers(2, 8),
        k=st.integers(1, 12),
        n_labels=st.integers(1, 4),
        split=st.booleans(),
        far=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_fold_selection(self, n, d, K, k, n_labels, split, far, seed):
        rng = np.random.default_rng(seed)
        K = min(K, n)  # a fold number names a row at most
        labels = tuple(range(n_labels))
        # uneven label shares, so some labels are rarer than k and some
        # fold holds every row of a label; rounded points repeat
        y = rng.choice(n_labels, n, p=rng.dirichlet(np.full(n_labels, 0.5)))
        X = np.round(rng.standard_normal((n, d)), 1)
        # split: rows in no fold are proper for every fold
        fold_of = rng.integers(-1 if split else 0, K, n)
        fold_of[:2] = (0, 1)
        if far:  # two identical label-0 rows whose distances to the rest overflow
            X[:2], y[:2] = 1e200, 0
        training = Dataset(X, y, ClassificationTask(labels))
        k = min(k, n - np.bincount(fold_of + 1).max())
        rule = train_conformity("knn", training, fold_of=fold_of, k=k)
        candidates = tuple(rng.permutation(labels).tolist())
        for x in (*X[:3], *rng.standard_normal((2, d))):
            expected = _fold_query_reference(rule, training, x, candidates)
            assert rule.score_folds(x, candidates).tolist() == expected.tolist()


def _held_out_reference(training, fold_of, k):
    """Every fold row's summary from its label's rows outside its fold,
    concatenated: one distance call per (fold, label)."""
    out = np.full(training.n, np.nan)
    for f in range(int(fold_of.max()) + 1):
        for label in set(training.y.tolist()):
            rows = (fold_of == f) & (training.y == label)
            others = training.X[(fold_of != f) & (training.y == label)]
            out[rows] = _knn_summaries(_pairwise_distances(training.X[rows], others), k)
    return out


def _fit_watching_masked_blocks(training, k, fold_of):
    """(KnnRule(training, k, fold_of), the row count of every label block
    the fit took from one masked matrix, in label order)."""
    masked = []
    masked_held_out = KnnRule._masked_held_out

    def watched(rule, cuts, out):
        masked.append(cuts[-1] - cuts[0])
        masked_held_out(rule, cuts, out)

    with mock.patch.object(KnnRule, "_masked_held_out", watched):
        return KnnRule(training, k, fold_of), masked


class TestKnnFitFolds:
    """A knn fit scores a label block of at most MASKED_BLOCK rows from one
    masked distance matrix, with one call per group of folds that keep the
    same number of the label's rows, and a larger block with one call per
    fold; bit for bit the per-fold selection either way."""

    @settings(max_examples=300, deadline=None)
    @example(n=9, d=2, K=2, k=1, n_labels=1, split=False, far=True, boundary=None, seed=0)
    @example(n=12, d=1, K=3, k=5, n_labels=2, split=True, far=False, boundary=None, seed=1)
    @example(n=20, d=2, K=5, k=3, n_labels=2, split=False, far=False, boundary=0, seed=2)
    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 3),
        K=st.integers(2, 8),
        k=st.integers(1, 12),
        n_labels=st.integers(1, 4),
        split=st.booleans(),
        far=st.booleans(),
        boundary=st.sampled_from([None, -1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_fold_selection(
        self, n, d, K, k, n_labels, split, far, boundary, seed
    ):
        rng = np.random.default_rng(seed)
        K = min(K, n)  # a fold number names a row at most
        # uneven label shares, so some labels are rarer than k and some
        # fold holds every row of a label; rounded points repeat
        y = rng.choice(n_labels, n, p=rng.dirichlet(np.full(n_labels, 0.5)))
        if boundary is not None:  # one more label, of MASKED_BLOCK + boundary rows
            y = np.concatenate([y, np.full(conformity.MASKED_BLOCK + boundary, n_labels)])
            n_labels += 1
        n = y.size
        X = np.round(rng.standard_normal((n, d)), 1)
        # split: rows in no fold are proper for every fold
        fold_of = rng.integers(-1 if split else 0, K, n)
        fold_of[:2] = (0, 1)
        if far:  # two identical label-0 rows whose distances to the rest overflow
            X[:2], y[:2] = 1e200, 0
        training = Dataset(X, y, ClassificationTask(tuple(range(n_labels))))
        k = min(k, n - np.bincount(fold_of + 1).max())
        rule, masked = _fit_watching_masked_blocks(training, k, fold_of)
        expected = _held_out_reference(training, fold_of, k)
        assert rule.held_out.tobytes() == expected.tobytes()
        # the fit is the query's diagonal: a fold row, queried at its own
        # label, gets its held-out summary from its own fold
        for i in np.flatnonzero(fold_of >= 0).tolist():
            diagonal = rule.score_folds(X[i], [y[i]])[fold_of[i], 0]
            assert diagonal.tobytes() == rule.held_out[i].tobytes(), i
        # far rows change no path: their overflowing distances are inf
        blocks = np.bincount(y).tolist()
        assert masked == [b for b in blocks if 0 < b <= conformity.MASKED_BLOCK]

    def test_a_large_block_with_an_empty_fold(self):
        # label 1 holds MASKED_BLOCK + 1 rows, none of them in fold 0, so
        # its block goes fold by fold and fold 0's slice of it is empty
        rng = np.random.default_rng(8)
        m = conformity.MASKED_BLOCK + 1
        y = np.repeat([0, 1], [6, m])
        fold_of = np.concatenate([[0, 0, 1, 1, 2, 2], rng.integers(1, 3, m)])
        training = Dataset(rng.standard_normal((y.size, 2)), y, TASK01)
        rule, masked = _fit_watching_masked_blocks(training, 3, fold_of)
        assert masked == [6]
        expected = _held_out_reference(training, fold_of, 3)
        assert rule.held_out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "X, y, fold_of, expected",
        [
            # label 0's rows all sit in fold 0, so every kk of its block is 0
            (
                [[0.0], [1.0], [1e200], [0.0], [2.0]],
                [0, 0, 0, 1, 1],
                [0, 0, 0, 0, 1],
                [EPSILON_FLOOR] * 3 + [1.0 / 3.0] * 2,
            ),
            # of label 0's pairs only (1e154, -1e154) overflows, and those
            # two rows share fold 0
            (
                [[1e154], [-1e154], [0.0], [0.0]],
                [0, 0, 0, 0],
                [0, 0, 1, 1],
                [1.0 / (1.0 + 1e154)] * 4,
            ),
        ],
        ids=["one-fold-label", "inside-a-fold"],
    )
    def test_pairs_inside_a_fold_warn_of_nothing(self, X, y, fold_of, expected):
        training = Dataset(X, y, TASK01)
        fold_of = np.array(fold_of)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = KnnRule(training, 1, fold_of)
            reference = _held_out_reference(training, fold_of, 1)
        assert rule.held_out.tolist() == expected
        assert rule.held_out.tobytes() == reference.tobytes()


def _table_rounds(stream, table, k, folds, split, rng):
    """Every prefix of the stream that a knn rule with k neighbours can be
    fitted on, with a fold vector drawn for it: yields (p, fold_of, the
    rule fitted with the table, the rule refitted without it)."""
    for p in range(2, stream.n + 1):
        prefix = stream.subset(range(p))
        if split:  # a split spec: the last c rows calibrate, the rest are in no fold
            c = int(rng.integers(1, p))
            fold_of = np.repeat([-1, 0], [p - c, c])
        else:
            fold_of = rng.integers(0, min(folds, p), p)
            fold_of[:2] = (0, 1)  # no fold holds every row
        kk = min(k, p - np.bincount(fold_of + 1)[1:].max())
        if kk < 1:
            continue
        yield p, fold_of, KnnRule(prefix, kk, fold_of, table=table), KnnRule(prefix, kk, fold_of)


class TestNeighbourTable:
    """A fit on a prefix of a stream takes its held-out summaries from the
    stream's neighbour table, round by round bit for bit the summaries of
    a refit, whichever of the walk's passes or the exact kernel gives them."""

    @settings(max_examples=120, deadline=None)
    @example(n=30, d=2, folds=5, k=3, n_labels=2, width=64, split=False, grid=0.0, seed=0)
    @example(n=40, d=1, folds=3, k=12, n_labels=1, width=64, split=False, grid=0.0, seed=1)
    @example(n=25, d=2, folds=4, k=3, n_labels=3, width=1, split=False, grid=0.5, seed=2)
    @example(n=30, d=2, folds=2, k=2, n_labels=2, width=2, split=True, grid=0.5, seed=3)
    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 3),
        folds=st.integers(2, 8),
        k=st.integers(1, 12),
        n_labels=st.integers(1, 4),
        width=st.sampled_from([1, 2, 3, 5, 16, 64]),
        split=st.booleans(),
        grid=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_refit_every_round(
        self, n, d, folds, k, n_labels, width, split, grid, seed
    ):
        rng = np.random.default_rng(seed)
        labels = tuple(range(n_labels))
        # uneven label shares: some labels hold fewer than k rows; on a
        # grid, points repeat and distances tie
        y = rng.choice(n_labels, n, p=rng.dirichlet(np.full(n_labels, 0.5)))
        X = rng.standard_normal((n, d))
        if grid:
            X = np.round(X / grid) * grid
        stream = Dataset(X, y, ClassificationTask(labels))
        with mock.patch.object(conformity, "TABLE_WIDTH", width):
            table = NeighbourTable(stream)
        for p, fold_of, walked, refit in _table_rounds(stream, table, k, folds, split, rng):
            assert walked.held_out.tobytes() == refit.held_out.tobytes(), p
            # the walk is the query's diagonal too
            for i in np.flatnonzero(fold_of >= 0).tolist():
                diagonal = walked.score_folds(X[i], [y[i]])[fold_of[i], 0]
                assert diagonal.tobytes() == walked.held_out[i].tobytes(), (p, i)
            if p < n:  # the next row, at its true label
                z = stream.observation(p)
                assert walked.score_folds(z.x, [z.y]).tobytes() == refit.score_folds(
                    z.x, [z.y]
                ).tobytes()

    def test_regression_stream_is_floored(self):
        # every label holds one row, so no row has a same-label neighbour
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((40, 2)), rng.standard_normal(40)
        stream = Dataset(X, y, RegressionTask((0.0,)))
        table = NeighbourTable(stream)
        for split in (False, True):
            for p, fold_of, walked, refit in _table_rounds(stream, table, 3, 5, split, rng):
                assert walked.held_out.tobytes() == refit.held_out.tobytes()
                assert (walked.held_out[fold_of >= 0] == EPSILON_FLOOR).all()

    def test_walks_that_run_out_take_the_exact_kernel(self, monkeypatch):
        calls = []
        stacked_summaries = conformity._stacked_summaries

        def counted(*args):
            calls.append(args[3].shape[1])
            return stacked_summaries(*args)

        rng = np.random.default_rng(7)
        stream = Dataset(rng.standard_normal((80, 2)), rng.integers(0, 2, 80), TASK01)
        wide = NeighbourTable(stream)
        monkeypatch.setattr(conformity, "TABLE_WIDTH", 2)
        narrow = NeighbourTable(stream)
        fold_of = np.arange(79) % 5
        prefix = stream.subset(range(79))
        monkeypatch.setattr(conformity, "_stacked_summaries", counted)
        held_out = KnnRule(prefix, 3, fold_of, table=narrow).held_out
        assert len(calls) >= 1
        calls.clear()
        assert KnnRule(prefix, 3, fold_of, table=wide).held_out.tobytes() == held_out.tobytes()
        assert calls == []
        assert KnnRule(prefix, 3, fold_of).held_out.tobytes() == held_out.tobytes()

    def test_training_must_be_a_prefix_of_the_stream(self):
        rng = np.random.default_rng(3)
        stream = Dataset(rng.standard_normal((20, 2)), rng.integers(0, 2, 20), TASK01)
        table = NeighbourTable(stream)
        fold_of = np.arange(10) % 2
        with pytest.raises(OutOfRangeError, match="not a prefix of the table's stream"):
            KnnRule(stream.subset(range(1, 11)), 1, fold_of, table=table)


class TestRidgeQueryFolds:
    """A ridge query predicts x.beta_f once per fold and broadcasts it over
    the candidates; bit for bit the per-candidate row of an (L, d) batch."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 40),
        d=st.integers(1, 12),
        K=st.integers(1, 5),
        L=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_tiled_batch(self, n, d, K, L, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
        training = Dataset(X, rng.standard_normal(n) * 5.0, RegressionTask((0.0, 1.0)))
        K = min(K, n - 1)
        fold_of = rng.integers(-1, K, n)
        fold_of[:2] = (-1, K - 1)
        rule = train_conformity("ridge", training, fold_of=fold_of, lam=0.5)
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3, d)
        labels = rng.standard_normal(L) * 10.0
        tiled = np.tile(x, (L, 1))
        expected = [
            (1.0 / (1.0 + np.abs(labels - (tiled * beta).sum(axis=1)))).tolist()
            for beta in rule.betas
        ]
        assert rule.score_folds(x, labels.tolist()).tolist() == expected
        # the fit is the query's diagonal: a fold row, queried at its own
        # label, gets its held-out summary from its own fold
        for i in np.flatnonzero(fold_of >= 0).tolist():
            diagonal = rule.score_folds(X[i], [training.y[i]])[fold_of[i], 0]
            assert diagonal.tobytes() == rule.held_out[i].tobytes(), i


class TestRidge:
    def test_beta_oracle_with_penalty(self):
        # beta = sum(x*y) / (sum(x^2) + lam) = 28 / 15 for these points
        proper = Dataset(
            np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]),
            RegressionTask((0.0, 10.0)),
        )
        rule = train_conformity("ridge", proper, lam=1.0)
        assert abs(rule.betas[0][0] - 28.0 / 15.0) < 1e-12
        expected = 1.0 / (1.0 + abs(2.0 - 28.0 / 15.0))
        assert abs(_score(rule, (1.0,), 2.0) - expected) < 1e-15

    def test_unpenalized_interpolation(self):
        proper = Dataset(
            np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), RegressionTask((0.0, 3.0))
        )
        rule = train_conformity("ridge", proper, lam=0.0)
        assert rule.betas[0][0] == 1.0
        assert _score(rule, (3.0,), 3.0) == 1.0

    def test_singular_system_reported(self):
        dup = Dataset(
            np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            np.array([1.0, 2.0, 3.0]),
            RegressionTask((0.0, 5.0)),
        )
        with pytest.raises(SingularSystemError):
            train_conformity("ridge", dup, lam=0.0)
        train_conformity("ridge", dup, lam=1e-6)  # regularized is fine

    def test_solver_failure_reported(self, monkeypatch):
        def solve(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(SingularSystemError, match="Singular matrix"):
            train_conformity("ridge", _random_regression(np.random.default_rng(3)), lam=1.0)

    def test_classification_needs_pm_one(self):
        ok = Dataset(np.array([[0.0], [1.0]]), np.array([-1, 1]), ClassificationTask((-1, 1)))
        rule = train_conformity("ridge", ok, lam=1.0)
        assert _score(rule, (0.5,), 1) > 0
        bad = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), TASK01)
        with pytest.raises(OutOfRangeError):
            train_conformity("ridge", bad, lam=1.0)

    def test_negative_penalty_rejected(self):
        proper = Dataset(np.array([[1.0]]), np.array([1.0]), RegressionTask((0.0, 2.0)))
        with pytest.raises(OutOfRangeError):
            train_conformity("ridge", proper, lam=-0.5)

    def test_infinite_penalty_rejected(self):
        proper = Dataset(np.array([[1.0]]), np.array([1.0]), RegressionTask((0.0, 2.0)))
        with pytest.raises(OutOfRangeError, match="lam must be finite"):
            train_conformity("ridge", proper, lam=float("inf"))

    def test_candidate_labels_must_be_numbers(self):
        rule = train_conformity("ridge", _random_regression(np.random.default_rng(3)), lam=1.0)
        with pytest.raises(OutOfRangeError, match=r"ridge needs numeric labels, got \['a', 1.0\]"):
            rule.score_folds((0.0, 0.0, 0.0), ["a", 1.0])


class TestRidgeOverflow:
    """Finite input that makes the ridge arithmetic overflow is refused
    with an OutOfRangeError naming the input, and no numpy warning."""

    def test_huge_features(self):
        training = _random_regression(np.random.default_rng(3), n=20)
        huge = Dataset(training.X * 1e200, training.y, training.task)
        with pytest.raises(OutOfRangeError, match=r"^features or lam too large for ridge"):
            train_conformity("ridge", huge, fold_of=np.arange(20) % 5, lam=1.0)

    def test_huge_labels(self):
        training = _random_regression(np.random.default_rng(3), n=20)
        huge = Dataset(training.X * 1e10, training.y * 1e300, training.task)
        with pytest.raises(OutOfRangeError, match=r"^features or labels too large for ridge"):
            train_conformity("ridge", huge, lam=1.0)

    def test_huge_x(self):
        rule = train_conformity("ridge", _random_regression(np.random.default_rng(3)), lam=1.0)
        # each term of x.beta is finite, and their sum overflows
        x = np.copysign(1.7e308, rule.betas[0])
        with pytest.raises(OutOfRangeError, match=r"^x too large for ridge: x.beta overflows$"):
            rule.score_folds(x, [0.0, 1.0])

    def test_only_the_last_fold_overflows(self):
        # leaving out the last row (label 0) gives the largest beta, 7.5;
        # the other folds' are 5.0
        training = Dataset([[1.0]] * 4, [10.0, 10.0, 10.0, 0.0], RegressionTask((0.0,)))
        rule = train_conformity("ridge", training, fold_of=np.arange(4), lam=1.0)
        assert rule.betas.ravel().tolist() == [5.0, 5.0, 5.0, 7.5]
        x = (1.7e308 / 6.0,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                OutOfRangeError, match=r"^x too large for ridge: x.beta overflows$"
            ):
                rule.score_folds(x, [0.0, 1.0])
            # the first fold at fault names its cause: fold 0's residual
            # overflows before fold 3's x.beta does
            with pytest.raises(
                OutOfRangeError,
                match=r"^x or labels too large for ridge: y - x.beta overflows$",
            ):
                rule.score_folds(x, [-1e308])

    def test_beta_overflows(self):
        # X'X = 1.4e-319 and X'y = 1.4e-9 are finite; their quotient is not
        tiny = Dataset([[1e-160], [2e-160], [3e-160]], [1e150, 2e150, 3e150], RegressionTask((0.0,)))
        with pytest.raises(
            OutOfRangeError, match=r"^features or labels too large for ridge: beta overflows$"
        ):
            train_conformity("ridge", tiny, lam=0.0)

    def test_huge_held_out_residual(self):
        # fold 0 (the second row) calibrates against beta = 1.7e308 from the
        # first row; its residual -1.7e308 - 1.7e308 overflows
        training = Dataset([[1.0], [1.0]], [1.7e308, -1.7e308], RegressionTask((0.0,)))
        message = r"^features or labels too large for ridge: y - x.beta overflows$"
        with pytest.raises(OutOfRangeError, match=message):
            train_conformity("ridge", training, fold_of=np.array([-1, 0]), lam=0.0)

    def test_large_finite_input_keeps_its_summaries(self):
        training = _random_regression(np.random.default_rng(3), n=20)
        large = Dataset(training.X * 1e150, training.y, training.task)
        rule = train_conformity("ridge", large, fold_of=np.arange(20) % 5, lam=1.0)
        assert np.isfinite(rule.held_out).all()
        assert np.isfinite(rule.score_folds((1e150, 0.0, -1e150), [0.0])).all()


class TestDeterminism:
    def test_training_order_is_irrelevant_bitwise(self):
        rng = np.random.default_rng(4242)
        cls = _random_classification(rng)
        reg = _random_regression(rng)
        knn = train_conformity("knn", cls, k=3)
        ridge = train_conformity("ridge", reg, lam=0.7)
        query = tuple(rng.standard_normal(3))
        base_knn = [_score(knn, query, lab) for lab in (0, 1, 2)]
        base_ridge = _score(ridge, query, 1.0)
        for _ in range(200):
            perm = rng.permutation(cls.n)
            knn_p = train_conformity("knn", cls.subset(perm), k=3)
            assert [_score(knn_p, query, lab) for lab in (0, 1, 2)] == base_knn
            perm = rng.permutation(reg.n)
            ridge_p = train_conformity("ridge", reg.subset(perm), lam=0.7)
            assert _score(ridge_p, query, 1.0) == base_ridge

    def test_batch_equals_single_bitwise(self):
        # column j of a query is candidate j scored alone, in every fold
        rng = np.random.default_rng(99)
        cls = _random_classification(rng, n=15)
        reg = _random_regression(rng, n=15)
        fold_of = np.array([-1] * 6 + [0, 1, 2] * 3)
        for ds, kind, params, labels in (
            (cls, "knn", {"k": 3}, (0, 1, 2, 1)),
            (reg, "ridge", {"lam": 0.3}, (-3.0, 0.0, 3.0, 0.5)),
        ):
            for folds in (None, fold_of):
                rule = train_conformity(kind, ds, fold_of=folds, **params)
                for x in (*ds.X[:3], *rng.standard_normal((3, 3))):
                    batch = rule.score_folds(x, labels)
                    for j, label in enumerate(labels):
                        assert batch[:, j].tolist() == rule.score_folds(x, [label])[:, 0].tolist()

    def test_unknown_kind(self):
        ds = _random_classification(np.random.default_rng(1))
        with pytest.raises(OutOfRangeError):
            train_conformity("kde", ds)


class TestFoldOf:
    """The fold vector a rule is fitted with is checked where it comes in."""

    DATA = Dataset(np.arange(8.0)[:, None], np.array([0, 1] * 4), TASK01)

    @pytest.mark.parametrize("kind, params", [("knn", {"k": 1}), ("ridge", {"lam": 1.0})])
    @pytest.mark.parametrize(
        "fold_of",
        [
            [0, 1] * 3,  # too short
            np.zeros((8, 1), dtype=int),  # not one entry per row
            np.zeros(8),  # floats
            np.zeros(8, dtype=bool),
            [0, 1, 0, 1, 0, 1, 0, -2],  # below -1
            [0, 1, 0, 1, 0, 1, 0, 8],  # more folds than rows
        ],
    )
    def test_malformed_fold_of_is_named(self, kind, params, fold_of):
        data = self.DATA
        if kind == "ridge":
            data = Dataset(data.X, np.array([-1, 1] * 4), ClassificationTask((-1, 1)))
        with pytest.raises(OutOfRangeError, match="fold_of"):
            train_conformity(kind, data, fold_of=fold_of, **params)

    @pytest.mark.parametrize("kind, params", [("knn", {"k": 1}), ("ridge", {"lam": 1.0})])
    def test_fold_holding_every_row_has_no_proper_set(self, kind, params):
        reg = Dataset(self.DATA.X, np.arange(8.0), RegressionTask((0.0, 7.0)))
        for fold_of in ([0] * 8, [1] * 8):
            with pytest.raises(EmptyProperSetError, match="holds every training row"):
                train_conformity(kind, reg, fold_of=fold_of, **params)

    def test_rows_in_no_fold_are_proper_for_every_fold(self):
        rule = train_conformity("knn", self.DATA, fold_of=[-1, -1, 0, 0, 1, 1, 2, -1], k=1)
        assert rule.K == 3
        held = rule.held_out.tolist()
        assert [i for i, v in enumerate(held) if v != v] == [0, 1, 7]  # NaN: in no fold
        # row 2 (label 0, fold 0) against label 0's rows outside fold 0: 0, 4, 6
        assert held[2] == 1.0 / (1.0 + 2.0)
        # a query at row 6 meets it in folds 0 and 1; fold 2 holds row 6,
        # so there the nearest label 0 row is row 4
        assert rule.score_folds((6.0,), [0])[:, 0].tolist() == [1.0, 1.0, 1.0 / (1.0 + 2.0)]


class TestSupportSets:
    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            SupportSet((0, 0), 3)
        with pytest.raises(OutOfRangeError):
            SupportSet((3,), 3)
        with pytest.raises(OutOfRangeError):
            SupportSet((), 0)

    def test_assignment_formula(self):
        rng = np.random.default_rng(515)
        for _ in range(1000):
            m = int(rng.integers(1, 31))
            size = int(rng.integers(1, m + 1))
            members = tuple(sorted(rng.choice(m, size=size, replace=False)))
            vec = support_set_e_values(SupportSet(members, m))
            for i, v in enumerate(vec.values):
                expected = m / size if i in members else 0.0
                assert v == expected
            assert abs(vec.mean - 1.0) <= 1e-12

    def test_empty_support_set_raises(self):
        with pytest.raises(EmptySupportSetError):
            support_set_e_values(SupportSet((), 4))


class TestUnitMargin:
    OBS = (
        Observation((-2.0,), -1),
        Observation((-0.5,), -1),
        Observation((0.5,), 1),
        Observation((2.0,), 1),
    )

    def test_hand_oracle(self):
        provider = unit_margin_provider((1.0,), 0.0, positive_label=1)
        sv = provider(self.OBS)
        assert sv.indices == (1, 2)  # the two points inside the unit margin
        with_test = provider((*self.OBS, Observation((1.5,), -1)))
        assert with_test.indices == (1, 2, 4)  # wrong-side test point counts
        with_conforming = provider((*self.OBS, Observation((1.5,), 1)))
        assert with_conforming.indices == (1, 2)  # beyond the margin, not support

    def test_assignment_composition(self):
        assignment = support_set_assignment(unit_margin_provider((1.0,), 0.0, 1))
        vec = assignment((*self.OBS, Observation((1.5,), -1)))
        assert vec.values == (0.0, 5.0 / 3.0, 5.0 / 3.0, 0.0, 5.0 / 3.0)

    def test_dimension_check(self):
        provider = unit_margin_provider((1.0, 0.0), 0.0, 1)
        with pytest.raises(DimensionMismatchError):
            provider((Observation((1.0,), 1),))

    @pytest.mark.parametrize("w, b", [
        ((float("nan"),), 0.0), ((1.0, float("inf")), 0.0), ((1.0,), float("nan")),
        ((1.0,), float("-inf")),
    ])
    def test_non_finite_hyperplane_refused(self, w, b):
        with pytest.raises(OutOfRangeError, match="w must be a finite vector and b a finite scalar"):
            unit_margin_provider(w, b, 1)
