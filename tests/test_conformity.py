import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import (
    ClassificationTask,
    Dataset,
    DimensionMismatchError,
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
    train_conformity,
    unit_margin_provider,
)
from confee.conformity import _pairwise_distances

TASK01 = ClassificationTask((0, 1))


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
        assert rule.score_one((1.0,), 0) == 1.0 / (1.0 + 1.0)
        rule2 = train_conformity("knn", proper, k=2)
        assert rule2.score_one((1.0,), 0) == 1.0 / (1.0 + (1.0 + 1.0) / 2.0)

    def test_missing_label_gets_floor(self):
        proper = Dataset(np.array([[0.0]]), np.array([0]), TASK01)
        rule = train_conformity("knn", proper, k=1)
        assert rule.score_one((0.0,), 1) == EPSILON_FLOOR

    def test_fewer_neighbours_than_k(self):
        proper = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), TASK01)
        rule = train_conformity("knn", proper, k=2)
        # only one point of label 0 exists; mean runs over that one
        assert rule.score_one((3.0,), 0) == 1.0 / (1.0 + 3.0)

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
            scores = [rule.score_one(tuple(r * u), 0) for r in radii]
            assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_preconditions(self):
        proper = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), TASK01)
        with pytest.raises(KTooLargeError):
            train_conformity("knn", proper, k=4)
        with pytest.raises(OutOfRangeError):
            train_conformity("knn", proper, k=0)
        rule = train_conformity("knn", proper, k=1)
        with pytest.raises(DimensionMismatchError):
            rule.score_one((0.0, 0.0), 0)


def _reference_distance(a, b):
    """One distance in Python floats: the root of the squared coordinate
    differences added left to right, the order the knn kernel must keep."""
    total = 0.0
    for u, v in zip(a.tolist(), b.tolist()):
        total += (u - v) * (u - v)
    return math.sqrt(total)


def _reference_knn(proper, k, x, label):
    """One query row: full sort of its same-label distances, mean of the head."""
    rows = [i for i, v in enumerate(proper.y.tolist()) if v == label]
    if not rows:
        return EPSILON_FLOOR
    dist = np.sort([_reference_distance(np.asarray(x), proper.X[i]) for i in rows])
    return 1.0 / (1.0 + dist[:min(k, len(rows))].mean())


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


class TestKnnDifferential:
    """KnnRule.score_many against the scalar full-sort reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        string_labels=st.booleans(),
        n_labels=st.integers(1, 4),
        n_proper=st.integers(1, 40),
        n_query=st.integers(1, 12),
        d=st.integers(1, 4),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        array_labels=st.booleans(),
    )
    def test_matches_full_sort_reference(
        self, string_labels, n_labels, n_proper, n_query, d, k, seed, array_labels
    ):
        rng = np.random.default_rng(seed)
        labels = tuple("abcd"[:n_labels]) if string_labels else tuple(range(n_labels))
        task = ClassificationTask(labels)
        # proper labels come from a random subset of the task's labels, so
        # some labels have no proper point and others fewer than k
        present = rng.choice(n_labels, size=int(rng.integers(1, n_labels + 1)), replace=False)
        proper_y = [labels[i] for i in rng.choice(present, size=n_proper)]
        pool = rng.standard_normal((max(1, n_proper // 3), d))  # duplicate points
        proper = Dataset(pool[rng.integers(0, len(pool), n_proper)], np.array(proper_y), task)
        k = min(k, n_proper)
        rule = train_conformity("knn", proper, k=k)
        Q = np.vstack([pool, rng.standard_normal((n_query, d))])
        query_y = [labels[i] for i in rng.integers(0, n_labels, len(Q))]
        out = rule.score_many(Q, np.array(query_y) if array_labels else query_y)
        expected = [_reference_knn(proper, k, x, y) for x, y in zip(Q, query_y)]
        assert out.tolist() == expected


class TestRidge:
    def test_beta_oracle_with_penalty(self):
        # beta = sum(x*y) / (sum(x^2) + lam) = 28 / 15 for these points
        proper = Dataset(
            np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]),
            RegressionTask((0.0, 10.0)),
        )
        rule = train_conformity("ridge", proper, lam=1.0)
        assert abs(rule.beta[0] - 28.0 / 15.0) < 1e-12
        expected = 1.0 / (1.0 + abs(2.0 - 28.0 / 15.0))
        assert abs(rule.score_one((1.0,), 2.0) - expected) < 1e-15

    def test_unpenalized_interpolation(self):
        proper = Dataset(
            np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), RegressionTask((0.0, 3.0))
        )
        rule = train_conformity("ridge", proper, lam=0.0)
        assert rule.beta[0] == 1.0
        assert rule.score_one((3.0,), 3.0) == 1.0

    def test_singular_system_reported(self):
        dup = Dataset(
            np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            np.array([1.0, 2.0, 3.0]),
            RegressionTask((0.0, 5.0)),
        )
        with pytest.raises(SingularSystemError):
            train_conformity("ridge", dup, lam=0.0)
        train_conformity("ridge", dup, lam=1e-6)  # regularized is fine

    def test_classification_needs_pm_one(self):
        ok = Dataset(np.array([[0.0], [1.0]]), np.array([-1, 1]), ClassificationTask((-1, 1)))
        rule = train_conformity("ridge", ok, lam=1.0)
        assert rule.score_one((0.5,), 1) > 0
        bad = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), TASK01)
        with pytest.raises(OutOfRangeError):
            train_conformity("ridge", bad, lam=1.0)

    def test_negative_penalty_rejected(self):
        proper = Dataset(np.array([[1.0]]), np.array([1.0]), RegressionTask((0.0, 2.0)))
        with pytest.raises(OutOfRangeError):
            train_conformity("ridge", proper, lam=-0.5)


class TestDeterminism:
    def test_training_order_is_irrelevant_bitwise(self):
        rng = np.random.default_rng(4242)
        cls = _random_classification(rng)
        reg = _random_regression(rng)
        knn = train_conformity("knn", cls, k=3)
        ridge = train_conformity("ridge", reg, lam=0.7)
        query = tuple(rng.standard_normal(3))
        base_knn = [knn.score_one(query, lab) for lab in (0, 1, 2)]
        base_ridge = ridge.score_one(query, 1.0)
        for _ in range(200):
            perm = rng.permutation(cls.n)
            knn_p = train_conformity("knn", cls.subset(perm), k=3)
            assert [knn_p.score_one(query, lab) for lab in (0, 1, 2)] == base_knn
            perm = rng.permutation(reg.n)
            ridge_p = train_conformity("ridge", reg.subset(perm), lam=0.7)
            assert ridge_p.score_one(query, 1.0) == base_ridge

    def test_batch_equals_single_bitwise(self):
        rng = np.random.default_rng(99)
        cls = _random_classification(rng, n=15)
        reg = _random_regression(rng, n=15)
        knn = train_conformity("knn", cls, k=3)
        ridge = train_conformity("ridge", reg, lam=0.3)
        for ds, rule in ((cls, knn), (reg, ridge)):
            batch = rule.score_many(ds.X, ds.y)
            singles = [rule.score_one(z.x, z.y) for z in ds.observations()]
            assert list(batch) == singles

    def test_unknown_kind(self):
        ds = _random_classification(np.random.default_rng(1))
        with pytest.raises(OutOfRangeError):
            train_conformity("kde", ds)


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
