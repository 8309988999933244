import math

import numpy as np
import pytest

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
