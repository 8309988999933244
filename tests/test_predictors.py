import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import conformity, validity
from confee import (
    ClassificationTask,
    ConstantEPredictor,
    Dataset,
    DimensionMismatchError,
    FoldPartition,
    LabelOutOfSpaceError,
    NegativeEntryError,
    NonFiniteEntryError,
    OutOfRangeError,
    PlausibilityTable,
    PredictorSpec,
    RegressionTask,
    build_predictor,
    cross_p_merge,
    e_prediction_set,
    e_to_p,
    fit_cross,
    fit_cross_from_partition,
    fit_split,
    get_scenario,
    harmonic_mean,
    make_fold_partition,
    mean_normalize,
    sample,
    sum_normalize,
    support_set_assignment,
    train_conformity,
    unit_margin_provider,
)
from confee.normalize import FAST_ROWS
from confee.predictors import (
    WEIGHTINGS,
    CrossEPredictor,
    CrossTable,
    FullEPredictor,
    OnlineTrace,
    _query_labels,
)
from conftest import _reference_knn

GRID03 = RegressionTask((0.0, 3.0))


def _ridge_split_example():
    # proper rows x = 0, 1; the last row (x = 2) calibrates
    training = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0]), GRID03)
    return fit_split(training, 1, "ridge", "mean", lam=0.0)


class TestSplit:
    def test_ridge_example_end_to_end(self):
        pred = _ridge_split_example()
        # beta = 1, so sigma(2,2) = 1, sigma(3,3) = 1, sigma(3,0) = 1/4;
        # mean-normalizing (1, 1) and (1, 1/4) gives 1.0 and 0.4
        assert abs(pred.e_at((3.0,), 3.0) - 1.0) <= 1e-9
        assert abs(pred.e_at((3.0,), 0.0) - 0.4) <= 1e-9
        assert pred.predict((3.0,), (0.0,)).blocks[0].tolist() == [[1.6, 0.4]]
        table = pred.predict((3.0,))
        assert table.labels == (0.0, 3.0)
        assert table[3.0] == pred.e_at((3.0,), 3.0)

    def test_p_values(self):
        pred = _ridge_split_example()
        # one calibration summary equal to 1: p = (#{<=} + 1) / (c + 1)
        assert pred.predict((3.0,), (3.0,)).p_values.tolist() == [[1.0]]
        assert pred.predict((3.0,), (0.0,)).p_values.tolist() == [[0.5]]
        table = pred.predict((3.0,))
        assert dict(zip(table.labels, table.p_values[0].tolist())) == {0.0: 0.5, 3.0: 1.0}

    def test_split_is_the_one_fold_cross_predictor(self):
        pred = _ridge_split_example()
        assert isinstance(pred, CrossEPredictor) and pred.rule.K == 1
        assert len(pred.calibration_summaries) == 1
        # one fold has nothing to merge: the table's values are the fold's
        table = pred.predict((3.0,))
        assert type(table) is CrossTable and len(table.blocks) == 1
        assert table.values == tuple(table.fold_values[0].tolist())

    def test_calibration_order_equivariance_bitwise(self):
        rng = np.random.default_rng(314)
        data = sample(get_scenario("gm2d"), 40, 5)
        base = fit_split(data, 12, "knn", "mean", k=3)
        x = (0.3, -0.2)
        expected = base.predict(x)
        for _ in range(100):
            perm = rng.permutation(12)
            shuffled = fit_split(data.subset([*range(28), *(28 + perm)]), 12, "knn", "mean", k=3)
            assert shuffled.predict(x).values == expected.values

    def test_part_compatibility_checks(self):
        # both parts are cut from one training set, so they share its task
        # and features; each part must still hold a row
        data = Dataset(np.zeros((3, 1)), np.array([0.0, 1.0, 2.0]), GRID03)
        for c in (0, 3, -1):
            with pytest.raises(OutOfRangeError, match=rf"calibration_size {c} must lie in 1\.\.2"):
                fit_split(data, c, "ridge")
        with pytest.raises(DimensionMismatchError):
            fit_split(data, 1, "ridge").predict((0.0, 1.0))


class TestCross:
    def _fitted(self, n=23, seed=8):
        data = sample(get_scenario("gm2d"), n, seed)
        return data, fit_cross(data, 5, 17, "knn", "mean", k=3)

    def test_merge_is_arithmetic_mean(self):
        data, pred = self._fitted()
        z = data.observation(3)
        folds = tuple(pred.predict(z.x, (z.y,)).fold_values[:, 0].tolist())
        assert len(folds) == 5
        assert pred.e_at(z.x, z.y) == math.fsum(folds) / 5

    def test_size_weighted_merge(self):
        data = sample(get_scenario("gm2d"), 23, 8)
        pred = fit_cross(data, 5, 17, "knn", "mean", weighting="size_proportional", k=3)
        z = data.observation(3)
        folds = tuple(pred.predict(z.x, (z.y,)).fold_values[:, 0].tolist())
        sizes = [len(c) for c in pred.calibration_summaries]
        expected = math.fsum(s * a for s, a in zip(sizes, folds)) / 23
        assert pred.e_at(z.x, z.y) == expected

    def test_predict_matches_pointwise_queries(self):
        data, pred = self._fitted()
        x = (0.1, 0.4)
        table = pred.predict(x)
        assert table.values == tuple(pred.e_at(x, y) for y in (0, 1))

    def test_fold_relabelling_symmetry(self):
        data, pred = self._fitted()
        x = (0.1, 0.4)
        base = pred.predict(x).values
        order = [1, 2, 0, 4, 3]
        partition = make_fold_partition(23, 5, 17)
        relabelled = FoldPartition(
            tuple(partition.folds[i] for i in order), partition.n, partition.seed
        )
        shuffled = fit_cross_from_partition(data, relabelled, "knn", "mean", k=3)
        assert shuffled.predict(x).values == base
        assert shuffled.calibration_summaries == tuple(
            pred.calibration_summaries[i] for i in order
        )

    def test_one_calibration_vector_per_fold(self):
        data, pred = self._fitted()
        for summaries in (pred.calibration_summaries[:-1], pred.calibration_summaries * 2):
            with pytest.raises(OutOfRangeError, match="need exactly one calibration vector per fold"):
                replace(pred, calibration_summaries=summaries)
        # the fold count is the rule's: a rule fitted on other folds is refused
        for other in (fit_split(data, 5, "knn", k=3), fit_cross(data, 3, 17, "knn", k=3)):
            with pytest.raises(OutOfRangeError, match="need exactly one calibration vector per fold"):
                replace(pred, rule=other.rule)

    def test_training_order_equivariance_bitwise(self):
        rng = np.random.default_rng(2718)
        data = sample(get_scenario("gm2d"), 20, 12)
        partition = make_fold_partition(20, 4, 99)
        base = fit_cross_from_partition(data, partition, "knn", "mean", k=3)
        x = (0.2, -0.1)
        expected = base.predict(x).values
        for _ in range(50):
            perm = rng.permutation(20)
            inverse = np.empty(20, dtype=int)
            inverse[perm] = np.arange(20)
            moved_folds = tuple(
                tuple(sorted(int(inverse[i]) for i in fold)) for fold in partition.folds
            )
            moved = fit_cross_from_partition(
                data.subset(perm),
                FoldPartition(moved_folds, 20, partition.seed),
                "knn",
                "mean",
                k=3,
            )
            assert moved.predict(x).values == expected

    def test_same_seed_same_predictor(self):
        data = sample(get_scenario("gm2d"), 23, 8)
        a = fit_cross(data, 5, 17, "knn", "mean", k=3)
        b = fit_cross(data, 5, 17, "knn", "mean", k=3)
        assert a.rule.fold_of.tolist() == b.rule.fold_of.tolist()
        assert a.predict((0.0, 0.0)).values == b.predict((0.0, 0.0)).values

    def test_weighting_validated(self):
        data = sample(get_scenario("gm2d"), 20, 8)
        with pytest.raises(OutOfRangeError):
            fit_cross(data, 4, 1, "knn", "mean", weighting="median", k=3)


def _reference_cross(training, partition, kind, normalizer, weighting, queries, **params):
    """The cross predictor one fold at a time, on validated copies.

    Fold k calibrates on a validated copy of its rows and trains on a
    validated copy of the rows outside it. knn summaries come from the scalar full-sort
    reference, ridge ones from a rule fitted on the copy alone; every fold
    e-value is the last component of one normalized vector. Returns the
    calibration summaries of every fold and, per query, the merged values
    and every fold's (sigmas, e-vectors), as `_fold_view` reads a table.
    """
    normalize = {"mean": mean_normalize, "sum": sum_normalize}[normalizer]
    labels = training.task.candidates
    calibrations, fold_views = [], []
    for fold in partition.folds:
        rows = fold.tolist()
        outside = sorted(set(range(training.n)) - set(rows))
        proper, calibration = (
            Dataset(training.X[r], training.y[r], training.task) for r in (outside, rows)
        )
        if kind == "knn":
            def score(x, y, proper=proper):
                return _reference_knn(proper, params["k"], x, y)
        else:
            def score(x, y, rule=train_conformity(kind, proper, **params)):
                return float(rule.score_folds(x, [y])[0, 0])
        cal = [score(x, y) for x, y in zip(calibration.X, calibration.y.tolist())]
        calibrations.append(tuple(cal))
        views = []
        for x in queries:
            sigmas = tuple(score(x, y) for y in labels)
            views.append((sigmas, [normalize((*cal, s)).values for s in sigmas]))
        fold_views.append(views)
    sizes = [len(fold) for fold in partition.folds]
    out = []
    for q in range(len(queries)):
        folds = [views[q] for views in fold_views]
        merged = []
        for j in range(len(labels)):
            es = [alphas[j][-1] for _, alphas in folds]
            if weighting == "uniform":
                merged.append(math.fsum(es) / len(es))
            else:
                merged.append(math.fsum(s * e for s, e in zip(sizes, es)) / training.n)
        out.append((tuple(merged), folds))
    return calibrations, out


def _fold_view(table) -> tuple:
    return table.values, [
        (tuple(sigmas), list(map(tuple, block.tolist())))
        for sigmas, block in zip(table.sigmas.tolist(), table.blocks)
    ]


class TestCrossFitDifferential:
    """The one-rule cross fit against validated copies, fold by fold."""

    @settings(max_examples=120, deadline=None)
    @example(  # K = n: the rare label has no row outside its own fold
        rule="knn", labels="classes", n=6, K=2, all_folds=True, k=3, d=2, rare=1,
        normalizer="mean", weighting="uniform", nested=False, seed=1,
    )
    @example(  # fewer than k rows of the rare label outside a fold
        rule="knn", labels="strings", n=12, K=3, all_folds=False, k=4, d=1, rare=3,
        normalizer="sum", weighting="size_proportional", nested=True, seed=2,
    )
    @given(
        rule=st.sampled_from(["knn", "ridge"]),
        labels=st.sampled_from(["classes", "strings", "grid"]),
        n=st.integers(2, 30),
        K=st.integers(2, 6),
        all_folds=st.booleans(),
        k=st.integers(1, 6),
        d=st.integers(1, 3),
        rare=st.integers(0, 4),
        normalizer=st.sampled_from(["sum", "mean"]),
        weighting=st.sampled_from(WEIGHTINGS),
        nested=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_validated_copies(
        self, rule, labels, n, K, all_folds, k, d, rare, normalizer, weighting, nested, seed
    ):
        rng = np.random.default_rng(seed)
        K = n if all_folds else min(K, n)
        rare = min(rare, n - 1)
        # one common label, `rare` rows of a second, and a third with no
        # rows at all: some fold complements hold fewer than k or zero
        # points of a label
        if labels == "grid":
            task = RegressionTask((0.0, 0.5, 1.0, 2.0))
            common, second = 0.5, 1.0
        elif rule == "ridge":  # ridge reads classes as -1/+1
            task = ClassificationTask((-1, 1, 0))
            common, second = -1, 1
        else:
            task = ClassificationTask(("a", "b", "c") if labels == "strings" else (0, 1, 2))
            common, second = task.labels[:2]
        y = np.array([second] * rare + [common] * (n - rare))
        if rule == "ridge" and labels == "grid":
            y = rng.standard_normal(n)
        pool = rng.standard_normal((max(1, n // 2), d))  # duplicate points
        X = pool[rng.integers(0, len(pool), n)]
        order = rng.permutation(n)
        training = Dataset(X[order], y[order], task)
        if nested:  # rows of a longer stream, as the online harness fits
            stream = Dataset(
                np.vstack([rng.standard_normal((3, d)), training.X]),
                np.concatenate([training.y[:1].repeat(3), training.y]),
                task,
            )
            training = stream.subset(range(3, n + 3))
        partition = make_fold_partition(n, K, int(rng.integers(2**31)))
        smallest_proper = n - max(len(fold) for fold in partition.folds)
        params = {"k": min(k, smallest_proper)} if rule == "knn" else {"lam": 0.5}

        got = fit_cross_from_partition(training, partition, rule, normalizer, weighting, **params)
        queries = np.vstack([training.X[:3], rng.standard_normal((3, d))])
        calibrations, expected = _reference_cross(
            training, partition, rule, normalizer, weighting, queries, **params
        )
        assert [c.values for c in got.calibration_summaries] == calibrations
        assert [_fold_view(got.predict(x)) for x in queries] == expected


#: Presets the oracle draws from, with the rule fitted on each.
ORACLE_RULES = {"gm2d": "knn", "gm5c": "knn", "linreg3": "ridge"}


def _oracle_data(name, n, seed, duplicates, rare):
    """n rows of a preset; the last row plays the test point.

    With `duplicates`, rows repeat points of a pool of about n/3. For a
    mixture, the last label is kept only on the test point and on `rare`
    random rows before it, so a proper part may hold fewer than k rows of
    it, or none (the EPSILON_FLOOR summary).
    """
    drawn = sample(get_scenario(name), n, seed)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, max(1, n // 3), n) if duplicates else np.arange(n)
    X, y = drawn.X[rows], drawn.y[rows].copy()
    if isinstance(drawn.task, ClassificationTask):
        last = drawn.task.labels[-1]
        y[y == last] = drawn.task.labels[0]
        y[rng.choice(n - 1, size=min(rare, n - 1), replace=False)] = last
        y[-1] = last
    return Dataset(X, y, drawn.task)


def _swapped(data, i, j):
    """data with rows i and j exchanged."""
    order = np.arange(data.n)
    order[[i, j]] = order[[j, i]]
    return data.subset(order)


def _assert_rotation_mean(es, normalizer):
    """The e-values of one rotation are the components of one normalized
    vector of length m = len(es): their mean is 1 (mean) or 1/m (sum).

    Each component is at most two roundings of the exact quotient, so the
    mean sits within m * 2**-52 of its target, relative to the target.
    """
    m = len(es)
    target = 1.0 if normalizer == "mean" else 1.0 / m
    mean = math.fsum(es) / m
    assert abs(mean - target) <= m * 2.0**-52 * target, (mean, target)


def _assert_rotation_p(ps, sigmas):
    """The true-label p-values of one rotation, with the test summaries.

    The test summary takes the place of each of the m = len(ps) summaries
    once, so the j-th smallest p counts at least j summaries at or below
    its own: p_(j) >= j/m. Without ties p_(j) = j/m exactly, and mean(1/p)
    is the harmonic number H_m, above 1: 1/p is no e-value.
    """
    m = len(ps)
    ranks = [j / m for j in range(1, m + 1)]
    assert all(p >= rank for p, rank in zip(sorted(ps), ranks)), (sorted(ps), m)
    if len(set(sigmas)) == m:
        assert sorted(ps) == ranks
        harmonic = float(sum(Fraction(1, j) for j in range(1, m + 1)))
        assert math.isclose(math.fsum(1.0 / p for p in ps) / m, harmonic, rel_tol=2.0**-50)


_ORACLE_PARAMS = dict(
    name=st.sampled_from(sorted(ORACLE_RULES)),
    k=st.integers(1, 5),
    lam=st.floats(0.01, 10.0),
    normalizer=st.sampled_from(["sum", "mean"]),
    duplicates=st.booleans(),
    rare=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)


class TestExchangeabilityOracle:
    """The exchangeability step of the validity argument, checked exactly.

    Swapping the test point with calibration point j leaves the proper
    part and the multiset "calibration plus test" unchanged, so the c + 1
    e-values at the true label, one per swap, are the components of one
    normalized vector, and the c + 1 p-values at the true label are the
    ranks of the c + 1 summaries.
    """

    @settings(max_examples=200, deadline=None)
    @given(n_proper=st.integers(1, 20), c=st.integers(1, 12), **_ORACLE_PARAMS)
    def test_split_rotation(self, name, n_proper, c, k, lam, normalizer, duplicates, rare, seed):
        rule = ORACLE_RULES[name]
        params = {"k": min(k, n_proper)} if rule == "knn" else {"lam": lam}
        data = _oracle_data(name, n_proper + c + 1, seed, duplicates, rare)
        test_row = data.n - 1
        es, ps, sigmas = [], [], []
        for j in range(n_proper, data.n):  # j = test_row is the draw itself
            rotated = _swapped(data, j, test_row)
            predictor = fit_split(rotated.subset(range(test_row)), c, rule, normalizer, **params)
            z = rotated.observation(test_row)
            table = predictor.predict(z.x, (z.y,))
            es.append(table.values[0])
            ps.append(table.p_values[0, 0])
            sigmas.append(table.sigmas[0, 0])
        _assert_rotation_mean(es, normalizer)
        _assert_rotation_p(ps, sigmas)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 24), K=st.integers(2, 5), **_ORACLE_PARAMS)
    def test_cross_rotation_per_fold(self, name, n, K, k, lam, normalizer, duplicates, rare, seed):
        rule = ORACLE_RULES[name]
        K = min(K, n)
        data = _oracle_data(name, n + 1, seed, duplicates, rare)
        partition = make_fold_partition(n, K, seed)
        smallest_proper = n - max(len(fold) for fold in partition.folds)
        params = {"k": min(k, smallest_proper)} if rule == "knn" else {"lam": lam}
        for k, fold in enumerate(partition.folds):
            es, ps, sigmas = [], [], []
            for j in (*fold, n):  # j = n is the draw itself
                rotated = _swapped(data, j, n)
                predictor = fit_cross_from_partition(
                    rotated.subset(range(n)), partition, rule, normalizer, **params
                )
                z = rotated.observation(n)
                table = predictor.predict(z.x, (z.y,))
                es.append(table.fold_values[k, 0])
                ps.append(table.p_values[k, 0])
                sigmas.append(table.sigmas[k, 0])
            _assert_rotation_mean(es, normalizer)
            _assert_rotation_p(ps, sigmas)


class TestFull:
    TRAIN = Dataset(
        np.array([[-2.0], [-0.5], [0.5], [2.0]]),
        np.array([-1, -1, 1, 1]),
        ClassificationTask((-1, 1)),
    )
    ASSIGN = staticmethod(support_set_assignment(unit_margin_provider((1.0,), 0.0, 1)))

    def test_margin_oracle(self):
        table = FullEPredictor(self.TRAIN, self.ASSIGN).predict((1.5,), (-1, 1))
        assert table[-1] == 5.0 / 3.0
        assert table[1] == 0.0

    def test_declares_no_bound(self):
        assert FullEPredictor(self.TRAIN, self.ASSIGN).component_bound() is None

    def test_default_labels_are_the_task_labels(self):
        predictor = FullEPredictor(self.TRAIN, self.ASSIGN)
        table = predictor.predict((1.5,))
        assert table.labels == (-1, 1)
        assert table.values == predictor.predict((1.5,), (-1, 1)).values

    def test_training_order_equivariance(self):
        rng = np.random.default_rng(31)
        base = FullEPredictor(self.TRAIN, self.ASSIGN).predict((1.5,), (-1, 1)).values
        for _ in range(50):
            perm = rng.permutation(4)
            moved = FullEPredictor(self.TRAIN.subset(perm), self.ASSIGN).predict((1.5,), (-1, 1))
            assert moved.values == base

    def test_brute_force_cross_check(self):
        # recompute the support set from scratch for random queries
        rng = np.random.default_rng(606)
        predictor = FullEPredictor(self.TRAIN, self.ASSIGN)
        for _ in range(200):
            x = float(rng.normal(0, 2))
            y = int(rng.choice((-1, 1)))
            points = [(-2.0, -1), (-0.5, -1), (0.5, 1), (2.0, 1), (x, y)]
            sv = [i for i, (xi, yi) in enumerate(points) if (1 if yi == 1 else -1) * xi <= 1.0]
            expected = (5.0 / len(sv)) if 4 in sv else 0.0
            assert predictor.e_at((x,), y) == expected


class TestRuleParams:
    """A rule parameter that the chosen kind does not take is named, with
    the kind, before any fit work."""

    DATA = sample(get_scenario("linreg3"), 40, 1)

    @pytest.mark.parametrize("fit, message", [
        (lambda d: fit_cross(d, 5, 0, "knn", kk=3),
         "knn rule takes no parameter 'kk'; it takes k, table"),
        (lambda d: fit_split(d, 10, "ridge", k=3), "ridge rule takes no parameter 'k'; it takes lam"),
        (lambda d: train_conformity("knn", d, lam=1.0),
         "knn rule takes no parameter 'lam'; it takes k, table"),
        # the fits set every row's fold themselves
        (lambda d: fit_cross(d, 5, 0, "knn", fold_of=[0] * 40),
         "knn rule takes no parameter 'fold_of'; it takes k, table"),
        (lambda d: fit_split(d, 10, "knn", fold_of=[0] * 40),
         "knn rule takes no parameter 'fold_of'; it takes k, table"),
        (lambda d: fit_cross_from_partition(d, make_fold_partition(40, 5, 0), "ridge",
                                            fold_of=[0] * 40),
         "ridge rule takes no parameter 'fold_of'; it takes lam"),
    ])
    def test_refused(self, fit, message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rule was fitted")

        # every rule's fit passes through the base class; the rule
        # classes keep their own signatures
        monkeypatch.setattr(conformity.ConformityRule, "__init__", refuse)
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
            fit(self.DATA)

    def test_accepted(self):
        table = conformity.NeighbourTable(self.DATA)
        x = self.DATA.X[0]
        walked = fit_cross(self.DATA, 5, 0, "knn", k=2, table=table).predict(x)
        assert walked.values == fit_cross(self.DATA, 5, 0, "knn", k=2).predict(x).values
        assert fit_split(self.DATA, 10, "ridge", lam=0.5).rule.lam == 0.5


def _fit(fit, kind, training):
    if fit == "const":
        return ConstantEPredictor(1.0, training.task)
    if fit == "split":
        return fit_split(training, 10, kind)
    return fit_cross(training, 5, 1, kind)


class TestQueryContract:
    """`predict(x)` answers the task's candidates, as the task validated
    them, exactly as passing those candidates in does."""

    @pytest.mark.parametrize("kind", ["split", "cross", "full", "const"])
    @pytest.mark.parametrize("scenario, rule, x", [
        ("gm2d", "knn", (0.3, -0.2)), ("linreg3", "ridge", (0.3, -0.2, 0.1)),
    ], ids=["gm2d", "linreg3"])
    def test_default_labels_are_the_task_candidates(self, kind, scenario, rule, x):
        training = sample(get_scenario(scenario), 40, 1)
        predictor = build_predictor(PredictorSpec(kind=kind, rule=rule), training, 2)
        default = predictor.predict(x)
        passed = predictor.predict(x, list(training.task.candidates))
        assert type(default) is type(passed)
        assert default.labels == passed.labels == training.task.candidates
        assert default.values == passed.values

    @pytest.mark.parametrize("task", [ClassificationTask(("a", 0)), RegressionTask((0.0, 2.5))])
    def test_the_task_vouches_for_its_candidates(self, task):
        assert _query_labels(task, None) is task.candidates


class TestQueryDomain:
    """A query refuses an object or a candidate outside its domain, naming
    the input rather than a symptom inside the rule or the normalizer."""

    GM2D = sample(get_scenario("gm2d"), 40, 1)
    LINREG3 = sample(get_scenario("linreg3"), 40, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fit", ["split", "cross"])
    @pytest.mark.parametrize(
        "kind, training", [("knn", GM2D), ("ridge", LINREG3)], ids=["knn-gm2d", "ridge-linreg3"]
    )
    def test_non_finite_x(self, kind, training, fit, bad):
        predictor = _fit(fit, kind, training)
        x = (bad,) + (0.0,) * (training.dim - 1)
        with pytest.raises(NonFiniteEntryError, match="^x must be finite$"):
            predictor.predict(x)

    @pytest.mark.parametrize("fit", ["split", "cross", "const"])
    def test_classification_label_outside_the_task(self, fit):
        predictor = _fit(fit, "knn", self.GM2D)
        with pytest.raises(LabelOutOfSpaceError, match="^label 7 not in task labels$"):
            predictor.predict((0.0, 0.0), (7,))
        with pytest.raises(LabelOutOfSpaceError, match="^label 7 not in task labels$"):
            predictor.e_at((0.0, 0.0), 7)

    @pytest.mark.parametrize("x", [(0.0, "a"), ((0.0,), 1.0)], ids=["string", "ragged"])
    @pytest.mark.parametrize("fit", ["split", "cross", "full"])
    def test_malformed_x_named(self, fit, x):
        if fit == "full":
            assignment = support_set_assignment(unit_margin_provider((0.0, 0.0)))
            predictor, name = FullEPredictor(self.GM2D, assignment), "feature vector"
        else:
            predictor, name = _fit(fit, "knn", self.GM2D), "x"
        with pytest.raises(OutOfRangeError, match=f"^{name} must be real numbers: "):
            predictor.predict(x)

    def test_full_predictor_label_outside_the_task(self):
        assignment = support_set_assignment(unit_margin_provider((0.0, 0.0)))
        predictor = FullEPredictor(self.GM2D, assignment)
        with pytest.raises(LabelOutOfSpaceError, match="^label 7 not in task labels$"):
            predictor.predict((0.0, 0.0), (0, 7))

    @pytest.mark.parametrize("candidate", [math.nan, math.inf, -math.inf, "3"])
    @pytest.mark.parametrize("fit", ["split", "cross", "const"])
    @pytest.mark.parametrize("kind", ["knn", "ridge"])
    def test_regression_candidate_not_a_finite_real(self, kind, fit, candidate):
        predictor = _fit(fit, kind, self.LINREG3)
        message = rf"^label {re.escape(repr(candidate))} is not a finite real number$"
        with pytest.raises(LabelOutOfSpaceError, match=message):
            predictor.predict((0.0, 0.0, 0.0), (0.0, candidate))

    @pytest.mark.parametrize("candidates, message", [
        ((), "no candidate labels"), ((0, 0), "duplicate candidate labels"),
        ((1, 0, 1), "duplicate candidate labels"),
    ], ids=["empty", "repeated", "repeated-apart"])
    @pytest.mark.parametrize("fit", ["split", "cross", "full", "const"])
    def test_empty_or_repeated_candidates_refused_before_scoring(
        self, monkeypatch, fit, candidates, message
    ):
        def reached(*args):
            raise AssertionError("scored a refused query")

        if fit == "full":
            predictor = FullEPredictor(self.GM2D, reached)
        elif fit == "const":
            predictor = _fit(fit, "knn", self.GM2D)
            monkeypatch.setattr(validity, "PlausibilityTable", reached)
        else:
            predictor = _fit(fit, "knn", self.GM2D)
            monkeypatch.setattr(predictor.rule, "score_folds", reached)
        with pytest.raises(OutOfRangeError, match=f"^{message}$"):
            predictor.predict((0.0, 0.0), candidates)

    def test_partition_of_another_size(self):
        with pytest.raises(
            OutOfRangeError, match="^the partition covers 30 rows; the training set has 40$"
        ):
            fit_cross_from_partition(self.GM2D, make_fold_partition(30, 5, 1))


def _merged(pred, fold_values) -> float:
    """The predictor's merge of one label's fold e-values: fsum over K for
    uniform weighting, the fsum of size * e over the folds' total size for
    size_proportional, the sizes being the calibration vectors' lengths."""
    if pred.weighting == "uniform":
        return math.fsum(fold_values) / len(fold_values)
    sizes = [len(calibration) for calibration in pred.calibration_summaries]
    return math.fsum(s * e for s, e in zip(sizes, fold_values)) / sum(sizes)


class TestTables:
    """Split and cross predictors answer every query with one CrossTable,
    built by its public, checking constructor."""

    GM2D = sample(get_scenario("gm2d"), 40, 1)
    LINREG3 = sample(get_scenario("linreg3"), 40, 1)

    @pytest.mark.parametrize("fit", ["split", "cross"])
    @pytest.mark.parametrize(
        "kind, training, labels",
        [
            ("knn", GM2D, None),
            ("knn", GM2D, (np.int64(1), np.int64(0))),
            ("ridge", LINREG3, None),
            ("ridge", LINREG3, tuple(np.linspace(-3.0, 3.0, 2 * FAST_ROWS))),
        ],
        ids=["knn", "knn-numpy-labels", "ridge", "ridge-numpy-grid"],
    )
    def test_equal_to_the_checked_tables(self, monkeypatch, kind, training, labels, fit):
        predictor = _fit(fit, kind, training)
        built = []
        check = PlausibilityTable.__post_init__

        def counted(table):
            built.append(table)
            check(table)

        monkeypatch.setattr(PlausibilityTable, "__post_init__", counted)
        table = predictor.predict((0.3, -0.2, 0.1)[: training.dim], labels)
        assert built == [table] and built[0] is table and type(table) is CrossTable
        public = CrossTable(
            table.labels, table.values, table.calibration, table.sigmas, table.blocks
        )
        assert table == public and table.values == public.values
        assert [type(label) for label in table.labels] == [
            type(label) for label in _query_labels(training.task, labels)
        ]
        K, L = predictor.rule.K, len(table.labels)
        assert table.sigmas.shape == table.fold_values.shape == table.p_values.shape == (K, L)
        for calibration, vector, block in zip(
            table.calibration, predictor.calibration_summaries, table.blocks
        ):
            assert calibration is vector.array and block.shape == (L, calibration.size + 1)
        for array in (table.sigmas, *table.blocks, *table.calibration):
            assert not array.flags.writeable

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_one_fold_values_are_the_fold_values(self, weighting):
        # a one-fold size_proportional merge, size * e / size, can round
        # away from e; a split table does not merge
        pred = replace(fit_split(self.GM2D, 11, "knn"), weighting=weighting)
        merged_differs = False
        for x in self.GM2D.X[:10]:
            table = pred.predict(x)
            fold = table.fold_values[0].tolist()
            assert table.values == tuple(fold)
            merged_differs |= [_merged(pred, (e,)) for e in fold] != fold
        assert merged_differs == (weighting == "size_proportional")

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_cross_values_merge_the_fold_values(self, weighting):
        pred = fit_cross(self.GM2D, 3, 1, "knn", weighting=weighting)
        for x in self.GM2D.X[:5]:
            table = pred.predict(x)
            columns = table.fold_values.T.tolist()
            assert table.values == tuple(_merged(pred, column) for column in columns)

    @pytest.mark.parametrize("fit", ["split", "cross"])
    def test_p_values_per_fold(self, fit):
        pred = _fit(fit, "knn", self.GM2D)
        for x in self.GM2D.X[:5]:
            table = pred.predict(x)
            for k, vector in enumerate(pred.calibration_summaries):
                cal = vector.values
                for i, sigma in enumerate(table.sigmas[k].tolist()):
                    rank = sum(1 for s in cal if s <= sigma) + 1
                    assert table.p_values[k, i] == rank / (len(cal) + 1)

    @pytest.mark.parametrize("labels, values, error", [
        (("a", "a"), (0.5, 0.5), OutOfRangeError),
        (("a", "b"), (0.5,), OutOfRangeError),
        ((), (), OutOfRangeError),
        (("a",), (-1.0,), NegativeEntryError),
        (("a", "b"), (0.5, math.nan), NonFiniteEntryError),
        (("a", "b"), (math.inf, 0.5), NonFiniteEntryError),
    ])
    def test_public_constructors_check(self, labels, values, error):
        L = len(values)
        fold = (np.array([1.0]), np.ones((1, L)), (np.ones((L, 2)),))
        with pytest.raises(error):
            CrossTable(labels, values, *fold)
        with pytest.raises(error):
            PlausibilityTable(labels, values)


class TestScalarOps:
    def test_round_trips(self):
        for p in np.linspace(0.01, 1.0, 50):
            assert abs(e_to_p(1.0 / p) - p) <= 1e-12 * p
        for e in np.linspace(1.0, 50.0, 50):
            assert abs(1.0 / e_to_p(e) - e) <= 1e-12 * e

    def test_domains(self):
        with pytest.raises(OutOfRangeError):
            e_to_p(-0.1)
        with pytest.raises(OutOfRangeError):
            e_to_p(float("inf"))
        assert e_to_p(0.0) == 1.0
        assert e_to_p(0.5) == 1.0  # capped

    def test_malformed_numbers_named(self):
        # e_to_p converts through core._real_floats, as the others do
        with pytest.raises(OutOfRangeError) as excinfo:
            e_to_p("a")
        assert str(excinfo.value) == (
            "e-value must be real numbers: could not convert string to float: 'a'"
        )
        with pytest.raises(OutOfRangeError, match="^p-values must be real numbers: "):
            cross_p_merge(["a"])
        with pytest.raises(OutOfRangeError, match="^entries must be real numbers: "):
            harmonic_mean([0.5, None])
        # numbers float() reads keep their path
        assert e_to_p("2") == 0.5
        assert cross_p_merge(["0.25", np.float32(0.75)], adjusted=False) == 0.5
        assert harmonic_mean(["0.5", 0.5]) == 0.5

    def test_harmonic_vs_arithmetic(self):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            m = int(rng.integers(1, 20))
            ps = rng.uniform(1e-6, 1.0, m)
            harm = harmonic_mean(ps)
            arith = math.fsum(ps) / m
            assert harm <= arith + 1e-12
            # harmonic mean of p equals 1 / arithmetic mean of e = 1/p
            inverse_mean = math.fsum(1.0 / p for p in ps) / m
            assert abs(harm - 1.0 / inverse_mean) <= 1e-12

    def test_harmonic_edge_cases(self):
        assert harmonic_mean((0.5, 0.0)) == 0.0
        # the reciprocal of a subnormal overflows to inf
        assert harmonic_mean((1e-320,)) == 1e-320
        assert harmonic_mean((1e-320, 1.0)) == 2 * 1e-320
        # finite reciprocals whose sum overflows
        assert harmonic_mean((1e-308, 1e-308)) == 1e-308
        with pytest.raises(OutOfRangeError):
            harmonic_mean(())
        with pytest.raises(OutOfRangeError):
            harmonic_mean((-1.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_harmonic_mean_needs_finite_entries(self, bad):
        with pytest.raises(NonFiniteEntryError, match="entries must be finite"):
            harmonic_mean((0.5, bad))

    def test_cross_p_merge(self):
        assert cross_p_merge((0.1, 0.3), adjusted=False) == 0.2
        assert cross_p_merge((0.1, 0.3)) == 0.4
        assert cross_p_merge((0.9, 0.9)) == 1.0  # capped
        with pytest.raises(OutOfRangeError):
            cross_p_merge(())
        with pytest.raises(OutOfRangeError):
            cross_p_merge((0.0, 0.5))
        with pytest.raises(OutOfRangeError):
            cross_p_merge((1.2,))


class TestPredictionSets:
    TABLE = PlausibilityTable(("A", "B", "C"), (0.05, 0.5, 1.2))

    def test_threshold_examples(self):
        assert e_prediction_set(self.TABLE, 0.1) == ("B", "C")

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(777)
        for _ in range(200):
            values = rng.exponential(0.4, 4)
            table = PlausibilityTable(("a", "b", "c", "d"), tuple(values))
            eps = sorted(rng.uniform(0.01, 0.99, 2))
            larger = set(e_prediction_set(table, eps[0]))
            smaller = set(e_prediction_set(table, eps[1]))
            assert smaller <= larger

    def test_zero_values_are_never_kept(self):
        table = PlausibilityTable(("a", "b"), (0.0, 2.0))
        assert e_prediction_set(table, 5e-324) == ("b",)

    def test_epsilon_domain(self):
        with pytest.raises(OutOfRangeError):
            e_prediction_set(self.TABLE, 0.0)
        with pytest.raises(OutOfRangeError):
            e_prediction_set(self.TABLE, 1.0)


class TestOnlineTrace:
    def test_running_means_exact(self):
        rng = np.random.default_rng(11)
        es = rng.exponential(1.0, 64)
        trace = OnlineTrace(es)
        assert trace.e_values == tuple(es.tolist())
        for i in range(64):
            assert trace.running_means[i] == math.fsum(es[: i + 1]) / (i + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        es=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 1e300),
                st.floats(5e-324, 2.3e-308),  # subnormals and the smallest normals
                st.sampled_from((1.0, 2.0**-53, 2.0**-106, 1e16, 3.0, 0.1)),
            ),
            min_size=1,
            max_size=2000,
        )
    )
    # exact prefix sums halfway between two doubles (ties to even), and
    # sums just past halfway, which a float running sum rounds down
    @example(es=[1.0, 2.0**-53])
    @example(es=[1.0 + 2.0**-52, 2.0**-53])
    @example(es=[1e16, 1.0, 2.0])
    @example(es=[1.0, 2.0**-53, 2.0**-106])
    # subnormals, and a tiny term between two huge ones
    @example(es=[5e-324, 5e-324, 0.0, 2.2250738585072014e-308])
    @example(es=[1e300, 1e-300, 1e300])
    def test_running_means_match_a_fresh_fsum_per_prefix(self, es):
        means = OnlineTrace(es).running_means
        assert means == tuple(math.fsum(es[: i + 1]) / (i + 1) for i in range(len(es)))

    def test_prefix_sum_overflow_raises(self):
        with pytest.raises(OverflowError):
            OnlineTrace((sys.float_info.max, sys.float_info.max))

    def test_validation(self):
        for es in ((), (math.nan,), (math.inf,), (-1.0,), (1.0, -0.5)):
            with pytest.raises(OutOfRangeError):
                OnlineTrace(es)
        # the means are derived, never passed in
        with pytest.raises(TypeError):
            OnlineTrace((1.0, 3.0), (7.0, -2.0))
        with pytest.raises(TypeError):
            OnlineTrace((1.0,), running_means=(1.0,))
