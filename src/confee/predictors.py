"""Split, cross, and full conformal e-predictors, plus p-value baselines.

A cross predictor fits one rule on the whole training set and the fold
of every row (see conformity.ConformityRule). Fold k calibrates on its
rows, scored once at fit time against the rule's fit on the rows outside
it, and for a query (x, y) normalizes those calibration summaries
together with the candidate's summary; the fold's e-value for y is the
last component. The fold e-values merge by an arithmetic mean, which
keeps the result an e-value. A split predictor is the one-fold case: its
calibration rows are the last c training rows, the rows before them are
in no fold, and there is nothing to merge. The full predictor applies an
e-assignment to the training sequence extended by the candidate example.

Every query is one pass: `predict` scores each (fold, candidate label)
pair once, in one rule call, normalizes the candidates of all folds
together by its normalizer's kind (`normalize._blocks`: one block and one
e-vector check per group of folds of equal size, each fold's (L, c+1)
block a view of it), and returns one CrossTable, built by its public
constructor, that also carries what the e-values were computed from (the
calibration summaries, the (K, L) candidate summaries and the normalized
blocks), so reports and the p-value side need no second pass. A split
predictor's answer is the one-fold table. `_stacked_tables` gives the
tables of a chunk of knn trials, each fitted and queried at its test
point's label, from one stacked fit and query, which compares the labels
as drawn, and one `_blocks` call for all their folds; every table merges
its folds through the same `_cross_table` as `predict`.

p-value counterparts are included for comparison experiments: the split
conformal p-values of every fold (`CrossTable.p_values`, a (K, L) array)
and the cross-conformal merge, whose arithmetic mean of fold p-values
needs the factor-2 adjustment to be usable at face value.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .conformity import ConformityRule, _check_params, _stacked_summaries, train_conformity
from .core import (
    ClassificationTask,
    Dataset,
    EValueVector,
    FoldPartition,
    Observation,
    PlausibilityTable,
    SummaryVector,
    _ONE,
    _fold_sizes,
    _integer,
    _py_scalar,
    _real_floats,
    float_units,
    make_fold_partition,
)
from .errors import LabelOutOfSpaceError, NonFiniteEntryError, OutOfRangeError
from .normalize import Normalizer, _blocks, get_normalizer

WEIGHTINGS = ("uniform", "size_proportional")


def _query_labels(task, labels: Optional[Sequence]) -> tuple:
    """The candidate labels of a query: for None, the task's candidates,
    which the task validated when it was built, with no check repeated.

    Labels a caller passes are checked before anything is scored. A
    candidate of a classification task must be one of its labels, and one
    of a regression task a finite real number; LabelOutOfSpaceError names
    the first that is not. An empty list, or one that repeats a label,
    raises OutOfRangeError. numpy scalars come back as Python scalars, as a
    table holds them.
    """
    if labels is None:
        return task.candidates
    labels = tuple(labels)
    if not labels:
        raise OutOfRangeError("no candidate labels")
    for y in labels:
        if isinstance(task, ClassificationTask):
            if y not in task.labels:
                raise LabelOutOfSpaceError(f"label {y!r} not in task labels")
        elif not (isinstance(y, numbers.Real) and math.isfinite(y)):
            raise LabelOutOfSpaceError(f"label {y!r} is not a finite real number")
    if len(set(labels)) != len(labels):
        raise OutOfRangeError("duplicate candidate labels")
    return tuple(map(_py_scalar, labels))


class _EPredictor:
    """The query contract every e-predictor keeps.

    `predict(x, labels=None)` returns a PlausibilityTable of the e-values
    of the candidate labels at object x; `labels` defaults to the task's
    candidates and is checked by `_query_labels` otherwise. Every
    predictor also answers `component_bound()`: a bound on each e-value
    it outputs, or None if it declares none.
    """

    def e_at(self, x: Sequence[float], y) -> float:
        """E-value of candidate label y at object x."""
        return self.predict(x, (y,)).values[0]


@dataclass(frozen=True, eq=False)
class CrossTable(PlausibilityTable):
    """A cross predictor's e-values with what each fold computed them from.

    For the K folds, `calibration[k]` is fold k's calibration summaries (a
    read-only array), row k of `sigmas`, a read-only (K, L) array, holds
    the candidates' summaries against fold k, and row i of `blocks[k]`, a
    read-only (L, c_k + 1) array, normalizes calibration[k] followed by
    sigmas[k, i]. values[i] merges the fold e-values of labels[i]; with one
    fold it is that fold's e-value. Tables compare by labels and values.
    """

    calibration: tuple
    sigmas: np.ndarray
    blocks: tuple

    @property
    def fold_values(self) -> np.ndarray:
        """(K, L): fold k's e-value of labels[i], the last column of blocks[k]."""
        return np.array([block[:, -1] for block in self.blocks])

    @property
    def p_values(self) -> np.ndarray:
        """(K, L) split conformal p-values of every fold:
        (#{sigma_i <= sigma_y} + 1) / (c + 1)."""
        return np.array([
            ((cal[None, :] <= row[:, None]).sum(axis=1) + 1) / (cal.size + 1)
            for cal, row in zip(self.calibration, self.sigmas)
        ])


def _merge(weighting: str, sizes: Sequence[int], fold_values: Sequence[float]) -> float:
    """One label's fold e-values merged: their mean for "uniform", and for
    "size_proportional" their mean weighted by the folds' `sizes`."""
    if weighting == "uniform":
        return math.fsum(fold_values) / len(fold_values)
    return math.fsum(s * e for s, e in zip(sizes, fold_values)) / sum(sizes)


def _cross_table(labels, calibration, sigmas, blocks, weighting: str) -> CrossTable:
    """The CrossTable of one query, whose value for labels[i] merges the
    fold e-values of row i of the blocks (see CrossTable); one fold is not
    merged, since a size_proportional mean, s * e / s, can round e."""
    columns = [block[:, -1].tolist() for block in blocks]
    if len(blocks) == 1:
        values = columns[0]
    else:
        sizes = [fold.size for fold in calibration]
        values = [_merge(weighting, sizes, column) for column in zip(*columns)]
    return CrossTable(labels, values, calibration, sigmas, blocks)


@dataclass(frozen=True, eq=False)
class CrossEPredictor(_EPredictor):
    """One rule fitted on the training set and the fold of every row; fold
    k calibrates on its rows against the rule's fit on the rows outside
    it, and the fold e-values merge by an arithmetic mean.

    calibration_summaries[k] holds the summaries of fold k's rows, in
    that fold's order, one vector for each of the rule's K folds. weighting
    "uniform" averages fold e-values by 1/K; "size_proportional" weights
    each fold by its size over the folds' total (identical when folds are
    equal). Either way the merge is a convex combination of e-values, so
    validity survives the merge. A one-fold predictor is a split
    predictor: it has nothing to merge, and its table's values are its
    fold's e-values.
    """

    rule: ConformityRule
    calibration_summaries: tuple
    normalizer: Normalizer
    task: object
    weighting: str = "uniform"

    def __post_init__(self):
        if self.weighting not in WEIGHTINGS:
            raise OutOfRangeError(f"weighting must be one of {WEIGHTINGS}")
        if len(self.calibration_summaries) != self.rule.K:
            raise OutOfRangeError("need exactly one calibration vector per fold")

    def predict(self, x: Sequence[float], labels: Optional[Sequence] = None) -> CrossTable:
        """Score every (fold, candidate) pair in one rule call, normalize the
        candidates of all folds together, and merge the folds' e-values.

        `labels` defaults to the task's candidates. An empty list, a
        repeated label, a label outside the task's label space, or a
        non-finite x raises before anything is scored."""
        labels = _query_labels(self.task, labels)
        sigmas = self.rule.score_folds(x, labels)
        sigmas.setflags(write=False)
        folds = self.calibration_summaries
        calibration = tuple(fold.array for fold in folds)
        positives = [fold.positive for fold in folds]
        blocks = _blocks(self.normalizer.kind, calibration, positives, sigmas, folds)
        return _cross_table(labels, calibration, sigmas, blocks, self.weighting)

    def component_bound(self) -> Optional[float]:
        """The largest fold bound (a mean of e-values never exceeds it);
        None if any fold declares no bound."""
        bounds = [self.normalizer.component_bound(len(c) + 1) for c in self.calibration_summaries]
        return None if None in bounds else max(bounds)


def fit_split(
    training: Dataset,
    calibration_size: int,
    kind: str = "knn",
    normalizer: Union[str, Normalizer] = "mean",
    **rule_params,
) -> CrossEPredictor:
    """The last calibration_size rows calibrate against a rule trained on
    the rows before them: a one-fold fit, its calibration rows in fold 0
    and the rest in no fold."""
    n, c = training.n, _integer(calibration_size, "calibration_size")
    if not 1 <= c <= n - 1:
        raise OutOfRangeError(f"calibration_size {c} must lie in 1..{n - 1}")
    _check_params(kind, rule_params)
    rule = train_conformity(kind, training, fold_of=np.repeat([-1, 0], [n - c, c]), **rule_params)
    calibration = SummaryVector(rule.held_out[n - c :])
    return CrossEPredictor(rule, (calibration,), get_normalizer(normalizer), training.task)


def fit_cross_from_partition(
    training: Dataset,
    partition: FoldPartition,
    kind: str = "knn",
    normalizer: Union[str, Normalizer] = "mean",
    weighting: str = "uniform",
    **rule_params,
) -> CrossEPredictor:
    """One rule fit on the training set and the partition; fold k's
    calibration summaries are its rows' held-out summaries. The partition
    must cover exactly the training rows."""
    if partition.n != training.n:
        raise OutOfRangeError(
            f"the partition covers {partition.n} rows; the training set has {training.n}"
        )
    _check_params(kind, rule_params)
    rule = train_conformity(kind, training, fold_of=partition.fold_of, **rule_params)
    calibration = tuple(SummaryVector(rule.held_out[fold]) for fold in partition.folds)
    return CrossEPredictor(rule, calibration, get_normalizer(normalizer), training.task, weighting)


def fit_cross(
    training: Dataset,
    K: int,
    seed: int,
    kind: str = "knn",
    normalizer: Union[str, Normalizer] = "mean",
    weighting: str = "uniform",
    **rule_params,
) -> CrossEPredictor:
    """Partition the training set into K seeded folds and fit once."""
    partition = make_fold_partition(training.n, K, seed)
    return fit_cross_from_partition(training, partition, kind, normalizer, weighting, **rule_params)


def _stacked_tables(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    K: int,
    k: int,
    kind: str,
    weighting: str,
) -> list:
    """What B knn predictors answer, fitted and queried at once: for each
    set b of n + 1 rows X[b] with labels y[b], the CrossTable that a split
    (K = 1) or cross predictor fitted on its first n rows, with a
    normalizer of kind `kind` and weighting `weighting`, gives for its last
    row at that row's label, y[b, n], bit for bit.

    The K folds of set b are consecutive slices of rows[b], of the sizes
    core._fold_sizes gives, and keep their rows in that order, as its
    calibration vectors do (a split fit's one fold is its calibration
    rows); the other rows are in no fold. The summaries come from
    conformity._stacked_summaries, which compares the labels as drawn, and
    the B·K folds are normalized in one normalize._blocks call, the routine
    `predict` normalizes by. A knn summary lies in [0, 1], so only
    positivity is checked, once per fold, as a fit's SummaryVector checks
    it: a summary whose distances overflow is 0.0, and _blocks refuses its
    fold. Each table merges its folds through _cross_table, as `predict`
    does.
    """
    B, n = X.shape[0], X.shape[1] - 1
    sizes = _fold_sizes(rows.shape[1], K)
    bounds = [0, *accumulate(sizes)]
    row_folds = np.repeat(np.arange(K), sizes)
    fold_of = np.full((B, n), -1)
    np.put_along_axis(fold_of, rows, row_folds[None, :], axis=1)
    # the points scored: each set's fold rows, then its test row (row n)
    # once per fold
    take = np.concatenate((rows, np.full((B, K), n)), axis=1)
    summaries = _stacked_summaries(
        X[:, :n],
        y[:, :n],
        fold_of,
        np.take_along_axis(X, take[:, :, None], axis=1),
        np.take_along_axis(y, take, axis=1),
        np.concatenate((row_folds, np.arange(K))),
        k,
    )
    summaries.setflags(write=False)
    held = summaries[:, : bounds[-1]]
    positives = np.logical_and.reduceat(held > 0, bounds[:-1], axis=1).ravel().tolist()
    calibrations = [row[lo:hi] for row in held for lo, hi in zip(bounds, bounds[1:])]
    sigmas = summaries[:, bounds[-1] :].reshape(B * K, 1)
    sigmas.setflags(write=False)
    blocks = _blocks(kind, calibrations, positives, sigmas)
    return [
        _cross_table(
            (label,),
            tuple(calibrations[b * K : (b + 1) * K]),
            sigmas[b * K : (b + 1) * K],
            blocks[b * K : (b + 1) * K],
            weighting,
        )
        for b, label in enumerate(y[:, n].tolist())
    ]


@dataclass(frozen=True)
class FullTable(PlausibilityTable):
    """E-values with the assignment vector each was read from (candidate last)."""

    vectors: tuple = ()


@dataclass(frozen=True, eq=False)
class FullEPredictor(_EPredictor):
    """Applies an e-assignment to the training sequence plus the candidate.

    The assignment maps a finite observation sequence to an EValueVector of
    the same length; the candidate example goes last, and its component is
    the reported e-value. The assignment is arbitrary, so the predictor
    declares no bound on its e-values.
    """

    training: Dataset
    assignment: Callable[[Sequence[Observation]], EValueVector]

    def __post_init__(self):
        object.__setattr__(self, "_observations", tuple(self.training.observations()))

    def predict(self, x: Sequence[float], labels: Optional[Sequence] = None) -> FullTable:
        """One assignment per candidate label, kept alongside its e-value.

        `labels` defaults to the task's candidates; an empty list, a
        repeated label, or a label outside the task's label space raises
        before any assignment runs."""
        labels = _query_labels(self.training.task, labels)
        vectors = tuple(
            self.assignment((*self._observations, Observation(tuple(x), y))) for y in labels
        )
        return FullTable(labels, tuple(v.values[-1] for v in vectors), vectors)

    def component_bound(self) -> None:
        """None: an arbitrary assignment bounds nothing."""
        return None


def cross_p_merge(p_values: Sequence[float], adjusted: bool = True) -> float:
    """Arithmetic mean of fold p-values, doubled and capped by default.

    The unadjusted mean (adjusted=False) is exposed for comparison but is
    not a p-value in general; the factor-2 version is.
    """
    ps = _real_floats(p_values, "p-values")
    if not ps:
        raise OutOfRangeError("no p-values to merge")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise OutOfRangeError(f"p-value {p} not in (0, 1]")
    mean = math.fsum(ps) / len(ps)
    return min(1.0, 2.0 * mean) if adjusted else mean


def e_to_p(e: float) -> float:
    """Calibrate an e-value into a p-value: p = min(1, 1/e)."""
    (e,) = _real_floats((e,), "e-value")
    if not math.isfinite(e) or e < 0.0:
        raise OutOfRangeError(f"e-value {e} must be finite and nonnegative")
    if e == 0.0:
        return 1.0
    return min(1.0, 1.0 / e)


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean; zero if any entry is zero. Never beats the arithmetic mean."""
    vals = _real_floats(values, "entries")
    if not vals:
        raise OutOfRangeError("empty sequence")
    if not all(math.isfinite(v) for v in vals):
        raise NonFiniteEntryError("entries must be finite")
    if any(v < 0 for v in vals):
        raise OutOfRangeError("harmonic mean needs nonnegative entries")
    if any(v == 0 for v in vals):
        return 0.0
    with suppress(OverflowError):
        inverse_sum = math.fsum(1.0 / v for v in vals)
        if inverse_sum < math.inf:
            return len(vals) / inverse_sum
    # the reciprocals of tiny entries overflow, or their sum does; scaled
    # by the smallest entry, every term is at most 1
    low = min(vals)
    return len(vals) * low / math.fsum(low / v for v in vals)


def e_prediction_set(table: PlausibilityTable, epsilon: float) -> tuple:
    """Labels whose e-value strictly exceeds epsilon: {y : e^y > epsilon}."""
    (eps,) = _real_floats((epsilon,), "epsilon")
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"epsilon {eps} not in (0, 1)")
    return tuple(lab for lab, v in zip(table.labels, table.values) if v > eps)


@dataclass(frozen=True)
class OnlineTrace:
    """Realized e-values at the true labels and their prefix averages.

    Every double is a whole multiple of 2**-1074, so the prefix sums are
    kept exactly as integers in those units (`core.float_units`). Dividing
    one by `core._ONE` = 2**1074 is Python's correctly rounded int/int
    division: the prefix sum math.fsum gives, bit for bit, and
    OverflowError where that sum overflows.
    """

    e_values: tuple
    running_means: tuple = field(init=False)

    def __post_init__(self):
        es = _real_floats(self.e_values, "trace e-values")
        if not es:
            raise OutOfRangeError("trace must be non-empty")
        if any(not math.isfinite(e) or e < 0 for e in es):
            raise OutOfRangeError("e-values must be finite and nonnegative")
        sums = accumulate(map(float_units, es))
        means = tuple(s / _ONE / i for i, s in enumerate(sums, 1))
        object.__setattr__(self, "e_values", es)
        object.__setattr__(self, "running_means", means)

    def __len__(self) -> int:
        return len(self.e_values)
