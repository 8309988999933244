"""Trainable conformity rules and the support-set e-assignment.

Orientation convention: HIGHER summary means MORE conforming. The
normalizing transformations divide by the total, so more conforming
candidate labels receive larger e-values, and p-values count calibration
summaries at or below the candidate's. Everything downstream relies on
this orientation; new rules must follow it.

Fitting is insensitive to the order of the training set proper at the bit
level: ridge sorts its rows into a canonical order before solving, and the
knn score picks the k smallest distances of each row with np.partition and
sorts only those before averaging them.

The knn distance kernel adds squared coordinate differences column by
column in the order numpy's own pairwise summation uses, so its distances
equal np.sqrt((diff * diff).sum(axis=2)) bit for bit without building the
(a, b, d) difference tensor; it relies on that summation order, which
tests/test_conformity.py::TestDistanceKernel checks against the tensor
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, EValueVector, Observation, RegressionTask
from .errors import (
    DimensionMismatchError,
    EmptyProperSetError,
    EmptySupportSetError,
    KTooLargeError,
    OutOfRangeError,
    SingularSystemError,
)

#: Summary assigned by knn when no proper point shares the candidate label.
EPSILON_FLOOR = 1e-6


#: numpy's pairwise summation adds up to this many terms in 8 lanes before
#: it splits a sum in two (PW_BLOCKSIZE in its loops).
_PAIRWISE_BLOCK = 128


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of A and rows of B, exact per entry.

    Bit-identical to np.sqrt(((A[:, None] - B[None]) ** 2).sum(axis=2)), but
    only (a, b) arrays are built: the squared differences of one coordinate
    at a time are added in the order numpy's pairwise sum adds a row's terms.
    """

    def square(j: int) -> np.ndarray:
        sq = np.subtract.outer(A[:, j], B[:, j])
        return np.multiply(sq, sq, out=sq)

    def total(lo: int, n: int) -> np.ndarray:
        if n < 8:
            # the sum starts from 0.0, and 0.0 + s == s for a square s
            acc = square(lo)
            for j in range(lo + 1, lo + n):
                acc += square(j)
            return acc
        if n <= _PAIRWISE_BLOCK:
            r = [square(lo + j) for j in range(8)]
            tail = lo + n - n % 8
            for i in range(lo + 8, tail, 8):
                for j in range(8):
                    r[j] += square(i + j)
            # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), in place
            r[0] += r[1]
            r[2] += r[3]
            r[0] += r[2]
            r[4] += r[5]
            r[6] += r[7]
            r[4] += r[6]
            r[0] += r[4]
            for j in range(tail, lo + n):
                r[0] += square(j)
            return r[0]
        half = n // 2
        half -= half % 8
        acc = total(lo, half)
        acc += total(lo + half, n - half)
        return acc

    return np.sqrt(total(0, A.shape[1]))


class ConformityRule:
    """Base class: a fitted map from examples to real summaries.

    Subclasses implement score_many with arithmetic that treats each row
    independently, so a summary never depends on what else is in the
    batch; score_one is then a one-row batch by construction.
    """

    kind: str
    dim: int

    def score_many(self, X: np.ndarray, y) -> np.ndarray:
        raise NotImplementedError

    def score_rows(self, data: Dataset) -> np.ndarray:
        """Summaries of a dataset's own examples, in row order."""
        return self.score_many(data.X, data.y)

    def score_one(self, x: Sequence[float], y) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(f"expected {self.dim} features, got {x.shape}")
        return float(self.score_many(x[None, :], [y])[0])

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected (n, {self.dim}) features, got {X.shape}")
        return X


def _by_label(labels, codes: np.ndarray) -> tuple:
    """(order, label -> slice): the stable order that groups rows by code,
    and the slice of that order holding each label with rows."""
    order = np.argsort(codes, kind="stable")
    bounds = [0, *np.bincount(codes, minlength=len(labels)).cumsum().tolist()]
    return order, {
        label: slice(lo, hi) for label, lo, hi in zip(labels, bounds, bounds[1:]) if hi > lo
    }


class KnnRule(ConformityRule):
    """sigma = 1 / (1 + mean distance to the k nearest same-label points).

    If fewer than k proper points share the label, the mean runs over the
    ones available; if none do, the summary falls back to EPSILON_FLOOR so
    it stays strictly positive.

    The fit keeps the proper rows sorted by label number (`label_codes`),
    one contiguous block per label, found by the label's value, so the
    rows of a separately validated dataset with the same labels meet the
    same blocks.
    """

    kind = "knn"

    def __init__(self, proper: Dataset, k: int = 3):
        if k < 1:
            raise OutOfRangeError(f"k={k}; need at least 1 neighbour")
        if k > proper.n:
            raise KTooLargeError(f"k={k} exceeds the {proper.n} proper points")
        self.k = k
        self.dim = proper.dim
        order, self._blocks = _by_label(*proper.label_codes)
        self._X = proper.X[order]

    def score_many(self, X, y) -> np.ndarray:
        # an array's labels come out of tolist() as Python scalars; numpy
        # scalars in a plain sequence hash and compare like the ones they hold
        groups: dict = {}
        for i, label in enumerate(y.tolist() if isinstance(y, np.ndarray) else y):
            groups.setdefault(label, []).append(i)
        return self._score(self._check_batch(X), groups)

    def score_rows(self, data: Dataset) -> np.ndarray:
        order, slices = _by_label(*data.label_codes)
        groups = {label: order[rows] for label, rows in slices.items()}
        return self._score(self._check_batch(data.X), groups)

    def _score(self, X: np.ndarray, groups: dict) -> np.ndarray:
        """Summaries of X's rows; groups maps a label to its rows of X."""
        out = np.full(X.shape[0], EPSILON_FLOOR)
        for label, rows in groups.items():
            block = self._blocks.get(label)
            if block is None:
                continue
            D = _pairwise_distances(X[rows], self._X[block])
            kk = min(self.k, D.shape[1])
            # the kk smallest, sorted: the same values in the same order as
            # the head of a full sort, so the mean is bit for bit the same
            if kk < D.shape[1]:
                D = np.partition(D, kk - 1, axis=1)
            # the sum and division that ndarray.mean makes, without its wrapper
            out[rows] = 1.0 / (1.0 + np.add.reduce(np.sort(D[:, :kk], axis=1), axis=1) / kk)
        return out


class RidgeRule(ConformityRule):
    """sigma = 1 / (1 + |y - x.beta|) with beta from ridge regression.

    No intercept; labels must be numeric (regression, or classification
    encoded as -1/+1). Training rows are sorted into a canonical order
    first, so the fit depends on the training multiset only, bit for bit.
    """

    kind = "ridge"

    def __init__(self, proper: Dataset, lam: float = 1.0):
        if lam < 0:
            raise OutOfRangeError(f"lam={lam} must be nonnegative")
        if not math.isfinite(lam):
            raise OutOfRangeError("lam must be finite")
        yf = _numeric_labels(proper)
        self.lam = float(lam)
        self.dim = proper.dim
        X = proper.X
        order = np.lexsort((yf,) + tuple(X[:, j] for j in reversed(range(X.shape[1]))))
        Xs, ys = X[order], yf[order]
        if self.lam == 0.0 and np.linalg.matrix_rank(Xs) < self.dim:
            raise SingularSystemError(
                "design is rank-deficient and lam=0; pass lam > 0 to regularize"
            )
        gram = Xs.T @ Xs + self.lam * np.eye(self.dim)
        try:
            beta = np.linalg.solve(gram, Xs.T @ ys)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        self.beta = beta

    def score_many(self, X, y) -> np.ndarray:
        X = self._check_batch(X)
        try:
            yf = np.asarray([float(v) for v in y])
        except (TypeError, ValueError):
            raise OutOfRangeError(f"ridge needs numeric labels, got {list(y)!r}") from None
        # row-wise multiply-and-sum instead of a matrix product: the BLAS
        # kernel may round differently for different batch shapes
        preds = (X * self.beta).sum(axis=1)
        return 1.0 / (1.0 + np.abs(yf - preds))


def _numeric_labels(proper: Dataset) -> np.ndarray:
    if isinstance(proper.task, RegressionTask):
        return np.asarray(proper.y, dtype=float)
    values = set(proper.y.tolist())
    if not values <= {-1, 1}:
        raise OutOfRangeError(
            f"ridge on classification needs -1/+1 labels, got {sorted(map(str, values))}"
        )
    return np.asarray([float(v) for v in proper.y])


#: The rule kinds train_conformity fits.
RULE_KINDS = ("knn", "ridge")


def train_conformity(kind: str, proper: Dataset, **params) -> ConformityRule:
    """Fit a conformity rule of the given kind on the training set proper.

    kinds (RULE_KINDS): "knn" (param k, default 3) and "ridge" (param lam,
    default 1.0).
    The fitted state is a deterministic function of (kind, params, proper
    as a multiset).
    """
    if len(proper) == 0:
        raise EmptyProperSetError("training set proper is empty")
    if kind == "knn":
        return KnnRule(proper, **params)
    if kind == "ridge":
        return RidgeRule(proper, **params)
    raise OutOfRangeError(f"unknown conformity kind {kind!r}")


@dataclass(frozen=True)
class SupportSet:
    """0-based indices of designated points within a length-m sequence."""

    indices: tuple
    m: int

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        if self.m < 1:
            raise OutOfRangeError("support set needs a positive sequence length")
        if len(set(indices)) != len(indices):
            raise OutOfRangeError("duplicate support indices")
        if any(i < 0 or i >= self.m for i in indices):
            raise OutOfRangeError(f"support indices must lie in 0..{self.m - 1}")
        object.__setattr__(self, "indices", tuple(sorted(indices)))

    def __contains__(self, i: int) -> bool:
        return int(i) in set(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def support_set_e_values(support: SupportSet) -> EValueVector:
    """Spread total mass m evenly over the support set.

    Component i gets m/|SV| if i is in the support set SV, else 0; the mean
    is then exactly 1. An empty support set has no valid assignment.
    """
    if len(support) == 0:
        raise EmptySupportSetError("support set is empty")
    share = support.m / len(support)
    members = set(support.indices)
    return EValueVector(
        tuple(share if i in members else 0.0 for i in range(support.m))
    )


def unit_margin_provider(
    w: Sequence[float], b: float = 0.0, positive_label=1
) -> Callable[[Sequence[Observation]], SupportSet]:
    """Support set = observations within unit margin of the hyperplane w.x + b.

    An observation counts as support when s * (w.x + b) <= 1, where s is +1
    for the positive label and -1 otherwise (so misclassified points always
    count). Mirrors which points would constrain a maximum-margin separator.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or not np.isfinite(w).all() or not math.isfinite(b):
        raise OutOfRangeError("w must be a finite vector and b a finite scalar")
    b = float(b)

    def provider(observations: Sequence[Observation]) -> SupportSet:
        obs = list(observations)
        indices = []
        for i, z in enumerate(obs):
            if len(z.x) != w.size:
                raise DimensionMismatchError(
                    f"observation {i} has {len(z.x)} features, w has {w.size}"
                )
            s = 1.0 if z.y == positive_label else -1.0
            if s * (float(np.dot(w, z.x)) + b) <= 1.0:
                indices.append(i)
        return SupportSet(tuple(indices), len(obs))

    return provider


def support_set_assignment(
    provider: Callable[[Sequence[Observation]], SupportSet],
) -> Callable[[Sequence[Observation]], EValueVector]:
    """Turn a support-set provider into a full e-assignment over sequences."""

    def assignment(observations: Sequence[Observation]) -> EValueVector:
        return support_set_e_values(provider(observations))

    return assignment
