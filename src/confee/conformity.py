"""Trainable conformity rules and the support-set e-assignment.

Orientation convention: HIGHER summary means MORE conforming. The
normalizing transformations divide by the total, so more conforming
candidate labels receive larger e-values, and p-values count calibration
summaries at or below the candidate's. Everything downstream relies on
this orientation; new rules must follow it.

Fitting is insensitive to the order of the training set proper at the bit
level: ridge sorts its rows into a canonical order before solving, and the
knn score sorts each distance vector before averaging the k smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, EValueVector, Observation, RegressionTask, make_e_vector
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


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of A and rows of B, exact per entry."""
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


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


class KnnRule(ConformityRule):
    """sigma = 1 / (1 + mean distance to the k nearest same-label points).

    If fewer than k proper points share the label, the mean runs over the
    ones available; if none do, the summary falls back to EPSILON_FLOOR so
    it stays strictly positive.
    """

    kind = "knn"

    def __init__(self, proper: Dataset, k: int = 3):
        if k < 1:
            raise OutOfRangeError(f"k={k}; need at least 1 neighbour")
        if k > proper.n:
            raise KTooLargeError(f"k={k} exceeds the {proper.n} proper points")
        self.k = k
        self.dim = proper.dim
        self._X = proper.X
        self._rows_by_label = {}
        for i, label in enumerate(proper.y):
            self._rows_by_label.setdefault(_as_key(label), []).append(i)
        self._rows_by_label = {
            lab: np.asarray(rows, dtype=int) for lab, rows in self._rows_by_label.items()
        }

    def score_many(self, X, y) -> np.ndarray:
        X = self._check_batch(X)
        out = np.full(X.shape[0], EPSILON_FLOOR)
        groups: dict = {}
        for i, label in enumerate(y):
            groups.setdefault(_as_key(label), []).append(i)
        for label, rows in groups.items():
            proper_rows = self._rows_by_label.get(label)
            if proper_rows is None:
                continue
            D = np.sort(_pairwise_distances(X[rows], self._X[proper_rows]), axis=1)
            kk = min(self.k, proper_rows.size)
            out[rows] = 1.0 / (1.0 + D[:, :kk].mean(axis=1))
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


def _as_key(label):
    """Hashable lookup key for a label; numpy scalars fold into Python ones."""
    if isinstance(label, np.generic):
        return label.item()
    return label


def _numeric_labels(proper: Dataset) -> np.ndarray:
    if isinstance(proper.task, RegressionTask):
        return np.asarray(proper.y, dtype=float)
    values = set(_as_key(v) for v in proper.y)
    if not values <= {-1, 1}:
        raise OutOfRangeError(
            f"ridge on classification needs -1/+1 labels, got {sorted(map(str, values))}"
        )
    return np.asarray([float(v) for v in proper.y])


def train_conformity(kind: str, proper: Dataset, **params) -> ConformityRule:
    """Fit a conformity rule of the given kind on the training set proper.

    kinds: "knn" (param k, default 3) and "ridge" (param lam, default 1.0).
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
    return make_e_vector(
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
