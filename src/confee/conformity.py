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

Every rule has one fit and one query. `train_conformity(kind, training,
fold_of=...)` fits on the whole training set and the fold of every row
(-1 for a row in no fold); fold f's proper rows are the rows outside it.
A cross fit passes its partition's folds; a split fit is the one-fold
case, its calibration rows in fold 0 and its proper rows in none. knn
sorts the rows once by label and then by fold, so fold f's proper rows of
a label are the slices before and after fold f's slice of that label's
block. The fit and the query mask them with one routine, `_hide_folds`:
given the distances of some rows to a whole label block, it sets each
fold's own slice of the block to inf in that fold's rows, and the rows
that keep the same number of the label's rows share one selection. A
query passes one distance row per label, copied once per fold; the fit
passes a block of at most MASKED_BLOCK = 128 rows as one distance matrix
of its fold rows against the whole block, and takes a larger block with
one distance call per fold, against the fold's proper rows. So a fold
row's held-out summary is the query's summary of that row in its own
fold. One function, `_nearest_summaries`, turns the nearest distances
into summaries for fits, queries and table walks. Ridge solves once per
fold on the rows outside it and scores through one routine,
`_ridge_summaries`: each row of features against its own fold's
coefficients, in one row-wise multiply-and-sum, with one overflow check
that names the first fold at fault. The fit passes every fold row
against its fold's row of the stacked (K, d) coefficients, and a query
its one x against all K rows, so a fold row's held-out summary is the
query's summary of that row in its own fold. Either way every summary is
the double a fit on that fold's proper rows alone gives.

The space and compare harnesses fit and query a chunk of knn trials at
once through `_stacked_summaries`: one distance tensor of every trial's
fold rows and its test object, once per fold, against all its rows, in
which a pair is hidden where the labels differ or the folds are the same.
Each point keeps the same kk and the same kk smallest entries as in a fit
on its own trial, so every summary is that fit's.

The knn distance kernel adds the squared coordinate differences of each
pair of rows left to right, one column at a time, without building the
(a, b, d) difference tensor; tests/test_conformity.py::TestDistanceKernel
checks it against a scalar left fold. It has one overflow policy: a
distance whose sum overflows is +inf, without a warning, in fits,
queries, table walks and stacked chunks alike, and no path is chosen by
the size of the features. The masked fit and a stacked chunk compute
pairs that a per-fold fit skips (two rows of one fold, or of two labels);
those are hidden (inf) anyway, so every summary is the same double.

Fits on the prefixes of one stream (the online harness) need not refit.
A NeighbourTable keeps every stream row's TABLE_WIDTH = 64 nearest
same-label stream rows, sorted by (distance, index), built in blocks of
TABLE_BLOCK = 64 rows as the prefix reaches them; a KnnRule given the
table hands it the (label, fold) counts of its sort (see _by_label), from
which the table reads the fold count and each label's kk per fold. The
table walks each fold row's list, skipping rows past the prefix and rows
in its own fold, and takes its kk nearest from the list. The rows whose
walk runs out of their lists are scored together, by one
`_stacked_summaries` call against the prefix, the routine that stacked
trials use. The summaries are bit for bit a refit's (see NeighbourTable).
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Dataset, EValueVector, Observation, RegressionTask, _integer, _real_array, _real_floats
)
from .errors import (
    DimensionMismatchError,
    EmptyProperSetError,
    EmptySupportSetError,
    KTooLargeError,
    NonFiniteEntryError,
    OutOfRangeError,
    SingularSystemError,
)

#: Summary assigned by knn when no proper point shares the candidate label.
EPSILON_FLOOR = 1e-6


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of A and B, which broadcast
    against each other with the features on the last axis; exact per entry.

    Each entry is the square root of (a_0 - b_0)**2 + (a_1 - b_1)**2 + ...
    added left to right, one column at a time, so it is the same double
    whatever shapes it is computed in. An entry whose sum overflows is
    +inf, as it would be with numpy's warning, but without the warning, so
    every caller computes pairs that it then hides (sets to inf) whatever
    the size of the features.
    """
    with np.errstate(over="ignore"):
        acc = np.subtract(A[..., 0], B[..., 0])
        acc *= acc
        for j in range(1, A.shape[-1]):
            sq = np.subtract(A[..., j], B[..., j])
            acc += np.multiply(sq, sq, out=sq)
    return np.sqrt(acc, out=acc)


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (a, b) distances between every row of A and every row of B;
    only (a, b) arrays are built, one column at a time."""
    return _distances(A[:, None, :], B[None, :, :])


def _nearest_summaries(nearest: np.ndarray) -> np.ndarray:
    """1 / (1 + mean of each row of `nearest`), a C-contiguous (rows, kk)
    array of each row's kk nearest distances in ascending order;
    EPSILON_FLOOR for every row if kk = 0."""
    kk = nearest.shape[1]
    if kk == 0:
        return np.full(nearest.shape[0], EPSILON_FLOOR)
    # the sum and division that ndarray.mean makes, without its wrapper
    return 1.0 / (1.0 + np.add.reduce(nearest, axis=1) / kk)


def _knn_summaries(D: np.ndarray, k: int) -> np.ndarray:
    """The summaries of the kk = min(k, columns) smallest entries of each
    row of D (see _nearest_summaries).

    The kk smallest are picked with np.partition and then sorted: the same
    values in the same order as the head of a full sort, so the mean is
    bit for bit the same. An inf entry is never picked while its row has
    kk finite ones.
    """
    kk = min(k, D.shape[1])
    nearest = np.sort(np.partition(D, kk - 1, axis=1)[:, :kk], axis=1) if kk else D[:, :0]
    return _nearest_summaries(nearest)


def _hide_folds(D: np.ndarray, cuts: list, bounds: Sequence[int], k: int) -> np.ndarray:
    """The summaries of the rows of D, the distances of some rows to the
    whole label block that `cuts` bound (see _by_label), each row against
    the block's rows outside its own fold: rows bounds[f]:bounds[f + 1] of
    D are fold f's.

    Each fold's rows see the fold's own slice of the block as inf and
    average over kk = min(k, the block's rows outside the fold). The kk
    smallest entries of a masked row are the finite entries that the
    fold's proper rows alone give, so each summary is the double of a
    call on those rows alone. The rows that keep the same kk share one
    `_knn_summaries` call.
    """
    lo, size = cuts[0], cuts[-1] - cuts[0]
    kks = []  # each row's kk
    for a, b, first, last in zip(cuts[1:], cuts[2:], bounds, bounds[1:]):
        D[first:last, a - lo : b - lo] = np.inf
        kks += [min(k, size - (b - a))] * (last - first)
    return _summaries_by_kk(D, kks)


def _summaries_by_kk(D: np.ndarray, kks: list) -> np.ndarray:
    """The summaries of the kks[i] smallest entries of each row i of D (see
    _knn_summaries); the rows that share a kk share one call."""
    groups = set(kks)
    if len(groups) == 1:  # the usual case takes every row, without a copy
        return _knn_summaries(D, groups.pop())
    out = np.empty(D.shape[0])
    for kk in groups:
        rows = [i for i, c in enumerate(kks) if c == kk]
        out[rows] = _knn_summaries(D[rows], kk)
    return out


def _stacked_summaries(X, y, fold_of, points, point_y, point_folds, k: int) -> np.ndarray:
    """The knn summaries of points in B training sets at once.

    X (B, n, d) holds the sets' rows, and y and fold_of (B, n) each row's
    label and fold (-1 for a row in no fold). Entry (b, j) of the (B, p)
    result scores points[b, j] against the rows of set b that have the
    label point_y[b, j] and lie outside the fold point_folds[..., j]: a
    fold row's held-out summary, when the point is that row in its own
    fold, or a query's summary against the fold's proper rows, the double
    a KnnRule fitted on set b alone gives either way. Labels are only
    compared with `!=`, so any labelling that is equal exactly where the
    labels are equal serves: stacked trials pass the labels they drew, a
    NeighbourTable its stream's label numbers (Dataset.label_codes).

    One distance tensor holds every point against every row of its set;
    an entry is hidden (inf) where the labels differ or the folds are the
    same, so each point's kk = min(k, its visible entries) smallest entries
    are the ones that a fit on its own set selects (see _hide_folds).
    """
    n = X.shape[1]
    D = _distances(points[:, :, None, :], X[:, None, :, :])
    hide = point_y[:, :, None] != y[:, None, :]
    hide |= point_folds[..., None] == fold_of[:, None, :]
    D[hide] = np.inf
    kks = np.minimum(k, n - np.count_nonzero(hide, axis=2)).ravel().tolist()
    return _summaries_by_kk(D.reshape(-1, n), kks).reshape(hide.shape[:2])


class ConformityRule:
    """Base class: a fitted map from examples to real summaries.

    A rule is fitted on a training set and the fold of every row,
    `fold_of[i]` in 0..K-1, or -1 for a row in no fold; K is one more than
    the largest fold (at least 1). Fold f's proper rows are the rows
    outside it, so a row in no fold is proper for every fold, and without
    `fold_of` every row is proper for one empty fold. `held_out[i]` is
    training row i's summary against the proper rows of its own fold (NaN
    for a row in no fold), and score_folds scores candidates against the
    proper rows of every fold. Subclasses score each candidate
    independently, so a summary never depends on the other candidates.
    """

    dim: int
    K: int
    #: A read-only array of one summary per training row, against the
    #: proper rows of the row's own fold; NaN for a row in no fold.
    held_out: np.ndarray

    def __init__(self, training: Dataset, fold_of=None):
        """Check `fold_of` against the training set; sets dim, K, fold_of
        (an intp array) and proper (the fewest proper rows of a fold)."""
        n = training.n
        fold_of = np.full(n, -1) if fold_of is None else np.asarray(fold_of)
        if fold_of.shape != (n,) or fold_of.dtype.kind not in "iu":
            raise OutOfRangeError(
                f"fold_of must hold one integer per training row ({n}), "
                f"got {fold_of.dtype} of shape {fold_of.shape}"
            )
        if fold_of.min() < -1 or fold_of.max() > n - 1:
            raise OutOfRangeError(f"fold_of entries must lie in -1..{n - 1}")
        fold_of = fold_of.astype(np.intp, copy=False)
        sizes = np.bincount(fold_of + 1, minlength=2).tolist()[1:]
        if max(sizes) == n:
            raise EmptyProperSetError(
                f"fold {sizes.index(n)} holds every training row; its proper set is empty"
            )
        self.dim = training.dim
        self.K = len(sizes)
        self.fold_of = fold_of
        self.proper = n - max(sizes)

    def score_folds(self, x: Sequence[float], labels: Sequence) -> np.ndarray:
        """A (K, L) array: row f holds the summaries of the candidates
        (x, labels[j]) against fold f's proper rows."""
        raise NotImplementedError

    def _check_object(self, x) -> np.ndarray:
        x = _real_array(np.asarray, x, "x")
        if x.shape != (self.dim,):
            raise DimensionMismatchError(f"expected {self.dim} features, got {x.shape}")
        if not np.isfinite(x).all():
            raise NonFiniteEntryError("x must be finite")
        return x


def _by_label(labels, codes: np.ndarray, fold_of: np.ndarray, K: int) -> tuple:
    """(order, label -> cuts, counts): the stable order that sorts rows by
    label code and then by slot, fold_of + 1 (slot 0 holds the rows in no
    fold, slot f + 1 fold f's rows), for each label with rows the K + 2
    positions of that order where its slots begin and its block ends, and
    the (labels, K + 1) array of the rows of each label code in each slot."""
    S = K + 1
    key = codes * S + fold_of + 1
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=len(labels) * S).reshape(-1, S)
    bounds = [0, *counts.cumsum().tolist()]
    cuts = {
        label: bounds[i * S : (i + 1) * S + 1]
        for i, label in enumerate(labels)
        if bounds[(i + 1) * S] > bounds[i * S]
    }
    return order, cuts, counts


#: Entries of each row's list in a NeighbourTable. On a 1383-row gm2d
#: stream 64 entries keep all but the early rounds' walks inside the list,
#: in a table of 1383 x 64 int32 indices, 0.34 MiB.
TABLE_WIDTH = 64
#: Stream rows whose lists are built together: each block's distance
#: matrix is at most TABLE_BLOCK rows by one label's stream rows, which
#: keeps the build's temporaries, and so peak RSS, small.
TABLE_BLOCK = 64
#: A walk reads this many entries of each list first and the whole list
#: only for the rows that run out of them. One pass over 32 entries, with
#: the same exact-kernel fallback, lost on the online benchmark (1383
#: rounds): items_per_s read 1084 -> 1000 and 1060 -> 963, and 8 of 32
#: pairs were better. One pass over 16 or 24 entries took 22-48% and
#: 6-10% longer in process, and 40 or 48 entries were no better than 32.
FIRST_PASS = 16
#: Rows walked together. Bounding the walk's temporaries, like the
#: build's, keeps their size from growing with the prefix: unbounded, they
#: raised the online benchmark's peak RSS by 0.9 MiB at 1383 rounds.
WALK_ROWS = 512
#: A knn fit scores a label block of at most this many rows from one masked
#: distance matrix (KnnRule._masked_held_out), a larger one with one call
#: per fold. The matrix holds K/(K-1) times the loop's entries and each
#: call partitions longer rows, so it wins only while numpy's per-call
#: cost dominates: on gm2d cross fits (K=5, k=3) the held-out scoring took
#: 68 against 295 us with blocks of about 25 rows, 250 against 437 with
#: about 100, about the same with 130, and 609 against 480 with about 150.
MASKED_BLOCK = 128


class NeighbourTable:
    """Every stream row's TABLE_WIDTH nearest same-label stream rows, from
    which a knn fit on a prefix of the stream takes its held-out
    summaries without computing a distance matrix.

    Row r's list holds stream indices sorted by (distance, index), padded
    with the index n (past every prefix) where the label has fewer rows.
    r counts as infinitely far from itself, so it is left out or sorts
    last; it is never taken, being in its own fold. The lists are built a
    block of TABLE_BLOCK rows at a time, when a prefix first reaches the
    block, from `_pairwise_distances` against the label's stream rows.

    `held_out` takes the fit's (label, fold) counts from the KnnRule's
    sort, and reads the fold count and each label's kk per fold from
    them; it walks the list of each row in a fold: it skips rows past
    the prefix and rows in the row's own fold and takes the first
    kk = min(k, the label's prefix rows outside that fold). A valid row not
    in the list lies at least as far as the list's last entry, so those
    are kk smallest valid distances in ascending order: the values that
    `_knn_summaries` picks and sorts. Their distances are computed again by
    the same kernel, which gives each pair the double a fit computes (each
    entry is computed on its own, and (a - b)**2 is bitwise (b - a)**2),
    and go through the fit's own `_nearest_summaries` as a C-contiguous
    (rows, kk) array, so every summary is bit for bit a fit's. The rows
    whose walk runs out take one `_stacked_summaries` call per walk, the
    prefix as its one training set, which hides every pair of two labels
    or one fold, so each gets the exact kernel's summary too.
    """

    def __init__(self, stream: Dataset):
        _, codes = stream.label_codes
        self.stream = stream
        # label c's stream rows, ascending: by_label[starts[c]:starts[c + 1]]
        self._by_label = np.argsort(codes, kind="stable")
        self._starts = np.bincount(codes + 1).cumsum()
        self._near = np.empty((stream.n, TABLE_WIDTH), np.int32)
        self._built = 0

    def _extend(self, p: int) -> None:
        """Build the lists of every stream row below p."""
        X, n, codes = self.stream.X, self.stream.n, self.stream.label_codes[1]
        width = self._near.shape[1]
        while self._built < p:
            lo = self._built
            hi = min(lo + TABLE_BLOCK, n)
            near = self._near[lo:hi]
            near[:] = n
            block = codes[lo:hi]
            # np.bincount, not np.unique: numpy 2.4's unique costs 1.7 MiB
            # of peak RSS on its first call
            for c in np.flatnonzero(np.bincount(block)).tolist():
                members = self._by_label[self._starts[c] : self._starts[c + 1]]
                rows = np.flatnonzero(block == c)
                D = _pairwise_distances(X[lo + rows], X[members])
                D[np.arange(rows.size), np.searchsorted(members, lo + rows)] = np.inf
                # a label of at most `width` rows keeps every column: the
                # sort puts them back in order
                w = min(width, members.size)
                cols = np.sort(np.argpartition(D, w - 1, axis=1)[:, :w], axis=1)
                D = np.take_along_axis(D, cols, axis=1)
                by_distance = np.argsort(D, axis=1, kind="stable")
                near[rows, :w] = members[np.take_along_axis(cols, by_distance, axis=1)]
            self._built = hi

    def held_out(self, training: Dataset, fold_of: np.ndarray, k: int, counts) -> np.ndarray:
        """KnnRule(training, k, fold_of).held_out, bit for bit, for a
        training set made of the stream's first rows; counts[c, s] is the
        number of training rows of label code c in slot s (see _by_label),
        so the fit has K = counts.shape[1] - 1 folds."""
        p, codes = training.n, self.stream.label_codes[1]
        if not (
            np.array_equal(training.X, self.stream.X[:p])
            and np.array_equal(training.label_codes[1], codes[:p])
        ):
            raise OutOfRangeError("the training set is not a prefix of the table's stream")
        self._extend(p)
        codes = codes[:p]
        K = counts.shape[1] - 1
        # need[c, f]: kk of label c's rows in fold f
        need = np.minimum(k, counts.sum(axis=1)[:, None] - counts[:, 1:])
        # proper[f, j]: stream row j is one of fold f's proper rows
        proper = np.zeros((K, self.stream.n + 1), bool)
        proper[:, :p] = fold_of != np.arange(K)[:, None]
        out = np.full(p, np.nan)
        rows = np.flatnonzero(fold_of >= 0)
        for lo in range(0, rows.size, WALK_ROWS):
            self._walk(rows[lo : lo + WALK_ROWS], codes, fold_of, need, proper, k, out)
        return out

    def _walk(self, rows, codes, fold_of, need, proper, k, out) -> None:
        """Set out[rows] to the rows' held-out summaries: from their lists'
        first FIRST_PASS entries, then their whole lists, then, for the rows
        whose walk runs out, one `_stacked_summaries` call against the
        prefix."""
        X, stride, W = self.stream.X, proper.shape[1], self._near.shape[1]
        label, fold = codes[rows], fold_of[rows]
        need = need[label, fold]
        for width in sorted({min(FIRST_PASS, W), W}):
            near = self._near[rows, :width]
            ok = proper.ravel()[(fold * stride)[:, None] + near]
            taken = np.cumsum(ok, axis=1)
            done = taken[:, -1] >= need
            ok &= taken <= need[:, None]
            for kk in np.flatnonzero(np.bincount(need[done])).tolist():
                these = done & (need == kk)
                walked = rows[these]
                picks = X[near[ok & these[:, None]].reshape(walked.size, kk)]
                out[walked] = _nearest_summaries(_distances(X[walked, None, :], picks))
            rows, label, fold, need = rows[~done], label[~done], fold[~done], need[~done]
            if not rows.size:
                return
        # the prefix as one training set: each row sees its label's rows
        # outside its fold, and its kk is min(k, those rows), its `need`
        p = codes.size
        out[rows] = _stacked_summaries(
            X[None, :p], codes[None], fold_of[None], X[None, rows], label[None], fold, k
        )[0]


class KnnRule(ConformityRule):
    """sigma = 1 / (1 + mean distance to the k nearest same-label proper points).

    If fewer than k proper points share the label, the mean runs over the
    ones available; if none do, the summary falls back to EPSILON_FLOOR so
    it stays strictly positive.

    The fit sorts the training rows once by label number (`label_codes`)
    and then by fold: each label is one contiguous block, found by the
    label's value, that starts with its rows in no fold and is then cut
    into one slice per fold. Fold f's proper rows of a label are the rows
    before and after its own slice. A query and the fit select them the
    same way, through `_hide_folds`: a query from one distance row per
    candidate label, copied once per fold, and the fit, for a block of at
    most MASKED_BLOCK rows, from one distance matrix of its fold rows
    against the whole block. Larger blocks take one call per fold; each
    summary is the double of a per-fold call either way. A distance that
    overflows is +inf on either path, without a warning (see _distances).

    With a `table` (a NeighbourTable whose stream starts with the training
    rows) the held-out summaries are walked from the table, not refitted,
    and the table takes the (label, fold) counts of the fit's sort, so it
    counts no row again; they are the same doubles either way.
    """

    def __init__(self, training: Dataset, k: int = 3, fold_of=None, *, table=None):
        k = _integer(k, "k")
        if k < 1:
            raise OutOfRangeError(f"k={k}; need at least 1 neighbour")
        super().__init__(training, fold_of)
        if k > self.proper:
            raise KTooLargeError(f"k={k} exceeds the {self.proper} proper points")
        self.k = k
        order, self._cuts, counts = _by_label(*training.label_codes, self.fold_of, self.K)
        self._X = training.X[order]
        if table is None:
            held_out = np.empty(training.n)
            held_out[order] = self._held_out_in_order()
        else:
            held_out = table.held_out(training, self.fold_of, k, counts)
        held_out.setflags(write=False)
        self.held_out = held_out

    def _held_out_in_order(self) -> np.ndarray:
        """Each sorted row's summary against its label's rows outside its
        fold; NaN for the rows in no fold."""
        X, out = self._X, np.full(len(self._X), np.nan)
        for cuts in self._cuts.values():
            lo, hi = cuts[0], cuts[-1]
            if hi - lo <= MASKED_BLOCK:
                self._masked_held_out(cuts, out)
                continue
            # an empty fold slice gives a (0, m) matrix and no summaries
            for a, b in zip(cuts[1:], cuts[2:]):
                others = np.concatenate((X[lo:a], X[b:hi]))
                out[a:b] = _knn_summaries(_pairwise_distances(X[a:b], others), self.k)
        return out

    def _masked_held_out(self, cuts: list, out: np.ndarray) -> None:
        """Set out for the fold rows of one label block from one distance
        matrix of those rows against the whole block, masked by fold."""
        lo, first, hi = cuts[0], cuts[1], cuts[-1]
        D = _pairwise_distances(self._X[first:hi], self._X[lo:hi])
        out[first:hi] = _hide_folds(D, cuts, [c - first for c in cuts[1:]], self.k)

    def score_folds(self, x, labels) -> np.ndarray:
        x = self._check_object(x)[None, :]
        out = np.full((self.K, len(labels)), EPSILON_FLOOR)
        folds = range(self.K + 1)  # row f of the masked copies is fold f's
        for j, label in enumerate(labels):
            cuts = self._cuts.get(label)
            if cuts is None:
                continue
            D = np.empty((self.K, cuts[-1] - cuts[0]))
            D[:] = _pairwise_distances(x, self._X[cuts[0] : cuts[-1]])
            out[:, j] = _hide_folds(D, cuts, folds, self.k)
        return out


def _ridge_beta(X: np.ndarray, yf: np.ndarray, lam: float) -> np.ndarray:
    """Ridge coefficients, solved on the rows sorted into a canonical order
    first, so they depend on the multiset of rows only, bit for bit.

    Where X'X + lam I, X'y or the solution overflows, OutOfRangeError
    names the inputs at fault."""
    d = X.shape[1]
    order = np.lexsort((yf,) + tuple(X[:, j] for j in reversed(range(d))))
    Xs, ys = X[order], yf[order]
    if lam == 0.0 and np.linalg.matrix_rank(Xs) < d:
        raise SingularSystemError(
            "design is rank-deficient and lam=0; pass lam > 0 to regularize"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        gram = Xs.T @ Xs + lam * np.eye(d)
        moment = Xs.T @ ys
    if not np.isfinite(gram).all():
        raise OutOfRangeError("features or lam too large for ridge: X'X + lam I overflows")
    if not np.isfinite(moment).all():
        raise OutOfRangeError("features or labels too large for ridge: X'y overflows")
    try:
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.isfinite(beta).all():
        raise OutOfRangeError("features or labels too large for ridge: beta overflows")
    return beta


def _ridge_summaries(X: np.ndarray, yf: np.ndarray, betas: np.ndarray, folds, name: str):
    """A (rows, L) array of 1 / (1 + |y - x.beta|): row i scores row i of
    X, or the one x broadcast, against betas[i], the coefficients of its
    fold folds[i], at the labels yf broadcast against (rows, 1). Where
    x.beta, or else y - x.beta, is not finite, the first fold at fault
    raises OutOfRangeError naming `name` (x, or the features), and the
    labels for y - x.beta."""
    # row-wise multiply-and-sum instead of a matrix product: the BLAS
    # kernel may round differently for different batch shapes, and each
    # row reduces the same d contiguous products however many rows there are
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = (X * betas).sum(axis=1)
        residuals = np.abs(yf - predictions[:, None])
    if not (np.isfinite(predictions).all() and np.isfinite(residuals).all()):
        folds = np.asarray(folds)
        for f in np.unique(folds).tolist():
            if not np.isfinite(predictions[folds == f]).all():
                raise OutOfRangeError(f"{name} too large for ridge: x.beta overflows")
            if not np.isfinite(residuals[folds == f]).all():
                raise OutOfRangeError(f"{name} or labels too large for ridge: y - x.beta overflows")
    return 1.0 / (1.0 + residuals)


def _float_labels(y) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in y])
    except (TypeError, ValueError):
        raise OutOfRangeError(f"ridge needs numeric labels, got {list(y)!r}") from None


class RidgeRule(ConformityRule):
    """sigma = 1 / (1 + |y - x.beta|) with beta from ridge regression.

    No intercept; labels must be numeric (regression, or classification
    encoded as -1/+1). Each fold f gets its own solve, row f of the
    read-only (K, d) array `betas`, on the rows outside it, sorted into a
    canonical order first, so the fit depends on the multiset of those
    rows only, bit for bit.

    The fit and the query score through `_ridge_summaries`: the fit in one
    call, each fold row against its own fold's row of `betas`, and a query
    in one call, x against row f for fold f. So a fold row's held-out
    summary is, bit for bit, the query's summary of that row in its own
    fold, and both refuse an overflow with the same messages.
    """

    def __init__(self, training: Dataset, lam: float = 1.0, fold_of=None):
        (lam,) = _real_floats((lam,), "lam")
        if lam < 0:
            raise OutOfRangeError(f"lam={lam} must be nonnegative")
        if not math.isfinite(lam):
            raise OutOfRangeError("lam must be finite")
        super().__init__(training, fold_of)
        yf = _numeric_labels(training)
        self.lam = lam
        X = training.X
        folds = [self.fold_of == f for f in range(self.K)]
        self.betas = np.array([_ridge_beta(X[~fold], yf[~fold], self.lam) for fold in folds])
        self.betas.setflags(write=False)
        rows = self.fold_of >= 0
        fold = self.fold_of[rows]
        held_out = np.full(training.n, np.nan)
        held_out[rows] = _ridge_summaries(
            X[rows], yf[rows, None], self.betas[fold], fold, "features"
        )[:, 0]
        held_out.setflags(write=False)
        self.held_out = held_out

    def score_folds(self, x, labels) -> np.ndarray:
        x = self._check_object(x)
        return _ridge_summaries(x, _float_labels(labels), self.betas, range(self.K), "x")


def _numeric_labels(training: Dataset) -> np.ndarray:
    if isinstance(training.task, RegressionTask):
        return np.asarray(training.y, dtype=float)
    values = set(training.y.tolist())
    if not values <= {-1, 1}:
        raise OutOfRangeError(
            f"ridge on classification needs -1/+1 labels, got {sorted(map(str, values))}"
        )
    return np.asarray([float(v) for v in training.y])


#: Each rule kind train_conformity fits, and the class that fits it.
_RULES = {"knn": KnnRule, "ridge": RidgeRule}
RULE_KINDS = tuple(_RULES)


@functools.cache
def _rule_params(rule: type) -> tuple:
    """The parameters a rule class takes besides the training set and
    fold_of, read from its constructor's signature."""
    names = inspect.signature(rule).parameters
    return tuple(name for name in names if name not in ("training", "fold_of"))


def train_conformity(kind: str, training: Dataset, *, fold_of=None, **params) -> ConformityRule:
    """Fit a conformity rule of the given kind on a training set.

    `fold_of` gives every row's fold, 0..K-1, or -1 for a row in no fold;
    fold f trains on the rows outside it (see ConformityRule). Without it
    every row is proper. A cross fit passes its partition's `fold_of`; a
    split fit puts its calibration rows in fold 0 and the rest in none.
    kinds (RULE_KINDS): "knn" fits a KnnRule (param k, default 3) and
    "ridge" a RidgeRule (param lam, default 1.0); any other kind, or a
    parameter the kind's rule does not take, raises OutOfRangeError before
    any fit work.
    The fitted state is a deterministic function of (kind, params, the
    training set as a multiset of rows with their folds).
    """
    _check_params(kind, params)
    return _RULES[kind](training, fold_of=fold_of, **params)


def _check_params(kind: str, params) -> None:
    """Refuse an unknown kind, or a parameter its rule does not take. The
    predictors' fits call this before train_conformity too, since they pass
    their own `fold_of`: a parameter of that name is refused here, not
    passed twice."""
    if kind not in RULE_KINDS:
        raise OutOfRangeError(f"unknown conformity kind {kind!r}")
    takes = _rule_params(_RULES[kind])
    for name in params:
        if name not in takes:
            raise OutOfRangeError(
                f"{kind} rule takes no parameter {name!r}; it takes {', '.join(takes)}"
            )


@dataclass(frozen=True)
class SupportSet:
    """0-based indices of designated points within a length-m sequence."""

    indices: tuple
    m: int

    def __post_init__(self):
        indices = tuple(_integer(i, "support indices") for i in self.indices)
        object.__setattr__(self, "m", _integer(self.m, "m"))
        if self.m < 1:
            raise OutOfRangeError("support set needs a positive sequence length")
        if len(set(indices)) != len(indices):
            raise OutOfRangeError("duplicate support indices")
        if any(i < 0 or i >= self.m for i in indices):
            raise OutOfRangeError(f"support indices must lie in 0..{self.m - 1}")
        object.__setattr__(self, "indices", tuple(sorted(indices)))

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
    w = _real_array(np.asarray, w, "w")
    (b,) = _real_floats((b,), "b")
    if w.ndim != 1 or not np.isfinite(w).all() or not math.isfinite(b):
        raise OutOfRangeError("w must be a finite vector and b a finite scalar")

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
