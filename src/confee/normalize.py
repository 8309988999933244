"""Normalizing transformations from positive summaries to e-values.

Two variants ship. `sum_normalize` divides each summary by the total, so
the components sum to 1: every component is bounded by 1 and the mean is
1/m, which wastes a factor of m of evidence but keeps outputs on the
familiar unit scale. `mean_normalize` scales that by m, so the mean is
exactly 1 (the constraint is tight) and each component is bounded by m.
The mean variant is the default everywhere downstream.

Both are scale-invariant (multiplying all summaries by c > 0 changes
nothing) and permutation-equivariant at the bit level, because the total
is an exactly rounded sum.

A cross query normalizes the L candidates of all K folds together:
`Normalizer.blocks` gives fold k an (L, c_k+1) block whose row i holds
its c_k calibration summaries and candidate i's summary in the last
column, divided by the row's total, correctly rounded, after scaling by m
for mean: fl(fl(v * m) / total), or fl(v / total) for sum, the same two
IEEE operations per component as Python's `v * m / total`, so every
component is the double the per-vector formula gives. A correctly rounded
total does not depend on how it is computed (Shewchuk 1997): below
FAST_ROWS candidates it is math.fsum of the row; from there on it is
math.fsum of the calibration's exact partials (`SummaryVector.partials`,
a handful of doubles that sum exactly to its sum, computed once per fit)
and the candidate's summary, the same double in O(1) per candidate.

The candidates are checked, the totals taken and overflow refused fold by
fold, so the first error is the one a loop over the folds raises. Folds
from `core.make_fold_partition` differ in size by at most one, so they
form at most two groups of equal c. Each group is one (G * L, c+1) array,
filled with its folds' scaled summaries and divided by the totals in one
pass, whose rows pass the e-vector check (`core.check_e_rows`) in one
call; each fold's block is a read-only view of its group's rows.
`sum_normalize` and `mean_normalize` are the one-fold, one-candidate
case: the last summary plays the candidate. Summaries whose total, or
whose mean-scaled entries, would overflow are refused as too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import EValueVector, SummaryVector, _real_array, check_e_rows
from .errors import NonFiniteEntryError, NonPositiveSummaryError, OutOfRangeError

SummaryLike = Union[SummaryVector, Iterable[float]]

#: Blocks of at least this many candidates take their totals from the
#: calibration's `SummaryVector.partials`; below it each total is the plain
#: math.fsum of its row. Measured together with the row check's filter,
#: on a 2-vCPU Xeon (Python 3.11, numpy 2.4), the two ways cost the same
#: at 8 candidates and 10 calibration summaries, and the partials win from
#: 2 candidates at 200 summaries. A query of one candidate (every `e_at`)
#: never computes partials.
FAST_ROWS = 8


def _blocks(
    kind: str,
    calibrations: Sequence[np.ndarray],
    positives: Sequence[bool],
    sigmas: np.ndarray,
    vectors: Optional[Sequence[SummaryVector]] = None,
) -> tuple:
    """The checked (L, c_k + 1) block of each of K folds, from the (K, L)
    candidate summaries `sigmas`; `calibrations[k]` is finite, and
    `positives[k]` says whether it is also strictly positive. `vectors`,
    the SummaryVectors the calibrations are the arrays of, if given, lend
    their kept `partials` to L >= FAST_ROWS candidates."""
    L = sigmas.shape[1]
    # the candidates pass if every one is finite and positive, and so is
    # every calibration; only otherwise are they looked at one by one
    passed = all(positives) and bool(((sigmas > 0) & (sigmas < math.inf)).all())
    totals = []
    for k, candidates in enumerate(sigmas.tolist()):
        calibration = calibrations[k]
        # the first candidate whose vector fails decides the error, and a
        # vector is checked finite before it is checked positive
        for s in () if passed else candidates:
            if not math.isfinite(s):
                raise NonFiniteEntryError("summaries must be finite")
            if not (positives[k] and s > 0):
                raise NonPositiveSummaryError("summaries must be strictly positive")
        try:
            # the partials sum exactly to the calibration's sum, so each
            # total is the same correctly rounded double from a handful of
            # terms
            if vectors is not None and L >= FAST_ROWS:
                head = vectors[k].partials
            else:
                head = tuple(calibration.tolist())
            fold_totals = [math.fsum(head + (s,)) for s in candidates]
        except OverflowError:
            raise OutOfRangeError("summaries are too large to normalize") from None
        # no entry exceeds its row's total, so the entries are looked at
        # only when some total times m overflows
        m = calibration.size + 1
        if (
            kind == "mean"
            and max(fold_totals, default=0.0) * m == math.inf
            and max(float(calibration.max(initial=0.0)), *candidates) * m == math.inf
        ):
            raise OutOfRangeError("summaries are too large to normalize")
        totals.append(fold_totals)
    totals = np.array(totals).reshape(sigmas.shape)
    groups = {}
    for k, calibration in enumerate(calibrations):
        groups.setdefault(calibration.size, []).append(k)
    blocks = [None] * len(calibrations)
    for c, members in groups.items():
        G = len(members)
        summaries, candidates = np.array([calibrations[k] for k in members]), sigmas[members]
        if kind == "mean":
            summaries, candidates = summaries * (c + 1), candidates * (c + 1)
        block = np.empty((G * L, c + 1))
        rows = block.reshape(G, L, c + 1)
        rows[:, :, :c] = summaries[:, None, :]
        rows[:, :, c] = candidates
        # fl(fl(v * m) / total) for mean and fl(v / total) for sum: the
        # IEEE operations of v * m / total
        block /= totals[members].reshape(G * L, 1)
        check_e_rows(block)
        for g, k in enumerate(members):
            blocks[k] = block[g * L : (g + 1) * L]
    return tuple(blocks)


def _normalize_one(kind: str, sigma: SummaryLike) -> EValueVector:
    values = (sigma if isinstance(sigma, SummaryVector) else SummaryVector(sigma)).array
    calibration = values[:-1]
    positive = bool((calibration > 0).all())
    return EValueVector(_blocks(kind, (calibration,), (positive,), values[None, -1:])[0][0])


def sum_normalize(sigma: SummaryLike) -> EValueVector:
    """alpha_i = sigma_i / sum(sigma); mean 1/m, each component <= 1."""
    return _normalize_one("sum", sigma)


def mean_normalize(sigma: SummaryLike) -> EValueVector:
    """alpha_i = m * sigma_i / sum(sigma); mean exactly 1, components <= m."""
    return _normalize_one("mean", sigma)


#: The normalizer kinds a Normalizer accepts.
NORMALIZER_KINDS = ("sum", "mean")


@dataclass(frozen=True)
class Normalizer:
    """Named normalizing transformation with a declared per-component bound.

    Subclasses may override `component_bound`; returning None declares the
    output unbounded, which the time-average harness refuses to run with.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in NORMALIZER_KINDS:
            raise OutOfRangeError(f"unknown normalizer kind {self.kind!r}")

    def blocks(self, folds: Sequence[SummaryVector], sigmas) -> tuple:
        """Row i of block k normalizes folds[k]'s summaries followed by
        sigmas[k, i].

        sigmas must be a (K, L) array of real numbers, one row per fold.
        Returns K read-only (L, c_k + 1) float64 blocks whose rows all
        passed the e-vector check; the last column of block k is fold k's
        e-values of the candidates. The folds of one size share one block,
        of which each fold's is a view.
        """
        sigmas = _real_array(np.asarray, sigmas, "candidate summaries")
        if sigmas.ndim != 2 or sigmas.shape[0] != len(folds):
            raise OutOfRangeError(
                f"candidate summaries must hold one row per fold ({len(folds)}), "
                f"got shape {sigmas.shape}"
            )
        calibrations = [fold.array for fold in folds]
        positives = [fold.positive for fold in folds]
        return _blocks(self.kind, calibrations, positives, sigmas, folds)

    def component_bound(self, m: int) -> Optional[float]:
        """Upper bound on any output component for a length-m input."""
        if m < 1:
            raise OutOfRangeError("m must be positive")
        return 1.0 if self.kind == "sum" else float(m)


def get_normalizer(kind: Union[str, Normalizer]) -> Normalizer:
    """Resolve "sum"/"mean" to a Normalizer; instances pass through."""
    if isinstance(kind, Normalizer):
        return kind
    return Normalizer(kind)
