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

A split predictor normalizes all L candidates of a query in one block:
`Normalizer.block` fills an (L, c+1) array with the c calibration summaries
and each candidate's summary in the last column, takes each row's total
correctly rounded, and computes `block * m / totals` for mean or
`block / totals` for sum. A correctly rounded total does not depend on how
it is computed (Shewchuk 1997): below `core.FAST_ROWS` candidates it is
math.fsum of the row; from there on it is math.fsum of the calibration's
exact partials (`SummaryVector.partials`, a handful of doubles that sum
exactly to its sum, computed once per fit) and the candidate's summary,
the same double in O(1) per candidate. numpy makes the same two IEEE
operations per component as Python's `v * m / total`, so every component
is the double the per-vector formula gives. Every row then passes the
e-vector check (`core.check_e_rows`) before the block is returned,
read-only. `sum_normalize` and `mean_normalize` are the L = 1 case of the
same routine: the last summary plays the candidate. Summaries whose total,
or whose mean-scaled entries, would overflow are refused as too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .core import FAST_ROWS, EValueVector, SummaryVector, _frozen_array, check_e_rows
from .errors import NonFiniteEntryError, NonPositiveSummaryError, OutOfRangeError

SummaryLike = Union[SummaryVector, Iterable[float]]


def _block(
    kind: str,
    calibration: np.ndarray,
    positive: bool,
    sigmas: np.ndarray,
    vector: Optional[SummaryVector] = None,
) -> np.ndarray:
    """The checked (L, c+1) block; `calibration` is finite, `positive` says
    whether it is also strictly positive, and `vector`, the SummaryVector
    it is the array of, if any, gives its kept `partials` to a block of
    at least FAST_ROWS candidates."""
    candidates = sigmas.tolist()
    # the first candidate whose vector fails decides the error, and a
    # vector is checked finite before it is checked positive
    for s in candidates:
        if not math.isfinite(s):
            raise NonFiniteEntryError("summaries must be finite")
        if not (positive and s > 0):
            raise NonPositiveSummaryError("summaries must be strictly positive")
    c = calibration.size
    try:
        # the partials sum exactly to the calibration's sum, so each total
        # is the same correctly rounded double from a handful of terms
        if vector is not None and len(candidates) >= FAST_ROWS:
            head = vector.partials
        else:
            head = calibration.tolist()
        totals = np.array([math.fsum((*head, s)) for s in candidates])
    except OverflowError:
        raise OutOfRangeError("summaries are too large to normalize") from None
    block = np.empty((sigmas.size, c + 1))
    block[:, :c] = calibration
    block[:, c] = sigmas
    if kind == "mean":
        # no entry exceeds its row's total, so the entries are looked at
        # only when some total times c + 1 overflows; a block of no
        # candidate has no total
        top = float(totals.max(initial=0.0))
        if top * (c + 1) == math.inf and float(block.max()) * (c + 1) == math.inf:
            raise OutOfRangeError("summaries are too large to normalize")
        block *= c + 1
    block /= totals[:, None]
    return check_e_rows(block)


def _normalize_one(kind: str, sigma: SummaryLike) -> EValueVector:
    values = (sigma if isinstance(sigma, SummaryVector) else SummaryVector(sigma)).array
    calibration = values[:-1]
    return EValueVector(_block(kind, calibration, bool((calibration > 0).all()), values[-1:])[0])


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

    def block(self, calibration: SummaryVector, sigmas) -> np.ndarray:
        """Row i normalizes the calibration summaries followed by sigmas[i].

        Returns a read-only (L, c+1) float64 block whose rows all passed
        the e-vector check; its last column is the candidates' e-values.
        sigmas must be a flat sequence of real numbers.
        """
        sigmas = _frozen_array(sigmas, float, "candidate summaries")
        return _block(self.kind, calibration.array, calibration.positive, sigmas, calibration)

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
