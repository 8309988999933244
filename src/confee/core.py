"""Domain types, e-vector invariants, fold partitioning, seeded randomness.

Everything here is immutable after construction and safe to share across
threads. Arrays held by these types (dataset rows, summary and e-vectors,
folds) are read-only numpy arrays: writing into one raises ValueError, and
a caller's writable array is copied before it is frozen. A dataset
numbers its labels once, when it is validated, and its subsets carry
those numbers, so a rule groups rows by label without a second pass over
the labels. Observation indices and fold indices are 0-based throughout;
only a report's "fold" entry counts from 1, to match the usual S_1..S_K
naming.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    AverageExceedsOneError,
    EmptyDatasetError,
    LabelOutOfSpaceError,
    NegativeEntryError,
    NonFiniteEntryError,
    OutOfRangeError,
    TooFewFoldsError,
    TooFewObservationsError,
)

#: Slack on the mean-at-most-one constraint; absorbs float summation error.
E_MEAN_TOLERANCE = 1e-12


def _seed_sequence(parts: tuple) -> np.random.SeedSequence:
    """The SeedSequence of a key of nonnegative integers; a part that is
    no integer (1.5, "3", None) or is negative raises OutOfRangeError."""
    try:
        key = tuple(map(operator.index, parts))
    except TypeError:
        raise OutOfRangeError(f"seed parts must be integers, got {parts!r}") from None
    if any(p < 0 for p in key):
        raise OutOfRangeError(f"seed parts must be nonnegative, got {key}")
    # a one-part key as a plain int: the same streams, cheaper to build
    return np.random.SeedSequence(key[0] if len(key) == 1 else key)


def derive_seed(*parts: int) -> int:
    """Mix integer key parts into a single 63-bit seed, deterministically.

    Used to give every trial's draw, fold split and online stream its own
    seed from one master seed.
    """
    return int(_seed_sequence(parts).generate_state(1, np.uint64)[0] >> np.uint64(1))


def spawn_rng(*parts: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers."""
    return np.random.default_rng(_seed_sequence(parts))


def _py_scalar(value):
    """numpy scalar -> plain Python scalar; anything else passes through."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _real_array(convert, values, name: str) -> np.ndarray:
    """convert(values, dtype=float), where convert is np.array or
    np.asarray; a value that is no real number, or ragged rows, raise
    OutOfRangeError naming the input in place of numpy's error."""
    try:
        return convert(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise OutOfRangeError(f"{name} must be real numbers: {exc}") from None


def _integer(value, name: str) -> int:
    """value as a Python int, as operator.index gives it; a value that is no
    integer (1.5, 2.0, "3") raises OutOfRangeError naming the input."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None


def _real_floats(values, name: str) -> tuple:
    """The values as Python floats; a value that is no real number raises
    OutOfRangeError naming the input in place of Python's error."""
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise OutOfRangeError(f"{name} must be real numbers: {exc}") from None


def _distinct(labels: tuple, name: str) -> bool:
    """Whether the labels are distinct; a label that cannot be hashed
    raises OutOfRangeError naming the input in place of Python's error."""
    try:
        return len(set(labels)) == len(labels)
    except TypeError as exc:
        raise OutOfRangeError(f"{name} must be hashable: {exc}") from None


def _frozen_array(values, dtype, name: str) -> np.ndarray:
    """values, named `name` in errors, as a read-only 1-D array of dtype:
    float, or np.intp for indices.

    Indices must be integers: a non-empty array or sequence of another
    kind, bool included, raises OutOfRangeError rather than being cast.
    A caller's writable array is copied first, so a later write to it does
    not reach the frozen one; a read-only array of the dtype is shared.
    """
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    if dtype is float:
        array = _real_array(np.asarray, values, name)
    else:
        try:
            array = np.asarray(values)
        except ValueError as exc:  # ragged rows
            raise OutOfRangeError(f"{name} must be integers: {exc}") from None
        if array.size and array.dtype.kind not in "iu":
            raise OutOfRangeError(f"{name} must be integers, got {array.dtype}")
        array = array.astype(dtype, copy=False)
    if array.ndim != 1:
        raise OutOfRangeError(f"{name} must be a flat sequence, got shape {array.shape}")
    if array.flags.writeable:
        if array is values:
            array = array.copy()
        array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ClassificationTask:
    """Finite label set; the tuple order fixes reporting order."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(_py_scalar(v) for v in self.labels)
        if not labels:
            raise OutOfRangeError("classification task needs at least one label")
        if not _distinct(labels, "classification labels"):
            raise OutOfRangeError("duplicate labels in classification task")
        object.__setattr__(self, "labels", labels)

    @property
    def candidates(self) -> tuple:
        return self.labels


@dataclass(frozen=True)
class RegressionTask:
    """Real-valued labels, evaluated on a finite strictly increasing grid."""

    grid: tuple

    def __post_init__(self):
        grid = _real_floats(self.grid, "regression grid")
        if not grid:
            raise OutOfRangeError("regression grid is empty")
        if not all(math.isfinite(g) for g in grid):
            raise NonFiniteEntryError("regression grid must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise OutOfRangeError("regression grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)

    @property
    def candidates(self) -> tuple:
        return self.grid


Task = Union[ClassificationTask, RegressionTask]


@dataclass(frozen=True)
class Observation:
    """One labelled example: finite feature vector plus label."""

    x: tuple
    y: object

    def __post_init__(self):
        x = _real_floats(self.x, "feature vector")
        if not all(math.isfinite(v) for v in x):
            raise NonFiniteEntryError("feature vector must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", _py_scalar(self.y))


def _number_labels(y: np.ndarray, task: Task) -> tuple:
    """(labels, codes) for a label array: codes[i] is the index of y[i] in labels.

    Classification numbers the rows by task.labels; the first row, in
    order, whose label is not among them raises LabelOutOfSpaceError.
    Regression numbers the distinct values of y, ascending.
    """
    if isinstance(task, RegressionTask):
        labels, codes = np.unique(y, return_inverse=True)
        return tuple(labels.tolist()), codes
    number = {label: i for i, label in enumerate(task.labels)}
    try:
        codes = [number[v] for v in y.tolist()]
    except KeyError as exc:
        bad = _py_scalar(exc.args[0])
        raise LabelOutOfSpaceError(f"label {bad!r} not in task labels") from None
    return task.labels, np.array(codes, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered observations sharing one task.

    X is an (n, d) float array, y the matching labels. Both are frozen
    (writeable=False) on construction; n >= 1 always holds. Construction
    validates every row and numbers its labels in the same pass
    (`label_codes`); `subset` copies rows of a dataset that already passed,
    with their numbers, and does not validate them again.
    """

    X: np.ndarray
    y: np.ndarray
    task: Task

    def __post_init__(self):
        X = _real_array(np.array, self.X, "features")
        if X.ndim != 2:
            raise OutOfRangeError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] == 0:
            raise EmptyDatasetError("dataset has no observations")
        if not np.isfinite(X).all():
            raise NonFiniteEntryError("features must be finite")
        if isinstance(self.task, RegressionTask):
            y = _real_array(np.array, self.y, "labels")
            if y.shape != (X.shape[0],) or not np.isfinite(y).all():
                raise NonFiniteEntryError("labels must be n finite reals")
        else:
            try:
                y = np.array(np.asarray(self.y).ravel())
            except ValueError as exc:  # ragged labels
                raise OutOfRangeError(f"labels must be one per row: {exc}") from None
            if y.shape != (X.shape[0],):
                raise OutOfRangeError("y length must match X")
        labels, codes = _number_labels(y, self.task)
        self._freeze(X, y, labels, codes)

    def _freeze(self, X, y, labels, codes):
        for array in (X, y, codes):
            array.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_numbering", (labels, codes))

    @property
    def label_codes(self) -> tuple:
        """(labels, codes): row i holds label labels[codes[i]].

        labels is the task's labels for classification, and the distinct
        labels, ascending, of the dataset validated at the start of a chain
        of subsets for regression; some labels may hold no row. codes is a
        read-only intp array.
        """
        return self._numbering

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def observation(self, i: int) -> Observation:
        return Observation(tuple(self.X[i]), _py_scalar(self.y[i]))

    def observations(self) -> Iterator[Observation]:
        for i in range(self.n):
            yield self.observation(i)

    def subset(self, indices: Union[Sequence[int], np.ndarray, range]) -> "Dataset":
        """The rows at `indices`, in that order, copied and read-only.

        The rows come from a valid dataset and are not validated again; they
        keep their label numbers.
        """
        if isinstance(indices, range):
            idx = np.arange(indices.start, indices.stop, indices.step, dtype=np.intp)
        else:
            idx = _frozen_array(indices, np.intp, "subset indices")
        if not idx.size:
            raise EmptyDatasetError("subset selects no observations")
        if idx.min() < 0 or idx.max() >= self.n:
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise OutOfRangeError(f"subset index {bad} not in 0..{self.n - 1}")
        labels, codes = self._numbering
        view = object.__new__(type(self))
        object.__setattr__(view, "task", self.task)
        view._freeze(self.X.take(idx, axis=0), self.y.take(idx), labels, codes.take(idx))
        return view


#: Blocks of at least this many rows take the fast paths: the certified
#: numpy row sums of `check_e_rows` and the totals from the calibration's
#: `exact_partials` in `normalize.Normalizer.block`. Below it the plain
#: math.fsum loops cost less: on a 2-vCPU Xeon (Python 3.11, numpy 2.4)
#: the two ways cost the same at 8 candidates and 10 calibration
#: summaries, and the fast one wins from 2 candidates at 200 summaries.
#: A query of one candidate (every `e_at`) never computes partials.
FAST_ROWS = 8


#: 2**-1074 units in one
_ONE = 1 << 1074


def float_units(value: float) -> int:
    """A finite double as a whole number of 2**-1074 units, exactly.

    value = n / 2**j with j <= 1074, so it is n << (1074 - j) units.
    """
    n, d = value.as_integer_ratio()
    return n << (1075 - d.bit_length())


def exact_partials(values) -> tuple:
    """Nonnegative doubles whose exact sum is the exact sum of `values`,
    which must be finite and nonnegative; OverflowError if that sum is too
    large for a double.

    The sum is kept as a whole number of 2**-1074 units, and each partial
    is what is left of it, rounded down to a double (Python's int/int
    division rounds correctly), so a handful of partials hold it. math.fsum
    of the partials and one more value is then math.fsum of `values` and
    that value, bit for bit: both round the same exact sum correctly, and,
    every term being nonnegative, both overflow when that sum does.
    """
    total = sum(map(float_units, values))
    partials = []
    while total:
        part = total / _ONE
        if float_units(part) > total:
            part = math.nextafter(part, 0.0)
        partials.append(part)
        total -= float_units(part)
    return tuple(partials)


@functools.lru_cache(maxsize=64)
def _certified_total(m: int) -> float:
    """The largest row sum that, computed by numpy, proves a row of m
    nonnegative entries has a mean of at most 1 + E_MEAN_TOLERANCE.

    Proof. Let S be a row's exact sum and s its sum computed by numpy in
    any order of additions (numpy adds pairwise). Each entry passes
    through at most m - 1 additions, each with a relative error of at most
    u = 2**-53, and the entries are nonnegative, so |s - S| <= g * S with
    g = (m - 1) u / (1 - (m - 1) u) (Higham 2002, Accuracy and Stability
    of Numerical Algorithms, ch. 4; gradual underflow adds no error to a
    sum). Hence S <= s / (1 - g). The exact check rounds S to the nearest
    double, F <= S (1 + u), and passes when fl(F / m) <= t, where
    t = 1.0 + E_MEAN_TOLERANCE is a double; since rounding is monotone,
    F / m <= t suffices. So s <= t m (1 - g) / (1 + u) proves the row
    passes. With U = 2**53 that bound is
    t m (U - 2(m - 1)) U / ((U - (m - 1)) (U + 1)), a ratio of integers
    here; int/int division rounds it to the nearest double, which is then
    rounded down if it exceeds the ratio, so the comparison `s <= bound`
    is exact. (F <= S (1 + u) holds for S in the normal range; a
    subnormal F is far below t m anyway. (m - 1) u < 1 holds for any array
    in memory.)
    """
    U = 1 << 53
    tn, td = (1.0 + E_MEAN_TOLERANCE).as_integer_ratio()
    num = tn * m * (U - 2 * (m - 1)) * U
    den = td * (U - (m - 1)) * (U + 1)
    bound = num / den
    bn, bd = bound.as_integer_ratio()
    return bound if bn * den <= num * bd else math.nextafter(bound, -math.inf)


def check_e_rows(block: np.ndarray) -> np.ndarray:
    """Check that every row of a 2-D float64 array is an e-vector, then freeze it.

    Every entry must be finite and nonnegative, and every row's mean, taken
    from an exactly rounded sum (math.fsum), at most 1 + E_MEAN_TOLERANCE;
    a row whose sum overflows has a mean above 1 too. Returns the block,
    read-only.

    A block of at least FAST_ROWS rows is filtered first, as in Shewchuk's
    adaptive predicates (Shewchuk 1997): a row whose numpy sum is at most
    `_certified_total(m)` provably passes the exact check and skips it.
    Only the other rows, in order, take math.fsum, so the first row that
    fails, and its error, are the ones the exact check of every row gives.
    A numpy sum that overflows is inf and certifies nothing.
    """
    if not np.isfinite(block).all():
        raise NonFiniteEntryError("e-values must be finite")
    if (block < 0).any():
        raise NegativeEntryError("e-values must be nonnegative")
    m = block.shape[1]
    rows = block
    if block.shape[0] >= FAST_ROWS:
        with np.errstate(over="ignore"):  # an overflowing sum is inf
            rows = block[block.sum(axis=1) > _certified_total(m)]
    try:
        for total in map(math.fsum, rows.tolist()):
            if total / m > 1.0 + E_MEAN_TOLERANCE:
                raise AverageExceedsOneError(f"mean {total / m} exceeds 1")
    except OverflowError:  # a nonnegative row whose sum overflows
        raise AverageExceedsOneError("mean exceeds 1: the row's sum overflows") from None
    block.setflags(write=False)
    return block


@dataclass(frozen=True, eq=False, init=False)
class _FloatVector:
    """A checked, non-empty vector held as a read-only float64 array.

    `array` is that array: writing into it raises ValueError. `values` is
    the same numbers as a tuple of Python floats, built on each read.
    Vectors of one type compare and hash by their values.
    """

    array: np.ndarray

    @property
    def values(self) -> tuple:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return self.array.size

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.values)


@dataclass(frozen=True, eq=False, init=False)
class SummaryVector(_FloatVector):
    """Conformity summaries (sigma_1, ..., sigma_m); finite, non-empty.

    `positive` records, once at construction, whether every summary is
    strictly positive, as normalizing requires.
    """

    positive: bool

    def __init__(self, values):
        array = _frozen_array(values, float, "summaries")
        if not array.size:
            raise OutOfRangeError("summary vector is empty")
        if not np.isfinite(array).all():
            raise NonFiniteEntryError("summaries must be finite")
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "positive", bool((array > 0).all()))

    @functools.cached_property
    def partials(self) -> tuple:
        """`exact_partials` of the summaries, which must be nonnegative;
        computed on first use and kept."""
        return exact_partials(self.array.tolist())


@dataclass(frozen=True, eq=False, init=False)
class EValueVector(_FloatVector):
    """Nonnegative values averaging to at most one.

    Construction of any violating sequence fails, so holding an
    EValueVector is proof the constraint was checked (`check_e_rows` on its
    one row). The mean uses an exactly rounded sum, making the check
    independent of input order.
    """

    def __init__(self, values):
        array = _frozen_array(values, float, "e-values")
        if not array.size:
            raise OutOfRangeError("e-vector is empty")
        check_e_rows(array[None, :])
        object.__setattr__(self, "array", array)

    @property
    def mean(self) -> float:
        return math.fsum(self.array.tolist()) / self.array.size


@dataclass(frozen=True)
class PlausibilityTable:
    """Candidate label -> e-value for one test object."""

    labels: tuple
    values: tuple

    def __post_init__(self):
        labels = tuple(_py_scalar(v) for v in self.labels)
        values = _real_floats(self.values, "table values")
        if len(labels) != len(values) or not labels:
            raise OutOfRangeError("labels and values must align and be non-empty")
        if not _distinct(labels, "candidate labels"):
            raise OutOfRangeError("duplicate candidate labels")
        if not all(math.isfinite(v) for v in values):
            raise NonFiniteEntryError("table values must be finite")
        if any(v < 0 for v in values):
            raise NegativeEntryError("table values must be nonnegative")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    def __getitem__(self, label) -> float:
        label = _py_scalar(label)
        for cand, value in zip(self.labels, self.values):
            if cand == label:
                return value
        raise KeyError(label)


@dataclass(frozen=True, eq=False)
class FoldPartition:
    """Disjoint folds covering 0..n-1 with sizes differing by at most one.

    folds[k] holds the observation indices of fold k as a read-only intp
    array; folds may be given as any integer sequences. `fold_of` is the
    same partition seen from the rows: a read-only intp array whose entry
    i is the index k into `folds` of the fold holding observation i. Partitions compare and
    hash by their folds, n and seed, which must be integers.
    """

    folds: tuple
    n: int
    seed: int
    fold_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        folds = tuple(_frozen_array(fold, np.intp, "fold indices") for fold in self.folds)
        if len(folds) < 2:
            raise TooFewFoldsError("need at least two folds")
        sizes = [fold.size for fold in folds]
        if min(sizes) == 0:
            raise TooFewObservationsError("every fold needs at least one observation")
        flat = np.concatenate(folds)
        try:
            # bincount refuses a negative index; one past n - 1 is counted
            # at n, so no index sizes the count array beyond n + 1
            exact = flat.size == self.n and bool(
                (np.bincount(np.minimum(flat, self.n), minlength=self.n) == 1).all()
            )
        except ValueError:
            exact = False
        if not exact:
            raise OutOfRangeError("folds must partition 0..n-1 exactly")
        if max(sizes) - min(sizes) > 1:
            raise OutOfRangeError(f"fold sizes {sizes} differ by more than one")
        fold_of = np.empty(self.n, dtype=np.intp)
        fold_of[flat] = np.repeat(np.arange(len(folds)), sizes)
        fold_of.setflags(write=False)
        object.__setattr__(self, "folds", folds)
        object.__setattr__(self, "fold_of", fold_of)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.n, self.seed, len(self.folds)) == (other.n, other.seed, len(other.folds))
            and all(map(np.array_equal, self.folds, other.folds))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.seed, tuple(fold.tobytes() for fold in self.folds)))


def make_fold_partition(n: int, K: int, seed: int) -> FoldPartition:
    """Randomly partition 0..n-1 into K balanced folds.

    Permutes the indices under `spawn_rng(seed)` and slices contiguously;
    the first n mod K folds get the extra observation. The folds are views
    of that one read-only permutation, and FoldPartition checks them as it
    checks any folds. Identical (n, K, seed) give an identical partition.
    """
    n, K = _integer(n, "n"), _integer(K, "K")
    if K < 2:
        raise TooFewFoldsError(f"K={K}; need at least 2")
    if n < K:
        raise TooFewObservationsError(f"n={n} observations cannot fill K={K} folds")
    perm = spawn_rng(seed).permutation(n)
    perm.setflags(write=False)
    base, extra = divmod(n, K)
    bounds = [k * base + min(k, extra) for k in range(K + 1)]
    return FoldPartition(tuple(perm[lo:hi] for lo, hi in zip(bounds, bounds[1:])), n, seed)
