import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import (
    AverageExceedsOneError,
    ClassificationTask,
    ConformityRule,
    CrossEPredictor,
    E_MEAN_TOLERANCE,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveSummaryError,
    Normalizer,
    OutOfRangeError,
    SummaryVector,
    get_normalizer,
    mean_normalize,
    sum_normalize,
)
from confee.core import check_e_rows, exact_partials
from confee.normalize import FAST_ROWS, _blocks


_NORMALIZE = {"sum": sum_normalize, "mean": mean_normalize}


def _blocks_of(kind, folds, sigmas):
    """normalize._blocks of the SummaryVectors `folds` and the (K, L)
    candidate summaries `sigmas`, as a query passes them."""
    sigmas = np.array(sigmas, dtype=float)
    calibrations = [fold.array for fold in folds]
    return _blocks(kind, calibrations, [fold.positive for fold in folds], sigmas, folds)


def test_sum_normalize_worked_example():
    assert sum_normalize((1.0, 2.0, 3.0, 4.0)).values == (0.1, 0.2, 0.3, 0.4)


def test_mean_normalize_worked_example():
    vec = mean_normalize((1.0, 2.0, 3.0, 4.0))
    assert vec.values == (0.4, 0.8, 1.2, 1.6)
    assert abs(vec.mean - 1.0) <= 1e-12


def test_accepts_summary_vector_and_iterables():
    sv = SummaryVector((2.0, 2.0))
    assert sum_normalize(sv).values == (0.5, 0.5)
    assert mean_normalize(iter([2.0, 2.0])).values == (1.0, 1.0)


def test_rejects_nonpositive_and_nonfinite():
    with pytest.raises(NonPositiveSummaryError):
        sum_normalize((1.0, 0.0))
    with pytest.raises(NonPositiveSummaryError):
        mean_normalize((1.0, -2.0))
    with pytest.raises(NonFiniteEntryError):
        sum_normalize((1.0, float("nan")))
    with pytest.raises(OutOfRangeError):
        mean_normalize(())


@pytest.mark.parametrize("normalize, sigma", [
    (sum_normalize, (1e308, 1e308)),  # the total overflows
    (mean_normalize, (1e308, 1e308)),
    (mean_normalize, (1e308, 1.0)),  # the total fits; an entry times m does not
    (mean_normalize, (1.0, 1e308)),  # the same for the candidate
])
def test_summaries_too_large_refused(normalize, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="summaries are too large to normalize"):
            normalize(sigma)


def test_block_with_a_too_large_candidate_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="summaries are too large to normalize"):
            _blocks_of("mean", (SummaryVector((1.0, 2.0)),), [[1.0, 1e308]])


@pytest.mark.parametrize("kind", ["sum", "mean"])
def test_block_of_no_candidates_is_empty(kind):
    block = _blocks_of(kind, (SummaryVector((1.0, 2.0)),), [[]])[0]
    assert block.shape == (0, 3) and not block.flags.writeable


@pytest.mark.parametrize("sigma", [(8e307, 8e307), (8.9e307, 1.0), (5e307, 5e307, 5e307)])
def test_largest_finite_outputs_keep_their_bits(sigma):
    # the per-vector formula v * m / total, taken in Python floats
    total = math.fsum(sigma)
    assert mean_normalize(sigma).values == tuple(v * len(sigma) / total for v in sigma)
    assert sum_normalize(sigma).values == tuple(v / total for v in sigma)


def test_means_and_bounds_property():
    rng = np.random.default_rng(20240816)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        sigma = np.exp(rng.normal(0.0, 2.0, m))
        s = sum_normalize(sigma)
        v = mean_normalize(sigma)
        assert abs(s.mean - 1.0 / m) <= 1e-12
        assert abs(v.mean - 1.0) <= 1e-12
        assert max(s.values) <= 1.0
        assert max(v.values) <= m * (1.0 + 1e-12)


def test_permutation_equivariance_bitwise():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        sigma = tuple(np.exp(rng.normal(0.0, 1.5, m)))
        perm = rng.permutation(m)
        permuted = tuple(sigma[i] for i in perm)
        for fn in (sum_normalize, mean_normalize):
            base = fn(sigma).values
            moved = fn(permuted).values
            assert all(moved[j] == base[perm[j]] for j in range(m))


def test_scale_invariance():
    rng = np.random.default_rng(5)
    for factor in (1e-8, 0.5, 3.7, 1e8):
        for _ in range(100):
            m = int(rng.integers(1, 30))
            sigma = np.exp(rng.normal(0.0, 1.0, m))
            for fn in (sum_normalize, mean_normalize):
                base = fn(sigma).values
                scaled = fn(sigma * factor).values
                assert all(abs(a - b) <= 1e-12 for a, b in zip(base, scaled))


def test_normalizer_objects():
    mean = get_normalizer("mean")
    assert mean.component_bound(7) == 7.0
    assert get_normalizer("sum").component_bound(7) == 1.0
    assert get_normalizer(mean) is mean
    with pytest.raises(OutOfRangeError):
        get_normalizer("max")
    with pytest.raises(OutOfRangeError):
        mean.component_bound(0)


def test_normalizer_subclass_can_declare_no_bound():
    class Unbounded(Normalizer):
        def component_bound(self, m):
            return None

    assert Unbounded("mean").component_bound(5) is None


# --- Block normalization against the per-vector tuple code ---------------
#
# The reference below is the per-vector code the block replaced, copied
# as it was: SummaryVector's and EValueVector's element-wise checks, the
# two normalizers, and the split predictor's one normalization per
# candidate.


def _ref_summary_values(values) -> tuple:
    values = tuple(float(v) for v in values)
    if not values:
        raise OutOfRangeError("summary vector is empty")
    if not all(math.isfinite(v) for v in values):
        raise NonFiniteEntryError("summaries must be finite")
    return values


def _ref_e_values(values) -> tuple:
    values = tuple(float(v) for v in values)
    if not values:
        raise OutOfRangeError("e-vector is empty")
    if not all(math.isfinite(v) for v in values):
        raise NonFiniteEntryError("e-values must be finite")
    if any(v < 0 for v in values):
        raise NegativeEntryError("e-values must be nonnegative")
    mean = math.fsum(values) / len(values)
    if mean > 1.0 + E_MEAN_TOLERANCE:
        raise AverageExceedsOneError(f"mean {mean} exceeds 1")
    return values


def _ref_positive_values(sigma) -> tuple:
    values = _ref_summary_values(sigma)
    if any(v <= 0 for v in values):
        raise NonPositiveSummaryError("summaries must be strictly positive")
    return values


def _ref_sum_normalize(sigma) -> tuple:
    values = _ref_positive_values(sigma)
    total = math.fsum(values)
    return _ref_e_values(tuple(v / total for v in values))


def _ref_mean_normalize(sigma) -> tuple:
    values = _ref_positive_values(sigma)
    m = len(values)
    total = math.fsum(values)
    return _ref_e_values(tuple(v * m / total for v in values))


_REFERENCE = {"sum": _ref_sum_normalize, "mean": _ref_mean_normalize}


def _ref_split_query(kind, calibration, sigmas) -> tuple:
    """(values, alphas) as the split predictor computed them per candidate."""
    cal = _ref_summary_values(calibration)
    alphas = tuple(_REFERENCE[kind]((*cal, s)) for s in sigmas)
    return tuple(a[-1] for a in alphas), alphas


class _FixedRule(ConformityRule):
    """Scores the candidates of a query with the summaries it was given."""

    kind = "fixed"
    dim = 1
    K = 1

    def __init__(self, sigmas):
        self.sigmas = sigmas

    def score_folds(self, x, labels):
        return np.array([self.sigmas], dtype=float)


def _split_predictor(kind, calibration, sigmas) -> CrossEPredictor:
    return CrossEPredictor(
        _FixedRule(sigmas),
        (SummaryVector(calibration),),
        get_normalizer(kind),
        ClassificationTask(tuple(range(len(sigmas)))),
    )


@st.composite
def _queries(draw):
    """(calibration, sigmas): c in 1..300 and L in 1..40 positive summaries,
    log-uniform over a drawn span inside about 1e-150..1e150, with ties
    drawn from a small pool of repeated values."""
    c, L = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(-150.0, 150.0))
    hi = draw(st.floats(lo, 150.0))
    values = 10.0 ** rng.uniform(lo, hi, c + L)
    pool = values[: draw(st.integers(1, 4))].copy()
    tied = rng.uniform(size=c + L) < draw(st.floats(0.0, 1.0))
    values[tied] = pool[rng.integers(0, pool.size, int(tied.sum()))]
    return values[:c].tolist(), values[c:].tolist()


def _outcome(compute):
    """What compute() returns, or the class of the summary error it raises."""
    try:
        return compute()
    except (NonFiniteEntryError, NonPositiveSummaryError) as exc:
        return type(exc)


class TestBlockDifferential:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["sum", "mean"]), query=_queries())
    @example(kind="mean", query=([2.0], [3.0]))
    @example(kind="sum", query=([1e-150], [1e150, 1e150, 5.0]))
    @example(kind="mean", query=([0.1] * 300, [0.1]))
    @example(kind="sum", query=([3.0, 1.0, 3.0] * 100, [7.0] * 40))
    def test_matches_per_vector_reference(self, kind, query):
        calibration, sigmas = query
        c, L = len(calibration), len(sigmas)
        ref_values, ref_alphas = _ref_split_query(kind, calibration, sigmas)

        block = _blocks_of(kind, (SummaryVector(calibration),), [sigmas])[0]
        assert block.shape == (L, c + 1)
        for row, alpha in zip(block, ref_alphas):
            assert np.array_equal(row, np.array(alpha))

        table = _split_predictor(kind, calibration, sigmas).predict((0.0,))
        assert table.values == ref_values
        assert np.array_equal(table.blocks[0], block)

        assert _NORMALIZE[kind]((*calibration, sigmas[0])).values == ref_alphas[0]

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["sum", "mean"]),
        calibration=st.lists(st.sampled_from([0.5, 2.0, 7.0, 0.0, -1.0]), min_size=1, max_size=6),
        sigmas=st.lists(
            st.sampled_from([0.25, 3.0, 0.0, -2.0, math.nan, math.inf, -math.inf]),
            min_size=1,
            max_size=6,
        ),
    )
    def test_bad_summaries_raise_the_reference_error(self, kind, calibration, sigmas):
        predictor = _split_predictor(kind, calibration, sigmas)
        assert _outcome(lambda: predictor.predict((0.0,)).values) == _outcome(
            lambda: _ref_split_query(kind, calibration, sigmas)[0]
        )
        vector = (*calibration, sigmas[0])
        assert _outcome(lambda: _NORMALIZE[kind](vector).values) == _outcome(
            lambda: _REFERENCE[kind](vector)
        )

    def test_each_bad_candidate_summary(self):
        for bad, error in (
            (0.0, NonPositiveSummaryError),
            (-1.0, NonPositiveSummaryError),
            (math.nan, NonFiniteEntryError),
            (math.inf, NonFiniteEntryError),
        ):
            for kind in ("sum", "mean"):
                with pytest.raises(error):
                    _split_predictor(kind, [1.0, 2.0], [0.5, bad]).predict((0.0,))
                with pytest.raises(error):
                    _NORMALIZE[kind]((1.0, 2.0, bad))

    def test_block_and_vectors_are_read_only(self):
        table = _split_predictor("mean", [1.0, 2.0, 3.0], [0.5, 4.0]).predict((0.0,))
        for array in (
            table.blocks[0],
            table.blocks[0][0],
            table.calibration[0],
            table.sigmas,
            _blocks_of("sum", (SummaryVector((1.0,)),), [(2.0, 3.0)])[0],
            mean_normalize((1.0, 2.0)).array,
            SummaryVector((1.0, 2.0)).array,
        ):
            with pytest.raises(ValueError):
                array[0] = 0.0


_MAX = 1.7976931348623157e308
#: summaries around every overflow edge: the largest double, the half ulp
#: that rounds it up to overflow, and subnormals
_EDGE_FLOATS = st.one_of(
    st.floats(0.0, _MAX),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.0, 2.0**969, 2.0**970,
                     _MAX / 2, _MAX, 1e308]),
)


def _sum_outcome(terms):
    try:
        return math.fsum(terms)
    except OverflowError:
        return OverflowError


class TestExactPartials:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_EDGE_FLOATS, max_size=30), s=_EDGE_FLOATS)
    @example(values=[_MAX], s=2.0**970)  # ties to even, up to overflow
    @example(values=[_MAX], s=2.0**969)
    @example(values=[_MAX / 2, _MAX / 2, 2.0**969], s=2.0**969)
    @example(values=[0.1] * 10, s=0.3)
    def test_total_is_the_fsum_total(self, values, s):
        expected = _sum_outcome((*values, s))
        try:
            partials = exact_partials(values)
        except OverflowError:
            assert _sum_outcome(values) is OverflowError and expected is OverflowError
            return
        assert all(p >= 0.0 for p in partials)
        assert _sum_outcome((*partials, s)) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["sum", "mean"]),
        calibration=st.lists(_EDGE_FLOATS.filter(lambda v: v > 0), min_size=1, max_size=12),
        sigmas=st.lists(_EDGE_FLOATS.filter(lambda v: v > 0), min_size=FAST_ROWS, max_size=20),
    )
    @example(kind="sum", calibration=[_MAX], sigmas=[1.0] * (FAST_ROWS - 1) + [2.0**970])
    @example(kind="mean", calibration=[1e308, 1.0], sigmas=[1.0] * FAST_ROWS)
    def test_block_is_one_candidate_at_a_time(self, kind, calibration, sigmas):
        """A block of at least FAST_ROWS candidates, which takes its totals
        from the calibration's partials and its row check from numpy sums,
        gives each row, or the error, that the same candidate alone gives."""
        vector = SummaryVector(calibration)

        def block():
            return [row.tolist() for row in _blocks_of(kind, (vector,), [sigmas])[0]]

        def one_at_a_time():
            return [list(_NORMALIZE[kind]((*calibration, s)).values) for s in sigmas]

        def outcome(compute):
            try:
                return compute()
            except (OutOfRangeError, AverageExceedsOneError) as exc:
                return type(exc), str(exc)

        assert outcome(block) == outcome(one_at_a_time)

    def test_only_blocks_of_fast_rows_compute_partials(self):
        calibration = SummaryVector((0.1, 0.2, 0.3))
        _blocks_of("mean", (calibration,), [[0.5] * (FAST_ROWS - 1)])
        assert "partials" not in vars(calibration)
        _blocks_of("mean", (calibration,), [[0.5] * FAST_ROWS])
        assert calibration.partials == exact_partials((0.1, 0.2, 0.3))


# --- Folds normalized together against one fold at a time ----------------


@st.composite
def _fold_queries(draw):
    """(calibrations, sigmas): K in 2..6 folds whose sizes differ by one, as
    make_fold_partition's do, in a drawn order, so they form two groups,
    and L in {1, 7, 8, 31} candidates per fold (on both sides of
    FAST_ROWS); positive summaries log-uniform over a drawn span."""
    K = draw(st.integers(2, 6))
    base, extra = draw(st.integers(1, 40)), draw(st.integers(1, K - 1))
    sizes = draw(st.permutations([base + 1] * extra + [base] * (K - extra)))
    L = draw(st.sampled_from([1, 7, 8, 31]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(-100.0, 100.0))
    hi = draw(st.floats(lo, 100.0))
    calibrations = [(10.0 ** rng.uniform(lo, hi, c)).tolist() for c in sizes]
    sigmas = 10.0 ** rng.uniform(lo, hi, (K, L))
    return calibrations, sigmas


#: what a fold after the first may be spoiled with: a bad candidate, a
#: non-positive calibration summary, or calibration summaries whose total,
#: or whose entries times m, overflow
_SPOILERS = st.sampled_from([
    ("candidate", math.nan), ("candidate", math.inf), ("candidate", -math.inf),
    ("candidate", 0.0), ("candidate", -1.0),
    ("calibration", 0.0), ("calibration", -2.0),
    ("calibration", _MAX), ("calibration", 1e308),
])


def _fold_by_fold(kind, folds, sigmas):
    """The blocks of a loop over the folds, one one-fold `_blocks` call each."""
    return [_blocks_of(kind, (fold,), [row])[0] for fold, row in zip(folds, sigmas)]


def _error_outcome(compute):
    """The bits of what compute() returns, or the class and message it raises."""
    try:
        return [block.tolist() for block in compute()]
    except (OutOfRangeError, NonFiniteEntryError, NonPositiveSummaryError,
            AverageExceedsOneError) as exc:
        return type(exc), str(exc)


class TestFoldsTogether:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["sum", "mean"]), query=_fold_queries())
    def test_each_fold_is_its_block_alone(self, kind, query):
        calibrations, sigmas = query
        folds = [SummaryVector(c) for c in calibrations]
        blocks = _blocks_of(kind, folds, sigmas)
        assert len(blocks) == len(folds)
        for calibration, row, block in zip(calibrations, sigmas, blocks):
            alone = _blocks_of(kind, (SummaryVector(calibration),), [row])[0]
            assert block.shape == alone.shape == (sigmas.shape[1], len(calibration) + 1)
            assert block.tobytes() == alone.tobytes()
            # and the per-vector tuple code, one candidate at a time
            assert block.tolist() == [list(_REFERENCE[kind]((*calibration, s))) for s in row]
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["sum", "mean"]),
        query=_fold_queries(),
        spoils=st.lists(
            st.tuples(st.integers(1, 5), st.integers(0, 40), _SPOILERS), min_size=1, max_size=3
        ),
    )
    @example(kind="mean", query=([[1.0, 2.0], [1.0]], np.ones((2, 8))),
             spoils=[(1, 0, ("calibration", 1e308))])
    @example(kind="sum", query=([[1.0, 2.0], [1.0], [3.0, 4.0]], np.ones((3, 1))),
             spoils=[(2, 0, ("candidate", math.nan)), (1, 0, ("calibration", _MAX))])
    def test_first_bad_fold_raises_its_error(self, kind, query, spoils):
        """A bad summary in a fold after the first raises the class and
        message of a loop over the folds: the first fold at fault decides."""
        calibrations, sigmas = query
        calibrations, sigmas = [list(c) for c in calibrations], sigmas.copy()
        for k, i, (where, value) in spoils:
            k = k % len(calibrations) or 1
            if where == "candidate":
                sigmas[k, i % sigmas.shape[1]] = value
            else:
                calibrations[k][i % len(calibrations[k])] = value
        folds = [SummaryVector(c) for c in calibrations]
        expected = _error_outcome(lambda: _fold_by_fold(kind, folds, sigmas))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _error_outcome(lambda: _blocks_of(kind, folds, sigmas)) == expected

    def test_each_group_is_checked_once(self, monkeypatch):
        """Each group of folds of one size passes check_e_rows once, with
        every row of its folds."""
        from confee import normalize

        seen = []

        def counting(block):
            seen.append(block.shape)
            return check_e_rows(block)

        monkeypatch.setattr(normalize, "check_e_rows", counting)
        folds = [SummaryVector([1.0] * c) for c in (3, 3, 2, 3, 2)]
        _blocks_of("mean", folds, np.ones((5, 7)))
        assert seen == [(21, 4), (14, 3)]
