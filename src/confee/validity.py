"""Monte Carlo harnesses for the two validity guarantees, and e-vs-p runs.

Space harness: over independent trials, draw a training set and one test
observation, fit a predictor, and record the e-value at the TRUE test
label. Validity means the expectation of that number is at most 1; the
verdict flags a violation only when the empirical mean exceeds 1 by more
than three standard errors, so a correct implementation flags nothing
while an inflated one (e.g. a constant 2) is caught immediately.

Time harness: one growing data stream; at each round fit on the prefix
and record the e-value at the realized label. The running mean must
settle at or below 1; the harness requires a declared per-component bound
on the predictor's outputs, since the guarantee needs boundedness, and
refuses a spec whose first fit would declare none before it draws. A split
or cross knn spec does not refit the held-out summaries on every prefix:
the harness keeps one conformity.NeighbourTable for the stream (each row's
64 nearest same-label rows, built 64 rows at a time as the prefix reaches
them) and every round's KnnRule walks it; the rows whose walk runs out
are scored together by the routine that stacked trials use
(conformity._stacked_summaries). Every summary, e-value and report byte
is the one a refit gives.

Comparison harness: fits one cross predictor per trial and reads out both
the merged e-value and the fold p-values, so the e-side bound and the
p-side merging rules are measured on identical draws.

The space and compare harnesses run their trials through `_run_trials`,
and each reads a trial's answer, the predictor's table at the test
point's true label, with one reader (`_e_at_truth`, `_compare_row`).
Every trial is one `_space_trial`, alone or in a stacked chunk, and all
are drawn one way. The seeds and generator states of a block of trials
are derived at once (`_trial_states`: numpy's SeedSequence hashing and
PCG64's seeding, recomputed over arrays in core), and each chunk of
trials (`_chunk_trials`) is drawn from its trials' states with the run's
one generator (data._sample_stack). A split or cross knn spec, whatever
its normalizer, takes as many trials a chunk as CHUNK_ENTRIES distance
entries hold; such a chunk of two or more, its folds drawn as
permutations, builds no Dataset and no FoldPartition and is fitted and
queried at once: one distance tensor for all its fits and queries, one
normalization of all its folds (normalize._blocks, the routine every
query normalizes by) and one table per trial (predictors._stacked_tables).
Every other spec, and a training set too large for two trials a chunk,
takes one trial a chunk, fitted and queried alone (`_space_trial`), as
the public calls fit and query it. A chunk stacks whatever the size of
its features: its tensor also holds pairs that a lone fit skips (two
labels, or one fold), and such a pair, if it overflows, is +inf without
a warning, like every knn distance (conformity._distances), and hidden
anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .conformity import RULE_KINDS, NeighbourTable, support_set_assignment, unit_margin_provider
from .core import (
    ClassificationTask, Dataset, PlausibilityTable, Task, _derive_seeds, _fold_sizes, _integer,
    _pcg64_states, _real_floats, _stacked_fold_rows, derive_seed,
)
from .data import Scenario, _sample_stack, sample
from .errors import (
    DimensionMismatchError, OutOfRangeError, TooFewFoldsError, UnboundedNormalizerError
)
from .normalize import NORMALIZER_KINDS, Normalizer, get_normalizer
from .predictors import (
    WEIGHTINGS,
    FullEPredictor,
    OnlineTrace,
    _EPredictor,
    _query_labels,
    _stacked_tables,
    cross_p_merge,
    fit_cross,
    fit_split,
    harmonic_mean,
)

#: Levels t of the reported tail rates P(e >= t); Markov bounds each by 1/t.
TAIL_THRESHOLDS = (2.0, 5.0, 10.0, 20.0)
DEFAULT_EPSILONS = (0.05, 0.1, 0.2)
#: The most `threads` a harness accepts. The trials run in the calling
#: thread whatever the value; the bound only refuses an absurd one.
MAX_THREADS = 64
PREDICTOR_KINDS = ("split", "cross", "full", "const")

CONSISTENT = "consistent"
VIOLATION = "violation"


@dataclass(frozen=True)
class PredictorSpec:
    """Recipe for building a predictor on any training set.

    kind selects the predictor family; rule/k/lam configure the conformity
    rule; folds and weighting apply to cross; calibration_size to split;
    const_value to const (a deliberately naive predictor used to prove the
    violation detector can fire); margin_* to full.

    Fields are checked when the spec is built, before any harness draws
    data: kind, rule, normalizer and weighting must be known, counts
    integers and reals real numbers, and each OutOfRangeError names its
    field. Ranges (k, folds and calibration_size against the training
    size) are checked when a predictor is built from the spec.
    """

    kind: str = "cross"
    rule: str = "knn"
    k: int = 3
    lam: float = 1.0
    normalizer: Union[str, Normalizer] = "mean"
    folds: int = 5
    weighting: str = "uniform"
    calibration_size: int = 10
    const_value: float = 1.0
    margin_w: Optional[tuple] = None
    margin_b: float = 0.0
    positive_label: object = 1

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise OutOfRangeError(f"kind must be one of {PREDICTOR_KINDS}")
        if self.rule not in RULE_KINDS:
            raise OutOfRangeError(f"rule must be one of {RULE_KINDS}, got {self.rule!r}")
        if not isinstance(self.normalizer, Normalizer) and self.normalizer not in NORMALIZER_KINDS:
            raise OutOfRangeError(
                f"normalizer must be one of {NORMALIZER_KINDS} or a Normalizer, "
                f"got {self.normalizer!r}"
            )
        if self.weighting not in WEIGHTINGS:
            raise OutOfRangeError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        for name in ("k", "folds", "calibration_size"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("lam", "const_value", "margin_b"):
            object.__setattr__(self, name, _real_floats((getattr(self, name),), name)[0])
        if self.const_value < 0 or not math.isfinite(self.const_value):
            raise OutOfRangeError("const_value must be finite and nonnegative")

    def rule_params(self) -> dict:
        return {"k": self.k} if self.rule == "knn" else {"lam": self.lam}


@dataclass(frozen=True)
class ConstantEPredictor(_EPredictor):
    """Outputs one fixed value for every query.

    Only a genuine e-predictor when value <= 1; larger values are allowed
    at construction precisely so harnesses can demonstrate a detection.
    It keeps the query contract of every predictor: `predict(x)` answers
    the task's candidates, and labels a caller passes are checked against
    the task before any value is given. Its bound is the value itself.
    """

    value: float
    task: Task

    def predict(self, x, labels=None) -> PlausibilityTable:
        labels = _query_labels(self.task, labels)
        return PlausibilityTable(labels, (self.value,) * len(labels))

    def component_bound(self) -> float:
        return self.value


def build_predictor(spec: PredictorSpec, training: Dataset, fold_seed: int, *, table=None):
    """Materialize a spec on a concrete training set.

    split uses the last calibration_size observations as the calibration
    part; cross partitions under fold_seed; full runs the unit-margin
    support-set assignment, whose positive_label must be one of the labels
    of a classification task. A split or cross knn spec passes `table`, a
    conformity.NeighbourTable whose stream starts with the training rows,
    to its KnnRule; any other spec given a table raises OutOfRangeError
    before any fit.
    """
    if table is not None and (spec.rule != "knn" or spec.kind not in ("split", "cross")):
        raise OutOfRangeError(
            "table: a neighbour table serves split and cross knn specs only; "
            f"this spec has kind={spec.kind!r}, rule={spec.rule!r}"
        )
    if spec.kind == "const":
        return ConstantEPredictor(spec.const_value, training.task)
    params = spec.rule_params() if table is None else {**spec.rule_params(), "table": table}
    if spec.kind == "split":
        return fit_split(training, spec.calibration_size, spec.rule, spec.normalizer, **params)
    if spec.kind == "cross":
        return fit_cross(
            training,
            spec.folds,
            fold_seed,
            spec.rule,
            spec.normalizer,
            spec.weighting,
            **params,
        )
    return FullEPredictor(training, _full_assignment(spec, training.task, training.dim))


def _full_assignment(spec: PredictorSpec, task: Task, dim: int):
    """A full spec's support-set e-assignment for data of task `task` with
    `dim` features, after the spec's own checks: positive_label must be one
    of the labels of a classification task, and margin_w must have dim
    entries (default: dim zeros)."""
    if isinstance(task, ClassificationTask) and spec.positive_label not in task.labels:
        raise OutOfRangeError(
            f"positive_label {spec.positive_label!r} is not one of the task's labels {task.labels}"
        )
    w = spec.margin_w if spec.margin_w is not None else (0.0,) * dim
    if len(w) != dim:
        raise DimensionMismatchError(
            f"margin_w has {len(w)} entries; the training data has {dim} features"
        )
    return support_set_assignment(unit_margin_provider(w, spec.margin_b, spec.positive_label))


def _space_trial(scenario, spec, read, X, y, fold_seed):
    """Fit and query one drawn trial: the rows X and labels y of a draw of
    n + 1 observations of `scenario`. A stacked chunk of trials (see
    `_run_trials`) gives each of them the same result.

    The first n observations train the predictor, built with `fold_seed`,
    and the last one is the test point; returns read(table), the
    predictor's table at the test point's true label. A knn distance that
    overflows is +inf here as in a stacked chunk, without a warning.
    """
    n = len(X) - 1
    predictor = build_predictor(spec, Dataset(X[:n], y[:n], scenario.task), fold_seed)
    return read(predictor.predict(X[n], (y[n],)))


#: Distance entries in one chunk of stacked trials. A trial holds
#: (r + K) * n of them: its r fold rows and its test object once per fold
#: against its n training rows. Like TABLE_BLOCK, the bound keeps the
#: chunk's temporaries, and so peak RSS, small: over 3000 gm2d cross-knn
#: trials (n = 50, K = 5, 7 trials a chunk) peak RSS read 36.7-36.9 MiB,
#: as trial by trial (36.8), and 37.0-37.1, 37.6-37.8 and 39.4 MiB at
#: 40,000, 80,000 and 160,000 entries, for 3-4%, 4-9% and 12% more trials
#: per second.
CHUNK_ENTRIES = 20_000

#: Trials whose generator states _run_trials derives at once, rounded down
#: to whole chunks. Deriving costs a fixed number of numpy calls a block
#: plus some Python a trial, and the states of a block stay alive until its
#: last chunk is drawn. Over 2520 gm2d cross-knn trials (n = 50, 7 trials
#: a chunk), median of 5: 30, 14, 7.6, 4.7, 4.2 and 4.9 us a trial at 28,
#: 63, 126, 252, 504 and 1008 trials a block; peak RSS of 7200 trials read
#: 36.9-37.1, 37.0-37.1, 37.3 and 37.9-38.0 MiB at 126, 252, 504 and 1008
#: (36.7-37.0 when each trial seeded its own generators).
SEED_BLOCK = 256


def _chunk_trials(spec: PredictorSpec, n_train: int) -> int:
    """The trials that _run_trials draws together, at least one: a split or
    cross knn spec that passed _check_first_fit takes as many trials as
    CHUNK_ENTRIES holds, and every other spec one.

    A chunk of two trials or more is fitted and queried stacked, and a
    chunk of one alone (`_space_trial`). A stacked fit computes every pair
    of a trial's rows, where a lone fit computes each label's block only,
    so stacking wins by sharing numpy's per-call cost among trials, and a
    chunk of one trial would lose.
    Per-trial time over stacked time, median of 5 alternating runs of 200
    gm2d trials: cross (K = 5) 1.77 at n = 50 (7 trials a chunk), 1.27 at
    n = 90 (2) and 0.94 at n = 100 (1); split (c = 10) 1.59 at n = 400 (4)
    and 1.21 at n = 900 (2). gm5c read 2.00, 1.35 and 1.02, and 1.89 and
    1.29.
    """
    if spec.rule != "knn" or spec.kind not in ("split", "cross"):
        return 1
    rows, K = (spec.calibration_size, 1) if spec.kind == "split" else (n_train, spec.folds)
    return max(1, CHUNK_ENTRIES // ((rows + K) * n_train))


def _trial_states(seed: int, ts: range) -> list:
    """For each trial t of ts, what its draw and fit start from, all
    derived together: the PCG64 states (core._pcg64_states) of the two
    streams of its draw's seed, derive_seed(seed, t, 0), then the state
    and the int of its fold seed, derive_seed(seed, t, 2)."""
    draws, folds = _derive_seeds(seed, ts, 0), _derive_seeds(seed, ts, 2)
    states = _pcg64_states(draws, 0), _pcg64_states(draws, 1), _pcg64_states(folds)
    return list(zip(*states, folds.tolist()))


def _trial_chunk(scenario, spec, n_train, read, states, rng) -> list:
    """read(table) for the trials whose _trial_states are `states`, drawn
    together with rng, a PCG64 Generator (data._sample_stack), each as
    `sample` draws n_train + 1 observations from its draw's seed.

    A chunk of one trial is fitted and queried alone (`_space_trial`, with
    its fold seed); a chunk of more is fitted and queried together
    (predictors._stacked_tables), its folds the permutations that
    make_fold_partition draws from their fold seeds. Whatever the size of
    the features: a pair that overflows is +inf without a warning, as in a
    lone fit (conformity._distances)."""
    X, y, codes = _sample_stack(scenario, n_train + 1, [state[:2] for state in states], rng)
    if len(states) == 1:
        return [_space_trial(scenario, spec, read, X[0], y[0], states[0][3])]
    if spec.kind == "split":
        c = spec.calibration_size
        rows, sizes = np.broadcast_to(np.arange(n_train - c, n_train), (len(states), c)), [c]
    else:
        rows = _stacked_fold_rows(n_train, [state[2] for state in states], rng)
        sizes = _fold_sizes(n_train, spec.folds)
    kind = get_normalizer(spec.normalizer).kind
    tables = _stacked_tables(
        X, codes, y[:, n_train].tolist(), rows, sizes, spec.k, kind, spec.weighting
    )
    return list(map(read, tables))


def _run_trials(scenario, spec, trials, seed, n_train, threads, read) -> list:
    """read(table) for trials 0..trials-1, in order: each one `_space_trial`,
    alone or in a stacked chunk.

    The space and compare harnesses draw their trials only through here,
    and here their shared preconditions are checked, before any draw. A
    split or cross spec needs n_train rows enough for its first fit (see
    _first_fit_rows). The trials run in chunks of `_chunk_trials`: the
    generator states of SEED_BLOCK trials or so, whole chunks, are derived
    at once (_trial_states), and each chunk is drawn from its states with
    the run's one generator and then fitted and queried (_trial_chunk),
    with the numbers, checks and merge of a lone trial. The trials run one
    after another in the calling thread: `threads` must lie in
    1..MAX_THREADS, starts no thread and changes nothing.
    """
    trials = _integer(trials, "trials")
    n_train = _integer(n_train, "n_train")
    threads = _integer(threads, "threads")
    seed = _seed(seed)
    if trials < 100:
        raise OutOfRangeError(f"trials={trials}; need at least 100 for a stable verdict")
    if n_train < 2:
        raise OutOfRangeError("n_train must be at least 2")
    if threads < 1:
        raise OutOfRangeError(f"threads={threads}; need at least 1")
    if threads > MAX_THREADS:
        raise OutOfRangeError(f"threads={threads}; at most {MAX_THREADS}")
    _check_first_fit(spec, "n_train", n_train)
    size = _chunk_trials(spec, n_train)
    block = size * max(1, SEED_BLOCK // size)
    rng = np.random.default_rng(0)
    out = []
    for lo in range(0, trials, block):
        states = _trial_states(seed, range(lo, min(lo + block, trials)))
        for i in range(0, len(states), size):
            out += _trial_chunk(scenario, spec, n_train, read, states[i : i + size], rng)
    return out


def _seed(seed) -> int:
    """A harness's master seed, a nonnegative integer, checked before any draw."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise OutOfRangeError(f"seed={seed}; need a nonnegative integer")
    return seed


def _e_at_truth(table) -> float:
    """The space harness's reader: the e-value at the test point's true label."""
    return float(table.values[0])


def _mean_and_se(values: Sequence[float]) -> tuple:
    n = len(values)
    try:
        mean = math.fsum(values) / n
    except OverflowError:
        raise OutOfRangeError("e-values too large to average: their sum overflows") from None
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def _tail_rates(values: Sequence[float]) -> dict:
    n = len(values)
    return {t: sum(1 for v in values if v >= t) / n for t in TAIL_THRESHOLDS}


class _Report:
    """A harness report whose to_dict reads its dataclass fields.

    Dicts keyed by float levels get repr keys in sorted order, so the dict
    serializes as JSON in one stable form; tuples stay tuples, which json
    writes as arrays.
    """

    def to_dict(self) -> dict:
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, dict):
                value = {repr(k): v for k, v in sorted(value.items())}
            out[field.name] = value
        return out


@dataclass(frozen=True)
class SpaceValidityReport(_Report):
    trials: int
    n_train: int
    mean_e_at_truth: float
    std_error: float
    tail_rates: dict
    verdict: str


def mc_space_validity(
    scenario: Scenario,
    spec: PredictorSpec,
    trials: int,
    seed: int,
    *,
    n_train: int = 60,
    threads: int = 1,
) -> SpaceValidityReport:
    """Estimate the mean e-value at the true label over fresh IID trials.

    Each trial is one `_space_trial`, alone or in a stacked chunk (see
    `_run_trials`), read by `_e_at_truth`. The seed, the counts and a
    split or cross spec's first fit are checked before any draw. `threads`
    must lie in 1..MAX_THREADS; it starts no thread and changes nothing.
    """
    es = _run_trials(scenario, spec, trials, seed, n_train, threads, _e_at_truth)
    mean, se = _mean_and_se(es)
    verdict = VIOLATION if mean > 1.0 + 3.0 * se else CONSISTENT
    return SpaceValidityReport(
        trials, n_train, mean, se, _tail_rates(es), verdict
    )


@dataclass(frozen=True)
class TimeValidityReport(_Report):
    rounds: int
    warmup: int
    tolerance: float
    bound_used: float
    final_mean: float
    max_running_mean_after_warmup: float
    verdict: str
    trace: OnlineTrace

    def to_dict(self) -> dict:
        out = super().to_dict()
        trace = out.pop("trace")
        out["e_values"] = trace.e_values
        out["running_means"] = trace.running_means
        return out


def _first_fit_rows(spec: PredictorSpec) -> int:
    """Fewest rows a split or cross spec, with fields that a fit accepts,
    can be fitted on.

    The proper part needs k rows for knn and one for ridge; split holds c
    rows out for calibration, cross its largest fold.
    """
    proper = spec.k if spec.rule == "knn" else 1
    if spec.kind == "split":
        return spec.calibration_size + proper
    K = spec.folds
    # n rows leave n - ceil(n/K) = floor(n (K-1) / K) outside the largest fold
    return max(K, -(-proper * K // (K - 1)))


def _check_first_fit(spec: PredictorSpec, name: str, rows: int) -> None:
    """Refuse a split or cross spec that its first fit, on `rows` rows
    passed as the argument `name`, would refuse, with the fit's own error
    and in the fit's order: a fold count below 2 or a calibration size
    below 1, then a knn k below 1; then fewer rows than _first_fit_rows."""
    if spec.kind not in ("split", "cross"):
        return
    if spec.kind == "cross" and spec.folds < 2:
        raise TooFewFoldsError(f"K={spec.folds}; need at least 2")
    if spec.kind == "split" and spec.calibration_size < 1:
        raise OutOfRangeError(f"calibration_size {spec.calibration_size} must lie in 1..{rows - 1}")
    if spec.rule == "knn" and spec.k < 1:
        raise OutOfRangeError(f"k={spec.k}; need at least 1 neighbour")
    minimum = _first_fit_rows(spec)
    if rows < minimum:
        raise OutOfRangeError(
            f"{name}={rows}; the first {spec.kind} fit needs at least {minimum} rows"
        )


def _check_first_bound(spec: PredictorSpec, scenario: Scenario, rows: int) -> None:
    """Refuse, before any draw, a spec whose first fit, on `rows` rows of
    `scenario`, would declare no bound, with `_online_round`'s error: a
    full spec, after its own checks (`_full_assignment`), or a split or
    cross spec that passed `_check_first_fit` and whose normalizer declares
    none at the size plus one of a calibration fold of that fit (split
    holds out c rows in one fold, cross splits the rows into K folds)."""
    if spec.kind == "full":
        _full_assignment(spec, scenario.task, scenario.dim)
        raise UnboundedNormalizerError("predictor declares no bound")
    if spec.kind in ("split", "cross"):
        c, K = (spec.calibration_size, 1) if spec.kind == "split" else (rows, spec.folds)
        bound = get_normalizer(spec.normalizer).component_bound
        if any(bound(size + 1) is None for size in _fold_sizes(c, K)):
            raise UnboundedNormalizerError("predictor declares no bound")


def _online_round(spec: PredictorSpec, stream: Dataset, seed: int, i: int, table=None) -> tuple:
    """Round i: fit on the first i - 1 rows of the stream and score row i - 1
    at its realized label; a knn fit takes its held-out summaries from
    `table`, the stream's NeighbourTable, if one is given.

    The predictor's declared bound is read before its e-value, so a split
    or cross predictor whose normalizer declares none at this round's fold
    sizes is refused first, with `_check_first_bound`'s message (which
    refuses a full spec, and a first fit without a bound, before the
    stream is drawn). Returns (e, bound).
    `build_predictor` is looked up as a module global at each call:
    bench/worker.py starts an online item's clock by patching it.
    """
    prefix = stream.subset(range(i - 1))
    predictor = build_predictor(spec, prefix, derive_seed(seed, 2, i), table=table)
    bound = predictor.component_bound()
    if bound is None:
        raise UnboundedNormalizerError("predictor declares no bound")
    z = stream.observation(i - 1)
    return float(predictor.e_at(z.x, z.y)), float(bound)


def online_time_validity(
    scenario: Scenario,
    spec: PredictorSpec,
    n_rounds: int,
    seed: int,
    *,
    warmup: int = 20,
    tolerance: float = 0.05,
) -> TimeValidityReport:
    """Fit on each growing prefix; track the running mean of realized e-values.

    Rounds up to `warmup` emit the neutral value 1 (nothing to fit yet);
    afterwards round i fits on observations 1..i-1 and scores observation i
    at its realized label. A split or cross knn fit takes its held-out
    summaries from the stream's NeighbourTable, the same doubles a refit
    on the prefix gives. The seed is checked before the stream is drawn.
    The first fit runs on `warmup` rows and a split or cross spec refuses a
    warmup too short for it. A spec whose first fit would declare no bound
    is refused before the stream is drawn too (`_check_first_bound`): a
    full spec, after its own checks (positive_label, margin_w), or a split
    or cross spec whose normalizer declares none at that fit's calibration
    sizes. Each fitted round is one `_online_round`, which asks the fitted
    predictor for its bound (`component_bound()`) and refuses one that
    declares none before its e-value, as a normalizer may at a later
    round's sizes. The verdict compares the final running mean against
    1 + tolerance.
    """
    n_rounds, warmup = _integer(n_rounds, "n_rounds"), _integer(warmup, "warmup")
    (tolerance,) = _real_floats((tolerance,), "tolerance")
    if n_rounds < 50:
        raise OutOfRangeError(f"n_rounds={n_rounds}; need at least 50")
    if not 1 <= warmup < n_rounds:
        raise OutOfRangeError("warmup must lie in 1..n_rounds-1")
    if not 0 < tolerance < 1:
        raise OutOfRangeError("tolerance must lie in (0, 1)")
    seed = _seed(seed)
    _check_first_fit(spec, "warmup", warmup)
    _check_first_bound(spec, scenario, warmup)

    stream = sample(scenario, n_rounds, derive_seed(seed, 1))
    knn = spec.kind in ("split", "cross") and spec.rule == "knn"
    # the table builds each row's list inside the first round that fits
    # on the row, so no list is built before the first fit
    table = NeighbourTable(stream) if knn else None
    rounds = [
        _online_round(spec, stream, seed, i, table) for i in range(warmup + 1, n_rounds + 1)
    ]
    e_values = [1.0] * warmup + [e for e, _ in rounds]
    bound_used = max([0.0, *(bound for _, bound in rounds)])
    try:
        trace = OnlineTrace(e_values)
    except OverflowError:
        raise OutOfRangeError("e-values too large to average: their sum overflows") from None
    final = trace.running_means[-1]
    max_after = max(trace.running_means[warmup:])
    verdict = CONSISTENT if final <= 1.0 + tolerance else VIOLATION
    return TimeValidityReport(
        n_rounds, warmup, tolerance, bound_used, final, max_after, verdict, trace
    )


@dataclass(frozen=True)
class ComparisonReport(_Report):
    """E-side and p-side behaviour measured on identical trials."""

    trials: int
    epsilons: tuple
    e_mean: float
    e_std_error: float
    e_tail_rates: dict
    unadjusted_exceedance: dict
    adjusted_exceedance: dict
    rate_std_errors: dict
    mean_harmonic_p: float
    mean_arithmetic_p: float
    max_identity_deviation: float
    verdict: str


def _compare_row(table) -> tuple:
    """The compare harness's reader: the table at the true label gives the
    merged e-value, both p-merges of the fold p-values, their harmonic mean
    and its distance from 1/mean(1/p)."""
    ps = table.p_values[:, 0].tolist()
    unadjusted = cross_p_merge(ps, adjusted=False)
    adjusted = cross_p_merge(ps, adjusted=True)
    harm = harmonic_mean(ps)
    inverse_mean = math.fsum(1.0 / p for p in ps) / len(ps)
    deviation = abs(harm - 1.0 / inverse_mean)
    return table.values[0], unadjusted, adjusted, harm, deviation


def compare_e_vs_p(
    scenario: Scenario,
    spec: PredictorSpec,
    trials: int,
    seed: int,
    *,
    n_train: int = 60,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    threads: int = 1,
) -> ComparisonReport:
    """Cross-conformal e-merging versus p-merging on the same draws.

    Per trial the fold predictors are fitted once and queried once at the
    true label; the e-side reads the arithmetic-mean merge, the p-side
    reads the fold p-values of the same pass and both the raw mean and the
    factor-2 adjusted merge. The report also tracks the harmonic mean of
    fold p-values, which is 1/mean(1/p). The reciprocal 1/p is no
    calibrator: a conformal p-value with c calibration summaries and no
    ties has E[1/p] = 1 + 1/2 + ... + 1/(c+1) > 1, so 1/p is not an
    e-value. Each trial is one `_space_trial`, alone or in a stacked chunk
    (see `_run_trials`), read by `_compare_row`. The spec kind is checked
    first, then the levels (distinct, in (0, 1)), then `_run_trials`'
    preconditions, all before any draw. `threads` must lie in
    1..MAX_THREADS; it starts no thread and changes nothing.
    """
    if spec.kind != "cross":
        raise OutOfRangeError("comparison runs on a cross predictor spec")
    eps = _real_floats(epsilons, "epsilons")
    if not eps or any(not 0 < e < 1 for e in eps):
        raise OutOfRangeError("epsilons must be non-empty and lie in (0, 1)")
    for e in eps:
        if eps.count(e) > 1:
            raise OutOfRangeError(f"epsilon {e} is repeated")
    rows = _run_trials(scenario, spec, trials, seed, n_train, threads, _compare_row)
    es, unadj, adj, harms, deviations = zip(*rows)

    e_mean, e_se = _mean_and_se(es)
    unadj_rates = {e: sum(1 for p in unadj if p <= e) / trials for e in eps}
    adj_rates = {e: sum(1 for p in adj if p <= e) / trials for e in eps}
    rate_ses = {e: math.sqrt(e * (1.0 - e) / trials) for e in eps}
    e_ok = e_mean <= 1.0 + 3.0 * e_se
    p_ok = all(adj_rates[e] <= e + 3.0 * rate_ses[e] for e in eps)
    return ComparisonReport(
        trials=trials,
        epsilons=eps,
        e_mean=e_mean,
        e_std_error=e_se,
        e_tail_rates=_tail_rates(es),
        unadjusted_exceedance=unadj_rates,
        adjusted_exceedance=adj_rates,
        rate_std_errors=rate_ses,
        mean_harmonic_p=math.fsum(harms) / trials,
        mean_arithmetic_p=math.fsum(unadj) / trials,
        max_identity_deviation=max(deviations),
        verdict=CONSISTENT if (e_ok and p_ok) else VIOLATION,
    )


PREDICTOR_PRESETS = {
    "cross-knn-mean": PredictorSpec(kind="cross", rule="knn", normalizer="mean"),
    "cross-knn-sum": PredictorSpec(kind="cross", rule="knn", normalizer="sum"),
    "split-knn-mean": PredictorSpec(kind="split", rule="knn", normalizer="mean"),
    "split-knn-sum": PredictorSpec(kind="split", rule="knn", normalizer="sum"),
    "cross-ridge-mean": PredictorSpec(kind="cross", rule="ridge", normalizer="mean"),
    "cross-ridge-sum": PredictorSpec(kind="cross", rule="ridge", normalizer="sum"),
    "split-ridge-mean": PredictorSpec(kind="split", rule="ridge", normalizer="mean"),
    "split-ridge-sum": PredictorSpec(kind="split", rule="ridge", normalizer="sum"),
}
