"""Monte Carlo harnesses for the two validity guarantees, and e-vs-p runs.

Space harness: over independent trials, draw a training set and one test
observation, fit a predictor, and record the e-value at the TRUE test
label. Validity means the expectation of that number is at most 1; the
verdict flags a violation only when the empirical mean exceeds 1 by more
than three standard errors, so a correct implementation flags nothing
while an inflated one (e.g. a constant 2) is caught immediately.

Time harness: one growing data stream; at each round refit on the prefix
and record the e-value at the realized label. The running mean must
settle at or below 1; the harness requires a declared per-component bound
on the predictor's outputs, since the guarantee needs boundedness.

Comparison harness: fits one cross predictor per trial and reads out both
the merged e-value and the fold p-values, so the e-side bound and the
p-side merging rules are measured on identical draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

from .conformity import support_set_assignment, unit_margin_provider
from .core import Dataset, PlausibilityTable, derive_seed
from .data import Scenario, sample
from .errors import OutOfRangeError, UnboundedNormalizerError
from .normalize import Normalizer, get_normalizer
from .predictors import (
    FullEPredictor,
    OnlineTrace,
    SplitEPredictor,
    cross_p_merge,
    fit_cross,
    fit_split,
    harmonic_mean,
)

TAIL_THRESHOLDS = (2.0, 5.0, 10.0, 20.0)
DEFAULT_EPSILONS = (0.05, 0.1, 0.2)
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
        if self.const_value < 0 or not math.isfinite(self.const_value):
            raise OutOfRangeError("const_value must be finite and nonnegative")

    def rule_params(self) -> dict:
        return {"k": self.k} if self.rule == "knn" else {"lam": self.lam}


@dataclass(frozen=True)
class ConstantEPredictor:
    """Outputs one fixed value for every query.

    Only a genuine e-predictor when value <= 1; larger values are allowed
    at construction precisely so harnesses can demonstrate a detection.
    """

    value: float

    def e_at(self, x, y) -> float:
        return self.value

    def predict(self, x, labels) -> PlausibilityTable:
        labels = tuple(labels)
        return PlausibilityTable(labels, (self.value,) * len(labels))

    def component_bound(self) -> float:
        return self.value


def build_predictor(spec: PredictorSpec, training: Dataset, fold_seed: int):
    """Materialize a spec on a concrete training set.

    split uses the last calibration_size observations as the calibration
    part; cross partitions under fold_seed; full runs the unit-margin
    support-set assignment.
    """
    if spec.kind == "const":
        return ConstantEPredictor(spec.const_value)
    if spec.kind == "split":
        c = spec.calibration_size
        if not 1 <= c <= training.n - 1:
            raise OutOfRangeError(
                f"calibration_size {c} must lie in 1..{training.n - 1}"
            )
        proper = training.subset(range(training.n - c))
        calibration = training.subset(range(training.n - c, training.n))
        return fit_split(
            proper, calibration, spec.rule, spec.normalizer, **spec.rule_params()
        )
    if spec.kind == "cross":
        return fit_cross(
            training,
            spec.folds,
            fold_seed,
            spec.rule,
            spec.normalizer,
            spec.weighting,
            **spec.rule_params(),
        )
    w = spec.margin_w if spec.margin_w is not None else (0.0,) * training.dim
    provider = unit_margin_provider(w, spec.margin_b, spec.positive_label)
    return FullEPredictor(training, support_set_assignment(provider))


def _map_trials(fn, trials: int, threads: int) -> list:
    """Run fn(0..trials-1); results are positionally ordered either way.

    The pool never holds more than os.cpu_count() threads.
    """
    if threads < 1:
        raise OutOfRangeError(f"threads={threads}; need at least 1")
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _run_trials(scenario, spec, trials, seed, n_train, threads, read) -> list:
    """Trial t: a fresh training set and test point, one fitted predictor.

    Returns read(predictor, test_observation) for every trial, in order;
    the space and compare harnesses draw their trials only through here.
    """

    def one_trial(t: int):
        training = sample(scenario, n_train, derive_seed(seed, t, 0))
        test = sample(scenario, 1, derive_seed(seed, t, 1))
        predictor = build_predictor(spec, training, derive_seed(seed, t, 2))
        return read(predictor, test.observation(0))

    return _map_trials(one_trial, trials, threads)


def _mean_and_se(values: Sequence[float]) -> tuple:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def _tail_rates(values: Sequence[float], thresholds: Sequence[float]) -> dict:
    n = len(values)
    return {float(t): sum(1 for v in values if v >= t) / n for t in thresholds}


class _Report:
    """A harness report whose to_dict reads its dataclass fields.

    Dicts keyed by float levels get repr keys in sorted order and tuples
    become lists, so the dict serializes as JSON in one stable form.
    """

    def to_dict(self) -> dict:
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, dict):
                value = {repr(k): v for k, v in sorted(value.items())}
            elif isinstance(value, tuple):
                value = list(value)
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
    thresholds: Sequence[float] = TAIL_THRESHOLDS,
    threads: int = 1,
) -> SpaceValidityReport:
    """Estimate the mean e-value at the true label over fresh IID trials."""
    if trials < 100:
        raise OutOfRangeError(f"trials={trials}; need at least 100 for a stable verdict")
    if n_train < 2:
        raise OutOfRangeError("n_train must be at least 2")
    if any(t <= 1 for t in thresholds):
        raise OutOfRangeError("tail thresholds must exceed 1")

    es = _run_trials(
        scenario, spec, trials, seed, n_train, threads,
        lambda predictor, z: float(predictor.e_at(z.x, z.y)),
    )
    mean, se = _mean_and_se(es)
    verdict = VIOLATION if mean > 1.0 + 3.0 * se else CONSISTENT
    return SpaceValidityReport(
        trials, n_train, mean, se, _tail_rates(es, thresholds), verdict
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
        out["e_values"] = list(trace.e_values)
        out["running_means"] = list(trace.running_means)
        return out


def _round_bound(spec: PredictorSpec, predictor) -> float:
    if isinstance(predictor, ConstantEPredictor):
        return predictor.component_bound()
    normalizer = get_normalizer(spec.normalizer)
    if isinstance(predictor, SplitEPredictor):
        m = predictor.split.calibration_size + 1
        bound = normalizer.component_bound(m)
    else:
        bound = 0.0
        for fold in predictor.partition.folds:
            fb = normalizer.component_bound(len(fold) + 1)
            if fb is None:
                bound = None
                break
            bound = max(bound, fb)
    if bound is None:
        raise UnboundedNormalizerError("normalizer declares no bound")
    return float(bound)


def _first_fit_rows(spec: PredictorSpec) -> int:
    """Fewest rows a split or cross spec can be fitted on.

    The proper part needs k rows for knn and one for ridge; split holds c
    rows out for calibration, cross its largest fold.
    """
    proper = max(spec.k, 1) if spec.rule == "knn" else 1
    if spec.kind == "split":
        return spec.calibration_size + proper
    K = spec.folds
    if K < 2:
        return K  # fit_cross refuses the fold count itself
    # n rows leave n - ceil(n/K) = floor(n (K-1) / K) outside the largest fold
    return max(K, -(-proper * K // (K - 1)))


def online_time_validity(
    scenario: Scenario,
    spec: PredictorSpec,
    n_rounds: int,
    seed: int,
    *,
    warmup: int = 20,
    tolerance: float = 0.05,
) -> TimeValidityReport:
    """Refit on each growing prefix; track the running mean of realized e-values.

    Rounds up to `warmup` emit the neutral value 1 (nothing to fit yet);
    afterwards round i fits on observations 1..i-1 and scores observation i
    at its realized label, so the first fit runs on `warmup` rows and a
    split or cross spec refuses a warmup too short for it. The verdict
    compares the final running mean against 1 + tolerance.
    """
    if n_rounds < 50:
        raise OutOfRangeError(f"n_rounds={n_rounds}; need at least 50")
    if not 1 <= warmup < n_rounds:
        raise OutOfRangeError("warmup must lie in 1..n_rounds-1")
    if not 0 < tolerance < 1:
        raise OutOfRangeError("tolerance must lie in (0, 1)")
    if spec.kind == "full":
        raise UnboundedNormalizerError(
            "full predictor declares no output bound; use split, cross, or const"
        )
    if spec.kind in ("split", "cross"):
        if get_normalizer(spec.normalizer).component_bound(2) is None:
            raise UnboundedNormalizerError("normalizer declares no bound")
        minimum = _first_fit_rows(spec)
        if warmup < minimum:
            raise OutOfRangeError(
                f"warmup={warmup}; the first {spec.kind} fit needs at least {minimum} rows"
            )

    stream = sample(scenario, n_rounds, derive_seed(seed, 1))
    e_values = []
    bound_used = float(spec.const_value) if spec.kind == "const" else 0.0
    for i in range(1, n_rounds + 1):
        if i <= warmup:
            e_values.append(1.0)
            continue
        prefix = stream.subset(range(i - 1))
        predictor = build_predictor(spec, prefix, derive_seed(seed, 2, i))
        bound_used = max(bound_used, _round_bound(spec, predictor))
        z = stream.observation(i - 1)
        e_values.append(float(predictor.e_at(z.x, z.y)))
    trace = OnlineTrace.from_e_values(e_values)
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


def compare_e_vs_p(
    scenario: Scenario,
    spec: PredictorSpec,
    trials: int,
    seed: int,
    *,
    n_train: int = 60,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    thresholds: Sequence[float] = TAIL_THRESHOLDS,
    threads: int = 1,
) -> ComparisonReport:
    """Cross-conformal e-merging versus p-merging on the same draws.

    Per trial the fold predictors are fitted once and queried once at the
    true label; the e-side reads the arithmetic-mean merge, the p-side
    reads the fold p-values of the same pass and both the raw mean and the
    factor-2 adjusted merge. The report also tracks the harmonic mean of
    fold p-values and its identity with the reciprocal of the mean
    calibrated e-value, 1/mean(1/p).
    """
    if spec.kind != "cross":
        raise OutOfRangeError("comparison runs on a cross predictor spec")
    if trials < 100:
        raise OutOfRangeError(f"trials={trials}; need at least 100")
    eps = tuple(float(e) for e in epsilons)
    if any(not 0 < e < 1 for e in eps):
        raise OutOfRangeError("epsilons must lie in (0, 1)")

    def read(predictor, z) -> tuple:
        table = predictor.predict(z.x, (z.y,))
        ps = tuple(fold.p_values[0] for fold in table.folds)
        unadjusted = cross_p_merge(ps, adjusted=False)
        adjusted = cross_p_merge(ps, adjusted=True)
        harm = harmonic_mean(ps)
        inverse_mean = math.fsum(1.0 / p for p in ps) / len(ps)
        deviation = abs(harm - 1.0 / inverse_mean)
        return table.values[0], unadjusted, adjusted, harm, deviation

    rows = _run_trials(scenario, spec, trials, seed, n_train, threads, read)
    es = [r[0] for r in rows]
    unadj = [r[1] for r in rows]
    adj = [r[2] for r in rows]
    harms = [r[3] for r in rows]
    deviations = [r[4] for r in rows]

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
        e_tail_rates=_tail_rates(es, thresholds),
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
