import functools
import math
import pickle
import re
import threading
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import cli, conformity, core, predictors, validity
from confee import (
    ConstantEPredictor,
    Dataset,
    DimensionMismatchError,
    KTooLargeError,
    NonFiniteEntryError,
    Normalizer,
    OutOfRangeError,
    PREDICTOR_PRESETS,
    PredictorSpec,
    Scenario,
    TooFewFoldsError,
    UnboundedNormalizerError,
    build_predictor,
    compare_e_vs_p,
    get_scenario,
    make_fold_partition,
    mc_space_validity,
    online_time_validity,
    sample,
)

from confee.data import _sample_stack
from confee.predictors import _stacked_tables
from conftest import _reference_knn

GM2D = get_scenario("gm2d")
CROSS_KNN = PredictorSpec(kind="cross", rule="knn", normalizer="mean")


def _assert_trial_checks(harness):
    """The space and compare harnesses refuse the same inputs, alike."""
    with pytest.raises(OutOfRangeError, match="trials=99; need at least 100 for a stable verdict"):
        harness(GM2D, CROSS_KNN, 99, 1)
    with pytest.raises(OutOfRangeError, match="n_train must be at least 2"):
        harness(GM2D, CROSS_KNN, 100, 1, n_train=1)


def _markov_ok(rate: float, t: float, trials: int) -> bool:
    bound = 1.0 / t
    return rate <= bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)


class TestSpaceHarness:
    def test_constant_one_is_exactly_consistent(self):
        report = mc_space_validity(GM2D, PredictorSpec(kind="const", const_value=1.0), 100, 5)
        assert report.mean_e_at_truth == 1.0
        assert report.std_error == 0.0
        assert report.verdict == "consistent"

    def test_constant_two_is_flagged(self):
        report = mc_space_validity(GM2D, PredictorSpec(kind="const", const_value=2.0), 100, 5)
        assert report.verdict == "violation"

    def test_verdict_matches_reported_numbers(self):
        report = mc_space_validity(GM2D, CROSS_KNN, 400, 21, n_train=40)
        expected = "violation" if report.mean_e_at_truth > 1 + 3 * report.std_error else "consistent"
        assert report.verdict == expected

    def test_markov_tails(self):
        report = mc_space_validity(GM2D, CROSS_KNN, 400, 22, n_train=40)
        for t, rate in report.tail_rates.items():
            assert _markov_ok(rate, t, report.trials)

    def test_deterministic_and_thread_invariant(self):
        a = mc_space_validity(GM2D, CROSS_KNN, 120, 9, n_train=30, threads=1)
        b = mc_space_validity(GM2D, CROSS_KNN, 120, 9, n_train=30, threads=3)
        assert a == b

    def test_preconditions(self):
        _assert_trial_checks(mc_space_validity)

    def test_shipped_configurations_stay_valid(self):
        # every shipped predictor preset on every compatible scenario preset
        knn_scenarios = ("gm2d", "gm2d_hard", "gm5c", "linreg10", "linreg3")
        ridge_scenarios = ("linreg10", "linreg3")
        for name, spec in PREDICTOR_PRESETS.items():
            scenarios = knn_scenarios if spec.rule == "knn" else ridge_scenarios
            for scenario_name in scenarios:
                for seed in (1, 2):
                    report = mc_space_validity(
                        get_scenario(scenario_name), spec, 120, seed, n_train=30
                    )
                    assert report.verdict == "consistent", (name, scenario_name, seed)
                    assert all(
                        _markov_ok(rate, t, 120) for t, rate in report.tail_rates.items()
                    ), (name, scenario_name, seed)


class TestTimeHarness:
    def test_online_run_shape_and_verdict(self):
        report = online_time_validity(GM2D, CROSS_KNN, 120, 13, warmup=20)
        assert report.verdict == "consistent"
        assert len(report.trace) == 120
        assert all(e == 1.0 for e in report.trace.e_values[:20])
        # largest fitted prefix is 119 observations -> largest fold has 24,
        # so the mean normalizer's bound is 25
        assert report.bound_used == 25.0
        assert report.final_mean == report.trace.running_means[-1]

    def test_running_mean_recomputation(self):
        report = online_time_validity(GM2D, CROSS_KNN, 90, 3, warmup=20)
        es = report.trace.e_values
        for i in (0, 30, 89):
            assert report.trace.running_means[i] == math.fsum(es[: i + 1]) / (i + 1)

    def test_constant_two_violates(self):
        spec = PredictorSpec(kind="const", const_value=2.0)
        report = online_time_validity(GM2D, spec, 80, 3, warmup=10)
        assert report.verdict == "violation"
        assert report.bound_used == 2.0

    def test_split_spec_works(self):
        spec = PredictorSpec(kind="split", rule="knn", normalizer="sum", calibration_size=8)
        report = online_time_validity(GM2D, spec, 60, 5, warmup=12)
        # sum normalizer bounds every output by 1
        assert report.bound_used == 1.0
        assert max(report.trace.e_values) <= 1.0

    @pytest.mark.parametrize("spec, warmup, bound", [
        # c = 10 calibration rows -> the mean normalizer's bound is 11
        (PredictorSpec(kind="split", rule="knn", normalizer="mean"), 13, 11.0),
        (PredictorSpec(kind="cross", rule="knn", normalizer="sum"), 20, 1.0),
    ])
    def test_bound_used_per_kind(self, spec, warmup, bound):
        report = online_time_validity(GM2D, spec, 60, 5, warmup=warmup)
        assert report.bound_used == bound
        assert type(report.bound_used) is float
        assert max(report.trace.e_values) <= bound

    def test_unbounded_normalizer_refused(self, monkeypatch):
        class NoBound(Normalizer):
            def component_bound(self, m):
                return None

        def normalized(*args):
            raise AssertionError("an e-value was computed before the refusal")

        monkeypatch.setattr(predictors, "_blocks", normalized)
        for kind in ("cross", "split"):
            spec = PredictorSpec(kind=kind, rule="knn", normalizer=NoBound("mean"))
            with pytest.raises(UnboundedNormalizerError, match="^predictor declares no bound$"):
                online_time_validity(GM2D, spec, 60, 1)

    def test_no_bound_refused_before_any_draw(self, monkeypatch):
        class NoBound(Normalizer):
            def component_bound(self, m):
                return None

        _refuse_draws(monkeypatch)
        for spec in (
            PredictorSpec(kind="full"),
            PredictorSpec(kind="split", normalizer=NoBound("mean")),
            PredictorSpec(kind="cross", normalizer=NoBound("sum")),
        ):
            with pytest.raises(UnboundedNormalizerError, match="^predictor declares no bound$"):
                online_time_validity(GM2D, spec, 60, 1)
        # a full spec's own checks come first, against the scenario's task
        # and features
        with pytest.raises(OutOfRangeError, match="^positive_label 7 is not one of"):
            online_time_validity(GM2D, PredictorSpec(kind="full", positive_label=7), 60, 1)
        with pytest.raises(
            DimensionMismatchError,
            match="^margin_w has 3 entries; the training data has 2 features$",
        ):
            online_time_validity(GM2D, PredictorSpec(kind="full", margin_w=(1.0,) * 3), 60, 1)

    def test_a_bound_lost_at_a_later_round_is_refused_there(self, monkeypatch):
        class UpToFive(Normalizer):
            def component_bound(self, m):
                return float(m) if m <= 5 else None

        spec = PredictorSpec(kind="cross", normalizer=UpToFive("mean"))
        draws = mock.Mock(wraps=sample)
        monkeypatch.setattr(validity, "sample", draws)
        # a first fit on 21 rows has folds of 5 and 4 rows: refused undrawn
        with pytest.raises(UnboundedNormalizerError, match="^predictor declares no bound$"):
            online_time_validity(GM2D, spec, 60, 1, warmup=21)
        assert draws.call_count == 0
        # on 20 rows, five folds of 4 declare a bound; the round that fits
        # on 21 rows is refused
        with pytest.raises(UnboundedNormalizerError, match="^predictor declares no bound$"):
            online_time_validity(GM2D, spec, 60, 1, warmup=20)
        assert draws.call_count == 1

    def test_one_fold_refused_before_any_e_value(self, monkeypatch):
        def e_at(self, x, y):
            raise AssertionError("an e-value was computed before the refusal")

        monkeypatch.setattr(predictors.CrossEPredictor, "e_at", e_at)
        with pytest.raises(TooFewFoldsError):
            online_time_validity(GM2D, PredictorSpec(kind="cross", folds=1), 60, 1)

    def test_full_predictor_refused(self, monkeypatch):
        def predict(self, x, labels=None):
            raise AssertionError("an e-value was computed before the refusal")

        monkeypatch.setattr(predictors.FullEPredictor, "predict", predict)
        with pytest.raises(UnboundedNormalizerError, match="^predictor declares no bound$"):
            online_time_validity(GM2D, PredictorSpec(kind="full"), 60, 1)
        # the spec's own checks run first, when the predictor is built
        with pytest.raises(OutOfRangeError, match="^positive_label 7 is not one of"):
            online_time_validity(GM2D, PredictorSpec(kind="full", positive_label=7), 60, 1)

    def test_preconditions(self):
        with pytest.raises(OutOfRangeError):
            online_time_validity(GM2D, CROSS_KNN, 49, 1)
        with pytest.raises(OutOfRangeError):
            online_time_validity(GM2D, CROSS_KNN, 60, 1, warmup=0)
        with pytest.raises(OutOfRangeError):
            online_time_validity(GM2D, CROSS_KNN, 60, 1, warmup=60)
        with pytest.raises(OutOfRangeError):
            online_time_validity(GM2D, CROSS_KNN, 60, 1, tolerance=0.0)
        with pytest.raises(OutOfRangeError):
            online_time_validity(GM2D, CROSS_KNN, 60, 1, warmup=3)  # < fold count
        split = PredictorSpec(kind="split", calibration_size=30)
        with pytest.raises(OutOfRangeError):
            online_time_validity(GM2D, split, 60, 1, warmup=20)

    @pytest.mark.parametrize("spec, rounds, seed", [
        (CROSS_KNN, 260, 3),
        (PredictorSpec(kind="cross", rule="knn", k=9, folds=3, normalizer="sum"), 120, 8),
        (PredictorSpec(kind="split", rule="knn", calibration_size=12), 200, 5),
    ])
    def test_same_report_as_a_refit_every_round(self, spec, rounds, seed):
        """The harness's knn fits take their held-out summaries from the
        stream's neighbour table; this loop refits KnnRule on every prefix."""
        warmup = 20
        stream = sample(GM2D, rounds, core.derive_seed(seed, 1))
        es, bounds = [1.0] * warmup, [0.0]
        for i in range(warmup + 1, rounds + 1):
            prefix = stream.subset(range(i - 1))
            if spec.kind == "split":
                predictor = predictors.fit_split(
                    prefix, spec.calibration_size, "knn", spec.normalizer, k=spec.k
                )
            else:
                partition = core.make_fold_partition(
                    prefix.n, spec.folds, core.derive_seed(seed, 2, i)
                )
                rule = conformity.KnnRule(prefix, spec.k, partition.fold_of)
                calibration = tuple(
                    core.SummaryVector(rule.held_out[fold]) for fold in partition.folds
                )
                predictor = predictors.CrossEPredictor(
                    rule, calibration, predictors.get_normalizer(spec.normalizer), prefix.task
                )
            z = stream.observation(i - 1)
            es.append(float(predictor.e_at(z.x, z.y)))
            bounds.append(float(predictor.component_bound()))
        trace = predictors.OnlineTrace(es)
        final = trace.running_means[-1]
        expected = validity.TimeValidityReport(
            rounds, warmup, 0.05, max(bounds), final, max(trace.running_means[warmup:]),
            "consistent" if final <= 1.05 else "violation", trace,
        )
        report = online_time_validity(GM2D, spec, rounds, seed, warmup=warmup)
        assert report.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("spec, minimum", [
        # split holds c rows out and knn needs k proper rows: 10 + 3
        (PredictorSpec(kind="split", calibration_size=10), 13),
        (PredictorSpec(kind="split", rule="ridge", calibration_size=10), 11),
        # two folds of 3 leave 3 proper rows; five rows leave 2
        (PredictorSpec(kind="cross", folds=2), 6),
        (PredictorSpec(kind="cross", rule="ridge", folds=2), 2),
        (PredictorSpec(kind="cross", k=5, folds=3), 8),
    ])
    def test_warmup_covers_the_first_fit(self, spec, minimum):
        scenario = get_scenario("linreg3") if spec.rule == "ridge" else GM2D
        if minimum > 2:
            with pytest.raises(OutOfRangeError, match=f"warmup={minimum - 1}; .* {minimum} rows"):
                online_time_validity(scenario, spec, 50, 1, warmup=minimum - 1)
        report = online_time_validity(scenario, spec, 50, 1, warmup=minimum)
        assert report.trace.e_values[minimum] != 1.0


class TestComparison:
    def test_report_coherence(self):
        report = compare_e_vs_p(GM2D, CROSS_KNN, 300, 31, n_train=40)
        assert report.verdict == "consistent"
        assert report.max_identity_deviation <= 1e-12
        assert report.mean_harmonic_p <= report.mean_arithmetic_p + 1e-12
        for eps in report.epsilons:
            adjusted = report.adjusted_exceedance[eps]
            assert adjusted <= eps + 3 * report.rate_std_errors[eps]
            # the raw mean is stochastically smaller than the adjusted merge
            assert report.unadjusted_exceedance[eps] >= adjusted

    def test_preconditions(self):
        _assert_trial_checks(compare_e_vs_p)

    def test_requires_cross_spec(self):
        with pytest.raises(OutOfRangeError):
            compare_e_vs_p(GM2D, PredictorSpec(kind="split"), 200, 1)

    def test_epsilon_domain(self):
        with pytest.raises(OutOfRangeError):
            compare_e_vs_p(GM2D, CROSS_KNN, 200, 1, epsilons=(0.0,))

    def test_epsilons_non_empty(self):
        # with no levels the p-side check would pass vacuously
        with pytest.raises(OutOfRangeError, match="epsilons must be non-empty"):
            compare_e_vs_p(GM2D, CROSS_KNN, 200, 1, epsilons=())

    def test_repeated_epsilon_refused(self):
        # a repeated level would be one exceedance key for two levels
        with pytest.raises(OutOfRangeError, match="epsilon 0.1 is repeated"):
            compare_e_vs_p(GM2D, CROSS_KNN, 200, 1, epsilons=(0.1, 0.2, 0.1))

    def test_levels_checked_before_trials(self):
        # the spec kind first, then the levels, then the trial checks
        with pytest.raises(OutOfRangeError, match="epsilons must be non-empty"):
            compare_e_vs_p(GM2D, CROSS_KNN, 99, 1, epsilons=(1.5,))
        with pytest.raises(OutOfRangeError, match="cross predictor spec"):
            compare_e_vs_p(GM2D, PredictorSpec(kind="split"), 99, 1, epsilons=(1.5,))

    def test_deterministic(self):
        a = compare_e_vs_p(GM2D, CROSS_KNN, 120, 9, n_train=30, threads=1)
        b = compare_e_vs_p(GM2D, CROSS_KNN, 120, 9, n_train=30, threads=4)
        assert a == b


class TestTrialDrawing:
    @pytest.mark.parametrize("harness", [mc_space_validity, compare_e_vs_p])
    def test_trial_takes_one_distance_row_per_label(self, monkeypatch, harness):
        # a chunk of stacked trials computes one distance tensor: each
        # trial's 20 fold rows, and its test object at its true label only,
        # one distance row for each of the 5 folds, against its 20 rows
        shapes = []
        distances = conformity._distances

        def counted(A, B):
            shapes.append(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]))
            return distances(A, B)

        monkeypatch.setattr(conformity, "_distances", counted)
        harness(GM2D, CROSS_KNN, 100, 4, n_train=20)
        size = validity.CHUNK_ENTRIES // ((20 + 5) * 20)
        assert shapes == [(min(size, 100 - lo), 20 + 5, 20) for lo in range(0, 100, size)]


class TestTrialWork:
    """What a space trial does, counted rather than timed."""

    @staticmethod
    def _count(monkeypatch, spec, trials, n_train=50) -> Counter:
        calls = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(np.random, "default_rng", "generators built")
        count(core, "_generate_state", "seed derivations")
        count(validity, "_sample_stack", "chunk draws")
        count(core.Dataset, "__post_init__", "dataset validations")
        count(core, "_number_labels", "label numberings")
        count(conformity, "_by_label", "label groupings")
        count(core.Dataset, "subset", "subsets")
        count(predictors, "_stacked_summaries", "stacked fits")
        mc_space_validity(GM2D, spec, trials, 4, n_train=n_train)
        return calls

    @staticmethod
    def _stacked_work(spec, trials) -> Counter:
        # one block of trials derives its seeds and generator states at
        # once: the two draw seeds' and fold seeds' keys, the draw's two
        # streams and the folds' generator; a chunk draws its trials with
        # one generator and fits them from one stack of their draws: no
        # dataset is built, no row is copied into a training set or sorted
        # by label and fold
        size = validity._chunk_trials(spec, 50)
        assert size * (validity.SEED_BLOCK // size) >= trials
        chunks = -(-trials // size)
        return Counter({
            "seed derivations": 5,
            "generators built": chunks,
            "chunk draws": chunks,
            "stacked fits": chunks,
        })

    def test_space_trial_work(self, monkeypatch):
        assert validity._chunk_trials(CROSS_KNN, 50) == 7
        assert self._count(monkeypatch, CROSS_KNN, 100) == self._stacked_work(CROSS_KNN, 100)

    def test_split_trial_work(self, monkeypatch):
        # a split fit is the one-fold case: its trial holds c + 1 distance
        # rows, so a chunk takes more of them
        spec = PREDICTOR_PRESETS["split-knn-mean"]
        assert validity._chunk_trials(spec, 50) == 36
        assert self._count(monkeypatch, spec, 100) == self._stacked_work(spec, 100)

    def test_a_run_of_several_blocks(self, monkeypatch):
        # 600 trials are three blocks of whole chunks: 252, 252 and 96
        # trials, the last chunk of 5
        counted = self._count(monkeypatch, CROSS_KNN, 600)
        assert counted["seed derivations"] == 3 * 5
        assert counted["chunk draws"] == counted["stacked fits"] == -(-600 // 7)

    def test_per_trial_work(self, monkeypatch):
        # at 100 rows a chunk would hold one trial, which goes alone
        assert validity._chunk_trials(CROSS_KNN, 100) == 0
        per_trial = Counter({
            # one per stream of the draw and one for the folds, not per
            # observation
            "generators built": 3 * 100,
            "dataset validations": 100,  # one draw: training set and test point
            "label numberings": 100,  # at validation, not per subset or fit
            # one sort of the training rows by label and fold per fit; a
            # query looks its candidate labels up in that sort
            "label groupings": 100,
            # the training rows of the draw; the folds are slices of the fit
            "subsets": 100,
        })
        assert self._count(monkeypatch, CROSS_KNN, 100, n_train=100) == per_trial


class TestChunkDraws:
    """A chunk of stacked trials is drawn from generator states derived for
    a block of trials at once, and draws each trial's bytes."""

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.sampled_from(["gm2d", "gm5c", "linreg3"]),
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
        start=st.integers(0, 10**4),
        count=st.integers(1, 9),
        n=st.integers(2, 60),
        folds=st.integers(2, 8),
    )
    def test_each_trial_drawn_as_on_its_own(self, scenario, seed, start, count, n, folds):
        scenario, n = get_scenario(scenario), max(n, folds)
        ts = range(start, start + count)
        states = validity._trial_states(seed, ts)
        rng = np.random.default_rng(0)
        X, y, codes = _sample_stack(scenario, n + 1, [state[:2] for state in states], rng)
        rows = core._stacked_fold_rows(n, [state[2] for state in states], rng)
        assert core._fold_sizes(n, folds) == [
            fold.size for fold in make_fold_partition(n, folds, 0).folds
        ]
        for b, t in enumerate(ts):
            drawn = sample(scenario, n + 1, core.derive_seed(seed, t, 0))
            assert X[b].tobytes() == drawn.X.tobytes()
            assert y[b].dtype == drawn.y.dtype and y[b].tobytes() == drawn.y.tobytes()
            assert codes[b].tolist() == drawn.label_codes[1].tolist()
            partition = make_fold_partition(n, folds, core.derive_seed(seed, t, 2))
            assert rows[b].tobytes() == np.concatenate(partition.folds).tobytes()

    @pytest.mark.parametrize("scenario, message", [
        # means past the largest double
        (dict(kind="gaussian_mixture", classes=3, dim=1, separation=1e308),
         "features must be finite"),
        (dict(kind="linear_regression", noise_sd=1.7e308, grid=(0.0,)),
         "labels must be n finite reals"),
    ])
    def test_a_draw_that_is_not_finite_is_refused_as_a_dataset_refuses_it(
        self, scenario, message
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            scenario = Scenario(**scenario)
            assert validity._chunk_trials(CROSS_KNN, 30) >= 2
            with pytest.raises(NonFiniteEntryError, match=f"^{message}$"):
                validity._space_trial(scenario, CROSS_KNN, 1, 30, validity._e_at_truth, 0)
            with pytest.raises(NonFiniteEntryError, match=f"^{message}$"):
                mc_space_validity(scenario, CROSS_KNN, 100, 1, n_train=30)


def _refuse_draws(monkeypatch):
    """Make every draw of a harness fail: a trial's or stream's `sample`,
    and a chunk's `_sample_stack`."""
    def refuse(*args, **kwargs):
        raise AssertionError("a harness drew data")

    monkeypatch.setattr(validity, "sample", refuse)
    monkeypatch.setattr(validity, "_sample_stack", refuse)


class TestSeedChecks:
    """Each harness checks its seed, and names it, before any draw."""

    HARNESSES = {
        "space": lambda seed: mc_space_validity(GM2D, CROSS_KNN, 100, seed, n_train=30),
        "compare": lambda seed: compare_e_vs_p(GM2D, CROSS_KNN, 100, seed, n_train=30),
        "online": lambda seed: online_time_validity(GM2D, CROSS_KNN, 60, seed),
    }

    @pytest.mark.parametrize("harness", HARNESSES)
    def test_seed_refused_before_any_draw(self, monkeypatch, harness):
        _refuse_draws(monkeypatch)
        run = self.HARNESSES[harness]
        with pytest.raises(OutOfRangeError, match="^seed=-1; need a nonnegative integer$"):
            run(-1)
        for seed in (1.5, "3", None):
            message = f"seed must be an integer, got {seed!r}"
            with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
                run(seed)


class TestFirstFit:
    """The space and compare harnesses refuse a training size too small for
    the first fit before any draw, as the time harness refuses its warmup."""

    @pytest.mark.parametrize("spec, minimum", [
        (PredictorSpec(kind="split", calibration_size=10), 13),
        (PredictorSpec(kind="split", rule="ridge", calibration_size=10), 11),
        (PredictorSpec(kind="cross", folds=2), 6),
        (PredictorSpec(kind="cross", k=5, folds=3), 8),
        (PredictorSpec(kind="cross", k=9), 12),
    ])
    def test_n_train_covers_the_first_fit(self, monkeypatch, spec, minimum):
        scenario = get_scenario("linreg3") if spec.rule == "ridge" else GM2D
        harnesses = [mc_space_validity] + [compare_e_vs_p] * (spec.kind == "cross")
        message = f"^n_train={minimum - 1}; the first {spec.kind} fit needs at least {minimum} rows"
        with monkeypatch.context() as patched:
            _refuse_draws(patched)
            for harness in harnesses:
                with pytest.raises(OutOfRangeError, match=message):
                    harness(scenario, spec, 100, 1, n_train=minimum - 1)
        for harness in harnesses:
            assert harness(scenario, spec, 100, 1, n_train=minimum).trials == 100

    @pytest.mark.parametrize("spec, error, message", [
        (PredictorSpec(folds=1), TooFewFoldsError, "K=1; need at least 2"),
        (PredictorSpec(folds=1, k=0), TooFewFoldsError, "K=1; need at least 2"),
        (PredictorSpec(k=0), OutOfRangeError, "k=0; need at least 1 neighbour"),
        (PredictorSpec(kind="split", calibration_size=0), OutOfRangeError,
         "calibration_size 0 must lie in 1..{last}"),
        (PredictorSpec(kind="split", calibration_size=0, k=0), OutOfRangeError,
         "calibration_size 0 must lie in 1..{last}"),
    ])
    def test_a_spec_no_fit_accepts_is_refused_before_any_draw(
        self, monkeypatch, spec, error, message
    ):
        # each harness refuses it with the fit's own error, and names the
        # field before a training size too small for the first fit (3 rows)
        runs = [
            (lambda: mc_space_validity(GM2D, spec, 100, 1, n_train=30), 30),
            (lambda: mc_space_validity(GM2D, spec, 100, 1, n_train=3), 3),
            (lambda: online_time_validity(GM2D, spec, 60, 1, warmup=20), 20),
        ]
        if spec.kind == "cross":
            runs.append((lambda: compare_e_vs_p(GM2D, spec, 100, 1, n_train=30), 30))
        _refuse_draws(monkeypatch)
        for run, rows in runs:
            expected = re.escape(message.format(last=rows - 1))
            with pytest.raises(error, match=f"^{expected}$"):
                run()

    def test_ridge_ignores_k(self):
        spec = PredictorSpec(rule="ridge", k=0)
        scenario = get_scenario("linreg3")
        assert mc_space_validity(scenario, spec, 100, 1, n_train=30).trials == 100
        assert online_time_validity(scenario, spec, 60, 1).rounds == 60


def _rounded_sample(scenario, n, seed):
    """A draw whose features are rounded to integers: duplicate points."""
    drawn = sample(scenario, n, seed)
    return Dataset(np.round(drawn.X), drawn.y, drawn.task)


def _rounded_stack(scenario, n, streams, rng):
    """_sample_stack's draws with their features rounded as _rounded_sample
    rounds them."""
    X, y, codes = _sample_stack(scenario, n, streams, rng)
    return np.round(X), y, codes


class TestStackedTrials:
    """_run_trials fits and queries chunks of split and cross knn trials at
    once; each result has the bytes that _space_trial gives trial by trial."""

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=st.sampled_from(["gm2d", "gm5c", "gm2d_hard", "linreg3"]),
        kind=st.sampled_from(["cross", "split"]),
        folds=st.integers(2, 8),
        calibration_size=st.integers(1, 12),
        k=st.integers(1, 6),
        extra=st.integers(0, 30),
        normalizer=st.sampled_from(["mean", "sum"]),
        weighting=st.sampled_from(["uniform", "size_proportional"]),
        compare=st.booleans(),
        duplicates=st.booleans(),
        trials=st.integers(100, 130),
        chunk=st.integers(2, 130),
        seed=st.integers(0, 2**70),
        seed_block=st.integers(1, 300),
    )
    # rare labels: gm5c on 3 rows in two folds leaves labels with kk = 0,
    # and on 12 rows in six folds rows with kk < k
    @example("gm5c", "cross", 2, 1, 1, 1, "mean", "uniform", True, False, 100, 7, 5, 256)
    @example("gm5c", "cross", 6, 1, 3, 6, "sum", "size_proportional", True, False, 101, 2, 5, 256)
    @example("gm5c", "split", 2, 3, 2, 0, "mean", "uniform", False, True, 100, 100, 5, 256)
    # a master seed of three key words, in blocks of two chunks
    @example("gm2d", "cross", 5, 1, 3, 0, "mean", "uniform", False, False, 100, 7, 2**64 + 1, 14)
    def test_matches_per_trial(
        self, scenario, kind, folds, calibration_size, k, extra, normalizer, weighting,
        compare, duplicates, trials, chunk, seed, seed_block,
    ):
        spec = PredictorSpec(
            kind=kind, k=k, folds=folds, calibration_size=calibration_size,
            normalizer=normalizer, weighting=weighting,
        )
        scenario = get_scenario(scenario)
        n = max(2, validity._first_fit_rows(spec)) + extra
        read = validity._compare_row if compare and kind == "cross" else validity._e_at_truth
        rows, K = (n, folds) if kind == "cross" else (calibration_size, 1)
        chunk = min(chunk, trials)
        draw, stack = (_rounded_sample, _rounded_stack) if duplicates else (sample, _sample_stack)
        with mock.patch.object(validity, "sample", draw), \
                mock.patch.object(validity, "_sample_stack", stack), \
                mock.patch.object(validity, "CHUNK_ENTRIES", chunk * (rows + K) * n), \
                mock.patch.object(validity, "SEED_BLOCK", seed_block), \
                mock.patch.object(validity, "_stacked_tables", wraps=_stacked_tables) as tables:
            assert validity._chunk_trials(spec, n) == chunk
            stacked = validity._run_trials(scenario, spec, trials, seed, n, 1, read)
            one_by_one = [
                validity._space_trial(scenario, spec, seed, n, read, t) for t in range(trials)
            ]
        assert tables.call_count == -(-trials // chunk)
        assert np.array(stacked).tobytes() == np.array(one_by_one).tobytes()

    @pytest.mark.parametrize("harness", [mc_space_validity, compare_e_vs_p])
    def test_a_normalizer_that_overrides_its_bound_stacks(self, harness, monkeypatch):
        # a subclass overrides component_bound only, so its trials normalize
        # by its kind and stack as the plain spec's do
        class Bounded(Normalizer):
            def component_bound(self, m):
                return 2.0 * m

        bounded = PredictorSpec(normalizer=Bounded("mean"))
        size = validity._chunk_trials(bounded, 20)
        assert size >= 2 and size == validity._chunk_trials(CROSS_KNN, 20)
        stacked = mock.Mock(wraps=_stacked_tables)
        monkeypatch.setattr(validity, "_stacked_tables", stacked)
        report = harness(GM2D, bounded, 100, 6, n_train=20)
        assert stacked.call_count == -(-100 // size)
        assert report == harness(GM2D, CROSS_KNN, 100, 6, n_train=20)

    def test_a_chunk_whose_distances_overflow_stacks(self, monkeypatch):
        # labels 1e200 apart: a stacked fit computes their overflowing
        # pairs, which a per-trial fit never computes, as inf and quietly
        far = Scenario("gaussian_mixture", separation=1e200)
        stacked = mock.Mock(wraps=_stacked_tables)
        monkeypatch.setattr(validity, "_stacked_tables", stacked)
        size = validity._chunk_trials(CROSS_KNN, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es = validity._run_trials(far, CROSS_KNN, 100, 3, 20, 1, validity._e_at_truth)
        assert size >= 2 and stacked.call_count == -(-100 // size)
        assert es == [
            validity._space_trial(far, CROSS_KNN, 3, 20, validity._e_at_truth, t)
            for t in range(100)
        ]


class TestThreads:
    def test_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(OutOfRangeError, match=f"threads={threads}; need at least 1"):
                mc_space_validity(GM2D, CROSS_KNN, 100, 1, n_train=30, threads=threads)
            with pytest.raises(OutOfRangeError, match=f"threads={threads}; need at least 1"):
                compare_e_vs_p(GM2D, CROSS_KNN, 100, 1, n_train=30, threads=threads)

    def test_above_the_cap_rejected_before_any_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a trial or thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(validity, "_space_trial", refuse)
        _refuse_draws(monkeypatch)
        for threads in (validity.MAX_THREADS + 1, 1_000_000_000):
            message = f"threads={threads}; at most {validity.MAX_THREADS}"
            with pytest.raises(OutOfRangeError, match=message):
                mc_space_validity(GM2D, CROSS_KNN, 100, 1, n_train=30, threads=threads)
            with pytest.raises(OutOfRangeError, match=message):
                compare_e_vs_p(GM2D, CROSS_KNN, 100, 1, n_train=30, threads=threads)

    def test_no_thread_started(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"a harness started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for threads in (4, validity.MAX_THREADS):
            space = mc_space_validity(GM2D, CROSS_KNN, 100, 9, n_train=30, threads=threads)
            compare = compare_e_vs_p(GM2D, CROSS_KNN, 100, 9, n_train=30, threads=threads)
            assert space.trials == compare.trials == 100


class TestModuleLevelItems:
    """Each trial and round is a module-level function of its index: bound
    to its other arguments with functools.partial, it survives pickle, as a
    worker process needs, and returns what the in-process call returns."""

    def test_online_round(self):
        stream = sample(GM2D, 60, 5)
        expected = validity._online_round(CROSS_KNN, stream, 5, 30)
        bound = functools.partial(validity._online_round, CROSS_KNN, stream, 5)
        assert pickle.loads(pickle.dumps(bound))(30) == expected
        table = conformity.NeighbourTable(stream)
        bound = functools.partial(validity._online_round, CROSS_KNN, stream, 5, table=table)
        assert pickle.loads(pickle.dumps(bound))(30) == expected

    @pytest.mark.parametrize("reader", ["_e_at_truth", "_compare_row"])
    def test_space_trial(self, reader):
        read = getattr(validity, reader)
        bound = functools.partial(validity._space_trial, GM2D, CROSS_KNN, 3, 20, read)
        assert pickle.loads(pickle.dumps(bound))(7) == validity._space_trial(
            GM2D, CROSS_KNN, 3, 20, read, 7
        )


class TestBuildPredictor:
    TRAIN = sample(GM2D, 30, 77)

    def test_split_slicing(self):
        # the last calibration_size rows calibrate against the rows before them
        spec = PredictorSpec(kind="split", calibration_size=10)
        predictor = build_predictor(spec, self.TRAIN, 0)
        proper = Dataset(self.TRAIN.X[:20], self.TRAIN.y[:20], self.TRAIN.task)
        calibration = [
            _reference_knn(proper, spec.k, z.x, z.y) for z in self.TRAIN.observations()
        ][20:]
        assert predictor.calibration_summaries[0].values == tuple(calibration)
        for x in ((0.0, 0.0), (1.5, -0.5), tuple(self.TRAIN.X[3]), tuple(self.TRAIN.X[25])):
            sigmas = [_reference_knn(proper, spec.k, x, y) for y in GM2D.task.candidates]
            assert predictor.predict(x).sigmas.tolist() == [sigmas]

    def test_split_calibration_size_bounds(self):
        with pytest.raises(OutOfRangeError):
            build_predictor(PredictorSpec(kind="split", calibration_size=30), self.TRAIN, 0)
        with pytest.raises(OutOfRangeError):
            build_predictor(PredictorSpec(kind="split", calibration_size=0), self.TRAIN, 0)

    def test_cross_uses_fold_seed(self):
        a = build_predictor(CROSS_KNN, self.TRAIN, 5)
        b = build_predictor(CROSS_KNN, self.TRAIN, 5)
        c = build_predictor(CROSS_KNN, self.TRAIN, 6)
        assert a.rule.fold_of.tolist() == b.rule.fold_of.tolist()
        assert a.rule.fold_of.tolist() != c.rule.fold_of.tolist()

    @pytest.mark.parametrize("spec", [
        PredictorSpec(kind="cross", rule="ridge"),
        PredictorSpec(kind="split", rule="ridge"),
        PredictorSpec(kind="full"),
        PredictorSpec(kind="const"),
    ], ids=["cross-ridge", "split-ridge", "full", "const"])
    def test_a_table_serves_knn_fits_only(self, spec, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rule was fitted")

        monkeypatch.setattr(predictors, "train_conformity", refuse)
        table = conformity.NeighbourTable(self.TRAIN)
        with pytest.raises(OutOfRangeError, match="^table: a neighbour table serves split"):
            build_predictor(spec, self.TRAIN, 0, table=table)

    def test_const_predictor(self):
        predictor = build_predictor(PredictorSpec(kind="const", const_value=0.5), self.TRAIN, 0)
        assert isinstance(predictor, ConstantEPredictor)
        assert predictor.e_at((0.0, 0.0), 1) == 0.5
        assert predictor.predict((0.0, 0.0), (0, 1)).values == (0.5, 0.5)

    def test_full_default_margin_accepts_everything(self):
        predictor = build_predictor(PredictorSpec(kind="full"), self.TRAIN, 0)
        # w = 0 puts every observation inside the unit margin: e is always 1
        assert predictor.e_at((0.0, 0.0), 1) == 1.0

    def test_full_positive_label_must_be_a_task_label(self):
        for label in (7, "", "1"):
            message = f"positive_label {label!r} is not one of the task's labels (0, 1)"
            with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
                build_predictor(PredictorSpec(kind="full", positive_label=label), self.TRAIN, 0)
        # a regression task has no label set to check against
        regression = sample(get_scenario("linreg3"), 20, 5)
        predictor = build_predictor(PredictorSpec(kind="full", positive_label=7), regression, 0)
        assert predictor.e_at((0.0, 0.0, 0.0), 0.0) == 1.0

    def test_spec_validation(self):
        with pytest.raises(OutOfRangeError):
            PredictorSpec(kind="bagged")
        with pytest.raises(OutOfRangeError):
            PredictorSpec(const_value=-1.0)

    def test_rule_errors_propagate(self):
        spec = PredictorSpec(kind="cross", rule="knn", k=40)
        with pytest.raises(KTooLargeError):
            build_predictor(spec, self.TRAIN, 0)


def test_names_the_benchmark_wraps(monkeypatch, tmp_path):
    """bench/worker.py starts each timed item at the entry of a name it
    looks up in its owner's own vars: validity.sample (space),
    validity.build_predictor (online) and CrossEPredictor.predict
    (predict). cli._write_report encloses a predict run's queries: it is
    entered before the first and draws each result as it writes it.
    Without one of them items are silently timed from the workload's
    call, set-up and fitting included: so are the items of a space run
    whose trials are drawn in stacked chunks, the benchmark's among them,
    which never call validity.sample."""
    assert "predict" in vars(predictors.CrossEPredictor)
    assert "_write_report" in vars(cli)
    assert "build_predictor" in vars(validity)
    # a predict run writes its report through one _write_report call,
    # entered before any query
    writes, queries = [], []
    write_report = vars(cli)["_write_report"]
    query = vars(predictors.CrossEPredictor)["predict"]

    def counted_write(*args, **kwargs):
        writes.append(len(queries))
        return write_report(*args, **kwargs)

    def counted_query(*args, **kwargs):
        queries.append(args)
        return query(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_report", counted_write)
    monkeypatch.setattr(predictors.CrossEPredictor, "predict", counted_query)
    argv = ["predict", "--scenario", "gm2d", "--n", "20", "--x", "0,0", "--x", "1,1",
            "--out", str(tmp_path / "p.json")]
    assert cli.main(argv) == 0
    assert writes == [0] and len(queries) == 2
    # a space item starts at the training draw: a call whose n, read from
    # the second argument or n=, exceeds 1; the worker passes threads=1. A
    # trial drawn on its own makes one such call; stacked trials make none
    draws = []
    sample_ = vars(validity)["sample"]

    def counted(*args, **kwargs):
        draws.append(args[1] if len(args) > 1 else kwargs["n"])
        return sample_(*args, **kwargs)

    monkeypatch.setattr(validity, "sample", counted)
    assert validity._chunk_trials(CROSS_KNN, 100) == 0
    mc_space_validity(GM2D, CROSS_KNN, 100, 1, n_train=100, threads=1)
    assert [n for n in draws if n > 1] == [101] * 100
    assert validity._chunk_trials(CROSS_KNN, 50) > 0
    mc_space_validity(GM2D, CROSS_KNN, 100, 1, n_train=50, threads=1)
    assert len(draws) == 100
    # an online item starts at its round's fit: one build_predictor call
    # for each round after the warmup
    fits = []
    build = vars(validity)["build_predictor"]

    def counted_build(*args, **kwargs):
        fits.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(validity, "build_predictor", counted_build)
    online_time_validity(GM2D, CROSS_KNN, 60, 1, warmup=20)
    assert len(fits) == 60 - 20
