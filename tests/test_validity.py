import math
from collections import Counter

import numpy as np
import pytest

from confee import conformity, core, validity
from confee import (
    ConstantEPredictor,
    KTooLargeError,
    Normalizer,
    OutOfRangeError,
    PREDICTOR_PRESETS,
    PredictorSpec,
    UnboundedNormalizerError,
    build_predictor,
    compare_e_vs_p,
    get_scenario,
    mc_space_validity,
    online_time_validity,
    sample,
)
from confee.validity import _map_trials

GM2D = get_scenario("gm2d")
CROSS_KNN = PredictorSpec(kind="cross", rule="knn", normalizer="mean")


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
        with pytest.raises(OutOfRangeError):
            mc_space_validity(GM2D, CROSS_KNN, 99, 1)
        with pytest.raises(OutOfRangeError):
            mc_space_validity(GM2D, CROSS_KNN, 100, 1, thresholds=(0.5,))
        with pytest.raises(OutOfRangeError):
            mc_space_validity(GM2D, CROSS_KNN, 100, 1, n_train=1)

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

    def test_unbounded_normalizer_refused(self):
        class NoBound(Normalizer):
            def component_bound(self, m):
                return None

        spec = PredictorSpec(kind="cross", rule="knn", normalizer=NoBound("mean"))
        with pytest.raises(UnboundedNormalizerError):
            online_time_validity(GM2D, spec, 60, 1)

    def test_full_predictor_refused(self):
        with pytest.raises(UnboundedNormalizerError):
            online_time_validity(GM2D, PredictorSpec(kind="full"), 60, 1)

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

    def test_requires_cross_spec(self):
        with pytest.raises(OutOfRangeError):
            compare_e_vs_p(GM2D, PredictorSpec(kind="split"), 200, 1)

    def test_epsilon_domain(self):
        with pytest.raises(OutOfRangeError):
            compare_e_vs_p(GM2D, CROSS_KNN, 200, 1, epsilons=(0.0,))

    def test_deterministic(self):
        a = compare_e_vs_p(GM2D, CROSS_KNN, 120, 9, n_train=30, threads=1)
        b = compare_e_vs_p(GM2D, CROSS_KNN, 120, 9, n_train=30, threads=4)
        assert a == b


class TestTrialDrawing:
    @pytest.mark.parametrize("harness", [mc_space_validity, compare_e_vs_p])
    def test_trial_scores_one_row_per_fold(self, query_rows, harness):
        counts = query_rows(validity)
        harness(GM2D, CROSS_KNN, 100, 4, n_train=20)
        assert counts == [CROSS_KNN.folds] * 100


class TestTrialWork:
    """What a space trial does, counted rather than timed."""

    def test_space_trial_work(self, monkeypatch):
        calls = Counter()
        sampling = []

        def count(owner, name, key, only_in_sample=False, only_arrays=False):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if (sampling or not only_in_sample) and (
                    isinstance(args[0], np.ndarray) or not only_arrays
                ):
                    calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        sample_fn = validity.sample

        def traced_sample(*args, **kwargs):
            sampling.append(True)
            try:
                return sample_fn(*args, **kwargs)
            finally:
                sampling.pop()

        monkeypatch.setattr(validity, "sample", traced_sample)
        count(core, "spawn_rng", "spawn_rng in sample", only_in_sample=True)
        count(np.random, "default_rng", "default_rng in sample", only_in_sample=True)
        count(core.Dataset, "__post_init__", "dataset validations")
        # bucketing a dataset's label array; a query buckets its list of
        # candidate labels, which is not counted
        for module in (core, conformity):
            count(module, "positions_by_label", "label bucketing", only_arrays=True)
        count(core.Dataset, "subset", "subsets")

        trials = 100
        mc_space_validity(GM2D, CROSS_KNN, trials, 4, n_train=50)
        assert calls == Counter({
            "spawn_rng in sample": 0,
            "default_rng in sample": 0,
            "dataset validations": 2 * trials,  # the training set and the test point
            "label bucketing": trials,  # once per training set, not per fold
            "subsets": 2 * CROSS_KNN.folds * trials,  # a fold and its complement
        })


class TestThreads:
    def test_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(OutOfRangeError):
                _map_trials(lambda t: t, 5, threads)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for ThreadPoolExecutor; starts no threads."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(validity, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(validity.os, "cpu_count", lambda: 3)
        assert _map_trials(lambda t: t * t, 4, 10**6) == [0, 1, 4, 9]
        assert _map_trials(lambda t: t, 2, 2) == [0, 1]
        assert _map_trials(lambda t: t, 2, 1) == [0, 1]
        assert sizes == [3, 2]


class TestBuildPredictor:
    TRAIN = sample(GM2D, 30, 77)

    def test_split_slicing(self):
        spec = PredictorSpec(kind="split", calibration_size=10)
        predictor = build_predictor(spec, self.TRAIN, 0)
        assert predictor.split.proper_size == 20
        assert predictor.split.calibration_size == 10

    def test_split_calibration_size_bounds(self):
        with pytest.raises(OutOfRangeError):
            build_predictor(PredictorSpec(kind="split", calibration_size=30), self.TRAIN, 0)
        with pytest.raises(OutOfRangeError):
            build_predictor(PredictorSpec(kind="split", calibration_size=0), self.TRAIN, 0)

    def test_cross_uses_fold_seed(self):
        a = build_predictor(CROSS_KNN, self.TRAIN, 5)
        b = build_predictor(CROSS_KNN, self.TRAIN, 5)
        c = build_predictor(CROSS_KNN, self.TRAIN, 6)
        assert a.partition == b.partition
        assert a.partition != c.partition

    def test_const_predictor(self):
        predictor = build_predictor(PredictorSpec(kind="const", const_value=0.5), self.TRAIN, 0)
        assert isinstance(predictor, ConstantEPredictor)
        assert predictor.e_at((0.0, 0.0), 1) == 0.5
        assert predictor.predict((0.0, 0.0), (0, 1)).values == (0.5, 0.5)

    def test_full_default_margin_accepts_everything(self):
        predictor = build_predictor(PredictorSpec(kind="full"), self.TRAIN, 0)
        # w = 0 puts every observation inside the unit margin: e is always 1
        assert predictor.e_at((0.0, 0.0), 1) == 1.0

    def test_spec_validation(self):
        with pytest.raises(OutOfRangeError):
            PredictorSpec(kind="bagged")
        with pytest.raises(OutOfRangeError):
            PredictorSpec(const_value=-1.0)

    def test_rule_errors_propagate(self):
        spec = PredictorSpec(kind="cross", rule="knn", k=40)
        with pytest.raises(KTooLargeError):
            build_predictor(spec, self.TRAIN, 0)
