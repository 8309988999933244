"""Acceptance suite: ten criteria, one printed verdict line each.

Every test computes its sub-checks first, records a single
``[criterion NN] PASS/FAIL`` line through the shared ``criterion``
fixture (so the terminal summary always lists all verdicts), and only
then asserts. Statistical criteria run 10,000 Monte Carlo trials and
use three-standard-error margins; exact criteria state their absolute
tolerances inline. Expensive runs are session fixtures shared between
criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from confee import (
    AverageExceedsOneError,
    Dataset,
    EmptySupportSetError,
    EValueVector,
    FoldPartition,
    NegativeEntryError,
    Normalizer,
    Observation,
    PredictorSpec,
    RegressionTask,
    SupportSet,
    UnboundedNormalizerError,
    cli,
    compare_e_vs_p,
    fit_cross_from_partition,
    fit_split,
    get_scenario,
    harmonic_mean,
    make_fold_partition,
    mc_space_validity,
    online_time_validity,
    sample,
    support_set_assignment,
    support_set_e_values,
    unit_margin_provider,
)
from confee.predictors import FullEPredictor

SEED = 20260815
GM2D = get_scenario("gm2d")
TRIALS = 10_000
N_TRAIN = 50

CROSS_MEAN = PredictorSpec(kind="cross", rule="knn", k=3, normalizer="mean", folds=5)
CROSS_SUM = PredictorSpec(kind="cross", rule="knn", k=3, normalizer="sum", folds=5)
SPLIT_MEAN = PredictorSpec(kind="split", rule="knn", k=3, normalizer="mean", calibration_size=10)
SPLIT_SUM = PredictorSpec(kind="split", rule="knn", k=3, normalizer="sum", calibration_size=10)


@pytest.fixture(scope="session")
def cross_mean_run():
    start = time.perf_counter()
    report = mc_space_validity(GM2D, CROSS_MEAN, TRIALS, SEED, n_train=N_TRAIN)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def other_space_runs():
    return {
        "split-mean": mc_space_validity(GM2D, SPLIT_MEAN, TRIALS, SEED, n_train=N_TRAIN),
        "cross-sum": mc_space_validity(GM2D, CROSS_SUM, TRIALS, SEED, n_train=N_TRAIN),
        "split-sum": mc_space_validity(GM2D, SPLIT_SUM, TRIALS, SEED, n_train=N_TRAIN),
    }


@pytest.fixture(scope="session")
def compare_run():
    return compare_e_vs_p(GM2D, CROSS_MEAN, TRIALS, SEED, n_train=N_TRAIN)


@pytest.fixture(scope="session")
def online_run():
    return online_time_validity(
        GM2D, CROSS_MEAN, 1000, SEED, warmup=20, tolerance=0.05
    )


def test_01_e_vector_validation(criterion):
    """Vectors averaging above one are rejected at construction (tol 1e-12)."""
    failures = []
    try:
        EValueVector((2.0, 1.0, 1.0))
        failures.append("(2,1,1) accepted despite mean 4/3")
    except AverageExceedsOneError:
        pass
    try:
        EValueVector((3.0, 0.0, 0.0))
        EValueVector((1.0, 1.0, 1.0))
    except AverageExceedsOneError:
        failures.append("boundary vectors with mean exactly 1 rejected")
    try:
        EValueVector((1.0, -0.5, 0.0))
        failures.append("negative entry accepted")
    except NegativeEntryError:
        pass

    rng = np.random.default_rng(SEED)
    for _ in range(10_000):
        v = tuple(rng.uniform(0.0, 2.0, rng.integers(1, 12)).tolist())
        should_pass = math.fsum(v) / len(v) <= 1.0 + 1e-12
        try:
            EValueVector(v)
            accepted = True
        except AverageExceedsOneError:
            accepted = False
        if accepted != should_pass:
            failures.append(f"fuzz disagreement on {v}")
            break

    ok = criterion(
        1, "construction enforces nonnegativity and mean <= 1 + 1e-12 "
        "(boundary cases plus 10,000-vector fuzz against a direct fsum check)", not failures
    )
    assert ok, "; ".join(failures)


def test_02_training_order_invariance(criterion):
    """Predictions are bit-identical under row permutations (100 each)."""
    rng = np.random.default_rng(SEED)
    training = sample(GM2D, 30, 17)
    x = (0.4, -0.3)
    failures = []

    base_split = fit_split(training, 10, "knn", "mean", k=3).predict(x).values

    partition = make_fold_partition(30, 5, 23)
    base_cross = fit_cross_from_partition(training, partition, "knn", "mean", k=3).predict(x).values

    assignment = support_set_assignment(unit_margin_provider((0.8, -1.1), 0.2, 1))
    base_full = FullEPredictor(training, assignment).e_at(x, 0)

    for _ in range(100):
        pp = rng.permutation(20)
        cp = rng.permutation(10) + 20
        permuted = fit_split(
            training.subset(np.concatenate([pp, cp])), 10, "knn", "mean", k=3
        ).predict(x).values
        if permuted != base_split:
            failures.append("split prediction changed under row permutation")
            break

        tp = rng.permutation(30)
        inverse = np.argsort(tp)
        refolded = FoldPartition(
            tuple(tuple(int(inverse[i]) for i in sorted(fold, key=lambda i: inverse[i]))
                  for fold in partition.folds),
            30, partition.seed,
        )
        cross = fit_cross_from_partition(
            training.subset(tp), refolded, "knn", "mean", k=3
        ).predict(x).values
        if cross != base_cross:
            failures.append("cross prediction changed under row permutation")
            break

        full = FullEPredictor(training.subset(rng.permutation(30)), assignment).e_at(x, 0)
        if full != base_full:
            failures.append("full-predictor e-value changed under row permutation")
            break

    ok = criterion(
        2, "split, cross, and full predictions are bit-identical under 100 "
        "training-row permutations (exact float equality)", not failures
    )
    assert ok, "; ".join(failures)


def test_03_space_validity_and_runtime(criterion, cross_mean_run, other_space_runs):
    """Mean e-value at the truth respects its expectation bound per variant."""
    cross_report, elapsed = cross_mean_run
    failures = []
    runs = {"cross-mean": cross_report, **other_space_runs}
    for name, rep in runs.items():
        bound = 1.0 if name.endswith("mean") else 1.0 / 11.0
        limit = bound + 3.0 * rep.std_error
        if rep.mean_e_at_truth > limit:
            failures.append(
                f"{name}: mean {rep.mean_e_at_truth:.5f} exceeds {bound:.5f} + 3*SE"
            )
        if rep.verdict != "consistent":
            failures.append(f"{name}: verdict {rep.verdict}")
    if elapsed > 60.0:
        failures.append(f"cross-mean run took {elapsed:.1f}s (limit 60s)")

    ok = criterion(
        3, "mean e-value at the true label <= bound + 3*SE over 10,000 trials "
        "(bound 1 for mean-normalized, 1/11 for sum-normalized with 11 "
        "components; cross K=5 and split c=10 on gm2d, n_train=50; the "
        "cross-mean run finishes within 60s)", not failures
    )
    assert ok, "; ".join(failures)


def test_04_markov_tail_bounds(criterion, cross_mean_run):
    """Empirical P(e >= t) obeys Markov's inequality at t in {2,5,10,20}."""
    report, _ = cross_mean_run
    failures = []
    for t, rate in sorted(report.tail_rates.items()):
        limit = 1.0 / t + 3.0 * math.sqrt((1.0 / t) * (1.0 - 1.0 / t) / report.trials)
        if rate > limit:
            failures.append(f"P(e >= {t}) = {rate:.4f} exceeds 1/{t} + 3*SE = {limit:.4f}")

    ok = criterion(
        4, "tail rates P(e >= t) <= 1/t + 3*sqrt((1/t)(1-1/t)/10000) at "
        "t in {2, 5, 10, 20} on the 10,000-trial cross-mean run", not failures
    )
    assert ok, "; ".join(failures)


def test_05_online_time_validity(criterion, online_run):
    """Running mean of realized e-values stays near 1 over a 1000-round stream."""
    failures = []
    e, means = online_run.trace.e_values, online_run.trace.running_means
    if online_run.final_mean > 1.05:
        failures.append(f"final running mean {online_run.final_mean:.4f} > 1.05")
    if online_run.verdict != "consistent":
        failures.append(f"verdict {online_run.verdict}")
    if any(v != 1.0 for v in e[:20]):
        failures.append("warmup rounds did not emit the neutral value 1.0")
    for i in range(len(e)):
        if means[i] != math.fsum(e[: i + 1]) / (i + 1):
            failures.append(f"running mean at round {i + 1} is not the exact prefix average")
            break
    if not math.isfinite(online_run.bound_used):
        failures.append("no finite per-component bound was recorded")

    class NoBound(Normalizer):
        def component_bound(self, m):
            return None

    try:
        online_time_validity(
            GM2D, PredictorSpec(kind="cross", normalizer=NoBound("mean")), 60, 1
        )
        failures.append("normalizer without a component bound was accepted")
    except UnboundedNormalizerError:
        pass

    ok = criterion(
        5, "online stream of 1000 rounds (cross knn mean, warmup 20, refit per "
        "round) keeps the final running mean <= 1.05, running means equal exact "
        "prefix averages, and unbounded normalizers are refused", not failures
    )
    assert ok, "; ".join(failures)


def test_06_adjusted_p_merge_calibration(criterion, compare_run):
    """The factor-2 adjusted p-merge keeps exceedance within epsilon + 3*SE."""
    failures = []
    for eps in compare_run.epsilons:
        rate = compare_run.adjusted_exceedance[eps]
        limit = eps + 3.0 * compare_run.rate_std_errors[eps]
        if rate > limit:
            failures.append(f"adjusted P(p <= {eps}) = {rate:.4f} exceeds {limit:.4f}")
    if compare_run.verdict != "consistent":
        failures.append(f"verdict {compare_run.verdict}")
    for eps in compare_run.epsilons:
        print(
            f"    unadjusted exceedance at eps={eps}: "
            f"{compare_run.unadjusted_exceedance[eps]:.4f} (informational)"
        )

    ok = criterion(
        6, "adjusted cross p-merge satisfies P(p <= eps) <= eps + "
        "3*sqrt(eps(1-eps)/10000) at eps in {0.05, 0.1, 0.2} over 10,000 "
        "shared trials", not failures
    )
    assert ok, "; ".join(failures)


def test_07_harmonic_vs_arithmetic(criterion, compare_run):
    """Harmonic-mean p-merging never beats the arithmetic mean."""
    rng = np.random.default_rng(SEED + 7)
    failures = []
    for _ in range(1000):
        v = rng.uniform(1e-3, 1.0, rng.integers(2, 9)).tolist()
        harm = harmonic_mean(v)
        arith = math.fsum(v) / len(v)
        if harm > arith + 1e-12:
            failures.append(f"harmonic {harm} exceeds arithmetic {arith}")
            break
        identity = abs(harm - 1.0 / (math.fsum(1.0 / p for p in v) / len(v)))
        if identity > 1e-12:
            failures.append(f"harmonic/reciprocal-mean identity off by {identity}")
            break
    if compare_run.max_identity_deviation > 1e-12:
        failures.append(
            f"trial-level identity deviation {compare_run.max_identity_deviation}"
        )
    if compare_run.mean_harmonic_p > compare_run.mean_arithmetic_p:
        failures.append("mean harmonic p exceeded mean arithmetic p on real trials")

    ok = criterion(
        7, "harmonic mean <= arithmetic mean on 1000 random p-vectors and the "
        "harmonic mean equals 1/mean(1/p) within 1e-12 (also on the 10,000 "
        "comparison trials)", not failures
    )
    assert ok, "; ".join(failures)


def test_08_ridge_split_oracle(criterion, tmp_path):
    """A fully hand-computed ridge example, through the library and the CLI."""
    failures = []
    grid = RegressionTask((0.0, 3.0))
    training = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0]), grid)
    pred = fit_split(training, 1, "ridge", "mean", lam=0.0)
    if abs(pred.e_at((3.0,), 3.0) - 1.0) > 1e-9:
        failures.append(f"library e(3) = {pred.e_at((3.0,), 3.0)}")
    if abs(pred.e_at((3.0,), 0.0) - 0.4) > 1e-9:
        failures.append(f"library e(0) = {pred.e_at((3.0,), 0.0)}")

    train = tmp_path / "train.csv"
    train.write_text("x1,y\n0.0,0.0\n1.0,1.0\n2.0,2.0\n")
    out = tmp_path / "report.json"
    code = cli.main([
        "predict", "--input", str(train), "--grid", "0,3",
        "--predictor", "split", "--c", "1", "--rule", "ridge", "--lam", "0",
        "--normalizer", "mean", "--x", "3", "--out", str(out),
    ])
    if code != 0:
        failures.append(f"CLI exited {code}")
    else:
        e_values = json.loads(out.read_text())["results"][0]["e_values"]
        if abs(e_values["3.0"] - 1.0) > 1e-9:
            failures.append(f"CLI e(3) = {e_values['3.0']}")
        if abs(e_values["0.0"] - 0.4) > 1e-9:
            failures.append(f"CLI e(0) = {e_values['0.0']}")

    ok = criterion(
        8, "hand-worked ridge split example (fit on (0,0),(1,1), calibrate on "
        "(2,2), query x=3) yields e(3)=1.0 and e(0)=0.4 within 1e-9, both "
        "in-process and through the CLI", not failures
    )
    assert ok, "; ".join(failures)


def test_09_support_set_assignment(criterion):
    """Support-set e-values follow m/|SV| on the set and 0 off it."""
    rng = np.random.default_rng(SEED + 9)
    failures = []
    for _ in range(1000):
        m = int(rng.integers(2, 41))
        size = int(rng.integers(1, m + 1))
        indices = tuple(sorted(int(i) for i in rng.choice(m, size=size, replace=False)))
        vec = support_set_e_values(SupportSet(indices, m))
        expected = tuple(m / size if i in indices else 0.0 for i in range(m))
        if vec.values != expected:
            failures.append(f"values mismatch for m={m}, SV={indices}")
            break
        if abs(math.fsum(vec.values) / m - 1.0) > 1e-12:
            failures.append(f"mean {math.fsum(vec.values) / m} not 1 within 1e-12")
            break
    try:
        support_set_e_values(SupportSet((), 4))
        failures.append("empty support set accepted")
    except EmptySupportSetError:
        pass

    obs = (
        Observation((-2.0,), -1), Observation((-0.5,), -1),
        Observation((0.5,), 1), Observation((2.0,), 1),
        Observation((1.5,), -1),
    )
    vec = support_set_assignment(unit_margin_provider((1.0,), 0.0, 1))(obs)
    if vec.values != (0.0, 5.0 / 3.0, 5.0 / 3.0, 0.0, 5.0 / 3.0):
        failures.append(f"margin example produced {vec.values}")

    ok = criterion(
        9, "support-set assignment equals m/|SV| on the set and 0 elsewhere "
        "for 1000 random cases (mean within 1e-12 of 1), empty sets are "
        "rejected, and the unit-margin example matches its hand-computed "
        "values exactly", not failures
    )
    assert ok, "; ".join(failures)


def test_10_byte_identical_reports(criterion, tmp_path):
    """Same inputs give byte-identical artifacts, whatever the thread count."""
    failures = []
    v_args = ["validate", "--mode", "space", "--trials", "120", "--n", "30", "--seed", "6"]
    paths = [tmp_path / name for name in ("v1.json", "v2.json", "v4.json")]
    cli.main([*v_args, "--threads", "1", "--out", str(paths[0])])
    cli.main([*v_args, "--threads", "1", "--out", str(paths[1])])
    cli.main([*v_args, "--threads", "4", "--out", str(paths[2])])
    blobs = [p.read_bytes() for p in paths]
    if not blobs[0] == blobs[1] == blobs[2]:
        failures.append("validate reports differ across reruns or thread counts")

    p_args = ["predict", "--scenario", "gm2d", "--n", "40", "--predictor", "cross",
              "--x", "0.1,0.2", "--seed", "6"]
    pa, pb = tmp_path / "p1.json", tmp_path / "p2.json"
    cli.main([*p_args, "--out", str(pa)])
    cli.main([*p_args, "--out", str(pb)])
    if pa.read_bytes() != pb.read_bytes():
        failures.append("predict reports differ across reruns")

    g_args = ["gen", "--scenario", "linreg3", "--n", "50", "--seed", "6"]
    ga, gb = tmp_path / "g1.csv", tmp_path / "g2.csv"
    cli.main([*g_args, "--out", str(ga)])
    cli.main([*g_args, "--out", str(gb)])
    if ga.read_bytes() != gb.read_bytes():
        failures.append("generated datasets differ across reruns")

    ok = criterion(
        10, "JSON reports and generated CSVs are byte-identical across reruns "
        "and across --threads 1 vs 4", not failures
    )
    assert ok, "; ".join(failures)
