import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confee import (
    ClassificationTask,
    Dataset,
    EmptyDatasetError,
    InvalidScenarioError,
    LabelOutOfSpaceError,
    OutOfRangeError,
    ParseError,
    RaggedRowsError,
    RegressionTask,
    SCENARIO_PRESETS,
    Scenario,
    get_scenario,
    load_csv,
    sample,
    save_csv,
)
from confee.core import spawn_rng
from confee.data import _WEIGHT_TAG, read_csv


class TestScenario:
    def test_presets_are_wellformed(self):
        assert len(SCENARIO_PRESETS) == 5
        for name, scenario in SCENARIO_PRESETS.items():
            assert get_scenario(name) is scenario
            ds = sample(scenario, 5, 1)
            assert ds.n == 5 and ds.dim == scenario.dim

    def test_unknown_preset(self):
        with pytest.raises(InvalidScenarioError):
            get_scenario("nope")

    def test_validation(self):
        with pytest.raises(InvalidScenarioError):
            Scenario("uniform_cube")
        with pytest.raises(InvalidScenarioError):
            Scenario("gaussian_mixture", classes=1)
        with pytest.raises(InvalidScenarioError):
            Scenario("gaussian_mixture", dim=0)
        with pytest.raises(InvalidScenarioError):
            Scenario("gaussian_mixture", separation=-1.0)
        with pytest.raises(InvalidScenarioError):
            Scenario("linear_regression", dim=2)  # no grid
        with pytest.raises(InvalidScenarioError):
            Scenario("linear_regression", grid=(0.0, 1.0), noise_sd=-0.1)
        with pytest.raises(InvalidScenarioError):
            Scenario("gaussian_mixture", seed=-1)

    def test_mixture_geometry(self):
        for classes in (2, 3, 5):
            sc = Scenario("gaussian_mixture", classes=classes, dim=2, separation=3.0)
            means = sc.class_means()
            for a, b in zip(means, means[1:]):
                assert abs(np.linalg.norm(a - b) - 3.0) < 1e-9
        line = Scenario("gaussian_mixture", classes=3, dim=1, separation=2.0)
        assert np.allclose(line.class_means()[:, 0], [0.0, 2.0, 4.0])

    def test_class_means_need_a_mixture(self):
        with pytest.raises(InvalidScenarioError, match="class_means applies to gaussian_mixture only"):
            get_scenario("linreg3").class_means()

    def test_tasks(self):
        assert isinstance(get_scenario("gm5c").task, ClassificationTask)
        assert get_scenario("gm5c").task.labels == (0, 1, 2, 3, 4)
        assert isinstance(get_scenario("linreg10").task, RegressionTask)

    def test_weights_depend_only_on_scenario_seed(self):
        sc = get_scenario("linreg3")
        assert np.array_equal(sc.weights(), sc.weights())
        assert not np.array_equal(sc.weights(), replace(sc, seed=1).weights())

    def test_weights_are_drawn_once_outside_equality(self):
        sc = Scenario("linear_regression", dim=3, grid=(0.0, 1.0), seed=7)
        fresh = Scenario("linear_regression", dim=3, grid=(0.0, 1.0), seed=7)
        weights = sc.weights()
        assert sc.weights() is weights
        assert np.array_equal(weights, spawn_rng(7, _WEIGHT_TAG).standard_normal(3))
        assert not weights.flags.writeable
        assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)
        with pytest.raises(InvalidScenarioError):
            get_scenario("gm2d").weights()

    def test_import_draws_no_random_numbers(self):
        # making the presets draws nothing, so importing confee does not
        # load numpy.random; a process that never samples never pays for it
        code = "import sys, confee; print('numpy.random' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_derived_values_are_made_once_and_read_only(self):
        mixture = Scenario("gaussian_mixture", classes=3, dim=4, separation=2.0)
        assert sample(mixture, 5, 1).task is sample(mixture, 7, 2).task is mixture.task
        radius = 2.0 / (2.0 * math.sin(math.pi / 3))
        angles = 2.0 * math.pi * np.arange(3) / 3
        expected = np.zeros((3, 4))
        expected[:, 0], expected[:, 1] = radius * np.cos(angles), radius * np.sin(angles)
        regression = replace(get_scenario("linreg3"), seed=7)
        assert sample(regression, 5, 1).task is sample(regression, 7, 2).task
        drawn = spawn_rng(7, _WEIGHT_TAG).standard_normal(3)
        for stored, formula in ((mixture.class_means(), expected), (regression.weights(), drawn)):
            assert np.array_equal(stored, formula)
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 0.0


class TestSampling:
    def test_deterministic(self):
        sc = get_scenario("gm2d")
        a = sample(sc, 40, 9)
        b = sample(sc, 40, 9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = sample(sc, 40, 10)
        assert not np.array_equal(a.X, c.X)

    @settings(max_examples=100, deadline=None)
    @example(kind="gaussian_mixture", dim=2, classes=2, n=1, extra=1, seed=0, other=1)
    @example(kind="linear_regression", dim=3, classes=2, n=40, extra=20, seed=2**32, other=0)
    @example(kind="gaussian_mixture", dim=1, classes=5, n=7, extra=1, seed=2**64, other=2**32)
    @example(kind="linear_regression", dim=12, classes=2, n=30, extra=1, seed=2**160 - 1,
             other=2**64)
    @given(
        kind=st.sampled_from(["gaussian_mixture", "linear_regression"]),
        dim=st.integers(1, 12),
        classes=st.integers(2, 5),
        n=st.integers(1, 60),
        extra=st.integers(1, 20),
        seed=st.integers(0, 2**160 - 1),
        other=st.integers(0, 2**160 - 1),
    )
    def test_prefix_stability(self, kind, dim, classes, n, extra, seed, other):
        """A longer sample extends a shorter one; one seed repeats, two differ."""
        m = n + extra
        sc = Scenario(kind, classes=classes, dim=dim, grid=(0.0, 1.0), seed=3)
        short, long = sample(sc, n, seed), sample(sc, m, seed)
        assert np.array_equal(long.X[:n], short.X)
        assert np.array_equal(long.y[:n], short.y)
        again = sample(sc, m, seed)
        assert np.array_equal(again.X, long.X) and np.array_equal(again.y, long.y)
        if other != seed:
            assert not np.array_equal(sample(sc, m, other).X, long.X)

    def test_labels_live_in_task(self):
        ds = sample(get_scenario("gm5c"), 200, 3)
        assert set(np.unique(ds.y)) <= {0, 1, 2, 3, 4}

    def test_noiseless_regression_is_exact(self):
        sc = Scenario("linear_regression", dim=3, noise_sd=0.0, grid=(-1.0, 1.0), seed=4)
        ds = sample(sc, 50, 11)
        w = sc.weights()
        assert all(ds.y[i] == float(w @ ds.X[i]) for i in range(50))

    def test_preconditions(self):
        sc = get_scenario("gm2d")
        with pytest.raises(OutOfRangeError):
            sample(sc, 0, 1)
        with pytest.raises(OutOfRangeError):
            sample(sc, 5, -1)


class TestCsv:
    def test_round_trip_classification(self, tmp_path):
        ds = sample(get_scenario("gm5c"), 30, 2)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, ds.task)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_round_trip_regression(self, tmp_path):
        ds = sample(get_scenario("linreg3"), 30, 2)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, ds.task)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_round_trip_string_labels(self, tmp_path):
        task = ClassificationTask(("spam", "ham"))
        ds = Dataset(np.array([[0.25, -1.5], [2.0, 3.125]]), np.array(["ham", "spam"]), task)
        path = tmp_path / "mail.csv"
        save_csv(ds, path)
        back = load_csv(path, task)
        assert list(back.y) == ["ham", "spam"]
        assert np.array_equal(back.X, ds.X)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n0,0,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, ClassificationTask((0,)))
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path, ClassificationTask((0,)))

    def test_header_only_means_no_observations(self, tmp_path):
        path = tmp_path / "onlyheader.csv"
        path.write_text("x1,y\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path, ClassificationTask((0,)))

    def test_ragged_row_carries_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2,y\n0.0,1.0,0\n0.5,1\n")
        with pytest.raises(RaggedRowsError) as err:
            load_csv(path, ClassificationTask((0, 1)))
        assert err.value.line == 3
        assert (err.value.expected, err.value.got) == (3, 2)

    def test_bad_number_carries_position(self, tmp_path):
        path = tmp_path / "badnum.csv"
        path.write_text("x1,x2,y\n0.0,oops,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, ClassificationTask((0,)))
        assert (err.value.line, err.value.column) == (2, "x2")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x1,y\ninf,0\n")
        with pytest.raises(ParseError):
            load_csv(path, ClassificationTask((0,)))

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("x1,y\n0.0,2\n")
        with pytest.raises(LabelOutOfSpaceError):
            load_csv(path, ClassificationTask((0, 1)))

    def test_bad_regression_label(self, tmp_path):
        path = tmp_path / "ylabel.csv"
        path.write_text("x1,y\n0.0,zero\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, RegressionTask((0.0, 1.0)))
        assert err.value.column == "y"

    def test_y_column_is_optional_for_read_csv(self, tmp_path):
        path = tmp_path / "objects.csv"
        path.write_text("x1,x2\n0.5,-1.0\n2.0,3.0\n")
        X, labels = read_csv(path, ClassificationTask((0, 1)))
        assert X.tolist() == [[0.5, -1.0], [2.0, 3.0]]
        assert labels is None

    def test_read_csv_labels_and_header_only(self, tmp_path):
        path = tmp_path / "labelled.csv"
        path.write_text("x1,y\n0.5,1\n")
        assert read_csv(path, ClassificationTask((0, 1)))[1] == (1,)
        path.write_text("x1,x2\n")
        X, labels = read_csv(path, ClassificationTask((0, 1)))
        assert X.shape == (0, 2) and labels is None

    def test_load_csv_needs_y_column(self, tmp_path):
        path = tmp_path / "nolabels.csv"
        path.write_text("x1,x2\n0.0,1.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, ClassificationTask((0,)))
        assert err.value.line == 1

    def test_byte_order_mark_is_skipped(self, tmp_path):
        train = "x1,x2,y\n0.5,-1.0,1\n2.0,3.0,0\n"
        test = "x1,x2\n0.25,4.0\n"
        task = ClassificationTask((0, 1))
        for name, text in (("train.csv", train), ("test.csv", test)):
            (tmp_path / name).write_text(text, encoding="utf-8")
            (tmp_path / f"bom-{name}").write_text(text, encoding="utf-8-sig")
        plain = load_csv(tmp_path / "train.csv", task)
        marked = load_csv(tmp_path / "bom-train.csv", task)
        assert marked.X.tolist() == plain.X.tolist() and marked.y.tolist() == plain.y.tolist()
        X, labels = read_csv(tmp_path / "bom-test.csv", task)
        assert X.tolist() == read_csv(tmp_path / "test.csv", task)[0].tolist() and labels is None

    def test_blank_lines_are_skipped(self, tmp_path):
        task = ClassificationTask((0, 1))
        path = tmp_path / "blank.csv"
        path.write_text("x1,x2,y\n0.5,-1.0,1\n\n2.0,3.0,0\n\n")
        ds = load_csv(path, task)
        assert ds.X.tolist() == [[0.5, -1.0], [2.0, 3.0]] and ds.y.tolist() == [1, 0]
        path.write_text("\nx1,x2\n0.25,4.0\n\n")
        X, labels = read_csv(path, task)
        assert X.tolist() == [[0.25, 4.0]] and labels is None

    def test_errors_after_a_blank_line_name_their_physical_line(self, tmp_path):
        path = tmp_path / "blank-then-bad.csv"
        path.write_text("x1,x2,y\n0.5,-1.0,1\n\n2.0,oops,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, ClassificationTask((0, 1)))
        assert (err.value.line, err.value.column) == (4, "x2")
        path.write_text("x1,x2,y\n\n\n0.5,1\n")
        with pytest.raises(RaggedRowsError) as err:
            load_csv(path, ClassificationTask((0, 1)))
        assert err.value.line == 4
        path.write_text("\nx1,oops\n")
        with pytest.raises(ParseError) as err:
            read_csv(path, ClassificationTask((0, 1)))
        assert err.value.line == 2

    def test_non_finite_regression_label(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1,y\n0.0,nan\n")
        with pytest.raises(ParseError) as err:
            read_csv(path, RegressionTask((0.0, 1.0)))
        assert (err.value.line, err.value.column) == (2, "y")
