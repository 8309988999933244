import importlib
import inspect
import io
import json
import math
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confee import (
    PredictorSpec,
    cli,
    compare_e_vs_p,
    get_scenario,
    load_csv,
    mc_space_validity,
    online_time_validity,
    sample,
    validity,
)


def _schema():
    with resources.files("confee").joinpath("report.schema.json").open("r") as fh:
        return json.load(fh)


SCHEMA = _schema()


def _run(*argv) -> int:
    return cli.main(list(argv))


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    jsonschema.Draft7Validator(SCHEMA).validate(report)
    return report


def _strict(text: str) -> dict:
    """Parse a report as strict JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestGen:
    def test_writes_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run("gen", "--scenario", "gm2d", "--n", "100", "--seed", "7", "--out", str(a)) == 0
        assert _run("gen", "--scenario", "gm2d", "--n", "100", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "x1,x2,y"
        assert len(a.read_text().splitlines()) == 101

    def test_round_trips_through_load(self, tmp_path):
        out = tmp_path / "d.csv"
        _run("gen", "--scenario", "gm5c", "--n", "25", "--seed", "3", "--out", str(out))
        ds = load_csv(out, get_scenario("gm5c").task)
        direct = sample(get_scenario("gm5c"), 25, 3)
        assert np.array_equal(ds.X, direct.X)
        assert np.array_equal(ds.y, direct.y)

    def test_stdout_mode(self, capsys):
        assert _run("gen", "--scenario", "gm2d", "--n", "3", "--seed", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x1,x2,y" and len(lines) == 4

    def test_unknown_scenario_is_runtime_error(self, tmp_path):
        assert _run("gen", "--scenario", "bogus", "--out", str(tmp_path / "x.csv")) == 1


class TestPredict:
    @pytest.fixture()
    def train_csv(self, tmp_path):
        path = tmp_path / "train.csv"
        _run("gen", "--scenario", "gm2d", "--n", "40", "--seed", "7", "--out", str(path))
        return path

    def test_cross_report(self, train_csv, tmp_path):
        out = tmp_path / "rep.json"
        code = _run(
            "predict", "--input", str(train_csv), "--labels", "0,1",
            "--predictor", "cross", "--K", "5", "--rule", "knn", "--k", "3",
            "--normalizer", "mean", "--x", "0.1,0.2", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        report = _load(out)
        (result,) = report["results"]
        assert set(result["e_values"]) == {"0", "1"}
        assert all(len(v) == 5 for v in result["fold_e_values"].values())
        assert set(result["prediction_sets"]) == {"0.05", "0.1", "0.2"}
        assert report["task"] == {"type": "classification", "labels": ["0", "1"]}

    def test_scenario_source_matches_gen_plus_input(self, train_csv, tmp_path):
        args = ["--predictor", "cross", "--K", "5", "--x", "0.1,0.2", "--seed", "7"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert _run("predict", "--scenario", "gm2d", "--n", "40", *args, "--out", str(out_a)) == 0
        assert _run("predict", "--input", str(train_csv), "--labels", "0,1", *args, "--out", str(out_b)) == 0
        a, b = _load(out_a), _load(out_b)
        assert a["results"][0]["e_values"] == b["results"][0]["e_values"]

    def test_verbose_details(self, train_csv, tmp_path):
        out = tmp_path / "rep.json"
        _run(
            "predict", "--input", str(train_csv), "--labels", "0,1",
            "--predictor", "split", "--c", "10", "--x", "0.0,0.0",
            "--verbose", "--out", str(out),
        )
        details = _load(out)["results"][0]["details"]
        assert len(details["calibration_summaries"]) == 10
        assert set(details["candidate_summaries"]) == {"0", "1"}
        assert all(len(v) == 11 for v in details["normalized"].values())

    def test_verbose_const_details_are_empty(self, tmp_path):
        out = tmp_path / "rep.json"
        assert _run("predict", "--scenario", "gm2d", "--n", "20", "--predictor", "const2",
                    "--x", "0,0", "--verbose", "--out", str(out)) == 0
        assert _load(out)["results"][0]["details"] == {}

    def test_test_file_with_true_labels(self, train_csv, tmp_path):
        test_path = tmp_path / "test.csv"
        test_path.write_text("x1,x2,y\n0.5,0.5,1\n-0.5,0.0,0\n")
        out = tmp_path / "rep.json"
        assert _run(
            "predict", "--input", str(train_csv), "--labels", "0,1",
            "--test", str(test_path), "--out", str(out),
        ) == 0
        report = _load(out)
        assert [r["true_label"] for r in report["results"]] == ["1", "0"]

    def test_usage_errors(self, train_csv, tmp_path):
        assert _run("predict", "--x", "0,0") == 1  # no data source
        assert _run("predict", "--scenario", "gm2d", "--input", str(train_csv),
                    "--labels", "0,1", "--x", "0,0") == 1  # two sources
        assert _run("predict", "--input", str(train_csv), "--x", "0,0") == 1  # no label space
        assert _run("predict", "--input", str(train_csv), "--labels", "0,1",
                    "--grid", "0,1", "--x", "0,0") == 1  # two label spaces
        assert _run("predict", "--scenario", "gm2d", "--n", "40") == 1  # no test objects
        assert _run("predict", "--scenario", "gm2d", "--x", "0,0",
                    "--predictor", "bogus") == 1
        assert _run("predict", "--scenario", "gm2d", "--x", "0.0") == 1  # dim mismatch

    def test_missing_input_file(self, tmp_path):
        assert _run("predict", "--input", str(tmp_path / "nope.csv"),
                    "--labels", "0,1", "--x", "0,0") == 1

    def test_negative_coordinates_accepted(self, train_csv, tmp_path):
        out = tmp_path / "rep.json"
        code = _run("predict", "--input", str(train_csv), "--labels", "0,1",
                    "--x", "-2.0,1.5", "--x", "-1e-3,-0.25", "--out", str(out))
        assert code == 0
        report = _load(out)
        assert report["results"][0]["x"] == [-2.0, 1.5]
        assert report["results"][1]["x"] == [-0.001, -0.25]

    def test_non_finite_test_feature_names_line_and_column(self, train_csv, tmp_path, capsys):
        test_path = tmp_path / "test.csv"
        test_path.write_text("x1,x2\n0.5,0.5\n0.0,inf\n")
        assert _run("predict", "--input", str(train_csv), "--labels", "0,1",
                    "--test", str(test_path)) == 1
        assert "line 3, column x2: non-finite value 'inf'" in capsys.readouterr().err

    def test_nan_regression_label_in_test_file_rejected(self, tmp_path, capsys):
        train = tmp_path / "reg.csv"
        _run("gen", "--scenario", "linreg3", "--n", "20", "--seed", "1", "--out", str(train))
        test_path = tmp_path / "test.csv"
        test_path.write_text("x1,x2,x3,y\n0.1,0.2,0.3,nan\n")
        assert _run("predict", "--input", str(train), "--grid=-3,0,3", "--rule", "ridge",
                    "--test", str(test_path), "--out", str(tmp_path / "rep.json")) == 1
        assert "line 2, column y: non-finite value 'nan'" in capsys.readouterr().err

    def test_non_finite_x_is_usage_error(self, train_csv, capsys):
        for value in ("nan,1", "1e400,0"):
            assert _run("predict", "--input", str(train_csv), "--labels", "0,1",
                        "--x", value) == 1
            assert "argument --x: expected comma-separated finite numbers" in (
                capsys.readouterr().err
            )

    def test_ridge_overflow_names_x(self, tmp_path, capsys):
        # in process, so that pyproject's filter turns a numpy overflow
        # warning raised from confee into a failure
        train = tmp_path / "reg.csv"
        _run("gen", "--scenario", "linreg3", "--n", "20", "--seed", "1", "--out", str(train))
        capsys.readouterr()
        assert _run("predict", "--input", str(train), "--grid=-3,0,3", "--rule", "ridge",
                    "--x", "1.7e308,-1.7e308,-1.7e308") == 1
        assert capsys.readouterr().err.endswith(
            "error: x too large for ridge: x.beta overflows\n"
        )

    def test_failed_batch_writes_nothing(self, tmp_path, capsys):
        # the first object is queried and written to the spool, the second
        # overflows: no report reaches stdout or --out
        train = tmp_path / "reg.csv"
        _run("gen", "--scenario", "linreg3", "--n", "20", "--seed", "1", "--out", str(train))
        fresh, existing = tmp_path / "fresh.json", tmp_path / "existing.json"
        existing.write_bytes(b'{"kept": true}\n')
        argv = ["predict", "--input", str(train), "--grid=-3,0,3", "--rule", "ridge",
                "--x", "0,0,0", "--x", "1.7e308,-1.7e308,-1.7e308"]
        capsys.readouterr()
        for out in ([], ["--out", str(fresh)], ["--out", str(existing)]):
            assert _run(*argv, *out) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith("error: x too large for ridge: x.beta overflows\n")
        assert not fresh.exists()
        assert existing.read_bytes() == b'{"kept": true}\n'

    def test_ridge_residual_overflow_names_x_and_labels(self, tmp_path, capsys):
        # x.beta, about -1.6e308, is finite; the grid label 1.7e308 minus it is not
        train = tmp_path / "line.csv"
        train.write_text("x1,y\n" + "".join(f"{i},{2 * i}\n" for i in range(1, 41)))
        assert _run("predict", "--input", str(train), "--grid=-1.7e308,0,1.7e308",
                    "--rule", "ridge", "--x=-8e307") == 1
        assert capsys.readouterr().err.endswith(
            "error: x or labels too large for ridge: y - x.beta overflows\n"
        )

    def test_knn_overflow_warns_of_nothing(self, capsys):
        # in process, so that pyproject's filter turns a numpy overflow
        # warning raised from confee into a failure: every distance from x
        # overflows to inf, and the zero summaries are refused
        assert _run("predict", "--scenario", "gm2d", "--x", "1e200,1e200") == 1
        assert capsys.readouterr().err == "confee: error: summaries must be strictly positive\n"

    def test_header_only_test_file_adds_no_objects(self, train_csv, tmp_path):
        test_path = tmp_path / "test.csv"
        test_path.write_text("x1,x2\n")
        out = tmp_path / "rep.json"
        assert _run("predict", "--input", str(train_csv), "--labels", "0,1",
                    "--test", str(test_path), "--x", "0.1,0.2", "--out", str(out)) == 0
        assert [r["x"] for r in _load(out)["results"]] == [[0.1, 0.2]]

    def test_trailing_blank_lines_are_skipped(self, train_csv, tmp_path):
        test_text = "x1,x2,y\n0.5,0.5,1\n-0.5,0.0,0\n"
        reports = []
        for blank in ("", "\n"):
            train = tmp_path / f"train{len(blank)}.csv"
            train.write_text(train_csv.read_text() + blank)
            test_path = tmp_path / f"test{len(blank)}.csv"
            test_path.write_text(test_text + blank)
            out = tmp_path / f"rep{len(blank)}.json"
            assert _run("predict", "--input", str(train), "--labels", "0,1",
                        "--test", str(test_path), "--out", str(out)) == 0
            reports.append(_load(out)["results"])
        assert reports[0] == reports[1] and len(reports[0]) == 2

    def test_labels_apply_to_input_only(self, capsys):
        assert _run("predict", "--scenario", "gm2d", "--labels", "0,1", "--x", "0,0") == 1
        assert "error: --labels/--grid apply to --input only" in capsys.readouterr().err

    def test_string_labels(self, tmp_path):
        rows = [f"{x},{x * 0.5},{'a' if x < 0 else 'b'}" for x in np.linspace(-3.0, 3.0, 20)]
        train = tmp_path / "ab.csv"
        train.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        test_path = tmp_path / "test.csv"
        test_path.write_text("x1,x2,y\n2.5,1.25,b\n")
        out = tmp_path / "rep.json"
        assert _run("predict", "--input", str(train), "--labels", "a,b", "--predictor", "split",
                    "--c", "6", "--k", "1", "--test", str(test_path), "--out", str(out)) == 0
        report = _load(out)
        assert report["task"] == {"type": "classification", "labels": ["a", "b"]}
        (result,) = report["results"]
        assert result["true_label"] == "b"
        assert set(result["e_values"]) == {"a", "b"}

    @pytest.mark.parametrize("verbose", [(), ("--verbose",)])
    def test_cross_query_scores_each_fold_and_label_once(
        self, train_csv, tmp_path, query_rows, verbose
    ):
        counts = query_rows(cli)
        assert _run("predict", "--input", str(train_csv), "--labels", "0,1",
                    "--predictor", "cross", "--K", "5", "--x", "0.1,0.2", *verbose,
                    "--out", str(tmp_path / "rep.json")) == 0
        # one distance row per candidate label serves all five folds
        assert counts == [2]


class TestValidate:
    def test_space_consistent_exit_zero(self, tmp_path):
        out = tmp_path / "v.json"
        code = _run("validate", "--mode", "space", "--scenario", "gm2d",
                    "--predictor", "cross", "--K", "5", "--trials", "150",
                    "--n", "30", "--seed", "3", "--out", str(out))
        assert code == 0
        report = _load(out)
        assert report["verdict"] == "consistent"
        assert report["report"]["trials"] == 150

    def test_violation_exit_two(self, tmp_path):
        out = tmp_path / "v.json"
        code = _run("validate", "--mode", "space", "--predictor", "const2",
                    "--trials", "100", "--seed", "3", "--out", str(out))
        assert code == 2
        assert _load(out)["verdict"] == "violation"

    def test_time_mode(self, tmp_path):
        out = tmp_path / "t.json"
        code = _run("validate", "--mode", "time", "--rounds", "60", "--warmup", "15",
                    "--seed", "2", "--out", str(out))
        assert code == 0
        report = _load(out)
        assert len(report["report"]["e_values"]) == 60

    def test_compare_mode(self, tmp_path):
        out = tmp_path / "c.json"
        code = _run("validate", "--mode", "compare", "--trials", "150", "--n", "30",
                    "--seed", "5", "--out", str(out))
        assert code == 0
        report = _load(out)
        assert set(report["report"]["adjusted_exceedance"]) == {"0.05", "0.1", "0.2"}

    def test_reports_byte_identical_across_runs_and_threads(self, tmp_path):
        args = ["validate", "--mode", "space", "--trials", "120", "--n", "30", "--seed", "11"]
        paths = [tmp_path / f"r{i}.json" for i in range(3)]
        assert _run(*args, "--threads", "1", "--out", str(paths[0])) == 0
        assert _run(*args, "--threads", "1", "--out", str(paths[1])) == 0
        assert _run(*args, "--threads", "4", "--out", str(paths[2])) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_usage_errors(self, capsys):
        assert _run("validate", "--mode", "sideways") == 1
        assert _run("validate", "--trials", "10") == 1  # below minimum
        capsys.readouterr()
        assert _run("validate", "--mode", "time", "--predictor", "full") == 1
        assert capsys.readouterr().err.endswith("error: predictor declares no bound\n")

    def test_threads_must_be_positive(self, capsys):
        for value in ("0", "-2"):
            assert _run("validate", "--trials", "100", "--threads", value) == 1
            assert f"error: --threads must be at least 1, got {value}" in capsys.readouterr().err

    def test_threads_above_the_cap_rejected(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a harness sampled")

        monkeypatch.setattr(validity, "sample", refuse)
        monkeypatch.setattr(validity, "_sample_stack", refuse)
        cap = validity.MAX_THREADS
        for mode in ("space", "time", "compare"):
            for value in (str(cap + 1), "1000000000"):
                assert _run("validate", "--mode", mode, "--threads", value) == 1
                err = capsys.readouterr().err
                assert f"error: --threads must be at most {cap}, got {value}" in err

    @pytest.mark.parametrize("mode_args", [
        ("--mode", "time", "--rounds", "50", "--warmup", "20"),
        ("--mode", "space", "--trials", "100", "--n", "20"),
    ])
    def test_e_values_whose_sum_overflows_refused(self, capsys, mode_args):
        huge = "const" + "9" * 308  # finite, and two of them overflow a sum
        assert _run("validate", *mode_args, "--predictor", huge) == 1
        assert capsys.readouterr().err.endswith(
            "error: e-values too large to average: their sum overflows\n"
        )

    def test_warmup_too_short_for_the_first_fit(self, capsys):
        assert _run("validate", "--mode", "time", "--predictor", "split", "--c", "10",
                    "--warmup", "11", "--rounds", "60") == 1
        assert "warmup=11; the first split fit needs at least 13 rows" in capsys.readouterr().err

    def test_defaults_match_the_harnesses(self):
        defaults = cli._DEFAULTS["validate"]

        def default(harness, name):
            return inspect.signature(harness).parameters[name].default

        assert defaults["n"] == default(mc_space_validity, "n_train")
        assert defaults["n"] == default(compare_e_vs_p, "n_train")
        assert defaults["warmup"] == default(online_time_validity, "warmup")
        assert defaults["tolerance"] == default(online_time_validity, "tolerance")

    @pytest.mark.parametrize("args", [
        ["gen", "--n", "5", "--seed", "3"],
        ["predict", "--scenario", "linreg3", "--n", "30", "--x", "0,1,-2", "--seed", "3"],
        ["validate", "--trials", "100", "--n", "20", "--seed", "3"],
    ], ids=["gen", "predict", "validate"])
    def test_stdout_report_is_the_out_file(self, tmp_path, capsys, args):
        """Every command writes the same bytes to stdout as to --out."""
        out = tmp_path / "out"
        assert _run(*args, "--out", str(out)) == 0
        capsys.readouterr()
        assert _run(*args) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


class TestConfigAndEnv:
    def test_config_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ["validate", "--mode", "space", "--trials", "120", "--n", "30",
                "--seed", "4", "--normalizer", "sum"]
        assert _run(*args, "--out", str(first)) == 0
        assert _run("validate", "--config", str(first), "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("scenario, task_flags", [
        ("gm2d", ["--labels", "0,1", "--rule", "knn", "--k", "2"]),
        ("linreg3", ["--grid", "-3,0,3", "--rule", "ridge", "--lam", "0.5"]),
    ])
    def test_predict_config_rerun_is_byte_identical(self, tmp_path, scenario, task_flags):
        train = tmp_path / "train.csv"
        _run("gen", "--scenario", scenario, "--n", "30", "--seed", "2", "--out", str(train))
        dim = len(train.read_text().splitlines()[0].split(",")) - 1
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        x1, x2 = ",".join(["0.5"] * dim), ",".join(["-1"] * dim)
        assert _run("predict", "--input", str(train), *task_flags, "--K", "3",
                    "--x", x1, "--x", x2, "--epsilons", "0.1,0.05", "--verbose",
                    "--out", str(first)) == 0
        assert _run("predict", "--config", str(first), "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        _run("validate", "--mode", "space", "--trials", "120", "--n", "30",
             "--seed", "4", "--out", str(first))
        _run("validate", "--config", str(first), "--trials", "150", "--out", str(second))
        report = _load(second)
        assert report["config"]["trials"] == 150
        assert report["config"]["n"] == 30

    def test_config_command_mismatch(self, tmp_path):
        first = tmp_path / "a.json"
        _run("validate", "--mode", "space", "--trials", "120", "--n", "30",
             "--seed", "4", "--out", str(first))
        assert _run("predict", "--config", str(first), "--x", "0,0") == 1

    @staticmethod
    def _predict_with_config(tmp_path, **config) -> int:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "gm2d", "n": 30, "x": [[0.0, 0.0]], **config}))
        return _run("predict", "--config", str(path), "--out", str(tmp_path / "r.json"))

    @pytest.mark.parametrize("key, value", [
        ("x", [[float("nan"), 1.0]]),
        ("epsilons", [0.1, float("inf")]),
        ("margin_w", "1,abc"),
    ])
    def test_config_vectors_checked_like_flags(self, tmp_path, capsys, key, value):
        assert self._predict_with_config(tmp_path, **{key: value}) == 1
        assert (f"error: config key {key!r}: expected comma-separated finite numbers"
                in capsys.readouterr().err)

    def test_config_x_must_be_a_list(self, tmp_path, capsys):
        assert self._predict_with_config(tmp_path, x="0,0") == 1
        assert "error: config key 'x': expected a list, got '0,0'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {path}: "),
        ("{", "cannot read config {path}: "),
        ("[1, 2]", "config {path} must hold a JSON object"),
        ('{"config": 5}', "config {path} has a malformed 'config' entry"),
    ])
    def test_unreadable_config_refused(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert _run("predict", "--config", str(path), "--x", "0,0") == 1
        assert "error: " + message.format(path=path) in capsys.readouterr().err

    def test_config_ints_checked_like_flags(self, tmp_path, capsys):
        assert self._predict_with_config(tmp_path, n=20.5) == 1
        assert "error: config key 'n': invalid int value: '20.5'" in capsys.readouterr().err
        assert self._predict_with_config(tmp_path, K=True) == 1
        assert "error: config key 'K': invalid int value: 'True'" in capsys.readouterr().err
        # the text a flag would accept is accepted, as the flag would read it
        assert self._predict_with_config(tmp_path, n="20") == 0
        assert _load(tmp_path / "r.json")["config"]["n"] == 20

    def test_config_floats_checked_like_flags(self, tmp_path, capsys):
        assert self._predict_with_config(tmp_path, lam="abc") == 1
        assert "error: config key 'lam': invalid float value: 'abc'" in capsys.readouterr().err

    def test_config_strings_checked_like_flags(self, tmp_path, capsys):
        assert self._predict_with_config(tmp_path, predictor=5) == 1
        assert "error: config key 'predictor': expected a string, got 5" in capsys.readouterr().err
        assert self._predict_with_config(tmp_path, rule=["knn"]) == 1
        assert "error: config key 'rule': expected a string, got [\"knn\"]" in capsys.readouterr().err
        assert self._predict_with_config(tmp_path, predictor="split") == 0

    def test_config_switches_checked_like_flags(self, tmp_path, capsys):
        assert self._predict_with_config(tmp_path, verbose="no") == 1
        assert ("error: config key 'verbose': expected true or false, got \"no\""
                in capsys.readouterr().err)
        assert self._predict_with_config(tmp_path, verbose=0) == 1
        assert self._predict_with_config(tmp_path, verbose=False) == 0
        assert "details" not in _load(tmp_path / "r.json")["results"][0]
        assert self._predict_with_config(tmp_path, verbose=True) == 0
        assert "details" in _load(tmp_path / "r.json")["results"][0]

    def test_margin_w_length_names_the_flag(self, capsys):
        assert _run("predict", "--scenario", "gm2d", "--n", "30", "--predictor", "full",
                    "--margin-w", "1,2,3", "--x", "0,0") == 1
        assert ("confee: error: margin_w has 3 entries; the training data has 2 features"
                in capsys.readouterr().err)

    def test_positive_label_reads_like_a_label(self, tmp_path):
        full = ["--predictor", "full", "--margin-w", "1,0", "--x", "0.3,0.1"]
        reports = []
        for extra in ([], ["--positive-label", "1"]):
            out = tmp_path / f"r{len(reports)}.json"
            assert _run("predict", "--scenario", "gm2d", "--n", "30", *full, *extra,
                        "--out", str(out)) == 0
            reports.append(out.read_bytes())
        # the flag's "1" is the label 1, as the default and the config file have it
        assert reports[0] == reports[1]
        assert self._predict_with_config(tmp_path, predictor="full", positive_label=1) == 0

    def test_positive_label_outside_the_task_refused(self, tmp_path, capsys):
        full = ("predict", "--scenario", "gm2d", "--n", "20", "--x", "0,0",
                "--predictor", "full", "--margin-w", "1,1")
        for flag, shown in (("--positive-label=7", "7"), ("--positive-label=", "''")):
            assert _run(*full, flag, "--out", str(tmp_path / "r.json")) == 1
            assert (f"confee: error: positive_label {shown} is not one of the task's "
                    "labels (0, 1)" in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()
        assert self._predict_with_config(tmp_path, predictor="full", positive_label=7) == 1
        assert ("confee: error: positive_label 7 is not one of the task's labels (0, 1)"
                in capsys.readouterr().err)

    def test_config_choices_checked_like_flags(self, tmp_path, capsys):
        assert self._predict_with_config(tmp_path, rule="kn") == 1
        assert "error: config key 'rule': invalid choice: 'kn'" in capsys.readouterr().err
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"mode": "spaec", "trials": 100}))
        assert _run("validate", "--config", str(path)) == 1
        assert "error: config key 'mode': invalid choice: 'spaec'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("predict", ["--x", "0,0"]),
        ("validate", ["--trials", "100"]),
    ])
    @pytest.mark.parametrize("key", ["trails", "threads", "out"])
    def test_config_key_that_names_no_setting_refused(self, tmp_path, capsys, command, flags, key):
        # a misspelt setting, or an execution flag; the first in sorted order is named
        path, out = tmp_path / "c.json", tmp_path / "r.json"
        path.write_text(json.dumps({"n": 30, key: 5, "zz": 1}))
        assert _run(command, "--config", str(path), *flags, "--out", str(out)) == 1
        assert (f"error: config key {key!r}: not a setting of '{command}'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_env_seed(self, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.json"
        by_env = tmp_path / "env.json"
        _run("validate", "--trials", "120", "--n", "30", "--seed", "42",
             "--out", str(by_flag))
        monkeypatch.setenv("CONFEE_SEED", "42")
        _run("validate", "--trials", "120", "--n", "30", "--out", str(by_env))
        assert by_flag.read_bytes() == by_env.read_bytes()

    def test_seed_flag_must_be_nonnegative(self, capsys):
        assert _run("validate", "--trials", "120", "--seed", "-1") == 1
        assert ("argument --seed: expected a nonnegative integer, got -1"
                in capsys.readouterr().err)

    def test_config_seed_must_be_nonnegative(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"trials": 120, "seed": -3}))
        assert _run("validate", "--config", str(path)) == 1
        assert ("config key 'seed': expected a nonnegative integer, got -3"
                in capsys.readouterr().err)

    def test_env_seed_must_be_nonnegative(self, monkeypatch, capsys):
        monkeypatch.setenv("CONFEE_SEED", "-5")
        assert _run("validate", "--mode", "time", "--rounds", "60") == 1
        assert "CONFEE_SEED: expected a nonnegative integer, got -5" in capsys.readouterr().err

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("CONFEE_SEED", "banana")
        assert _run("validate", "--trials", "120") == 1

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONFEE_SEED", "1")
        out = tmp_path / "r.json"
        _run("validate", "--trials", "120", "--n", "30", "--seed", "9", "--out", str(out))
        assert _load(out)["seed"] == 9


class TestFiniteNumbers:
    """--lam, --margin-b and --tolerance take finite numbers only, as the
    vector flags do, whether from a flag or a config file."""

    PREDICT = ("predict", "--scenario", "gm2d", "--n", "20", "--x", "0,0")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("argv", [
        (*PREDICT, "--lam"),
        (*PREDICT, "--margin-b"),
        (*PREDICT, "--predictor", "full", "--margin-b"),
        ("validate", "--trials", "100", "--n", "20", "--tolerance"),
    ])
    def test_flag_refuses_non_finite(self, capsys, argv, value):
        assert _run(*argv, value) == 1
        assert (f"argument {argv[-1]}: expected a finite number, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, got", [("NaN", "nan"), ("1e400", "inf")])
    def test_config_refuses_non_finite(self, tmp_path, capsys, text, got):
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "gm2d", "n": 20, "x": [[0.0, 0.0]], "lam": %s}' % text)
        assert _run("predict", "--config", str(path)) == 1
        assert (f"error: config key 'lam': expected a finite number, got {got!r}"
                in capsys.readouterr().err)

    def test_reports_are_strict_json(self, capsys):
        assert _run(*self.PREDICT, "--lam", "2.5", "--margin-b", "-0.5") == 0
        config = _strict(capsys.readouterr().out)["config"]
        assert (config["lam"], config["margin_b"]) == (2.5, -0.5)
        assert _run("validate", "--trials", "100", "--n", "20", "--tolerance", "0.1") == 0
        assert _strict(capsys.readouterr().out)["config"]["tolerance"] == 0.1


class TestFlagItems:
    """A comma-separated flag refuses an empty item and an empty list, and
    --predictor refuses what names no predictor, or a bare 'const' with no
    value, whether from a flag or a config file."""

    PREDICT = ("predict", "--scenario", "gm2d", "--n", "20", "--x", "0,0")
    NINES = "const" + "9" * 400

    @pytest.mark.parametrize("argv, message", [
        (("validate", "--mode", "compare", "--trials", "100", "--n", "20", "--epsilons=,"),
         "argument --epsilons: expected comma-separated finite numbers, got ','"),
        ((*PREDICT, "--epsilons", "0.1,,0.2"),
         "argument --epsilons: expected comma-separated finite numbers, got '0.1,,0.2'"),
        (("predict", "--scenario", "gm2d", "--n", "20", "--x", "1,,2"),
         "argument --x: expected comma-separated finite numbers, got '1,,2'"),
        (("predict", "--input", "train.csv", "--labels=,", "--x", "0,0"),
         "argument --labels: expected comma-separated labels, got ','"),
        ((*PREDICT, "--predictor", "x"), "argument --predictor: unknown predictor 'x'"),
        ((*PREDICT, "--predictor", NINES), f"argument --predictor: unknown predictor {NINES!r}"),
        ((*PREDICT, "--predictor", "const"),
         "argument --predictor: predictor 'const' needs a value, e.g. 'const2'"),
    ], ids=["epsilons-empty", "epsilons-empty-item", "x-empty-item", "labels-empty",
            "predictor-unknown", "predictor-const-overflow", "predictor-const-bare"])
    def test_flag_refused(self, capsys, argv, message):
        assert _run(*argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("epsilons", [], "expected comma-separated finite numbers, got ''"),
        ("epsilons", "0.1,,0.2", "expected comma-separated finite numbers, got '0.1,,0.2'"),
        ("predictor", NINES, f"unknown predictor {NINES!r}"),
        ("predictor", "const", "predictor 'const' needs a value, e.g. 'const2'"),
    ], ids=["epsilons-empty", "epsilons-empty-item", "predictor-const-overflow",
            "predictor-const-bare"])
    def test_config_refused(self, tmp_path, capsys, key, value, message):
        assert TestConfigAndEnv._predict_with_config(tmp_path, **{key: value}) == 1
        assert f"error: config key {key!r}: {message}" in capsys.readouterr().err


class TestLevels:
    """--epsilons takes levels in (0, 1) only, whether from a flag or a
    config file, in every command that reads it."""

    SPACE = ("validate", "--mode", "space", "--trials", "100", "--n", "20")
    COMPARE = ("validate", "--mode", "compare", "--trials", "100", "--n", "20")
    PREDICT = ("predict", "--scenario", "gm2d", "--n", "20", "--x", "0,0")

    @pytest.mark.parametrize("argv", [SPACE, COMPARE, PREDICT], ids=["space", "compare", "predict"])
    @pytest.mark.parametrize("value", ["1.5,-2", "0", "0.1,1"])
    def test_flag_refused(self, tmp_path, capsys, argv, value):
        out = tmp_path / "r.json"
        assert _run(*argv, "--epsilons", value, "--out", str(out)) == 1
        assert (f"argument --epsilons: expected comma-separated levels in (0, 1), got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [SPACE, PREDICT], ids=["space", "predict"])
    def test_config_refused(self, tmp_path, capsys, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epsilons": [1.5]}))
        assert _run(*argv, "--config", str(path)) == 1
        assert ("error: config key 'epsilons': expected comma-separated levels in (0, 1), "
                "got '1.5'" in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [COMPARE, PREDICT], ids=["compare", "predict"])
    def test_repeated_level_refused(self, tmp_path, capsys, argv):
        # a repeated level would be reported once among the prediction
        # sets or exceedances but twice in the config
        out = tmp_path / "r.json"
        assert _run(*argv, "--epsilons", "0.1,0.1,0.2", "--out", str(out)) == 1
        assert ("argument --epsilons: level 0.1 is repeated in '0.1,0.1,0.2'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_repeated_level_in_config_refused(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epsilons": [0.1, 0.2, 0.1]}))
        assert _run(*self.PREDICT, "--config", str(path)) == 1
        assert ("error: config key 'epsilons': level 0.1 is repeated in '0.1,0.2,0.1'"
                in capsys.readouterr().err)

    def test_levels_inside_are_reported(self, tmp_path):
        out = tmp_path / "r.json"
        assert _run(*self.SPACE, "--epsilons", "0.01,0.99", "--out", str(out)) == 0
        assert _load(out)["config"]["epsilons"] == [0.01, 0.99]


class TestPredictorDefaults:
    """predict and validate take their predictor defaults from PredictorSpec."""

    SHARED = {"c": "calibration_size", "K": "folds", "weighting": "weighting",
              "rule": "rule", "k": "k", "lam": "lam", "normalizer": "normalizer"}

    def _config(self, tmp_path, *argv) -> dict:
        out = tmp_path / "r.json"
        assert _run(*argv, "--out", str(out)) in (0, 2)
        return _load(out)["config"]

    def test_predict(self, tmp_path):
        config = self._config(tmp_path, "predict", "--scenario", "gm2d", "--n", "30",
                              "--x", "0,0")
        spec = PredictorSpec()
        fields = {**self.SHARED, "margin_b": "margin_b", "positive_label": "positive_label"}
        assert {key: config[key] for key in fields} == {
            key: getattr(spec, field) for key, field in fields.items()
        }
        assert config["predictor"] == spec.kind

    def test_validate(self, tmp_path):
        config = self._config(tmp_path, "validate", "--trials", "100", "--n", "30")
        spec = PredictorSpec()
        assert {key: config[key] for key in self.SHARED} == {
            key: getattr(spec, field) for key, field in self.SHARED.items()
        }
        assert config["predictor"] == spec.kind
        assert "margin_b" not in config and "positive_label" not in config


# Report-shaped values: the scalars a report holds, json's edge cases
# among them, in lists, tuples and dicts, nested, empty ones included.
_FLOATS = st.one_of(
    st.floats(),  # NaN, both infinities, -0.0 and subnormals among them
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
                     1e-5, 0.0001, 1e22, 1.7976931348623157e308]),
    st.floats().map(np.float64),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _FLOATS,
    st.text(),  # non-ASCII and control characters
)
_VALUES = st.recursive(
    _SCALARS | st.lists(_FLOATS) | st.lists(st.text()) | st.dictionaries(st.text(), _FLOATS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)
# Float tables, shaped like predict's fold_e_values and verbose blocks: a
# dict or list of more than 20 non-empty rows of floats, of mixed lengths,
# NaN and the infinities among them, keyed by text with % and non-ASCII
# characters; and near misses the writer must encode the general way.
_ROWS = st.lists(
    st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
    min_size=1, max_size=6,
)
_TABLE_KEYS = st.text(alphabet=st.sampled_from('%s%%d é€\x00"\\k'), max_size=5) | st.text()
_NEAR_MISS_ROWS = st.one_of(
    _ROWS, st.just([]), _ROWS.map(tuple), st.lists(_FLOATS, min_size=1, max_size=3),
    st.lists(st.integers(), min_size=1, max_size=3),
)
_FLOAT_TABLES = st.one_of(
    st.dictionaries(_TABLE_KEYS, _ROWS, min_size=21, max_size=40),
    st.lists(_ROWS, min_size=21, max_size=40),
    st.dictionaries(_TABLE_KEYS, _ROWS, min_size=1, max_size=4),
    st.lists(_ROWS, min_size=1, max_size=4),
    st.dictionaries(_TABLE_KEYS, _NEAR_MISS_ROWS, min_size=1, max_size=30),
    st.lists(_NEAR_MISS_ROWS, min_size=1, max_size=30),
)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_encode_matches_json(self, value):
        assert cli._encode(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _VALUES, max_size=4), st.lists(_VALUES, max_size=3))
    def test_report_matches_json(self, report, results):
        # an iterator value is drawn item by item; the bytes are json's
        expected = json.dumps({**report, "results": results}, indent=2, sort_keys=True) + "\n"
        for value in (iter(results), results):
            out = io.StringIO()
            cli._write_report({**report, "results": value}, out)
            assert out.getvalue() == expected

    @settings(max_examples=300, deadline=None)
    @given(_FLOAT_TABLES, st.sampled_from(["\n", "\n    ", "\n      "]))
    def test_float_tables_match_json(self, table, indent):
        # each indent twice: the second call reads the cached layout
        expected = json.dumps(table, indent=2, sort_keys=True).replace("\n", indent)
        assert cli._encode(table, indent) == expected
        assert cli._encode(table, indent) == expected
        nested = {"fold_e_values": table, "x": [table]}
        assert cli._encode(nested, "\n") == json.dumps(nested, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [set()]}, (frozenset(),), {(1, 2): 0},
                                       {(1, 2): [0.5]}, {"a": [0.5], 2: [0.5]},
                                       np.int64(1), [np.bool_(True)]])
    def test_what_json_refuses_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._encode(value, "\n")


class TestEntryPoints:
    def test_no_subcommand_exits_one(self):
        assert _run() == 1

    def test_unknown_flag_exits_one(self):
        assert _run("gen", "--wat") == 1

    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "confee", "gen", "--n", "5", "--seed", "1",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_importing_the_main_module_runs_nothing(self, monkeypatch):
        # a worker process started by spawn or forkserver imports the parent's
        # main module again, so importing confee.__main__ must not run main
        calls = []
        monkeypatch.setattr(cli, "main", lambda *args: calls.append(args) or 0)
        monkeypatch.delitem(sys.modules, "confee.__main__", raising=False)
        importlib.import_module("confee.__main__")
        assert calls == []

    def test_console_script(self, tmp_path):
        exe = shutil.which("confee")
        assert exe, "confee console script should be on PATH after installation"
        proc = subprocess.run(
            [exe, "validate", "--mode", "space", "--predictor", "const2",
             "--trials", "100", "--out", str(tmp_path / "v.json")],
            capture_output=True,
        )
        assert proc.returncode == 2
