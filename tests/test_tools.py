import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, message", [
    (["--against", "no-such-ref", "--workload", "predict-ridge-batch", "--pairs", "1"],
     "unknown revision 'no-such-ref'"),
    (["--against", "HEAD", "--workload", "predict-ridge-batch", "--pairs", "0"],
     "--pairs and --seconds must be positive"),
    (["--against", "HEAD", "--workload", "no-such-workload", "--pairs", "1"],
     "invalid choice: 'no-such-workload'"),
])
def test_bench_pairs_refuses_before_any_benchmark(argv, message, monkeypatch, capsys):
    bench_pairs = _tool("bench_pairs")

    def started(*args, **kwargs):
        raise AssertionError("a benchmark tree was built or run")

    monkeypatch.setattr(bench_pairs, "_tree", started)
    monkeypatch.setattr(bench_pairs, "_bench", started)
    assert bench_pairs.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err


def test_bench_pairs_runs_both_sides_from_sibling_copies(monkeypatch, capsys):
    bench_pairs = _tool("bench_pairs")
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees, sources = [], {}

    def bench(tree, workload, seed, seconds):
        trees.append(tree)
        for name in ("bench/run.py", "BENCHMARK.json"):
            assert (tree / name).is_file()
        sources[tree] = (tree / "src/confee/normalize.py").read_bytes()
        return {metric["name"]: 1.0 for metric in spec["end_to_end"]}

    monkeypatch.setattr(bench_pairs, "_bench", bench)
    argv = ["--against", "HEAD", "--workload", "predict-ridge-batch", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert "2 pairs at --seconds" in capsys.readouterr().out
    # two pairs, REF first in the first: ref, now, now, ref
    ref, now = trees[0], trees[1]
    assert trees == [ref, now, now, ref] and ref != now and ref.parent == now.parent
    assert all(bench_pairs.ROOT not in (tree, *tree.parents) for tree in trees)
    # the working tree's side holds a copy of its src/
    assert sources[now] == (bench_pairs.ROOT / "src/confee/normalize.py").read_bytes()
    assert not ref.parent.exists()


_ITEMS = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
_SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize("metric, before, after, verdict", [
    # a narrow spread and a median within the bound
    (_ITEMS, [100, 101, 102, 103, 104], [90, 92, 94, 96, 98], "held"),
    # a narrow spread and a median 30% worse; lower is better for setup_s
    (_ITEMS, [100, 101, 102, 103, 104], [70, 71, 72, 73, 74], "worse than its 25% bound"),
    (_SETUP, [1.0, 1.01, 1.02, 1.03, 1.04], [1.3, 1.31, 1.32, 1.33, 1.34],
     "worse than its 25% bound"),
    # REF's interquartile range, 40 on a median of 100, exceeds the bound,
    # and one run now, 130, does not beat REF's best, 140
    (_ITEMS, [60, 80, 100, 120, 140], [130, 160, 170, 180, 190], "unresolved"),
    (_ITEMS, [60, 80, 100, 120, 140], [40, 50, 60, 70, 80], "unresolved"),
    # as wide, but every run now beats every run at REF
    (_ITEMS, [60, 80, 100, 120, 140], [141, 160, 170, 180, 190], "held"),
    (_SETUP, [0.6, 0.8, 1.0, 1.2, 1.4], [0.1, 0.2, 0.3, 0.4, 0.5], "held"),
])
def test_bench_pairs_no_regression_verdict(metric, before, after, verdict):
    line = _tool("bench_pairs").summary(metric, before, after)
    assert line.endswith(f"; no regression: {verdict}")


@pytest.mark.parametrize("change, message", [
    (lambda pins: pins.pop("online-time-knn"), "online-time-knn: in BENCHMARK.json, not pinned"),
    (lambda pins: pins.update({"no-such-workload": "0" * 64}),
     "no-such-workload: pinned, not in BENCHMARK.json"),
])
def test_bench_digests_refuses_workloads_other_than_the_benchmarks(
    change, message, monkeypatch, capsys
):
    bench_digests = _tool("bench_digests")

    def started(workload):
        raise AssertionError("a benchmark was run")

    pins = dict(bench_digests.PINS)
    change(pins)
    monkeypatch.setattr(bench_digests, "PINS", pins)
    monkeypatch.setattr(bench_digests, "digests", started)
    assert bench_digests.main() == 1
    assert capsys.readouterr().err == f"{message}\n"


def test_bench_digests_pins_every_benchmark_workload(monkeypatch, capsys):
    bench_digests = _tool("bench_digests")
    monkeypatch.setattr(bench_digests, "digests", lambda w: ([bench_digests.PINS[w]] * 2, 0.0))
    assert bench_digests.main() == 0
    assert capsys.readouterr().out.count(" ok (") == len(bench_digests.PINS)


_SOURCE = b'''"""A module docstring."""
# a comment line

total = (1 +
         2)  # a trailing comment


def f():
    """A docstring
    on two lines."""
    return total
'''


def test_code_lines_counts_code_only():
    # the two lines of the expression, the def and the return
    assert _tool("code_lines").code_lines(_SOURCE) == 4


@pytest.mark.parametrize("argv", [
    [],
    ["--against", "HEAD"],
    ["no-such-file.py"],
    ["--against", "no-such-ref", "a.py"],
])
def test_code_lines_refuses_bad_arguments(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.py").write_bytes(_SOURCE)
    assert _tool("code_lines").main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage: code_lines.py [--against REF] PATH [PATH ...]\n"
    assert captured.out == ""


def test_code_lines_against_a_ref(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.py").write_bytes(_SOURCE)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "a.py"], ["commit", "-q", "-m", "a"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    assert _tool("code_lines").main(["--against", "HEAD", "a.py"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"{4:6d}  {4:6d}  {'+0':>6}  {name}" for name in ("a.py", "total")]
