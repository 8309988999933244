import importlib.util
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

    monkeypatch.setattr(bench_pairs, "_ref_tree", started)
    monkeypatch.setattr(bench_pairs, "_bench", started)
    assert bench_pairs.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err


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
