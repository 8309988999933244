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
