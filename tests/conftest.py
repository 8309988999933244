import os
from pathlib import Path

import pytest

# pyproject's `pythonpath` puts src/ on the path of this process only;
# export it so that processes the tests start (`python -m confee`) import
# the same checkout
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_LINES = []


@pytest.fixture(scope="session")
def criterion():
    """Record one pass/fail line per acceptance criterion.

    Lines print immediately (visible with -s or on failure) and again in
    the terminal summary, so a plain `pytest -v` run shows every verdict.
    """

    def record(num: int, description: str, ok: bool) -> bool:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}"
        _LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_LINES):
            terminalreporter.write_line(line)


@pytest.fixture()
def query_rows(monkeypatch):
    """Count knn rows scored by each query, fitting excluded.

    `query_rows(module)` wraps `module.build_predictor`: every build opens a
    new count, the calibration rows scored while fitting are dropped, and
    each later `KnnRule.score_many` row adds to the open count. Returns the
    list of counts, one per built predictor.
    """
    from confee import KnnRule

    counts = []
    score_many = KnnRule.score_many

    def counting(rule, X, y):
        out = score_many(rule, X, y)
        if counts:
            counts[-1] += len(out)
        return out

    monkeypatch.setattr(KnnRule, "score_many", counting)

    def watch(module):
        build = module.build_predictor

        def fitted(*args, **kwargs):
            counts.append(0)
            predictor = build(*args, **kwargs)
            counts[-1] = 0
            return predictor

        monkeypatch.setattr(module, "build_predictor", fitted)
        return counts

    return watch
