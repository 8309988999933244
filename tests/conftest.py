import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from confee import EPSILON_FLOOR

# On CI runners (which set CI), a failing property test also prints the
# @reproduce_failure blob that replays its example locally; each test's
# own max_examples still applies.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

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
    """Count the knn distance rows each query computes, fitting excluded.

    `query_rows(module)` wraps `module.build_predictor`: every build opens a
    new count, the rows computed while fitting are dropped, and each later
    row of a `conformity._pairwise_distances` call adds to the open count.
    Returns the list of counts, one per built predictor.
    """
    from confee import conformity

    counts = []
    distances = conformity._pairwise_distances

    def counting(A, B):
        if counts:
            counts[-1] += A.shape[0]
        return distances(A, B)

    monkeypatch.setattr(conformity, "_pairwise_distances", counting)

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


def _reference_distance(a, b):
    """One distance in Python floats: the root of the squared coordinate
    differences added left to right, the order the knn kernel must keep."""
    total = 0.0
    for u, v in zip(a.tolist(), b.tolist()):
        total += (u - v) * (u - v)
    return math.sqrt(total)


def _reference_knn(proper, k, x, label):
    """One query row: full sort of its same-label distances, mean of the head."""
    rows = [i for i, v in enumerate(proper.y.tolist()) if v == label]
    if not rows:
        return EPSILON_FLOOR
    dist = np.sort([_reference_distance(np.asarray(x), proper.X[i]) for i in rows])
    return 1.0 / (1.0 + dist[:min(k, len(rows))].mean())
