"""Seeded synthetic scenarios and CSV round-tripping.

`sample(scenario, n, seed)` spawns two child seeds from
`SeedSequence(seed)` and reads one numpy Generator of each from its start:
the first gives the mixture labels (or the regression noise), the second
the features, n rows of `dim` standard normals. Each draw depends only on
the draws before it in its stream, so a longer sample extends a shorter
one with the same seed unchanged; observation i cannot be drawn without
drawing observations 0..i-1. The numbers are numpy's: `integers` and the
ziggurat `standard_normal` of PCG64, which NEP 19 lets numpy change
between releases.

CSV format: header x1,...,xd,y then one observation per row. Floats are
written with repr, so a save/load round trip is exact. The y column is
optional for files of test objects (see read_csv).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import ClassificationTask, Dataset, RegressionTask, Task, spawn_rng
from .errors import (
    InvalidScenarioError,
    LabelOutOfSpaceError,
    OutOfRangeError,
    ParseError,
    RaggedRowsError,
)

SCENARIO_KINDS = ("gaussian_mixture", "linear_regression")

#: Key part of the regression weight draw, after the scenario seed.
_WEIGHT_TAG = 1_000_003

@dataclass(frozen=True)
class Scenario:
    """Parametric data-generating process with its own structural seed.

    gaussian_mixture: `classes` isotropic unit-variance Gaussians in
    `dim` dimensions, class means spaced so adjacent means sit
    `separation` apart; labels are 0..classes-1. linear_regression:
    standard normal features, y = w.x + noise_sd * N(0, 1), with w drawn
    once from the scenario seed; labels live on `grid` for prediction.

    The task, the class means and the weights are derived once, when the
    scenario is made; they take no part in equality, hashing or repr.
    """

    kind: str
    classes: int = 2
    dim: int = 2
    separation: float = 3.0
    noise_sd: float = 1.0
    grid: tuple = ()
    seed: int = 0
    task: Task = field(init=False, compare=False, repr=False)
    _means: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)
    _weights: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InvalidScenarioError(f"kind must be one of {SCENARIO_KINDS}")
        if self.dim < 1:
            raise InvalidScenarioError("dim must be at least 1")
        if self.seed < 0:
            raise InvalidScenarioError("seed must be nonnegative")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if self.kind == "gaussian_mixture":
            if self.classes < 2:
                raise InvalidScenarioError("mixture needs at least 2 classes")
            if not (math.isfinite(self.separation) and self.separation > 0):
                raise InvalidScenarioError("separation must be positive and finite")
            object.__setattr__(self, "task", ClassificationTask(tuple(range(self.classes))))
            object.__setattr__(self, "_means", self._mixture_means())
            self._means.setflags(write=False)
        else:
            if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
                raise InvalidScenarioError("noise_sd must be nonnegative and finite")
            if not self.grid:
                raise InvalidScenarioError("linear_regression needs a label grid")
            object.__setattr__(self, "task", RegressionTask(self.grid))  # validates the grid
            weights = spawn_rng(self.seed, _WEIGHT_TAG).standard_normal(self.dim)
            object.__setattr__(self, "_weights", weights)
            self._weights.setflags(write=False)

    def _mixture_means(self) -> np.ndarray:
        means = np.zeros((self.classes, self.dim))
        if self.dim == 1:
            means[:, 0] = np.arange(self.classes) * self.separation
            return means
        radius = self.separation / (2.0 * math.sin(math.pi / self.classes))
        angles = 2.0 * math.pi * np.arange(self.classes) / self.classes
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
        return means

    def class_means(self) -> np.ndarray:
        """Mixture means, adjacent ones `separation` apart (read-only).

        In dim >= 2 the means sit on a circle in the first two coordinates
        (radius separation / (2 sin(pi/C))); in dim 1 they sit on a line.
        """
        if self._means is None:
            raise InvalidScenarioError("class_means applies to gaussian_mixture only")
        return self._means

    def weights(self) -> np.ndarray:
        """Regression weight vector, a pure function of the scenario seed
        (read-only)."""
        if self._weights is None:
            raise InvalidScenarioError("weights applies to linear_regression only")
        return self._weights

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


def sample(scenario: Scenario, n: int, seed: int) -> Dataset:
    """Draw n IID observations from two streams spawned from `seed`.

    The first stream gives the mixture labels or the regression noise, the
    second the features, row by row; each is read from its start, so a
    longer sample extends a shorter one with the same seed unchanged.
    """
    if n < 1:
        raise OutOfRangeError(f"n={n}; need at least one observation")
    if seed < 0:
        raise OutOfRangeError("seed must be nonnegative")
    first, second = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    X = second.standard_normal((n, scenario.dim))
    if scenario.kind == "gaussian_mixture":
        labels = first.integers(scenario.classes, size=n)
        X += scenario.class_means()[labels]
        return Dataset(X, labels, scenario.task)
    w = scenario.weights()
    # one dot product per row: a matrix product X @ w may round a row
    # differently for different n, which would break prefix extension
    y = np.array([w @ row for row in X]) + scenario.noise_sd * first.standard_normal(n)
    return Dataset(X, y, scenario.task)


SCENARIO_PRESETS = {
    "gm2d": Scenario("gaussian_mixture", classes=2, dim=2, separation=3.0),
    "gm2d_hard": Scenario("gaussian_mixture", classes=2, dim=2, separation=1.0),
    "gm5c": Scenario("gaussian_mixture", classes=5, dim=2, separation=3.0),
    "linreg10": Scenario(
        "linear_regression", dim=10, noise_sd=1.0, grid=tuple(np.linspace(-15.0, 15.0, 31))
    ),
    "linreg3": Scenario(
        "linear_regression", dim=3, noise_sd=0.5, grid=tuple(np.linspace(-8.0, 8.0, 33))
    ),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIO_PRESETS[name]
    except KeyError:
        raise InvalidScenarioError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_PRESETS)}"
        ) from None


def format_label(value) -> str:
    """A label as CSV cells and report keys spell it: repr for a float
    (round-trips exactly), str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(dataset: Dataset, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([f"x{j + 1}" for j in range(dataset.dim)] + ["y"])
    for x, y in zip(dataset.X.tolist(), dataset.y.tolist()):
        writer.writerow([repr(v) for v in x] + [format_label(y)])


def save_csv(dataset: Dataset, path) -> None:
    """Write header x1..xd,y then one row per observation; floats via repr.

    `path` may also be an open text stream (the CLI hands sys.stdout in).
    """
    if hasattr(path, "write"):
        _write_rows(dataset, path)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(dataset, fh)


def read_csv(path, task: Task) -> tuple:
    """Parse an x1..xd[,y] file into (X, labels); labels is None without y.

    This is the package's one reader of the format: training files
    (`load_csv`) and `predict --test` files both go through it. Every
    feature and regression label must be a finite number; classification
    labels are matched by string form against the task's label set, and
    anything else raises LabelOutOfSpaceError with the line. A header-only
    file gives zero rows. A UTF-8 byte-order mark, which spreadsheet
    exports often write, is skipped.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(1, "header", "file is empty")
    header = [h.strip() for h in rows[0]]
    has_y = header[-1:] == ["y"]
    d = len(header) - has_y
    expected = [f"x{j + 1}" for j in range(d)] + ["y"] * has_y
    if d < 1 or header != expected:
        raise ParseError(1, "header", f"expected x1..xd[,y], got {','.join(header)}")

    label_map: Optional[dict] = None
    if isinstance(task, ClassificationTask):
        label_map = {str(lab): lab for lab in task.labels}

    X = np.empty((len(rows) - 1, d))
    labels = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise RaggedRowsError(r, len(header), len(row))
        for j, token in enumerate(row[:d]):
            X[r - 2, j] = _finite(token, r, f"x{j + 1}")
        if not has_y:
            continue
        token = row[d]
        if label_map is None:
            labels.append(_finite(token, r, "y"))
        elif token in label_map:
            labels.append(label_map[token])
        else:
            raise LabelOutOfSpaceError(f"line {r}: label {token!r} not in task labels")
    return X, (tuple(labels) if has_y else None)


def _finite(token: str, line: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, column, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, column, f"non-finite value {token!r}")
    return value


def load_csv(path, task: Task) -> Dataset:
    """Read an x1..xd,y file back into a Dataset under the given task."""
    X, labels = read_csv(path, task)
    if labels is None:
        raise ParseError(1, "header", f"expected a y column after x{X.shape[1]}")
    return Dataset(X, np.array(labels), task)
