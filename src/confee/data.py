"""Seeded synthetic scenarios, CSV round-tripping, and the output opener.

`sample(scenario, n, seed)` spawns two child seeds from the seed's
SeedSequence and reads one numpy Generator of each from its start:
the first gives the mixture labels (or the regression noise), the second
the features, n rows of `dim` standard normals. Each draw depends only on
the draws before it in its stream, so a longer sample extends a shorter
one with the same seed unchanged; observation i cannot be drawn without
drawing observations 0..i-1. The numbers are numpy's: `integers` and the
ziggurat `standard_normal` of PCG64, which NEP 19 lets numpy change
between releases. Seeds go through core: the SeedSequence comes from
`core._seed_sequence`, which refuses a seed that is no nonnegative integer,
and the regression weights from `core.spawn_rng`. The space and compare
harnesses draw every trial through `_sample_stack` instead, a chunk of
samples at once from their streams' PCG64 states, which
`core._pcg64_states` computes from their seeds without a SeedSequence;
`sample` draws the time harness's stream and the CLI's data sets.

CSV format: header x1,...,xd,y then one observation per row. Floats are
written with repr, so a save/load round trip is exact. The y column is
optional for files of test objects (see read_csv).
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ClassificationTask, Dataset, RegressionTask, Task, _integer, _number_labels, _real_floats,
    _reseeded, _seed_sequence, spawn_rng,
)
from .errors import (
    InvalidScenarioError,
    LabelOutOfSpaceError,
    NonFiniteEntryError,
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

    The task and the class means are derived once, when the scenario is
    made, and the weights on the first `weights()` call, so that making a
    scenario draws no random numbers (importing confee then leaves
    numpy.random unloaded). None of them takes part in equality, hashing or
    repr.
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
        for name in ("classes", "dim", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("separation", "noise_sd"):
            object.__setattr__(self, name, _real_floats((getattr(self, name),), name)[0])
        if self.dim < 1:
            raise InvalidScenarioError("dim must be at least 1")
        if self.seed < 0:
            raise InvalidScenarioError("seed must be nonnegative")
        object.__setattr__(self, "grid", _real_floats(self.grid, "grid"))
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
        (read-only), drawn on the first call and kept."""
        if self.kind != "linear_regression":
            raise InvalidScenarioError("weights applies to linear_regression only")
        if self._weights is None:
            weights = spawn_rng(self.seed, _WEIGHT_TAG).standard_normal(self.dim)
            weights.setflags(write=False)
            object.__setattr__(self, "_weights", weights)
        return self._weights


def sample(scenario: Scenario, n: int, seed: int) -> Dataset:
    """Draw n IID observations from two streams spawned from `seed`.

    The first stream gives the mixture labels or the regression noise, the
    second the features, row by row; each is read from its start, so a
    longer sample extends a shorter one with the same seed unchanged.
    """
    n = _integer(n, "n")
    if n < 1:
        raise OutOfRangeError(f"n={n}; need at least one observation")
    first, second = map(np.random.default_rng, _seed_sequence((seed,)).spawn(2))
    X = second.standard_normal((n, scenario.dim))
    return Dataset(X, _labels(scenario, X, first), scenario.task)


def _labels(scenario: Scenario, X: np.ndarray, first: np.random.Generator) -> np.ndarray:
    """The labels of the rows X of a draw from the first stream: mixture
    labels, whose class means are added to X in place, or regression labels."""
    n = X.shape[0]
    if scenario.kind == "gaussian_mixture":
        labels = first.integers(scenario.classes, size=n)
        X += scenario.class_means()[labels]
        return labels
    w = scenario.weights()
    # one dot product per row: a matrix product X @ w may round a row
    # differently for different n, which would break prefix extension
    return np.array([w @ row for row in X]) + scenario.noise_sd * first.standard_normal(n)


def _sample_stack(scenario: Scenario, n: int, streams, rng: np.random.Generator) -> tuple:
    """(X, y, codes) of B draws of n observations at once: for b in range(B),
    X[b] and y[b] are the rows and labels of sample(scenario, n, seed) and
    codes[b] the label numbers of that dataset (Dataset.label_codes), where
    streams[b] holds the PCG64 states of the seed's two streams, the first
    then the second (core._pcg64_states of its spawned children 0 and 1).

    rng, a PCG64 Generator, is set to each state in turn (core._reseeded)
    and draws as `sample` draws. X is checked finite, and so are regression
    labels, with the errors of Dataset's checks, and numbered as Dataset
    numbers them (core._number_labels); mixture labels, drawn in
    0..classes-1, are the task's labels and their own numbers.
    """
    X = np.empty((len(streams), n, scenario.dim))
    y = []
    for rows, (first, second) in zip(X, streams):
        _reseeded(rng, second).standard_normal(out=rows)
        y.append(_labels(scenario, rows, _reseeded(rng, first)))
    y = np.array(y)
    if not np.isfinite(X).all():
        raise NonFiniteEntryError("features must be finite")
    if scenario.kind == "gaussian_mixture":
        return X, y, y
    if not np.isfinite(y).all():
        raise NonFiniteEntryError("labels must be n finite reals")
    return X, y, np.array([_number_labels(row, scenario.task)[1] for row in y])


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


def open_output(path):
    """A context manager over the text stream that output goes to.

    An open stream (anything with `write`, such as sys.stdout) is handed
    back as it is and left open; a path is opened for writing as UTF-8
    with newline="", so every line ends in the "\\n" its writer puts there.
    CSVs and CLI reports both write through here.
    """
    if hasattr(path, "write"):
        return contextlib.nullcontext(path)
    return open(path, "w", newline="", encoding="utf-8")


def save_csv(dataset: Dataset, path) -> None:
    """Write header x1..xd,y then one row per observation; floats via repr.

    `path` is a file path or an open text stream (see open_output).
    """
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(dataset.dim)] + ["y"])
        for x, y in zip(dataset.X.tolist(), dataset.y.tolist()):
            writer.writerow([repr(v) for v in x] + [format_label(y)])


def read_csv(path, task: Task) -> tuple:
    """Parse an x1..xd[,y] file into (X, labels); labels is None without y.

    This is the package's one reader of the format: training files
    (`load_csv`) and `predict --test` files both go through it. Every
    feature and regression label must be a finite number; classification
    labels are matched by string form against the task's label set, and
    anything else raises LabelOutOfSpaceError with the line. A header-only
    file gives zero rows. A UTF-8 byte-order mark, which spreadsheet
    exports often write, is skipped, and so are blank lines (rows with no
    fields, as csv.DictReader skips them); errors name the physical line.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ParseError(1, "header", "file is empty")
    (line, header), body = rows[0], rows[1:]
    header = [h.strip() for h in header]
    has_y = header[-1:] == ["y"]
    d = len(header) - has_y
    expected = [f"x{j + 1}" for j in range(d)] + ["y"] * has_y
    if d < 1 or header != expected:
        raise ParseError(line, "header", f"expected x1..xd[,y], got {','.join(header)}")

    label_map: Optional[dict] = None
    if isinstance(task, ClassificationTask):
        label_map = {str(lab): lab for lab in task.labels}

    X = np.empty((len(body), d))
    labels = []
    for i, (r, row) in enumerate(body):
        if len(row) != len(header):
            raise RaggedRowsError(r, len(header), len(row))
        for j, token in enumerate(row[:d]):
            X[i, j] = _finite(token, r, f"x{j + 1}")
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
