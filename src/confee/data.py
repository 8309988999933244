"""Seeded synthetic scenarios and CSV round-tripping.

Sampling derives observation i's randomness from the key (seed, i), so a
longer sample extends a shorter one unchanged, and the draw for any single
observation can be reproduced in isolation.

Observation i draws from a PCG64 generator in exactly the state that
numpy's `default_rng(SeedSequence((seed, i)))` starts in. `sample` does
not build those objects per observation: it runs SeedSequence's hashing
for all n keys at once over uint32 arrays (entropy words: the seed's
32-bit words, least significant first, then i as one word; pool size 4),
turns each key's four 64-bit seed words into PCG64's 128-bit state and
increment with Python integers, and loads that state into one generator
made per call. tests/test_data.py checks the draws against numpy's own.

CSV format: header x1,...,xd,y then one observation per row. Floats are
written with repr, so a save/load round trip is exact. The y column is
optional for files of test objects (see read_csv).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import ClassificationTask, Dataset, RegressionTask, Task
from .errors import (
    InvalidScenarioError,
    LabelOutOfSpaceError,
    OutOfRangeError,
    ParseError,
    RaggedRowsError,
)

SCENARIO_KINDS = ("gaussian_mixture", "linear_regression")

#: Key part separating the regression weight draw from observation draws.
_WEIGHT_TAG = 1_000_003

#: numpy's SeedSequence constants (pool size and hashing, bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The running constant of SeedSequence's hash over `steps` hashes, as a
    read-only (steps + 1, 1) uint32 column: hash j xors with row j and
    multiplies by row j + 1."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Hash `values` (broadcast against consts[:-1]) with consecutive
    constants: one row of output per hash."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y, in place in x."""
    x *= _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x ^= x >> 16
    return x


def _seed_states(seed: int, keys: np.ndarray) -> list:
    """SeedSequence((seed, k)).generate_state(4, np.uint64) for every uint32
    key k, as lists of Python ints.

    SeedSequence hashes one uint32 word at a time; here each hash runs on
    all keys at once, and the hashes of one mixing round, which read only
    the round's source word, run as one block.
    """
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), keys.size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = keys
    extra = len(words) + 1 - _POOL_SIZE  # entropy words beyond the pool
    consts = _hash_constants(
        _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + max(extra, 0) * _POOL_SIZE
    )
    pool = _hash(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[step : step + _POOL_SIZE]))
        step += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, consts[step : step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    cycle = np.arange(2 * _POOL_SIZE) % _POOL_SIZE  # two output words per pool word
    state = _hash(pool[cycle], _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    # two uint32 words per uint64, viewed as SeedSequence views them
    return np.ascontiguousarray(state.T).view(np.uint64).tolist()


def _keyed_generators(seed: int, keys: np.ndarray):
    """Yield, for each uint32 key k, a generator in the state that
    default_rng(SeedSequence((seed, k))) starts in.

    One PCG64 and Generator pair is made per call and reloaded for every
    key, so take each key's draws before advancing to the next.
    """
    bit_generator = np.random.PCG64(0)  # its state is replaced below
    rng = np.random.Generator(bit_generator)
    for s_hi, s_lo, q_hi, q_lo in _seed_states(seed, keys):
        # PCG64's seeding: state 0, one step, add the initial state, one step
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        state = ((((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


@dataclass(frozen=True)
class Scenario:
    """Parametric data-generating process with its own structural seed.

    gaussian_mixture: `classes` isotropic unit-variance Gaussians in
    `dim` dimensions, class means spaced so adjacent means sit
    `separation` apart; labels are 0..classes-1. linear_regression:
    standard normal features, y = w.x + noise_sd * N(0, 1), with w drawn
    once from the scenario seed; labels live on `grid` for prediction.
    """

    kind: str
    classes: int = 2
    dim: int = 2
    separation: float = 3.0
    noise_sd: float = 1.0
    grid: tuple = ()
    seed: int = 0

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
        else:
            if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
                raise InvalidScenarioError("noise_sd must be nonnegative and finite")
            if not self.grid:
                raise InvalidScenarioError("linear_regression needs a label grid")
            RegressionTask(self.grid)  # validates ordering/finiteness

    @property
    def task(self) -> Task:
        if self.kind == "gaussian_mixture":
            return ClassificationTask(tuple(range(self.classes)))
        return RegressionTask(self.grid)

    def class_means(self) -> np.ndarray:
        """Mixture means, adjacent ones `separation` apart.

        In dim >= 2 the means sit on a circle in the first two coordinates
        (radius separation / (2 sin(pi/C))); in dim 1 they sit on a line.
        """
        if self.kind != "gaussian_mixture":
            raise InvalidScenarioError("class_means applies to gaussian_mixture only")
        means = np.zeros((self.classes, self.dim))
        if self.dim == 1:
            means[:, 0] = np.arange(self.classes) * self.separation
            return means
        radius = self.separation / (2.0 * math.sin(math.pi / self.classes))
        angles = 2.0 * math.pi * np.arange(self.classes) / self.classes
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
        return means

    def weights(self) -> np.ndarray:
        """Regression weight vector, a pure function of the scenario seed."""
        if self.kind != "linear_regression":
            raise InvalidScenarioError("weights applies to linear_regression only")
        keys = np.array([_WEIGHT_TAG], dtype=np.uint32)
        return next(_keyed_generators(self.seed, keys)).standard_normal(self.dim)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


def sample(scenario: Scenario, n: int, seed: int) -> Dataset:
    """Draw n IID observations; observation i uses only the key (seed, i)."""
    if n < 1:
        raise OutOfRangeError(f"n={n}; need at least one observation")
    if n > 1 << 32:
        raise OutOfRangeError(f"n={n}; observation indices must fit in 32 bits")
    if seed < 0:
        raise OutOfRangeError("seed must be nonnegative")
    task = scenario.task
    X = np.empty((n, scenario.dim))
    rngs = _keyed_generators(seed, np.arange(n, dtype=np.uint32))
    if scenario.kind == "gaussian_mixture":
        means = scenario.class_means()
        labels = np.empty(n, dtype=int)
        for i, rng in enumerate(rngs):
            labels[i] = rng.integers(scenario.classes)
            rng.standard_normal(out=X[i])
        X += means[labels]
        return Dataset(X, labels, task)
    w = scenario.weights()
    y = np.empty(n)
    for i, rng in enumerate(rngs):
        X[i] = rng.standard_normal(scenario.dim)
        y[i] = float(w @ X[i]) + scenario.noise_sd * rng.standard_normal()
    return Dataset(X, y, task)


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
    file gives zero rows.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
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
