"""Command-line interface: gen, predict, and validate.

Reports are JSON with sorted keys and no timestamps, so identical inputs
give byte-identical files: every report is written byte for byte as
json.dumps(report, indent=2, sort_keys=True) would write it, by one
writer. predict streams its results, each queried, written and dropped
before the next, and a run that fails part-way writes nothing: the text
goes to a temporary file first. Every report embeds its fully resolved
configuration under "config"; rerunning with --config <report.json>
reproduces the run exactly (output path and --threads are execution
details and are deliberately not part of the config; --threads is checked
but starts no thread). A config key that names no setting of the command,
a misspelt one or an execution flag, is refused by name.

Seed resolution order: --seed flag, then the config file, then the
CONFEE_SEED environment variable, then 0.

Exit codes: 0 when the run completes (and any verdict is "consistent"),
2 when a validate run ends in a "violation" verdict, 1 for usage or
runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii

from .conformity import RULE_KINDS
from .core import ClassificationTask, RegressionTask, derive_seed
from .data import (
    SCENARIO_PRESETS,
    format_label,
    get_scenario,
    load_csv,
    open_output,
    read_csv,
    sample,
    save_csv,
)
from .errors import ConfeeError
from .normalize import NORMALIZER_KINDS
from .predictors import WEIGHTINGS, CrossTable, FullTable, e_prediction_set
from .validity import (
    DEFAULT_EPSILONS,
    MAX_THREADS,
    PREDICTOR_KINDS,
    PredictorSpec,
    build_predictor,
    compare_e_vs_p,
    mc_space_validity,
    online_time_validity,
)

_CONST_PATTERN = re.compile(r"^const(\d+(\.\d+)?)$")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this CLI reserves 2
    for validity violations, so usage errors exit 1 instead."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse refuses option values that start with a dash unless they
        # look like bare negative numbers; widen that test to comma-separated
        # vectors so `--x -2.0,1.5` works without the `--x=` form.
        self._negative_number_matcher = re.compile(
            r"^-\d*\.?\d+([eE][+-]?\d+)?(,-?\d*\.?\d+([eE][+-]?\d+)?)*$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",")]
        ok = all(math.isfinite(v) for v in values)
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")
    return values


def _levels(text: str) -> list:
    """Comma-separated distinct significance levels, each in (0, 1)."""
    values = _floats(text)
    if not all(0.0 < v < 1.0 for v in values):
        raise argparse.ArgumentTypeError(f"expected comma-separated levels in (0, 1), got {text!r}")
    for v in values:
        if values.count(v) > 1:
            raise argparse.ArgumentTypeError(f"level {v} is repeated in {text!r}")
    return values


def _number(text: str) -> float:
    """One finite real: a report is strict JSON, which has no NaN or Infinity."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _label(text: str):
    """One label as a flag spells it: an integer if it reads as one."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _labels(text: str) -> list:
    labels = [_label(tok) for tok in text.split(",")]
    if "" in labels:
        raise argparse.ArgumentTypeError(f"expected comma-separated labels, got {text!r}")
    return labels


def _predictor(text: str) -> str:
    """A predictor kind, or 'const<v>' for a finite v: a bare 'const' names no value."""
    if text == "const":
        raise argparse.ArgumentTypeError("predictor 'const' needs a value, e.g. 'const2'")
    match = _CONST_PATTERN.match(text)
    if text in PREDICTOR_KINDS or (match and math.isfinite(float(match.group(1)))):
        return text
    raise argparse.ArgumentTypeError(f"unknown predictor {text!r}")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="confee", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help=f"one of {sorted(SCENARIO_PRESETS)}")
    common.add_argument("--n", type=int,
                        help="observations to sample (predict and validate: training size)")
    common.add_argument("--seed", type=_nonnegative_int,
                        help="nonnegative (default: config, then CONFEE_SEED, then 0)")
    common.add_argument("--config", help="JSON config or previous report to rerun")
    common.add_argument("--out", help="output path (default: stdout)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--predictor", type=_predictor, help=" | ".join(PREDICTOR_KINDS) + "<value>")
    model.add_argument("--c", type=int, help="split calibration size")
    model.add_argument("--K", type=int, help="cross fold count")
    model.add_argument("--weighting", choices=WEIGHTINGS)
    model.add_argument("--rule", choices=RULE_KINDS)
    model.add_argument("--k", type=int, help="knn neighbour count")
    model.add_argument("--lam", type=_number, help="ridge penalty")
    model.add_argument("--normalizer", choices=NORMALIZER_KINDS)
    model.add_argument("--epsilons", type=_levels, help="e-prediction and compare levels")

    sub.add_parser("gen", parents=[common], help="sample a scenario to CSV")

    predict = sub.add_parser("predict", parents=[common, model],
                             help="per-object plausibility tables")
    predict.add_argument("--input", help="training CSV (x1..xd,y)")
    predict.add_argument("--labels", type=_labels, help="label set for --input, e.g. 0,1")
    predict.add_argument("--grid", type=_floats, help="label grid for --input, e.g. -3,0,3")
    predict.add_argument("--margin-w", type=_floats, dest="margin_w")
    predict.add_argument("--margin-b", type=_number, dest="margin_b")
    predict.add_argument("--positive-label", type=_label, dest="positive_label")
    predict.add_argument(
        "--x", action="append", type=_floats, help="test object, repeatable"
    )
    predict.add_argument("--test", help="CSV of test objects (x1..xd[,y])")
    predict.add_argument("--verbose", action="store_true", default=None,
                         help="include calibration summaries and full e-vectors")

    validate = sub.add_parser("validate", parents=[common, model],
                              help="Monte Carlo validity checks")
    validate.add_argument("--mode", choices=["space", "time", "compare"])
    validate.add_argument("--trials", type=int)
    validate.add_argument("--rounds", type=int, help="time mode: stream length")
    validate.add_argument("--warmup", type=int)
    validate.add_argument("--tolerance", type=_number)
    validate.add_argument("--threads", type=int, default=1,
                          help=f"1 to {MAX_THREADS}; accepted for compatibility, starts no "
                               "thread and changes nothing")

    # subcommand -> its parser; values read from --config are checked
    # against the flags defined there
    parser.commands = sub.choices
    return parser


# CLI key -> the PredictorSpec field it sets. These keys default to the
# spec's own defaults, and _spec_from builds the spec through this table.
_SPEC_FIELDS = {
    "predictor": "kind",
    "c": "calibration_size",
    "K": "folds",
    "weighting": "weighting",
    "rule": "rule",
    "k": "k",
    "lam": "lam",
    "normalizer": "normalizer",
    "margin_w": "margin_w",
    "margin_b": "margin_b",
    "positive_label": "positive_label",
}

# The other defaults of each command; a key not listed defaults to None.
_DEFAULTS = {
    "gen": {"scenario": "gm2d", "n": 100},
    "predict": {"n": 100, "epsilons": DEFAULT_EPSILONS, "verbose": False},
    "validate": {
        "mode": "space",
        "scenario": "gm2d",
        "n": 60,
        "trials": 1000,
        "rounds": 1000,
        "warmup": 20,
        "tolerance": 0.05,
        "epsilons": DEFAULT_EPSILONS,
    },
}

# Flags that steer how a run executes, not what it computes: not in its config.
_EXECUTION_FLAGS = ("help", "config", "out", "threads")


def _env_seed(parser: _Parser) -> int:
    raw = os.environ.get("CONFEE_SEED")
    if raw is None:
        return 0
    try:
        return _nonnegative_int(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"CONFEE_SEED: {exc}")


def _load_config(parser: _Parser, path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(obj, dict):
        parser.error(f"config {path} must hold a JSON object")
    config = obj.get("config", obj)
    if not isinstance(config, dict):
        parser.error(f"config {path} has a malformed 'config' entry")
    return config


def _resolve(parser: _Parser, args, config: dict) -> dict:
    """The run's config, one key per flag of its command besides the
    execution flags: flag > config file > default, key by key. A config
    key that is none of these keys, nor `command`, is refused: the first
    in sorted order."""
    spec = PredictorSpec()
    defaults = {key: getattr(spec, field) for key, field in _SPEC_FIELDS.items()}
    defaults.update(_DEFAULTS[args.command], seed=_env_seed(parser))
    resolved = {"command": args.command}
    for action in parser.commands[args.command]._actions:
        key = action.dest
        if key in _EXECUTION_FLAGS:
            continue
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif config.get(key) is not None:
            try:
                resolved[key] = _config_value(action, config[key])
            except argparse.ArgumentTypeError as exc:
                parser.error(f"config key {key!r}: {exc}")
        else:
            resolved[key] = defaults.get(key)
    unknown = sorted(config.keys() - resolved.keys())
    if unknown:
        parser.error(f"config key {unknown[0]!r}: not a setting of '{args.command}'")
    return resolved


def _config_value(action, value):
    """Put a config value through the type and choices of its flag.

    Values are spelled as the flag's text would be: a list is joined by
    commas, so [0.1, 0.05] reads as "0.1,0.05". A repeatable flag takes a
    list of such values, --predictor and a flag without a type a JSON
    string, and a switch a JSON boolean.
    """
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise argparse.ArgumentTypeError(f"expected true or false, got {json.dumps(value)}")
        return value
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise argparse.ArgumentTypeError(f"expected a list, got {value!r}")
        return [_flag_value(action, v) for v in value]
    return _flag_value(action, value)


def _flag_value(action, value):
    if action.type in (None, _predictor) and not isinstance(value, str):
        raise argparse.ArgumentTypeError(f"expected a string, got {json.dumps(value)}")
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    if action.type is not None:
        try:
            value = action.type(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {action.type.__name__} value: {text!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _spec_from(cfg: dict) -> PredictorSpec:
    fields = {field: cfg[key] for key, field in _SPEC_FIELDS.items() if key in cfg}
    if fields["kind"] not in PREDICTOR_KINDS:
        fields.update(kind="const", const_value=float(fields["kind"][5:]))
    if "margin_w" in fields:
        fields["margin_w"] = tuple(fields["margin_w"]) if fields["margin_w"] else None
    return PredictorSpec(**fields)


# float.__repr__ of a non-finite float -> its spelling in json's output
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.lru_cache(maxsize=32)
def _float_layout(keys, shape, indent: str) -> str:
    """The text of a container of floats with one %s per float: `shape`
    floats if it is an int, else rows of shape[i] floats each; a list if
    `keys` is None, else a dict with those keys in order, % escaped."""
    inner = indent + "  "
    if isinstance(shape, int):
        cells = ["%s"] * shape
    else:
        cell = "," + inner + "  "
        cells = ["[" + inner + "  " + cell.join(["%s"] * n) + inner + "]" for n in shape]
    if keys is None:
        return "[" + inner + ("," + inner).join(cells) + indent + "]"
    keys = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
    return "{" + inner + ("," + inner).join(map(str.__add__, keys, cells)) + indent + "}"


def _encode(value, indent: str) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) gives, for a
    value that starts on a line indented by `indent` ("\\n" and its spaces).

    Reports hold str, int, float (NaN and infinities spelled as json spells
    them), bool, None, lists, tuples and dicts with str keys. A container
    whose values are all floats, or all non-empty lists of floats (predict's
    e_values and fold_e_values), fills its cached layout (`_float_layout`)
    with one pass of float.__repr__; one whose values are all strings is
    joined in one str.join. Anything else raises TypeError, as json does
    for what it cannot write."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, (list, tuple)):
        brackets, keys, values = "[]", None, value
    elif isinstance(value, dict):
        brackets, keys, values = "{}", None, ()
        if value:
            keys, values = zip(*sorted(value.items()))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not values:
        return brackets
    kinds = set(map(type, values))
    shape = None
    if kinds == {float}:
        cells, shape = values, len(values)
    elif kinds == {list} and all(values) and type(values[0][0]) is float:
        cells = list(chain.from_iterable(values))
        if set(map(type, cells)) == {float}:
            shape = tuple(map(len, values))
    if shape is not None:
        texts = list(map(float.__repr__, cells))
        return _float_layout(keys, shape, indent) % tuple(map(_NON_FINITE.get, texts, texts))
    inner = indent + "  "
    if kinds == {str}:
        texts = map(encode_basestring_ascii, values)
    else:
        texts = [_encode(v, inner) for v in values]
    if keys is not None:
        texts = map(str.__add__, [encode_basestring_ascii(k) + ": " for k in keys], texts)
    return brackets[0] + inner + ("," + inner).join(texts) + indent + brackets[1]


def _write_report(report: dict, out) -> None:
    """Write the report, a non-empty dict with str keys, to the --out path,
    or to stdout without one, byte for byte as json.dumps(report, indent=2,
    sort_keys=True) and a newline.

    Streamed and spooled: no copy of the whole text is built. A value that
    is an iterator (predict's results) is drawn, encoded and written one
    item at a time, to an anonymous temporary file that is copied out only
    once the report is complete, so a run that fails part-way writes
    nothing."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        opening = "{"
        for key in sorted(report):
            spool.write(f"{opening}\n  {encode_basestring_ascii(key)}: ")
            opening = ","
            value = report[key]
            if not isinstance(value, Iterator):
                spool.write(_encode(value, "\n  "))
                continue
            bracket, indent = "[", "\n    "
            for item in value:
                spool.write(bracket + indent + _encode(item, indent))
                bracket = ","
            spool.write("[]" if bracket == "[" else "\n  ]")
        spool.write("\n}\n")
        spool.seek(0)
        with open_output(sys.stdout if out is None else out) as fh:
            shutil.copyfileobj(spool, fh)


def _check_command(parser: _Parser, config: dict, command: str) -> None:
    stored = config.get("command")
    if stored is not None and stored != command:
        parser.error(f"config was produced by '{stored}', not '{command}'")


def cmd_gen(parser: _Parser, args, cfg: dict) -> int:
    dataset = sample(get_scenario(cfg["scenario"]), cfg["n"], cfg["seed"])
    save_csv(dataset, sys.stdout if args.out is None else args.out)
    return 0


def _training_data(parser: _Parser, cfg: dict):
    has_scenario = cfg["scenario"] is not None
    has_input = cfg["input"] is not None
    if has_scenario == has_input:
        parser.error("provide exactly one data source: --scenario or --input")
    if has_scenario:
        if cfg["labels"] or cfg["grid"]:
            parser.error("--labels/--grid apply to --input only")
        scenario = get_scenario(cfg["scenario"])
        return sample(scenario, cfg["n"], cfg["seed"])
    if bool(cfg["labels"]) == bool(cfg["grid"]):
        parser.error("--input needs exactly one of --labels or --grid")
    if cfg["labels"]:
        task = ClassificationTask(tuple(cfg["labels"]))
    else:
        task = RegressionTask(tuple(cfg["grid"]))
    return load_csv(cfg["input"], task)


def _test_objects(parser: _Parser, cfg: dict, task, dim: int) -> list:
    """(x, true_label_or_None) pairs: --test rows first, then --x objects."""
    objects = []
    if cfg["test"] is not None:
        X, labels = read_csv(cfg["test"], task)
        rows = [tuple(row) for row in X.tolist()]
        objects.extend(zip(rows, labels or [None] * len(rows)))
    for vec in cfg["x"] or []:
        objects.append((tuple(float(v) for v in vec), None))
    if not objects:
        parser.error("no test objects; pass --x and/or --test")
    for vec, _ in objects:
        if len(vec) != dim:
            parser.error(f"test object has {len(vec)} features, training data has {dim}")
    return objects


def _details_for(table, keys: list) -> dict:
    """Verbose report details, read off the table of the one query pass:
    a split table's one fold flat, a cross table's folds in a list."""
    if isinstance(table, CrossTable):
        folds = [
            {
                "calibration_summaries": calibration.tolist(),
                "candidate_summaries": dict(zip(keys, sigmas.tolist())),
                "normalized": dict(zip(keys, block.tolist())),
            }
            for calibration, sigmas, block in zip(table.calibration, table.sigmas, table.blocks)
        ]
        if len(folds) == 1:
            return folds[0]
        return {"folds": [{"fold": k + 1, **fold} for k, fold in enumerate(folds)]}
    if isinstance(table, FullTable):
        return {"assignment_vectors": {k: list(v.values) for k, v in zip(keys, table.vectors)}}
    return {}


def cmd_predict(parser: _Parser, args, cfg: dict) -> int:
    training = _training_data(parser, cfg)
    task = training.task
    spec = _spec_from(cfg)
    predictor = build_predictor(spec, training, derive_seed(cfg["seed"], 3))
    objects = _test_objects(parser, cfg, task, training.dim)

    epsilons = [float(e) for e in cfg["epsilons"]]
    # every query answers the task's candidates: spell their keys once
    keys = [format_label(y) for y in task.candidates]
    key_of = dict(zip(task.candidates, keys))

    def results():
        """One entry per test object, queried as the writer draws it."""
        for x, true_label in objects:
            table = predictor.predict(x)
            entry = {
                "x": list(x),
                "true_label": None if true_label is None else format_label(true_label),
                "e_values": dict(zip(keys, table.values)),
                "prediction_sets": {
                    repr(eps): [key_of[y] for y in e_prediction_set(table, eps)]
                    for eps in epsilons
                },
            }
            if isinstance(table, CrossTable) and len(table.blocks) > 1:
                entry["fold_e_values"] = dict(zip(keys, table.fold_values.T.tolist()))
            if cfg["verbose"]:
                entry["details"] = _details_for(table, keys)
            # a table holds every normalized vector of its pass: free it
            # before the next query builds another
            del table
            yield entry

    if isinstance(task, ClassificationTask):
        task_obj = {"type": "classification", "labels": keys}
    else:
        task_obj = {"type": "regression", "grid": list(task.grid)}
    report = {
        "kind": "predict",
        "seed": cfg["seed"],
        "config": dict(cfg),
        "task": task_obj,
        "results": results(),
    }
    _write_report(report, args.out)
    return 0


def cmd_validate(parser: _Parser, args, cfg: dict) -> int:
    scenario = get_scenario(cfg["scenario"])
    spec = _spec_from(cfg)
    threads = args.threads
    if threads < 1:
        parser.error(f"--threads must be at least 1, got {threads}")
    if threads > MAX_THREADS:
        parser.error(f"--threads must be at most {MAX_THREADS}, got {threads}")

    if cfg["mode"] == "space":
        body = mc_space_validity(
            scenario, spec, cfg["trials"], cfg["seed"], n_train=cfg["n"], threads=threads
        )
    elif cfg["mode"] == "time":
        body = online_time_validity(
            scenario,
            spec,
            cfg["rounds"],
            cfg["seed"],
            warmup=cfg["warmup"],
            tolerance=cfg["tolerance"],
        )
    else:
        body = compare_e_vs_p(
            scenario,
            spec,
            cfg["trials"],
            cfg["seed"],
            n_train=cfg["n"],
            epsilons=tuple(cfg["epsilons"]),
            threads=threads,
        )

    report = {
        "kind": "validate",
        "mode": cfg["mode"],
        "seed": cfg["seed"],
        "config": dict(cfg),
        "verdict": body.verdict,
        "report": body.to_dict(),
    }
    _write_report(report, args.out)
    return 0 if body.verdict == "consistent" else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(parser, args.config)
        _check_command(parser, config, args.command)
        cfg = _resolve(parser, args, config)
        handler = {"gen": cmd_gen, "predict": cmd_predict, "validate": cmd_validate}[
            args.command
        ]
        return handler(parser, args, cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ConfeeError, OSError) as exc:
        sys.stderr.write(f"confee: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
