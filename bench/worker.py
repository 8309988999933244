"""Run one benchmark workload in this fresh interpreter; print one JSON line.

    python3 bench/worker.py WORKLOAD SEED ITEMS WORKDIR MODE [PREDICTOR]

MODE is `plain` (untraced, end-to-end timings), `trace` (per-layer spans
from layers.py) or `setup` (stop when the first timed item starts and
report only the set-up time). PREDICTOR replaces the space workload's
predictor preset; the smoke check passes `const2` to show that the output
check fires. bench/run.py and bench/smoke.py start this script.

Nothing heavy is imported before the set-up clock starts, so `setup_s`
covers `import confee` as a fresh process pays it, plus everything the
workload does before its first item. An item starts at the entry of a
public function that the workload calls once per item (its anchor); the
untraced run patches that function for the first call only.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = os.path.join(ROOT, "src", "confee", "report.schema.json")
TRAIN_CSV, TEST_CSV, REPORT = "train.csv", "test.csv", "report.json"
#: predict-ridge-batch's label grid: 31 points, like the linreg10 scenario.
GRID = ",".join(str(g) for g in range(-15, 16))


class SetupDone(Exception):
    """Raised by the anchor in setup mode to stop before the first item."""


class ItemClock:
    """Records when items start, by wrapping `owner.attr`.

    `accept(args, kwargs)` picks the calls that start an item. Unless
    `keep`, the original is restored after the first item, so the untraced
    run pays for one wrapped call. If `owner` has no `attr` any more, no
    item start is seen: the items are then timed from the workload's call.
    """

    def __init__(self, owner, attr, accept=None, keep=False, stop=False):
        self.starts = []
        original = vars(owner).get(attr)
        if original is None:
            return

        def marked(*args, **kwargs):
            if accept is None or accept(args, kwargs):
                self.starts.append(time.perf_counter())
                if not keep:
                    setattr(owner, attr, original)
                if stop:
                    raise SetupDone
            return original(*args, **kwargs)

        setattr(owner, attr, marked)


def _training_draw(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return n > 1


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _harness_digest(report) -> str:
    return _sha256(json.dumps(report.to_dict(), sort_keys=True).encode())


class Space:
    """validity.mc_space_validity, gm2d, cross-knn-mean, n_train=50; item = trial."""

    item_layer = "validity"
    end_anchor = None

    def __init__(self, seed, items, workdir, predictor):
        import confee
        from confee import validity

        self.anchor = (validity, "sample", _training_draw)
        name = predictor or "cross-knn-mean"
        if name.startswith("const"):
            spec = confee.PredictorSpec(kind="const", const_value=float(name[5:]))
        else:
            spec = confee.PREDICTOR_PRESETS[name]
        scenario = confee.get_scenario("gm2d")
        self.call = lambda: confee.mc_space_validity(
            scenario, spec, items, seed, n_train=50, threads=1
        )
        self.items = items

    def check(self, report):
        ok = (
            report.verdict == "consistent"
            and report.mean_e_at_truth <= 1.0 + 3.0 * report.std_error
            and report.trials == self.items
        )
        return _harness_digest(report), 0 if ok else self.items, 0


class Online:
    """validity.online_time_validity, gm2d, cross-knn-mean, warmup 20; item = round."""

    item_layer = "validity"
    end_anchor = None

    def __init__(self, seed, items, workdir, predictor):
        import confee
        from confee import validity

        self.anchor = (validity, "build_predictor", None)
        spec = confee.PREDICTOR_PRESETS["cross-knn-mean"]
        scenario = confee.get_scenario("gm2d")
        self.call = lambda: confee.online_time_validity(scenario, spec, items, seed, warmup=20)
        self.items = items

    def check(self, report):
        ok = report.final_mean <= 1.0 + report.tolerance and report.rounds == self.items
        return _harness_digest(report), 0 if ok else self.items, 0


class Predict:
    """`confee predict`, cross K=5 ridge, through cli.main; item = test object."""

    item_layer = "cli"

    def __init__(self, seed, items, workdir, predictor):
        from confee import cli, predictors

        self.anchor = (predictors.CrossEPredictor, "predict", None)
        self.end_anchor = (cli, "_write_report")
        # the report's config records the input paths: relative names keep
        # the digest independent of where the work directory is
        os.chdir(workdir)
        argv = [
            "predict",
            "--input", TRAIN_CSV,
            f"--grid={GRID}",
            "--predictor", "cross", "--K", "5", "--rule", "ridge",
            "--test", TEST_CSV,
            "--seed", str(seed),
            "--out", REPORT,
        ]
        self.call = lambda: cli.main(argv)
        self.items = items

    def check(self, exit_code):
        import jsonschema

        if exit_code != 0:
            return None, self.items, 0
        with open(REPORT, "rb") as fh:
            raw = fh.read()
        with open(SCHEMA, encoding="utf-8") as fh:
            schema = json.load(fh)
        report = json.loads(raw)
        if not jsonschema.Draft7Validator(schema).is_valid(report):
            return _sha256(raw), self.items, len(raw)
        grid = {repr(float(g)) for g in report["task"]["grid"]}
        good = sum(
            1
            for result in report["results"]
            if set(result["e_values"]) == grid
            and all(
                isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
                for v in result["e_values"].values()
            )
        )
        failed = self.items - good if len(report["results"]) == self.items else self.items
        return _sha256(raw), failed, len(raw)


WORKLOADS = {"space-cross-knn": Space, "online-time-knn": Online, "predict-ridge-batch": Predict}


def main(argv) -> int:
    workload, seed, items, workdir, mode = argv[:5]
    seed, items = int(seed), int(items)
    predictor = argv[5] if len(argv) > 5 else None
    sys.path.insert(0, os.path.join(ROOT, "src"))

    setup_start = time.perf_counter()
    job = WORKLOADS[workload](seed, items, workdir, predictor)
    import confee

    if not os.path.abspath(confee.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise ImportError(f"confee was imported from {confee.__file__}, not from src/")
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.install()
    clock = ItemClock(*job.anchor, keep=mode == "trace", stop=mode == "setup")
    end = ItemClock(*job.end_anchor) if tracer and job.end_anchor else None

    call_start = time.perf_counter()
    error = None
    try:
        result = job.call()
    except SetupDone:
        pass
    except Exception as exc:  # the program under test raised: every item fails
        error = f"{type(exc).__name__}: {exc}"
    call_end = time.perf_counter()
    first = clock.starts[0] if clock.starts else call_start
    if mode == "setup":
        print(json.dumps({"setup_s": first - setup_start}))
        return 0

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest, failed, report_bytes = None, items, 0
    if error is None:
        try:
            digest, failed, report_bytes = job.check(result)
        except Exception as exc:  # output too malformed to check: every item fails
            error = f"check: {type(exc).__name__}: {exc}"
    out = {
        "setup_s": first - setup_start,
        "items_s": call_end - first,
        "call_s": call_end - call_start,
        "items": items,
        "failed": failed,
        "digest": digest,
        "error": error,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer is not None:
        stop = end.starts[0] if end is not None and end.starts else call_end
        edges = clock.starts + [stop]
        durations = [b - a for a, b in zip(edges, edges[1:])]
        out["layers"] = layers.metrics(
            tracer, items, out["call_s"], job.item_layer, durations, report_bytes
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
