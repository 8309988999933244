"""The confee benchmark: one workload per call, each run in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a confee checkout; it imports `confee` from `src/`.
Workloads (BENCHMARK.json says why each one is there):

- `space-cross-knn`: `validity.mc_space_validity` on gm2d with the
  cross-knn-mean preset and n_train=50; an item is one trial.
- `online-time-knn`: `validity.online_time_validity` on gm2d with
  cross-knn-mean and warmup 20; an item is one round of one stream.
- `predict-ridge-batch`: `confee predict --predictor cross --K 5 --rule
  ridge` through `cli.main`, on a 1000-row, 10-feature regression CSV that
  this script generates with its own numpy generator, a 31-point grid and
  a `--test` batch; an item is one test object.

The item count is fixed by the workload and `--seconds` (ITEMS), so a seed
always gives the same inputs and the same report; it is sized for the run
to take about `--seconds` on a 2-core x86 machine. Every run is single
threaded: `threads=1`, no worker pool, one BLAS thread.

`--trace 0` runs the workload once untraced (bench/worker.py), and
SETUP_RUNS - 1 more times up to its first item, before and after that run,
and prints the end-to-end metrics. `--trace 1` runs it untraced and then traced (bench/layers.py)
and prints the per-layer metrics. Each run's output is checked (see
worker.py), and its SHA-256 report digest is printed; a traced run must
reproduce the untraced digest. The last line of the output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from worker import TEST_CSV, TRAIN_CSV

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".bench_work"

#: workload -> number of items for a run of `seconds`. Each online round
#: refits on the whole prefix and scores every fold against the rest, so a
#: stream's cost grows with about the 2.7th power of its length; 1000
#: rounds take about 12.5 s.
ITEMS = {
    "space-cross-knn": lambda seconds: max(100, round(240 * seconds)),
    "online-time-knn": lambda seconds: max(50, round(1000 * (seconds / 12.5) ** (1 / 2.7))),
    "predict-ridge-batch": lambda seconds: max(1, round(27 * seconds)),
}

#: Fresh processes whose set-up time is measured; `setup_s` is their median.
SETUP_RUNS = 5
#: Every worker of one call must end within this many seconds of its start.
DEADLINE_S = 170.0

PREDICT_TRAIN_ROWS, PREDICT_DIM = 1000, 10

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def write_predict_inputs(directory: str, seed: int, n_test: int) -> None:
    """Training and test CSVs shaped like linreg10, from the benchmark's own
    generator, so a change to confee's sampler cannot change them."""
    import numpy as np

    rng = np.random.default_rng(seed)
    w = rng.standard_normal(PREDICT_DIM)
    X = rng.standard_normal((PREDICT_TRAIN_ROWS + n_test, PREDICT_DIM))
    y = (X * w).sum(axis=1) + rng.standard_normal(PREDICT_TRAIN_ROWS + n_test)
    header = ",".join(f"x{j + 1}" for j in range(PREDICT_DIM)) + ",y\n"
    for name, rows in ((TRAIN_CSV, slice(PREDICT_TRAIN_ROWS)),
                       (TEST_CSV, slice(PREDICT_TRAIN_ROWS, None))):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(header)
            for x, label in zip(X[rows].tolist(), y[rows].tolist()):
                fh.write(",".join(map(repr, x + [label])) + "\n")


def run_worker(deadline: float, *args) -> dict:
    """Run worker.py in a fresh interpreter; its last output line is JSON."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit():
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[len("ref: "):]
    loose = _read(git / ref).strip()
    if loose:
        return loose
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    mem_kib = next(
        (int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        None,
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mib": None if mem_kib is None else round(mem_kib / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "threads": 1,
    }


def ok(run: dict) -> bool:
    return run["error"] is None and run["failed"] == 0 and run["digest"] is not None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Returns (record, result): the run description and the final JSON."""
    deadline = time.monotonic() + DEADLINE_S
    items = ITEMS[workload](seconds)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        if workload == "predict-ridge-batch":
            write_predict_inputs(workdir, seed, items)
        if trace:
            plain = run_worker(deadline, workload, seed, items, workdir, "plain")
            traced = run_worker(deadline, workload, seed, items, workdir, "trace")
            runs = [plain, traced]
        else:
            # set-up runs on both sides of the timed run, so that one slow
            # spell of a shared machine does not decide their median
            setup = lambda: run_worker(deadline, workload, seed, items, workdir, "setup")
            setups = [setup()["setup_s"] for _ in range(SETUP_RUNS // 2)]
            plain = run_worker(deadline, workload, seed, items, workdir, "plain")
            setups.append(plain["setup_s"])
            setups += [setup()["setup_s"] for _ in range(SETUP_RUNS - len(setups))]
            runs = [plain]
    failed = sum(run["failed"] for run in runs)
    attempted = items * len(runs)
    correct = all(ok(run) for run in runs) and len({run["digest"] for run in runs}) == 1
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["call_s"] / plain["call_s"] - 1.0
    else:
        metrics = {
            "items_per_s": items / plain["items_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": plain["peak_rss_mib"],
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "items": items,
        "trace": trace,
        "digests": [run["digest"] for run in runs],
        "errors": [run["error"] for run in runs if run["error"]],
        "failed_ratio": failed / attempted,
        **({} if trace else {"setup_samples_s": setups}),
        **machine(),
    }
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": metrics[name], "unit": units[name][0]} for name in units}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "confee" / "__init__.py").is_file():
        parser.error(f"no confee package under {ROOT / 'src'}; run from a confee checkout")
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    print("run " + json.dumps(record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"failed_ratio = {record['failed_ratio']} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
