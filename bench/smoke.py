"""Smoke check of the benchmark at its smallest size.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs the benchmark command with
`--seconds 1`, once untraced and twice traced, and checks that:

- each run ends with the contract's JSON line, is correct and fails nothing;
- every metric BENCHMARK.json names is emitted with its unit, and no other,
  and every end-to-end value is positive;
- the counts (`*_calls`, `*_obs`, `*_rows`, `*_pairs`, `*_components`)
  repeat exactly across the two traced runs;
- all runs of one seed give one report digest.

It then runs the space workload with a constant predictor that outputs 2,
which is no e-predictor, and checks that the output check counts every
trial as failed. Prints each problem found; exits 1 if there is any.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = ("_calls", "_obs", "_rows", "_pairs", "_components")
SEED = 7
FIRE_TRIALS = 100


def run_benchmark(workload: str, trace: int) -> tuple:
    """(run record, final JSON) of one benchmark call."""
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("run "):]) for line in lines if line.startswith("run "))
    return record, json.loads(lines[-1])


def check_workload(name: str) -> list:
    problems = []
    runs = [run_benchmark(name, 0), run_benchmark(name, 1), run_benchmark(name, 1)]
    for (_, result), trace in zip(runs, (0, 1, 1)):
        label = f"{name} --trace {trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
        named = BENCHMARK["per_layer" if trace else "end_to_end"]
        expected = {metric["name"]: metric["unit"] for metric in named}
        emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
        if emitted != expected:
            problems.append(f"{label}: emitted {emitted}, BENCHMARK.json names {expected}")
        if not trace:
            problems.extend(
                f"{label}: {key} = {metric['value']}"
                for key, metric in result["metrics"].items()
                if not metric["value"] > 0
            )
    first, second = runs[1][1]["metrics"], runs[2][1]["metrics"]
    for key in first:
        if key.endswith(COUNT_SUFFIXES) and first[key]["value"] != second[key]["value"]:
            problems.append(f"{name}: {key} {first[key]['value']} then {second[key]['value']}")
    digests = {digest for record, _ in runs for digest in record["digests"]}
    if len(digests) != 1:
        problems.append(f"{name}: one seed gave digests {sorted(map(str, digests))}")
    return problems


def check_fires() -> list:
    """The space output check must fail every trial of a const2 predictor."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), "space-cross-knn",
             str(SEED), str(FIRE_TRIALS), workdir, "plain", "const2"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode != 0:
        return [f"const2 space run exited with {proc.returncode}:\n{proc.stderr}"]
    failed = json.loads(proc.stdout.strip().splitlines()[-1])["failed"]
    if failed != FIRE_TRIALS:
        return [f"const2 space run: {failed} of {FIRE_TRIALS} trials counted as failed"]
    return []


def main() -> int:
    problems = check_fires()
    for workload in BENCHMARK["workloads"]:
        problems += check_workload(workload["name"])
    for problem in problems:
        print(problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
