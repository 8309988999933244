"""Compare the benchmark's end-to-end metrics at a git revision and now.

    python3 tools/bench_pairs.py --against REF --workload W --pairs N [--seconds S]

Builds two sibling temporary trees the same way, one per side: REF's
`src/` (from `git archive`) or a copy of the working tree's, each beside a
copy of the working tree's `bench/` and `BENCHMARK.json`, so both sides run
the same benchmark code from the same kind of place, and neither runs from
the repository itself. Then runs `bench/run.py --workload W --seed SEED
--seconds S --trace 0` once on each side per pair, alternating which side
runs first, with one fresh seed per pair (a random base plus the pair's
index, printed with the pair). S defaults to BENCHMARK.json's
`run_seconds`. The temporary trees are removed at the end.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the working tree won (ties count for neither
side) and whether the gain rule holds: over at least 10 pairs, the
working tree wins at least 9 in 10 of them and the medians differ by more
than the interquartile range of REF's runs; fewer pairs never meet it. It
ends with the no-regression verdict: "unresolved" when REF has one run,
which shows no spread, or when the interquartile range of REF's runs
exceeds the metric's bound times REF's median, unless every run of the
working tree beats every run of REF; otherwise "worse than its bound"
when the working tree's median is worse than REF's by more than the
bound, and "held" when it is not. These lines are a report, not a gate:
the exit status is 1 only for bad arguments, an unknown REF or a
benchmark run that fails or gives incorrect output. Bad arguments print
the usage line before any benchmark starts.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True)


def _tree(tree: Path, ref: Optional[str]) -> None:
    """A new directory tree holding REF's src/, or the working tree's for
    ref None, and the working tree's benchmark."""
    ignore = shutil.ignore_patterns("__pycache__")
    tree.mkdir()
    if ref is None:
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
    else:
        archive = tree / "src.tar"
        listed = _git("archive", "--format=tar", f"--output={archive}", ref, "src")
        if listed.returncode:
            raise RuntimeError(f"git archive {ref} src: {listed.stderr.decode().strip()}")
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        archive.unlink()
    shutil.copytree(ROOT / "bench", tree / "bench", ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")


def _bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced bench/run.py call in tree: metric name -> value."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"bench/run.py in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"bench/run.py in {tree}, seed {seed}: incorrect output\n{proc.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile), interpolated as numpy's
    default percentile does; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, median, upper = statistics.quantiles(values, n=4, method="inclusive")
    return lower, median, upper


def summary(metric: dict, before: list, after: list) -> str:
    """One report line for one end-to-end metric over paired runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (new - old) > 0 for old, new in zip(before, after))
    q1, old, q3 = _quartiles(before)
    p1, new, p3 = _quartiles(after)
    gain = len(before) >= 10 and wins >= 0.9 * len(before) and sign * (new - old) > q3 - q1
    bound = metric["bound"] * abs(old)
    beats_every_run = min(sign * v for v in after) > max(sign * v for v in before)
    if (len(before) < 2 or q3 - q1 > bound) and not beats_every_run:
        verdict = "unresolved"
    elif sign * (old - new) > bound:
        verdict = f"worse than its {metric['bound']:.0%} bound"
    else:
        verdict = "held"
    return (
        f"{metric['name']}: ref median {old:.4g} [{q1:.4g}, {q3:.4g}], "
        f"now median {new:.4g} [{p1:.4g}, {p3:.4g}] {metric['unit']}; "
        f"now better in {wins} of {len(before)} pairs; "
        f"gain rule {'met' if gain else 'not met'}; no regression: {verdict}"
    )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REF")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    try:
        args = parser.parse_args(argv)
        if args.pairs < 1 or args.seconds < 1:
            parser.error("--pairs and --seconds must be positive")
        if _git("rev-parse", "--verify", "-q", f"{args.against}^{{commit}}").returncode:
            parser.error(f"unknown revision {args.against!r}")
    except SystemExit as exc:  # argparse's usage errors exit 2, --help 0
        return 0 if exc.code == 0 else 1

    base = random.SystemRandom().randrange(10**6)
    runs = {"ref": [], "now": []}
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
            trees = {"ref": Path(tmp) / "ref", "now": Path(tmp) / "now"}
            _tree(trees["ref"], args.against)
            _tree(trees["now"], None)
            for pair in range(args.pairs):
                seed = base + pair
                order = ("ref", "now") if pair % 2 == 0 else ("now", "ref")
                for side in order:
                    runs[side].append(_bench(trees[side], args.workload, seed, args.seconds))
                values = "; ".join(
                    f"{side} " + ", ".join(f"{k}={v:.4g}" for k, v in runs[side][-1].items())
                    for side in order
                )
                print(f"pair {pair + 1} seed {seed}: {values}", flush=True)
    except RuntimeError as exc:
        sys.stderr.write(f"bench_pairs: {exc}\n")
        return 1
    print(f"{args.workload}, {args.pairs} pairs at --seconds {args.seconds}, "
          f"against {args.against}:")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(summary(metric, [r[name] for r in runs["ref"]], [r[name] for r in runs["now"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
