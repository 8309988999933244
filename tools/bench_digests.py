"""Check the benchmark's report digests against their pins.

    python3 tools/bench_digests.py

Runs `python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1`
from the root of the checkout for each workload, reads `digests` from the
`run {...}` line (the untraced and the traced run's report digest) and
prints them, with the call's wall time. Exits 1 unless every digest equals
its workload's pin; the wall time is a report, not a gate. The pinned
workloads must be BENCHMARK.json's: where they differ, it names the
difference and exits 1 before running anything, so a workload added to
the benchmark is not skipped without a word.

The digests are SHA-256 sums of the reports, so they pin every number a
workload computes. A change that alters them on purpose updates the pins
here and says why, as for the golden report sums.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = {
    "space-cross-knn": "c2093951479992dc4814841b4f8a1fcd8e6f7d9999fb4a7a1cb0dee2e84d52ef",
    "online-time-knn": "d85dcffeffc52bb74c9c781d488d9c7f6edb9bcd002b9c0d0ef587df093b41a3",
    "predict-ridge-batch": "cc8a7fd31533736ce3e29e6abe3439daf0cfc3c83045a61e17882599049a3bf3",
}


def digests(workload: str) -> tuple:
    """(the report digests of one traced benchmark call, [] if it failed;
    the call's wall time in seconds)."""
    command = [
        sys.executable, "bench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("run "):
            return json.loads(line[len("run "):])["digests"], wall
    return [], wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {workload["name"] for workload in spec["workloads"]}
    for name in sorted(declared - set(PINS)):
        sys.stderr.write(f"{name}: in BENCHMARK.json, not pinned\n")
    for name in sorted(set(PINS) - declared):
        sys.stderr.write(f"{name}: pinned, not in BENCHMARK.json\n")
    if declared != set(PINS):
        return 1
    ok = True
    for workload, pin in PINS.items():
        got, wall = digests(workload)
        good = len(got) == 2 and all(d == pin for d in got)
        ok = ok and good
        print(f"{workload}: {' '.join(map(str, got)) or 'no digests'} "
              f"{'ok' if good else f'MISMATCH (pinned {pin})'} ({wall:.1f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
