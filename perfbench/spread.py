"""Run one workload K times with K seeds and print each metric's spread.

    python3 perfbench/spread.py --workload oracle-mid --runs 10 --first-seed 1
    python3 perfbench/spread.py --workload oracle-mid --runs 10 --sets 2

Runs perfbench/run.py one after another (never two at once), each with its
own seed and the run length of BENCHMARK.json, and prints every run's result
line, then, per metric, the median, first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median next
to the metric's bound.  The benchmark's bounds are set from this output.

With --sets N every seed is run N times in turn (seed 1 of set 1, seed 1 of
set 2, ..., then seed 2), so that the sets see the same seeds and the same
drifts of the host; each set gets its own table, and each later set's
median is compared with the first one's, as a share of it, against the
bound (positive is worse).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["seed"], result["wall_s"] = seed, round(wall, 1)
    return result


def table(results: list[dict], bounds: dict) -> dict[str, float]:
    """Print one set's table; return each metric's median."""
    medians = {}
    print(f"{'metric':<22}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}{'bound':>7}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[name] = med
        print(f"{name:<22}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}{(q3 - q1) / med:>9.3f}"
              f"{bounds[name]['bound']:>7}")
    return medians


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets: list[list[dict]] = [[] for _ in range(args.sets)]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for k, results in enumerate(sets, start=1):
            result = run_once(args.workload, seed, spec["run_seconds"])
            if result is None:
                return 1
            results.append(result)
            print(f"set {k} {json.dumps(result)}", flush=True)

    medians = []
    for k, results in enumerate(sets, start=1):
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{args.workload}, set {k}: {len(results)} runs, "
              f"correct {all(r['correct'] for r in results)}, failed share(s) {shares}")
        medians.append(table(results, bounds))
    for k, later in enumerate(medians[1:], start=2):
        print(f"\nset {k} against set 1 (share of set 1's median, positive is worse)")
        for name, first in medians[0].items():
            sign = 1 if bounds[name]["better"] == "lower" else -1
            print(f"{name:<22}{sign * (later[name] - first) / first:>9.3f}"
                  f"{bounds[name]['bound']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
