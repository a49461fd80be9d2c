"""coopgrid benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload oracle-mid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from src/ of that
checkout (set-up re-imports it each time it is timed), driven in process,
and every output is checked against an independent HiGHS reference after
the measured part.  Information lines go to stdout first; the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

A timed run ends at the first whole pass over the workload's inputs after
--seconds of rounds (set-up excluded).  Every time metric is the 75th
percentile of many short calls (see README.md for why).  The exit code is
1 when an operation failed or an output was wrong, 0 otherwise.

With --trace 1 the run makes one pass over the workload's days plus its
probes (instead of running for --seconds), so that every count in the
per-layer metrics repeats exactly for a given seed.
"""

from __future__ import annotations

import os

# one thread: set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import UNITS as LAYER_UNITS  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, References, Runner, op_faults  # noqa: E402

SETUP_SAMPLES = 5   # timed set-up samples: one before the rounds, the rest spread over them
SETUP_BATCH = 6     # set-ups back to back in one sample, which reports their mean

E2E_UNITS = {
    "setup_s": "s", "solve_p75_s": "s", "allocate_p75_s": "s", "day_p75_s": "s",
    "codes_iters_per_s": "1/s", "peak_rss_mb": "MB",
}


def import_program():
    """Import coopgrid afresh from this checkout's src/ (dropping any earlier copy)."""
    for name in [n for n in sys.modules if n == "coopgrid" or n.startswith("coopgrid.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cg = importlib.import_module("coopgrid")
    importlib.import_module("coopgrid.cli")
    if not Path(cg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"coopgrid came from {cg.__file__}, not from {SRC}")
    return cg


def set_up(workload, seed: int, work: Path, sample: int):
    """One set-up sample: SETUP_BATCH times, import the program, generate and
    write the inputs.  Returns the last program and inputs and the mean time.

    The returned package stays valid after a later set-up re-imports the
    program: its modules keep their own globals, and none imports lazily.
    """
    started = time.perf_counter()
    for k in range(SETUP_BATCH):
        where = work / f"inputs{sample}-{k}"
        where.mkdir(parents=True)
        cg = import_program()
        inputs = workload.setup(cg, ROOT, seed, where)
    return cg, inputs, (time.perf_counter() - started) / SETUP_BATCH


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(args, inputs) -> dict:
    import scipy
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "seed": args.seed, "day_seeds": inputs.seeds,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def p75(times: list[float]) -> float | None:
    """75th percentile, as `statistics.quantiles(times, n=4)` gives it."""
    if len(times) < 2:
        return times[0] if times else None
    return statistics.quantiles(times, n=4)[2]


def end_to_end(ops, setups: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics; one whose every operation failed is left out.

    The host switches between a fast and a slow speed (up to 2x apart)
    within seconds, and the share of time it spends in each moves from
    minute to minute, which moves means, medians and minima alike.  The
    slow speed holds at least a quarter of every run seen, so the 75th
    percentile of many short calls lands on it and repeats from run to run.
    """
    ok = [op for op in ops if op.failed is None]

    def call_p75(kind):
        return p75([op.seconds for op in ok if op.kind == kind and not op.probe])

    days = {}
    for op in ops:
        if not op.probe:
            days.setdefault(op.day, []).append(op)
    day_times = [sum(op.seconds for op in day) for day in days.values()
                 if all(op.failed is None for op in day)]
    codes = p75([op.seconds / op.obs["iterations"] for op in ok if op.kind == "codes"])
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_p75_s": call_p75("solve"),
        "allocate_p75_s": call_p75("allocate"),
        "day_p75_s": p75(day_times),
        "codes_iters_per_s": 1.0 / codes if codes else None,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: v for name, v in metrics.items() if v is not None}


def median_call_s(ops) -> dict:
    """Median time of the successful calls of each kind, for the information line."""
    times = {}
    for op in ops:
        if op.failed is None:
            times.setdefault(op.kind, []).append(op.seconds)
    return {kind: statistics.median(t) for kind, t in sorted(times.items())}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coopgrid" / "__init__.py").is_file():
        print(f"error: no coopgrid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(workload, args, work: Path) -> int:
    cg, inputs, first_setup = set_up(workload, args.seed, work, 0)
    setups = [first_setup]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    runner = Runner(cg, work, tracer)

    # whole passes only, so that every run visits its inputs equally often
    rounds, measured = 0, 0.0
    while True:
        started = time.perf_counter()
        workload.round(runner, inputs, rounds)
        measured += time.perf_counter() - started
        rounds += 1
        whole_pass = rounds % workload.rounds_per_pass == 0
        if args.trace:
            if whole_pass:
                break
            continue
        # further set-up samples, spread over the run so that their median
        # spans slow drifts in the host's speed; their outputs go unused
        while (len(setups) < SETUP_SAMPLES
               and measured >= len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(set_up(workload, args.seed, work, len(setups))[2])
        if measured >= args.seconds and whole_pass:
            break
    workload.probes(runner, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checking starts here: scipy loads only now
    ref = References()
    faults = []
    for k, op in enumerate(runner.ops):
        if op.failed is None:
            faults += [f"op {k} {op.kind} {op.scenario.name}: {f}" for f in op_faults(op, ref)]
    failed = [op for op in runner.ops if op.failed is not None]
    for op in failed:
        print(f"failed: {op.kind} {op.scenario.name}: {op.failed}", file=sys.stderr)
    for f in faults:
        print(f"incorrect: {f}", file=sys.stderr)

    e2e = end_to_end(runner.ops, setups, peak_rss_mb)
    info = {"workload": args.workload, "rounds": rounds, "ops": len(runner.ops),
            "median_call_s": median_call_s(runner.ops), "environment": environment(args, inputs)}
    if tracer is not None:
        oracle_j = {k: ref.j(op.scenario) for k, op in enumerate(runner.ops)
                    if op.kind in ("codes", "compare")}
        metrics = {name: {"value": float(v), "unit": LAYER_UNITS[name]}
                   for name, v in layer_metrics(tracer.spans, oracle_j).items()}
        spans_file = ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_file)
        info["end_to_end_traced"] = e2e
        info["spans"] = {"count": len(tracer.spans), "file": str(spans_file.relative_to(ROOT))}
    else:
        metrics = {name: {"value": float(v), "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    print(json.dumps(info))
    print(json.dumps({"correct": not faults, "attempted": len(runner.ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not faults and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
