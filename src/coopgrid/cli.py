"""Command-line front end: solve, allocate, compare, weights, validate, gen.

Exit codes are part of the interface:
  0  success
  2  scenario or argument validation failure (nothing is written)
  3  infeasible scenario
  4  a distributed run did not converge (its artifacts are still written), or allocate has no
     split: a codes run's cost is refused, or consensus ran out of rounds (nothing is written)
  5  the LP's social cost exceeds the stand-alone total by more than 1e-9 (1 + |J|)
  6  compare: cost gap above tolerance
  7  internal solver fault (a bug, not a property of the scenario)

solve, compare and allocate hand their artifacts to write_run, which writes
them and then report.json.  All files go through a temp-and-rename so readers
never see a half-written artifact, and get the mode a plain write gives them.
Every CSV has the one format of centralized.csv_text and is bit-identical
across re-runs on the same input; the JSON run report is not, because it
records wall time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .allocation import (
    BargainingError,
    allocate_centralized,
    allocate_distributed,
    consumption_costs,
)
from .centralized import (CSV_SLICE_ROWS, InfeasibleScenarioError, csv_text, schedule_csv_text,
                          solve_social)
from .codes import run_codes
from .generate import GRAPH_FAMILIES, GenSpec, gen_scenario
from .graph import GraphError
from .lp import LpError
from .scenario import Scenario, dump_scenario, load_scenario, scenario_digest
from .selfish import disagreement_point

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BARGAINING = 5
EXIT_GAP = 6
EXIT_INTERNAL = 7

TRACE_FIELDS = ("iter", "J_est", "max_imbalance_kw",
                "consensus_disagreement", "primal_step_norm")
STOPS = {"iteration-cap": "at the iteration cap before the convergence test fired",
         "diverged": "when the run went non-finite"}   # how an unconverged run stopped
WRITE_SLICE_CHARS = 1 << 16   # text write_atomic encodes at a time


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def write_atomic(path: Path, text: str) -> None:
    """Write `text` beside `path`, WRITE_SLICE_CHARS at a time, then rename it to `path`.
    The file gets the mode a plain open(path, "w") gives it: 0o666 less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            for start in range(0, len(text), WRITE_SLICE_CHARS):
                fh.write(text[start:start + WRITE_SLICE_CHARS])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_run(args, sc: Scenario, started: float, files: dict[str, str], **fields) -> None:
    """Write a run's artifacts, {file name: text}, then its report.json.

    The report lists what was written under `schedule_files`.  It is strict
    JSON: a non-finite top-level number, a diverged run's cost, becomes null.
    """
    out_dir = Path(args.out_dir)
    paths = [out_dir / name for name in files]
    for path, text in zip(paths, files.values()):
        write_atomic(path, text)
    report = {"command": args.command, "scenario": str(Path(args.scenario)),
              "scenario_digest": scenario_digest(sc),
              "wall_time_s": time.perf_counter() - started,
              **fields, "schedule_files": sorted(map(str, paths))}
    report = {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in report.items()}
    write_atomic(out_dir / "report.json", json.dumps(report, indent=2, allow_nan=False) + "\n")


def _check_out(path: Path) -> None:
    """Refuse, before any work, a file path that cannot be written: it must
    not be a directory, and its nearest existing ancestor must be one."""
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    ancestor = next((p for p in path.parents if p.exists()), path.parent)
    if not ancestor.is_dir():
        raise ValueError(f"cannot write {path}: {ancestor} is not a directory")


def trace_csv_text(trace: np.ndarray) -> str:
    """A run's trace CSV, one row per round, reading `trace` a slice of rows at a time."""
    rows = itertools.chain.from_iterable(trace[s:s + CSV_SLICE_ROWS].tolist()
                                         for s in range(0, len(trace), CSV_SLICE_ROWS))
    return csv_text(TRACE_FIELDS, ([k, *row] for k, row in enumerate(rows)))


def _codes_files(sc: Scenario, result) -> dict[str, str]:
    """A distributed run's schedule and trace CSVs."""
    return {"schedule_codes.csv": schedule_csv_text(sc, result.schedule),
            "trace_codes.csv": trace_csv_text(result.trace)}


def _run_exit(result, warning: str) -> int:
    """Exit 4, after a warning naming how it stopped, for a distributed run that did
    not converge; else 0.  `warning` is formatted with the run's status and stop."""
    if result is None or result.converged:
        return EXIT_OK
    print("warning: " + warning.format(status=result.status, stop=STOPS[result.status]),
          file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def cmd_solve(args) -> int:
    started = time.perf_counter()
    _check_out(Path(args.out_dir) / "report.json")
    sc = load_scenario(args.scenario)
    result = run_codes(sc) if args.codes else None
    if result:
        print(f"distributed schedule J = {result.j:.6f} after {result.iterations} iterations")
        write_run(args, sc, started, _codes_files(sc, result), method="codes", j=result.j,
                  config=dataclasses.asdict(result.config), iterations=result.iterations,
                  converged=result.converged, status=result.status)
    else:
        schedule, j = solve_social(sc)
        print(f"centralized optimum J = {j:.6f}")
        write_run(args, sc, started, {"schedule_centralized.csv": schedule_csv_text(sc, schedule)},
                  method="centralized", j=j, config={}, iterations=0, converged=True)
    return _run_exit(result, "{status}: stopped {stop}")


def _check_tolerance(flag: str, value: float, zero_ok: bool = False) -> None:
    if not (np.isfinite(value) and (value > 0 or (zero_ok and value == 0))):
        raise ValueError(f"{flag} must be a finite number {'>=' if zero_ok else '>'} 0, "
                         f"got {value!r}")


def cmd_allocate(args) -> int:
    started = time.perf_counter()
    _check_tolerance("--graph-tol", args.graph_tol)
    _check_out(Path(args.out_dir) / "report.json")
    sc = load_scenario(args.scenario)
    selfish = disagreement_point(sc)
    result = run_codes(sc) if args.social_method == "codes" else None
    schedule, j = (result.schedule, result.j) if result else solve_social(sc)
    try:
        report = (allocate_distributed(sc, j, selfish, tol=args.graph_tol) if args.distributed
                  else allocate_centralized(sc, j, selfish))
    except GraphError as exc:   # J passed the split's input check, so consensus ran out of rounds
        return _fail(EXIT_NO_CONVERGENCE, str(exc))
    except BargainingError as exc:
        if result is None:   # the LP's J exceeds the stand-alone total: exit 5
            raise
        # a codes J is only within its contract of the optimum, so the run is at fault
        return _fail(EXIT_NO_CONVERGENCE, f"run ended {result.status} and its split failed: {exc}")
    consumption, netting_residual = consumption_costs(sc, schedule)
    rows = list(zip(report.agent_ids, report.selfish, report.allocated, consumption))
    costs = csv_text(["agent", "D", "J_alloc", "consumption", "epsilon"],
                     (row + (report.epsilon,) for row in rows))
    write_run(args, sc, started, {"costs.csv": costs},
              method="distributed" if args.distributed else "centralized",
              social_method=args.social_method, j=j, epsilon=report.epsilon,
              rounds=report.rounds, netting_residual=netting_residual,
              config={"graph_tol": args.graph_tol}, **({"status": result.status} if result else {}))
    print(f"{'agent':>6} {'D':>12} {'J_alloc':>12} {'consumption':>12}")
    for a, d, x, c in rows:
        print(f"{a:>6} {d:>12.6f} {x:>12.6f} {c:>12.6f}")
    print(f"social cost J = {j:.6f}, per-user saving epsilon = {report.epsilon:.6f}")
    return _run_exit(result, "social cost comes from a run that ended {status}")


def cmd_compare(args) -> int:
    started = time.perf_counter()
    _check_tolerance("--tol", args.tol, zero_ok=True)   # 0 demands an exact match
    _check_out(Path(args.out_dir) / "report.json")
    sc = load_scenario(args.scenario)
    oracle, j_oracle = solve_social(sc)
    result = run_codes(sc)
    gap = abs(result.j - j_oracle) / abs(j_oracle) if j_oracle != 0 else abs(result.j)
    pairs = [(result.schedule.grid_buy_kw, oracle.grid_buy_kw),
             (result.schedule.grid_sell_kw, oracle.grid_sell_kw),
             *((result.schedule.desd_power_kw[a.id], oracle.desd_power_kw[a.id])
               for a in sc.active_users)]
    max_dev = float(max(np.abs(run - ref).max() for run, ref in pairs))

    files = {"schedule_centralized.csv": schedule_csv_text(sc, oracle), **_codes_files(sc, result)}
    write_run(args, sc, started, files,
              j_codes=result.j, j_oracle=j_oracle, rel_gap=gap, tol=args.tol,
              max_schedule_deviation_kw=max_dev, iterations=result.iterations,
              converged=result.converged, status=result.status,
              config=dataclasses.asdict(result.config))
    print(f"J_codes = {result.j:.6f}  J_oracle = {j_oracle:.6f}  "
          f"rel_gap = {gap:.3e} (tol {args.tol:g})")
    print(f"max schedule deviation = {max_dev:.4f} kW "
          f"(per-agent splits may differ at equal cost)")
    print(f"iterations = {result.iterations}  status = {result.status}")
    if not gap <= args.tol:   # a run that diverged has a NaN gap
        if not result.converged:
            return _fail(EXIT_NO_CONVERGENCE,
                         f"run ended {result.status} with cost gap {gap:.3e} above {args.tol:g}")
        return _fail(EXIT_GAP, f"cost gap {gap:.3e} above tolerance {args.tol:g}")
    return EXIT_OK


def cmd_weights(args) -> int:
    out = Path(args.out_dir) / "weights.csv"
    _check_out(out)
    sc = load_scenario(args.scenario)
    ids = sc.graph.node_ids
    text = csv_text(["node", *ids], ([i, *w] for i, w in zip(ids, sc.graph.weights.tolist())))
    write_atomic(out, text)
    print(text, end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    print(f"OK {scenario_digest(sc)}")
    return EXIT_OK


def cmd_gen(args) -> int:
    out = Path(args.out) if args.out else Path(args.out_dir) / f"scenario_{args.seed}.json"
    _check_out(out)
    spec = GenSpec(users=tuple(args.users), active=tuple(args.active),
                   horizon=tuple(args.horizon), graph=args.graph)
    sc = gen_scenario(spec, args.seed)
    write_atomic(out, dump_scenario(sc))
    print(f"wrote {out} ({sc.n_users} users, T={sc.horizon}, digest {scenario_digest(sc)})")
    return EXIT_OK


@functools.cache   # one parser per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a mistyped flag should error, not
    # silently match a prefix of --out-dir and scatter artifacts.
    parser = argparse.ArgumentParser(
        prog="coopgrid",
        description="Day-ahead microgrid scheduling: distributed solver, "
                    "LP oracle, and bargaining-based cost allocation.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument("--out-dir", default=".", help="directory for artifacts")

    p = sub.add_parser("solve", parents=[common], allow_abbrev=False,
                       help="schedule the microgrid and write schedule CSV + report")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--centralized", action="store_true",
                      help="exact LP solve (default)")
    mode.add_argument("--codes", action="store_true",
                      help="distributed solver; also writes an iteration trace")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("allocate", parents=[common], allow_abbrev=False,
                       help="split the cooperative bill so every user saves equally")
    p.add_argument("--distributed", action="store_true",
                   help="compute the split by consensus on the scenario graph")
    p.add_argument("--graph-tol", type=float, default=1e-6,
                   help="--distributed puts each user's share within this of the equal "
                        "split, so two users' savings can differ by up to twice it; after k "
                        "rounds consensus aims no finer than floats resolve, (k + 1) n "
                        "spacing(max |start|) for n nodes")
    p.add_argument("--social-method", choices=("centralized", "codes"),
                   default="centralized", help="where the social cost J comes from")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("compare", parents=[common], allow_abbrev=False,
                       help="run both solvers and report the relative cost gap")
    p.add_argument("--tol", type=float, default=0.005,
                   help="relative cost gap that still counts as agreement")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("weights", parents=[common], allow_abbrev=False,
                       help="dump the consensus weight matrix as CSV")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("validate", parents=[common], allow_abbrev=False,
                       help="check a scenario file and print its digest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", allow_abbrev=False, help="write a randomized but valid scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default scenario_<seed>.json)")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--users", type=int, nargs=2, default=[2, 5], metavar=("LO", "HI"))
    p.add_argument("--active", type=int, nargs=2, default=[0, 3], metavar=("LO", "HI"))
    p.add_argument("--horizon", type=int, nargs=2, default=[4, 24], metavar=("LO", "HI"))
    p.add_argument("--graph", choices=GRAPH_FAMILIES, default="random")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # the reader's, the graph's and json's errors among them
        return _fail(EXIT_VALIDATION, str(exc))
    except InfeasibleScenarioError as exc:
        return _fail(EXIT_INFEASIBLE, str(exc))
    except BargainingError as exc:
        return _fail(EXIT_BARGAINING, str(exc))
    except LpError as exc:
        return _fail(EXIT_INTERNAL, f"internal solver fault: {exc}")


if __name__ == "__main__":
    sys.exit(main())
