"""The three workloads: their inputs, the rounds they repeat and their checks.

A workload's inputs come from `gen_scenario` seeded from the run's --seed
(day k of a run uses seed * 1000 + k) plus the bundled three-agent fixture.
The program is driven only through `coopgrid.cli.main(argv)` and, for the
fixed-budget distributed runs, `run_codes`.

Every timed operation is short (at most ~0.3 s, apart from oracle-mid's
2-3 s LPs) and repeats many times in a run, because run.py reports the
75th percentile of call times.  Every workload reports every end-to-end
metric, so each one makes short fixed-budget `run_codes` calls every round.
Probes are operations made to be checked or to feed codes_iters_per_s
only; they never count in the day, solve or allocate latencies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as R

# GenSpec fields of each workload's generated days (see README.md)
ORACLE_MID_SPEC = dict(users=(10, 10), active=(5, 5), horizon=(48, 48), graph="ring")
SETTLE_BATCH_SPEC = dict(horizon=(24, 24), graph="random")   # users, active: see below
# One settle-batch round draws each (users, battery draw) pair of
# GenSpec(users=(2, 5), active=(0, 3)) once -- the generator caps batteries
# at the user count -- so every round has the same size mix as that spec's
# expected one and runs with different seeds compare like with like.
SETTLE_BATCH_SIZES = [(u, a) for u in range(2, 6) for a in range(4)]
BUS41_SPEC = dict(users=(40, 40), active=(20, 20), horizon=(24, 24), graph="ring")

COMPARE_TOL = 0.005        # the CLI's default cost-gap contract
CONTRACT_IMBALANCE_KW = 1e-3


@dataclass
class Op:
    """One call into the program, with what it returned for the checks."""

    kind: str                  # validate | solve | allocate | compare | codes
    scenario: Path
    probe: bool                # made only to be checked or to report a metric; no day op
    day: int = -1              # which day of the run it belongs to (see Runner.new_day)
    seconds: float = 0.0
    failed: str | None = None  # why the call itself failed (exit code, exception)
    obs: dict = field(default_factory=dict)


class Runner:
    """Runs operations against one imported copy of the program."""

    def __init__(self, cg, work: Path, tracer=None):
        self.cg = cg
        self.work = work
        self.tracer = tracer
        self.ops: list[Op] = []
        self.day = -1

    def new_day(self) -> None:
        """Start a day: the commands a user runs on one input, timed together."""
        self.day += 1

    def _start(self, op: Op) -> Op:
        op.day = self.day
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        self.ops.append(op)
        return op

    def cli(self, kind: str, scenario: Path, *flags: str, probe: bool = False) -> Op:
        op = self._start(Op(kind, scenario, probe))
        out = self.work / "out" / kind
        shutil.rmtree(out, ignore_errors=True)   # no output of an earlier call can pass a check
        argv = [kind, *flags, "--scenario", str(scenario)]
        if kind != "validate":
            argv += ["--out-dir", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            started = time.perf_counter()
            try:
                code = self.cg.cli.main(argv)
            except Exception as exc:   # a crash is a failed operation, not a dead run
                code = f"{type(exc).__name__}: {exc}"
            op.seconds = time.perf_counter() - started
        if code != 0:
            op.failed = f"exit {code}: {stderr.getvalue().strip()[-300:]}"
            return op
        try:
            op.obs = _read_outputs(kind, out, stdout.getvalue(), "--distributed" in flags)
        except (OSError, ValueError, KeyError, IndexError) as exc:   # missing or malformed artifact
            op.failed = f"output unreadable: {type(exc).__name__}: {exc}"
        return op

    def codes(self, scenario: Path, budget: int, probe: bool = False) -> Op:
        """run_codes for exactly `budget` iterations: the step test never fires."""
        op = self._start(Op("codes", scenario, probe))
        sc = self.cg.load_scenario(scenario)
        config = dataclasses.replace(self.cg.CodesConfig.from_scenario(sc),
                                     max_iters=budget, tol_step=0.0)
        started = time.perf_counter()
        try:
            result = self.cg.run_codes(sc, config)
        except Exception as exc:   # a crash is a failed operation, not a dead run
            op.failed = f"{type(exc).__name__}: {exc}"
            return op
        finally:
            op.seconds = time.perf_counter() - started
        imbalance = np.asarray(result.trace.max_imbalance_kw)
        op.obs = {"budget": budget, "iterations": result.iterations, "j": result.j,
                  "trace_len": len(result.trace),
                  "finite": bool(np.isfinite(imbalance).all()
                                 and np.isfinite(result.trace.j_est).all()
                                 and np.isfinite(result.j)),
                  "imbalance_first": float(imbalance[0]),
                  "imbalance_last": float(imbalance[-1]),
                  "schedule": _schedule_of(result.schedule)}
        return op


def _schedule_of(schedule):
    return R.Schedule(buy=np.array(schedule.grid_buy_kw), sell=np.array(schedule.grid_sell_kw),
                    dispatch={i: np.array(p) for i, p in schedule.desd_power_kw.items()})


def _read_outputs(kind: str, out: Path, stdout: str, distributed: bool) -> dict:
    if kind == "validate":
        return {"digest_line": bool(re.fullmatch(r"OK [0-9a-f]{64}\n", stdout))}
    report = json.loads((out / "report.json").read_text())
    if kind == "solve":
        return {"j": report["j"], "schedule": R.read_schedule(out / "schedule_centralized.csv")}
    if kind == "allocate":
        return {"distributed": distributed,
                "allocation": R.read_allocation(out / "costs.csv", out / "report.json")}
    with open(out / "trace_codes.csv") as fh:
        trace_rows = sum(1 for _ in fh) - 1
    return {"report": report, "trace_rows": trace_rows,
            "oracle": R.read_schedule(out / "schedule_centralized.csv"),
            "codes": R.read_schedule(out / "schedule_codes.csv")}


# --- workloads ------------------------------------------------------------------


@dataclass
class Inputs:
    days: list[Path]           # generated days the rounds cycle through
    fixture: Path              # copy of fixtures/three_agent.json
    codes_day: Path            # the day of the fixed-budget run_codes
    seeds: list[int]           # gen_scenario seed of each generated file


def _write_days(cg, specs: list[dict], seeds: list[int], where: Path) -> list[Path]:
    paths = []
    for spec, s in zip(specs, seeds):
        path = where / f"day_{s}.json"
        path.write_text(cg.dump_scenario(cg.gen_scenario(cg.GenSpec(**spec), s)))
        paths.append(path)
    return paths


def _copy_fixture(root: Path, where: Path) -> Path:
    return Path(shutil.copyfile(root / "fixtures" / "three_agent.json",
                                where / "three_agent.json"))


class Workload:
    name = ""
    rounds_per_pass = 1      # rounds that visit every input once (the traced run)

    def setup(self, cg, root: Path, seed: int, where: Path) -> Inputs:
        raise NotImplementedError

    def round(self, s: Runner, inputs: Inputs, k: int) -> None:
        raise NotImplementedError

    def probes(self, s: Runner, inputs: Inputs) -> None:
        """Operations taken once per run, after the rounds."""


class OracleMid(Workload):
    name = "oracle-mid"
    rounds_per_pass = 2
    codes_budget = 100       # ~0.07 s at 11 buses and 48 steps
    codes_repeats = 8        # ~40 calls a run, ~10 % of the round time

    def setup(self, cg, root, seed, where):
        seeds = [seed * 1000 + k for k in range(self.rounds_per_pass)]
        days = _write_days(cg, [ORACLE_MID_SPEC] * len(seeds), seeds, where)
        return Inputs(days, _copy_fixture(root, where), days[0], seeds)

    def round(self, s, inputs, k):
        day = inputs.days[k % len(inputs.days)]
        s.new_day()
        s.cli("solve", day)
        s.cli("allocate", day)
        for _ in range(self.codes_repeats):
            s.codes(inputs.codes_day, self.codes_budget, probe=True)

    def probes(self, s, inputs):
        # the consensus split, so that the graph layer's consensus runs here too
        s.cli("allocate", inputs.fixture, "--distributed", probe=True)


class Distributed(Workload):
    name = "distributed"
    codes_budget = 100       # ~0.3 s at 41 buses
    codes_repeats = 4
    repeats = 5              # the fixture's solve and allocate take ~0.05 s each

    def setup(self, cg, root, seed, where):
        seeds = [seed * 1000]
        bus41 = _write_days(cg, [BUS41_SPEC], seeds, where)[0]
        fixture = _copy_fixture(root, where)
        return Inputs([fixture], fixture, bus41, seeds)

    def round(self, s, inputs, k):
        for _ in range(self.repeats):
            s.new_day()
            s.cli("solve", inputs.fixture)
            s.cli("allocate", inputs.fixture, "--distributed")
        for _ in range(self.codes_repeats):
            s.codes(inputs.codes_day, self.codes_budget, probe=True)

    def probes(self, s, inputs):
        # one 7-s call: checked against the contract, timed by no metric
        # (a single call that long moves with the host's speed, see README.md)
        s.cli("compare", inputs.fixture, probe=True)


class SettleBatch(Workload):
    name = "settle-batch"
    rounds_per_pass = 6
    days_per_round = len(SETTLE_BATCH_SIZES)
    codes_budget = 100       # ~0.035 s at 4 buses
    codes_repeats = 2

    def setup(self, cg, root, seed, where):
        n = self.rounds_per_pass * self.days_per_round
        seeds = [seed * 1000 + k for k in range(n)]
        specs = [dict(SETTLE_BATCH_SPEC, users=(u, u), active=(a, a))
                 for _ in range(self.rounds_per_pass) for u, a in SETTLE_BATCH_SIZES]
        days = _write_days(cg, specs, seeds, where)
        fixture = _copy_fixture(root, where)
        return Inputs(days, fixture, fixture, seeds)

    def round(self, s, inputs, k):
        first = (k % self.rounds_per_pass) * self.days_per_round
        for day in inputs.days[first:first + self.days_per_round]:
            s.new_day()
            s.cli("validate", day)
            s.cli("solve", day)
            s.cli("allocate", day, "--distributed")
        for _ in range(self.codes_repeats):
            s.codes(inputs.codes_day, self.codes_budget, probe=True)


WORKLOADS = {w.name: w for w in (OracleMid(), Distributed(), SettleBatch())}


# --- checks against the reference --------------------------------------------------


class References:
    """HiGHS optima per scenario file, solved once each."""

    def __init__(self):
        self._days, self._j, self._d = {}, {}, {}

    def day(self, path: Path):
        if path not in self._days:
            self._days[path] = R.Day.load(path)
        return self._days[path]

    def j(self, path: Path) -> float:
        if path not in self._j:
            self._j[path] = R.social_optimum(self.day(path))
        return self._j[path]

    def d(self, path: Path) -> dict[int, float]:
        if path not in self._d:
            self._d[path] = R.standalone_costs(self.day(path))
        return self._d[path]


def op_faults(op: Op, ref: References) -> list[str]:
    """What is wrong with one operation's outputs (empty when all is right)."""
    day, obs = ref.day(op.scenario), op.obs
    if op.kind == "validate":
        return [] if obs["digest_line"] else ["validate did not print 'OK <digest>'"]
    if op.kind == "solve":
        j = ref.j(op.scenario)
        return (R.schedule_faults(day, obs["schedule"], balance_tol=1e-6)
                + R.cost_fault("J", obs["j"], j)
                + R.cost_fault("schedule cost", R.schedule_cost(day, obs["schedule"]), j))
    if op.kind == "allocate":
        d = ref.d(op.scenario)
        tol = 1e-6 if obs["distributed"] else 1e-9 * max(1.0, sum(map(abs, d.values())))
        return R.allocation_faults(day, obs["allocation"], ref.j(op.scenario), d, tol)
    if op.kind == "compare":
        j, rep = ref.j(op.scenario), obs["report"]
        faults = R.cost_fault("J_oracle", rep["j_oracle"], j)
        faults += R.schedule_faults(day, obs["oracle"], balance_tol=1e-6)
        faults += R.cost_fault("oracle schedule cost", R.schedule_cost(day, obs["oracle"]), j)
        faults += R.schedule_faults(day, obs["codes"], balance_tol=CONTRACT_IMBALANCE_KW,
                                    energy=False)
        faults += R.cost_fault("distributed schedule cost",
                               R.schedule_cost(day, obs["codes"]), j, rel_tol=COMPARE_TOL)
        faults += R.cost_fault("J_codes", rep["j_codes"],
                               R.schedule_cost(day, obs["codes"]), rel_tol=1e-9)
        if obs["trace_rows"] != rep["iterations"]:
            faults.append(f"trace has {obs['trace_rows']} rows for {rep['iterations']} iterations")
        return faults
    # fixed-budget run_codes: the properties any projected run must have
    faults = [] if obs["finite"] else ["non-finite value in the run"]
    faults += R.schedule_faults(day, obs["schedule"], balance_tol=None, energy=False)
    faults += R.cost_fault("J", obs["j"], R.schedule_cost(day, obs["schedule"]), rel_tol=1e-9)
    if not obs["iterations"] == obs["trace_len"] == obs["budget"]:
        faults.append(f"{obs['iterations']} iterations ({obs['trace_len']} traced), "
                      f"budget {obs['budget']}")
    if not obs["imbalance_last"] < obs["imbalance_first"]:
        faults.append(f"imbalance grew: {obs['imbalance_first']:.3e} -> "
                      f"{obs['imbalance_last']:.3e} kW")
    return faults
