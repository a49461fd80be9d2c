"""Centralized day-ahead optimum: one LP over every bus at once.

This is the reference the distributed solver is measured against.  Decision
variables are the grid exchange (buy and sell split into nonnegative parts),
each storage dispatch trajectory and its stored energy; demand and renewables
are data.  With net(t) the summed demand minus renewables,

    min   sum_t (p_buy(t) * P_buy(t) - p_sell(t) * P_sell(t)) * dt
    s.t.  P_buy(t) - P_sell(t) + sum_i P_desd_i(t) = net(t)
          E_i(t) = E_i(t-1) - dt * P_desd_i(t),   E_i(-1) = e0_i
          0 <= P_buy(t), P_sell(t) <= P_grid_max
          -charge_max_i <= P_desd_i(t) <= discharge_max_i
          emin_i <= E_i(t) <= emax_i

`solve_day` solves this day for any coalition of agents: the social optimum
is the grand coalition, a user's stand-alone day (selfish.py) is that user
alone.  A day with no battery needs no simplex, since the balance row fixes
the exchange.  Every other day enters the simplex at `day_start`, a
price-threshold schedule: each battery discharges at full power at the steps
whose buy price ranks above the median and charges at the others, holding an
energy bound once it reaches one, and the grid takes the rest.  Phase 1 runs
only when that point breaks the grid limit.  Whatever schedule a solver
returns, `schedule_cost` is the one function that prices it.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpError, LpSolution, LpStart, solve_lp
from .scenario import Scenario

BALANCE_TOL_ORACLE = 1e-8
CSV_SLICE_ROWS = 1024   # csv_text formats this many rows at a time: it holds text, not rows


class InfeasibleScenarioError(RuntimeError):
    pass


@dataclass
class PowerSchedule:
    """Cleared day-ahead plan: grid exchange plus one dispatch row per device.
    It has no step width: whatever prices or integrates it takes dt from the scenario."""

    grid_buy_kw: np.ndarray               # (T,), >= 0
    grid_sell_kw: np.ndarray              # (T,), >= 0
    desd_power_kw: dict[int, np.ndarray]  # agent id -> (T,), positive = discharge

    @property
    def horizon(self) -> int:
        return self.grid_buy_kw.size


def net_load_kw(agents) -> np.ndarray:
    """Summed demand minus renewables per step."""
    return np.sum([np.subtract(a.demand_kw, a.renewable_kw) for a in agents], axis=0)


def day_lp(scenario: Scenario, agents) -> LinearProgram:
    """Day LP of the coalition `agents` behind the scenario's grid connection.

    Columns are [buy | sell | P_1..P_n | E_1..E_n], T columns each, with one
    P and one E block per battery owner.  Rows are the power balance, then each
    device's energy link E(t) - E(t-1) + dt * P(t) = 0 with e0 moved to the
    right of its first step.  Every column is boxed; no row is an inequality.
    """
    desds = [a.desd for a in agents if a.desd is not None]
    t, n, dt = scenario.horizon, len(desds), scenario.dt_hours
    f = np.concatenate([np.array(scenario.tariff.buy) * dt, -np.array(scenario.tariff.sell) * dt,
                        np.zeros(2 * n * t)])
    # link row r = t + i*t + k (device i, step k) owns P column r + t and E column r + t + n*t
    a_eq = np.zeros((t + n * t, 2 * t + 2 * n * t))
    steps, link = np.arange(t), np.arange(t, t + n * t)
    a_eq[steps, steps] = 1.0
    a_eq[steps, t + steps] = -1.0
    a_eq[link % t, link + t] = 1.0
    a_eq[link, link + t] = dt
    a_eq[link, link + t + n * t] = 1.0
    later = link[link % t > 0]
    a_eq[later, later + t + n * t - 1] = -1.0
    e0 = np.zeros((n, t))
    e0[:, 0] = [d.e0_kwh for d in desds]
    box = np.array([(-d.p_charge_max_kw, d.p_discharge_max_kw, d.emin_kwh, d.emax_kwh)
                    for d in desds]).reshape(-1, 4)
    lower = np.concatenate([np.zeros(2 * t), np.repeat(box[:, 0], t), np.repeat(box[:, 2], t)])
    upper = np.concatenate([np.full(2 * t, scenario.p_grid_max_kw), np.repeat(box[:, 1], t),
                            np.repeat(box[:, 3], t)])
    return LinearProgram(f, a_eq=a_eq,
                         b_eq=np.concatenate([net_load_kw(agents), e0.ravel()]),
                         lower=lower, upper=upper)


def day_start(scenario: Scenario, agents) -> LpStart:
    """Start basis of `day_lp` at a price-threshold schedule.  At each step
    whose buy price ranks above the day's median every battery discharges at
    full rating, and at every other step it charges at full rating (E_i(t)
    basic, P_i(t) at its rating).  A step that would reach an energy bound
    stops there, and the battery holds the bound while the price keeps
    pushing that way (P_i(t) basic, E_i(t) at the bound).  buy(t), or sell(t)
    on a surplus, carries balance row t.  The holding rows pivot as one
    block, the moving rows as a second, in which each battery's run of
    moving steps is one chain, then the balance rows as a third."""
    desds = [a.desd for a in agents if a.desd is not None]
    t, n, dt = scenario.horizon, len(desds), scenario.dt_hours
    rank = np.argsort(np.argsort(scenario.tariff.buy, kind="stable"), kind="stable")
    discharge = 2 * rank >= t                      # above the median; ranks keep it scale-free
    energy, held = np.empty((n, t)), np.empty((n, t), dtype=bool)
    for i, d in enumerate(desds):
        e = d.e0_kwh
        for k, down in enumerate(discharge.tolist()):
            e = e - dt * d.p_discharge_max_kw if down else e + dt * d.p_charge_max_kw
            held[i, k] = e <= d.emin_kwh if down else e >= d.emax_kwh
            energy[i, k] = e = min(max(e, d.emin_kwh), d.emax_kwh)
    p = -np.diff(energy, axis=1, prepend=[[d.e0_kwh] for d in desds]) / dt
    steps, moving = np.arange(t), ~held
    link = t + t * np.arange(n)[:, None] + steps   # energy-link row of each battery and step
    p_col, e_col = link + t, link + t + n * t
    sell = net_load_kw(agents) - p.sum(axis=0) < 0.0
    blocks = [(link.T[held.T], p_col.T[held.T]),   # step by step: few balance rows per chunk
              (link[moving], e_col[moving]),
              (steps, np.where(sell, t + steps, steps))]
    return LpStart(blocks, np.concatenate([p_col[moving & discharge], e_col[held & ~discharge]]))


def build_social_lp(scenario: Scenario) -> LinearProgram:
    return day_lp(scenario, scenario.agents)


def solve_day(scenario: Scenario, agents, lp: LinearProgram | None = None,
              warm: LpSolution | None = None) -> tuple[PowerSchedule, float, LpSolution]:
    """Optimal day of the coalition `agents` from its `day_lp`, built here when
    `lp` is None: netted schedule, cost and the LP solution, which can be the
    `warm` source of the next day LP with the same battery count.

    Dispatch is keyed by battery owner.  With no battery the balance row fixes
    the exchange, and neither a day LP nor a simplex is needed.  A cold solve
    enters at `day_start`; a warm one that falls back runs phase 1 instead.
    Infeasible days raise InfeasibleScenarioError.
    """
    t = scenario.horizon
    if all(a.desd is None for a in agents):
        net = net_load_kw(agents)
        x = np.concatenate([np.maximum(net, 0.0), np.maximum(-net, 0.0)])
        f = np.concatenate([scenario.tariff.buy, np.negative(scenario.tariff.sell)])
        f *= scenario.dt_hours
        feasible = (x - scenario.p_grid_max_kw <= FEAS_TOL).all()
        sol = LpSolution("optimal" if feasible else "infeasible", x, float(f @ x))
    else:
        lp = day_lp(scenario, agents) if lp is None else lp
        sol = solve_lp(lp, start=day_start(scenario, agents) if warm is None else None, warm=warm)
    if sol.status == "infeasible":
        raise InfeasibleScenarioError(_diagnose_infeasibility(scenario, agents))
    if sol.status != "optimal":
        raise LpError(f"day LP cannot be {sol.status}: all variables are boxed")
    rows = sol.x.reshape(-1, t)   # buy, sell, n dispatch rows, n energy rows
    owners = [a.id for a in agents if a.desd is not None]
    schedule = PowerSchedule(*net_exchange(rows[0], rows[1]),
                             dict(zip(owners, rows[2:2 + len(owners)].copy())))
    cost = float(sol.objective_value)
    recomputed = schedule_cost(scenario, schedule)
    if abs(recomputed - cost) > 1e-9 * (1.0 + abs(cost)):
        raise LpError(f"netting changed the cost: {recomputed} vs {cost}; "
                      "optimal plans never buy and sell in the same step")
    return schedule, cost, sol


def _diagnose_infeasibility(scenario: Scenario, agents) -> str:
    """The first step `agents` cannot balance, naming the coalition unless it is every agent."""
    who = ("" if len(agents) == len(scenario.agents)
           else f"agent {', '.join(str(a.id) for a in agents)} alone, ")
    base_net = net_load_kw(agents)
    desds = [a.desd for a in agents if a.desd is not None]
    discharge = sum(d.p_discharge_max_kw for d in desds)
    charge = sum(d.p_charge_max_kw for d in desds)
    for t in range(scenario.horizon):
        if base_net[t] - discharge > scenario.p_grid_max_kw:
            return (f"{who}step {t}: net demand {base_net[t]:.3f} kW exceeds the grid limit "
                    f"{scenario.p_grid_max_kw} kW even at full discharge")
        if base_net[t] + charge < -scenario.p_grid_max_kw:
            return (f"{who}step {t}: renewable surplus {-base_net[t]:.3f} kW exceeds the grid "
                    f"limit {scenario.p_grid_max_kw} kW even at full charge")
    return f"{who}no single step is infeasible on its own; stored-energy coupling binds"


def net_exchange(buy: np.ndarray, sell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cancel simultaneous buying and selling; only the net flow is physical."""
    net = buy - sell
    return np.maximum(net, 0.0), np.maximum(-net, 0.0)


def schedule_cost(scenario: Scenario, schedule: PowerSchedule) -> float:
    """What the schedule's grid exchange costs at the scenario's tariff: the one pricer."""
    buy = np.array(scenario.tariff.buy)
    sell = np.array(scenario.tariff.sell)
    return float(np.sum((buy * schedule.grid_buy_kw - sell * schedule.grid_sell_kw)
                        * scenario.dt_hours))


def stored_energy(desd, p_desd_kw: np.ndarray, dt_hours: float) -> np.ndarray:
    """Energy after each step: e0 minus the accumulated discharge."""
    return desd.e0_kwh - np.cumsum(np.asarray(p_desd_kw)) * dt_hours


def solve_social(scenario: Scenario) -> tuple[PowerSchedule, float]:
    """Exact social optimum.  Raises InfeasibleScenarioError with a diagnosis."""
    schedule, cost, _ = solve_day(scenario, scenario.agents, build_social_lp(scenario))
    return schedule, cost


def check_schedule(scenario: Scenario, schedule: PowerSchedule,
                   balance_tol_kw: float = BALANCE_TOL_ORACLE,
                   box_tol: float = 1e-6) -> list[str]:
    """Validate a schedule against its scenario; returns human-readable faults."""
    t = scenario.horizon
    faults = []
    if schedule.horizon != t or schedule.grid_sell_kw.size != t:
        return [f"schedule spans {schedule.horizon} steps, scenario has {t}"]
    for name, arr in (("grid_buy_kw", schedule.grid_buy_kw),
                      ("grid_sell_kw", schedule.grid_sell_kw)):
        if arr.min(initial=0.0) < -box_tol:
            faults.append(f"{name} negative at step {int(arr.argmin())}")
        if arr.max(initial=0.0) > scenario.p_grid_max_kw + box_tol:
            faults.append(f"{name} exceeds the grid limit at step {int(arr.argmax())}")
    expected_ids = {a.id for a in scenario.active_users}
    if set(schedule.desd_power_kw) != expected_ids:
        faults.append(f"device set {sorted(schedule.desd_power_kw)} does not match "
                      f"active agents {sorted(expected_ids)}")
        return faults
    residual = schedule.grid_buy_kw - schedule.grid_sell_kw - net_load_kw(scenario.agents)
    for a in scenario.active_users:
        p = np.asarray(schedule.desd_power_kw[a.id])
        if p.size != t:
            faults.append(f"agent {a.id}: dispatch spans {p.size} steps, scenario has {t}")
            continue
        residual = residual + p
        if p.max(initial=0.0) > a.desd.p_discharge_max_kw + box_tol:
            faults.append(f"agent {a.id}: discharge above rating at step {int(p.argmax())}")
        if p.min(initial=0.0) < -a.desd.p_charge_max_kw - box_tol:
            faults.append(f"agent {a.id}: charge above rating at step {int(p.argmin())}")
        energy = stored_energy(a.desd, p, scenario.dt_hours)
        if energy.min() < a.desd.emin_kwh - box_tol:
            faults.append(f"agent {a.id}: stored energy below emin at step {int(energy.argmin())}")
        if energy.max() > a.desd.emax_kwh + box_tol:
            faults.append(f"agent {a.id}: stored energy above emax at step {int(energy.argmax())}")
    worst = int(np.abs(residual).argmax())
    if abs(residual[worst]) > balance_tol_kw:
        faults.append(f"power balance off by {residual[worst]:.3e} kW at step {worst}")
    return faults


# --- CSV artifacts -----------------------------------------------------------------


def csv_text(header, rows) -> str:
    """The one CSV format of every artifact.

    Ints, strings and Python floats are written as they are (csv writes a
    float as its repr), every other value as repr(float(v)), which reads back
    as the same float: re-runs are bit-identical and readers lose no precision.
    """
    # a numpy float64 is a float too, but its repr is not a float's
    rows = ([v if type(v) is float or isinstance(v, (int, str)) else repr(float(v)) for v in row]
            for row in rows)
    pieces, block = [], [header]
    while block:
        out = io.StringIO()
        csv.writer(out).writerows(block)
        pieces.append(out.getvalue())
        block = list(itertools.islice(rows, CSV_SLICE_ROWS))
    return "".join(pieces)


def schedule_csv_text(scenario: Scenario, schedule: PowerSchedule) -> str:
    """Columns t, P_G_buy_kw, P_G_sell_kw, then P_B_<id>_kw and E_<id>_kwh per
    active agent in id order; one row per step."""
    users = scenario.active_users
    header = ["t", "P_G_buy_kw", "P_G_sell_kw"]
    header += [f"P_B_{a.id}_kw" for a in users] + [f"E_{a.id}_kwh" for a in users]
    power = [schedule.desd_power_kw[a.id] for a in users]
    energy = [stored_energy(a.desd, p, scenario.dt_hours) for a, p in zip(users, power)]
    table = np.column_stack([schedule.grid_buy_kw, schedule.grid_sell_kw, *power, *energy])
    return csv_text(header, ([t, *row] for t, row in enumerate(table.tolist())))


def read_schedule_csv(path: str | Path) -> PowerSchedule:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: empty schedule file")
    ids = [int(name[len("P_B_"):-len("_kw")]) for name in rows[0]
           if name.startswith("P_B_")]
    return PowerSchedule(
        grid_buy_kw=np.array([float(r["P_G_buy_kw"]) for r in rows]),
        grid_sell_kw=np.array([float(r["P_G_sell_kw"]) for r in rows]),
        desd_power_kw={i: np.array([float(r[f"P_B_{i}_kw"]) for r in rows]) for i in ids},
    )
