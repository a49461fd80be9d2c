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
the exchange.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp import LinearProgram, LpError, LpSolution, check_feasible, solve_lp
from .scenario import Scenario

BALANCE_TOL_ORACLE = 1e-8


class InfeasibleScenarioError(RuntimeError):
    pass


@dataclass
class PowerSchedule:
    """Cleared day-ahead plan: grid exchange plus one dispatch row per device."""

    grid_buy_kw: np.ndarray               # (T,), >= 0
    grid_sell_kw: np.ndarray              # (T,), >= 0
    desd_power_kw: dict[int, np.ndarray]  # agent id -> (T,), positive = discharge
    dt_hours: float

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
    eye = np.eye(t)
    f = np.concatenate([np.array(scenario.tariff.buy) * dt, -np.array(scenario.tariff.sell) * dt,
                        np.zeros(2 * n * t)])
    balance = np.hstack([eye, -eye, np.tile(eye, n), np.zeros((t, n * t))])
    link = np.hstack([np.zeros((n * t, 2 * t)), np.kron(np.eye(n), dt * eye),
                      np.kron(np.eye(n), eye - np.eye(t, k=-1))])
    e0 = np.zeros((n, t))
    e0[:, 0] = [d.e0_kwh for d in desds]
    box = np.array([(-d.p_charge_max_kw, d.p_discharge_max_kw, d.emin_kwh, d.emax_kwh)
                    for d in desds]).reshape(-1, 4)
    lower = np.concatenate([np.zeros(2 * t), np.repeat(box[:, 0], t), np.repeat(box[:, 2], t)])
    upper = np.concatenate([np.full(2 * t, scenario.p_grid_max_kw), np.repeat(box[:, 1], t),
                            np.repeat(box[:, 3], t)])
    return LinearProgram(f, a_eq=np.vstack([balance, link]),
                         b_eq=np.concatenate([net_load_kw(agents), e0.ravel()]),
                         lower=lower, upper=upper)


def build_social_lp(scenario: Scenario) -> LinearProgram:
    return day_lp(scenario, scenario.agents)


def solve_day(scenario: Scenario, agents, lp: LinearProgram) -> tuple[PowerSchedule, float]:
    """Optimal day of the coalition `agents` from its `day_lp`: netted schedule and cost.

    Dispatch is keyed by battery owner.  With no battery the balance row fixes
    the exchange and no simplex runs.  Infeasible days raise InfeasibleScenarioError.
    """
    t = scenario.horizon
    if lp.n_vars == 2 * t:
        x = np.concatenate([np.maximum(lp.b_eq, 0.0), np.maximum(-lp.b_eq, 0.0)])
        sol = LpSolution("infeasible" if check_feasible(lp, x) else "optimal", x, float(lp.f @ x))
    else:
        sol = solve_lp(lp)
    if sol.status == "infeasible":
        raise InfeasibleScenarioError(_diagnose_infeasibility(scenario, agents))
    if sol.status != "optimal":
        raise LpError(f"day LP cannot be {sol.status}: all variables are boxed")
    rows = sol.x.reshape(-1, t)   # buy, sell, n dispatch rows, n energy rows
    buy, sell = net_exchange(rows[0], rows[1])
    cost = float(sol.objective_value)
    recomputed = lp.f[:t] @ buy + lp.f[t:2 * t] @ sell
    if abs(recomputed - cost) > 1e-9 * (1.0 + abs(cost)):
        raise LpError(f"netting changed the cost: {recomputed} vs {cost}; "
                      "optimal plans never buy and sell in the same step")
    owners = [a.id for a in agents if a.desd is not None]
    dispatch = dict(zip(owners, rows[2:2 + len(owners)].copy()))
    return PowerSchedule(buy, sell, dispatch, scenario.dt_hours), cost


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


def schedule_cost(schedule: PowerSchedule, tariff) -> float:
    buy = np.array(tariff.buy)
    sell = np.array(tariff.sell)
    return float(np.sum((buy * schedule.grid_buy_kw - sell * schedule.grid_sell_kw)
                        * schedule.dt_hours))


def stored_energy(desd, p_desd_kw: np.ndarray, dt_hours: float) -> np.ndarray:
    """Energy after each step: e0 minus the accumulated discharge."""
    return desd.e0_kwh - np.cumsum(np.asarray(p_desd_kw)) * dt_hours


def solve_social(scenario: Scenario) -> tuple[PowerSchedule, float]:
    """Exact social optimum.  Raises InfeasibleScenarioError with a diagnosis."""
    return solve_day(scenario, scenario.agents, build_social_lp(scenario))


def check_schedule(scenario: Scenario, schedule: PowerSchedule,
                   balance_tol_kw: float = BALANCE_TOL_ORACLE,
                   box_tol: float = 1e-6) -> list[str]:
    """Validate a schedule against its scenario; returns human-readable faults."""
    t = scenario.horizon
    faults = []
    if schedule.horizon != t or schedule.grid_sell_kw.size != t:
        return [f"schedule spans {schedule.horizon} steps, scenario has {t}"]
    if abs(schedule.dt_hours - scenario.dt_hours) > 1e-12:
        faults.append(f"dt mismatch: {schedule.dt_hours} vs {scenario.dt_hours}")
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

    Ints and strings are written as they are, every other value as
    repr(float(v)), which reads back as the same float: re-runs are
    bit-identical and readers lose no precision.
    """
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, (int, str)) else repr(float(v)) for v in row]
                     for row in rows)
    return out.getvalue()


def schedule_csv_text(scenario: Scenario, schedule: PowerSchedule) -> str:
    """Columns t, P_G_buy_kw, P_G_sell_kw, then P_B_<id>_kw and E_<id>_kwh per
    active agent in id order; one row per step."""
    users = scenario.active_users
    header = ["t", "P_G_buy_kw", "P_G_sell_kw"]
    header += [f"P_B_{a.id}_kw" for a in users] + [f"E_{a.id}_kwh" for a in users]
    power = [schedule.desd_power_kw[a.id] for a in users]
    energy = [stored_energy(a.desd, p, schedule.dt_hours) for a, p in zip(users, power)]
    table = np.column_stack([schedule.grid_buy_kw, schedule.grid_sell_kw, *power, *energy])
    return csv_text(header, ([t, *row] for t, row in enumerate(table.tolist())))


def read_schedule_csv(path: str | Path, dt_hours: float) -> PowerSchedule:
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
        dt_hours=dt_hours,
    )
