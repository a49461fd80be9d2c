"""Centralized day-ahead optimum: one LP over every bus at once.

This is the reference the distributed solver is measured against.  Decision
variables are the grid exchange (buy and sell split into nonnegative parts)
and each storage dispatch trajectory; demand and renewables are data.

    min   sum_t (p_buy(t) * P_buy(t) - p_sell(t) * P_sell(t)) * dt
    s.t.  P_buy(t) - P_sell(t) + sum_i P_desd_i(t) = total_demand(t) - total_renewable(t)
          emin_i <= e0_i - dt * cumsum(P_desd_i)(t) <= emax_i
          0 <= P_buy(t), P_sell(t) <= P_grid_max
          -charge_max_i <= P_desd_i(t) <= discharge_max_i
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp import LinearProgram, LpError, solve_lp
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


def social_variable_slices(scenario: Scenario) -> dict:
    """Column layout of the social LP: buy block, sell block, one per device."""
    t = scenario.horizon
    out = {"buy": slice(0, t), "sell": slice(t, 2 * t)}
    for k, a in enumerate(scenario.active_users):
        out[a.id] = slice((2 + k) * t, (3 + k) * t)
    return out


def build_social_lp(scenario: Scenario) -> LinearProgram:
    t = scenario.horizon
    dt = scenario.dt_hours
    active = scenario.active_users
    n = (2 + len(active)) * t
    sl = social_variable_slices(scenario)

    f = np.zeros(n)
    f[sl["buy"]] = np.array(scenario.tariff.buy) * dt
    f[sl["sell"]] = -np.array(scenario.tariff.sell) * dt

    base_net = np.zeros(t)
    for a in scenario.agents:
        base_net += np.array(a.demand_kw) - np.array(a.renewable_kw)
    a_eq = np.zeros((t, n))
    a_eq[:, sl["buy"]] = np.eye(t)
    a_eq[:, sl["sell"]] = -np.eye(t)
    for a in active:
        a_eq[:, sl[a.id]] += np.eye(t)
    b_eq = base_net

    # running stored energy must stay inside [emin, emax]:
    #   dt * cumsum(P_desd)(k) <= e0 - emin   and   -dt * cumsum <= emax - e0
    lower_tri = np.tril(np.ones((t, t))) * dt
    a_ub = np.zeros((2 * t * len(active), n))
    b_ub = np.zeros(2 * t * len(active))
    for k, a in enumerate(active):
        rows = slice(2 * t * k, 2 * t * k + t)
        a_ub[rows, sl[a.id]] = lower_tri
        b_ub[rows] = a.desd.e0_kwh - a.desd.emin_kwh
        rows = slice(2 * t * k + t, 2 * t * (k + 1))
        a_ub[rows, sl[a.id]] = -lower_tri
        b_ub[rows] = a.desd.emax_kwh - a.desd.e0_kwh

    lower = np.zeros(n)
    upper = np.full(n, scenario.p_grid_max_kw)
    for a in active:
        lower[sl[a.id]] = -a.desd.p_charge_max_kw
        upper[sl[a.id]] = a.desd.p_discharge_max_kw
    return LinearProgram(f, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                         lower=lower, upper=upper)


def _diagnose_infeasibility(scenario: Scenario) -> str:
    base_net = np.zeros(scenario.horizon)
    for a in scenario.agents:
        base_net += np.array(a.demand_kw) - np.array(a.renewable_kw)
    discharge = sum(a.desd.p_discharge_max_kw for a in scenario.active_users)
    charge = sum(a.desd.p_charge_max_kw for a in scenario.active_users)
    for t in range(scenario.horizon):
        if base_net[t] - discharge > scenario.p_grid_max_kw:
            return (f"step {t}: net demand {base_net[t]:.3f} kW exceeds the grid limit "
                    f"{scenario.p_grid_max_kw} kW even at full discharge")
        if base_net[t] + charge < -scenario.p_grid_max_kw:
            return (f"step {t}: renewable surplus {-base_net[t]:.3f} kW exceeds the grid "
                    f"limit {scenario.p_grid_max_kw} kW even at full charge")
    return "no single step is infeasible on its own; stored-energy coupling binds"


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
    lp = build_social_lp(scenario)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        raise InfeasibleScenarioError(_diagnose_infeasibility(scenario))
    if sol.status != "optimal":
        raise LpError(f"social LP cannot be {sol.status}: all variables are boxed")
    sl = social_variable_slices(scenario)
    t = scenario.horizon
    buy, sell = net_exchange(sol.x[sl["buy"]], sol.x[sl["sell"]])
    schedule = PowerSchedule(
        grid_buy_kw=buy,
        grid_sell_kw=sell,
        desd_power_kw={a.id: sol.x[sl[a.id]].copy() for a in scenario.active_users},
        dt_hours=scenario.dt_hours,
    )
    j = float(sol.objective_value)
    recomputed = schedule_cost(schedule, scenario.tariff)
    if abs(recomputed - j) > 1e-9 * (1.0 + abs(j)):
        raise LpError(f"netting changed the cost: {recomputed} vs {j}; "
                      "optimal plans never buy and sell in the same step")
    return schedule, j


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
    base_net = np.zeros(t)
    for a in scenario.agents:
        base_net += np.array(a.demand_kw) - np.array(a.renewable_kw)
    residual = schedule.grid_buy_kw - schedule.grid_sell_kw - base_net
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


# --- CSV form of a schedule ------------------------------------------------------
#
# Columns: t, P_G_buy_kw, P_G_sell_kw, then P_B_<id>_kw and E_<id>_kwh per
# active agent in id order.  One row per step.


def schedule_field_names(scenario: Scenario) -> list[str]:
    names = ["t", "P_G_buy_kw", "P_G_sell_kw"]
    names += [f"P_B_{a.id}_kw" for a in scenario.active_users]
    names += [f"E_{a.id}_kwh" for a in scenario.active_users]
    return names


def schedule_csv_text(scenario: Scenario, schedule: PowerSchedule) -> str:
    ids = [a.id for a in scenario.active_users]
    energies = {a.id: stored_energy(a.desd, schedule.desd_power_kw[a.id], schedule.dt_hours)
                for a in scenario.active_users}
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(schedule_field_names(scenario))
    for t in range(schedule.horizon):
        row = [t, repr(float(schedule.grid_buy_kw[t])), repr(float(schedule.grid_sell_kw[t]))]
        row += [repr(float(schedule.desd_power_kw[i][t])) for i in ids]
        row += [repr(float(energies[i][t])) for i in ids]
        writer.writerow(row)
    return out.getvalue()


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
