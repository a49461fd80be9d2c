"""Independent reference for coopgrid's outputs, built on scipy's HiGHS.

Nothing here imports coopgrid.  Scenarios are read from their JSON text and
outputs from the files the CLI writes (or from plain arrays), so a fault in
the program's parser, LP construction or CSV writer cannot hide itself here.

The LPs are stated in state-variable form, unlike the program's own LPs
(which use cumulative-sum rows): besides buy, sell and dispatch P_i(t), every
battery gets its stored energy E_i(t) as a boxed variable, linked by

    E_i(t) = E_i(t-1) - dt * P_i(t),    E_i(-1) = e0_i.

scipy is a benchmark-only dependency; the program stays numpy-only.  It is
imported on first use, so reading outputs does not load it and the memory a
run reports before checking is the program's.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# J and every stand-alone cost D_i must match HiGHS to this relative error,
# taken against max(1, |reference|) so that a day costing about 0 is not
# held to an absolute 1e-7 of nothing.
REL_TOL = 1e-7
BOX_TOL = 1e-6

_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


class HighsError(RuntimeError):
    """HiGHS could not solve a reference LP; the day itself is unusable."""


@dataclass(frozen=True)
class Battery:
    e0: float
    emin: float
    emax: float
    charge_max: float
    discharge_max: float


@dataclass(frozen=True)
class User:
    id: int
    role: str
    net: np.ndarray              # demand minus renewables, kW
    battery: Battery | None


@dataclass(frozen=True)
class Day:
    """One scenario as the reference reads it."""

    horizon: int
    dt: float
    grid_max: float
    buy: np.ndarray
    sell: np.ndarray
    users: tuple[User, ...]      # every non-grid agent, in id order
    net: np.ndarray              # system net demand, kW

    @property
    def batteries(self) -> dict[int, Battery]:
        return {u.id: u.battery for u in self.users if u.battery is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "Day":
        users = []
        net = np.zeros(int(data["horizon"]))
        for a in sorted(data["agents"], key=lambda a: a["id"]):
            own = np.array(a["demand_kw"], float) - np.array(a["renewable_kw"], float)
            net += own
            if a["role"] == "grid":
                continue
            d = a.get("desd")
            battery = None if d is None else Battery(
                d["e0_kwh"], d["emin_kwh"], d["emax_kwh"],
                d["p_charge_max_kw"], d["p_discharge_max_kw"])
            users.append(User(int(a["id"]), a["role"], own, battery))
        return cls(horizon=int(data["horizon"]), dt=float(data["dt_hours"]),
                   grid_max=float(data["p_grid_max_kw"]),
                   buy=np.array(data["tariff"]["buy"], float),
                   sell=np.array(data["tariff"]["sell"], float),
                   users=tuple(users), net=net)

    @classmethod
    def load(cls, path: str | Path) -> "Day":
        return cls.from_dict(json.loads(Path(path).read_text()))


# --- reference optima -----------------------------------------------------------


def _optimum(day: Day, batteries: list[Battery], net: np.ndarray) -> float:
    """Cheapest cost of covering `net` from the grid and the given batteries."""
    from scipy import sparse
    from scipy.optimize import linprog

    t, dt, k = day.horizon, day.dt, len(batteries)
    n = 2 * t + 2 * k * t                     # buy | sell | (P_i, E_i) per battery
    cost = np.zeros(n)
    cost[:t] = day.buy * dt
    cost[t:2 * t] = -day.sell * dt
    lower = np.zeros(n)
    upper = np.full(n, day.grid_max)
    eye = sparse.identity(t, format="csr")
    # E(t) - E(t-1): identity minus the subdiagonal
    step = sparse.identity(t, format="csr") - sparse.eye(t, k=-1, format="csr")
    balance = [eye, -eye]
    energy_rows = []
    b_energy = []
    for j, bat in enumerate(batteries):
        p0 = 2 * t + 2 * j * t
        lower[p0:p0 + t] = -bat.charge_max
        upper[p0:p0 + t] = bat.discharge_max
        lower[p0 + t:p0 + 2 * t] = bat.emin
        upper[p0 + t:p0 + 2 * t] = bat.emax
        balance += [eye, sparse.csr_matrix((t, t))]
        row = [sparse.csr_matrix((t, 2 * t))]
        for other in range(k):
            row += ([dt * eye, step] if other == j
                    else [sparse.csr_matrix((t, t)), sparse.csr_matrix((t, t))])
        energy_rows.append(sparse.hstack(row))
        rhs = np.zeros(t)
        rhs[0] = bat.e0
        b_energy.append(rhs)
    a_eq = sparse.vstack([sparse.hstack(balance)] + energy_rows, format="csr")
    b_eq = np.concatenate([net] + b_energy)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=np.column_stack([lower, upper]),
                  method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise HighsError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def social_optimum(day: Day) -> float:
    """Cooperative cost J of the whole day."""
    return _optimum(day, list(day.batteries.values()), day.net)


def standalone_cost(day: Day, user: User) -> float:
    """Stand-alone cost D_i: the user alone against the tariff and grid limit."""
    return _optimum(day, [] if user.battery is None else [user.battery], user.net)


def standalone_costs(day: Day) -> dict[int, float]:
    return {u.id: standalone_cost(day, u) for u in day.users}


# --- schedules ------------------------------------------------------------------


@dataclass
class Schedule:
    buy: np.ndarray
    sell: np.ndarray
    dispatch: dict[int, np.ndarray]               # battery id -> kW, + discharges
    energy: dict[int, np.ndarray] | None = None   # as written, when read from a file


def read_schedule(path: str | Path) -> Schedule:
    """Parse a schedule CSV: t, P_G_buy_kw, P_G_sell_kw, P_B_<id>_kw..., E_<id>_kwh..."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)
    col = {name: body[:, k] for k, name in enumerate(header)}
    if not np.array_equal(col["t"], np.arange(body.shape[0])):
        raise ValueError(f"{path}: step column is not 0..T-1")
    ids = [int(h[len("P_B_"):-len("_kw")]) for h in header if h.startswith("P_B_")]
    return Schedule(buy=col["P_G_buy_kw"], sell=col["P_G_sell_kw"],
                    dispatch={i: col[f"P_B_{i}_kw"] for i in ids},
                    energy={i: col[f"E_{i}_kwh"] for i in ids})


def schedule_cost(day: Day, sched: Schedule) -> float:
    """Cost of the schedule's grid exchange at the tariff."""
    return float(np.sum((day.buy * sched.buy - day.sell * sched.sell) * day.dt))


def schedule_faults(day: Day, sched: Schedule, balance_tol: float | None,
                    energy: bool = True) -> list[str]:
    """Everything wrong with a schedule: rate boxes and grid limit always; the
    stored-energy window unless energy is False; power balance within
    balance_tol unless that is None."""
    t = day.horizon
    arrays = [sched.buy, sched.sell, *sched.dispatch.values()]
    if any(np.shape(a) != (t,) for a in arrays):
        return [f"schedule does not span {t} steps"]
    if not all(np.isfinite(a).all() for a in arrays):
        return ["schedule has non-finite entries"]
    faults = []
    for name, flow in (("buy", sched.buy), ("sell", sched.sell)):
        if flow.min() < -BOX_TOL or flow.max() > day.grid_max + BOX_TOL:
            faults.append(f"grid {name} outside [0, {day.grid_max}] kW")
    batteries = day.batteries
    if set(sched.dispatch) != set(batteries):
        return faults + [f"devices {sorted(sched.dispatch)} != batteries {sorted(batteries)}"]
    residual = sched.buy - sched.sell - day.net
    for i, bat in batteries.items():
        p = sched.dispatch[i]
        residual = residual + p
        if p.min() < -bat.charge_max - BOX_TOL or p.max() > bat.discharge_max + BOX_TOL:
            faults.append(f"battery {i}: dispatch outside its rate box")
        stored = bat.e0 - np.cumsum(p) * day.dt
        if energy and (stored.min() < bat.emin - BOX_TOL or stored.max() > bat.emax + BOX_TOL):
            faults.append(f"battery {i}: stored energy leaves [{bat.emin}, {bat.emax}] kWh")
        if sched.energy is not None and not np.allclose(sched.energy[i], stored,
                                                        rtol=0.0, atol=1e-9):
            faults.append(f"battery {i}: written energy column disagrees with dispatch")
    worst = float(np.abs(residual).max())
    if balance_tol is not None and worst > balance_tol:
        faults.append(f"power balance off by {worst:.3e} kW (limit {balance_tol:g})")
    return faults


def cost_fault(what: str, value: float, reference: float,
               rel_tol: float = REL_TOL) -> list[str]:
    """A one-element fault list when value differs from reference beyond rel_tol."""
    if abs(value - reference) > rel_tol * max(1.0, abs(reference)):
        return [f"{what} = {value!r}, reference {reference!r} (rel tol {rel_tol:g})"]
    return []


# --- cost allocation ------------------------------------------------------------


@dataclass
class Allocation:
    j: float                        # social cost the split divides
    selfish: dict[int, float]       # D_i as reported
    allocated: dict[int, float]     # J_i as reported


def read_allocation(costs_csv: str | Path, report_json: str | Path) -> Allocation:
    with open(costs_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads(Path(report_json).read_text())
    return Allocation(j=float(report["j"]),
                      selfish={int(r["agent"]): float(r["D"]) for r in rows},
                      allocated={int(r["agent"]): float(r["J_alloc"]) for r in rows})


def allocation_faults(day: Day, alloc: Allocation, j_ref: float,
                      d_ref: dict[int, float], saving_tol: float) -> list[str]:
    """Check an equal-savings split against the reference J and D_i.

    Every saving D_i - J_i must lie within saving_tol of the equal saving
    (sum(D) - J) / r, the shares must add up to J within the same tolerance,
    and nobody may pay more than stand-alone.
    """
    ids = [u.id for u in day.users]
    if sorted(alloc.selfish) != ids or sorted(alloc.allocated) != ids:
        return [f"allocation covers {sorted(alloc.allocated)}, users are {ids}"]
    faults = cost_fault("J", alloc.j, j_ref)
    for i in ids:
        faults += cost_fault(f"D_{i}", alloc.selfish[i], d_ref[i])
        if alloc.allocated[i] > alloc.selfish[i] + saving_tol:
            faults.append(f"user {i} pays {alloc.allocated[i]!r} above stand-alone "
                          f"{alloc.selfish[i]!r}")
    equal = (sum(alloc.selfish.values()) - alloc.j) / len(ids)
    worst = max(abs(alloc.selfish[i] - alloc.allocated[i] - equal) for i in ids)
    if worst > saving_tol:
        faults.append(f"a saving is {worst:.3e} away from the equal saving {equal!r} "
                      f"(limit {saving_tol:g})")
    total = sum(alloc.allocated.values())
    if abs(total - alloc.j) > saving_tol:
        faults.append(f"shares add up to {total!r}, J is {alloc.j!r}")
    return faults
