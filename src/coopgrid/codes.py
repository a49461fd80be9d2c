"""Distributed day-ahead scheduling over the communication graph.

Every bus runs the same round against nothing but its own data and its
neighbors' estimates: a projected gradient step on its own decision
variables, priced by its estimates of the shadow price and the system
imbalance; a multiplier step for its own stored-energy box; and one
consensus exchange that mixes the neighbors' estimates, feeds in the change
of its own imbalance (dynamic average tracking), and walks the price
estimate by an integral term until imbalance dies out.

A round runs every bus at once: all buses' decision variables form one
primal block, and their estimates one (n_bus, 2T) array [lam_hat | dp_hat]
mixed by one Metropolis product `W @ est`.  With w_ii = 1 - sum_j w_ij this
is each bus adding w_ij * (x_j - x_i) over its neighbors; w_ij is zero off
the edges, so W's sparsity pattern is the graph.  The imbalance estimates
always sum to the true system imbalance, so driving them to zero balances
the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .centralized import PowerSchedule, net_exchange, schedule_cost
from .scenario import ROLE_ACTIVE, ROLE_GRID, Scenario


@dataclass
class CodesConfig:
    rho: float = 0.5            # quadratic penalty weight
    xi1_grid: float = 5e-3      # primal step, grid exchange block
    xi1_desd: float = 5e-3      # primal step, storage blocks
    xi2: float = 5e-2           # multiplier step for the energy box
    xi3: float = 0.1            # integral gain on the price estimate
    max_iters: int = 20000
    tol_balance_kw: float = 1e-3
    tol_step: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.max_iters) and self.max_iters == int(self.max_iters) >= 1):
            raise ValueError(f"codes.max_iters must be an integer >= 1, got {self.max_iters!r}")
        self.max_iters = int(self.max_iters)
        for name in ("rho", "xi1_grid", "xi1_desd", "xi2", "xi3", "tol_balance_kw", "tol_step"):
            value, tolerance = getattr(self, name), name.startswith("tol_")
            if not (math.isfinite(value) and (value >= 0 if tolerance else value > 0)):
                raise ValueError(f"codes.{name} must be finite and "
                                 f"{'nonnegative' if tolerance else 'positive'}, got {value!r}")

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "CodesConfig":
        """Defaults overridden by the scenario's own solver settings, if any."""
        known = {f.name for f in fields(cls)}
        for key, _ in scenario.codes:
            if key not in known:
                raise ValueError(f"unknown solver setting {key!r} in scenario")
        return cls(**dict(scenario.codes))


class CodesState:
    """Every bus's iterate.

    `x` is the primal block, (2 + n_active, T): grid buy, grid sell, then one
    dispatch row per battery, with column-vector boxes `lo`, `hi` and steps
    `xi1`.  `route` ties each row to its bus (+1 buy and dispatch, -1 sell):
    `route @ price` prices the rows, `route.T @ x` is each bus's own supply.
    `est` is (n_bus, 2T), [lam_hat | dp_hat], rows in `graph.node_ids` order;
    `mu` is (2, n_active, T), [mu1, mu2].  The named parts are views.
    """

    p_buy = property(lambda self: self.x[0])
    p_sell = property(lambda self: self.x[1])
    p_desd = property(lambda self: self.x[2:])
    lam_hat = property(lambda self: self.est[:, :self.t])    # price estimates
    dp_hat = property(lambda self: self.est[:, self.t:])     # imbalance estimates
    mu1 = property(lambda self: self.mu[0])                  # stored energy above emax
    mu2 = property(lambda self: self.mu[1])                  # stored energy below emin

    def __init__(self, scenario: Scenario, config: CodesConfig):
        agents = scenario.agents   # graph.node_ids order: both are sorted by id
        grid_row = next(k for k, a in enumerate(agents) if a.role == ROLE_GRID)
        active_rows = np.flatnonzero([a.role == ROLE_ACTIVE for a in agents])
        self.active_ids = [agents[k].id for k in active_rows]
        self.config, self.weights, self.dt = config, scenario.graph.weights, scenario.dt_hours
        self.t = t = scenario.horizon
        # per row of x: stored-energy box (none on the grid rows) and power box
        boxes = np.array([(0.0, 0.0, 0.0, 0.0, scenario.p_grid_max_kw)] * 2 + [
            (d.e0_kwh, d.emin_kwh, d.emax_kwh, -d.p_charge_max_kw, d.p_discharge_max_kw)
            for d in (agents[k].desd for k in active_rows)])
        e0, emin, emax, self.lo, self.hi = boxes.T[:, :, None]
        self.xi1 = np.array([config.xi1_grid] * 2 + [config.xi1_desd] * len(active_rows))[:, None]
        self.box = np.stack((e0 - emax, emin - e0))[:, 2:]   # the slacks before any drain
        self.drain_dt = np.array([-1.0, 1.0])[:, None, None] * self.dt
        bus = np.eye(len(agents))
        self.route = np.vstack((bus[grid_row], -bus[grid_row], bus[active_rows]))
        # the gradient's fixed part: what a kW bought costs, or sold earns, per step
        tariff = np.array((scenario.tariff.buy, scenario.tariff.sell)) * [[self.dt], [-self.dt]]
        self.tariff = np.vstack((tariff, np.zeros((len(active_rows), t))))
        # each bus's demand net of renewables (passive and grid buses have none);
        # less its own supply `route.T @ x`, it is what the bus asks of the rest
        self.base = np.array([np.array(a.demand_kw) - np.array(a.renewable_kw) for a in agents])
        self.x, self.mu = np.zeros_like(self.tariff), np.zeros((2, len(active_rows), t))
        self.est = np.zeros((len(agents), 2 * t))
        self.refresh_slacks()
        # imbalance estimates start at each bus's own imbalance, which
        # anchors their sum to the true total for the rest of the run
        self.dp_local = self.base.copy()
        self.dp_hat[:] = self.dp_local

    def refresh_slacks(self) -> None:
        """`slack`, (2, n_active, T): signed overshoot of each stored-energy
        box per step, in kWh, above emax and below emin.  Positive means
        violated; keeping the sign lets the multipliers relax once the box
        stops binding, which kills boundary chatter.  A round leaves its new
        dispatch's slacks behind, so call this after moving `p_desd` by hand."""
        self.slack = self.box + self.drain_dt * np.add.accumulate(self.x[2:], axis=1)

    def advance(self) -> float:
        """One synchronous round of every bus; returns the largest primal move."""
        cfg, x, est, t = self.config, self.x, self.est, self.t
        price = est[:, :t] + cfg.rho * est[:, t:]
        grad = self.tariff - self.route @ price
        # each step's dispatch shifts every later stored-energy level, so the
        # box pressure accumulates from the end of the horizon backwards
        pressure = np.maximum(self.mu + cfg.rho * self.slack, 0.0)
        pressure = pressure[1] - pressure[0]
        grad[2:] += self.dt * np.add.accumulate(pressure[:, ::-1], axis=1)[:, ::-1]
        self.x = new_x = np.minimum(np.maximum(x - self.xi1 * grad, self.lo), self.hi)
        moved = abs(new_x - x).max()
        self.refresh_slacks()
        np.maximum(self.mu + cfg.xi2 * self.slack, 0.0, out=self.mu)
        fresh = self.base - self.route.T @ new_x
        self.est = mixed = self.weights @ est
        mixed[:, :t] += cfg.xi3 * est[:, t:]
        mixed[:, t:] += fresh - self.dp_local
        self.dp_local = fresh
        return float(moved)


@dataclass
class CodesResult:
    schedule: PowerSchedule
    j: float
    converged: bool
    trace: np.recarray

    @property
    def iterations(self) -> int:
        return len(self.trace)


def run_codes(scenario: Scenario, config: CodesConfig | None = None) -> CodesResult:
    """Iterate the distributed scheme until balance and primal rest, or give up.

    Never raises on non-convergence: the partial schedule and the full trace
    come back with converged=False so the caller can diagnose.  The trace is a
    record array, one row per round, of four fields: the round's grid bill,
    largest imbalance, imbalance-estimate disagreement and primal step.
    """
    if config is None:
        config = CodesConfig.from_scenario(scenario)
    state = CodesState(scenario, config)
    # per round: J_est, max imbalance, disagreement, step norm; grown as rounds run
    rows = np.empty((min(config.max_iters, 1024), 4))
    for k in range(config.max_iters):
        if k == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        step_norm = state.advance()
        max_imbalance = abs(state.dp_local.sum(axis=0)).max()
        dp_hat = state.dp_hat
        rows[k] = (np.vdot(state.tariff[:2], state.x[:2]), max_imbalance,
                   (dp_hat.max(axis=0) - dp_hat.min(axis=0)).max(), step_norm)
        converged = bool(max_imbalance < config.tol_balance_kw and step_norm < config.tol_step)
        if converged:
            break
    trace = np.rec.fromarrays(rows[:k + 1].T, names=(
        "j_est", "max_imbalance_kw", "consensus_disagreement", "primal_step_norm"))

    buy, sell = net_exchange(state.p_buy, state.p_sell)
    schedule = PowerSchedule(
        grid_buy_kw=buy, grid_sell_kw=sell,
        desd_power_kw={i: p.copy() for i, p in zip(state.active_ids, state.p_desd)})
    return CodesResult(schedule=schedule, j=schedule_cost(scenario, schedule),
                       converged=converged, trace=trace)
