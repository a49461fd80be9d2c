"""Distributed day-ahead scheduling over the communication graph.

Every bus runs the same round against nothing but its own data and its
neighbors' estimates: a projected gradient step on its own decision
variables, priced by its estimates of the shadow price and the system
imbalance; a multiplier step for its own stored-energy box; and one
consensus exchange that mixes the neighbors' estimates, feeds in the change
of its own imbalance (dynamic average tracking), and walks the price
estimate by an integral term until imbalance dies out.

A round runs every bus at once, as a few products with matrices built once.
All buses' decision variables form one primal block, and their estimates one
(2 n_bus, T) array, lam_hat rows over dp_hat rows, mixed by [[W, xi3 I], [0, W]]:
W is Metropolis, so each bus adds w_ij * (x_j - x_i) over its neighbors and
W's sparsity pattern is the graph, and xi3 I adds a bus's own imbalance estimate
to its own price.  The imbalance estimates always sum to the true system
imbalance, so driving them to zero balances the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain

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
    """Every bus's iterate, and the fixed matrices that advance it.

    `x` is the primal block, (2 + n_active, T): grid buy, grid sell, then one
    dispatch row per battery, in column-vector boxes `lo`, `hi`; `route` ties
    each row to its bus (+1 buy and dispatch, -1 sell).  `est` is (2 n_bus, T),
    lam_hat rows over dp_hat rows in `graph.node_ids` order, and `mix` is
    [[W, xi3 I], [0, W]]; `price`, xi1 [route | rho route], steps each row by its
    bus's price.  `mu` is (n_active, 2T), [mu1 | mu2]; `drain`, dt [-U | U] with
    U upper triangular ones, maps dispatch to the energy slacks and `push`,
    xi1_desd drain.T, their pressure back.  The named parts are views.
    """

    p_buy = property(lambda self: self.x[0])
    p_sell = property(lambda self: self.x[1])
    p_desd = property(lambda self: self.x[2:])
    lam_hat = property(lambda self: self.est[:len(self.base)])    # price estimates
    dp_hat = property(lambda self: self.est[len(self.base):])     # imbalance estimates
    mu1 = property(lambda self: self.mu[:, :self.t])              # stored energy above emax
    mu2 = property(lambda self: self.mu[:, self.t:])              # stored energy below emin

    def __init__(self, scenario: Scenario, config: CodesConfig):
        agents = scenario.agents   # graph.node_ids order: both are sorted by id
        grid_row = next(k for k, a in enumerate(agents) if a.role == ROLE_GRID)
        active_rows = np.flatnonzero([a.role == ROLE_ACTIVE for a in agents])
        self.active_ids = [agents[k].id for k in active_rows]
        n, rows, t, dt = len(agents), 2 + len(active_rows), scenario.horizon, scenario.dt_hours
        # per row of x: stored-energy box (none on the grid rows) and power box
        boxes = np.array([(0.0, 0.0, 0.0, 0.0, scenario.p_grid_max_kw)] * 2 + [
            (d.e0_kwh, d.emin_kwh, d.emax_kwh, -d.p_charge_max_kw, d.p_discharge_max_kw)
            for d in (agents[k].desd for k in active_rows)])
        self.lo, self.hi = boxes.T[3:, :, None]
        self.box = np.repeat(boxes[2:, :2] - boxes[2:, [2, 0]], t, axis=1)   # e0 - emax, emin - e0
        self.drain = (np.arange(t)[:, None] <= np.arange(2 * t) % t) * np.repeat((-dt, dt), t)
        self.push = config.xi1_desd * self.drain.T
        self.route = np.eye(n)[[grid_row, grid_row, *active_rows]]
        self.route[1] *= -1.0
        xi1 = np.array([config.xi1_grid] * 2 + [config.xi1_desd] * (rows - 2))[:, None]
        self.price = xi1 * np.hstack((self.route, config.rho * self.route))
        self.mix = np.zeros((2 * n, 2 * n))
        self.mix[:n, :n] = self.mix[n:, n:] = scenario.graph.weights
        np.fill_diagonal(self.mix[:n, n:], config.xi3)
        # the gradient's fixed part: what a kW bought costs, or sold earns, per step
        self.tariff = np.zeros((rows, t))
        self.tariff[:2] = np.array((scenario.tariff.buy, scenario.tariff.sell)) * [[dt], [-dt]]
        self.step_cost = xi1 * self.tariff
        # each bus's demand net of renewables (passive and grid buses have none);
        # less its own supply `route.T @ x`, it is what the bus asks of the rest
        flat = chain.from_iterable(a.demand_kw + a.renewable_kw for a in agents)
        self.base = np.subtract(*np.fromiter(flat, float, 2 * n * t).reshape(n, 2, t).swapaxes(0, 1))
        self.config, self.t, self.x, self.mu = config, t, np.zeros((rows, t)), np.zeros((rows - 2, 2 * t))
        self.refresh_slacks()
        # imbalance estimates start at each bus's own, anchoring their sum to the true total
        self.est, self.dp_local = np.concatenate((np.zeros_like(self.base), self.base)), self.base

    def refresh_slacks(self) -> None:
        """`slack`, (n_active, 2T): signed overshoot of each stored-energy box per
        step, in kWh, above emax then below emin.  Positive means violated; the sign
        lets the multipliers relax once the box stops binding, which kills boundary
        chatter.  A round leaves its slacks behind; call this after moving `p_desd`."""
        self.slack = self.box + self.x[2:] @ self.drain

    def advance(self) -> float:
        """One synchronous round of every bus; returns the largest primal move."""
        cfg, x = self.config, self.x
        new_x = x + (self.price @ self.est - self.step_cost)
        # a step's dispatch shifts every later stored energy: box pressure sums backwards
        new_x[2:] -= np.maximum(self.mu + cfg.rho * self.slack, 0.0) @ self.push
        np.maximum(new_x, self.lo, out=new_x)
        np.minimum(new_x, self.hi, out=new_x)
        self.x = new_x
        self.refresh_slacks()
        np.maximum(self.mu + cfg.xi2 * self.slack, 0.0, out=self.mu)
        fresh = self.base - self.route.T @ new_x
        self.est = mixed = self.mix @ self.est
        mixed[len(fresh):] += fresh - self.dp_local
        self.dp_local = fresh
        return float(abs(new_x - x).max())


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
    rows = np.empty((min(config.max_iters, 1024), 4))   # one per round, grown as rounds run
    for k in range(config.max_iters):
        if k == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        step_norm = state.advance()
        max_imbalance = abs(state.dp_local.sum(axis=0)).max()
        dp_hat = state.dp_hat
        rows[k] = (np.vdot(state.tariff, state.x), max_imbalance,
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
