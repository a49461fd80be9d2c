"""Distributed day-ahead scheduling over the communication graph.

Every bus runs the same round against nothing but its own data and its
neighbors' estimates: a projected gradient step on its own decision
variables, priced by its estimates of the shadow price and the system
imbalance; a multiplier step for its own stored-energy box; and one
consensus exchange that mixes the neighbors' estimates, feeds in the change
of its own imbalance (dynamic average tracking), and walks the price
estimate by an integral term until imbalance dies out.

The buses are the rows of stacked arrays in `graph.node_ids` order, and the
exchange is one Metropolis mix `X <- W @ X`.  With w_ii = 1 - sum_j w_ij this
is each bus adding w_ij * (x_j - x_i) over its neighbors; w_ij is zero off
the edges, so W's sparsity pattern is the graph.  The imbalance estimates
always sum to the true system imbalance, so driving them to zero balances
the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
    """Every bus's iterate, stacked one row per bus in `graph.node_ids` order.

    Grid exchange is (T,) arrays; storage dispatch and its energy-box
    multipliers are (n_active, T) arrays; estimates are (n_bus, T) arrays.
    """

    def __init__(self, scenario: Scenario, config: CodesConfig):
        agents = [scenario.agent(i) for i in scenario.graph.node_ids]
        self.grid_row = next(k for k, a in enumerate(agents) if a.role == ROLE_GRID)
        self.active_rows = np.flatnonzero([a.role == ROLE_ACTIVE for a in agents])
        self.active_ids = [agents[k].id for k in self.active_rows]
        desds = [agents[k].desd for k in self.active_rows]
        boxes = np.array([(d.e0_kwh, d.emin_kwh, d.emax_kwh, -d.p_charge_max_kw,
                           d.p_discharge_max_kw) for d in desds])
        self.e0, self.emin, self.emax, self.p_lo, self.p_hi = boxes.reshape(-1, 5).T[:, :, None]
        t, n_active = scenario.horizon, len(self.active_rows)
        self.config = config
        self.weights = scenario.graph.weights
        self.dt = scenario.dt_hours
        self.p_grid_max = scenario.p_grid_max_kw
        self.buy_price = np.array(scenario.tariff.buy) * self.dt
        self.sell_price = np.array(scenario.tariff.sell) * self.dt
        # what each bus asks for before any dispatch; passive and grid buses
        # carry no renewables, so demand minus renewables fits every role
        self.base = np.array([np.array(a.demand_kw) - np.array(a.renewable_kw) for a in agents])
        self.p_buy, self.p_sell = np.zeros(t), np.zeros(t)
        self.p_desd = np.zeros((n_active, t))
        self.mu1 = np.zeros((n_active, t))           # stored energy above emax
        self.mu2 = np.zeros((n_active, t))           # stored energy below emin
        self.lam_hat = np.zeros((len(agents), t))    # price estimates
        # imbalance estimates start at each bus's own imbalance, which
        # anchors their sum to the true total for the rest of the run
        self.dp_local = self.local_imbalance()
        self.dp_hat = self.dp_local.copy()

    def local_imbalance(self) -> np.ndarray:
        """What each bus asks from the rest of the system: demand net of own
        supply, and for the grid bus minus its net injection."""
        out = self.base.copy()
        out[self.grid_row] -= self.p_buy - self.p_sell
        out[self.active_rows] -= self.p_desd
        return out

    def energy_slacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Signed overshoot of each stored-energy box per step, in kWh.

        Positive means violated.  Keeping the sign lets the multipliers relax
        once the box stops binding, which kills boundary chatter."""
        drained = np.cumsum(self.p_desd, axis=1) * self.dt
        return self.e0 - drained - self.emax, self.emin - self.e0 + drained

    def advance(self) -> float:
        """One synchronous round of every bus; returns the largest primal move."""
        cfg = self.config
        price = self.lam_hat + cfg.rho * self.dp_hat
        grid_price = price[self.grid_row]
        new_buy = np.clip(self.p_buy - cfg.xi1_grid * (self.buy_price - grid_price),
                          0.0, self.p_grid_max)
        new_sell = np.clip(self.p_sell - cfg.xi1_grid * (-self.sell_price + grid_price),
                           0.0, self.p_grid_max)
        over_full, over_empty = self.energy_slacks()
        # each step's dispatch shifts every later stored-energy level, so the
        # box pressure accumulates from the end of the horizon backwards
        pressure = (-np.maximum(self.mu1 + cfg.rho * over_full, 0.0)
                    + np.maximum(self.mu2 + cfg.rho * over_empty, 0.0))
        tail = np.cumsum(pressure[:, ::-1], axis=1)[:, ::-1]
        grad = -price[self.active_rows] + self.dt * tail
        new_p = np.clip(self.p_desd - cfg.xi1_desd * grad, self.p_lo, self.p_hi)
        moved = max(np.abs(new_buy - self.p_buy).max(), np.abs(new_sell - self.p_sell).max(),
                    np.abs(new_p - self.p_desd).max(initial=0.0))
        self.p_buy, self.p_sell, self.p_desd = new_buy, new_sell, new_p

        over_full, over_empty = self.energy_slacks()
        self.mu1 = np.maximum(self.mu1 + cfg.xi2 * over_full, 0.0)
        self.mu2 = np.maximum(self.mu2 + cfg.xi2 * over_empty, 0.0)

        fresh = self.local_imbalance()
        self.lam_hat = self.weights @ self.lam_hat + cfg.xi3 * self.dp_hat
        self.dp_hat = self.weights @ self.dp_hat + fresh - self.dp_local
        self.dp_local = fresh
        return float(moved)


@dataclass
class ConvergenceTrace:
    j_est: list[float] = field(default_factory=list)
    max_imbalance_kw: list[float] = field(default_factory=list)
    consensus_disagreement: list[float] = field(default_factory=list)
    primal_step_norm: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.j_est)

    def rows(self):
        for k in range(len(self)):
            yield (k, self.j_est[k], self.max_imbalance_kw[k],
                   self.consensus_disagreement[k], self.primal_step_norm[k])


@dataclass
class CodesResult:
    schedule: PowerSchedule
    j: float
    iterations: int
    converged: bool
    trace: ConvergenceTrace


def run_codes(scenario: Scenario, config: CodesConfig | None = None) -> CodesResult:
    """Iterate the distributed scheme until balance and primal rest, or give up.

    Never raises on non-convergence: the partial schedule and the full trace
    come back with converged=False so the caller can diagnose.
    """
    if config is None:
        config = CodesConfig.from_scenario(scenario)
    state = CodesState(scenario, config)
    trace = ConvergenceTrace()
    for _ in range(config.max_iters):
        step_norm = state.advance()
        max_imbalance = float(np.abs(state.dp_local.sum(axis=0)).max())
        trace.j_est.append(float(state.buy_price @ state.p_buy - state.sell_price @ state.p_sell))
        trace.max_imbalance_kw.append(max_imbalance)
        trace.consensus_disagreement.append(float(np.ptp(state.dp_hat, axis=0).max()))
        trace.primal_step_norm.append(step_norm)
        converged = max_imbalance < config.tol_balance_kw and step_norm < config.tol_step
        if converged:
            break

    buy, sell = net_exchange(state.p_buy, state.p_sell)
    schedule = PowerSchedule(
        grid_buy_kw=buy, grid_sell_kw=sell, dt_hours=scenario.dt_hours,
        desd_power_kw={i: p.copy() for i, p in zip(state.active_ids, state.p_desd)})
    return CodesResult(schedule=schedule, j=schedule_cost(schedule, scenario.tariff),
                       iterations=len(trace), converged=converged, trace=trace)
