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

Rounds run a chunk at a time, in `CodesState.run_chunk` only.  They write
their iterates into history buffers of CHUNK + 1 rows, and the trace and the
convergence test read a whole chunk of rounds at once: a few reductions over
the buffers instead of a few per round.  Between chunks the current iterate
is row 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .centralized import PowerSchedule, net_exchange, schedule_cost
from .scenario import ROLE_ACTIVE, ROLE_GRID, CodesConfig, Scenario

CHUNK = 32   # rounds between two reads of the trace; the history buffers hold CHUNK + 1


class CodesState:
    """Every bus's iterate, its recent rounds, and the fixed matrices of a round.

    `x` is the primal block, (2 + n_active, T): grid buy, grid sell, then one
    dispatch row per battery, in column-vector boxes `lo`, `hi`; `route` ties
    each row to its bus (+1 buy and dispatch, -1 sell).  `est` is (2 n_bus, T),
    lam_hat rows over dp_hat rows in `graph.node_ids` order, and `mix` is
    [[W, xi3 I], [0, W]]; `price`, xi1 [route | rho route], steps each row by its
    bus's price.  `mu` is (n_active, 2T), [mu1 | mu2]; `drain`, dt [-U | U] with
    U upper triangular ones, maps dispatch to the energy slacks and `push`,
    xi1_desd drain.T, their pressure back.  The named parts are views.

    `x` and `est` are row 0 of the history buffers `xs`, (CHUNK + 1, 2 +
    n_active, T), and `ests`, (CHUNK + 1, 2 n_bus, T): between chunks the
    current iterate is row 0.  A chunk's round k reads row k and writes row
    k + 1 in place, and the chunk ends by copying its last row back to row 0.
    So the buffers never grow, and a view names a row: copy one to keep it.
    `dp_local` is each bus's own imbalance as the estimates last saw it, so a
    round feeds them its change, a move made to `x` between rounds included.
    """

    x = property(lambda self: self.xs[0])
    est = property(lambda self: self.ests[0])
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
        self.config, self.t, self.mu = config, t, np.zeros((rows - 2, 2 * t))
        self.xs, self.ests = np.zeros((CHUNK + 1, rows, t)), np.zeros((CHUNK + 1, 2 * n, t))
        self.refresh_slacks()
        # imbalance estimates start at each bus's own, anchoring their sum to the true total
        self.ests[0, n:] = self.dp_local = self.base

    def refresh_slacks(self, row: int = 0) -> None:
        """`slack`, (n_active, 2T): signed overshoot of each stored-energy box per
        step, in kWh, above emax then below emin, at history row `row`.  Positive
        means violated; the sign lets the multipliers relax once the box stops
        binding, which kills boundary chatter.  A chunk leaves its last round's
        slacks behind; call this after moving `p_desd`."""
        self.slack = self.box + self.xs[row, 2:] @ self.drain

    def run_chunk(self, rounds: int) -> np.ndarray:
        """Run `rounds` <= CHUNK synchronous rounds of every bus from row 0 into
        history rows 1 to `rounds`, copy the last back to row 0, and return the
        rounds' trace rows, as `run_codes` records them."""
        cfg, xs, ests = self.config, self.xs, self.ests
        for k in range(rounds):
            new_x, new_est = xs[k + 1], ests[k + 1]
            np.matmul(self.price, ests[k], out=new_x)
            new_x -= self.step_cost
            new_x += xs[k]
            # a step's dispatch shifts every later stored energy: box pressure sums backwards
            new_x[2:] -= np.maximum(self.mu + cfg.rho * self.slack, 0.0) @ self.push
            np.maximum(new_x, self.lo, out=new_x)
            np.minimum(new_x, self.hi, out=new_x)
            self.refresh_slacks(k + 1)
            np.maximum(self.mu + cfg.xi2 * self.slack, 0.0, out=self.mu)
            np.matmul(self.mix, ests[k], out=new_est)
            fresh = self.base - self.route.T @ new_x
            new_est[len(fresh):] += fresh - self.dp_local
            self.dp_local = fresh
        run = xs[1:rounds + 1]
        # bus-major, so that the spread over buses reduces over whole rows
        dp = np.ascontiguousarray(ests[1:rounds + 1, len(self.base):].swapaxes(0, 1))
        # the buses' own imbalances sum to the true one: total demand less supply
        imbalance = self.base.sum(axis=0) - self.route.sum(axis=1) @ run
        trace = np.column_stack(((run[:, :2] * self.tariff[:2]).sum(axis=(1, 2)),
                                 abs(imbalance).max(axis=1),
                                 (dp.max(axis=0) - dp.min(axis=0)).max(axis=1),
                                 abs(run - xs[:rounds]).max(axis=(1, 2))))
        xs[0], ests[0] = xs[rounds], ests[rounds]
        return trace


@dataclass
class CodesResult:
    schedule: PowerSchedule
    j: float
    status: str             # how the run stopped: "converged", "iteration-cap" or "diverged"
    config: CodesConfig     # the settings it ran with
    trace: np.recarray

    converged = property(lambda self: self.status == "converged")
    iterations = property(lambda self: len(self.trace))


def run_codes(scenario: Scenario, config: CodesConfig | None = None) -> CodesResult:
    """Iterate the distributed scheme until balance and primal rest, or give up.

    Never raises on non-convergence: the partial schedule and the full trace
    come back so the caller can diagnose.  The trace is a record array, one
    row per round: the round's grid bill, largest imbalance, imbalance-estimate
    disagreement and primal step.  `status` says how the run stopped: the first
    round that passes the test ("converged") or goes non-finite ("diverged")
    ends it with its own schedule, dropping the rest of its chunk; or else
    `max_iters` rounds ran ("iteration-cap").
    """
    config = config or scenario.codes
    state, chunks, left = CodesState(scenario, config), [], config.max_iters
    while left:
        rows = state.run_chunk(min(CHUNK, left))
        left -= len(rows)
        passed = (rows[:, 1] < config.tol_balance_kw) & (rows[:, 3] < config.tol_step)
        stop = np.flatnonzero(passed | ~np.isfinite(rows).all(axis=1))
        if stop.size:
            chunks.append(rows[:stop[0] + 1])
            status = "converged" if passed[stop[0]] else "diverged"
            final = state.xs[stop[0] + 1]    # the chunk moved only its last round to row 0
            break
        chunks.append(rows)
    else:
        status, final = "iteration-cap", state.x
    # one copy of the rounds, its columns named by a structured view
    names = ("j_est", "max_imbalance_kw", "consensus_disagreement", "primal_step_norm")
    trace = np.concatenate(chunks).view([(n, float) for n in names])[:, 0].view(np.recarray)

    buy, sell = net_exchange(final[0], final[1])
    schedule = PowerSchedule(
        grid_buy_kw=buy, grid_sell_kw=sell,
        desd_power_kw={i: p.copy() for i, p in zip(state.active_ids, final[2:])})
    return CodesResult(schedule=schedule, j=schedule_cost(scenario, schedule),
                       status=status, config=config, trace=trace)
