"""Distributed day-ahead scheduling over the communication graph.

Every bus runs the same round against nothing but its own data and its
neighbors' estimates: a projected gradient step on its own decision
variables, priced by its estimates of the shadow price and the system
imbalance; a multiplier step for its own stored-energy box; and one
consensus exchange that mixes the neighbors' estimates, feeds in the change
of its own imbalance (dynamic average tracking), and walks the price
estimate by an integral term until imbalance dies out.

A round runs every bus at once, as two products with matrices built once,
over one state of rows [x; lam_hat; dp_hat; own; cost]: every bus's decision
variables and estimates, its supply route.T @ x as the estimates last saw it,
and the rows buy dt and -sell dt.  [I | xi1 [route | rho route] | 0 | -xi1_grid
on cost] steps x by the price its bus's estimates put on it, less the tariff.
[[W, xi3 I, 0], [0, W, I]] mixes [lam_hat; dp_hat; own]: W is Metropolis, so
each bus adds w_ij * (x_j - x_i) over its neighbors and W's sparsity pattern
is the graph; xi3 I adds a bus's own imbalance estimate to its own price; and
I adds its last supply to its imbalance estimate, which then sheds the new
one.  The imbalance estimates always sum to the true system imbalance, so
driving them to zero balances the system.

Rounds run a chunk at a time, in `CodesState.run_chunk` only, into a history
buffer of CHUNK + 1 states whose row 0 is the current one between chunks.  The
trace and the stop test read a chunk at once: a few reductions, not a few a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .centralized import PowerSchedule, net_exchange, schedule_cost
from .scenario import ROLE_ACTIVE, ROLE_GRID, CodesConfig, Scenario

CHUNK = 32   # rounds between two reads of the trace; the history buffer holds CHUNK + 1


class CodesState:
    """Every bus's state, its recent rounds, and the fixed matrices of a round.

    `hist`, (CHUNK + 1, R, T), holds one state a row, its parts named by views:
    `xs`, grid buy, grid sell, then one dispatch row per battery, in boxes `lo`,
    `hi` of its shape; `ests`, lam_hat over dp_hat rows in `graph.node_ids` order;
    `owns`; and the grid rows of `tariff`.  `primal` and `mix` are the round's
    products, `route_t` maps x to each bus's supply (+1 buy and dispatch, -1 sell)
    and `mu` is [mu1 | mu2].  `drain`, dt [-U | U] (U upper triangular ones) times
    xi2 beside times rho, maps dispatch to the scaled energy slacks, and `push`,
    xi1_desd dt [-U | U].T, their pressure back.

    A chunk's round k reads row k and writes row k + 1 in place, and the chunk
    ends by copying its last row to row 0: the buffer never grows, and a view
    names a row, so copy one to keep it.  As `own` is the supply the estimates
    last saw, a round feeds them its change, a move made to `x` between rounds too.
    """

    x = property(lambda self: self.xs[0])
    est = property(lambda self: self.ests[0])
    p_buy = property(lambda self: self.x[0])
    p_sell = property(lambda self: self.x[1])
    p_desd = property(lambda self: self.x[2:])
    lam_hat = property(lambda self: self.est[:len(self.base)])    # price estimates
    dp_hat = property(lambda self: self.est[len(self.base):])     # imbalance estimates
    dp_local = property(lambda self: self.base - self.owns[0])    # each bus's own imbalance
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
        self.lo, self.hi = np.repeat(boxes.T[3:, :, None], t, axis=2)   # a clip broadcasts nothing
        box = np.repeat(boxes[2:, :2] - boxes[2:, [2, 0]], t, axis=1)   # e0 - emax, emin - e0
        drain = (np.arange(t)[:, None] <= np.arange(2 * t) % t) * np.repeat((-dt, dt), t)
        self.push = config.xi1_desd * drain.T
        self.drain, self.box = (np.hstack((config.xi2 * a, config.rho * a)) for a in (drain, box))
        self.route_t = np.eye(n)[:, [grid_row, grid_row, *active_rows]] * ([1, -1] + [1] * (rows - 2))
        xi1 = np.array([config.xi1_grid] * 2 + [config.xi1_desd] * (rows - 2))[:, None]
        price = xi1 * np.hstack((self.route_t.T, config.rho * self.route_t.T))
        self.primal = np.hstack((np.eye(rows), price, np.zeros((rows, n)), -xi1 * np.eye(rows, 2)))
        self.mix = np.zeros((2 * n, 3 * n))
        self.mix[:n, :n] = self.mix[n:, n:2 * n] = scenario.graph.weights
        np.fill_diagonal(self.mix[:, n:], [config.xi3] * n + [1.0] * n)
        self.tariff = np.zeros((rows, t))
        self.tariff[:2] = np.array((scenario.tariff.buy, scenario.tariff.sell)) * [[dt], [-dt]]
        # each bus's demand net of renewables (passive and grid buses have none);
        # less its own supply `route.T @ x`, it is what the bus asks of the rest
        flat = chain.from_iterable(a.demand_kw + a.renewable_kw for a in agents)
        self.base = np.subtract(*np.fromiter(flat, float, 2 * n * t).reshape(n, 2, t).swapaxes(0, 1))
        self.t, self.mu = t, np.zeros((rows - 2, 2 * t))
        h = self.hist = np.zeros((CHUNK + 1, rows + 3 * n + 2, t))
        self.xs, self.ests, self.owns = h[:, :rows], h[:, rows:-n - 2], h[:, -n - 2:-2]
        h[:, -2:] = self.tariff[:2]
        # each round's views, made once: the state it reads, then the parts it writes
        self.row_views = list(zip(h, self.xs[1:], self.xs[1:, 2:], h[:, rows:-2], self.ests[1:],
                                  self.owns[1:], self.ests[1:, n:]))
        self.ests[0, n:] = self.base   # each bus's own imbalance: their sum is the true one
        self.refresh_slacks()

    def refresh_slacks(self, row: int = 0) -> None:
        """Set `slack`, xi2 then rho times each energy box's signed overshoot at
        history row `row` (positive when violated, so the multipliers relax once
        the box stops binding: no boundary chatter), and from it and `mu`, the
        boxes' `pressure` on dispatch next round.  Call after moving `p_desd`."""
        self.slack = np.dot(self.xs[row, 2:], self.drain) + self.box
        self.pressure = np.dot(np.maximum(self.mu + self.slack[:, 2 * self.t:], 0.0), self.push)

    def run_chunk(self, rounds: int) -> np.ndarray:
        """Run `rounds` <= CHUNK synchronous rounds of every bus from row 0 into
        history rows 1 to `rounds`, copy the last back to row 0, and return the
        rounds' trace rows, as `run_codes` records them."""
        mu, slack, tt = self.mu, self.slack, 2 * self.t
        xi2_slack, rho_slack = slack[:, :tt], slack[:, tt:]
        for state, new_x, new_p, feed, new_est, own, new_dp in self.row_views[:rounds]:
            np.dot(self.primal, state, out=new_x)
            # a step's dispatch shifts every later stored energy: box pressure sums backwards
            new_p -= self.pressure
            np.maximum(new_x, self.lo, out=new_x)
            np.minimum(new_x, self.hi, out=new_x)
            np.dot(self.mix, feed, out=new_est)
            np.dot(self.route_t, new_x, out=own)
            new_dp -= own
            np.dot(new_p, self.drain, out=slack)
            slack += self.box
            np.maximum(mu + xi2_slack, 0.0, out=mu)
            self.pressure = np.dot(np.maximum(mu + rho_slack, 0.0), self.push)
        run, previous = self.xs[1:rounds + 1], self.xs[:rounds]
        # bus-major, so that the spread over buses reduces over whole rows
        dp = np.ascontiguousarray(self.ests[1:rounds + 1, len(self.base):].swapaxes(0, 1))
        # the buses' own imbalances sum to the true one: total demand less supply
        imbalance = self.base.sum(axis=0) - self.route_t.sum(axis=0) @ run
        trace = np.column_stack(((run[:, :2] * self.tariff[:2]).sum(axis=(1, 2)),
                                 abs(imbalance).max(axis=1),
                                 (dp.max(axis=0) - dp.min(axis=0)).max(axis=1),
                                 abs(run - previous).max(axis=(1, 2))))
        self.hist[0] = self.hist[rounds]
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

    schedule = PowerSchedule(*net_exchange(final[0], final[1]),   # grid buy and sell
                             desd_power_kw={i: p.copy() for i, p in zip(state.active_ids, final[2:])})
    return CodesResult(schedule=schedule, j=schedule_cost(scenario, schedule),
                       status=status, config=config, trace=trace)
