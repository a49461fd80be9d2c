"""Exhaustive reference solvers used to validate the fast ones.

Nothing here is clever: every routine enumerates or discretises the whole
search space and is intended for small instances inside the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from coopgrid.lp import LinearProgram, LpSolution, check_feasible

_CHUNK = 65536


def _solved(mats: np.ndarray, xs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Which of the systems mats @ x = rhs (stacked on the leading axes) their
    x solves, to 1e-9 relative to the right-hand side."""
    resid = np.abs((mats @ xs[..., None])[..., 0] - rhs).max(axis=-1, initial=0.0)
    return resid <= 1e-9 * (1.0 + np.abs(rhs).max(axis=-1, initial=0.0))


def enumerate_lp_vertices(lp: LinearProgram, feas_tol: float = 1e-9,
                          max_bases: int = 200_000) -> LpSolution:
    """Minimise by enumerating basic solutions (candidate vertices).

    Every square system formed by a linearly independent subset of the
    equality rows that spans them all, plus a choice of active
    inequality/bound rows (never both bound rows of one variable), is
    solved; candidates feasible within feas_tol (row-scaled) compete on
    objective value.  Returns status 'optimal' with the best vertex, or
    'infeasible' when the equality rows contradict each other or no
    candidate passes.

    Only valid when the feasible region is bounded (e.g. every variable
    carries a finite box): an unbounded improving ray has no optimal vertex
    and is not detected here.
    """
    n = lp.n_vars
    gs, hs = [], []
    # the variable a bound row bounds, -1 for an inequality row
    row_var = [np.full(lp.a_ub.shape[0], -1)]
    if lp.a_ub.shape[0]:
        gs.append(lp.a_ub)
        hs.append(lp.b_ub)
    fin = np.flatnonzero(np.isfinite(lp.upper))
    if fin.size:
        rows = np.zeros((fin.size, n))
        rows[np.arange(fin.size), fin] = 1.0
        gs.append(rows)
        hs.append(lp.upper[fin])
        row_var.append(fin)
    fin = np.flatnonzero(np.isfinite(lp.lower))
    if fin.size:
        rows = np.zeros((fin.size, n))
        rows[np.arange(fin.size), fin] = -1.0
        gs.append(rows)
        hs.append(-lp.lower[fin])
        row_var.append(fin)
    g = np.vstack(gs) if gs else np.zeros((0, n))
    h = np.concatenate(hs) if hs else np.zeros(0)
    row_var = np.concatenate(row_var)

    # the free dimensions are n minus the rank of a_eq, not minus its row count
    keep: list[int] = []
    for i in range(lp.a_eq.shape[0]):
        if np.linalg.matrix_rank(lp.a_eq[keep + [i]]) > len(keep):
            keep.append(i)
    a_eq, b_eq = lp.a_eq[keep], lp.b_eq[keep]
    x, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    if not _solved(lp.a_eq, x, lp.b_eq):
        return LpSolution("infeasible", None, None)   # the equality rows contradict
    m_eq = len(keep)
    k = n - m_eq
    candidates: list[np.ndarray] = []   # blocks of candidate points, one per row
    if k == 0:
        candidates.append(x[None])   # the equality block alone pins the point
    elif k > g.shape[0]:
        pass   # not enough rows to pin a vertex; boxed problems never hit this
    else:
        combos = itertools.combinations(range(g.shape[0]), k)
        idx_all = np.array(list(combos))
        if idx_all.shape[0] > max_bases:
            raise ValueError(f"{idx_all.shape[0]} candidate bases exceeds max_bases={max_bases}")
        # both bound rows of one variable are parallel: such a system is
        # singular, and every vertex has a nonsingular basis without it
        var = np.sort(row_var[idx_all], axis=1)
        idx_all = idx_all[~((var[:, 1:] == var[:, :-1]) & (var[:, 1:] >= 0)).any(axis=1)]
        for lo in range(0, idx_all.shape[0], _CHUNK):
            idx = idx_all[lo:lo + _CHUNK]
            mats = np.empty((idx.shape[0], n, n))
            rhs = np.empty((idx.shape[0], n))
            if m_eq:
                mats[:, :m_eq, :] = a_eq
                rhs[:, :m_eq] = b_eq
            mats[:, m_eq:, :] = g[idx]
            rhs[:, m_eq:] = h[idx]
            # Hadamard bound makes the determinant cutoff scale-free
            rownorm = np.maximum(np.linalg.norm(mats, axis=2), 1e-300)
            nonsingular = np.abs(np.linalg.det(mats)) > 1e-10 * rownorm.prod(axis=1)
            if nonsingular.any():
                try:
                    sols = np.linalg.solve(mats[nonsingular], rhs[nonsingular][..., None])[..., 0]
                    candidates.append(sols)
                except np.linalg.LinAlgError:
                    for i in np.flatnonzero(nonsingular):
                        try:
                            candidates.append(np.linalg.solve(mats[i], rhs[i])[None])
                        except np.linalg.LinAlgError:
                            pass
            if not nonsingular.all():
                # singular but consistent systems still describe candidate
                # points: their least-squares solutions, all in one batch
                mats, rhs = mats[~nonsingular], rhs[~nonsingular]
                xs = (np.linalg.pinv(mats, n * np.finfo(float).eps) @ rhs[..., None])[..., 0]
                candidates.append(xs[_solved(mats, xs, rhs)])

    if not candidates:
        return LpSolution("infeasible", None, None)
    xs = np.vstack(candidates)
    xs = xs[np.all(np.isfinite(xs), axis=1)]
    feas = np.ones(xs.shape[0], dtype=bool)
    if g.shape[0]:
        scale = np.maximum(1.0, np.abs(g).max(axis=1))
        feas &= np.all((g @ xs.T - h[:, None]) / scale[:, None] <= feas_tol, axis=0)
    if lp.a_eq.shape[0]:
        scale = np.maximum(1.0, np.abs(lp.a_eq).max(axis=1))
        feas &= np.all(np.abs(lp.a_eq @ xs.T - lp.b_eq[:, None]) / scale[:, None] <= feas_tol, axis=0)
    if not feas.any():
        return LpSolution("infeasible", None, None)
    xs = xs[feas]
    values = xs @ lp.f
    best = int(np.argmin(values))
    assert not check_feasible(lp, xs[best], tol=10 * feas_tol)
    return LpSolution("optimal", xs[best], float(values[best]))


# --- discretised day-ahead search ----------------------------------------------


@dataclass
class BruteForceSchedule:
    j: float
    desd_power_kw: dict[int, np.ndarray]


def _action_grid(charge_max: float, discharge_max: float, step: float) -> np.ndarray:
    """Dispatch grid from -charge_max to discharge_max.

    Built so that halving the step keeps every coarse point, which makes the
    best cost monotone under refinement.
    """
    count = int(np.floor((charge_max + discharge_max) / step + 1e-9))
    pts = -charge_max + np.arange(count + 1) * step
    if pts[-1] < discharge_max - 1e-12:
        pts = np.append(pts, discharge_max)
    return pts


def brute_force_schedule(scenario, grid_step: float,
                         max_states: int = 20_000_000) -> BruteForceSchedule:
    """Best cost over all storage dispatches on a grid of width grid_step kW.

    Grid exchange is not searched: once every device dispatch is fixed, the
    balance equation pins the net draw and buying/selling it at the tariff is
    the cheapest settlement (sell never pays more than buy).  Any discretised
    schedule is therefore feasible for the continuous problem with identical
    cost, so the value returned here is an upper bound on the true optimum.

    States with identical stored-energy vectors are merged keeping the
    cheapest partial cost; only the energy vector affects the future.
    """
    t_steps = scenario.horizon
    dt = scenario.dt_hours
    active = scenario.active_users
    buy = np.array(scenario.tariff.buy)
    sell = np.array(scenario.tariff.sell)
    base_net = np.zeros(t_steps)
    for a in scenario.agents:
        base_net += np.array(a.demand_kw) - np.array(a.renewable_kw)

    grids = [_action_grid(a.desd.p_charge_max_kw, a.desd.p_discharge_max_kw, grid_step)
             for a in active]
    if grids:
        mesh = np.meshgrid(*grids, indexing="ij")
        joint = np.stack([m.ravel() for m in mesh], axis=1)   # (A, n_active)
    else:
        joint = np.zeros((1, 0))
    joint_sum = joint.sum(axis=1)

    emin = np.array([a.desd.emin_kwh for a in active])
    emax = np.array([a.desd.emax_kwh for a in active])
    frontier_e = np.array([[a.desd.e0_kwh for a in active]])   # (K, n_active)
    frontier_cost = np.zeros(1)
    breadcrumbs: list[tuple[np.ndarray, np.ndarray]] = []     # (parent, action) per step

    for t in range(t_steps):
        k, a_cnt = frontier_e.shape[0], joint.shape[0]
        if k * a_cnt > max_states:
            raise ValueError(f"search width {k * a_cnt} exceeds max_states at step {t}")
        net = base_net[t] - joint_sum                           # (A,)
        step_cost = dt * (buy[t] * np.maximum(net, 0.0) - sell[t] * np.maximum(-net, 0.0))
        ok_cap = np.abs(net) <= scenario.p_grid_max_kw + 1e-9
        new_e = frontier_e[:, None, :] - joint[None, :, :] * dt   # (K, A, n_active)
        ok = ok_cap[None, :] & np.all(
            (new_e >= emin - 1e-9) & (new_e <= emax + 1e-9), axis=2)
        keep = np.flatnonzero(ok.ravel())
        if keep.size == 0:
            raise RuntimeError(f"no feasible discretized schedule survives step {t}")
        parent, action = np.divmod(keep, a_cnt)
        cost = frontier_cost[parent] + step_cost[action]
        states = np.round(new_e.reshape(-1, max(len(active), 1))[keep], 9)
        order = np.lexsort((cost,) + tuple(states.T))
        _, first = np.unique(states[order], axis=0, return_index=True)
        pick = order[np.sort(first)]
        frontier_e = states[pick]
        frontier_cost = cost[pick]
        breadcrumbs.append((parent[pick], action[pick]))

    leaf = int(np.argmin(frontier_cost))
    dispatch = np.zeros((t_steps, len(active)))
    idx = leaf
    for t in range(t_steps - 1, -1, -1):
        parent, action = breadcrumbs[t]
        dispatch[t] = joint[action[idx]]
        idx = int(parent[idx])
    return BruteForceSchedule(
        j=float(frontier_cost[leaf]),
        desd_power_kw={a.id: dispatch[:, k].copy() for k, a in enumerate(active)},
    )
