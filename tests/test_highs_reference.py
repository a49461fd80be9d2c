"""HiGHS pins the social optimum and the stand-alone costs beyond brute force.

Vertex enumeration stops at a handful of steps, so these ladder days are
checked against scipy's HiGHS instead (test-only; skipped without scipy).
The reference writes each day in the cumulative-sum form: no stored-energy
variables, and every energy window a lower-triangular inequality block.  So
both the solver and the state-variable formulation it solves are pinned.
"""

import numpy as np
import pytest

from coopgrid.centralized import solve_social
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.selfish import disagreement_point

linprog = pytest.importorskip("scipy.optimize").linprog


def cumulative_sum_day_cost(agents, tariff, p_grid_max_kw, dt_hours) -> float:
    """Optimal day cost of `agents` pooled behind one grid connection."""
    t = len(agents[0].demand_kw)
    desds = [a.desd for a in agents if a.desd is not None]
    n = (2 + len(desds)) * t
    f = np.zeros(n)
    f[:t] = np.array(tariff.buy) * dt_hours
    f[t:2 * t] = -np.array(tariff.sell) * dt_hours
    eye = np.eye(t)
    a_eq = np.hstack([eye, -eye] + [eye] * len(desds))
    b_eq = sum(np.array(a.demand_kw) - np.array(a.renewable_kw) for a in agents)
    tri = np.tril(np.ones((t, t))) * dt_hours
    a_ub = np.zeros((2 * t * len(desds), n))
    b_ub = np.zeros(2 * t * len(desds))
    bounds = [(0.0, p_grid_max_kw)] * (2 * t)
    for k, d in enumerate(desds):
        cols = slice((2 + k) * t, (3 + k) * t)
        a_ub[2 * k * t:(2 * k + 1) * t, cols] = tri           # energy stays >= emin
        b_ub[2 * k * t:(2 * k + 1) * t] = d.e0_kwh - d.emin_kwh
        a_ub[(2 * k + 1) * t:(2 * k + 2) * t, cols] = -tri    # energy stays <= emax
        b_ub[(2 * k + 1) * t:(2 * k + 2) * t] = d.emax_kwh - d.e0_kwh
        bounds += [(-d.p_charge_max_kw, d.p_discharge_max_kw)] * t
    res = linprog(f, A_ub=a_ub if desds else None, b_ub=b_ub if desds else None,
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def close(value, ref, rel=1e-7):
    return abs(value - ref) <= rel * abs(ref)


@pytest.mark.parametrize("users,horizon", [(10, 24), (20, 24), (10, 48), (10, 96)])
def test_ladder_day_matches_highs(users, horizon):
    sc = gen_scenario(GenSpec(users=(users, users), active=(users // 2, users // 2),
                              horizon=(horizon, horizon), graph="ring"), seed=1)
    _, j = solve_social(sc)
    j_ref = cumulative_sum_day_cost(sc.agents, sc.tariff, sc.p_grid_max_kw, sc.dt_hours)
    assert close(j, j_ref), (j, j_ref)
    d = disagreement_point(sc)
    d_ref = [cumulative_sum_day_cost([a], sc.tariff, sc.p_grid_max_kw, sc.dt_hours)
             for a in sc.users]
    assert len(d) == len(d_ref) == sc.n_users
    for k, (value, ref) in enumerate(zip(d, d_ref)):
        assert close(value, ref), (sc.users[k].id, value, ref)
