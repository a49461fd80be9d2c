"""Very small random scenarios for brute-force cross-checks.

Kept to one active device and a 2-3 step horizon so the exhaustive search in
bruteforce.py stays cheap.  The grid limit is sized generously, which
keeps every draw feasible.
"""

from __future__ import annotations

import numpy as np

from coopgrid.scenario import AgentSpec, DesdSpec, Scenario, Tariff, validate_scenario
from coopgrid.graph import metropolis_weights


def tiny_scenario(rng: np.random.Generator) -> Scenario:
    t = int(rng.integers(2, 4))
    dt = float(rng.choice([0.5, 1.0]))
    n_passive = int(rng.integers(0, 3))

    buy = rng.uniform(0.10, 0.50, t)
    sell = rng.uniform(0.50, 0.95) * buy
    tariff = Tariff(buy=tuple(buy.tolist()), sell=tuple(sell.tolist()))

    emin = float(rng.uniform(0.0, 1.0))
    e0 = emin + float(rng.uniform(0.0, 2.0))
    emax = e0 + float(rng.uniform(0.5, 3.0))
    desd = DesdSpec(e0_kwh=e0, emin_kwh=emin, emax_kwh=emax,
                    p_charge_max_kw=float(rng.uniform(0.5, 2.5)),
                    p_discharge_max_kw=float(rng.uniform(0.5, 2.5)))
    agents = [AgentSpec(id=1, role="active",
                        demand_kw=tuple(rng.uniform(0.0, 3.0, t).tolist()),
                        renewable_kw=tuple(rng.uniform(0.0, 2.0, t).tolist()),
                        desd=desd)]
    for k in range(n_passive):
        agents.append(AgentSpec(id=2 + k, role="passive",
                                demand_kw=tuple(rng.uniform(0.0, 3.0, t).tolist()),
                                renewable_kw=(0.0,) * t))
    grid_id = len(agents) + 1
    agents.append(AgentSpec(id=grid_id, role="grid",
                            demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t))

    peak = max(sum(a.demand_kw[k] for a in agents) for k in range(t))
    p_grid_max = 1.5 * (peak + desd.p_charge_max_kw + desd.p_discharge_max_kw + 2.0) + 1.0
    ids = [a.id for a in agents]
    edges = [(ids[k], ids[k + 1]) for k in range(len(ids) - 1)]
    sc = Scenario(horizon=t, dt_hours=dt, p_grid_max_kw=p_grid_max, tariff=tariff,
                  agents=tuple(agents), graph=metropolis_weights(ids, edges))
    validate_scenario(sc)
    return sc
