"""Randomized but always-valid scenarios for property tests and the CLI.

Everything is drawn from one seeded generator, so a (spec, seed) pair names
exactly one scenario.  Feasibility is built in rather than checked after the
fact: series are nonnegative, storage boxes are ordered, and the grid limit
is sized past the worst simultaneous draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import metropolis_weights
from .scenario import (
    ROLE_ACTIVE,
    ROLE_GRID,
    ROLE_PASSIVE,
    AgentSpec,
    DesdSpec,
    Scenario,
    Tariff,
    validate_scenario,
)

GRAPH_FAMILIES = ("path", "ring", "star", "complete", "random")


@dataclass(frozen=True)
class GenSpec:
    """Sizes the generator draws from, every range inclusive, and the graph family.
    Prices, loads and batteries come from fixed ranges; every step is one hour."""

    users: tuple[int, int] = (2, 5)            # non-grid agents
    active: tuple[int, int] = (0, 3)           # of which carry storage
    horizon: tuple[int, int] = (4, 24)
    graph: str = "random"                      # one of GRAPH_FAMILIES

    def __post_init__(self):
        if self.graph not in GRAPH_FAMILIES:
            raise ValueError(f"unknown graph family {self.graph!r}")
        for name in ("users", "active", "horizon"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise ValueError(f"bad range for {name}: ({lo}, {hi})")
        if self.users[0] < 1:
            raise ValueError("need at least one user")
        if self.horizon[0] < 1:
            raise ValueError(f"horizon must be at least one step: got {self.horizon}")


def _edges(family: str, ids: list[int], rng: np.random.Generator) -> list[tuple[int, int]]:
    n = len(ids)
    path = [(ids[k], ids[k + 1]) for k in range(n - 1)]
    if family == "path" or n == 2:
        return path
    if family == "ring":
        return path + [(ids[-1], ids[0])]
    if family == "star":
        hub = ids[0]
        return [(hub, other) for other in ids[1:]]
    if family == "complete":
        return [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)]
    # random connected: a random spanning tree plus a few extra edges
    order = [int(v) for v in rng.permutation(n)]
    edges = {tuple(sorted((ids[order[k]], ids[order[int(rng.integers(0, k))]])))
             for k in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        edges.add(tuple(sorted((ids[int(a)], ids[int(b)]))))
    return sorted(edges)


def _tariff(t: int, rng: np.random.Generator) -> Tariff:
    base = rng.uniform(0.06, 0.25)
    mult = rng.uniform(1.5, 3.0)
    buy = base * (1.0 + (mult - 1.0) * rng.uniform(0.0, 1.0, t))
    sell = rng.uniform(0.5, 0.95) * buy
    return Tariff(buy=tuple(buy.tolist()), sell=tuple(sell.tolist()))


def _series(peak: float, t: int, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple((peak * rng.uniform(0.0, 1.0, t)).tolist())


def gen_scenario(spec: GenSpec, seed: int) -> Scenario:
    """Deterministic draw: same spec and seed, same scenario, byte for byte."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(spec.users[0], spec.users[1] + 1))
    n_active = int(rng.integers(spec.active[0], spec.active[1] + 1))
    n_active = min(n_active, r)
    t = int(rng.integers(spec.horizon[0], spec.horizon[1] + 1))

    tariff = _tariff(t, rng)
    agents = []
    for k in range(r):
        demand = _series(rng.uniform(0.5, 3.0), t, rng)   # peak demand, kW
        if k < n_active:
            cap = rng.uniform(2.0, 10.0)                  # storage capacity, kWh
            emin = cap * rng.uniform(0.0, 0.3)
            e0 = rng.uniform(emin, cap)
            rate = cap * rng.uniform(0.25, 0.5)
            desd = DesdSpec(e0_kwh=e0, emin_kwh=emin, emax_kwh=cap,
                            p_charge_max_kw=rate, p_discharge_max_kw=rate)
            agents.append(AgentSpec(
                id=k + 1, role=ROLE_ACTIVE, demand_kw=demand,
                renewable_kw=_series(rng.uniform(0.0, 2.5), t, rng),   # peak, kW
                desd=desd))
        else:
            agents.append(AgentSpec(id=k + 1, role=ROLE_PASSIVE, demand_kw=demand,
                                    renewable_kw=(0.0,) * t))
    agents.append(AgentSpec(id=r + 1, role=ROLE_GRID,
                            demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t))

    # cover the worst import (all loads + all charging) and the worst export
    # (all renewables + all discharging) with room to spare
    peak_demand = max(sum(a.demand_kw[k] for a in agents) for k in range(t))
    peak_renew = max(sum(a.renewable_kw[k] for a in agents) for k in range(t))
    rates = sum(a.desd.p_charge_max_kw for a in agents if a.desd is not None)
    p_grid_max = 1.5 * (max(peak_demand, peak_renew) + rates) + 1.0

    ids = [a.id for a in agents]
    sc = Scenario(horizon=t, dt_hours=1.0, p_grid_max_kw=p_grid_max,
                  tariff=tariff, agents=tuple(agents),
                  graph=metropolis_weights(ids, _edges(spec.graph, ids, rng)))
    validate_scenario(sc)
    return sc
