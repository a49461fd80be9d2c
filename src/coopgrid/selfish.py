"""Stand-alone operation: what each user pays when nobody cooperates.

Each user solves its own day-ahead problem against the tariff, using only its
own demand, renewables and storage: the social day LP of centralized.py over
that user alone.  The resulting costs form the disagreement point of the
bargaining step: no rational user accepts an allocated share above its
stand-alone cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centralized import day_lp, net_load_kw, solve_day_lp
from .scenario import AgentSpec, Scenario, Tariff


@dataclass
class SelfishSolution:
    grid_buy_kw: np.ndarray
    grid_sell_kw: np.ndarray
    desd_power_kw: np.ndarray    # zeros for passive users
    cost: float


def solve_selfish(agent: AgentSpec, tariff: Tariff, p_grid_max_kw: float,
                  dt_hours: float) -> SelfishSolution:
    t = len(agent.demand_kw)
    desds = [] if agent.desd is None else [agent.desd]
    lp = day_lp(tariff, p_grid_max_kw, dt_hours, net_load_kw([agent]), desds)
    buy, sell, dispatch, cost = solve_day_lp(
        lp, t, lambda: f"agent {agent.id} cannot cover its own demand within the grid "
                       f"limit {p_grid_max_kw} kW")
    return SelfishSolution(grid_buy_kw=buy, grid_sell_kw=sell,
                           desd_power_kw=dispatch[0] if desds else np.zeros(t), cost=cost)


def selfish_solutions(scenario: Scenario) -> dict[int, SelfishSolution]:
    """One stand-alone solution per user (the grid agent has nothing to solve)."""
    return {a.id: solve_selfish(a, scenario.tariff, scenario.p_grid_max_kw,
                                scenario.dt_hours)
            for a in scenario.users}


def disagreement_point(scenario: Scenario) -> np.ndarray:
    """Stand-alone costs D, one entry per user in id order."""
    sols = selfish_solutions(scenario)
    return np.array([sols[a.id].cost for a in scenario.users])
