"""Splitting the cooperative bill among users.

The split maximises the product of individual savings subject to nobody
paying more than stand-alone; with transferable cost that optimum is the
equal-savings point

    J_i = D_i - (sum(D) - J) / r

where D are the stand-alone costs, J the cooperative optimum and r the number
of users.  It exists exactly when J is finite and J <= sum(D), which both
methods decide by one rule: _selfish_costs, then _check_saving.

allocate_distributed reaches the same split by averaging consensus: every
user starts a consensus variable at its own D_i, the grid interface starts at
-J, and the nodes converge to (sum(D) - J) / (r + 1), from which each user
recovers its own share locally.  Its epsilon, though, is read from the mean
of every node's estimate, a global read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centralized import PowerSchedule, net_exchange, net_load_kw, schedule_cost
from .graph import run_consensus
from .scenario import ROLE_GRID, Scenario


class BargainingError(RuntimeError):
    """Cooperating is worth less than standing alone: no split helps everyone."""


@dataclass
class CostReport:
    agent_ids: tuple[int, ...]          # users in id order
    selfish: np.ndarray                 # D_i
    allocated: np.ndarray               # J_i
    epsilon: float                      # per-user saving D_i - J_i
    rounds: int = 0                     # consensus rounds when distributed


def _selfish_costs(scenario: Scenario, j: float, selfish_costs) -> np.ndarray:
    """Both splits' input check: one stand-alone cost per user, and a finite J."""
    selfish_costs = np.asarray(selfish_costs, dtype=float)
    if selfish_costs.size != scenario.n_users:
        raise ValueError(f"expected {scenario.n_users} stand-alone costs, "
                         f"got {selfish_costs.size}")
    if not np.isfinite(j):   # a diverged run's cost has no split
        raise BargainingError(f"cooperative cost {j} is not finite; there is nothing to split")
    return selfish_costs


def _check_saving(j: float, saving: float) -> None:
    """Both splits' loss test on the total saving sum(D) - J."""
    if saving < -1e-9 * (1.0 + abs(j)):
        raise BargainingError(
            f"cooperative cost {j:.6f} exceeds the stand-alone total "
            f"{j + saving:.6f}; there is no allocation everyone accepts")


def allocate_centralized(scenario: Scenario, j: float, selfish_costs: np.ndarray) -> CostReport:
    selfish_costs = _selfish_costs(scenario, j, selfish_costs)
    _check_saving(j, selfish_costs.sum() - j)
    epsilon = (selfish_costs.sum() - j) / scenario.n_users
    return CostReport(tuple(a.id for a in scenario.users), selfish_costs,
                      selfish_costs - epsilon, float(epsilon))


def allocate_distributed(scenario: Scenario, j: float, selfish_costs: np.ndarray,
                         tol: float = 1e-6) -> CostReport:
    """Equal-savings split computed by averaging consensus on the scenario graph,
    as the module docstring describes.  The per-node consensus target is tightened
    by r / (r + 1) so the recovered shares match the centralized split within tol.
    """
    selfish_costs = _selfish_costs(scenario, j, selfish_costs)
    r = scenario.n_users
    # graph node k is scenario.agents[k]: both are in id order
    is_user = np.array([a.role != ROLE_GRID for a in scenario.agents])
    initial = np.full(r + 1, -j, dtype=float)
    initial[is_user] = selfish_costs
    state = run_consensus(initial, scenario.graph, tol=tol * r / (r + 1))
    # the node average is conserved, so the mean estimate carries no consensus error
    epsilon = (r + 1) / r * float(state.values.mean())
    _check_saving(j, r * epsilon)   # the total saving the consensus conserves
    allocated = selfish_costs - (r + 1) / r * state.values[is_user]
    return CostReport(tuple(a.id for a in scenario.users), selfish_costs, allocated,
                      epsilon, state.iteration)


def consumption_costs(scenario: Scenario, schedule: PowerSchedule) -> tuple[np.ndarray, float]:
    """Bill each user for its own net draw at the tariff.

    A user's net draw is its net load minus its storage dispatch, priced by
    `schedule_cost` as if the user alone faced the grid.  Individual bills
    ignore that opposite draws cancel before touching the main grid, so their
    sum exceeds the cooperative cost by a nonnegative netting residual, which
    is returned alongside.
    """
    bills = []
    for a in scenario.users:
        draw = net_load_kw([a]) - schedule.desd_power_kw.get(a.id, 0.0)
        bills.append(schedule_cost(scenario, PowerSchedule(*net_exchange(draw, 0.0), {})))
    bills = np.array(bills)
    residual = float(bills.sum() - schedule_cost(scenario, schedule))
    return bills, residual
