"""Stand-alone operation: what each user pays when nobody cooperates.

A user's stand-alone day is `centralized.solve_day` over that user alone: the
same day LP as the social optimum, with only its own demand, renewables and
storage against the tariff.  A user without a battery needs no day LP and no
simplex; its balance row fixes what it buys and sells.  The battery owners'
day LPs share `a_eq` and `f` and differ only in the right-hand side and the
battery box, so each one after the first starts warm from the optimal tableau
of the owner solved before it.  The resulting costs form the disagreement point of the
bargaining step: no rational user accepts an allocated share above its
stand-alone cost.
"""

from __future__ import annotations

import numpy as np

from .centralized import solve_day
from .scenario import Scenario


def disagreement_point(scenario: Scenario) -> np.ndarray:
    """Stand-alone costs D, one entry per user in id order."""
    costs, warm = [], None
    for a in scenario.users:
        _, cost, sol = solve_day(scenario, [a], warm=warm)
        costs.append(cost)
        if a.desd is not None:
            warm = sol
    return np.array(costs)
