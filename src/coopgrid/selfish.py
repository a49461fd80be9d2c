"""Stand-alone operation: what each user pays when nobody cooperates.

A user's stand-alone day is `centralized.solve_day` over that user alone: the
same day LP as the social optimum, with only its own demand, renewables and
storage against the tariff.  A user without a battery needs no simplex; its
balance row fixes what it buys and sells.  The resulting costs form the
disagreement point of the bargaining step: no rational user accepts an
allocated share above its stand-alone cost.
"""

from __future__ import annotations

import numpy as np

from .centralized import day_lp, solve_day
from .scenario import Scenario


def disagreement_point(scenario: Scenario) -> np.ndarray:
    """Stand-alone costs D, one entry per user in id order."""
    return np.array([solve_day(scenario, [a], day_lp(scenario, [a]))[1]
                     for a in scenario.users])
