"""Cooperative day-ahead scheduling for small microgrids.

The package splits into three layers:

- problem data: `scenario` (validated input format) and `generate` (random
  but always-valid instances);
- solvers: `centralized` (exact LP oracle on top of `lp`), `codes` (the
  distributed primal-dual scheme over the communication graph), `selfish`
  (each user's stand-alone optimum);
- settlement: `allocation` (equal-savings bargaining split, centralized or
  by consensus via `graph`).

`cli` binds the layers into the `coopgrid` command.
"""

from .allocation import (
    BargainingError,
    CostReport,
    allocate_centralized,
    allocate_distributed,
    consumption_costs,
)
from .centralized import (
    InfeasibleScenarioError,
    PowerSchedule,
    check_schedule,
    read_schedule_csv,
    solve_social,
    stored_energy,
)
from .codes import CodesConfig, CodesResult, run_codes
from .generate import GenSpec, gen_scenario
from .graph import CommGraph, GraphError, metropolis_weights, run_consensus
from .lp import LinearProgram, LpSolution, solve_lp
from .scenario import (
    AgentSpec,
    DesdSpec,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    Tariff,
    dump_scenario,
    load_scenario,
    scenario_digest,
)
from .selfish import disagreement_point

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BargainingError",
    "CodesConfig",
    "CodesResult",
    "CommGraph",
    "CostReport",
    "DesdSpec",
    "GenSpec",
    "GraphError",
    "InfeasibleScenarioError",
    "LinearProgram",
    "LpSolution",
    "PowerSchedule",
    "Scenario",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "Tariff",
    "allocate_centralized",
    "allocate_distributed",
    "check_schedule",
    "consumption_costs",
    "disagreement_point",
    "dump_scenario",
    "gen_scenario",
    "load_scenario",
    "metropolis_weights",
    "read_schedule_csv",
    "run_codes",
    "run_consensus",
    "scenario_digest",
    "solve_lp",
    "solve_social",
    "stored_energy",
]
