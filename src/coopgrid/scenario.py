"""Scenario data model and JSON ingestion.

A scenario bundles everything one day-ahead run needs: the horizon and step
width, the buy/sell tariff, the point of common coupling limit, one agent per
bus (exactly one of them the grid interface) and the communication graph.

Units are fixed by field name: kW for power, kWh for energy, hours for time,
currency units per kWh for prices.  Sign convention for storage: positive
dispatch discharges the device, negative charges it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .graph import CommGraph, GraphError, metropolis_weights

ROLE_PASSIVE = "passive"
ROLE_ACTIVE = "active"
ROLE_GRID = "grid"
_ROLES = (ROLE_PASSIVE, ROLE_ACTIVE, ROLE_GRID)


class ScenarioFormatError(ValueError):
    """File is structurally wrong: bad JSON, missing/unknown/ill-typed fields."""


class ScenarioValidationError(ValueError):
    """File parsed but an invariant fails; message names the offending field."""


@dataclass(frozen=True)
class Tariff:
    buy: tuple[float, ...]     # price per kWh drawn from the main grid
    sell: tuple[float, ...]    # price per kWh pushed back


@dataclass(frozen=True)
class DesdSpec:
    e0_kwh: float
    emin_kwh: float
    emax_kwh: float
    p_charge_max_kw: float
    p_discharge_max_kw: float


@dataclass(frozen=True)
class AgentSpec:
    id: int
    role: str
    demand_kw: tuple[float, ...]
    renewable_kw: tuple[float, ...]
    desd: DesdSpec | None = None


@dataclass(frozen=True)
class Scenario:
    horizon: int
    dt_hours: float
    p_grid_max_kw: float
    tariff: Tariff
    agents: tuple[AgentSpec, ...]        # sorted by id, grid included
    graph: CommGraph
    codes: tuple[tuple[str, float], ...] = ()   # per-file solver settings

    @property
    def users(self) -> tuple[AgentSpec, ...]:
        return tuple(a for a in self.agents if a.role != ROLE_GRID)

    @property
    def active_users(self) -> tuple[AgentSpec, ...]:
        return tuple(a for a in self.agents if a.role == ROLE_ACTIVE)

    @property
    def grid_agent(self) -> AgentSpec:
        return next(a for a in self.agents if a.role == ROLE_GRID)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def agent(self, agent_id: int) -> AgentSpec:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(agent_id)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioValidationError(msg)


def validate_scenario(sc: Scenario) -> None:
    """Raise ScenarioValidationError on the first violated invariant."""
    _require(sc.horizon >= 1, "horizon must be at least 1")
    _require(sc.dt_hours > 0, "dt_hours must be positive")
    _require(sc.p_grid_max_kw > 0, "p_grid_max_kw must be positive")
    t = sc.horizon
    _require(len(sc.tariff.buy) == t, f"tariff.buy has {len(sc.tariff.buy)} entries, horizon is {t}")
    _require(len(sc.tariff.sell) == t, f"tariff.sell has {len(sc.tariff.sell)} entries, horizon is {t}")
    for k in range(t):
        _require(sc.tariff.buy[k] >= 0, f"tariff.buy[{k}] is negative")
        _require(sc.tariff.sell[k] >= 0, f"tariff.sell[{k}] is negative")
        _require(sc.tariff.sell[k] <= sc.tariff.buy[k] + 1e-12,
                 f"tariff.sell[{k}] exceeds tariff.buy[{k}]; that would pay for round-tripping energy")
    ids = [a.id for a in sc.agents]
    _require(len(set(ids)) == len(ids), "agent ids are not unique")
    _require(list(ids) == sorted(ids), "agents must be sorted by id")
    grids = [a for a in sc.agents if a.role == ROLE_GRID]
    _require(len(grids) == 1, f"exactly one grid agent required, found {len(grids)}")
    _require(len(sc.agents) > 1, "at least one user besides the grid agent is required")
    for a in sc.agents:
        where = f"agent {a.id}"
        _require(a.role in _ROLES, f"{where}: unknown role {a.role!r}")
        _require(len(a.demand_kw) == t, f"{where}: demand_kw has {len(a.demand_kw)} entries, horizon is {t}")
        _require(len(a.renewable_kw) == t, f"{where}: renewable_kw has {len(a.renewable_kw)} entries, horizon is {t}")
        _require(all(v >= 0 for v in a.demand_kw), f"{where}: demand_kw has negative entries")
        _require(all(v >= 0 for v in a.renewable_kw), f"{where}: renewable_kw has negative entries")
        if a.role == ROLE_ACTIVE:
            _require(a.desd is not None, f"{where}: active agent needs a desd block")
            d = a.desd
            _require(d.emin_kwh >= 0, f"{where}: desd.emin_kwh is negative")
            _require(d.emin_kwh <= d.e0_kwh <= d.emax_kwh,
                     f"{where}: desd energy bounds need emin <= e0 <= emax")
            _require(d.p_charge_max_kw > 0, f"{where}: desd.p_charge_max_kw must be positive")
            _require(d.p_discharge_max_kw > 0, f"{where}: desd.p_discharge_max_kw must be positive")
        else:
            _require(a.desd is None, f"{where}: only active agents may carry a desd block")
        if a.role == ROLE_PASSIVE:
            _require(all(v == 0 for v in a.renewable_kw),
                     f"{where}: passive agents have no generation, renewable_kw must be zero")
        if a.role == ROLE_GRID:
            _require(all(v == 0 for v in a.demand_kw) and all(v == 0 for v in a.renewable_kw),
                     f"{where}: the grid agent carries no local demand or renewables")
    _require(set(sc.graph.node_ids) == set(ids),
             "graph node set differs from the agent id set")


# --- JSON layer ----------------------------------------------------------------


def _is_number(v) -> bool:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:        # an integer too large for a float
        return False


def _float_list(obj, field: str) -> tuple[float, ...]:
    if not isinstance(obj, list) or not all(_is_number(v) for v in obj):
        raise ScenarioFormatError(f"{field} must be a list of finite numbers")
    return tuple(float(v) for v in obj)


def _number(obj, field: str) -> float:
    if not _is_number(obj):
        raise ScenarioFormatError(f"{field} must be a finite number")
    return float(obj)


def _check_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    missing = required - set(mapping)
    if missing:
        raise ScenarioFormatError(f"{where}: missing field {sorted(missing)[0]!r}")


def _parse_agent(obj, where: str) -> AgentSpec:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    _check_keys(obj, {"id", "role", "demand_kw", "renewable_kw", "desd"},
                {"id", "role", "demand_kw", "renewable_kw"}, where)
    if not isinstance(obj["id"], int) or isinstance(obj["id"], bool):
        raise ScenarioFormatError(f"{where}.id must be an integer")
    if not isinstance(obj["role"], str):
        raise ScenarioFormatError(f"{where}.role must be a string")
    desd = None
    if obj.get("desd") is not None:
        dd = obj["desd"]
        if not isinstance(dd, dict):
            raise ScenarioFormatError(f"{where}.desd must be an object")
        keys = {"e0_kwh", "emin_kwh", "emax_kwh", "p_charge_max_kw", "p_discharge_max_kw"}
        _check_keys(dd, keys, keys, f"{where}.desd")
        desd = DesdSpec(**{k: _number(dd[k], f"{where}.desd.{k}") for k in keys})
    return AgentSpec(
        id=obj["id"],
        role=obj["role"],
        demand_kw=_float_list(obj["demand_kw"], f"{where}.demand_kw"),
        renewable_kw=_float_list(obj["renewable_kw"], f"{where}.renewable_kw"),
        desd=desd,
    )


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level must be an object")
    _check_keys(data, {"horizon", "dt_hours", "p_grid_max_kw", "tariff", "agents", "graph", "codes"},
                {"horizon", "dt_hours", "p_grid_max_kw", "tariff", "agents", "graph"}, "scenario")
    if not isinstance(data["horizon"], int) or isinstance(data["horizon"], bool):
        raise ScenarioFormatError("horizon must be an integer")
    tr = data["tariff"]
    if not isinstance(tr, dict):
        raise ScenarioFormatError("tariff must be an object")
    _check_keys(tr, {"buy", "sell"}, {"buy", "sell"}, "tariff")
    if not isinstance(data["agents"], list) or not data["agents"]:
        raise ScenarioFormatError("agents must be a non-empty list")
    agents = tuple(sorted((_parse_agent(a, f"agents[{k}]") for k, a in enumerate(data["agents"])),
                          key=lambda a: a.id))
    gr = data["graph"]
    if not isinstance(gr, dict):
        raise ScenarioFormatError("graph must be an object")
    _check_keys(gr, {"edges"}, {"edges"}, "graph")
    if not isinstance(gr["edges"], list):
        raise ScenarioFormatError("graph.edges must be a list of [i, j] pairs")
    edges = []
    for k, e in enumerate(gr["edges"]):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)):
            raise ScenarioFormatError(f"graph.edges[{k}] must be a pair of integer node ids")
        edges.append((e[0], e[1]))
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ScenarioValidationError("agent ids are not unique")
    codes = ()
    if "codes" in data:
        if not isinstance(data["codes"], dict):
            raise ScenarioFormatError("codes must be an object of numeric settings")
        codes = tuple(sorted((str(k), _number(v, f"codes.{k}")) for k, v in data["codes"].items()))
    try:
        graph = metropolis_weights(ids, edges)
    except GraphError as exc:
        raise ScenarioValidationError(f"graph: {exc}") from exc
    sc = Scenario(
        horizon=data["horizon"],
        dt_hours=_number(data["dt_hours"], "dt_hours"),
        p_grid_max_kw=_number(data["p_grid_max_kw"], "p_grid_max_kw"),
        tariff=Tariff(buy=_float_list(tr["buy"], "tariff.buy"),
                      sell=_float_list(tr["sell"], "tariff.sell")),
        agents=agents,
        graph=graph,
        codes=codes,
    )
    validate_scenario(sc)
    return sc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def _reject_constant(name: str):
    raise ScenarioFormatError(f"non-finite number {name} in scenario")


def scenario_to_dict(sc: Scenario) -> dict:
    out: dict = {
        "horizon": sc.horizon,
        "dt_hours": sc.dt_hours,
        "p_grid_max_kw": sc.p_grid_max_kw,
        "tariff": {"buy": list(sc.tariff.buy), "sell": list(sc.tariff.sell)},
        "agents": [],
        "graph": {"edges": [list(e) for e in sc.graph.edges]},
    }
    for a in sc.agents:
        entry: dict = {"id": a.id, "role": a.role,
                       "demand_kw": list(a.demand_kw), "renewable_kw": list(a.renewable_kw)}
        if a.desd is not None:
            entry["desd"] = {"e0_kwh": a.desd.e0_kwh, "emin_kwh": a.desd.emin_kwh,
                             "emax_kwh": a.desd.emax_kwh,
                             "p_charge_max_kw": a.desd.p_charge_max_kw,
                             "p_discharge_max_kw": a.desd.p_discharge_max_kw}
        out["agents"].append(entry)
    if sc.codes:
        out["codes"] = {k: v for k, v in sc.codes}
    return out


def dump_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2) + "\n"


def scenario_digest(sc: Scenario) -> str:
    canon = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
