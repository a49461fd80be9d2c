"""Scenario data model and JSON ingestion.

A scenario bundles everything one day-ahead run needs: the horizon and step
width, the buy/sell tariff, the point of common coupling limit, one agent per
bus (exactly one of them the grid interface), the communication graph and
the distributed solver's settings (the file's `codes` block, read into a
`CodesConfig`), checked with the rest when it is loaded.  Dump and digest
write only what differs from a default, so a file that spells out a default
names the same run as one that leaves it out.

Units are fixed by field name: kW for power, kWh for energy, hours for time,
currency units per kWh for prices.  Sign convention for storage: positive
dispatch discharges the device, negative charges it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
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
class CodesConfig:
    rho: float = 0.5            # quadratic penalty weight
    xi1_grid: float = 5e-3      # primal step, grid exchange block
    xi1_desd: float = 5e-3      # primal step, storage blocks
    xi2: float = 5e-2           # multiplier step for the energy box
    xi3: float = 0.1            # integral gain on the price estimate
    max_iters: int = 20000
    tol_balance_kw: float = 1e-3
    tol_step: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.max_iters) and self.max_iters == int(self.max_iters) >= 1):
            raise ScenarioValidationError(
                f"codes.max_iters must be an integer >= 1, got {self.max_iters!r}")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        for name in ("rho", "xi1_grid", "xi1_desd", "xi2", "xi3", "tol_balance_kw", "tol_step"):
            value, tolerance = getattr(self, name), name.startswith("tol_")
            if not (math.isfinite(value) and (value >= 0 if tolerance else value > 0)):
                raise ScenarioValidationError(f"codes.{name} must be finite and "
                                              f"{'nonnegative' if tolerance else 'positive'}, got {value!r}")

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> CodesConfig:
        """The scenario's own solver settings: the defaults where its file sets none."""
        return scenario.codes


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
    codes: CodesConfig = CodesConfig()   # the distributed solver's settings

    @property
    def users(self) -> tuple[AgentSpec, ...]:
        return tuple(a for a in self.agents if a.role != ROLE_GRID)

    @property
    def active_users(self) -> tuple[AgentSpec, ...]:
        return tuple(a for a in self.agents if a.role == ROLE_ACTIVE)

    @property
    def n_users(self) -> int:
        return len(self.users)


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
        _require(sc.tariff.sell[k] <= sc.tariff.buy[k],
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
            reach = d.emax_kwh + sc.dt_hours * t * (d.p_charge_max_kw + d.p_discharge_max_kw)
            _require(math.isfinite(reach), f"{where}: the storage bound desd.emax_kwh + dt_hours * "
                     "horizon * (desd.p_charge_max_kw + desd.p_discharge_max_kw) overflows")
        else:
            _require(a.desd is None, f"{where}: only active agents may carry a desd block")
        if a.role == ROLE_PASSIVE:
            _require(all(v == 0 for v in a.renewable_kw),
                     f"{where}: passive agents have no generation, renewable_kw must be zero")
        if a.role == ROLE_GRID:
            _require(all(v == 0 for v in a.demand_kw) and all(v == 0 for v in a.renewable_kw),
                     f"{where}: the grid agent carries no local demand or renewables")
    # finite inputs can still overflow the day model; plain float sums turn
    # that into inf without a numpy warning
    for field in ("demand_kw", "renewable_kw"):
        totals = map(sum, zip(*(getattr(a, field) for a in sc.agents)))
        k = next((k for k, total in enumerate(totals) if not math.isfinite(total)), None)
        _require(k is None, f"{field} summed over the agents overflows at step {k}")
    # the split sums r stand-alone bills and the social one, each within the bill bound
    _require(math.isfinite((sc.n_users + 1) * sc.p_grid_max_kw * sc.dt_hours * sum(sc.tariff.buy)),
             "the split bound (n_users + 1) * p_grid_max_kw * dt_hours * sum(tariff.buy) overflows")
    _require(set(sc.graph.node_ids) == set(ids),
             "graph node set differs from the agent id set")
    _require(isinstance(sc.codes, CodesConfig), "codes must be a CodesConfig")


# --- JSON layer ----------------------------------------------------------------


def _object(obj, cls, where: str, wrong: str = "") -> dict:
    """A file object whose keys are `cls`'s fields; a field with a default is optional.
    `wrong` replaces the message for a value that is no object."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(wrong or f"{where} must be an object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(obj)
    if missing:
        raise ScenarioFormatError(f"{where}: missing field {sorted(missing)[0]!r}")
    return obj


def _integer(v, where: str, wrong: str = "") -> int:
    if type(v) is not int:       # a bool is no integer here
        raise ScenarioFormatError(wrong or f"{where} must be an integer")
    return v


def _number(obj, field: str) -> float:
    try:
        if type(obj) in (int, float) and math.isfinite(obj):
            return float(obj)
    except OverflowError:        # an integer too large for a float
        pass
    raise ScenarioFormatError(f"{field} must be a finite number")


def _float_list(obj, field: str) -> tuple[float, ...]:
    if isinstance(obj, list) and set(map(type, obj)) <= {int, float}:
        try:
            values = tuple(map(float, obj))
            if all(map(math.isfinite, values)):
                return values
        except OverflowError:    # an integer too large for a float
            pass
    raise ScenarioFormatError(f"{field} must be a list of finite numbers")


def _parse_agent(obj, where: str) -> AgentSpec:
    obj = _object(obj, AgentSpec, where)
    agent_id = _integer(obj["id"], f"{where}.id")
    if not isinstance(obj["role"], str):
        raise ScenarioFormatError(f"{where}.role must be a string")
    desd = obj.get("desd")
    if desd is not None:
        desd = DesdSpec(**{k: _number(v, f"{where}.desd.{k}")
                           for k, v in _object(desd, DesdSpec, f"{where}.desd").items()})
    return AgentSpec(
        id=agent_id,
        role=obj["role"],
        demand_kw=_float_list(obj["demand_kw"], f"{where}.demand_kw"),
        renewable_kw=_float_list(obj["renewable_kw"], f"{where}.renewable_kw"),
        desd=desd,
    )


def scenario_from_dict(data: dict) -> Scenario:
    _object(data, Scenario, "scenario", "top level must be an object")
    horizon = _integer(data["horizon"], "horizon")
    tr = _object(data["tariff"], Tariff, "tariff")
    if not isinstance(data["agents"], list) or not data["agents"]:
        raise ScenarioFormatError("agents must be a non-empty list")
    agents = tuple(sorted((_parse_agent(a, f"agents[{k}]") for k, a in enumerate(data["agents"])),
                          key=lambda a: a.id))
    gr = data["graph"]
    if not isinstance(gr, dict):
        raise ScenarioFormatError("graph must be an object")
    # CommGraph's fields are not the file's: the file gives only the edges
    if set(gr) != {"edges"}:
        extra = sorted(set(gr) - {"edges"})
        raise ScenarioFormatError(f"graph: unknown field {extra[0]!r}" if extra
                                  else "graph: missing field 'edges'")
    if not isinstance(gr["edges"], list):
        raise ScenarioFormatError("graph.edges must be a list of [i, j] pairs")
    edges = []
    for k, e in enumerate(gr["edges"]):
        pair = f"graph.edges[{k}] must be a pair of integer node ids"
        if not isinstance(e, list) or len(e) != 2:
            raise ScenarioFormatError(pair)
        edges.append((_integer(e[0], "", pair), _integer(e[1], "", pair)))
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ScenarioValidationError("agent ids are not unique")
    codes = _object(data.get("codes", {}), CodesConfig, "codes",
                    "codes must be an object of numeric settings")
    # every command refuses the settings that solve --codes would
    codes = CodesConfig(**{k: _number(v, f"codes.{k}") for k, v in codes.items()})
    try:
        graph = metropolis_weights(ids, edges)
    except GraphError as exc:
        raise ScenarioValidationError(f"graph: {exc}") from exc
    sc = Scenario(
        horizon=horizon,
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
        data = json.loads(text, parse_constant=_reject_constant,
                          object_pairs_hook=_reject_duplicates)
    except ScenarioFormatError:   # a hook's refusal, which names what is wrong
        raise
    except ValueError as exc:   # not JSON, or an integer literal longer than int() converts
        raise ScenarioFormatError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def _reject_constant(name: str):
    raise ScenarioFormatError(f"non-finite number {name} in scenario")


def _reject_duplicates(pairs: list) -> dict:
    """json.loads keeps a repeated key's last value; a scenario file may not repeat one."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioFormatError(f"duplicate field {key!r} in scenario")
        obj[key] = value
    return obj


def _plain(value):
    """A scenario value as JSON data: a dataclass by its fields, leaving out
    those at their default, and a graph by its edges.  Tuples of numbers stay
    tuples, which json writes as lists."""
    if isinstance(value, CommGraph):
        return {"edges": value.edges}
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) != f.default}
    if isinstance(value, tuple) and value and is_dataclass(value[0]):   # the agents
        return [_plain(v) for v in value]
    return value


def dump_scenario(sc: Scenario) -> str:
    return json.dumps(_plain(sc), indent=2) + "\n"


def scenario_digest(sc: Scenario) -> str:
    canon = json.dumps(_plain(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
