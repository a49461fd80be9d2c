import json

import numpy as np
import pytest

from coopgrid.scenario import (
    ScenarioFormatError,
    ScenarioValidationError,
    dump_scenario,
    load_scenario,
    scenario_digest,
    scenario_from_dict,
)


def base_dict():
    return {
        "horizon": 2,
        "dt_hours": 1.0,
        "p_grid_max_kw": 5.0,
        "tariff": {"buy": [0.2, 0.3], "sell": [0.1, 0.2]},
        "agents": [
            {"id": 1, "role": "passive", "demand_kw": [1.0, 2.0], "renewable_kw": [0.0, 0.0]},
            {"id": 2, "role": "active", "demand_kw": [0.5, 0.5], "renewable_kw": [1.0, 0.0],
             "desd": {"e0_kwh": 2.0, "emin_kwh": 1.0, "emax_kwh": 4.0,
                      "p_charge_max_kw": 2.0, "p_discharge_max_kw": 2.0}},
            {"id": 3, "role": "grid", "demand_kw": [0.0, 0.0], "renewable_kw": [0.0, 0.0]},
        ],
        "graph": {"edges": [[1, 2], [2, 3]]},
    }


def test_load_fixture(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    assert sc.horizon == 2
    assert sc.n_users == 1
    assert sc.grid_agent.id == 2
    assert sc.users[0].desd.emax_kwh == 9.0
    assert sc.graph.node_ids == (1, 2)
    w = sc.graph.weights
    assert np.allclose(w.sum(axis=0), 1.0) and np.allclose(w.sum(axis=1), 1.0)


def test_round_trip_identity(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    again = scenario_from_dict(json.loads(dump_scenario(sc)))
    assert again == sc
    assert scenario_digest(again) == scenario_digest(sc)


def test_digest_is_sha256_hex_and_content_sensitive():
    sc1 = scenario_from_dict(base_dict())
    d = base_dict()
    d["p_grid_max_kw"] = 6.0
    sc2 = scenario_from_dict(d)
    assert len(scenario_digest(sc1)) == 64
    assert scenario_digest(sc1) != scenario_digest(sc2)


def test_agents_sorted_by_id_regardless_of_file_order():
    d = base_dict()
    d["agents"] = list(reversed(d["agents"]))
    sc = scenario_from_dict(d)
    assert [a.id for a in sc.agents] == [1, 2, 3]


def test_codes_block_round_trips():
    d = base_dict()
    d["codes"] = {"rho": 0.7, "max_iters": 500}
    sc = scenario_from_dict(d)
    assert dict(sc.codes) == {"rho": 0.7, "max_iters": 500.0}
    again = scenario_from_dict(json.loads(dump_scenario(sc)))
    assert again == sc


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_scenario(p)
    with pytest.raises(ScenarioFormatError):
        load_scenario(tmp_path / "missing.json")


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("horizon"), "horizon"),
    (lambda d: d.update(horizon="2"), "horizon"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["tariff"].pop("sell"), "sell"),
    (lambda d: d["agents"][0].pop("demand_kw"), "demand_kw"),
    (lambda d: d["agents"][0].update(id="1"), "id"),
    (lambda d: d["agents"][1]["desd"].pop("e0_kwh"), "e0_kwh"),
    (lambda d: d["graph"].update(edges=[[1, 2], [2]]), "edges"),
])
def test_format_errors_name_the_field(mutate, needle):
    d = base_dict()
    mutate(d)
    with pytest.raises(ScenarioFormatError) as exc:
        scenario_from_dict(d)
    assert needle in str(exc.value)


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d["tariff"].update(sell=[0.3, 0.2]), "tariff.sell[0]"),
    (lambda d: d["tariff"].update(buy=[0.2, 0.3, 0.4]), "tariff.buy"),
    (lambda d: d["agents"][0].update(demand_kw=[-1.0, 2.0]), "agent 1"),
    (lambda d: d["agents"][0].update(renewable_kw=[1.0, 0.0]), "passive"),
    (lambda d: d["agents"][1].pop("desd"), "desd"),
    (lambda d: d["agents"][0].update(desd=d["agents"][1]["desd"]), "agent 1"),
    (lambda d: d["agents"][1]["desd"].update(e0_kwh=9.0), "emin <= e0 <= emax"),
    (lambda d: d["agents"][2].update(demand_kw=[1.0, 0.0]), "grid"),
    (lambda d: d["agents"][0].update(id=2), "unique"),
    (lambda d: d["agents"][0].update(role="grid"), "grid"),
    (lambda d: d.update(p_grid_max_kw=0.0), "p_grid_max_kw"),
    (lambda d: d["graph"].update(edges=[[1, 2]]), "graph"),
    (lambda d: d["graph"].update(edges=[[1, 2], [2, 3], [1, 4]]), "graph"),
    (lambda d: d.update(agents=d["agents"][2:], graph={"edges": []}), "at least one user"),
])
def test_validation_errors_name_the_field(mutate, needle):
    d = base_dict()
    mutate(d)
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(d)
    assert needle in str(exc.value)
