import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from coopgrid.scenario import (
    CodesConfig,
    ScenarioFormatError,
    ScenarioValidationError,
    dump_scenario,
    load_scenario,
    scenario_digest,
    scenario_from_dict,
    validate_scenario,
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
    assert [a.id for a in sc.agents if a.role == "grid"] == [2]
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
    assert sc.codes == CodesConfig(rho=0.7, max_iters=500)
    again = scenario_from_dict(json.loads(dump_scenario(sc)))
    assert again == sc
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.codes.rho = 0.1
    with pytest.raises(ScenarioValidationError, match="codes"):
        validate_scenario(dataclasses.replace(sc, codes={"rho": 0.7}))


def test_spelled_out_defaults_name_the_same_run():
    # a scenario is dumped and digested by what it sets, not by how its file spells it
    terse, spelled, bare = base_dict(), base_dict(), base_dict()
    terse["codes"] = {"rho": 0.7}
    spelled["codes"] = {"rho": 0.7, "xi3": 0.1, "max_iters": 20000, "tol_step": 1e-6}
    a, b = scenario_from_dict(terse), scenario_from_dict(spelled)
    assert a == b
    assert dump_scenario(a) == dump_scenario(b)
    assert scenario_digest(a) == scenario_digest(b)
    spelled["codes"] = {"xi2": 5e-2, "tol_balance_kw": 1e-3}
    a, b = scenario_from_dict(bare), scenario_from_dict(spelled)
    assert dump_scenario(a) == dump_scenario(b)
    assert scenario_digest(a) == scenario_digest(b)


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_scenario(p)
    with pytest.raises(ScenarioFormatError):
        load_scenario(tmp_path / "missing.json")


def test_key_duplicated_inside_desd_rejected(tmp_path):
    text = json.dumps(base_dict())
    assert '"e0_kwh": 2.0,' in text
    p = tmp_path / "dup.json"
    p.write_text(text.replace('"e0_kwh": 2.0,', '"e0_kwh": 2.0, "e0_kwh": 3.0,'))
    with pytest.raises(ScenarioFormatError, match="duplicate field 'e0_kwh'"):
        load_scenario(p)


def test_integer_longer_than_int_reads_is_a_format_error(fixtures_dir, tmp_path):
    # json.loads refuses an integer literal of more than 4 300 digits with a plain
    # ValueError; the reader names the file instead
    data = json.loads((fixtures_dir / "arbitrage_t2.json").read_text())
    data["tariff"]["buy"][0] = "HUGE"
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(data).replace('"HUGE"', "1" + "0" * 5000))
    with pytest.raises(ScenarioFormatError, match=re.escape(f"{p} is not valid JSON")):
        load_scenario(p)


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("horizon"), "horizon"),
    (lambda d: d.update(horizon="2"), "horizon"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["tariff"].pop("sell"), "sell"),
    (lambda d: d["agents"][0].pop("demand_kw"), "demand_kw"),
    (lambda d: d["agents"][0].update(id="1"), "id"),
    (lambda d: d["agents"][1]["desd"].pop("e0_kwh"), "e0_kwh"),
    (lambda d: d["graph"].update(edges=[[1, 2], [2]]), "edges"),
    (lambda d: d.update(codes={"rho": "0.5"}), "codes.rho"),
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
    # finite numbers whose day model overflows
    (lambda d: d.update(dt_hours=10.0, tariff={"buy": [1e308] * 2, "sell": [0.1, 0.2]}),
     "dt_hours * sum(tariff.buy)"),
    (lambda d: d.update(p_grid_max_kw=1e308, agents=[
        {**a, "demand_kw": [1e308] * 2} for a in d["agents"][:2]] + d["agents"][2:]),
     "demand_kw summed"),
    (lambda d: d.update(p_grid_max_kw=1e200, tariff={"buy": [1e200] * 2, "sell": [0.0] * 2},
                        agents=[d["agents"][0], {**d["agents"][1], "demand_kw": [1e200] * 2},
                                d["agents"][2]]),
     "p_grid_max_kw * dt_hours"),
])
def test_validation_errors_name_the_field(mutate, needle):
    d = base_dict()
    mutate(d)
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(d)
    assert needle in str(exc.value)


# --- a seeded fuzz of the reader -------------------------------------------------
# Each draw is the fixture with one or two faults from a fixed menu made to its
# data, or one made to its text.  The reader either loads a draw or refuses it
# with one of its own two errors, and what it loads it writes back as it read it.

FUZZ_SEEDS = range(1000)
FUZZ_VALUES = (None, True, "1", [], {}, [True], ["1"], 2**1100, float("nan"), -1.0,
               [1e308, 1e308])
FUZZ_TOKENS = ("NaN", "Infinity", "-Infinity", "1e400")


def _containers(value):
    """Every object and list inside `value`, `value` included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in (value.values() if isinstance(value, dict) else value):
            yield from _containers(child)


def fuzz_draw(text: str, seed: int):
    """The scenario file `text` with its faults: a dict, or a file's text."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.2:
        if rng.random() < 0.5:       # a non-finite constant, or a number past float range
            spots = list(re.finditer(r"(?<=[ \[])-?\d[\d.eE+-]*", text))
            m = spots[rng.integers(len(spots))]
            fault = FUZZ_TOKENS[rng.integers(len(FUZZ_TOKENS))]
        else:                        # a key repeated within its object
            spots = list(re.finditer(r'"\w+": ', text))
            m = spots[rng.integers(len(spots))]
            fault = m.group() + "0, " + m.group()
        return text[:m.start()] + fault + text[m.end():]
    data = json.loads(text)
    for _ in range(rng.integers(1, 3)):
        kind = ("drop", "add", "replace")[rng.integers(3)]
        pool = [c for c in _containers(data)
                if (isinstance(c, dict) or kind == "replace") and (c or kind == "add")]
        box = pool[rng.integers(len(pool))]
        if kind == "add":
            box["extra"] = 1.0
            continue
        keys = list(box) if isinstance(box, dict) else range(len(box))
        key = keys[rng.integers(len(keys))]
        if kind == "drop":
            del box[key]
        else:
            box[key] = copy.deepcopy(FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))])
    return data


def test_fuzzed_fixture_loads_or_is_refused_and_round_trips(fixtures_dir, tmp_path):
    text = (fixtures_dir / "three_agent.json").read_text()
    path = tmp_path / "draw.json"
    loads = 0
    for seed in FUZZ_SEEDS:
        draw = fuzz_draw(text, seed)
        try:
            if isinstance(draw, str):
                path.write_text(draw)
                sc = load_scenario(path)
            else:
                sc = scenario_from_dict(draw)
        except (ScenarioFormatError, ScenarioValidationError):
            continue
        loads += 1
        path.write_text(dump_scenario(sc))
        again = load_scenario(path)
        assert scenario_digest(again) == scenario_digest(sc), seed
        assert dump_scenario(again) == dump_scenario(sc), seed
    assert 0 < loads < len(FUZZ_SEEDS)
