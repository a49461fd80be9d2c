import csv
import dataclasses
import io
import json
import os
import stat
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import coopgrid.cli as cli
import coopgrid.graph as graph_module
from coopgrid import centralized
from coopgrid.centralized import schedule_cost
from coopgrid.cli import main
from coopgrid.lp import LpCycleError
from coopgrid.scenario import (AgentSpec, DesdSpec, Scenario, ScenarioFormatError,
                               ScenarioValidationError, Tariff, dump_scenario, load_scenario,
                               scenario_digest, scenario_from_dict)
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights


def write_scenario(path: Path, sc) -> Path:
    path.write_text(dump_scenario(sc))
    return path


def with_codes(sc, **settings):
    """The scenario with some of its solver settings replaced."""
    return dataclasses.replace(sc, codes=dataclasses.replace(sc.codes, **settings))


def _refuse_constant(name):
    raise ValueError(f"{name} in report.json")


def read_report(out_dir: Path) -> dict:
    """An output directory's report.json, parsed as strict JSON: NaN and Infinity fail."""
    return json.loads((out_dir / "report.json").read_text(), parse_constant=_refuse_constant)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def arbitrage_path(fixtures_dir) -> str:
    return str(fixtures_dir / "arbitrage_t2.json")


def assert_report_lists_its_files(out_dir: Path, report: dict) -> None:
    written = sorted(str(p) for p in out_dir.iterdir() if p.name != "report.json")
    assert report["schedule_files"] == written


def test_validate_ok_prints_digest(fixtures_dir, capsys):
    assert main(["validate", "--scenario", arbitrage_path(fixtures_dir)]) == 0
    sc = load_scenario(arbitrage_path(fixtures_dir))
    assert scenario_digest(sc) in capsys.readouterr().out


def test_validate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--scenario", str(bad)]) == 2


def test_duplicated_key_is_validation_error(fixtures_dir, tmp_path, capsys):
    # json.loads would keep the last value, a 0.5 kW grid limit that makes the day infeasible
    text = (fixtures_dir / "three_agent.json").read_text()
    assert '"p_grid_max_kw": 30.0,' in text
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"p_grid_max_kw": 30.0,',
                                '"p_grid_max_kw": 30.0, "p_grid_max_kw": 0.5,'))
    out = tmp_path / "out"
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert main(["solve", "--scenario", str(bad), "--out-dir", str(out)]) == 2
    assert "duplicate field 'p_grid_max_kw'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e999",
                                    pytest.param("1" + "0" * 400, id="huge-integer")])
def test_non_finite_number_is_validation_error(fixtures_dir, tmp_path, capsys, number):
    text = Path(arbitrage_path(fixtures_dir)).read_text()
    assert '"buy": [0.1,' in text
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"buy": [0.1,', f'"buy": [{number},'))
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(bad), "--out-dir", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, error", [("max_iters", -5.0, ScenarioValidationError),
                                                ("bogus", 1.0, ScenarioFormatError)],
                         ids=["out-of-range", "unknown-key"])
def test_validate_checks_solver_settings(fixtures_dir, tmp_path, capsys, key, value, error):
    # the solver settings are checked when the file is loaded, so every
    # command that reads a scenario refuses what solve --codes refuses
    data = json.loads(Path(arbitrage_path(fixtures_dir)).read_text())
    data["codes"] = {key: value}
    path = tmp_path / "bad_codes.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error, match=key):
        load_scenario(path)
    out = tmp_path / "out"
    for command in (["validate"], ["weights"], ["solve"], ["solve", "--codes"], ["allocate"],
                    ["allocate", "--distributed"], ["compare"]):
        assert main([*command, "--scenario", str(path), "--out-dir", str(out)]) == 2, command
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("p_grid_max_kw", [1000.0, 30.0])
def test_sell_price_above_a_tiny_buy_price_is_refused(fixtures_dir, tmp_path, capsys, p_grid_max_kw):
    # selling at 1e-12 what is bought at 1e-13 pays for buying and selling in
    # one step; an absolute 1e-12 slack in the tariff rule let such a day load,
    # and then the LP did both (exit 7 at a 1000 kW grid limit, at 30 kW a J
    # that the schedule does not cost, with exit 0)
    data = json.loads((fixtures_dir / "three_agent.json").read_text())
    del data["codes"]
    t = data["horizon"]
    data.update(p_grid_max_kw=p_grid_max_kw, tariff={"buy": [1e-13] * t, "sell": [1e-12] * t})
    with pytest.raises(ScenarioValidationError, match=r"tariff\.sell\[0\]"):
        scenario_from_dict(data)
    path = tmp_path / "tiny_prices.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    for command in (["validate"], ["solve"], ["allocate"], ["allocate", "--distributed"]):
        assert main([*command, "--scenario", str(path), "--out-dir", str(out)]) == 2, command
        assert "tariff.sell[0]" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_allocate_rejects_meaningless_graph_tol(fixtures_dir, tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = main(["allocate", "--distributed", "--graph-tol", tol,
                 "--scenario", str(fixtures_dir / "three_agent.json"), "--out-dir", str(out)])
    assert code == 2
    assert "--graph-tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_compare_rejects_meaningless_tol(fixtures_dir, tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = main(["compare", "--tol", tol, "--scenario", arbitrage_path(fixtures_dir),
                 "--out-dir", str(out)])
    assert code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_day_is_validation_error(fixtures_dir, tmp_path, capsys):
    # every number is finite, but the day model's sums and bill overflow
    days = []
    data = json.loads(Path(arbitrage_path(fixtures_dir)).read_text())
    data.update(dt_hours=10.0, tariff={"buy": [1e308] * 2, "sell": [0.0] * 2})
    days.append(data)
    data = json.loads((fixtures_dir / "three_agent.json").read_text())
    for a in data["agents"]:
        if a["role"] != "grid":
            a["demand_kw"] = [1e308] * data["horizon"]
    data["p_grid_max_kw"] = 1e308
    days.append(data)
    data = json.loads(Path(arbitrage_path(fixtures_dir)).read_text())
    data.update(p_grid_max_kw=1e200, tariff={"buy": [1e200] * 2, "sell": [0.0] * 2})
    data["agents"][0]["demand_kw"] = [1e200] * 2
    days.append(data)
    for k, data in enumerate(days):
        path = tmp_path / f"day{k}.json"
        path.write_text(json.dumps(data))
        for command in (["validate"], ["solve"], ["solve", "--codes"]):
            out = tmp_path / "out"
            assert main([*command, "--scenario", str(path), "--out-dir", str(out)]) == 2
            assert "overflows" in capsys.readouterr().err
            assert not out.exists()


def test_battery_box_too_wide_for_floats_is_validation_error(fixtures_dir, tmp_path, capsys):
    # finite ratings whose box the day LP cannot hold: its width and the
    # energy a step can move overflow, which once crashed the simplex
    data = json.loads(Path(arbitrage_path(fixtures_dir)).read_text())
    data["dt_hours"] = 10.0
    data["agents"][0]["desd"].update(emax_kwh=1e308, p_charge_max_kw=1e308,
                                     p_discharge_max_kw=1e308)
    path = tmp_path / "day.json"
    path.write_text(json.dumps(data))
    for command in (["validate"], ["solve"]):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command, "--scenario", str(path), "--out-dir", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "agent 1" in err and "desd.p_charge_max_kw" in err and "overflows" in err
        assert not out.exists()


def test_missing_scenario_leaves_no_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--scenario", str(tmp_path / "nope.json"),
                 "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command, flag, target", [
    ("solve", "--out-dir", "taken"),          # an existing file
    ("weights", "--out-dir", "taken/sub"),    # below an existing file
    ("gen", "--out", "folder"),               # an existing directory
    ("compare", "--out-dir", "taken"),
])
def test_unwritable_output_path_fails_before_any_work(fixtures_dir, tmp_path, capsys,
                                                      monkeypatch, command, flag, target):
    def never(*args):
        raise AssertionError("the solver ran before the output path was checked")
    monkeypatch.setattr(cli, "run_codes", never)
    (tmp_path / "taken").write_text("keep me")
    (tmp_path / "folder").mkdir()
    argv = [command, flag, str(tmp_path / target)]
    if command != "gen":
        argv += ["--scenario", arbitrage_path(fixtures_dir)]
    assert main(argv) == 2
    assert str(tmp_path / target) in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "taken"]
    assert not any((tmp_path / "folder").iterdir())


def test_solve_centralized_writes_schedule_and_report(fixtures_dir, tmp_path):
    code = main(["solve", "--centralized", "--scenario", arbitrage_path(fixtures_dir),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "schedule_centralized.csv")
    assert [r["t"] for r in rows] == ["0", "1"]
    assert float(rows[0]["P_B_1_kw"]) == -4.0
    assert float(rows[1]["E_1_kwh"]) == 1.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "solve"
    assert abs(report["j"] - (-1.4)) < 1e-9
    sc = load_scenario(arbitrage_path(fixtures_dir))
    assert report["scenario_digest"] == scenario_digest(sc)
    assert_report_lists_its_files(tmp_path, report)


def test_solve_codes_writes_trace(fixtures_dir, tmp_path):
    code = main(["solve", "--codes", "--scenario", arbitrage_path(fixtures_dir),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    trace = read_csv(tmp_path / "trace_codes.csv")
    assert list(trace[0]) == ["iter", "J_est", "max_imbalance_kw",
                              "consensus_disagreement", "primal_step_norm"]
    report = read_report(tmp_path)
    assert report["converged"] is True and report["status"] == "converged"
    assert len(trace) == report["iterations"]
    assert float(trace[-1]["max_imbalance_kw"]) <= report["config"]["tol_balance_kw"]
    assert_report_lists_its_files(tmp_path, report)


def test_solve_codes_iteration_cap_exits_nonzero_but_writes(tmp_path, fixtures_dir):
    sc = load_scenario(arbitrage_path(fixtures_dir))
    starved = write_scenario(tmp_path / "starved.json", with_codes(sc, max_iters=40))
    out = tmp_path / "out"
    code = main(["solve", "--codes", "--scenario", str(starved), "--out-dir", str(out)])
    assert code == 4
    assert (out / "schedule_codes.csv").is_file()
    assert len(read_csv(out / "trace_codes.csv")) == 40


def test_solve_runs_are_bit_identical(fixtures_dir, tmp_path):
    for sub in ("a", "b"):
        main(["solve", "--codes", "--scenario", arbitrage_path(fixtures_dir),
              "--out-dir", str(tmp_path / sub)])
    for name in ("schedule_codes.csv", "trace_codes.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_long_trace_is_formatted_a_slice_at_a_time():
    # 20 000 rounds, as the fixture runs: the text is one csv.writer pass over
    # every row, and formatting it never holds much more than the text and
    # the one copy that joins its slices (2.05 times it; all rows at once took 3.9)
    values = np.random.default_rng(0).random((20000, 4))
    trace = np.rec.fromarrays(values.T, names=("j_est", "max_imbalance_kw",
                                               "consensus_disagreement", "primal_step_norm"))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(cli.TRACE_FIELDS)
    writer.writerows([k, *row] for k, row in enumerate(values.tolist()))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = cli.trace_csv_text(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert text == expected.getvalue()
    assert peak < 2.2 * len(text)


def test_write_atomic_writes_a_text_of_many_slices_byte_for_byte(tmp_path):
    text = "".join(f"{k},{k / 7!r}\r\n" for k in range(3 * cli.WRITE_SLICE_CHARS // 10))
    assert len(text) > 3 * cli.WRITE_SLICE_CHARS
    path = tmp_path / "out" / "long.csv"
    cli.write_atomic(path, text)
    assert path.read_bytes() == text.encode()
    assert list(path.parent.iterdir()) == [path]   # no temp file left behind


def test_write_atomic_leaves_nothing_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli.write_atomic(tmp_path / "a.csv", "x\r\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_gives_a_file_the_mode_of_a_plain_write(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        cli.write_atomic(tmp_path / "a.csv", "x\r\n")
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode) == mode


def test_allocate_table_balances(fixtures_dir, tmp_path, capsys):
    code = main(["allocate", "--scenario", str(fixtures_dir / "three_agent.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "costs.csv")
    report = json.loads((tmp_path / "report.json").read_text())
    allocated = np.array([float(r["J_alloc"]) for r in rows])
    selfish = np.array([float(r["D"]) for r in rows])
    eps = {float(r["epsilon"]) for r in rows}
    assert abs(allocated.sum() - report["j"]) <= 1e-9
    assert len(eps) == 1
    assert np.allclose(selfish - allocated, report["epsilon"], atol=1e-12)
    # each user's bill for its own draw exceeds its share of J by the netting residual
    consumption = np.array([float(r["consumption"]) for r in rows])
    assert abs(consumption.sum() - (report["j"] + report["netting_residual"])) <= 1e-9
    assert report["netting_residual"] >= -1e-9 and report["method"] == "centralized"
    assert "epsilon" in capsys.readouterr().out
    assert_report_lists_its_files(tmp_path, report)


def test_allocate_distributed_matches_centralized(fixtures_dir, tmp_path):
    base = fixtures_dir / "three_agent.json"
    main(["allocate", "--scenario", str(base), "--out-dir", str(tmp_path / "c")])
    code = main(["allocate", "--distributed", "--graph-tol", "1e-8",
                 "--scenario", str(base), "--out-dir", str(tmp_path / "d")])
    assert code == 0
    central = read_csv(tmp_path / "c" / "costs.csv")
    distrib = read_csv(tmp_path / "d" / "costs.csv")
    for rc, rd in zip(central, distrib):
        assert abs(float(rc["J_alloc"]) - float(rd["J_alloc"])) <= 1e-6
        assert rc["consumption"] == rd["consumption"]    # both bill the same schedule
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert 0 < report["rounds"] <= 200
    consumption = sum(float(r["consumption"]) for r in distrib)
    assert abs(consumption - (report["j"] + report["netting_residual"])) <= 1e-9
    assert report["netting_residual"] >= -1e-9 and report["method"] == "distributed"


def test_allocate_out_of_consensus_rounds_writes_nothing(fixtures_dir, tmp_path, capsys,
                                                          monkeypatch):
    # one round cannot bring the fixture's four nodes together, so consensus
    # stops at its cap
    monkeypatch.setattr(graph_module, "MAX_CONSENSUS_ROUNDS", 1)
    out = tmp_path / "out"
    code = main(["allocate", "--distributed",
                 "--scenario", str(fixtures_dir / "three_agent.json"), "--out-dir", str(out)])
    assert code == 4
    assert "after 1 rounds" in capsys.readouterr().err
    assert not out.exists()


def test_allocate_graph_tol_below_float_spacing_stops_at_the_floor(fixtures_dir, tmp_path):
    # no float resolves 1e-300 around costs of order 1: consensus stops at
    # n * spacing(max |start|) instead, and matches the centralized split
    split = {}
    for command in (["allocate"], ["allocate", "--distributed", "--graph-tol", "1e-300"]):
        out = tmp_path / command[-1]
        assert main([*command, "--scenario", str(fixtures_dir / "three_agent.json"),
                     "--out-dir", str(out)]) == 0
        split[command[-1]] = [float(r["J_alloc"]) for r in read_csv(out / "costs.csv")]
    assert np.allclose(split["1e-300"], split["allocate"], rtol=0.0, atol=1e-12)


def scaled_fixture(fixtures_dir, tmp_path, k: float) -> Path:
    """three_agent.json with every kW and kWh value times k, and no codes block."""
    data = json.loads((fixtures_dir / "three_agent.json").read_text())
    del data["codes"]
    data["p_grid_max_kw"] *= k
    for a in data["agents"]:
        a["demand_kw"] = [k * v for v in a["demand_kw"]]
        a["renewable_kw"] = [k * v for v in a["renewable_kw"]]
        if "desd" in a:
            a["desd"] = {name: k * v for name, v in a["desd"].items()}
    path = tmp_path / f"x{k:g}.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("k", [10**7.9, 1e8, 1e9, 10**10.4, 3e10, 1e11])
def test_a_day_in_any_unit_solves_and_splits_at_k_times_the_cost(fixtures_dir, tmp_path, k):
    # the LP is homogeneous in kW and kWh, so J scales by k; residuals of
    # 1e-8 to 1e-4 kW on rows and bounds of 1e8 to 1e11 kW are rounding, not a
    # fault (exit 7), nor a reason to call a stand-alone day infeasible (exit 3)
    assert main(["solve", "--scenario", str(fixtures_dir / "three_agent.json"),
                 "--out-dir", str(tmp_path / "ref")]) == 0
    j = read_report(tmp_path / "ref")["j"]
    path = scaled_fixture(fixtures_dir, tmp_path, k)
    for command in (["solve"], ["allocate"], ["allocate", "--distributed"]):
        out = tmp_path / "-".join(command)
        assert main([*command, "--scenario", str(path), "--out-dir", str(out)]) == 0
        assert abs(read_report(out)["j"] - k * j) <= 1e-9 * k * abs(j)


def test_a_distributed_split_of_costs_near_1e11_finishes(fixtures_dir, tmp_path):
    # floats near these costs are 1.5e-5 apart, 20 times --graph-tol: consensus
    # stops at the spacing it can resolve instead of running out of rounds
    out = tmp_path / "out"
    assert main(["allocate", "--distributed", "--scenario",
                 str(scaled_fixture(fixtures_dir, tmp_path, 1e10)), "--out-dir", str(out)]) == 0
    j = read_report(out)["j"]
    total = sum(float(r["J_alloc"]) for r in read_csv(out / "costs.csv"))
    assert abs(total - j) <= 1e-12 * abs(j)


def test_a_day_whose_split_overflows_is_validation_error(tmp_path, capsys):
    # each bill bound, 1e10 kW * 1 h * 4 * 4.2e297, fits a float, but the
    # split sums five bills: such a day once gave exit 0 with -inf shares
    steps = [0.0] * 4
    users = [{"id": i, "role": "passive", "demand_kw": [1e10] * 4, "renewable_kw": steps}
             for i in (1, 2)]
    users += [{"id": i, "role": "active", "demand_kw": steps, "renewable_kw": [1e10] * 4,
               "desd": {"e0_kwh": 1.0, "emin_kwh": 0.0, "emax_kwh": 2.0,
                        "p_charge_max_kw": 1.0, "p_discharge_max_kw": 1.0}} for i in (3, 4)]
    data = {"horizon": 4, "dt_hours": 1.0, "p_grid_max_kw": 1e10,
            "tariff": {"buy": [4.2e297] * 4, "sell": steps},
            "agents": users + [{"id": 5, "role": "grid", "demand_kw": steps, "renewable_kw": steps}],
            "graph": {"edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}}
    path = tmp_path / "day.json"
    path.write_text(json.dumps(data))
    for command in (["validate"], ["solve"], ["solve", "--codes"], ["allocate"],
                    ["allocate", "--distributed"], ["compare"]):
        out = tmp_path / "out"
        assert main([*command, "--scenario", str(path), "--out-dir", str(out)]) == 2
        assert "(n_users + 1) * p_grid_max_kw" in capsys.readouterr().err
        assert not out.exists()


def test_allocate_refuses_to_split_a_diverged_social_cost(fixtures_dir, tmp_path, capsys):
    # a diverged codes run has J = NaN: neither split takes it, so no shares are
    # written, and both name the run's status
    sc = load_scenario(fixtures_dir / "three_agent.json")
    wild = write_scenario(tmp_path / "wild.json", with_codes(sc, xi3=1e308, max_iters=300.0))
    for split in (["--distributed"], []):
        out = tmp_path / f"out{len(split)}"
        with pytest.warns(RuntimeWarning):
            code = main(["allocate", *split, "--social-method", "codes",
                         "--scenario", str(wild), "--out-dir", str(out)])
        assert code == 4
        assert capsys.readouterr().err == ("error: run ended diverged and its split failed: "
                                           "cooperative cost nan is not finite; there is "
                                           "nothing to split\n")
        assert not out.exists()


def test_grid_only_scenario_is_rejected_before_allocating(fixtures_dir, tmp_path, capsys):
    # with no user there is nothing to split: epsilon would be 0 / 0
    data = json.loads(Path(arbitrage_path(fixtures_dir)).read_text())
    data["agents"] = [a for a in data["agents"] if a["role"] == "grid"]
    data["graph"]["edges"] = []
    path = tmp_path / "grid_only.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = main(["allocate", "--distributed", "--scenario", str(path), "--out-dir", str(out)])
    assert code == 2
    assert "at least one user" in capsys.readouterr().err
    assert not out.exists()


def test_allocate_with_codes_social_cost(fixtures_dir, tmp_path, monkeypatch):
    real_run_codes, runs = cli.run_codes, []

    def recording_run_codes(sc):
        runs.append(real_run_codes(sc))
        return runs[-1]
    monkeypatch.setattr(cli, "run_codes", recording_run_codes)
    code = main(["allocate", "--social-method", "codes", "--scenario",
                 arbitrage_path(fixtures_dir), "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["social_method"] == "codes"
    (result,) = runs
    sc = load_scenario(arbitrage_path(fixtures_dir))
    assert report["j"] == result.j == schedule_cost(sc, result.schedule)
    # the codes run balances to 1e-3 kW, so J meets the 0.5 % contract, not the optimum
    assert abs(report["j"] - (-1.4)) <= 0.005 * 1.4
    allocated = [float(r["J_alloc"]) for r in read_csv(tmp_path / "costs.csv")]
    assert abs(sum(allocated) - report["j"]) <= 1e-9


def test_allocate_failed_bargaining_exit_code(fixtures_dir, tmp_path, monkeypatch):
    # force a disagreement point that cooperation cannot beat
    monkeypatch.setattr(cli, "disagreement_point", lambda sc: np.full(sc.n_users, -100.0))
    code = main(["allocate", "--scenario", arbitrage_path(fixtures_dir),
                 "--out-dir", str(tmp_path)])
    assert code == 5


@pytest.mark.parametrize("distributed", [[], ["--distributed"]], ids=["centralized", "distributed"])
@pytest.mark.parametrize("spec, codes, status", [
    # stops at 300 rounds with J_codes above the stand-alone total
    (GenSpec(users=(1, 1), active=(1, 1), horizon=(5, 5), graph="complete"),
     {"max_iters": 300.0}, "iteration-cap"),
    # converges at round 11 023 with J_codes 1.9e-4 above the stand-alone total, which is J*
    (GenSpec(users=(1, 1), active=(0, 0), horizon=(1, 1), graph="path"), {}, "converged"),
], ids=["capped", "converged"])
def test_allocate_failed_split_of_a_run_exits_4(tmp_path, capsys, distributed, spec, codes,
                                                status):
    # on a 1-user day cooperation costs nothing, so a split that fails is the
    # run's fault, not the day's, whatever the run's status: allocate exits 4
    # and names the status, not 5, and writes nothing
    sc = gen_scenario(spec, 0)
    path = write_scenario(tmp_path / "day.json", with_codes(sc, **codes))
    out = tmp_path / "out"
    code = main(["allocate", *distributed, "--social-method", "codes",
                 "--scenario", str(path), "--out-dir", str(out)])
    assert code == 4
    assert f"run ended {status}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_passes_on_pinned_fixture(fixtures_dir, tmp_path, capsys):
    code = main(["compare", "--scenario", str(fixtures_dir / "three_agent.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "rel_gap" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rel_gap"] <= 0.005
    assert report["iterations"] <= 20000
    assert (tmp_path / "schedule_centralized.csv").is_file()
    assert (tmp_path / "schedule_codes.csv").is_file()
    assert (tmp_path / "trace_codes.csv").is_file()
    assert_report_lists_its_files(tmp_path, report)


def test_compare_zero_tolerance_fails(fixtures_dir, tmp_path):
    code = main(["compare", "--tol", "0", "--scenario", arbitrage_path(fixtures_dir),
                 "--out-dir", str(tmp_path)])
    assert code == 6


def test_compare_divergent_steps_reports_nonconvergence(fixtures_dir, tmp_path):
    sc = load_scenario(arbitrage_path(fixtures_dir))
    wild = write_scenario(tmp_path / "wild.json",
                          with_codes(sc, max_iters=400, xi1_desd=10.0, xi1_grid=10.0))
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(wild), "--out-dir", str(out)])
    assert code == 4
    assert len(read_csv(out / "trace_codes.csv")) == 400


def test_compare_fails_a_run_that_diverges(fixtures_dir, tmp_path, capsys):
    # a NaN cost gap is not within tolerance, and report.json writes NaN costs as null
    sc = load_scenario(fixtures_dir / "three_agent.json")
    wild = write_scenario(tmp_path / "wild.json", with_codes(sc, xi3=1e308, max_iters=300.0))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code = main(["compare", "--scenario", str(wild), "--out-dir", str(out)])
    assert code == 4
    assert "J_codes = nan" in capsys.readouterr().out
    assert len(read_csv(out / "trace_codes.csv")) == 2
    report = read_report(out)
    assert (report["status"], report["j_codes"], report["rel_gap"]) == ("diverged", None, None)
    with pytest.warns(RuntimeWarning):
        code = main(["solve", "--codes", "--scenario", str(wild), "--out-dir", str(tmp_path / "s")])
    assert code == 4
    assert "stopped when the run went non-finite" in capsys.readouterr().err
    report = read_report(tmp_path / "s")
    assert (report["status"], report["j"]) == ("diverged", None)


@pytest.mark.parametrize("settings, status", [
    ({"xi3": 1e308, "max_iters": 2.0}, "diverged"),
    ({"max_iters": 300.0}, "iteration-cap"),
])
def test_solve_codes_names_how_the_run_stopped(fixtures_dir, tmp_path, capsys, settings, status):
    # with max_iters = 2 the run goes non-finite at its last allowed round:
    # that run diverged, though it used its whole budget
    sc = load_scenario(fixtures_dir / "three_agent.json")
    path = write_scenario(tmp_path / "sc.json", with_codes(sc, **settings))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["solve", "--codes", "--scenario", str(path), "--out-dir", str(out)])
    assert code == 4
    assert f"warning: {status}:" in capsys.readouterr().err
    report = read_report(out)
    assert report["status"] == status
    assert report["iterations"] == report["config"]["max_iters"]


def test_infeasible_scenario_exit_code(tmp_path):
    sc = gen_scenario(GenSpec(users=(2, 2), active=(0, 0), horizon=(3, 3)), 0)
    squeezed = dataclasses.replace(sc, p_grid_max_kw=0.01)
    path = write_scenario(tmp_path / "squeezed.json", squeezed)
    assert main(["solve", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 3


def test_renewable_surplus_above_the_grid_limit_exits_3(tmp_path, capsys):
    # 46 kW of sun on 1 kW of demand at step 1: a 45 kW surplus, against a 30 kW
    # export limit and a 1 kW charge rating
    battery = DesdSpec(e0_kwh=2.0, emin_kwh=0.0, emax_kwh=4.0,
                       p_charge_max_kw=1.0, p_discharge_max_kw=1.0)
    t = 3
    agents = (AgentSpec(id=1, role="active", demand_kw=(1.0,) * t,
                        renewable_kw=(0.0, 46.0, 0.0), desd=battery),
              AgentSpec(id=2, role="grid", demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t))
    sc = Scenario(horizon=t, dt_hours=1.0, p_grid_max_kw=30.0,
                  tariff=Tariff(buy=(0.2,) * t, sell=(0.1,) * t), agents=agents,
                  graph=metropolis_weights([1, 2], [(1, 2)]))
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(write_scenario(tmp_path / "sunny.json", sc)),
                 "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == ("error: step 1: renewable surplus 45.000 kW exceeds the "
                                       "grid limit 30.0 kW even at full charge\n")
    assert not out.exists()


def test_infeasible_owner_in_the_middle_of_the_stand_alone_chain(tmp_path, capsys,
                                                                 monkeypatch):
    # owner 2's 40 kW at step 3 is more than the 30 kW grid limit and its
    # 1 kW battery can cover, while owners 1 and 3 export enough to carry it
    # together; its warm stand-alone solve falls back to phase 1, which
    # decides, and the diagnosis is the one the first infeasible step gives
    battery = DesdSpec(e0_kwh=2.0, emin_kwh=0.0, emax_kwh=4.0,
                       p_charge_max_kw=1.0, p_discharge_max_kw=1.0)
    t = 6
    demand = {1: (1.0,) * t, 2: (2.0, 2.0, 2.0, 40.0, 2.0, 2.0), 3: (1.0,) * t}
    renewable = {1: (0.0, 0.0, 0.0, 20.0, 0.0, 0.0), 2: (0.0,) * t,
                 3: (0.0, 0.0, 0.0, 10.0, 0.0, 0.0)}
    agents = tuple(AgentSpec(id=k, role="active", demand_kw=demand[k],
                             renewable_kw=renewable[k], desd=battery) for k in (1, 2, 3))
    agents += (AgentSpec(id=4, role="grid", demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t),)
    sc = Scenario(horizon=t, dt_hours=1.0, p_grid_max_kw=30.0,
                  tariff=Tariff(buy=(0.2,) * t, sell=(0.1,) * t), agents=agents,
                  graph=metropolis_weights([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]))
    assert main(["solve", "--scenario", str(write_scenario(tmp_path / "chain.json", sc)),
                 "--out-dir", str(tmp_path / "solved")]) == 0
    solves = []
    solve_lp = centralized.solve_lp

    def recording(lp, start=None, warm=None):
        sol = solve_lp(lp, start=start, warm=warm)
        solves.append((warm is not None, sol.status, sol.phase1_pivots > 0))
        return sol

    monkeypatch.setattr(centralized, "solve_lp", recording)
    for extra in ([], ["--distributed"]):
        del solves[:]
        code = main(["allocate", *extra, "--scenario", str(tmp_path / "chain.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: agent 2 alone, step 3: net demand 40.000 kW exceeds the grid limit "
            "30.0 kW even at full discharge\n")
        # owner 1 from its start, then owner 2 warm from owner 1
        assert solves == [(False, "optimal", False), (True, "infeasible", True)]


def test_internal_solver_fault_exit_code(fixtures_dir, tmp_path, monkeypatch):
    # a cycling simplex is a bug in the solver, not an infeasible scenario
    def cycling(sc):
        raise LpCycleError("pivot guard exceeded")

    monkeypatch.setattr(cli, "solve_social", cycling)
    code = main(["solve", "--scenario", arbitrage_path(fixtures_dir),
                 "--out-dir", str(tmp_path)])
    assert code == 7


def test_weights_matrix_is_doubly_stochastic(fixtures_dir, tmp_path):
    code = main(["weights", "--scenario", str(fixtures_dir / "three_agent.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "weights.csv")
    w = np.array([[float(r[c]) for c in ("1", "2", "3", "4")] for r in rows])
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(w, w.T)


def test_gen_is_deterministic_and_valid(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "11", "--out", str(a), "--graph", "star"]) == 0
    assert main(["gen", "--seed", "11", "--out", str(b), "--graph", "star"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["validate", "--scenario", str(a)]) == 0


def test_gen_bad_range_is_validation_error(tmp_path):
    code = main(["gen", "--seed", "0", "--users", "0", "0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_gen_zero_step_horizon_names_the_field(tmp_path, capsys):
    code = main(["gen", "--seed", "0", "--horizon", "0", "0", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
