import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import coopgrid.cli as cli
from coopgrid.centralized import schedule_cost
from coopgrid.cli import main
from coopgrid.lp import LpCycleError
from coopgrid.scenario import dump_scenario, load_scenario, scenario_digest
from coopgrid.generate import GenSpec, gen_scenario


def write_scenario(path: Path, sc) -> Path:
    path.write_text(dump_scenario(sc))
    return path


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


@pytest.mark.parametrize("codes", [(("max_iters", -5.0),), (("bogus", 1.0),)],
                         ids=["out-of-range", "unknown-key"])
def test_validate_checks_solver_settings(fixtures_dir, tmp_path, capsys, codes):
    # validate accepts exactly what solve --codes accepts
    sc = load_scenario(arbitrage_path(fixtures_dir))
    path = write_scenario(tmp_path / "bad_codes.json", dataclasses.replace(sc, codes=codes))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert codes[0][0] in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["solve", "--codes", "--scenario", str(path), "--out-dir", str(out)]) == 2
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


def test_missing_scenario_leaves_no_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", "--scenario", str(tmp_path / "nope.json"),
                 "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()


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
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert len(trace) == report["iterations"]
    assert float(trace[-1]["max_imbalance_kw"]) <= report["config"]["tol_balance_kw"]
    assert_report_lists_its_files(tmp_path, report)


def test_solve_codes_iteration_cap_exits_nonzero_but_writes(tmp_path, fixtures_dir):
    sc = load_scenario(arbitrage_path(fixtures_dir))
    starved = write_scenario(tmp_path / "starved.json",
                             dataclasses.replace(sc, codes=(("max_iters", 40.0),)))
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
    rounds = json.loads((tmp_path / "d" / "report.json").read_text())["rounds"]
    assert 0 < rounds <= 200


def test_allocate_out_of_consensus_rounds_writes_nothing(fixtures_dir, tmp_path, capsys):
    # 1e-300 is never reached, so consensus stops at its 100 000-round cap
    out = tmp_path / "out"
    code = main(["allocate", "--distributed", "--graph-tol", "1e-300",
                 "--scenario", str(fixtures_dir / "three_agent.json"), "--out-dir", str(out)])
    assert code == 4
    assert "100000" in capsys.readouterr().err
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
    assert report["j"] == result.j == schedule_cost(result.schedule, sc.tariff)
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
    wild = write_scenario(
        tmp_path / "wild.json",
        dataclasses.replace(sc, codes=(("max_iters", 400.0), ("xi1_desd", 10.0),
                                       ("xi1_grid", 10.0))))
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(wild), "--out-dir", str(out)])
    assert code == 4
    assert len(read_csv(out / "trace_codes.csv")) == 400


def test_infeasible_scenario_exit_code(tmp_path):
    sc = gen_scenario(GenSpec(users=(2, 2), active=(0, 0), horizon=(3, 3)), 0)
    squeezed = dataclasses.replace(sc, p_grid_max_kw=0.01)
    path = write_scenario(tmp_path / "squeezed.json", squeezed)
    assert main(["solve", "--scenario", str(path), "--out-dir", str(tmp_path)]) == 3


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
