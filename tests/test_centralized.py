import numpy as np
import pytest

from bruteforce import brute_force_schedule
from coopgrid import centralized
from coopgrid.centralized import (
    InfeasibleScenarioError,
    build_social_lp,
    check_schedule,
    csv_text,
    net_exchange,
    read_schedule_csv,
    schedule_cost,
    schedule_csv_text,
    solve_social,
    stored_energy,
)
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights
from coopgrid.lp import _to_standard_form, solve_lp
from coopgrid.scenario import AgentSpec, DesdSpec, Scenario, Tariff, load_scenario

from lp_families import random_boxed_lp
from tiny_scenarios import tiny_scenario


def passive_only_scenario(demand, buy, sell, p_grid_max=50.0, dt=1.0):
    t = len(demand)
    agents = (
        AgentSpec(id=1, role="passive", demand_kw=tuple(demand), renewable_kw=(0.0,) * t),
        AgentSpec(id=2, role="grid", demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t),
    )
    return Scenario(horizon=t, dt_hours=dt, p_grid_max_kw=p_grid_max,
                    tariff=Tariff(buy=tuple(buy), sell=tuple(sell)),
                    agents=agents, graph=metropolis_weights([1, 2], [(1, 2)]))


def test_flat_passive_demand_costs_sum_of_purchases():
    # 1 kW around the clock at a flat price: cost is just 24 * price
    sc = passive_only_scenario([1.0] * 24, [0.1] * 24, [0.08] * 24)
    schedule, j = solve_social(sc)
    assert abs(j - 24 * 0.1) < 1e-9
    assert np.allclose(schedule.grid_buy_kw, 1.0, atol=1e-9)
    assert np.allclose(schedule.grid_sell_kw, 0.0, atol=1e-9)
    assert check_schedule(sc, schedule) == []


def test_arbitrage_fixture_value(fixtures_dir):
    # charge 4 kWh cheap, sell them back at the expensive step: 0.4 - 1.8
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    schedule, j = solve_social(sc)
    assert abs(j - (-1.4)) < 1e-9
    assert np.allclose(schedule.desd_power_kw[1], [-4.0, 4.0], atol=1e-9)
    bf = brute_force_schedule(sc, grid_step=0.01)
    assert abs(bf.j - (-1.4)) < 1e-9


def test_brute_force_never_beats_lp_and_refines_monotonically():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sc = tiny_scenario(rng)
        _, j = solve_social(sc)
        coarse = brute_force_schedule(sc, grid_step=0.25).j
        fine = brute_force_schedule(sc, grid_step=0.125).j
        assert coarse >= j - 1e-9
        assert fine >= j - 1e-9
        assert fine <= coarse + 1e-12   # refined grid contains the coarse one


def test_never_buys_and_sells_in_the_same_step():
    rng = np.random.default_rng(29)
    for _ in range(40):
        sc = tiny_scenario(rng)
        schedule, _ = solve_social(sc)
        overlap = np.minimum(schedule.grid_buy_kw, schedule.grid_sell_kw)
        assert overlap.max(initial=0.0) <= 1e-7


def test_oracle_schedules_validate_cleanly():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sc = tiny_scenario(rng)
        schedule, j = solve_social(sc)
        assert check_schedule(sc, schedule) == []
        assert abs(schedule_cost(schedule, sc.tariff) - j) <= 1e-9 * (1 + abs(j))


def test_social_lp_is_state_variable_form():
    # boxes stay out of the rows: the standard form has one row per LP row,
    # and the 10-user 48-step ring day needs no inequality row at all
    rng = np.random.default_rng(5)
    for _ in range(20):
        lp = random_boxed_lp(rng)
        assert _to_standard_form(lp).a.shape[0] == lp.a_eq.shape[0] + lp.a_ub.shape[0]
    sc = gen_scenario(GenSpec(users=(10, 10), active=(5, 5), horizon=(48, 48),
                              graph="ring"), seed=1)
    lp = build_social_lp(sc)
    assert lp.a_ub.shape[0] == 0
    assert _to_standard_form(lp).a.shape == (288, 576)
    # columns: buy | sell | P_i | E_i, one block of T per device in id order
    t, n = sc.horizon, len(sc.active_users)
    rows = solve_lp(lp).x.reshape(-1, t)
    assert rows.shape == (2 + 2 * n, t)
    for k, a in enumerate(sc.active_users):
        expected = stored_energy(a.desd, rows[2 + k], sc.dt_hours)
        assert np.allclose(rows[2 + n + k], expected, rtol=0.0, atol=1e-9)


def test_net_exchange():
    buy, sell = net_exchange(np.array([3.0, 1.0, 0.0]), np.array([1.0, 1.0, 2.0]))
    assert np.allclose(buy, [2.0, 0.0, 0.0])
    assert np.allclose(sell, [0.0, 0.0, 2.0])


def test_stored_energy_trajectory():
    desd = DesdSpec(e0_kwh=5.0, emin_kwh=1.0, emax_kwh=9.0,
                    p_charge_max_kw=4.0, p_discharge_max_kw=4.0)
    e = stored_energy(desd, np.array([2.0, -3.0, 1.0]), dt_hours=0.5)
    assert np.allclose(e, [4.0, 5.5, 5.0])


def test_battery_free_day_runs_no_simplex(monkeypatch):
    sc = passive_only_scenario([1.0, 0.0, 2.5], [0.1, 0.3, 0.2], [0.05, 0.1, 0.1])
    lp = build_social_lp(sc)
    sol = solve_lp(lp)

    def no_simplex(lp):
        raise AssertionError("a day without a battery needs no simplex")
    monkeypatch.setattr(centralized, "solve_lp", no_simplex)
    schedule, j = solve_social(sc)
    assert j == sol.objective_value
    assert schedule.grid_buy_kw.tolist() == sol.x[:3].tolist() == [1.0, 0.0, 2.5]
    assert schedule.desd_power_kw == {}


def test_infeasible_demand_reports_binding_step():
    sc = passive_only_scenario([1.0, 40.0], [0.1, 0.1], [0.05, 0.05], p_grid_max=5.0)
    with pytest.raises(InfeasibleScenarioError) as exc:
        solve_social(sc)
    assert "step 1" in str(exc.value)


def test_energy_coupled_infeasibility_mentions_coupling(fixtures_dir):
    # shrink the box so the initial charge must leave but has nowhere to go
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    from dataclasses import replace
    agent = sc.agents[0]
    bad = replace(sc, agents=(replace(agent, desd=replace(agent.desd, e0_kwh=9.0,
                                                          emin_kwh=9.0, emax_kwh=9.0)),
                              sc.agents[1]),
                  p_grid_max_kw=1.0, tariff=sc.tariff)
    # demand 3 kW exceeds grid 1 kW and the pinned battery cannot help
    bad = replace(bad, agents=(replace(bad.agents[0], demand_kw=(3.0, 3.0)),
                               bad.agents[1]))
    with pytest.raises(InfeasibleScenarioError):
        solve_social(bad)


def test_grid_cap_forces_precharging():
    # demand spike above the cap is only coverable from storage filled earlier
    t = 3
    agents = (
        AgentSpec(id=1, role="active", demand_kw=(0.0, 0.0, 6.0), renewable_kw=(0.0,) * t,
                  desd=DesdSpec(e0_kwh=0.0, emin_kwh=0.0, emax_kwh=5.0,
                                p_charge_max_kw=3.0, p_discharge_max_kw=3.0)),
        AgentSpec(id=2, role="grid", demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t),
    )
    sc = Scenario(horizon=t, dt_hours=1.0, p_grid_max_kw=4.0,
                  tariff=Tariff(buy=(0.1, 0.1, 0.1), sell=(0.05, 0.05, 0.05)),
                  agents=agents, graph=metropolis_weights([1, 2], [(1, 2)]))
    schedule, j = solve_social(sc)
    assert check_schedule(sc, schedule) == []
    # at the spike the grid is pinned to 4 kW and storage supplies 2 kW
    assert schedule.desd_power_kw[1][2] >= 2.0 - 1e-9
    assert abs(j - 0.6) < 1e-9   # 6 kWh bought in total either way


def test_check_schedule_flags_tampering(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    schedule, _ = solve_social(sc)

    schedule.grid_buy_kw[0] += 0.5
    faults = check_schedule(sc, schedule)
    assert any("balance" in f for f in faults)
    schedule.grid_buy_kw[0] -= 0.5

    schedule.desd_power_kw[1][:] = [-8.0, 8.0]
    faults = check_schedule(sc, schedule)
    assert any("charge above rating" in f for f in faults)

    schedule.desd_power_kw[1][:] = [-5.0, -5.0]   # lands at 11 kWh, box ends at 9
    faults = check_schedule(sc, schedule)
    assert any("above emax" in f for f in faults)


def test_csv_text_writes_ints_and_strings_as_they_are_and_floats_by_repr():
    floats = [np.float64(0.1), -0.0, 0.1 + 0.2, 1e-300]
    text = csv_text(["t", "agent", "a", "b", "c", "d"], [[7, "x", *floats]])
    assert text == "t,agent,a,b,c,d\r\n7,x,0.1,-0.0,0.30000000000000004,1e-300\r\n"
    back = [float(v) for v in text.splitlines()[1].split(",")[2:]]
    assert np.array(back).tobytes() == np.array(floats).tobytes()   # -0.0 keeps its sign


def test_schedule_csv_round_trip(tmp_path, fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    schedule, _ = solve_social(sc)
    path = tmp_path / "schedule.csv"
    path.write_text(schedule_csv_text(sc, schedule), newline="")
    again = read_schedule_csv(path, sc.dt_hours)
    assert np.array_equal(again.grid_buy_kw, schedule.grid_buy_kw)
    assert np.array_equal(again.grid_sell_kw, schedule.grid_sell_kw)
    assert np.array_equal(again.desd_power_kw[1], schedule.desd_power_kw[1])
    header = path.read_text().splitlines()[0]
    assert header == "t,P_G_buy_kw,P_G_sell_kw,P_B_1_kw,E_1_kwh"
