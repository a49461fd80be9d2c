import numpy as np
import pytest

from coopgrid.centralized import InfeasibleScenarioError, day_lp, solve_day, solve_social
from coopgrid.graph import metropolis_weights
from coopgrid.scenario import AgentSpec, DesdSpec, Scenario, Tariff, load_scenario
from coopgrid.selfish import disagreement_point

from tiny_scenarios import tiny_scenario


def stand_alone(agent, tariff, p_grid_max_kw, dt_hours):
    """Solve `agent`'s day alone in a scenario of that agent and the grid."""
    t = len(agent.demand_kw)
    grid = AgentSpec(id=agent.id + 1, role="grid", demand_kw=(0.0,) * t,
                     renewable_kw=(0.0,) * t)
    sc = Scenario(horizon=t, dt_hours=dt_hours, p_grid_max_kw=p_grid_max_kw, tariff=tariff,
                  agents=(agent, grid),
                  graph=metropolis_weights([agent.id, grid.id], [(agent.id, grid.id)]))
    return solve_day(sc, [agent], day_lp(sc, [agent]))


def test_passive_user_pays_the_posted_price():
    agent = AgentSpec(id=1, role="passive", demand_kw=(2.0, 1.0, 0.5),
                      renewable_kw=(0.0, 0.0, 0.0))
    tariff = Tariff(buy=(0.1, 0.2, 0.4), sell=(0.05, 0.1, 0.2))
    schedule, cost = stand_alone(agent, tariff, p_grid_max_kw=10.0, dt_hours=1.0)
    assert abs(cost - (0.2 + 0.2 + 0.2)) < 1e-9
    assert np.allclose(schedule.grid_buy_kw, agent.demand_kw)
    assert schedule.desd_power_kw == {}


def test_renewable_surplus_earns_negative_cost():
    agent = AgentSpec(id=1, role="active", demand_kw=(0.0, 1.0),
                      renewable_kw=(3.0, 1.0),
                      desd=DesdSpec(e0_kwh=1.0, emin_kwh=1.0, emax_kwh=1.0,
                                    p_charge_max_kw=1e-9, p_discharge_max_kw=1e-9))
    # storage box is effectively frozen; surplus must be exported
    tariff = Tariff(buy=(0.2, 0.2), sell=(0.1, 0.1))
    _, cost = stand_alone(agent, tariff, p_grid_max_kw=10.0, dt_hours=1.0)
    assert cost < 0
    assert abs(cost - (-0.3)) < 1e-6


def test_arbitrage_fixture_single_user_matches_social(fixtures_dir):
    # one user bargaining with itself: stand-alone equals cooperative
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    _, j = solve_social(sc)
    d = disagreement_point(sc)
    assert d.shape == (1,)
    assert abs(d[0] - j) < 1e-9


def test_stand_alone_total_never_beats_social():
    rng = np.random.default_rng(37)
    for _ in range(30):
        sc = tiny_scenario(rng)
        _, j = solve_social(sc)
        d = disagreement_point(sc)
        assert d.sum() >= j - 1e-9


def test_selfish_solution_balances_per_step():
    rng = np.random.default_rng(41)
    for _ in range(20):
        sc = tiny_scenario(rng)
        for a in sc.users:
            schedule, _ = solve_day(sc, [a], day_lp(sc, [a]))
            dispatch = schedule.desd_power_kw.get(a.id, 0.0)
            net = np.array(a.demand_kw) - np.array(a.renewable_kw) - dispatch
            assert np.allclose(schedule.grid_buy_kw - schedule.grid_sell_kw, net, atol=1e-8)
            assert np.minimum(schedule.grid_buy_kw,
                              schedule.grid_sell_kw).max(initial=0.0) <= 1e-9


def test_disagreement_point_is_each_users_day_alone():
    rng = np.random.default_rng(43)
    sc = tiny_scenario(rng)
    d = disagreement_point(sc)
    assert np.allclose(d, [solve_day(sc, [a], day_lp(sc, [a]))[1] for a in sc.users])


def test_overloaded_agent_raises_with_id():
    agent = AgentSpec(id=7, role="passive", demand_kw=(99.0,), renewable_kw=(0.0,))
    tariff = Tariff(buy=(0.1,), sell=(0.05,))
    with pytest.raises(InfeasibleScenarioError) as exc:
        stand_alone(agent, tariff, p_grid_max_kw=5.0, dt_hours=1.0)
    assert "agent 7" in str(exc.value)
