import dataclasses

import numpy as np
import pytest

from coopgrid import centralized
from coopgrid.centralized import InfeasibleScenarioError, day_lp, solve_day, solve_social
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights
from coopgrid.scenario import (AgentSpec, DesdSpec, Scenario, Tariff, load_scenario,
                               validate_scenario)
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
    return solve_day(sc, [agent], day_lp(sc, [agent]))[:2]


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
            schedule, _, _ = solve_day(sc, [a], day_lp(sc, [a]))
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


def test_the_fixture_chain_starts_each_owner_warm_from_the_last(fixtures_dir, monkeypatch):
    # user 1 from the day's start, user 3 from user 1's optimal tableau by the
    # dual simplex, with no start built for it; passive user 2 runs no simplex
    # and does not break the chain
    sc = load_scenario(fixtures_dir / "three_agent.json")
    cold = [solve_day(sc, [a], day_lp(sc, [a]))[1] for a in sc.users]
    solves = []
    solve_lp = centralized.solve_lp

    def recording(lp, start=None, warm=None):
        sol = solve_lp(lp, start=start, warm=warm)
        solves.append((sol.phase1_pivots, sol.phase2_pivots, start is not None, warm is not None))
        return sol

    monkeypatch.setattr(centralized, "solve_lp", recording)
    d = disagreement_point(sc)
    assert solves == [(0, 15, True, False), (0, 28, False, True)]
    assert np.allclose(d, cold, rtol=1e-12, atol=0.0)


def test_a_battery_never_raises_the_social_cost_or_its_owners_own():
    # the day LP of a user with a battery contains the one without it (the
    # battery idles), so J and that user's D cannot rise; no other user's
    # stand-alone day changes
    days = 0
    for seed in range(40):
        sc = gen_scenario(GenSpec(users=(3, 6), active=(0, 3), horizon=(24, 24), graph="ring"),
                          seed)
        user = next((a for a in sc.users if a.desd is None), None)
        if user is None:
            continue
        battery = DesdSpec(e0_kwh=2.0, emin_kwh=0.5, emax_kwh=6.0,
                           p_charge_max_kw=2.0, p_discharge_max_kw=2.0)
        owner = dataclasses.replace(user, role="active", desd=battery)
        more = dataclasses.replace(sc, agents=tuple(owner if a is user else a for a in sc.agents))
        validate_scenario(more)
        (_, j), (_, j_more) = solve_social(sc), solve_social(more)
        assert j_more <= j + 1e-9 * (1.0 + abs(j))
        d, d_more = disagreement_point(sc), disagreement_point(more)
        k = sc.users.index(user)
        assert d_more[k] <= d[k] + 1e-9 * (1.0 + abs(d[k]))
        others = np.arange(len(d)) != k
        assert np.all(np.abs(d_more[others] - d[others]) <= 1e-9 * (1.0 + np.abs(d[others])))
        days += 1
    assert days == 39


def test_more_renewables_never_raise_the_social_cost_or_their_owners_own():
    # while the added surplus stays inside the grid limit (the generator leaves
    # that margin), the old schedule stays feasible, drawing less or exporting
    # more at a sell price >= 0, so J and the owner's D cannot rise; no other
    # user's stand-alone day changes
    for seed in range(40):
        sc = gen_scenario(GenSpec(users=(3, 6), active=(1, 4), horizon=(24, 24), graph="ring"),
                          seed)
        user = sc.active_users[0]
        extra = np.random.default_rng(seed).uniform(0.0, 1.0, sc.horizon)
        renewable = tuple(np.add(user.renewable_kw, extra).tolist())
        sunnier = dataclasses.replace(user, renewable_kw=renewable)
        more = dataclasses.replace(sc, agents=tuple(sunnier if a is user else a for a in sc.agents))
        validate_scenario(more)
        (_, j), (_, j_more) = solve_social(sc), solve_social(more)
        assert j_more <= j + 1e-9 * (1.0 + abs(j))
        d, d_more = disagreement_point(sc), disagreement_point(more)
        k = sc.users.index(user)
        assert d_more[k] <= d[k] + 1e-9 * (1.0 + abs(d[k]))
        others = np.arange(len(d)) != k
        assert np.all(np.abs(d_more[others] - d[others]) <= 1e-9 * (1.0 + np.abs(d[others])))
