import dataclasses

import numpy as np
import pytest

from bruteforce import brute_force_schedule
from coopgrid import centralized
from coopgrid.centralized import (
    InfeasibleScenarioError,
    build_social_lp,
    check_schedule,
    csv_text,
    day_start,
    net_exchange,
    read_schedule_csv,
    schedule_cost,
    schedule_csv_text,
    solve_day,
    solve_social,
    stored_energy,
)
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights
from coopgrid.lp import LpTableau, _enter_start, _point, solve_lp
from coopgrid.scenario import (AgentSpec, DesdSpec, Scenario, Tariff, load_scenario,
                               validate_scenario)
from coopgrid.selfish import disagreement_point

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
        assert abs(schedule_cost(sc, schedule) - j) <= 1e-9 * (1 + abs(j))


def test_social_lp_is_state_variable_form():
    # boxes stay out of the rows: the standard form has one row per LP row and
    # one column per variable plus one slack per inequality row, and the
    # 10-user 48-step ring day needs no inequality row at all
    rng = np.random.default_rng(5)
    sc = gen_scenario(GenSpec(users=(10, 10), active=(5, 5), horizon=(48, 48),
                              graph="ring"), seed=1)
    lp = build_social_lp(sc)
    # (`LpTableau.of` builds it in the tableau: one more row for the cost
    # and one more column for the right-hand side)
    for case in [random_boxed_lp(rng) for _ in range(20)] + [lp]:
        assert LpTableau.of(case).tab.shape == (case.a_eq.shape[0] + case.a_ub.shape[0] + 1,
                                                case.n_vars + case.a_ub.shape[0] + 1)
    assert lp.a_ub.shape[0] == 0
    assert LpTableau.of(lp).tab.shape == (288 + 1, 576 + 1)
    # columns: buy | sell | P_i | E_i, one block of T per device in id order
    t, n = sc.horizon, len(sc.active_users)
    rows = solve_lp(lp).x.reshape(-1, t)
    assert rows.shape == (2 + 2 * n, t)
    for k, a in enumerate(sc.active_users):
        expected = stored_energy(a.desd, rows[2 + k], sc.dt_hours)
        assert np.allclose(rows[2 + n + k], expected, rtol=0.0, atol=1e-9)


def block_day_lp(scenario, agents):
    """The day LP by the textbook block formula, from identity blocks."""
    desds = [a.desd for a in agents if a.desd is not None]
    t, n, dt = scenario.horizon, len(desds), scenario.dt_hours
    eye = np.eye(t)
    f = np.concatenate([np.array(scenario.tariff.buy) * dt, -np.array(scenario.tariff.sell) * dt,
                        np.zeros(2 * n * t)])
    balance = np.hstack([eye, -eye, np.tile(eye, n), np.zeros((t, n * t))])
    link = np.hstack([np.zeros((n * t, 2 * t)), np.kron(np.eye(n), dt * eye),
                      np.kron(np.eye(n), eye - np.eye(t, k=-1))])
    e0 = np.zeros((n, t))
    e0[:, 0] = [d.e0_kwh for d in desds]
    lower = np.concatenate([np.zeros(2 * t)] + [np.full(t, -d.p_charge_max_kw) for d in desds]
                           + [np.full(t, d.emin_kwh) for d in desds])
    upper = np.concatenate([np.full(2 * t, scenario.p_grid_max_kw)]
                           + [np.full(t, d.p_discharge_max_kw) for d in desds]
                           + [np.full(t, d.emax_kwh) for d in desds])
    b_eq = np.concatenate([centralized.net_load_kw(agents), e0.ravel()])
    return f, np.vstack([balance, link]), b_eq, lower, upper


def test_day_lp_matches_the_block_formula(fixtures_dir):
    # day_lp fills its rows by index; every coalition's LP must equal the
    # block formula, the grand coalition and each user alone
    days = [load_scenario(fixtures_dir / name) for name in ("three_agent.json", "arbitrage_t2.json")]
    for k, batteries in enumerate((0, 1, 3, 5)):
        sc = gen_scenario(GenSpec(users=(5, 5), active=(batteries, batteries), horizon=(12, 12),
                                  graph="ring"), seed=40 + k)
        assert len(sc.active_users) == batteries
        days += [sc, dataclasses.replace(sc, dt_hours=0.25)]
    for sc in days:
        for agents in [sc.agents] + [[a] for a in sc.users]:
            lp = centralized.day_lp(sc, agents)
            expected = block_day_lp(sc, agents)
            for name, want in zip(("f", "a_eq", "b_eq", "lower", "upper"), expected):
                assert np.array_equal(getattr(lp, name), want), name


def test_fixture_lps_take_a_pinned_number_of_pivots(fixtures_dir):
    # the pivot path (entering rule, ties, tolerances) is fixed: a kernel
    # change that moves it must show here, not only in the last bits of a CSV.
    # Pinned twice: by phase 1 from no start, and by phase 2 alone from the
    # day's start
    for name, social, alone, started_social, started_alone in (
            ("three_agent.json", 98, {1: 69, 3: 70}, 21, {1: 15, 3: 13}),
            ("arbitrage_t2.json", 6, {1: 6}, 0, {1: 0})):
        sc = load_scenario(fixtures_dir / name)
        assert solve_lp(build_social_lp(sc)).iterations == social
        assert {a.id: solve_lp(centralized.day_lp(sc, [a])).iterations
                for a in sc.active_users} == alone
        pins = {}
        for key, agents in [("social", sc.agents)] + [(a.id, [a]) for a in sc.active_users]:
            sol = solve_lp(centralized.day_lp(sc, agents), start=day_start(sc, agents))
            pins[key] = (sol.phase1_pivots, sol.phase2_pivots)
        assert pins == {"social": (0, started_social),
                        **{k: (0, v) for k, v in started_alone.items()}}


def solve_both_ways(sc, agents):
    """The coalition's day LP from its start and from phase 1 alone."""
    lp = centralized.day_lp(sc, agents)
    return solve_lp(lp, start=day_start(sc, agents)), solve_lp(lp)


def assert_start_taken_with_the_phase_one_optimum(sc):
    for agents in [sc.agents] + [[a] for a in sc.active_users]:
        started, phase_one = solve_both_ways(sc, agents)
        assert started.phase1_pivots == 0 and started.status == "optimal"
        assert started.iterations == started.phase2_pivots
        j = phase_one.objective_value
        _, cost, _ = solve_day(sc, agents, centralized.day_lp(sc, agents))
        assert abs(cost - j) <= 1e-9 * (1 + abs(j))
        assert cost == started.objective_value
    schedule, _ = solve_social(sc)
    assert check_schedule(sc, schedule) == []


# each benchmark workload's GenSpec, at the seeds its seed-1 run draws (the
# 41-bus day and the oracle-mid days, then one settle-batch round), and the
# generator's defaults
STARTED_DAYS = (
    [(dict(users=(40, 40), active=(20, 20), horizon=(24, 24), graph="ring"), 1000)]
    + [(dict(users=(10, 10), active=(5, 5), horizon=(48, 48), graph="ring"), s)
       for s in (1000, 1001)]
    + [(dict(users=(u, u), active=(a, a), horizon=(24, 24), graph="random"), 1000 + k)
       for k, (u, a) in enumerate((u, a) for u in range(2, 6) for a in range(4))]
    + [({}, s) for s in range(40)])


def test_the_start_is_taken_on_every_generated_battery_day():
    battery_days = 0
    for spec, seed in STARTED_DAYS:
        sc = gen_scenario(GenSpec(**spec), seed)
        if sc.active_users:
            battery_days += 1
            assert_start_taken_with_the_phase_one_optimum(sc)
    assert battery_days >= 45


def test_the_started_days_take_a_pinned_number_of_pivots():
    # phase 2 from the start, summed over the social and stand-alone LPs of
    # every battery day above; a change to the start or the pivot path that
    # moves this count must show here
    pivots = 0
    for spec, seed in STARTED_DAYS:
        sc = gen_scenario(GenSpec(**spec), seed)
        if not sc.active_users:
            continue
        for agents in [sc.agents] + [[a] for a in sc.active_users]:
            sol = solve_lp(centralized.day_lp(sc, agents), start=day_start(sc, agents))
            assert sol.phase1_pivots == 0
            pivots += sol.phase2_pivots
    assert pivots == 3334


def battery_day(desds, dt=1.0, p_grid_max=30.0, demand=(1.0, 2.0, 0.5, 3.0, 1.0, 2.0),
                renewable=(0.5, 3.0, 2.0, 0.0, 1.0, 0.2)):
    """A 6-step day: one active user per battery plus a passive user, on a
    time-of-use tariff."""
    buy = (0.10, 0.30, 0.20, 0.40, 0.15, 0.35)
    agents = [AgentSpec(id=k + 1, role="active", demand_kw=demand, renewable_kw=renewable,
                        desd=d) for k, d in enumerate(desds)]
    agents += [AgentSpec(id=len(desds) + 1, role="passive", demand_kw=demand,
                         renewable_kw=(0.0,) * 6),
               AgentSpec(id=len(desds) + 2, role="grid", demand_kw=(0.0,) * 6,
                         renewable_kw=(0.0,) * 6)]
    ids = [a.id for a in agents]
    return Scenario(horizon=6, dt_hours=dt, p_grid_max_kw=p_grid_max,
                    tariff=Tariff(buy=buy, sell=tuple(0.5 * b for b in buy)),
                    agents=tuple(agents),
                    graph=metropolis_weights(ids, list(zip(ids, ids[1:]))))


EDGE_BATTERIES = {
    "e0 at emin": DesdSpec(e0_kwh=1.0, emin_kwh=1.0, emax_kwh=5.0,
                           p_charge_max_kw=1.0, p_discharge_max_kw=1.0),
    "e0 at emax": DesdSpec(e0_kwh=5.0, emin_kwh=1.0, emax_kwh=5.0,
                           p_charge_max_kw=1.0, p_discharge_max_kw=1.0),
    "emin == emax": DesdSpec(e0_kwh=2.0, emin_kwh=2.0, emax_kwh=2.0,
                             p_charge_max_kw=1.0, p_discharge_max_kw=1.0),
    "ramp spans the day": DesdSpec(e0_kwh=3.0, emin_kwh=0.0, emax_kwh=10.0,
                                   p_charge_max_kw=0.1, p_discharge_max_kw=0.1),
    "bound in one step": DesdSpec(e0_kwh=7.0, emin_kwh=0.0, emax_kwh=8.0,
                                  p_charge_max_kw=1.0, p_discharge_max_kw=1.0),
    "bound in one step, rating to spare": DesdSpec(e0_kwh=2.0, emin_kwh=0.0, emax_kwh=9.0,
                                                   p_charge_max_kw=4.0, p_discharge_max_kw=4.0),
    "ramp then hold": DesdSpec(e0_kwh=6.5, emin_kwh=0.5, emax_kwh=9.0,
                               p_charge_max_kw=1.0, p_discharge_max_kw=1.0),
}


@pytest.mark.parametrize("dt", [1.0, 0.25])
@pytest.mark.parametrize("name", sorted(EDGE_BATTERIES))
def test_the_start_is_taken_on_edge_batteries(name, dt):
    assert_start_taken_with_the_phase_one_optimum(battery_day([EDGE_BATTERIES[name]], dt=dt))


def test_the_start_is_taken_with_every_edge_battery_at_once():
    assert_start_taken_with_the_phase_one_optimum(battery_day(list(EDGE_BATTERIES.values())))


def test_a_start_that_overshoots_the_grid_limit_falls_back_to_phase_one():
    # the start charges the battery at 1 kW at the three cheapest steps (0, 2
    # and 4), so it buys 5 kW there against a 4.5 kW limit; an idle battery
    # leaves 4 kW to buy, so the day itself is feasible
    sc = battery_day([DesdSpec(e0_kwh=2.0, emin_kwh=0.0, emax_kwh=10.0,
                               p_charge_max_kw=1.0, p_discharge_max_kw=1.0)],
                     p_grid_max=4.5, demand=(2.0,) * 6, renewable=(0.0,) * 6)
    started, phase_one = solve_both_ways(sc, sc.agents)
    assert started.phase1_pivots > 0 and started.status == "optimal"
    assert (started.phase1_pivots, started.phase2_pivots) == (phase_one.phase1_pivots,
                                                              phase_one.phase2_pivots)
    assert started.x.tobytes() == phase_one.x.tobytes()
    _, cost = solve_social(sc)
    assert cost == phase_one.objective_value


def test_the_start_follows_the_price_threshold_by_hand():
    # battery_day's buy prices rank 0, 3, 2, 5, 1, 4, so the start discharges
    # at steps 1, 3 and 5 (above the median) and charges at steps 0, 2 and 4
    charge_fast = DesdSpec(e0_kwh=2.0, emin_kwh=0.0, emax_kwh=4.0,
                           p_charge_max_kw=3.0, p_discharge_max_kw=1.0)
    drain = DesdSpec(e0_kwh=1.0, emin_kwh=0.0, emax_kwh=10.0,
                     p_charge_max_kw=0.5, p_discharge_max_kw=1.0)
    pinned = DesdSpec(e0_kwh=2.0, emin_kwh=2.0, emax_kwh=2.0,
                      p_charge_max_kw=1.0, p_discharge_max_kw=1.0)
    sc = battery_day([charge_fast, drain, pinned])
    lp = centralized.day_lp(sc, sc.agents)
    state = LpTableau.of(lp)
    assert _enter_start(state, day_start(sc, sc.agents))
    x = _point(state)
    power, energy = x[12:30].reshape(3, 6), x[30:].reshape(3, 6)
    # charge_fast reaches emax within every charging step and stops there,
    # then discharges at its full 1 kW; drain charges and discharges at full
    # power until steps 3 and 5, where it reaches emin; pinned holds its one
    # energy level at every step
    assert np.allclose(power, [[-2.0, 1.0, -1.0, 1.0, -1.0, 1.0],
                               [-0.5, 1.0, -0.5, 1.0, -0.5, 0.5],
                               [0.0] * 6], rtol=0.0, atol=1e-12)
    assert np.allclose(energy, [[4.0, 3.0, 4.0, 3.0, 4.0, 3.0],
                                [1.5, 0.5, 1.0, 0.0, 0.5, 0.0],
                                [2.0] * 6], rtol=0.0, atol=1e-12)
    # a moving step has E basic and P at its rating; a step that stops at a
    # bound, or holds one, has P basic and E at the bound
    held = np.array([[True, False, True, False, True, False],
                     [False, False, False, True, False, True],
                     [True] * 6])
    basic = np.isin(np.arange(lp.n_vars), state.basis)
    assert np.array_equal(basic[12:30].reshape(3, 6), held)
    assert np.array_equal(basic[30:].reshape(3, 6), ~held)
    assert_start_taken_with_the_phase_one_optimum(sc)


def integer_day(sc):
    """The day with its demand, renewables, battery boxes and grid limit rounded
    to integers (emax at least emin + 1, rates at least 1) and dt 1 h; the
    tariff as it is."""
    def whole(values):
        return tuple(np.round(values).tolist())

    def box(d):
        emin = round(d.emin_kwh)
        emax = max(round(d.emax_kwh), emin + 1)
        return DesdSpec(e0_kwh=float(min(max(round(d.e0_kwh), emin), emax)), emin_kwh=float(emin),
                        emax_kwh=float(emax), p_charge_max_kw=float(max(round(d.p_charge_max_kw), 1)),
                        p_discharge_max_kw=float(max(round(d.p_discharge_max_kw), 1)))
    agents = tuple(dataclasses.replace(a, demand_kw=whole(a.demand_kw),
                                       renewable_kw=whole(a.renewable_kw),
                                       desd=None if a.desd is None else box(a.desd))
                   for a in sc.agents)
    return dataclasses.replace(sc, dt_hours=1.0, p_grid_max_kw=float(round(sc.p_grid_max_kw)),
                               agents=agents)


INTEGER_DAYS = ([(dict(users=(3, 6), active=(1, 4), horizon=(24, 24), graph="ring"), s)
                 for s in range(20)]
                + [(dict(users=(10, 10), active=(5, 5), horizon=(48, 48), graph="ring"), s)
                   for s in range(1000, 1004)]
                + [(dict(users=(20, 20), active=(10, 10), horizon=(96, 96), graph="ring"), 0)])


def test_integer_days_have_integral_optima():
    # with dt = 1 the day LP's matrix is a network matrix once its balance rows
    # are scaled by dt and its link rows negated, so integer data gives integral
    # vertices: every vertex the simplex returns, on every path, is integral
    solves = 0
    for spec, seed in INTEGER_DAYS:
        sc = integer_day(gen_scenario(GenSpec(**spec), seed))
        validate_scenario(sc)
        lp = build_social_lp(sc)
        sols = [solve_lp(lp, start=day_start(sc, sc.agents)), solve_lp(lp)]
        warm = None
        for a in sc.users:   # the stand-alone chain, as disagreement_point runs it
            _, _, sol = solve_day(sc, [a], warm=warm)
            sols.append(sol)
            warm = sol if a.desd is not None else warm
        for sol in sols:
            assert sol.status == "optimal"
            assert np.abs(sol.x - np.round(sol.x)).max() <= 1e-9, (spec, seed)
        solves += len(sols)
    assert solves == 211


@pytest.mark.parametrize("scale", [1e-9, 1e-200])
def test_tiny_prices_give_the_scaled_optimum(fixtures_dir, scale):
    # reduced costs below the pivot tolerance once stopped the simplex at its
    # start with a wrong optimum; the cost row is lifted by a power of two, so
    # the day takes the unscaled day's pivots and returns its schedule
    sc = load_scenario(fixtures_dir / "three_agent.json")
    tiny = dataclasses.replace(sc, tariff=Tariff(buy=tuple(scale * b for b in sc.tariff.buy),
                                                 sell=tuple(scale * s for s in sc.tariff.sell)))
    schedule, j = solve_social(sc)
    tiny_schedule, tiny_j = solve_social(tiny)
    assert abs(tiny_j / scale - j) <= 1e-12 * abs(j)
    assert tiny_schedule.grid_buy_kw.tobytes() == schedule.grid_buy_kw.tobytes()
    assert solve_lp(build_social_lp(tiny)).iterations == solve_lp(build_social_lp(sc)).iterations
    d, tiny_d = disagreement_point(sc), disagreement_point(tiny)
    assert np.allclose(tiny_d / scale, d, rtol=1e-12, atol=0.0)


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

    def faults_of(**fields):
        return check_schedule(sc, dataclasses.replace(schedule, **fields))

    # e0 = emin = 1 kWh, a 10 kW grid limit and 4 kW ratings, over two steps
    assert "grid_buy_kw negative at step 1" in faults_of(grid_buy_kw=np.array([0.0, -1.0]))
    assert "grid_sell_kw exceeds the grid limit at step 0" in faults_of(
        grid_sell_kw=np.array([11.0, 0.0]))
    assert faults_of(desd_power_kw={}) == ["device set [] does not match active agents [1]"]
    assert "agent 1: dispatch spans 3 steps, scenario has 2" in faults_of(
        desd_power_kw={1: np.zeros(3)})
    assert "agent 1: stored energy below emin at step 0" in faults_of(
        desd_power_kw={1: np.array([1.0, 0.0])})

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


def test_csv_text_bytes_for_python_and_numpy_numbers():
    # Python floats go to csv as they are, numpy's through repr(float(v)): same bytes
    values = [-0.0, 1e-05, 1e+16, 0.1 + 0.2]
    text = csv_text(["k", "n", *"abcdefgh"], [[3, 2**70, *values, *map(np.float64, values)]])
    assert text == ("k,n,a,b,c,d,e,f,g,h\r\n3,1180591620717411303424,"
                    "-0.0,1e-05,1e+16,0.30000000000000004,"
                    "-0.0,1e-05,1e+16,0.30000000000000004\r\n")


def test_schedule_csv_round_trip(tmp_path, fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    schedule, _ = solve_social(sc)
    path = tmp_path / "schedule.csv"
    path.write_text(schedule_csv_text(sc, schedule), newline="")
    again = read_schedule_csv(path)
    assert np.array_equal(again.grid_buy_kw, schedule.grid_buy_kw)
    assert np.array_equal(again.grid_sell_kw, schedule.grid_sell_kw)
    assert np.array_equal(again.desd_power_kw[1], schedule.desd_power_kw[1])
    header = path.read_text().splitlines()[0]
    assert header == "t,P_G_buy_kw,P_G_sell_kw,P_B_1_kw,E_1_kwh"
