"""The reference checker must accept right outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_reference.py

Uses only the bundled fixtures and hand-made schedules, never coopgrid.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference as R

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def arbitrage():
    return R.Day.load(FIXTURES / "arbitrage_t2.json")


@pytest.fixture
def three_agent():
    return R.Day.load(FIXTURES / "three_agent.json")


def arbitrage_plan():
    # charge 4 kW at the cheap step, sell it back at the dear one
    return R.Schedule(buy=np.array([4.0, 0.0]), sell=np.array([0.0, 4.0]),
                      dispatch={1: np.array([-4.0, 4.0])})


def test_reference_optimum_matches_the_hand_solution(arbitrage):
    assert R.social_optimum(arbitrage) == pytest.approx(-1.4, abs=1e-9)
    assert R.schedule_cost(arbitrage, arbitrage_plan()) == pytest.approx(-1.4, abs=1e-12)
    assert R.schedule_faults(arbitrage, arbitrage_plan(), balance_tol=1e-9) == []


def test_one_step_off_by_a_hundredth_kw_breaks_balance(arbitrage):
    plan = arbitrage_plan()
    plan.buy[1] += 1e-2
    faults = R.schedule_faults(arbitrage, plan, balance_tol=1e-3)
    assert any("power balance" in f for f in faults)


def test_rate_box_grid_limit_and_energy_window_are_checked(arbitrage):
    plan = arbitrage_plan()
    plan.dispatch[1] = np.array([-4.5, 4.5])
    plan.buy, plan.sell = np.array([4.5, 0.0]), np.array([0.0, 4.5])
    faults = R.schedule_faults(arbitrage, plan, balance_tol=1e-9)
    assert any("rate box" in f for f in faults)

    plan = arbitrage_plan()
    plan.buy = plan.buy + arbitrage.grid_max
    plan.sell = plan.sell + arbitrage.grid_max
    assert any("grid buy" in f for f in R.schedule_faults(arbitrage, plan, balance_tol=1e-9))

    plan = arbitrage_plan()
    plan.dispatch[1] = np.array([4.0, -4.0])       # discharges below emin first
    plan.buy, plan.sell = np.array([0.0, 4.0]), np.array([4.0, 0.0])
    faults = R.schedule_faults(arbitrage, plan, balance_tol=1e-9)
    assert any("stored energy" in f for f in faults)
    assert not any("stored energy" in f
                   for f in R.schedule_faults(arbitrage, plan, balance_tol=1e-9, energy=False))


def test_written_energy_column_must_follow_dispatch(arbitrage, tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("t,P_G_buy_kw,P_G_sell_kw,P_B_1_kw,E_1_kwh\n"
                    "0,4.0,0.0,-4.0,5.0\n1,0.0,4.0,4.0,1.5\n")
    plan = R.read_schedule(path)
    assert any("energy column" in f for f in R.schedule_faults(arbitrage, plan, 1e-9))


def test_cost_one_percent_high_is_rejected(arbitrage):
    j = R.social_optimum(arbitrage)
    assert R.cost_fault("J", j * (1 + 1e-9), j) == []
    assert R.cost_fault("J", j * 1.01, j) != []
    plan = arbitrage_plan()
    assert R.cost_fault("schedule cost", R.schedule_cost(arbitrage, plan), j) == []
    plan.sell[1] -= 0.01 * abs(j) / (arbitrage.sell[1] * arbitrage.dt)   # 1 % dearer
    assert R.schedule_cost(arbitrage, plan) == pytest.approx(j + 0.01 * abs(j))
    assert R.cost_fault("schedule cost", R.schedule_cost(arbitrage, plan), j) != []


def equal_split(day):
    j = R.social_optimum(day)
    d = R.standalone_costs(day)
    eps = (sum(d.values()) - j) / len(d)
    return j, d, R.Allocation(j=j, selfish=dict(d),
                              allocated={i: v - eps for i, v in d.items()})


def test_equal_split_passes_and_unequal_split_fails(three_agent):
    j, d, alloc = equal_split(three_agent)
    assert R.allocation_faults(three_agent, alloc, j, d, saving_tol=1e-9) == []
    first, second = sorted(alloc.allocated)[:2]
    alloc.allocated[first] += 1e-3                   # same total, unequal savings
    alloc.allocated[second] -= 1e-3
    faults = R.allocation_faults(three_agent, alloc, j, d, saving_tol=1e-6)
    assert any("equal saving" in f for f in faults)


def test_allocation_with_a_wrong_cost_fails(three_agent):
    j, d, alloc = equal_split(three_agent)
    alloc.j *= 1.01
    assert any(f.startswith("J =") for f in R.allocation_faults(three_agent, alloc, j, d, 1e-6))
    j, d, alloc = equal_split(three_agent)
    some = sorted(alloc.selfish)[0]
    alloc.selfish[some] *= 1.01
    assert any(f.startswith(f"D_{some}") for f in
               R.allocation_faults(three_agent, alloc, j, d, 1e-6))


def test_cooperation_never_costs_more_than_standing_alone(three_agent):
    j, d, _ = equal_split(three_agent)
    assert j <= sum(d.values()) + 1e-9


def test_day_reads_the_fixture_as_written(three_agent):
    data = json.loads((FIXTURES / "three_agent.json").read_text())
    assert three_agent.horizon == data["horizon"] == len(three_agent.buy)
    assert sorted(three_agent.batteries) == [a["id"] for a in data["agents"]
                                              if a["role"] == "active"]
