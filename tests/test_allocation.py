import numpy as np
import pytest

from coopgrid import allocation
from coopgrid.allocation import (
    BargainingError,
    allocate_centralized,
    allocate_distributed,
    consumption_costs,
)
from coopgrid.centralized import solve_social
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights
from coopgrid.scenario import AgentSpec, Scenario, Tariff, load_scenario
from coopgrid.selfish import disagreement_point

from tiny_scenarios import tiny_scenario


def two_user_scenario():
    t = 2
    agents = (
        AgentSpec(id=1, role="passive", demand_kw=(1.0, 2.0), renewable_kw=(0.0, 0.0)),
        AgentSpec(id=2, role="passive", demand_kw=(0.5, 0.5), renewable_kw=(0.0, 0.0)),
        AgentSpec(id=3, role="grid", demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t),
    )
    return Scenario(horizon=t, dt_hours=1.0, p_grid_max_kw=20.0,
                    tariff=Tariff(buy=(1.0, 1.0), sell=(0.5, 0.5)),
                    agents=agents,
                    graph=metropolis_weights([1, 2, 3], [(1, 2), (2, 3)]))


def test_equal_savings_worked_example():
    # D = (3, 1), J = 3: the whole gain of 1 splits into 0.5 each
    sc = two_user_scenario()
    report = allocate_centralized(sc, j=3.0, selfish_costs=np.array([3.0, 1.0]))
    assert abs(report.epsilon - 0.5) < 1e-15
    assert np.allclose(report.allocated, [2.5, 0.5])
    assert report.agent_ids == (1, 2)


def test_allocation_invariants_on_random_scenarios():
    rng = np.random.default_rng(47)
    for _ in range(30):
        sc = tiny_scenario(rng)
        _, j = solve_social(sc)
        d = disagreement_point(sc)
        report = allocate_centralized(sc, j, d)
        assert abs(report.allocated.sum() - j) <= 1e-9 * (1.0 + abs(j))
        savings = report.selfish - report.allocated
        assert np.max(np.abs(savings - report.epsilon)) <= 1e-12
        assert report.epsilon >= -1e-9
        assert np.all(report.allocated <= report.selfish + 1e-6)


def test_cooperation_never_costs_more_on_generated_days():
    # the generator's grid limit covers every user's worst import and export at
    # once, so the stand-alone plans together are a plan of the whole day: J <=
    # sum(D), the split exists, and each user's saving epsilon is nonnegative
    for seed in range(40):
        sc = gen_scenario(GenSpec(users=(3, 6), active=(1, 4), horizon=(24, 24), graph="ring"),
                          seed)
        _, j = solve_social(sc)
        d = disagreement_point(sc)
        slack = 1e-9 * (1.0 + abs(j))
        assert j <= d.sum() + slack, seed
        for report in (allocate_centralized(sc, j, d), allocate_distributed(sc, j, d)):
            assert report.epsilon >= -slack, seed


def test_bargaining_error_when_cooperation_hurts():
    sc = two_user_scenario()
    with pytest.raises(BargainingError):
        allocate_centralized(sc, j=5.0, selfish_costs=np.array([3.0, 1.0]))


SPLITS = [pytest.param(allocate_centralized, id="centralized"),
          pytest.param(allocate_distributed, id="distributed")]


@pytest.mark.parametrize("j", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("split", SPLITS)
def test_both_splits_refuse_a_cost_that_is_not_finite(split, j, monkeypatch):
    # a diverged run's cost: refused by the split's own input check, before any
    # consensus round
    monkeypatch.setattr(allocation, "run_consensus", None)
    sc = two_user_scenario()
    with pytest.raises(BargainingError, match=f"cooperative cost {j} is not finite"):
        split(sc, j, np.array([3.0, 1.0]))


@pytest.mark.parametrize("k, refused", [(0.5, False), (1.5, True), (2.0, True), (2.9, True)])
@pytest.mark.parametrize("split", SPLITS)
def test_both_splits_give_one_verdict_near_the_loss_bound(fixtures_dir, split, k, refused):
    # J = sum(D) + k 1e-9 (1 + sum(D)): the split exists while the total saving
    # sum(D) - J is within 1e-9 (1 + |J|), however many users share it
    sc = load_scenario(fixtures_dir / "three_agent.json")
    d = np.array([1.0, 2.0, 3.0])
    j = d.sum() + k * 1e-9 * (1.0 + d.sum())
    if refused:
        with pytest.raises(BargainingError, match="exceeds the stand-alone total 6.000000"):
            split(sc, j, d)
    else:
        report = split(sc, j, d)
        assert abs(report.epsilon + k * 7e-9 / 3) <= 1e-14


def test_distributed_matches_centralized():
    rng = np.random.default_rng(53)
    for _ in range(20):
        sc = tiny_scenario(rng)
        _, j = solve_social(sc)
        d = disagreement_point(sc)
        central = allocate_centralized(sc, j, d)
        dist = allocate_distributed(sc, j, d, tol=1e-8)
        assert np.max(np.abs(dist.allocated - central.allocated)) <= 1e-8
        assert abs(dist.epsilon - central.epsilon) <= 1e-8
        assert dist.rounds >= 0


def test_distributed_bargaining_error():
    sc = two_user_scenario()
    with pytest.raises(BargainingError, match="cooperative cost 5.000000 exceeds the stand-alone "
                                              "total 4.000000"):
        allocate_distributed(sc, j=5.0, selfish_costs=np.array([3.0, 1.0]))


def test_all_passive_consumption_equals_allocation():
    # no storage and no renewables: netting never fires, epsilon is zero and
    # the consumption bill reproduces the equal-savings split exactly
    sc = two_user_scenario()
    schedule, j = solve_social(sc)
    d = disagreement_point(sc)
    report = allocate_centralized(sc, j, d)
    bills, residual = consumption_costs(sc, schedule)
    assert abs(report.epsilon) <= 1e-12
    assert np.allclose(bills, report.allocated, atol=1e-12)
    assert abs(residual) <= 1e-12


def test_consumption_residual_nonnegative_and_consistent():
    rng = np.random.default_rng(59)
    for _ in range(25):
        sc = tiny_scenario(rng)
        schedule, j = solve_social(sc)
        bills, residual = consumption_costs(sc, schedule)
        assert residual >= -1e-9
        assert abs(bills.sum() - (j + residual)) <= 1e-9 * (1.0 + abs(j))


def test_wrong_cost_vector_length_rejected():
    sc = two_user_scenario()
    with pytest.raises(ValueError):
        allocate_centralized(sc, 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        allocate_distributed(sc, 1.0, np.array([1.0, 2.0, 3.0]))
