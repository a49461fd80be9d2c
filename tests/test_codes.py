import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from codes_reference import Message, run_reference
from coopgrid.centralized import check_schedule, solve_social
from coopgrid.codes import CHUNK, CodesConfig, CodesState, run_codes
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights
from coopgrid.scenario import (AgentSpec, Scenario, ScenarioFormatError, ScenarioValidationError,
                               Tariff, load_scenario, scenario_from_dict)


def passive_scenario(demand, buy, sell, dt=1.0):
    t = len(demand)
    agents = (
        AgentSpec(id=1, role="passive", demand_kw=tuple(demand), renewable_kw=(0.0,) * t),
        AgentSpec(id=2, role="grid", demand_kw=(0.0,) * t, renewable_kw=(0.0,) * t),
    )
    return Scenario(horizon=t, dt_hours=dt, p_grid_max_kw=20.0,
                    tariff=Tariff(buy=tuple(buy), sell=tuple(sell)),
                    agents=agents, graph=metropolis_weights([1, 2], [(1, 2)]))


def aggregate_desd(schedule):
    return sum(schedule.desd_power_kw.values())


def test_config_defaults_overridden_by_fixture(fixtures_dir):
    sc = load_scenario(fixtures_dir / "three_agent.json")
    cfg = sc.codes
    assert cfg.rho == 0.2
    assert cfg.xi1_desd == 0.03
    assert cfg.xi1_grid == 0.12
    assert cfg.xi2 == 0.2
    assert cfg.max_iters == 20000
    # untouched fields keep their defaults
    assert cfg.tol_balance_kw == 1e-3


def test_unknown_solver_setting_rejected(fixtures_dir):
    data = json.loads((fixtures_dir / "arbitrage_t2.json").read_text())
    data["codes"] = {"step_size": 0.1}
    with pytest.raises(ScenarioFormatError, match="codes: unknown field 'step_size'"):
        scenario_from_dict(data)


@pytest.mark.parametrize("key, value", [
    ("max_iters", -5.0), ("max_iters", 0.0), ("max_iters", 40.7),
    ("max_iters", float("inf")), ("max_iters", float("nan")),
    ("rho", 0.0), ("xi1_grid", -1.0), ("xi1_desd", float("inf")), ("xi2", float("nan")),
    ("xi3", float("nan")), ("tol_balance_kw", -1e-3), ("tol_step", float("nan")),
])
def test_out_of_range_solver_setting_rejected(key, value):
    with pytest.raises(ScenarioValidationError, match=key):
        CodesConfig(**{key: value})


def test_three_agent_cost_matches_oracle(fixtures_dir):
    sc = load_scenario(fixtures_dir / "three_agent.json")
    _, j_star = solve_social(sc)
    res = run_codes(sc)
    gap = abs(res.j - j_star) / abs(j_star)
    assert gap <= 5e-3
    assert res.iterations <= 20000
    assert res.config == sc.codes   # the file's settings, when none are given
    # end state is feasible at operating tolerances even mid limit cycle
    assert res.trace.max_imbalance_kw[-1] <= 1e-3
    assert check_schedule(sc, res.schedule, balance_tol_kw=1e-3, box_tol=1e-3) == []


def test_three_agent_settled_run_matches_unique_aggregates(fixtures_dir):
    # Prices never depend on which battery moves, so only the summed
    # dispatch per step and the net grid exchange are pinned by the LP.
    # A longer, gentler run settles well inside 0.05 kW of both.
    sc = load_scenario(fixtures_dir / "three_agent.json")
    schedule, _ = solve_social(sc)
    cfg = CodesConfig(rho=0.2, xi1_desd=0.03, xi1_grid=0.08, xi2=0.2, xi3=0.1,
                      max_iters=60000, tol_step=0.0)
    res = run_codes(sc, cfg)
    agg_err = np.abs(aggregate_desd(res.schedule) - aggregate_desd(schedule)).max()
    net_err = np.abs((res.schedule.grid_buy_kw - res.schedule.grid_sell_kw)
                     - (schedule.grid_buy_kw - schedule.grid_sell_kw)).max()
    assert agg_err <= 0.05
    assert net_err <= 0.05


def test_arbitrage_converges_to_unique_optimum(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    res = run_codes(sc)
    assert res.converged
    assert np.abs(res.schedule.desd_power_kw[1] - np.array([-4.0, 4.0])).max() <= 0.05
    net = res.schedule.grid_buy_kw - res.schedule.grid_sell_kw
    assert np.abs(net - np.array([4.0, -4.0])).max() <= 0.05
    assert abs(res.j - (-1.4)) <= 0.01


def test_passive_only_buys_exact_demand():
    sc = passive_scenario([1.5, 0.5, 2.0], [0.2, 0.3, 0.25], [0.1, 0.15, 0.12])
    res = run_codes(sc, CodesConfig(rho=0.5, xi1_grid=0.05, xi3=0.2, max_iters=20000,
                                    tol_step=1e-7))
    assert res.converged
    assert np.abs(res.schedule.grid_buy_kw - [1.5, 0.5, 2.0]).max() <= 2e-3
    assert np.abs(res.schedule.grid_sell_kw).max() <= 1e-9


def test_emitted_exchange_is_netted():
    sc = passive_scenario([1.0, 1.0], [0.2, 0.2], [0.1, 0.1])
    res = run_codes(sc, CodesConfig(max_iters=200, tol_step=0.0))
    assert np.minimum(res.schedule.grid_buy_kw, res.schedule.grid_sell_kw).max() == 0.0


def assert_matches_reference(sc, rounds):
    # the pins run past the end of the first chunk, so row 0 passes between chunks
    assert rounds > CHUNK
    cfg = dataclasses.replace(sc.codes, max_iters=rounds, tol_step=0.0)
    res = run_codes(sc, cfg)
    buses, trace = run_reference(sc, cfg, rounds)
    assert res.iterations == rounds
    for name, expected in trace.items():
        assert np.abs(np.array(getattr(res.trace, name)) - expected).max() <= 1e-9, name
    for i, p in res.schedule.desd_power_kw.items():
        assert np.abs(p - buses[i].p_desd).max() <= 1e-9
    # every bus's own state, not only what the trace and the schedule show
    state = CodesState(sc, cfg)
    for done in range(0, rounds, CHUNK):
        state.run_chunk(min(CHUNK, rounds - done))
    for row, i in enumerate(sc.graph.node_ids):
        assert np.abs(state.lam_hat[row] - buses[i].lam_hat).max() <= 1e-9, i
        assert np.abs(state.dp_hat[row] - buses[i].dp_hat).max() <= 1e-9, i
    for k, i in enumerate(state.active_ids):
        assert np.abs(state.mu1[k] - buses[i].mu1).max() <= 1e-9, i
        assert np.abs(state.mu2[k] - buses[i].mu2).max() <= 1e-9, i
    grid = next(a.id for a in sc.agents if a.role == "grid")
    assert np.abs(state.p_buy - buses[grid].p_buy).max() <= 1e-9
    assert np.abs(state.p_sell - buses[grid].p_sell).max() <= 1e-9


def test_array_solver_matches_per_bus_reference(fixtures_dir):
    # the reference's buses tell their neighbors nothing but two estimates
    assert {f.name for f in dataclasses.fields(Message)} == {"lam_hat", "dp_hat"}
    sc = load_scenario(fixtures_dir / "three_agent.json")
    assert_matches_reference(sc, 2000)
    # every other pin runs dt = 1, where a misplaced dt would not show
    assert_matches_reference(dataclasses.replace(sc, dt_hours=0.25), 2000)


def test_array_solver_matches_per_bus_reference_on_41_buses():
    # and on an 11-bus 48-step day, so a pin also holds off T = 24
    for users, active, horizon in ((40, 20, 24), (10, 5, 48)):
        spec = GenSpec(users=(users, users), active=(active, active),
                       horizon=(horizon, horizon), graph="ring")
        assert_matches_reference(gen_scenario(spec, seed=1), 300)


def test_consensus_update_is_local(fixtures_dir):
    # on the ring 1-2-3-4, bus 1 hears 2 and 4 but never 3: the mixing
    # matrix is nonzero exactly on the graph's edges and diagonal
    sc = load_scenario(fixtures_dir / "three_agent.json")
    cfg = sc.codes
    row = {i: k for k, i in enumerate(sc.graph.node_ids)}
    pattern = np.eye(len(row), dtype=bool)
    for a, b in sc.graph.edges:
        pattern[row[a], row[b]] = pattern[row[b], row[a]] = True
    assert np.array_equal(sc.graph.weights != 0, pattern)

    def mixed_once(bump):
        state = CodesState(sc, cfg)
        rng = np.random.default_rng(7)
        state.lam_hat[:] = rng.normal(size=state.lam_hat.shape)
        state.dp_hat[:] = rng.normal(size=state.dp_hat.shape)
        state.lam_hat[row[3]] += bump
        state.dp_hat[row[3]] += bump
        state.run_chunk(1)
        return state

    quiet, loud = mixed_once(0.0), mixed_once(1e6)
    assert np.array_equal(quiet.lam_hat[row[1]], loud.lam_hat[row[1]])
    assert np.array_equal(quiet.dp_hat[row[1]], loud.dp_hat[row[1]])
    battery = quiet.active_ids.index(1)
    assert np.array_equal(quiet.p_desd[battery], loud.p_desd[battery])
    for neighbor in (2, 4):
        assert not np.array_equal(quiet.dp_hat[row[neighbor]], loud.dp_hat[row[neighbor]])


def test_imbalance_estimates_conserve_the_total(fixtures_dir):
    sc = load_scenario(fixtures_dir / "three_agent.json")
    state = CodesState(sc, sc.codes)
    base = sum(np.array(a.demand_kw) - np.array(a.renewable_kw) for a in sc.agents)

    def total_imbalance():
        return base - (state.p_buy - state.p_sell) - state.p_desd.sum(axis=0)

    assert np.allclose(state.dp_hat.sum(axis=0), total_imbalance(), atol=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(25):
        # moves made outside the round are tracked like the round's own
        state.p_desd[:] = np.clip(state.p_desd + rng.normal(0, 0.2, state.p_desd.shape),
                                  state.lo[2:], state.hi[2:])
        state.refresh_slacks()
        state.run_chunk(1)
        assert np.abs(state.dp_hat.sum(axis=0) - total_imbalance()).max() <= 1e-9


def test_slack_multipliers_rest_inside_the_energy_box(fixtures_dir):
    # estimates start at zero here, so only the energy box prices dispatch
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    cfg = sc.codes
    inside = CodesState(sc, cfg)
    inside.p_desd[:] = [[-1.0, 1.0]]            # stays inside [emin, emax]
    inside.refresh_slacks()
    inside.run_chunk(1)
    assert np.array_equal(inside.p_desd, [[-1.0, 1.0]])
    assert np.array_equal(inside.mu1, np.zeros((1, 2)))
    assert np.array_equal(inside.mu2, np.zeros((1, 2)))
    drained = CodesState(sc, cfg)
    drained.p_desd[:] = [[4.0, 0.0]]            # drains 4 kWh below emin
    drained.refresh_slacks()
    drained.run_chunk(1)
    assert drained.mu2.max() > 0.0
    assert drained.mu1.max() == 0.0


def test_trace_rows_match_iterations(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    res = run_codes(sc, CodesConfig(max_iters=137, tol_step=0.0))
    assert res.iterations == 137
    assert len(res.trace) == 137
    assert res.trace.dtype.names == ("j_est", "max_imbalance_kw",
                                     "consensus_disagreement", "primal_step_norm")


@pytest.mark.parametrize("rounds", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_trace_rows_match_iterations_at_chunk_boundaries(fixtures_dir, rounds):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    res = run_codes(sc, CodesConfig(max_iters=rounds, tol_step=0.0))
    assert res.iterations == len(res.trace) == rounds


def test_chunked_run_stops_where_a_per_round_test_does(fixtures_dir):
    # rounds run CHUNK at a time; the test that ends the run still reads every round
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    cfg = sc.codes
    res = run_codes(sc, cfg)
    state, rows = CodesState(sc, cfg), []
    for _ in range(cfg.max_iters):
        step = state.run_chunk(1)[0, 3]
        imbalance = abs(state.dp_local.sum(axis=0)).max()
        dp = state.dp_hat
        rows.append((np.vdot(state.tariff, state.x), imbalance,
                     (dp.max(axis=0) - dp.min(axis=0)).max(), step))
        if imbalance < cfg.tol_balance_kw and step < cfg.tol_step:
            break
    assert res.converged and res.status == "converged" and res.config is cfg
    assert res.iterations == len(rows) == 18805
    assert res.iterations % CHUNK != 0    # inside a chunk: its later rounds are dropped
    assert np.abs(np.array(res.trace.tolist()) - rows).max() <= 1e-12
    assert np.array_equal(res.schedule.desd_power_kw[1], state.p_desd[0])
    assert np.array_equal(res.schedule.grid_buy_kw - res.schedule.grid_sell_kw,
                          state.p_buy - state.p_sell)


def test_a_runs_split_into_chunks_cannot_be_seen(fixtures_dir):
    # each chunk starts from row 0 and hands its last round back to row 0
    sc = load_scenario(fixtures_dir / "three_agent.json")
    cfg = sc.codes
    runs = []
    for sizes in ((7, 32, 1, 32, 13), (32, 32, 21)):
        state = CodesState(sc, cfg)
        trace = np.concatenate([state.run_chunk(n) for n in sizes])
        runs.append((state.x, state.est, state.mu, trace))
    assert len(runs[0][3]) == len(runs[1][3]) == 85
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_diverging_run_stops_at_its_first_non_finite_round(fixtures_dir):
    sc = load_scenario(fixtures_dir / "three_agent.json")
    cfg = dataclasses.replace(sc.codes, xi3=1e308, max_iters=300)
    with pytest.warns(RuntimeWarning):
        res = run_codes(sc, cfg)
    assert not res.converged and res.status == "diverged"
    assert res.iterations == 2                   # not the whole budget
    rows = np.array(res.trace.tolist())
    assert np.isfinite(rows[0]).all()
    assert not np.isfinite(rows[1]).any()


def test_huge_iteration_cap_records_only_the_rounds_run(fixtures_dir):
    # the trace grows with the run, not with max_iters
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    res = run_codes(sc, dataclasses.replace(sc.codes, max_iters=10**12))
    assert res.converged
    assert len(res.trace) == res.iterations


def test_history_buffers_stay_small_whatever_the_iteration_cap():
    spec = GenSpec(users=(40, 40), active=(20, 20), horizon=(24, 24), graph="ring")
    state = CodesState(gen_scenario(spec, seed=1), CodesConfig(max_iters=10**12))
    assert len(state.xs) == len(state.ests) == CHUNK + 1
    assert state.xs.nbytes + state.ests.nbytes < 1e6


def test_a_run_keeps_one_copy_of_its_trace(fixtures_dir):
    # the chunks' rounds are concatenated once, and the record array is a view
    # of that copy: the fixture's 20 000-round trace dominates the peak
    sc = load_scenario(fixtures_dir / "three_agent.json")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        res = run_codes(sc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert res.iterations == 20000
    assert peak < 2.8 * res.trace.nbytes


def test_runs_are_deterministic(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    cfg = CodesConfig(max_iters=400, tol_step=0.0)
    a, b = run_codes(sc, cfg), run_codes(sc, cfg)
    assert a.j == b.j
    assert a.iterations == b.iterations
    assert np.array_equal(a.schedule.grid_buy_kw, b.schedule.grid_buy_kw)
    assert np.array_equal(a.schedule.desd_power_kw[1], b.schedule.desd_power_kw[1])
    assert np.array_equal(a.trace.j_est, b.trace.j_est)


def test_absurd_step_size_reports_nonconvergence(fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    res = run_codes(sc, CodesConfig(xi1_desd=10.0, xi1_grid=10.0, max_iters=500))
    assert not res.converged and res.status == "iteration-cap"
    assert res.iterations == 500
    assert len(res.trace) == 500
    assert np.isfinite(res.j)
    assert np.isfinite(res.schedule.grid_buy_kw).all()
