"""End-to-end gates for the package, one test per shipped guarantee.

Each test states its tolerance inline and fails loudly when the product
drifts; together they pin the solver-vs-oracle gap, the brute-force anchors,
the allocation identities, consensus behavior, the LP engine, and the
feasibility of every file the CLI emits.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from bruteforce import brute_force_schedule, enumerate_lp_vertices
from coopgrid.allocation import allocate_centralized
from coopgrid.centralized import check_schedule, net_exchange, read_schedule_csv, solve_social
from coopgrid.cli import main
from coopgrid.codes import run_codes
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.graph import metropolis_weights, run_consensus
from coopgrid.lp import LpCycleError, solve_lp
from coopgrid.scenario import dump_scenario, load_scenario
from coopgrid.selfish import disagreement_point

from lp_families import infeasible_lp, random_boxed_lp, unbounded_lp


def read_cost_csv(path):
    import csv
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_01_distributed_cost_within_half_percent_of_oracle(fixtures_dir, tmp_path):
    # compare must report a relative cost gap <= 0.5% on the pinned
    # 3-user day, within 20000 iterations and 60 seconds
    code = main(["compare", "--scenario", str(fixtures_dir / "three_agent.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rel_gap"] <= 0.005
    assert report["iterations"] <= 20000
    assert report["wall_time_s"] <= 60.0


def test_02_brute_force_pins_the_arbitrage_value(fixtures_dir):
    # LP says -1.4 exactly; exhaustive search at 0.01 kW agrees within 0.05;
    # with a single user the stand-alone cost equals the cooperative cost
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    _, j = solve_social(sc)
    assert abs(j - (-1.4)) <= 1e-9
    bf = brute_force_schedule(sc, grid_step=0.01)
    assert abs(bf.j - (-1.4)) <= 0.05
    d = disagreement_point(sc)
    assert d.shape == (1,)
    assert abs(d[0] - j) <= 1e-9


def test_03_allocation_identities_on_200_random_scenarios():
    # budget balance to 1e-9, equal savings to 1e-12, nonnegative savings
    # beyond -1e-6, individual rationality to 1e-6, all inside 5 minutes
    started = time.perf_counter()
    for seed in range(200):
        sc = gen_scenario(GenSpec(), seed)
        _, j = solve_social(sc)
        d = disagreement_point(sc)
        rep = allocate_centralized(sc, j, d)
        assert abs(rep.allocated.sum() - j) <= 1e-9
        assert np.abs((rep.selfish - rep.allocated) - rep.epsilon).max() <= 1e-12
        assert rep.epsilon >= -1e-6
        assert (rep.allocated <= rep.selfish + 1e-6).all()
    assert time.perf_counter() - started <= 300.0


def test_04_consensus_allocation_matches_direct_split_on_all_topologies(
        fixtures_dir, tmp_path):
    # the consensus-computed split agrees with the closed-form one to 1e-6
    # on complete, path, ring, and star graphs; the complete graph needs at
    # most 10 rounds, the rest at most 200
    sc = load_scenario(fixtures_dir / "three_agent.json")
    ids = [a.id for a in sc.agents]
    topologies = {
        "complete": [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]],
        "path": list(zip(ids, ids[1:])),
        "ring": list(zip(ids, ids[1:])) + [(ids[-1], ids[0])],
        "star": [(ids[0], other) for other in ids[1:]],
    }
    for name, edges in topologies.items():
        variant = dataclasses.replace(sc, graph=metropolis_weights(ids, edges))
        path = tmp_path / f"{name}.json"
        path.write_text(dump_scenario(variant))
        assert main(["allocate", "--scenario", str(path),
                     "--out-dir", str(tmp_path / name / "c")]) == 0
        assert main(["allocate", "--distributed", "--graph-tol", "1e-6",
                     "--scenario", str(path),
                     "--out-dir", str(tmp_path / name / "d")]) == 0
        central = read_cost_csv(tmp_path / name / "c" / "costs.csv")
        distrib = read_cost_csv(tmp_path / name / "d" / "costs.csv")
        for rc, rd in zip(central, distrib):
            assert abs(float(rc["J_alloc"]) - float(rd["J_alloc"])) <= 1e-6, name
        rounds = json.loads((tmp_path / name / "d" / "report.json").read_text())["rounds"]
        assert rounds <= (10 if name == "complete" else 200), name


def test_05_consensus_conserves_mass_and_reaches_the_mean(fixtures_dir):
    # per-round sum drift stays below 1e-12 * ||x||_1 and the loop lands
    # within 1e-9 of the true average on every graph shape we ship
    graphs = [load_scenario(fixtures_dir / "three_agent.json").graph,
              load_scenario(fixtures_dir / "arbitrage_t2.json").graph]
    for family in ("path", "ring", "star", "complete", "random"):
        graphs.append(gen_scenario(GenSpec(users=(4, 7), graph=family), 5).graph)
    rng = np.random.default_rng(0)
    for graph in graphs:
        x0 = rng.normal(scale=10.0, size=len(graph.node_ids))
        values = x0
        for _ in range(60):
            nxt = graph.weights @ values     # one round of run_consensus
            drift = abs(nxt.sum() - values.sum())
            assert drift <= 1e-12 * np.abs(values).sum()
            values = nxt
        final = run_consensus(x0, graph, tol=1e-9)
        assert np.abs(final.values - x0.mean()).max() <= 1e-9


def price_window(prices, widest_of):
    """Widest contiguous block of extreme-priced steps.

    Steps are taken in price order (highest first for 'max', lowest first
    for 'min'); the block grows while the taken set stays contiguous.
    """
    order = np.argsort(prices)
    if widest_of == "max":
        order = order[::-1]
    chosen, block = set(), None
    for h in order:
        chosen.add(int(h))
        if max(chosen) - min(chosen) + 1 == len(chosen):
            block = range(min(chosen), max(chosen) + 1)
        else:
            break
    return block


def test_06_storage_charges_cheap_discharges_peak_and_exchange_is_netted(
        fixtures_dir):
    # summed dispatch must not charge during the price peak or discharge
    # during the cheap window; buy and sell are never both nonzero.  The
    # exact optimum satisfies the signs strictly; the distributed schedule
    # gets the 0.05 kW dispatch slack it is allowed elsewhere.
    sc = load_scenario(fixtures_dir / "three_agent.json")
    buy = np.array(sc.tariff.buy)
    peak = price_window(buy, "max")
    cheap = price_window(buy, "min")
    assert len(peak) >= 2 and len(cheap) >= 2

    oracle_schedule, _ = solve_social(sc)
    codes_schedule = run_codes(sc).schedule
    for schedule, slack in ((oracle_schedule, 1e-9), (codes_schedule, 0.05)):
        total = sum(schedule.desd_power_kw.values())
        assert min(total[t] for t in peak) >= -slack
        assert max(total[t] for t in cheap) <= slack
        b, s = net_exchange(schedule.grid_buy_kw, schedule.grid_sell_kw)
        assert (b * s == 0.0).all()


def test_07_lp_solver_agrees_with_vertex_enumeration_on_500_instances():
    # 300 boxed (mixed feasible/degenerate), 100 contradictory, 100 with an
    # improving ray; status always matches and optimal values agree to 1e-7;
    # the anti-cycling guard never has to give up
    rng = np.random.default_rng(2026)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    try:
        for _ in range(300):
            lp = random_boxed_lp(rng)
            sol, ref = solve_lp(lp), enumerate_lp_vertices(lp)
            assert sol.status == ref.status
            if sol.status == "optimal":
                assert abs(sol.objective_value - ref.objective_value) <= (
                    1e-7 * (1.0 + abs(ref.objective_value)))
            outcomes[sol.status] += 1
        for _ in range(100):
            lp = infeasible_lp(rng)
            assert solve_lp(lp).status == "infeasible"
            assert enumerate_lp_vertices(lp).status == "infeasible"
            outcomes["infeasible"] += 1
        for _ in range(100):
            # enumeration needs a bounded region, so the ray family is
            # checked against its construction instead
            assert solve_lp(unbounded_lp(rng)).status == "unbounded"
            outcomes["unbounded"] += 1
    except LpCycleError as exc:
        pytest.fail(f"cycling guard tripped: {exc}")
    assert sum(outcomes.values()) == 500
    assert min(outcomes.values()) >= 50


def test_08_every_emitted_schedule_file_is_feasible(fixtures_dir, tmp_path):
    # files written by solve are re-read and validated: balance residual
    # <= 1e-8 kW for the exact solver and <= 1e-3 kW for the distributed
    # one, stored energy inside its box, every power inside its box
    for fixture in ("arbitrage_t2.json", "three_agent.json"):
        sc = load_scenario(fixtures_dir / fixture)
        out = tmp_path / fixture
        code = main(["solve", "--centralized", "--scenario",
                     str(fixtures_dir / fixture), "--out-dir", str(out)])
        assert code == 0
        schedule = read_schedule_csv(out / "schedule_centralized.csv")
        assert check_schedule(sc, schedule, balance_tol_kw=1e-8, box_tol=1e-6) == []

        code = main(["solve", "--codes", "--scenario",
                     str(fixtures_dir / fixture), "--out-dir", str(out)])
        assert code in (0, 4)   # the iteration cap is allowed, silence is not
        schedule = read_schedule_csv(out / "schedule_codes.csv")
        assert check_schedule(sc, schedule, balance_tol_kw=1e-3, box_tol=1e-3) == []
