"""The benchmark tracer's contract with the program.

perfbench/tracing.py wraps public functions by module and name and reads
counters off their results.  These tests run its target table and its own
counter functions against real results, so a renamed entry point, argument
or result field fails here and not only in a traced benchmark pass.
`Tracer.install()` is never called: it rebinds module globals for the rest
of the session.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from coopgrid.centralized import day_lp
from coopgrid.codes import CodesConfig, run_codes
from coopgrid.graph import run_consensus
from coopgrid.lp import solve_lp
from coopgrid.scenario import load_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracing):
    for name, module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_lp_counts_read_a_day_lp_solution(tracing, fixtures_dir):
    sc = load_scenario(fixtures_dir / "three_agent.json")
    lp = day_lp(sc, sc.agents)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert tracing._lp_counts((lp,), {}, sol) == {
        "pivots": sol.iterations, "vars": lp.n_vars, "rows": lp.a_eq.shape[0]}
    assert tracing._lp_counts((), {"lp": lp}, sol)["pivots"] == sol.iterations


def test_codes_counts_read_a_run(tracing, fixtures_dir):
    sc = load_scenario(fixtures_dir / "arbitrage_t2.json")
    config = dataclasses.replace(CodesConfig.from_scenario(sc), max_iters=50, tol_step=0.0)
    counts = tracing._codes_counts((sc, config), {}, run_codes(sc, config))
    assert counts["iterations"] == 50
    assert counts["converged"] is False
    for key in ("j_est", "imbalance"):
        assert counts[key].shape == (50,) and np.isfinite(counts[key]).all(), key


def test_consensus_counts_read_a_state(tracing, fixtures_dir):
    sc = load_scenario(fixtures_dir / "three_agent.json")
    state = run_consensus(np.arange(len(sc.agents), dtype=float), sc.graph, tol=1e-6)
    assert tracing._consensus_counts((), {}, state) == {"rounds": state.iteration}
    assert state.iteration > 0
