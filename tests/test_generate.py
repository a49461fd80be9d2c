import numpy as np
import pytest

from coopgrid.centralized import check_schedule, solve_social
from coopgrid.generate import GRAPH_FAMILIES, GenSpec, gen_scenario
from coopgrid.scenario import dump_scenario, validate_scenario


def test_same_seed_same_scenario():
    spec = GenSpec()
    assert dump_scenario(gen_scenario(spec, 0)) == dump_scenario(gen_scenario(spec, 0))
    assert dump_scenario(gen_scenario(spec, 0)) != dump_scenario(gen_scenario(spec, 1))


def test_every_seed_validates_and_solves():
    spec = GenSpec(horizon=(3, 8))
    for seed in range(40):
        sc = gen_scenario(spec, seed)
        validate_scenario(sc)
        schedule, j = solve_social(sc)
        assert check_schedule(sc, schedule) == []
        assert np.isfinite(j)


def test_single_passive_user():
    sc = gen_scenario(GenSpec(users=(1, 1), active=(0, 0)), 3)
    assert sc.n_users == 1
    assert sc.users[0].role == "passive"
    assert sc.active_users == ()


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_graph_families_connected(family):
    spec = GenSpec(users=(4, 6), graph=family)
    for seed in range(8):
        sc = gen_scenario(spec, seed)
        n = len(sc.graph.node_ids)
        if family == "complete":
            assert len(sc.graph.edges) == n * (n - 1) // 2
        if family == "star":
            assert len(sc.graph.edges) == n - 1
        # metropolis_weights already refuses disconnected graphs


def test_bad_spec_rejected():
    with pytest.raises(ValueError, match="graph family"):
        GenSpec(graph="clique")
    with pytest.raises(ValueError, match="users"):
        GenSpec(users=(3, 2))
    with pytest.raises(ValueError, match="at least one"):
        GenSpec(users=(0, 2))


def test_horizon_starts_at_one_step():
    # a horizon range from 0 once drew zero-step days that crashed the generator
    with pytest.raises(ValueError, match="horizon"):
        GenSpec(horizon=(0, 3))
    assert gen_scenario(GenSpec(horizon=(1, 1)), 0).horizon == 1
