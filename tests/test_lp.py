import dataclasses

import numpy as np
import pytest

from bruteforce import enumerate_lp_vertices
from coopgrid.centralized import day_lp, day_start
from coopgrid.generate import GenSpec, gen_scenario
from coopgrid.lp import (FEAS_TOL, LinearProgram, LpStart, LpTableau, _pivot, _system,
                         check_feasible, solve_lp)
from coopgrid.scenario import load_scenario

from lp_families import infeasible_lp, random_boxed_lp, unbounded_lp


def test_single_variable_lower_bound():
    # min x s.t. x >= 1
    sol = solve_lp(LinearProgram(f=[1.0], lower=[1.0], upper=[np.inf]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-12
    assert abs(sol.x[0] - 1.0) < 1e-12


def test_single_variable_bound_as_row():
    # same LP with the bound written as an inequality row instead
    sol = solve_lp(LinearProgram(f=[1.0], a_ub=[[-1.0]], b_ub=[-1.0],
                                 lower=[-10.0], upper=[np.inf]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-12


def test_two_variable_simplex_corner():
    # min -x - y s.t. x + y <= 1, x,y >= 0: any point on the facet scores -1
    sol = solve_lp(LinearProgram(f=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 1.0) < 1e-12


def test_obviously_infeasible():
    lp = LinearProgram(f=[1.0], a_ub=[[1.0]], b_ub=[-1.0])   # x <= -1, x >= 0
    assert solve_lp(lp).status == "infeasible"
    assert enumerate_lp_vertices(lp).status == "infeasible"


def test_obviously_unbounded():
    sol = solve_lp(LinearProgram(f=[-1.0]))   # min -x, x >= 0
    assert sol.status == "unbounded"
    assert sol.x is None and sol.objective_value is None


def test_contradictory_bounds_are_infeasible():
    lp = LinearProgram(f=[1.0, 1.0], lower=[0.0, 2.0], upper=[1.0, 1.0])
    assert solve_lp(lp).status == "infeasible"


def test_equality_only_square_system():
    lp = LinearProgram(f=[1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, -1.0]],
                       b_eq=[3.0, 1.0], lower=[-10.0, -10.0], upper=[10.0, 10.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [2.0, 1.0], atol=1e-9)
    ref = enumerate_lp_vertices(lp)
    assert abs(sol.objective_value - ref.objective_value) < 1e-9


def test_redundant_equality_rows():
    # second row is the first doubled; solver must not report infeasible
    lp = LinearProgram(f=[1.0, 0.0], a_eq=[[1.0, 1.0], [2.0, 2.0]],
                       b_eq=[2.0, 4.0], lower=[0.0, 0.0], upper=[5.0, 5.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 0.0) < 1e-9   # x=(0,2)
    assert np.allclose(sol.x, [0.0, 2.0], rtol=0.0, atol=1e-9)
    ref = enumerate_lp_vertices(lp)
    assert ref.status == "optimal" and abs(ref.objective_value) < 1e-9
    # phase 1 leaves the doubled row's artificial basic (this LP has no slack),
    # so a warm solve of a new right-hand side from this optimum starts cold
    assert (sol.tableau.basis >= lp.n_vars).any()
    moved = LinearProgram(f=lp.f, a_eq=lp.a_eq, b_eq=[3.0, 6.0], lower=lp.lower, upper=lp.upper)
    warm, cold = solve_lp(moved, warm=sol), solve_lp(moved)
    assert warm.status == cold.status == "optimal"
    assert warm.objective_value == cold.objective_value
    assert np.array_equal(warm.x, cold.x) and np.allclose(cold.x, [0.0, 3.0], rtol=0.0, atol=1e-9)


ARTIFICIAL_LEFT_LPS = [
    # phase 1 ends after no pivot with every artificial basic at zero, so
    # phase 2 starts with them in its basis and pivots them out
    pytest.param(LinearProgram([-1.0], a_eq=[[-1.0]], b_eq=[0.0], upper=[5.0]), 0.0, [0.0],
                 id="one-artificial-left"),
    pytest.param(LinearProgram([-1.0, -1.0], a_eq=[[-1.0, 1.0], [1.0, -1.0]], b_eq=[0.0, 0.0],
                               upper=[5.0, 5.0]), -10.0, [5.0, 5.0],
                 id="two-artificials-left"),
]

REDUNDANT_ROW_LPS = [
    pytest.param(LinearProgram(f=[1.0, 0.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0],
                               lower=[0.0, 0.0], upper=[5.0, 5.0]), 0.0, [0.0, 2.0],
                 id="doubled-row"),
    *ARTIFICIAL_LEFT_LPS,
]


@pytest.mark.parametrize("lp, j, x", ARTIFICIAL_LEFT_LPS)
def test_artificials_left_basic_after_phase_one(lp, j, x):
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - j) < 1e-9
    assert np.allclose(sol.x, x, rtol=0.0, atol=1e-9)
    ref = enumerate_lp_vertices(lp)
    assert ref.status == "optimal" and abs(ref.objective_value - j) < 1e-9


@pytest.mark.parametrize("lp, j, x", REDUNDANT_ROW_LPS)
def test_redundant_equality_rows_match_highs(lp, j, x):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(lp.f, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=list(zip(lp.lower, lp.upper)),
                  method="highs")
    assert res.status == 0 and abs(res.fun - j) < 1e-9
    assert np.allclose(res.x, x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("a_eq, b_eq, f, j", [
    ([[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0], [1.0, 0.0], 0.0),
    ([[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0], [-1.0, 0.0], -2.0),
    ([[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0], [-1.0, -1.0], -10.0),
    ([[1.0, 1.0], [2.0, 2.0]], [2.0, 5.0], [1.0, 0.0], None),   # rows contradict
], ids=["min-x0", "min-minus-x0", "two-row", "contradicting"])
def test_vertex_enumeration_with_dependent_equality_rows(a_eq, b_eq, f, j):
    # dependent rows leave more free dimensions than the row count says, so
    # the oracle must count them from the rank of a_eq
    ref = enumerate_lp_vertices(LinearProgram(f, a_eq=a_eq, b_eq=b_eq, upper=[5.0, 5.0]))
    if j is None:
        assert ref.status == "infeasible"
    else:
        assert ref.status == "optimal" and abs(ref.objective_value - j) < 1e-9


def test_beale_cycling_instance():
    # the classic tableau that cycles under naive pivoting; optimum is -1/20
    # at x = (1/25, 0, 1, 0)
    lp = LinearProgram(
        f=[-0.75, 150.0, -0.02, 6.0],
        a_ub=[[0.25, -60.0, -1.0 / 25.0, 9.0],
              [0.5, -90.0, -1.0 / 50.0, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 0.05) < 1e-9


def test_degenerate_duplicate_tight_rows():
    lp = LinearProgram(f=[-1.0, -1.0],
                       a_ub=[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                       b_ub=[1.0, 1.0, 1.5],
                       lower=[0.0, 0.0], upper=[4.0, 4.0])
    sol = solve_lp(lp)
    ref = enumerate_lp_vertices(lp)
    assert sol.status == ref.status == "optimal"
    assert abs(sol.objective_value - ref.objective_value) < 1e-9


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(7)
    n_optimal = n_infeasible = 0
    for _ in range(150):
        lp = random_boxed_lp(rng)
        sol = solve_lp(lp)
        ref = enumerate_lp_vertices(lp)
        assert sol.status == ref.status, f"{sol.status} vs oracle {ref.status}"
        if sol.status == "optimal":
            n_optimal += 1
            assert abs(sol.objective_value - ref.objective_value) <= 1e-7 * (
                1.0 + abs(ref.objective_value))
            assert not check_feasible(lp, sol.x)
        else:
            n_infeasible += 1
    # the family must actually exercise both outcomes
    assert n_optimal >= 30 and n_infeasible >= 10


def test_constructed_infeasible_family():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lp = infeasible_lp(rng)
        assert solve_lp(lp).status == "infeasible"
        assert enumerate_lp_vertices(lp).status == "infeasible"


def test_constructed_unbounded_family():
    rng = np.random.default_rng(13)
    for _ in range(60):
        assert solve_lp(unbounded_lp(rng)).status == "unbounded"


def test_objective_scaling_property():
    # scaling the cost vector by c > 0 scales the optimum by c, same argmin set
    rng = np.random.default_rng(17)
    scaled = 0
    for _ in range(40):
        lp = random_boxed_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            continue
        c = float(rng.uniform(0.5, 4.0))
        lp2 = LinearProgram(c * lp.f, a_ub=lp.a_ub, b_ub=lp.b_ub,
                            a_eq=lp.a_eq, b_eq=lp.b_eq,
                            lower=lp.lower, upper=lp.upper)
        sol2 = solve_lp(lp2)
        assert sol2.status == "optimal"
        assert abs(sol2.objective_value - c * sol.objective_value) <= 1e-7 * (
            1.0 + abs(sol.objective_value))
        scaled += 1
    assert scaled >= 15


def test_variable_permutation_invariance():
    rng = np.random.default_rng(19)
    for _ in range(40):
        lp = random_boxed_lp(rng)
        perm = rng.permutation(lp.n_vars)
        lp2 = LinearProgram(lp.f[perm], a_ub=lp.a_ub[:, perm], b_ub=lp.b_ub,
                            a_eq=lp.a_eq[:, perm] if lp.a_eq.shape[0] else None,
                            b_eq=lp.b_eq if lp.a_eq.shape[0] else None,
                            lower=lp.lower[perm], upper=lp.upper[perm])
        sol, sol2 = solve_lp(lp), solve_lp(lp2)
        assert sol.status == sol2.status
        if sol.status == "optimal":
            assert abs(sol.objective_value - sol2.objective_value) <= 1e-7 * (
                1.0 + abs(sol.objective_value))


def test_pivot_updates_only_rows_with_a_nonzero_entry():
    # the row-sparse pivot equals the dense rank-one update, and a row whose
    # pivot-column entry is zero (cost row included) keeps every bit, down to
    # the sign of its zeros, which the dense update can flip
    rng = np.random.default_rng(23)
    for trial in range(60):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        tab = rng.uniform(-3.0, 3.0, (m + 1, n + 1))
        sparse = rng.random((m + 1, n + 1)) < 0.6
        tab[sparse] = np.copysign(0.0, rng.uniform(-1.0, 1.0, sparse.sum()))
        row, col = int(rng.integers(m)), int(rng.integers(n))
        tab[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        others = np.delete(np.arange(m + 1), row)
        zero = rng.choice(others, size=int(rng.integers(1, m + 1)), replace=False)
        if trial % 2:
            zero = np.union1d(zero, [m])   # the cost row among them
        tab[zero, col] = 0.0
        before = tab.copy()
        expected = tab.copy()
        expected[row] /= expected[row, col]
        piv = expected[:, col].copy()
        piv[row] = 0.0
        expected = expected - np.outer(piv, expected[row])
        basis = np.arange(m)
        _pivot(tab, basis, row, col)
        assert np.array_equal(tab, expected)
        assert basis[row] == col
        untouched = np.setdiff1d(np.flatnonzero(before[:, col] == 0.0), [row])
        assert untouched.size >= 1
        assert tab[untouched].tobytes() == before[untouched].tobytes()


NO_COLUMNS = np.zeros(0, dtype=int)


def test_a_feasible_start_skips_phase_one():
    # min -x0 - x1  s.t.  x0 + x2 = 2,  x1 + x3 = 3,  0 <= x <= 4: x2 and x3
    # carry the rows, and each of x0 and x1 enters once
    lp = LinearProgram([-1.0, -1.0, 0.0, 0.0], a_eq=[[1, 0, 1, 0], [0, 1, 0, 1]],
                       b_eq=[2.0, 3.0], upper=[4.0] * 4)
    sol = solve_lp(lp, start=LpStart([(np.array([0, 1]), np.array([2, 3]))], NO_COLUMNS))
    assert (sol.phase1_pivots, sol.phase2_pivots, sol.iterations) == (0, 2, 2)
    assert sol.x.tolist() == [2.0, 3.0, 0.0, 0.0]
    # x0 at its upper bound pushes x2 to -2: phase 1 decides instead
    ref = solve_lp(lp)
    sol = solve_lp(lp, start=LpStart([(np.array([0, 1]), np.array([2, 3]))], np.array([0])))
    assert sol.phase1_pivots == ref.phase1_pivots > 0
    assert sol.x.tobytes() == ref.x.tobytes()


def test_a_start_that_is_refused_leaves_the_phase_one_path_as_it_was():
    # slack starts on the random family: taken where the slacks fit their
    # boxes, and otherwise the same pivots and the same bytes as no start;
    # a dense block over every row is never diagonal
    rng = np.random.default_rng(43)
    taken = refused = 0
    for _ in range(150):
        lp = random_boxed_lp(rng)
        n, m_eq, m_ub = lp.n_vars, lp.a_eq.shape[0], lp.a_ub.shape[0]
        slack = (np.arange(m_eq, m_eq + m_ub), n + np.arange(m_ub))
        eq = (np.arange(m_eq), np.abs(lp.a_eq).argmax(axis=1))
        dense = (np.arange(m_eq + m_ub), np.arange(m_eq + m_ub))
        ref = solve_lp(lp)
        for blocks in ([eq, slack], [dense]):
            sol = solve_lp(lp, start=LpStart(blocks, NO_COLUMNS))
            assert sol.status == ref.status
            if sol.phase1_pivots == 0:
                taken += 1
                assert abs(sol.objective_value - ref.objective_value) <= 1e-9 * (
                    1.0 + abs(ref.objective_value))
                assert not check_feasible(lp, sol.x)
            else:
                refused += 1
                assert (sol.phase1_pivots, sol.phase2_pivots) == (ref.phase1_pivots,
                                                                  ref.phase2_pivots)
                assert (sol.x is None and ref.x is None) or sol.x.tobytes() == ref.x.tobytes()
    assert taken >= 30 and refused >= 150


def chain_lp(link: float = -1.0) -> LinearProgram:
    """min x3 + x4 + x5  s.t.  x0 + x3 = 1,  link*x0 + x1 + x4 = 1,
    -x1 + x2 + x5 = 1,  0 <= x <= 4: x0, x1, x2 chain like stored energy."""
    return LinearProgram([0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                         a_eq=[[1, 0, 0, 1, 0, 0], [link, 1, 0, 0, 1, 0], [0, -1, 1, 0, 0, 1]],
                         b_eq=[1.0, 1.0, 1.0], upper=[4.0] * 6)


def test_a_chained_start_block_is_entered_as_a_cumulative_sum():
    # x0, x1, x2 carry rows 0-2 in one block that is unit lower bidiagonal,
    # so they take the running sums 1, 2, 3 and x3 = x4 = x5 = 0 is optimal
    lp = chain_lp()
    sol = solve_lp(lp, start=LpStart([(np.array([0, 1, 2]), np.array([0, 1, 2]))], NO_COLUMNS))
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
    assert sol.x.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]
    # two chains in one block: rows 1 and 2 chain, row 0 stands alone
    sol = solve_lp(lp, start=LpStart([(np.array([0, 1, 2]), np.array([3, 1, 2]))], NO_COLUMNS))
    assert sol.phase1_pivots == 0
    assert sol.objective_value == solve_lp(lp).objective_value == 0.0


@pytest.mark.parametrize("link, rows", [(-2.0, [0, 1, 2]), (-1.0, [2, 1, 0])])
def test_a_block_that_is_not_a_chain_is_refused(link, rows):
    # an entry below the pivot that is not minus the pivot of its row, or a
    # chain listed backwards (upper bidiagonal), sends the LP to phase 1
    lp = chain_lp(link)
    ref = solve_lp(lp)
    sol = solve_lp(lp, start=LpStart([(np.array(rows), np.array(rows))], NO_COLUMNS))
    assert sol.phase1_pivots == ref.phase1_pivots > 0
    assert sol.x.tobytes() == ref.x.tobytes()


def test_a_start_gives_every_row_one_basic_column():
    lp = LinearProgram([1.0, 1.0], a_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[1.0, 1.0])
    for blocks in ([(np.array([0]), np.array([0]))],
                   [(np.array([0, 0]), np.array([0, 1]))]):
        with pytest.raises(ValueError, match="every row"):
            solve_lp(lp, start=LpStart(blocks, NO_COLUMNS))


def perturbed(lp: LinearProgram, rng: np.random.Generator) -> LinearProgram:
    """The same a_eq, a_ub and f with a new right-hand side and new bounds."""
    lower = lp.lower + rng.uniform(-0.5, 0.5, lp.n_vars)
    width = (lp.upper - lp.lower) * rng.uniform(0.5, 1.5, lp.n_vars)
    return dataclasses.replace(lp, b_ub=lp.b_ub + rng.uniform(-0.5, 0.5, lp.b_ub.size),
                               b_eq=lp.b_eq + rng.uniform(-0.3, 0.3, lp.b_eq.size),
                               lower=lower, upper=lower + width)


def warm_pairs(seed: int, count: int):
    """(source solution, perturbed LP) pairs from the optimal random boxed LPs."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        lp = random_boxed_lp(rng)
        source = solve_lp(lp)
        if source.status == "optimal":
            pairs += [(source, perturbed(lp, rng)) for _ in range(3)]
    return pairs


def test_warm_and_cold_solves_agree_on_perturbed_lps(monkeypatch):
    # a warm solve that ends optimal builds no fresh state
    built = []
    of = LpTableau.of
    monkeypatch.setattr(LpTableau, "of", staticmethod(lambda lp: built.append(lp) or of(lp)))
    warm_optimal = not_optimal = 0
    for source, lp in warm_pairs(2024, 300):
        cold = solve_lp(lp)
        del built[:]
        sol = solve_lp(lp, warm=source)
        assert sol.status == cold.status
        if sol.status == "optimal":
            assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * (
                1.0 + abs(cold.objective_value))
            assert not check_feasible(lp, sol.x)
            if not built:
                warm_optimal += 1
                assert sol.phase1_pivots == 0
        else:
            not_optimal += 1
    # most solves end on the dual simplex; the fallback still decides the rest
    assert warm_optimal >= 200 and not_optimal >= 10


def test_a_warm_solve_leaves_its_source_as_it_was():
    # the second battery owner's stand-alone LP, twice warm from the first's
    sc = gen_scenario(GenSpec(users=(10, 10), active=(5, 5), horizon=(48, 48), graph="ring"), 1000)
    first, second = [[a] for a in sc.users if a.desd is not None][:2]
    source = solve_lp(day_lp(sc, first), start=day_start(sc, first))
    state = source.tableau
    before = [state.tab.tobytes(), state.basis.tobytes(), state.flipped.tobytes()]
    lp = day_lp(sc, second)
    one, two = solve_lp(lp, warm=source), solve_lp(lp, warm=source)
    assert [state.tab.tobytes(), state.basis.tobytes(), state.flipped.tobytes()] == before
    assert one.status == two.status == "optimal" and one.phase1_pivots == 0
    assert one.x.tobytes() == two.x.tobytes()
    assert (one.phase1_pivots, one.phase2_pivots) == (two.phase1_pivots, two.phase2_pivots)


def test_warm_solves_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for source, lp in warm_pairs(7, 90):
        sol = solve_lp(lp, warm=source)
        res = linprog(lp.f, A_ub=lp.a_ub, b_ub=lp.b_ub,
                      A_eq=lp.a_eq if lp.a_eq.size else None,
                      b_eq=lp.b_eq if lp.a_eq.size else None,
                      bounds=list(zip(lp.lower, lp.upper)), method="highs")
        assert (sol.status == "optimal") == (res.status == 0)
        if res.status == 0:
            assert abs(sol.objective_value - res.fun) <= 1e-9 * (1.0 + abs(res.fun))


def test_a_warm_source_of_another_lp_is_refused():
    lp = LinearProgram([1.0, 2.0], a_ub=[[1.0, -1.0]], b_ub=[1.0], a_eq=[[1.0, 1.0]],
                       b_eq=[1.0], upper=[2.0, 5.0])
    source = solve_lp(lp)
    assert source.status == "optimal"
    for name, value in (("f", [1.0, 3.0]), ("a_eq", [[1.0, 2.0]]), ("a_ub", [[1.0, 1.0]])):
        other = dataclasses.replace(lp, **{name: value})
        with pytest.raises(ValueError, match="same a_eq, a_ub and f"):
            solve_lp(other, warm=source)
    infeasible = solve_lp(dataclasses.replace(lp, b_eq=[9.0]))
    assert infeasible.status == "infeasible"
    with pytest.raises(ValueError, match="simplex optimum"):
        solve_lp(lp, warm=infeasible)


def test_an_infeasible_warm_lp_falls_back_to_phase_one():
    lp = LinearProgram([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[2.0, 5.0])
    source = solve_lp(lp)
    sol = solve_lp(dataclasses.replace(lp, b_eq=[8.0]), warm=source)   # above what the boxes reach
    assert (sol.status, sol.x, sol.objective_value) == ("infeasible", None, None)
    assert sol.phase1_pivots > 0
    # below it, phase 1 decides at its first pricing
    assert solve_lp(dataclasses.replace(lp, b_eq=[-1.0]), warm=source).status == "infeasible"


def test_iterations_count_the_warm_pivots():
    # min x0 + 2 x1 s.t. x0 + x1 = b: x0 carries b = 1 alone, and at b = 3 it
    # leaves above its bound 2 in one dual pivot that brings in x1
    lp = LinearProgram([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[2.0, 5.0])
    source = solve_lp(lp)
    assert source.x.tolist() == [1.0, 0.0]
    sol = solve_lp(dataclasses.replace(lp, b_eq=[3.0]), warm=source)
    assert (sol.phase1_pivots, sol.phase2_pivots, sol.iterations) == (0, 1, 1)
    assert sol.x.tolist() == [2.0, 1.0] and sol.objective_value == 4.0
    # the source's tableau is left as it was, so it can seed another solve
    again = solve_lp(dataclasses.replace(lp, b_eq=[1.5]), warm=source)
    assert (again.iterations, again.x.tolist()) == (0, [1.5, 0.0])
    # with no rows there is nothing to repair: each column keeps its bound
    boxes = LinearProgram([1.0, -1.0], upper=[2.0, 3.0])
    sol = solve_lp(dataclasses.replace(boxes, lower=np.array([1.0, -1.0]),
                                       upper=np.array([4.0, 5.0])), warm=solve_lp(boxes))
    assert (sol.iterations, sol.x.tolist()) == (0, [1.0, 5.0])


def test_check_feasible_reports_each_violation_kind():
    lp = LinearProgram(f=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                       a_eq=[[1.0, -1.0]], b_eq=[0.0],
                       lower=[0.0, 0.0], upper=[2.0, 2.0])
    bad = check_feasible(lp, np.array([3.0, -1.0]))
    kinds = {v.kind for v in bad}
    assert kinds == {"ub", "eq", "lower", "upper"}
    assert all(v.residual > 0 for v in bad)
    assert check_feasible(lp, np.array([0.5, 0.5])) == []


def test_check_feasible_uses_row_scaling():
    # residual 5e-5 on a row with coefficients ~1e4 scales down to 5e-9: ok
    lp = LinearProgram(f=[1.0], a_eq=[[1.0e4]], b_eq=[1.0e4],
                       lower=[-10.0], upper=[np.inf])
    assert check_feasible(lp, np.array([1.0 + 5e-9])) == []
    assert check_feasible(lp, np.array([1.1])) != []


def test_check_feasible_is_relative_to_the_row():
    # a residual of 1e-6 on a row whose terms are 1e8 is rounding; on a row of
    # unit terms it is a violation; the same holds for a bound's violation
    lp = LinearProgram(f=[1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[1.0e8], upper=[2.0e8, 2.0e8])
    assert check_feasible(lp, np.array([1.0e8 + 1e-6, 0.0])) == []
    assert check_feasible(dataclasses.replace(lp, b_eq=[1.0]), np.array([1.0 + 1e-6, 0.0])) != []
    assert check_feasible(lp, np.array([2.0e8 + 1e-6, 1.0e8 + 1e-6])) == []
    unit = dataclasses.replace(lp, b_eq=[1.0], upper=[2.0, 2.0])
    assert [v.kind for v in check_feasible(unit, np.array([2.0 + 1e-6, 1.0 + 1e-6]))] == ["upper"]


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram(f=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(f=[1.0], lower=[0.0, 0.0])


@pytest.mark.parametrize("field", ["f", "a_ub", "b_ub", "a_eq", "b_eq", "lower", "upper", "x"])
def test_nan_input_is_refused(field):
    # a NaN coefficient or bound is refused, and a NaN point is not feasible
    data = {"f": [1.0], "a_ub": [[1.0]], "b_ub": [2.0], "a_eq": [[1.0]], "b_eq": [0.5],
            "lower": [0.0], "upper": [1.0]}
    if field == "x":
        assert check_feasible(LinearProgram(**data), np.array([np.nan])) != []
        return
    data[field] = np.full(np.shape(data[field]), np.nan)
    with pytest.raises(ValueError, match=f"^{field} must"):
        solve_lp(LinearProgram(**data))


# --- one system, one finish ----------------------------------------------------


def assert_basis_reproduces_x(lp: LinearProgram, sol) -> None:
    """The returned basis, with each nonbasic column at the bound `flipped`
    names, reproduces x through the one system `_system` builds:
    a[:, basis] @ y_B = b - a[:, nonbasic] @ y_N."""
    system = _system(lp, lp.lower)
    a, b = system[:-1, :-1], system[:-1, -1]
    n_real = a.shape[1]
    y = np.concatenate([sol.x - lp.lower, lp.b_ub - lp.a_ub @ sol.x])
    basis = sol.tableau.basis[sol.tableau.basis < n_real]   # a basic artificial sits at zero
    nonbasic = np.setdiff1d(np.arange(n_real), basis)
    width = np.concatenate([lp.upper - lp.lower, np.full(lp.a_ub.shape[0], np.inf)])
    y_n = np.where(sol.tableau.flipped, width, 0.0)[nonbasic]
    assert np.allclose(y[nonbasic], y_n, rtol=FEAS_TOL, atol=FEAS_TOL)
    assert np.linalg.matrix_rank(a[:, basis]) == basis.size
    residual = a[:, basis] @ y[basis] - (b - a[:, nonbasic] @ y_n)
    assert (np.abs(residual) <= FEAS_TOL * (1.0 + np.abs(b) + np.abs(a) @ np.abs(y))).all()


def assert_one_finish(lp: LinearProgram, start: LpStart, source) -> np.ndarray:
    """The started, phase-1 and warm solves of lp reach one objective, and each
    returned tableau reproduces its x; returns whether the start was taken and
    whether the warm solve stayed warm."""
    cold = solve_lp(lp)
    started = solve_lp(lp, start=start)
    warm = solve_lp(lp, warm=source)
    assert cold.status == started.status == warm.status == "optimal"
    for sol in (cold, started, warm):
        assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * (
            1.0 + abs(cold.objective_value))
        assert_basis_reproduces_x(lp, sol)
    return np.array([started.phase1_pivots == 0, warm.phase1_pivots == 0], dtype=int)


def test_started_phase_one_and_warm_solves_share_one_finish_on_the_lp_families():
    rng = np.random.default_rng(11)
    solved, taken = 0, np.zeros(2, dtype=int)
    while solved < 60:
        lp = random_boxed_lp(rng)
        source = solve_lp(lp)
        other = perturbed(lp, rng)
        if source.status != "optimal" or solve_lp(other).status != "optimal":
            continue
        n, m_eq, m_ub = lp.n_vars, lp.a_eq.shape[0], lp.a_ub.shape[0]
        start = LpStart([(np.arange(m_eq), np.abs(lp.a_eq).argmax(axis=1)),
                         (np.arange(m_eq, m_eq + m_ub), n + np.arange(m_ub))], NO_COLUMNS)
        taken += assert_one_finish(other, start, source)
        solved += 1
    assert taken[0] >= 8 and taken[1] >= 50


def battery_day_lps(sc):
    """The social day LP and each battery owner's stand-alone one, with the
    start a cold solve enters at and a warm source of the same a_eq and f:
    the optimum of the day with 10 % less net load."""
    for agents in [sc.agents] + [[a] for a in sc.users if a.desd is not None]:
        lp = day_lp(sc, agents)
        b_eq = lp.b_eq.copy()
        b_eq[:sc.horizon] *= 0.9
        source = solve_lp(dataclasses.replace(lp, b_eq=b_eq))
        assert source.status == "optimal"
        yield lp, day_start(sc, agents), source


@pytest.mark.parametrize("dt", [0.25, 1.0, 24.0])
def test_started_phase_one_and_warm_solves_share_one_finish_on_day_lps(fixtures_dir, dt):
    days = [load_scenario(fixtures_dir / "three_agent.json"),
            load_scenario(fixtures_dir / "arbitrage_t2.json"),
            gen_scenario(GenSpec(users=(4, 4), active=(3, 3), horizon=(24, 24), graph="ring"), 3)]
    solves, taken = 0, np.zeros(2, dtype=int)
    for sc in days:
        for lp, start, source in battery_day_lps(dataclasses.replace(sc, dt_hours=dt)):
            taken += assert_one_finish(lp, start, source)
            solves += 1
    # three social LPs and six stand-alone ones: every start and warm source is taken
    assert solves == 9 and taken.tolist() == [9, 9]
