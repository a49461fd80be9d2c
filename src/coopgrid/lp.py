"""Dense linear programming with a two-phase simplex method.

Problems are stated as

    min  f @ x
    s.t. a_ub @ x <= b_ub
         a_eq @ x == b_eq
         lower <= x <= upper

Every lower bound is finite; an upper bound may be +inf.  All matrices are
dense numpy arrays; `_system` writes the one equality system of every solve,
[A_eq, 0; A_ub, I] with its shifted right-hand side, straight into the tableau
of a dependency-free simplex, and one `LpTableau` holds a solve's whole state.
A pivot touches only the rows with a nonzero pivot-column entry; its ratio
test fills one preallocated array from the right-hand side and the basic
columns' upper bounds, kept pivot by pivot.  Variable bounds never become
rows: each variable is one column shifted by its lower bound, and the ratio
test keeps it inside its box (Dantzig's upper-bounding technique).

Phase 1 alone scales rows: it equilibrates its fresh tableau, turns every
right-hand side nonnegative, and gives each row an artificial with a basis
index but no column.  Phase 2 starts from the basis phase 1 ends on, as it
stands: an artificial still basic there is boxed at [0, 0], so it stays at
zero until a degenerate pivot takes it out, and it never re-enters.  A caller
that knows a basis passes it as an `LpStart`: a few block pivots bring the
unscaled tableau there, since B^-1 [A | b] does not depend on row scaling,
and phase 2 starts from it when every basic value lies in its box.  A block
is diagonal, or chains rows, each holding minus its pivot in the column of the
row before it: divided by its pivots such a block is unit lower bidiagonal,
and its inverse is a cumulative sum down each chain.

A caller that solved an LP with the same `a_eq`, `a_ub` and `f` passes that
`LpSolution` as `warm`.  Its final state is dual feasible for any new
right-hand side and bounds, so the solve copies it, recomputes the basic
values from the unscaled system, and runs the bounded dual simplex (Lemke
1954) until every basic value lies in its box.  Every solve ends in one
finish: phase 2, the point, its `check_feasible` test (relative on rows and
bounds alike) and the `LpSolution`, which keeps the state.  A warm solve
whose dual loop or finish fails, and a refused start, fall back to phase 1
on a fresh state, so phase 1 alone decides 'infeasible'.

Reduced costs are priced against the absolute PIVOT_TOL, so a cost vector
whose largest entry is below 0.5 is lifted by a power of two first: every
reduced cost scales by the same exact factor, and the objective is still
priced from x with `f`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-10   # entries smaller than this are treated as zero pivots
FEAS_TOL = 1e-8     # feasibility tolerance, relative to each row's and bound's size
BLOCK_ROWS = 32     # rows a start pivots at once, which bounds its temporaries


class LpError(Exception):
    """Base class for solver faults (not a status: statuses are returned)."""


class LpCycleError(LpError):
    """Raised when the pivot-count guard trips; indicates an internal fault."""


@dataclass
class LinearProgram:
    """Container for one LP instance.

    Missing constraint blocks may be passed as None.  Bounds default to
    [0, +inf) per variable, matching the usual standard-form convention.
    Every entry must be finite, except that an upper bound may be infinite.
    """

    f: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.f = np.atleast_1d(np.asarray(self.f, dtype=float))
        n = self.f.size
        if self.a_ub is None:
            self.a_ub = np.zeros((0, n))
            self.b_ub = np.zeros(0)
        else:
            self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
            self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        self.lower = (np.zeros(n) if self.lower is None
                      else np.atleast_1d(np.asarray(self.lower, dtype=float)))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.a_ub.shape != (self.b_ub.size, n):
            raise ValueError(f"a_ub has shape {self.a_ub.shape}, expected ({self.b_ub.size}, {n})")
        if self.a_eq.shape != (self.b_eq.size, n):
            raise ValueError(f"a_eq has shape {self.a_eq.shape}, expected ({self.b_eq.size}, {n})")
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound vectors must have one entry per variable")
        for name in ("f", "a_ub", "b_ub", "a_eq", "b_eq", "lower"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.isnan(self.upper).any():
            raise ValueError("upper must not be NaN")

    @property
    def n_vars(self) -> int:
        return self.f.size


@dataclass
class LpTableau:
    """One solve's state: the tableau over y = x - lower (rows [A | b], then the
    cost row), each y column's upper bound, the complemented columns and, once
    there is one, the basis (row r's basic column is `basis[r]`).  A solution
    keeps the state its solve ended on, which a warm solve starts from."""

    lp: LinearProgram
    tab: np.ndarray
    upper: np.ndarray
    flipped: np.ndarray
    basis: np.ndarray | None = None

    @classmethod
    def of(cls, lp: LinearProgram) -> LpTableau:
        """The state before any pivot: the unscaled `_system` at lp.lower."""
        upper = _column_upper(lp)
        return cls(lp, _system(lp, lp.lower), upper, np.zeros(upper.size, dtype=bool))


@dataclass
class LpSolution:
    status: str                 # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective_value: float | None
    phase1_pivots: int = 0      # 0 when the simplex started from a feasible `LpStart` or warm
    phase2_pivots: int = 0      # a warm solve's dual and primal pivots
    tableau: LpTableau | None = field(default=None, repr=False)   # set when optimal

    @property
    def iterations(self) -> int:
        return self.phase1_pivots + self.phase2_pivots


@dataclass
class LpStart:
    """A basis to enter phase 2 at.  `blocks` pairs each row with its basic
    column (variable j is column j, the slack of `a_ub` row k column n_vars + k),
    pivoted block by block.  In a block's columns a row holds only its pivot
    and, when it chains to the row listed before it, minus that pivot in that
    row's column.  Nonbasic columns sit at their lower bound, or their upper
    if in `at_upper`."""

    blocks: list[tuple[np.ndarray, np.ndarray]]
    at_upper: np.ndarray


@dataclass
class ConstraintViolation:
    kind: str      # 'ub' | 'eq' | 'lower' | 'upper'
    index: int
    residual: float

    def __str__(self):
        return f"{self.kind}[{self.index}]: residual {self.residual:.3e}"


def check_feasible(lp: LinearProgram, x: np.ndarray, tol: float = FEAS_TOL) -> list[ConstraintViolation]:
    """Return all constraint violations of x beyond tol (empty list = feasible).

    Row i's residual is divided by 1 + |b_i| + sum_j |a_ij x_j|, the size of
    its terms, and a bound's on x_j by 1 + |x_j|, so the tolerance means the
    same at every magnitude the data takes.  A NaN residual is a violation.
    """
    x = np.asarray(x, dtype=float)
    ub, eq = ((a @ x - b) / (1.0 + np.abs(b) + np.abs(a) @ np.abs(x))
              for a, b in ((lp.a_ub, lp.b_ub), (lp.a_eq, lp.b_eq)))
    size = 1.0 + np.abs(x)   # not 1 + |bound|: an infinite bound's residual would be NaN
    residuals = [("ub", ub), ("eq", np.abs(eq)),
                 ("lower", (lp.lower - x) / size), ("upper", (x - lp.upper) / size)]
    return [ConstraintViolation(kind, int(i), float(res[i]))
            for kind, res in residuals for i in np.flatnonzero(~(res <= tol))]


# --- standard form over y = x - lower, 0 <= y <= upper - lower ---------------


def _cost(lp: LinearProgram) -> np.ndarray:
    """The cost of every y column the simplex prices with: f, lifted by a power
    of two when its largest entry is below 0.5, then 0 for each slack."""
    top = np.abs(lp.f).max(initial=0.0)
    f = np.ldexp(lp.f, -np.frexp(top)[1]) if 0.0 < top < 0.5 else lp.f
    return np.concatenate([f, np.zeros(lp.a_ub.shape[0])])


def _system(lp: LinearProgram, at: np.ndarray) -> np.ndarray:
    """The one system every solve builds: rows [A | b - A_x at] of [A_eq, 0; A_ub, I]
    over the columns x - at and one slack per `a_ub` row, unscaled, then a zero cost row."""
    n, m_eq, m_ub = lp.n_vars, lp.a_eq.shape[0], lp.a_ub.shape[0]
    tab = np.zeros((m_eq + m_ub + 1, n + m_ub + 1))
    rows = tab[:-1]
    rows[:m_eq, :n] = lp.a_eq
    rows[:m_eq, -1] = lp.b_eq - lp.a_eq @ at
    rows[m_eq:, :n] = lp.a_ub
    rows[m_eq:, -1] = lp.b_ub - lp.a_ub @ at
    rows[m_eq:, n:-1] = np.eye(m_ub)
    return tab


def _column_upper(lp: LinearProgram) -> np.ndarray:
    """Upper bound of every y column: each variable's width, then each slack's."""
    return np.concatenate([np.maximum(lp.upper - lp.lower, 0.0), np.full(lp.a_ub.shape[0], np.inf)])


# --- tableau simplex ----------------------------------------------------------
#
# Bounded columns follow Dantzig's upper-bounding technique: every nonbasic
# column sits at zero, and a column that reaches its upper bound u is
# complemented, y' = u - y, so it sits at zero again.  `flipped` records which
# columns are currently complemented.


def _outside(rhs: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """How far each basic value lies outside its box [0, upper]; <= 0 inside it."""
    return np.maximum(-rhs, rhs - upper)


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[:, col].copy()
    piv[row] = 0.0
    rows = piv.nonzero()[0]   # a zero entry leaves its row unchanged
    tab[rows] -= piv[rows, None] * tab[row]
    basis[row] = col


def _complement(tab: np.ndarray, flipped: np.ndarray, cols: int | np.ndarray,
                upper: np.ndarray) -> None:
    """Substitute y = upper - y' for a nonbasic column, or an array of them,
    cost row included; `upper` holds every column's bound."""
    column = tab[:, cols]
    tab[:, -1] -= np.dot(column, upper[cols])
    tab[:, cols] = -column
    flipped[cols] = ~flipped[cols]


def _simplex_iterate(tab: np.ndarray, basis: np.ndarray, upper: np.ndarray,
                     flipped: np.ndarray) -> tuple[str, int]:
    """Run pivots until optimal or unbounded.  Last tableau row is the cost row.

    Dantzig's rule is used at first for speed; after a pivot budget sized from
    the tableau's width it switches permanently to Bland's rule, which cannot
    cycle.  `upper` has an entry for each column and then one for each row's
    artificial, which has a basis index but no column, so it cannot re-enter
    and is never complemented.  The ratio test stops the step where a basic
    column reaches zero or its upper bound, or the entering column reaches its
    own; a bound flip counts as a pivot.
    """
    m, n_real = tab.shape[0] - 1, tab.shape[1] - 1
    dantzig_limit = 3 * tab.shape[1] + 100
    max_pivots = 100 * (m + tab.shape[1]) + 100_000
    pivots = 0
    cost, rhs = tab[-1, :-1], tab[:m, -1]   # views: pivots update them in place
    ub_basic = upper[basis]                 # upper bound of each row's basic column
    ratios = np.empty(m)
    while True:
        # Dantzig: most negative reduced cost; Bland: smallest eligible index
        col = int(cost.argmin() if pivots < dantzig_limit else (cost < -PIVOT_TOL).argmax())
        if cost[col] >= -PIVOT_TOL:
            return "optimal", pivots
        column = tab[:m, col]
        down = column > PIVOT_TOL     # basic column falls to zero
        up = column < -PIVOT_TOL      # basic column rises to its upper bound
        ratios.fill(np.inf)
        np.divide(np.where(up, ub_basic - rhs, rhs), np.abs(column), out=ratios, where=down | up)
        best = ratios.min(initial=np.inf)
        if upper[col] <= best:
            if np.isinf(upper[col]):
                return "unbounded", pivots
            _complement(tab, flipped, col, upper)
        else:
            ties = (ratios <= best + PIVOT_TOL).nonzero()[0]
            row = int(ties[basis[ties].argmin()])   # smallest basis index on ties
            leaving, at_upper = int(basis[row]), column[row] < 0.0
            _pivot(tab, basis, row, col)
            ub_basic[row] = upper[col]
            if at_upper and leaving < n_real:
                _complement(tab, flipped, leaving, upper)
        pivots += 1
        if pivots > max_pivots:
            raise LpCycleError(f"pivot guard exceeded after {pivots} pivots")


def _block_pivot(tab: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Pivot each of `rows` onto its entry of `cols`, BLOCK_ROWS rows at a time,
    updating only the rows with a nonzero entry in those columns.  False, with
    the tableau half pivoted, unless in each chunk's pivot block every pivot
    is above PIVOT_TOL and every other entry is zero, except that a row may
    carry minus its pivot in the row before's column: a chain of such rows
    is unit lower bidiagonal once divided by its pivots, and is inverted by a
    cumulative sum down the chain."""
    for lo in range(0, rows.size, BLOCK_ROWS):
        r, c = rows[lo:lo + BLOCK_ROWS], cols[lo:lo + BLOCK_ROWS]
        column = tab[:, c]
        block = column[r]
        piv, sub = block.diagonal(), block.diagonal(-1)
        chained = sub != 0.0
        if (np.count_nonzero(block) != r.size + np.count_nonzero(chained)
                or not (np.abs(piv) > PIVOT_TOL).all()
                or (sub[chained] != -piv[1:][chained]).any()):
            return False
        pivot_rows = tab[r] / piv[:, None]
        for k in chained.nonzero()[0].tolist():   # the chains' cumulative sums
            pivot_rows[k + 1] += pivot_rows[k]
        tab[r] = pivot_rows
        column[r] = 0.0
        hit = column.any(axis=1).nonzero()[0]
        tab[hit] -= column[hit] @ pivot_rows
    return True


def _enter_start(st: LpTableau, start: LpStart) -> bool:
    """Pivot the state onto the start's basis; False unless every pivot block
    has the form `_block_pivot` takes and every basic value lies in its box."""
    m = st.tab.shape[0] - 1
    if not np.array_equal(np.sort(np.concatenate([r for r, _ in start.blocks])), np.arange(m)):
        raise ValueError("a start must give every row exactly one basic column")
    _complement(st.tab, st.flipped, start.at_upper, st.upper)
    st.basis = np.empty(m, dtype=int)
    for rows, cols in start.blocks:
        if not _block_pivot(st.tab, rows, cols):
            return False
        st.basis[rows] = cols
    return bool((_outside(st.tab[:m, -1], st.upper[st.basis]) <= FEAS_TOL).all())


def _phase1(st: LpTableau) -> int:
    """Minimise the sum of one artificial per row, which has a basis index but
    no column, from a fresh state; return the pivot count.  The state gets the
    basis phase 1 ends on, None when the LP is infeasible; a basic artificial
    there sits at zero, and phase 2 keeps it there.  Rows are equilibrated
    first, and negated where the right-hand side is negative."""
    tab = st.tab
    m, n_real = tab.shape[0] - 1, tab.shape[1] - 1
    rows = tab[:m]
    rows /= np.maximum(1.0, np.abs(rows[:, :-1]).max(axis=1, initial=0.0))[:, None]
    rows[rows[:, -1] < 0] *= -1.0
    basis = n_real + np.arange(m)
    tab[-1] -= rows.sum(axis=0)
    status, pivots = _simplex_iterate(tab, basis, np.concatenate([st.upper, np.full(m, np.inf)]),
                                      st.flipped)
    if status != "optimal":
        raise LpError("phase 1 cannot be unbounded")   # cost bounded below by 0
    st.basis = None if -tab[-1, -1] > FEAS_TOL else basis
    return pivots


def _dual_iterate(st: LpTableau) -> int | None:
    """Bounded dual simplex from a dual feasible state.  Returns the pivot
    count once every basic value lies in its box, or None when a row cannot
    be repaired or the pivot budget runs out.

    The leaving row has the largest box violation; the entering column has the
    least d_j / |alpha_rj| among those that move the basic value toward its box,
    the smallest index on ties.  A basic column that leaves above its box is
    complemented, so it sits at zero again.
    """
    tab, basis, upper, flipped = st.tab, st.basis, st.upper, st.flipped
    m = tab.shape[0] - 1
    if not m:
        return 0
    cost, rhs = tab[-1, :-1], tab[:m, -1]
    ub_basic = upper[basis]
    ratios = np.empty(tab.shape[1] - 1)
    for pivots in range(3 * tab.shape[1] + 100):
        violation = _outside(rhs, ub_basic)
        row = int(violation.argmax())
        if violation[row] <= FEAS_TOL:
            return pivots
        above = rhs[row] > 0.0
        alpha = tab[row, :-1] if above else -tab[row, :-1]   # > 0: moves toward the box
        eligible = alpha > PIVOT_TOL
        eligible[basis[row]] = False   # the row's own basic column
        ratios.fill(np.inf)
        np.divide(np.maximum(cost, 0.0), alpha, out=ratios, where=eligible)
        col = int(ratios.argmin())
        if not eligible[col]:
            return None
        leaving = int(basis[row])
        _pivot(tab, basis, row, col)
        ub_basic[row] = upper[col]
        if above:
            _complement(tab, flipped, leaving, upper)
    return None


def _point(st: LpTableau) -> np.ndarray:
    """The x of the state's basic solution; a basic artificial carries no variable."""
    n_real = st.flipped.size
    y = np.zeros(n_real + st.basis.size)
    y[st.basis] = st.tab[:-1, -1]
    y = np.where(st.flipped, st.upper - y[:n_real], y[:n_real])
    return st.lp.lower + y[:st.lp.n_vars]


def _finish(st: LpTableau, phase1: int, pivots: int) -> LpSolution:
    """Every solve ends here, from a primal feasible basis and its priced cost
    row: phase 2, with a basic artificial boxed at [0, 0], then the point,
    which must pass `check_feasible`.  An optimal solution keeps the state."""
    upper = np.concatenate([st.upper, np.zeros(st.basis.size)])
    status, more = _simplex_iterate(st.tab, st.basis, upper, st.flipped)
    if status == "unbounded":
        return LpSolution(status, None, None, phase1, pivots + more)
    x = _point(st)
    bad = check_feasible(st.lp, x)
    if bad:
        raise LpError("optimal vertex fails feasibility check: " + "; ".join(map(str, bad)))
    return LpSolution("optimal", x, float(st.lp.f @ x), phase1, pivots + more, st)


def _solve_warm(lp: LinearProgram, warm: LpSolution) -> LpSolution | None:
    """Re-optimise a copy of `warm`'s final state for lp's right-hand side and bounds;
    None when the solve must start cold instead."""
    src = warm.tableau
    if src is None or not all(np.array_equal(getattr(lp, name), getattr(src.lp, name))
                              for name in ("f", "a_eq", "a_ub")):
        raise ValueError("a warm source must be a simplex optimum of an LP "
                         "with the same a_eq, a_ub and f")
    basis, flipped, upper = src.basis, src.flipped, _column_upper(lp)
    if (basis >= upper.size).any() or np.isinf(upper[flipped]).any():
        return None   # an artificial is basic, or a complemented column lost its bound

    # basic values: the basic columns of the system with every complemented
    # column at its upper bound, complemented ones negated
    sign = np.where(flipped, -1.0, 1.0)
    fixed = np.where(flipped, upper, 0.0)
    system = _system(lp, lp.lower + fixed[:lp.n_vars])
    rhs = np.linalg.solve(system[:-1, basis] * sign[basis], system[:-1, -1])
    st = LpTableau(lp, src.tab.copy(), upper, flipped.copy(), basis.copy())
    st.tab[:-1, -1] = rhs
    cost = _cost(lp)
    st.tab[-1, -1] = -(cost @ fixed + (sign * cost)[basis] @ rhs)
    dual = _dual_iterate(st)
    if dual is None:
        return None
    try:   # the primal loop prices every column as a cold solve would; it rarely pivots
        sol = _finish(st, 0, dual)
    except LpError:
        return None
    return sol if sol.status == "optimal" else None


def solve_lp(lp: LinearProgram, start: LpStart | None = None,
             warm: LpSolution | None = None) -> LpSolution:
    """Two-phase simplex.  Returns status 'optimal', 'infeasible' or 'unbounded'.

    A `warm` solution of an LP with the same `a_eq`, `a_ub` and `f` is
    re-optimised by the dual simplex, and one of any other LP raises
    ValueError.  Phase 1 is skipped from a `start` whose basis is primal
    feasible; a warm solve that does not end optimal, and any other start,
    falls back to a solve without them.  On 'optimal' the returned point
    satisfies every constraint within FEAS_TOL, relative as `check_feasible`
    measures it, and keeps the final `LpTableau`; anything worse raises LpError.
    """
    if np.any(lp.lower > lp.upper + FEAS_TOL):
        return LpSolution("infeasible", None, None)
    if warm is not None:
        sol = _solve_warm(lp, warm)
        if sol is not None:
            return sol
    st, phase1 = LpTableau.of(lp), 0
    if start is None or not _enter_start(st, start):
        if start is not None:   # never phase 1 on a half-pivoted tableau
            st = LpTableau.of(lp)
        phase1 = _phase1(st)
        if st.basis is None:
            return LpSolution("infeasible", None, None, phase1)
    # phase 2 prices f, with complemented columns entering at their upper bound
    f, flipped, tab = _cost(lp), st.flipped, st.tab
    cost = np.concatenate([np.where(flipped, -f, f), np.zeros(st.basis.size)])
    tab[-1, :f.size] = cost[:f.size]
    tab[-1, -1] = -f[flipped] @ st.upper[flipped]
    tab[-1] -= cost[st.basis] @ tab[:-1]
    return _finish(st, phase1, 0)
