"""Dense linear programming for desk-scale problems.

Variables are free reals; constraints are linear inequalities (<=) and
equalities.  Every LP here is tall and thin, with far more constraints than
variables, so ``lp_solve`` solves the dual (a row per variable, a column per
constraint) by two-phase revised simplex, keeping only the basis inverse and
the basic values, which a seeded lift moves off every degenerate stall.  The
start basis takes the unit columns that the problem's bound rows (x_j <= u,
x_j >= l, x_j = v) supply to the dual, and an artificial only for a dual row
without one.  Phase 1 is skipped when every row has one, and also when every
artificial starts at zero (c_j = 0 on its row): those are driven out of the
start basis at once.  An equality a x = b enters as the pair of inequalities
a x <= b and -a x <= -b, so everything below ``lp_solve`` works on the
single form a x <= b.  The primal solution is the
final dual basis's simplex multipliers.  Before a status is returned its
certificate is checked: primal and dual feasibility and the duality gap for
"optimal", a Farkas ray for "infeasible", a feasible point and an improving
ray for "unbounded".  A failed check raises ArithmeticError.  Exact vertex
optima at the problem sizes used here (up to about ten thousand constraints).

An LP with many more rows than bind can be solved by delayed constraint
generation (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
section 6.3): ``lp_solve`` takes the rows to start from and a separation
callback that names violated rows of the full LP.  A primal row added later
is one new dual column, so the dual basis and its inverse stay valid and
phase 2 resumes where it stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_FEAS_TOL = 1e-8
_CERT_TOL = 1e-6
# pivots between rebuilds of the basis inverse from the original columns
_REINVERT = 50
# relative size of the lift that breaks a degenerate stall
_LIFT = 1e-7


@dataclass
class LPProblem:
    """min objective . x over free x subject to a_ub x <= b_ub, a_eq x = b_eq."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if self.a_ub.shape[0] != self.b_ub.size or self.a_eq.shape[0] != self.b_eq.size:
            raise ValueError("constraint matrix/vector shape mismatch")


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    # with "optimal": multipliers y of the rows of a_ub, then a_eq, then those a
    # separation added, y >= 0 on inequalities, with a^T y = -c and c.x = -b.y
    dual: np.ndarray | None = None
    pivots: tuple[int, int] = (0, 0)  # in phase 1 (artificials driven out too), phase 2
    reinversions: int = 0  # rebuilds of the basis inverse
    lifts: int = 0  # every lift of the basic values, one per degenerate stall
    restarts: int = 0  # runs resumed from the pre-lift basis; every count repeats exactly


@dataclass
class LPBuilder:
    """Incremental construction of an LPProblem over named free variables.

    No library path builds through it; it is kept for the tests, which use
    it as the row-by-row oracle, and for the benchmark tracer."""

    _names: dict[str, int] = field(default_factory=dict)
    _obj: dict[int, float] = field(default_factory=dict)
    _ub_rows: list[tuple[dict[int, float], float]] = field(default_factory=list)
    _eq_rows: list[tuple[dict[int, float], float]] = field(default_factory=list)

    def var(self, name: str) -> int:
        if name not in self._names:
            self._names[name] = len(self._names)
        return self._names[name]

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def add_le(self, coeffs: dict[int, float], rhs: float) -> None:
        self._ub_rows.append((dict(coeffs), float(rhs)))

    def add_ge(self, coeffs: dict[int, float], rhs: float) -> None:
        self._ub_rows.append(({j: -c for j, c in coeffs.items()}, -float(rhs)))

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> None:
        self._eq_rows.append((dict(coeffs), float(rhs)))

    def minimize(self, coeffs: dict[int, float]) -> None:
        self._obj = dict(coeffs)

    def build(self) -> LPProblem:
        n = self.num_vars
        c = np.zeros(n)
        for j, v in self._obj.items():
            c[j] = v

        def pack(rows):
            a = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for i, (coeffs, rhs) in enumerate(rows):
                for j, v in coeffs.items():
                    a[i, j] = v
                b[i] = rhs
            return a, b

        a_ub, b_ub = pack(self._ub_rows)
        a_eq, b_eq = pack(self._eq_rows)
        return LPProblem(objective=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


Separation = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def lp_solve(problem: LPProblem, separate: Separation | None = None) -> LPSolution:
    """Solve the problem through its dual and check the answer's certificate.

    With ``separate``, the problem's rows start a larger LP: after each
    optimum x, ``separate(x)`` returns rows (a, b) of a x <= b that x
    violates, and phase 2 resumes with them; the solve ends when it returns
    none.  Then the certificate holds on every row taken, and an
    "infeasible" status holds for the larger LP too.  The start rows must
    bound the objective (ValueError otherwise): an unbounded start would say
    nothing about the larger LP.  With "optimal", ``dual`` holds the
    multipliers of the problem's rows, then of the added rows.

    Raises ArithmeticError when an entry of the problem (or of an added row)
    is not finite (an overflowed coefficient, say), which no certificate
    could vouch for."""
    c = problem.objective
    n, m_ub, m_eq = c.size, problem.b_ub.size, problem.b_eq.size
    m = m_ub + m_eq
    # the single form a x <= b: the equalities enter again, negated.  The
    # dual's columns are its rows, written straight into place, then room
    # for the artificials and the right-hand side, which _solve_dual fills in
    b = np.concatenate([problem.b_ub, problem.b_eq, problem.b_eq])
    original = np.empty((n, b.size + n + 1))
    core = original[:, :m]
    core[:, :m_ub], core[:, m_ub:] = problem.a_ub.T, problem.a_eq.T
    # row equilibration: scale every constraint to unit max-norm so pivot
    # tolerances are meaningful across badly mixed data scales
    norms = _norms(b[:m], core.T)
    if not np.isfinite(c).all():
        raise ArithmeticError("LP data has a non-finite entry")
    if m == 0:
        # objective over free variables with no constraints
        if separate is not None:
            raise ValueError("a separation needs start rows that bound the objective")
        if np.any(c != 0.0):
            return LPSolution(status="unbounded")
        return LPSolution(status="optimal", x=np.zeros(n), objective=0.0)
    b[:m] /= norms
    np.negative(b[m_ub:m], out=b[m:])
    core /= norms
    np.negative(core[:, m_ub:], out=original[:, m : b.size])
    scales = [norms, norms[m_ub:]]  # of every row of the single form

    def columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows ``separate`` adds at x, as dual columns and costs."""
        a_new, b_new = separate(x)
        a_new, b_new = np.asarray(a_new, dtype=float).reshape(-1, n), np.asarray(b_new, dtype=float)
        scales.append(_norms(b_new, a_new))
        return a_new.T / scales[-1], b_new / scales[-1]

    work = [0] * 5  # phase-1 pivots, phase-2 pivots, rebuilds, lifts, restarts
    solution = _solve_dual(c, original, b, work, columns if separate else None)
    if separate is not None and solution.status == "unbounded":
        raise ValueError("a separation needs start rows that bound the objective")
    solution.pivots = (work[0], work[1])
    solution.reinversions, solution.lifts, solution.restarts = work[2:]
    if solution.dual is not None:
        w = solution.dual / np.concatenate(scales)
        w[m_ub:m] -= w[m : m + m_eq]
        solution.dual = np.concatenate([w[:m], w[m + m_eq :]])
    return solution


def _norms(b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The max-norm of each row, 1 for a zero row.  Raises ArithmeticError
    if a row or b has an entry that is not finite: exactly then is a norm,
    or b, NaN or infinite."""
    norms = np.abs(rows).max(axis=1, initial=0.0)
    if not (np.isfinite(norms).all() and np.isfinite(b).all()):
        raise ArithmeticError("LP data has a non-finite entry")
    norms[norms == 0.0] = 1.0
    return norms


def _solve_dual(
    c: np.ndarray,
    original: np.ndarray,
    b: np.ndarray,
    work: list[int],
    columns: Separation | None = None,
) -> LPSolution:
    """min c.x over free x subject to a x <= b, a = original[:, :b.size].T,
    solved as its dual: min b.w subject to a^T w = -c, w >= 0.

    The dual has a row per variable of x and a column per dual variable of
    ``original``: one per row of a, then one artificial per row of the
    dual, then the right-hand side -c.
    Row j's artificial is sign_j e_j, sign_j = -1 where c_j > 0, so that it
    starts the basis at |c_j| >= 0.  A constraint column equal to sign_j e_j,
    which a bound on x_j such as x_j >= l (c_j > 0) or x_j <= u (c_j <= 0)
    supplies, starts in row j's place instead (the first one, where several
    do): B stays diag(sign) and the basic values stay |c|.  Phase 1 prices
    out only the artificials still basic, is skipped when none is, and only
    drives them out when all start at zero.  The re-solve without objective
    reuses ``original`` and adds to ``work``.

    ``columns(x)``, if given, returns the dual columns and costs of rows
    that an optimum x violates.  Phase 2 holds no artificial, so they go in
    before the artificials and the basis and B^-1 stay as they are; only
    where phase 1 dropped a redundant row does the solve start again, with
    every column taken so far.
    """
    n, n_core = c.size, b.size
    a = original[:, :n_core].T  # the certificate checks read the full rows
    sign = np.where(c > 0, -1.0, 1.0)
    rows = np.arange(n)  # the variables of x whose rows are kept
    original[:, n_core:-1] = 0.0
    original[rows, n_core + rows] = sign
    original[:, -1] = -c
    # in each row j, the first column whose one nonzero is sign_j there
    core = original[:, :n_core]
    fits = (core == sign[:, None]) & ((core != 0.0).sum(axis=0) == 1)
    basis = np.where(fits.any(axis=1), fits.argmax(axis=1), n_core + rows)
    inverse = np.zeros((n, n + 1))
    inverse[rows, rows] = sign
    inverse[:, -1] = np.abs(c)

    artificial = basis >= n_core
    if artificial.any():
        if not c[artificial].any():
            # the artificials start at zero: phase 1 is optimal at once, and
            # the basic values |c| are cleaned as _reinvert would
            inverse[inverse[:, -1] < 1e-13, -1] = 0.0
        else:
            # phase 1 ends as soon as the artificials sum to zero within
            # tolerance, its lower bound: further pivots there are degenerate
            phase1_cost = np.zeros(n_core + n)
            phase1_cost[n_core:] = 1.0
            floor = _FEAS_TOL * max(1.0, _amax(c))
            if _simplex(inverse, basis, phase1_cost, n_core + n, original, work, 0, floor)[0] != "optimal":
                raise ArithmeticError("phase-1 simplex failed to terminate")
            if float(phase1_cost[basis] @ inverse[:, -1]) > floor:
                # no dual feasible point: the primal is unbounded or
                # infeasible.  The phase-1 multipliers are a ray d with
                # a d <= 0 along which c.x falls; the same LP without
                # objective tells whether the primal is feasible
                ray = phase1_cost[basis] @ inverse[:, :-1]
                if _solve_dual(np.zeros(n), original, b, work).status == "infeasible":
                    return LPSolution(status="infeasible")
                _check_primal_ray(c, a, ray)
                return LPSolution(status="unbounded")
        # a basis row whose artificial cannot leave is redundant: drop it and
        # the original row it belongs to, which depends on the others
        # (multiplier 0); B holds that artificial's column sign_j e_j, so
        # B^-1 loses just that row and column
        redundant = _drive_out_artificials(inverse, basis, original, n_core, work)
        if redundant:
            dependent = basis[redundant] - n_core
            # np.delete leaves B^-1 C-ordered after one column and F-ordered
            # after more; products with it round by that order, so it stays
            inverse = np.delete(np.delete(inverse, redundant, axis=0), dependent, axis=1)
            basis = np.delete(basis, redundant)
            kept = np.ones(n, dtype=bool)
            kept[dependent] = False
            original, rows = original[kept], rows[kept]

    while True:
        cost = np.zeros(n_core + n)
        cost[:n_core] = b
        status, entering = _simplex(inverse, basis, cost, n_core, original, work, 1)
        if status == "unbounded":
            # b.w falls without bound along the entering column's ray, which is
            # a Farkas certificate that the primal has no feasible point
            ray = np.zeros(n_core + n)
            ray[entering] = 1.0
            ray[basis] = -(inverse[:, :-1] @ original[:, entering])
            _check_farkas_ray(a, b, ray[:n_core])
            return LPSolution(status="infeasible")
        x = np.zeros(n)  # a variable whose row was dropped gets multiplier 0
        x[rows] = cost[basis] @ inverse[:, :-1]
        added, b_added = columns(x) if columns else (None, ())
        if not len(b_added):
            break
        b = np.append(b, b_added)
        if rows.size < n:
            # B^-1 is of the reduced dual, which the new rows need not fit
            return _solve_dual(c, np.hstack([a.T, added, np.empty((n, n + 1))]), b, work, columns)
        original = np.hstack([original[:, :n_core], added, original[:, n_core:]])
        n_core = b.size
        a = original[:, :n_core].T

    w = np.zeros(n_core)
    w[basis] = inverse[:, -1]
    _check_optimal(c, a, b, x, w)
    return LPSolution(status="optimal", x=x, objective=float(c @ x), dual=w)


def _amax(v: np.ndarray) -> float:
    return float(np.abs(v).max(initial=0.0))


def _excess(resid: np.ndarray) -> float:
    """How far resid <= 0 is violated; NaN when an entry is NaN."""
    return float(resid.max(initial=0.0))


def _check_optimal(c, a, b, x, w) -> None:
    """x primal feasible, w dual feasible and c.x = -b.w, each within _CERT_TOL
    of the size of its terms (rows of a are at most 1; the gap's size is the
    finite larger of |c|.|x| and |b|.|w|).  Every test is written so that NaN fails it."""
    abs_c, abs_x, abs_w = np.abs(c), np.abs(x), np.abs(w)
    if not _excess(a @ x - b) <= _CERT_TOL * max(1.0, float(abs_x.max(initial=0.0))):
        raise ArithmeticError("simplex lost primal feasibility")
    tol = _CERT_TOL * max(1.0, float(abs_w.max(initial=0.0)), float(abs_c.max(initial=0.0)))
    if not (float(w.min(initial=0.0)) >= -tol and _amax(a.T @ w + c) <= tol):
        raise ArithmeticError("simplex lost dual feasibility")
    size = max(float(abs_c @ abs_x), float(np.abs(b) @ abs_w))
    if not abs(float(c @ x) + float(b @ w)) <= _CERT_TOL * max(1.0, size) < math.inf:
        raise ArithmeticError("simplex left a duality gap")


def _unit(ray: np.ndarray) -> np.ndarray:
    size = _amax(ray)
    if not size > 0.0:
        raise ArithmeticError("simplex produced a zero certificate ray")
    return ray / size


def _check_farkas_ray(a, b, w) -> None:
    """w >= 0, a^T w = 0 and b.w < 0: no x has a x <= b."""
    w = _unit(w)
    if not (float(np.min(w, initial=0.0)) >= -_CERT_TOL and _amax(a.T @ w) <= _CERT_TOL):
        raise ArithmeticError("infeasibility certificate is not a Farkas ray")
    if not float(b @ w) < 0.0:
        raise ArithmeticError("infeasibility certificate does not separate")


def _check_primal_ray(c, a, d) -> None:
    """a d <= 0 and c.d < 0: from any feasible point, c.x falls without
    bound along d."""
    d = _unit(d)
    if not _excess(a @ d) <= _CERT_TOL:
        raise ArithmeticError("unboundedness certificate is not a primal ray")
    if not float(c @ d) < 0.0:
        raise ArithmeticError("unboundedness certificate does not improve the objective")


def _simplex(
    inverse: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    limit: int,
    original: np.ndarray,
    work: list[int],
    phase: int,
    floor: float = -math.inf,
) -> tuple[str, int]:
    """Run revised primal simplex to optimality from a feasible basis.

    ``inverse`` = [B^-1 | basic values], B the basic columns of ``original``,
    is updated in place.  Columns < ``limit`` are priced as cost - (cost_B
    B^-1) original (phase 2 keeps the artificials out).  The entering
    column is the most negative reduced cost below -_COST_TOL times
    max(1, |cost_B B^-1|), the size of the multipliers at the last rebuild,
    and ratio-test ties are broken on the largest pivot (numerical
    stability).  A pivot entry must exceed _PIVOT_TOL and 1e-9 of its
    column's largest entry.  An objective at or below ``floor``, a known
    lower bound, counts as optimal.

    Whenever the objective stalls for over 40 degenerate pivots, every
    basic value is lifted by a random 1 to 2 times _LIFT of the largest one
    (one generator seeded 0, so runs repeat), which breaks the ratio-test
    ties behind the stall.  The lifts are undone together before a status
    is returned, from the right-hand side saved at the first; if the basis
    reached is infeasible without them, the run resumes from the basis the
    first started at.

    Every _REINVERT pivots, and before a status is returned, ``inverse`` is
    rebuilt from ``original`` and the basis, so that rounding does not
    accumulate; a status counts only when read off a fresh rebuild.  Returns
    the status and the entering column (the unbounded one when the status is
    "unbounded").  ``work`` counts the pivots of ``phase``, the rebuilds, the
    lifts and the restarts from the pre-lift basis.
    """
    binv, rhs = inverse[:, :-1], inverse[:, -1]  # views, kept current in place
    priced, priced_cost = original[:, :limit], cost[:limit]
    basic_cost = cost[basis]  # kept equal to cost[basis]
    max_iter = 20000 + 200 * (basis.size + original.shape[1] - 1)
    stall = 0
    last_obj = math.inf
    fresh, since = False, 0
    exact = start = rng = None  # the right-hand side and the basis before the first lift; its generator
    for _ in range(max_iter):
        if stall > 40:
            if exact is None:
                exact, start, rng = original[:, -1].copy(), basis.copy(), rng or np.random.default_rng(0)
            size = _LIFT * max(1.0, _amax(rhs))
            lift = rng.uniform(size, 2.0 * size, basis.size)
            original[:, -1] += original[:, basis] @ lift
            rhs += lift
            stall, work[3] = 0, work[3] + 1
        y = basic_cost @ binv
        if since == 0:  # at the start and after each rebuild
            tol = _COST_TOL * max(1.0, _amax(y))
        reduced = priced_cost - y @ priced
        reduced[basis] = 0.0  # every basic column is priced: phase 2 holds no artificial
        entering = int(reduced.argmin())
        status = ""
        if not reduced[entering] < -tol or (floor > -math.inf and float(basic_cost @ rhs) <= floor):
            status = "optimal"
        else:
            col = binv @ original[:, entering]
            rows = (col > max(_PIVOT_TOL, 1e-9 * _amax(col))).nonzero()[0]
            if not rows.size:
                status = "unbounded"
        if status and fresh:
            if exact is None:
                return status, entering
            original[:, -1], exact = exact, None
            _reinvert(inverse, basis, original, work)
            if float(rhs.min(initial=0.0)) < -1e-9 * max(1.0, _amax(rhs)):
                # the basis reached is infeasible without the lift
                basis[:] = start
                basic_cost = cost[basis]
                _reinvert(inverse, basis, original, work)
                work[4] += 1
            since = 0
            continue
        if status or since == _REINVERT:
            _reinvert(inverse, basis, original, work)
            fresh, since = True, 0
            continue
        ratios = np.maximum(rhs[rows], 0.0) / col[rows]
        best_ratio = float(ratios.min())
        tied = rows[ratios <= best_ratio + 1e-9 * max(1.0, best_ratio)]
        leaving = int(tied[col[tied].argmax()])  # the first tied row with the largest pivot
        _pivot(inverse, basis, leaving, entering, col)
        basic_cost[leaving] = cost[entering]
        fresh, since, work[phase] = False, since + 1, work[phase] + 1
        obj = float(basic_cost @ rhs)
        if obj < last_obj - 1e-12 * (1.0 + abs(obj)):
            stall = 0
        else:
            stall += 1
        last_obj = obj
    raise ArithmeticError("simplex iteration limit exceeded")


def _reinvert(inverse: np.ndarray, basis: np.ndarray, original: np.ndarray, work: list[int]) -> None:
    """Rebuild [B^-1 | basic values] from the basic columns B of original."""
    work[2] += 1
    try:
        inverse[:, :-1] = np.linalg.inv(original[:, basis])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("simplex basis became singular") from exc
    inverse[:, -1] = inverse[:, :-1] @ original[:, -1]
    rhs = inverse[:, -1]
    rhs[np.abs(rhs) < 1e-13] = 0.0


def _pivot(inverse: np.ndarray, basis: np.ndarray, row: int, col: int, column: np.ndarray) -> None:
    # one rank-1 update of [B^-1 | basic values]; column = B^-1 original[:, col]
    inverse[row] /= column[row]
    factor = column.copy()
    factor[row] = 0.0
    inverse -= factor[:, None] * inverse[row]
    basis[row] = col
    rhs = inverse[:, -1]
    rhs[np.abs(rhs) < 1e-13] = 0.0


def _drive_out_artificials(
    inverse: np.ndarray, basis: np.ndarray, original: np.ndarray, n_core: int, work: list[int]
) -> list[int]:
    """Pivot degenerate artificials out of the basis; returns the basis rows
    where none can leave, whose entries of B^-1 original are noise (every
    constraint column has unit max-norm): those rows are redundant."""
    binv, core = inverse[:, :-1], original[:, :n_core]
    redundant = []
    for i in np.flatnonzero(basis >= n_core):
        row = binv[i] @ core
        j = int(np.abs(row).argmax())
        if abs(row[j]) > _PIVOT_TOL:
            _pivot(inverse, basis, i, j, binv @ core[:, j])
            work[0] += 1
        else:
            redundant.append(int(i))
    return redundant
