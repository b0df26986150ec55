"""Dense linear programming for desk-scale problems.

Variables are free reals; constraints are linear inequalities (<=) and
equalities.  Every LP here is tall and thin, with far more constraints than
variables, so ``lp_solve`` solves the dual: its dense tableau has a row per
variable and a column per constraint, and two-phase simplex with Bland's
anti-cycling rule runs on it.  The primal solution is read off the final
dual basis as its simplex multipliers.  Before a status is returned its
certificate is checked: primal and dual feasibility and the duality gap for
"optimal", a Farkas ray for "infeasible", a feasible point and an improving
ray for "unbounded".  A failed check raises ArithmeticError.  Exact vertex
optima at the problem sizes used here (up to about ten thousand constraints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_FEAS_TOL = 1e-8
_CERT_TOL = 1e-6
# pivots between rebuilds of the tableau from the original columns
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


def lp_solve(problem: LPProblem) -> LPSolution:
    """Solve the problem through its dual and check the answer's certificate.

    Raises ArithmeticError when an entry of the problem is not finite (an
    overflowed coefficient, say), which no certificate could vouch for."""
    c = problem.objective
    a = np.vstack([problem.a_ub, problem.a_eq])
    b = np.concatenate([problem.b_ub, problem.b_eq])
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ArithmeticError("LP data has a non-finite entry")
    m_ub = problem.a_ub.shape[0]
    if b.size == 0:
        # objective over free variables with no constraints
        if np.any(c != 0.0):
            return LPSolution(status="unbounded")
        return LPSolution(status="optimal", x=np.zeros(c.size), objective=0.0)

    # row equilibration: scale every constraint to unit max-norm so pivot
    # tolerances are meaningful across badly mixed data scales
    norms = np.max(np.abs(a), axis=1)
    keep = norms > 0
    a[keep] /= norms[keep, None]
    b[keep] /= norms[keep]
    return _solve_dual(c, a, b, m_ub)


def _solve_dual(c: np.ndarray, a: np.ndarray, b: np.ndarray, m_ub: int) -> LPSolution:
    """min c.x over free x subject to a[:m_ub] x <= b[:m_ub] and
    a[m_ub:] x = b[m_ub:], solved as its dual: min b.w subject to
    a^T w = -c with w[:m_ub] >= 0.

    The dual tableau has a row per variable of x and a column per dual
    variable: w on the inequalities, w+ and w- (w = w+ - w-) on the
    equalities, then one artificial per row.
    """
    n, m = c.size, b.size
    n_core = 2 * m - m_ub
    # rows with right-hand side -c_j < 0 are negated, so the artificials
    # start the basis at |c_j|
    sign = np.where(c > 0, -1.0, 1.0)
    original = np.zeros((n, n_core + n + 1))
    original[:, :m] = a.T
    np.negative(original[:, m_ub:m], out=original[:, m:n_core])
    original[:, :n_core] *= sign[:, None]
    original[np.arange(n), n_core + np.arange(n)] = 1.0
    original[:, -1] = np.abs(c)
    tableau = original.copy()
    basis = n_core + np.arange(n)
    rows = np.arange(n)  # the variables of x whose rows are kept

    # phase 1 ends as soon as the artificials sum to zero within tolerance,
    # its lower bound: further pivots there are degenerate
    phase1_cost = np.zeros(n_core + n)
    phase1_cost[n_core:] = 1.0
    floor = _FEAS_TOL * max(1.0, _amax(c))
    if _simplex(tableau, basis, phase1_cost, n_core + n, original, floor)[0] != "optimal":
        raise ArithmeticError("phase-1 simplex failed to terminate")
    if float(phase1_cost[basis] @ tableau[:, -1]) > floor:
        # no dual feasible point: the primal is unbounded or infeasible.  The
        # phase-1 multipliers are a ray d with a d <= 0 along which c.x falls;
        # the same LP without objective tells whether the primal is feasible
        ray = sign * _multipliers(tableau, basis, phase1_cost, n_core, rows)
        if _solve_dual(np.zeros(n), a, b, m_ub).status == "infeasible":
            return LPSolution(status="infeasible")
        _check_primal_ray(c, a, m_ub, ray)
        return LPSolution(status="unbounded")
    # a tableau row whose artificial cannot leave the basis is redundant:
    # drop it, and drop the original row that artificial belongs to, which
    # depends on the others (its variable of x gets multiplier 0)
    redundant = _drive_out_artificials(tableau, basis, n_core)
    dependent = basis[redundant] - n_core
    tableau, basis = np.delete(tableau, redundant, axis=0), np.delete(basis, redundant)
    original, rows = np.delete(original, dependent, axis=0), np.delete(rows, dependent)

    cost = np.zeros(n_core + n)
    cost[:m] = b
    cost[m:n_core] = -b[m_ub:]
    status, entering = _simplex(tableau, basis, cost, n_core, original)
    if status == "unbounded":
        # b.w falls without bound along the entering column's ray, which is
        # a Farkas certificate that the primal has no feasible point
        ray = np.zeros(n_core + n)
        ray[entering] = 1.0
        ray[basis] = -tableau[:, entering]
        _check_farkas_ray(a, b, m_ub, _fold(ray, m, m_ub))
        return LPSolution(status="infeasible")

    w = np.zeros(n_core + n)
    w[basis] = tableau[:, -1]
    x = sign * _multipliers(tableau, basis, cost, n_core, rows)
    _check_optimal(c, a, b, m_ub, x, _fold(w, m, m_ub))
    return LPSolution(status="optimal", x=x, objective=float(c @ x))


def _multipliers(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, n_core: int, rows: np.ndarray
) -> np.ndarray:
    """Simplex multipliers cost_B B^-1, one per variable of x; the artificial
    columns hold B^-1.  A row dropped as redundant gets multiplier 0."""
    y = np.zeros(tableau.shape[1] - 1 - n_core)
    y[rows] = cost[basis] @ tableau[:, n_core + rows]
    return y


def _fold(v: np.ndarray, m: int, m_ub: int) -> np.ndarray:
    """Dual variables per constraint from a vector over the tableau columns."""
    w = v[:m].copy()
    w[m_ub:] -= v[m : 2 * m - m_ub]
    return w


def _amax(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _excess(resid: np.ndarray, m_ub: int) -> float:
    """How far resid[:m_ub] <= 0 and resid[m_ub:] = 0 are violated; NaN
    when an entry is NaN."""
    return _amax(np.append(np.maximum(resid[:m_ub], 0.0), resid[m_ub:]))


def _check_optimal(c, a, b, m_ub, x, w) -> None:
    """x primal feasible, w dual feasible and c.x = -b.w, each within
    _CERT_TOL of the magnitude of the terms it is computed from (rows of a
    are at most 1 in size).  Every test is written so that NaN fails it."""
    if not _excess(a @ x - b, m_ub) <= _CERT_TOL * max(1.0, _amax(x)):
        raise ArithmeticError("simplex lost primal feasibility")
    tol = _CERT_TOL * max(1.0, _amax(w), _amax(c))
    if not (float(np.min(w[:m_ub], initial=0.0)) >= -tol and _amax(a.T @ w + c) <= tol):
        raise ArithmeticError("simplex lost dual feasibility")
    size = float(np.abs(c) @ np.abs(x) + np.abs(b) @ np.abs(w))
    if not abs(float(c @ x + b @ w)) <= _CERT_TOL * max(1.0, size):
        raise ArithmeticError("simplex left a duality gap")


def _unit(ray: np.ndarray) -> np.ndarray:
    size = _amax(ray)
    if not size > 0.0:
        raise ArithmeticError("simplex produced a zero certificate ray")
    return ray / size


def _check_farkas_ray(a, b, m_ub, w) -> None:
    """w[:m_ub] >= 0, a^T w = 0 and b.w < 0: no x has a x <= b."""
    w = _unit(w)
    if not (float(np.min(w[:m_ub], initial=0.0)) >= -_CERT_TOL and _amax(a.T @ w) <= _CERT_TOL):
        raise ArithmeticError("infeasibility certificate is not a Farkas ray")
    if not float(b @ w) < 0.0:
        raise ArithmeticError("infeasibility certificate does not separate")


def _check_primal_ray(c, a, m_ub, d) -> None:
    """a[:m_ub] d <= 0, a[m_ub:] d = 0 and c.d < 0: from any feasible
    point, c.x falls without bound along d."""
    d = _unit(d)
    if not _excess(a @ d, m_ub) <= _CERT_TOL:
        raise ArithmeticError("unboundedness certificate is not a primal ray")
    if not float(c @ d) < 0.0:
        raise ArithmeticError("unboundedness certificate does not improve the objective")


def _simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    limit: int,
    original: np.ndarray,
    floor: float = -math.inf,
) -> tuple[str, int]:
    """Run primal simplex to optimality on a tableau in canonical form.

    Only columns < ``limit`` may enter (phase 2 keeps the artificial columns
    out).  Ordinarily the entering column is the most negative reduced cost
    and ratio-test ties are broken on the largest pivot (numerical
    stability).  A pivot entry must exceed _PIVOT_TOL and 1e-9 of its
    column's largest entry.  An objective at or below ``floor``, a known
    lower bound, counts as optimal.

    When the objective first stalls on degenerate pivots, every basic value
    is lifted by a random 1 to 2 times _LIFT of the largest one (seeded, so
    runs repeat), which breaks the ratio-test ties behind the stall.  The
    lift is undone before a status is returned; if the basis reached is
    infeasible without it, the run resumes from the basis the lift started
    at.  When the objective stalls again, the rule switches to Bland's
    smallest-index selection, whose termination guarantee breaks the cycle.

    Every _REINVERT pivots, and before a status is returned, the tableau is
    rebuilt from ``original`` and the basis, so that rounding does not
    accumulate; a status counts only when read off a freshly rebuilt
    tableau.  Returns the status and the entering column (the unbounded one
    when the status is "unbounded").
    """
    m = tableau.shape[0]
    max_iter = 20000 + 200 * (m + tableau.shape[1] - 1)
    stall = 0
    last_obj = math.inf
    fresh, since = False, 0
    exact = start = None  # the right-hand side and the basis before the lift
    may_lift = True
    for _ in range(max_iter):
        if stall > 40 and may_lift:
            exact, start, may_lift = original[:, -1].copy(), basis.copy(), False
            size = _LIFT * max(1.0, _amax(tableau[:, -1]))
            lift = np.random.default_rng(0).uniform(size, 2.0 * size, m)
            original[:, -1] += original[:, basis] @ lift
            tableau[:, -1] += lift
            stall = 0
        reduced = cost[:limit] - cost[basis] @ tableau[:, :limit]
        reduced[basis[basis < limit]] = 0.0
        bland = stall > 40
        # Bland: the first improving column; otherwise the most negative
        entering = int(np.argmax(reduced < -_COST_TOL) if bland else np.argmin(reduced))
        status = ""
        if not reduced[entering] < -_COST_TOL or float(cost[basis] @ tableau[:, -1]) <= floor:
            status = "optimal"
        else:
            col = tableau[:, entering]
            rows = np.flatnonzero(col > max(_PIVOT_TOL, 1e-9 * _amax(col)))
            if not rows.size:
                status = "unbounded"
        if status and fresh:
            if exact is None:
                return status, entering
            original[:, -1] = exact
            exact = None
            _reinvert(tableau, basis, original)
            rhs = tableau[:, -1]
            if float(np.min(rhs, initial=0.0)) < -1e-9 * max(1.0, _amax(rhs)):
                # the basis reached is infeasible without the lift
                basis[:] = start
                _reinvert(tableau, basis, original)
            since = 0
            continue
        if status or since == _REINVERT:
            _reinvert(tableau, basis, original)
            fresh, since = True, 0
            continue
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        best_ratio = float(ratios.min())
        tied = rows[ratios <= best_ratio + 1e-9 * max(1.0, best_ratio)]
        # first tied row with the largest pivot, or the smallest basic index
        leaving = int(tied[np.argmin(basis[tied])] if bland else tied[np.argmax(col[tied])])
        _pivot(tableau, basis, leaving, entering)
        fresh, since = False, since + 1
        obj = float(cost[basis] @ tableau[:, -1])
        if obj < last_obj - 1e-12 * (1.0 + abs(obj)):
            stall = 0
        else:
            stall += 1
        last_obj = obj
    raise ArithmeticError("simplex iteration limit exceeded")


def _reinvert(tableau: np.ndarray, basis: np.ndarray, original: np.ndarray) -> None:
    """Rebuild the tableau as B^-1 original, B the basic columns of original
    (the explicit inverse: a matrix product over the wide tableau is several
    times faster than a solve with that many right-hand sides)."""
    try:
        tableau[:] = np.linalg.inv(original[:, basis]) @ original
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("simplex basis became singular") from exc
    tableau[:, basis] = np.eye(basis.size)
    rhs = tableau[:, -1]
    rhs[np.abs(rhs) < 1e-13] = 0.0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    # one rank-1 update: the tableau is short and wide, so a whole-array
    # outer product beats a loop over its rows
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col
    rhs = tableau[:, -1]
    rhs[np.abs(rhs) < 1e-13] = 0.0


def _drive_out_artificials(tableau: np.ndarray, basis: np.ndarray, n_core: int) -> list[int]:
    """Pivot degenerate artificials out of the basis; returns the tableau
    rows where none can leave, whose entries are noise (every constraint
    column has unit max-norm): those rows are redundant."""
    redundant = []
    for i in np.flatnonzero(basis >= n_core):
        row = tableau[i, :n_core]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > _PIVOT_TOL:
            _pivot(tableau, basis, i, j)
        else:
            redundant.append(int(i))
    return redundant
