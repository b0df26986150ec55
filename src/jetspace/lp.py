"""Dense linear programming for desk-scale problems.

Two-phase primal simplex on a dense tableau with Bland's anti-cycling rule.
Variables are free reals (internally split into positive parts); constraints
are linear inequalities (<=) and equalities.  Exact vertex optima at the
problem sizes used here (up to a few thousand constraints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_FEAS_TOL = 1e-8


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
    """Incremental construction of an LPProblem over named free variables."""

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
    """Solve the problem by two-phase dense simplex with Bland's rule."""
    n = problem.objective.size
    m_ub = problem.a_ub.shape[0]
    m_eq = problem.a_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        # objective over free variables with no constraints
        if np.any(problem.objective != 0.0):
            return LPSolution(status="unbounded")
        return LPSolution(status="optimal", x=np.zeros(n), objective=0.0)

    # row equilibration: scale every constraint to unit max-norm so pivot
    # tolerances are meaningful across badly mixed data scales
    a = np.vstack([problem.a_ub, problem.a_eq])
    b = np.concatenate([problem.b_ub, problem.b_eq])
    if a.size:
        norms = np.max(np.abs(a), axis=1)
        keep = norms > 0
        a[keep] /= norms[keep, None]
        b[keep] /= norms[keep]

    # standard form, written straight into the tableau: x = xp - xm, a slack
    # s >= 0 on each inequality row, and an artificial column on each row whose
    # slack cannot start the basis (equalities, and inequalities with b < 0,
    # which are negated to b > 0)
    flipped = b < 0
    art_rows = np.flatnonzero(flipped | (np.arange(m) >= m_ub))
    n_split = 2 * n
    n_core = n_split + m_ub
    n_art = art_rows.size
    tableau = np.zeros((m, n_core + n_art + 1))
    tableau[:, :n] = a
    np.negative(tableau[:, :n], out=tableau[:, n:n_split])
    tableau[np.arange(m_ub), n_split + np.arange(m_ub)] = 1.0
    sign = np.where(flipped, -1.0, 1.0)
    tableau[:, :n_core] *= sign[:, None]
    tableau[:, -1] = b * sign
    basis = n_split + np.arange(m)
    basis[art_rows] = n_core + np.arange(n_art)
    tableau[art_rows, basis[art_rows]] = 1.0

    if n_art:
        phase1_cost = np.zeros(n_core + n_art)
        phase1_cost[n_core:] = 1.0
        status = _simplex(tableau, basis, phase1_cost, restrict=None)
        if status != "optimal":
            raise ArithmeticError("phase-1 simplex failed to terminate")
        scale = max(1.0, float(np.max(np.abs(b))))
        if float(phase1_cost[basis] @ tableau[:, -1]) > _FEAS_TOL * scale:
            return LPSolution(status="infeasible")
        _drive_out_artificials(tableau, basis, n_core)

    cost = np.zeros(tableau.shape[1] - 1)
    cost[:n] = problem.objective
    cost[n:n_split] = -problem.objective
    status = _simplex(tableau, basis, cost, restrict=n_core)
    if status == "unbounded":
        return LPSolution(status="unbounded")

    full = np.zeros(tableau.shape[1] - 1)
    full[basis] = tableau[:, -1]
    x = full[:n] - full[n:n_split]
    # verify against the (equilibrated) constraints: a corrupted tableau must
    # fail loudly, never return a silently infeasible "optimum"
    tol = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    resid = a @ x - b
    if m_ub and float(np.max(resid[:m_ub])) > tol:
        raise ArithmeticError("simplex lost primal feasibility (inequalities)")
    if m_eq and float(np.max(np.abs(resid[m_ub:]))) > tol:
        raise ArithmeticError("simplex lost primal feasibility (equalities)")
    return LPSolution(status="optimal", x=x, objective=float(problem.objective @ x))


def _simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, restrict) -> str:
    """Run primal simplex to optimality on a tableau in canonical form.

    ``restrict`` limits entering candidates to columns < restrict (used in
    phase 2 to keep artificial columns out of the basis).  Ordinarily the
    entering column is the most negative reduced cost and ratio-test ties are
    broken on the largest pivot (numerical stability); when the objective
    stalls on degenerate pivots the rule switches to Bland's smallest-index
    selection, whose termination guarantee breaks the cycle.
    """
    m = tableau.shape[0]
    ncols = tableau.shape[1] - 1
    limit = ncols if restrict is None else restrict
    max_iter = 20000 + 200 * (m + ncols)
    stall = 0
    last_obj = math.inf
    for _ in range(max_iter):
        cb = cost[basis]
        reduced = cost[:limit] - cb @ tableau[:, :limit]
        reduced[basis[basis < limit]] = 0.0
        bland = stall > 40
        # Bland: the first improving column; otherwise the most negative
        entering = int(np.argmax(reduced < -_COST_TOL) if bland else np.argmin(reduced))
        if not reduced[entering] < -_COST_TOL:
            return "optimal"
        col = tableau[:, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        best_ratio = float(ratios.min(initial=math.inf))
        if not math.isfinite(best_ratio):
            return "unbounded"
        tied = rows[ratios <= best_ratio + 1e-9 * max(1.0, best_ratio)]
        # first tied row with the largest pivot, or the smallest basic index
        leaving = int(tied[np.argmin(basis[tied])] if bland else tied[np.argmax(col[tied])])
        _pivot(tableau, basis, leaving, entering)
        obj = float(cost[basis] @ tableau[:, -1])
        if obj < last_obj - 1e-12 * (1.0 + abs(obj)):
            stall = 0
        else:
            stall += 1
        last_obj = obj
    raise ArithmeticError("simplex iteration limit exceeded")


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    piv = tableau[row]
    for i in np.flatnonzero(tableau[:, col]):
        if i != row:
            tableau[i] -= tableau[i, col] * piv
    basis[row] = col
    rhs = tableau[:, -1]
    rhs[np.abs(rhs) < 1e-13] = 0.0


def _drive_out_artificials(tableau: np.ndarray, basis: np.ndarray, n_core: int) -> None:
    """Pivot degenerate artificials out of the basis; zero redundant rows."""
    for i in np.flatnonzero(basis >= n_core):
        row = tableau[i, :n_core]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > _PIVOT_TOL:
            _pivot(tableau, basis, i, j)
        else:
            # redundant constraint row (rows are equilibrated, so entries
            # this small are noise); neutralize it
            tableau[i, :] = 0.0
            tableau[i, basis[i]] = 1.0
