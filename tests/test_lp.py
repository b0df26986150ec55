"""Dense simplex: hand cases, statuses, vertex-enumeration oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest

from jetspace import lp
from jetspace.lp import _COST_TOL, _FEAS_TOL, _PIVOT_TOL, LPBuilder, LPProblem, LPSolution, lp_solve


def test_min_with_lower_bound():
    b = LPBuilder()
    x = b.var("x")
    b.add_ge({x: 1.0}, 3.0)
    b.minimize({x: 1.0})
    sol = lp_solve(b.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-10)


def test_infeasible():
    b = LPBuilder()
    x = b.var("x")
    b.add_le({x: 1.0}, 1.0)
    b.add_ge({x: 1.0}, 2.0)
    b.minimize({})
    assert lp_solve(b.build()).status == "infeasible"


def test_unbounded():
    b = LPBuilder()
    x = b.var("x")
    b.add_le({x: 1.0}, 0.0)
    b.minimize({x: 1.0})
    assert lp_solve(b.build()).status == "unbounded"


def test_equality_constraint():
    b = LPBuilder()
    x, y = b.var("x"), b.var("y")
    b.add_eq({x: 1.0, y: 2.0}, 4.0)
    b.add_ge({x: 1.0}, 0.0)
    b.add_ge({y: 1.0}, 0.0)
    b.minimize({x: 1.0, y: 1.0})
    sol = lp_solve(b.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-10)
    assert sol.x[x] == pytest.approx(0.0, abs=1e-10)


def test_unconstrained_cases():
    sol = lp_solve(LPProblem(np.zeros(2), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0)))
    assert sol.status == "optimal" and sol.objective == 0.0
    sol = lp_solve(LPProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)), np.zeros(0)))
    assert sol.status == "unbounded"


def test_problem_shape_check():
    with pytest.raises(ValueError, match="shape mismatch"):
        LPProblem(np.zeros(2), np.zeros((1, 2)), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="shape mismatch"):
        LPProblem(np.zeros(2), np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.zeros(0))


def test_degenerate_redundant_rows():
    b = LPBuilder()
    x = b.var("x")
    b.add_eq({x: 1.0}, 2.0)
    b.add_eq({x: 2.0}, 4.0)  # same constraint, scaled
    b.minimize({x: 1.0})
    sol = lp_solve(b.build())
    assert sol.status == "optimal"
    assert sol.x[x] == pytest.approx(2.0, abs=1e-10)


def _vertex_oracle(c, a_ub, b_ub):
    nv = c.size
    best = math.inf
    for rows in itertools.combinations(range(a_ub.shape[0]), nv):
        mat = a_ub[list(rows)]
        if abs(np.linalg.det(mat)) < 1e-9:
            continue
        v = np.linalg.solve(mat, b_ub[list(rows)])
        if np.all(a_ub @ v <= b_ub + 1e-9):
            best = min(best, float(c @ v))
    return best


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(250):
        nv = int(rng.integers(2, 4))
        rows = int(rng.integers(nv + 1, nv + 5))
        a = rng.normal(size=(rows, nv))
        rhs = rng.uniform(0.5, 2.0, size=rows)
        a = np.vstack([a, np.eye(nv), -np.eye(nv)])
        rhs = np.concatenate([rhs, np.full(2 * nv, 3.0)])
        c = rng.normal(size=nv)
        prob = LPProblem(c, a, rhs, np.zeros((0, nv)), np.zeros(0))
        sol = lp_solve(prob)
        assert sol.status == "optimal"
        oracle = _vertex_oracle(c, a, rhs)
        assert sol.objective == pytest.approx(oracle, rel=1e-8, abs=1e-8)
        assert np.all(a @ sol.x <= rhs + 1e-8)


def test_random_lps_with_equalities_match_elimination_oracle():
    # one equality row: eliminate a variable exactly, then enumerate vertices
    # of the reduced inequality system
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 120:
        nv = 3
        rows = int(rng.integers(4, 8))
        a = rng.normal(size=(rows, nv))
        rhs = rng.uniform(0.5, 2.0, size=rows)
        a = np.vstack([a, np.eye(nv), -np.eye(nv)])
        rhs = np.concatenate([rhs, np.full(2 * nv, 3.0)])
        c = rng.normal(size=nv)
        e = rng.normal(size=nv)
        if abs(e[-1]) < 0.3:
            continue
        e_rhs = float(rng.uniform(-0.5, 0.5))
        prob = LPProblem(c, a, rhs, e.reshape(1, -1), np.array([e_rhs]))
        sol = lp_solve(prob)
        # eliminate x2 = (e_rhs - e0 x0 - e1 x1)/e2
        sub = np.array([-e[0] / e[-1], -e[1] / e[-1]])
        off = e_rhs / e[-1]
        a_red = a[:, :2] + np.outer(a[:, 2], sub)
        rhs_red = rhs - a[:, 2] * off
        c_red = c[:2] + c[2] * sub
        oracle = _vertex_oracle(c_red, a_red, rhs_red)
        if not np.isfinite(oracle):
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(
                oracle + c[2] * off, rel=1e-8, abs=1e-8
            )
        checked += 1


def test_badly_scaled_lp_stays_consistent():
    # data spanning many orders of magnitude must either solve correctly or
    # fail loudly, never return an infeasible point as optimal
    rng = np.random.default_rng(23)
    for _ in range(60):
        scales = 10.0 ** rng.integers(-12, 3, size=4)
        b = LPBuilder()
        x, e = b.var("x"), b.var("e")
        targets = rng.uniform(-1, 1, size=4) * scales
        slopes = rng.uniform(0.1, 1.0, size=4) * scales
        for t, s in zip(targets, slopes):
            b.add_le({x: s, e: -1.0}, t)
            b.add_le({x: -s, e: -1.0}, -t)
        b.add_ge({e: 1.0}, 0.0)
        b.minimize({e: 1.0})
        sol = lp_solve(b.build())
        assert sol.status == "optimal"
        resid = max(
            abs(sol.x[x] * s - t) for t, s in zip(targets, slopes)
        )
        assert resid <= sol.objective + 1e-7 * max(1.0, sol.objective)


# ---------------------------------------------------------------------------
# reference solver: the two-phase primal simplex on the tall tableau (one row
# per constraint, a slack column per inequality) that lp_solve used before it
# solved the dual; kept verbatim except that it records its pivots


class _PrimalTableau:
    def __init__(self):
        self.pivots = []

    def lp_solve(self, problem: LPProblem) -> LPSolution:
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
            status = self._simplex(tableau, basis, phase1_cost, restrict=None)
            if status != "optimal":
                raise ArithmeticError("phase-1 simplex failed to terminate")
            scale = max(1.0, float(np.max(np.abs(b))))
            if float(phase1_cost[basis] @ tableau[:, -1]) > _FEAS_TOL * scale:
                return LPSolution(status="infeasible")
            self._drive_out_artificials(tableau, basis, n_core)

        cost = np.zeros(tableau.shape[1] - 1)
        cost[:n] = problem.objective
        cost[n:n_split] = -problem.objective
        status = self._simplex(tableau, basis, cost, restrict=n_core)
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


    def _simplex(self, tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, restrict) -> str:
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
            self._pivot(tableau, basis, leaving, entering)
            obj = float(cost[basis] @ tableau[:, -1])
            if obj < last_obj - 1e-12 * (1.0 + abs(obj)):
                stall = 0
            else:
                stall += 1
            last_obj = obj
        raise ArithmeticError("simplex iteration limit exceeded")


    def _pivot(self, tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
        self.pivots.append((int(row), int(col)))
        tableau[row] /= tableau[row, col]
        piv = tableau[row]
        for i in np.flatnonzero(tableau[:, col]):
            if i != row:
                tableau[i] -= tableau[i, col] * piv
        basis[row] = col
        rhs = tableau[:, -1]
        rhs[np.abs(rhs) < 1e-13] = 0.0


    def _drive_out_artificials(self, tableau: np.ndarray, basis: np.ndarray, n_core: int) -> None:
        """Pivot degenerate artificials out of the basis; zero redundant rows."""
        for i in np.flatnonzero(basis >= n_core):
            row = tableau[i, :n_core]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > _PIVOT_TOL:
                self._pivot(tableau, basis, i, j)
            else:
                # redundant constraint row (rows are equilibrated, so entries
                # this small are noise); neutralize it
                tableau[i, :] = 0.0
                tableau[i, basis[i]] = 1.0


# ---------------------------------------------------------------------------
# reference solver: the dense simplex before whole-array scanning, kept
# verbatim except that it records its pivots, counts its Bland iterations and
# drops its comments


class _LoopSimplex:
    def __init__(self):
        self.pivots = []
        self.bland_iterations = 0

    def lp_solve(self, problem: LPProblem) -> LPSolution:
        n = problem.objective.size
        m_ub = problem.a_ub.shape[0]
        m_eq = problem.a_eq.shape[0]
        m = m_ub + m_eq
        if m == 0:
            if np.any(problem.objective != 0.0):
                return LPSolution(status="unbounded")
            return LPSolution(status="optimal", x=np.zeros(n), objective=0.0)

        a_ub, b_ub = problem.a_ub.copy(), problem.b_ub.copy()
        a_eq, b_eq = problem.a_eq.copy(), problem.b_eq.copy()
        for mat, vec in ((a_ub, b_ub), (a_eq, b_eq)):
            if mat.size:
                norms = np.max(np.abs(mat), axis=1)
                keep = norms > 0
                mat[keep] /= norms[keep, None]
                vec[keep] /= norms[keep]

        n_split = 2 * n
        a = np.zeros((m, n_split + m_ub))
        b = np.zeros(m)
        a[:m_ub, :n] = a_ub
        a[:m_ub, n:n_split] = -a_ub
        a[:m_ub, n_split : n_split + m_ub] = np.eye(m_ub)
        b[:m_ub] = b_ub
        a[m_ub:, :n] = a_eq
        a[m_ub:, n:n_split] = -a_eq
        b[m_ub:] = b_eq

        flipped = b < 0
        a[flipped] *= -1.0
        b[flipped] *= -1.0

        basis = np.full(m, -1, dtype=int)
        needs_art = []
        for i in range(m):
            if i < m_ub and not flipped[i]:
                basis[i] = n_split + i
            else:
                needs_art.append(i)
        n_core = n_split + m_ub
        n_art = len(needs_art)
        tableau = np.zeros((m, n_core + n_art + 1))
        tableau[:, :n_core] = a
        tableau[:, -1] = b
        for k, i in enumerate(needs_art):
            tableau[i, n_core + k] = 1.0
            basis[i] = n_core + k

        if n_art:
            phase1_cost = np.zeros(n_core + n_art)
            phase1_cost[n_core:] = 1.0
            status = self._simplex(tableau, basis, phase1_cost, restrict=None)
            if status != "optimal":
                raise ArithmeticError("phase-1 simplex failed to terminate")
            scale = max(1.0, float(np.max(np.abs(b))))
            if float(phase1_cost[basis] @ tableau[:, -1]) > _FEAS_TOL * scale:
                return LPSolution(status="infeasible")
            self._drive_out_artificials(tableau, basis, n_core)

        cost = np.zeros(tableau.shape[1] - 1)
        cost[:n] = problem.objective
        cost[n:n_split] = -problem.objective
        status = self._simplex(tableau, basis, cost, restrict=n_core)
        if status == "unbounded":
            return LPSolution(status="unbounded")

        full = np.zeros(tableau.shape[1] - 1)
        full[basis] = tableau[:, -1]
        x = full[:n] - full[n:n_split]
        tol = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
        if a_ub.size and float(np.max(a_ub @ x - b_ub)) > tol:
            raise ArithmeticError("simplex lost primal feasibility (inequalities)")
        if a_eq.size and float(np.max(np.abs(a_eq @ x - b_eq))) > tol:
            raise ArithmeticError("simplex lost primal feasibility (equalities)")
        return LPSolution(status="optimal", x=x, objective=float(problem.objective @ x))

    def _simplex(self, tableau, basis, cost, restrict) -> str:
        m = tableau.shape[0]
        ncols = tableau.shape[1] - 1
        limit = ncols if restrict is None else restrict
        max_iter = 20000 + 200 * (m + ncols)
        in_basis = np.zeros(ncols, dtype=bool)
        in_basis[basis] = True
        stall = 0
        last_obj = math.inf
        for _ in range(max_iter):
            cb = cost[basis]
            reduced = cost[:limit] - cb @ tableau[:, :limit]
            reduced[in_basis[:limit]] = 0.0
            bland = stall > 40
            self.bland_iterations += bland
            entering = -1
            if bland:
                for j in range(limit):
                    if reduced[j] < -_COST_TOL:
                        entering = j
                        break
            else:
                j = int(np.argmin(reduced))
                if reduced[j] < -_COST_TOL:
                    entering = j
            if entering < 0:
                return "optimal"
            col = tableau[:, entering]
            rhs = tableau[:, -1]
            best_ratio = math.inf
            for i in range(m):
                if col[i] > _PIVOT_TOL:
                    best_ratio = min(best_ratio, max(rhs[i], 0.0) / col[i])
            if not math.isfinite(best_ratio):
                return "unbounded"
            tie = best_ratio + 1e-9 * max(1.0, best_ratio)
            leaving = -1
            for i in range(m):
                if col[i] > _PIVOT_TOL and max(rhs[i], 0.0) / col[i] <= tie:
                    if leaving < 0:
                        leaving = i
                    elif bland:
                        if basis[i] < basis[leaving]:
                            leaving = i
                    elif col[i] > col[leaving]:
                        leaving = i
            in_basis[basis[leaving]] = False
            in_basis[entering] = True
            self._pivot(tableau, basis, leaving, entering)
            obj = float(cost[basis] @ tableau[:, -1])
            if obj < last_obj - 1e-12 * (1.0 + abs(obj)):
                stall = 0
            else:
                stall += 1
            last_obj = obj
        raise ArithmeticError("simplex iteration limit exceeded")

    def _pivot(self, tableau, basis, row, col) -> None:
        self.pivots.append((int(row), int(col)))
        tableau[row] /= tableau[row, col]
        piv = tableau[row]
        for i in range(tableau.shape[0]):
            if i != row and tableau[i, col] != 0.0:
                tableau[i] -= tableau[i, col] * piv
        basis[row] = col
        rhs = tableau[:, -1]
        rhs[np.abs(rhs) < 1e-13] = 0.0

    def _drive_out_artificials(self, tableau, basis, n_core) -> None:
        for i in range(tableau.shape[0]):
            if basis[i] >= n_core:
                row = tableau[i, :n_core]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > _PIVOT_TOL:
                    self._pivot(tableau, basis, i, j)
                else:
                    tableau[i, :] = 0.0
                    tableau[i, basis[i]] = 1.0


def _boxed_rows(rng, nv, rows, rhs_low):
    """Random rows a x <= b plus the box |x_i| <= 3."""
    a = np.vstack([rng.normal(size=(rows, nv)), np.eye(nv), -np.eye(nv)])
    b = np.concatenate([rng.uniform(rhs_low, 2.0, size=rows), np.full(2 * nv, 3.0)])
    return a, b


def _mixed_lps():
    """Inequality and equality rows; b_ub > 0 needs artificials only for the
    equalities, b_ub of either sign needs them for the flipped rows too."""
    rng = np.random.default_rng(5)
    for rhs_low in (0.5, -1.0):
        for _ in range(40):
            nv = int(rng.integers(2, 7))
            a, b = _boxed_rows(rng, nv, int(rng.integers(1, 9)), rhs_low)
            m_eq = int(rng.integers(0, 3))
            a_eq = rng.normal(size=(m_eq, nv))
            yield LPProblem(rng.normal(size=nv), a, b, a_eq, rng.uniform(-0.5, 0.5, size=m_eq))


def _redundant_lps():
    """Dependent equality rows, which leave artificials basic after phase 1:
    combinations of other rows (neutralized), and rows whose negation is also
    present with b = 0 (phase 1 ends at once; the first copies pivot out)."""
    rng = np.random.default_rng(9)
    for case in range(24):
        nv = int(rng.integers(3, 6))
        a, b = _boxed_rows(rng, nv, int(rng.integers(2, 6)), 0.5)
        e = rng.normal(size=(2, nv))
        if case % 3 == 0:
            a_eq, b_eq = np.vstack([e, -e]), np.zeros(4)
        else:
            a_eq = np.vstack([e, rng.normal(size=2) @ e, 2.0 * e[0]])
            b_eq = a_eq @ rng.uniform(-0.5, 0.5, size=nv)
        yield LPProblem(rng.normal(size=nv), a, b, a_eq, b_eq)


def _status_lps():
    rng = np.random.default_rng(13)
    for _ in range(10):
        nv = int(rng.integers(1, 5))
        a = rng.normal(size=(3, nv))
        # infeasible: u x <= -1 and -u x <= -1
        u = rng.normal(size=nv)
        a_ub = np.vstack([a, u, -u])
        b_ub = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
        yield LPProblem(rng.normal(size=nv), a_ub, b_ub, np.zeros((0, nv)), np.zeros(0))
        # unbounded: the cone a x <= 0 holds the ray x = -t e_0, along
        # which the objective sum_i a_i x falls without bound
        a[:, 0] = np.abs(a[:, 0])
        yield LPProblem(a.sum(axis=0), a, np.zeros(3), np.zeros((0, nv)), np.zeros(0))


def _degenerate_lps(count=13):
    """Cones through the origin with a_0 > 0, cut by a box: many rows tie at
    ratio 0, the objective stalls, and Bland's rule takes over."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        nv, rows = 20, 150
        a = rng.normal(size=(rows, nv))
        a[:, 0] = np.abs(a[:, 0])
        a = np.vstack([a, np.eye(nv), -np.eye(nv)])
        b = np.concatenate([np.zeros(rows), np.ones(2 * nv)])
        yield LPProblem(rng.normal(size=nv), a, b, np.zeros((0, nv)), np.zeros(0))


def _unit_row_lps():
    """LPs whose bound rows supply some of the dual's unit columns: dense
    rows, then per variable an upper bound, a lower bound, both, a duplicate
    pair such as x <= 1 and 2x <= 3 (the same column once equilibrated), an
    equality, or nothing, at random positive row scales; objective entries
    negative, zero and positive.  Then boxed LPs that are infeasible (a
    Farkas ray from phase 2) and LPs unbounded along a free variable (a
    primal ray after the re-solve without objective)."""
    rng = np.random.default_rng(71)
    for _ in range(60):
        nv = int(rng.integers(2, 6))
        # |x_j + x_(j+1)/2| <= 5 bounds every variable through dense rows
        pair = np.eye(nv) + 0.5 * np.roll(np.eye(nv), 1, axis=1)
        a = [rng.normal(size=(int(rng.integers(0, 4)), nv)), pair, -pair]
        b = [rng.uniform(0.5, 2.0, size=a[0].shape[0]), np.full(2 * nv, 5.0)]
        a_eq, b_eq = [np.zeros((0, nv))], [np.zeros(0)]
        for j in range(nv):
            kind = rng.integers(6)
            s = rng.uniform(0.5, 4.0)
            e = s * np.eye(nv)[j]
            if kind in (0, 2, 3):  # x_j <= u
                a.append([e])
                b.append([s * rng.uniform(0.5, 3.0)])
            if kind == 3:  # and x_j <= u' through a scaled copy of the row
                a.append([1.5 * e])
                b.append([1.5 * b[-1][0] * rng.uniform(0.5, 2.0)])
            if kind in (1, 2):  # x_j >= l
                a.append([-e])
                b.append([s * rng.uniform(-0.5, 3.0)])
            if kind == 4:  # x_j = v
                a_eq.append([e])
                b_eq.append([s * rng.uniform(-1.0, 1.0)])
        c = rng.choice([-1.0, 0.0, 1.0], size=nv) * rng.uniform(0.5, 2.0, size=nv)
        yield LPProblem(c, np.vstack(a), np.concatenate(b), np.vstack(a_eq), np.concatenate(b_eq))
    for _ in range(10):
        nv = int(rng.integers(2, 5))
        u = rng.normal(size=nv)
        a, b = _boxed_rows(rng, nv, 2, 0.5)
        a, b = np.vstack([a, u, -u]), np.concatenate([b, [-1.0, -1.0]])
        yield LPProblem(rng.normal(size=nv), a, b, np.zeros((0, nv)), np.zeros(0))
        # x_last is free, enters the dense rows with a coefficient >= 0 and
        # costs c_last > 0: it falls without bound
        a, b = _boxed_rows(rng, nv - 1, 3, 0.5)
        a = np.hstack([a, np.zeros((a.shape[0], 1))])
        a[:3, -1] = rng.uniform(0.0, 1.0, size=3)
        c = np.append(rng.normal(size=nv - 1), rng.uniform(1.0, 2.0))
        yield LPProblem(c, a, b, np.zeros((0, nv)), np.zeros(0))


def _against_loop_simplex(problems):
    """Solve each problem with both reference solvers; assert the same pivots
    and the same bytes.  Returns the statuses and the Bland iterations."""
    statuses, bland = [], 0
    for problem in problems:
        tableau = _PrimalTableau()
        sol = tableau.lp_solve(problem)
        ref = _LoopSimplex()
        expected = ref.lp_solve(problem)
        assert tableau.pivots == ref.pivots
        assert sol.status == expected.status
        if expected.x is not None:
            assert sol.x.tobytes() == expected.x.tobytes()
            assert sol.objective == expected.objective
        statuses.append(sol.status)
        bland += ref.bland_iterations
    return statuses, bland


def test_mixed_lps_pivot_like_loop_simplex():
    statuses, _ = _against_loop_simplex(_mixed_lps())
    assert statuses.count("optimal") >= 40 and "infeasible" in statuses


def test_redundant_equalities_pivot_like_loop_simplex(monkeypatch):
    # on entry, count the basic artificials whose row has a usable pivot and
    # those whose row is noise, so that both branches are known to run
    seen = {"pivoted": 0, "neutralized": 0}
    drive_out = _PrimalTableau._drive_out_artificials

    def counting_drive_out(self, tableau, basis, n_core):
        for i in np.flatnonzero(basis >= n_core):
            big = np.max(np.abs(tableau[i, :n_core])) > _PIVOT_TOL
            seen["pivoted" if big else "neutralized"] += 1
        drive_out(self, tableau, basis, n_core)

    monkeypatch.setattr(_PrimalTableau, "_drive_out_artificials", counting_drive_out)
    statuses, _ = _against_loop_simplex(_redundant_lps())
    assert set(statuses) == {"optimal"}
    assert seen["pivoted"] > 0 and seen["neutralized"] > 0


def test_infeasible_and_unbounded_like_loop_simplex():
    statuses, _ = _against_loop_simplex(_status_lps())
    assert statuses.count("infeasible") == 10 and statuses.count("unbounded") == 10


def test_degenerate_lps_reach_bland_like_loop_simplex():
    statuses, bland = _against_loop_simplex(_degenerate_lps())
    assert set(statuses) == {"optimal"}
    assert bland > 0


def test_objective_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    problems = [*_mixed_lps(), *_redundant_lps(), *_status_lps(), *_degenerate_lps(4)]
    for problem in problems:
        sol = lp_solve(problem)
        ref = optimize.linprog(
            problem.objective,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=(None, None),
            method="highs",
        )
        assert sol.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        if ref.status == 0:
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def _highs(problem):
    """HiGHS on the same LP: (status, objective)."""
    optimize = pytest.importorskip("scipy.optimize")
    ref = optimize.linprog(
        problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=(None, None),
        method="highs",
    )
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status], ref.fun


def test_dual_engine_matches_primal_tableau_and_highs():
    problems = [*_mixed_lps(), *_redundant_lps(), *_status_lps(), *_degenerate_lps(), *_unit_row_lps()]
    for problem in problems:
        sol = lp_solve(problem)
        ref = _PrimalTableau().lp_solve(problem)
        status, fun = _highs(problem)
        assert sol.status == ref.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
            assert sol.objective == pytest.approx(fun, rel=1e-9, abs=1e-9)


def test_solver_counts_repeat():
    # the counts are deterministic: the lift is seeded and nothing else
    # draws.  The degenerate LPs take the lift, the redundant ones drive
    # artificials out, and some status LPs re-solve without objective
    problems = [*_mixed_lps(), *_redundant_lps(), *_status_lps(), *_degenerate_lps(4)]
    for problem in problems:
        first, second = lp_solve(problem), lp_solve(problem)
        assert first.pivots == second.pivots and first.reinversions == second.reinversions
        assert first.status == second.status
        # a status is read off a rebuild of the basis inverse
        assert first.reinversions >= 1
    assert all(lp_solve(p).pivots[1] > 0 for p in _degenerate_lps(4))


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_bound_rows_start_the_basis(c):
    # x <= 1 and 2x <= 3 equilibrate to the same unit column, -x <= 1 to its
    # negation and y = 2 to both; with every dual row covered, phase 1 has
    # nothing to do, whatever the sign of c
    problem = LPProblem(
        np.array([c, -c]), np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 3.0, 1.0]),
        np.array([[0.0, 4.0]]), np.array([8.0]),
    )
    sol = lp_solve(problem)
    assert sol.status == "optimal" and sol.pivots[0] == 0
    assert sol.objective == pytest.approx(min(c, -c) - 2.0 * c, abs=1e-12)
    # a dense row leaves x's dual row to an artificial where c > 0
    problem_dense = LPProblem(
        problem.objective, problem.a_ub + [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], problem.b_ub,
        problem.a_eq, problem.b_eq,
    )
    sol_dense = lp_solve(problem_dense)
    assert sol_dense.status == "optimal" and (sol_dense.pivots[0] > 0) == (c > 0.0)
    for lp_problem, solution in ((problem, sol), (problem_dense, sol_dense)):
        assert solution.objective == pytest.approx(_PrimalTableau().lp_solve(lp_problem).objective, abs=1e-12)
        assert solution.objective == pytest.approx(_highs(lp_problem)[1], abs=1e-9)


def _as_inequality_pairs(problem):
    """The same LP with each equality a x = b written as the rows a x <= b
    and -a x <= -b, stacked after the inequality rows."""
    return LPProblem(
        problem.objective,
        np.vstack([problem.a_ub, problem.a_eq, -problem.a_eq]),
        np.concatenate([problem.b_ub, problem.b_eq, -problem.b_eq]),
        np.zeros((0, problem.objective.size)),
        np.zeros(0),
    )


def test_equalities_solve_as_inequality_pairs(monkeypatch):
    # lp_solve enters an equality as that pair of rows, so the LP written
    # with the pairs by hand has the same dual: the same pivots, counts and
    # bytes of x.  The LPs: the fits behind a small check (centers
    # interpolated), the full select LP of a benchmark input (it takes a
    # lift), and LPs with redundant equalities (rows dropped after phase 1)
    from jetspace import whitney
    from jetspace.cubes import cube_family, dyadic_radii
    from jetspace.whitney import SampleSet, fit_field
    from test_selection import _op_seed, _oracle_selection_lp, _select_workload_instance

    problems, redundant = [], []

    def record(problem):
        problems.append(problem)
        return lp_solve(problem)

    def drive_out(*args):
        redundant.append(drive_out_artificials(*args))
        return redundant[-1]

    drive_out_artificials = lp._drive_out_artificials
    monkeypatch.setattr(whitney, "lp_solve", record)
    pts = tuple(tuple(map(float, p)) for p in np.random.default_rng(3).uniform(-1, 1, (6, 2)))
    sample = SampleSet(n=2, points=pts, values=tuple(math.sin(x) * y for x, y in pts))
    fit_field(sample, cube_family(pts, dyadic_radii(pts, 2)), k=1, m=2, interpolate_center=True)
    problems.append(_oracle_selection_lp(_select_workload_instance(_op_seed(1, 0), 24), None))
    monkeypatch.setattr(lp, "_drive_out_artificials", drive_out)
    lifts = 0
    for problem in [*problems, *_redundant_lps()]:
        assert problem.b_eq.size > 0
        got, want = lp_solve(problem), lp_solve(_as_inequality_pairs(problem))
        assert got.status == want.status == "optimal"
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.pivots, got.reinversions, got.lifts, got.restarts) == (
            want.pivots, want.reinversions, want.lifts, want.restarts
        )
        lifts += got.lifts
    assert len(problems) > 2 and lifts > 0 and any(redundant)


def _two_bounds():
    """min x + y subject to x >= 1, y >= 2, x + y <= 10: optimum 3 at (1, 2)."""
    a_ub = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    return LPProblem(np.ones(2), a_ub, np.array([-1.0, -2.0, 10.0]), np.zeros((0, 2)), np.zeros(0))


_INFEASIBLE = LPProblem(np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]), np.zeros((0, 1)), np.zeros(0))
_UNBOUNDED = LPProblem(np.ones(1), np.array([[1.0]]), np.zeros(1), np.zeros((0, 1)), np.zeros(0))


def _bound_and_pin():
    """min x subject to x >= 1 and y = 2: optimum 1 at (1, 2)."""
    return LPProblem(
        np.array([1.0, 0.0]), np.array([[-1.0, 0.0]]), np.array([-1.0]),
        np.array([[0.0, 1.0]]), np.array([2.0]),
    )


def _scaled_bound():
    """min 1e300 x subject to x >= -1.5e8: optimum at x = -1.5e8, where c.x
    and b.w are -1.5e308 and 1.5e308."""
    return LPProblem(
        np.array([1e300]), np.array([[-1.0]]), np.array([1.5e8]), np.zeros((0, 1)), np.zeros(0)
    )


def test_huge_bounds_solve_without_warnings():
    # |c|.|x| + |b|.|w| overflowed here, with a warning, and made the
    # duality-gap tolerance infinite
    problem = LPProblem(
        np.array([1.0]), np.array([[-1.0], [1.0]]), np.array([-1e308, 1.5e308]),
        np.zeros((0, 1)), np.zeros(0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = lp_solve(problem)
    assert sol.status == "optimal" and sol.x.tolist() == [1e308]


@pytest.mark.parametrize(
    "check, problem, status, corrupt, message",
    [
        ("_check_optimal", _two_bounds(), "optimal",
         lambda c, a, b, x, w: (c, a, b, x + 10.0, w), "primal feasibility"),
        ("_check_optimal", _two_bounds(), "optimal",
         lambda c, a, b, x, w: (c, a, b, x, -w), "dual feasibility"),
        ("_check_optimal", _two_bounds(), "optimal",
         lambda c, a, b, x, w: (c, a, b, x + 1.0, w), "duality gap"),
        ("_check_farkas_ray", _INFEASIBLE, "infeasible",
         lambda a, b, w: (a, b, -w), "not a Farkas ray"),
        ("_check_farkas_ray", _INFEASIBLE, "infeasible",
         lambda a, b, w: (a, -b, w), "does not separate"),
        ("_check_primal_ray", _UNBOUNDED, "unbounded",
         lambda c, a, d: (c, a, -d), "not a primal ray"),
        ("_check_primal_ray", _UNBOUNDED, "unbounded",
         lambda c, a, d: (-c, a, d), "does not improve"),
        ("_check_primal_ray", _UNBOUNDED, "unbounded",
         lambda c, a, d: (c, a, 0.0 * d), "zero certificate"),
        # NaN compares false with everything, so each test must fail on it
        ("_check_optimal", _two_bounds(), "optimal",
         lambda c, a, b, x, w: (c, a, b, x * math.nan, w), "primal feasibility"),
        # the equality row and its negation, after the one inequality row
        ("_check_optimal", _bound_and_pin(), "optimal",
         lambda c, a, b, x, w: (c, np.vstack([a[:1], a[1:] * math.nan]), b, x, w),
         "primal feasibility"),
        ("_check_optimal", _two_bounds(), "optimal",
         lambda c, a, b, x, w: (c, a, b, x, w * math.nan), "dual feasibility"),
        ("_check_farkas_ray", _INFEASIBLE, "infeasible",
         lambda a, b, w: (a * math.nan, b, w), "not a Farkas ray"),
        ("_check_primal_ray", _UNBOUNDED, "unbounded",
         lambda c, a, d: (c, a * math.nan, d), "not a primal ray"),
        # a feasible x that is not optimal: the gap c.x + b.w overflows to
        # inf, which an infinite tolerance once accepted
        ("_check_optimal", _scaled_bound(), "optimal",
         lambda c, a, b, x, w: (c, a, b, -x, w), "duality gap"),
    ],
)
def test_corrupted_certificate_raises(monkeypatch, check, problem, status, corrupt, message):
    assert lp_solve(problem).status == status
    real = getattr(lp, check)
    monkeypatch.setattr(lp, check, lambda *args: real(*corrupt(*args)))
    with pytest.raises(ArithmeticError, match=message):
        lp_solve(problem)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["objective", "a_ub", "b_ub", "a_eq", "b_eq"])
def test_non_finite_data_raises(part, value):
    problem = _bound_and_pin()
    assert lp_solve(problem).status == "optimal"
    getattr(problem, part).flat[0] = value
    with pytest.raises(ArithmeticError, match="non-finite"):
        lp_solve(problem)


# -- delayed constraint generation ---------------------------------------------------


def _generated(problem, start):
    """``problem`` with only its inequality rows ``start`` (and every
    equality) to begin with, and a separation that hands over the others
    as an optimum violates them, each row once; it records what it hands over."""
    a, b = problem.a_ub[~start], problem.b_ub[~start]
    taken = np.zeros(len(b), dtype=bool)
    handed = []

    def separate(x):
        violated = (a @ x - b > 1e-12 * max(1.0, np.abs(x).max())) & ~taken
        taken[violated] = True
        handed.append((a[violated], b[violated]))
        return handed[-1]

    begin = LPProblem(problem.objective, problem.a_ub[start], problem.b_ub[start], problem.a_eq, problem.b_eq)
    return begin, separate, handed


def _assert_dual_certifies(problem, sol, added=()):
    """y >= 0 on the inequality rows, a^T y = -c and c.x = -b.y, over the
    problem's rows and then the rows added."""
    a = np.vstack([problem.a_ub, problem.a_eq, *(rows for rows, _ in added)])
    b = np.concatenate([problem.b_ub, problem.b_eq, *(rhs for _, rhs in added)])
    y = sol.dual
    assert y.shape == b.shape
    ineq = np.ones(b.size, dtype=bool)
    ineq[problem.b_ub.size : problem.b_ub.size + problem.b_eq.size] = False
    assert y[ineq].min(initial=0.0) >= -1e-9
    assert np.abs(a.T @ y + problem.objective).max() <= 1e-8 * max(1.0, np.abs(y).max())
    assert float(b @ y) == pytest.approx(-sol.objective, rel=1e-9, abs=1e-9)


def test_dual_certifies_the_optimum():
    for problem in [*_mixed_lps(), *_redundant_lps(), *_degenerate_lps(4)]:
        sol = lp_solve(problem)
        if sol.status == "optimal":
            _assert_dual_certifies(problem, sol)
        else:
            assert sol.dual is None


def test_separation_reaches_the_full_optimum():
    # the box rows start the LP (they bound it), and the separation hands
    # over the other inequality rows
    for problem in [*_mixed_lps(), *_redundant_lps(), *_degenerate_lps(4)]:
        start = np.zeros(problem.b_ub.size, dtype=bool)
        start[-2 * problem.objective.size :] = True  # the box
        begin, separate, handed = _generated(problem, start)
        full, sol = lp_solve(problem), lp_solve(begin, separate)
        assert sol.status == full.status
        if full.status == "optimal":
            assert sol.objective == pytest.approx(full.objective, rel=1e-9, abs=1e-9)
            assert not handed[-1][1].size
            _assert_dual_certifies(begin, sol, handed)


def test_separation_after_a_dropped_row_solves_again(monkeypatch):
    # min x subject to x >= -5 leaves z in no row: its dual row is dropped
    # after phase 1, so x = -5 comes from a reduced basis.  The separation
    # then adds z - x <= 1, where the reduced basis no longer fits, and the
    # solve starts again; then -z <= 1, which resumes phase 2: x = -2
    full = LPProblem(
        np.array([1.0, 0.0]), np.array([[-1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]),
        np.array([5.0, 1.0, 1.0]), np.zeros((0, 2)), np.zeros(0),
    )
    begin, separate, handed = _generated(full, np.array([True, False, False]))
    calls, dropped = [], []
    solve_dual, drive_out_artificials = lp._solve_dual, lp._drive_out_artificials

    def counted(*args):
        calls.append(args[2].size)
        return solve_dual(*args)

    def drive_out(*args):
        dropped.append(drive_out_artificials(*args))
        return dropped[-1]

    monkeypatch.setattr(lp, "_solve_dual", counted)
    monkeypatch.setattr(lp, "_drive_out_artificials", drive_out)
    sol = lp_solve(begin, separate)
    assert sol.status == "optimal" and sol.x.tolist() == [-2.0, -1.0]
    assert [rhs.size for _, rhs in handed] == [1, 1, 0]
    assert calls == [1, 2] and dropped == [[1], []]  # one fresh start, with both rows
    _assert_dual_certifies(begin, sol, handed)
    assert sol.objective == lp_solve(full).objective


def test_separation_needs_a_bounded_start():
    # min x subject to x <= 0 alone is unbounded, though the rows a
    # separation would add might bound it
    with pytest.raises(ValueError, match="bound the objective"):
        lp_solve(_UNBOUNDED, lambda x: (np.array([[-1.0]]), np.array([5.0])))
    no_rows = LPProblem(np.ones(1), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError, match="bound the objective"):
        lp_solve(no_rows, lambda x: (np.zeros((0, 1)), np.zeros(0)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_added_row_raises(value):
    with pytest.raises(ArithmeticError, match="non-finite"):
        lp_solve(_two_bounds(), lambda x: (np.array([[value, 1.0]]), np.array([1.0])))


# -- the field LP on check's cubes -------------------------------------------------


def _field_start_lp(op):
    """The start LP of the best field on the cubes of the check benchmark's
    input ``op`` (workload seed 1), and the ``_SelectionLP`` whose separation
    adds the field LP's other pairwise rows.  Columns: the scale lam, then the
    6 global coefficients of each cube's quadratic P_Q.  Rows: per cube and
    captured sample y in turn, +-(P_Q(y) - f(y)) <= lam r_Q w(r_Q) (k = 1);
    then the pairwise rows of each cube's nearest cubes, -lam <= -0 and the
    coefficient box, as ``_SelectionLP`` holds them for nodes that are single
    polynomials (whose equalities are left out)."""
    from jetspace.cubes import cube_family, dyadic_radii
    from jetspace.modulus import Modulus
    from jetspace.poly import Poly, deriv_matrix
    from jetspace.selection import ConvexSetSpec, SelectionInstance, _SelectionLP
    from jetspace.whitney import SampleSet, _captured, _interleave
    from test_selection import _op_seed

    pts = [tuple(p) for p in np.random.default_rng(_op_seed(1, op)).uniform(-1.0, 1.0, (12, 2)).tolist()]
    values = tuple(math.sin(2.0 * x) * math.cos(y) + 0.5 * x * y for x, y in pts)  # the benchmark's function
    sample = SampleSet(n=2, points=tuple(pts), values=values)
    mod, cubes = Modulus.power(1.0, 2), cube_family(pts, dyadic_radii(pts, 3))
    nodes = tuple((ConvexSetSpec(Poly.zero(2, 2)), cube) for cube in cubes)
    sel = _SelectionLP(SelectionInstance(n=2, k=1, m=2, modulus=mod, nodes=nodes), None)
    monomials = deriv_matrix(2, 2, [(0, 0)], pts)[:, 0]
    a, b = [], []
    for cube, start, idx in zip(cubes, sel.starts, _captured(sample, cubes)):
        plus = np.zeros((len(idx), sel.cols))
        plus[:, start : start + monomials.shape[1]] = monomials[idx]
        minus = -plus
        plus[:, 0] = minus[:, 0] = -cube.radius * mod.eval(cube.radius)
        f = np.array(values)[idx]
        a.append(_interleave(plus, minus))
        b.append(_interleave(f, -f))
    a_ub, b_ub = np.vstack([*a, sel.problem.a_ub]), np.concatenate([*b, sel.problem.b_ub])
    return LPProblem(sel.problem.objective, a_ub, b_ub, np.zeros((0, sel.cols)), np.zeros(0)), sel


def test_field_start_lps_match_highs(monkeypatch):
    # concentric cubes repeat rows of the start LP (a pair's rows at x_j are
    # its rows at x_i), and multipliers as large as the box rows price such
    # a duplicate at about -2e-9 where its true reduced cost is 0: an
    # absolute pricing tolerance cycled between the two, and a smallest-index
    # rule never left the stall.  A solve round may take 5,000 pivots
    from jetspace.selection import _SEPARATION_TOL

    taken = [0]

    def counted(*args):
        taken[0] += 1
        if taken[0] > 5000:
            raise AssertionError("a solve round took over 5,000 pivots")
        pivot(*args)

    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", counted)
    for op in (3, 11):
        problem, _ = _field_start_lp(op)
        taken[0] = 0
        sol = lp_solve(problem)
        status, fun = _highs(problem)
        assert sol.status == status == "optimal" and sol.pivots[1] <= 2000
        assert sol.objective == pytest.approx(fun, rel=1e-9)
    # op 10 by separation rounds, each with a fresh budget; the first round
    # solves the start LP.  It takes several lifts, and restarts
    problem, sel = _field_start_lp(10)
    rounds, handed = [], []

    def separate(x):
        rounds.append((float(x[0]), taken[0]))
        taken[0] = 0
        handed.append(sel.separate(x))
        return handed[-1]

    taken[0] = 0
    sol = lp_solve(problem, separate)
    status, fun = _highs(problem)
    assert sol.status == status == "optimal" and sol.lifts > 1 and sol.restarts > 0
    assert rounds[0][0] == pytest.approx(fun, rel=1e-9) and rounds[0][1] <= 2000
    held = LPProblem(
        problem.objective, np.vstack([problem.a_ub, *(a for a, _ in handed)]),
        np.concatenate([problem.b_ub, *(b for _, b in handed)]), problem.a_eq, problem.b_eq,
    )
    assert sol.objective == pytest.approx(_highs(held)[1], rel=1e-9)
    _assert_dual_certifies(problem, sol, handed)
    # no row of the full field LP is violated beyond the separation's tolerance
    tol = _SEPARATION_TOL * max(1.0, float(np.abs(sol.x).max()))
    for at in np.array_split(np.arange(len(sel.order)), 8):
        a, b = sel.rows(sel.i[at], sel.j[at], sel.order[at])
        assert ((a @ sol.x - b) / np.abs(a).max(axis=1)).max() <= tol
