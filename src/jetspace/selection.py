"""Lipschitz selection of convex polynomial-set valued data by linear programming.

Each node of an instance carries a convex set of polynomials (an affine slab:
base + span of directions, cut by half-planes in the affine coordinates)
attached to a cube.  ``best_selection`` picks one polynomial per node, exactly
compatible with its set, minimizing the scale seminorm of the resulting field;
the minimum is a single LP because the seminorm constraint is linear in the
scale.  ``finiteness_experiment`` compares the full optimum against the
optima over all small subsets, measuring how far restriction to subsets of
the combinatorial threshold size can fall short of the full problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .cubes import Cube, cube_distance
from .lp import LPProblem, lp_solve
from .modulus import Modulus
from .poly import Poly, deriv_matrix, mi_order, multi_indices, poly_space_dim
from .whitney import PolyField, pair_gauges

COEF_BOX = 1e6
SUBSET_BUDGET = 5000


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Rows (or entries) of ``first`` and ``second`` alternating, first[0] first."""
    return np.stack([first, second], axis=1).reshape(-1, *first.shape[1:])


@dataclass(frozen=True)
class ConvexSetSpec:
    """Convex set of polynomials: base + span(directions), optionally cut by
    half-planes a . theta <= b on the affine coordinates theta."""

    base: Poly
    directions: tuple[Poly, ...] = ()
    inequalities: tuple[tuple[tuple[float, ...], float], ...] = ()

    def __post_init__(self) -> None:
        dirs = tuple(self.directions)
        object.__setattr__(self, "directions", dirs)
        for d in dirs:
            if d.n != self.base.n:
                raise ValueError("direction dimension mismatch")
        if dirs:
            top = max(self.base.degree, max(d.degree for d in dirs))
            alphas = multi_indices(self.base.n, top)
            mat = np.array(
                [[d.coef.get(a, 0.0) for a in alphas] for d in dirs], dtype=float
            )
            if np.linalg.matrix_rank(mat) != len(dirs):
                raise ValueError("directions must be linearly independent")
        ineqs = []
        for a, b in self.inequalities:
            a = tuple(float(v) for v in a)
            if len(a) != len(dirs):
                raise ValueError("inequality row length must match direction count")
            ineqs.append((a, float(b)))
        object.__setattr__(self, "inequalities", tuple(ineqs))

    @property
    def dim(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class SelectionInstance:
    """Nodes (convex set, cube) within one (n, k, m) context with a modulus."""

    n: int
    k: int
    m: int
    modulus: Modulus
    nodes: tuple[tuple[ConvexSetSpec, Cube], ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("instance needs at least one node")
        if self.modulus.m != self.m:
            raise ValueError("modulus order does not match the context")
        seen = set()
        for spec, cube in self.nodes:
            if cube.dim != self.n or spec.base.n != self.n:
                raise ValueError("node dimension mismatch")
            if spec.base.degree > self.top_degree:
                raise ValueError("set polynomials exceed the context degree bound")
            if cube in seen:
                raise ValueError("duplicate cube in instance")
            seen.add(cube)

    @property
    def top_degree(self) -> int:
        return self.k + self.m - 1

    def subset(self, indices: Sequence[int]) -> "SelectionInstance":
        return SelectionInstance(
            n=self.n,
            k=self.k,
            m=self.m,
            modulus=self.modulus,
            nodes=tuple(self.nodes[i] for i in indices),
        )


def membership_block(
    spec: ConvexSetSpec,
    cube: Cube,
    mod: Modulus,
    k: int,
    degree: int,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The constraints tying a node's polynomial to its convex set, as
    (a_eq, b_eq, a_ub, b_ub) over the node's own columns: the polynomial's
    coefficients in ``multi_indices(n, degree)`` order, then the set's affine
    coordinates.

    With lam = 0 the degree-k Taylor part at the center must equal a set
    member exactly: an equality per order up to k, then one per order above k
    at which the member has content, which must vanish for the Taylor part to
    coincide with it as a polynomial.  With lam > 0 the center derivatives up
    to order k may deviate from a set member by lam * r^(k-|a|) * w(r): a +row
    and a -row per order.  The set's half-planes follow as inequality rows.
    Raises ValueError unless lam is finite and non-negative.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError("relaxation scale must be finite and non-negative")
    n, x, r = spec.base.n, cube.center, cube.radius
    wr = mod.eval(r)
    n_coef = poly_space_dim(n, degree)
    low_orders = multi_indices(n, k)

    def on_coordinates(values: list) -> np.ndarray:
        """Rows with these affine-coordinate entries and no coefficients."""
        coords = np.array(values).reshape(len(values), spec.dim) + 0.0
        return np.hstack([np.zeros((len(values), n_coef)), coords])

    # a member's derivatives are base + directions . theta, so the directions
    # enter negated; "+ 0.0" and "0.0 -" store +0.0 where an entry vanishes
    rows = on_coordinates(
        [[0.0 - d.deriv_eval(alpha, x) for d in spec.directions] for alpha in low_orders]
    )
    rows[:, :n_coef] = deriv_matrix(n, degree, low_orders, [x])[0] + 0.0
    base = np.array([spec.base.deriv_eval(alpha, x) for alpha in low_orders])
    halfplanes = on_coordinates([a_row for a_row, _ in spec.inequalities])
    b_half = np.array([b_val for _, b_val in spec.inequalities])
    if lam > 0.0:
        slack = np.array([lam * r ** (k - mi_order(alpha)) * wr for alpha in low_orders])
        negated = np.hstack([0.0 - rows[:, :n_coef], -rows[:, n_coef:]])
        a_ub = np.vstack([_interleave(rows, negated), halfplanes])
        b_ub = np.append(_interleave(base + slack, slack - base), b_half)
        return np.zeros((0, rows.shape[1])), np.zeros(0), a_ub, b_ub
    top_member = max([spec.base.degree, *(d.degree for d in spec.directions)])
    above = [alpha for alpha in multi_indices(n, top_member) if mi_order(alpha) > k]
    coords = on_coordinates([[d.deriv_eval(alpha, x) for d in spec.directions] for alpha in above])
    base_above = np.array([spec.base.deriv_eval(alpha, x) for alpha in above])
    live = np.any(coords != 0.0, axis=1) | (base_above != 0.0)
    return np.vstack([rows, coords[live]]), np.append(base, -base_above[live]), halfplanes, b_half


@dataclass(frozen=True)
class SelectionResult:
    """A selection and how its LP was solved.  ``rounds`` counts the
    separation sweeps over all pairs, ``generated_rows`` the pairwise rows
    the LP held at the end, and ``witness`` (with "optimal") the nodes whose
    columns meet a row of nonzero dual: the LP on those nodes alone has the
    same optimum."""

    polys: tuple[Poly, ...]
    lam: float
    status: str
    box_active: bool
    rounds: int = 0
    generated_rows: int = 0
    witness: tuple[int, ...] = ()


# the pairwise rows each node starts with: those of its nearest cubes
_NEIGHBOURS = 2
# a separation round adds, for each node, its most violated pairwise bounds
_PER_NODE = 2
# a pairwise row counts as violated beyond this excess over its max-norm,
# relative to max(1, |x|), the measure of lp_solve's certificate
_SEPARATION_TOL = 1e-12


class _SelectionLP:
    """The selection LP, with its pairwise rows generated where they bind.

    Columns: with lam None the scale, which the LP minimizes; then each
    node's ``membership_block`` columns, node k's from ``starts[k]``.  The
    full LP's rows, in order: the membership blocks (exact with lam None,
    relaxed by lam otherwise); per cube pair i < j, a +row and a -row
    bounding D^a(P_i - P_j) by the pair's gauge times the scale (or lam) for
    every order a at x_i and every non-top order at x_j (a top-order
    derivative is constant); with lam None, -scale <= -0.0; a +row and a
    -row boxing each node column at COEF_BOX.  ``problem`` holds all of them
    but the pairwise rows, of which it holds those of each node's
    _NEIGHBOURS nearest cubes in the cube distance; ``separate`` adds the
    others as they are violated.  "+ 0.0" and "0.0 -" store +0.0 wherever
    an entry vanishes.
    """

    def __init__(self, inst: SelectionInstance, lam: float | None) -> None:
        blocks = [
            membership_block(spec, cube, inst.modulus, inst.k, inst.top_degree, lam or 0.0)
            for spec, cube in inst.nodes
        ]
        degree = inst.top_degree
        alphas = multi_indices(inst.n, degree)
        cubes = [cube for _, cube in inst.nodes]
        scale = int(lam is None)
        self.lam = lam
        self.starts = scale + np.cumsum([0] + [blk[0].shape[1] for blk in blocks])
        self.cols = cols = int(self.starts[-1])
        # a bound's row order r is alphas[r] at x_i, or after them the non-top alphas at x_j
        self.alpha = np.concatenate(
            [np.arange(len(alphas)), np.flatnonzero([mi_order(a) < degree for a in alphas])]
        )
        self.deriv = deriv_matrix(inst.n, degree, alphas, [q.center for q in cubes])
        self.gauges = pair_gauges(inst.modulus, degree, alphas, cubes)

        # every bound of the full LP, pair-major as its rows: (i, j, order)
        size, orders = len(cubes), len(self.alpha)
        i, j = np.triu_indices(size, 1)
        self.i, self.j = np.repeat(i, orders), np.repeat(j, orders)
        self.order = np.tile(np.arange(orders), len(i))
        self.vals, self.gauge = self._values(self.i, self.j, self.order)
        bound = self.gauge * (1.0 if lam is None else lam)
        if not (np.isfinite(self.vals).all() and np.isfinite(bound).all()):
            raise ArithmeticError("LP data has a non-finite entry")
        self.norm = np.abs(self.vals).max(axis=1, initial=0.0)
        if lam is None:
            np.maximum(self.norm, self.gauge, out=self.norm)
        self.norm[self.norm == 0.0] = 1.0

        # each node's nearest cubes: ln(1 + span / v) grows with span / v
        centers, radii = np.array([q.center for q in cubes], ndmin=2), np.array([q.radius for q in cubes])
        with np.errstate(over="ignore"):
            span = np.maximum.outer(radii, radii) + np.abs(centers[:, None] - centers).max(axis=2)
            ratio = span / np.minimum.outer(radii, radii)
        np.fill_diagonal(ratio, np.inf)
        near = np.argsort(ratio, axis=1, kind="stable")[:, : min(_NEIGHBOURS, size - 1)].ravel()
        node = np.repeat(np.arange(size), len(near) // size)
        near_pairs = np.minimum(node, near) * size + np.maximum(node, near)
        self.present = np.isin(self.i * size + self.j, near_pairs)  # the bounds the LP holds
        a_pairs, b_pairs = self.rows(self.i[self.present], self.j[self.present], self.order[self.present])

        def diagonal(part: int) -> np.ndarray:
            out = np.zeros((sum(len(blk[part]) for blk in blocks), cols))
            row = 0
            for start, blk in zip(self.starts, blocks):
                out[row : row + len(blk[part]), start : start + blk[part].shape[1]] = blk[part]
                row += len(blk[part])
            return out

        eye = np.eye(cols)
        box = _interleave(eye[scale:], 0.0 - eye[scale:])
        a_ub = np.vstack([diagonal(2), a_pairs, 0.0 - eye[:scale], box])
        b_box = np.full(len(box), COEF_BOX)
        b_ub = np.concatenate([*(blk[3] for blk in blocks), b_pairs, np.full(scale, -0.0), b_box])
        b_eq = np.concatenate([blk[1] for blk in blocks])
        self.problem = LPProblem(scale * eye[0], a_ub, b_ub, diagonal(0), b_eq)
        self.added: list[np.ndarray] = []
        self.rounds = 0

    def _values(self, i: np.ndarray, j: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each bound's derivative values [bound, coefficient] and gauge."""
        alpha = self.alpha[order]
        at = np.where(order < self.deriv.shape[1], i, j)
        return self.deriv[at, alpha] + 0.0, self.gauges(i, j)[np.arange(len(order)), alpha]

    def rows(self, i: np.ndarray, j: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The +row and -row of each bound (i[k], j[k], order[k]), i < j, in
        turn: (a_ub, b_ub) as the full LP has them."""
        vals, gauge = self._values(i, j, order)
        a = np.zeros((len(order), 2, self.cols))  # [bound, sign, column]
        bound = np.arange(len(order))[:, None]
        coef = np.arange(vals.shape[1])
        for sign, (on_i, on_j) in enumerate(((vals, 0.0 - vals), (0.0 - vals, vals))):
            a[bound, sign, self.starts[i][:, None] + coef] = on_i
            a[bound, sign, self.starts[j][:, None] + coef] = on_j
        if self.lam is None:
            a[..., 0] = -gauge[:, None]
            return a.reshape(-1, self.cols), np.zeros(2 * len(order))
        return a.reshape(-1, self.cols), np.repeat(self.lam * gauge, 2)

    def separate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``lp_solve``'s separation: the rows of the bounds that x violates
        and the LP does not hold yet, at most _PER_NODE bounds per node
        chosen, each node's most violated first."""
        self.rounds += 1
        coef = x[self.starts[:-1, None] + np.arange(self.vals.shape[1])]
        disc = np.einsum("kc,kc->k", self.vals, coef[self.i] - coef[self.j])
        excess = (np.abs(disc) - (x[0] if self.lam is None else self.lam) * self.gauge) / self.norm
        tol = _SEPARATION_TOL * max(1.0, float(np.abs(x).max()))
        worst = np.flatnonzero((excess > tol) & ~self.present)
        worst = worst[np.argsort(-excess[worst], kind="stable")]
        at_node = [(self.i[worst] == k) | (self.j[worst] == k) for k in range(len(self.starts) - 1)]
        picked = np.unique(np.concatenate([worst[at][:_PER_NODE] for at in at_node]))
        self.present[picked] = True
        a, b = self.rows(self.i[picked], self.j[picked], self.order[picked])
        self.added.append(a)
        return a, b

    def witness(self, dual: np.ndarray) -> tuple[int, ...]:
        """The nodes whose columns meet a row of nonzero dual."""
        a = np.vstack([self.problem.a_ub, self.problem.a_eq, *self.added])
        touched = (a[dual != 0.0] != 0.0).any(axis=0)
        return tuple(np.flatnonzero(np.logical_or.reduceat(touched, self.starts[:-1])).tolist())


def _solve(inst: SelectionInstance, lam: float | None) -> SelectionResult:
    """The selection at the least scale (lam None) or at the fixed scale lam."""
    lp = _SelectionLP(inst, lam)
    sol = lp_solve(lp.problem, lp.separate)
    generated = 2 * int(lp.present.sum())
    if sol.status != "optimal":
        fixed = math.nan if lam is None else lam
        return SelectionResult((), fixed, sol.status, False, lp.rounds, generated)
    polys, box_active = _extract_polys(inst, sol.x, lp.starts[:-1])
    return SelectionResult(
        polys,
        float(sol.x[0]) if lam is None else lam,
        "optimal",
        box_active,
        lp.rounds,
        generated,
        lp.witness(sol.dual),
    )


def _extract_polys(
    inst: SelectionInstance, sol_x: np.ndarray, starts: Sequence[int]
) -> tuple[tuple[Poly, ...], bool]:
    """The node polynomials, and whether a node column is at its COEF_BOX bound."""
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    polys = tuple(
        Poly(inst.n, degree, dict(zip(alphas, sol_x[start : start + len(alphas)].tolist())))
        for start in starts
    )
    return polys, bool(np.max(np.abs(sol_x[starts[0] :])) >= COEF_BOX * (1 - 1e-6))


def best_selection(inst: SelectionInstance) -> SelectionResult:
    """Choose one polynomial per node, exactly inside its set, minimizing the
    scale seminorm of the chosen field.

    A single LP: the seminorm bound enters each pairwise derivative row
    linearly through the scale variable.  It is solved by constraint
    generation: most pairwise rows never bind, so the LP starts from each
    node's nearest pairs and takes the others as a sweep over all pairs
    finds them violated.  The optimum equals the seminorm of the returned
    field; the LP's optimum is degenerate, and the polynomials are one
    optimal vertex of it.  Coefficient variables are boxed at +-1e6 as a
    safety net; an active box is flagged in the result.
    """
    return _solve(inst, None)


def relaxed_feasible(inst: SelectionInstance, lam: float) -> SelectionResult:
    """Feasibility query at a fixed scale: is there one polynomial per node
    within the lam-relaxed set membership whose field satisfies the pairwise
    seminorm bound lam?  Raises ValueError unless lam is finite and
    non-negative.  An active coefficient box is flagged in the result."""
    return _solve(inst, lam)


def selection_field(inst: SelectionInstance, polys: Sequence[Poly]) -> PolyField:
    """Assemble the field induced by a selection."""
    return PolyField(
        n=inst.n,
        k=inst.k,
        m=inst.m,
        entries=tuple((cube, poly) for (___, cube), poly in zip(inst.nodes, polys)),
    )


@dataclass(frozen=True)
class FinitenessReport:
    """Outcome of the subset-threshold experiment.

    ``gamma_hat`` is the full optimum divided by the worst optimum over
    subsets of size at most ``subset_size_bound``; it is always >= 1, and how
    large it gets measures what restriction to small subsets loses.
    """

    subset_size_bound: int
    gamma_hat: float
    lam_full: float
    max_subset_lam: float
    argmax_subset: tuple[int, ...]
    subset_count: int
    exhaustive: bool
    subset_lams: tuple[float, ...]


def finiteness_experiment(
    inst: SelectionInstance,
    ell: int | None = None,
    budget: int = SUBSET_BUDGET,
    seed: int = 0,
) -> FinitenessReport:
    """Solve the selection LP on every subset of at most
    2^min(ell + 1, dim of the degree-k polynomial space) nodes (or a seeded
    sample of subsets when their number exceeds the budget) and compare with
    the full optimum."""
    if ell is None:
        ell = max(spec.dim for spec, _ in inst.nodes)
    if ell < 0:
        raise ValueError("experiment ell must be non-negative")
    if budget < 1:
        raise ValueError("experiment budget must be at least 1")
    n_subset = 2 ** min(ell + 1, poly_space_dim(inst.n, inst.k))
    total = len(inst.nodes)
    if total < n_subset:
        raise ValueError(
            f"instance has {total} nodes; need at least {n_subset} for the experiment"
        )
    all_subsets: list[tuple[int, ...]] = []
    count = 0
    for size in range(2, n_subset + 1):
        count += math.comb(total, size)
    exhaustive = count <= budget
    if exhaustive:
        for size in range(2, n_subset + 1):
            all_subsets.extend(combinations(range(total), size))
    else:
        rng = np.random.default_rng(seed)
        chosen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(chosen) < budget and attempts < 50 * budget:
            size = int(rng.integers(2, n_subset + 1))
            subset = tuple(sorted(rng.choice(total, size=size, replace=False).tolist()))
            chosen.add(subset)
            attempts += 1
        all_subsets = sorted(chosen)

    lam_full = best_selection(inst).lam
    subset_lams = []
    worst = 0.0
    arg = all_subsets[0]
    for subset in all_subsets:
        lam = best_selection(inst.subset(subset)).lam
        subset_lams.append(lam)
        if lam > worst:
            worst = lam
            arg = subset
    if worst == 0.0:
        gamma = 1.0 if lam_full <= 1e-12 else math.inf
    else:
        gamma = lam_full / worst
    return FinitenessReport(
        subset_size_bound=n_subset,
        gamma_hat=gamma,
        lam_full=lam_full,
        max_subset_lam=worst,
        argmax_subset=tuple(arg),
        subset_count=len(all_subsets),
        exhaustive=exhaustive,
        subset_lams=tuple(subset_lams),
    )


@dataclass(frozen=True)
class CounterexampleRow:
    i: int
    step_distance: float
    log_distance: float


def counterexample_family(i_max: int) -> tuple[CounterexampleRow, ...]:
    """Table over the cube family with radii 2^(-i*i) at a common center:
    the step distance max(r_i, r_{i+1}) shrinks to zero while the logarithmic
    cube distance ln(1 + r_i / r_{i+1}) grows without bound -- the two scales
    cannot be monotonically reconciled.

    Rejects i_max > 30 (the next radius would underflow well past double
    precision).
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    if i_max > 30:
        raise ValueError("i_max > 30 underflows the radius table")
    rows = []
    for i in range(1, i_max + 1):
        r_i = math.ldexp(1.0, -i * i)
        r_next = math.ldexp(1.0, -(i + 1) * (i + 1))
        q1 = Cube(center=(0.0,), radius=r_i)
        q2 = Cube(center=(0.0,), radius=r_next)
        rows.append(
            CounterexampleRow(
                i=i,
                step_distance=max(r_i, r_next),
                log_distance=cube_distance(q1, q2),
            )
        )
    for a, b in zip(rows, rows[1:]):
        if not (a.step_distance > b.step_distance):
            raise AssertionError("step distances must be strictly decreasing")
        if not (a.log_distance < b.log_distance):
            raise AssertionError("log distances must be strictly increasing")
    return tuple(rows)
