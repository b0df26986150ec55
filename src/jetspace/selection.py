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
from itertools import combinations, compress
from typing import Sequence

import numpy as np

from .cubes import Cube, cube_distance
from .lp import LPProblem, lp_solve
from .modulus import Modulus
from .poly import Poly, deriv_matrix, mi_order, multi_indices, poly_space_dim
from .whitney import PolyField, _interleave, pair_gauges

COEF_BOX = 1e6
SUBSET_BUDGET = 5000


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
    polys: tuple[Poly, ...]
    lam: float
    status: str
    box_active: bool


def _selection_lp(inst: SelectionInstance, lam: float | None) -> tuple[LPProblem, list[int]]:
    """The selection LP, and the first column of each node.

    Columns: with lam None the scale, which the LP minimizes; then each
    node's ``membership_block`` columns.  Rows, in order: the membership
    blocks (exact with lam None, relaxed by lam otherwise); per cube pair
    i < j, a +row and a -row bounding D^a(P_i - P_j) by the pair's gauge
    times the scale (or lam) for every order a at x_i and every non-top order
    at x_j (a top-order derivative is constant); with lam None, -scale <=
    -0.0; a +row and a -row boxing each node column at COEF_BOX.  "+ 0.0"
    and "0.0 -" store +0.0 wherever an entry vanishes.
    """
    blocks = [
        membership_block(spec, cube, inst.modulus, inst.k, inst.top_degree, lam or 0.0)
        for spec, cube in inst.nodes
    ]
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    cubes = [cube for _, cube in inst.nodes]
    scale = int(lam is None)
    starts = scale + np.cumsum([0] + [blk[0].shape[1] for blk in blocks])
    cols = int(starts[-1])

    def diagonal(part: int) -> np.ndarray:
        out = np.zeros((sum(len(blk[part]) for blk in blocks), cols))
        row = 0
        for start, blk in zip(starts, blocks):
            out[row : row + len(blk[part]), start : start + blk[part].shape[1]] = blk[part]
            row += len(blk[part])
        return out

    low = np.array([mi_order(alpha) < degree for alpha in alphas])
    i, j = np.triu_indices(len(cubes), 1)
    deriv = deriv_matrix(inst.n, degree, alphas, [q.center for q in cubes])
    vals = np.concatenate([deriv[i], deriv[j][:, low]], axis=1) + 0.0
    gauges = pair_gauges(inst.modulus, degree, [*alphas, *compress(alphas, low)], cubes)(i, j)
    pairs = np.zeros((*gauges.shape, 2, cols))  # [pair, order, sign, column]
    pair, order = np.arange(len(i))[:, None, None], np.arange(gauges.shape[1])[:, None]
    coef_i = starts[i][:, None, None] + np.arange(len(alphas))
    coef_j = starts[j][:, None, None] + np.arange(len(alphas))
    for sign, (on_i, on_j) in enumerate(((vals, 0.0 - vals), (0.0 - vals, vals))):
        pairs[pair, order, sign, coef_i] = on_i
        pairs[pair, order, sign, coef_j] = on_j
    if lam is None:
        pairs[..., 0] = -gauges[:, :, None]
        b_pairs = np.zeros(2 * gauges.size)
    else:
        b_pairs = np.repeat(lam * gauges, 2)
    eye = np.eye(cols)
    box = _interleave(eye[scale:], 0.0 - eye[scale:])
    a_ub = np.vstack([diagonal(2), pairs.reshape(-1, cols), 0.0 - eye[:scale], box])
    b_box = np.full(len(box), COEF_BOX)
    b_ub = np.concatenate([*(blk[3] for blk in blocks), b_pairs, np.full(scale, -0.0), b_box])
    b_eq = np.concatenate([blk[1] for blk in blocks])
    return LPProblem(scale * eye[0], a_ub, b_ub, diagonal(0), b_eq), starts[:-1].tolist()


def _extract_polys(
    inst: SelectionInstance, sol_x: np.ndarray, starts: list[int]
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
    linearly through the scale variable.  The optimum equals the seminorm of
    the returned field.  Coefficient variables are boxed at +-1e6 as a safety
    net; an active box is flagged in the result.
    """
    problem, starts = _selection_lp(inst, None)
    sol = lp_solve(problem)
    if sol.status != "optimal":
        return SelectionResult(polys=(), lam=math.nan, status=sol.status, box_active=False)
    polys, box_active = _extract_polys(inst, sol.x, starts)
    return SelectionResult(
        polys=polys, lam=float(sol.x[0]), status="optimal", box_active=box_active
    )


def relaxed_feasible(inst: SelectionInstance, lam: float) -> SelectionResult:
    """Feasibility query at a fixed scale: is there one polynomial per node
    within the lam-relaxed set membership whose field satisfies the pairwise
    seminorm bound lam?  Raises ValueError unless lam is finite and
    non-negative.  An active coefficient box is flagged in the result."""
    problem, starts = _selection_lp(inst, lam)
    sol = lp_solve(problem)
    if sol.status != "optimal":
        return SelectionResult(polys=(), lam=lam, status=sol.status, box_active=False)
    polys, box_active = _extract_polys(inst, sol.x, starts)
    return SelectionResult(polys=polys, lam=lam, status="optimal", box_active=box_active)


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
