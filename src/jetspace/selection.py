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
from .lp import LPBuilder, lp_solve
from .modulus import Modulus
from .poly import Poly, deriv_matrix, mi_order, multi_indices, poly_space_dim
from .whitney import PolyField, pair_gauges

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
    builder: LPBuilder,
    tag: str,
    spec: ConvexSetSpec,
    cube: Cube,
    mod: Modulus,
    k: int,
    degree: int,
    lam: float,
) -> tuple[list[int], list[int]]:
    """Install the constraints tying a node's polynomial to its convex set.

    With lam = 0 the degree-k Taylor part at the center must equal a set
    member exactly (including vanishing of the member's content above order k);
    with lam > 0 the center derivatives up to order k may deviate from a set
    member by lam * r^(k-|a|) * w(r).  Returns the LP variable ids of the
    polynomial coefficients and of the affine coordinates.
    """
    if lam < 0:
        raise ValueError("relaxation scale must be non-negative")
    n = spec.base.n
    cvars = [builder.var(f"{tag}c{j}") for j in range(poly_space_dim(n, degree))]
    tvars = [builder.var(f"{tag}t{j}") for j in range(spec.dim)]
    x = cube.center
    r = cube.radius
    wr = mod.eval(r)
    low_orders = multi_indices(n, k)
    deriv = deriv_matrix(n, degree, low_orders, [x])[0].tolist()

    for alpha, vals in zip(low_orders, deriv):
        base_val = spec.base.deriv_eval(alpha, x)
        coeffs = {cv: val for cv, val in zip(cvars, vals) if val != 0.0}
        for tv, d in zip(tvars, spec.directions):
            coeffs[tv] = coeffs.get(tv, 0.0) - d.deriv_eval(alpha, x)
        if lam == 0.0:
            builder.add_eq(coeffs, base_val)
        else:
            slack = lam * r ** (k - mi_order(alpha)) * wr
            builder.add_le(coeffs, base_val + slack)
            builder.add_le({j: -v for j, v in coeffs.items()}, slack - base_val)
    if lam == 0.0:
        # content of the chosen member above order k must vanish for the
        # Taylor part to coincide with it as a polynomial
        top_member = max(
            [spec.base.degree, *(d.degree for d in spec.directions)], default=0
        )
        for alpha in multi_indices(n, top_member):
            if mi_order(alpha) <= k:
                continue
            base_val = spec.base.deriv_eval(alpha, x)
            coeffs = {}
            for tv, d in zip(tvars, spec.directions):
                dv = d.deriv_eval(alpha, x)
                if dv != 0.0:
                    coeffs[tv] = dv
            if coeffs or base_val != 0.0:
                builder.add_eq(coeffs, -base_val)
    for a_row, b_val in spec.inequalities:
        coeffs = {tv: av for tv, av in zip(tvars, a_row) if av != 0.0}
        builder.add_le(coeffs, b_val)
    return cvars, tvars


@dataclass(frozen=True)
class SelectionResult:
    polys: tuple[Poly, ...]
    lam: float
    status: str
    box_active: bool


def _pairwise_rows(
    builder: LPBuilder,
    inst: SelectionInstance,
    node_cvars: list[list[int]],
    lam_var: int | None,
    lam_fixed: float | None,
) -> None:
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    cubes = [cube for _, cube in inst.nodes]
    deriv = deriv_matrix(inst.n, degree, alphas, [q.center for q in cubes]).tolist()
    gauges = pair_gauges(inst.modulus, degree, alphas, cubes).tolist()
    # a top-order derivative is constant, so its rows at x_j repeat those at x_i
    top = [mi_order(alpha) == degree for alpha in alphas]
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            for at in (i, j):
                for vals, w, is_top in zip(deriv[at], gauges[i][j], top):
                    if is_top and at == j:
                        continue
                    row: dict[int, float] = {}
                    for idx, val in enumerate(vals):
                        if val != 0.0:
                            row[node_cvars[i][idx]] = val
                            row[node_cvars[j][idx]] = row.get(node_cvars[j][idx], 0.0) - val
                    for sign in (1.0, -1.0):
                        coeffs = {key: sign * val for key, val in row.items()}
                        if lam_var is not None:
                            coeffs[lam_var] = -w
                            builder.add_le(coeffs, 0.0)
                        else:
                            builder.add_le(coeffs, lam_fixed * w)


def _selection_rows(
    builder: LPBuilder, inst: SelectionInstance, lam_var: int | None, lam: float
) -> tuple[list[list[int]], list[int]]:
    """Membership blocks relaxed by lam, then pairwise rows bounded by lam_var
    (or by lam without it); returns node coefficient variables, boxed ones."""
    node_cvars: list[list[int]] = []
    boxed: list[int] = []
    for idx, (spec, cube) in enumerate(inst.nodes):
        cvars, tvars = membership_block(
            builder, f"n{idx}_", spec, cube, inst.modulus, inst.k, inst.top_degree, lam
        )
        node_cvars.append(cvars)
        boxed.extend(cvars + tvars)
    _pairwise_rows(builder, inst, node_cvars, lam_var, lam)
    return node_cvars, boxed


def _box_rows(builder: LPBuilder, var_ids: Sequence[int]) -> None:
    for vid in var_ids:
        builder.add_le({vid: 1.0}, COEF_BOX)
        builder.add_le({vid: -1.0}, COEF_BOX)


def _extract_polys(
    inst: SelectionInstance, sol_x: np.ndarray, node_cvars: list[list[int]]
) -> tuple[Poly, ...]:
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    polys = []
    for cvars in node_cvars:
        coefs = {alphas[j]: float(sol_x[cvars[j]]) for j in range(len(alphas))}
        polys.append(Poly(n=inst.n, degree=degree, coef=coefs))
    return tuple(polys)


def best_selection(inst: SelectionInstance) -> SelectionResult:
    """Choose one polynomial per node, exactly inside its set, minimizing the
    scale seminorm of the chosen field.

    A single LP: the seminorm bound enters each pairwise derivative row
    linearly through the scale variable.  The optimum equals the seminorm of
    the returned field.  Coefficient variables are boxed at +-1e6 as a safety
    net; an active box is flagged in the result.
    """
    builder = LPBuilder()
    lam_var = builder.var("lam")
    node_cvars, boxed = _selection_rows(builder, inst, lam_var, 0.0)
    builder.add_ge({lam_var: 1.0}, 0.0)
    _box_rows(builder, boxed)
    builder.minimize({lam_var: 1.0})
    sol = lp_solve(builder.build())
    if sol.status != "optimal":
        return SelectionResult(polys=(), lam=math.nan, status=sol.status, box_active=False)
    polys = _extract_polys(inst, sol.x, node_cvars)
    box_active = bool(
        boxed and max(abs(float(sol.x[v])) for v in boxed) >= COEF_BOX * (1 - 1e-6)
    )
    return SelectionResult(
        polys=polys, lam=float(sol.x[lam_var]), status="optimal", box_active=box_active
    )


def relaxed_feasible(inst: SelectionInstance, lam: float) -> SelectionResult:
    """Feasibility query at a fixed scale: is there one polynomial per node
    within the lam-relaxed set membership whose field satisfies the pairwise
    seminorm bound lam?"""
    builder = LPBuilder()
    node_cvars, boxed = _selection_rows(builder, inst, None, lam)
    _box_rows(builder, boxed)
    builder.minimize({})
    sol = lp_solve(builder.build())
    if sol.status != "optimal":
        return SelectionResult(polys=(), lam=lam, status=sol.status, box_active=False)
    polys = _extract_polys(inst, sol.x, node_cvars)
    return SelectionResult(polys=polys, lam=lam, status="optimal", box_active=False)


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
