"""Selection LP, membership blocks, subset experiment, counterexample table."""

import math
import tracemalloc

import numpy as np
import pytest

from jetspace import lp, selection
from jetspace.cubes import Cube, point_sub, uniform_norm
from jetspace.jets import gauge
from jetspace.lp import LPBuilder, LPProblem, LPSolution, lp_solve
from jetspace.modulus import Modulus
from jetspace.poly import Poly, deriv_matrix, mi_order, multi_indices, poly_space_dim
from jetspace.selection import (
    ConvexSetSpec,
    SelectionInstance,
    best_selection,
    counterexample_family,
    finiteness_experiment,
    membership_block,
    relaxed_feasible,
    selection_field,
    _SelectionLP,
)
from jetspace.whitney import lo_seminorm, pair_gauges

MOD1 = Modulus.power(1, 1)


def singleton(n, k, coef):
    return ConvexSetSpec(base=Poly(n, k, coef))


def interval_set(lo, hi):
    """Constant polynomials with value in [lo, hi]."""
    return ConvexSetSpec(
        base=Poly.zero(1, 0),
        directions=(Poly(1, 0, {(0,): 1.0}),),
        inequalities=(((1.0,), hi), ((-1.0,), -lo)),
    )


def test_convex_set_validation():
    with pytest.raises(ValueError):
        ConvexSetSpec(
            base=Poly.zero(1, 1),
            directions=(Poly(1, 1, {(1,): 1.0}), Poly(1, 1, {(1,): 2.0})),
        )
    with pytest.raises(ValueError):
        ConvexSetSpec(
            base=Poly.zero(1, 0),
            directions=(Poly(1, 0, {(0,): 1.0}),),
            inequalities=(((1.0, 2.0), 1.0),),
        )


def test_instance_validation():
    with pytest.raises(ValueError):
        SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=())
    q = Cube((0.0,), 1.0)
    with pytest.raises(ValueError):
        SelectionInstance(
            n=1, k=0, m=1, modulus=MOD1,
            nodes=((singleton(1, 0, {}), q), (singleton(1, 0, {}), q)),
        )
    with pytest.raises(ValueError):
        SelectionInstance(
            n=1, k=0, m=2, modulus=MOD1, nodes=((singleton(1, 0, {}), q),)
        )


def _singleton_instance():
    nodes = (
        (singleton(1, 1, {(0,): 0.0, (1,): 0.0}), Cube((0.0,), 1.0)),
        (singleton(1, 1, {(0,): 1.0, (1,): 0.5}), Cube((2.0,), 0.5)),
        (singleton(1, 1, {(0,): -1.0, (1,): 2.0}), Cube((-1.0,), 2.0)),
    )
    return SelectionInstance(n=1, k=1, m=1, modulus=MOD1, nodes=nodes)


def test_singleton_selection_matches_seminorm():
    inst = _singleton_instance()
    res = best_selection(inst)
    assert res.status == "optimal"
    field = selection_field(inst, res.polys)
    assert res.lam == pytest.approx(lo_seminorm(field, MOD1).value, abs=1e-10)
    # the sets are points, so the polynomials are pinned
    for (spec, _), poly in zip(inst.nodes, res.polys):
        for a in multi_indices(1, 1):
            assert poly.coef.get(a, 0.0) == pytest.approx(
                spec.base.coef.get(a, 0.0), abs=1e-9
            )


def test_full_space_selection_reaches_zero():
    full = ConvexSetSpec(
        base=Poly.zero(1, 1),
        directions=(Poly(1, 1, {(0,): 1.0}), Poly(1, 1, {(1,): 1.0})),
    )
    nodes = tuple(
        (full, c) for c in (Cube((0.0,), 1.0), Cube((2.0,), 0.5), Cube((-1.0,), 2.0))
    )
    inst = SelectionInstance(n=1, k=1, m=1, modulus=MOD1, nodes=nodes)
    res = best_selection(inst)
    assert res.lam <= 1e-10


def _interval_instance():
    nodes = (
        (interval_set(0.0, 0.2), Cube((0.0,), 1.0)),
        (interval_set(1.0, 1.5), Cube((1.0,), 1.0)),
        (interval_set(-2.0, -1.2), Cube((3.0,), 0.5)),
    )
    return SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=nodes)


def _grid_oracle(inst, bounds, rounds=8, grid=9):
    """Nested grid refinement over the affine coordinates (sets are pinned
    once theta is fixed, because the context has order 1)."""
    from jetspace.jets import gauge

    def objective(thetas):
        polys = []
        for (spec, _), th in zip(inst.nodes, thetas):
            p = spec.base
            for d, t in zip(spec.directions, (th,)):
                p = p + d.scale(t)
            polys.append(p)
        worst = 0.0
        deg = inst.top_degree
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                qi, qj = inst.nodes[i][1], inst.nodes[j][1]
                sep = max(abs(a - b) for a, b in zip(qi.center, qj.center))
                t = max(qi.radius, qj.radius) + sep
                v = min(qi.radius, qj.radius)
                diff = polys[i] - polys[j]
                for al in multi_indices(inst.n, deg):
                    w = gauge(inst.modulus, deg, al, t, v)
                    for y in (qi.center, qj.center):
                        worst = max(worst, abs(diff.deriv_eval(al, y)) / w)
        return worst

    centers = [0.5 * (lo + hi) for lo, hi in bounds]
    widths = [0.5 * (hi - lo) for lo, hi in bounds]
    best = math.inf
    for _ in range(rounds):
        axes = [
            np.clip(np.linspace(c - w, c + w, grid), lo, hi)
            for c, w, (lo, hi) in zip(centers, widths, bounds)
        ]
        best_pt = None
        for a in axes[0]:
            for b in axes[1]:
                for c in axes[2]:
                    val = objective((a, b, c))
                    if val < best:
                        best, best_pt = val, (a, b, c)
        if best_pt is not None:
            centers = list(best_pt)
        widths = [w / 4 for w in widths]
    return best


def test_interval_instance_matches_grid_oracle():
    inst = _interval_instance()
    res = best_selection(inst)
    oracle = _grid_oracle(inst, [(0.0, 0.2), (1.0, 1.5), (-2.0, -1.2)])
    assert res.lam == pytest.approx(oracle, abs=1e-4)


def test_random_interval_instances_match_grid_oracle():
    rng = np.random.default_rng(37)
    for _ in range(15):
        bounds = []
        nodes = []
        for j in range(3):
            lo = float(rng.uniform(-2, 2))
            hi = lo + float(rng.uniform(0.05, 1.0))
            bounds.append((lo, hi))
            nodes.append(
                (
                    interval_set(lo, hi),
                    Cube((float(rng.uniform(-3, 3)) + 2.5 * j,), float(rng.uniform(0.2, 1.5))),
                )
            )
        inst = SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=tuple(nodes))
        lam = best_selection(inst).lam
        oracle = _grid_oracle(inst, bounds)
        assert lam == pytest.approx(oracle, abs=1e-4)


def test_selection_invariant_under_reordering():
    inst = _interval_instance()
    lam = best_selection(inst).lam
    perm = SelectionInstance(
        n=1, k=0, m=1, modulus=MOD1, nodes=(inst.nodes[2], inst.nodes[0], inst.nodes[1])
    )
    assert best_selection(perm).lam == pytest.approx(lam, rel=1e-10)


def test_selection_invariant_under_translation():
    inst = _interval_instance()
    lam = best_selection(inst).lam
    shift = 5.0
    nodes = tuple(
        (spec, Cube((cube.center[0] + shift,), cube.radius)) for spec, cube in inst.nodes
    )
    moved = SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=nodes)
    assert best_selection(moved).lam == pytest.approx(lam, rel=1e-9)


def test_selection_lambda_equals_field_seminorm():
    inst = _interval_instance()
    res = best_selection(inst)
    field = selection_field(inst, res.polys)
    assert res.lam == pytest.approx(lo_seminorm(field, MOD1).value, abs=1e-9)


# -- membership blocks --------------------------------------------------------------


def _block_lp(block, extra_eq=()):
    """The LP of one membership block alone, with zero objective and
    optional extra equality rows (coefficients, right-hand side)."""
    a_eq, b_eq, a_ub, b_ub = block
    for coeffs, rhs in extra_eq:
        a_eq = np.vstack([a_eq, coeffs])
        b_eq = np.append(b_eq, rhs)
    return LPProblem(np.zeros(a_eq.shape[1]), a_ub, b_ub, a_eq, b_eq)


def test_membership_block_exact_singleton():
    spec = singleton(1, 0, {(0,): 2.0})
    cube = Cube((0.0,), 1.0)
    sol = lp_solve(_block_lp(membership_block(spec, cube, MOD1, 0, 0, 0.0)))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-10)


def test_membership_relaxation_nested():
    # an out-of-interval target becomes reachable once the slack is wide enough
    spec = interval_set(0.0, 1.0)
    cube = Cube((0.0,), 1.0)
    for lam, feasible in ((0.1, False), (5.0, True)):
        block = membership_block(spec, cube, MOD1, 0, 0, lam)
        # force the polynomial value to 3
        problem = _block_lp(block, extra_eq=[([1.0, 0.0], 3.0)])
        assert (lp_solve(problem).status == "optimal") == feasible


def test_membership_block_above_order_content():
    # a set living above the Taylor order forces infeasibility at lam = 0
    spec = singleton(1, 1, {(1,): 1.0})
    cube = Cube((0.0,), 1.0)
    problem = _block_lp(membership_block(spec, cube, MOD1, 0, 1, 0.0))
    assert lp_solve(problem).status == "infeasible"


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_scale_is_rejected(lam):
    inst = _interval_instance()
    spec, cube = inst.nodes[0]
    with pytest.raises(ValueError):
        relaxed_feasible(inst, lam)
    with pytest.raises(ValueError):
        membership_block(spec, cube, MOD1, 0, 0, lam)


def test_relaxed_feasible_threshold():
    inst = _interval_instance()
    lam = best_selection(inst).lam
    assert relaxed_feasible(inst, lam * 1.05).status == "optimal"
    assert relaxed_feasible(inst, lam * 0.5).status == "infeasible"


def test_relaxed_feasibility_is_monotone_in_scale():
    # the relaxed sets are nested, so feasibility never flips back off
    inst = _interval_instance()
    lam = best_selection(inst).lam
    seen_feasible = False
    for factor in (0.2, 0.6, 0.9, 1.1, 2.0, 10.0):
        ok = relaxed_feasible(inst, lam * factor).status == "optimal"
        assert not (seen_feasible and not ok)
        seen_feasible = seen_feasible or ok
    assert seen_feasible


# -- finiteness experiment ------------------------------------------------------------


def test_finiteness_singletons_pairwise_max():
    inst = _singleton_instance()
    rep = finiteness_experiment(inst, ell=0)
    assert rep.subset_size_bound == 2
    assert rep.exhaustive and rep.subset_count == 3
    assert rep.gamma_hat == pytest.approx(1.0, abs=1e-9)


def test_finiteness_interval_instance():
    nodes = (
        (interval_set(0.0, 0.2), Cube((0.0,), 1.0)),
        (interval_set(1.0, 1.5), Cube((1.0,), 1.0)),
        (interval_set(-2.0, -1.2), Cube((3.0,), 0.5)),
        (interval_set(0.5, 0.6), Cube((-2.0,), 1.0)),
    )
    inst = SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=nodes)
    # constants: the polynomial space is one-dimensional, so the bound is 2
    rep = finiteness_experiment(inst)
    assert rep.subset_size_bound == 2
    assert rep.exhaustive and rep.subset_count == 6
    assert rep.gamma_hat >= 1.0 - 1e-9
    assert rep.lam_full >= rep.max_subset_lam - 1e-12


def test_finiteness_budget_sampling():
    rng = np.random.default_rng(31)
    nodes = tuple(
        (interval_set(float(v), float(v) + 0.1), Cube((float(x),), 1.0))
        for v, x in zip(rng.uniform(-2, 2, size=8), np.arange(8) * 1.5)
    )
    inst = SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=nodes)
    rep = finiteness_experiment(inst, ell=3, budget=10, seed=7)
    # bound stays at 2 (dim of constants is 1): plenty of pairs, tiny budget
    assert not rep.exhaustive
    assert rep.subset_count <= 10
    rep2 = finiteness_experiment(inst, ell=3, budget=10, seed=7)
    assert rep.subset_lams == rep2.subset_lams  # seeded determinism


def test_finiteness_instance_too_small():
    inst = _interval_instance()
    sub = inst.subset([0])
    with pytest.raises(ValueError):
        finiteness_experiment(sub, ell=0)
    for ell, budget in ((-1, 10), (-2, 10), (0, 0)):
        with pytest.raises(ValueError, match="experiment (ell|budget)"):
            finiteness_experiment(inst, ell=ell, budget=budget)


# -- counterexample table ---------------------------------------------------------------


def test_counterexample_values():
    rows = counterexample_family(8)
    for row in rows:
        assert row.step_distance == math.ldexp(1.0, -row.i * row.i)
        assert row.log_distance == pytest.approx(
            math.log1p(2.0 ** (2 * row.i + 1)), abs=1e-12
        )
    assert rows[0].log_distance == pytest.approx(math.log(9.0), rel=1e-12)
    assert rows[1].log_distance == pytest.approx(math.log(33.0), rel=1e-12)


def test_counterexample_monotonicity():
    rows = counterexample_family(10)
    steps = [r.step_distance for r in rows]
    logs = [r.log_distance for r in rows]
    assert all(a > b for a, b in zip(steps, steps[1:]))
    assert all(a < b for a, b in zip(logs, logs[1:]))


def test_counterexample_bounds():
    with pytest.raises(ValueError):
        counterexample_family(0)
    with pytest.raises(ValueError):
        counterexample_family(31)
    assert len(counterexample_family(30)) == 30


# -- the selection LP against the row-by-row builders it replaced -------------------


def _oracle_membership_block(builder, tag, spec, cube, mod, k, degree, lam):
    """A membership block added to an LPBuilder one dict row at a time;
    returns the LP variable ids of the coefficients and affine coordinates."""
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


def _oracle_pairwise_rows(builder, inst, node_cvars, lam_var, lam_fixed):
    """The pairwise rows one dict per row, from the exact derivative matrix
    and the pair gauges; the rows at x_j skip the top orders."""
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    cubes = [cube for _, cube in inst.nodes]
    deriv = deriv_matrix(inst.n, degree, alphas, [q.center for q in cubes]).tolist()
    gauges = pair_gauges(inst.modulus, degree, alphas, cubes)
    top = [mi_order(alpha) == degree for alpha in alphas]
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            for at in (i, j):
                for vals, w, is_top in zip(deriv[at], gauges(i, j).tolist(), top):
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


def _scalar_pairwise_rows(builder, inst, node_cvars, lam_var, lam_fixed):
    """The pairwise LP rows as built one Poly per coefficient, every order at
    both centers."""
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    for i in range(len(inst.nodes)):
        for j in range(i + 1, len(inst.nodes)):
            _, qi = inst.nodes[i]
            _, qj = inst.nodes[j]
            sep = uniform_norm(point_sub(qi.center, qj.center))
            t = max(qi.radius, qj.radius) + sep
            v = min(qi.radius, qj.radius)
            for y in (qi.center, qj.center):
                for alpha in alphas:
                    w = gauge(inst.modulus, degree, alpha, t, v)
                    row: dict[int, float] = {}
                    for idx, beta in enumerate(alphas):
                        val = Poly(inst.n, degree, {beta: 1.0}).deriv_eval(alpha, y)
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


def _oracle_selection_lp(inst, lam, pairwise_rows=_oracle_pairwise_rows):
    """The selection LP through LPBuilder: with lam None the scale variable,
    exact membership, pairwise rows bounded by the scale, the scale's sign
    row; otherwise membership relaxed by lam and pairwise rows bounded by
    lam.  Then every node variable boxed."""
    builder = LPBuilder()
    lam_var = builder.var("lam") if lam is None else None
    node_cvars, boxed = [], []
    for idx, (spec, cube) in enumerate(inst.nodes):
        cvars, tvars = _oracle_membership_block(
            builder, f"n{idx}_", spec, cube, inst.modulus, inst.k, inst.top_degree,
            lam or 0.0,
        )
        node_cvars.append(cvars)
        boxed.extend(cvars + tvars)
    pairwise_rows(builder, inst, node_cvars, lam_var, lam)
    if lam_var is not None:
        builder.add_ge({lam_var: 1.0}, 0.0)
    for vid in boxed:
        builder.add_le({vid: 1.0}, selection.COEF_BOX)
        builder.add_le({vid: -1.0}, selection.COEF_BOX)
    builder.minimize({} if lam_var is None else {lam_var: 1.0})
    return builder.build()


def _select_1d_instance(rng, nodes):
    mod = Modulus.power(1.0, 2)
    out = []
    for _ in range(nodes):
        lo = float(rng.uniform(-2.0, 2.0))
        cube = Cube((float(rng.uniform(-6.0, 6.0)),), float(rng.uniform(0.2, 1.5)))
        out.append((interval_set(lo, lo + float(rng.uniform(0.05, 1.0))), cube))
    return SelectionInstance(n=1, k=0, m=2, modulus=mod, nodes=tuple(out))


def _jet_instance_2d(rng, nodes):
    mod = Modulus.power(1.5, 2)
    out = []
    for _ in range(nodes):
        coef = {a: float(rng.uniform(-2, 2)) for a in multi_indices(2, 1)}
        cube = Cube(tuple(float(c) for c in rng.uniform(-3, 3, size=2)), float(rng.uniform(0.2, 1.5)))
        out.append((singleton(2, 1, coef), cube))
    return SelectionInstance(n=2, k=1, m=2, modulus=mod, nodes=tuple(out))


def _slab_instance_2d(rng, nodes):
    """2-D nodes whose sets are a base plus two directions cut by three
    half-planes, some entries exactly +-0.0, and content up to the top degree."""
    mod = Modulus.power(1.0, 2)
    alphas = multi_indices(2, 2)

    def poly():
        return Poly(2, 2, {a: float(rng.choice([0.0, rng.uniform(-2, 2)])) for a in alphas})

    out = []
    for idx in range(nodes):
        ineqs = tuple(
            ((float(rng.uniform(-1, 1)), float(rng.choice([0.0, -0.0, 1.0]))), float(b))
            for b in rng.uniform(-0.5, 2.0, size=3)
        )
        while True:
            dirs = (poly(), poly())
            try:
                spec = ConvexSetSpec(base=poly(), directions=dirs, inequalities=ineqs)
                break
            except ValueError:
                continue
        center = (-0.0, 0.0) if idx == 0 else tuple(float(c) for c in rng.uniform(-3, 3, 2))
        out.append((spec, Cube(center, float(rng.uniform(0.2, 1.5)))))
    return SelectionInstance(n=2, k=1, m=2, modulus=mod, nodes=tuple(out))


def _above_order_instance():
    """Sets with content above order k = 0 (the top degree is 1), one cube
    centred at -0.0."""
    line = ConvexSetSpec(
        base=Poly(1, 1, {(0,): 0.5, (1,): 1.0}),
        directions=(Poly(1, 1, {(1,): 2.0}), Poly(1, 1, {(0,): 1.0})),
        inequalities=(((1.0, -0.0), 1.0), ((-1.0, 0.0), -0.0)),
    )
    nodes = (
        (line, Cube((-0.0,), 1.0)),
        (interval_set(0.0, 0.5), Cube((2.0,), 0.5)),
        (singleton(1, 1, {(1,): -1.0}), Cube((-3.0,), 2.0)),
    )
    return SelectionInstance(n=1, k=0, m=2, modulus=Modulus.power(1.0, 2), nodes=nodes)


def _recorded_problems(monkeypatch, inst, lams):
    """The start LPs best_selection (lam None) and relaxed_feasible pass to
    lp_solve, which is stubbed out."""
    problems = []

    def recording_lp_solve(problem, separate=None):
        problems.append(problem)
        return LPSolution(status="infeasible")

    monkeypatch.setattr(selection, "lp_solve", recording_lp_solve)
    for lam in lams:
        best_selection(inst) if lam is None else relaxed_feasible(inst, lam)
    return problems


def _lp_bytes(problem):
    return [
        getattr(problem, name).tobytes()
        for name in ("objective", "a_ub", "b_ub", "a_eq", "b_eq")
    ]


def _pairwise_end(problem, lam):
    """Where a selection LP's pairwise rows end: the scale row (if any) and
    the box rows follow them."""
    scale = int(lam is None)
    return problem.b_ub.size - 2 * (problem.objective.size - scale) - scale


def _pairwise_block(problem, inst, lam):
    """The slice of the full LP's inequality rows that its pairwise rows
    fill, after the membership rows."""
    pairs = len(inst.nodes) * (len(inst.nodes) - 1) // 2
    alphas = multi_indices(inst.n, inst.top_degree)
    rows = 2 * pairs * (2 * len(alphas) - sum(mi_order(a) == inst.top_degree for a in alphas))
    end = _pairwise_end(problem, lam)
    return slice(end - rows, end)


def _full_selection_lp(inst, lam):
    """The full selection LP from ``_SelectionLP``: its start LP with the
    pairwise rows of every bound in place of those it starts with."""
    lp_ = _SelectionLP(inst, lam)
    start = lp_.problem
    a_pairs, b_pairs = lp_.rows(lp_.i, lp_.j, lp_.order)
    end = _pairwise_end(start, lam)
    begin = end - 2 * int(lp_.present.sum())
    a_ub = np.vstack([start.a_ub[:begin], a_pairs, start.a_ub[end:]])
    b_ub = np.concatenate([start.b_ub[:begin], b_pairs, start.b_ub[end:]])
    return LPProblem(start.objective, a_ub, b_ub, start.a_eq, start.b_eq)


def test_selection_lp_bit_identical_to_builder_oracle(monkeypatch):
    # the start LP that best_selection and relaxed_feasible pass to lp_solve
    # is the oracle's full LP without the pairwise rows it does not start
    # with, bit for bit; the row helper gives the oracle's pairwise rows for
    # any (i, j, order) bounds, every bound in order and a shuffled subset
    rng = np.random.default_rng(29)
    instances = [
        *(_select_workload_instance(_op_seed(1, op), 24) for op in (0, 42, 121)),
        _select_1d_instance(rng, 8),
        _jet_instance_2d(rng, 5),
        _slab_instance_2d(rng, 4),
        _above_order_instance(),
        _interval_instance().subset([0]),
    ]
    lams = (None, 0.0, 0.7, 1e-3)
    for inst in instances:
        problems = _recorded_problems(monkeypatch, inst, lams)
        for lam, problem in zip(lams, problems):
            oracle, lp_ = _oracle_selection_lp(inst, lam), _SelectionLP(inst, lam)
            block = _pairwise_block(oracle, inst, lam)
            keep = np.ones(oracle.b_ub.size, dtype=bool)
            keep[block] = np.repeat(lp_.present, 2)
            start = LPProblem(oracle.objective, oracle.a_ub[keep], oracle.b_ub[keep], oracle.a_eq, oracle.b_eq)
            assert _lp_bytes(problem) == _lp_bytes(start)
            a_pairs, b_pairs = lp_.rows(lp_.i, lp_.j, lp_.order)
            assert a_pairs.tobytes() == oracle.a_ub[block].tobytes()
            assert b_pairs.tobytes() == oracle.b_ub[block].tobytes()
            some = rng.permutation(lp_.order.size)[: lp_.order.size // 2]
            a_some, b_some = lp_.rows(lp_.i[some], lp_.j[some], lp_.order[some])
            rows = np.stack([2 * some, 2 * some + 1], axis=1).ravel()
            assert a_some.tobytes() == oracle.a_ub[block][rows].tobytes()
            assert b_some.tobytes() == oracle.b_ub[block][rows].tobytes()


def _without_repeated_top_rows(problem, inst):
    """The scalar oracle's inequality rows without the second copy of each
    top-order pairwise row: a pair's rows at x_j repeat its top-order rows at
    x_i, which this asserts bit for bit before dropping them.  The pairwise
    rows end where the scale row (if any) and the box rows begin."""
    degree = inst.top_degree
    alphas = multi_indices(inst.n, degree)
    pairs = len(inst.nodes) * (len(inst.nodes) - 1) // 2
    block = 2 * len(alphas)  # a pair's rows at one center: each order, both signs
    a, b = problem.a_ub, problem.b_ub
    boxed = sum(poly_space_dim(inst.n, degree) + spec.dim for spec, _ in inst.nodes)
    end = b.size - 2 * boxed - (problem.objective.size - boxed)
    keep = np.ones(b.size, dtype=bool)
    for pair in range(pairs):
        at_i = end - (pairs - pair) * 2 * block
        for idx, alpha in enumerate(alphas):
            if mi_order(alpha) == degree:
                for row in (at_i + 2 * idx, at_i + 2 * idx + 1):
                    assert a[row + block].tobytes() == a[row].tobytes()
                    assert b[row + block].tobytes() == b[row].tobytes()
                    keep[row + block] = False
    return a[keep], b[keep]


@pytest.mark.parametrize("lam_fixed", [None, 0.7])
def test_pairwise_rows_bit_identical_to_scalar_oracle(lam_fixed):
    rng = np.random.default_rng(61)
    for inst in (_select_1d_instance(rng, 8), _jet_instance_2d(rng, 5)):
        new = _full_selection_lp(inst, lam_fixed)
        old = _oracle_selection_lp(inst, lam_fixed, _scalar_pairwise_rows)
        a_ub, b_ub = _without_repeated_top_rows(old, inst)
        # the gauges (the scale's column, or the right-hand sides at a fixed
        # scale) come from Modulus.core_integrals, within ulps of gauge's
        got, want = (new.a_ub[:, 0], a_ub[:, 0]) if lam_fixed is None else (new.b_ub, b_ub)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        if lam_fixed is None:
            assert new.a_ub[:, 1:].tobytes() == a_ub[:, 1:].tobytes()
            assert new.b_ub.tobytes() == b_ub.tobytes()
        else:
            assert new.a_ub.tobytes() == a_ub.tobytes()
        assert new.a_eq.tobytes() == old.a_eq.tobytes()


def _recording_lp_solve(solved):
    """lp_solve that appends each (start problem, solution) to ``solved``."""

    def recording_lp_solve(problem, separate=None):
        solved.append((problem, lp_solve(problem, separate)))
        return solved[-1][1]

    return recording_lp_solve


def test_selection_lp_objective_matches_highs(monkeypatch):
    # the select workload's shape: 1-D interval sets, k=0, m=2, power q=1.
    # HiGHS solves the full LP, every pairwise row in it
    optimize = pytest.importorskip("scipy.optimize")
    solved = []
    monkeypatch.setattr(selection, "lp_solve", _recording_lp_solve(solved))
    rng = np.random.default_rng(1)
    for nodes in (8, 12, 16, 24) * 3:
        spec = []
        for _ in range(nodes):
            x, r, lo = rng.uniform(-6.0, 6.0), rng.uniform(0.2, 1.5), rng.uniform(-2.0, 2.0)
            spec.append((interval_set(lo, lo + rng.uniform(0.05, 1.0)), Cube((x,), r)))
        inst = SelectionInstance(n=1, k=0, m=2, modulus=Modulus.power(1, 2), nodes=tuple(spec))
        res = best_selection(inst)
        _, sol = solved[-1]
        problem = _oracle_selection_lp(inst, None)
        ref = optimize.linprog(
            problem.objective,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=(None, None),
            method="highs",
        )
        assert ref.status == 0 and sol.status == res.status == "optimal"
        assert res.lam == sol.objective == pytest.approx(ref.fun, rel=1e-9)
        # the box rows and -scale <= -0 start every row of the dual
        assert sol.pivots[0] == 0
    assert len(solved) == 12


def test_relaxed_feasible_status_matches_highs(monkeypatch):
    # the select workload's shape, just below and just above the optimum,
    # and at half of it, where the relaxed LP is often infeasible.  HiGHS
    # solves the full LP
    from test_lp import _highs

    rng = np.random.default_rng(1)
    for nodes in (8, 12, 16, 24) * 2:
        spec = []
        for _ in range(nodes):
            x, r, lo = rng.uniform(-6.0, 6.0), rng.uniform(0.2, 1.5), rng.uniform(-2.0, 2.0)
            spec.append((interval_set(lo, lo + rng.uniform(0.05, 1.0)), Cube((x,), r)))
        inst = SelectionInstance(n=1, k=0, m=2, modulus=Modulus.power(1, 2), nodes=tuple(spec))
        lam = best_selection(inst).lam
        for factor in (0.5, 0.95, 1.05):
            solved = []
            with monkeypatch.context() as patch:
                patch.setattr(selection, "lp_solve", _recording_lp_solve(solved))
                res = relaxed_feasible(inst, lam * factor)
            (_, sol), = solved
            assert res.status == sol.status == _highs(_oracle_selection_lp(inst, lam * factor))[0]


def _op_seed(workload_seed, index):
    seq = np.random.SeedSequence(entropy=workload_seed, spawn_key=(index,))
    return int(seq.generate_state(1)[0])


def _select_workload_instance(seed, nodes):
    """An input of the select benchmark workload: its generator's draws, in
    its order, for op seed ``seed``."""
    rng = np.random.default_rng(seed)
    spec = []
    for _ in range(nodes):
        x, r, lo = rng.uniform(-6.0, 6.0), rng.uniform(0.2, 1.5), rng.uniform(-2.0, 2.0)
        spec.append((interval_set(lo, lo + rng.uniform(0.05, 1.0)), Cube((x,), r)))
    return SelectionInstance(n=1, k=0, m=2, modulus=Modulus.power(1, 2), nodes=tuple(spec))


@pytest.mark.parametrize(
    "op, nodes",
    [(42, 24), (121, 24), (0, 48), (0, 64)],
    ids=["op42", "op121", "48-nodes", "64-nodes"],
)
def test_select_workload_lp_matches_highs(monkeypatch, op, nodes):
    # two inputs the select benchmark runs (ops 42 and 121 of workload seed
    # 1), and the generator at 48 and 64 nodes, whose full LPs have 7,201
    # and 12,673 rows; HiGHS solves the full LP
    from test_lp import _highs

    solved = []
    monkeypatch.setattr(selection, "lp_solve", _recording_lp_solve(solved))
    inst = _select_workload_instance(_op_seed(1, op), nodes)
    res = best_selection(inst)
    (_, sol), = solved
    problem = _oracle_selection_lp(inst, None)
    assert problem.b_ub.size + problem.b_eq.size == {24: 1873, 48: 7201, 64: 12673}[nodes]
    status, fun = _highs(problem)
    assert status == sol.status == res.status == "optimal"
    assert res.lam == pytest.approx(fun, rel=1e-9)
    assert sol.pivots[0] == 0
    assert res.lam == pytest.approx(lo_seminorm(selection_field(inst, res.polys), inst.modulus).value, rel=1e-9)


def test_selection_lp_memory_peak():
    # the revised dual engine holds the dual's original columns (a row per
    # variable) and the n x n basis inverse, no tableau; a primal tableau with
    # a row per constraint (and an m x m slack block) peaks above 50 MiB here
    inst = _select_workload_instance(_op_seed(1, 0), 24)
    tracemalloc.start()
    try:
        best_selection(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


@pytest.mark.parametrize(
    "lift, branch",
    [(lp._LIFT, "lifts"), (0.0, "bland_pivots"), (0.5, "restarts")],
    ids=["lift", "zero-lift", "large-lift"],
)
def test_degenerate_stalls_match_highs(monkeypatch, lift, branch):
    # the full 32-node selection LPs stall on degenerate pivots.  The
    # default lift breaks the stalls; a zero lift leaves them to Bland's
    # rule; a lift of half the largest basic value reaches bases that are
    # infeasible once it is undone, so those runs resume from where the
    # lift started.  The solver's count of the branch named shows that it ran
    from test_lp import _highs

    monkeypatch.setattr(lp, "_LIFT", lift)
    taken = 0
    for op in range(4):
        inst = _select_workload_instance(_op_seed(1, op), 32)
        problem = _oracle_selection_lp(inst, None)
        sol = lp.lp_solve(problem)
        status, fun = _highs(problem)
        assert sol.status == status == "optimal"
        assert sol.objective == pytest.approx(fun, rel=1e-9)
        assert best_selection(inst).lam == pytest.approx(fun, rel=1e-9)
        taken += getattr(sol, branch)
    assert taken > 0


# -- coefficient box ----------------------------------------------------------------------


def _unbounded_instance():
    """Three constant lines base + span(1): nothing but the box bounds the
    coefficients, and the LP optimum sits on it."""
    bases = (0.2739233746429086, -0.4604265724722594, -0.9180529521276106)
    line = (Poly(1, 0, {(0,): 1.0}),)
    nodes = tuple(
        (ConvexSetSpec(base=Poly(1, 0, {(0,): b}), directions=line), Cube((float(i),), 0.5))
        for i, b in enumerate(bases)
    )
    return SelectionInstance(n=1, k=0, m=1, modulus=Modulus.power(1.0, 1), nodes=nodes)


def test_best_selection_flags_an_active_box():
    assert best_selection(_unbounded_instance()).box_active
    assert not best_selection(_singleton_instance()).box_active


def test_relaxed_feasible_flags_an_active_box():
    res = relaxed_feasible(_unbounded_instance(), 0.1)
    assert res.status == "optimal" and res.box_active
    assert max(abs(c) for p in res.polys for c in p.coef.values()) > 0.99 * selection.COEF_BOX
    assert not relaxed_feasible(_singleton_instance(), 10.0).box_active


def test_finiteness_when_every_subset_optimum_is_zero():
    same = singleton(1, 0, {(0,): 0.5})
    nodes = tuple((same, Cube((float(x),), 1.0)) for x in range(3))
    rep = finiteness_experiment(SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=nodes))
    assert rep.lam_full == rep.max_subset_lam == 0.0
    assert rep.gamma_hat == 1.0


def test_instance_and_set_dimension_and_degree_checks():
    cube = Cube((0.0,), 1.0)
    with pytest.raises(ValueError, match="node dimension mismatch"):
        SelectionInstance(n=2, k=0, m=1, modulus=MOD1, nodes=((singleton(1, 0, {}), cube),))
    with pytest.raises(ValueError, match="node dimension mismatch"):
        SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=((singleton(2, 0, {}), cube),))
    with pytest.raises(ValueError, match="exceed the context degree bound"):
        SelectionInstance(n=1, k=0, m=1, modulus=MOD1, nodes=((singleton(1, 1, {}), cube),))
    with pytest.raises(ValueError, match="modulus order does not match"):
        SelectionInstance(n=1, k=0, m=2, modulus=MOD1, nodes=((singleton(1, 1, {}), cube),))
    with pytest.raises(ValueError, match="direction dimension mismatch"):
        ConvexSetSpec(base=Poly.zero(1, 0), directions=(Poly(2, 0, {(0, 0): 1.0}),))
    with pytest.raises(ValueError, match="row length"):
        ConvexSetSpec(
            base=Poly.zero(1, 0),
            directions=(Poly(1, 0, {(0,): 1.0}),),
            inequalities=(((1.0, 0.0), 1.0),),
        )


# -- constraint generation against the full LP --------------------------------------


def test_generated_optimum_is_the_full_optimum_on_every_select_input():
    # the 128 inputs of the select benchmark (workload seed 1): the least
    # scale equals the full LP's optimum, the seminorm of the returned
    # field, and the optimum on the witness nodes alone
    for op in range(128):
        inst = _select_workload_instance(_op_seed(1, op), 24)
        res = best_selection(inst)
        full = lp_solve(_oracle_selection_lp(inst, None))
        assert res.status == full.status == "optimal"
        assert res.lam == pytest.approx(full.objective, rel=1e-9)
        field = selection_field(inst, res.polys)
        assert lo_seminorm(field, inst.modulus).value == pytest.approx(res.lam, rel=1e-9)
        assert 2 <= len(res.witness) < len(inst.nodes)
        assert best_selection(inst.subset(res.witness)).lam == pytest.approx(res.lam, rel=1e-9)


def test_generated_rows_stay_few():
    # deterministic counts at 64 nodes: the LP ends with at most a quarter
    # of the full LP's 12,096 pairwise rows
    inst = _select_workload_instance(_op_seed(1, 0), 64)
    res = best_selection(inst)
    full_pairwise = 64 * 63 // 2 * 6
    assert res.rounds >= 2
    assert res.generated_rows <= full_pairwise // 4
    assert best_selection(inst) == res
