"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Criteria are numbered for cross-reference with the README.
"""

import itertools
import math
import time

import numpy as np
import pytest

from jetspace.cubes import Cube, cube_family
from jetspace.jets import (
    Jet,
    jet_distance,
    jet_distance_componentwise,
    jet_distance_via_value_gauge,
)
from jetspace.modulus import Modulus
from jetspace.poly import Poly, mi_order, multi_indices, poly_space_dim
from jetspace.selection import (
    ConvexSetSpec,
    SelectionInstance,
    best_selection,
    counterexample_family,
    finiteness_experiment,
    selection_field,
)
from jetspace.suites import (
    DEFAULT_SEED,
    suite_chain_scaling,
    suite_derivative_chain,
    suite_gauge_chain,
    suite_gauge_shift,
    suite_halfspace_equivalence,
    suite_interval_chain,
    suite_lipschitz_forms,
    suite_point_shift_scaling,
    suite_same_poly_identity,
    suite_sobolev_agreement,
    suite_triangle_cube,
    suite_triangle_weighted,
    suite_value_gauge_agreement,
    suite_zygmund_agreement,
)
from jetspace.whitney import (
    SampleSet,
    check_conditions,
    fit_field,
    lipschitz_forms,
    lo_seminorm,
)

SEED = DEFAULT_SEED


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_zygmund_specialization():
    start = time.monotonic()
    res = suite_zygmund_agreement(SEED, trials=40_000)  # 10^4 per (n, m) combo
    elapsed = time.monotonic() - start
    ok = res.failures == 0 and res.worst <= 1e-8 and elapsed < 30.0
    _report(
        1, ok,
        f"pure-power closed form vs generic on {res.trials} pairs, "
        f"worst rel dev {res.worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_sobolev_specialization():
    res = suite_sobolev_agreement(SEED, trials=40_000)  # 10^4 per (n, k) combo
    ok = res.failures == 0 and res.worst <= 1e-8
    _report(
        2, ok,
        f"unit-kernel closed form vs generic on {res.trials} pairs, "
        f"worst rel dev {res.worst:.2e}",
    )


def test_criterion_03_pointwise_route_agreement():
    res = suite_value_gauge_agreement(SEED, trials=10_002)
    mod = Modulus.power(1, 2)
    t1 = Jet(Poly(1, 1, {(1,): 1.0}), Cube((0.0,), 1.0))
    t2 = Jet(Poly.zero(1, 1), Cube((0.0,), 1.0))
    hand = (
        jet_distance(mod, t1, t2),
        jet_distance_componentwise(mod, t1, t2),
        jet_distance_via_value_gauge(mod, t1, t2, (0.0,)),
    )
    hand_ok = all(abs(v - 1.0) <= 1e-10 for v in hand)
    ok = res.failures == 0 and res.trials >= 10_000 and hand_ok
    _report(
        3, ok,
        f"three routes agree on {res.trials} inputs (worst {res.worst:.2e}); "
        f"worked pair gives {hand}",
    )


def test_criterion_04_chain_scaling_bound():
    res = suite_chain_scaling(SEED, trials=10_000)
    ok = res.failures == 0 and res.trials >= 9_999
    _report(
        4, ok,
        f"chain bound held on {res.trials} chains across the (n,k,m) matrix, "
        f"min slack {res.worst:.2e}",
    )


def test_criterion_05_metric_axioms():
    res_plain = suite_triangle_cube(SEED, trials=100_000)
    res_weighted = suite_triangle_weighted(SEED, trials=100_000)
    res_identity = suite_same_poly_identity(SEED, trials=10_000)
    ok = (
        res_plain.failures == 0
        and res_weighted.failures == 0
        and res_identity.failures == 0
        and res_identity.worst <= 1e-10
    )
    _report(
        5, ok,
        f"triangle inequalities on {res_plain.trials} + {res_weighted.trials} "
        f"triples, shared-polynomial identity on {res_identity.trials} pairs "
        f"(worst dev {res_identity.worst:.2e})",
    )


def test_criterion_06_chain_inequality_suites():
    results = {
        "interval_chain": suite_interval_chain(SEED, trials=10_000),
        "derivative_chain": suite_derivative_chain(SEED, trials=10_000),
        "gauge_shift": suite_gauge_shift(SEED, trials=10_000),
        "gauge_chain": suite_gauge_chain(SEED, trials=10_000),
        "point_shift_scaling": suite_point_shift_scaling(SEED, trials=10_000),
    }
    ok = all(r.failures == 0 and r.trials >= 9_996 for r in results.values())
    detail = ", ".join(f"{k}:{v.trials}" for k, v in results.items())
    _report(6, ok, f"zero failures across {detail}")


def test_criterion_07_lipschitz_forms_equivalence():
    res = suite_lipschitz_forms(SEED, 10_000)  # 1000 fields at ten scales each
    # threshold recovery by bisection on the metric form, independent of the
    # ratio maximum
    rng = np.random.default_rng(SEED + 7)
    mod = Modulus.power(1, 2)
    worst_rel = 0.0
    checked = 0
    while checked < 100:
        entries = []
        seen = set()
        while len(entries) < 3:
            cube = Cube(
                tuple(rng.uniform(-1, 1, size=1)), float(rng.uniform(0.1, 1.5))
            )
            if cube in seen:
                continue
            seen.add(cube)
            entries.append(
                (cube, Poly(1, 1, {a: rng.uniform(-2, 2) for a in multi_indices(1, 1)}))
            )
        from jetspace.whitney import PolyField

        field = PolyField(n=1, k=0, m=2, entries=tuple(entries))
        lam_star = lo_seminorm(field, mod).value
        if lam_star <= 0:
            continue
        lo_b, hi_b = lam_star / 16, lam_star * 16
        for _ in range(80):
            mid = 0.5 * (lo_b + hi_b)
            if lipschitz_forms(field, mod, mid)[1]:
                hi_b = mid
            else:
                lo_b = mid
        worst_rel = max(worst_rel, abs(0.5 * (lo_b + hi_b) - lam_star) / lam_star)
        checked += 1
    ok = res.failures == 0 and res.trials >= 10_000 and worst_rel <= 1e-6
    _report(
        7, ok,
        f"form agreement on {res.trials} (field, scale) checks; bisection "
        f"threshold matches the seminorm to rel {worst_rel:.2e} on {checked} fields",
    )


def test_criterion_08_halfspace_equivalence_interval():
    res = suite_halfspace_equivalence(SEED, trials=100_000)
    ok = res.failures == 0 and res.worst < 20.0
    _report(8, ok, res.detail)


def _jittered_grid_sample(rng, count=10):
    gap = 1.0
    xs = np.arange(count) * gap + rng.uniform(-0.3, 0.3, size=count) * gap
    xs.sort()
    return tuple((float(x),) for x in xs)


def test_criterion_09_trace_checker_sanity():
    mod = Modulus.power(1, 2)
    # (a) degree-<=L polynomial traces: the pairwise family vanishes
    rng = np.random.default_rng(SEED + 9)
    worst_pair = 0.0
    for _ in range(5):
        pts = _jittered_grid_sample(rng, 10)
        target = Poly(
            1, 1, {(0,): float(rng.uniform(-2, 2)), (1,): float(rng.uniform(-2, 2))}
        )
        sample = SampleSet(
            n=1, points=pts, values=tuple(target.eval(p) for p in pts)
        )
        diam = pts[-1][0] - pts[0][0]
        maxgap = max(b[0] - a[0] for a, b in zip(pts, pts[1:]))
        levels = max(1, int(math.floor(math.log2(diam / (2.0 * maxgap)))))
        radii = [diam * 2.0**-j for j in range(levels + 1)]
        field = fit_field(
            sample, cube_family(pts, radii), k=0, m=2, interpolate_center=True
        )
        rep = check_conditions(sample, field, mod)
        worst_pair = max(worst_pair, rep.pairwise.lambda_hat)
    trace_ok = worst_pair <= 1e-8

    # (b) the square function: the sweep maximum matches an independent loop
    pts = ((0.0,), (1.0,), (-1.0,), (0.5,), (-0.5,))
    sample = SampleSet(n=1, points=pts, values=tuple(p[0] ** 2 for p in pts))
    radii = [2.0, 1.0, 0.5]
    field = fit_field(
        sample, cube_family(pts, radii), k=0, m=2, interpolate_center=True
    )
    rep = check_conditions(sample, field, mod)

    from jetspace.jets import gauge
    from jetspace.cubes import point_sub, uniform_norm

    brute = 0.0
    ents = field.entries
    for alpha in multi_indices(1, 1):  # reversed loop nesting vs the sweep
        for j in range(len(ents) - 1, -1, -1):
            for i in range(len(ents) - 1, -1, -1):
                if i == j:
                    continue
                q1, p1 = ents[i]
                q2, p2 = ents[j]
                sep = uniform_norm(point_sub(q1.center, q2.center))
                t = max(q1.radius, q2.radius) + sep
                v = min(q1.radius, q2.radius)
                brute = max(
                    brute,
                    abs((p1 - p2).deriv_eval(alpha, q1.center))
                    / gauge(mod, 1, alpha, t, v),
                )
    for q, p in ents:
        if q.radius > 1.0:
            continue
        for gamma in multi_indices(1, 1):
            e = max(0, mi_order(gamma) - 0)
            brute = max(brute, abs(p.deriv_eval(gamma, q.center)) * q.radius**e)
    square_ok = (
        rep.lambda_hat == pytest.approx(brute, rel=1e-10) and 0 < rep.lambda_hat < math.inf
    )

    # (c) the shrinking-scales point set completes with a finite report
    pts5 = ((0.0,),) + tuple((2.0 ** -(i * i),) for i in range(1, 7))
    sample5 = SampleSet(n=1, points=pts5, values=tuple(p[0] ** 2 for p in pts5))
    radii5 = [2.0 ** -(2 * j) for j in range(0, 7)]
    field5 = fit_field(
        sample5, cube_family(pts5, radii5), k=0, m=2, interpolate_center=True
    )
    rep5 = check_conditions(sample5, field5, mod)
    shrink_ok = math.isfinite(rep5.lambda_hat) and rep5.lambda_hat > 0

    ok = trace_ok and square_ok and shrink_ok
    _report(
        9, ok,
        f"trace pairwise max {worst_pair:.2e}; square sweep {rep.lambda_hat:.6g} "
        f"matches brute force; shrinking-scales report finite "
        f"({rep5.lambda_hat:.3g})",
    )


def test_criterion_10_counterexample_table():
    rows = counterexample_family(8)
    value_ok = all(
        abs(r.log_distance - math.log1p(2.0 ** (2 * r.i + 1))) <= 1e-12 for r in rows
    )
    steps = [r.step_distance for r in rows]
    logs = [r.log_distance for r in rows]
    mono_ok = all(a > b for a, b in zip(steps, steps[1:])) and all(
        a < b for a, b in zip(logs, logs[1:])
    )
    _report(
        10, value_ok and mono_ok,
        "log distances match ln(1 + 2^(2i+1)) to 1e-12 for i <= 8 with "
        "strictly opposite monotonicity",
    )


def _interval_set(lo, hi):
    return ConvexSetSpec(
        base=Poly.zero(1, 0),
        directions=(Poly(1, 0, {(0,): 1.0}),),
        inequalities=(((1.0,), hi), ((-1.0,), -lo)),
    )


def _segment_set_deg1(c0, c1, d0, d1, lo, hi):
    return ConvexSetSpec(
        base=Poly(1, 1, {(0,): c0, (1,): c1}),
        directions=(Poly(1, 1, {(0,): d0, (1,): d1}),),
        inequalities=(((1.0,), hi), ((-1.0,), -lo)),
    )


def _grid_oracle(inst, bounds, rounds=9, grid=9):
    from jetspace.jets import gauge

    deg = inst.top_degree

    def objective(thetas):
        polys = []
        for (spec, _), th in zip(inst.nodes, thetas):
            p = spec.base
            if spec.directions:
                p = p + spec.directions[0].scale(th)
            polys.append(p)
        worst = 0.0
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
        for combo in itertools.product(*axes):
            val = objective(combo)
            if val < best:
                best, best_pt = val, combo
        if best_pt is not None:
            centers = list(best_pt)
        widths = [w / 4 for w in widths]
    return best


def test_criterion_11_selection_lp():
    mod1 = Modulus.power(1, 1)

    # singletons reproduce the field seminorm
    nodes = (
        (ConvexSetSpec(base=Poly(1, 1, {(0,): 0.0, (1,): 0.0})), Cube((0.0,), 1.0)),
        (ConvexSetSpec(base=Poly(1, 1, {(0,): 1.0, (1,): 0.5})), Cube((2.0,), 0.5)),
        (ConvexSetSpec(base=Poly(1, 1, {(0,): -1.0, (1,): 2.0})), Cube((-1.0,), 2.0)),
    )
    inst = SelectionInstance(n=1, k=1, m=1, modulus=mod1, nodes=nodes)
    res = best_selection(inst)
    field = selection_field(inst, res.polys)
    singleton_ok = abs(res.lam - lo_seminorm(field, mod1).value) <= 1e-10

    # full spaces reach zero
    full = ConvexSetSpec(
        base=Poly.zero(1, 1),
        directions=(Poly(1, 1, {(0,): 1.0}), Poly(1, 1, {(1,): 1.0})),
    )
    inst_full = SelectionInstance(
        n=1, k=1, m=1, modulus=mod1,
        nodes=tuple((full, cube) for _, cube in nodes),
    )
    full_ok = best_selection(inst_full).lam <= 1e-10

    # fixed three-node corpus vs the nested grid oracle
    corpus = [
        (
            SelectionInstance(
                n=1, k=0, m=1, modulus=mod1,
                nodes=(
                    (_interval_set(0.0, 0.2), Cube((0.0,), 1.0)),
                    (_interval_set(1.0, 1.5), Cube((1.0,), 1.0)),
                    (_interval_set(-2.0, -1.2), Cube((3.0,), 0.5)),
                ),
            ),
            [(0.0, 0.2), (1.0, 1.5), (-2.0, -1.2)],
        ),
        (
            SelectionInstance(
                n=1, k=0, m=1, modulus=mod1,
                nodes=(
                    (_interval_set(-0.5, 0.5), Cube((0.0,), 0.3)),
                    (_interval_set(2.0, 2.1), Cube((0.5,), 0.8)),
                    (_interval_set(-1.0, 3.0), Cube((4.0,), 1.0)),
                ),
            ),
            [(-0.5, 0.5), (2.0, 2.1), (-1.0, 3.0)],
        ),
        (
            SelectionInstance(
                n=1, k=1, m=1, modulus=mod1,
                nodes=(
                    (_segment_set_deg1(0.0, 0.0, 1.0, 0.5, -1.0, 1.0), Cube((0.0,), 1.0)),
                    (_segment_set_deg1(1.0, -0.5, 0.0, 1.0, -1.0, 1.0), Cube((1.5,), 0.7)),
                    (_segment_set_deg1(-0.5, 1.0, 1.0, 0.0, -2.0, 2.0), Cube((-1.0,), 1.2)),
                ),
            ),
            [(-1.0, 1.0), (-1.0, 1.0), (-2.0, 2.0)],
        ),
    ]
    corpus_ok = True
    corpus_devs = []
    for inst_c, bounds in corpus:
        lam = best_selection(inst_c).lam
        oracle = _grid_oracle(inst_c, bounds)
        corpus_devs.append(abs(lam - oracle))
        corpus_ok = corpus_ok and abs(lam - oracle) <= 1e-4

    # subset experiment: exact enumeration and gamma at least one
    exp_nodes = (
        (_segment_set_deg1(0.0, 0.0, 1.0, 0.5, -1.0, 1.0), Cube((0.0,), 1.0)),
        (_segment_set_deg1(1.0, -0.5, 0.0, 1.0, -1.0, 1.0), Cube((1.5,), 0.7)),
        (_segment_set_deg1(-0.5, 1.0, 1.0, 0.0, -2.0, 2.0), Cube((-1.0,), 1.2)),
        (_segment_set_deg1(0.3, 0.7, 1.0, 1.0, -1.0, 1.0), Cube((3.0,), 0.5)),
        (_segment_set_deg1(-1.0, -0.2, 0.5, 1.0, -1.5, 1.5), Cube((-2.5,), 0.9)),
    )
    inst_exp = SelectionInstance(n=1, k=1, m=1, modulus=mod1, nodes=exp_nodes)
    rep = finiteness_experiment(inst_exp, ell=1)
    n_expected = 2 ** min(1 + 1, poly_space_dim(1, 1))
    count_expected = sum(math.comb(5, s) for s in range(2, n_expected + 1))
    exp_ok = (
        rep.subset_size_bound == n_expected
        and rep.exhaustive
        and rep.subset_count == count_expected
        and rep.gamma_hat >= 1.0 - 1e-9
    )

    ok = singleton_ok and full_ok and corpus_ok and exp_ok
    _report(
        11, ok,
        f"singleton dev {abs(res.lam - lo_seminorm(field, mod1).value):.1e}; "
        f"full-space lam {best_selection(inst_full).lam:.1e}; corpus devs "
        f"{[f'{d:.1e}' for d in corpus_devs]}; gamma_hat {rep.gamma_hat:.6f} "
        f"over {rep.subset_count} subsets",
    )


def test_criterion_12_properties_determinism_and_runtime(tmp_path):
    from jetspace.cli import main

    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    start = time.monotonic()
    code1 = main(["properties", "--output", str(out1)])
    first = time.monotonic() - start
    code2 = main(["properties", "--output", str(out2)])
    ok = (
        code1 == 0
        and code2 == 0
        and first <= 300.0
        and out1.read_bytes() == out2.read_bytes()
    )
    _report(
        12, ok,
        f"default property run finished in {first:.1f}s with exit 0 and "
        f"byte-identical repeat",
    )
