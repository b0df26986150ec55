"""Jet quasi-distance: gauges, the three computation routes, closed forms."""

import math

import numpy as np
import pytest

from jetspace.cubes import Cube, point_sub, uniform_norm, weighted_cube_distance
from jetspace.jets import (
    Jet,
    _discrepancies,
    _JetRows,
    gauge,
    gauge_inverse,
    jet_distance,
    jet_distance_componentwise,
    jet_distance_via_value_gauge,
    jet_gap,
    scale,
    sobolev_distance,
    value_gauge,
    zygmund_distance,
)
from jetspace.modulus import Modulus
from jetspace.poly import Poly, multi_indices
from test_numerics import bisection_engine, inverting_with


def _unit_jets():
    """The worked pair: difference x on unit cubes at the origin, order 2."""
    p1 = Poly(1, 1, {(1,): 1.0})
    p2 = Poly.zero(1, 1)
    q = Cube((0.0,), 1.0)
    return Jet(p1, q), Jet(p2, q)


MOD_LIN_2 = Modulus.power(1, 2)  # w(t) = t at order 2: kernel 1/s


# -- gauges -------------------------------------------------------------------


def test_gauge_zero_scale():
    assert gauge(MOD_LIN_2, 1, 1, 0.0, 1.0) == 0.0


def test_gauge_unit_kernel_power():
    # w(t) = t, order 1: gauge is t^(top - a + 1)
    mod = Modulus.power(1, 1)
    assert gauge(mod, 2, 0, 2.0, 0.5) == pytest.approx(8.0, rel=1e-14)
    assert gauge_inverse(mod, 2, 0, 8.0, 0.5) == pytest.approx(2.0, rel=1e-12)


def test_gauge_log_kernel():
    # top order 1, full order: pure integral of 1/s from 1
    assert gauge(MOD_LIN_2, 1, 1, 3.0, 1.0) == pytest.approx(math.log(4.0), rel=1e-14)
    assert gauge_inverse(MOD_LIN_2, 1, 1, 1.0, 1.0) == pytest.approx(
        math.e - 1.0, rel=1e-12
    )


def test_gauge_inverse_roundtrip_bisection():
    mod = Modulus.power(1.4, 2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        top = int(rng.integers(0, 4))
        a = int(rng.integers(0, top + 1))
        v = float(rng.uniform(0.05, 2.0))
        t = float(rng.uniform(0.0, 4.0))
        u = gauge(mod, top, a, t, v)
        assert gauge_inverse(mod, top, a, u, v) == pytest.approx(t, rel=1e-9, abs=1e-11)


def test_gauge_inverse_validation():
    with pytest.raises(ValueError):
        gauge_inverse(MOD_LIN_2, 1, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauge_inverse(MOD_LIN_2, 1, 0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gauge(MOD_LIN_2, 1, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gauge(MOD_LIN_2, 1, (-1,), 1.0, 1.0)
    for u in (0.0, 1.0):
        with pytest.raises(ValueError):
            value_gauge(MOD_LIN_2, 1, 0, u, 0.0)
    assert gauge_inverse(MOD_LIN_2, 1, 0, 0.0, 1.0) == 0.0


# -- discrepancy scale and the distance ---------------------------------------


def test_jet_gap_equal_polys_is_cube_term():
    p = Poly(1, 1, {(0,): 2.0})
    t1 = Jet(p, Cube((0.0,), 1.0))
    t2 = Jet(p, Cube((3.0,), 2.0))
    assert jet_gap(MOD_LIN_2, t1, t2) == 2.0 + 3.0


def test_jet_gap_hand_value():
    t1, t2 = _unit_jets()
    assert jet_gap(MOD_LIN_2, t1, t2) == pytest.approx(math.e - 1.0, rel=1e-12)


def test_jet_gap_is_max_over_centers():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t1 = Jet(
            Poly(1, 1, {(0,): rng.uniform(-2, 2), (1,): rng.uniform(-2, 2)}),
            Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.1, 2))),
        )
        t2 = Jet(
            Poly(1, 1, {(0,): rng.uniform(-2, 2), (1,): rng.uniform(-2, 2)}),
            Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.1, 2))),
        )
        whole = jet_gap(MOD_LIN_2, t1, t2)
        at1 = jet_gap(MOD_LIN_2, t1, t2, at=t1.cube.center)
        at2 = jet_gap(MOD_LIN_2, t1, t2, at=t2.cube.center)
        assert whole == pytest.approx(max(at1, at2), rel=1e-12)


def _jet_gap_per_pair(mod, t1, t2, at=None):
    """``jet_gap`` as one gauge inversion per multi-index and evaluation point."""
    if t1.n != t2.n:
        raise ValueError("jet dimensions differ")
    if t1.degree != t2.degree:
        raise ValueError("jet degree bounds differ")
    n, top = t1.n, t1.degree
    if at is None:
        points = [t1.cube.center, t2.cube.center]
    elif len(at) != n:
        raise ValueError("evaluation point dimension mismatch")
    else:
        points = [tuple(float(c) for c in at)]
    v = min(t1.cube.radius, t2.cube.radius)
    sep = uniform_norm(point_sub(t1.cube.center, t2.cube.center))
    best = max(t1.cube.radius, t2.cube.radius) + sep
    diff = t1.poly - t2.poly
    for alpha in multi_indices(n, top):
        for y in points:
            u = abs(diff.deriv_eval(alpha, y))
            if u > 0.0:
                best = max(best, gauge_inverse(mod, top, alpha, u, v))
    return best


def _random_jet(rng, n, degree):
    coef = {a: float(rng.uniform(-3, 3)) for a in multi_indices(n, degree) if rng.uniform() < 0.8}
    center = tuple(float(c) for c in rng.uniform(-1, 1, n))
    return Jet(Poly(n, degree, coef), Cube(center, float(10 ** rng.uniform(-1.5, 0.5))))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # a table modulus has a bounded domain
        return type(exc)


def test_jet_gap_inverts_each_order_once():
    rng = np.random.default_rng(12)
    table = Modulus.table([(0.01, 2.5e-4), (1.0, 1.0), (1e4, 1e6)], 2)
    compared = 0
    for mod in (Modulus.power(1.5, 2), Modulus.power_log(1.0, 2), table):
        for n in (1, 2):
            for degree in range(4):
                for trial in range(4):
                    t1, t2 = _random_jet(rng, n, degree), _random_jet(rng, n, degree)
                    at = None if trial < 2 else tuple(float(c) for c in rng.uniform(-1, 1, n))
                    with inverting_with(bisection_engine):
                        oracle = _outcome(_jet_gap_per_pair, mod, t1, t2, at=at)
                        assert _outcome(jet_gap, mod, t1, t2, at=at) == oracle
                    if oracle is ValueError:
                        continue
                    compared += 1
                    assert jet_gap(mod, t1, t2, at=at) == pytest.approx(oracle, rel=1e-12)
                    assert jet_gap(mod, t1, t2, at=at) == pytest.approx(
                        _jet_gap_per_pair(mod, t1, t2, at=at), rel=1e-12
                    )
    assert compared >= 90


def _poly_route_peaks(t1, t2, at=None):
    """The largest discrepancy of each order through ``Poly.deriv_eval``, as
    a running Python max (which skips NaN)."""
    top, disc = _discrepancies(t1, t2, at)
    peak = [0.0] * (top + 1)
    for a, u in disc:
        peak[a] = max(peak[a], u)
    return peak


def test_array_discrepancies_match_the_poly_route():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for degree in range(4):
            for trial in range(4):
                t1, t2 = _random_jet(rng, n, degree), _random_jet(rng, n, degree)
                at = None if trial < 2 else tuple(rng.uniform(-1, 1, n).tolist())
                assert _JetRows([t1, t2], at).peaks(0, [1])[0] == pytest.approx(
                    _poly_route_peaks(t1, t2, at), rel=1e-12, abs=1e-12
                )


def test_array_discrepancies_of_an_infinite_difference():
    # +-1.7e308 coefficients differ by inf; a term with beta_i < alpha_i must
    # be skipped, as Poly.deriv_eval does, not multiplied by 0 into NaN
    betas = multi_indices(2, 2)
    t1 = Jet(Poly(2, 2, {a: 1.7e308 for a in betas}), Cube((0.25, -0.24), 0.94))
    t2 = Jet(Poly(2, 2, {a: -1.7e308 for a in betas}), Cube((0.99, -0.07), 0.74))
    assert _JetRows([t1, t2]).peaks(0, [1])[0] == _poly_route_peaks(t1, t2)
    mod = Modulus.power(1.5, 2)
    assert jet_distance(mod, t1, t2) == jet_distance_componentwise(mod, t1, t2) == math.inf


def test_pointwise_distance_and_gap_match_the_poly_route():
    rng = np.random.default_rng(24)
    for mod in (Modulus.power(1.5, 2), Modulus.power_log(1.0, 2), Modulus.power(0.7, 1)):
        for n in (1, 2, 3):
            for degree in range(4):
                t1, t2 = _random_jet(rng, n, degree), _random_jet(rng, n, degree)
                y = tuple(rng.uniform(-1, 1, n).tolist())
                assert jet_distance(mod, t1, t2, at=y) == pytest.approx(
                    jet_distance_componentwise(mod, t1, t2, at=y), rel=1e-12
                )
                assert jet_gap(mod, t1, t2, at=y) == pytest.approx(
                    _jet_gap_per_pair(mod, t1, t2, at=y), rel=1e-12
                )


def test_jet_distance_hand_value_three_routes():
    t1, t2 = _unit_jets()
    assert jet_distance(MOD_LIN_2, t1, t2) == pytest.approx(1.0, abs=1e-10)
    assert jet_distance_componentwise(MOD_LIN_2, t1, t2) == pytest.approx(1.0, abs=1e-10)
    assert jet_distance_via_value_gauge(MOD_LIN_2, t1, t2, (0.0,)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_jet_distance_identity_and_symmetry():
    t1, t2 = _unit_jets()
    assert jet_distance(MOD_LIN_2, t1, t1) == 0.0
    assert jet_distance(MOD_LIN_2, t1, t2) == jet_distance(MOD_LIN_2, t2, t1)


def test_jet_distance_same_poly_equals_cube_distance_exactly():
    p = Poly(1, 1, {(1,): 0.7})
    q1 = Cube((0.2,), 0.8)
    q2 = Cube((-1.0,), 1.7)
    assert jet_distance(MOD_LIN_2, Jet(p, q1), Jet(p, q2)) == weighted_cube_distance(
        MOD_LIN_2, q1, q2
    )


def test_jet_distance_cross_check_flag():
    t1, t2 = _unit_jets()
    assert jet_distance(MOD_LIN_2, t1, t2, cross_check=True) == pytest.approx(1.0)


def test_jet_distance_dominates_cube_distance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        t1 = Jet(
            Poly(1, 1, {(0,): rng.uniform(-2, 2), (1,): rng.uniform(-2, 2)}),
            Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.1, 2))),
        )
        t2 = Jet(
            Poly(1, 1, {(0,): rng.uniform(-2, 2), (1,): rng.uniform(-2, 2)}),
            Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.1, 2))),
        )
        assert jet_distance(MOD_LIN_2, t1, t2) >= weighted_cube_distance(
            MOD_LIN_2, t1.cube, t2.cube
        ) - 1e-12


# -- scaling -------------------------------------------------------------------


def test_scale_identity_composition_zero():
    t1, _ = _unit_jets()
    assert scale(1.0, t1) == t1
    assert scale(2.0, scale(3.0, t1)) == scale(6.0, t1)
    z = scale(0.0, t1)
    assert z.poly.coef == {} and z.cube == t1.cube


def test_shrinking_polynomials_never_increases_distance():
    t1, t2 = _unit_jets()
    prev = math.inf
    floor = weighted_cube_distance(MOD_LIN_2, t1.cube, t2.cube)
    for lam in (0.5, 1.0, 2.0, 8.0, 64.0):
        val = jet_distance(MOD_LIN_2, scale(1 / lam, t1), scale(1 / lam, t2))
        assert val <= prev * (1 + 1e-12)
        assert val >= floor - 1e-12
        prev = val


# -- closed-form specializations ----------------------------------------------


def test_zygmund_distance_hand_value():
    t1, t2 = _unit_jets()
    assert zygmund_distance(t1, t2, 2) == pytest.approx(1.0, abs=1e-10)


def test_zygmund_distance_equal_polys_is_cube_distance():
    from jetspace.cubes import cube_distance

    p = Poly(1, 1, {(1,): 1.0})
    q1, q2 = Cube((0.0,), 1.0), Cube((1.0,), 0.5)
    assert zygmund_distance(Jet(p, q1), Jet(p, q2), 2) == pytest.approx(
        cube_distance(q1, q2), rel=1e-12
    )


def test_zygmund_matches_generic_random():
    rng = np.random.default_rng(6)
    for m in (2, 3):
        mod = Modulus.power(m - 1, m)
        for _ in range(300):
            n = 1 + int(rng.integers(0, 2))
            deg = m - 1
            t1 = Jet(
                Poly(n, deg, {a: rng.uniform(-2, 2) for a in multi_indices(n, deg)}),
                Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5))),
            )
            t2 = Jet(
                Poly(n, deg, {a: rng.uniform(-2, 2) for a in multi_indices(n, deg)}),
                Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5))),
            )
            assert zygmund_distance(t1, t2, m) == pytest.approx(
                jet_distance(mod, t1, t2), rel=1e-8
            )


def test_sobolev_distance_hand_value():
    t1, t2 = _unit_jets()
    assert sobolev_distance(t1, t2, 1) == pytest.approx(1.0, abs=1e-12)
    mod1 = Modulus.power(1, 1)
    assert jet_distance(mod1, t1, t2) == pytest.approx(1.0, abs=1e-10)


def test_sobolev_equal_polys():
    p = Poly(1, 2, {(2,): 1.0})
    t1 = Jet(p, Cube((0.0,), 1.0))
    t2 = Jet(p, Cube((2.0,), 0.5))
    assert sobolev_distance(t1, t2, 2) == 1.0 + 2.0


def test_sobolev_matches_generic_random():
    mod1 = Modulus.power(1, 1)
    rng = np.random.default_rng(7)
    for k in (1, 2):
        for _ in range(300):
            n = 1 + int(rng.integers(0, 2))
            t1 = Jet(
                Poly(n, k, {a: rng.uniform(-2, 2) for a in multi_indices(n, k)}),
                Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5))),
            )
            t2 = Jet(
                Poly(n, k, {a: rng.uniform(-2, 2) for a in multi_indices(n, k)}),
                Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5))),
            )
            assert sobolev_distance(t1, t2, k) == pytest.approx(
                jet_distance(mod1, t1, t2), rel=1e-8
            )


def test_degree_mismatch_errors():
    t1, t2 = _unit_jets()
    with pytest.raises(ValueError):
        zygmund_distance(t1, t2, 3)
    with pytest.raises(ValueError):
        sobolev_distance(t1, t2, 2)


# -- integrable-tail cap --------------------------------------------------------


def test_tail_cap_consistent_across_routes():
    # kernel decays like s^(-1.7): the reachable distance is bounded, and a
    # huge top-order discrepancy saturates all three routes at the tail mass
    mod = Modulus.power(0.3, 2)
    p1 = Poly(1, 1, {(1,): 500.0})
    p2 = Poly.zero(1, 1)
    q = Cube((0.0,), 0.5)
    t1, t2 = Jet(p1, q), Jet(p2, q)
    cap = mod.tail_mass(0.5)
    a = jet_distance(mod, t1, t2)
    b = jet_distance_componentwise(mod, t1, t2)
    c = jet_distance_via_value_gauge(mod, t1, t2, (0.0,))
    assert a == pytest.approx(cap, rel=1e-12)
    assert b == pytest.approx(cap, rel=1e-12)
    assert c == pytest.approx(cap, rel=1e-12)


def test_top_order_discrepancy_beyond_table_mass_saturates_all_routes():
    # a table's reachable mass ends at its last knot; a larger top-order
    # discrepancy gives that mass through all three routes
    mod = Modulus.table([(0.01, 0.01), (1.0, 0.5), (100.0, 2.0), (1e4, 3.0)], m=2)
    t1 = Jet(Poly(1, 1, {(1,): 800.0}), Cube((0.0,), 1.0))
    t2 = Jet(Poly.zero(1, 1), Cube((0.5,), 1.0))
    cap = mod.tail_mass(1.0)
    assert cap == mod.integral_core(1.0, 1e4) < 800.0
    y = (0.0,)
    assert jet_distance(mod, t1, t2, at=y) == cap
    assert jet_distance_componentwise(mod, t1, t2, at=y) == cap
    assert jet_distance_via_value_gauge(mod, t1, t2, y) == cap
    assert value_gauge(mod, 1, (1,), 1.0, 73.48) == mod.integral_core(73.48, 1e4)


def test_top_order_routes_need_no_discrepancy_scale():
    # kernel 1/s: the top-order discrepancy 800 is the distance, though its
    # discrepancy scale v * expm1(800) overflows
    mod = Modulus.power(1.0, 2)
    t1 = Jet(Poly(1, 1, {(1,): 800.0}), Cube((0.0,), 1.0))
    t2 = Jet(Poly.zero(1, 1), Cube((0.5,), 1.0))
    assert zygmund_distance(t1, t2, 2) == 800.0
    assert jet_distance(mod, t1, t2) == 800.0
    assert jet_distance(mod, t1, t2, cross_check=True) == 800.0
    assert jet_distance_componentwise(mod, t1, t2) == 800.0
    assert jet_distance_via_value_gauge(mod, t1, t2, (0.0,)) == 800.0
    assert jet_gap(mod, t1, t2) == math.inf


def _closed_zygmund(m):
    return lambda t1, t2: zygmund_distance(t1, t2, m)


def _closed_sobolev(k):
    return lambda t1, t2: sobolev_distance(t1, t2, k)


def test_routes_agree_on_large_top_order_discrepancies():
    # top-order discrepancies up to ~1e6: at p = q - m + 1 == 0 their
    # discrepancy scale v * expm1(u) is beyond the float range, the distance
    # is not; w(t) = t^2 at m = 2 is a table with kernel 1
    table = Modulus.table([(0.01, 1e-4), (1.0, 1.0), (1e4, 1e8)], 2)
    cases = [
        (Modulus.power(1.0, 2), 1, _closed_zygmund(2)),  # p == 0
        (Modulus.power(2.0, 3), 2, _closed_zygmund(3)),  # p == 0
        (Modulus.power(1.0, 1), 2, _closed_sobolev(2)),  # p == 1
        (Modulus.power(1.5, 2), 1, None),  # p == 0.5
        (Modulus.power(0.5, 2), 2, None),  # p == -0.5: finite tail mass
        (table, 1, None),
    ]
    rng = np.random.default_rng(47)
    for mod, degree, closed in cases:
        for n in (1, 2):
            tops = [b for b in multi_indices(n, degree) if sum(b) == degree]
            for _ in range(12):
                y = tuple(float(c) for c in rng.uniform(-1, 1, n))
                t1 = _random_jet(rng, n, degree)
                beta = tops[int(rng.integers(len(tops)))]
                coef = dict(t1.poly.coef)  # a top-order jump of s * beta!
                jump = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 6))
                coef[beta] = coef.get(beta, 0.0) + jump
                t2 = Jet(Poly(n, degree, coef), _random_jet(rng, n, degree).cube)
                a = jet_distance(mod, t1, t2, at=y)
                assert jet_distance_componentwise(mod, t1, t2, at=y) == pytest.approx(a, rel=1e-12)
                assert jet_distance_via_value_gauge(mod, t1, t2, y) == pytest.approx(a, rel=1e-8)
                both = jet_distance(mod, t1, t2, cross_check=True)
                assert jet_distance_componentwise(mod, t1, t2) == pytest.approx(both, rel=1e-12)
                if closed is not None:
                    assert closed(t1, t2) == pytest.approx(both, rel=1e-8)


def test_value_gauge_basics():
    assert value_gauge(MOD_LIN_2, 1, 1, 0.0, 1.0) == 0.0
    assert value_gauge(MOD_LIN_2, 1, 1, 2.5, 1.0) == 2.5  # top order: identity
    # lower order: solves s * inverse-integral(s)^(top-a) = u
    u = 1.3
    s = value_gauge(MOD_LIN_2, 1, 0, u, 1.0)
    inv = MOD_LIN_2.core_integral_inverse(s, 1.0)
    assert s * inv == pytest.approx(u, rel=1e-9)


def test_value_gauge_log_kernel_is_exponential_form():
    # for the kernel 1/s the value gauge solves s*(e^s - 1)^(top-a) = u/v^(top-a)
    from jetspace.jets import _zygmund_gauge_inverse

    for u, v in ((0.7, 0.5), (2.0, 1.3), (5.0, 0.2)):
        direct = value_gauge(MOD_LIN_2, 1, 0, u, v)
        assert direct == pytest.approx(_zygmund_gauge_inverse(u / v, 1), rel=1e-8)


def test_value_gauge_table_modulus_stays_inside_the_table():
    # the solution lies inside the table, but the inversion evaluates the
    # inverse integral at targets beyond the mass up to the last knot, which
    # must come back +inf instead of integrating past the knot
    mod = Modulus.table([(0.01, 0.01), (1.0, 0.5), (100.0, 2.0), (1e4, 3.0)], m=2)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        v = 10.0 ** rng.uniform(-3, 3)
        t = min(v * 10.0 ** rng.uniform(-3, 3), 0.5 * (mod.domain_max - v))
        e = int(rng.integers(1, 3))
        core = mod.integral_core(v, v + t)
        got = value_gauge(mod, 2, (2 - e,), t**e * core, v)
        assert got == pytest.approx(core, rel=1e-12)
    # tiny targets: the search first halves down from the region beyond the
    # table's mass, where the product is +inf, then Newton must take over
    v = 73.482842278416
    for e in (1, 2, 3):
        for u in (1e-200, 4.025380507375673e-161, 1e-100, 1e-3):
            s = value_gauge(mod, e, 0, u, v)
            assert s * mod.core_integral_inverse(s, v) ** e == pytest.approx(u, rel=1e-6)


def test_routes_agree_table_modulus_in_domain():
    # tabulated kernels are domain-capped: keep scales inside the knot range
    mod = Modulus.table([(0.25, 0.3), (1.0, 1.0), (4.0, 1.9), (64.0, 8.0)], m=2)
    rng = np.random.default_rng(17)
    for _ in range(20):
        coef = lambda: {a: float(rng.uniform(-0.5, 0.5)) for a in multi_indices(1, 1)}
        t1 = Jet(Poly(1, 1, coef()),
                 Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.3, 1.0))))
        t2 = Jet(Poly(1, 1, coef()),
                 Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.3, 1.0))))
        y = (float(rng.uniform(-1, 1)),)
        a = jet_distance(mod, t1, t2, at=y)
        b = jet_distance_componentwise(mod, t1, t2, at=y)
        c = jet_distance_via_value_gauge(mod, t1, t2, y)
        assert b == pytest.approx(a, rel=1e-8)
        assert c == pytest.approx(a, rel=1e-8)


def test_routes_agree_powerlog_modulus():
    mod = Modulus.power_log(1.0, 2)
    t1 = Jet(Poly(1, 1, {(1,): 0.8, (0,): -0.3}), Cube((0.0,), 0.7))
    t2 = Jet(Poly(1, 1, {(1,): -0.2}), Cube((0.5,), 1.1))
    y = (0.2,)
    a = jet_distance(mod, t1, t2, at=y)
    b = jet_distance_componentwise(mod, t1, t2, at=y)
    c = jet_distance_via_value_gauge(mod, t1, t2, y)
    assert b == pytest.approx(a, rel=1e-8)
    assert c == pytest.approx(a, rel=1e-7)


def test_routes_agree_high_dimension_high_order():
    # n=3 with degree bound 4: 35 coefficient entries per polynomial
    n, k, m = 3, 2, 3
    deg = k + m - 1
    mod = Modulus.power(2.2, m)
    rng = np.random.default_rng(19)
    for _ in range(3):
        coef = lambda: {a: float(rng.uniform(-1, 1)) for a in multi_indices(n, deg)}
        t1 = Jet(Poly(n, deg, coef()),
                 Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.2, 1.5))))
        t2 = Jet(Poly(n, deg, coef()),
                 Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.2, 1.5))))
        y = tuple(rng.uniform(-1, 1, size=n).tolist())
        a = jet_distance(mod, t1, t2, at=y)
        b = jet_distance_componentwise(mod, t1, t2, at=y)
        c = jet_distance_via_value_gauge(mod, t1, t2, y)
        assert b == pytest.approx(a, rel=1e-8)
        assert c == pytest.approx(a, rel=1e-8)


def test_cross_check_both_centers_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = 1 + int(rng.integers(0, 2))
        m = 1 + int(rng.integers(0, 2))
        k = int(rng.integers(0, 2))
        degree = k + m - 1
        mod = Modulus.power(float(rng.uniform(0.3 * m, m)), m)
        coef = lambda: {a: float(rng.uniform(-2, 2)) for a in multi_indices(n, degree)}
        t1 = Jet(Poly(n, degree, coef()),
                 Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5))))
        t2 = Jet(Poly(n, degree, coef()),
                 Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5))))
        # raises if the two routes drift beyond relative 1e-8
        jet_distance(mod, t1, t2, cross_check=True)


def test_value_gauge_table_target_far_below_the_base_scale():
    # the inner core inverse once crept along the one-ulp staircase of
    # integral_core(v, v + t) at t / v near 6e-9 and raised ArithmeticError
    mod = Modulus.table([(0.01, 1e-4), (1.0, 1.0), (1e4, 1e8)], 2)
    v, u = 0.8629514739235359, 1e-17
    s = value_gauge(mod, 1, 0, u, v)
    assert s * mod.core_integral_inverse(s, v) == pytest.approx(u, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.999, 1.0, 1.5])
def test_routes_at_an_overflowing_reach_match_mpmath(q):
    # the reach r1 + r2 + ||x1 - x2|| overflows; every route takes the cube
    # term as weighted_cube_distance does, over the step v + span
    mp = pytest.importorskip("mpmath")
    mod = Modulus.power(q, 2)
    poly = Poly(1, 1, {(0,): 1.0})
    near = (Cube((0.0,), 1e308), Cube((5e307,), 1e308))  # the span is finite
    far = (Cube((1e308,), 1.0), Cube((-1e308,), 1.0))  # the span overflows too
    routes = (
        lambda t1, t2: weighted_cube_distance(mod, t1.cube, t2.cube),
        lambda t1, t2: jet_distance(mod, t1, t2),
        lambda t1, t2: jet_distance_componentwise(mod, t1, t2),
        lambda t1, t2: jet_distance_via_value_gauge(mod, t1, t2, (0.0,)),
    )
    for q1, q2 in (near, far):
        with mp.workdps(40):
            v, reach = mp.mpf(min(q1.radius, q2.radius)), mp.mpf(q1.radius) + mp.mpf(q2.radius)
            reach += abs(mp.mpf(q1.center[0]) - mp.mpf(q2.center[0]))
            a = mp.mpf(q) - 1
            exact = float(mp.log(reach / v) if a == 0 else (reach**a - v**a) / a)
        jets = (Jet(poly, q1), Jet(poly, q2))
        for route in routes:
            if q1 == near[0] or q == 0.5:
                assert route(*jets) == pytest.approx(exact, rel=1e-12, abs=0.0)
            else:
                # the tail beyond the float range does not round away (the
                # distance is 508.30 at q = 0.999, 709.89 at q = 1); the jet
                # routes once returned the whole tail mass, 1000.0000000001102
                # and +inf there
                with pytest.raises(OverflowError):
                    route(*jets)
