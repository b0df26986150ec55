"""Moduli: evaluation, membership checks, core integrals, quasipower scans."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.modulus import Modulus, check_omega_m, quasipower_constant
from jetspace.numerics import adaptive_simpson


# -- evaluation --------------------------------------------------------------


def test_power_eval_zero():
    assert Modulus.power(1, 1).eval(0.0) == 0.0
    assert Modulus.power(0, 1).eval(0.0) == 0.0


def test_power_eval_value():
    assert Modulus.power(2, 2).eval(3.0) == 9.0


def test_table_eval_log_linear():
    # geometric midpoint of the single segment (1,1)-(4,2): slope 1/2
    mod = Modulus.table([(1.0, 1.0), (4.0, 2.0)], m=2)
    assert mod.eval(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert mod.eval(0.0) == 0.0
    # below the first knot: first power piece extended toward 0
    assert mod.eval(0.25) == pytest.approx(0.5, rel=1e-14)


def test_eval_errors():
    mod = Modulus.table([(1.0, 1.0), (4.0, 2.0)], m=2)
    with pytest.raises(ValueError):
        mod.eval(5.0)
    with pytest.raises(ValueError):
        Modulus.power(1, 1).eval(-0.1)


def test_construction_validation():
    with pytest.raises(ValueError):
        Modulus.power(-1.0, 1)
    with pytest.raises(ValueError):
        Modulus.table([(1.0, 1.0)], m=1)
    with pytest.raises(ValueError):
        Modulus.table([(1.0, 1.0), (0.5, 2.0)], m=1)
    with pytest.raises(ValueError):
        Modulus.table([(1.0, 1.0), (2.0, -1.0)], m=1)
    with pytest.raises(ValueError):
        Modulus(family="exotic", m=1, q=1.0)
    for bad in (math.nan, math.inf):
        for make in (Modulus.power, Modulus.power_log):
            with pytest.raises(ValueError, match="finite"):
                make(bad, 2)
        for knots in ([(1.0, 1.0), (bad, 2.0)], [(bad, 1.0), (2.0, 2.0)], [(1.0, 1.0), (2.0, bad)]):
            with pytest.raises(ValueError, match="finite"):
                Modulus.table(knots, 2)


# -- order-m membership ------------------------------------------------------


def test_membership_power_below_order():
    rep = check_omega_m(Modulus.power(1, 2), [0.1, 0.5, 1.0, 2.0, 7.0])
    assert rep.nondecreasing and rep.ratio_nonincreasing
    assert rep.worst_violation <= 1e-12


def test_membership_power_above_order_fails_ratio():
    rep = check_omega_m(Modulus.power(3, 2), [1.0, 2.0])
    assert rep.nondecreasing
    assert not rep.ratio_nonincreasing
    assert rep.worst_violation > 0


def test_membership_flat_power_is_monotone():
    rep = check_omega_m(Modulus.power(0, 1), [0.5, 1.0, 2.0])
    assert rep.nondecreasing and rep.ratio_nonincreasing


def test_membership_empty_grid():
    with pytest.raises(ValueError):
        check_omega_m(Modulus.power(1, 1), [])
    with pytest.raises(ValueError):
        check_omega_m(Modulus.power(1, 1), [2.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(min_value=0.0, max_value=3.0),
    m=st.integers(min_value=1, max_value=3),
)
def test_membership_power_family_property(q, m):
    if q > m:
        return
    grid = [0.05, 0.3, 1.0, 2.5, 8.0]
    rep = check_omega_m(Modulus.power(q, m), grid)
    assert rep.nondecreasing and rep.ratio_nonincreasing


def test_membership_powerlog():
    assert check_omega_m(Modulus.power_log(1.0, 2), [0.1, 1.0, 5.0]).ratio_nonincreasing
    assert not check_omega_m(Modulus.power_log(1.0, 1), [0.1, 1.0, 5.0]).ratio_nonincreasing


# -- core integral -----------------------------------------------------------


def test_integral_core_empty_interval():
    assert Modulus.power(1, 2).integral_core(2.0, 2.0) == 0.0


def test_integral_core_log_case():
    # kernel 1/s when the exponent matches order minus one
    assert Modulus.power(1, 2).integral_core(1.0, 3.0) == pytest.approx(
        math.log(3.0), rel=1e-14
    )


def test_integral_core_unit_kernel():
    assert Modulus.power(1, 1).integral_core(1.0, 2.5) == pytest.approx(1.5, rel=1e-14)


def test_integral_core_errors():
    mod = Modulus.power(1, 1)
    with pytest.raises(ValueError):
        mod.integral_core(0.0, 1.0)
    with pytest.raises(ValueError):
        mod.integral_core(2.0, 1.0)


def test_integral_core_additive_and_monotone():
    for mod in (Modulus.power(0.7, 2), Modulus.power_log(1.0, 2),
                Modulus.table([(0.5, 0.5), (2.0, 1.4), (8.0, 3.0)], m=2)):
        a, b, c = 0.3, 1.1, 4.0
        total = mod.integral_core(a, c)
        split = mod.integral_core(a, b) + mod.integral_core(b, c)
        assert total == pytest.approx(split, rel=1e-9)
        assert mod.integral_core(a, b) <= mod.integral_core(a, c)
        assert mod.integral_core(b, c) <= mod.integral_core(a, c)


def test_quadrature_matches_power_closed_form():
    for q, m in ((0.5, 1), (1.0, 2), (2.3, 3)):
        mod = Modulus.power(q, m)
        a, b = 0.2, 5.0
        quad = adaptive_simpson(lambda s: s ** (q - m), a, b, rel_tol=1e-10)
        assert quad == pytest.approx(mod.integral_core(a, b), rel=1e-8)


def test_table_integral_matches_quadrature():
    mod = Modulus.table([(0.5, 0.6), (1.0, 1.0), (2.0, 1.6), (4.0, 2.2)], m=2)
    a, b = 0.3, 3.7
    quad = adaptive_simpson(lambda s: mod.eval(s) / s**2, a, b, rel_tol=1e-10)
    assert mod.integral_core(a, b) == pytest.approx(quad, rel=1e-8)


# -- weighted integral -------------------------------------------------------


def test_integral_weighted_log_case():
    # q - p - 1 = -1 gives the logarithm
    mod = Modulus.power(2, 1)
    assert mod.integral_weighted(1.0, 5.0, p=2) == pytest.approx(math.log(5.0), rel=1e-14)


def test_integral_weighted_empty():
    assert Modulus.power(2, 1).integral_weighted(1.0, 1.0, p=0) == 0.0


def test_integral_weighted_linear_case():
    # integrand t for q=2, p=0
    assert Modulus.power(2, 1).integral_weighted(1.0, 2.0, p=0) == pytest.approx(
        1.5, rel=1e-14
    )


# -- quasipower constant -----------------------------------------------------


def test_quasipower_power_family_exact():
    for s in (0.5, 1.0, 2.0):
        est = quasipower_constant(Modulus.power(s, 2), [0.2, 1.0, 3.0])
        assert est.bounded
        assert est.value == pytest.approx(1.0 / s, rel=1e-12)


def test_quasipower_product_form_below_one():
    # t times a nondecreasing factor keeps the constant at most 1
    est = quasipower_constant(Modulus.power_log(1.0, 2), [0.3, 1.0, 4.0])
    assert est.bounded and est.value <= 1.0 + 1e-9


def test_quasipower_flat_power_diverges():
    est = quasipower_constant(Modulus.power(0.0, 1), [1.0])
    assert not est.bounded
    assert math.isinf(est.value)


def test_quasipower_table_tail():
    mod = Modulus.table([(1.0, 1.0), (4.0, 2.0)], m=1)
    est = quasipower_constant(mod, [0.5, 1.0, 3.0])
    assert est.bounded
    # scan value at the first knot: tail integral w0/s0 over w(t0) = 2
    assert est.value >= 2.0 - 1e-12


def test_quasipower_grid_validation():
    with pytest.raises(ValueError):
        quasipower_constant(Modulus.power(1, 1), [])
    with pytest.raises(ValueError):
        quasipower_constant(Modulus.power(1, 1), [-1.0])


# -- tail mass ---------------------------------------------------------------


def test_tail_mass_power_closed_form():
    mod = Modulus.power(0.5, 2)  # kernel s^(-1.5)
    v = 0.4
    assert mod.tail_mass(v) == pytest.approx(2.0 / math.sqrt(v), rel=1e-12)
    assert math.isinf(Modulus.power(1, 2).tail_mass(1.0))
    assert math.isinf(Modulus.power(1, 1).tail_mass(1.0))


def test_tail_mass_powerlog_against_truncation():
    mod = Modulus.power_log(0.2, 2)  # kernel s^(-1.8) ln(1+s)
    v = 0.5
    big = 1e5
    head = mod.integral_core(v, big)
    # remainder beyond the cutoff is tiny for this decay
    assert mod.tail_mass(v) == pytest.approx(head, rel=1e-3)
    assert mod.tail_mass(v) >= head


def test_tail_mass_table_is_the_mass_up_to_the_last_knot():
    mod = Modulus.table([(0.01, 0.01), (1.0, 0.5), (100.0, 2.0), (1e4, 3.0)], m=2)
    for v in (1e-3, 0.5, 73.48, 9999.0, 1e4):
        assert mod.tail_mass(v) == mod.integral_core(v, 1e4)
    with pytest.raises(ValueError):
        mod.tail_mass(2e4)  # beyond the last knot
    # every target at or above the mass is out of reach, every one below it
    # is reached inside the table
    v = 73.48
    assert math.isinf(mod.core_integral_inverse(mod.tail_mass(v), v))
    below = 0.999 * mod.tail_mass(v)
    t = mod.core_integral_inverse(below, v)
    assert v + t <= mod.domain_max
    assert mod.integral_core(v, v + t) == pytest.approx(below, rel=1e-12)


def test_core_integral_inverse_roundtrip():
    for mod in (Modulus.power(1.0, 2), Modulus.power(0.5, 2), Modulus.power_log(0.5, 2)):
        v = 0.7
        for target in (0.01, 0.3, 1.0):
            t = mod.core_integral_inverse(target, v)
            assert mod.integral_core(v, v + t) == pytest.approx(target, rel=1e-9)


def test_core_integral_inverse_beyond_mass_is_inf():
    mod = Modulus.power(0.2, 2)
    v = 1.0
    assert math.isinf(mod.core_integral_inverse(mod.tail_mass(v) * 1.5, v))


def test_core_integral_inverse_beyond_float_range_is_inf():
    # p = q - m + 1 == 0: v * expm1(w) overflows past w = 709.78
    assert Modulus.power(1.0, 2).core_integral_inverse(800.0, 1.0) == math.inf
    # p > 0: base ** (1 / p) overflows for a large 1 / p
    assert Modulus.power(1.001, 2).core_integral_inverse(1e6, 1.0) == math.inf
    # p < 0: base ** (1 / p) overflows as base = v^p + p w nears 0, just
    # below the tail mass 1 / 0.01
    mod = Modulus.power(0.99, 2)
    assert 99.99 < mod.tail_mass(1.0)
    assert mod.core_integral_inverse(99.99, 1.0) == math.inf
    # below the overflow the closed forms are unchanged
    assert mod.core_integral_inverse(50.0, 1.0) == pytest.approx(0.5 ** -100 - 1.0, rel=1e-12)
    assert Modulus.power(1.0, 2).core_integral_inverse(700.0, 1.0) == math.expm1(700.0)
