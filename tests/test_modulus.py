"""Moduli: evaluation, membership checks, core integrals, quasipower scans."""

import math

import numpy as np
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


@pytest.mark.filterwarnings("error")
def test_tail_beyond_the_float_range_is_inf():
    # kernel s^(-2.5): the tail from v is v^(-1.5) / 1.5, beyond the float
    # range from about v = 3e-206 down, where v^(-1.5) overflows first; both
    # routes take the mass in the log domain there, so the window where
    # v^(-1.5) overflows and the mass does not keeps its value, and a finite
    # step beyond the float range still raises
    mp = pytest.importorskip("mpmath")
    mod = Modulus.power(0.5, 3)
    assert mod.tail_mass(1e-292) == math.inf
    assert mod.core_integrals(np.array([1e-292, 1.0]), np.array([np.inf, np.inf])).tolist() == [
        math.inf, mod.tail_mass(1.0)
    ]
    for size in ("1.2e308", "1.7e308", "2.6e308"):
        with mp.workdps(30):
            v = float(mp.mpf(size) ** (mp.mpf(-2) / 3))
            exact = float(mp.mpf(v) ** mp.mpf(-1.5) / mp.mpf(1.5))
        assert mod.tail_mass(v) == pytest.approx(exact, rel=1e-12)
        assert mod.core_integrals(np.array([v]), np.array([np.inf]))[0] == pytest.approx(exact, rel=1e-12)
    with pytest.raises(OverflowError, match="float range"):
        mod.integral_core(1e-292, 1.0)
    with pytest.raises(OverflowError, match="float range"):
        mod.core_integrals(np.array([1e-292]), np.array([1.0]))


def test_tail_mass_powerlog_against_truncation():
    mp = pytest.importorskip("mpmath")
    mod = Modulus.power_log(0.2, 2)  # kernel s^(-1.8) ln(1+s)
    v = 0.5
    head = mod.integral_core(v, 1e5)
    # the oracle integrates e^(-0.8 y) ln(1 + e^y) over [ln v, inf), s = e^y
    with mp.workdps(30):
        lv = mp.log(v)
        exact = mp.quad(lambda y: mp.exp(-0.8 * y) * mp.log1p(mp.exp(y)), [lv, 0, 5, 20, 60, mp.inf])
    assert mod.tail_mass(v) == pytest.approx(float(exact), rel=1e-12)
    assert mod.tail_mass(v) > head


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


def test_tail_mass_and_core_inverse_argument_checks():
    mod = Modulus.power(0.2, 2)
    for v in (0.0, -1.0):
        with pytest.raises(ValueError, match="lower bound must be positive"):
            mod.tail_mass(v)
        with pytest.raises(ValueError, match="base point must be positive"):
            mod.core_integral_inverse(1.0, v)
    assert mod.core_integral_inverse(0.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="target must be non-negative"):
        mod.core_integral_inverse(-1.0, 1.0)


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


def test_core_integral_inverse_past_expm1_overflow():
    # p = 0: the increment v (e^w - 1) is finite for v < 1 past w = 709.78,
    # where expm1(w) alone overflows
    mp = pytest.importorskip("mpmath")
    t = Modulus.power(1.0, 2).core_integral_inverse(710.0, 0.01)
    assert t == pytest.approx(float(mp.mpf(0.01) * mp.expm1(710)), rel=1e-12)
    assert 2.2e306 < t < 2.3e306


# -- exact oracles -----------------------------------------------------------

# exponents k of the kernel s^k ln(1+s) = s^(q-m) ln(1+s) with an exact
# antiderivative below
POWERLOG_GRID = [(q, m) for q in (0.5, 1.0, 1.5, 2.0) for m in (1, 2)]


def _powerlog_antiderivative(mp, k, s):
    """An antiderivative of s^k ln(1+s), for k in {-1.5, -1, -0.5, 0, 0.5, 1}."""
    log, root = mp.log1p(s), mp.sqrt(s)
    forms = {
        -1.5: lambda: -2 * log / root + 4 * mp.atan(root),
        -1.0: lambda: -mp.polylog(2, -s),
        -0.5: lambda: 2 * root * log - 4 * root + 4 * mp.atan(root),
        0.0: lambda: (1 + s) * log - s,
        0.5: lambda: (2 * root**3 * log - 4 * (root**3 / 3 - root + mp.atan(root))) / 3,
        1.0: lambda: (s * s - 1) / 2 * log - s * s / 4 + s / 2,
    }
    return forms[k]()


def powerlog_exact(q: float, m: int, a: float, b: float) -> float:
    """Integral of s^(q-m) ln(1+s) over [a, b] from exact antiderivatives at
    80 digits, rounded once; +inf beyond the float range."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        a, b = mp.mpf(a), mp.mpf(b)
        k = q - m
        exact = _powerlog_antiderivative(mp, k, b) - _powerlog_antiderivative(mp, k, a)
        return float(exact) if exact < mp.mpf(2) ** 1024 else math.inf


@pytest.mark.parametrize("k", [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0])
def test_powerlog_antiderivatives_against_mpmath_quad(k):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for a, b in ((1e-3, 0.4), (0.3, 1.7), (0.9, 40.0)):
            quad = mp.quad(lambda s: s**k * mp.log1p(s), [a, b])
            exact = _powerlog_antiderivative(mp, k, mp.mpf(b)) - _powerlog_antiderivative(
                mp, k, mp.mpf(a)
            )
            assert abs(exact - quad) <= mp.mpf(1e-25) * abs(quad)


@pytest.mark.parametrize("q, m", POWERLOG_GRID)
def test_powerlog_integral_matches_exact_antiderivative(q, m):
    """Relative 1e-12 over a in [1e-6, 1e3] and b / a up to 1e300, at steps
    far below a too; a value beyond the float range raises OverflowError."""
    mod = Modulus.power_log(q, m)
    rng = np.random.default_rng(int(10 * q + m))
    cases = [
        (a, a * r)
        for a in (1e-6, 1e-3, 0.3, 0.5, 0.53, 1.0, 1.7, 2.0, 3.0, 1e3)
        for r in (1 + 1e-15, 1 + 1e-12, 1 + 1e-6, 1.3, 2.5, 10.0, 1e3, 1e10, 1e30, 1e100, 1e300)
    ]
    for _ in range(60):
        a = float(10 ** rng.uniform(-6, 3))
        cases.append((a, a + a * float(10 ** rng.uniform(-16, 300))))
    for a, b in cases:
        exact = powerlog_exact(q, m, a, b)
        if math.isinf(exact):
            with pytest.raises(OverflowError):
                mod.integral_core(a, b)
        else:
            assert mod.integral_core(a, b) == pytest.approx(exact, rel=1e-12), (a, b)


def test_powerlog_dilogarithm_against_spence():
    # the kernel ln(1+s)/s integrates to -Li2(-s), and Li2(z) = spence(1 - z)
    special = pytest.importorskip("scipy.special")
    mod = Modulus.power_log(1.0, 2)
    for a in (1e-6, 0.01, 0.53, 1.0, 4.0, 1e3):
        for r in (1.3, 10.0, 1e4, 1e12):
            expect = special.spence(1.0 + a) - special.spence(1.0 + a * r)
            assert mod.integral_core(a, a * r) == pytest.approx(expect, rel=1e-12)


def test_powerlog_integral_far_beyond_the_old_quadrature_range():
    # adaptive Simpson returned 2.2e50 here, and 1.16e10 at b = 1e20
    mod = Modulus.power_log(1.0, 2)
    got = mod.integral_core(0.53, 1.9e60)
    assert got == pytest.approx(powerlog_exact(1.0, 2, 0.53, 1.9e60), rel=1e-12)
    assert got == pytest.approx(9633.47, abs=0.01)
    assert mod.integral_core(0.53, 1e20) == pytest.approx(1061.55, abs=0.01)


def test_powerlog_tail_mass_against_exact_value():
    # kernel s^-1.5 ln(1+s): the antiderivative tends to 2 pi at infinity
    mp = pytest.importorskip("mpmath")
    mod = Modulus.power_log(0.5, 2)
    for v in (1e-6, 0.3, 1.0, 2.0, 7.0, 1e8):
        with mp.workdps(50):
            exact = 2 * mp.pi - _powerlog_antiderivative(mp, -1.5, mp.mpf(v))
        assert mod.tail_mass(v) == pytest.approx(float(exact), rel=1e-12)


def test_powerlog_mass_below_against_exact_value():
    # quasipower at one grid point t: the integral of t^-0.5 ln(1+t) over
    # (0, t], whose antiderivative above vanishes at 0, over w(t)
    mp = pytest.importorskip("mpmath")
    mod = Modulus.power_log(0.5, 2)
    for t in (1e-3, 0.4, 0.7, 1.5, 30.0, 1e10):
        with mp.workdps(50):
            exact = _powerlog_antiderivative(mp, -0.5, mp.mpf(t)) / (mp.sqrt(t) * mp.log1p(t))
        assert quasipower_constant(mod, [t]).value == pytest.approx(float(exact), rel=1e-12)


def table_exact(mod: Modulus, a: float, b: float, weight: float | None = None) -> float:
    """Integral of w(s)/s^weight (by default m) over [a, b] for a table
    modulus, segment by segment at 60 digits, rounded once."""
    mp = pytest.importorskip("mpmath")
    weight = mod.m if weight is None else weight
    with mp.workdps(60):
        knots = [(mp.mpf(t), mp.mpf(w)) for t, w in mod.knots]
        total, lo = mp.mpf(0), mp.mpf(a)
        for i, ((t0, w0), (t1, w1)) in enumerate(zip(knots, knots[1:])):
            hi = min(mp.mpf(b), t1)
            if hi <= lo:
                continue
            slope = mp.log(w1 / w0) / mp.log(t1 / t0)
            e = slope - weight + 1
            total += w0 / t0**slope * (mp.log(hi / lo) if e == 0 else (hi**e - lo**e) / e)
            lo = hi
        return float(total)


def test_table_integral_matches_exact_segments():
    rng = np.random.default_rng(31)
    mods = [
        Modulus.table([(0.01, 1e-4), (1.0, 1.0), (1e4, 1e8)], 2),
        Modulus.table([(0.01, 0.01), (1.0, 0.5), (100.0, 2.0), (1e4, 3.0)], 2),
        Modulus.table([(1e-5, 1e-5), (1e5, 1e3)], 1),
    ]
    for mod in mods:
        for _ in range(40):
            a = float(10 ** rng.uniform(-6, math.log10(mod.domain_max)))
            b = a + (mod.domain_max - a) * float(10 ** rng.uniform(-16, 0))
            assert mod.integral_core(a, b) == pytest.approx(table_exact(mod, a, b), rel=1e-12)


def test_log_kernel_over_a_span_whose_ratio_overflows():
    # 1e300 / 1e-300 is beyond the float range, but ln of it is about 1381.55
    # on a power law and on a table segment with kernel 1/s alike
    for mod in (
        Modulus.power(1.0, 2),
        Modulus.table([(1e-300, 1e-300), (1.0, 1.0), (1e300, 1e300)], 2),
    ):
        assert mod.integral_core(1e-300, 1e300) == pytest.approx(600 * math.log(10), rel=1e-14)
        assert mod.integral_core(5e-324, 1e300) == pytest.approx(
            300 * math.log(10) - math.log(5e-324), rel=1e-14
        )
    assert Modulus.power(0.5, 2).integral_core(1e-300, 1e300) == pytest.approx(2e150, rel=1e-14)


def test_powerlog_core_inverse_beyond_the_float_range_is_inf():
    # ln(1+s)/s has no finite tail mass, but its integral up to the largest
    # float is about 709.78^2 / 2; the Newton bracket once doubled past it
    mod = Modulus.power_log(1.0, 2)
    reach = mod.integral_core(1.0, 1.7976931348623157e308)
    assert 2.5e5 < reach < 2.6e5
    assert mod.core_integral_inverse(reach, 1.0) == math.inf
    assert mod.core_integral_inverse(3e5, 1.0) == math.inf
    t = mod.core_integral_inverse(0.5 * reach, 1.0)
    assert mod.integral_core(1.0, 1.0 + t) == pytest.approx(0.5 * reach, rel=1e-12)


# -- the array route ------------------------------------------------------------

_ARRAY_MODULI = [
    *(Modulus.power(q, m) for q, m in ((1.0, 2), (0.5, 3), (1.5, 2), (3.0, 1), (0.0, 1), (0.999, 2))),
    *(Modulus.power_log(q, m) for q, m in ((1.0, 2), (0.0, 1), (0.5, 2), (2.0, 1), (0.0, 3), (3.0, 2))),
    Modulus.table([(0.05, 0.02), (1.0, 0.8), (10.0, 3.0)], 2),
    Modulus.table([(0.01, 1e-4), (1.0, 1.0), (1e4, 1e8)], 2),
]


def _array_draws(mod, rng, count):
    """(v, t) pairs over the whole float range: v log-uniform down to 1e-300
    (up to 1e300, or the last knot), v at the powerlog piece ends and the
    knots, t / v from 1e-12 up, t up to 1e300, t reaching a piece end
    exactly, t = 0 and t = +inf; past a table's last knot, also +inf or the
    room left."""
    ends = np.array([0.5, 1.0, 2.0, *(t for t, _ in mod.knots or ())])
    top = math.log10(mod.domain_max) if mod.knots else 300.0
    v = 10.0 ** rng.uniform(-300.0, top, count)
    v[: count // 4] = 10.0 ** rng.uniform(-3.0, 1.0, count // 4)
    v[count // 4 : count // 2] = rng.choice(ends, count // 4)
    v = np.minimum(v, mod.domain_max)
    t = v * 10.0 ** rng.uniform(-12.0, 6.0, count)
    t[::7] = 10.0 ** rng.uniform(-5.0, 300.0, t[::7].size)
    t[3::17] = np.maximum(rng.choice(ends, t[3::17].size) - v[3::17], 0.0)
    t[::11], t[::13] = np.inf, 0.0
    room, pick = mod.domain_max - v, rng.uniform(size=count)
    return v, np.where(t > room, np.where(pick < 0.4, room, np.where(pick < 0.8, np.inf, t)), t)


def _scalar_or_error(mod, v, t):
    try:
        return mod._increment(v, t)[0]
    except (ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.filterwarnings("error")
def test_core_integrals_match_the_scalar_route():
    # numpy's log1p, expm1 and pow round unlike libm's, so the routes agree
    # to within a few ulps; infinities, zeros and errors agree exactly
    rng = np.random.default_rng(20)
    compared = 0
    for mod in _ARRAY_MODULI:
        v, t = _array_draws(mod, rng, 800)
        want = [_scalar_or_error(mod, a, b) for a, b in zip(v.tolist(), t.tolist())]
        fine = np.array([isinstance(w, float) for w in want])
        got = mod.core_integrals(v[fine], t[fine])
        for a, b, g, w in zip(v[fine], t[fine], got.tolist(), [w for w in want if isinstance(w, float)]):
            if math.isfinite(w) and w != 0.0:
                assert abs(g - w) <= 1e-14 * abs(w), (mod, a, b)
            else:
                assert g == w, (mod, a, b)
        for a, b, w in zip(v[~fine], t[~fine], [w for w in want if not isinstance(w, float)]):
            with pytest.raises(w):
                mod.core_integrals(np.array([a]), np.array([b]))
        if not fine.all():  # one failing element fails the call
            with pytest.raises((ValueError, OverflowError)):
                mod.core_integrals(v, t)
        compared += v.size
        # an empty step integrates to 0, also where v^(k+1) overflows
        v = np.minimum([1e-300, 1.0, 1e200, 1e300], mod.domain_max)
        want = [_scalar_or_error(mod, a, 0.0) for a in v.tolist()]
        assert mod.core_integrals(v, 0.0 * v).tolist() == want == [0.0] * 4, mod
    assert compared >= 10_000
