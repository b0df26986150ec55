"""Polynomial calculus: exact derivatives, Taylor recentering, algebra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.poly import (
    Poly,
    add_shifted_power,
    deriv_matrix,
    mi_factorial,
    mi_order,
    multi_indices,
    poly_space_dim,
)


def test_multi_index_enumeration():
    assert multi_indices(1, 2) == ((0,), (1,), (2,))
    assert len(multi_indices(2, 2)) == poly_space_dim(2, 2) == 6
    assert poly_space_dim(2, 2) == math.comb(4, 2)
    assert multi_indices(2, 0) == ((0, 0),)


def test_mi_helpers():
    assert mi_order((2, 1)) == 3
    assert mi_factorial((3, 2)) == 12


def test_deriv_eval_univariate():
    p = Poly(1, 2, {(2,): 1.0})
    assert p.deriv_eval((1,), (3.0,)) == 6.0
    assert p.deriv_eval((3,), (3.0,)) == 0.0  # above the stored degree


def test_deriv_eval_mixed():
    p = Poly(2, 2, {(1, 1): 1.0})
    assert p.deriv_eval((1, 1), (5.0, -2.0)) == 1.0
    assert p.deriv_eval((0, 0), (2.0, 3.0)) == 6.0


def test_eval_and_algebra():
    p = Poly(1, 2, {(0,): 1.0, (1,): -2.0, (2,): 0.5})
    assert p.eval((2.0,)) == 1.0 - 4.0 + 2.0
    q = p.scale(2.0)
    assert q.eval((2.0,)) == -2.0
    assert (p - p).coef == {}
    assert (p + p).eval((1.5,)) == 2 * p.eval((1.5,))


def test_zero_coefficients_dropped():
    p = Poly(1, 2, {(0,): 0.0, (1,): 1.0})
    assert (1,) in p.coef and (0,) not in p.coef


def test_degree_bound_enforced():
    with pytest.raises(ValueError, match="coefficient order 2 exceeds degree bound 1"):
        Poly(1, 1, {(2,): 1.0})
    with pytest.raises(ValueError, match=r"bad multi-index \(1,\) for dimension 2"):
        Poly(2, 1, {(1,): 1.0})  # wrong index arity
    with pytest.raises(ValueError, match=r"bad multi-index \(1, -1\) for dimension 2"):
        Poly(2, 1, {(1.0, -1): 1.0})  # entries are read as ints


def test_taylor_fixes_low_degree():
    p = Poly(1, 1, {(0,): 3.0, (1,): -1.0})
    t = p.taylor((0.7,), 1)
    assert t.coef == pytest.approx(p.coef)


def test_taylor_univariate_drop_order():
    # quadratic x^2 linearized at 1: slope 2 through (1,1)
    p = Poly(1, 2, {(2,): 1.0})
    t = p.taylor((1.0,), 1)
    assert t.coef[(1,)] == pytest.approx(2.0)
    assert t.coef[(0,)] == pytest.approx(-1.0)


def test_taylor_order_zero_is_value():
    p = Poly(2, 2, {(1, 1): 2.0, (0, 1): 1.0})
    t = p.taylor((1.0, 2.0), 0)
    assert t.coef == {(0, 0): pytest.approx(p.eval((1.0, 2.0)))}


@settings(max_examples=150, deadline=None)
@given(
    c0=st.floats(-3, 3), c1=st.floats(-3, 3), c2=st.floats(-3, 3),
    x=st.floats(-2, 2), y=st.floats(-2, 2),
)
def test_taylor_reproduces_polynomial(c0, c1, c2, x, y):
    p = Poly(1, 2, {(0,): c0, (1,): c1, (2,): c2})
    t = p.taylor((x,), 2)
    assert t.eval((y,)) == pytest.approx(p.eval((y,)), rel=1e-9, abs=1e-9)


def test_taylor_derivative_match_multivariate():
    rng = np.random.default_rng(9)
    for _ in range(50):
        coef = {a: float(rng.uniform(-2, 2)) for a in multi_indices(2, 3)}
        p = Poly(2, 3, coef)
        x = tuple(rng.uniform(-1, 1, size=2))
        k = int(rng.integers(0, 4))
        t = p.taylor(x, k)
        for alpha in multi_indices(2, k):
            assert t.deriv_eval(alpha, x) == pytest.approx(
                p.deriv_eval(alpha, x), rel=1e-9, abs=1e-9
            )


def test_deriv_matrix_bit_identical_to_deriv_eval():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for degree in range(4):
            orders = multi_indices(n, degree + 1)  # orders above the degree give 0
            points = [tuple(rng.uniform(-3, 3, size=n).tolist()) for _ in range(4)]
            mat = deriv_matrix(n, degree, orders, points)
            assert mat.shape == (4, len(orders), len(multi_indices(n, degree)))
            for p, x in enumerate(points):
                for a, alpha in enumerate(orders):
                    for b, beta in enumerate(multi_indices(n, degree)):
                        want = Poly(n, degree, {beta: 1.0}).deriv_eval(alpha, x)
                        assert mat[p, a, b].tobytes() == np.float64(want).tobytes()
    with pytest.raises(ValueError):
        deriv_matrix(2, 1, multi_indices(2, 1), [(0.0,)])


def _shifted_power_loop(out, lead, beta, x):
    """lead * (y - x)^beta added to ``out`` term by term, comb and power
    factors taken coordinate by coordinate as they are met."""
    for gamma in itertools.product(*(range(b + 1) for b in beta)):
        c = lead
        for bi, gi, xi in zip(beta, gamma, x):
            c *= math.comb(bi, gi)
            if bi - gi:
                c *= (-xi) ** (bi - gi)
        if c != 0.0:
            out[gamma] = out.get(gamma, 0.0) + c


def test_add_shifted_power_matches_the_term_loop():
    # the same products in the same order: every coefficient bit for bit and
    # the keys in the same order, over sums of shifted powers with zero,
    # signed-zero and wide-ranging leads and centers
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for degree in range(5):
            for _ in range(4):
                x = tuple(float(v) for v in rng.choice([0.0, -0.0, 1e-200, -3.5, 1e60, 0.7], size=n))
                got, want = {}, {}
                for beta in multi_indices(n, degree):
                    lead = float(rng.choice([0.0, -0.0, 1.25, -7e-300, 3e200]))
                    add_shifted_power(got, lead, beta, x)
                    _shifted_power_loop(want, lead, beta, x)
                assert list(got) == list(want)
                assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
