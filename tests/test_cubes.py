"""Cube geometry and the three distances on cube space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.cubes import (
    Cube,
    cube_distance,
    cube_family,
    dyadic_radii,
    equivalence_ratio,
    pair_scales,
    poincare_distance,
    point_sub,
    uniform_norm,
    weighted_cube_distance,
)
from jetspace.modulus import Modulus


def test_uniform_norm():
    assert uniform_norm((0.0, 0.0, 0.0)) == 0.0
    assert uniform_norm((3.0, -5.0)) == 5.0
    assert uniform_norm((-2.0, 2.0)) == 2.0


def test_cube_validation():
    with pytest.raises(ValueError):
        Cube(center=(0.0,), radius=0.0)
    with pytest.raises(ValueError):
        Cube(center=(), radius=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Cube(center=(0.0, bad), radius=1.0)
        with pytest.raises(ValueError):
            Cube(center=(0.0,), radius=bad)


def test_cube_distance_identity_and_value():
    q1 = Cube((0.0,), 1.0)
    assert cube_distance(q1, q1) == 0.0
    q2 = Cube((0.0,), 2.0)
    assert cube_distance(q1, q2) == pytest.approx(math.log(3.0), rel=1e-12)


def test_cube_distance_shrinking_radii():
    # radii 2^(-1), 2^(-4): ratio 2^3
    q1 = Cube((0.0,), 2.0**-1)
    q2 = Cube((0.0,), 2.0**-4)
    assert cube_distance(q1, q2) == pytest.approx(math.log(9.0), rel=1e-12)


def test_cube_distance_dimension_mismatch():
    q1, q2 = Cube((0.0,), 1.0), Cube((0.0, 0.0), 1.0)
    for distance in (cube_distance, poincare_distance, equivalence_ratio):
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance(q1, q2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        weighted_cube_distance(Modulus.power(1, 2), q1, q2)


def test_weighted_distance_unit_kernel():
    # w(t) = t at order 1: the kernel is 1, so the distance is max radius + separation
    mod = Modulus.power(1, 1)
    q1 = Cube((0.0,), 1.0)
    q2 = Cube((3.0,), 2.0)
    assert weighted_cube_distance(mod, q1, q2) == pytest.approx(2.0 + 3.0, rel=1e-14)


def test_weighted_distance_log_kernel_equals_cube_distance():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        mod = Modulus.power(m - 1, m)
        for _ in range(200):
            q1 = Cube(tuple(rng.uniform(-2, 2, size=2)), float(rng.uniform(0.05, 3)))
            q2 = Cube(tuple(rng.uniform(-2, 2, size=2)), float(rng.uniform(0.05, 3)))
            assert weighted_cube_distance(mod, q1, q2) == pytest.approx(
                cube_distance(q1, q2), rel=1e-10
            )


def test_weighted_distance_equal_cubes():
    mod = Modulus.power(1, 2)
    q = Cube((1.0, -1.0), 0.5)
    assert weighted_cube_distance(mod, q, q) == 0.0


def test_weighted_distance_where_the_reach_overflows():
    mp = pytest.importorskip("mpmath")
    # the reach 2.5e308 + 1 overflows, the span 1.5e308 + 1 does not
    q1, q2 = Cube((0.0,), 1e308), Cube((1.0,), 1.5e308)
    with mp.workdps(40):
        v, reach = mp.mpf(1e308), mp.mpf(1e308) + mp.mpf(1.5e308) + 1
        # w(t) = t^(1/2) at m = 2: the kernel s^(-3/2) integrates to 2 (v^-1/2 - reach^-1/2)
        root, log = float(2 * (v**-0.5 - reach**-0.5)), float(mp.log(reach / v))
    assert weighted_cube_distance(Modulus.power(0.5, 2), q1, q2) == pytest.approx(root, rel=1e-12)
    assert weighted_cube_distance(Modulus.power(1.0, 2), q1, q2) == pytest.approx(log, rel=1e-12)
    # the span overflows too: only a tail that rounds away beyond the float range is the value
    far = Cube((1e308,), 1.0), Cube((-1e308,), 1.0)
    assert weighted_cube_distance(Modulus.power(0.5, 2), *far) == 2.0
    for slow in (Modulus.power(1.0, 2), Modulus.power(0.999, 2)):
        with pytest.raises(OverflowError):
            weighted_cube_distance(slow, *far)
    table = Modulus.table([(0.5, 0.6), (1.0, 1.0), (16.0, 4.0)], 2)
    with pytest.raises(ValueError, match="table range"):
        weighted_cube_distance(table, *far)


def test_poincare_vertical_pair():
    q1 = Cube((0.0,), 1.0)
    q2 = Cube((0.0,), math.e)
    assert poincare_distance(q1, q2) == pytest.approx(1.0, rel=1e-12)
    assert poincare_distance(q1, q1) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(-5, 5), x2=st.floats(-5, 5),
    h1=st.floats(0.01, 10), h2=st.floats(0.01, 10),
)
def test_poincare_symmetry_nonnegative(x1, x2, h1, h2):
    q1 = Cube((x1,), h1)
    q2 = Cube((x2,), h2)
    d12 = poincare_distance(q1, q2)
    d21 = poincare_distance(q2, q1)
    assert d12 == pytest.approx(d21, rel=1e-10, abs=1e-12)
    assert d12 >= 0.0


def test_poincare_scale_invariance():
    q1 = Cube((1.0, 0.5), 0.7)
    q2 = Cube((-0.3, 2.0), 1.9)
    lam = 37.0
    w1 = Cube(tuple(lam * c for c in q1.center), lam * q1.radius)
    w2 = Cube(tuple(lam * c for c in q2.center), lam * q2.radius)
    assert poincare_distance(q1, q2) == pytest.approx(
        poincare_distance(w1, w2), rel=1e-12
    )


@pytest.mark.parametrize(
    "q1, q2",
    [
        # the separation overflows
        (Cube((1e308,), 1.0), Cube((-1e308,), 1.0)),
        (Cube((1.7976931348623157e308, 0.0), 1e308), Cube((-1.7976931348623157e308, 1.0), 1.0)),
        (Cube((1e308, 0.0), 5e-324), Cube((-1e308, 1.0), 3e-323)),
        # a + b or a Poincare factor (a + b) / (2 h) overflows
        (Cube((0.0,), 1e-10), Cube((1e300,), 1e-10)),
        (Cube((0.0,), 1.7e308), Cube((0.0,), 1e-300)),
        (Cube((0.0,), 1.7e308), Cube((0.0,), 1.6e308)),
    ],
)
def test_distances_where_the_scales_overflow(q1, q2):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        diff = [mp.mpf(a) - mp.mpf(b) for a, b in zip(q1.center, q2.center)]
        r1, r2 = mp.mpf(q1.radius), mp.mpf(q2.radius)
        span = max(r1, r2) + max(abs(d) for d in diff)
        euclid2 = sum(d**2 for d in diff) + (r1 - r2) ** 2
        cube = float(mp.log1p(span / min(r1, r2)))
        poincare = float(mp.acosh(1 + euclid2 / (2 * r1 * r2)))
    assert cube_distance(q1, q2) == pytest.approx(cube, rel=1e-12)
    assert poincare_distance(q1, q2) == pytest.approx(poincare, rel=1e-12)


def test_equivalence_ratio_vertical_value():
    q1 = Cube((0.0,), 1.0)
    q2 = Cube((0.0,), math.e)
    expected = math.log(1.0 + math.e) / 2.0
    assert equivalence_ratio(q1, q2) == pytest.approx(expected, rel=1e-12)


def test_equivalence_ratio_near_coincident():
    q1 = Cube((0.0,), 1.0)
    q2 = Cube((0.0,), 1.0 + 1e-9)
    # the cube metric jumps to about ln 2 while the smooth metric vanishes
    assert equivalence_ratio(q1, q2) == pytest.approx(math.log(2.0), rel=1e-6)


def test_equivalence_ratio_positive_finite():
    rng = np.random.default_rng(11)
    for _ in range(500):
        q1 = Cube(tuple(rng.normal(0, 3, size=2)), float(rng.uniform(0.1, 10)))
        q2 = Cube(tuple(rng.normal(0, 3, size=2)), float(rng.uniform(0.1, 10)))
        if q1 == q2:
            continue
        ratio = equivalence_ratio(q1, q2)
        assert 0.0 < ratio < math.inf


def test_equivalence_ratio_equal_points_error():
    q = Cube((0.0,), 1.0)
    with pytest.raises(ValueError):
        equivalence_ratio(q, q)


def test_cube_family_product_and_dedup():
    pts = [(0.0,), (1.0,)]
    fam = cube_family(pts, [1.0, 2.0, 4.0])
    assert len(fam) == 6
    fam2 = cube_family([(0.0,), (0.0,)], [1.0])
    assert fam2 == [Cube((0.0,), 1.0)]
    with pytest.raises(ValueError):
        cube_family([], [1.0])
    with pytest.raises(ValueError):
        cube_family(pts, [])


def test_dyadic_radii():
    pts = [(0.0,), (4.0,)]
    assert dyadic_radii(pts, 2) == [4.0, 2.0, 1.0]
    assert dyadic_radii([(7.0,)], 1) == [1.0, 0.5]
    with pytest.raises(ValueError, match="levels must be non-negative"):
        dyadic_radii(pts, -1)


def _pairwise_diameter(points):
    diam = 0.0
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            diam = max(diam, uniform_norm(point_sub(a, b)))
    return diam if diam != 0.0 else 1.0


def test_dyadic_radii_matches_pairwise_diameter_bit_for_bit():
    rng = np.random.default_rng(23)
    sets = [[(7.0, -1.0)], [(0.3, 0.3)] * 4, [(1.0,), (1.0,), (-2.5,), (-2.5,)]]
    for _ in range(200):
        n = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-6, 6, size=n)
        draws = rng.uniform(-1, 1, (int(rng.integers(1, 9)), n)) * scale
        pts = [tuple(map(float, x)) for x in draws]
        sets.append(pts + pts[: int(rng.integers(0, 3))])  # some duplicates
    for pts in sets:
        assert dyadic_radii(pts, 2) == [_pairwise_diameter(pts) * 2.0**-j for j in range(3)]
    with pytest.raises(ValueError):
        dyadic_radii([(0.0,), (1.0, 2.0)], 1)


def test_pair_scales_bit_identical_to_inline_expressions():
    rng = np.random.default_rng(29)
    mod = Modulus.power(1.5, 2)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        scales = 10.0 ** rng.uniform(-8, 8, size=(2, 2))  # center and radius scale per cube
        q1, q2 = [Cube(rng.uniform(-3, 3, n) * c, float(r)) for c, r in scales]
        sep = uniform_norm(point_sub(q1.center, q2.center))
        assert sep == uniform_norm(tuple(a - b for a, b in zip(q1.center, q2.center)))
        expected = (
            min(q1.radius, q2.radius),
            max(q1.radius, q2.radius) + sep,
            q1.radius + q2.radius + sep,
        )
        assert pair_scales(q1, q2) == expected
        assert cube_distance(q1, q2) == math.log1p(expected[1] / expected[0])
        assert weighted_cube_distance(mod, q1, q2) == mod.integral_core(expected[0], expected[2])


def test_triangle_small_random():
    rng = np.random.default_rng(5)
    mod = Modulus.power(1.0, 2)
    for _ in range(2000):
        q = [
            Cube(tuple(rng.uniform(-3, 3, size=2)), float(rng.uniform(0.05, 4)))
            for _ in range(3)
        ]
        assert cube_distance(q[0], q[2]) <= (
            cube_distance(q[0], q[1]) + cube_distance(q[1], q[2])
        ) * (1 + 1e-9) + 1e-300
        assert weighted_cube_distance(mod, q[0], q[2]) <= (
            weighted_cube_distance(mod, q[0], q[1])
            + weighted_cube_distance(mod, q[1], q[2])
        ) * (1 + 1e-9) + 1e-300


def test_vectorized_equivalence_suite_matches_scalar():
    # the sampled-suite arithmetic must agree with the scalar function
    rng = np.random.default_rng(77)
    bases = rng.normal(0.0, 3.0, size=(200, 2, 2))
    heights = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(200, 2)))
    for i in range(200):
        q1 = Cube(tuple(bases[i, 0]), float(heights[i, 0]))
        q2 = Cube(tuple(bases[i, 1]), float(heights[i, 1]))
        scalar = equivalence_ratio(q1, q2)
        # inline the suite's vectorized arithmetic for this single pair
        sep = float(np.max(np.abs(bases[i, 0] - bases[i, 1])))
        hmin, hmax = float(np.min(heights[i])), float(np.max(heights[i]))
        varrho = math.log1p((hmax + sep) / hmin)
        d2 = float(np.sum((bases[i, 0] - bases[i, 1]) ** 2))
        bdist = math.sqrt(d2 + (heights[i, 0] - heights[i, 1]) ** 2)
        adist = math.sqrt(d2 + (heights[i, 0] + heights[i, 1]) ** 2)
        ph = math.log((adist + bdist) ** 2 / (4.0 * heights[i, 0] * heights[i, 1]))
        assert scalar == pytest.approx(varrho / (1.0 + ph), rel=1e-12)
