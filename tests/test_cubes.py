"""Cube geometry and the three distances on cube space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.cubes import (
    Cube,
    HalfSpacePoint,
    cube_distance,
    cube_family,
    cube_to_halfspace,
    dyadic_radii,
    equivalence_ratio,
    halfspace_to_cube,
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
    with pytest.raises(ValueError):
        HalfSpacePoint(base=(0.0,), height=-1.0)


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
    with pytest.raises(ValueError):
        cube_distance(Cube((0.0,), 1.0), Cube((0.0, 0.0), 1.0))


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


def test_poincare_vertical_pair():
    z1 = HalfSpacePoint((0.0,), 1.0)
    z2 = HalfSpacePoint((0.0,), math.e)
    assert poincare_distance(z1, z2) == pytest.approx(1.0, rel=1e-12)
    assert poincare_distance(z1, z1) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(-5, 5), x2=st.floats(-5, 5),
    h1=st.floats(0.01, 10), h2=st.floats(0.01, 10),
)
def test_poincare_symmetry_nonnegative(x1, x2, h1, h2):
    z1 = HalfSpacePoint((x1,), h1)
    z2 = HalfSpacePoint((x2,), h2)
    d12 = poincare_distance(z1, z2)
    d21 = poincare_distance(z2, z1)
    assert d12 == pytest.approx(d21, rel=1e-10, abs=1e-12)
    assert d12 >= 0.0


def test_poincare_scale_invariance():
    z1 = HalfSpacePoint((1.0, 0.5), 0.7)
    z2 = HalfSpacePoint((-0.3, 2.0), 1.9)
    lam = 37.0
    w1 = HalfSpacePoint(tuple(lam * c for c in z1.base), lam * z1.height)
    w2 = HalfSpacePoint(tuple(lam * c for c in z2.base), lam * z2.height)
    assert poincare_distance(z1, z2) == pytest.approx(
        poincare_distance(w1, w2), rel=1e-12
    )


def test_equivalence_ratio_vertical_value():
    z1 = HalfSpacePoint((0.0,), 1.0)
    z2 = HalfSpacePoint((0.0,), math.e)
    expected = math.log(1.0 + math.e) / 2.0
    assert equivalence_ratio(z1, z2) == pytest.approx(expected, rel=1e-12)


def test_equivalence_ratio_near_coincident():
    z1 = HalfSpacePoint((0.0,), 1.0)
    z2 = HalfSpacePoint((0.0,), 1.0 + 1e-9)
    # the cube metric jumps to about ln 2 while the smooth metric vanishes
    assert equivalence_ratio(z1, z2) == pytest.approx(math.log(2.0), rel=1e-6)


def test_equivalence_ratio_positive_finite():
    rng = np.random.default_rng(11)
    for _ in range(500):
        z1 = HalfSpacePoint(tuple(rng.normal(0, 3, size=2)), float(rng.uniform(0.1, 10)))
        z2 = HalfSpacePoint(tuple(rng.normal(0, 3, size=2)), float(rng.uniform(0.1, 10)))
        if z1 == z2:
            continue
        ratio = equivalence_ratio(z1, z2)
        assert 0.0 < ratio < math.inf


def test_equivalence_ratio_equal_points_error():
    z = HalfSpacePoint((0.0,), 1.0)
    with pytest.raises(ValueError):
        equivalence_ratio(z, z)


def test_cube_halfspace_identification_roundtrip():
    q = Cube((1.0, 2.0), 0.25)
    assert halfspace_to_cube(cube_to_halfspace(q)) == q


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
        z1 = HalfSpacePoint(tuple(bases[i, 0]), float(heights[i, 0]))
        z2 = HalfSpacePoint(tuple(bases[i, 1]), float(heights[i, 1]))
        scalar = equivalence_ratio(z1, z2)
        # inline the suite's vectorized arithmetic for this single pair
        sep = float(np.max(np.abs(bases[i, 0] - bases[i, 1])))
        hmin, hmax = float(np.min(heights[i])), float(np.max(heights[i]))
        varrho = math.log1p((hmax + sep) / hmin)
        d2 = float(np.sum((bases[i, 0] - bases[i, 1]) ** 2))
        bdist = math.sqrt(d2 + (heights[i, 0] - heights[i, 1]) ** 2)
        adist = math.sqrt(d2 + (heights[i, 0] + heights[i, 1]) ** 2)
        ph = math.log((adist + bdist) ** 2 / (4.0 * heights[i, 0] * heights[i, 1]))
        assert scalar == pytest.approx(varrho / (1.0 + ph), rel=1e-12)
