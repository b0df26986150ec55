"""Cube geometry in the uniform norm and the metrics on cube space.

Cubes Q(x, r) are closed uniform-norm balls with center x and radius r > 0.
The space of cubes carries a logarithmic distance ``cube_distance``, a modulus-weighted
integral distance ``weighted_cube_distance``, and, through the identification
of a cube with the upper half-space point (x, r), the classical Poincare
half-space metric ``poincare_distance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .modulus import Modulus

Point = tuple[float, ...]


def as_point(coords: Iterable[float]) -> Point:
    return tuple(float(c) for c in coords)


def uniform_norm(x: Sequence[float]) -> float:
    """Max-of-absolute-coordinates norm."""
    return max((abs(c) for c in x), default=0.0)


def point_sub(x: Sequence[float], y: Sequence[float]) -> Point:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return tuple(a - b for a, b in zip(x, y))


@dataclass(frozen=True)
class Cube:
    """Closed cube: uniform-norm ball of radius r > 0 centered at x."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        if not self.center:
            raise ValueError("cube center must have dimension >= 1")
        if not all(map(math.isfinite, self.center)):
            raise ValueError("cube center must be finite")
        if not (0 < self.radius < math.inf):
            raise ValueError("cube radius must be strictly positive and finite")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, x: Sequence[float]) -> bool:
        return uniform_norm(point_sub(x, self.center)) <= self.radius


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x, h) of the open upper half-space, h > 0."""

    base: Point
    height: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", as_point(self.base))
        if not (self.height > 0):
            raise ValueError("height must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.base)


def cube_to_halfspace(q: Cube) -> HalfSpacePoint:
    return HalfSpacePoint(base=q.center, height=q.radius)


def halfspace_to_cube(z: HalfSpacePoint) -> Cube:
    return Cube(center=z.base, radius=z.height)


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")


def pair_scales(q1: Cube, q2: Cube) -> tuple[float, float, float]:
    """The scales of a cube pair: the smaller radius min(r1, r2), the span
    max(r1, r2) + ||x1 - x2|| and the reach r1 + r2 + ||x1 - x2||."""
    sep = uniform_norm(point_sub(q1.center, q2.center))
    return (
        min(q1.radius, q2.radius),
        max(q1.radius, q2.radius) + sep,
        q1.radius + q2.radius + sep,
    )


def cube_distance(q1: Cube, q2: Cube) -> float:
    """Logarithmic cube distance ln(1 + (max(r1,r2) + ||x1-x2||) / min(r1,r2)).

    Exactly zero only when the two cubes are equal (bit-equality of the
    stored centers and radii).
    """
    _check_same_dim(q1, q2)
    if q1 == q2:
        return 0.0
    v, span, _ = pair_scales(q1, q2)
    ratio = span / v
    return math.log1p(ratio) if ratio < math.inf else math.log(span) - math.log(v)


def weighted_cube_distance(mod: Modulus, q1: Cube, q2: Cube) -> float:
    """Modulus-weighted cube distance: the core integral of w(s)/s^m from
    min(r1,r2) to r1 + r2 + ||x1-x2||; zero only for equal cubes."""
    _check_same_dim(q1, q2)
    if q1 == q2:
        return 0.0
    v, _, reach = pair_scales(q1, q2)
    return mod.integral_core(v, reach)


def poincare_distance(z1: HalfSpacePoint, z2: HalfSpacePoint) -> float:
    """Poincare upper half-space distance.

    Defined as ln((A + B)/(A - B)) with B the Euclidean distance between the
    points and A the Euclidean distance to the reflection (height negated).
    """
    _check_same_dim(z1, z2)
    if z1 == z2:
        return 0.0
    diff = [a - b for a, b in zip(z1.base, z2.base)]
    b = math.hypot(*diff, z1.height - z2.height)
    a = math.hypot(*diff, z1.height + z2.height)
    # A - B cancels badly for far pairs; use A^2 - B^2 = 4*h1*h2 instead, one
    # factor (a + b) / (2 h) >= 1 at a time so that neither overflows
    return math.log((a + b) / (2.0 * z1.height)) + math.log((a + b) / (2.0 * z2.height))


def equivalence_ratio(z1: HalfSpacePoint, z2: HalfSpacePoint) -> float:
    """Ratio of the cube metric (through the cube/half-space identification)
    to 1 + the Poincare distance.  The two are equivalent up to constants;
    this ratio is what an empirical constant scan samples."""
    if z1 == z2:
        raise ValueError("ratio undefined for equal points")
    varrho = cube_distance(halfspace_to_cube(z1), halfspace_to_cube(z2))
    return varrho / (1.0 + poincare_distance(z1, z2))


def cube_family(points: Sequence[Sequence[float]], radii: Sequence[float]) -> list[Cube]:
    """All cubes with centers in the given point set and the given radii,
    deduplicated, in deterministic (point-major) order."""
    if not points:
        raise ValueError("empty point set")
    if not radii:
        raise ValueError("empty radius list")
    out: list[Cube] = []
    seen: set[Cube] = set()
    for x in points:
        for r in radii:
            q = Cube(center=as_point(x), radius=float(r))
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


def dyadic_radii(points: Sequence[Sequence[float]], levels: int) -> list[float]:
    """Dyadic radius grid diam * 2^-j, j = 0..levels, scaled to the uniform
    diameter of the point set (unit scale for a single point)."""
    if levels < 0:
        raise ValueError("levels must be non-negative")
    # the largest coordinate range: a - b rounds monotonically in a and b,
    # so this is the largest pairwise uniform distance, bit for bit
    coords = zip(*(as_point(p) for p in points), strict=True)
    diam = max((max(c) - min(c) for c in coords), default=0.0) or 1.0
    return [diam * 2.0**-j for j in range(levels + 1)]
