"""Cube geometry in the uniform norm and the metrics on cube space.

Cubes Q(x, r) are closed uniform-norm balls with center x and radius r > 0.
A cube Q(x, r) is also the point (x, r) of the upper half-space, so the
space of cubes carries a logarithmic distance ``cube_distance``, a
modulus-weighted integral distance ``weighted_cube_distance`` and the
classical Poincare half-space metric ``poincare_distance``.
"""

from __future__ import annotations

import math
import sys
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


def pair_scales(q1: Cube, q2: Cube) -> tuple[float, float, float]:
    """The scales of a cube pair: the smaller radius min(r1, r2), the span
    max(r1, r2) + ||x1 - x2|| and the reach r1 + r2 + ||x1 - x2||.  Cubes of
    different dimensions raise ValueError here."""
    sep = uniform_norm(point_sub(q1.center, q2.center))
    return (
        min(q1.radius, q2.radius),
        max(q1.radius, q2.radius) + sep,
        q1.radius + q2.radius + sep,
    )


def _log_eightfold(num: float, den: float) -> float:
    """ln(8 * num / den), also where the quotient overflows."""
    ratio = num / den * 8.0
    return math.log(ratio) if ratio < math.inf else math.log(num) - math.log(den) + math.log(8.0)


def cube_distance(q1: Cube, q2: Cube) -> float:
    """Logarithmic cube distance ln(1 + (max(r1,r2) + ||x1-x2||) / min(r1,r2)).

    Exactly zero only when the two cubes are equal (bit-equality of the
    stored centers and radii).  Where the span overflows, the pair is taken
    at an eighth of its scale.
    """
    if q1 == q2:
        return 0.0
    v, span, _ = pair_scales(q1, q2)
    if span == math.inf:  # ln(1 + span / v) = ln(reach / v), with the reach at an eighth
        sep = uniform_norm([x / 8.0 - y / 8.0 for x, y in zip(q1.center, q2.center)])
        return _log_eightfold(q1.radius / 8.0 + q2.radius / 8.0 + sep, v)
    ratio = span / v
    return math.log1p(ratio) if ratio < math.inf else math.log(span) - math.log(v)


def weighted_cube_distance(mod: Modulus, q1: Cube, q2: Cube) -> float:
    """Modulus-weighted cube distance: ``reach_integral``, the core integral
    of w(s)/s^m from min(r1,r2) to r1 + r2 + ||x1-x2||; zero only for equal cubes."""
    if q1 == q2:
        return 0.0
    return reach_integral(mod, *pair_scales(q1, q2))


def reach_integral(mod: Modulus, v: float, span: float, reach: float) -> float:
    """The core integral of w(s)/s^m from v to the reach of a cube pair's
    ``pair_scales``: over the step span where the reach overflows; where that
    overflows too, the tail mass if the tail beyond the float range rounds
    away against it, else OverflowError."""
    if reach < math.inf:
        return mod.integral_core(v, reach)
    total = mod._increment(v, span)[0]
    if span == math.inf and total - mod.tail_mass(sys.float_info.max) != total:
        raise OverflowError("weighted cube distance beyond the float range")
    return total


def poincare_distance(q1: Cube, q2: Cube) -> float:
    """Poincare distance of the upper half-space points (x1, r1), (x2, r2).

    Defined as ln((A + B)/(A - B)) with B the Euclidean distance between the
    points and A the Euclidean distance to the reflection (height negated).
    """
    if q1 == q2:
        return 0.0
    h1, h2 = q1.radius, q2.radius
    diff = point_sub(q1.center, q2.center)
    b = math.hypot(*diff, h1 - h2)
    a = math.hypot(*diff, h1 + h2)
    # A - B cancels badly for far pairs; use A^2 - B^2 = 4*h1*h2 instead, one
    # factor (a + b) / (2 h) >= 1 at a time
    dist = math.log((a + b) / (2.0 * h1)) + math.log((a + b) / (2.0 * h2))
    if dist < math.inf:
        return dist
    # a + b or a factor overflows: take (a + b) / 2 at an eighth of the scale
    diff, h1, h2 = [x / 8.0 - y / 8.0 for x, y in zip(q1.center, q2.center)], h1 / 8.0, h2 / 8.0
    half = (math.hypot(*diff, h1 - h2) + math.hypot(*diff, h1 + h2)) / 2.0
    return _log_eightfold(half, q1.radius) + _log_eightfold(half, q2.radius)


def equivalence_ratio(q1: Cube, q2: Cube) -> float:
    """Ratio of the cube metric to 1 + the Poincare distance.  The two are
    equivalent up to constants; this ratio is what an empirical constant scan
    samples."""
    if q1 == q2:
        raise ValueError("ratio undefined for equal cubes")
    return cube_distance(q1, q2) / (1.0 + poincare_distance(q1, q2))


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
