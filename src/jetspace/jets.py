"""Jets (polynomial, cube) and the quasi-distance between them.

A jet pairs a polynomial of degree <= L with a cube; the distance between two
jets combines the cube geometry with the discrepancy of all derivatives of the
two polynomials, each derivative order weighted through a gauge built from the
modulus.  Three independent computation routes are provided:

* ``jet_distance`` -- find the discrepancy scale of the orders below the
  top (the largest admissible spatial scale), integrate the modulus kernel
  up to it, and take the top-order discrepancy as a distance;
* ``jet_distance_componentwise`` -- integrate the gauge-inverse of each
  order's discrepancy separately and take the maximum;
* ``jet_distance_via_value_gauge`` -- solve directly for the distance value
  from the derivative discrepancy (pointwise variant only).

All three agree; the closed forms ``zygmund_distance`` (w(t) = t^(m-1), no
free derivative orders) and ``sobolev_distance`` (w(t) = t, order 1) specialize
them.  ``jet_distance``, ``jet_gap``, ``geodesic.d_upper``, the
``geodesic`` chain sums, ``whitney.pairwise_sweep`` and the metric form of
``whitney.lipschitz_forms`` take the derivative discrepancies as array rows
(``_JetRows``); the other four routes share one scaffold over each order's
peak discrepancy through ``Poly.deriv_eval`` (``_reference_distance``), so
that a cross-check compares two independent computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Sequence

import numpy as np

from .cubes import Cube, pair_scales, reach_integral
from .modulus import Modulus
from .numerics import invert_increasing, rel_close
from .poly import Poly, deriv_matrix, mi_order, multi_indices


@dataclass(frozen=True)
class Jet:
    """A polynomial attached to a cube; dimensions must agree."""

    poly: Poly
    cube: Cube

    def __post_init__(self) -> None:
        if self.poly.n != self.cube.dim:
            raise ValueError("polynomial and cube dimensions differ")

    @property
    def n(self) -> int:
        return self.cube.dim

    @property
    def degree(self) -> int:
        return self.poly.degree


def scale(gamma: float, jet: Jet) -> Jet:
    """Scale the polynomial part by gamma; the cube is unchanged."""
    return Jet(poly=jet.poly.scale(gamma), cube=jet.cube)


def _excess(top: int, alpha, v: float, x: float, name: str) -> int:
    """top - |alpha| for a derivative order or multi-index alpha, after
    checking the order against top, the base scale v > 0 and the gauge
    argument x (called ``name``) >= 0."""
    a = alpha if isinstance(alpha, int) else mi_order(tuple(int(c) for c in alpha))
    if a < 0:
        raise ValueError("derivative order must be non-negative")
    if a > top:
        raise ValueError("derivative order exceeds the degree bound")
    if not v > 0:
        raise ValueError("base scale must be positive")
    if not x >= 0:
        raise ValueError(f"{name} must be non-negative")
    return top - a


def gauge(mod: Modulus, top: int, alpha, t: float, v: float) -> float:
    """Admissible derivative discrepancy at spatial scale t and base scale v:
    t^(top - |alpha|) times the core integral of the modulus over [v, v+t].

    Strictly increasing in t, with gauge(0) = 0.  Only the order of alpha
    matters.
    """
    e = _excess(top, alpha, v, t, "spatial scale")
    if t == 0.0:
        return 0.0
    return t**e * mod._increment(v, t)[0]


def gauge_inverse(mod: Modulus, top: int, alpha, u: float, v: float) -> float:
    """The spatial scale t >= 0 at which the gauge reaches u.

    The pure-integral case (order == top) is ``core_integral_inverse``.
    Otherwise the strictly increasing gauge is inverted by
    ``invert_increasing`` (safeguarded Newton with the exact slope, relative
    bracket width 1e-13).
    """
    e = _excess(top, alpha, v, u, "target")
    if u == 0.0:
        return 0.0
    if e == 0:
        return mod.core_integral_inverse(u, v)

    def fdf(t: float) -> tuple[float, float]:
        core, slope = mod._increment(v, t)
        return t**e * core, e * t ** (e - 1) * core + t**e * slope

    return invert_increasing(fdf, u)


def gauge_integral(mod: Modulus, top: int, alpha, u: float, v: float) -> float:
    """Core integral over [v, v + gauge_inverse(u)]; at the top order that is
    min(u, tail mass), taken as such rather than through a scale that may be
    beyond the float range."""
    if _excess(top, alpha, v, u, "target") == 0:
        return min(u, mod.tail_mass(v))
    return mod._increment(v, gauge_inverse(mod, top, alpha, u, v))[0]


def value_gauge(mod: Modulus, top: int, alpha, u: float, v: float) -> float:
    """Distance contribution of a derivative discrepancy u, solved directly.

    Returns the value I with I * g(I)^(top - |alpha|) = u, where g is the
    inverse of t -> core integral over [v, v+t].  The product is inverted by
    ``invert_increasing`` with its exact slope g^e + I e g^(e-1) g'(I), where
    g'(I) = (v+g)^m / w(v+g); for order == top the map is the identity.
    """
    e = _excess(top, alpha, v, u, "target")
    if u == 0.0:
        return 0.0
    if e == 0:  # the discrepancy itself, capped at the reachable mass
        return min(u, mod.tail_mass(v))

    def fdf(s: float) -> tuple[float, float]:
        g = mod.core_integral_inverse(s, v)
        kernel = mod.core_kernel(v + g) if math.isfinite(g) else 0.0
        if kernel == 0.0:
            return s * g**e, math.nan
        return s * g**e, g**e + s * e * g ** (e - 1) / kernel

    return invert_increasing(fdf, u)


def _context(jets: Sequence[Jet], at: Sequence[float] | None) -> tuple[int, int, list]:
    """The jets' shared dimension and degree bound, and the evaluation points:
    ``at`` alone, else every jet's cube center.  An empty list has no rows,
    and any context serves it."""
    n, top = (jets[0].n, jets[0].degree) if jets else (1, 0)
    for jet in jets[1:]:
        if jet.n != n:
            raise ValueError("jet dimensions differ")
        if jet.degree != top:
            raise ValueError("jet degree bounds differ")
    if at is None:
        return n, top, [jet.cube.center for jet in jets]
    if len(at) != n:
        raise ValueError("evaluation point dimension mismatch")
    return n, top, [tuple(float(c) for c in at)]


def _discrepancies(t1: Jet, t2: Jet, at: Sequence[float] | None) -> list[float]:
    """The largest |D^alpha(P1 - P2)(y)| of each order |alpha| = 0..top over
    the evaluation points y (``at`` alone, else both cube centers), through
    ``Poly.deriv_eval`` and a running Python max, which skips NaN: the
    reference routes' per-order peaks, the shape of ``_JetRows.peaks``."""
    n, top, points = _context((t1, t2), at)
    diff = t1.poly - t2.poly
    peak = [0.0] * (top + 1)
    for alpha in multi_indices(n, top):
        a = mi_order(alpha)
        for y in points:
            peak[a] = max(peak[a], abs(diff.deriv_eval(alpha, y)))
    return peak


@lru_cache(maxsize=None)
def _support(n: int, top: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Over alpha, beta in ``multi_indices(n, top)``: the mask of beta_i >=
    alpha_i for all i, where D^alpha y^beta may be non-zero, and the position
    of each order's first alpha (the indices are sorted by order)."""
    betas = multi_indices(n, top)
    support = np.array(
        [[all(bi >= ai for ai, bi in zip(alpha, beta)) for beta in betas] for alpha in betas]
    )
    support.flags.writeable = False
    orders = [mi_order(alpha) for alpha in betas]
    return support, tuple(orders.index(a) for a in range(top + 1))


class _JetRows:
    """The derivative discrepancies of a list of jets, as array rows.

    Holds the coefficient rows (jets x ``multi_indices(n, top)``) and the
    exact ``deriv_matrix`` at the evaluation points: every jet's cube center,
    or ``at`` alone.  The discrepancy |D^alpha(P_i - P_j)(y)| of a pair is the
    sum over beta of the coefficient difference times the derivative of y^beta,
    taken elementwise and summed along the last axis, so that a row is
    rounded the same whichever batch it is computed in.  Entries with some
    beta_i < alpha_i are masked rather than multiplied (an infinite difference
    times 0 would be NaN), as ``Poly.deriv_eval`` skips them.
    """

    def __init__(self, jets: Sequence[Jet], at: Sequence[float] | None = None) -> None:
        n, top, points = _context(jets, at)
        betas = multi_indices(n, top)
        column = {beta: b for b, beta in enumerate(betas)}
        self.jets = jets
        self.coef = np.zeros((len(jets), len(betas)))
        for k, jet in enumerate(jets):
            for beta, c in jet.poly.coef.items():
                self.coef[k, column[beta]] = c
        self.deriv = deriv_matrix(n, top, betas, points)
        self.support, self.order_starts = _support(n, top)

    def _product_sum(self, i: int, js: Sequence[int], deriv: np.ndarray) -> np.ndarray:
        terms = np.zeros((len(js), *self.support.shape))
        diff = self.coef[i] - self.coef[js]
        np.multiply(diff[:, None, :], deriv, out=terms, where=self.support)
        return np.abs(terms.sum(axis=-1))

    def discrepancies(self, i: int, js: Sequence[int]) -> np.ndarray:
        """|D^alpha(P_i - P_j)| at jet i's evaluation point (its cube center,
        or ``at``): one row per j in js, one column per alpha in
        ``multi_indices(n, top)``."""
        return self._product_sum(i, js, self.deriv[i if len(self.deriv) > 1 else 0])

    def peaks(self, i: int, js: Sequence[int]) -> list[list[float]]:
        """For each j in js, the largest |D^alpha(P_i - P_j)(y)| of each order
        |alpha| = 0..top over the pair's evaluation points (both centers, or
        ``at``); 0.0 where every value is NaN, as the scalar maximum skips
        them."""
        with np.errstate(over="ignore", invalid="ignore"):
            disc = self.discrepancies(i, js)
            if len(self.deriv) > 1:
                disc = np.fmax(disc, self._product_sum(i, js, self.deriv[js]))
            peak = np.fmax.reduceat(disc, self.order_starts, axis=1)
        return np.fmax(peak, 0.0).tolist()

    def distances(self, mod: Modulus, i: int, js: Sequence[int]) -> Iterator[float]:
        """``jet_distance(mod, jets[i], jets[j])`` for each j in js, in turn:
        the peaks of all js at once, each distance only when it is reached."""
        return (
            _distance(mod, self.jets[i], self.jets[j], peak)
            for j, peak in zip(js, self.peaks(i, js))
        )


def _lower_gap(mod: Modulus, t1: Jet, t2: Jet, peak: list[float]) -> tuple:
    """(gap, v, span, reach): the discrepancy scale of the orders below the
    top, from the pair's per-order peaks, and ``pair_scales``.  The
    gauge-inverse grows with the discrepancy and sees only the order of a
    multi-index, so each order is inverted once, at its largest one."""
    top = len(peak) - 1
    v, span, reach = pair_scales(t1.cube, t2.cube)
    gap = span
    for a, u in enumerate(peak[:top]):
        if u > 0.0:
            gap = max(gap, gauge_inverse(mod, top, a, u, v))
    return gap, v, span, reach


def _distance(mod: Modulus, t1: Jet, t2: Jet, peak: list[float]) -> float:
    """``jet_distance`` from the pair's per-order peaks."""
    if t1 == t2:
        return 0.0
    gap, v, span, reach = _lower_gap(mod, t1, t2, peak)
    # in the cube-separation case the integral is the weighted cube
    # distance's, so that the two coincide bit for bit
    out = reach_integral(mod, v, span, reach) if gap == span else mod._increment(v, gap)[0]
    if peak[-1] > 0.0:
        out = max(out, min(peak[-1], mod.tail_mass(v)))
    return out


def jet_gap(mod: Modulus, t1: Jet, t2: Jet, at: Sequence[float] | None = None) -> float:
    """Discrepancy scale of two jets: the maximum of the cube separation
    max(r1, r2) + ||x1 - x2|| and, over all derivative orders and evaluation
    points, the gauge-inverse of the derivative discrepancy at the smaller
    radius.

    With ``at`` given, derivatives are evaluated at that point only; otherwise
    at both cube centers.  +inf when a scale is beyond the float range.
    """
    peak = _JetRows([t1, t2], at).peaks(0, [1])[0]
    gap, v, _, _ = _lower_gap(mod, t1, t2, peak)
    if peak[-1] > 0.0:
        gap = max(gap, gauge_inverse(mod, t1.degree, t1.degree, peak[-1], v))
    return gap


def jet_distance(
    mod: Modulus,
    t1: Jet,
    t2: Jet,
    at: Sequence[float] | None = None,
    cross_check: bool = False,
) -> float:
    """Quasi-distance between jets: the core integral of the modulus from the
    smaller radius up to the smaller radius plus the discrepancy scale.

    The orders below the top enter through the discrepancy scale; the
    top-order term is carried as a distance, min(discrepancy, tail mass),
    which is the integral up to its gauge-inverse.  Zero exactly when the
    jets are equal.  The discrepancies are ``_JetRows``' array rows, as in
    ``geodesic.d_upper``.  With ``cross_check`` the componentwise route,
    which takes them through ``Poly.deriv_eval``, is evaluated too and must
    agree to relative 1e-8.
    """
    if t1 == t2:
        return 0.0
    out = next(_JetRows([t1, t2], at).distances(mod, 0, [1]))
    if cross_check:
        other = jet_distance_componentwise(mod, t1, t2, at=at)
        if not rel_close(out, other, 1e-8, abs_tol=1e-300):
            raise AssertionError(f"jet distance routes disagree: {out!r} vs {other!r}")
    return out


def _reference_distance(t1: Jet, t2: Jet, at: Sequence[float] | None, cube_term, term) -> float:
    """The reference routes: 0 for equal jets, else the maximum of
    ``cube_term(v, span, reach)`` and ``term(top, a, u, v)`` over the orders a
    whose peak discrepancy u (``_discrepancies``) is positive."""
    if t1 == t2:
        return 0.0
    peak = _discrepancies(t1, t2, at)
    top = len(peak) - 1
    v, span, reach = pair_scales(t1.cube, t2.cube)
    best = cube_term(v, span, reach)
    for a, u in enumerate(peak):
        if u > 0.0:
            best = max(best, term(top, a, u, v))
    return best


def jet_distance_componentwise(
    mod: Modulus, t1: Jet, t2: Jet, at: Sequence[float] | None = None
) -> float:
    """Same distance, computed order by order: the maximum of the cube term,
    the top order's peak discrepancy (capped at the tail mass), and the
    integrated gauge-inverses of the lower orders' peaks."""
    return _reference_distance(
        t1, t2, at, partial(reach_integral, mod), partial(gauge_integral, mod)
    )


def jet_distance_via_value_gauge(
    mod: Modulus, t1: Jet, t2: Jet, y: Sequence[float]
) -> float:
    """Pointwise jet distance computed through the value gauge: the maximum of
    the cube term and, per derivative order, the directly solved distance
    contribution of the discrepancy at y."""
    return _reference_distance(
        t1, t2, y, partial(reach_integral, mod), partial(value_gauge, mod)
    )


def _zygmund_gauge_inverse(u: float, j: int) -> float:
    """Inverse of t -> t * (e^t - 1)^j at u >= 0 (identity for j = 0)."""
    if u == 0.0:
        return 0.0
    if j == 0:
        return u

    def fdf(t: float) -> tuple[float, float]:
        x = math.expm1(t)
        return t * x**j, x**j + t * j * x ** (j - 1) * (x + 1.0)

    return invert_increasing(fdf, u)


def zygmund_distance(t1: Jet, t2: Jet, m: int) -> float:
    """Closed-form jet distance for the pure-power modulus w(t) = t^(m-1) and
    polynomials of degree <= m-1: the maximum of the logarithmic cube distance
    and the inverted exponential gauge of the normalized derivative
    discrepancies at both centers."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if _context((t1, t2), None)[1] != m - 1:
        raise ValueError("degree bound must equal m - 1")
    return _reference_distance(
        t1, t2, None,
        lambda v, span, reach: math.log1p(span / v),
        lambda top, a, u, v: _zygmund_gauge_inverse(u / v ** (top - a), top - a),
    )


def sobolev_distance(t1: Jet, t2: Jet, k: int) -> float:
    """Closed-form jet distance for w(t) = t at order 1 and polynomials of
    degree <= k: the maximum of the cube separation and the derivative
    discrepancies raised to 1/(k + 1 - |alpha|)."""
    if k < 0:
        raise ValueError("degree bound must be non-negative")
    if _context((t1, t2), None)[1] != k:
        raise ValueError("degree bound mismatch")
    return _reference_distance(
        t1, t2, None, lambda v, span, reach: span, lambda top, a, u, v: u ** (1.0 / (top + 1 - a))
    )
