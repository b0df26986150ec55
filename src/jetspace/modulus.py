"""Moduli of continuity and the weighted integrals the cube/jet metrics are built from.

A modulus is a non-decreasing continuous function w with w(0) = 0 whose ratio
w(t)/t^m is non-increasing for the declared order m.  Three families are
supported:

* ``power``    -- w(t) = t^q.  Order-m membership holds exactly iff 0 <= q <= m.
* ``powerlog`` -- w(t) = t^q * ln(1 + t).  Order-m membership iff q <= m - 1.
* ``table``    -- log-linear interpolation through positive knots (t_i, w_i);
  each segment is a power law, and below the first knot the first segment's
  power law is extended down to 0.  Evaluation above the last knot is an error.

Every metric downstream reduces to the core integral of w(s)/s^m, so the power
and table families carry exact closed forms; the powerlog family falls back to
adaptive quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import adaptive_simpson, invert_increasing

_FAMILIES = ("power", "powerlog", "table")


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity of a given order.

    ``q`` parametrizes the power/powerlog families; ``knots`` holds the table.
    """

    family: str
    m: int
    q: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown modulus family {self.family!r}")
        if self.m < 0 or self.m != int(self.m):
            raise ValueError("order m must be a non-negative integer")
        if self.family in ("power", "powerlog"):
            if self.q is None or not (0 <= self.q < math.inf):
                raise ValueError("power-type modulus needs a finite exponent q >= 0")
        else:
            if self.knots is None or len(self.knots) < 2:
                raise ValueError("table modulus needs at least two knots")
            object.__setattr__(
                self, "knots", tuple((float(t), float(w)) for t, w in self.knots)
            )
            prev_t = 0.0
            for t, w in self.knots:
                if not (math.isfinite(t) and math.isfinite(w)):
                    raise ValueError("knots must be finite")
                if t <= prev_t:
                    raise ValueError("knot abscissae must be strictly increasing and > 0")
                if w <= 0:
                    raise ValueError("knot values must be positive")
                prev_t = t
            ts = [float(t) for t, _ in self.knots]
            slopes = []
            coefs = []
            for (t0, w0), (t1, w1) in zip(self.knots, self.knots[1:]):
                s = math.log(w1 / w0) / math.log(t1 / t0)
                slopes.append(s)
                coefs.append(w0 / t0**s)
            object.__setattr__(self, "_ts", ts)
            object.__setattr__(self, "_slopes", slopes)
            object.__setattr__(self, "_coefs", coefs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def power(q: float, m: int) -> "Modulus":
        return Modulus(family="power", m=m, q=float(q))

    @staticmethod
    def power_log(q: float, m: int) -> "Modulus":
        return Modulus(family="powerlog", m=m, q=float(q))

    @staticmethod
    def table(knots: Sequence[Sequence[float]], m: int) -> "Modulus":
        return Modulus(
            family="table", m=m, knots=tuple((float(t), float(w)) for t, w in knots)
        )

    # -- basic queries -----------------------------------------------------

    @property
    def domain_max(self) -> float:
        """Largest t at which the modulus can be evaluated."""
        if self.family == "table":
            return self.knots[-1][0]
        return math.inf

    def _segment(self, t: float) -> tuple[float, float, float]:
        """Power-law piece (coefficient, exponent, upper end) containing t.

        Valid for 0 < t <= last knot; the sub-first-knot region uses the first
        segment's law.
        """
        ts = self._ts
        idx = bisect_right(ts, t) - 1
        if idx >= len(ts) - 1:
            idx = len(ts) - 2
        if idx < 0:
            return self._coefs[0], self._slopes[0], ts[0]
        return self._coefs[idx], self._slopes[idx], ts[idx + 1]

    def eval(self, t: float) -> float:
        """Value of the modulus at t >= 0; zero at the origin by definition."""
        if t < 0:
            raise ValueError("modulus argument must be non-negative")
        if t == 0.0:
            return 0.0
        return self._kernel(0.0)(t)

    __call__ = eval

    def _kernel(self, weight: float) -> Callable[[float], float]:
        """The function s -> w(s)/s^weight on 0 < s <= ``domain_max``."""
        if self.family == "power":
            p = self.q - weight
            return lambda s: s**p
        if self.family == "powerlog":
            p = self.q - weight
            return lambda s: s**p * math.log1p(s)

        def table(s: float) -> float:
            if s > self.domain_max:
                raise ValueError("argument beyond table range")
            coef, slope, _ = self._segment(s)
            return coef * s ** (slope - weight)

        return table

    def core_kernel(self, s: float) -> float:
        """The integrand w(s)/s^m of ``integral_core`` at s > 0; +inf where
        it overflows."""
        try:
            return self._kernel(self.m)(s)
        except OverflowError:
            return math.inf

    # -- integrals ---------------------------------------------------------

    def integral_core(self, a: float, b: float) -> float:
        """Integral of w(s)/s^m over [a, b] with 0 < a <= b."""
        return self._integral(a, b, self.m)

    def integral_weighted(self, a: float, b: float, p: int) -> float:
        """Integral of w(t) * t^(-p-1) over [a, b] with 0 < a <= b."""
        return self._integral(a, b, p + 1)

    def _integral(self, a: float, b: float, weight: float) -> float:
        if a <= 0:
            raise ValueError("lower integration bound must be positive")
        if b < a:
            raise ValueError("integration bounds out of order")
        if a == b:
            return 0.0
        if self.family == "power":
            return _power_piece_integral(1.0, self.q - weight, a, b)
        if self.family == "powerlog":
            if not math.isfinite(b):
                raise ValueError("upper bound must be finite")
            return adaptive_simpson(self._kernel(weight), a, b, rel_tol=1e-10)
        if b > self.domain_max:
            raise ValueError("integration range beyond table range")
        total = 0.0
        cur = a
        while cur < b:
            coef, slope, upper = self._segment(cur)
            nxt = min(b, upper)
            total += _power_piece_integral(coef, slope - weight, cur, nxt)
            cur = nxt
        return total

    def tail_mass(self, v: float) -> float:
        """Integral of w(s)/s^m over [v, +inf); +inf when divergent.  For a
        table, the integral up to its last knot.

        For power-type families it is finite exactly when the kernel decays
        faster than 1/s.  Either way it is the supremum any core integral
        from v can reach.
        """
        if v <= 0:
            raise ValueError("lower bound must be positive")
        if self.family == "power":
            p = self.q - self.m + 1.0
            return -(v**p) / p if p < 0 else math.inf
        if self.family == "powerlog":
            p = self.q - self.m + 1.0
            if p >= 0:
                return math.inf
            cut = max(v, 2.0)
            head = self.integral_core(v, cut) if cut > v else 0.0
            # tail: split ln(1+s) = ln s + ln(1 + 1/s), the first in closed
            # form, the second as a geometrically convergent series in 1/cut
            tail = -(cut**p) * ((p * math.log(cut) - 1.0) / p**2)
            term_sign = 1.0
            for j in range(1, 60):
                tail += term_sign * cut ** (p - j) / (j * (j - p))
                term_sign = -term_sign
            return head + tail
        return self.integral_core(v, self.domain_max)

    def core_integral_inverse(self, w: float, v: float) -> float:
        """Inverse of t -> integral_core(v, v + t) at w >= 0, for fixed v > 0.

        Returns +inf when w is not below ``tail_mass(v)``.
        """
        if v <= 0:
            raise ValueError("base point must be positive")
        if w < 0:
            raise ValueError("target must be non-negative")
        if w == 0.0:
            return 0.0
        if self.family == "power":
            p = self.q - self.m + 1.0
            base = v**p + p * w  # 1 at p == 0
            if base <= 0.0:
                return math.inf
            try:
                return v * math.expm1(w) if p == 0.0 else max(base ** (1.0 / p) - v, 0.0)
            except OverflowError:  # beyond the float range: +inf, as in invert_increasing
                return math.inf
        if w >= self.tail_mass(v):
            return math.inf
        top = self.domain_max

        def fdf(t: float) -> tuple[float, float]:
            if v + t > top:
                # past the last knot: above every reachable target
                return math.inf, math.nan
            return self.integral_core(v, v + t), self.core_kernel(v + t)

        return invert_increasing(fdf, w)

    # -- quasipower estimate -----------------------------------------------

    def _mass_below(self, t: float) -> float:
        """Integral of w(s)/s over (0, t], with the singular tail in closed form."""
        if self.family == "power":
            if self.q <= 0:
                return math.inf
            return t**self.q / self.q
        if self.family == "powerlog":
            kernel = self._kernel(1.0)

            def integrand(s: float) -> float:
                if s == 0.0:
                    return 1.0 if self.q == 0 else 0.0
                return kernel(s)

            return adaptive_simpson(integrand, 0.0, t, rel_tol=1e-10)
        t0 = self.knots[0][0]
        coef, slope, _ = self._segment(min(t, t0))
        if slope <= 0:
            return math.inf
        head = coef * min(t, t0) ** slope / slope
        if t <= t0:
            return head
        return head + self._integral(t0, t, 1.0)


@dataclass(frozen=True)
class QuasipowerEstimate:
    """Sampled lower bound for the quasipower constant of a modulus."""

    value: float
    bounded: bool


def quasipower_constant(mod: Modulus, t_grid: Sequence[float]) -> QuasipowerEstimate:
    """Supremum over the grid of (1/w(t)) * integral of w(s)/s over (0, t].

    The singular lower limit is handled analytically (closed-form tail for the
    power family and for the table's first power piece).  The result is a
    sampled lower bound for the true constant; ``bounded`` is False when the
    tail integral diverges.
    """
    if not t_grid:
        raise ValueError("empty grid")
    worst = 0.0
    bounded = True
    for t in t_grid:
        if t <= 0:
            raise ValueError("grid points must be positive")
        wt = mod.eval(t)
        if wt == 0.0:
            raise ValueError("modulus vanishes at a positive grid point")
        mass = mod._mass_below(t)
        if math.isinf(mass):
            bounded = False
            worst = math.inf
            continue
        worst = max(worst, mass / wt)
    return QuasipowerEstimate(value=worst, bounded=bounded)


@dataclass(frozen=True)
class OmegaMembershipReport:
    """Grid-sampled order-m membership check for a modulus."""

    nondecreasing: bool
    ratio_nonincreasing: bool
    worst_violation: float


_MEMBERSHIP_SLACK = 1e-12


def check_omega_m(mod: Modulus, grid: Sequence[float]) -> OmegaMembershipReport:
    """Check on a sorted positive grid that w is non-decreasing and w(t)/t^m
    is non-increasing, up to relative slack 1e-12.

    The worst signed relative violation over both checks is reported
    (negative when the grid is clean).
    """
    if not grid:
        raise ValueError("empty grid")
    prev = 0.0
    for t in grid:
        if t <= 0:
            raise ValueError("grid points must be positive")
        if t <= prev:
            raise ValueError("grid must be sorted strictly ascending")
        prev = t

    vals = [mod.eval(t) for t in grid]
    ratios = [w / t**mod.m for t, w in zip(grid, vals)]

    worst = -math.inf
    mono_ok = True
    for a, b in zip(vals, vals[1:]):
        viol = (a - b) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, viol)
        if viol > _MEMBERSHIP_SLACK:
            mono_ok = False
    ratio_ok = True
    for a, b in zip(ratios, ratios[1:]):
        viol = (b - a) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, viol)
        if viol > _MEMBERSHIP_SLACK:
            ratio_ok = False
    return OmegaMembershipReport(
        nondecreasing=mono_ok, ratio_nonincreasing=ratio_ok, worst_violation=worst
    )


def _power_piece_integral(coef: float, expo: float, a: float, b: float) -> float:
    """Closed form for the integral of coef * s^expo over [a, b]."""
    e1 = expo + 1.0
    if e1 == 0.0:
        return coef * math.log(b / a)
    return coef * (b**e1 - a**e1) / e1
