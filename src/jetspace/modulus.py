"""Moduli of continuity and the weighted integrals the cube/jet metrics are built from.

A modulus is a non-decreasing continuous function w with w(0) = 0 whose ratio
w(t)/t^m is non-increasing for the declared order m.  Three families are
supported:

* ``power``    -- w(t) = t^q.  Order-m membership holds exactly iff 0 <= q <= m.
* ``powerlog`` -- w(t) = t^q * ln(1 + t).  Order-m membership iff q <= m - 1.
* ``table``    -- log-linear interpolation through positive knots (t_i, w_i);
  each segment is a power law, and below the first knot the first segment's
  power law is extended down to 0.  Evaluation above the last knot is an error.

Every metric downstream reduces to the core integral of w(s)/s^m, and every
scalar integral here comes from one primitive, ``Modulus._increment``: power
laws in closed form, the powerlog kernel s^k ln(1+s) by series below 1/2 and
above 2 and by a fixed Gauss-Legendre rule in between; no adaptive quadrature.
``Modulus.core_integrals`` walks the same pieces over arrays of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numerics import invert_increasing

_FAMILIES = ("power", "powerlog", "table")

_LN2 = math.log(2.0)
# 12-point Gauss-Legendre rule on [0, 1] as (node, weight).  On a step of at
# most ln 2 in y = ln s the powerlog integrand is analytic in |Im y| < pi, so
# the error is below about 9^-24 of the integral for |k| <= 5 (Trefethen,
# Approximation Theory and Approximation Practice, Thm 19.3; checked with mpmath).
_GL = [(0.5 + 0.5 * sign * y, 0.5 * w) for sign in (-1.0, 1.0) for y, w in (
    (0.1252334085114689, 0.2491470458134027), (0.3678314989981802, 0.2334925365383546),
    (0.5873179542866175, 0.20316742672306573), (0.7699026741943047, 0.16007832854334642),
    (0.9041172563704748, 0.10693932599531907), (0.9815606342467192, 0.04717533638651141),
)]
_GL_U, _GL_W = np.array(_GL).T
_TERMS = np.arange(1.0, 64.0)  # the j of _log_mass's series


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
            laws = []
            for (t0, w0), (t1, w1) in zip(self.knots, self.knots[1:]):
                s = math.log(w1 / w0) / math.log(t1 / t0)
                laws.append((t1, w0 / t0**s, s))
            object.__setattr__(self, "_laws", laws)
        # the largest t at which the modulus can be evaluated
        object.__setattr__(self, "domain_max", self.knots[-1][0] if self.knots else math.inf)
        object.__setattr__(self, "_core", self._pieces(self.m))  # of w(s)/s^m

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

    def _pieces(self, weight: float) -> tuple[tuple[float, float | None, float], ...]:
        """The kernel w(s)/s^weight piece by piece, bottom up, as (upper end,
        coef, k): coef * s^k, or s^k ln(1+s) where coef is None.  The first
        piece reaches down to 0."""
        if self.family == "power":
            return ((math.inf, 1.0, self.q - weight),)
        if self.family == "powerlog":
            return tuple((upper, None, self.q - weight) for upper in (0.5, 1.0, 2.0, math.inf))
        return tuple((t1, coef, s - weight) for t1, coef, s in self._laws)

    def _kernel(self, s: float, pieces) -> float:
        """The kernel of ``pieces`` at 0 < s <= ``domain_max``."""
        for upper, coef, k in pieces:
            if s <= upper:
                return s**k * math.log1p(s) if coef is None else coef * s**k
        raise ValueError("argument beyond table range")

    def eval(self, t: float) -> float:
        """Value of the modulus at t >= 0; zero at the origin by definition."""
        if not t >= 0:
            raise ValueError("modulus argument must be non-negative")
        if t == 0.0:
            return 0.0
        return self._kernel(t, self._pieces(0.0))

    __call__ = eval

    def core_kernel(self, s: float) -> float:
        """The integrand w(s)/s^m of ``integral_core`` at s > 0; +inf where
        it overflows."""
        try:
            return self._kernel(s, self._core)
        except OverflowError:
            return math.inf

    # -- integrals ---------------------------------------------------------

    def _increment(self, v: float, t: float, weight: float | None = None) -> tuple[float, float]:
        """Integral of w(s)/s^weight (default: weight m) over [v, v + t] as a
        function of the increment t >= 0, and its slope, the kernel at v + t.

        Each piece [c, end] is integrated from c and x = ln(1 + step/c), never
        from a rounded v + t.  t = +inf (or a t reaching a table's last knot)
        gives the tail mass, with slope 0, and +inf for a tail beyond the
        float range.  A finite t past the last knot raises ValueError; a
        finite t whose integral overflows, OverflowError.
        """
        room = self.domain_max - v
        if room < 0.0 or room < t < math.inf:
            raise ValueError("integration range beyond table range")
        rest = math.inf if t >= room else t
        total, c, end = 0.0, v, v
        for upper, coef, k in self._core if weight is None else self._pieces(weight):
            if c >= upper:
                continue
            step, end = (rest, c + rest) if rest < upper - c else (upper - c, upper)
            x = step / c  # ln(1 + step/c), also where step/c overflows
            x = math.log1p(x) if x < math.inf else math.log(step) - math.log(c)
            if coef is None:
                total += _log_mass(k + 1.0, c, x, end)
            else:
                total += coef * _power_mass(k + 1.0, c, x, end)
            rest -= step
            if not rest > 0.0:
                break
            c = upper
        if not total > -math.inf or total == math.inf > t:  # NaN or -inf, or a finite step beyond the float range
            raise OverflowError("core integral beyond the float range")
        if t == math.inf:
            return total, 0.0
        try:  # the kernel at end = v + t, in the last piece integrated
            return total, end**k * math.log1p(end) if coef is None else coef * end**k
        except OverflowError:
            return total, math.inf

    def core_integrals(self, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``_increment(v, t)[0]`` element by element over float arrays v > 0
        and t >= 0: the same pieces in the same increment form, the masses as
        masked array expressions, and the scalar route's errors.  numpy's
        elementary functions round unlike libm's: the routes agree to ulps."""
        v, t = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(t, dtype=float))
        room = self.domain_max - v
        if np.any((room < 0.0) | ((room < t) & (t < np.inf))):
            raise ValueError("integration range beyond table range")
        total, c = np.zeros(v.shape), v.copy()
        with np.errstate(all="ignore"):
            rest = np.where(t >= room, np.inf, t)  # NaN once a lane is done
            for upper, coef, k in self._core:
                on = (c < upper) & (rest >= 0.0)
                cs, rs = c[on], rest[on]
                whole = rs >= upper - cs
                step, end = np.where(whole, upper - cs, rs), np.where(whole, upper, cs + rs)
                x = step / cs
                x = np.where(x < np.inf, np.log1p(x), np.log(step) - np.log(cs))
                masses = _log_masses if coef is None else _power_masses
                total[on] += (1.0 if coef is None else coef) * masses(k + 1.0, cs, x, end)
                rest[on], c[on] = np.where(rs > step, rs - step, np.nan), upper
        if np.any(~(total > -np.inf) | ((total == np.inf) & (t < np.inf))):  # as in _increment
            raise OverflowError("core integral beyond the float range")
        return total

    def integral_core(self, a: float, b: float) -> float:
        """Integral of w(s)/s^m over [a, b] with 0 < a <= b."""
        return self._integral(a, b, None)

    def integral_weighted(self, a: float, b: float, p: int) -> float:
        """Integral of w(t) * t^(-p-1) over [a, b] with 0 < a <= b."""
        return self._integral(a, b, p + 1)

    def _integral(self, a: float, b: float, weight: float | None) -> float:
        if not a > 0:
            raise ValueError("lower integration bound must be positive")
        if not b >= a:
            raise ValueError("integration bounds out of order")
        return self._increment(a, b - a, weight)[0]

    def tail_mass(self, v: float) -> float:
        """Integral of w(s)/s^m over [v, +inf); +inf when divergent.  For a
        table, the integral up to its last knot.

        For power-type families it is finite exactly when the kernel decays
        faster than 1/s.  Either way it is the supremum any core integral
        from v can reach.
        """
        if not v > 0:
            raise ValueError("lower bound must be positive")
        return self._increment(v, math.inf)[0]

    def core_integral_inverse(self, w: float, v: float) -> float:
        """Inverse of t -> integral_core(v, v + t) at w >= 0, for fixed v > 0.

        Returns +inf when w is not below ``tail_mass(v)`` or the increment is
        beyond the float range.  A kernel that is one power law on (0, inf)
        is inverted in closed form, any other by ``invert_increasing``.
        """
        if not v > 0:
            raise ValueError("base point must be positive")
        if not w >= 0:
            raise ValueError("target must be non-negative")
        if w == 0.0:
            return 0.0
        (upper, coef, k), *_ = self._core
        if upper == math.inf and coef is not None:
            return _power_inverse(k + 1.0, v, w / coef)
        room = min(self.domain_max - v, 1.7976931348623157e308)  # the largest float
        try:  # a target at or above the mass inside the table and the float range
            if w >= self._increment(v, room)[0]:
                return math.inf
        except OverflowError:
            pass

        def fdf(t: float) -> tuple[float, float]:
            if t > room:  # past the last knot: above every reachable target
                return math.inf, math.nan
            return self._increment(v, t)

        return invert_increasing(fdf, w)

    # -- quasipower estimate -----------------------------------------------

    def _mass_below(self, t: float) -> float:
        """Integral of w(s)/s over (0, t]: the first piece down to 0 in closed
        form, the rest by ``_increment``."""
        upper, coef, k = self._pieces(1.0)[0]
        c = min(t, upper)
        a, x = k + 1.0, -math.inf
        head = -(_log_mass(a, c, x, 0.0) if coef is None else coef * _power_mass(a, c, x, 0.0))
        return head + self._increment(c, t - c, 1.0)[0] if t > c else head


@dataclass(frozen=True)
class QuasipowerEstimate:
    """Sampled lower bound for the quasipower constant of a modulus."""

    value: float
    bounded: bool


def quasipower_constant(mod: Modulus, t_grid: Sequence[float]) -> QuasipowerEstimate:
    """Supremum over the grid of (1/w(t)) * integral of w(s)/s over (0, t].

    The singular lower limit is handled analytically (the modulus's first
    piece integrated down to 0 in closed form).  The result is a sampled
    lower bound for the true constant; ``bounded`` is False when the tail
    integral diverges.
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
    drops = _relative_drops(zip(vals, vals[1:]))
    rises = _relative_drops(zip(ratios[1:], ratios))
    return OmegaMembershipReport(
        nondecreasing=not any(d > _MEMBERSHIP_SLACK for d in drops),
        ratio_nonincreasing=not any(d > _MEMBERSHIP_SLACK for d in rises),
        worst_violation=max([-math.inf, *drops, *rises]),
    )


def _relative_drops(pairs: Iterable[tuple[float, float]]) -> list[float]:
    """(earlier - later) / max(|earlier|, |later|, 1e-300) for each pair."""
    return [(a - b) / max(abs(a), abs(b), 1e-300) for a, b in pairs]


def _power_mass(a: float, c: float, x: float, end: float) -> float:
    """Integral of s^(a-1) over [c, end], given x = ln(end / c): as
    c^a expm1(a x) / a while |a x| <= 1/2, else as (end^a - c^a) / a, which
    then cannot cancel.  end = 0 (x = -inf) integrates down to 0: -c^a / a,
    or -inf where that diverges; x = 0 gives 0, also where c^a overflows.
    Where a power overflows, ``_log_power_mass``."""
    if a == 0.0 or x == 0.0:
        return x
    if end == 0.0 and a < 0.0:
        return -math.inf
    try:
        return c**a * math.expm1(a * x) / a if abs(a * x) <= 0.5 else (end**a - c**a) / a
    except OverflowError:
        return float(_log_power_mass(a, c, x, end))


def _log_power_mass(a, c, x, end):
    """``_power_mass`` at x != 0 in the log domain, where c^a or end^a is
    beyond the float range: s^a (1 - e^-|a x|) / |a| with the sign of x, s
    the end of the larger power; +-inf only where the mass is beyond the
    float range itself."""
    s = np.where((a > 0.0) == (x > 0.0), end, c)
    with np.errstate(over="ignore"):
        size = a * np.log(s) + np.log(-np.expm1(-np.abs(a * x))) - np.log(np.abs(a))
        return np.copysign(np.exp(size), x)


def _log_mass(a: float, c: float, x: float, end: float) -> float:
    """Integral of s^(a-1) ln(1+s) over [c, end] inside one of (0, 1/2],
    [1/2, 1], [1, 2] and [2, inf), given x = ln(end / c); end = 0 (x = -inf)
    integrates down to 0, and an empty step (x = 0) to 0."""
    if x == 0.0:
        return x
    if abs(x) <= _LN2:  # s = c e^(x u), u in [0, 1]
        return x * c**a * sum(
            w * math.exp(a * x * u) * math.log1p(c * math.exp(x * u)) for u, w in _GL
        )
    if c < 1.0:  # ln(1+s) = sum_j (-1)^(j+1) s^j / j for s <= 1/2
        sign, total = 1.0, 0.0
    elif end == math.inf and a >= 0.0:
        return math.inf
    else:
        # ln(1+s) = ln c + ln(s/c) + sum_j (-1)^(j+1) s^-j / j for s >= 2; the
        # middle term takes e^(a x) as end^a / c^a, not magnifying x's rounding
        z = a * x if a else 0.0
        if abs(z) <= 1.0:  # y e^(a y) over [0, x]; exact to rounding for 12 nodes
            total = c**a * x * x * sum(w * u * math.exp(z * u) for u, w in _GL)
        else:
            total = (c**a + (end**a * (z - 1.0) if end < math.inf else 0.0)) / (a * a)
        sign, total = -1.0, total + math.log(c) * _power_mass(a, c, x, end)
    # the terms fall by half or more from one j to the next
    for j in range(1, 64):
        d = _power_mass(a + sign * j, c, x, end) / j
        total += d if j % 2 else -d
        if abs(d) <= 1e-17 * abs(total):
            break
    return total


def _power_masses(a, c: np.ndarray, x: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``_power_mass`` over arrays with end > 0; a may be an array too."""
    ax, ca = a * x, c**a
    out = np.where(np.abs(ax) <= 0.5, ca * np.expm1(ax) / a, (end**a - ca) / a)
    out = np.where((a == 0.0) | (x == 0.0), x, out)
    if not np.isfinite(out).all():  # a power beyond the float range, or a divergent tail
        out = np.where(np.isfinite(out) | (a == 0.0), out, _log_power_mass(a, c, x, end))
    return out


def _log_masses(a: float, c: np.ndarray, x: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``_log_mass`` over 1-D arrays with end > 0: Gauss-Legendre lanes as one
    (lanes x 12) product, series lanes as one (lanes x 63 terms) sum."""
    out = np.empty_like(x)
    gl = np.abs(x) <= _LN2
    xg, cg = x[gl], c[gl]
    quad = np.exp(a * xg[:, None] * _GL_U) * np.log1p(cg[:, None] * np.exp(xg[:, None] * _GL_U))
    out[gl] = np.where(xg == 0.0, xg, xg * cg**a * (quad @ _GL_W))
    c, x, end = c[~gl], x[~gl], end[~gl]
    ca, low, z = c**a, c < 1.0, a * x if a else np.zeros_like(x)
    near = ca * x * x * (np.exp(z[:, None] * _GL_U) @ (_GL_W * _GL_U))
    far = (ca + np.where(end < np.inf, end**a * (z - 1.0), 0.0)) / (a * a)
    head = np.where(np.abs(z) <= 1.0, near, far) + np.log(c) * _power_masses(a, c, x, end)
    sign = np.where(low, 1.0, -1.0)[:, None]
    terms = _power_masses(a + sign * _TERMS, c[:, None], x[:, None], end[:, None]) / _TERMS
    series = np.where(low, 0.0, head) + terms @ (-1.0) ** (_TERMS + 1.0)
    out[~gl] = np.where(low | (end < np.inf) | (a < 0.0), series, np.inf)
    return out


def _power_inverse(a: float, v: float, w: float) -> float:
    """The increment t at which the integral of s^(a-1) over [v, v + t]
    reaches w > 0: x = ln(1 + t/v) solves v^a expm1(a x) / a = w (x = w at
    a = 0), and t = v expm1(x), or e^(x + ln v) - v once x > 700.  +inf at
    or past the tail mass, and where t is beyond the float range."""
    if a == 0.0:
        x = w
    else:
        try:
            y = a * w * v**-a
        except OverflowError:  # v^-a beyond the float range
            y = math.copysign(math.inf, a)
        if y <= -1.0:
            return math.inf
        x = (math.log1p(y) if y < math.inf else math.log(a * w) - a * math.log(v)) / a
    try:
        return v * math.expm1(x) if x <= 700.0 else math.exp(x + math.log(v)) - v
    except OverflowError:
        return math.inf
