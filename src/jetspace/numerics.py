"""Shared scalar numerics: adaptive quadrature, monotone inversion, slack checks."""

from __future__ import annotations

import math
from typing import Callable


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_floor: float = 1e-300,
    max_depth: int = 60,
) -> float:
    """Integrate a smooth function on [a, b] by adaptive Simpson bisection.

    The error control is relative to the running whole-interval estimate,
    with an absolute floor so that zero integrals terminate.  An estimate
    that is not finite raises OverflowError.
    """
    if b < a:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(a, b, fa, fm, fb)
    scale = max(abs(whole), abs_floor)

    def recurse(x0, x2, f0, f2, s, depth):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        # Richardson: |left+right-s| <= 15*tol is the standard acceptance test.
        err = left + right - s
        if not math.isfinite(err):  # would bisect 2^max_depth times otherwise
            raise OverflowError("quadrature estimate is not finite")
        tol = rel_tol * max(scale, abs(left + right))
        if depth <= 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return recurse(x0, x1, f0, f1, left, depth - 1) + recurse(
            x1, x2, f1, f2, right, depth - 1
        )

    return recurse(a, b, fa, fb, whole, max_depth)


def invert_increasing(
    f: Callable[[float], float],
    u: float,
    hi0: float = 1.0,
    rel_tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Solve f(t) = u for a strictly increasing f with f(0) = 0 and u >= 0.

    Brackets by doubling the upper endpoint until f exceeds u, then bisects.
    Overflowing evaluations count as +inf, which keeps the bracket valid for
    functions that blow up at a finite argument.
    """
    if u < 0:
        raise ValueError("target must be non-negative")
    if u == 0.0:
        return 0.0

    def safe(t: float) -> float:
        try:
            v = f(t)
        except OverflowError:
            return math.inf
        return v

    lo, hi = 0.0, hi0
    grow = 0
    while safe(hi) < u:
        lo = hi
        hi *= 2.0
        grow += 1
        if grow > 2200 or math.isinf(hi):
            raise ArithmeticError("failed to bracket monotone inverse")
    it = 0
    while it < max_iter and (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if safe(mid) < u:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi)


def within_slack(lhs: float, rhs: float, rel_slack: float) -> bool:
    """True when the inequality lhs <= rhs holds up to a relative slack."""
    return (lhs - rhs) <= rel_slack * max(abs(lhs), abs(rhs)) + 1e-300


def rel_close(a: float, b: float, rel_tol: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel_tol * max(abs(a), abs(b)), abs_tol)
