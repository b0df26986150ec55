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
    that is not finite raises OverflowError; a subinterval still unconverged
    at ``max_depth`` bisections raises ArithmeticError.
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
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth <= 0:
            raise ArithmeticError("quadrature did not converge within max_depth")
        return recurse(x0, x1, f0, f1, left, depth - 1) + recurse(
            x1, x2, f1, f2, right, depth - 1
        )

    return recurse(a, b, fa, fb, whole, max_depth)


_INVERT_REL_TOL = 1e-13
_INVERT_MAX_ITER = 200
_INVERT_MAX_LOG_STEP = 700.0  # math.exp overflows just past 709


def invert_increasing(
    fdf: Callable[[float], tuple[float, float]], u: float
) -> float:
    """Solve f(t) = u for a strictly increasing f with f(0) = 0 and u >= 0.

    ``fdf(t)`` returns (f(t), f'(t)), with a NaN slope where the slope alone
    overflows.  Newton steps are taken in log-log coordinates,
    t <- t * exp(ln(u/f) / s) with the elasticity s = t f'/f, which solve a
    power law in one step; a step is cut to 700 in ln t.  They are
    safeguarded inside a bracket [lo, hi] (``rtsafe``; Press et al.,
    Numerical Recipes, 9.4) that starts at [0, +inf) and grows by doubling
    while no step is usable.  A step that would leave the bracket, is not
    under half the step before last, or has no finite positive elasticity
    becomes a bisection (geometric once lo > 0); a step under half the
    tolerance is lengthened to it, so that it crosses the root.  Step
    lengths count only once the bracket is finite in ln t (lo > 0 and
    hi < inf): before that, doubling and halving say nothing about how
    Newton converges, and a halving from a region where f is +inf would
    otherwise hold every later step to ln(2) / 2.

    Returns the bracket midpoint once hi - lo <= 1e-13 * hi, or once no float
    lies strictly inside the bracket (a root among the subnormals).
    Overflowing evaluations count as +inf, which keeps the bracket valid for
    functions that blow up at a finite argument.  Raises ArithmeticError when
    the bracket cannot be found or does not close within 200 steps.
    """
    if u < 0:
        raise ValueError("target must be non-negative")
    if u == 0.0:
        return 0.0
    log_u = math.log(u)
    lo, hi = 0.0, math.inf
    t = 1.0
    step_old = step_prev = math.inf  # log-step lengths, once bracketed
    it = 0
    while True:
        try:
            f, df = fdf(t)
        except OverflowError:
            f, df = math.inf, math.nan
        below = f < u
        if below:
            lo = t
        else:
            hi = t
        if hi - lo <= _INVERT_REL_TOL * hi and hi < math.inf:
            return 0.5 * (lo + hi)
        ds = math.nan
        if 0.0 < f < math.inf and 0.0 < t * df < math.inf:
            ds = (log_u - math.log(f)) / (t * df / f)
        if abs(ds) <= 0.5 * _INVERT_REL_TOL:
            ds = 0.5 * _INVERT_REL_TOL if below else -0.5 * _INVERT_REL_TOL
        elif abs(ds) > _INVERT_MAX_LOG_STEP:
            ds = math.copysign(_INVERT_MAX_LOG_STEP, ds)
        nxt = t * math.exp(ds)
        if not lo < nxt < hi or abs(ds) > 0.5 * step_old:
            if math.isinf(hi):
                t = 2.0 * lo
                if math.isinf(t):
                    raise ArithmeticError("failed to bracket monotone inverse")
                continue
            nxt = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
            if not lo < nxt < hi:
                return 0.5 * (lo + hi)
        if it >= _INVERT_MAX_ITER:
            raise ArithmeticError("monotone inverse did not converge")
        if 0.0 < lo and hi < math.inf:
            step_old, step_prev = step_prev, abs(math.log(nxt / t))
        t = nxt
        it += 1


def within_slack(lhs: float, rhs: float, rel_slack: float) -> bool:
    """True when the inequality lhs <= rhs holds up to a relative slack."""
    return (lhs - rhs) <= rel_slack * max(abs(lhs), abs(rhs)) + 1e-300


def rel_close(a: float, b: float, rel_tol: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel_tol * max(abs(a), abs(b)), abs_tol)
