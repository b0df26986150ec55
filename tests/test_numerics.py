"""Monotone inversion and quadrature: the safeguarded Newton inverse against
the doubling-and-bisection inverse it replaced, and the hard iteration caps."""

import contextlib
import math

import numpy as np
import pytest

from jetspace import jets, modulus
from jetspace.jets import _zygmund_gauge_inverse, gauge, gauge_inverse, value_gauge
from jetspace.modulus import Modulus
from jetspace.numerics import adaptive_simpson, invert_increasing, within_slack


def _bisect_oracle(
    f,
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


def bisection_engine(fdf, u):
    """``_bisect_oracle`` behind the (f, f') signature of ``invert_increasing``."""
    return _bisect_oracle(lambda t: fdf(t)[0], u)


@contextlib.contextmanager
def inverting_with(engine):
    """Route every monotone inversion in jets and modulus through ``engine``."""
    saved = jets.invert_increasing, modulus.invert_increasing
    jets.invert_increasing = modulus.invert_increasing = engine
    try:
        yield
    finally:
        jets.invert_increasing, modulus.invert_increasing = saved


class Recorder:
    """Runs ``invert_increasing`` and keeps every inversion's target, result
    and evaluated points (t, f(t))."""

    def __init__(self):
        self.runs = []

    def __call__(self, fdf, u):
        points = []

        def recorded(t):
            out = fdf(t)
            points.append((t, out[0]))
            return out

        result = invert_increasing(recorded, u)
        self.runs.append((u, result, points))
        return result


TABLE = Modulus.table([(0.01, 0.01), (1.0, 0.5), (100.0, 2.0), (1e4, 3.0)], 2)
MODULI = [
    Modulus.power(0.5, 1),
    Modulus.power(1.0, 1),
    Modulus.power(1.0, 2),
    Modulus.power(1.5, 2),
    Modulus.power(2.0, 3),
    Modulus.power_log(1.0, 2),
    Modulus.power_log(0.0, 1),
    TABLE,
]

# Below this the oracle's 200 bisections from [0, 1] stop before its bracket
# is 1e-13 wide and it returns an unconverged midpoint.
ORACLE_FLOOR = 1e-40


def _targets(mod, rng, count):
    """(v, u) pairs: v log-uniform in [1e-3, 1e3], u log-uniform in
    [1e-200, 1e200].  Table targets are drawn below the mass reachable
    inside the table."""
    top = 6.0 if mod.family == "table" else 200.0
    out = []
    for _ in range(count):
        v = float(10 ** rng.uniform(-3, 3))
        u = float(10 ** rng.uniform(-200, top))
        if mod.family == "table":
            u = min(u, mod.integral_core(v, 1e4) * float(10 ** rng.uniform(-12, -0.01)))
        out.append((v, u))
    return out


def _inversions():
    """Every inverse over the sample, as (function, args)."""
    rng = np.random.default_rng(20)
    cases = []
    for mod in MODULI:
        count = 2 if mod.family == "powerlog" else 6
        for e in range(4):
            for v, u in _targets(mod, rng, count):
                if e == 0:
                    if mod.family != "power":  # the power family has a closed form
                        cases.append((mod.core_integral_inverse, (u, v)))
                    continue
                if mod.family == "table":
                    u *= float(10 ** rng.uniform(0, 6))  # the gauge outgrows the mass by t^e
                cases.append((gauge_inverse, (mod, e, 0, u, v)))
                cases.append((value_gauge, (mod, e, 0, u, v)))
    for j in (1, 2, 3):
        for _ in range(6):
            cases.append((_zygmund_gauge_inverse, (float(10 ** rng.uniform(-200, 200)), j)))
    return cases


def _run(fn, args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def test_inverses_match_bisection_oracle():
    compared = 0
    for fn, args in _inversions():
        label = f"{fn.__name__}{args}"
        with inverting_with(bisection_engine):
            expect = _run(fn, args)
        got = _run(fn, args)
        if expect is ValueError:
            # the oracle's doubling stepped past the table; Newton may not
            assert got is ValueError or isinstance(got, float), label
            continue
        if isinstance(expect, type) or isinstance(got, type):
            assert got == expect, label
            continue
        if expect < ORACLE_FLOOR:
            continue
        compared += 1
        assert got == pytest.approx(expect, rel=1e-12), label
    assert compared >= 150


def test_returned_value_straddles_root():
    rec = Recorder()
    with inverting_with(rec):
        for fn, args in _inversions():
            _run(fn, args)
    assert len(rec.runs) >= 300
    for u, result, points in rec.runs:
        if u == 0.0:
            continue
        below = [t for t, f in points if f < u]
        above = [t for t, f in points if not f < u]
        lo = max(below, default=0.0)
        hi = min(above)
        assert lo < result < hi
        assert hi - lo <= 1e-13 * hi
        assert result == 0.5 * (lo + hi)


def test_mean_evaluations_per_inversion():
    """Targets reached at scales t in [1e-3 v, 1e3 v], where f resolves t.

    Far below v the computed v + t rounds and f is a staircase in t; a root
    at one of its jumps is closed in by bisection (45 to about 100
    evaluations).  Those inversions are compared with the oracle above."""
    rng = np.random.default_rng(21)
    rec = Recorder()
    with inverting_with(rec):
        for mod in MODULI:
            for e in range(4):
                for _ in range(8):
                    v = float(10 ** rng.uniform(-3, 3))
                    t = v * float(10 ** rng.uniform(-3, 3))
                    if mod.family == "table":
                        t = min(t, 0.5 * (1e4 - v))
                    core = mod.integral_core(v, v + t)
                    if e == 0 and mod.family != "power":
                        mod.core_integral_inverse(core, v)
                    elif e > 0:
                        gauge_inverse(mod, e, 0, t**e * core, v)
                        # value_gauge's outer inversion probes masses past
                        # the table's end, with either engine
                        if mod.family != "table":
                            value_gauge(mod, e, 0, core * t**e, v)
    evals = [len(points) for _, _, points in rec.runs]
    assert len(evals) >= 300
    assert sum(evals) / len(evals) <= 12


def test_mean_evaluations_for_roots_far_below_the_base_scale():
    """Roots at t in [1e-15 v, 1e-4 v], where a gauge computed through the
    rounded v + t was a staircase in t and Newton crept (mean 29
    evaluations); the increment-form integral resolves t there."""
    rng = np.random.default_rng(22)
    moduli = [Modulus.power(1.5, 2), Modulus.power(0.5, 1), TABLE]
    rec = Recorder()
    with inverting_with(rec):
        for i in range(90):
            mod, e = moduli[i % 3], 1 + (i // 3) % 3
            v = float(10 ** rng.uniform(-3, 3))
            t = v * float(10 ** rng.uniform(-15, -4))
            u = gauge(mod, e, 0, t, v)
            assert gauge_inverse(mod, e, 0, u, v) == pytest.approx(t, rel=1e-12)
    evals = [len(points) for _, _, points in rec.runs]
    assert len(evals) == 90
    assert sum(evals) / len(evals) <= 8


def test_slopes_match_central_differences():
    checked = []

    def engine(fdf, u):
        t = invert_increasing(fdf, u)
        h = 1e-6 * t
        slope = (fdf(t + h)[0] - fdf(t - h)[0]) / (2.0 * h)
        assert fdf(t)[1] == pytest.approx(slope, rel=1e-6)
        checked.append(t)
        return t

    with inverting_with(engine):
        for mod in MODULI:
            for e in range(4):
                v, u = 0.7, 0.1 * (1 + e)
                if mod.family != "power":
                    mod.core_integral_inverse(u, v)
                if e > 0:
                    gauge_inverse(mod, e, 0, u, v)
                if e > 0 and mod.family != "table":  # probes past the table
                    value_gauge(mod, e, 0, u, v)
        for j in (1, 2, 3):
            _zygmund_gauge_inverse(2.5, j)
    assert len(checked) >= 60


def test_power_law_is_solved_in_a_few_steps():
    counts = []
    for k in (0.5, 1.0, 2.0, 3.7):
        # at k = 0.5, u = 1e+-153 the root is e^(+-704): the first step is
        # cut to 700 in ln t, the second lands on the power law
        for u in (1e-153, 1e-150, 1e-3, 1.0, 7.0, 1e150, 1e153):
            n = [0]

            def fdf(t, k=k, n=n):
                n[0] += 1
                return t**k, k * t ** (k - 1)

            assert invert_increasing(fdf, u) == pytest.approx(u ** (1 / k), rel=1e-13)
            counts.append(n[0])
    assert max(counts) <= 4


def test_overflowing_slope_falls_back_to_bisection():
    # the kernel s^-1.5 overflows at s near v = 1e-300 while the gauge stays
    # finite, and the root (about 1e-320) lies where v + t rounds to v: the
    # bracket closes on two adjacent subnormals instead of running into the
    # step cap.  (The target 1e-300 has its root near 1e-375, below every
    # subnormal, now that the gauge resolves t far below v.)
    mod = Modulus.power(0.5, 2)
    assert mod.core_kernel(1e-300) == math.inf
    rec = Recorder()
    with inverting_with(rec):
        t = gauge_inverse(mod, 1, 0, 1e-190, 1e-300)
    [(u, result, points)] = rec.runs
    lo = max(p for p, f in points if f < u)
    hi = min(p for p, f in points if not f < u)
    assert result == t and math.nextafter(lo, math.inf) == hi
    assert len(points) < 100


def test_inversion_cap_raises():
    # f jumps from 0 to 1 at t = 0+: the bracket halves toward 0 and never
    # closes, where the oracle returned an unconverged midpoint
    assert _bisect_oracle(lambda t: 1.0, 0.5) < 1e-60
    points = []
    with pytest.raises(ArithmeticError, match="did not converge"):
        invert_increasing(lambda t: points.append(t) or (1.0, 0.0), 0.5)
    assert len(points) == 201 and points[-1] > 0.0
    with pytest.raises(ArithmeticError, match="failed to bracket"):
        invert_increasing(lambda t: (0.0, 0.0), 0.5)


def test_inversion_raises_overflow_where_every_evaluation_overflows():
    # the bracket halves toward 0 as at a jump, but no value was ever seen:
    # the inverse is beyond what the function can be evaluated at
    def fdf(t):
        raise OverflowError("math range error")

    with pytest.raises(OverflowError, match="every evaluation overflowed"):
        invert_increasing(fdf, 0.5)


def test_inversion_overflow_counts_as_infinite():
    def fdf(t):
        if t > 10.0:
            raise OverflowError
        return t, 1.0

    assert invert_increasing(fdf, 5.0) == pytest.approx(5.0, rel=1e-13)
    assert invert_increasing(fdf, 50.0) == pytest.approx(10.0, rel=1e-13)


def test_inversion_trivial_targets():
    assert invert_increasing(lambda t: (t, 1.0), 0.0) == 0.0
    with pytest.raises(ValueError):
        invert_increasing(lambda t: (t, 1.0), -1.0)


def test_quadrature_depth_cap_raises():
    assert adaptive_simpson(math.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-9)
    with pytest.raises(ArithmeticError, match="max_depth"):
        adaptive_simpson(math.sqrt, 0.0, 1.0, rel_tol=1e-15, max_depth=3)


def test_within_slack_fails_an_infinite_excess():
    assert within_slack(1.0, 1.0 + 1e-12, 1e-9)
    assert within_slack(1.0 + 1e-12, 1.0, 1e-9)
    assert not within_slack(1.0 + 1e-6, 1.0, 1e-9)
    assert within_slack(1.0, math.inf, 1e-9)
    # the slack relative to inf is inf, but inf is not within it of 800
    assert not within_slack(math.inf, 800.0, 1e-9)
    assert not within_slack(1.0, -math.inf, 1e-9)
    assert not within_slack(math.nan, 1.0, 1e-9)
