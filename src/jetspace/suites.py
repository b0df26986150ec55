"""Seeded randomized property suites over the whole library.

Each suite draws its inputs from a spawned child of one master seed, checks a
mathematical guarantee (an inequality with relative slack, or agreement of
independent computation routes within a relative tolerance), and reports
trial/failure counts, the worst margin seen, and serialized witnesses for
replay, all through one ``_Tally`` (``halfspace_equivalence`` reports an
interval instead).  A per-case suite splits its trials evenly over its cases
with ``_cases``.  All suites are deterministic functions of (seed, trials).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cubes import (
    Cube,
    cube_distance,
    equivalence_ratio,
    pair_scales,
    uniform_norm,
    weighted_cube_distance,
)
from .geodesic import (
    Chain,
    d_lower,
    d_upper,
    gauge_chain_inequality,
    interval_chain_inequality,
    verify_chain_bound,
)
from .jets import (
    Jet,
    gauge,
    gauge_integral,
    jet_distance,
    jet_distance_componentwise,
    jet_distance_via_value_gauge,
    scale,
    sobolev_distance,
    zygmund_distance,
)
from .modulus import Modulus
from .numerics import rel_close, within_slack
from .poly import Poly, mi_order, multi_indices
from .serialize import cube_to_dict, jet_to_dict, modulus_to_dict
from .whitney import PolyField, lipschitz_forms, lo_seminorm

DEFAULT_SEED = 123456789

INEQ_SLACK = 1e-9
AGREE_TOL = 1e-8
# a vectorized suite's numpy copy must match the library on this many draws
LIBRARY_DRAWS = 64

# moduli exercised by the metric suites; the table entry caps the sampling
# ranges so integrals stay inside its domain
TRIANGLE_MATRIX: list[tuple[str, Modulus, float, float]] = [
    ("power_q1_m1", Modulus.power(1.0, 1), 1.5, 1.0),
    ("power_q05_m1", Modulus.power(0.5, 1), 1.5, 1.0),
    ("power_q1_m2", Modulus.power(1.0, 2), 1.5, 1.0),
    ("power_q2_m2", Modulus.power(2.0, 2), 1.5, 1.0),
    ("power_q25_m3", Modulus.power(2.5, 3), 1.5, 1.0),
    (
        "table_m2",
        Modulus.table([(0.5, 0.6), (1.0, 1.0), (2.0, 1.6), (4.0, 2.2), (16.0, 4.0)], 2),
        1.2,
        1.0,
    ),
]

ZYGMUND_CASES = [(n, m) for n in (1, 2) for m in (2, 3)]
SOBOLEV_CASES = [(n, k) for n in (1, 2) for k in (1, 2)]
VALUE_GAUGE_CASES = [(1, 0, 2), (1, 1, 2), (2, 0, 2), (1, 1, 1), (2, 1, 1), (1, 0, 3)]
CHAIN_MATRIX = [(n, k, m) for n in (1, 2) for k in (0, 1) for m in (1, 2)]
POINT_SHIFT_CASES = [(1, 0, 2), (1, 1, 1), (2, 0, 2), (2, 1, 1)]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    metric: str  # "min_slack" | "max_rel_dev" | custom
    worst: float
    detail: str
    witnesses: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Tally:
    """Per-suite bookkeeping: trial and failure counts, the worst margin in
    the metric's direction ("min_slack" keeps the minimum, "max_rel_dev" the
    maximum, "bool_agreement" reports the failure count) and the witnesses of
    the first three failures."""

    def __init__(self, metric: str) -> None:
        self.metric = metric
        self._pick = min if metric == "min_slack" else max
        self.worst = math.inf if metric == "min_slack" else 0.0
        self.trials = 0
        self.failures = 0
        self.witnesses: list[dict] = []

    def add(self, ok: bool, *margins: float, witness: Callable[[], dict]) -> None:
        """Count one trial; ``witness`` is called only for one of the first
        three failures."""
        for margin in margins:
            self.worst = self._pick(self.worst, margin)
        self.trials += 1
        if not ok:
            self.failures += 1
            if len(self.witnesses) < 3:
                self.witnesses.append(witness())

    def add_all(self, ok: np.ndarray, margins: np.ndarray, witness: Callable[[int], dict]) -> None:
        """Count one trial per entry of ``ok``, exactly as repeated ``add``
        calls would; ``witness(i)`` is called only for one of the first three
        failures."""
        self.worst = self._pick([self.worst, *margins.tolist()])
        bad = np.flatnonzero(~ok).tolist()
        self.trials += ok.size
        self.failures += len(bad)
        self.witnesses += [witness(i) for i in bad[: 3 - len(self.witnesses)]]

    def result(self, name: str, detail: str) -> SuiteResult:
        worst = float(self.failures) if self.metric == "bool_agreement" else self.worst
        return SuiteResult(
            name, self.trials, self.failures, self.metric, worst, detail,
            tuple(self.witnesses),
        )


def _cases(trials: int, cases: Sequence) -> list:
    """Each case ``trials // len(cases)`` times, case by case; raises
    ValueError when ``trials`` is below the case count, so that no case runs
    zero trials."""
    if trials < len(cases):
        raise ValueError(f"trials must be at least {len(cases)}, one per case")
    return [case for case in cases for _ in range(trials // len(cases))]


# ---------------------------------------------------------------------------
# random generators


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _random_cube(rng, n: int, r_hi: float, c_scale: float) -> Cube:
    return Cube(rng.uniform(-c_scale, c_scale, size=n), float(rng.uniform(0.05, r_hi)))


def _random_poly(rng, n: int, degree: int, scale_coef: float = 2.0) -> Poly:
    coef = {}
    for alpha in multi_indices(n, degree):
        coef[alpha] = float(rng.uniform(-scale_coef, scale_coef))
    return Poly(n=n, degree=degree, coef=coef)


def _random_jet(rng, n: int, degree: int, r_hi: float = 1.5, c_scale: float = 1.0) -> Jet:
    return Jet(poly=_random_poly(rng, n, degree), cube=_random_cube(rng, n, r_hi, c_scale))


def _jets_witness(mod: Modulus, *jets: Jet, **extra) -> dict:
    return {"modulus": modulus_to_dict(mod), "jets": [jet_to_dict(j) for j in jets], **extra}


# ---------------------------------------------------------------------------
# suite implementations


def suite_triangle_cube(
    seed: int, trials: int = 100_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Triangle inequality, symmetry and identity for the logarithmic cube
    distance on random triples (dimension mixed over 1 and 2)."""
    rng = _rng_for(seed, 1)
    tally = _Tally("min_slack")
    for t in range(trials):
        n = 1 + t % 2
        q = [_random_cube(rng, n, 4.0, 3.0) for _ in range(3)]
        d01 = cube_distance(q[0], q[1])
        d12 = cube_distance(q[1], q[2])
        d02 = cube_distance(q[0], q[2])
        ok = within_slack(d02, d01 + d12, slack)
        ok = ok and cube_distance(q[1], q[0]) == d01 and cube_distance(q[0], q[0]) == 0.0
        tally.add(ok, d01 + d12 - d02, witness=lambda: {"cubes": [cube_to_dict(c) for c in q]})
    return tally.result("triangle_cube", "log cube distance is a metric on random triples")


def suite_triangle_weighted(
    seed: int, trials: int = 100_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Triangle inequality for the weighted cube distance, ``trials`` triples
    per modulus in the test matrix.  The distances of all triples are one
    ``Modulus.core_integrals`` call per cube pair, and on the first
    ``LIBRARY_DRAWS`` triples must also match ``weighted_cube_distance``."""
    tally = _Tally("min_slack")
    for idx, (name, mod, r_hi, c_scale) in enumerate(TRIANGLE_MATRIX):
        rng = _rng_for(seed, 100 + idx)
        centers = rng.uniform(-c_scale, c_scale, size=(trials, 3, 2))
        radii = rng.uniform(0.05, r_hi, size=(trials, 3))

        def dvec(i, j):
            sep = np.max(np.abs(centers[:, i] - centers[:, j]), axis=1)
            lo = np.minimum(radii[:, i], radii[:, j])
            return mod.core_integrals(lo, radii[:, i] + radii[:, j] + sep - lo)

        d01, d12, d02 = dvec(0, 1), dvec(1, 2), dvec(0, 2)
        scale_arr = np.maximum(np.abs(d02), np.abs(d01 + d12))
        ok = ~((d02 - (d01 + d12)) > slack * scale_arr + 1e-300)
        for t in range(min(trials, LIBRARY_DRAWS)):
            q = [Cube(c, float(r)) for c, r in zip(centers[t], radii[t])]
            ok[t] &= all(
                rel_close(float(d[t]), weighted_cube_distance(mod, q[i], q[j]), AGREE_TOL)
                for d, i, j in ((d01, 0, 1), (d12, 1, 2), (d02, 0, 2))
            )
        tally.add_all(
            ok, d01 + d12 - d02,
            witness=lambda i: {
                "modulus": modulus_to_dict(mod),
                "centers": centers[i].tolist(),
                "radii": radii[i].tolist(),
            },
        )
    return tally.result(
        "triangle_weighted", "weighted cube distance is a metric for every matrix modulus"
    )


def suite_same_poly_identity(seed: int, trials: int = 10_000) -> SuiteResult:
    """Jets sharing one polynomial: jet distance equals the weighted cube
    distance to 1e-10."""
    rng = _rng_for(seed, 2)
    tally = _Tally("max_rel_dev")
    for t in range(trials):
        n = m = 1 + t % 2
        k = t % 2
        mod = Modulus.power(float(rng.uniform(0.2, m)), m)
        degree = k + m - 1
        poly = _random_poly(rng, n, degree)
        q1 = _random_cube(rng, n, 1.5, 1.0)
        q2 = _random_cube(rng, n, 1.5, 1.0)
        lhs = jet_distance(mod, Jet(poly, q1), Jet(poly, q2))
        rhs = weighted_cube_distance(mod, q1, q2)
        dev = abs(lhs - rhs) / max(abs(rhs), 1e-300) if rhs else abs(lhs)
        tally.add(
            dev <= 1e-10, dev,
            witness=lambda: {
                "modulus": modulus_to_dict(mod), "cubes": [cube_to_dict(q1), cube_to_dict(q2)]
            },
        )
    return tally.result(
        "same_poly_identity", "fixed-polynomial jet distance collapses to the cube distance"
    )


def suite_zygmund_agreement(seed: int, trials: int = 10_000) -> SuiteResult:
    """Generic jet distance with w(t) = t^(m-1) against the closed-form
    exponential-gauge formula, over (n, m) in {1,2} x {2,3}, trials // 4
    pairs each."""
    rng = _rng_for(seed, 3)
    tally = _Tally("max_rel_dev")
    for n, m in _cases(trials, ZYGMUND_CASES):
        mod = Modulus.power(float(m - 1), m)
        t1 = _random_jet(rng, n, m - 1)
        t2 = _random_jet(rng, n, m - 1)
        a = jet_distance(mod, t1, t2)
        b = zygmund_distance(t1, t2, m)
        dev = abs(a - b) / max(abs(a), abs(b), 1e-300)
        tally.add(
            dev <= AGREE_TOL, dev,
            witness=lambda: {"n": n, "m": m, "jets": [jet_to_dict(t1), jet_to_dict(t2)]},
        )
    return tally.result(
        "zygmund_agreement", "pure-power modulus specializes to the exponential-gauge closed form"
    )


def suite_sobolev_agreement(seed: int, trials: int = 10_000) -> SuiteResult:
    """Generic jet distance with w(t) = t at order 1 against the root-exponent
    closed form, over k in {1, 2} and n in {1, 2}, trials // 4 pairs each."""
    rng = _rng_for(seed, 4)
    mod1 = Modulus.power(1.0, 1)
    tally = _Tally("max_rel_dev")
    for n, k in _cases(trials, SOBOLEV_CASES):
        t1 = _random_jet(rng, n, k)
        t2 = _random_jet(rng, n, k)
        a = jet_distance(mod1, t1, t2)
        b = sobolev_distance(t1, t2, k)
        dev = abs(a - b) / max(abs(a), abs(b), 1e-300)
        tally.add(
            dev <= AGREE_TOL, dev,
            witness=lambda: {"n": n, "k": k, "jets": [jet_to_dict(t1), jet_to_dict(t2)]},
        )
    return tally.result(
        "sobolev_agreement", "unit-kernel modulus specializes to the root-exponent closed form"
    )


def suite_value_gauge_agreement(seed: int, trials: int = 10_000) -> SuiteResult:
    """Pointwise jet distance: the discrepancy-scale route, the componentwise
    route and the value-gauge route agree to relative 1e-8, over six
    (n, k, m) cases, trials // 6 inputs each."""
    rng = _rng_for(seed, 5)
    tally = _Tally("max_rel_dev")
    for n, k, m in _cases(trials, VALUE_GAUGE_CASES):
        degree = k + m - 1
        q = float(rng.uniform(0.3 * m, m))
        mod = Modulus.power(q, m)
        t1 = _random_jet(rng, n, degree)
        t2 = _random_jet(rng, n, degree)
        y = tuple(rng.uniform(-1.0, 1.0, size=n).tolist())
        a = jet_distance(mod, t1, t2, at=y)
        b = jet_distance_componentwise(mod, t1, t2, at=y)
        c = jet_distance_via_value_gauge(mod, t1, t2, y)
        hi = max(a, b, c)
        lo = min(a, b, c)
        # max and min skip a NaN route, which must fail the trial
        dev = (hi - lo) / max(hi, 1e-300) if not math.isnan(a + b + c) else math.nan
        tally.add(
            dev <= AGREE_TOL, dev, witness=lambda: _jets_witness(mod, t1, t2, at=list(y))
        )
    return tally.result(
        "value_gauge_agreement", "three computation routes for the pointwise jet distance agree"
    )


def suite_chain_scaling(
    seed: int, trials: int = 10_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Endpoint jet distance is bounded by the chain sum of the e^n-scaled
    links, over the eight-case (n, k, m) matrix, trials // 8 chains of two
    to five jets each."""
    rng = _rng_for(seed, 6)
    tally = _Tally("min_slack")
    for n, k, m in _cases(trials, CHAIN_MATRIX):
        q = float(rng.uniform(0.3 * m, m))
        mod = Modulus.power(q, m)
        length = int(rng.integers(2, 6))
        jets = tuple(_random_jet(rng, n, k + m - 1) for _ in range(length))
        res = verify_chain_bound(mod, Chain(jets), rel_slack=slack)
        tally.add(res.ok, res.slack, witness=lambda: _jets_witness(mod, *jets))
    return tally.result("chain_scaling", "scaled chain sums dominate the endpoint jet distance")


def suite_interval_chain(
    seed: int, trials: int = 100_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Interval splitting inequality on random scale/step tuples, including
    the pure triangle instance with zero extra steps."""
    rng = _rng_for(seed, 7)
    tally = _Tally("min_slack")
    for t in range(trials):
        m = 1 + t % 3
        q = float(rng.uniform(0.2 * m, m))
        mod = Modulus.power(q, m)
        links = int(rng.integers(2, 6))
        b = rng.uniform(0.05, 3.0, size=links + 1).tolist()
        if t % 3 == 0:
            # triangle-type instance: no extra steps, three scales
            b = rng.uniform(0.05, 3.0, size=3).tolist()
            a = rng.uniform(0.0, 3.0, size=2).tolist()
            c = [0.0, 0.0]
        else:
            a = rng.uniform(0.0, 3.0, size=len(b) - 1).tolist()
            c = rng.uniform(0.0, 3.0, size=len(b) - 1).tolist()
        res = interval_chain_inequality(mod, b, a, c, rel_slack=slack)
        tally.add(
            res.ok, res.slack,
            witness=lambda: {"modulus": modulus_to_dict(mod), "b": b, "a": a, "c": c},
        )
    return tally.result(
        "interval_chain", "weighted integral over a merged interval splits along the chain"
    )


def suite_derivative_chain(
    seed: int, trials: int = 10_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Derivative of an end-to-end polynomial difference is bounded by e^n
    times the worst accumulated link discrepancy over step powers."""
    rng = _rng_for(seed, 8)
    tally = _Tally("min_slack")
    for t in range(trials):
        n = 1 + t % 2
        degree = int(rng.integers(1, 4 if n == 1 else 3))
        length = int(rng.integers(2, 5))
        polys = [_random_poly(rng, n, degree) for _ in range(length + 1)]
        xs = [tuple(rng.uniform(-2.0, 2.0, size=n).tolist()) for _ in range(length + 1)]
        step_sum = sum(
            uniform_norm(tuple(a - b for a, b in zip(xs[i], xs[i + 1])))
            for i in range(length)
        )
        end_to_end = polys[0] - polys[-1]
        links = [(polys[i] - polys[i + 1], xs[i]) for i in range(length)]
        acc = {  # the links' |D^gamma| summed along the chain, once per gamma
            gamma: sum(abs(diff.deriv_eval(gamma, x)) for diff, x in links)
            for gamma in multi_indices(n, degree)
        }
        ok_all = True
        slack_min = math.inf
        for alpha in multi_indices(n, degree):
            lhs = abs(end_to_end.deriv_eval(alpha, xs[0]))
            rhs = 0.0
            for beta in multi_indices(n, degree - mi_order(alpha)):
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                rhs = max(rhs, acc[gamma] * step_sum ** mi_order(beta))
            rhs *= math.exp(n)
            slack_min = min(slack_min, rhs - lhs)
            if not within_slack(lhs, rhs, slack):
                ok_all = False
        tally.add(
            ok_all, slack_min,
            witness=lambda: {"n": n, "degree": degree, "xs": [list(x) for x in xs]},
        )
    return tally.result(
        "derivative_chain", "chain bound for derivative discrepancies of polynomial families"
    )


def suite_gauge_shift(
    seed: int, trials: int = 10_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Single-step gauge inequality: absorbing a step power R^|b| into the
    gauge-inverse costs at most the larger of the step integral and the
    higher-order gauge-inverse integral."""
    rng = _rng_for(seed, 9)
    tally = _Tally("min_slack")
    for t in range(trials):
        m = 1 + t % 3
        q = float(rng.uniform(0.2 * m, m))
        mod = Modulus.power(q, m)
        top = int(rng.integers(1, 5))
        a_ord = int(rng.integers(0, top + 1))
        b_ord = int(rng.integers(0, top - a_ord + 1))
        v = float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(0.01, 3.0))
        # draw the discrepancy inside the gauge's range
        u = gauge(mod, top, a_ord + b_ord, float(rng.uniform(0.0, 4.0)), v)
        lhs = gauge_integral(mod, top, a_ord, r**b_ord * u, v)
        rhs = max(mod.integral_core(v, v + r), gauge_integral(mod, top, a_ord + b_ord, u, v))
        tally.add(
            within_slack(lhs, rhs, slack), rhs - lhs,
            witness=lambda: {
                "modulus": modulus_to_dict(mod),
                "top": top, "a": a_ord, "b": b_ord, "v": v, "R": r, "u": u,
            },
        )
    return tally.result(
        "gauge_shift", "step powers are absorbed by the max of step and shifted gauge terms"
    )


def suite_gauge_chain(
    seed: int, trials: int = 10_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Chain splitting inequality for the integrated gauge inverse."""
    rng = _rng_for(seed, 10)
    tally = _Tally("min_slack")
    for t in range(trials):
        m = 1 + t % 2
        q = float(rng.uniform(0.2 * m, m))
        mod = Modulus.power(q, m)
        top = int(rng.integers(0, 4))
        a_ord = int(rng.integers(0, top + 1))
        length = int(rng.integers(1, 5))
        b = rng.uniform(0.05, 2.0, size=length + 1).tolist()
        u = [
            gauge(mod, top, a_ord, float(rng.uniform(0.0, 3.0)), min(bi, bj))
            for bi, bj in zip(b, b[1:])
        ]
        res = gauge_chain_inequality(mod, top, a_ord, b, u, rel_slack=slack)
        tally.add(
            res.ok, res.slack,
            witness=lambda: {
                "modulus": modulus_to_dict(mod), "top": top, "a": a_ord, "b": b, "u": u
            },
        )
    return tally.result(
        "gauge_chain", "integrated gauge inverse of summed discrepancies splits along links"
    )


def suite_point_shift_scaling(
    seed: int, trials: int = 10_000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Moving the evaluation point of the pointwise jet distance is dominated
    by scaling the polynomials by max(1, e^n * step^L / span^L), over four
    (n, k, m) cases, trials // 4 inputs each."""
    rng = _rng_for(seed, 11)
    tally = _Tally("min_slack")
    for n, k, m in _cases(trials, POINT_SHIFT_CASES):
        degree = k + m - 1
        q = float(rng.uniform(0.3 * m, m))
        mod = Modulus.power(q, m)
        t1 = _random_jet(rng, n, degree)
        t2 = _random_jet(rng, n, degree)
        y = tuple(rng.uniform(-1.5, 1.5, size=n).tolist())
        z = tuple(rng.uniform(-1.5, 1.5, size=n).tolist())
        _, span, _ = pair_scales(t1.cube, t2.cube)
        step = uniform_norm(tuple(a - b for a, b in zip(y, z)))
        gamma = math.exp(n) * max(1.0, step**degree / span**degree)
        lhs = jet_distance(mod, t1, t2, at=z)
        rhs = jet_distance(mod, scale(gamma, t1), scale(gamma, t2), at=y)
        tally.add(
            within_slack(lhs, rhs, slack), rhs - lhs,
            witness=lambda: _jets_witness(mod, t1, t2, y=list(y), z=list(z)),
        )
    return tally.result(
        "point_shift_scaling", "evaluation-point moves are dominated by explicit polynomial scaling"
    )


def _random_field(rng, n: int, k: int, m: int, size: int) -> PolyField:
    degree = k + m - 1
    entries = []
    seen = set()
    while len(entries) < size:
        cube = _random_cube(rng, n, 1.5, 1.0)
        if cube in seen:
            continue
        seen.add(cube)
        entries.append((cube, _random_poly(rng, n, degree)))
    return PolyField(n=n, k=k, m=m, entries=tuple(entries))


def suite_lipschitz_forms(seed: int, trials: int = 10_000) -> SuiteResult:
    """The ratio form and the metric form of the scaled Lipschitz condition
    agree for random fields and scales, and the seminorm is their shared
    threshold: ``trials // 10`` fields (at least one), each at ten scales and
    on both sides of its threshold."""
    rng = _rng_for(seed, 12)
    tally = _Tally("bool_agreement")
    for t in range(max(trials // 10, 1)):
        n = m = 1 + t % 2
        mod = Modulus.power(float(rng.uniform(0.3 * m, m)), m)
        field = _random_field(rng, n, 0, m, size=3)
        lam_star = lo_seminorm(field, mod).value
        if lam_star <= 0:
            continue
        for _ in range(10):
            lam = lam_star * float(rng.uniform(0.3, 3.0))
            if abs(lam - lam_star) < 1e-9 * lam_star:
                continue
            ratio_ok, metric_ok = lipschitz_forms(field, mod, lam)
            tally.add(
                ratio_ok == metric_ok,
                witness=lambda: {"modulus": modulus_to_dict(mod), "lam": lam},
            )
        # threshold sandwich around the seminorm
        for factor, side in ((1 + 1e-6, (True, True)), (1 - 1e-6, (False, False))):
            tally.add(
                lipschitz_forms(field, mod, lam_star * factor) == side,
                witness=lambda: {
                    "modulus": modulus_to_dict(mod), "lam_star": lam_star, "kind": "threshold"
                },
            )
    return tally.result(
        "lipschitz_forms",
        "ratio and metric forms of the Lipschitz condition agree with a shared threshold",
    )


def _equivalence_ratios(bases: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """``equivalence_ratio`` of each cube pair in (bases, heights), vectorized."""
    sep = np.max(np.abs(bases[:, 0] - bases[:, 1]), axis=1)
    hmin = np.minimum(heights[:, 0], heights[:, 1])
    hmax = np.maximum(heights[:, 0], heights[:, 1])
    varrho = np.log1p((hmax + sep) / hmin)
    d2 = np.sum((bases[:, 0] - bases[:, 1]) ** 2, axis=1)
    bdist = np.sqrt(d2 + (heights[:, 0] - heights[:, 1]) ** 2)
    adist = np.sqrt(d2 + (heights[:, 0] + heights[:, 1]) ** 2)
    ph = np.log((adist + bdist) ** 2 / (4.0 * heights[:, 0] * heights[:, 1]))
    return varrho / (1.0 + ph)


def suite_halfspace_equivalence(
    seed: int, trials: int = 100_000
) -> SuiteResult:
    """Sampled ratio of the cube metric to 1 + the Poincare distance stays in
    a narrow positive interval, and the interval is stable when the sample is
    doubled.  The first ``LIBRARY_DRAWS`` ratios must also match
    ``equivalence_ratio``."""
    rng = _rng_for(seed, 13)
    n = 2

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        bases = rng.normal(0.0, 3.0, size=(count, 2, n))
        return bases, np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(count, 2)))

    bases, heights = draw(trials)
    first = _equivalence_ratios(bases, heights)
    agree = all(
        rel_close(ratio, equivalence_ratio(*map(Cube, b, h)), AGREE_TOL)
        for ratio, b, h in zip(first[:LIBRARY_DRAWS].tolist(), bases, heights.tolist())
    )
    second = np.concatenate([first, _equivalence_ratios(*draw(trials))])
    c1, c2 = float(np.min(first)), float(np.max(first))
    c1d, c2d = float(np.min(second)), float(np.max(second))
    move = max(abs(c1 - c1d) / c1, abs(c2 - c2d) / c2)
    spread = c2 / c1
    ok = agree and c1 > 0 and spread < 20.0 and move < 0.05
    detail = (
        f"ratio interval [{c1:.6g}, {c2:.6g}], spread {spread:.3f}, "
        f"doubling moved endpoints by {move:.2%}"
    ) + ("" if agree else ", disagrees with equivalence_ratio")
    return SuiteResult(
        "halfspace_equivalence", trials, 0 if ok else 1, "interval", spread, detail, ()
    )


def suite_scale_monotonicity(
    seed: int, trials: int = 1000, slack: float = INEQ_SLACK
) -> SuiteResult:
    """Shrinking both polynomials by a growing factor never increases the jet
    distance, and the cube term is its floor."""
    rng = _rng_for(seed, 14)
    tally = _Tally("min_slack")
    for t in range(trials):
        n = m = 1 + t % 2
        k = t % 2
        degree = k + m - 1
        mod = Modulus.power(float(rng.uniform(0.3 * m, m)), m)
        t1 = _random_jet(rng, n, degree)
        t2 = _random_jet(rng, n, degree)
        floor = weighted_cube_distance(mod, t1.cube, t2.cube)
        prev = math.inf
        ok = True
        margins = []
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0, 16.0):
            val = jet_distance(mod, scale(1.0 / lam, t1), scale(1.0 / lam, t2))
            if val > prev * (1 + 1e-12) or not within_slack(floor, val, slack):
                ok = False
            margins += [prev - val if prev < math.inf else math.inf, val - floor]
            prev = val
        tally.add(ok, *margins, witness=lambda: _jets_witness(mod, t1, t2))
    return tally.result(
        "scale_monotonicity",
        "jet distance is non-increasing under polynomial shrinking with the cube floor",
    )


def suite_geodesic_sandwich(
    seed: int, trials: int = 500, slack: float = INEQ_SLACK
) -> SuiteResult:
    """d_lower <= d_upper <= direct jet distance, and adding candidates never
    increases d_upper."""
    rng = _rng_for(seed, 15)
    tally = _Tally("min_slack")
    for t in range(trials):
        n = m = 1 + t % 2
        k = t % 2
        degree = k + m - 1
        mod = Modulus.power(float(rng.uniform(0.3 * m, m)), m)
        t1 = _random_jet(rng, n, degree)
        t2 = _random_jet(rng, n, degree)
        cands = [_random_jet(rng, n, degree) for _ in range(3)]
        direct = jet_distance(mod, t1, t2)
        up_small = d_upper(mod, t1, t2, cands[:1])
        up_full = d_upper(mod, t1, t2, cands)
        low = d_lower(mod, t1, t2)
        ok = (
            within_slack(low, up_full, slack)
            and within_slack(up_full, direct, slack)
            and within_slack(up_full, up_small, slack)
        )
        tally.add(
            ok, up_full - low, direct - up_full, up_small - up_full,
            witness=lambda: _jets_witness(mod, t1, t2),
        )
    return tally.result(
        "geodesic_sandwich", "bracket ordering and candidate antitonicity for the geodesic bounds"
    )


# ---------------------------------------------------------------------------
# registry

SUITES: dict[str, Callable[..., SuiteResult]] = {
    "triangle_cube": suite_triangle_cube,
    "triangle_weighted": suite_triangle_weighted,
    "same_poly_identity": suite_same_poly_identity,
    "zygmund_agreement": suite_zygmund_agreement,
    "sobolev_agreement": suite_sobolev_agreement,
    "value_gauge_agreement": suite_value_gauge_agreement,
    "chain_scaling": suite_chain_scaling,
    "interval_chain": suite_interval_chain,
    "derivative_chain": suite_derivative_chain,
    "gauge_shift": suite_gauge_shift,
    "gauge_chain": suite_gauge_chain,
    "point_shift_scaling": suite_point_shift_scaling,
    "lipschitz_forms": suite_lipschitz_forms,
    "halfspace_equivalence": suite_halfspace_equivalence,
    "scale_monotonicity": suite_scale_monotonicity,
    "geodesic_sandwich": suite_geodesic_sandwich,
}


def run_all(
    seed: int = DEFAULT_SEED,
    trials: int | None = None,
    slack: float | None = None,
) -> list[SuiteResult]:
    """Run every suite with its default trial count (or a uniform override).

    ``slack`` overrides the relative slack of the suites that take one; the
    agreement suites keep their pinned tolerances.  Raises ValueError, before
    any suite runs, for ``trials`` below 1, for ``trials`` below the largest
    case count of the per-case suites (8, the chain matrix) and for a
    ``slack`` that is negative or not finite.
    """
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    cases = (ZYGMUND_CASES, SOBOLEV_CASES, VALUE_GAUGE_CASES, CHAIN_MATRIX, POINT_SHIFT_CASES)
    most = max(map(len, cases))
    if trials is not None and trials < most:
        raise ValueError(f"trials must be at least {most}, one per case")
    if slack is not None and not 0.0 <= slack < math.inf:
        raise ValueError("slack must be finite and non-negative")
    results = []
    for fn in SUITES.values():
        kwargs = {}
        if slack is not None and "slack" in inspect.signature(fn).parameters:
            kwargs["slack"] = slack
        results.append(fn(seed, **kwargs) if trials is None else fn(seed, trials, **kwargs))
    return results
