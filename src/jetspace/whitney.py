"""Trace checking on finite sets: differences, local fits, condition sweeps.

Given samples of a function (or of its jets) on a finite point set, this
module builds a polynomial field over a family of cubes centered at the
samples -- one sup-norm best-fit polynomial per cube -- and measures the
smallest multiplier that makes the field satisfy the pointwise-boundedness and
pairwise-growth conditions characterizing traces of smooth functions.  The
fitted field is a surrogate for near-best local approximations of an ambient
function; reports are labeled accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .cubes import (
    Cube,
    Point,
    as_point,
    point_sub,
    uniform_norm,
    weighted_cube_distance,
)
# gauge is unused here, but the benchmark tracer patches it by this name
from .jets import Jet, _JetRows, gauge, scale  # noqa: F401
from .lp import LPProblem, lp_solve
from .modulus import Modulus
from .poly import MultiIndex, Poly, add_shifted_power, deriv_matrix, mi_order, multi_indices


# ---------------------------------------------------------------------------
# sample sets and polynomial fields


@dataclass(frozen=True)
class SampleSet:
    """A finite point set with scalar values or jet (polynomial) data."""

    n: int
    points: tuple[Point, ...]
    values: tuple[float, ...] | None = None
    jets: tuple[Poly, ...] | None = None

    def __post_init__(self) -> None:
        pts = tuple(as_point(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise ValueError("sample points must be distinct")
        if any(len(p) != self.n for p in pts):
            raise ValueError("sample point dimension mismatch")
        if (self.values is None) == (self.jets is None):
            raise ValueError("provide exactly one of scalar values or jet data")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            if len(self.values) != len(pts):
                raise ValueError("values misaligned with points")
        else:
            object.__setattr__(self, "jets", tuple(self.jets))
            if len(self.jets) != len(pts):
                raise ValueError("jet data misaligned with points")
            if any(p.n != self.n for p in self.jets):
                raise ValueError("jet data dimension mismatch")

    def value_at(self, x: Sequence[float]) -> float:
        idx = self.points.index(as_point(x))
        return self.values[idx]

    def jet_at(self, x: Sequence[float]) -> Poly:
        idx = self.points.index(as_point(x))
        return self.jets[idx]


@dataclass(frozen=True)
class PolyField:
    """A finite mapping cube -> polynomial within one (n, k, m) context."""

    n: int
    k: int
    m: int
    entries: tuple[tuple[Cube, Poly], ...]

    def __post_init__(self) -> None:
        if self.k < 0 or self.m < 1:
            raise ValueError("need k >= 0 and m >= 1")
        ents = tuple(self.entries)
        object.__setattr__(self, "entries", ents)
        seen = set()
        for cube, poly in ents:
            if cube.dim != self.n or poly.n != self.n:
                raise ValueError("field entry dimension mismatch")
            if poly.degree != self.top_degree:
                raise ValueError("field polynomials must carry the context degree bound")
            if cube in seen:
                raise ValueError("duplicate cube in field")
            seen.add(cube)

    @property
    def top_degree(self) -> int:
        return self.k + self.m - 1

    def jets(self) -> list[Jet]:
        return [Jet(poly=p, cube=q) for q, p in self.entries]

    def scale(self, gamma: float) -> "PolyField":
        return PolyField(
            n=self.n,
            k=self.k,
            m=self.m,
            entries=tuple((q, p.scale(gamma)) for q, p in self.entries),
        )


# ---------------------------------------------------------------------------
# finite differences and sampled norms


def finite_difference(
    f: Callable[[Sequence[float]], float],
    x: Sequence[float],
    h: Sequence[float],
    m: int,
) -> float:
    """m-th order difference of f at x with step h: the alternating binomial
    sum of f(x), f(x+h), ..., f(x+mh).  Annihilates polynomials of degree < m."""
    if m < 1:
        raise ValueError("difference order must be >= 1")
    x = as_point(x)
    h = as_point(h)
    total = 0.0
    for i in range(m + 1):
        pt = tuple(a + i * b for a, b in zip(x, h))
        total += (-1) ** (m - i) * math.comb(m, i) * f(pt)
    return total


@dataclass(frozen=True)
class SeminormEstimate:
    """Sampled norm estimate; a lower bound for the true supremum norm."""

    sup_term: float
    diff_term: float

    @property
    def total(self) -> float:
        return self.sup_term + self.diff_term


def seminorm_estimate(
    derivs: Mapping[MultiIndex, Callable[[Sequence[float]], float]],
    box: Sequence[tuple[float, float]],
    mod: Modulus,
    k: int,
    n_x: int = 60,
    n_h: int = 60,
    seed: int = 0,
) -> SeminormEstimate:
    """Sampled smoothness norm: the summed sampled sup of all derivatives of
    order <= k plus, for each top-order derivative, the sampled sup of
    |m-th difference| / w(step size).

    Box corners and extreme steps enter the sample deterministically; the rest
    is seeded uniform sampling.  Being a sampled supremum over a bounded
    region, the result only ever underestimates the true norm.
    """
    n = len(box)
    m = mod.m
    for alpha in multi_indices(n, k):
        if alpha not in derivs:
            raise KeyError(f"missing derivative handle for order {alpha}")
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box], dtype=float)
    highs = np.array([hi for _, hi in box], dtype=float)
    sizes = highs - lows

    corners = (
        [tuple(pt) for pt in _corner_points(lows, highs)] if n <= 12 else []
    )
    xs = corners + [
        tuple(lows + rng.uniform(size=n) * sizes) for _ in range(n_x)
    ]
    h_corners = (
        [tuple(pt) for pt in _corner_points(-sizes, sizes)] if n <= 12 else []
    )
    hs = [h for h in h_corners if any(c != 0.0 for c in h)]
    hs += [
        tuple(rng.uniform(-1.0, 1.0, size=n) * sizes) for _ in range(n_h)
    ]
    hs = [h for h in hs if any(c != 0.0 for c in h)]

    sup_term = 0.0
    for alpha in multi_indices(n, k):
        handle = derivs[alpha]
        sup_term += max(abs(handle(x)) for x in xs)

    diff_term = 0.0
    for alpha in multi_indices(n, k):
        if mi_order(alpha) != k:
            continue
        handle = derivs[alpha]
        worst = 0.0
        for x in xs:
            for h in hs:
                wh = mod.eval(uniform_norm(h))
                diff = finite_difference(handle, x, h, m)
                if wh == 0.0:
                    if abs(diff) > 1e-12:
                        raise ValueError("modulus vanishes at a nonzero step")
                    continue
                worst = max(worst, abs(diff) / wh)
        diff_term += worst
    return SeminormEstimate(sup_term=sup_term, diff_term=diff_term)


def _corner_points(lows: np.ndarray, highs: np.ndarray):
    n = lows.size
    for mask in range(2**n):
        yield np.array(
            [highs[i] if (mask >> i) & 1 else lows[i] for i in range(n)]
        )


# ---------------------------------------------------------------------------
# local polynomial fitting


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Rows (or entries) of ``first`` and ``second`` alternating, first[0] first."""
    return np.stack([first, second], axis=1).reshape(-1, *first.shape[1:])


def _sup_fit(
    cube: Cube,
    degree: int,
    orders: Sequence[MultiIndex],
    weights: Sequence[float],
    target: Callable[[Point], list[float]],
    pts: Sequence[Point],
    interpolate_center: bool,
) -> Poly:
    """min-sup-residual fit with an l1-minimal tie-break, in the cube-local
    basis ((y - x_Q)/r_Q)^beta.

    For each captured point y and each alpha = orders[a], the fit's D^alpha at
    y is held within eps * weights[a] of target(y)[a]; with
    ``interpolate_center`` it equals target(x_Q) at the center.  Stage one
    minimizes eps; stage two re-solves at the optimal eps minimizing the l1
    mass of the local coordinates d, which keeps radius-weighted derivative
    magnitudes small.  On the cube every basis value lies in [-1, 1], which
    keeps both LPs well conditioned regardless of the cube's scale or position.
    """
    n = cube.dim
    betas = multi_indices(n, degree)
    size = len(betas)
    inv_r = 1.0 / cube.radius  # +inf for a subnormal radius
    try:
        col_scale = [inv_r ** mi_order(beta) for beta in betas]
    except OverflowError:
        col_scale = [math.inf]
    if math.inf in col_scale:
        raise OverflowError(f"fit basis of order {degree} overflows on a cube of radius {cube.radius!r}")

    def rows_at(points: Sequence[Point]) -> np.ndarray:
        local = [point_sub(y, cube.center) for y in points]
        return deriv_matrix(n, degree, orders, local).reshape(-1, size) * col_scale

    a = rows_at(pts)
    t = np.array([v for y in pts for v in target(y)])
    w = np.tile(weights, len(pts))
    if interpolate_center:
        a_eq, b_eq = rows_at([cube.center]), np.array(target(cube.center))
    else:
        a_eq, b_eq = np.zeros((0, size)), np.zeros(0)

    # stage one over (d, eps): +-(row . d - target) <= eps * weight, eps >= 0
    a_ub = _interleave(np.column_stack([a, -w]), np.column_stack([-a, -w]))
    a_ub = np.vstack([a_ub, np.append(np.zeros(size), -1.0)])
    b_ub = np.append(_interleave(t, -t), -0.0)
    a_eq1 = np.column_stack([a_eq, np.zeros(len(b_eq))])
    sol = lp_solve(LPProblem(np.append(np.zeros(size), 1.0), a_ub, b_ub, a_eq1, b_eq))
    if sol.status != "optimal":
        raise ArithmeticError(f"sup-norm fit LP ended with status {sol.status}")
    eps_star = max(sol.objective, 0.0)

    # stage two over (pos, neg), d = pos - neg: pos_j, neg_j >= 0, then the
    # row pairs with eps fixed at its optimum
    eps_fix = eps_star + 1e-11 * (1.0 + eps_star)
    eye = np.eye(2 * size)
    split = np.hstack([a, -a])
    a_ub = np.vstack([_interleave(-eye[:size], -eye[size:]), _interleave(split, -split)])
    b_ub = np.concatenate(
        [np.full(2 * size, -0.0), _interleave(t + eps_fix * w, eps_fix * w - t)]
    )
    sol2 = lp_solve(LPProblem(np.ones(2 * size), a_ub, b_ub, np.hstack([a_eq, -a_eq]), b_eq))
    if sol2.status != "optimal":
        raise ArithmeticError(f"tie-break LP ended with status {sol2.status}")
    d = (sol2.x[:size] - sol2.x[size:]).tolist()
    coef: dict[MultiIndex, float] = {}
    for beta, scale_j, d_j in zip(betas, col_scale, d):
        if d_j != 0.0:
            add_shifted_power(coef, d_j * scale_j, beta, cube.center)
    return Poly(n, degree, coef)


def _captured(sample: SampleSet, cubes: Sequence[Cube]) -> list[list[Point]]:
    """Each cube's sample points, from one points x cubes comparison
    max |p - x_Q| <= r_Q, which decides as ``Cube.contains`` does."""
    centers = np.array([q.center for q in cubes]).reshape(len(cubes), sample.n)
    points = np.array(sample.points).reshape(-1, 1, sample.n)
    inside = np.abs(points - centers).max(axis=2) <= np.array([q.radius for q in cubes])
    if not inside.any(axis=0).all():
        raise ValueError("cube captures no sample points")
    return [[p for p, hit in zip(sample.points, column) if hit] for column in inside.T]


def local_fit(
    sample: SampleSet,
    cube: Cube,
    degree: int,
    interpolate_center: bool = False,
    *,
    captured: Sequence[Point] | None = None,
) -> Poly:
    """Sup-norm best polynomial fit to the scalar samples inside the cube.

    Minimizes the maximum absolute residual over the captured points by
    linear programming in cube-local scaled coordinates; ties are broken by a
    second solve minimizing the sum of absolute local coefficients at the
    optimal residual.  With ``interpolate_center`` the fit is pinned to the
    sample value at the cube center (which must itself be a sample point).
    ``captured``, the sample points in the cube, is found when not given.
    """
    if sample.values is None:
        raise ValueError("scalar sample data required (use jet_fit for jet data)")
    pts = _captured(sample, [cube])[0] if captured is None else captured
    value = lambda y: [sample.value_at(y)]
    return _sup_fit(cube, degree, [(0,) * sample.n], [1.0], value, pts, interpolate_center)


def jet_fit(
    sample: SampleSet,
    cube: Cube,
    k: int,
    degree: int,
    mod: Modulus,
    interpolate_center: bool = False,
    *,
    captured: Sequence[Point] | None = None,
) -> Poly:
    """Best fit to jet data inside the cube: minimizes the largest scaled
    deviation |D^a(P - P_y)(y)| / (r^(k-|a|) w(r)) over captured points y and
    orders |a| <= k.  With ``interpolate_center`` the degree-k Taylor part at
    the center is pinned to the center's data polynomial.  ``captured`` is as
    in ``local_fit``."""
    if sample.jets is None:
        raise ValueError("jet sample data required")
    pts = _captured(sample, [cube])[0] if captured is None else captured
    low_orders = multi_indices(sample.n, k)
    r = cube.radius
    wr = mod.eval(r)
    if wr == 0.0:
        raise ValueError("modulus vanishes at the cube radius")
    weights = [r ** (k - mi_order(alpha)) * wr for alpha in low_orders]

    def derivs(y: Point) -> list[float]:
        data = sample.jet_at(y)
        return [data.deriv_eval(alpha, y) for alpha in low_orders]

    return _sup_fit(cube, degree, low_orders, weights, derivs, pts, interpolate_center)


def fit_field(
    sample: SampleSet,
    cubes: Sequence[Cube],
    k: int,
    m: int,
    mod: Modulus | None = None,
    interpolate_center: bool = False,
) -> PolyField:
    """Fit one polynomial per cube and assemble the field."""
    degree = k + m - 1
    entries = []
    for cube, pts in zip(cubes, _captured(sample, cubes)):
        if sample.values is not None:
            poly = local_fit(sample, cube, degree, interpolate_center, captured=pts)
        else:
            if mod is None:
                raise ValueError("jet data fitting needs the modulus")
            poly = jet_fit(sample, cube, k, degree, mod, interpolate_center, captured=pts)
        entries.append((cube, poly))
    return PolyField(n=sample.n, k=k, m=m, entries=tuple(entries))


# ---------------------------------------------------------------------------
# condition sweeps


def pair_gauges(
    mod: Modulus, top: int, orders: Sequence[MultiIndex], cubes: Sequence[Cube]
) -> np.ndarray:
    """gauge(mod, top, alpha, t, v) of every ordered cube pair: entry [i, j, a]
    for alpha = orders[a], and +inf on the diagonal.

    The gauge is symmetric in the pair and its core integral does not depend
    on alpha, so the unordered pairs' scales (as ``pair_scales`` rounds them)
    take one ``Modulus.core_integrals`` call.
    """
    powers = np.array([top - mi_order(alpha) for alpha in orders], dtype=float)
    out = np.full((len(cubes), len(cubes), len(orders)), np.inf)
    i, j = np.triu_indices(len(cubes), 1)
    centers, radii = np.array([q.center for q in cubes], ndmin=2), np.array([q.radius for q in cubes])
    v = np.minimum(radii[i], radii[j])
    t = np.maximum(radii[i], radii[j]) + np.abs(centers[i] - centers[j]).max(axis=1, initial=0.0)
    with np.errstate(over="ignore"):  # a gauge beyond the float range is +inf
        out[i, j] = out[j, i] = t[:, None] ** powers * mod.core_integrals(v, t)[:, None]
    return out


def pairwise_sweep(field: PolyField, mod: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered cube pair's worst derivative discrepancy at the first
    center divided by its gauge, in one sweep.

    Returns (ratio, order): ratio[i, j] is the maximum over orders alpha of
    |D^alpha(P_i - P_j)(x_i)| / gauge(t, v), and order[i, j] the position in
    ``multi_indices(n, top)`` of the first order reaching it; the diagonal is
    zero.  The discrepancies are ``jets._JetRows`` rows at x_i, the gauges
    ``pair_gauges``.  A zero gauge (it can underflow for tiny, close cubes)
    raises FloatingPointError.
    """
    if mod.m != field.m:
        raise ValueError("modulus order does not match the field context")
    jets = field.jets()
    rows = _JetRows(jets)
    top = field.top_degree
    # the infinite diagonal gauge gives a cube's zero self-discrepancy ratio 0
    gauges = pair_gauges(mod, top, multi_indices(field.n, top), [jet.cube for jet in jets])
    size = len(jets)
    ratio = np.zeros((size, size))
    order = np.zeros((size, size), dtype=int)
    everyone = np.arange(size)
    with np.errstate(divide="raise", invalid="raise"):
        for i in range(size):
            ratios = rows.discrepancies(i, everyone) / gauges[i]
            order[i] = ratios.argmax(axis=1)
            ratio[i] = ratios[everyone, order[i]]
    return ratio, order


@dataclass(frozen=True)
class ConditionStat:
    """Worst ratio of one condition family with its witness."""

    name: str
    lambda_hat: float
    witness: dict | None


@dataclass(frozen=True)
class CheckReport:
    """Aggregated trace-condition report; lambda_hat is the smallest
    multiplier making every checked inequality hold (max of the family
    maxima).  ``pair_ratios`` holds the worst ratio of every ordered cube
    pair (see ``pairwise_sweep``)."""

    lambda_hat: float
    pointwise: ConditionStat
    pairwise: ConditionStat
    interpolation: tuple[tuple[Cube, float], ...] | None
    fit_mode: str | None
    notes: tuple[str, ...]
    pair_ratios: np.ndarray


def _pointwise_bound(field: PolyField) -> tuple[float, dict | None, bool]:
    """Worst center derivative scaled by the radius power it may legally grow
    with, over cubes of radius <= 1; its witness; whether any cube
    qualified."""
    worst = 0.0
    witness = None
    any_small = False
    for idx, (cube, poly) in enumerate(field.entries):
        if cube.radius > 1.0:
            continue
        any_small = True
        for gamma in multi_indices(field.n, field.top_degree):
            e = max(0, mi_order(gamma) - field.k)
            ratio = abs(poly.deriv_eval(gamma, cube.center)) * cube.radius**e
            if ratio > worst:
                worst = ratio
                witness = {"cube_index": idx, "order": gamma, "ratio": ratio}
    return worst, witness, any_small


def check_conditions(
    sample: SampleSet | None,
    field: PolyField,
    mod: Modulus,
    *,
    fit_mode: str | None = None,
) -> CheckReport:
    """Sweep the trace conditions over the field; ``fit_mode`` only labels the report.

    * pointwise bounds: for every cube with radius <= 1 and every derivative
      order up to the degree bound, the derivative at the center scaled by
      the radius power it may legally grow with;
    * pairwise growth: for every ordered cube pair and order, the derivative
      discrepancy at the first center divided by its gauge;
    * interpolation residuals |P_Q(x_Q) - f(x_Q)| when scalar data is given.

    The gauge of distinct cubes is positive in exact arithmetic, but it can
    underflow to 0.0 for tiny, close cubes; ``pairwise_sweep`` then raises
    FloatingPointError rather than report an indeterminate ratio.
    """
    worst_pt, wit_pt, _ = _pointwise_bound(field)
    pair_ratios, pair_orders = pairwise_sweep(field, mod)
    worst_pair = float(pair_ratios.max(initial=0.0))
    wit_pair = None
    if worst_pair > 0.0:
        i, j = np.unravel_index(int(pair_ratios.argmax()), pair_ratios.shape)
        order = multi_indices(field.n, field.top_degree)[pair_orders[i, j]]
        wit_pair = {"cube_indices": (int(i), int(j)), "order": order, "ratio": worst_pair}

    interpolation = None
    if sample is not None and sample.values is not None:
        interpolation = tuple(
            (cube, abs(poly.eval(cube.center) - sample.value_at(cube.center)))
            for cube, poly in field.entries
        )

    notes = (
        "field polynomials are best-fit surrogates over cube captures",
        "sampled quantities are lower bounds for the corresponding suprema",
    )
    return CheckReport(
        lambda_hat=max(worst_pt, worst_pair),
        pointwise=ConditionStat("pointwise_bounds", worst_pt, wit_pt),
        pairwise=ConditionStat("pairwise_growth", worst_pair, wit_pair),
        interpolation=interpolation,
        fit_mode=fit_mode,
        notes=notes,
        pair_ratios=pair_ratios,
    )


def lipschitz_forms(field: PolyField, mod: Modulus, lam: float) -> tuple[bool, bool]:
    """Evaluate the two equivalent forms of the scaled Lipschitz condition.

    Returns (ratio form, metric form): the ratio form compares every
    derivative discrepancy against lam times its gauge; the metric form
    compares the jet distance of the 1/lam-scaled jets against the weighted
    cube distance.  The two booleans agree for every field and lam > 0.
    """
    if lam <= 0:
        raise ValueError("scale must be positive")
    ratio_ok = bool(pairwise_sweep(field, mod)[0].max(initial=0.0) <= lam)
    jets = field.jets()
    scaled = _JetRows([scale(1.0 / lam, jet) for jet in jets])
    # stops at the first violation; a NaN distance fails no comparison
    metric_ok = not any(
        scaled.distances(mod, i, [j])[0]
        > weighted_cube_distance(mod, jets[i].cube, jets[j].cube)
        for i in range(len(jets))
        for j in range(i + 1, len(jets))
    )
    return ratio_ok, metric_ok


@dataclass(frozen=True)
class LoSeminorm:
    """Scale seminorm of a field with its geodesic bracket.

    ``value`` is the exact threshold for the pairwise (quasi-distance) form;
    the geodesic form lies within [value * e^-n, value].
    """

    value: float
    lower: float
    upper: float


def lo_seminorm(
    field: PolyField, mod: Modulus, pair_ratios: np.ndarray | None = None
) -> LoSeminorm:
    """Smallest multiplier whose reciprocal scaling makes the field
    1-Lipschitz in the quasi-distance sense: the maximum over cube pairs,
    derivative orders and both centers of discrepancy / gauge.

    ``pair_ratios``, when given, are the field's per-pair ratios from
    ``pairwise_sweep`` (a ``CheckReport`` carries them), not swept again.
    """
    if pair_ratios is None:
        pair_ratios = pairwise_sweep(field, mod)[0]
    worst = float(pair_ratios.max(initial=0.0))
    return LoSeminorm(value=worst, lower=worst * math.exp(-field.n), upper=worst)


@dataclass(frozen=True)
class StarNorm:
    """Sup of center derivatives scaled by admissible radius powers, over
    cubes of radius <= 1; ``empty_sup`` flags that no cube qualified."""

    value: float
    empty_sup: bool


def star_norm(field: PolyField) -> StarNorm:
    value, _, any_small = _pointwise_bound(field)
    return StarNorm(value=value, empty_sup=not any_small)


def lo_norm_full(field: PolyField, mod: Modulus) -> float:
    """Full field norm: star norm plus scale seminorm."""
    return star_norm(field).value + lo_seminorm(field, mod).value


# ---------------------------------------------------------------------------
# limit jets


@dataclass(frozen=True)
class LimitJetRow:
    order: MultiIndex
    radius: float
    difference: float
    envelope: float

    @property
    def ratio(self) -> float:
        return self.difference / self.envelope if self.envelope > 0 else math.inf


@dataclass(frozen=True)
class LimitJetResult:
    """Limit polynomial at a center with shrinking radii, plus per-order
    successive differences against the radius-power times modulus envelope."""

    poly: Poly
    rows: tuple[LimitJetRow, ...]

    @property
    def envelope_constant(self) -> float:
        return max((row.ratio for row in self.rows), default=0.0)


def limit_jet(field: PolyField, mod: Modulus, x: Sequence[float]) -> LimitJetResult:
    """Taylor part at x of the smallest-radius entry centered at x, with a
    convergence diagnostic from the successive entries.

    Needs at least three distinct radii at the center.  For each derivative
    order up to the field's k and each consecutive radius pair, the difference of
    center derivatives is compared against r^(k - order) * w(r) at the larger radius.
    """
    x = as_point(x)
    stack = sorted(
        ((q.radius, p) for q, p in field.entries if q.center == x),
        key=lambda t: -t[0],
    )
    if len({r for r, _ in stack}) < 3:
        raise ValueError("need at least three radii at the center")
    rows = []
    for (r_big, p_big), (_, p_small) in zip(stack, stack[1:]):
        for alpha in multi_indices(field.n, field.k):
            diff = abs(p_big.deriv_eval(alpha, x) - p_small.deriv_eval(alpha, x))
            env = r_big ** (field.k - mi_order(alpha)) * mod.eval(r_big)
            rows.append(
                LimitJetRow(order=alpha, radius=r_big, difference=diff, envelope=env)
            )
    limit_poly = stack[-1][1].taylor(x, field.k)
    return LimitJetResult(poly=limit_poly, rows=tuple(rows))
