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

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .cubes import (
    Cube,
    Point,
    as_point,
    pair_scale_arrays,
    point_sub,
    uniform_norm,
    weighted_cube_distance,
)
# gauge is unused here, but the benchmark tracer patches it by this name
from .jets import Jet, _JetRows, gauge  # noqa: F401
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
        for cube, poly in ents:
            if cube.dim != self.n or poly.n != self.n:
                raise ValueError("field entry dimension mismatch")
            if poly.degree != self.top_degree:
                raise ValueError("field polynomials must carry the context degree bound")
        if len({cube for cube, _ in ents}) != len(ents):
            raise ValueError("duplicate cube in field")

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

    corners = n <= 12  # 2^n of them
    xs = list(itertools.product(*zip(lows, highs))) if corners else []
    xs += [tuple(lows + rng.uniform(size=n) * sizes) for _ in range(n_x)]
    hs = list(itertools.product(*zip(-sizes, sizes))) if corners else []
    hs += [tuple(rng.uniform(-1.0, 1.0, size=n) * sizes) for _ in range(n_h)]
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


# ---------------------------------------------------------------------------
# local polynomial fitting


def _sup_fit(
    cube: Cube,
    degree: int,
    orders: Sequence[MultiIndex],
    weights: Sequence[float],
    offsets: Sequence[Point],
    targets: np.ndarray,
    center: int | None,
) -> Poly:
    """min-sup-residual fit with an l1-minimal tie-break, in the cube-local
    basis ((y - x_Q)/r_Q)^beta.

    For the captured point y = x_Q + offsets[p] and alpha = orders[a], the
    fit's D^alpha at y is held within eps * weights[a] of targets[p, a], and
    equals it where p is ``center``.  Stage one minimizes eps; stage two
    re-solves at the optimal eps minimizing the l1 mass of the local
    coordinates d, which keeps radius-weighted derivative magnitudes small.
    On the cube every basis value lies in [-1, 1], which keeps both LPs well
    conditioned regardless of the cube's scale or position.
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

    rows = deriv_matrix(n, degree, orders, offsets) * col_scale
    w = np.asarray(weights)[:, None]  # broadcasts over the points and both rows of a pair
    count = targets.size
    if center is None:
        a_eq, b_eq = np.zeros((0, size)), np.zeros(0)
    else:
        a_eq, b_eq = rows[center], targets[center]

    # stage one over (d, eps): the row pairs +-(row . d - target) <= eps *
    # weight, then eps >= 0
    objective = np.zeros(size + 1)
    objective[size] = 1.0
    a_ub = np.empty((2 * count + 1, size + 1))
    pairs = a_ub[:-1].reshape(*targets.shape, 2, size + 1)
    pairs[..., 0, :size] = rows
    minus = np.negative(rows, out=pairs[..., 1, :size])
    pairs[..., size] = -w
    a_ub[-1, :size], a_ub[-1, size] = 0.0, -1.0
    b_ub = np.empty(2 * count + 1)
    b_pairs = b_ub[:-1].reshape(*targets.shape, 2)
    b_pairs[..., 0] = targets
    np.negative(targets, out=b_pairs[..., 1])
    b_ub[-1] = -0.0
    a_eq1 = np.zeros((len(b_eq), size + 1))
    a_eq1[:, :size] = a_eq
    sol = lp_solve(LPProblem(objective, a_ub, b_ub, a_eq1, b_eq))
    if sol.status != "optimal":
        raise ArithmeticError(f"sup-norm fit LP ended with status {sol.status}")
    eps_star = max(sol.objective, 0.0)

    # stage two over (pos, neg), d = pos - neg: the rows -pos_j <= -0 and
    # -neg_j <= -0 in turn, then the row pairs with eps fixed at its optimum
    eps_fix = eps_star + 1e-11 * (1.0 + eps_star)
    a_ub = np.full((2 * size + 2 * count, 2 * size), -0.0)
    # -1 at row 2j, column j and at row 2j + 1, column size + j: flat
    # positions j (4 size + 1) and 3 size past them
    signs = a_ub[: 2 * size].reshape(-1)
    signs[:: 4 * size + 1] = signs[3 * size :: 4 * size + 1] = -1.0
    pairs = a_ub[2 * size :].reshape(*targets.shape, 2, 2 * size)
    pairs[..., 0, :size] = pairs[..., 1, size:] = rows
    pairs[..., 0, size:] = pairs[..., 1, :size] = minus
    b_ub = np.full(2 * size + 2 * count, -0.0)
    b_pairs = b_ub[2 * size :].reshape(*targets.shape, 2)
    slack = eps_fix * w[:, 0]
    np.add(targets, slack, out=b_pairs[..., 0])
    np.subtract(slack, targets, out=b_pairs[..., 1])
    a_eq2 = np.empty((len(b_eq), 2 * size))
    a_eq2[:, :size] = a_eq
    np.negative(a_eq, out=a_eq2[:, size:])
    sol2 = lp_solve(LPProblem(np.ones(2 * size), a_ub, b_ub, a_eq2, b_eq))
    if sol2.status != "optimal":
        raise ArithmeticError(f"tie-break LP ended with status {sol2.status}")
    d = (sol2.x[:size] - sol2.x[size:]).tolist()
    coef: dict[MultiIndex, float] = {}
    for beta, scale_j, d_j in zip(betas, col_scale, d):
        if d_j != 0.0:
            add_shifted_power(coef, d_j * scale_j, beta, cube.center)
    return Poly(n, degree, coef)


def _captured(sample: SampleSet, cubes: Sequence[Cube]) -> list[list[int]]:
    """Each cube's sample indices, ascending, from one points x cubes
    comparison max |p - x_Q| <= r_Q, which decides as ``Cube.contains`` does."""
    centers = np.array([q.center for q in cubes]).reshape(len(cubes), sample.n)
    points = np.array(sample.points).reshape(-1, 1, sample.n)
    inside = np.abs(points - centers).max(axis=2) <= np.array([q.radius for q in cubes])
    if not inside.any(axis=0).all():
        raise ValueError("cube captures no sample points")
    return [np.flatnonzero(column).tolist() for column in inside.T]


def _fit_points(sample: SampleSet, cube: Cube, captured: Sequence[int] | None, pin: bool):
    """The cube's sample indices (``captured``, or found), their offsets
    y - x_Q, and with ``pin`` the position of x_Q among them (else None); a
    center that is a sample point is always captured."""
    idx = _captured(sample, [cube])[0] if captured is None else captured
    points = [sample.points[i] for i in idx]
    if pin and cube.center not in points:
        raise ValueError(f"cube center {cube.center} is not a sample point")
    return idx, [point_sub(y, cube.center) for y in points], points.index(cube.center) if pin else None


def local_fit(
    sample: SampleSet,
    cube: Cube,
    degree: int,
    interpolate_center: bool = False,
    *,
    captured: Sequence[int] | None = None,
) -> Poly:
    """Sup-norm best polynomial fit to the scalar samples inside the cube.

    Minimizes the maximum absolute residual over the captured points by
    linear programming in cube-local scaled coordinates; ties are broken by a
    second solve minimizing the sum of absolute local coefficients at the
    optimal residual.  With ``interpolate_center`` the fit is pinned to the
    sample value at the cube center (which must itself be a sample point).
    ``captured``, the cube's sample indices in ascending order, is found when not given.
    """
    if sample.values is None:
        raise ValueError("scalar sample data required (use jet_fit for jet data)")
    idx, offsets, center = _fit_points(sample, cube, captured, interpolate_center)
    targets = np.array([sample.values[i] for i in idx])[:, None]
    return _sup_fit(cube, degree, [(0,) * sample.n], [1.0], offsets, targets, center)


def jet_fit(
    sample: SampleSet,
    cube: Cube,
    k: int,
    degree: int,
    mod: Modulus,
    interpolate_center: bool = False,
    *,
    captured: Sequence[int] | None = None,
) -> Poly:
    """Best fit to jet data inside the cube: minimizes the largest scaled
    deviation |D^a(P - P_y)(y)| / (r^(k-|a|) w(r)) over captured points y and
    orders |a| <= k.  With ``interpolate_center`` the degree-k Taylor part at
    the center is pinned to the center's data polynomial.  ``captured`` is as
    in ``local_fit``."""
    if sample.jets is None:
        raise ValueError("jet sample data required")
    idx, offsets, center = _fit_points(sample, cube, captured, interpolate_center)
    low_orders = multi_indices(sample.n, k)
    r = cube.radius
    wr = mod.eval(r)
    if wr == 0.0:
        raise ValueError("modulus vanishes at the cube radius")
    weights = [r ** (k - mi_order(alpha)) * wr for alpha in low_orders]
    jets, points = sample.jets, sample.points
    targets = np.array([[jets[i].deriv_eval(alpha, points[i]) for alpha in low_orders] for i in idx])
    return _sup_fit(cube, degree, low_orders, weights, offsets, targets, center)


def fit_field(
    sample: SampleSet,
    cubes: Sequence[Cube],
    k: int,
    m: int,
    mod: Modulus | None = None,
    interpolate_center: bool = False,
) -> PolyField:
    """Fit one polynomial per cube and assemble the field."""
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    if sample.values is None and mod is None:
        raise ValueError("jet data fitting needs the modulus")
    if len(set(cubes)) != len(cubes):
        raise ValueError("duplicate cube in field")
    degree = k + m - 1
    entries = []
    for cube, idx in zip(cubes, _captured(sample, cubes)):
        if sample.values is not None:
            poly = local_fit(sample, cube, degree, interpolate_center, captured=idx)
        else:
            poly = jet_fit(sample, cube, k, degree, mod, interpolate_center, captured=idx)
        entries.append((cube, poly))
    return PolyField(n=sample.n, k=k, m=m, entries=tuple(entries))


# ---------------------------------------------------------------------------
# condition sweeps


def _once_per_field(fn):
    """``fn(field, *args)`` once per field and equal ``args``, kept in the field's ``__dict__``:
    eq, repr and ``asdict`` skip it, a frozen field cannot outdate it, a raise keeps nothing."""

    @functools.wraps(fn)
    def once(field: PolyField, *args):
        kept, key = field.__dict__.setdefault("_kept", {}), (fn.__name__, *args)
        if key not in kept:
            kept[key] = fn(field, *args)
        return kept[key]

    return once


def pair_gauges(
    mod: Modulus, top: int, orders: Sequence[MultiIndex], cubes: Sequence[Cube]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``gauges(i, j)``: gauge(mod, top, alpha, t, v) of the pairs of index
    arrays i, j (they broadcast), entry [..., a] for alpha = orders[a]; +inf if i == j.

    The gauge is symmetric in the pair and sees alpha only through
    t^(top - |alpha|), so each unordered pair keeps its span t and core
    integral: one ``Modulus.core_integrals`` call over ``pair_scale_arrays``.
    """
    powers = np.array([top - mi_order(alpha) for alpha in orders], dtype=float)
    span, core = np.ones((len(cubes), len(cubes))), np.full((len(cubes), len(cubes)), np.inf)
    i, j = np.triu_indices(len(cubes), 1)
    v, t = pair_scale_arrays(cubes, i, j)
    span[i, j] = span[j, i] = t
    core[i, j] = core[j, i] = mod.core_integrals(v, t)

    @np.errstate(over="ignore")  # a gauge beyond the float range is +inf
    def gauges(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return span[i, j][..., None] ** powers * core[i, j][..., None]

    return gauges


@_once_per_field
def _rows(field: PolyField) -> _JetRows:
    """The field's jets as ``_JetRows``, at their cube centers."""
    return _JetRows(field.jets())


@_once_per_field
@np.errstate(over="ignore", invalid="ignore")  # inf and NaN, as Poly.deriv_eval gives them
def _center_derivatives(field: PolyField) -> np.ndarray:
    """D[i, g] = D^gamma P_i(x_i), gamma = ``multi_indices(n, top)[g]``, read-only."""
    rows = _rows(field)
    table = rows.derivatives(rows.coef, rows.deriv)
    table.flags.writeable = False
    return table


@_once_per_field
def pairwise_sweep(field: PolyField, mod: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered cube pair's worst derivative discrepancy at the first
    center divided by its gauge: one sweep per field and modulus, read-only.

    Returns (ratio, order): ratio[i, j] is the maximum over orders alpha of
    |D^alpha(P_i - P_j)(x_i)| / gauge(t, v), and order[i, j] the position in
    ``multi_indices(n, top)`` of the first order reaching it; the diagonal is
    zero.  The discrepancies are ``jets._JetRows`` rows at x_i, the gauges
    ``pair_gauges``.  A zero gauge (it can underflow for tiny, close cubes)
    or an overflowing ratio raises FloatingPointError.
    """
    if mod.m != field.m:
        raise ValueError("modulus order does not match the field context")
    rows = _rows(field)
    top = field.top_degree
    # the infinite diagonal gauge gives a cube's zero self-discrepancy ratio 0
    gauges = pair_gauges(mod, top, multi_indices(field.n, top), [q for q, _ in field.entries])
    size = len(field.entries)
    ratio = np.zeros((size, size))
    order = np.zeros((size, size), dtype=int)
    everyone = np.arange(size)
    for i in range(size):
        row = gauges(i, everyone)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            ratios = rows.discrepancies(i, everyone) / row
        order[i] = ratios.argmax(axis=1)
        ratio[i] = ratios[everyone, order[i]]
    ratio.flags.writeable = order.flags.writeable = False
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
    maxima)."""

    lambda_hat: float
    pointwise: ConditionStat
    pairwise: ConditionStat
    interpolation: tuple[tuple[Cube, float], ...] | None
    fit_mode: str | None
    notes: tuple[str, ...]


@_once_per_field
@np.errstate(invalid="ignore")  # 0 * inf, where a radius power underflows
def _pointwise_bound(field: PolyField) -> tuple[float, dict | None]:
    """Worst center derivative scaled by the radius power it may legally grow
    with, over cubes of radius <= 1, and its witness: the first worst in
    cube-then-order order (a NaN never wins).  Computed once per field, so
    callers copy the witness."""
    gammas = multi_indices(field.n, field.top_degree)
    small = [i for i, (cube, _) in enumerate(field.entries) if cube.radius <= 1.0]
    grow = [[field.entries[i][0].radius ** max(0, mi_order(g) - field.k) for g in gammas] for i in small]
    ratio = np.fmax(np.abs(_center_derivatives(field)[small]) * np.reshape(grow, (-1, len(gammas))), 0.0)
    if not ratio.any():
        return 0.0, None
    i, g = np.unravel_index(ratio.argmax(), ratio.shape)
    return float(ratio[i, g]), {"cube_index": small[i], "order": gammas[g], "ratio": float(ratio[i, g])}


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

    A gauge can underflow to 0.0 for tiny, close cubes, and a ratio can
    overflow; ``pairwise_sweep`` then raises FloatingPointError.
    """
    worst_pt, wit_pt = _pointwise_bound(field)
    pair_ratios, pair_orders = pairwise_sweep(field, mod)
    worst_pair = float(pair_ratios.max(initial=0.0))
    wit_pair = None
    if worst_pair > 0.0:
        i, j = np.unravel_index(int(pair_ratios.argmax()), pair_ratios.shape)
        order = multi_indices(field.n, field.top_degree)[pair_orders[i, j]]
        wit_pair = {"cube_indices": (int(i), int(j)), "order": order, "ratio": worst_pair}

    interpolation = None
    if sample is not None and sample.values is not None:
        values = dict(zip(sample.points, sample.values))
        missing = [q.center for q, _ in field.entries if q.center not in values]
        if missing:
            raise ValueError(f"cube center {missing[0]} is not a sample point")
        interpolation = tuple((q, abs(p.eval(q.center) - values[q.center])) for q, p in field.entries)

    notes = (
        "field polynomials are best-fit surrogates over cube captures",
        "sampled quantities are lower bounds for the corresponding suprema",
    )
    return CheckReport(
        lambda_hat=max(worst_pt, worst_pair),
        pointwise=ConditionStat("pointwise_bounds", worst_pt, wit_pt and dict(wit_pt)),
        pairwise=ConditionStat("pairwise_growth", worst_pair, wit_pair),
        interpolation=interpolation,
        fit_mode=fit_mode,
        notes=notes,
    )


def lipschitz_forms(field: PolyField, mod: Modulus, lam: float) -> tuple[bool, bool]:
    """Evaluate the two equivalent forms of the scaled Lipschitz condition.

    Returns (ratio form, metric form): the ratio form compares every
    derivative discrepancy against lam times its gauge; the metric form
    compares the jet distance of the 1/lam-scaled jets against the weighted
    cube distance.  The two booleans agree for every field and lam > 0.
    """
    if not lam > 0:
        raise ValueError("scale must be positive")
    ratio_ok = bool(pairwise_sweep(field, mod)[0].max(initial=0.0) <= lam)
    # the 1/lam-scaled jets' rows, as ``jets.scale`` rounds them, on the same distinct cubes
    scaled = copy.copy(_rows(field))
    coef, jets = scaled.coef, scaled.jets
    scaled.coef = np.multiply(coef, 1.0 / lam, out=np.zeros_like(coef), where=coef != 0.0)
    # one row's peaks per call; stops at the first violation, and a NaN
    # distance fails no comparison
    size = len(jets)
    metric_ok = not any(
        distance > _cube_distance(field, mod, i, j)
        for i in range(size - 1)
        for j, distance in zip(range(i + 1, size), scaled.distances(mod, i, range(i + 1, size)))
    )
    return ratio_ok, metric_ok


@_once_per_field
def _cube_distance(field: PolyField, mod: Modulus, i: int, j: int) -> float:
    """The weighted cube distance of the field's cubes i and j."""
    return weighted_cube_distance(mod, field.entries[i][0], field.entries[j][0])


@dataclass(frozen=True)
class LoSeminorm:
    """Scale seminorm of a field with its geodesic bracket.

    ``value`` is the exact threshold for the pairwise (quasi-distance) form;
    the geodesic form lies within [value * e^-n, value].
    """

    value: float
    lower: float
    upper: float


def lo_seminorm(field: PolyField, mod: Modulus) -> LoSeminorm:
    """Smallest multiplier whose reciprocal scaling makes the field
    1-Lipschitz in the quasi-distance sense: the maximum over cube pairs,
    derivative orders and both centers of discrepancy / gauge."""
    worst = float(pairwise_sweep(field, mod)[0].max(initial=0.0))
    return LoSeminorm(value=worst, lower=worst * math.exp(-field.n), upper=worst)


@dataclass(frozen=True)
class StarNorm:
    """Sup of center derivatives scaled by admissible radius powers, over
    cubes of radius <= 1; ``empty_sup`` flags that no cube qualified."""

    value: float
    empty_sup: bool


def star_norm(field: PolyField) -> StarNorm:
    empty = all(cube.radius > 1.0 for cube, _ in field.entries)
    return StarNorm(value=_pointwise_bound(field)[0], empty_sup=empty)


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


@np.errstate(invalid="ignore")  # inf - inf is NaN, as in Python floats
def limit_jet(field: PolyField, mod: Modulus, x: Sequence[float]) -> LimitJetResult:
    """Taylor part at x of the smallest-radius entry centered at x, with a
    convergence diagnostic from the successive entries.

    Needs at least three distinct radii at the center.  For each derivative
    order up to the field's k and each consecutive radius pair, the difference of
    center derivatives is compared against r^(k - order) * w(r) at the larger radius.
    """
    x = as_point(x)
    radius = [q.radius for q, _ in field.entries]
    stack = sorted((i for i, (q, _) in enumerate(field.entries) if q.center == x), key=lambda i: -radius[i])
    if len(stack) < 3:  # a field's cubes at one center have distinct radii
        raise ValueError("need at least three radii at the center")
    rows = tuple(  # the orders <= k are the first columns of _center_derivatives
        LimitJetRow(alpha, radius[i], diff, radius[i] ** (field.k - mi_order(alpha)) * mod.eval(radius[i]))
        for i, diffs in zip(stack, np.abs(np.diff(_center_derivatives(field)[stack], axis=0)).tolist())
        for alpha, diff in zip(multi_indices(field.n, field.k), diffs)
    )
    return LimitJetResult(poly=field.entries[stack[-1]][1].taylor(x, field.k), rows=rows)
