"""Trace machinery: differences, norms, fits, condition sweeps, limit jets."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace import lp, whitney
from jetspace.cubes import (
    Cube,
    cube_family,
    dyadic_radii,
    pair_scales,
    point_sub,
    uniform_norm,
    weighted_cube_distance,
)
from jetspace.jets import _JetRows, gauge, gauge_inverse, jet_distance, scale, value_gauge
from jetspace.lp import LPBuilder, lp_solve
from jetspace.modulus import Modulus
from jetspace.numerics import invert_increasing
from jetspace.poly import Poly, add_shifted_power, deriv_matrix, mi_order, multi_indices
from jetspace.whitney import (
    PolyField,
    SampleSet,
    check_conditions,
    finite_difference,
    fit_field,
    jet_fit,
    limit_jet,
    lipschitz_forms,
    lo_norm_full,
    lo_seminorm,
    local_fit,
    pairwise_sweep,
    seminorm_estimate,
    star_norm,
)
from test_lp import _PrimalTableau

MOD = Modulus.power(1, 2)


# -- finite differences ---------------------------------------------------------


def test_difference_annihilates_low_degree():
    f = lambda x: 3.0 * x[0] + 1.0
    assert finite_difference(f, (0.2,), (0.7,), 2) == pytest.approx(0.0, abs=1e-10)


def test_difference_quadratic():
    f = lambda x: x[0] ** 2
    for h in (0.1, 0.5, 2.0):
        assert finite_difference(f, (1.3,), (h,), 2) == pytest.approx(
            2 * h * h, rel=1e-9
        )


def test_difference_first_order():
    f = lambda x: math.sin(x[0])
    x, h = 0.4, 0.3
    assert finite_difference(f, (x,), (h,), 1) == pytest.approx(
        math.sin(x + h) - math.sin(x)
    )
    with pytest.raises(ValueError):
        finite_difference(f, (0.0,), (1.0,), 0)


@settings(max_examples=100, deadline=None)
@given(
    c=st.floats(-2, 2), d=st.floats(-2, 2),
    x=st.floats(-2, 2), h=st.floats(-2, 2),
)
def test_difference_annihilation_property(c, d, x, h):
    # second difference of an affine function vanishes
    f = lambda p: c * p[0] + d
    scale = max(1.0, abs(c), abs(d))
    assert abs(finite_difference(f, (x,), (h,), 2)) <= 1e-10 * scale


def test_difference_annihilates_top_derivative():
    # order-k derivative of a degree k+m-1 polynomial has degree m-1, so its
    # m-th difference vanishes identically (k=1, m=3 here)
    p = Poly(1, 3, {(3,): 1.5, (2,): -1.0, (1,): 0.7})
    dp = lambda x: p.deriv_eval((1,), x)
    for x, h in ((0.3, 0.9), (-1.0, 0.25), (2.0, -1.5)):
        assert finite_difference(dp, (x,), (h,), 3) == pytest.approx(0.0, abs=1e-9)


# -- sampled norm ------------------------------------------------------------------


def test_seminorm_low_degree_has_zero_difference_term():
    est = seminorm_estimate(
        {(0,): lambda x: 2.0 * x[0] - 1.0}, [(0.0, 1.0)], MOD, k=0, seed=0
    )
    assert est.diff_term == pytest.approx(0.0, abs=1e-9)


def test_seminorm_pure_power_hits_factorial():
    # second difference of x^2 is exactly 2 h^2; the ratio peaks at the corner
    est = seminorm_estimate({(0,): lambda x: x[0] ** 2}, [(0.0, 1.0)], MOD, k=0, seed=1)
    assert est.diff_term == pytest.approx(2.0, rel=1e-9)
    assert est.sup_term == pytest.approx(1.0, rel=1e-9)
    assert est.total == pytest.approx(3.0, rel=1e-9)


def test_seminorm_absolute_value_is_bounded():
    mod1 = Modulus.power(1, 2)
    est = seminorm_estimate(
        {(0,): lambda x: abs(x[0])}, [(-1.0, 1.0)], mod1, k=0, n_x=80, n_h=80, seed=2
    )
    assert est.diff_term <= 2.0 + 1e-9
    assert est.diff_term >= 1.0


def test_seminorm_missing_handle():
    with pytest.raises(KeyError):
        seminorm_estimate({}, [(0.0, 1.0)], MOD, k=0)


# -- local fits ----------------------------------------------------------------------


def test_local_fit_single_point_interpolates():
    s = SampleSet(n=1, points=((0.5,),), values=(3.25,))
    p = local_fit(s, Cube((0.5,), 1.0), 0)
    assert p.eval((0.5,)) == pytest.approx(3.25, abs=1e-9)


def test_sample_set_and_fit_data_checks():
    pts = ((0.0,), (1.0,))
    with pytest.raises(ValueError, match="values misaligned"):
        SampleSet(n=1, points=pts, values=(1.0,))
    with pytest.raises(ValueError, match="jet data misaligned"):
        SampleSet(n=1, points=pts, jets=(Poly.zero(1, 0),))
    scalar = SampleSet(n=1, points=pts, values=(1.0, 2.0))
    jets = SampleSet(n=1, points=pts, jets=(Poly.zero(1, 0), Poly.zero(1, 0)))
    with pytest.raises(ValueError, match="scalar sample data required"):
        local_fit(jets, Cube((0.0,), 1.0), 0)
    with pytest.raises(ValueError, match="jet sample data required"):
        jet_fit(scalar, Cube((0.0,), 1.0), 0, 0, Modulus.power(1, 1))


def test_local_fit_sup_norm_center():
    # two points, constant fit: the best sup-norm constant is the midpoint value
    s = SampleSet(n=1, points=((-1.0,), (1.0,)), values=(0.0, 2.0))
    p = local_fit(s, Cube((0.0,), 1.5), 0)
    assert p.eval((0.0,)) == pytest.approx(1.0, abs=1e-9)
    resid = max(abs(p.eval(x) - v) for x, v in zip(s.points, s.values))
    assert resid == pytest.approx(1.0, abs=1e-9)


def test_local_fit_exact_representability():
    target = Poly(1, 2, {(0,): 0.5, (1,): -1.0, (2,): 2.0})
    pts = tuple((x,) for x in np.linspace(-1, 1, 7))
    s = SampleSet(n=1, points=pts, values=tuple(target.eval(p) for p in pts))
    fit = local_fit(s, Cube((0.0,), 2.0), 2)
    for x, v in zip(pts, s.values):
        assert fit.eval(x) == pytest.approx(v, abs=1e-8)
    for a in multi_indices(1, 2):
        assert fit.coef.get(a, 0.0) == pytest.approx(target.coef.get(a, 0.0), abs=1e-7)


def test_local_fit_constant_matches_midrange_oracle():
    # the best sup-norm constant is always the midrange of captured values
    rng = np.random.default_rng(41)
    for _ in range(30):
        count = int(rng.integers(1, 8))
        pts = tuple((float(x),) for x in np.sort(rng.uniform(-1, 1, size=count)))
        if len(set(pts)) != count:
            continue
        vals = tuple(float(v) for v in rng.uniform(-3, 3, size=count))
        s = SampleSet(n=1, points=pts, values=vals)
        p = local_fit(s, Cube((0.0,), 1.5), 0)
        assert p.eval((0.0,)) == pytest.approx(
            0.5 * (max(vals) + min(vals)), abs=1e-8
        )


def test_local_fit_line_matches_alternation_oracle():
    # minimax residual of a line equals the largest balanced residual over
    # 3-point subsets with alternating signs
    import itertools

    rng = np.random.default_rng(43)
    for _ in range(20):
        count = int(rng.integers(3, 8))
        xs = np.sort(rng.uniform(-1, 1, size=count))
        if len(set(xs.tolist())) != count:
            continue
        vals = rng.uniform(-2, 2, size=count)
        pts = tuple((float(x),) for x in xs)
        s = SampleSet(n=1, points=pts, values=tuple(float(v) for v in vals))
        p = local_fit(s, Cube((0.0,), 1.5), 1)
        resid = max(abs(p.eval(pt) - v) for pt, v in zip(pts, vals))
        best = 0.0
        for i, j, k2 in itertools.combinations(range(count), 3):
            mat = np.array(
                [[1.0, xs[i], 1.0], [1.0, xs[j], -1.0], [1.0, xs[k2], 1.0]]
            )
            sol = np.linalg.solve(mat, np.array([vals[i], vals[j], vals[k2]]))
            best = max(best, abs(sol[2]))
        assert resid == pytest.approx(best, rel=1e-7, abs=1e-9)


def test_local_fit_center_interpolation_flag():
    pts = ((0.0,), (1.0,), (-1.0,))
    s = SampleSet(n=1, points=pts, values=(0.0, 1.0, 1.0))
    p = local_fit(s, Cube((0.0,), 1.5), 0, interpolate_center=True)
    assert p.eval((0.0,)) == pytest.approx(0.0, abs=1e-10)


def test_local_fit_empty_capture():
    s = SampleSet(n=1, points=((5.0,),), values=(1.0,))
    with pytest.raises(ValueError):
        local_fit(s, Cube((0.0,), 1.0), 0)


def test_jet_fit_recovers_polynomial_jets():
    target = Poly(1, 1, {(0,): 1.0, (1,): 2.0})
    pts = ((0.0,), (0.5,), (1.0,))
    jets = tuple(target.taylor(p, 0) for p in pts)  # order-0 data
    s = SampleSet(n=1, points=pts, jets=jets)
    fit = jet_fit(s, Cube((0.5,), 1.0), k=0, degree=1, mod=MOD)
    for p in pts:
        assert fit.eval(p) == pytest.approx(target.eval(p), abs=1e-8)


# The fitting code before the fits were built on ``deriv_matrix``, kept as the
# reference: a basis Poly per coordinate, rows from Poly evaluation, and both
# LPs built through LPBuilder.


def _oracle_scaled_basis(n: int, degree: int, cube: Cube) -> list[Poly]:
    """Cube-local polynomial basis ((y - x_Q)/r_Q)^beta, expanded exactly.

    On the cube every basis value lies in [-1, 1], which keeps the fitting
    LPs well conditioned regardless of the cube's scale or position.
    """
    out = []
    inv_r = 1.0 / cube.radius
    for beta in multi_indices(n, degree):
        coef: dict[MultiIndex, float] = {}
        add_shifted_power(coef, inv_r ** mi_order(beta), beta, cube.center)
        out.append(Poly(n, degree, coef))
    return out


def _oracle_two_stage_sup_fit(
    n: int,
    degree: int,
    basis: list[Poly],
    rows: list[list[float]],
    targets: list[float],
    weights: list[float],
    eq_rows: list[tuple[list[float], float]],
) -> Poly:
    """min-sup-residual fit with an l1-minimal tie-break.

    Rows constrain |row . d - target| <= eps * weight over basis coordinates
    d; equality rows pin row . d = target.  Stage one minimizes eps; stage two
    re-solves at the optimal eps minimizing the l1 mass of d, which (in the
    cube-local basis) keeps radius-weighted derivative magnitudes small.
    """
    b = LPBuilder()
    dvars = [b.var(f"d{j}") for j in range(len(basis))]
    evar = b.var("eps")
    for row, target, weight in zip(rows, targets, weights):
        coeffs = {dvars[j]: row[j] for j in range(len(basis)) if row[j] != 0.0}
        b.add_le({**coeffs, evar: -weight}, target)
        b.add_le({**{j: -v for j, v in coeffs.items()}, evar: -weight}, -target)
    b.add_ge({evar: 1.0}, 0.0)
    for row, target in eq_rows:
        b.add_eq({dvars[j]: row[j] for j in range(len(basis)) if row[j] != 0.0}, target)
    b.minimize({evar: 1.0})
    sol = lp_solve(b.build())
    if sol.status != "optimal":
        raise ArithmeticError(f"sup-norm fit LP ended with status {sol.status}")
    eps_star = max(sol.objective, 0.0)

    eps_fix = eps_star + 1e-11 * (1.0 + eps_star)
    b2 = LPBuilder()
    pos = [b2.var(f"p{j}") for j in range(len(basis))]
    neg = [b2.var(f"m{j}") for j in range(len(basis))]
    for j in range(len(basis)):
        b2.add_ge({pos[j]: 1.0}, 0.0)
        b2.add_ge({neg[j]: 1.0}, 0.0)
    for row, target, weight in zip(rows, targets, weights):
        coeffs = {}
        for j in range(len(basis)):
            if row[j] != 0.0:
                coeffs[pos[j]] = row[j]
                coeffs[neg[j]] = -row[j]
        b2.add_le(dict(coeffs), target + eps_fix * weight)
        b2.add_le({jj: -v for jj, v in coeffs.items()}, eps_fix * weight - target)
    for row, target in eq_rows:
        coeffs = {}
        for j in range(len(basis)):
            if row[j] != 0.0:
                coeffs[pos[j]] = row[j]
                coeffs[neg[j]] = -row[j]
        b2.add_eq(coeffs, target)
    b2.minimize({v: 1.0 for v in pos + neg})
    sol2 = lp_solve(b2.build())
    if sol2.status != "optimal":
        raise ArithmeticError(f"tie-break LP ended with status {sol2.status}")
    result = Poly.zero(n, degree)
    for j, base in enumerate(basis):
        d = float(sol2.x[pos[j]] - sol2.x[neg[j]])
        if d != 0.0:
            result = result + base.scale(d)
    return result


def _oracle_local_fit(
    sample: SampleSet,
    cube: Cube,
    degree: int,
    interpolate_center: bool = False,
) -> Poly:
    """Sup-norm best polynomial fit to the scalar samples inside the cube.

    Minimizes the maximum absolute residual over the captured points by
    linear programming in cube-local scaled coordinates; ties are broken by a
    second solve minimizing the sum of absolute local coefficients at the
    optimal residual.  With ``interpolate_center`` the fit is pinned to the
    sample value at the cube center (which must itself be a sample point).
    """
    if sample.values is None:
        raise ValueError("scalar sample data required (use jet_fit for jet data)")
    pts = [p for p in sample.points if cube.contains(p)]
    if not pts:
        raise ValueError("cube captures no sample points")
    basis = _oracle_scaled_basis(sample.n, degree, cube)
    rows = [[base.eval(p) for base in basis] for p in pts]
    targets = [sample.values[sample.points.index(p)] for p in pts]
    eq_rows = []
    if interpolate_center:
        value = sample.values[sample.points.index(cube.center)]
        eq_rows.append(([base.eval(cube.center) for base in basis], value))
    return _oracle_two_stage_sup_fit(
        sample.n, degree, basis, rows, targets, [1.0] * len(rows), eq_rows
    )


def _oracle_jet_fit(
    sample: SampleSet,
    cube: Cube,
    k: int,
    degree: int,
    mod: Modulus,
    interpolate_center: bool = False,
) -> Poly:
    """Best fit to jet data inside the cube: minimizes the largest scaled
    deviation |D^a(P - P_y)(y)| / (r^(k-|a|) w(r)) over captured points y and
    orders |a| <= k.  With ``interpolate_center`` the degree-k Taylor part at
    the center is pinned to the center's data polynomial."""
    if sample.jets is None:
        raise ValueError("jet sample data required")
    pts = [p for p in sample.points if cube.contains(p)]
    if not pts:
        raise ValueError("cube captures no sample points")
    low_orders = multi_indices(sample.n, k)
    r = cube.radius
    wr = mod.eval(r)
    if wr == 0.0:
        raise ValueError("modulus vanishes at the cube radius")
    basis = _oracle_scaled_basis(sample.n, degree, cube)
    rows, targets, weights = [], [], []
    for p in pts:
        data = sample.jets[sample.points.index(p)]
        for alpha in low_orders:
            rows.append([base.deriv_eval(alpha, p) for base in basis])
            targets.append(data.deriv_eval(alpha, p))
            weights.append(r ** (k - mi_order(alpha)) * wr)
    eq_rows = []
    if interpolate_center:
        data = sample.jets[sample.points.index(cube.center)]
        for alpha in low_orders:
            eq_rows.append(
                (
                    [base.deriv_eval(alpha, cube.center) for base in basis],
                    data.deriv_eval(alpha, cube.center),
                )
            )
    return _oracle_two_stage_sup_fit(sample.n, degree, basis, rows, targets, weights, eq_rows)


def _recorded_fit(monkeypatch, module, fit, *args, **kwargs):
    """The fit's result and the LPProblems it passed to ``lp_solve``."""
    problems = []

    def record(problem):
        problems.append(problem)
        return lp.lp_solve(problem)

    with monkeypatch.context() as patch:
        patch.setattr(module, "lp_solve", record)
        return fit(*args, **kwargs), problems


def _fit_corpus():
    """Seeded fits: the center is a sample point, 1-8 points inside the cube,
    two outside it; the cube sits away from the origin."""
    rng = np.random.default_rng(61)
    specs = [("scalar", n, degree, 0, 0) for n in (1, 2) for degree in (0, 1, 2)]
    specs += [("jet", n, k + m - 1, k, m) for n in (1, 2) for k in (0, 1) for m in (1, 2)]
    for kind, n, degree, k, m in specs:
        for interp in (False, True):
            for _ in range(5):
                count = int(rng.integers(1, 9))
                center = rng.uniform(-3.0, 3.0, size=n)
                r = float(rng.uniform(0.2, 2.0))
                inside = center + r * rng.uniform(-1.0, 1.0, size=(count - 1, n))
                outside = center + 3.0 * r * (1.0 + rng.uniform(size=(2, n)))
                pts = tuple(tuple(map(float, p)) for p in (center, *inside, *outside))
                if kind == "scalar":
                    vals = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=len(pts)))
                    sample = SampleSet(n=n, points=pts, values=vals)
                else:
                    jets = tuple(
                        Poly(n, k, {a: float(rng.uniform(-2, 2)) for a in multi_indices(n, k)})
                        for _ in pts
                    )
                    sample = SampleSet(n=n, points=pts, jets=jets)
                yield kind, sample, Cube(pts[0], r), degree, k, Modulus.power(0.5, m), interp


def _assert_fit_starts(problems):
    """The dual simplex starts each stage-2 fit (rows pos, neg >= 0 for
    every variable) from bound rows alone, with no phase-1 pivot, and each
    stage-1 fit (the row eps >= 0) in fewer phase-1 pivots than it has
    variables.  A stage-1 fit's artificials (the free coefficients' rows)
    start at zero, so its phase 1 is skipped: x and every count but the
    rebuilds equal those of the path that runs it, which rebuilds once more.
    Returns the number of phase 1s skipped."""
    drive_out = lp._drive_out_artificials

    def phase1_then_drive_out(inverse, basis, original, n_core, work):
        if work[2] == 0:  # no rebuild yet: phase 1 was skipped, run it
            cost = np.append(np.zeros(n_core), np.ones(basis.size))
            floor = lp._FEAS_TOL * max(1.0, lp._amax(original[:, -1]))
            assert lp._simplex(inverse, basis, cost, cost.size, original, work, 0, floor)[0] == "optimal"
        return drive_out(inverse, basis, original, n_core, work)

    skipped = 0
    for stage, problem in enumerate(problems):
        got = lp.lp_solve(problem)
        phase1 = got.pivots[0]
        assert phase1 == 0 if stage % 2 else phase1 < problem.objective.size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "_drive_out_artificials", phase1_then_drive_out)
            want = lp.lp_solve(problem)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.pivots, got.lifts, got.restarts) == (want.pivots, want.lifts, want.restarts)
        assert want.reinversions - got.reinversions in ((0,) if stage % 2 else (0, 1))
        skipped += want.reinversions - got.reinversions
    return skipped


def test_captured_matches_cube_contains():
    # the points x cubes comparison decides membership as Cube.contains does,
    # on the corpus' own cubes and on cubes at every sample point
    for _, sample, cube, *_ in _fit_corpus():
        cubes = [cube, *cube_family(sample.points, [cube.radius, 0.5 * cube.radius])]
        want = [[i for i, p in enumerate(sample.points) if q.contains(p)] for q in cubes]
        got = whitney._captured(sample, cubes)
        assert got == want and all(type(i) is int for idx in got for i in idx)


def test_fits_match_basis_poly_oracle(monkeypatch):
    this = sys.modules[__name__]
    cases = skipped = 0
    for kind, sample, cube, degree, k, mod, interp in _fit_corpus():
        if kind == "scalar":
            new = _recorded_fit(monkeypatch, whitney, local_fit, sample, cube, degree, interp)
            old = _recorded_fit(monkeypatch, this, _oracle_local_fit, sample, cube, degree, interp)
        else:
            args = (sample, cube, k, degree, mod, interp)
            new = _recorded_fit(monkeypatch, whitney, jet_fit, *args)
            old = _recorded_fit(monkeypatch, this, _oracle_jet_fit, *args)
        (fit, problems), (ref, ref_problems) = new, old
        assert fit.degree == ref.degree == degree
        scale = max([1.0] + [abs(c) for c in ref.coef.values()])
        for beta in multi_indices(sample.n, degree):
            diff = abs(fit.coef.get(beta, 0.0) - ref.coef.get(beta, 0.0))
            assert diff <= 1e-9 * scale, (kind, interp, beta)
        # same two LPs: variables, rows in the same order, equal up to rounding
        assert len(problems) == len(ref_problems) == 2
        for got, want in zip(problems, ref_problems):
            for name in ("objective", "a_ub", "b_ub", "a_eq", "b_eq"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape, name
                tol = 1e-9 * max([1.0] + np.abs(b).ravel().tolist())
                assert np.all(np.abs(a - b) <= tol), name
        # the stage-1 eps and the stage-2 l1 mass equal the primal tableau's;
        # the stage-2 vertex need not be unique, so values are compared
        for problem in problems:
            value = lp.lp_solve(problem).objective
            assert value == pytest.approx(_PrimalTableau().lp_solve(problem).objective, rel=1e-9, abs=1e-12)
        skipped += _assert_fit_starts(problems)
        cases += 1
    assert cases == (6 + 8) * 2 * 5 and skipped > cases / 2


def test_fit_field_matches_single_cube_fits():
    # fit_field passes each cube its captured indices; a fit that finds them
    # itself gives the same polynomial, bit for bit
    for kind, sample, cube, degree, k, mod, interp in _fit_corpus():
        m = degree - k + 1
        cubes = [cube, *cube_family(sample.points, [cube.radius, 0.5 * cube.radius])]
        cubes = list(dict.fromkeys(cubes))
        field = fit_field(sample, cubes, k, m, mod, interp)
        assert [q for q, _ in field.entries] == cubes
        for q, poly in field.entries:
            if kind == "scalar":
                alone = local_fit(sample, q, degree, interp)
            else:
                alone = jet_fit(sample, q, k, degree, mod, interp)
            assert poly.coef == alone.coef and poly.degree == alone.degree, (kind, interp)


@pytest.mark.parametrize("route", ["local_fit", "jet_fit", "check_conditions"])
def test_center_off_the_samples_is_named(route):
    # these once raised "tuple.index(x): x not in tuple"
    pts, cube, mod = [(0.0,), (1.0,)], Cube((0.5,), 1.0), Modulus.power(1, 1)
    sample = SampleSet(1, pts, values=[0, 1])
    with pytest.raises(ValueError, match=r"cube center \(0\.5,\) is not a sample point"):
        if route == "local_fit":
            local_fit(sample, cube, 0, interpolate_center=True)
        elif route == "jet_fit":
            jets = SampleSet(1, pts, jets=[Poly(1, 0, {(0,): v}) for v in (0.0, 1.0)])
            jet_fit(jets, cube, 0, 0, mod, interpolate_center=True)
        else:
            # an unpinned fit needs no sample point at the center
            check_conditions(sample, fit_field(sample, [cube], k=0, m=1), mod)


def test_fit_field_checks_context_before_fitting(monkeypatch):
    sample = SampleSet(1, [(0.0,), (1.0,)], values=[0, 1])
    jets = SampleSet(1, [(0.0,), (1.0,)], jets=[Poly(1, 0, {}), Poly(1, 0, {})])
    cubes = cube_family(sample.points, [1.0])
    monkeypatch.setattr(whitney, "_captured", None)  # any fit would fail on this
    for k, m in ((-1, 1), (0, 0)):
        with pytest.raises(ValueError, match="need k >= 0 and m >= 1"):
            fit_field(sample, cubes, k, m)
    with pytest.raises(ValueError, match="jet data fitting needs the modulus"):
        fit_field(jets, cubes, 0, 1)


def test_fit_field_rejects_duplicate_cubes_before_fitting(monkeypatch):
    # the repeated cube was once found by PolyField, after every cube's fit
    sample = SampleSet(1, [(0.0,), (1.0,)], values=[0, 1])
    fits = []
    monkeypatch.setattr(whitney, "local_fit", lambda *args, **kwargs: fits.append(args))
    cube = Cube((0.0,), 1.5)
    with pytest.raises(ValueError, match="duplicate cube in field"):
        fit_field(sample, [cube, cube, cube], k=0, m=1)
    assert fits == []


@pytest.mark.parametrize("op", [2, 6])
def test_check_sample_fits_match_primal_tableau(monkeypatch, op):
    # inputs of the check benchmark workload (op seeds 2 and 6 of workload
    # seed 1): 12 points, 48 cubes.  Some fitting LPs have more basis
    # coefficients than the captured points determine, so the dual has
    # redundant rows, whose artificials phase 1 can leave in any tableau row
    seed = int(np.random.SeedSequence(entropy=1, spawn_key=(op,)).generate_state(1)[0])
    pts = tuple(tuple(map(float, p)) for p in np.random.default_rng(seed).uniform(-1, 1, (12, 2)))
    vals = tuple(math.sin(2.0 * x) * math.cos(y) + 0.5 * x * y for x, y in pts)
    sample = SampleSet(n=2, points=pts, values=vals)
    problems, redundant = [], []

    def record(problem):
        problems.append(problem)
        return lp.lp_solve(problem)

    def drive_out(*args):
        redundant.append(drive_out_artificials(*args))
        return redundant[-1]

    drive_out_artificials = lp._drive_out_artificials
    monkeypatch.setattr(whitney, "lp_solve", record)
    monkeypatch.setattr(lp, "_drive_out_artificials", drive_out)
    fit_field(sample, cube_family(pts, dyadic_radii(pts, 3)), k=1, m=2, interpolate_center=True)
    assert len(problems) == 2 * 48
    # the redundant-row branch ran: some phase 1 left an artificial basic
    # in a row no constraint column can pivot on
    assert any(redundant)
    for problem in problems:
        value = lp.lp_solve(problem).objective
        assert value == pytest.approx(_PrimalTableau().lp_solve(problem).objective, rel=1e-9, abs=1e-12)
    assert _assert_fit_starts(problems) > 0


# -- condition sweeps ------------------------------------------------------------------


def _trace_field(target, pts, k, m, interp=True):
    s = SampleSet(n=1, points=pts, values=tuple(target.eval(p) for p in pts))
    radii = [2.0, 1.0]
    cubes = cube_family(pts, radii)
    return s, fit_field(s, cubes, k=k, m=m, interpolate_center=interp)


def test_check_conditions_polynomial_trace_pairwise_zero():
    target = Poly(1, 1, {(0,): 0.3, (1,): 1.2})
    pts = tuple((x,) for x in np.linspace(-1, 1, 6))
    s, field = _trace_field(target, pts, k=0, m=2)
    rep = check_conditions(s, field, MOD)
    assert rep.pairwise.lambda_hat <= 1e-8
    assert all(res <= 1e-8 for _, res in rep.interpolation)
    assert rep.lambda_hat == max(rep.pairwise.lambda_hat, rep.pointwise.lambda_hat)


def test_check_conditions_square_function():
    pts = ((0.0,), (1.0,), (-1.0,), (0.5,), (-0.5,))
    s = SampleSet(n=1, points=pts, values=tuple(p[0] ** 2 for p in pts))
    radii = dyadic_radii(pts, 2)
    field = fit_field(s, cube_family(pts, radii), k=0, m=2, interpolate_center=True)
    rep = check_conditions(s, field, MOD)
    assert 0.0 < rep.pairwise.lambda_hat < math.inf
    assert rep.pairwise.witness is not None


def test_check_conditions_context_validation():
    target = Poly(1, 1, {(1,): 1.0})
    pts = ((0.0,), (1.0,))
    s, field = _trace_field(target, pts, k=0, m=2)
    with pytest.raises(ValueError):
        check_conditions(s, field, Modulus.power(1, 1))
    # k is the field's own; a stale positional k is no longer a label
    with pytest.raises(TypeError):
        check_conditions(s, field, MOD, 0)


# -- Lipschitz forms and the scale seminorm ------------------------------------------------


def _random_field(rng, n, k, m, size):
    deg = k + m - 1
    entries = []
    while len(entries) < size:
        cube = Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, 1.5)))
        if any(cube == c for c, _ in entries):
            continue
        entries.append(
            (cube, Poly(n, deg, {a: rng.uniform(-2, 2) for a in multi_indices(n, deg)}))
        )
    return PolyField(n=n, k=k, m=m, entries=tuple(entries))


def test_lipschitz_forms_constant_field_always_holds():
    p = Poly(1, 1, {(1,): 1.0})
    field = PolyField(
        n=1, k=0, m=2,
        entries=((Cube((0.0,), 1.0), p), (Cube((1.0,), 0.5), p), (Cube((0.3,), 2.0), p)),
    )
    for lam in (1e-6, 1.0, 1e6):
        assert lipschitz_forms(field, MOD, lam) == (True, True)
    assert lo_seminorm(field, MOD).value == 0.0
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale must be positive"):
            lipschitz_forms(field, MOD, lam)


def test_lo_seminorm_is_threshold_of_forms():
    rng = np.random.default_rng(21)
    for _ in range(50):
        field = _random_field(rng, 1, 0, 2, 3)
        lam = lo_seminorm(field, MOD).value
        if lam == 0:
            continue
        assert lipschitz_forms(field, MOD, lam * (1 + 1e-9) + 1e-300) == (True, True)
        assert lipschitz_forms(field, MOD, lam * (1 - 1e-9)) == (False, False)


def test_lo_seminorm_bisection_oracle_on_metric_form():
    # locate the metric-form threshold by bisection; it must match the
    # ratio-maximum computation
    rng = np.random.default_rng(22)
    for _ in range(10):
        field = _random_field(rng, 1, 0, 2, 2)
        lam = lo_seminorm(field, MOD).value
        if lam == 0:
            continue
        lo_b, hi_b = lam / 16, lam * 16
        while not lipschitz_forms(field, MOD, hi_b)[1]:
            hi_b *= 2
        for _ in range(60):
            mid = 0.5 * (lo_b + hi_b)
            if lipschitz_forms(field, MOD, mid)[1]:
                hi_b = mid
            else:
                lo_b = mid
        assert 0.5 * (lo_b + hi_b) == pytest.approx(lam, rel=1e-6)


def test_lo_seminorm_homogeneity():
    rng = np.random.default_rng(23)
    field = _random_field(rng, 1, 0, 2, 3)
    base = lo_seminorm(field, MOD).value
    assert lo_seminorm(field.scale(2.0), MOD).value == 2.0 * base  # exact: power of two
    assert lo_seminorm(field.scale(0.3), MOD).value == pytest.approx(
        0.3 * base, rel=1e-12
    )


def test_lo_seminorm_bracket_and_small_fields():
    rng = np.random.default_rng(24)
    field = _random_field(rng, 2, 0, 2, 3)
    res = lo_seminorm(field, MOD)
    assert res.lower == pytest.approx(res.value * math.exp(-2), rel=1e-12)
    assert res.upper == res.value
    single = PolyField(n=1, k=0, m=2, entries=((Cube((0.0,), 1.0), Poly(1, 1, {(1,): 1.0})),))
    assert lo_seminorm(single, MOD).value == 0.0
    for small in (single, PolyField(n=1, k=0, m=2, entries=())):
        assert pairwise_sweep(small, MOD)[0].shape == (len(small.entries),) * 2
        assert lipschitz_forms(small, MOD, 1.0) == (True, True)


def test_lipschitz_forms_agreement_random():
    rng = np.random.default_rng(25)
    for _ in range(100):
        field = _random_field(rng, 1, 0, 1 + int(rng.integers(0, 2)), 3)
        mod = Modulus.power(float(rng.uniform(0.3 * field.m, field.m)), field.m)
        lam_star = lo_seminorm(field, mod).value
        if lam_star == 0:
            continue
        lam = lam_star * float(rng.uniform(0.3, 3.0))
        if abs(lam - lam_star) < 1e-9 * lam_star:
            continue
        ratio_ok, metric_ok = lipschitz_forms(field, mod, lam)
        assert ratio_ok == metric_ok


def test_check_pairwise_equals_lo_seminorm():
    rng = np.random.default_rng(26)
    field = _random_field(rng, 1, 0, 2, 4)
    rep = check_conditions(None, field, MOD)
    assert rep.pairwise.lambda_hat == pytest.approx(
        lo_seminorm(field, MOD).value, rel=1e-12
    )


# -- the pairwise sweep against the scalar loops it replaced --------------------------------
#
# The four oracles below are the per-pair loops of check_conditions,
# lo_seminorm, lipschitz_forms (ratio form) and the check command's CSV
# projection, kept as they were before the single sweep replaced them.


def _oracle_check_pairwise(field, mod):
    top = field.top_degree
    n = field.n
    worst_pair = 0.0
    wit_pair = None
    ents = field.entries
    for i, (q1, p1) in enumerate(ents):
        for j, (q2, p2) in enumerate(ents):
            if i == j:
                continue
            sep = uniform_norm(point_sub(q1.center, q2.center))
            t = max(q1.radius, q2.radius) + sep
            v = min(q1.radius, q2.radius)
            diff = p1 - p2
            for alpha in multi_indices(n, top):
                denom = gauge(mod, top, alpha, t, v)
                ratio = abs(diff.deriv_eval(alpha, q1.center)) / denom
                if ratio > worst_pair:
                    worst_pair = ratio
                    wit_pair = {
                        "cube_indices": (i, j),
                        "order": alpha,
                        "ratio": ratio,
                    }
    return worst_pair, wit_pair


def _oracle_lo_seminorm(field, mod):
    top = field.top_degree
    n = field.n
    worst = 0.0
    ents = field.entries
    for i in range(len(ents)):
        q1, p1 = ents[i]
        for j in range(i + 1, len(ents)):
            q2, p2 = ents[j]
            sep = uniform_norm(point_sub(q1.center, q2.center))
            t = max(q1.radius, q2.radius) + sep
            v = min(q1.radius, q2.radius)
            diff = p1 - p2
            for alpha in multi_indices(n, top):
                denom = gauge(mod, top, alpha, t, v)
                for y in (q1.center, q2.center):
                    worst = max(worst, abs(diff.deriv_eval(alpha, y)) / denom)
    return worst


def _oracle_ratio_form(field, mod, lam):
    top = field.top_degree
    n = field.n
    ratio_ok = True
    for i, (q1, p1) in enumerate(field.entries):
        for j, (q2, p2) in enumerate(field.entries):
            if i == j:
                continue
            sep = uniform_norm(point_sub(q1.center, q2.center))
            t = max(q1.radius, q2.radius) + sep
            v = min(q1.radius, q2.radius)
            diff = p1 - p2
            for alpha in multi_indices(n, top):
                if abs(diff.deriv_eval(alpha, q1.center)) > lam * gauge(
                    mod, top, alpha, t, v
                ):
                    ratio_ok = False
                    break
            if not ratio_ok:
                break
        if not ratio_ok:
            break
    return ratio_ok


def _oracle_csv_rows(field, mod):
    rows = []
    ents = field.entries
    top = field.top_degree
    for i, (q1, p1) in enumerate(ents):
        for j, (q2, p2) in enumerate(ents):
            if i == j:
                continue
            sep = uniform_norm(point_sub(q1.center, q2.center))
            t = max(q1.radius, q2.radius) + sep
            v = min(q1.radius, q2.radius)
            diff = p1 - p2
            worst = max(
                abs(diff.deriv_eval(alpha, q1.center))
                / gauge(mod, top, alpha, t, v)
                for alpha in multi_indices(field.n, top)
            )
            rows.append((i, j, worst))
    return rows


def _oracle_ratio_triples(field, mod):
    """Every (ratio, i, j, order) the sweep maximizes over."""
    top = field.top_degree
    out = []
    for i, (q1, p1) in enumerate(field.entries):
        for j, (q2, p2) in enumerate(field.entries):
            if i == j:
                continue
            t = max(q1.radius, q2.radius) + uniform_norm(point_sub(q1.center, q2.center))
            v = min(q1.radius, q2.radius)
            for alpha in multi_indices(field.n, top):
                u = abs((p1 - p2).deriv_eval(alpha, q1.center))
                out.append((u / gauge(mod, top, alpha, t, v), i, j, alpha))
    return out


def _oracle_unmasked_sweep(field, mod):
    """``pairwise_sweep``'s earlier array form: its own coefficient matrix
    times the derivative matrix at the first center, unmasked."""
    top = field.top_degree
    orders = multi_indices(field.n, top)
    cubes = [q for q, _ in field.entries]
    coef = np.array([[p.coef.get(beta, 0.0) for beta in orders] for _, p in field.entries])
    deriv = deriv_matrix(field.n, top, orders, [q.center for q in cubes])
    gauges = whitney.pair_gauges(mod, top, orders, cubes)
    size = len(cubes)
    ratio = np.zeros((size, size))
    order = np.zeros((size, size), dtype=int)
    rows = np.arange(size)
    for i in range(size):
        ratios = np.abs(((coef[i] - coef)[:, None, :] * deriv[i]).sum(axis=2)) / gauges(i, rows)
        order[i] = ratios.argmax(axis=1)
        ratio[i] = ratios[rows, order[i]]
    return ratio, order


def _oracle_metric_form(field, mod, lam):
    """The metric form's per-pair loop, with the distances it compared."""
    jets = field.jets()
    seen = []
    for i in range(len(jets)):
        for j in range(i + 1, len(jets)):
            lhs = jet_distance(mod, scale(1.0 / lam, jets[i]), scale(1.0 / lam, jets[j]))
            seen.append(lhs.hex())
            if lhs > weighted_cube_distance(mod, jets[i].cube, jets[j].cube):
                return False, seen
    return True, seen


def _record_distances(monkeypatch):
    """The list that every distance ``_JetRows.distances`` hands out is
    appended to, in hex, as its caller reaches it."""
    seen = []
    row_distances = _JetRows.distances

    def recorded(self, mod, i, js):
        for d in row_distances(self, mod, i, js):
            seen.append(d.hex())
            yield d

    monkeypatch.setattr(_JetRows, "distances", recorded)
    return seen


def _sweep_modulus(family, m):
    if family == "power":
        return Modulus.power(0.5 * m, m)
    if family == "powerlog":
        return Modulus.power_log(m - 1.0, m)
    return Modulus.table([(0.05, 0.02), (1.0, 0.8), (10.0, 3.0)], m)


@pytest.mark.parametrize("family", ["power", "powerlog", "table"])
@pytest.mark.parametrize("n, k, m", [(n, k, m) for n in (1, 2) for k in (0, 1) for m in (1, 2)])
def test_pairwise_sweep_matches_scalar_oracles(family, n, k, m, monkeypatch):
    rng = np.random.default_rng(1000 * n + 100 * k + 10 * m + len(family))
    mod = _sweep_modulus(family, m)
    seen = _record_distances(monkeypatch)
    for _ in range(3):
        field = _random_field(rng, n, k, m, 5)
        ratio, order = pairwise_sweep(field, mod)
        old_ratio, old_order = _oracle_unmasked_sweep(field, mod)
        assert ratio.tobytes() == old_ratio.tobytes()
        assert order.tobytes() == old_order.tobytes()
        rep = check_conditions(None, field, mod)
        scale = max(ratio.max(), 1e-300)

        for i, j, worst in _oracle_csv_rows(field, mod):
            assert abs(ratio[i, j] - worst) <= 1e-12 * scale
        oracle_lam, oracle_wit = _oracle_check_pairwise(field, mod)
        assert abs(rep.pairwise.lambda_hat - oracle_lam) <= 1e-12 * scale
        lo_star = _oracle_lo_seminorm(field, mod)
        assert abs(lo_seminorm(field, mod).value - lo_star) <= 1e-12 * scale
        assert lo_seminorm(field, mod).value == rep.pairwise.lambda_hat

        triples = sorted(_oracle_ratio_triples(field, mod), key=lambda r: -r[0])
        if triples[0][0] - triples[1][0] > 1e-12 * triples[0][0]:
            wit = rep.pairwise.witness
            assert wit["cube_indices"] == oracle_wit["cube_indices"]
            assert wit["order"] == oracle_wit["order"]
            assert type(wit["cube_indices"][0]) is int and type(wit["ratio"]) is float

        for lam in (lo_star * 0.1, lo_star * (1 - 1e-9), lo_star * (1 + 1e-9), lo_star * 10):
            seen.clear()
            ratio_ok, metric_ok = lipschitz_forms(field, mod, lam)
            got = (metric_ok, seen[:])  # the oracle's jet_distance calls record too
            assert ratio_ok == _oracle_ratio_form(field, mod, lam)
            assert got == _oracle_metric_form(field, mod, lam)


@pytest.mark.parametrize("lam", [5e-324, 1e-310, math.nan, 2.0])
def test_metric_form_scales_sparse_jets_as_scale_does(lam, monkeypatch):
    # the metric form scales the field's kept rows, not the jets: a zero
    # coefficient must stay zero where 1/lam is inf, as ``scale`` drops it,
    # or the form reads 1/lam * 0 = NaN and passes; a NaN scale is rejected
    field = PolyField(
        n=1, k=0, m=2,
        entries=(
            (Cube((0.0,), 1.0), Poly(1, 1, {(1,): 1.0})),
            (Cube((1.0,), 0.5), Poly(1, 1, {(0,): 2.0})),
            (Cube((3.0,), 2.0), Poly.zero(1, 1)),
        ),
    )
    seen = _record_distances(monkeypatch)
    if math.isnan(lam):
        with pytest.raises(ValueError, match="scale must be positive"):
            lipschitz_forms(field, MOD, lam)
        return
    metric_ok = lipschitz_forms(field, MOD, lam)[1]
    got = (metric_ok, seen[:])
    assert got == _oracle_metric_form(field, MOD, lam)


_TWO_CUBES = PolyField(
    n=1, k=0, m=2, entries=((Cube((0.0,), 1.0), Poly.zero(1, 1)), (Cube((1.0,), 0.5), Poly.zero(1, 1)))
)


@pytest.mark.parametrize(
    "call, message, at_inf",
    [
        (lambda x: lipschitz_forms(_TWO_CUBES, MOD, x), "scale must be positive", (True, True)),
        (lambda x: gauge(MOD, 1, 0, 1.0, x), "base scale must be positive", 0.0),
        (lambda x: gauge(MOD, 1, 0, x, 1.0), "spatial scale must be non-negative", math.inf),
        (lambda x: gauge_inverse(MOD, 1, 0, x, 1.0), "target must be non-negative", None),
        (lambda x: value_gauge(MOD, 1, 0, x, 1.0), "target must be non-negative", None),
        (lambda x: invert_increasing(lambda t: (t, 1.0), x), "target must be non-negative", None),
        (MOD.eval, "modulus argument must be non-negative", math.inf),
        (lambda x: MOD.integral_core(x, 2.0), "lower integration bound must be positive", None),
        (lambda x: MOD.integral_core(1.0, x), "integration bounds out of order", math.inf),
        (MOD.tail_mass, "lower bound must be positive", 0.0),
        (lambda x: MOD.core_integral_inverse(x, 1.0), "target must be non-negative", math.inf),
        (lambda x: MOD.core_integral_inverse(1.0, x), "base point must be positive", None),
    ],
    ids=[
        "lipschitz_forms", "gauge-v", "gauge-t", "gauge_inverse", "value_gauge",
        "invert_increasing", "eval", "integral_core-a", "integral_core-b", "tail_mass",
        "core_integral_inverse-w", "core_integral_inverse-v",
    ],
)
def test_nan_arguments_fail_their_checks(call, message, at_inf):
    # each check is written so that NaN fails it, with its message; +inf
    # passes where it passed before
    with pytest.raises(ValueError, match=message):
        call(math.nan)
    if at_inf is not None:
        assert call(math.inf) == at_inf


def _oracle_pair_gauges(mod, top, orders, cubes):
    """``pair_gauges``' scalar form: one ``gauge`` per unordered pair at its
    ``pair_scales``, times t^(top - |alpha|) per order."""
    powers = [top - mi_order(alpha) for alpha in orders]
    out = np.full((len(cubes), len(cubes), len(orders)), np.inf)
    for i, qi in enumerate(cubes):
        for j in range(i + 1, len(cubes)):
            v, t, _ = pair_scales(qi, cubes[j])
            core = gauge(mod, top, top, t, v)  # top order: the bare integral
            out[i, j] = out[j, i] = [t**e * core for e in powers]
    return out


@pytest.mark.parametrize("family", ["power", "powerlog", "table"])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 2)])
def test_pair_gauges_match_the_scalar_loop(family, n, m, monkeypatch):
    # the scales are pair_scales' bit for bit; the core integrals come from
    # the array route, within a few ulps of gauge's
    rng = np.random.default_rng(100 * n + 10 * m + len(family))
    mod = _sweep_modulus(family, m)
    scales = []
    integrals = Modulus.core_integrals

    def recorded(self, v, t):
        scales.append((v.copy(), t.copy()))
        return integrals(self, v, t)

    monkeypatch.setattr(Modulus, "core_integrals", recorded)
    for count in (0, 1, 2, 9):
        pts = rng.uniform(-2.0, 2.0, size=(count, n))
        cubes = cube_family(pts.tolist(), rng.uniform(0.05, 1.5, size=2).tolist()) if count else []
        orders = multi_indices(n, m)
        reader = whitney.pair_gauges(mod, m, orders, cubes)
        got = reader(*np.indices((len(cubes), len(cubes))))
        want = _oracle_pair_gauges(mod, m, orders, cubes)
        assert got.shape == want.shape
        off = ~np.eye(len(cubes), dtype=bool)
        assert np.all(np.diagonal(got) == np.inf)
        assert np.all(np.abs(got[off] - want[off]) <= 1e-14 * want[off]), (family, n, m)
        i, j = np.triu_indices(len(cubes), 1)
        v, t = scales.pop()
        assert v.tolist() == [pair_scales(cubes[a], cubes[b])[0] for a, b in zip(i, j)]
        assert t.tolist() == [pair_scales(cubes[a], cubes[b])[1] for a, b in zip(i, j)]


@pytest.mark.parametrize("family", ["power", "powerlog", "table"])
def test_pair_gauges_reader_reads_the_pairs_it_is_given(family):
    rng = np.random.default_rng(40 + len(family))
    mod = _sweep_modulus(family, 2)
    cubes = cube_family(rng.uniform(-2.0, 2.0, size=(4, 2)).tolist(), [0.3, 1.1])
    alphas = multi_indices(2, 2)
    orders = [*alphas, *alphas[:3]]  # repeated multi-indices are read like any others
    gauges = whitney.pair_gauges(mod, 2, orders, cubes)
    want = _oracle_pair_gauges(mod, 2, orders, cubes)
    # both orientations, i == j, and a repeated pair
    i, j = np.array([0, 5, 3, 3, 7, 2, 2, 6]), np.array([5, 0, 3, 1, 7, 6, 6, 2])
    got = gauges(i, j)
    assert got.shape == (len(i), len(orders))
    same = i == j
    assert np.all(got[same] == np.inf)
    assert np.all(np.abs(got[~same] - want[i, j][~same]) <= 1e-14 * want[i, j][~same]), family
    assert got[0].tobytes() == got[1].tobytes() and got[5].tobytes() == got[6].tobytes()
    assert got[:, len(alphas):].tobytes() == got[:, :3].tobytes()
    for a, b, row in zip(i, j, got):  # a pair reads the same, whatever pairs come with it
        assert gauges(a, b).tobytes() == row.tobytes()
    # a scalar i against an array j
    everyone = np.arange(len(cubes))
    row = gauges(3, everyone)
    assert row.shape == (len(cubes), len(orders)) and np.all(row[3] == np.inf)
    assert row.tobytes() == gauges(np.full(len(cubes), 3), everyone).tobytes()
    assert np.all(np.abs(row[everyone != 3] - want[3][everyone != 3]) <= 1e-14 * want[3][everyone != 3])


def test_underflowing_gauge_raises_rather_than_divides():
    # tiny, close cubes: t^2 * core underflows to 0.0 at order 0
    field = PolyField(
        n=1,
        k=1,
        m=2,
        entries=(
            (Cube((0.0,), 1e-200), Poly(1, 2, {(0,): 1.0})),
            (Cube((3e-200,), 1e-200), Poly.zero(1, 2)),
        ),
    )
    mod = Modulus.power(1.0, 2)
    cubes = [q for q, _ in field.entries]
    assert whitney.pair_gauges(mod, 2, multi_indices(1, 2), cubes)(0, 1)[0] == 0.0
    with pytest.raises(FloatingPointError):
        pairwise_sweep(field, mod)
    with pytest.raises(FloatingPointError):
        check_conditions(None, field, mod)


def test_overflowing_ratio_raises_rather_than_prints_inf():
    # cubes of radius 1e-320 one radius apart: the gauge is a few subnormal
    # ulps, so a unit discrepancy over it overflows to inf
    field = PolyField(
        n=1,
        k=0,
        m=1,
        entries=(
            (Cube((0.0,), 1e-320), Poly.zero(1, 0)),
            (Cube((1e-320,), 1e-320), Poly(1, 0, {(0,): 1.0})),
        ),
    )
    mod = Modulus.power(1.0, 1)
    cubes = [q for q, _ in field.entries]
    assert 0.0 < whitney.pair_gauges(mod, 0, multi_indices(1, 0), cubes)(0, 1)[0] < 1e-300
    for _ in range(2):  # a sweep that raises keeps nothing, so it raises again
        with pytest.raises(FloatingPointError, match="overflow"):
            pairwise_sweep(field, mod)
    with pytest.raises(FloatingPointError, match="overflow"):
        lo_seminorm(field, mod)


# -- kept sweeps and pointwise bounds ------------------------------------------------------


def _count_pair_gauges(monkeypatch):
    calls = []
    real = whitney.pair_gauges

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(whitney, "pair_gauges", counted)
    return calls


def test_pairwise_sweep_is_kept_per_field_and_modulus(monkeypatch):
    calls = _count_pair_gauges(monkeypatch)
    field = _random_field(np.random.default_rng(27), 1, 0, 2, 3)
    ratio, order = pairwise_sweep(field, MOD)
    again = pairwise_sweep(field, MOD)
    assert again[0] is ratio and again[1] is order and len(calls) == 1
    for kept in (ratio, order):
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 1] = 0
    # an equal modulus shares the sweep; another modulus sweeps again
    equal = Modulus.power(1.0, 2)
    assert equal == MOD and equal is not MOD
    assert pairwise_sweep(field, equal)[0] is ratio and len(calls) == 1
    other = pairwise_sweep(field, Modulus.power(0.5, 2))[0]
    assert other is not ratio and len(calls) == 2
    assert pairwise_sweep(field, Modulus.power(0.5, 2))[0] is other and len(calls) == 2
    # a field that kept sweeps keeps its equality, repr and asdict
    twin = PolyField(n=field.n, k=field.k, m=field.m, entries=field.entries)
    assert twin == field and repr(twin) == repr(field)
    assert dataclasses.asdict(twin) == dataclasses.asdict(field)


def test_seminorm_and_bisection_on_the_forms_sweep_once(monkeypatch):
    # the pattern of acceptance criterion 7: the seminorm, then a bisection
    # on the metric form, each query also evaluating the ratio form
    calls = _count_pair_gauges(monkeypatch)
    field = _random_field(np.random.default_rng(28), 1, 0, 2, 3)
    lam = lo_seminorm(field, MOD).value
    lo_b, hi_b = lam / 16, lam * 16
    for _ in range(80):
        mid = 0.5 * (lo_b + hi_b)
        if lipschitz_forms(field, MOD, mid)[1]:
            hi_b = mid
        else:
            lo_b = mid
    assert 0.5 * (lo_b + hi_b) == pytest.approx(lam, rel=1e-6)
    check_conditions(None, field, MOD)
    assert len(calls) == 1


def test_star_norm_after_check_reads_the_kept_bound(monkeypatch):
    field = _random_field(np.random.default_rng(29), 2, 1, 2, 4)
    field = PolyField(
        n=2, k=1, m=2, entries=tuple((Cube(q.center, 0.5 * q.radius), p) for q, p in field.entries)
    )
    rep = check_conditions(None, field, MOD)
    evals = []
    real = Poly.deriv_eval

    def counted(self, *args):
        evals.append(args)
        return real(self, *args)

    monkeypatch.setattr(Poly, "deriv_eval", counted)
    res = star_norm(field)
    assert res.value == rep.pointwise.lambda_hat > 0.0 and not res.empty_sup
    assert lo_norm_full(field, MOD) == res.value + rep.pairwise.lambda_hat
    assert evals == []


# -- star norm -----------------------------------------------------------------------------


def test_star_norm_zero_field():
    field = PolyField(
        n=1, k=0, m=2, entries=((Cube((0.0,), 0.5), Poly.zero(1, 1)),)
    )
    assert star_norm(field).value == 0.0


def test_star_norm_all_radii_above_one():
    field = PolyField(
        n=1, k=0, m=2, entries=((Cube((0.0,), 2.0), Poly.constant(1, 1, 5.0)),)
    )
    res = star_norm(field)
    assert res.value == 0.0 and res.empty_sup


def test_star_norm_constant_one():
    field = PolyField(
        n=1, k=0, m=2,
        entries=(
            (Cube((0.0,), 0.5), Poly.constant(1, 1, 1.0)),
            (Cube((1.0,), 3.0), Poly.constant(1, 1, 9.0)),
        ),
    )
    res = star_norm(field)
    assert res.value == 1.0 and not res.empty_sup
    assert lo_norm_full(field, MOD) == res.value + lo_seminorm(field, MOD).value


def test_star_norm_radius_weighting():
    # top-order derivative scaled by r^(order - k)
    field = PolyField(
        n=1, k=0, m=2, entries=((Cube((0.0,), 0.5), Poly(1, 1, {(1,): 4.0})),)
    )
    assert star_norm(field).value == pytest.approx(2.0)


# -- limit jets -----------------------------------------------------------------------------


def test_limit_jet_constant_field():
    p = Poly(1, 1, {(0,): 2.0, (1,): 1.0})
    x = (0.5,)
    entries = tuple((Cube(x, r), p) for r in (1.0, 0.5, 0.25))
    field = PolyField(n=1, k=0, m=2, entries=entries)
    res = limit_jet(field, MOD, x)
    assert res.poly.coef == pytest.approx(p.taylor(x, 0).coef)
    assert res.envelope_constant == 0.0


def test_limit_jet_from_polynomial_trace():
    target = Poly(1, 1, {(0,): -0.5, (1,): 2.0})
    pts = tuple((x,) for x in np.linspace(-1, 1, 6))
    s = SampleSet(n=1, points=pts, values=tuple(target.eval(p) for p in pts))
    field = fit_field(s, cube_family(pts, [2.0, 1.0, 0.9]), k=0, m=2)
    res = limit_jet(field, MOD, pts[0])
    assert res.poly.eval(pts[0]) == pytest.approx(target.eval(pts[0]), abs=1e-7)


def test_limit_jet_requires_three_radii():
    p = Poly.zero(1, 1)
    entries = tuple((Cube((0.0,), r), p) for r in (1.0, 0.5))
    field = PolyField(n=1, k=0, m=2, entries=entries)
    with pytest.raises(ValueError):
        limit_jet(field, MOD, (0.0,))


def test_limit_jet_envelope_on_square():
    pts = ((0.0,), (1.0,), (-1.0,), (0.5,), (-0.5,))
    s = SampleSet(n=1, points=pts, values=tuple(p[0] ** 2 for p in pts))
    field = fit_field(
        s, cube_family(pts, [2.0, 1.0, 0.5, 0.25]), k=0, m=2, interpolate_center=False
    )
    res = limit_jet(field, MOD, (0.0,))
    # successive center values converge to f(0) = 0 within a bounded multiple
    # of the envelope r * w(r)
    assert res.envelope_constant < 10.0
    assert abs(res.poly.eval((0.0,))) < 0.3


# -- sample set validation -------------------------------------------------------------------


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(n=1, points=((0.0,), (0.0,)), values=(1.0, 2.0))
    with pytest.raises(ValueError):
        SampleSet(n=1, points=((0.0,),), values=None, jets=None)
    with pytest.raises(ValueError):
        SampleSet(n=1, points=((0.0,),), values=(1.0,), jets=(Poly.zero(1, 0),))
    with pytest.raises(ValueError):
        SampleSet(n=2, points=((0.0,),), values=(1.0,))


def test_poly_field_validation():
    with pytest.raises(ValueError):
        PolyField(n=1, k=0, m=2, entries=((Cube((0.0,), 1.0), Poly.zero(1, 2)),))
    q = Cube((0.0,), 1.0)
    with pytest.raises(ValueError):
        PolyField(
            n=1, k=0, m=2,
            entries=((q, Poly.zero(1, 1)), (q, Poly.constant(1, 1, 1.0))),
        )


def test_pointwise_bound_exponent_matches_split_enumeration():
    # the radius power max(0, |g| - k) equals the binding exponent over all
    # decompositions g = a + b with |a| <= k, |b| <= top - |a|, for r <= 1
    from itertools import product

    rng = np.random.default_rng(51)
    n, k, m = 2, 1, 2
    top = k + m - 1
    field = _random_field(rng, n, k, m, 4)
    naive = 0.0
    for cube, poly in field.entries:
        if cube.radius > 1.0:
            continue
        for a in multi_indices(n, k):
            rem = top - sum(a)
            for b in multi_indices(n, rem):
                gamma = tuple(x + y for x, y in zip(a, b))
                naive = max(
                    naive,
                    abs(poly.deriv_eval(gamma, cube.center)) * cube.radius ** sum(b),
                )
    assert star_norm(field).value == pytest.approx(naive, rel=1e-12)
