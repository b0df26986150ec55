"""Property-suite bookkeeping: the shared trial tally and case splitter, how
``run_all`` calls the suites, NaN handling in the agreement suites, and the
suites that once kept their own books against those first forms."""

import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest

from jetspace import suites, whitney
from jetspace.cubes import uniform_norm
from jetspace.modulus import Modulus
from jetspace.numerics import within_slack
from jetspace.poly import mi_order, multi_indices
from jetspace.serialize import modulus_to_dict
from jetspace.suites import (
    SuiteResult,
    _cases,
    _random_field,
    _random_poly,
    _rng_for,
    _Tally,
)
from jetspace.whitney import lipschitz_forms, lo_seminorm


def _never_called():
    raise AssertionError("witness built for a passing trial")


# -- the tally ----------------------------------------------------------------


def test_tally_min_slack_keeps_the_minimum():
    tally = _Tally("min_slack")
    assert tally.worst == math.inf
    for margin in (3.0, 1.0, 2.0):
        tally.add(True, margin, witness=_never_called)
    tally.add(True, 5.0, -4.0, 0.5, witness=_never_called)
    res = tally.result("demo", "detail")
    assert res == SuiteResult("demo", 4, 0, "min_slack", -4.0, "detail", ())
    assert res.passed


def test_tally_max_rel_dev_keeps_the_maximum():
    tally = _Tally("max_rel_dev")
    assert tally.worst == 0.0
    for dev in (0.1, 0.5, 0.2):
        tally.add(True, dev, witness=_never_called)
    assert tally.result("demo", "").worst == 0.5


def test_tally_keeps_the_first_three_witnesses():
    tally = _Tally("min_slack")
    built = []

    def witness(i):
        built.append(i)
        return {"i": i}

    for i in range(5):
        tally.add(i == 2, float(i), witness=lambda: witness(i))
    res = tally.result("demo", "")
    assert (res.trials, res.failures) == (5, 4)
    assert res.witnesses == ({"i": 0}, {"i": 1}, {"i": 3})
    assert built == [0, 1, 3]  # the fourth failure builds no witness
    assert not res.passed


@pytest.mark.parametrize("metric", ["min_slack", "max_rel_dev", "bool_agreement"])
def test_add_all_matches_per_entry_add(metric):
    rng = np.random.default_rng(5)
    ok = rng.uniform(size=40) < 0.7
    margins = rng.normal(size=40)
    margins[[3, 17]] = math.nan
    one_by_one = _Tally(metric)
    one_by_one.add(True, 0.5, witness=_never_called)
    for i in range(40):
        one_by_one.add(bool(ok[i]), float(margins[i]), witness=lambda i=i: {"i": i})
    built = []

    def witness(i):
        built.append(i)
        return {"i": i}

    batched = _Tally(metric)
    batched.add(True, 0.5, witness=_never_called)
    batched.add_all(ok, margins, witness)
    assert batched.result("demo", "") == one_by_one.result("demo", "")
    assert batched.trials == 41 and batched.failures == int(np.count_nonzero(~ok))
    assert built == np.flatnonzero(~ok)[:3].tolist()  # no witness past the third


def test_add_all_builds_no_witness_once_three_are_kept():
    tally = _Tally("min_slack")
    for i in range(3):
        tally.add(False, float(i), witness=lambda i=i: {"i": i})
    tally.add_all(np.array([False, True, False]), np.array([-1.0, 2.0, 5.0]), _never_called)
    tally.add_all(np.array([], dtype=bool), np.array([]), _never_called)
    res = tally.result("demo", "")
    assert (res.trials, res.failures, res.worst) == (6, 5, -1.0)
    assert res.witnesses == ({"i": 0}, {"i": 1}, {"i": 2})


def test_bool_agreement_reports_the_failure_count():
    tally = _Tally("bool_agreement")
    for ok in (True, False, True, False, False):
        tally.add(ok, witness=dict)
    res = tally.result("demo", "")
    assert (res.trials, res.failures, res.worst) == (5, 3, 3.0)


# -- the case splitter --------------------------------------------------------


def test_cases_repeats_each_case_in_order():
    assert _cases(7, "ab") == ["a", "a", "a", "b", "b", "b"]
    assert _cases(2, "ab") == ["a", "b"]


@pytest.mark.parametrize("trials", [0, 1, 3])
def test_cases_raise_below_the_case_count(trials):
    with pytest.raises(ValueError, match="trials must be at least 4, one per case"):
        _cases(trials, [(1, 2), (1, 3), (2, 2), (2, 3)])


# -- run_all ------------------------------------------------------------------


def _recording_fakes(calls):
    def takes(seed, trials=5, slack=suites.INEQ_SLACK):
        calls.append(("takes", seed, trials, slack))
        return SuiteResult("takes", trials, 0, "min_slack", 0.0, "", ())

    def agrees(seed, trials=5):
        calls.append(("agrees", seed, trials, None))
        return SuiteResult("agrees", trials, 0, "max_rel_dev", 0.0, "", ())

    def traced(fn):
        # wrapped the way the benchmark tracer wraps a suite
        return functools.wraps(fn)(lambda *args, **kwargs: fn(*args, **kwargs))

    return {"takes": traced(takes), "agrees": traced(agrees)}


@pytest.mark.parametrize("trials", [None, 9])
def test_run_all_routes_slack_to_the_suites_that_take_it(monkeypatch, trials):
    calls = []
    monkeypatch.setattr(suites, "SUITES", _recording_fakes(calls))
    expect = 5 if trials is None else trials
    suites.run_all(seed=11, trials=trials, slack=0.25)
    assert calls == [("takes", 11, expect, 0.25), ("agrees", 11, expect, None)]
    calls.clear()
    suites.run_all(seed=11, trials=trials)
    assert calls == [("takes", 11, expect, suites.INEQ_SLACK), ("agrees", 11, expect, None)]


def test_the_inequality_suites_take_slack():
    takes = {
        name for name, fn in suites.SUITES.items()
        if "slack" in inspect.signature(fn).parameters
    }
    assert takes == {
        "triangle_cube", "triangle_weighted", "chain_scaling", "interval_chain",
        "derivative_chain", "gauge_shift", "gauge_chain", "point_shift_scaling",
        "scale_monotonicity", "geodesic_sandwich",
    }


def test_run_all_at_eight_trials_runs_every_suite():
    results = suites.run_all(seed=5, trials=8)
    assert [r.name for r in results] == list(suites.SUITES)
    assert all(r.trials >= 1 for r in results)


@pytest.mark.parametrize("trials", range(1, 8))
def test_run_all_below_eight_trials_raises(monkeypatch, trials):
    # the largest case count is checked before any suite runs
    calls = []
    monkeypatch.setattr(suites, "SUITES", _recording_fakes(calls))
    with pytest.raises(ValueError, match="^trials must be at least 8, one per case$"):
        suites.run_all(seed=5, trials=trials)
    assert calls == []


# -- the vectorized copies must match the library -----------------------------


def test_triangle_weighted_fails_when_its_copy_drifts(monkeypatch):
    assert suites.suite_triangle_weighted(3, trials=100).passed
    copy = Modulus.core_integrals
    monkeypatch.setattr(
        Modulus, "core_integrals", lambda *args: copy(*args) * (1.0 + 1e-6)
    )
    # a common factor keeps every triangle inequality; the library check fails
    # each of the first draws of every modulus
    res = suites.suite_triangle_weighted(3, trials=100)
    assert res.trials == 100 * len(suites.TRIANGLE_MATRIX)
    assert res.failures == suites.LIBRARY_DRAWS * len(suites.TRIANGLE_MATRIX)


def test_halfspace_equivalence_fails_when_its_copy_drifts(monkeypatch):
    assert suites.suite_halfspace_equivalence(3, trials=1000).passed
    copy = suites._equivalence_ratios
    monkeypatch.setattr(
        suites, "_equivalence_ratios", lambda *args: copy(*args) * (1.0 + 1e-6)
    )
    res = suites.suite_halfspace_equivalence(3, trials=1000)
    assert res.failures == 1
    assert res.detail.endswith(", disagrees with equivalence_ratio")


def test_tally_nan_margin_leaves_worst_and_nan_test_fails():
    tally = _Tally("max_rel_dev")
    tally.add(0.25 <= 1e-8, 0.25, witness=dict)
    dev = math.nan
    tally.add(dev <= 1e-8, dev, witness=dict)
    res = tally.result("demo", "")
    assert res.failures == 2
    assert res.worst == 0.25


# -- NaN fails the agreement suites -------------------------------------------


@pytest.mark.parametrize(
    "suite, route",
    [
        (suites.suite_same_poly_identity, "jet_distance"),
        (suites.suite_zygmund_agreement, "zygmund_distance"),
        (suites.suite_sobolev_agreement, "sobolev_distance"),
        (suites.suite_value_gauge_agreement, "jet_distance_via_value_gauge"),
        (suites.suite_value_gauge_agreement, "jet_distance_componentwise"),
    ],
)
def test_nan_route_fails_every_trial(monkeypatch, suite, route):
    monkeypatch.setattr(suites, route, lambda *args, **kwargs: math.nan)
    res = suite(3, trials=12)
    assert res.trials == 12
    assert res.failures == 12
    assert len(res.witnesses) == 3
    assert res.worst == 0.0


# -- derivative_chain against its per-link oracle -----------------------------


def _oracle_derivative_chain(seed, trials, slack=suites.INEQ_SLACK):
    """The suite as first written: every link difference is rebuilt for each
    (alpha, beta) pair, and the end-to-end difference for each alpha."""
    rng = _rng_for(seed, 8)
    failures = 0
    worst = math.inf
    witnesses = []
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
        ok_all = True
        slack_min = math.inf
        for alpha in multi_indices(n, degree):
            lhs = abs((polys[0] - polys[-1]).deriv_eval(alpha, xs[0]))
            rhs = 0.0
            for beta in multi_indices(n, degree - mi_order(alpha)):
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                acc = sum(
                    abs((polys[i] - polys[i + 1]).deriv_eval(gamma, xs[i]))
                    for i in range(length)
                )
                rhs = max(rhs, acc * step_sum ** mi_order(beta))
            rhs *= math.exp(n)
            slack_min = min(slack_min, rhs - lhs)
            if not within_slack(lhs, rhs, slack):
                ok_all = False
        worst = min(worst, slack_min)
        if not ok_all:
            failures += 1
            if len(witnesses) < 3:
                witnesses.append({"n": n, "degree": degree, "xs": [list(x) for x in xs]})
    return SuiteResult(
        "derivative_chain", trials, failures, "min_slack", worst,
        "chain bound for derivative discrepancies of polynomial families",
        tuple(witnesses),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derivative_chain_matches_per_link_oracle(seed):
    assert suites.suite_derivative_chain(seed, trials=200) == _oracle_derivative_chain(seed, 200)


def test_derivative_chain_witnesses_match_per_link_oracle():
    # a negative slack fails about half the trials, so the witness path is
    # compared too
    got = suites.suite_derivative_chain(4, trials=50, slack=-0.9)
    assert got.failures > 3
    assert got == _oracle_derivative_chain(4, 50, slack=-0.9)


# -- triangle_weighted and lipschitz_forms against their own-books forms ------


def _oracle_triangle_weighted(seed, trials, slack=suites.INEQ_SLACK):
    """The suite with its own failure count, worst margin and one witness
    per failing modulus."""
    failures = 0
    worst = math.inf
    witnesses = []
    for idx, (name, mod, r_hi, c_scale) in enumerate(suites.TRIANGLE_MATRIX):
        rng = _rng_for(seed, 100 + idx)
        centers = rng.uniform(-c_scale, c_scale, size=(trials, 3, 2))
        radii = rng.uniform(0.05, r_hi, size=(trials, 3))

        def dvec(i, j):
            sep = np.max(np.abs(centers[:, i] - centers[:, j]), axis=1)
            lo = np.minimum(radii[:, i], radii[:, j])
            hi = radii[:, i] + radii[:, j] + sep
            return mod.core_integrals(lo, hi - lo)

        d01, d12, d02 = dvec(0, 1), dvec(1, 2), dvec(0, 2)
        margin = d01 + d12 - d02
        scale_arr = np.maximum(np.abs(d02), np.abs(d01 + d12))
        bad = (d02 - (d01 + d12)) > slack * scale_arr + 1e-300
        failures += int(np.count_nonzero(bad))
        worst = min(worst, float(np.min(margin)))
        if np.any(bad) and len(witnesses) < 3:
            i = int(np.flatnonzero(bad)[0])
            witnesses.append(
                {
                    "modulus": modulus_to_dict(mod),
                    "centers": centers[i].tolist(),
                    "radii": radii[i].tolist(),
                }
            )
    return SuiteResult(
        "triangle_weighted", trials * len(suites.TRIANGLE_MATRIX), failures, "min_slack", worst,
        "weighted cube distance is a metric for every matrix modulus", tuple(witnesses),
    )


def _oracle_lipschitz_forms(seed, fields, lams_per_field=10):
    """The suite with its own books: one failure per threshold pair."""
    rng = _rng_for(seed, 12)
    failures = 0
    witnesses = []
    trials = 0
    for t in range(fields):
        n = 1 + t % 2
        k = 0
        m = 1 + t % 2
        q = float(rng.uniform(0.3 * m, m))
        mod = Modulus.power(q, m)
        field = _random_field(rng, n, k, m, size=3)
        lam_star = lo_seminorm(field, mod).value
        if lam_star <= 0:
            continue
        for _ in range(lams_per_field):
            lam = lam_star * float(rng.uniform(0.3, 3.0))
            if abs(lam - lam_star) < 1e-9 * lam_star:
                continue
            ratio_ok, metric_ok = suites.lipschitz_forms(field, mod, lam)
            trials += 1
            if ratio_ok != metric_ok:
                failures += 1
                if len(witnesses) < 3:
                    witnesses.append({"modulus": modulus_to_dict(mod), "lam": lam})
        hi = suites.lipschitz_forms(field, mod, lam_star * (1 + 1e-6))
        lo = suites.lipschitz_forms(field, mod, lam_star * (1 - 1e-6))
        trials += 2
        if hi != (True, True) or lo != (False, False):
            failures += 1
            if len(witnesses) < 3:
                witnesses.append(
                    {"modulus": modulus_to_dict(mod), "lam_star": lam_star, "kind": "threshold"}
                )
    return SuiteResult(
        "lipschitz_forms", trials, failures, "bool_agreement", float(failures),
        "ratio and metric forms of the Lipschitz condition agree with a shared threshold",
        tuple(witnesses),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_triangle_weighted_matches_own_books_oracle(seed):
    got = suites.suite_triangle_weighted(seed, trials=200)
    assert got.passed
    assert got == _oracle_triangle_weighted(seed, 200)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_triangle_weighted_failing_run_matches_oracle_but_witnesses(seed):
    got = suites.suite_triangle_weighted(seed, trials=200, slack=-0.3)
    want = _oracle_triangle_weighted(seed, 200, slack=-0.3)
    assert got.failures > 3
    assert dataclasses.replace(got, witnesses=()) == dataclasses.replace(want, witnesses=())
    # the first three failures in trial order; the oracle kept the first
    # failure of each power modulus
    assert len(got.witnesses) == 3 and got.witnesses[0] == want.witnesses[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lipschitz_forms_matches_own_books_oracle(seed):
    got = suites.suite_lipschitz_forms(seed, trials=300)
    assert got.passed and got.trials > 0
    assert got == _oracle_lipschitz_forms(seed, fields=30)


def test_lipschitz_forms_sweeps_each_field_once(monkeypatch):
    # the seminorm and the twelve form checks of a field read one sweep;
    # each once swept again, 13 sweeps per field
    sweeps, fields = [], []
    pair_gauges, random_field = whitney.pair_gauges, suites._random_field
    monkeypatch.setattr(whitney, "pair_gauges", lambda *a: sweeps.append(a) or pair_gauges(*a))
    monkeypatch.setattr(
        suites, "_random_field", lambda *a, **k: fields.append(a) or random_field(*a, **k)
    )
    got = suites.suite_lipschitz_forms(1, 100)
    assert got.passed and got.trials > 0
    assert len(fields) == 10 and len(sweeps) == 10


def test_lipschitz_forms_counts_each_threshold_side(monkeypatch):
    # forms that never agree fail every scale and both threshold sides
    monkeypatch.setattr(suites, "lipschitz_forms", lambda *args: (True, False))
    got = suites.suite_lipschitz_forms(2, trials=40)
    want = _oracle_lipschitz_forms(2, fields=4)
    assert got.trials == want.trials
    assert got.failures == got.trials and got.worst == float(got.trials)
    # the oracle counted one failure per threshold pair
    assert got.failures - want.failures == (got.trials - 4 * 10) // 2 == 4
