"""Property-suite bookkeeping: the shared trial tally, NaN handling in the
agreement suites, and the derivative-chain suite against its per-link form."""

import math

import pytest

from jetspace import suites
from jetspace.cubes import uniform_norm
from jetspace.numerics import within_slack
from jetspace.poly import mi_order, multi_indices
from jetspace.suites import SuiteResult, _rng_for, _random_poly, _Tally


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
