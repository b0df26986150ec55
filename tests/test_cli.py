"""End-to-end command-line behavior: schemas, determinism, exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetspace.cli import main
from jetspace.cubes import pair_scales
from jetspace.jets import jet_distance, zygmund_distance
from jetspace.modulus import Modulus
from jetspace.poly import multi_indices
from jetspace.serialize import cube_from_dict, jet_from_dict, modulus_from_dict
from test_modulus import POWERLOG_GRID, powerlog_exact, table_exact
from test_numerics import bisection_engine, inverting_with
from test_selection import _op_seed


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, args):
    out = tmp_path / "out.json"
    code = main([*args, "--output", str(out)])
    return code, out.read_text() if out.exists() else None


MOD_D = {"family": "power", "q": 1.0, "m": 2}
JET1 = {"poly": {"n": 1, "L": 1, "coef": {"[1]": 1.0}}, "cube": {"x": [0.0], "r": 1.0}}
JET0 = {"poly": {"n": 1, "L": 1, "coef": {}}, "cube": {"x": [0.0], "r": 1.0}}


def test_metric_equal_cubes(tmp_path):
    path = _write(
        tmp_path, "in.json",
        {"omega": MOD_D, "cubes": [{"x": [0.0], "r": 1.0}, {"x": [0.0], "r": 1.0}]},
    )
    code, text = _run(tmp_path, ["metric", "--input", path])
    assert code == 0
    data = json.loads(text)
    assert data["cube_distance"] == 0.0
    assert data["weighted_cube_distance"] == 0.0
    assert data["poincare_distance"] == 0.0


@pytest.mark.parametrize("x", [1e308, 1.7976931348623157e308])
def test_metric_far_apart_cubes(tmp_path, capsys, x):
    # the separation 2x overflows, though every distance is finite
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        sep = 2 * mp.mpf(x)
        cube, poincare = float(mp.log(2 + sep)), float(mp.acosh(1 + sep**2 / 2))
    cubes = [{"x": [x], "r": 1.0}, {"x": [-x], "r": 1.0}]
    path = _write(tmp_path, "in.json", {"omega": {**MOD_D, "q": 0.5}, "cubes": cubes})
    code, text = _run(tmp_path, ["metric", "--input", path])
    assert code == 0
    data = json.loads(text)
    assert data["cube_distance"] == pytest.approx(cube, rel=1e-12)
    assert data["poincare_distance"] == pytest.approx(poincare, rel=1e-12)
    # the tail beyond the reach, 2 / sqrt(2 + sep), rounds away against 2
    assert data["weighted_cube_distance"] == 2.0
    # with w(t) = t the integral is ln((2 + sep) / 1), but the tail diverges
    path = _write(tmp_path, "in.json", {"omega": MOD_D, "cubes": cubes})
    assert main(["metric", "--input", path]) == 3
    error = _error(capsys)
    assert error["type"] == "OverflowError"


def test_metric_far_jets_get_finite_candidates(tmp_path):
    # without candidates, metric interpolates the centers; b - a overflowed
    # here and made a candidate cube "cube center must be finite" (exit 2)
    jets = [{**JET1, "cube": {"x": [1e308], "r": 1.0}}, {**JET0, "cube": {"x": [-1e308], "r": 1.0}}]
    path = _write(tmp_path, "in.json", {"omega": {**MOD_D, "q": 0.5}, "jets": jets})
    code, text = _run(tmp_path, ["metric", "--input", path])
    assert code == 0
    data = json.loads(text)
    assert 0.0 <= data["geodesic_lower"] <= data["geodesic_upper"] <= data["jet_distance"]


def test_metric_worked_jet_pair(tmp_path):
    path = _write(tmp_path, "in.json", {"omega": MOD_D, "jets": [JET1, JET0]})
    code, text = _run(tmp_path, ["metric", "--input", path])
    assert code == 0
    data = json.loads(text)
    assert data["jet_distance"] == pytest.approx(1.0, abs=1e-10)
    assert data["geodesic_lower"] <= data["geodesic_upper"] <= data["jet_distance"]


def test_metric_same_poly_jets_collapse(tmp_path):
    jet_a = {"poly": {"n": 1, "L": 1, "coef": {"[1]": 2.0}}, "cube": {"x": [0.0], "r": 1.0}}
    jet_b = {"poly": {"n": 1, "L": 1, "coef": {"[1]": 2.0}}, "cube": {"x": [1.5], "r": 0.5}}
    path = _write(tmp_path, "in.json", {"omega": MOD_D, "jets": [jet_a, jet_b]})
    code, text = _run(tmp_path, ["metric", "--input", path])
    data = json.loads(text)
    assert data["jet_distance"] == data["weighted_cube_distance"]


def test_metric_csv_mode(tmp_path):
    path = _write(tmp_path, "in.json", {"omega": MOD_D, "jets": [JET1, JET0]})
    out = tmp_path / "out.csv"
    code = main(["metric", "--input", path, "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "quantity,value"
    assert any(line.startswith("jet_distance,") for line in lines)


def test_output_overwrites_a_longer_file_exactly(tmp_path):
    path = _write(tmp_path, "in.json", {"omega": MOD_D, "jets": [JET1, JET0]})
    fresh = tmp_path / "fresh.json"
    assert main(["metric", "--input", path, "--output", str(fresh)]) == 0
    out = tmp_path / "out.json"
    out.write_text("x" * (3 * len(fresh.read_text())))
    assert main(["metric", "--input", path, "--output", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert main(["metric", "--input", path, "--output", "/dev/null"]) == 0


def test_check_polynomial_trace(tmp_path):
    xs = [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]
    payload = {
        "n": 1, "k": 0, "m": 2, "omega": MOD_D,
        "points": [{"x": [x], "f": 0.5 + 2.0 * x} for x in xs],
        "radii": [2.0, 1.0, 0.9],
    }
    path = _write(tmp_path, "in.json", payload)
    code, text = _run(tmp_path, ["check", "--input", path])
    assert code == 0
    data = json.loads(text)
    conds = {c["name"]: c for c in data["report"]["conditions"]}
    assert conds["pairwise_growth"]["lambda_hat"] <= 1e-8
    assert data["lo_seminorm"]["value"] <= 1e-8
    assert len(data["limit_jets"]) == len(xs)


def test_check_repeated_radius_counts_once(tmp_path):
    # the cube family drops a repeated radius, so two distinct radii get no
    # limit jets however often one is listed
    def run(radii):
        payload = {
            "n": 1, "k": 0, "m": 1, "omega": {"family": "power", "q": 1.0, "m": 1},
            "points": [{"x": [x], "f": x} for x in (0.0, 0.4, 1.0)],
            "radii": radii,
        }
        return _run(tmp_path, ["check", "--input", _write(tmp_path, "in.json", payload)])

    code, text = run([0.5, 0.5, 0.25])
    assert code == 0 and json.loads(text)["limit_jets"] == []
    code, text = run([0.5, 0.25, 0.125])
    assert code == 0 and len(json.loads(text)["limit_jets"]) == 3
    assert run([0.5, 0.5, 0.25, 0.125]) == (code, text)


def test_check_csv_rows_per_pair(tmp_path):
    xs = [0.0, 1.0]
    payload = {
        "n": 1, "k": 0, "m": 2, "omega": MOD_D,
        "points": [{"x": [x], "f": x * x} for x in xs],
        "radii": [1.0, 0.5],
    }
    path = _write(tmp_path, "in.json", payload)
    out = tmp_path / "out.csv"
    code = main(["check", "--input", path, "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    n_cubes = len(xs) * 2
    assert len(lines) == 1 + n_cubes * (n_cubes - 1)


def test_check_jet_data(tmp_path):
    # jet samples: order-0 data polynomials of a linear function
    xs = [-1.0, 0.0, 1.0]
    payload = {
        "n": 1, "k": 0, "m": 2, "omega": MOD_D,
        "points": [
            {"x": [x], "jet": {"n": 1, "L": 0, "coef": {"[0]": 2.0 * x + 1.0}}}
            for x in xs
        ],
        "radii": [2.0, 1.5, 1.0],
    }
    path = _write(tmp_path, "in.json", payload)
    code, text = _run(tmp_path, ["check", "--input", path])
    assert code == 0
    data = json.loads(text)
    conds = {c["name"]: c for c in data["report"]["conditions"]}
    assert conds["pairwise_growth"]["lambda_hat"] <= 1e-7
    assert "interpolation" not in data["report"]


def test_select_singleton(tmp_path):
    def sing(c0, c1, x, r):
        return {
            "cube": {"x": [x], "r": r},
            "set": {"base": {"n": 1, "L": 1, "coef": {"[0]": c0, "[1]": c1}},
                    "dirs": [], "ineq": []},
        }

    payload = {
        "context": {"n": 1, "k": 1, "m": 1, "omega": {"family": "power", "q": 1.0, "m": 1}},
        "nodes": [sing(0.0, 0.0, 0.0, 1.0), sing(1.0, 0.5, 2.0, 0.5)],
    }
    path = _write(tmp_path, "in.json", payload)
    code, text = _run(tmp_path, ["select", "--input", path])
    assert code == 0
    data = json.loads(text)
    assert data["status"] == "optimal"
    assert data["lambda_star"] > 0


def test_select_with_experiment(tmp_path, capsys):
    def interval(lo, hi, x):
        return {
            "cube": {"x": [x], "r": 1.0},
            "set": {
                "base": {"n": 1, "L": 0, "coef": {}},
                "dirs": [{"n": 1, "L": 0, "coef": {"[0]": 1.0}}],
                "ineq": [{"a": [1.0], "b": hi}, {"a": [-1.0], "b": -lo}],
            },
        }

    payload = {
        "context": {"n": 1, "k": 0, "m": 1, "omega": {"family": "power", "q": 1.0, "m": 1}},
        "nodes": [interval(0, 0.2, 0.0), interval(1, 1.5, 1.0), interval(-2, -1.2, 3.0)],
        "experiment": {"ell": 1},
    }
    path = _write(tmp_path, "in.json", payload)
    code, text = _run(tmp_path, ["select", "--input", path])
    assert code == 0
    data = json.loads(text)
    assert data["experiment"]["gamma_hat"] >= 1.0 - 1e-9
    assert data["experiment"]["exhaustive"]
    # an empty budget or a negative ell is an input error
    for experiment, argv in (
        ({"ell": 1, "budget": 0}, []),
        ({}, ["--experiment-ell", "-1"]),
        ({}, ["--experiment-ell", "-2"]),
    ):
        path = _write(tmp_path, "in.json", {**payload, "experiment": experiment})
        assert main(["select", "--input", path, *argv]) == 2
        assert _error(capsys)["type"] == "ValueError"


def test_counterexample_json_and_monotonicity(tmp_path):
    code, text = _run(tmp_path, ["counterexample", "--imax", "5"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 5
    assert rows[0]["log_distance"] == pytest.approx(math.log(9.0), rel=1e-12)
    steps = [r["step_distance"] for r in rows]
    assert steps == sorted(steps, reverse=True)


def test_properties_small_run_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["properties", "--trials", "60", "--output", str(out1)])
    code2 = main(["properties", "--trials", "60", "--output", str(out2)])
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["all_passed"] is True
    assert {s["name"] for s in data["suites"]} >= {
        "triangle_cube", "chain_scaling", "lipschitz_forms",
    }


def test_properties_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["properties", "--trials", "40", "--output", str(out1)])
    main(["properties", "--trials", "40", "--seed", "7", "--output", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["metric", "--input", str(bad)]) == 2
    missing_field = _write(tmp_path, "mf.json", {"omega": MOD_D})
    assert main(["metric", "--input", str(missing_field)]) == 2
    assert main(["metric"]) == 2  # no input at all


def test_counterexample_bound_exit_code(capsys):
    assert main(["counterexample", "--imax", "31"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "ValueError" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trials", "0"], "trials must be at least 1"),
        (["--trials", "-3"], "trials must be at least 1"),
        (["--tol", "nan"], "slack must be finite and non-negative"),
        (["--tol", "inf"], "slack must be finite and non-negative"),
        (["--tol", "-1"], "slack must be finite and non-negative"),
    ],
)
def test_properties_bad_options_exit_2(tmp_path, capsys, argv, message):
    # --tol nan and --tol -1 once exited 1, as if a suite had failed
    out = tmp_path / "out.json"
    assert main(["properties", *argv, "--output", str(out)]) == 2
    assert not out.exists()
    error = _error(capsys)
    assert error["type"] == "ValueError" and error["message"] == message


@pytest.mark.parametrize("trials", range(1, 8))
def test_properties_below_eight_trials_exit_2(capsys, trials):
    # below the chain matrix's eight cases a suite would run zero trials of a
    # case and still report a pass
    assert main(["properties", "--trials", str(trials)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "ValueError", "message": "trials must be at least 8, one per case"}


def _error(capsys) -> dict:
    return json.loads(capsys.readouterr().err)["error"]


def test_non_finite_input_numbers_exit_2(tmp_path, capsys):
    nan_centre = {"omega": MOD_D, "cubes": [{"x": [math.nan], "r": 1.0}, {"x": [0.0], "r": 1.0}]}
    path = _write(tmp_path, "nan.json", nan_centre)  # json writes the NaN literal
    assert main(["metric", "--input", path]) == 2
    assert "NaN" in _error(capsys)["message"]
    path = tmp_path / "big.json"
    path.write_text(
        '{"omega": {"family": "power", "q": 1.0, "m": 2},'
        ' "cubes": [{"x": [1e400], "r": 1.0}, {"x": [0.0], "r": 1.0}]}'
    )
    assert main(["metric", "--input", str(path)]) == 2
    assert "1e400" in _error(capsys)["message"]
    big_int = "1" + "0" * 400  # an integer beyond the float range
    path.write_text(
        '{"omega": {"family": "power", "q": 1.0, "m": 2},'
        f' "cubes": [{{"x": [0.0], "r": {big_int}}}, {{"x": [0.0], "r": 1.0}}]}}'
    )
    assert main(["metric", "--input", str(path)]) == 2
    assert big_int in _error(capsys)["message"]


def test_wrongly_typed_input_exits_2(tmp_path, capsys):
    select = {"context": {"n": 1, "k": 0, "m": 2, "omega": MOD_D}, "nodes": 5}
    cases = [
        ("metric", [1, 2], "input must be a JSON object"),
        ("metric", {"omega": MOD_D, "cubes": [1, 2]}, "cube must be a JSON object"),
        ("metric", {"omega": 5, "cubes": []}, "omega must be a JSON object"),
        ("select", select, "nodes must be a JSON array"),
        # float() read numbers written as strings, so "nan" got past the check
        ("metric", {"omega": MOD_D, "cubes": [{"x": ["nan"], "r": 1.0}] * 2}, "cube x"),
    ]
    for command, payload, message in cases:
        path = _write(tmp_path, "in.json", payload)
        assert main([command, "--input", path]) == 2
        error = _error(capsys)
        assert error["type"] == "ValueError" and message in error["message"]


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["metric", "--input", str(path)]) == 2
    error = _error(capsys)
    assert error["type"] == "ValueError" and "nested too deeply" in error["message"]


def test_interpolate_center_must_be_a_boolean(tmp_path, capsys):
    payload = {
        "n": 1, "k": 0, "m": 2, "omega": MOD_D,
        "points": [{"x": [0.0], "f": 0.0}, {"x": [1.0], "f": 1.0}],
        "radii": [1.0, 0.5],
    }
    for value in ("false", 0, None):
        path = _write(tmp_path, "in.json", {**payload, "interpolate_center": value})
        assert main(["check", "--input", path]) == 2
        error = _error(capsys)
        assert error["type"] == "ValueError"
        assert "interpolate_center must be a JSON boolean" in error["message"]
    path = _write(tmp_path, "in.json", {**payload, "interpolate_center": False})
    code, text = _run(tmp_path, ["check", "--input", path])
    assert code == 0
    assert json.loads(text)["report"]["fit_mode"] == "unconstrained best fit"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--seed", "5"],
        ["check", "--trials", "5"],
        ["metric", "--tol", "3"],
        ["select", "--trials", "5"],
        ["properties", "--input", "x.json"],
        ["counterexample", "--seed", "5"],
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path, capsys):
    # the integral of ln(1+s)/s over [1e-300, 1e300] is finite: it once
    # exited 3 only because adaptive quadrature overflowed on it
    payload = {
        "omega": {"family": "powerlog", "q": 1.0, "m": 2},
        "cubes": [{"x": [1e300], "r": 1e-300}, {"x": [0.0], "r": 1.0}],
    }
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    # -Li2(-1e300) + Li2(-1e-300), mpmath at 40 digits
    assert json.loads(text)["weighted_cube_distance"] == pytest.approx(
        238587.05990559476, rel=1e-12
    )
    # so does 1/s: ln(1e300 / 1e-300), though the ratio itself overflows
    payload["omega"] = {"family": "power", "q": 1.0, "m": 2}
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    assert json.loads(text)["weighted_cube_distance"] == pytest.approx(
        600 * math.log(10), rel=1e-12
    )
    # s ln(1+s) over the same span integrates to about 1e600 ln(1e300) / 2
    payload["omega"] = {"family": "powerlog", "q": 2.0, "m": 1}
    path = _write(tmp_path, "in.json", payload)
    assert main(["metric", "--input", path]) == 3
    assert _error(capsys)["type"] == "OverflowError"
    # the local fit's basis scale (1/r)^2 overflows on a cube of radius
    # 1e-200, and 1/r itself on a subnormal one; the errors once read only
    # "Numerical result out of range" and "LP data has a non-finite entry"
    for radius, far in ((1e-200, 3e-200), (1e-309, 3e-309)):
        payload = {
            "n": 1, "k": 1, "m": 2, "omega": MOD_D,
            "points": [{"x": [0.0], "f": 0.0}, {"x": [far], "f": 1.0}],
            "radii": [radius],
        }
        assert main(["check", "--input", _write(tmp_path, "in.json", payload)]) == 3
        error = _error(capsys)
        assert error["type"] == "OverflowError"
        assert error["message"] == f"fit basis of order 2 overflows on a cube of radius {radius!r}"


def test_metric_powerlog_wide_span_is_exact(tmp_path):
    # adaptive quadrature printed 11624445625.1 here with exit 0
    payload = {
        "omega": {"family": "powerlog", "q": 1.0, "m": 2},
        "cubes": [{"x": [0.0], "r": 0.53}, {"x": [1e20], "r": 1.0}],
    }
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    got = json.loads(text)["weighted_cube_distance"]
    assert got == pytest.approx(powerlog_exact(1.0, 2, 0.53, 1e20 + 1.53), rel=1e-12)
    assert got == pytest.approx(1061.55, abs=0.01)


def test_select_overflowing_gauge_exits_3(tmp_path, capsys):
    # finite input whose order-0 gauge overflows to inf: the LP has a
    # non-finite entry, which once came back as status "infeasible" with a
    # NaN lambda_star and exit 0
    def node(x, r, lo, hi):
        return {
            "cube": {"x": [x], "r": r},
            "set": {
                "base": {"n": 1, "L": 0, "coef": {}},
                "dirs": [{"n": 1, "L": 0, "coef": {"[0]": 1.0}}],
                "ineq": [{"a": [1.0], "b": hi}, {"a": [-1.0], "b": -lo}],
            },
        }

    payload = {
        "context": {"n": 1, "k": 0, "m": 2, "omega": {"family": "power", "q": 2.0, "m": 2}},
        "nodes": [node(0.0, 1e-300, 0.0, 1.0), node(1e300, 1.0, 2.0, 3.0)],
    }
    path = _write(tmp_path, "in.json", payload)
    code, text = _run(tmp_path, ["select", "--input", path])
    assert code == 3 and not text
    error = _error(capsys)
    assert error["type"] == "ArithmeticError"
    assert "non-finite" in error["message"]


def test_metric_powerlog_huge_coefficients_inverts_in_few_quadratures(tmp_path, monkeypatch):
    # each inversion here used to double its bracket about 500 times, one
    # adaptive quadrature per step: 37,094 quadratures for this input.  Every
    # integral and every inversion step is one call of the core primitive.
    payload = {
        "omega": {"family": "powerlog", "q": 0.0, "m": 0},
        "jets": [
            {"poly": {"n": 1, "L": 1, "coef": {"[0]": 1e300, "[1]": -1e300}}, "cube": {"x": [0.0], "r": 0.5}},
            {"poly": {"n": 1, "L": 1, "coef": {"[0]": -1e300, "[1]": 1e300}}, "cube": {"x": [1.0], "r": 1.0}},
        ],
    }
    calls = [0]
    increment = Modulus._increment

    def counted(self, *args):
        calls[0] += 1
        return increment(self, *args)

    monkeypatch.setattr(Modulus, "_increment", counted)
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    assert 0 < calls[0] < 1000
    mod = modulus_from_dict(payload["omega"])
    jets = [jet_from_dict(j) for j in payload["jets"]]
    with inverting_with(bisection_engine):
        oracle = jet_distance(mod, *jets)
    assert json.loads(text)["jet_distance"] == pytest.approx(oracle, rel=1e-12)


def test_metric_top_order_discrepancy_beyond_its_discrepancy_scale(tmp_path):
    # kernel 1/s: the top-order discrepancy 800 is the distance, while its
    # discrepancy scale expm1(800) is beyond the float range
    payload = {
        "omega": {"family": "power", "q": 1.0, "m": 2},
        "jets": [
            {"poly": {"n": 1, "L": 1, "coef": {"[1]": 800.0}}, "cube": {"x": [0.0], "r": 1.0}},
            {"poly": {"n": 1, "L": 1, "coef": {}}, "cube": {"x": [0.5], "r": 1.0}},
        ],
    }
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    jets = [jet_from_dict(j) for j in payload["jets"]]
    assert json.loads(text)["jet_distance"] == 800.0 == zygmund_distance(*jets, 2)


def test_metric_tiny_radius_with_overflowing_kernel_slope(tmp_path):
    # near the radius 1e-300 the kernel s^-1.5 overflows while the gauge does
    # not, and the order-0 root lies below the rounding of v + t; the cube
    # separation sets the gap, as with the bisection inverse
    payload = {
        "omega": {"family": "power", "q": 0.5, "m": 2},
        "jets": [
            {"poly": {"n": 1, "L": 1, "coef": {"[0]": 1e-300}}, "cube": {"x": [0.0], "r": 1e-300}},
            {"poly": {"n": 1, "L": 1, "coef": {"[0]": 0.0}}, "cube": {"x": [1.0], "r": 1.0}},
        ],
    }
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    mod = modulus_from_dict(payload["omega"])
    jets = [jet_from_dict(j) for j in payload["jets"]]
    with inverting_with(bisection_engine):
        oracle = jet_distance(mod, *jets)
    assert json.loads(text)["jet_distance"] == oracle


def _metric_workload_input(seed, candidates=24):
    """An input of the metric benchmark workload: its generator's draws, in
    its order, for op seed ``seed``."""
    rng = np.random.default_rng(seed)

    def jet(offset=0.0):
        keys = [f"[{a},{b}]" for a in range(3) for b in range(3) if a + b <= 2]
        coef = {key: float(rng.uniform(-2.0, 2.0)) for key in keys}
        center = (rng.uniform(-1.0, 1.0, size=2) + offset).tolist()
        return {"poly": {"n": 2, "L": 2, "coef": coef}, "cube": {"x": center, "r": float(rng.uniform(0.05, 1.5))}}

    start, end = jet(), jet(offset=4.0)
    return {
        "omega": {"family": "power", "q": 1.5, "m": 2},
        "jets": [start, end],
        "candidates": [jet() for _ in range(candidates)],
    }


def test_metric_equal_infinite_routes_agree(tmp_path):
    # op 2 of the metric workload at seed 1 with the start jet's coefficients
    # at 1.7e308: both jet-distance routes give +inf (the tail mass is
    # infinite), and the cross-check once took inf - inf = NaN for a
    # disagreement and exited 3
    payload = _metric_workload_input(_op_seed(1, 2))
    coef = payload["jets"][0]["poly"]["coef"]
    coef.update((key, 1.7e308) for key in coef)
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    data = json.loads(text)
    assert data["jet_distance"] == data["geodesic_upper"] == math.inf
    assert '"jet_distance": Infinity' in text and '"geodesic_upper": Infinity' in text


def _fuzz_floats(low, high):
    return st.one_of(st.floats(low, high), st.sampled_from([0.0, 1e300, -1e300, 1e-300, -1e-300]))


_FUZZ_OMEGA = st.one_of(
    st.fixed_dictionaries(
        {
            "family": st.sampled_from(["power", "powerlog"]),
            "q": _fuzz_floats(0.0, 3.0),
            "m": st.integers(0, 3),
        }
    ),
    st.fixed_dictionaries(
        {
            "family": st.just("table"),
            "m": st.integers(0, 3),
            "knots": st.lists(
                st.tuples(_fuzz_floats(0.01, 10.0), _fuzz_floats(0.01, 10.0)), min_size=2, max_size=3
            ).map(sorted),
        }
    ),
)


def _fuzz_cube(n):
    return st.fixed_dictionaries(
        {"x": st.lists(_fuzz_floats(-4.0, 4.0), min_size=n, max_size=n), "r": _fuzz_floats(0.01, 4.0)}
    )


def _fuzz_jet(n):
    return st.fixed_dictionaries({"poly": _fuzz_poly(n, 1), "cube": _fuzz_cube(n)})


def _fuzz_poly(n, degree):
    keys = [json.dumps(list(a), separators=(",", ":")) for a in multi_indices(n, degree)]
    coef = st.dictionaries(st.sampled_from(keys), _fuzz_floats(-4.0, 4.0))
    return st.fixed_dictionaries({"n": st.just(n), "L": st.just(degree), "coef": coef})


_FUZZ_METRIC = st.integers(1, 2).flatmap(
    lambda n: st.one_of(
        st.fixed_dictionaries(
            {"omega": _FUZZ_OMEGA, "cubes": st.lists(_fuzz_cube(n), min_size=2, max_size=2)}
        ),
        st.fixed_dictionaries(
            {
                "omega": _FUZZ_OMEGA,
                "jets": st.lists(_fuzz_jet(n), min_size=2, max_size=2),
                "candidates": st.lists(_fuzz_jet(n), max_size=2),
            }
        ),
    )
)


def _fuzz_context(n, k, m):
    omega = _FUZZ_OMEGA.map(lambda d: {**d, "m": m})
    return {"n": st.just(n), "k": st.just(k), "m": st.just(m), "omega": omega}


def _fuzz_sample(n, k, m):
    data = st.one_of(
        st.fixed_dictionaries({"f": _fuzz_floats(-4.0, 4.0)}),
        st.fixed_dictionaries({"jet": _fuzz_poly(n, max(k, 0))}),
    )
    point = st.tuples(st.lists(_fuzz_floats(-2.0, 2.0), min_size=n, max_size=n), data).map(
        lambda xd: {"x": xd[0], **xd[1]}
    )
    return st.fixed_dictionaries(
        {**_fuzz_context(n, k, m), "points": st.lists(point, min_size=1, max_size=3)},
        optional={
            "radii": st.lists(_fuzz_floats(0.01, 2.0), min_size=1, max_size=3),
            "radii_levels": st.integers(0, 2),
            "interpolate_center": st.booleans(),
        },
    )


_FUZZ_CHECK = st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(0, 2)).flatmap(
    lambda nkm: _fuzz_sample(*nkm)
)


def _fuzz_node(n, k):
    ineq = st.fixed_dictionaries(
        {"a": st.lists(_fuzz_floats(-2.0, 2.0), max_size=2), "b": _fuzz_floats(-2.0, 2.0)}
    )
    spec = st.fixed_dictionaries(
        {"base": _fuzz_poly(n, k)},
        optional={
            "dirs": st.lists(_fuzz_poly(n, k), max_size=2),
            "ineq": st.lists(ineq, max_size=2),
        },
    )
    return st.fixed_dictionaries({"cube": _fuzz_cube(n), "set": spec})


_FUZZ_SELECT = st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(1, 2)).flatmap(
    lambda nkm: st.fixed_dictionaries(
        {
            "context": st.fixed_dictionaries(_fuzz_context(*nkm)),
            "nodes": st.lists(_fuzz_node(nkm[0], nkm[1]), min_size=1, max_size=3),
        },
        optional={
            "experiment": st.fixed_dictionaries(
                {}, optional={"ell": st.integers(1, 2), "budget": st.integers(1, 20)}
            )
        },
    )
)


_WRONG_TYPES = st.sampled_from([None, True, 5, 2.5, "x", [], [1, 2], {}, {"x": 1}])


def _slots(node):
    """Every (container, key) position inside a JSON value, outermost first."""
    if isinstance(node, (dict, list)):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            yield node, key
            yield from _slots(child)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    payload=_FUZZ_METRIC,
    literal=st.none() | st.sampled_from([math.nan, math.inf, -math.inf]),
    wrong=st.none() | st.tuples(st.integers(0, 10**6), _WRONG_TYPES),
)
def test_metric_fuzz_keeps_exit_code_contract(tmp_path, capsys, payload, literal, wrong):
    if literal is not None:  # json writes NaN/Infinity literals for these
        first = payload.get("cubes", payload.get("jets"))[0]
        first.get("cube", first)["x"][0] = literal
    _assert_exit_contract(tmp_path, capsys, "metric", _mutate(payload, None, wrong))


def _assert_exit_contract(tmp_path, capsys, command, payload):
    path = _write(tmp_path, "fuzz.json", payload)
    code = main([command, "--input", path, "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "type" in json.loads(err)["error"]


def _mutate(payload, literal, wrong):
    """Put a NaN/Infinity literal in place of one number, or a value of
    another JSON type in place of one value or of the whole payload."""
    if literal is not None:
        numbers = [(c, k) for c, k in _slots(payload) if type(c[k]) is float]
        if numbers:
            container, key = numbers[literal[0] % len(numbers)]
            container[key] = literal[1]
    if wrong is not None:
        slots = [(None, None), *_slots(payload)]
        container, key = slots[wrong[0] % len(slots)]
        if container is None:
            return wrong[1]
        container[key] = wrong[1]
    return payload


_FUZZ_LITERAL = st.none() | st.tuples(
    st.integers(0, 10**6), st.sampled_from([math.nan, math.inf, -math.inf])
)
_FUZZ_WRONG = st.none() | st.tuples(st.integers(0, 10**6), _WRONG_TYPES)


@settings(
    max_examples=75,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_FUZZ_CHECK, literal=_FUZZ_LITERAL, wrong=_FUZZ_WRONG)
def test_check_fuzz_keeps_exit_code_contract(tmp_path, capsys, payload, literal, wrong):
    _assert_exit_contract(tmp_path, capsys, "check", _mutate(payload, literal, wrong))


@settings(
    max_examples=75,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_FUZZ_SELECT, literal=_FUZZ_LITERAL, wrong=_FUZZ_WRONG)
def test_select_fuzz_keeps_exit_code_contract(tmp_path, capsys, payload, literal, wrong):
    _assert_exit_contract(tmp_path, capsys, "select", _mutate(payload, literal, wrong))


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _wide_table_metric(draw):
    """A table modulus whose knots span up to 24 decades, and two cubes
    inside its range, down to 1e-8 of its last knot."""
    m = draw(st.integers(1, 2))
    t = draw(_log_uniform(-6.0, 0.0))
    knots = [(t, t * draw(_log_uniform(-1.0, 1.0)))]
    for _ in range(draw(st.integers(1, 3))):
        ratio = draw(_log_uniform(0.1, 6.0))
        knots.append((knots[-1][0] * ratio, knots[-1][1] * ratio ** draw(st.floats(0.0, m))))
    top = knots[-1][0]
    cube = st.fixed_dictionaries(
        {
            "x": st.lists(st.floats(-1.0, 1.0).map(lambda c: c * top / 5.0), min_size=1, max_size=1),
            "r": _log_uniform(-8.0, -0.7).map(lambda c: c * top),
        }
    )
    omega = {"family": "table", "m": m, "knots": [list(k) for k in knots]}
    return {"omega": omega, "cubes": draw(st.lists(cube, min_size=2, max_size=2))}


_WIDE_POWERLOG_METRIC = st.fixed_dictionaries(
    {
        "omega": st.sampled_from(POWERLOG_GRID).map(
            lambda qm: {"family": "powerlog", "q": qm[0], "m": qm[1]}
        ),
        "cubes": st.lists(
            st.fixed_dictionaries(
                {
                    "x": st.lists(
                        st.tuples(st.sampled_from([-1.0, 1.0]), _log_uniform(-300.0, 300.0)).map(
                            lambda sx: sx[0] * sx[1]
                        ),
                        min_size=1,
                        max_size=1,
                    ),
                    "r": _log_uniform(-300.0, 300.0),
                }
            ),
            min_size=2,
            max_size=2,
        ),
    }
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=st.one_of(_WIDE_POWERLOG_METRIC, _wide_table_metric()))
def test_metric_fuzz_wide_range_matches_exact_integrals(tmp_path, capsys, payload):
    """weighted_cube_distance on powerlog and table moduli over spans up to
    1e600 in scale, against integrals from exact antiderivatives; exit 3
    exactly where the integral is beyond the float range."""
    mod = modulus_from_dict(payload["omega"])
    q1, q2 = (cube_from_dict(c) for c in payload["cubes"])
    v, _, reach = pair_scales(q1, q2)
    if q1 == q2:
        exact = 0.0
    elif mod.family == "table":
        exact = table_exact(mod, v, reach)
    else:
        exact = powerlog_exact(mod.q, mod.m, v, reach)
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    capsys.readouterr()
    if math.isinf(exact):
        assert code == 3
    else:
        assert code == 0
        got = json.loads(text)["weighted_cube_distance"]
        assert got == pytest.approx(exact, rel=1e-12)
