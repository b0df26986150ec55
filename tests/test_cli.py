"""End-to-end command-line behavior: schemas, determinism, exit codes."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetspace.cli import main
from jetspace.jets import jet_distance
from jetspace.modulus import Modulus
from jetspace.serialize import jet_from_dict, modulus_from_dict
from test_numerics import bisection_engine, inverting_with


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


def test_select_with_experiment(tmp_path):
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
    payload = {
        "omega": {"family": "powerlog", "q": 1.0, "m": 2},
        "cubes": [{"x": [1e300], "r": 1e-300}, {"x": [0.0], "r": 1.0}],
    }
    path = _write(tmp_path, "in.json", payload)
    assert main(["metric", "--input", path]) == 3
    assert _error(capsys)["type"] == "OverflowError"


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
    # adaptive quadrature per step: 37,094 quadratures for this input
    payload = {
        "omega": {"family": "powerlog", "q": 0.0, "m": 0},
        "jets": [
            {"poly": {"n": 1, "L": 1, "coef": {"[0]": 1e300, "[1]": -1e300}}, "cube": {"x": [0.0], "r": 0.5}},
            {"poly": {"n": 1, "L": 1, "coef": {"[0]": -1e300, "[1]": 1e300}}, "cube": {"x": [1.0], "r": 1.0}},
        ],
    }
    calls = [0]
    integral_core = Modulus.integral_core

    def counted(self, a, b):
        calls[0] += 1
        return integral_core(self, a, b)

    monkeypatch.setattr(Modulus, "integral_core", counted)
    code, text = _run(tmp_path, ["metric", "--input", _write(tmp_path, "in.json", payload)])
    assert code == 0
    assert calls[0] < 1000
    mod = modulus_from_dict(payload["omega"])
    jets = [jet_from_dict(j) for j in payload["jets"]]
    with inverting_with(bisection_engine):
        oracle = jet_distance(mod, *jets)
    assert json.loads(text)["jet_distance"] == pytest.approx(oracle, rel=1e-12)


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
    keys = ["[0]", "[1]"] if n == 1 else ["[0,0]", "[1,0]", "[0,1]"]
    coef = st.dictionaries(st.sampled_from(keys), _fuzz_floats(-4.0, 4.0))
    poly = st.fixed_dictionaries({"n": st.just(n), "L": st.just(1), "coef": coef})
    return st.fixed_dictionaries({"poly": poly, "cube": _fuzz_cube(n)})


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
    if wrong is not None:  # one value, or the whole payload, of another JSON type
        slots = [(None, None), *_slots(payload)]
        container, key = slots[wrong[0] % len(slots)]
        if container is None:
            payload = wrong[1]
        else:
            container[key] = wrong[1]
    path = _write(tmp_path, "fuzz.json", payload)
    code = main(["metric", "--input", path, "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)
    err = capsys.readouterr().err
    if code:
        assert "type" in json.loads(err)["error"]
