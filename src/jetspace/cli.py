"""Command-line surface: metric queries, trace checks, selection solves,
property suites, and the counterexample table.

All outputs are deterministic functions of (arguments, input files, seed);
floats are printed with 17 significant digits so reports round-trip exactly.
Exit codes: 0 when every requested check passes, 1 when a property suite
fails, 2 on input or usage errors, 3 when a computation fails numerically
(overflow, division by zero, or disagreeing computation routes).  Codes 2 and
3 come with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import serialize as ser
from .cubes import (
    cube_distance,
    cube_family,
    cube_to_halfspace,
    dyadic_radii,
    poincare_distance,
    weighted_cube_distance,
)
from .geodesic import d_lower, d_upper, interpolating_candidates
from .jets import jet_distance
from .selection import best_selection, counterexample_family, finiteness_experiment
from .suites import DEFAULT_SEED, run_all
from .whitney import check_conditions, fit_field, limit_jet, lo_seminorm, star_norm


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "json"
    seed: int = DEFAULT_SEED
    trials: int | None = None
    tol: float | None = None
    imax: int = 8
    radii_levels: int = 3
    interpolate_center: bool = True
    experiment_ell: int | None = None


def _finite_float(text: str) -> float:
    """Parse a JSON number (integers too, so one beyond the float range is
    caught) or NaN/Infinity literal, rejecting non-finite values."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in input")
    return value


def _load_input(config: RunConfig) -> dict:
    if not config.input_path:
        raise ValueError("this command needs --input")
    with open(config.input_path, "r", encoding="utf-8") as fh:
        data = json.load(
            fh, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_finite_float
        )
    return ser.as_object(data, "input")


def _emit(config: RunConfig, payload: dict, csv_text: str | None) -> None:
    if config.fmt == "csv":
        if csv_text is None:
            raise ValueError("no CSV projection for this command")
        text = csv_text
    else:
        text = ser.dumps(payload)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_metric(config: RunConfig) -> int:
    data = _load_input(config)
    mod = ser.modulus_from_dict(data["omega"])
    payload: dict = {"omega": ser.modulus_to_dict(mod)}
    if "jets" in data:
        jets = [ser.jet_from_dict(j) for j in ser.as_array(data["jets"], "jets")]
        if len(jets) != 2:
            raise ValueError("metric needs exactly two jets")
        q1, q2 = jets[0].cube, jets[1].cube
        candidates = ser.as_array(data.get("candidates", []), "candidates")
        candidates = [ser.jet_from_dict(j) for j in candidates]
        if not candidates:
            candidates = interpolating_candidates(jets[0], jets[1], count=3)
    elif "cubes" in data:
        cubes = [ser.cube_from_dict(c) for c in ser.as_array(data["cubes"], "cubes")]
        if len(cubes) != 2:
            raise ValueError("metric needs exactly two cubes")
        q1, q2 = cubes
    else:
        raise ValueError("metric input needs 'jets' or 'cubes'")
    payload["cube_distance"] = cube_distance(q1, q2)
    payload["weighted_cube_distance"] = weighted_cube_distance(mod, q1, q2)
    payload["poincare_distance"] = poincare_distance(
        cube_to_halfspace(q1), cube_to_halfspace(q2)
    )
    if "jets" in data:
        payload["jet_distance"] = jet_distance(mod, jets[0], jets[1], cross_check=True)
        payload["geodesic_lower"] = d_lower(mod, jets[0], jets[1])
        payload["geodesic_upper"] = d_upper(mod, jets[0], jets[1], candidates)
    rows = [(key, val) for key, val in payload.items() if isinstance(val, float)]
    _emit(config, payload, ser.write_csv(("quantity", "value"), rows))
    return 0


def cmd_check(config: RunConfig) -> int:
    data = _load_input(config)
    sample, mod, k, m = ser.sample_set_from_dict(data)
    if "radii" in data:
        radii = ser.as_numbers(data["radii"], "radii")
    else:
        levels = ser.as_int(data.get("radii_levels", config.radii_levels), "radii_levels")
        radii = dyadic_radii(sample.points, levels)
    interp = bool(data.get("interpolate_center", config.interpolate_center))
    cubes = cube_family(sample.points, radii)
    field = fit_field(sample, cubes, k=k, m=m, mod=mod, interpolate_center=interp)
    mode = "center-interpolating best fit" if interp else "unconstrained best fit"
    report = check_conditions(sample, field, mod, k, fit_mode=mode)
    lo = lo_seminorm(field, mod, report.pair_ratios)
    sn = star_norm(field, k)
    limits = []
    if len(radii) >= 3:
        for x in sample.points:
            res = limit_jet(field, mod, x, k)
            limits.append(
                {
                    "x": list(x),
                    "poly": ser.poly_to_dict(res.poly),
                    "envelope_constant": res.envelope_constant,
                }
            )
    payload = {
        "report": ser.check_report_to_dict(report),
        "lo_seminorm": {"value": lo.value, "lower": lo.lower, "upper": lo.upper},
        "star_norm": {"value": sn.value, "empty_sup": sn.empty_sup},
        "lo_norm_full": sn.value + lo.value,
        "limit_jets": limits,
        "field": ser.poly_field_to_dict(field),
    }
    # CSV projection: one row per ordered cube pair with its worst ratio
    rows = [
        (i, j, worst)
        for i, row in enumerate(report.pair_ratios.tolist())
        for j, worst in enumerate(row)
        if i != j
    ]
    _emit(config, payload, ser.write_csv(("cube_i", "cube_j", "worst_ratio"), rows))
    return 0


def cmd_select(config: RunConfig) -> int:
    data = _load_input(config)
    inst = ser.selection_instance_from_dict(data)
    result = best_selection(inst)
    payload: dict = {
        "status": result.status,
        "lambda_star": result.lam,
        "box_active": result.box_active,
        "polys": [ser.poly_to_dict(p) for p in result.polys],
        "geodesic_note": (
            "the pairwise scale equals the geodesic scale up to a factor "
            "of at most e^n"
        ),
    }
    exp = ser.as_object(data.get("experiment", {}), "experiment")
    ell = config.experiment_ell
    if ell is None and exp.get("ell") is not None:
        ell = ser.as_int(exp["ell"], "experiment ell")
    if ell is not None or "experiment" in data:
        rep = finiteness_experiment(
            inst,
            ell=ell,
            budget=ser.as_int(exp.get("budget", 5000), "experiment budget"),
            seed=config.seed,
        )
        payload["experiment"] = {
            "subset_size_bound": rep.subset_size_bound,
            "gamma_hat": rep.gamma_hat,
            "lambda_full": rep.lam_full,
            "max_subset_lambda": rep.max_subset_lam,
            "argmax_subset": list(rep.argmax_subset),
            "subset_count": rep.subset_count,
            "exhaustive": rep.exhaustive,
        }
    rows = [("lambda_star", result.lam)]
    if "experiment" in payload:
        rows.append(("gamma_hat", payload["experiment"]["gamma_hat"]))
    _emit(config, payload, ser.write_csv(("quantity", "value"), rows))
    return 0


def cmd_properties(config: RunConfig) -> int:
    results = run_all(seed=config.seed, trials=config.trials, slack=config.tol)
    all_passed = all(r.passed for r in results)
    payload = {
        "seed": config.seed,
        "trials_override": config.trials,
        "suites": [
            {
                "name": r.name,
                "trials": r.trials,
                "failures": r.failures,
                "metric": r.metric,
                "worst": r.worst,
                "detail": r.detail,
                "witnesses": list(r.witnesses),
            }
            for r in results
        ],
        "all_passed": all_passed,
    }
    rows = [(r.name, r.trials, r.failures, r.worst) for r in results]
    _emit(
        config,
        payload,
        ser.write_csv(("suite", "trials", "failures", "worst"), rows),
    )
    return 0 if all_passed else 1


def cmd_counterexample(config: RunConfig) -> int:
    rows = counterexample_family(config.imax)
    payload = {
        "rows": [
            {"i": r.i, "step_distance": r.step_distance, "log_distance": r.log_distance}
            for r in rows
        ],
        "note": (
            "step distances shrink to zero while log distances grow without "
            "bound: the two cube scales cannot be monotonically reconciled"
        ),
    }
    csv_rows = [(r.i, r.step_distance, r.log_distance) for r in rows]
    _emit(
        config,
        payload,
        ser.write_csv(("i", "step_distance", "log_distance"), csv_rows),
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetspace",
        description=(
            "hyperbolic cube metrics, jet quasi-distances, trace-condition "
            "checks, and Lipschitz selection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input JSON path")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help=f"random seed (default {DEFAULT_SEED})",
        )
        p.add_argument("--trials", type=int, help="trial-count override")
        p.add_argument(
            "--tol",
            type=float,
            help="relative-slack override for the inequality property suites",
        )

    p = sub.add_parser("metric", help="distances between two cubes or two jets")
    common(p)
    p = sub.add_parser("check", help="trace-condition report for a sample set")
    common(p)
    p.add_argument("--radii-levels", type=int, default=3)
    p.add_argument(
        "--no-interp-center",
        action="store_true",
        help="fit without pinning the value at each cube center",
    )
    p = sub.add_parser("select", help="optimal Lipschitz selection for an instance")
    common(p)
    p.add_argument("--experiment-ell", type=int, help="run the subset experiment")
    p = sub.add_parser("properties", help="run every randomized property suite")
    common(p)
    p = sub.add_parser("counterexample", help="incompatible-scales cube table")
    common(p)
    p.add_argument("--imax", type=int, default=8)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        fmt=getattr(args, "format", "json"),
        seed=getattr(args, "seed", DEFAULT_SEED),
        trials=getattr(args, "trials", None),
        tol=getattr(args, "tol", None),
        imax=getattr(args, "imax", 8),
        radii_levels=getattr(args, "radii_levels", 3),
        interpolate_center=not getattr(args, "no_interp_center", False),
        experiment_ell=getattr(args, "experiment_ell", None),
    )


_COMMANDS = {
    "metric": cmd_metric,
    "check": cmd_check,
    "select": cmd_select,
    "properties": cmd_properties,
    "counterexample": cmd_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    try:
        return _COMMANDS[config.command](config)
    except (ValueError, KeyError, OSError) as exc:
        code, error = 2, exc
    except (ArithmeticError, AssertionError) as exc:
        code, error = 3, exc
    sys.stderr.write(
        ser.dumps({"error": {"type": type(error).__name__, "message": str(error)}})
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
