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
import functools
import json
import math
import os
import stat
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from . import serialize as ser
from .cubes import (
    cube_distance,
    cube_family,
    dyadic_radii,
    poincare_distance,
    weighted_cube_distance,
)
from .geodesic import d_lower, d_upper, interpolating_candidates
from .jets import jet_distance
from .selection import SUBSET_BUDGET, best_selection, counterexample_family, finiteness_experiment
from .suites import DEFAULT_SEED, run_all
from .whitney import check_conditions, fit_field, limit_jet, lo_seminorm, pairwise_sweep, star_norm


def _finite_float(text: str) -> float:
    """Parse a JSON number (integers too, so one beyond the float range is
    caught) or NaN/Infinity literal, rejecting non-finite values."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in input")
    return value


def _load_input(args: argparse.Namespace) -> dict:
    if not args.input:
        raise ValueError("this command needs --input")
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            data = json.load(
                fh, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_finite_float
            )
        except RecursionError as exc:
            raise ValueError("input JSON is nested too deeply") from exc
    return ser.as_object(data, "input")


def _emit(
    args: argparse.Namespace,
    payload: dict,
    csv_header: Sequence[str],
    csv_rows: Iterable[Sequence[Any]],
) -> None:
    """Write the payload as JSON, or its CSV projection, formatted only when
    ``--format csv`` asks for it (the rows may be a lazy iterable).

    An existing output file is overwritten in place and then cut to the new
    length, not truncated to zero first: on a virtual ext4 disk mounted with
    ``discard`` (2-core VM), truncating a file whose blocks were already
    written back took 20-35 ms, against 0.1 ms for the overwrite."""
    if args.format == "csv":
        text = ser.write_csv(csv_header, csv_rows)
    else:
        text = ser.dumps(payload)
    if args.output:
        fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_metric(args: argparse.Namespace) -> int:
    data = _load_input(args)
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
    payload["poincare_distance"] = poincare_distance(q1, q2)
    if "jets" in data:
        payload["jet_distance"] = jet_distance(mod, jets[0], jets[1], cross_check=True)
        payload["geodesic_lower"] = d_lower(mod, jets[0], jets[1])
        payload["geodesic_upper"] = d_upper(mod, jets[0], jets[1], candidates)
    rows = ((key, val) for key, val in payload.items() if isinstance(val, float))
    _emit(args, payload, ("quantity", "value"), rows)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    data = _load_input(args)
    sample, mod, k, m = ser.sample_set_from_dict(data)
    if "radii" in data:
        radii = ser.as_numbers(data["radii"], "radii")
    else:
        levels = ser.as_int(data.get("radii_levels", args.radii_levels), "radii_levels")
        radii = dyadic_radii(sample.points, levels)
    interp = ser.as_bool(
        data.get("interpolate_center", not args.no_interp_center), "interpolate_center"
    )
    cubes = cube_family(sample.points, radii)
    field = fit_field(sample, cubes, k=k, m=m, mod=mod, interpolate_center=interp)
    mode = "center-interpolating best fit" if interp else "unconstrained best fit"
    report = check_conditions(sample, field, mod, fit_mode=mode)
    lo = lo_seminorm(field, mod)
    sn = star_norm(field)
    limits = []
    if len(set(radii)) >= 3:  # cube_family drops a repeated radius
        for x in sample.points:
            res = limit_jet(field, mod, x)
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
    rows = (
        (i, j, worst)
        for i, row in enumerate(pairwise_sweep(field, mod)[0].tolist())
        for j, worst in enumerate(row)
        if i != j
    )
    _emit(args, payload, ("cube_i", "cube_j", "worst_ratio"), rows)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    data = _load_input(args)
    inst = ser.selection_instance_from_dict(data)
    result = best_selection(inst)
    payload: dict = {
        "status": result.status,
        "lambda_star": result.lam if result.status == "optimal" else None,  # NaN is not JSON
        "box_active": result.box_active,
        "polys": [ser.poly_to_dict(p) for p in result.polys],
        "geodesic_note": (
            "the pairwise scale equals the geodesic scale up to a factor "
            "of at most e^n"
        ),
    }
    exp = ser.as_object(data.get("experiment", {}), "experiment")
    ell = args.experiment_ell
    if ell is None and exp.get("ell") is not None:
        ell = ser.as_int(exp["ell"], "experiment ell")
    if ell is not None or "experiment" in data:
        rep = finiteness_experiment(
            inst,
            ell=ell,
            budget=ser.as_int(exp.get("budget", SUBSET_BUDGET), "experiment budget"),
            seed=args.seed,
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
    _emit(args, payload, ("quantity", "value"), rows)
    return 0


def cmd_properties(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed, trials=args.trials, slack=args.tol)
    all_passed = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "trials_override": args.trials,
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
    rows = ((r.name, r.trials, r.failures, r.worst) for r in results)
    _emit(args, payload, ("suite", "trials", "failures", "worst"), rows)
    return 0 if all_passed else 1


def cmd_counterexample(args: argparse.Namespace) -> int:
    rows = counterexample_family(args.imax)
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
    csv_rows = ((r.i, r.step_distance, r.log_distance) for r in rows)
    _emit(args, payload, ("i", "step_distance", "log_distance"), csv_rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about twenty parses."""
    parser = argparse.ArgumentParser(
        prog="jetspace",
        description=(
            "hyperbolic cube metrics, jet quasi-distances, trace-condition "
            "checks, and Lipschitz selection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, about: str, *, reads_input: bool, seeded: bool = False):
        p = sub.add_parser(name, help=about)
        if reads_input:
            p.add_argument("--input", help="input JSON path")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if seeded:
            p.add_argument(
                "--seed",
                type=int,
                default=DEFAULT_SEED,
                help=f"random seed (default {DEFAULT_SEED})",
            )
        return p

    add("metric", "distances between two cubes or two jets", reads_input=True)
    p = add("check", "trace-condition report for a sample set", reads_input=True)
    p.add_argument("--radii-levels", type=int, default=3)
    p.add_argument(
        "--no-interp-center",
        action="store_true",
        help="fit without pinning the value at each cube center",
    )
    p = add(
        "select", "optimal Lipschitz selection for an instance", reads_input=True, seeded=True
    )
    p.add_argument("--experiment-ell", type=int, help="run the subset experiment")
    p = add("properties", "run every randomized property suite", reads_input=False, seeded=True)
    p.add_argument("--trials", type=int, help="trial-count override")
    p.add_argument(
        "--tol",
        type=float,
        help="relative-slack override for the inequality property suites",
    )
    p = add("counterexample", "incompatible-scales cube table", reads_input=False)
    p.add_argument("--imax", type=int, default=8)
    return parser


_COMMANDS = {
    "metric": cmd_metric,
    "check": cmd_check,
    "select": cmd_select,
    "properties": cmd_properties,
    "counterexample": cmd_counterexample,
}


@np.errstate(all="ignore")  # no numpy warning on stderr; "raise" contexts inside still raise
def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
