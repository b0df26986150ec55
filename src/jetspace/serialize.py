"""JSON/CSV interchange for every domain object.

JSON is the canonical format; floats are printed with 17 significant digits
so every value round-trips exactly.  CSV is a flat projection for tabular
reports.  Multi-index keys serialize as JSON arrays of exponents
(e.g. "[1,0]").
"""

from __future__ import annotations

import functools
import io
import json
import math
from typing import Any, Iterable, Sequence

from .cubes import Cube
from .jets import Jet
from .modulus import Modulus
from .poly import Poly
from .selection import ConvexSetSpec, SelectionInstance
from .whitney import CheckReport, PolyField, SampleSet


# ---------------------------------------------------------------------------
# float-exact JSON writer


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def dumps(obj: Any) -> str:
    """Serialize nested dict/list structures with round-trip-exact floats."""
    out = io.StringIO()
    _write(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _write(obj: Any, out: io.StringIO, level: int) -> None:
    pad = "  " * (level + 1)
    closing = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.write(pad)
            out.write(json.dumps(str(key)))
            out.write(": ")
            _write(val, out, level + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(closing + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, val in enumerate(seq):
            out.write(pad)
            _write(val, out, level + 1)
            out.write(",\n" if i < len(seq) - 1 else "\n")
        out.write(closing + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, float):
        out.write(_fmt_float(obj))
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Flat CSV projection with round-trip-exact floats and \\n line ends."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(_fmt_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# decoded JSON of the wrong type is an input error (ValueError), not a
# TypeError or AttributeError from the code that uses it


def as_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def as_array(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def as_number(value: Any, what: str) -> float:
    """A JSON number as float; strings such as "nan" are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, not {type(value).__name__}")
    return float(value)


def as_numbers(value: Any, what: str) -> tuple[float, ...]:
    return tuple(as_number(v, what) for v in as_array(value, what))


def as_bool(value: Any, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON boolean, not {type(value).__name__}")
    return value


def as_int(value: Any, what: str) -> int:
    if not as_number(value, what).is_integer():
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# domain objects <-> dicts


def modulus_to_dict(mod: Modulus) -> dict:
    if mod.family == "table":
        return {"family": "table", "m": mod.m, "knots": [list(k) for k in mod.knots]}
    return {"family": mod.family, "q": mod.q, "m": mod.m}


def modulus_from_dict(d: dict, default_m: int | None = None) -> Modulus:
    d = as_object(d, "omega")
    family = d.get("family")
    m = as_int(d.get("m", default_m), "omega m")
    if default_m is not None and m != default_m:
        raise ValueError("modulus order conflicts with the context order")
    if family == "table":
        knots = [as_numbers(knot, "omega knot") for knot in as_array(d["knots"], "omega knots")]
        return Modulus.table(knots, m)
    if family == "power":
        return Modulus.power(as_number(d["q"], "omega q"), m)
    if family == "powerlog":
        return Modulus.power_log(as_number(d["q"], "omega q"), m)
    raise ValueError(f"unknown modulus family {family!r}")


def cube_to_dict(cube: Cube) -> dict:
    return {"x": list(cube.center), "r": cube.radius}


def cube_from_dict(d: dict) -> Cube:
    d = as_object(d, "cube")
    return Cube(center=as_numbers(d["x"], "cube x"), radius=as_number(d["r"], "cube r"))


def _mi_key(alpha: Sequence[int]) -> str:
    return json.dumps(list(alpha), separators=(",", ":"))


def poly_to_dict(poly: Poly) -> dict:
    items = sorted(poly.coef.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {
        "n": poly.n,
        "L": poly.degree,
        "coef": {_mi_key(a): c for a, c in items},
    }


@functools.lru_cache(maxsize=4096)
def _coef_key(key: str) -> tuple[int, ...]:
    """The multi-index of a coefficient key such as "[1,0]", parsed once per
    distinct key (an exception is raised again on every call, not cached)."""
    return tuple(as_int(v, "coef key") for v in as_numbers(json.loads(key), "coef key"))


def poly_from_dict(d: dict) -> Poly:
    d = as_object(d, "poly")
    coef = {}
    for key, val in as_object(d.get("coef", {}), "poly coef").items():
        coef[_coef_key(key)] = as_number(val, "poly coef")
    return Poly(n=as_int(d["n"], "poly n"), degree=as_int(d["L"], "poly L"), coef=coef)


def jet_to_dict(jet: Jet) -> dict:
    return {"poly": poly_to_dict(jet.poly), "cube": cube_to_dict(jet.cube)}


def jet_from_dict(d: dict) -> Jet:
    d = as_object(d, "jet")
    return Jet(poly=poly_from_dict(d["poly"]), cube=cube_from_dict(d["cube"]))


def sample_set_to_dict(
    sample: SampleSet, mod: Modulus, k: int, m: int
) -> dict:
    points = []
    for i, p in enumerate(sample.points):
        entry: dict[str, Any] = {"x": list(p)}
        if sample.values is not None:
            entry["f"] = sample.values[i]
        else:
            entry["jet"] = poly_to_dict(sample.jets[i])
        points.append(entry)
    return {
        "n": sample.n,
        "k": k,
        "m": m,
        "omega": modulus_to_dict(mod),
        "points": points,
    }


def sample_set_from_dict(d: dict) -> tuple[SampleSet, Modulus, int, int]:
    d = as_object(d, "sample set")
    n, k, m = (as_int(d[key], key) for key in "nkm")
    mod = modulus_from_dict(d["omega"], default_m=m)
    pts = []
    values: list[float] = []
    jets: list[Poly] = []
    for entry in as_array(d["points"], "points"):
        entry = as_object(entry, "sample point")
        pts.append(as_numbers(entry["x"], "point x"))
        if "f" in entry:
            values.append(as_number(entry["f"], "point f"))
        elif "jet" in entry:
            jets.append(poly_from_dict(entry["jet"]))
        else:
            raise ValueError("sample point needs either 'f' or 'jet'")
    if values and jets:
        raise ValueError("mixing scalar and jet sample data is not supported")
    sample = SampleSet(
        n=n,
        points=tuple(pts),
        values=tuple(values) if values else None,
        jets=tuple(jets) if jets else None,
    )
    return sample, mod, k, m


def convex_set_to_dict(spec: ConvexSetSpec) -> dict:
    return {
        "base": poly_to_dict(spec.base),
        "dirs": [poly_to_dict(d) for d in spec.directions],
        "ineq": [{"a": list(a), "b": b} for a, b in spec.inequalities],
    }


def convex_set_from_dict(d: dict) -> ConvexSetSpec:
    d = as_object(d, "convex set")
    rows = [as_object(row, "set ineq") for row in as_array(d.get("ineq", []), "set ineq")]
    return ConvexSetSpec(
        base=poly_from_dict(d["base"]),
        directions=tuple(poly_from_dict(x) for x in as_array(d.get("dirs", []), "set dirs")),
        inequalities=tuple(
            (as_numbers(row["a"], "ineq a"), as_number(row["b"], "ineq b")) for row in rows
        ),
    )


def selection_instance_to_dict(inst: SelectionInstance) -> dict:
    return {
        "context": {
            "n": inst.n,
            "k": inst.k,
            "m": inst.m,
            "omega": modulus_to_dict(inst.modulus),
        },
        "nodes": [
            {"cube": cube_to_dict(cube), "set": convex_set_to_dict(spec)}
            for spec, cube in inst.nodes
        ],
    }


def selection_instance_from_dict(d: dict) -> SelectionInstance:
    d = as_object(d, "selection instance")
    ctx = as_object(d["context"], "context")
    n, k, m = (as_int(ctx[key], f"context {key}") for key in "nkm")
    mod = modulus_from_dict(ctx["omega"], default_m=m)
    entries = [as_object(node, "node") for node in as_array(d["nodes"], "nodes")]
    nodes = tuple((convex_set_from_dict(e["set"]), cube_from_dict(e["cube"])) for e in entries)
    return SelectionInstance(n=n, k=k, m=m, modulus=mod, nodes=nodes)


def poly_field_to_dict(field: PolyField) -> dict:
    return {
        "n": field.n,
        "k": field.k,
        "m": field.m,
        "entries": [
            {"cube": cube_to_dict(q), "poly": poly_to_dict(p)}
            for q, p in field.entries
        ],
    }


def check_report_to_dict(report: CheckReport) -> dict:
    def stat(s):
        return {"name": s.name, "lambda_hat": s.lambda_hat, "witness": s.witness}

    out: dict[str, Any] = {
        "lambda_hat": report.lambda_hat,
        "conditions": [stat(report.pointwise), stat(report.pairwise)],
    }
    if report.interpolation is not None:
        out["interpolation"] = [
            {"cube": cube_to_dict(q), "residual": res}
            for q, res in report.interpolation
        ]
    out["fit_mode"] = report.fit_mode
    out["notes"] = list(report.notes)
    return out
