"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each jetspace module, replacing the
name in every jetspace module that holds it (so ``from .jets import gauge``
copies are wrapped too), plus a few methods and the ``SUITES`` table.  The
returned ``Patches`` restores every replaced name.

Wrappers record only while an op is open (``Recorder.begin_op``), so output
checks run between ops stay out of the trace.  Coarse calls keep a span
(id, parent, name, start, end) in memory; hot calls only add to per-group
counts and times.  A group's self time is its spans' time minus the time of
the wrapped calls inside them; its inclusive time counts only its outermost
spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

MIB = float(1 << 20)


class Recorder:
    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # frames: [group, start, child_s, span_id]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.gauge_keys: set = set()
        self.ops = 0
        self._op_cubes = 0
        self._op_index = None

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.gauge_keys = set()
        self._op_cubes = self.counts["cubes.cubes"]
        self._op_index = index
        self.stack = [["op", perf_counter(), 0.0, len(self.spans)]]
        self.spans.append(None)
        self.active = True

    def end_op(self, command: str) -> None:
        self.active = False
        group, start, _, span_id = self.stack.pop()
        self.spans[span_id] = (span_id, None, group, start, perf_counter(), self._op_index)
        self.counts["jets.gauge_distinct"] += len(self.gauge_keys)
        if command == "check":
            # cmd_check's CSV projection sweeps every ordered cube pair once
            cubes = self.counts["cubes.cubes"] - self._op_cubes
            self.counts["whitney.pairs"] += cubes * (cubes - 1)
        self.ops += 1

    # -- spans --------------------------------------------------------------

    def enter(self, group: str, coarse: bool) -> list:
        span_id = None
        if coarse:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [group, perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        self.depth[group] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        group, start, child, span_id = frame
        dur = end - start
        self.calls[group] += 1
        self.self_s[group] += dur - child
        self.depth[group] -= 1
        if not self.depth[group]:
            self.incl_s[group] += dur
        parent = self.stack[-1]
        parent[2] += dur
        if span_id is not None:
            self.spans[span_id] = (span_id, parent[3], group, start, end, self._op_index)


# ---------------------------------------------------------------------------
# hooks: extra accounting at a wrapped call.  A ``before`` hook gets
# (rec, args, kwargs) and may return replacement (args, kwargs); an ``after``
# hook gets (rec, result).


def _count(key: str):
    def hook(rec, args, kwargs):
        rec.counts[key] += 1

    return hook


def _gauge_key(rec, args, kwargs):
    mod, top, alpha, t, v = args
    order = sum(alpha) if isinstance(alpha, (tuple, list)) else int(alpha)
    rec.gauge_keys.add((mod, top, order, t, v))


def _count_evals(key: str):
    """Replace the integrand/monotone function argument by a counting one."""

    def hook(rec, args, kwargs):
        f = args[0]
        counts = rec.counts

        def counted(x):
            counts[key] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    return hook


def _sweep_pairs(field_pos: int):
    def hook(rec, args, kwargs):
        n = len(args[field_pos].entries)
        rec.counts["whitney.pairs"] += n * (n - 1)

    return hook


def _lp_shape(rec, args, kwargs):
    problem = args[0]
    ineq = problem.a_ub.shape[0]
    rows = ineq + problem.a_eq.shape[0]
    cols = problem.objective.size
    rec.counts["lp.rows"] += rows
    rec.counts["lp.cols"] += cols
    rec.maxima["lp.max_rows"] = max(rec.maxima["lp.max_rows"], rows)
    # computed: the dense tableau without artificial columns
    mib = 8 * rows * (2 * cols + ineq + 1) / MIB
    rec.maxima["lp.tableau_mib"] = max(rec.maxima["lp.tableau_mib"], mib)


def _lp_status(rec, result):
    if result.status != "optimal":
        rec.counts["lp.nonoptimal"] += 1


def _cube_count(rec, result):
    rec.counts["cubes.cubes"] += len(result)


def _bytes_out(rec, result):
    rec.counts["serialize.bytes_out"] += len(result.encode("utf-8"))


# ---------------------------------------------------------------------------
# what is wrapped


@dataclass(frozen=True)
class Target:
    owner: str  # module path, optionally ":Class"
    names: tuple[str, ...]
    group: str
    coarse: bool = True
    before: Callable | None = None
    after: Callable | None = None
    count_only: bool = False  # counter without a span


_GEODESIC = (
    "chain_length", "d_upper", "d_lower", "verify_chain_bound",
    "interval_chain_inequality", "gauge_chain_inequality", "interpolating_candidates",
)
_DISTANCE = (
    "jet_distance", "jet_distance_componentwise", "jet_distance_via_value_gauge",
    "zygmund_distance", "sobolev_distance",
)
_SELECTION = (
    "best_selection", "relaxed_feasible", "finiteness_experiment", "selection_field",
    "counterexample_family",
)

TARGETS = (
    Target("jetspace.cli", ("main",), "cli"),
    Target(
        "jetspace.serialize",
        (
            "sample_set_from_dict", "selection_instance_from_dict", "jet_from_dict",
            "cube_from_dict", "modulus_from_dict", "poly_from_dict",
        ),
        "serialize.parse",
        coarse=False,
    ),
    Target("jetspace.serialize", ("dumps",), "serialize.dumps", after=_bytes_out),
    Target("jetspace.cubes", ("cube_family",), "cubes.family", after=_cube_count),
    Target("jetspace.poly:Poly", ("deriv_eval",), "poly.deriv_eval", coarse=False),
    Target("jetspace.poly:Poly", ("__post_init__",), "poly.objects", count_only=True),
    Target("jetspace.poly:Poly", ("__sub__",), "poly.sub_calls", count_only=True),
    Target("jetspace.jets", ("gauge",), "jets.gauge", coarse=False, before=_gauge_key),
    Target("jetspace.jets", ("gauge_inverse",), "jets.gauge_inverse", coarse=False),
    Target("jetspace.jets", _DISTANCE, "jets.distance", coarse=False),
    Target("jetspace.modulus:Modulus", ("integral_core",), "modulus.integral", coarse=False),
    Target(
        "jetspace.modulus:Modulus", ("core_integral_inverse",), "modulus.inverse", coarse=False
    ),
    Target(
        "jetspace.numerics",
        ("adaptive_simpson",),
        "numerics.quad",
        coarse=False,
        before=_count_evals("numerics.quad_evals"),
    ),
    Target(
        "jetspace.numerics",
        ("invert_increasing",),
        "numerics.bisect",
        coarse=False,
        before=_count_evals("numerics.bisect_evals"),
    ),
    Target("jetspace.geodesic", _GEODESIC, "geodesic", coarse=False),
    Target("jetspace.whitney", ("fit_field",), "whitney.fit"),
    Target(
        "jetspace.whitney",
        ("local_fit", "jet_fit"),
        "whitney.fit",
        before=_count("whitney.fits"),
    ),
    Target("jetspace.whitney", ("check_conditions",), "whitney.check", before=_sweep_pairs(1)),
    Target(
        "jetspace.whitney", ("lo_seminorm",), "whitney.lo_seminorm", before=_sweep_pairs(0)
    ),
    Target("jetspace.whitney", ("star_norm",), "whitney.star_norm"),
    Target("jetspace.whitney", ("limit_jet",), "whitney.limit_jet"),
    Target("jetspace.whitney", ("lipschitz_forms",), "whitney.lipschitz_forms"),
    Target("jetspace.lp", ("lp_solve",), "lp.solve", before=_lp_shape, after=_lp_status),
    Target("jetspace.lp:LPBuilder", ("build",), "lp.build"),
    Target("jetspace.selection", _SELECTION, "selection"),
    Target(
        "jetspace.selection",
        ("membership_block",),
        "selection",
        coarse=False,
        before=_count("selection.membership_blocks"),
    ),
)


def _wrap(rec: Recorder, fn: Callable, target: Target) -> Callable:
    group, coarse, before, after = target.group, target.coarse, target.before, target.after

    if target.count_only:

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            if rec.active:
                rec.counts[group] += 1
            return fn(*args, **kwargs)

        return counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if before is not None:
            changed = before(rec, args, kwargs)
            if changed is not None:
                args, kwargs = changed
        frame = rec.enter(group, coarse)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


@dataclass
class Patches:
    """Every replaced name, with its original value, in patch order."""

    attrs: list = field(default_factory=list)  # (owner object, name, original)
    items: list = field(default_factory=list)  # (dict, key, original)

    def restore(self) -> None:
        for owner, name, orig in reversed(self.attrs):
            setattr(owner, name, orig)
        for table, key, orig in reversed(self.items):
            table[key] = orig
        self.attrs.clear()
        self.items.clear()


def _jetspace_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "jetspace" or name.startswith("jetspace."))
    ]


def install(rec: Recorder) -> Patches:
    """Wrap every target; return the patches that undo it."""
    import jetspace.cli  # noqa: F401  (loads every module that gets patched)
    from jetspace import suites

    patches = Patches()
    modules = _jetspace_modules()
    try:
        for target in TARGETS:
            mod_name, _, cls_name = target.owner.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                for name in target.names:
                    orig = cls.__dict__[name]
                    patches.attrs.append((cls, name, orig))
                    setattr(cls, name, _wrap(rec, orig, target))
                continue
            for name in target.names:
                orig = getattr(owner, name)
                wrapper = _wrap(rec, orig, target)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patches.attrs.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for name, fn in list(suites.SUITES.items()):
            patches.items.append((suites.SUITES, name, fn))
            suites.SUITES[name] = _wrap(rec, fn, Target("jetspace.suites", (name,), f"suites.{name}"))
    except BaseException:
        patches.restore()
        raise
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics


SUITE_NAMES = (
    "triangle_cube", "triangle_weighted", "same_poly_identity", "zygmund_agreement",
    "sobolev_agreement", "value_gauge_agreement", "chain_scaling", "interval_chain",
    "derivative_chain", "gauge_shift", "gauge_chain", "point_shift_scaling",
    "lipschitz_forms", "halfspace_equivalence", "scale_monotonicity", "geodesic_sandwich",
)

# metric name -> (unit, source): per-op self time "self:<group>", per-op
# outermost inclusive time "incl:<group>", per-op calls "calls:<group>",
# per-op counter "count:<key>", or largest value "max:<key>"
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.self_s": ("s/op", "self:cli"),
    "serialize.parse_s": ("s/op", "self:serialize.parse"),
    "serialize.dumps_s": ("s/op", "self:serialize.dumps"),
    "serialize.bytes_out": ("bytes/op", "count:serialize.bytes_out"),
    "cubes.family_s": ("s/op", "self:cubes.family"),
    "cubes.cubes": ("count/op", "count:cubes.cubes"),
    "poly.deriv_eval_calls": ("count/op", "calls:poly.deriv_eval"),
    "poly.deriv_eval_s": ("s/op", "self:poly.deriv_eval"),
    "poly.objects": ("count/op", "count:poly.objects"),
    "poly.sub_calls": ("count/op", "count:poly.sub_calls"),
    "jets.gauge_calls": ("count/op", "calls:jets.gauge"),
    "jets.gauge_distinct": ("count/op", "count:jets.gauge_distinct"),
    "jets.gauge_s": ("s/op", "self:jets.gauge"),
    "jets.gauge_inverse_calls": ("count/op", "calls:jets.gauge_inverse"),
    "jets.gauge_inverse_s": ("s/op", "self:jets.gauge_inverse"),
    "jets.distance_calls": ("count/op", "calls:jets.distance"),
    "jets.distance_s": ("s/op", "self:jets.distance"),
    "modulus.integral_calls": ("count/op", "calls:modulus.integral"),
    "modulus.integral_s": ("s/op", "self:modulus.integral"),
    "modulus.inverse_calls": ("count/op", "calls:modulus.inverse"),
    "modulus.inverse_s": ("s/op", "self:modulus.inverse"),
    "numerics.quad_calls": ("count/op", "calls:numerics.quad"),
    "numerics.quad_evals": ("count/op", "count:numerics.quad_evals"),
    "numerics.quad_s": ("s/op", "self:numerics.quad"),
    "numerics.bisect_calls": ("count/op", "calls:numerics.bisect"),
    "numerics.bisect_evals": ("count/op", "count:numerics.bisect_evals"),
    "numerics.bisect_s": ("s/op", "self:numerics.bisect"),
    "geodesic.calls": ("count/op", "calls:geodesic"),
    "geodesic.s": ("s/op", "self:geodesic"),
    "whitney.fit_s": ("s/op", "self:whitney.fit"),
    "whitney.fits": ("count/op", "count:whitney.fits"),
    "whitney.check_s": ("s/op", "self:whitney.check"),
    "whitney.lo_seminorm_s": ("s/op", "self:whitney.lo_seminorm"),
    "whitney.star_norm_s": ("s/op", "self:whitney.star_norm"),
    "whitney.limit_jet_s": ("s/op", "self:whitney.limit_jet"),
    "whitney.lipschitz_forms_s": ("s/op", "self:whitney.lipschitz_forms"),
    "whitney.pairs": ("count/op", "count:whitney.pairs"),
    "lp.solves": ("count/op", "calls:lp.solve"),
    "lp.solve_s": ("s/op", "self:lp.solve"),
    "lp.build_s": ("s/op", "self:lp.build"),
    "lp.rows": ("count/op", "count:lp.rows"),
    "lp.cols": ("count/op", "count:lp.cols"),
    "lp.max_rows": ("count", "max:lp.max_rows"),
    "lp.tableau_mib": ("MiB", "max:lp.tableau_mib"),
    "lp.nonoptimal": ("count/op", "count:lp.nonoptimal"),
    "selection.s": ("s/op", "incl:selection"),
    "selection.build_s": ("s/op", "self:selection"),
    "selection.membership_blocks": ("count/op", "count:selection.membership_blocks"),
    **{f"suites.{name}_s": ("s/op", f"incl:suites.{name}") for name in SUITE_NAMES},
}

# counts derived from shapes rather than observed one by one
COMPUTED = ("whitney.pairs", "lp.tableau_mib")


def layer_metrics(rec: Recorder) -> dict[str, dict]:
    """Every LAYER_METRICS entry; sums are divided by the traced op count."""
    ops = max(rec.ops, 1)
    tables = {
        "self": rec.self_s,
        "incl": rec.incl_s,
        "calls": rec.calls,
        "count": rec.counts,
    }
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        kind, _, key = source.partition(":")
        if kind == "max":
            value = float(rec.maxima[key])
        else:
            value = tables[kind][key] / ops
        out[name] = {"value": value, "unit": unit}
    return out
