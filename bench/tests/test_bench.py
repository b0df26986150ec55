"""Tests of the benchmark's own code: input generators, output checks, the
tracing wrappers and their counts."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "check-2d": {"points": 4, "family": "power", "radii_levels": 2},
    "check-2d-powerlog": {"points": 3, "family": "powerlog", "radii_levels": 2},
    "select-1d": {"nodes": 4},
    "metric-jets": {"candidates": 3},
    "properties": {"trials": 20},
}


def _tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], params=TINY[name])


def _inputs(ops) -> list:
    out = []
    for op in ops:
        if op.input_path is None:
            out.append(op.argv[:-2])  # the argv minus the output path
        else:
            out.append(Path(op.input_path).read_bytes())
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    first = _inputs(workloads.prepare_ops(wl, 5, str(tmp_path / "a"), count=3))
    again = _inputs(workloads.prepare_ops(wl, 5, str(tmp_path / "b"), count=3))
    other = _inputs(workloads.prepare_ops(wl, 6, str(tmp_path / "c"), count=3))
    assert first == again
    assert first != other
    assert len(set(map(repr, first))) == 3  # each op has its own input


def test_workload_sizes_match_their_description(tmp_path):
    sample = workloads.make_input(workloads.WORKLOADS["check-2d"], 1)
    assert len(sample["points"]) == 12 and sample["radii_levels"] == 3
    inst = workloads.make_input(workloads.WORKLOADS["select-1d"], 1)
    assert len(inst["nodes"]) == 24


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_ops_pass_their_check(tmp_path, name):
    wl = _tiny(name)
    for op in workloads.prepare_ops(wl, 3, str(tmp_path), count=2):
        _, reason, digest = bench_run.run_op(wl, op)
        assert reason is None
        assert len(digest) == 64


@pytest.mark.parametrize(
    "name, key, path",
    [
        ("check-2d", "lo_seminorm", ("lo_seminorm", "value")),
        ("select-1d", "lambda_star", ("lambda_star",)),
        ("metric-jets", "geodesic_upper", ("geodesic_upper",)),
    ],
)
def test_output_check_rejects_a_wrong_value(tmp_path, name, key, path):
    wl = _tiny(name)
    op = workloads.prepare_ops(wl, 3, str(tmp_path), count=1)[0]
    assert bench_run.run_op(wl, op).failure is None
    out = json.loads(Path(op.output_path).read_text())
    node = out
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = node[path[-1]] * 1.001 + 1e-3
    Path(op.output_path).write_text(json.dumps(out))
    assert key in workloads.check_output(wl, op, 0)
    assert workloads.check_output(wl, op, 1) == "exit code 1"


def _snapshot() -> dict:
    import jetspace.cli  # noqa: F401
    from jetspace import lp, modulus, poly, suites

    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "jetspace" or name.startswith("jetspace."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
    for cls in (poly.Poly, modulus.Modulus, lp.LPBuilder):
        for attr, val in vars(cls).items():
            snap[(cls.__qualname__, attr)] = val
    for key, fn in suites.SUITES.items():
        snap[("SUITES", key)] = fn
    return snap


def _changed(before: dict, after: dict) -> set:
    return {k for k in before.keys() | after.keys() if before.get(k) is not after.get(k)}


def test_wrappers_restore_every_patched_name():
    before = _snapshot()
    patches = tracer.install(tracer.Recorder())
    try:
        changed = _changed(before, _snapshot())
    finally:
        patches.restore()
    # names imported by other modules are patched there too
    assert ("jetspace.jets", "gauge") in changed
    assert ("jetspace.whitney", "gauge") in changed
    assert ("jetspace.cli", "check_conditions") in changed
    assert ("Poly", "deriv_eval") in changed
    assert ("SUITES", "chain_scaling") in changed
    assert not _changed(before, _snapshot())


def test_suite_metrics_cover_every_suite():
    from jetspace.suites import SUITES

    assert tuple(SUITES) == tracer.SUITE_NAMES


def _traced_counts(wl, tmp_path) -> dict:
    ops = workloads.prepare_ops(wl, 3, str(tmp_path), count=2)
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        for op in ops:
            assert bench_run.run_op(wl, op, rec).failure is None
    finally:
        patches.restore()
    metrics = tracer.layer_metrics(rec)
    return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s/op"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    wl = _tiny(name)
    first = _traced_counts(wl, tmp_path / "a")
    second = _traced_counts(wl, tmp_path / "b")
    assert first == second
    assert first["poly.deriv_eval_calls"] > 0


def test_traced_check_counts_follow_the_sweeps(tmp_path):
    counts = _traced_counts(_tiny("check-2d"), tmp_path)
    cubes = counts["cubes.cubes"]
    assert cubes == 4 * 3
    # check_conditions, lo_seminorm and cmd_check's CSV projection
    assert counts["whitney.pairs"] == 3 * cubes * (cubes - 1)
    assert counts["whitney.fits"] == cubes
    assert counts["lp.solves"] == 2 * cubes


def test_tail_needs_ten_ops_beyond_it():
    assert bench_run.tail([1.0] * 10) is None
    t = bench_run.tail([float(i) for i in range(1, 21)])
    assert (t["percentile"], t["value"], t["beyond"]) == (50, 10.0, 10)
    t = bench_run.tail([float(i) for i in range(1, 201)])
    assert (t["percentile"], t["value"], t["beyond"]) == (95, 190.0, 10)
