"""Benchmark of the jetspace CLI: closed-loop ops, one client, one process.

One workload (the form a harness runs):

    python3 bench/run.py --workload check-2d --seed 1 --seconds 25 --trace 0

Every workload, each in its own process, as a table:

    python3 bench/run.py --all --seed 1 --seconds 25 [--trace 1]

With ``--trace 0`` the run times ops for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload's fixed traced op
set with per-layer wrappers installed (see tracer.py), after timing the same
ops untraced in a child process, and reports the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it, ``{"detail":
...}``, holds machine facts, per-op output digests, the op-seconds tail and
the fail ratio.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import inspect
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterable, NamedTuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPS = 7
# one calibration pass; reference seconds are op seconds scaled to a machine
# on which a pass takes CALIB_REF_S (about its time on an idle 2-core Xeon)
CALIB_ITERS = 3000
CALIB_REF_S = 0.005
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# machine facts


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas() -> dict:
    import numpy

    facts: dict = {"openblas_version": None, "openblas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["openblas_version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libdirs = (Path(numpy.__file__).parent / ".libs", Path(numpy.__file__).parent.parent / "numpy.libs")
    for libdir in libdirs:
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    facts["openblas_threads"] = int(fn())
                    return facts
    return facts


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_openblas(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# ops


class OpResult(NamedTuple):
    seconds: float
    failure: str | None  # why the op failed, None when it passed its check
    digest: str | None  # sha256 of the output file


def run_op(wl, op, rec=None) -> OpResult:
    """Time one CLI call, traced by ``rec`` when given; then check its output."""
    from jetspace.cli import main

    if rec is not None:
        rec.begin_op(op.index)
    t0 = perf_counter()
    try:
        rc = main(list(op.argv))
        reason = None
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        rc = None
        reason = f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if rec is not None:
        rec.end_op(wl.command)
    if reason is None:
        try:
            reason = workloads.check_output(wl, op, rc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    digest = None
    if os.path.exists(op.output_path):
        with open(op.output_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return OpResult(dt, reason, digest)


def calibrate() -> float:
    """Seconds for one pass of a fixed pure-Python loop (dict iteration,
    tuple keys, float powers: the work jetspace ops spend their time on).

    On a shared 2-core machine the same op ran up to 1.8x slower for tens of
    seconds at a time; a pass run next to an op slows down with it, so op
    seconds divided by adjacent pass seconds stay steady."""
    t0 = perf_counter()
    coef = {(i, j): 0.5 + 0.1 * i - 0.05 * j for i in range(4) for j in range(4) if i + j <= 3}
    total = 0.0
    for k in range(CALIB_ITERS):
        x, y = 0.1 + (k % 17) * 0.05, -0.3 + (k % 13) * 0.04
        acc = 0.0
        for (i, j), c in coef.items():
            acc += c * x**i * y**j
        total += abs(acc)
    return perf_counter() - t0


def _import_probe() -> str:
    """Code for a fresh interpreter: time ``import jetspace`` between two
    calibration passes made in that interpreter; prints all three."""
    return "\n".join(
        [
            "import sys",
            "from time import perf_counter",
            f"CALIB_ITERS = {CALIB_ITERS}",
            inspect.getsource(calibrate),
            "sys.path.insert(0, sys.argv[1])",
            "before = calibrate()",
            "t0 = perf_counter()",
            "import jetspace",
            "seconds = perf_counter() - t0",
            "print(seconds, before, calibrate())",
        ]
    )


def measure_setup(wl, seed: int, workdir: Path) -> tuple[list, list[dict]]:
    """Import jetspace in a fresh interpreter and generate the op inputs,
    SETUP_REPS times, each part between two calibration passes of its own
    process; the inputs of the last repetition are used."""
    samples = []
    pool = workdir / "pool"
    probe = _import_probe()
    for _ in range(SETUP_REPS):
        shutil.rmtree(pool, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, c0, c1 = (float(v) for v in proc.stdout.split())
        before = calibrate()
        t0 = perf_counter()
        ops = workloads.prepare_ops(wl, seed, str(pool))
        gen_s = perf_counter() - t0
        after = calibrate()
        samples.append(
            {
                "import_s": import_s,
                "generate_s": gen_s,
                "total_s": import_s + gen_s,
                "ref_s": 2.0 * CALIB_REF_S * (import_s / (c0 + c1) + gen_s / (before + after)),
            }
        )
    return ops, samples


def tail(times: list[float]) -> dict | None:
    """The highest integer percentile (nearest rank) with at least
    TAIL_BEYOND ops above its rank; None when too few ops ran."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-p * n // 100))
    return {"percentile": p, "value": sorted(times)[rank - 1], "ops": n, "beyond": n - rank}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Measured(NamedTuple):
    runs: list[OpResult]
    loops: list[float]  # seconds of each op's loop: op, output check, digest
    scale: list[float]  # per op: CALIB_REF_S / mean of the passes around it
    wall: float
    calibration: list[float]

    def ref_seconds(self) -> list[float]:
        return [r.seconds * k for r, k in zip(self.runs, self.scale)]


def run_ops(wl, ops: Iterable, seconds: float | None = None, rec=None) -> Measured:
    """Run ops in order with a calibration pass before the first and after
    each; with ``seconds``, stop before the next op would exceed it, but not
    before enough ops ran for a tail percentile."""
    runs, loops, calib = [], [], [calibrate()]
    t0 = perf_counter()
    for op in ops:
        t_loop = perf_counter()
        runs.append(run_op(wl, op, rec))
        loops.append(perf_counter() - t_loop)
        calib.append(calibrate())
        elapsed = perf_counter() - t0
        if (
            seconds is not None
            and len(runs) > TAIL_BEYOND
            and elapsed + statistics.median(r.seconds for r in runs) > seconds
        ):
            break
    scale = [2.0 * CALIB_REF_S / (a + b) for a, b in zip(calib, calib[1:])]
    return Measured(runs, loops, scale, perf_counter() - t0, calib)


def timed_run(wl, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    pool, setup = measure_setup(wl, seed, workdir)
    run_op(wl, pool[0])  # untimed warm-up
    m = run_ops(wl, itertools.cycle(pool), seconds=seconds)

    times = [r.seconds for r in m.runs]
    ref_times = m.ref_seconds()
    failures = [{"op": i, "reason": r.failure} for i, r in enumerate(m.runs) if r.failure]
    attempted, failed = len(m.runs), len(failures)
    metrics = {
        "op_ref_s": _metric(statistics.median(ref_times), "s"),
        "op_ref_s_tail": _metric(tail(ref_times)["value"], "s"),
        "ops_per_ref_s": _metric(
            attempted / sum(t * k for t, k in zip(m.loops, m.scale)), "1/s"
        ),
        "setup_s": _metric(statistics.median(s["ref_s"] for s in setup), "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
    }
    detail = {
        "op_s": statistics.median(times),
        "op_s_tail": tail(times),
        "op_ref_s_tail": tail(ref_times),
        "ops_per_s": attempted / m.wall,
        "setup_wall_s": statistics.median(s["total_s"] for s in setup),
        "fail_ratio": failed / attempted,
        "failures": failures[:10],
        "op_seconds": times,
        "calibration_seconds": m.calibration,
        "wall_s": m.wall,
        "setup": setup,
        "digests": [r.digest for r in m.runs],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def reference_run(wl, seed: int, workdir: Path) -> dict:
    """The traced op set, untraced: scaled op seconds and output digests."""
    pool = workloads.prepare_ops(wl, seed, str(workdir / "pool"))
    run_op(wl, pool[0])
    m = run_ops(wl, pool[: workloads.TRACE_OPS])
    return {
        "op_ref_seconds": m.ref_seconds(),
        "failures": [r.failure for r in m.runs if r.failure],
        "digests": [r.digest for r in m.runs],
    }


def traced_run(wl, seed: int, workdir: Path) -> tuple[dict, dict]:
    import tracer

    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", wl.name, "--seed", str(seed), "--reference",
        ],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {proc.stderr[-2000:]}")
    ref = json.loads(proc.stdout.strip().splitlines()[-1])["reference"]

    pool = workloads.prepare_ops(wl, seed, str(workdir / "pool"))
    run_op(wl, pool[0])  # untraced warm-up
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        m = run_ops(wl, pool[: workloads.TRACE_OPS], rec=rec)
    finally:
        patches.restore()
    digests = [r.digest for r in m.runs]
    failures = [{"op": i, "reason": r.failure} for i, r in enumerate(m.runs) if r.failure]

    spans_path = WORK / f"spans-{wl.name}-seed{seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "op"], "spans": rec.spans}, fh)

    traced = statistics.median(m.ref_seconds())
    untraced = statistics.median(ref["op_ref_seconds"])
    metrics = tracer.layer_metrics(rec)
    metrics["trace.op_ref_s"] = _metric(traced, "s")
    metrics["trace.untraced_op_ref_s"] = _metric(untraced, "s")
    metrics["trace.overhead"] = _metric(traced / untraced - 1.0, "ratio")

    mismatched = [i for i, (a, b) in enumerate(zip(digests, ref["digests"])) if a != b]
    bad = {f["op"] for f in failures} | set(mismatched)
    detail = {
        "trace_ops": workloads.TRACE_OPS,
        "computed_metrics": list(tracer.COMPUTED),
        "digests_match": not mismatched,
        "digests": digests,
        "failures": failures[:10],
        "untraced_failures": ref["failures"][:10],
        "spans": len(rec.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    result = {
        "correct": not bad and not ref["failures"],
        "attempted": len(m.runs),
        "failed": len(bad),
        "metrics": metrics,
    }
    return result, detail


# ---------------------------------------------------------------------------
# every workload, one process each


def _child(args, name: str) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_all(args) -> int:
    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        result, detail = _child(args, name)
        results[name] = {"result": result, "detail": detail}
        ok = ok and result["correct"]
        print(f"== {name}: {result['attempted']} ops, {result['failed']} failed")
        if args.trace:
            overhead = result["metrics"]["trace.overhead"]["value"]
            print(f"   tracing overhead {overhead:+.1%}, digests match: {detail['digests_match']}")
            for key, m in result["metrics"].items():
                if m["value"] and not key.startswith("trace."):
                    print(f"   {key:32s} {_fmt(m['value']):>14s} {m['unit']}")
            continue
        for key, m in result["metrics"].items():
            print(f"   {key:14s} {_fmt(m['value']):>12s} {m['unit']}")
        t = detail["op_ref_s_tail"]
        print(f"   {'':14s} (tail: p{t['percentile']} of {t['ops']} ops, {t['beyond']} beyond it)")
        t = detail["op_s_tail"]
        print(f"   {'op_s_tail':14s} {_fmt(t['value']):>12s} s  (raw wall, p{t['percentile']})")
        print(f"   {'op_s':14s} {_fmt(detail['op_s']):>12s} s  (raw wall median)")
        print(f"   {'ops_per_s':14s} {_fmt(detail['ops_per_s']):>12s} 1/s  (raw wall)")
        print(f"   {'setup_wall_s':14s} {_fmt(detail['setup_wall_s']):>12s} s  (raw wall)")
        print(f"   {'fail_ratio':14s} {_fmt(detail['fail_ratio']):>12s}")
    print(json.dumps({"machine": machine_facts(), "seed": args.seed, "results": results}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "jetspace" / "__init__.py").is_file():
        sys.stderr.write(f"jetspace sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import jetspace

    import_s = perf_counter() - t0
    if Path(jetspace.__file__).resolve().parent != (SRC / "jetspace").resolve():
        sys.stderr.write(f"imported jetspace from {jetspace.__file__}, not from {SRC}\n")
        return 2

    if args.all:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    workdir = WORK / f"{wl.name}-{os.getpid()}"
    try:
        if args.reference:
            print(json.dumps({"reference": reference_run(wl, args.seed, workdir)}))
            return 0
        if args.trace:
            result, detail = traced_run(wl, args.seed, workdir)
        else:
            result, detail = timed_run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": result["attempted"],
        "in_process_import_s": import_s,
        "machine": machine_facts(),
        **detail,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
