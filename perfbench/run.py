#!/usr/bin/env python3
"""The damel benchmark: one workload, measured untraced or traced.

    python3 perfbench/run.py --workload run_default --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --selfcheck

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures an
untraced baseline in this process, then runs the traced units in a child
process of their own and prints the per-layer metrics. Each run prints a
table for people, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and writes the same
numbers with the machine block and the behaviour fingerprint to
``perfbench/out/results/``. Run from the repository root; damel is imported
from ``src/`` of that checkout. See README.md for the workloads and metrics.
"""

import os
import sys

# Before numpy loads: one BLAS thread, inherited by forked pool workers, and
# no DAMEL_WORKERS override of the worker counts the workloads ask for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DAMEL_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
TRACED_CHILD_TIMEOUT_S = 120


def bootstrap() -> float:
    """Import damel from this checkout's src/; returns the import time."""
    package = ROOT / "src" / "damel" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no damel sources at {package.parent}; "
                         "run from the root of a damel checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import numpy  # noqa: F401
    import damel
    import measure  # noqa: F401
    import workloads  # noqa: F401
    elapsed = perf_counter() - start
    if Path(damel.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported damel from {damel.__file__}, not {package}")
    return elapsed


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def make_workload(name: str, tiny: bool):
    from workloads import WORKLOADS
    return WORKLOADS[name](worker_count(), tiny=tiny)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# untraced run (--trace 0)
# ---------------------------------------------------------------------------


def run_untraced(name, seed, seconds, import_s, tiny=False, after_unit=None, setups=SETUPS):
    from measure import end_to_end, measure
    workload = make_workload(name, tiny)
    work = fresh_dir(OUT / "work" / f"{name}-s{seed}-untraced")
    try:
        m = measure(workload, seed, seconds, setups, work, import_s, after_unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return m, end_to_end(m)


# ---------------------------------------------------------------------------
# traced run (--trace 1): an untraced baseline here, the traced units in a child
# ---------------------------------------------------------------------------


def run_traced_child(name, seed, units, out_path: Path, tiny: bool) -> None:
    """Body of the child process: warm up, install wrappers, time ``units``."""
    import tracing
    from measure import check_unit, run_unit
    from workloads import UnitLog

    workload = make_workload(name, tiny)
    work = fresh_dir(OUT / "work" / f"{name}-s{seed}-traced")
    log = UnitLog()
    report = {"errors": [], "missing_boundaries": [], "unit_times": []}
    try:
        inputs = workload.make_inputs(seed, work / "inputs")
        _, result, error = run_unit(workload, inputs, 0, work / "unit0")
        check_unit(workload, inputs, 0, work / "unit0", result, error, log)

        tracer = tracing.Tracer(work / "flush")
        report["missing_boundaries"] = tracing.install(tracer)
        finished = []
        for index in range(1, units + 1):
            unit_dir = work / f"unit{index}"
            elapsed, result, error = run_unit(workload, inputs, index, unit_dir)
            report["unit_times"].append(elapsed)
            finished.append((index, unit_dir, result, error))
        tracer.merge_worker_files()
        try:
            report["metrics"] = tracing.layer_metrics(tracer, units)
        except tracing.TraceInconsistent as err:
            report["errors"].append(f"trace: {err}")
        spans_path = OUT / "trace" / f"{name}-seed{seed}-spans.npz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        for index, unit_dir, result, error in finished:
            check_unit(workload, inputs, index, unit_dir, result, error, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(attempted=log.attempted, failed=log.failed,
                  errors=report["errors"] + log.errors)
    with open(out_path, "w") as fh:
        json.dump(report, fh)


def spawn_traced_child(name, seed, units, tiny) -> dict:
    out_path = OUT / "work" / f"{name}-s{seed}-traced.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--traced-child", str(out_path),
           "--workload", name, "--seed", str(seed), "--units", str(units)]
    if tiny:
        cmd.append("--tiny")
    # Own session, so a timeout can stop the child and its pool workers together.
    child = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        child.wait(timeout=TRACED_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return {"errors": [f"traced child timed out after {TRACED_CHILD_TIMEOUT_S} s"],
                "attempted": units, "failed": units}
    if child.returncode != 0 or not out_path.is_file():
        return {"errors": [f"traced child exited with {child.returncode}"],
                "attempted": units, "failed": units}
    with open(out_path) as fh:
        report = json.load(fh)
    out_path.unlink()
    return report


def run_traced(name, seed, seconds, import_s, tiny=False):
    """Per-layer metrics plus the tracing overhead against an untraced baseline."""
    import tracing
    m, e2e = run_untraced(name, seed, seconds / 2.0, import_s, tiny, setups=1)
    workload = make_workload(name, tiny)
    units = 2 if tiny else workload.traced_units
    report = spawn_traced_child(name, seed, units, tiny)
    attempted = m.log.attempted + report["attempted"]
    failed = m.log.failed + report["failed"]
    errors = m.log.errors + report["errors"]
    units_of = {n: u for n, u, _, _ in tracing.PER_LAYER}
    layer = report.get("metrics")
    metrics = {}
    if layer is not None:
        untraced_p50 = e2e["unit_s.p50"][0]
        traced_p50 = statistics.median(report["unit_times"])
        layer["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
        layer["experiment.pool.peak_rss_mb"] = m.children_peak_rss_mb
        for n, _, _, _ in tracing.PER_LAYER:
            metrics[n] = (layer[n], units_of[n], units, "per traced unit")
        metrics["trace.overhead_ratio"] = (
            layer["trace.overhead_ratio"], "ratio", len(m.unit_times),
            f"traced p50 {traced_p50:.4f} s / untraced p50 {untraced_p50:.4f} s - 1")
    elif not errors:
        errors.append("traced child reported no metrics")
    extra = {"missing_boundaries": report.get("missing_boundaries", []),
             "spans_file": report.get("spans_file")}
    return attempted, failed, errors, metrics, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def emit(args, attempted, failed, errors, metrics, extra) -> None:
    from measure import fingerprint, machine_block
    finite = all(math.isfinite(v) for v, _, _, _ in metrics.values())
    result = {
        "correct": failed == 0 and not errors and bool(metrics) and finite,
        "attempted": attempted,
        "failed": failed,
        # A metric no unit could produce is NaN; JSON has none, and the run is not correct.
        "metrics": {n: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for n, (v, u, _, _) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "error_rate": failed / attempted if attempted else None,
        "errors": errors[:20],
        "metrics": {n: {"value": v, "unit": u, "samples": s, "note": note}
                    for n, (v, u, s, note) in metrics.items()},
        "machine": machine_block(ROOT),
        "fingerprint": fingerprint(ROOT, OUT, worker_count()),
        **extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for n, (v, u, s, note) in metrics.items():
        print(f"  {n:<44} {v:>14.6g} {u:<6} n={s:<5} {note}")
    print(f"  {'error_rate':<44} {record['error_rate'] if attempted else float('nan'):>14.6g} "
          f"{'ratio':<6} n={attempted:<5} {failed} of {attempted} units failed")
    if "unit_tail" in extra:
        print(f"  {'unit_s tail':<44} {json.dumps(extra['unit_tail'])}")
        print(f"  {'pool workers peak_rss_mb':<44} {extra['children_peak_rss_mb']:>14.6g} MB     "
              "RUSAGE_CHILDREN")
    for err in errors[:5]:
        print(f"  error: {err}")
    for name, fp in record["fingerprint"].items():
        print(f"  fingerprint {name} (run seed {fp['run_seed']}): {fp['sha256']}")
    print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)


def tail_note(samples):
    from measure import tail_percentile
    tail = tail_percentile(samples)
    if tail is None:
        return f"no percentile above p50 has ten of {len(samples)} samples beyond it"
    return {"percentile": tail[0], "value_s": tail[1], "samples": len(samples)}


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="run every workload on a tiny config and check the benchmark itself")
    p.add_argument("--traced-child", metavar="OUT", help=argparse.SUPPRESS)
    p.add_argument("--units", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    try:
        import_s = bootstrap()
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.selfcheck:
        import selfcheck
        return selfcheck.main(import_s)
    if args.traced_child:
        run_traced_child(args.workload, args.seed, args.units, Path(args.traced_child), args.tiny)
        return 0
    if args.trace:
        attempted, failed, errors, metrics, extra = run_traced(
            args.workload, args.seed, args.seconds, import_s, args.tiny)
    else:
        m, metrics = run_untraced(args.workload, args.seed, args.seconds, import_s, args.tiny)
        attempted, failed, errors = m.log.attempted, m.log.failed, m.log.errors
        extra = {"children_peak_rss_mb": m.children_peak_rss_mb,
                 "unit_tail": tail_note(m.unit_times),
                 "unit_times_s": m.unit_times, "setup_times_s": m.setup_times}
    emit(args, attempted, failed, errors, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
