"""The untraced measurement: set-up, the timed closed loop, and its metrics."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import damel
from workloads import RunDefault, SweepCsv, UnitLog, ValidationError, Workload

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better); every metric the untraced run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("unit_s.p50", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("overall_acc", "ratio", "higher"),
    ("few_acc", "ratio", "higher"),
)
TAIL_PERCENTILES = (99, 95, 90, 75)


@dataclass
class Measurement:
    setup_times: list = field(default_factory=list)  # inputs + one warm-up unit each
    unit_times: list = field(default_factory=list)  # timed units that passed validation
    window_s: float = 0.0
    log: UnitLog = field(default_factory=UnitLog)
    runs_completed: int = 0
    peak_rss_mb: float = 0.0
    children_peak_rss_mb: float = 0.0


def run_unit(workload: Workload, inputs, index: int, unit_dir: Path):
    """Time one unit; returns (seconds, result or None, error or None)."""
    start = perf_counter()
    try:
        result = workload.call(inputs, index, unit_dir)
    except Exception as err:  # a failed unit counts in error_rate, the loop goes on
        return perf_counter() - start, None, f"raised {type(err).__name__}: {err}"
    return perf_counter() - start, result, None


def check_unit(workload, inputs, index, unit_dir, result, error, log: UnitLog, after_unit=None) -> bool:
    """Validate a finished unit into ``log``; True when it passed."""
    if error is None and after_unit is not None:
        after_unit(index, unit_dir)
    checks = ()
    if error is None:
        try:
            checks = workload.validate(inputs, index, unit_dir, result)
        except ValidationError as err:
            error = f"invalid output: {err}"
        except (OSError, ValueError, KeyError, IndexError) as err:
            error = f"invalid output: {type(err).__name__}: {err}"
    log.record(f"unit {index}", error, checks)
    return error is None


def measure(workload: Workload, seed: int, seconds: float, setups: int, work_dir: Path,
            import_s: float, after_unit=None) -> Measurement:
    """Set up ``setups`` times, then run units back to back for ``seconds``.

    Every set-up regenerates the inputs from the seed and runs one warm-up
    unit; set-up time is the import time plus the median set-up. Outputs are
    validated after the timed window so checking stays out of it.
    """
    m = Measurement()
    index = 0
    inputs = None
    for rep in range(setups):
        start = perf_counter()
        inputs = workload.make_inputs(seed, work_dir / "inputs")
        unit_dir = work_dir / f"unit{index}"
        elapsed, result, error = run_unit(workload, inputs, index, unit_dir)
        m.setup_times.append(import_s + perf_counter() - start)
        check_unit(workload, inputs, index, unit_dir, result, error, m.log, after_unit)
        shutil.rmtree(unit_dir, ignore_errors=True)
        index += 1

    pending = []
    gc.collect()
    window_start = perf_counter()
    while perf_counter() - window_start < seconds:
        unit_dir = work_dir / f"unit{index}"
        elapsed, result, error = run_unit(workload, inputs, index, unit_dir)
        pending.append((index, unit_dir, elapsed, result, error))
        index += 1
    m.window_s = perf_counter() - window_start

    for index, unit_dir, elapsed, result, error in pending:
        if check_unit(workload, inputs, index, unit_dir, result, error, m.log, after_unit):
            m.unit_times.append(elapsed)
            m.runs_completed += workload.runs_per_unit
        shutil.rmtree(unit_dir, ignore_errors=True)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m.children_peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return m


def tail_percentile(samples: list):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p))
    return None


def end_to_end(m: Measurement) -> dict:
    """name -> (value, unit, samples, note)."""
    units = {name: unit for name, unit, _ in END_TO_END}
    accs = m.log.runs
    nan = float("nan")
    out = {
        "setup_s": (statistics.median(m.setup_times) if m.setup_times else nan,
                    len(m.setup_times), "set-ups, median"),
        "unit_s.p50": (statistics.median(m.unit_times) if m.unit_times else nan,
                       len(m.unit_times), "timed units"),
        "runs_per_s": (m.runs_completed / m.window_s if m.window_s > 0 else nan,
                       m.runs_completed, f"runs in a {m.window_s:.2f} s window"),
        "peak_rss_mb": (m.peak_rss_mb, 1, "this process, ru_maxrss"),
        "overall_acc": (statistics.fmean(r.overall_acc for r in accs) if accs else nan,
                        len(accs), "runs, mean of eval.json"),
        "few_acc": (statistics.fmean(r.few_acc for r in accs) if accs else nan,
                    len(accs), "runs, mean of eval.json"),
    }
    return {name: (value, units[name], n, note) for name, (value, n, note) in out.items()}


# ---------------------------------------------------------------------------
# provenance: machine block and behaviour fingerprint
# ---------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "damel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_block(root: Path) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV + ("DAMEL_WORKERS",)},
    }


def fingerprint(root: Path, out_dir: Path, workers: int) -> dict:
    """sha256 of metrics.csv + eval.json for two fixed runs; information only.

    run_default at workload seed 0 (the default config, run seed 0) and the
    first run of sweep_csv at workload seed 0. Cached per source and bench
    digest, since it costs two runs.
    """
    bench = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        bench.update(path.read_bytes())
    key = hashlib.sha256((source_digest(root) + bench.hexdigest()).encode()).hexdigest()[:16]
    cache = out_dir / f"fingerprint-{key}.json"
    if cache.is_file():
        with open(cache) as fh:
            return json.load(fh)
    work = out_dir / f"fingerprint-work-{os.getpid()}"
    out = {}
    try:
        for cls, run_dir in ((RunDefault, work / "run_default"), (SweepCsv, work / "sweep_csv")):
            workload = cls(workers)
            inputs = workload.make_inputs(0, work / f"{cls.name}-inputs")
            seed = workload.run_seeds(inputs, 0)[0]
            damel.run_single(inputs.config, seed, run_dir)
            digest = hashlib.sha256()
            digest.update((run_dir / "metrics.csv").read_bytes())
            digest.update((run_dir / "eval.json").read_bytes())
            out[cls.name] = {"run_seed": seed, "sha256": digest.hexdigest()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cache.parent.mkdir(parents=True, exist_ok=True)
    with open(cache, "w") as fh:
        json.dump(out, fh, indent=1)
    return out
