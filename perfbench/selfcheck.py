"""Self-check of the benchmark on tiny configs; runs in well under a minute.

    python3 perfbench/run.py --selfcheck

Checks that BENCHMARK.json lists exactly the metrics the code emits, that
every workload emits every end-to-end and per-layer metric with its unit,
that per-layer counts repeat exactly between two traced runs of one seed,
and that a unit whose outputs fail validation is counted as failed without
stopping the run.
"""

from __future__ import annotations

import json
import math

import numpy as np

import run
import tracing
from measure import END_TO_END
from workloads import WORKLOADS

SEED = 0


def check_spec(problems: list) -> None:
    path = run.ROOT / "BENCHMARK.json"
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        problems.append(f"BENCHMARK.json unreadable: {err}")
        return
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {declared} != emitted {list(END_TO_END)}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [row[:3] for row in tracing.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_emitted(where: str, metrics: dict, wanted, problems: list) -> None:
    for name, unit, *_ in wanted:
        if name not in metrics:
            problems.append(f"{where}: {name} not emitted")
            continue
        value, got_unit = metrics[name][0], metrics[name][1]
        if got_unit != unit:
            problems.append(f"{where}: {name} has unit {got_unit!r}, wanted {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")


def check_workload(name: str, import_s: float, problems: list) -> None:
    m, e2e = run.run_untraced(name, SEED, 1.0, import_s, tiny=True, setups=2)
    check_emitted(f"{name} untraced", e2e, END_TO_END, problems)
    for metric, (value, *_rest) in e2e.items():
        if not value > 0:
            problems.append(f"{name} untraced: {metric} = {value!r}, end-to-end metrics are never 0")
    if m.log.failed:
        problems.append(f"{name} untraced: {m.log.errors}")

    traced = []
    for _ in range(2):
        attempted, failed, errors, metrics, _extra = run.run_traced(name, SEED, 2.0, import_s, tiny=True)
        if failed or errors:
            problems.append(f"{name} traced: {failed} of {attempted} failed, {errors[:3]}")
        check_emitted(f"{name} traced", metrics, tracing.PER_LAYER, problems)
        traced.append(metrics)
    for metric, _unit, _better, exact in tracing.PER_LAYER:
        if exact and all(metric in t for t in traced) and traced[0][metric][0] != traced[1][metric][0]:
            problems.append(f"{name} traced: count {metric} differs between two runs of seed {SEED}: "
                            f"{traced[0][metric][0]!r} vs {traced[1][metric][0]!r}")
    for layer in tracing.LAYERS:
        value = traced[0].get(f"self.{layer}.s", (0.0,))[0]
        if not value > 0:
            problems.append(f"{name} traced: layer {layer} recorded no self time")


def _corrupt(index, unit_dir) -> None:
    """Damage the second and third unit's artifacts after they return."""
    if index == 1:
        with open(unit_dir / "checkpoint.bin", "ab") as fh:
            fh.write(b"\0")  # damel's own checkpoint reader would accept this
    elif index == 2:
        onehot = np.load(unit_dir / "onehot.npy")
        onehot[0, :] = 1.0
        np.save(unit_dir / "onehot.npy", onehot)


def check_failures_counted(import_s: float, problems: list) -> None:
    m, e2e = run.run_untraced("run_default", SEED, 1.0, import_s, tiny=True,
                              after_unit=_corrupt, setups=2)
    if m.log.failed != 2 or m.log.attempted < 3:
        problems.append(f"corrupted units: {m.log.failed} of {m.log.attempted} counted as failed, "
                        f"wanted 2 ({m.log.errors})")
    if not any("checkpoint.bin" in e for e in m.log.errors):
        problems.append(f"trailing checkpoint byte not reported: {m.log.errors}")
    if not any("one-hot" in e for e in m.log.errors):
        problems.append(f"broken one-hot row not reported: {m.log.errors}")
    if not e2e["unit_s.p50"][0] > 0:
        problems.append("the run did not go on after the failed units")


def main(import_s: float) -> int:
    problems: list = []
    check_spec(problems)
    for name in WORKLOADS:
        check_workload(name, import_s, problems)
        print(f"selfcheck: {name} done, {len(problems)} problem(s) so far", flush=True)
    check_failures_counted(import_s, problems)
    for problem in problems:
        print(f"selfcheck: FAIL {problem}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 0 if not problems else 1
