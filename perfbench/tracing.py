"""Outside-in tracing of damel: spans and counts at each layer boundary.

Nothing under ``src/`` changes. ``install`` rebinds public names in the damel
module namespaces that call them (for example ``damel.training.full_forward``
catches the forwards ``train`` makes, ``damel.averaging.forward_experts`` the
statistics passes) to wrappers that record one span per call: name, start,
end, parent span and run id. Spans stay in memory in flat arrays and are
written out once, when the traced process ends.

Pool workers of a sweep are forked from the traced process, so they inherit
the wrappers. A fork hook empties the worker's buffers, and the
``run_single`` wrapper flushes the worker's spans to a file each time it
returns; the traced process merges those files, so worker-side layers (data
loading above all) reach the trace.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "model", "training", "averaging", "evaluation", "data", "experiment")
TENSOR_OPS = ("matmul", "add", "mul", "relu", "l2_normalize", "batch_norm",
              "softmax_cross_entropy", "concat_last_axis")

# (defining module, public name, span name). The span name says which layer
# the work belongs to; build_datasets lives in experiment.py but is data work.
FUNCTION_BOUNDARIES = (
    [("tensor", op, f"tensor.fwd.{op}") for op in TENSOR_OPS]
    + [
        ("tensor", "backward", "training.backward"),
        ("model", "bind_params", "training.bind_params"),
        ("model", "full_forward", "model.full_forward"),
        ("model", "forward_experts", "model.forward_experts"),
        ("model", "predict", "model.predict"),
        ("training", "train", "training.train"),
        ("training", "compute_losses", "training.compute_losses"),
        ("training", "flatten_grads", "training.flatten_grads"),
        ("training", "sgd_step", "training.sgd_step"),
        ("averaging", "update_average", "averaging.update_average"),
        ("averaging", "recompute_running_stats", "averaging.recompute_running_stats"),
        ("averaging", "export_eval_weights", "averaging.export_eval_weights"),
        ("evaluation", "evaluate", "evaluation.evaluate"),
        ("evaluation", "one_hot_predictions", "evaluation.one_hot_predictions"),
        ("evaluation", "bias_variance_decompose", "evaluation.bias_variance_decompose"),
        ("experiment", "build_datasets", "data.build_datasets"),
        ("data", "load_csv_dataset", "data.load_csv_dataset"),
        ("data", "load_idx_dataset", "data.load_idx_dataset"),
        ("data", "dataset_from_arrays", "data.dataset_from_arrays"),
        ("experiment", "run_seed_sweep", "experiment.run_seed_sweep"),
        ("experiment", "run_ablation_suite", "experiment.run_ablation_suite"),
    ]
)
METHOD_BOUNDARIES = (("clone", "model.clone"), ("flatten", "model.flatten"),
                     ("unflatten", "model.unflatten"))


class Tracer:
    """Span and count recorder for one process (and, merged, its workers)."""

    def __init__(self, flush_dir: Path):
        self.flush_dir = Path(flush_dir)
        self.main_pid = os.getpid()
        self._reset()
        self.remote_parent = -1
        self.flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.names: list = []
        self.name_index: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.proc = array("i")
        self.run_labels: list = [""]
        self.run_index: dict = {"": 0}
        self.stack: list = []
        self.current_run = 0
        self.counts: Counter = Counter()
        self.epoch_eval = -1

    def _after_fork(self) -> None:
        remote = self.stack[-1] if self.stack else -1
        self._reset()
        self.remote_parent = remote
        self.flushes = 0

    def _name_id(self, name: str) -> int:
        nid = self.name_index.get(name)
        if nid is None:
            nid = self.name_index[name] = len(self.names)
            self.names.append(name)
        return nid

    def run_id(self, label: str) -> int:
        rid = self.run_index.get(label)
        if rid is None:
            rid = self.run_index[label] = len(self.run_labels)
            self.run_labels.append(label)
        return rid

    def open(self, name: str) -> int:
        i = len(self.start)
        stack = self.stack
        self.name.append(self._name_id(name))
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.current_run)
        self.proc.append(0)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> float:
        """End span ``i`` and any span still open above it."""
        now = perf_counter()
        stack = self.stack
        while stack:
            j = stack.pop()
            self.end[j] = now
            if j == i:
                break
        return now

    def add_span(self, name: str, start: float, end: float, parent: int) -> None:
        """A span derived from others rather than bracketing one call."""
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.run.append(self.current_run)
        self.proc.append(0)
        self.start.append(start)
        self.end.append(end)

    # -- worker flush and merge ------------------------------------------------

    def in_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def flush(self) -> None:
        """Write a worker's spans for the traced process to merge, then forget them."""
        self.flush_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "remote_parent": self.remote_parent,
            "names": self.names,
            "runs": self.run_labels,
            "counts": dict(self.counts),
            "name": self.name.tolist(), "start": self.start.tolist(), "end": self.end.tolist(),
            "parent": self.parent.tolist(), "run": self.run.tolist(),
        }
        path = self.flush_dir / f"worker-{os.getpid()}-{self.flushes}.json"
        self.flushes += 1
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
        remote, stack, flushes = self.remote_parent, self.stack, self.flushes
        self._reset()
        self.remote_parent, self.stack, self.flushes = remote, stack, flushes

    def merge_worker_files(self) -> None:
        """Fold every flushed worker file into this process's spans."""
        files = sorted(self.flush_dir.glob("worker-*.json")) if self.flush_dir.is_dir() else []
        procs: dict = {}
        for path in files:
            with open(path) as fh:
                payload = json.load(fh)
            path.unlink()
            pid = path.name.split("-")[1]
            proc = procs.setdefault(pid, len(procs) + 1)
            offset = len(self.start)
            name_map = [self._name_id(n) for n in payload["names"]]
            run_map = [self.run_id(r) for r in payload["runs"]]
            for nid, start, end, parent, run in zip(payload["name"], payload["start"], payload["end"],
                                                    payload["parent"], payload["run"]):
                self.name.append(name_map[nid])
                self.start.append(start)
                self.end.append(end)
                self.parent.append(payload["remote_parent"] if parent < 0 else parent + offset)
                self.run.append(run_map[run])
                self.proc.append(proc)
            self.counts.update(payload["counts"])

    def save(self, path: Path) -> None:
        """Write every span, for reading with numpy.load."""
        np.savez(
            path, names=np.array(self.names), runs=np.array(self.run_labels),
            name=np.asarray(self.name), start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), run=np.asarray(self.run), proc=np.asarray(self.proc),
        )


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _damel_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "damel" or name.startswith("damel."))]


def _rebind(original, wrapper) -> int:
    """Point every damel namespace that holds ``original`` at ``wrapper``."""
    hits = 0
    for module in _damel_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                hits += 1
    return hits


def _span_wrapper(tracer: Tracer, fn, span: str, count=None):
    """One span per call; ``count(*args)`` returns a (counter, amount) to add."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            key, amount = count(*args)
            tracer.counts[key] += amount
        i = tracer.open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _backward_wrapper(tracer, fn, span):
    """Times the sweep, and each node's adjoint by wrapping its backward_fn."""

    def timed(node_fn, name):
        def backward_fn(gout):
            i = tracer.open(name)
            try:
                return node_fn(gout)
            finally:
                tracer.close(i)
        return backward_fn

    @functools.wraps(fn)
    def backward(loss, *args, **kwargs):
        i = tracer.open(span)
        try:
            nodes = getattr(getattr(loss, "tape", None), "nodes", ())
            tracer.counts["tensor.tape_nodes"] += len(nodes)
            for node in nodes:
                if getattr(node, "backward_fn", None) is not None:
                    node.backward_fn = timed(node.backward_fn, f"tensor.bwd.{node.op_kind}")
            return fn(loss, *args, **kwargs)
        finally:
            tracer.close(i)
    return backward


def _batches_wrapper(tracer, fn):
    """Times each ``next`` as batch wait; the gap after the last batch of an
    epoch, until the next epoch's iterator or the end of ``train``, is the
    epoch-end evaluation span."""

    @functools.wraps(fn)
    def minibatch_iterator(*args, **kwargs):
        if tracer.stack and tracer.stack[-1] == tracer.epoch_eval:
            tracer.close(tracer.epoch_eval)
        inner = fn(*args, **kwargs)
        while True:
            i = tracer.open("training.batch_wait")
            try:
                batch = next(inner)
            except StopIteration:
                tracer.close(i)
                tracer.epoch_eval = tracer.open("training.epoch_eval")
                return
            tracer.close(i)
            yield batch
    return minibatch_iterator


def _run_single_wrapper(tracer, fn):
    """One run: its own run id, artifact bytes, the artifact-write tail, and
    (in a pool worker) a flush of the worker's spans."""

    @functools.wraps(fn)
    def run_single(cfg, seed, run_dir=None, *args, **kwargs):
        outer_run = tracer.current_run
        tracer.current_run = tracer.run_id(f"{run_dir}" if run_dir is not None else f"seed-{seed}")
        i = tracer.open("experiment.run_single")
        try:
            return fn(cfg, seed, run_dir, *args, **kwargs)
        finally:
            end = tracer.close(i)
            # Nothing traced runs after the last evaluation call: the rest of
            # run_single builds the record and writes the artifacts.
            last = len(tracer.start) - 1
            while last > i and tracer.parent[last] != i:
                last -= 1
            if last > i:
                tracer.add_span("experiment.artifact_write", tracer.end[last], end, i)
            if run_dir is not None and Path(run_dir).is_dir():
                tracer.counts["experiment.artifact_bytes"] += sum(
                    p.stat().st_size for p in Path(run_dir).iterdir() if p.is_file())
            tracer.current_run = outer_run
            if tracer.in_worker():
                tracer.flush()
    return run_single


def _pool_class(tracer, base):
    class TracedPool(base):
        """The sweep/suite process pool, timed from creation to join."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.open("experiment.pool")

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                end = tracer.close(self._span)
                wall = end - tracer.start[self._span]
                tracer.counts["experiment.pool.slot_s"] += self._max_workers * wall
    TracedPool.__name__ = base.__name__
    return TracedPool


def _predict_rows(model, x, *rest):
    return "model.predict.rows", len(getattr(x, "values", x))


def _flat_copy_bytes(model, *rest):
    return "model.flat_copy_bytes", 8 * model.param_count()


def install(tracer: Tracer) -> list:
    """Wrap every boundary; returns the boundaries that were not found."""
    import importlib

    missing = []
    for module_name, attr, span in FUNCTION_BOUNDARIES:
        module = importlib.import_module(f"damel.{module_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
        elif span == "training.backward":
            _rebind(fn, _backward_wrapper(tracer, fn, span))
        elif span == "model.predict":
            _rebind(fn, _span_wrapper(tracer, fn, span, _predict_rows))
        else:
            _rebind(fn, _span_wrapper(tracer, fn, span))

    data = importlib.import_module("damel.data")
    experiment = importlib.import_module("damel.experiment")
    model = importlib.import_module("damel.model")
    for module, attr, make in ((data, "minibatch_iterator", lambda fn: _batches_wrapper(tracer, fn)),
                               (experiment, "run_single", lambda fn: _run_single_wrapper(tracer, fn))):
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
        else:
            _rebind(fn, make(fn))

    cls = getattr(model, "DamelModel", None)
    for attr, span in METHOD_BOUNDARIES:
        fn = getattr(cls, attr, None)
        if fn is None:
            missing.append(f"DamelModel.{attr}")
        else:
            setattr(cls, attr, _span_wrapper(tracer, fn, span,
                                             None if attr == "clone" else _flat_copy_bytes))

    pool = getattr(experiment, "ProcessPoolExecutor", None)
    if pool is None:
        missing.append("experiment.ProcessPoolExecutor")
    else:
        experiment.ProcessPoolExecutor = _pool_class(tracer, pool)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better, exact). Every value is per traced unit unless the name
# says otherwise; ``exact`` marks the counts that must repeat bit for bit
# between two traced runs of one workload seed.
PER_LAYER = (
    [("tensor.tape_nodes_per_step", "count", "lower", True)]
    + [(f"tensor.fwd.{op}.calls", "count", "lower", True) for op in TENSOR_OPS]
    + [(f"tensor.fwd.{op}.s", "s", "lower", False) for op in TENSOR_OPS]
    + [(f"tensor.bwd.{op}.s", "s", "lower", False) for op in TENSOR_OPS]
    + [
        ("model.full_forward.s", "s", "lower", False),
        ("model.forward_experts.calls", "count", "lower", True),
        ("model.predict.calls", "count", "lower", True),
        ("model.predict.rows", "count", "lower", True),
        ("model.predict.s", "s", "lower", False),
        ("model.clone.calls", "count", "lower", True),
        ("model.clone.s", "s", "lower", False),
        ("model.flatten.calls", "count", "lower", True),
        ("model.unflatten.calls", "count", "lower", True),
        ("model.flat_copy_bytes", "bytes", "lower", True),
        ("training.steps", "count", "lower", True),
        ("training.bind_params.s", "s", "lower", False),
        ("training.compute_losses.s", "s", "lower", False),
        ("training.backward.s", "s", "lower", False),
        ("training.flatten_grads.s", "s", "lower", False),
        ("training.sgd_step.s", "s", "lower", False),
        ("training.update_average.s", "s", "lower", False),
        ("training.batch_wait.s", "s", "lower", False),
        ("training.epoch_eval.s", "s", "lower", False),
        ("training.self.s", "s", "lower", False),
        ("averaging.update_average.calls", "count", "lower", True),
        ("averaging.recompute_running_stats.calls", "count", "lower", True),
        ("averaging.recompute_running_stats.s", "s", "lower", False),
        ("averaging.recompute.forward_passes", "count", "lower", True),
        ("averaging.export_eval_weights.s", "s", "lower", False),
        ("evaluation.evaluate.s", "s", "lower", False),
        ("evaluation.one_hot_predictions.s", "s", "lower", False),
        ("evaluation.test_predicts_per_run", "count", "lower", True),
        ("evaluation.bias_variance_decompose.s", "s", "lower", False),
        ("data.build_datasets.calls", "count", "lower", True),
        ("data.build_datasets.s", "s", "lower", False),
        ("data.load_csv_dataset.calls", "count", "lower", True),
        ("data.load_csv_dataset.s", "s", "lower", False),
        ("data.dataset_from_arrays.s", "s", "lower", False),
        ("data.source_loads_per_run", "count", "lower", True),
        ("experiment.runs_per_unit", "count", "higher", True),
        ("experiment.run_single.s", "s", "lower", False),
        ("experiment.artifact_write.s", "s", "lower", False),
        ("experiment.artifact_bytes", "bytes", "lower", False),
        ("experiment.sweep.fanout_s", "s", "lower", False),
        ("experiment.sweep.summary_s", "s", "lower", False),
        ("experiment.pool.busy_ratio", "ratio", "higher", False),
        ("experiment.pool.peak_rss_mb", "MB", "lower", False),
    ]
    + [(f"self.{layer}.s", "s", "lower", False) for layer in LAYERS]
    + [
        ("trace.overhead_ratio", "ratio", "lower", False),
        ("trace.units", "count", "higher", True),
        ("trace.spans_per_unit", "count", "lower", True),
    ]
)


class TraceInconsistent(Exception):
    """A span's children account for more time than the span itself."""


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-unit layer numbers from the merged spans, plus integrity checks.

    ``trace.overhead_ratio`` and ``experiment.pool.peak_rss_mb`` need the
    untraced measurement and are filled in by the caller.
    """
    names = tracer.names
    name = np.asarray(tracer.name, dtype=np.int64)
    start = np.asarray(tracer.start)
    end = np.asarray(tracer.end)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    proc = np.asarray(tracer.proc, dtype=np.int64)
    dur = end - start
    n_names = len(names)
    calls_by = np.bincount(name, minlength=n_names)
    time_by = np.bincount(name, weights=dur, minlength=n_names)

    # Children count against a parent only in the same process: pool workers
    # run side by side under the pool span.
    local = (parent >= 0) & (proc == proc[np.maximum(parent, 0)])
    child = np.zeros_like(dur)
    np.add.at(child, parent[local], dur[local])
    self_time = dur - child
    worst = int(np.argmin(self_time)) if self_time.size else -1
    if worst >= 0 and self_time[worst] < -1e-9:
        raise TraceInconsistent(
            f"children of {names[name[worst]]} cover {child[worst]!r} s of its {dur[worst]!r} s")
    self_by = np.bincount(name, weights=self_time, minlength=n_names)

    def nid(span):
        return tracer.name_index.get(span, -1)

    def calls(span):
        i = nid(span)
        return int(calls_by[i]) if i >= 0 else 0

    def total(span):
        i = nid(span)
        return float(time_by[i]) if i >= 0 else 0.0

    def spans_named(span):
        return np.flatnonzero(name == nid(span)) if nid(span) >= 0 else np.array([], dtype=np.int64)

    def has_ancestor(i, wanted: set) -> bool:
        i = parent[i]
        while i >= 0:
            if name[i] in wanted:
                return True
            i = parent[i]
        return False

    runs = calls("experiment.run_single")
    per = 1.0 / units
    out = {}
    steps = calls("training.backward")
    out["tensor.tape_nodes_per_step"] = tracer.counts["tensor.tape_nodes"] / steps if steps else 0.0
    for op in TENSOR_OPS:
        out[f"tensor.fwd.{op}.calls"] = calls(f"tensor.fwd.{op}") * per
        out[f"tensor.fwd.{op}.s"] = total(f"tensor.fwd.{op}") * per
        out[f"tensor.bwd.{op}.s"] = total(f"tensor.bwd.{op}") * per

    out["model.full_forward.s"] = total("model.full_forward") * per
    out["model.forward_experts.calls"] = calls("model.forward_experts") * per
    out["model.predict.calls"] = calls("model.predict") * per
    out["model.predict.rows"] = tracer.counts["model.predict.rows"] * per
    out["model.predict.s"] = total("model.predict") * per
    out["model.clone.calls"] = calls("model.clone") * per
    out["model.clone.s"] = total("model.clone") * per
    out["model.flatten.calls"] = calls("model.flatten") * per
    out["model.unflatten.calls"] = calls("model.unflatten") * per
    out["model.flat_copy_bytes"] = tracer.counts["model.flat_copy_bytes"] * per

    out["training.steps"] = steps * per
    for phase in ("bind_params", "compute_losses", "backward", "flatten_grads", "sgd_step",
                  "batch_wait", "epoch_eval"):
        out[f"training.{phase}.s"] = total(f"training.{phase}") * per
    out["training.update_average.s"] = total("averaging.update_average") * per
    out["training.self.s"] = float(self_by[nid("training.train")]) * per if nid("training.train") >= 0 else 0.0

    recomputes = calls("averaging.recompute_running_stats")
    passes = 0
    if recomputes:
        rid = nid("averaging.recompute_running_stats")
        passes = int(np.count_nonzero(name[parent[spans_named("model.forward_experts")]] == rid))
    out["averaging.update_average.calls"] = calls("averaging.update_average") * per
    out["averaging.recompute_running_stats.calls"] = recomputes * per
    out["averaging.recompute_running_stats.s"] = total("averaging.recompute_running_stats") * per
    out["averaging.recompute.forward_passes"] = passes / recomputes if recomputes else 0.0
    out["averaging.export_eval_weights.s"] = total("averaging.export_eval_weights") * per

    # Test-set predictions a run makes after training, i.e. outside train().
    run_id, train_id = nid("experiment.run_single"), nid("training.train")
    test_predicts = sum(
        1 for i in spans_named("model.predict")
        if has_ancestor(i, {run_id}) and not has_ancestor(i, {train_id})
    )
    out["evaluation.evaluate.s"] = total("evaluation.evaluate") * per
    out["evaluation.one_hot_predictions.s"] = total("evaluation.one_hot_predictions") * per
    out["evaluation.test_predicts_per_run"] = test_predicts / runs if runs else 0.0
    out["evaluation.bias_variance_decompose.s"] = total("evaluation.bias_variance_decompose") * per

    loads = calls("data.load_csv_dataset") + calls("data.load_idx_dataset")
    out["data.build_datasets.calls"] = calls("data.build_datasets") * per
    out["data.build_datasets.s"] = total("data.build_datasets") * per
    out["data.load_csv_dataset.calls"] = calls("data.load_csv_dataset") * per
    out["data.load_csv_dataset.s"] = total("data.load_csv_dataset") * per
    out["data.dataset_from_arrays.s"] = total("data.dataset_from_arrays") * per
    out["data.source_loads_per_run"] = loads / runs if runs else 0.0

    # A sweep or suite fans its runs out (to a pool, or serially) and then
    # summarises them; the split is at the end of its last pool or run.
    pool_id = nid("experiment.pool")
    fanout = summary = 0.0
    for i in np.concatenate([spans_named("experiment.run_seed_sweep"),
                             spans_named("experiment.run_ablation_suite")]):
        fanned = np.flatnonzero((parent == i) & ((name == pool_id) | (name == run_id)))
        if fanned.size:
            fanout += end[fanned].max() - start[i]
            summary += end[i] - end[fanned].max()
    worker_runs = float(dur[(name == run_id) & (proc > 0)].sum()) if run_id >= 0 else 0.0
    slot_s = tracer.counts["experiment.pool.slot_s"]
    out["experiment.runs_per_unit"] = runs * per
    out["experiment.run_single.s"] = total("experiment.run_single") * per
    out["experiment.artifact_write.s"] = total("experiment.artifact_write") * per
    out["experiment.artifact_bytes"] = tracer.counts["experiment.artifact_bytes"] * per
    out["experiment.sweep.fanout_s"] = fanout * per
    out["experiment.sweep.summary_s"] = summary * per
    # Busy share of the worker slots over each pool's life.
    out["experiment.pool.busy_ratio"] = worker_runs / slot_s if slot_s > 0 else 0.0

    # Layer self time is work done, summed over processes; the pool span's own
    # time is the parent waiting for its workers, so it counts for no layer.
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    if pool_id >= 0:
        layer_of[pool_id] = "wait"
    for layer in LAYERS:
        out[f"self.{layer}.s"] = float(self_by[layer_of == layer].sum()) * per
    out["trace.units"] = units
    out["trace.spans_per_unit"] = len(tracer.start) * per
    return out
