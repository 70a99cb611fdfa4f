"""Config-driven experiment runner: single runs, seed sweeps, ablation grids.

Configs are JSON with three blocks (dataset, model, train) plus seeds and
output_dir; unknown keys are rejected so typos cannot silently corrupt a
grid. Every run writes its own directory (run.json, metrics.csv, eval.json,
confusion.csv, checkpoint.bin, onehot.npy) under
output_dir/<suite>/<cell>/<seed>/ and is reproducible from its config hash
plus seed.

Sweeps and suites share one fan-out (_run_jobs): inline for one worker, else
a process pool of at most one worker per run that holds no more runs than it
has workers. Each run needs its own non-negative seed, and the files of an
idx/csv source must be readable before any run starts. The first failure
stops the fan-out once the running runs finish, and records come back in
memory, so a sweep's summary reads no artifact and builds no data again. A
file-backed source (idx/csv) is parsed once per process and content, not once
per run.

Checkpoint layout: 8-byte magic "DAMELCKP", u32 LE config-JSON length, the
config JSON, u64 LE parameter count, raw little-endian float64 trained
weights, then the averaged weights when an averaging scheme was active.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import numbers
import os
import shutil
import struct
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import islice
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .averaging import export_eval_weights, load_eval_model
from .data import (
    Dataset,
    group_partition,
    load_csv_dataset,
    load_idx_dataset,
    long_tail_counts,
    split_balanced_holdout,
    subsample_longtail,
    synthesize_balanced_test,
    synthesize_gaussian_longtail,
)
from .errors import ConfigError, DamelError
from .evaluation import (
    EvalReport,
    bias_variance_decompose,
    evaluate,
    labels_one_hot,
)
from .model import DamelConfig, init_model, param_count
from .training import TrainConfig, make_avg_state, train

CHECKPOINT_MAGIC = b"DAMELCKP"
WORKERS_ENV_VAR = "DAMEL_WORKERS"

SUITES = ("table5", "table7", "table8", "table9", "table10", "table11", "table12")

# Each source's own dataset fields, every one required; an idx or csv
# source's fields are the paths of its files, in its loader's argument order.
_SOURCE_FIELDS = {"synthetic": ("feature_dim", "class_sep"), "idx": ("images", "labels"),
                  "csv": ("csv_path",)}


@dataclass
class DatasetBlock:
    source: str
    num_classes: int
    head_count: int
    imbalance_ratio: float
    test_per_class: int = 100
    base_seed: int = 0
    feature_dim: Optional[int] = None
    class_sep: Optional[float] = None
    images: Optional[str] = None
    labels: Optional[str] = None
    csv_path: Optional[str] = None


@dataclass
class ModelBlock:
    num_experts: int = 3
    hidden_dim: int = 64
    rep_dim: int = 32
    scale: float = 16.0
    variant: str = "standard"
    use_norm_layers: bool = True
    use_bias: bool = True
    ref_experts: Optional[int] = None


@dataclass
class ExperimentConfig:
    dataset: DatasetBlock
    model: ModelBlock
    train: TrainConfig
    seeds: list
    output_dir: str


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _value_fits(kind, value) -> bool:
    """A JSON value against a field type: a bool is never an int or a float,
    and a float must be finite."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, kind)


def _typed_block(cls, block, where: str, allowed: Optional[set] = None):
    """A config dataclass from one JSON object; unknown or missing keys and
    values that do not fit their field's annotation are ConfigErrors. The
    keys allowed are the class's fields unless ``allowed`` narrows them."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    _check_keys(block, _field_names(cls) if allowed is None else allowed, where)
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in block:
            if f.default is MISSING:
                raise ConfigError(f"{where}: missing key {f.name!r}")
            continue
        kind, *nullable = get_args(hints[f.name]) or (hints[f.name],)  # Optional[X] is (X, None)
        value = block[f.name]
        if not (value is None and nullable or _value_fits(kind, value)):
            expected = _KIND_NAMES[kind] + (" or null" if nullable else "")
            raise ConfigError(f"{where}: {f.name} must be {expected}, got {value!r}")
    return cls(**block)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict into typed blocks; rejects unknown keys and
    wrongly typed values, so any malformed config is one ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _field_names(ExperimentConfig), "config")
    for required in ("dataset", "model", "train"):
        if required not in raw:
            raise ConfigError(f"config: missing block {required!r}")

    if not isinstance(raw["dataset"], dict):
        raise ConfigError(f"dataset must be a JSON object, got {raw['dataset']!r}")
    source, sources = raw["dataset"].get("source"), tuple(_SOURCE_FIELDS)
    if source not in sources:
        raise ConfigError(f"dataset.source must be one of {sources}, got {source!r}")
    # config_to_dict writes every DatasetBlock field; another source's fields
    # come back as null, which means unset.
    known, own = _field_names(DatasetBlock), _SOURCE_FIELDS[source]
    allowed = known.difference(*_SOURCE_FIELDS.values()) | set(own)
    block = {key: value for key, value in raw["dataset"].items()
             if value is not None or key in allowed or key not in known}
    dataset = _typed_block(DatasetBlock, block, f"dataset ({source})", allowed)
    if any(getattr(dataset, field) is None for field in own):
        names = " and ".join(own) + (" paths" if source == "idx" else "")
        raise ConfigError(f"dataset ({source}): {names} {'are' if len(own) > 1 else 'is'} required")
    if dataset.test_per_class < 1:
        raise ConfigError(f"dataset: test_per_class must be >= 1, got {dataset.test_per_class}")
    _check_seed(dataset.base_seed, "dataset: base_seed")
    # Surface count-profile domain errors before any run starts.
    try:
        spec = long_tail_counts(dataset.num_classes, dataset.head_count, dataset.imbalance_ratio)
    except DamelError as err:
        raise ConfigError(f"dataset: {err}") from None

    model = _typed_block(ModelBlock, raw["model"], "model")
    train_block = _typed_block(TrainConfig, raw["train"], "train")
    try:
        train_cfg = train_block.validate()
    except DamelError as err:
        raise ConfigError(f"train: {err}") from None

    probe_dim = dataset.feature_dim if dataset.feature_dim else 1
    try:
        build_damel_config(model, dataset, probe_dim).validate()
    except DamelError as err:
        raise ConfigError(f"model: {err}") from None
    # Every source trains on exactly the profile's samples, so a batch size
    # that no run could train with fails here, before any data is built.
    total, batch = sum(spec.counts), train_cfg.batch_size
    if train_cfg.epochs > 0 and batch > total:
        raise ConfigError(f"train.batch_size {batch} exceeds the {total} training samples")
    if train_cfg.epochs > 0 and model.use_norm_layers and (total - 1) % batch == 0:
        raise ConfigError(
            f"train.batch_size {batch} leaves a single-sample final batch for {total} "
            "samples, which norm layers cannot train on"
        )

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(_value_fits(int, s) and s >= 0 for s in seeds):
        raise ConfigError(f"seeds must be a non-empty list of non-negative integers, got {seeds!r}")
    output_dir = raw.get("output_dir", "runs")
    if not isinstance(output_dir, (str, os.PathLike)):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    return ExperimentConfig(dataset, model, train_cfg, list(seeds), str(output_dir))


def _check_seed(seed, where: str) -> None:
    """Seeds feed numpy's generators, which take non-negative integers only."""
    if not _value_fits(int, seed) or seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {seed!r}")


def _check_source_files(dataset: DatasetBlock) -> None:
    """Every file an idx/csv source names must open for reading; otherwise a
    ConfigError names the field, before any run starts."""
    if dataset.source == "synthetic":
        return
    for field in _SOURCE_FIELDS[dataset.source]:
        path = getattr(dataset, field)
        try:
            with open(path, "rb"):
                pass
        except OSError as err:
            raise ConfigError(
                f"dataset ({dataset.source}): cannot read {field} {path!r}: {err.strerror or err}"
            ) from None


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from None
    return parse_config(raw)


def default_config(output_dir: str = "runs") -> ExperimentConfig:
    """The default desk-scale benchmark: a 3-expert run finishes in seconds."""
    return parse_config(
        {
            "dataset": {
                "source": "synthetic", "num_classes": 10, "head_count": 500,
                "imbalance_ratio": 100, "feature_dim": 20, "class_sep": 3.0,
                "test_per_class": 100, "base_seed": 0,
            },
            "model": {"num_experts": 3, "hidden_dim": 64, "rep_dim": 32, "scale": 16.0},
            "train": {"epochs": 40, "batch_size": 64},
            "seeds": [0, 1, 2, 3, 4],
            "output_dir": output_dir,
        }
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "dataset": asdict(cfg.dataset),
        "model": asdict(cfg.model),
        "train": asdict(cfg.train),
        "seeds": list(cfg.seeds),
        "output_dir": cfg.output_dir,
    }


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the three run-defining blocks (seed-independent)."""
    payload = {
        "dataset": asdict(cfg.dataset),
        "model": asdict(cfg.model),
        "train": asdict(cfg.train),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_damel_config(model: ModelBlock, dataset: DatasetBlock, input_dim: int) -> DamelConfig:
    return DamelConfig(
        num_experts=model.num_experts,
        input_dim=input_dim,
        hidden_dim=model.hidden_dim,
        rep_dim=model.rep_dim,
        num_classes=dataset.num_classes,
        scale=model.scale,
        variant=model.variant,
        use_norm_layers=model.use_norm_layers,
        use_bias=model.use_bias,
        ref_experts=model.ref_experts,
    )


# At most one parsed file-backed source per process: {key: read-only Dataset}.
_parsed_source: dict = {}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _file_source(dataset: DatasetBlock) -> Dataset:
    """The parsed idx/csv source, keyed by its kind, its paths and the sha256
    of each file's bytes, so a rewritten file is parsed again whatever its
    size or mtime. The loaders are looked up at call time, so a wrapped
    loader sees only real parses. The arrays are read-only: every run
    indexes fresh copies out of them."""
    paths = tuple(getattr(dataset, field) for field in _SOURCE_FIELDS[dataset.source])
    key = (dataset.source, paths, tuple(_sha256(path) for path in paths))
    source = _parsed_source.get(key)
    if source is None:
        _parsed_source.clear()  # never hold two sources at once
        loader = load_idx_dataset if dataset.source == "idx" else load_csv_dataset
        source = loader(*paths)
        source.features.flags.writeable = False
        source.labels.flags.writeable = False
        _parsed_source[key] = source
    return source


def build_datasets(dataset: DatasetBlock, seed: int):
    """(train, test, partition) for one run seed.

    The balanced test set and (for synthetic data) the class geometry derive
    from base_seed only, so every seed of a sweep shares one test set while
    training data resamples per seed. An idx/csv source is parsed once per
    process and file content, kept read-only, and shared by every run that
    names the same content.
    """
    spec = long_tail_counts(dataset.num_classes, dataset.head_count, dataset.imbalance_ratio)
    if dataset.source == "synthetic":
        train_ds = synthesize_gaussian_longtail(
            spec, dataset.feature_dim, dataset.class_sep, seed=seed, center_seed=dataset.base_seed
        )
        test_ds = synthesize_balanced_test(
            dataset.num_classes, dataset.test_per_class, dataset.feature_dim,
            dataset.class_sep, seed=dataset.base_seed, center_seed=dataset.base_seed,
        )
    else:
        source_ds = _file_source(dataset)
        if source_ds.spec.num_classes != dataset.num_classes:
            raise ConfigError(
                f"dataset: file holds {source_ds.spec.num_classes} classes, config says "
                f"{dataset.num_classes}"
            )
        test_ds, rest = split_balanced_holdout(source_ds, dataset.test_per_class, dataset.base_seed)
        train_ds = subsample_longtail(rest, spec, seed=seed)
    return train_ds, test_ds, group_partition(spec)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, config_dict: dict, trained: np.ndarray, averaged: Optional[np.ndarray]) -> None:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<Q", trained.size))
        fh.write(np.asarray(trained, dtype="<f8").tobytes())
        if averaged is not None:
            if averaged.size != trained.size:
                raise ConfigError("checkpoint: averaged weights length differs from trained")
            fh.write(np.asarray(averaged, dtype="<f8").tobytes())


def _check_checkpoint_count(path, config_dict, count: int) -> None:
    """``count`` must be the parameter count of the run config in ``config_dict``.

    An idx or csv source's input width lives in its data file, and only
    ``backbone.w1`` depends on it, so there the count must exceed the count at
    input width 1 by a multiple of ``hidden_dim``.
    """
    if not isinstance(config_dict, dict):
        raise ConfigError(f"{path}: checkpoint config is not a JSON object")
    try:
        cfg = parse_config({key: value for key, value in config_dict.items() if key != "seed"})
    except ConfigError as err:
        raise ConfigError(f"{path}: checkpoint config is invalid ({err})") from None
    base = param_count(build_damel_config(cfg.model, cfg.dataset, cfg.dataset.feature_dim or 1))
    if cfg.dataset.source == "synthetic":
        if count != base:
            raise ConfigError(f"{path}: checkpoint holds {count} parameters, its config needs {base}")
    elif count < base or (count - base) % cfg.model.hidden_dim:
        raise ConfigError(
            f"{path}: checkpoint holds {count} parameters, its {cfg.dataset.source} config "
            f"needs {base} plus a multiple of hidden_dim {cfg.model.hidden_dim}"
        )


def load_checkpoint(path):
    """Returns (config_dict, trained, averaged-or-None).

    The file must be exactly header + 8 * count bytes of trained weights,
    optionally followed by as many averaged weights, and the embedded config
    (a run config plus its ``seed``) must parse and hold ``count``
    parameters; anything else (a truncated file, trailing bytes, a count
    the config disagrees with) is a ConfigError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: bad checkpoint magic {raw[:8]!r}")
    if len(raw) < 12:
        raise ConfigError(f"{path}: truncated checkpoint header")
    (json_len,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + json_len + 8
    if len(raw) < offset:
        raise ConfigError(f"{path}: truncated checkpoint header")
    try:
        config_dict = json.loads(raw[12:12 + json_len].decode())
    except ValueError as err:
        raise ConfigError(f"{path}: checkpoint config is not valid JSON ({err})") from None
    (count,) = struct.unpack_from("<Q", raw, offset - 8)
    _check_checkpoint_count(path, config_dict, count)
    payload = len(raw) - offset
    if payload not in (8 * count, 16 * count):
        raise ConfigError(
            f"{path}: checkpoint holds {payload} weight bytes, expected {8 * count} or "
            f"{16 * count} for {count} parameters"
        )
    trained = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).astype(np.float64)
    averaged = None
    if payload == 16 * count and count:
        averaged = np.frombuffer(raw, dtype="<f8", count=count,
                                 offset=offset + 8 * count).astype(np.float64)
    return config_dict, trained, averaged


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    wall_seconds: float
    eval_report: EvalReport
    metrics_path: str
    checkpoint_path: str

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "eval": self.eval_report.to_json_dict(),
            "metrics_csv": self.metrics_path,
            "checkpoint": self.checkpoint_path,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunRecord":
        return cls(
            config_hash=payload["config_hash"],
            seed=payload["seed"],
            wall_seconds=payload["wall_seconds"],
            eval_report=EvalReport.from_json_dict(payload["eval"]),
            metrics_path=payload["metrics_csv"],
            checkpoint_path=payload["checkpoint"],
        )


def _write_metrics_csv(path, metrics, num_experts: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch"] + [f"per_expert_ce_{k}" for k in range(num_experts)]
            + ["cb", "total", "train_acc", "test_acc_raw", "test_acc_ema"]
        )
        for m in metrics:
            writer.writerow(
                [m.epoch] + [repr(float(v)) for v in m.expert_ce]
                + [repr(m.balanced_ce), repr(m.total), repr(m.train_acc),
                   repr(m.test_acc_raw), repr(m.test_acc_ema)]
            )


def run_single(cfg: ExperimentConfig, seed: int, run_dir=None) -> RunRecord:
    """Build data, train, export eval weights, evaluate, persist artifacts.

    A failed run removes its run directory, and the parents of it that it
    created, as far as they are empty.
    """
    _check_seed(seed, "seed")
    _check_source_files(cfg.dataset)
    if run_dir is None:
        run_dir = Path(cfg.output_dir) / "single" / "default" / str(seed)
    run_dir = Path(run_dir)
    started = time.perf_counter()
    new_parents = []
    for parent in run_dir.parents:
        if parent.exists():
            break
        new_parents.append(parent)
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        train_ds, test_ds, partition = build_datasets(cfg.dataset, seed)
        model_cfg = build_damel_config(cfg.model, cfg.dataset, train_ds.features.shape[1]).validate()
        model = init_model(model_cfg, seed)
        avg_state = make_avg_state(cfg.train)
        model, avg_state, metrics = train(
            model, train_ds, cfg.train, avg_state, seed=seed, test_ds=test_ds
        )
        trained = model.flatten()
        eval_model = load_eval_model(model, export_eval_weights(avg_state, trained), train_ds)
        report = evaluate(eval_model, test_ds, partition)
        onehot = labels_one_hot(report.predictions, model_cfg.num_classes)

        record = RunRecord(
            config_hash=config_hash(cfg),
            seed=seed,
            wall_seconds=time.perf_counter() - started,
            eval_report=report,
            metrics_path=str(run_dir / "metrics.csv"),
            checkpoint_path=str(run_dir / "checkpoint.bin"),
        )
        _write_metrics_csv(run_dir / "metrics.csv", metrics, model_cfg.num_experts)
        checkpoint_cfg = dict(config_to_dict(cfg), seed=seed)
        averaged = None if avg_state is None else avg_state.weights  # None before any snapshot
        save_checkpoint(run_dir / "checkpoint.bin", checkpoint_cfg, trained, averaged)
        report.save_json(run_dir / "eval.json")
        report.save_confusion_csv(run_dir / "confusion.csv")
        np.save(run_dir / "onehot.npy", onehot)
        with open(run_dir / "run.json", "w") as fh:
            json.dump(record.to_json_dict(), fh, sort_keys=True, indent=1)
        return record
    except Exception:
        shutil.rmtree(run_dir, ignore_errors=True)
        for parent in new_parents:  # deepest first; one that holds other runs stays
            try:
                parent.rmdir()
            except OSError:
                break
        raise


def resolve_workers(requested: Optional[int] = None, jobs: Optional[int] = None) -> int:
    """DAMEL_WORKERS overrides the requested worker count (default 1); below 1
    is a ConfigError, and the count is capped at ``jobs`` when given."""
    source, value = "workers", 1 if requested is None else requested
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        source = WORKERS_ENV_VAR
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    if value < 1:
        raise ConfigError(f"{source} must be >= 1, got {value}")
    return value if jobs is None else min(value, jobs)


def _run_job(job) -> RunRecord:
    """One job, inline or in a pool worker; a failure names the job's seed."""
    cfg, seed, run_dir, where = job
    try:
        return run_single(cfg, seed, run_dir)
    except Exception as err:
        raise DamelError(f"{where}: seed {seed} failed: {err}") from err


def _run_jobs(jobs, workers=None) -> list:
    """RunRecords of ``(cfg, seed, run_dir, where)`` jobs, in job order. Every
    seed and source file is checked, and no two jobs may share a run
    directory, before any job starts. A pool holds at most one job per worker
    and is handed the next only when one finishes, so the first failure
    starts no further job and is raised once the running ones finish."""
    taken = set()
    for cfg, seed, run_dir, where in jobs:
        _check_seed(seed, f"{where}: seed")
        if str(run_dir) in taken:
            raise ConfigError(f"{where}: seed {seed} is listed twice (run directory {run_dir})")
        taken.add(str(run_dir))
        _check_source_files(cfg.dataset)
    workers = resolve_workers(workers, len(jobs))
    if workers == 1:
        return [_run_job(job) for job in jobs]
    records = [None] * len(jobs)
    queued = iter(enumerate(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        running = {pool.submit(_run_job, job): i for i, job in islice(queued, workers)}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                records[running.pop(future)] = future.result()  # raises the job's DamelError
            running.update((pool.submit(_run_job, job), i) for i, job in islice(queued, len(done)))
    return records


def run_seed_sweep(cfg: ExperimentConfig, seeds=None, workers=None, sweep_dir=None):
    """Independent runs per seed plus the across-seed decomposition summary,
    built from the records' test predictions and shared test labels."""
    seeds = list(cfg.seeds if seeds is None else seeds)
    if len(seeds) < 2:
        raise ConfigError(f"sweep needs at least 2 seeds, got {len(seeds)}")
    sweep_dir = Path(sweep_dir) if sweep_dir is not None else Path(cfg.output_dir) / "sweep" / "default"
    records = _run_jobs([(cfg, seed, sweep_dir / str(seed), "sweep") for seed in seeds], workers)

    num_classes = cfg.dataset.num_classes
    preds = [labels_one_hot(r.eval_report.predictions, num_classes) for r in records]
    targets = labels_one_hot(records[0].eval_report.labels, num_classes)
    np.save(sweep_dir / "test_labels_onehot.npy", targets)
    summary = bias_variance_decompose(preds, targets)
    payload = dict(
        summary.to_json_dict(),
        config_hash=config_hash(cfg),
        seeds=seeds,
        overall_acc={str(r.seed): r.eval_report.overall_acc for r in records},
    )
    with open(sweep_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    return summary, records


# ---------------------------------------------------------------------------
# ablation suites
# ---------------------------------------------------------------------------


def vary_config(cfg: ExperimentConfig, model_updates=None, train_updates=None) -> ExperimentConfig:
    """Deep-copied config with model/train fields overridden (inputs untouched)."""
    out = copy.deepcopy(cfg)
    for key, value in (model_updates or {}).items():
        setattr(out.model, key, value)
    out.train = replace(out.train, **(train_updates or {}))
    return out


def expand_suite(cfg: ExperimentConfig, suite: str):
    """Pure expansion of a suite into (cell_name, config) pairs, fixed order."""
    if suite == "table5":
        return [
            (f"{variant}_k{k}", vary_config(cfg, model_updates={"variant": variant, "num_experts": k}))
            for variant in ("aggregate_predictions", "standard")
            for k in (2, 3, 4)
        ]
    if suite == "table7":
        return [
            (freq, vary_config(cfg, train_updates={"ema_frequency": freq}))
            for freq in ("iteration", "epoch")
        ]
    if suite == "table8":
        return [
            (f"experts_{k}", vary_config(cfg, model_updates={"num_experts": k}))
            for k in (1, 2, 3, 4)
        ]
    if suite == "table9":
        return [
            (f"rate_{rate}", vary_config(cfg, train_updates={"ema_rate": rate}))
            for rate in (0.01, 0.05, 0.1, 0.2, 0.3)
        ]
    if suite == "table10":
        return [
            (f"scale_{scale}", vary_config(cfg, model_updates={"scale": float(scale)}))
            for scale in (8, 16, 20, 24)
        ]
    if suite == "table11":
        return [
            (
                "capacity_controlled",
                vary_config(cfg, model_updates={
                    "variant": "capacity_controlled", "num_experts": 1,
                    "ref_experts": cfg.model.num_experts,
                }),
            ),
            ("standard", copy.deepcopy(cfg)),
        ]
    if suite == "table12":
        return [
            ("proposed", copy.deepcopy(cfg)),
            ("no_ema", vary_config(cfg, train_updates={"averaging": "none"})),
            ("single_expert", vary_config(cfg, model_updates={"num_experts": 1})),
            ("no_cb_loss", vary_config(cfg, train_updates={"cb_loss_enabled": False})),
            ("average_representations", vary_config(cfg, model_updates={"variant": "average_representations"})),
            ("iteration_ema", vary_config(cfg, train_updates={"ema_frequency": "iteration"})),
            ("swa", vary_config(cfg, train_updates={"averaging": "swa"})),
            ("high_ema_rate", vary_config(cfg, train_updates={"ema_rate": 0.3})),
            ("low_ema_rate", vary_config(cfg, train_updates={"ema_rate": 0.01})),
            ("decoupled", vary_config(cfg, train_updates={"decoupled": True})),
        ]
    raise ConfigError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")


def _mean_sd(values):
    values = [v for v in values if v is not None]
    if not values:
        return "", ""
    arr = np.asarray(values, dtype=np.float64)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return repr(float(arr.mean())), repr(sd)


SUMMARY_COLUMNS = [
    "suite", "cell", "seeds",
    "overall_mean", "overall_sd", "many_mean", "many_sd",
    "medium_mean", "medium_sd", "few_mean", "few_sd",
]


def _summary_row(suite: str, cell: str, records) -> list:
    row = [suite, cell, " ".join(str(r.seed) for r in records)]
    row += list(_mean_sd([r.eval_report.overall_acc for r in records]))
    for group in ("many", "medium", "few"):
        row += list(_mean_sd([r.eval_report.group_acc.get(group) for r in records]))
    return row


def _write_summary_csv(csv_path: Path, groups):
    """One summary row per ``((suite, cell), records)`` group; returns (csv_path, rows)."""
    rows = [_summary_row(suite, cell, records) for (suite, cell), records in groups]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(rows)
    return csv_path, rows


def run_ablation_suite(cfg: ExperimentConfig, suite: str, workers=None):
    """Run every cell of a suite over the configured seeds; returns (csv_path, rows)."""
    cells = expand_suite(cfg, suite)
    suite_dir = Path(cfg.output_dir) / suite
    jobs = [
        (cell_cfg, seed, suite_dir / cell / str(seed), f"{suite}/{cell}")
        for cell, cell_cfg in cells
        for seed in cfg.seeds
    ]
    records = iter(_run_jobs(jobs, workers))
    groups = [((suite, cell), [next(records) for _ in cfg.seeds]) for cell, _ in cells]
    return _write_summary_csv(suite_dir / "summary.csv", groups)


def _load_run_record(path) -> RunRecord:
    """A run.json read back; a file that holds no run record is a ConfigError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError(f"a JSON {type(payload).__name__}, not an object")
        return RunRecord.from_json_dict(payload)
    except json.JSONDecodeError as err:
        reason = f"invalid JSON: {err}"
    except KeyError as err:
        reason = f"missing field {err}"
    except (ValueError, TypeError, AttributeError) as err:
        reason = str(err)
    raise ConfigError(f"report: {path}: not a damel run record ({reason})")


def aggregate_report(root_dir):
    """Rebuild the per-cell summary CSV from run.json records under a directory."""
    root = Path(root_dir)
    if not root.is_dir():
        raise ConfigError(f"report: {root} is not a directory")
    groups: dict[tuple, list] = {}
    for run_json in sorted(root.glob("**/run.json")):
        rel = run_json.relative_to(root).parts
        # layout <suite>/<cell>/<seed>/run.json
        suite, cell = (rel[0], rel[1]) if len(rel) >= 4 else ("", "")
        groups.setdefault((suite, cell), []).append(_load_run_record(run_json))
    return _write_summary_csv(root / "report.csv", [
        (key, sorted(records, key=lambda record: record.seed))
        for key, records in sorted(groups.items())
    ])
