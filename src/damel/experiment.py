"""Config-driven experiment runner: single runs, seed sweeps, ablation grids.

Configs are JSON with three blocks (dataset, model, train) plus seeds and
output_dir; unknown keys are rejected so typos cannot silently corrupt a
grid. Every run writes its own directory (run.json, metrics.csv, eval.json,
confusion.csv, checkpoint.bin, onehot.npy) under
output_dir/<suite>/<cell>/<seed>/ and is reproducible from its config hash
plus seed. A run writes its files into a hidden .damel-run-* stage and then
renames them into its directory, run.json last, so a run that fails before
the renames creates no directory and leaves an earlier run there as it was.

Sweeps and suites share one fan-out (_run_jobs): inline for one worker, else
a process pool of at most one worker per run and per usable CPU that holds no
more runs than it has workers. Each run needs its own non-negative seed, the
files of an idx/csv source must be readable, and no run directory may lie
under a regular file, before any run starts. The first failure stops the
fan-out once the running runs finish, and records come back in memory, so a
sweep's summary reads no artifact and builds no data again. A file-backed
source (idx/csv) is parsed once per process and content, not once per run. A
CSV source is also parsed once per content across processes: the first parse
writes a table cache beside the file, <csv dir>/.damel-cache/<csv name>.npz,
keyed by the sha256 of the CSV bytes, and pool workers and later commands
load that instead. A cache that fails validation is parsed over and
rewritten, an unwritable directory means no cache, and deleting .damel-cache/
is always safe.

Checkpoint layout: 8-byte magic "DAMELCKP", u32 LE config-JSON length, the
config JSON, u64 LE parameter count, raw little-endian float64 trained
weights, then the averaged weights when an averaging scheme was active. The
config JSON is the run's key, the blocks config_hash covers plus the seed, so
a run written by another sweep or under another output_dir has the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import numbers
import os
import shutil
import struct
import tempfile
import time
import zipfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .averaging import load_eval_model
from .data import (
    Dataset,
    check_class_geometry,
    group_partition,
    load_csv_dataset,
    load_idx_dataset,
    long_tail_counts,
    split_balanced_holdout,
    subsample_longtail,
    synthesize_balanced_test,
    synthesize_gaussian_longtail,
)
from .errors import CapacityError, ConfigError, DamelError, NumericError
from .evaluation import (
    GROUP_NAMES,
    EvalReport,
    bias_variance_decompose,
    evaluate,
    labels_one_hot,
)
from .model import DamelConfig, init_model, param_count
from .training import FP_RAISE, TrainConfig, make_avg_state, train

CHECKPOINT_MAGIC = b"DAMELCKP"

# The blocks that define a run, and so its config_hash and the key its checkpoint
# embeds; seeds and output_dir do not.
_RUN_BLOCKS = ("dataset", "model", "train")

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
    for required in _RUN_BLOCKS:
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
    # Surface count-profile and class-geometry domain errors before any run starts.
    try:
        spec = long_tail_counts(dataset.num_classes, dataset.head_count, dataset.imbalance_ratio)
        if source == "synthetic":
            check_class_geometry(dataset.feature_dim, dataset.class_sep)
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
        has_aux = build_damel_config(model, dataset, probe_dim).validate().aux_input_dim is not None
    except DamelError as err:
        raise ConfigError(f"model: {err}") from None
    # The balanced term is the aux head's only gradient, and a decoupled run's
    # second half trains that head alone, so neither may be left with nothing to train.
    if train_cfg.decoupled and not has_aux:
        raise ConfigError(f"train.decoupled re-trains the auxiliary head, which variant "
                          f"{model.variant} does not have")
    if train_cfg.decoupled and train_cfg.epochs == 1:
        raise ConfigError("train.decoupled at epochs 1 leaves no epoch for its auxiliary phase")
    if has_aux and train_cfg.cb_loss_weight == 0:
        raise ConfigError(f"train.cb_loss_weight 0 leaves the auxiliary head of variant "
                          f"{model.variant}, its prediction path, untrained")
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


def _check_files(dataset: DatasetBlock, run_dir: Path) -> Path:
    """The nearest existing path among ``run_dir`` and its parents, a dangling
    symlink included, must be a directory, and every file an idx/csv source
    names must open for reading; otherwise a ConfigError names output_dir or
    the field, before any run starts. Returns that directory."""
    nearest = next(path for path in (run_dir, *run_dir.parents) if path.exists() or path.is_symlink())
    if not nearest.is_dir():
        raise ConfigError(f"output_dir: cannot make run directory {run_dir}: "
                          f"{nearest} is not a directory")
    if dataset.source == "synthetic":
        return nearest
    for field in _SOURCE_FIELDS[dataset.source]:
        path = getattr(dataset, field)
        try:
            with open(path, "rb"):
                pass
        except OSError as err:
            raise ConfigError(
                f"dataset ({dataset.source}): cannot read {field} {path!r}: {err.strerror or err}"
            ) from None
    return nearest


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err.strerror or err}") from None
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
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
    return asdict(cfg)


def _run_blocks(cfg: ExperimentConfig) -> dict:
    """The three run-defining blocks as JSON values: what config_hash digests
    and, with the seed, what a checkpoint embeds."""
    return {name: asdict(getattr(cfg, name)) for name in _RUN_BLOCKS}


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the three run-defining blocks (seed-independent)."""
    canonical = json.dumps(_run_blocks(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_damel_config(model: ModelBlock, dataset: DatasetBlock, input_dim: int) -> DamelConfig:
    return DamelConfig(input_dim=input_dim, num_classes=dataset.num_classes, **asdict(model))


# At most one parsed file-backed source per process: {key: read-only Dataset}.
_parsed_source: dict = {}

# A CSV source's table cache lives beside it: <csv dir>/.damel-cache/<csv name>.npz.
CSV_CACHE_DIR = ".damel-cache"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _file_source(dataset: DatasetBlock) -> Dataset:
    """The parsed idx/csv source, keyed by its kind, its paths and the sha256
    of each file's bytes, so a rewritten file is parsed again whatever its
    size or mtime. Lookup order: this process's memo, then (csv only) the
    table cache beside the file, then a parse. The loaders are looked up at
    call time, so a wrapped loader sees only real parses. The arrays are
    read-only: every run indexes fresh copies out of them."""
    paths = tuple(getattr(dataset, field) for field in _SOURCE_FIELDS[dataset.source])
    digests = tuple(_sha256(path) for path in paths)
    key = (dataset.source, paths, digests)
    source = _parsed_source.get(key)
    if source is None:
        _parsed_source.clear()  # never hold two sources at once
        if dataset.source == "idx":
            source = load_idx_dataset(*paths)
        else:
            source = _cached_csv(paths[0], digests[0])
        source.features.flags.writeable = False
        source.labels.flags.writeable = False
        _parsed_source[key] = source
    return source


def _cached_csv(path, digest: str) -> Dataset:
    """The CSV source from its table cache when that holds ``digest``, else
    parsed and then cached. The cache is an npz of the CSV bytes' sha256 and
    the ``features`` and canonical ``labels`` the parse returned. Any fault in
    it (missing, truncated, failing its zip CRC, another sha256, a wrong dtype
    or shape) is a miss, and a directory that cannot be written means no
    cache; neither is an error or a warning. Deleting the cache is always safe."""
    path = Path(path)
    cache = path.parent / CSV_CACHE_DIR / f"{path.name}.npz"
    try:
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            sha, features, labels = npz["sha256"], npz["features"], npz["labels"]
        if (str(sha) == digest
                and features.dtype == np.float64 and features.ndim == 2 and features.shape[1] >= 1
                and labels.dtype == np.int64 and labels.shape == features.shape[:1]):
            return Dataset(features, labels)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, DamelError):
        pass
    source = load_csv_dataset(path)
    if _sha256(path) == digest:  # cache only what the bytes that were hashed parse to
        _write_csv_cache(cache, path, digest, source)
    return source


def _write_csv_cache(cache: Path, path: Path, digest: str, source: Dataset) -> None:
    """Write the cache atomically: a temp file in its directory, then os.replace,
    so a reader sees the old file or the new one whole. The cache takes the
    CSV's permission bits, so whoever can read the CSV can read its cache."""
    try:
        cache.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache.parent, prefix=f"{cache.name}.", suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, sha256=np.array(digest), features=source.features, labels=source.labels)
        os.chmod(tmp, os.stat(path).st_mode & 0o666)
        os.replace(tmp, cache)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after the replace


def build_datasets(dataset: DatasetBlock, seed: int):
    """(train, test, partition) for one run seed.

    The balanced test set and (for synthetic data) the class geometry derive
    from base_seed only, so every seed of a sweep shares one test set while
    training data resamples per seed. An idx/csv source is parsed once per
    process and file content, kept read-only, and shared by every run that
    names the same content. A CSV source is read from its table cache
    (``.damel-cache/<csv name>.npz`` beside it) when that holds the same
    sha256, so other processes skip the parse too; see ``_cached_csv``.
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
        try:
            test_ds, rest = split_balanced_holdout(source_ds, dataset.test_per_class, dataset.base_seed)
            train_ds = subsample_longtail(rest, spec, seed=seed)
        except CapacityError as err:
            raise ConfigError(f"dataset: {err}") from None
    return train_ds, test_ds, group_partition(spec)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def encode_checkpoint(config_dict: dict, trained: np.ndarray, averaged: Optional[np.ndarray]) -> bytes:
    """The bytes of a checkpoint; averaged weights of another length are refused before any."""
    if averaged is not None and averaged.size != trained.size:
        raise ConfigError("checkpoint: averaged weights length differs from trained")
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    weights = [trained] if averaged is None else [trained, averaged]
    header = [CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob, struct.pack("<Q", trained.size)]
    return b"".join(header + [np.asarray(w, dtype="<f8").tobytes() for w in weights])


def _check_checkpoint_count(path, config_dict, count: int) -> None:
    """``config_dict`` must be a run config plus its seed, and ``count`` the
    parameter count of that run config.

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
    _check_seed(config_dict.get("seed"), f"{path}: checkpoint seed")
    base = param_count(build_damel_config(cfg.model, cfg.dataset, cfg.dataset.feature_dim or 1))
    if cfg.dataset.source == "synthetic":
        if count != base:
            raise ConfigError(f"{path}: checkpoint holds {count} parameters, its config needs {base}")
    elif count < base or (count - base) % cfg.model.hidden_dim:
        raise ConfigError(
            f"{path}: checkpoint holds {count} parameters, its {cfg.dataset.source} config "
            f"needs {base} plus a multiple of hidden_dim {cfg.model.hidden_dim}"
        )


def decode_checkpoint(raw: bytes, name):
    """Returns (config_dict, trained, averaged-or-None) from a checkpoint's
    bytes; ``name`` only labels errors.

    The bytes must be exactly header + 8 * count bytes of trained weights,
    optionally followed by as many averaged weights, and the embedded config
    (a run config plus its ``seed``) must parse, carry a valid seed and hold
    ``count`` parameters; anything else (truncated bytes, trailing bytes, a
    count the config disagrees with) is a ConfigError.
    """
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{name}: bad checkpoint magic {raw[:8]!r}")
    if len(raw) < 12:
        raise ConfigError(f"{name}: truncated checkpoint header")
    (json_len,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + json_len + 8
    if len(raw) < offset:
        raise ConfigError(f"{name}: truncated checkpoint header")
    try:
        config_dict = json.loads(raw[12:12 + json_len].decode())
    except ValueError as err:
        raise ConfigError(f"{name}: checkpoint config is not valid JSON ({err})") from None
    (count,) = struct.unpack_from("<Q", raw, offset - 8)
    _check_checkpoint_count(name, config_dict, count)
    payload = len(raw) - offset
    if payload not in (8 * count, 16 * count):
        raise ConfigError(
            f"{name}: checkpoint holds {payload} weight bytes, expected {8 * count} or "
            f"{16 * count} for {count} parameters"
        )
    trained = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).astype(np.float64)
    averaged = None
    if payload == 16 * count and count:
        averaged = np.frombuffer(raw, dtype="<f8", count=count,
                                 offset=offset + 8 * count).astype(np.float64)
    return config_dict, trained, averaged


def load_checkpoint(path):
    """``decode_checkpoint`` of the file at ``path``."""
    return decode_checkpoint(Path(path).read_bytes(), path)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    wall_seconds: float
    eval_report: EvalReport

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "eval": self.eval_report.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunRecord":
        """A record read back from JSON, keys it does not use ignored; a field
        of the wrong type is a ConfigError or, inside ``eval``, a ValueError naming it."""
        _check_seed(payload["seed"], "seed")
        for name, kind in (("config_hash", str), ("wall_seconds", float)):
            if not _value_fits(kind, payload[name]):
                raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {payload[name]!r}")
        return cls(
            config_hash=payload["config_hash"],
            seed=payload["seed"],
            wall_seconds=payload["wall_seconds"],
            eval_report=EvalReport.from_json_dict(payload["eval"]),
        )


def _write_metrics(path, metrics, num_experts: int) -> None:
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
    """Build data, train, evaluate the averaged (else trained) weights, persist artifacts.

    Training and the final evaluation run under ``FP_RAISE``, so a
    floating-point fault in either fails the run as a NumericError; data
    ingestion runs outside it. The artifacts are written into a stage, a
    fresh ``.damel-run-*`` directory in the nearest existing directory at or
    above ``run_dir``, and then renamed into ``run_dir`` one by one, run.json
    last. So a run that fails before the renames creates no directory and
    leaves an earlier run in ``run_dir`` byte for byte. The stage is removed
    however the run ends, unless its process is killed.
    """
    _check_seed(seed, "seed")
    if run_dir is None:
        run_dir = Path(cfg.output_dir) / "single" / "default" / str(seed)
    run_dir = Path(run_dir)
    nearest = _check_files(cfg.dataset, run_dir)
    started = time.perf_counter()
    train_ds, test_ds, partition = build_datasets(cfg.dataset, seed)
    model_cfg = build_damel_config(cfg.model, cfg.dataset, train_ds.features.shape[1]).validate()
    model = init_model(model_cfg, seed)
    avg_state = make_avg_state(cfg.train)
    model, avg_state, metrics = train(
        model, train_ds, cfg.train, avg_state, seed=seed, test_ds=test_ds
    )
    averaged = None if avg_state is None else avg_state.weights  # None before any snapshot
    weights = model.buffer if averaged is None else averaged
    try:
        with np.errstate(**FP_RAISE):
            report = evaluate(load_eval_model(model, weights, train_ds), test_ds, partition)
    except FloatingPointError as err:
        raise NumericError(f"{err} (final evaluation)") from None
    onehot = labels_one_hot(report.predictions, model_cfg.num_classes)

    record = RunRecord(
        config_hash=config_hash(cfg),
        seed=seed,
        wall_seconds=time.perf_counter() - started,
        eval_report=report,
    )
    stage = Path(tempfile.mkdtemp(prefix=".damel-run-", dir=nearest))
    try:
        _write_metrics(stage / "metrics.csv", metrics, model_cfg.num_experts)
        (stage / "checkpoint.bin").write_bytes(
            encode_checkpoint(dict(_run_blocks(cfg), seed=seed), model.buffer, averaged))
        report.save_json(stage / "eval.json")
        report.save_confusion_csv(stage / "confusion.csv")
        np.save(stage / "onehot.npy", onehot)
        # ``damel report`` finds runs by run.json, so the stage holds none:
        # what a killed process leaves never reads as a run.
        with open(stage / "run.json.tmp", "w") as fh:
            json.dump(record.to_json_dict(), fh, sort_keys=True, indent=1)
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in ("metrics.csv", "checkpoint.bin", "eval.json", "confusion.csv", "onehot.npy"):
            os.replace(stage / name, run_dir / name)
        os.replace(stage / "run.json.tmp", run_dir / "run.json")
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return record


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(requested: Optional[int] = None, jobs: Optional[int] = None) -> int:
    """The requested worker count (default 1); below 1 is a ConfigError. The
    count is capped at the usable CPU count, since a pool starts all its
    workers at once, and at ``jobs`` when given."""
    value = 1 if requested is None else requested
    if value < 1:
        raise ConfigError(f"workers must be >= 1, got {value}")
    value = min(value, _usable_cpus())
    return value if jobs is None else min(value, jobs)


def _run_job(job) -> RunRecord:
    """One job, inline or in a pool worker; a failure names the job's seed. A
    ConfigError stays one, so it exits as a config error under every command."""
    cfg, seed, run_dir, where = job
    try:
        return run_single(cfg, seed, run_dir)
    except Exception as err:
        kind = ConfigError if isinstance(err, ConfigError) else DamelError
        raise kind(f"{where}: seed {seed} failed: {err}") from err


def _run_jobs(jobs, workers=None) -> list:
    """RunRecords of ``(cfg, seed, run_dir, where)`` jobs, in job order. Every
    seed, source file and run directory is checked, no two jobs may share a
    run directory, and no job's cell may hold a run.json this call does not
    list, before any job starts. A pool holds at most one job per worker and
    is handed the next only when one finishes, so the first failure starts no
    further job and is raised once the running ones finish."""
    taken = set()
    for cfg, seed, run_dir, where in jobs:
        _check_seed(seed, f"{where}: seed")
        if Path(run_dir) in taken:
            raise ConfigError(f"{where}: seed {seed} is listed twice (run directory {run_dir})")
        taken.add(Path(run_dir))
        _check_files(cfg.dataset, Path(run_dir))
    # A cell's summary covers the runs listed here and damel report every run
    # in the cell, so an earlier run of another seed would make them disagree.
    for cell, where in {Path(run_dir).parent: where for _, _, run_dir, where in jobs}.items():
        others = sorted((p.parent.name for p in cell.glob("*/run.json") if p.parent not in taken),
                        key=lambda name: (len(name), name))
        if others:
            raise ConfigError(f"{where}: {cell} holds runs of seeds {' '.join(others)} that are "
                              "not listed; list them too or use another output_dir")
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


def cell_summary(records) -> dict:
    """Every statistic of one cell's runs, taken in seed order, so that it
    depends on the set of runs and not on their order: ``seeds``; the mean and
    sample (ddof=1) sd of ``overall`` and of each group's accuracy, as
    ``<name>_mean`` and ``<name>_sd``, None where undefined; ``decomposition``,
    the one-hot bias_variance_decompose of the runs' test predictions, None
    below two runs or for records read back from run.json, which carry none."""
    reports = [r.eval_report for r in sorted(records, key=lambda record: record.seed)]
    summary = {"seeds": sorted(r.seed for r in records)}
    accuracies = [dict(report.group_acc, overall=report.overall_acc) for report in reports]
    for name in ("overall", *GROUP_NAMES):
        arr = np.asarray([acc[name] for acc in accuracies if acc.get(name) is not None], dtype=np.float64)
        summary[f"{name}_mean"] = float(arr.mean()) if arr.size else None
        summary[f"{name}_sd"] = float(arr.std(ddof=1)) if arr.size > 1 else None
    summary["decomposition"] = None
    if len(reports) > 1 and all(report.predictions is not None for report in reports):
        classes = reports[0].confusion.shape[0]
        summary["decomposition"] = bias_variance_decompose(
            [labels_one_hot(report.predictions, classes) for report in reports],
            labels_one_hot(reports[0].labels, classes))
    return summary


def run_seed_sweep(cfg: ExperimentConfig, seeds=None, workers=None, sweep_dir=None):
    """Independent runs per seed; returns the cell's decomposition from
    cell_summary and the records in the order of ``seeds``, which summary.json
    also keeps. Both are built in memory: no artifact is read back."""
    seeds = list(cfg.seeds if seeds is None else seeds)
    if len(seeds) < 2:
        raise ConfigError(f"sweep needs at least 2 seeds, got {len(seeds)}")
    sweep_dir = Path(sweep_dir) if sweep_dir is not None else Path(cfg.output_dir) / "sweep" / "default"
    records = _run_jobs([(cfg, seed, sweep_dir / str(seed), "sweep") for seed in seeds], workers)

    np.save(sweep_dir / "test_labels_onehot.npy",
            labels_one_hot(records[0].eval_report.labels, cfg.dataset.num_classes))
    summary = cell_summary(records)["decomposition"]
    payload = dict(summary.to_json_dict(), config_hash=config_hash(cfg), seeds=seeds,
                   overall_acc={str(r.seed): r.eval_report.overall_acc for r in records})
    with open(sweep_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    return summary, records


# ---------------------------------------------------------------------------
# ablation suites
# ---------------------------------------------------------------------------


def vary_config(cfg: ExperimentConfig, model_updates=None, train_updates=None) -> ExperimentConfig:
    """``cfg`` with model/train fields overridden, as a new config that
    parse_config checks like a config file, so a bad override builds no data."""
    raw = config_to_dict(cfg)
    raw["model"].update(model_updates or {})
    raw["train"].update(train_updates or {})
    return parse_config(raw)


def _suite_cells(model: ModelBlock) -> dict:
    """Every suite's cells in table order, each (cell name, model updates,
    train updates); an unchanged cell has no updates. Only table11 reads the
    config: its capacity_controlled cell is one standard expert as wide as the
    configured experts side by side, num_experts * rep_dim."""
    return {
        "table5": [(f"{variant}_k{k}", {"variant": variant, "num_experts": k}, {})
                   for variant in ("aggregate_predictions", "standard") for k in (2, 3, 4)],
        "table7": [(freq, {}, {"ema_frequency": freq}) for freq in ("iteration", "epoch")],
        "table8": [(f"experts_{k}", {"num_experts": k}, {}) for k in (1, 2, 3, 4)],
        "table9": [(f"rate_{rate}", {}, {"ema_rate": rate}) for rate in (0.01, 0.05, 0.1, 0.2, 0.3)],
        "table10": [(f"scale_{scale}", {"scale": float(scale)}, {}) for scale in (8, 16, 20, 24)],
        "table11": [
            ("capacity_controlled", {"variant": "standard", "num_experts": 1,
                                     "rep_dim": model.rep_dim * model.num_experts}, {}),
            ("standard", {}, {}),
        ],
        "table12": [
            ("proposed", {}, {}),
            ("no_ema", {}, {"averaging": "none"}),
            ("single_expert", {"num_experts": 1}, {}),
            ("no_cb_loss", {}, {"cb_loss_enabled": False}),
            ("average_representations", {"variant": "average_representations"}, {}),
            ("iteration_ema", {}, {"ema_frequency": "iteration"}),
            ("swa", {}, {"averaging": "swa"}),
            ("high_ema_rate", {}, {"ema_rate": 0.3}),
            ("low_ema_rate", {}, {"ema_rate": 0.01}),
            ("decoupled", {}, {"decoupled": True}),
        ],
    }


SUITES = tuple(_suite_cells(ModelBlock()))


def expand_suite(cfg: ExperimentConfig, suite: str):
    """Pure expansion of a suite into (cell_name, config) pairs, in table order;
    vary_config checks each cell, and a bad one is a ConfigError naming it."""
    cells = _suite_cells(cfg.model).get(suite)
    if cells is None:
        raise ConfigError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    pairs = []
    for cell, model, train in cells:
        try:
            pairs.append((cell, vary_config(cfg, model, train)))
        except ConfigError as err:
            raise ConfigError(f"{suite}/{cell}: {err}") from None
    return pairs


SUMMARY_COLUMNS = ["suite", "cell", "seeds", "overall_mean", "overall_sd"] + [
    f"{group}_{stat}" for group in GROUP_NAMES for stat in ("mean", "sd")
]


def _write_summary_csv(csv_path: Path, groups):
    """The cell_summary of each ``((suite, cell), records)`` group as a row, an
    undefined statistic an empty field; returns (csv_path, rows)."""
    summaries = [(key, cell_summary(records)) for key, records in groups]
    rows = [[*key, " ".join(map(str, s["seeds"]))]
            + ["" if s[c] is None else repr(s[c]) for c in SUMMARY_COLUMNS[3:]] for key, s in summaries]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(rows)
    return csv_path, rows


def run_ablation_suite(cfg: ExperimentConfig, suite: str, workers=None):
    """Run every cell of a suite over the configured seeds; returns (csv_path, rows).
    expand_suite checks every cell's config before any run starts."""
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
    except (ConfigError, ValueError, TypeError, AttributeError) as err:
        reason = str(err)
    raise ConfigError(f"report: {path}: not a damel run record ({reason})")


def aggregate_report(root_dir):
    """Rebuild the per-cell summary CSV from run.json records under a directory,
    which may be any level of a <suite>/<cell>/<seed>/run.json tree: each run's
    suite and cell are the two directory names above its seed directory. A
    tree that holds no run.json, or a cell whose runs repeat a seed or come
    from two configs, is a ConfigError, and no CSV is written."""
    root = Path(root_dir)
    if not root.is_dir():
        raise ConfigError(f"report: {root} is not a directory")
    cells: dict[tuple, dict] = {}  # {(suite, cell): {seed: (run.json path, record)}}
    for run_json in sorted(root.glob("**/run.json")):
        cell_dir = run_json.absolute().parent.parent
        runs = cells.setdefault((cell_dir.parent.name, cell_dir.name), {})
        record = _load_run_record(run_json)
        # A run clashes with its seed's earlier run, else with the cell's first run's config.
        path, earlier = runs.get(record.seed) or next(iter(runs.values()), (None, None))
        if earlier and (earlier.seed == record.seed or earlier.config_hash != record.config_hash):
            why = f"repeat seed {record.seed}" if earlier.seed == record.seed else "come from two configs"
            raise ConfigError(f"report: {path} and {run_json} {why} in one cell")
        runs[record.seed] = (run_json, record)
    if not cells:
        raise ConfigError(f"report: no run records under {root}")
    return _write_summary_csv(root / "report.csv", [
        (key, [record for _, record in runs.values()]) for key, runs in sorted(cells.items())
    ])
