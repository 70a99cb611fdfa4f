"""The three workloads of the damel benchmark, their inputs and output checks.

Every workload is a closed loop from one process: the next unit starts when
the previous one has returned. A *unit* is the call a user waits for, made
through damel's public API only. The workload seed picks the run seeds;
``sweep_csv`` also writes its CSV pool at every set-up. damel sees only these
generated inputs. Why each workload exists is written down in ``README.md``
next to this file.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import damel

CHECKPOINT_MAGIC = b"DAMELCKP"
# magic, u32 config-JSON length, (config JSON), u64 parameter count
CHECKPOINT_FIXED_HEADER = 8 + 4 + 8


class ValidationError(Exception):
    """A unit's artifacts or return values are wrong."""


@dataclass
class Inputs:
    """What one workload hands to damel: the workload seed and a config."""

    seed: int
    config: object


@dataclass
class RunCheck:
    """What one validated run contributes to the end-to-end metrics."""

    overall_acc: float
    few_acc: float


class Workload:
    name = ""
    runs_per_unit = 1
    # Units the traced process times; fixed so per-layer counts repeat exactly.
    traced_units = 3

    def __init__(self, workers: int, tiny: bool = False):
        self.workers = workers
        self.tiny = tiny

    def make_inputs(self, seed: int, work_dir: Path) -> Inputs:
        raise NotImplementedError

    def run_seeds(self, inputs: Inputs, index: int) -> list:
        base = inputs.seed * 1000 + index * self.runs_per_unit
        return list(range(base, base + self.runs_per_unit))

    def call(self, inputs: Inputs, index: int, unit_dir: Path):
        """The unit itself: the only code inside the timed region."""
        raise NotImplementedError

    def validate(self, inputs: Inputs, index: int, unit_dir: Path, result) -> list:
        """Check a finished unit; returns one RunCheck per run or raises."""
        raise NotImplementedError


def _synthetic_raw(tiny: bool) -> dict:
    """default_config() as a raw dict, so variants stay readable."""
    raw = {
        "dataset": {
            "source": "synthetic", "num_classes": 10, "head_count": 500,
            "imbalance_ratio": 100, "feature_dim": 20, "class_sep": 3.0,
            "test_per_class": 100, "base_seed": 0,
        },
        "model": {"num_experts": 3, "hidden_dim": 64, "rep_dim": 32, "scale": 16.0},
        "train": {"epochs": 40, "batch_size": 64},
    }
    if tiny:
        _shrink(raw)
    return raw


def _shrink(raw: dict) -> None:
    """Self-check sizes: 409 training samples, 2 epochs, seconds per unit."""
    raw["dataset"].update(head_count=100, imbalance_ratio=10, test_per_class=20)
    raw["train"]["epochs"] = 2


class RunDefault(Workload):
    name = "run_default"
    runs_per_unit = 1
    traced_units = 3

    def make_inputs(self, seed, work_dir):
        if self.tiny:
            raw = _synthetic_raw(tiny=True)
            config = damel.parse_config(dict(raw, seeds=[0], output_dir=str(work_dir)))
        else:
            config = damel.default_config(output_dir=str(work_dir))
        return Inputs(seed, config)

    def call(self, inputs, index, unit_dir):
        (seed,) = self.run_seeds(inputs, index)
        return damel.run_single(inputs.config, seed, unit_dir)

    def validate(self, inputs, index, unit_dir, result):
        return [check_run_dir(unit_dir, inputs.config)]


# Pool geometry for sweep_csv: Gaussian blobs like the synthetic source.
POOL_CLASSES = 10
POOL_ROWS_PER_CLASS = 3000
POOL_FEATURES = 20
POOL_CLASS_SEP = 3.0
POOL_SEED = 7


def write_csv_pool(path: Path, rows_per_class: int) -> None:
    """Shuffled Gaussian blobs, features as %.17g and an integer label last.

    The pool is the same for every workload seed, as the synthetic source's
    test set and class geometry are (``base_seed``). damel holds its test set
    out of the pool, so a pool drawn per seed gives every seed its own test
    set; that moved mean Few-group accuracy by 17% (IQR over median, five
    seeds) between seeds, against about 2% for run seeds alone.
    """
    rng = np.random.default_rng(POOL_SEED)
    directions = rng.normal(size=(POOL_CLASSES, POOL_FEATURES))
    directions /= np.sqrt((directions ** 2).sum(axis=1, keepdims=True))
    labels = np.repeat(np.arange(POOL_CLASSES), rows_per_class)
    features = rng.normal(size=(labels.size, POOL_FEATURES)) + POOL_CLASS_SEP * directions[labels]
    order = rng.permutation(labels.size)
    table = np.column_stack([features[order], labels[order]])
    np.savetxt(path, table, fmt=["%.17g"] * POOL_FEATURES + ["%d"], delimiter=",")


class SweepCsv(Workload):
    name = "sweep_csv"
    runs_per_unit = 8
    traced_units = 3

    def make_inputs(self, seed, work_dir):
        work_dir.mkdir(parents=True, exist_ok=True)
        pool = work_dir / "pool.csv"
        write_csv_pool(pool, 150 if self.tiny else POOL_ROWS_PER_CLASS)
        raw = {
            "dataset": {
                "source": "csv", "num_classes": POOL_CLASSES, "head_count": 500,
                "imbalance_ratio": 100, "csv_path": str(pool), "test_per_class": 100,
                "base_seed": 0,
            },
            "model": {"num_experts": 1, "hidden_dim": 64, "rep_dim": 32, "scale": 16.0},
            "train": {"epochs": 10, "batch_size": 64},
            "seeds": [0, 1],
            "output_dir": str(work_dir),
        }
        if self.tiny:
            _shrink(raw)
        return Inputs(seed, damel.parse_config(raw))

    def call(self, inputs, index, unit_dir):
        return damel.run_seed_sweep(
            inputs.config, seeds=self.run_seeds(inputs, index),
            workers=self.workers, sweep_dir=unit_dir,
        )

    def validate(self, inputs, index, unit_dir, result):
        summary, records = result
        seeds = self.run_seeds(inputs, index)
        if [r.seed for r in records] != seeds:
            raise ValidationError(f"sweep returned seeds {[r.seed for r in records]}, wanted {seeds}")
        if summary.num_runs != len(seeds):
            raise ValidationError(f"sweep summary covers {summary.num_runs} runs, wanted {len(seeds)}")
        with open(unit_dir / "summary.json") as fh:
            on_disk = json.load(fh)
        for where, report in (("returned", summary.to_json_dict()), ("summary.json", on_disk)):
            gap = abs(report["bias_sq"] + report["variance"] - report["mse"])
            if not gap <= 1e-12:
                raise ValidationError(f"{where}: bias_sq + variance differs from mse by {gap!r}")
        return [check_run_dir(unit_dir / str(seed), inputs.config) for seed in seeds]


class SuiteExpertsIter(Workload):
    name = "suite_experts_iter"
    runs_per_unit = 8  # table8: K in {1, 2, 3, 4}, two seeds each
    traced_units = 2
    suite = "table8"
    seeds_per_cell = 2

    def make_inputs(self, seed, work_dir):
        raw = _synthetic_raw(self.tiny)
        raw["model"]["use_norm_layers"] = False
        raw["train"].update(ema_frequency="iteration")
        if not self.tiny:
            raw["train"]["epochs"] = 20
        config = damel.parse_config(dict(raw, seeds=[0, 1], output_dir=str(work_dir)))
        return Inputs(seed, config)

    def run_seeds(self, inputs, index):
        base = inputs.seed * 1000 + index * self.seeds_per_cell
        return list(range(base, base + self.seeds_per_cell))

    def _unit_config(self, inputs, index, unit_dir):
        # run_ablation_suite takes seeds and the output root from the config.
        config = damel.vary_config(inputs.config)
        config.seeds = self.run_seeds(inputs, index)
        config.output_dir = str(unit_dir)
        return config

    def call(self, inputs, index, unit_dir):
        config = self._unit_config(inputs, index, unit_dir)
        return damel.run_ablation_suite(config, self.suite, workers=1)

    def validate(self, inputs, index, unit_dir, result):
        config = self._unit_config(inputs, index, unit_dir)
        cells = damel.expand_suite(config, self.suite)
        names = [cell for cell, _ in cells]
        csv_path, rows = result
        with open(csv_path, newline="") as fh:
            written = [row[1] for row in list(csv.reader(fh))[1:]]
        if written != names or len(rows) != len(names):
            raise ValidationError(f"summary.csv cells {written}, wanted one row per cell {names}")
        return [check_run_dir(unit_dir / self.suite / cell / str(seed), cell_config)
                for cell, cell_config in cells for seed in config.seeds]


WORKLOADS = {w.name: w for w in (RunDefault, SweepCsv, SuiteExpertsIter)}


# ---------------------------------------------------------------------------
# per-run artifact checks
# ---------------------------------------------------------------------------


def check_run_dir(run_dir: Path, config) -> RunCheck:
    """Validate one run directory against what damel documents it writes."""
    try:
        with open(run_dir / "eval.json") as fh:
            report = json.load(fh)
        confusion = np.asarray(report["confusion"], dtype=np.int64)
        test_size = int(report["test_size"])
        overall = float(report["overall_acc"])
        few = report["group_acc"].get("few")
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ValidationError(f"{run_dir}: eval.json unreadable ({err})") from None
    classes = config.dataset.num_classes
    if confusion.shape != (classes, classes) or int(confusion.sum()) != test_size:
        raise ValidationError(f"{run_dir}: confusion {confusion.shape} does not sum to {test_size}")
    if abs(np.trace(confusion) / test_size - overall) > 1e-12:
        raise ValidationError(f"{run_dir}: confusion trace disagrees with overall_acc {overall!r}")
    if few is None:
        raise ValidationError(f"{run_dir}: eval.json has no Few-group accuracy")

    try:
        onehot = np.load(run_dir / "onehot.npy")
    except (OSError, ValueError) as err:
        raise ValidationError(f"{run_dir}: onehot.npy unreadable ({err})") from None
    if onehot.shape != (test_size, classes):
        raise ValidationError(f"{run_dir}: onehot.npy shape {onehot.shape}")
    if not (np.isin(onehot, (0.0, 1.0)).all() and (onehot.sum(axis=1) == 1.0).all()):
        raise ValidationError(f"{run_dir}: onehot.npy has a row that is not one-hot")

    _check_checkpoint(run_dir / "checkpoint.bin", config)

    try:
        with open(run_dir / "metrics.csv", newline="") as fh:
            epochs_logged = sum(1 for _ in csv.reader(fh)) - 1
    except OSError as err:
        raise ValidationError(f"{run_dir}: metrics.csv unreadable ({err})") from None
    if epochs_logged != config.train.epochs:
        raise ValidationError(f"{run_dir}: metrics.csv has {epochs_logged} epochs")
    return RunCheck(overall, float(few))


def _check_checkpoint(path: Path, config) -> None:
    """Exact length: damel's own reader ignores trailing bytes."""
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise ValidationError(f"{path}: unreadable ({err})") from None
    if raw[:8] != CHECKPOINT_MAGIC or len(raw) < 12:
        raise ValidationError(f"{path}: bad magic or truncated header")
    (json_len,) = struct.unpack_from("<I", raw, 8)
    if len(raw) < CHECKPOINT_FIXED_HEADER + json_len:
        raise ValidationError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<Q", raw, 12 + json_len)
    averaged = config.train.averaging != "none" and config.train.epochs > 0
    want = CHECKPOINT_FIXED_HEADER + json_len + 8 * count * (2 if averaged else 1)
    if len(raw) != want:
        raise ValidationError(f"{path}: {len(raw)} bytes, wanted exactly {want}")


@dataclass
class UnitLog:
    """Outcome of every unit a measurement attempted."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    runs: list = field(default_factory=list)  # RunCheck per validated run

    def record(self, label: str, error: str | None, checks=()) -> None:
        self.attempted += 1
        if error is None:
            self.runs.extend(checks)
        else:
            self.failed += 1
            self.errors.append(f"{label}: {error}")
