"""Long-tailed dataset construction and batching.

Training sets follow the exponential class-count profile
count[k] = head_count * (1/imbalance_ratio)^(k/(L-1)) with classes sorted by
descending cardinality. Test sets are always class-balanced. All operations
are pure functions of (inputs, seed).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityError, ContractError

# rng stream tags, combined with the caller's seed so the center, train-noise,
# test-noise, subsample and batching draws never collide.
_CENTER_STREAM = 0
_TRAIN_STREAM = 1
_TEST_STREAM = 2
_SUBSAMPLE_STREAM = 3
_BATCH_STREAM = 4


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class LongTailSpec:
    """Per-class training counts, sorted non-increasing."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) < 1:
            raise ContractError("LongTailSpec: needs at least one class")
        if any(c < 1 for c in counts):
            raise ContractError(f"LongTailSpec: every class count must be >= 1, got {counts}")
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ContractError(f"LongTailSpec: counts must be non-increasing, got {counts}")

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def imbalance_ratio(self) -> float:
        return self.counts[0] / self.counts[-1]


def long_tail_counts(num_classes: int, head_count: int, imbalance_ratio: float) -> LongTailSpec:
    """Exponential long-tail profile with exact endpoints.

    count[k] = round_half_up(head_count * (1/imbalance_ratio)^(k/(L-1))),
    clamped to at least 1. count[0] == head_count exactly and
    count[L-1] == round_half_up(head_count / imbalance_ratio).
    """
    if num_classes < 2:
        raise ContractError(f"long_tail_counts: need at least 2 classes, got {num_classes}")
    if head_count < 1:
        raise ContractError(f"long_tail_counts: head_count must be >= 1, got {head_count}")
    if imbalance_ratio < 1:
        raise ContractError(
            f"long_tail_counts: imbalance_ratio must be >= 1, got {imbalance_ratio}"
        )
    if head_count / imbalance_ratio < 1:
        raise ContractError(
            f"long_tail_counts: infeasible tail, head_count {head_count} / "
            f"imbalance_ratio {imbalance_ratio} falls below 1"
        )
    decay = 1.0 / imbalance_ratio
    counts = [
        max(1, _round_half_up(head_count * decay ** (k / (num_classes - 1))))
        for k in range(num_classes)
    ]
    counts[0] = head_count
    counts[-1] = max(1, _round_half_up(head_count / imbalance_ratio))
    return LongTailSpec(tuple(counts))


def balanced_spec(num_classes: int, per_class: int) -> LongTailSpec:
    return LongTailSpec((per_class,) * num_classes)


@dataclass
class Dataset:
    """Feature matrix, integer labels and the class-count profile they obey."""

    features: np.ndarray
    labels: np.ndarray
    spec: LongTailSpec

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ContractError(
                f"Dataset: features {self.features.shape} and labels "
                f"{self.labels.shape} do not align"
            )
        tallies = np.bincount(self.labels, minlength=self.spec.num_classes)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.spec.num_classes):
            raise ContractError("Dataset: label outside [0, num_classes)")
        if tuple(tallies) != self.spec.counts:
            raise ContractError(
                f"Dataset: label tallies {tuple(tallies)} disagree with spec {self.spec.counts}"
            )

    def __len__(self) -> int:
        return self.labels.shape[0]


def class_centers(num_classes: int, feature_dim: int, class_sep: float, seed: int) -> np.ndarray:
    """Deterministic unit directions scaled by class_sep, one row per class."""
    rng = np.random.default_rng([seed, _CENTER_STREAM])
    directions = rng.normal(size=(num_classes, feature_dim))
    directions /= np.sqrt((directions**2).sum(axis=1, keepdims=True))
    return class_sep * directions


def synthesize_gaussian_longtail(
    spec: LongTailSpec,
    feature_dim: int,
    class_sep: float,
    seed: int,
    center_seed: Optional[int] = None,
) -> Dataset:
    """Isotropic unit-variance Gaussian blobs with the given count profile.

    ``center_seed`` (default: ``seed``) controls the class centers separately
    from the sample noise, so repeated draws for different runs can share one
    underlying class geometry and test set.
    """
    if feature_dim < 2:
        raise ContractError(f"synthesize: feature_dim must be >= 2, got {feature_dim}")
    if class_sep <= 0:
        raise ContractError(f"synthesize: class_sep must be positive, got {class_sep}")
    centers = class_centers(
        spec.num_classes, feature_dim, class_sep, seed if center_seed is None else center_seed
    )
    rng = np.random.default_rng([seed, _TRAIN_STREAM])
    blocks, labels = [], []
    for cls, count in enumerate(spec.counts):
        blocks.append(rng.normal(size=(count, feature_dim)) + centers[cls])
        labels.append(np.full(count, cls, dtype=np.int64))
    return Dataset(np.concatenate(blocks), np.concatenate(labels), spec)


def synthesize_balanced_test(
    num_classes: int,
    per_class: int,
    feature_dim: int,
    class_sep: float,
    seed: int,
    center_seed: Optional[int] = None,
) -> Dataset:
    """Companion class-balanced set drawn around the same centers."""
    centers = class_centers(
        num_classes, feature_dim, class_sep, seed if center_seed is None else center_seed
    )
    rng = np.random.default_rng([seed, _TEST_STREAM])
    blocks, labels = [], []
    for cls in range(num_classes):
        blocks.append(rng.normal(size=(per_class, feature_dim)) + centers[cls])
        labels.append(np.full(per_class, cls, dtype=np.int64))
    return Dataset(np.concatenate(blocks), np.concatenate(labels), balanced_spec(num_classes, per_class))


def subsample_longtail(source: Dataset, spec: LongTailSpec, seed: int) -> Dataset:
    """Select a long-tailed subset of ``source`` by seed-shuffled per-class picks.

    Rows are selected, never transformed, so retained features are bit-exact.
    """
    if source.spec.num_classes != spec.num_classes:
        raise ContractError(
            f"subsample: source has {source.spec.num_classes} classes, spec wants "
            f"{spec.num_classes}"
        )
    keep = []
    for cls, count in enumerate(spec.counts):
        cls_idx = np.flatnonzero(source.labels == cls)
        if cls_idx.size < count:
            raise CapacityError(
                f"subsample: class {cls} has {cls_idx.size} samples, spec needs {count}"
            )
        order = np.random.default_rng([seed, _SUBSAMPLE_STREAM, cls]).permutation(cls_idx.size)
        keep.append(cls_idx[order[:count]])
    keep = np.concatenate(keep)
    return Dataset(source.features[keep], source.labels[keep], spec)


def split_balanced_holdout(source: Dataset, per_class: int, seed: int):
    """Split off a class-balanced test set; returns (test, remainder)."""
    test_idx, rest_idx = [], []
    for cls in range(source.spec.num_classes):
        cls_idx = np.flatnonzero(source.labels == cls)
        if cls_idx.size < per_class + 1:
            raise CapacityError(
                f"holdout: class {cls} has {cls_idx.size} samples, needs at least "
                f"{per_class + 1} to keep a training remainder"
            )
        order = np.random.default_rng([seed, _TEST_STREAM, cls]).permutation(cls_idx.size)
        test_idx.append(cls_idx[order[:per_class]])
        rest_idx.append(cls_idx[order[per_class:]])
    test_idx = np.concatenate(test_idx)
    rest_idx = np.concatenate(rest_idx)
    rest_counts = tuple(int(c) - per_class for c in source.spec.counts)
    test = Dataset(
        source.features[test_idx], source.labels[test_idx],
        balanced_spec(source.spec.num_classes, per_class),
    )
    rest = Dataset(source.features[rest_idx], source.labels[rest_idx], LongTailSpec(rest_counts))
    return test, rest


@dataclass(frozen=True)
class GroupPartition:
    """Many/Medium/Few class groups by training-count thresholds."""

    many: frozenset
    medium: frozenset
    few: frozenset
    thresholds: tuple  # (hi, lo)


def group_partition(spec: LongTailSpec, hi: int = 100, lo: int = 20) -> GroupPartition:
    """Partition classes: many > hi, few < lo, medium covers [lo, hi]."""
    if not hi > lo >= 1:
        raise ContractError(f"group_partition: thresholds must satisfy hi > lo >= 1, got ({hi}, {lo})")
    many = frozenset(c for c, n in enumerate(spec.counts) if n > hi)
    few = frozenset(c for c, n in enumerate(spec.counts) if n < lo)
    medium = frozenset(range(spec.num_classes)) - many - few
    return GroupPartition(many, medium, few, (hi, lo))


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """The deterministic sample order for one epoch."""
    return np.random.default_rng([seed, _BATCH_STREAM, epoch]).permutation(n)


def minibatch_iterator(ds: Dataset, batch_size: int, seed: int, epoch: int) -> Iterator[tuple]:
    """One pass over the data in (seed, epoch)-derived order; last batch may be short."""
    n = len(ds)
    if not 1 <= batch_size <= n:
        raise ContractError(f"minibatch_iterator: batch_size {batch_size} not in [1, {n}]")
    perm = epoch_permutation(n, seed, epoch)
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        yield ds.features[idx], ds.labels[idx]


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def load_idx_images(path) -> np.ndarray:
    """IDX image file -> [N, rows*cols] floats in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ContractError(f"{path}: truncated IDX image header")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise ContractError(f"{path}: bad IDX image magic 0x{magic:08x}")
    payload = np.frombuffer(raw, dtype=np.uint8, offset=16)
    if payload.size != n * rows * cols:
        raise ContractError(f"{path}: IDX payload size {payload.size} != {n}*{rows}*{cols}")
    return payload.astype(np.float64).reshape(n, rows * cols) / 255.0


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ContractError(f"{path}: truncated IDX label header")
    magic, n = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise ContractError(f"{path}: bad IDX label magic 0x{magic:08x}")
    payload = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if payload.size != n:
        raise ContractError(f"{path}: IDX label count {payload.size} != {n}")
    return payload.astype(np.int64)


def dataset_from_arrays(features: np.ndarray, labels: np.ndarray) -> Dataset:
    """Canonicalize arbitrary integer labels into a sorted-count Dataset.

    Classes are relabeled by descending cardinality (ties keep original label
    order) so the resulting spec satisfies the sorted-counts invariant.
    """
    labels = np.asarray(labels, dtype=np.int64)
    _, inverse, tallies = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(-tallies, kind="stable")  # unique labels are ascending
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    counts = tuple(int(n) for n in tallies[order])
    return Dataset(np.asarray(features, dtype=np.float64), rank[inverse], LongTailSpec(counts))


def load_idx_dataset(images_path, labels_path) -> Dataset:
    features = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if features.shape[0] != labels.shape[0]:
        raise ContractError(
            f"IDX pair mismatch: {features.shape[0]} images vs {labels.shape[0]} labels"
        )
    return dataset_from_arrays(features, labels)


def load_csv_dataset(path) -> Dataset:
    """CSV with one row per sample, features first, integer label last."""
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ContractError(f"{path}: not a numeric CSV table ({err})") from None
    if table.shape[1] < 2:
        raise ContractError(f"{path}: CSV needs at least one feature column plus a label")
    labels = table[:, -1]
    if not np.allclose(labels, np.round(labels)):
        raise ContractError(f"{path}: final CSV column must hold integer class labels")
    return dataset_from_arrays(table[:, :-1], labels.astype(np.int64))
