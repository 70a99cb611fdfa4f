"""Test-time metrics: group-wise accuracy, confusion matrices, and the
across-runs squared-bias / variance decomposition of one-hot predictions.

With deterministic labels the squared error of one-hot predictions splits
exactly: mse = bias_sq + variance, where the mean prediction is taken over
repeated training runs (different sampling/init seeds, shared test set).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset, GroupPartition
from .errors import ContractError
from .model import DamelModel, predict

GROUP_NAMES = ("many", "medium", "few")


@dataclass
class EvalReport:
    """Overall/group accuracy plus the full confusion matrix.

    ``predictions`` and ``labels`` keep the per-sample predicted and true
    classes (None when rebuilt from JSON); neither is serialized.
    """

    overall_acc: float
    group_acc: dict
    test_size: int
    confusion: np.ndarray
    predictions: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    labels: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "overall_acc": self.overall_acc,
            "group_acc": {k: v for k, v in self.group_acc.items() if v is not None},
            "test_size": self.test_size,
            "confusion": self.confusion.astype(int).tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "EvalReport":
        return cls(
            overall_acc=payload["overall_acc"],
            group_acc={g: payload["group_acc"].get(g) for g in GROUP_NAMES},
            test_size=payload["test_size"],
            confusion=np.asarray(payload["confusion"]),
        )

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)

    def save_confusion_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true\\pred"] + list(range(self.confusion.shape[1])))
            for i, row in enumerate(self.confusion.astype(int)):
                writer.writerow([i] + row.tolist())


def evaluate(model: DamelModel, test_ds: Dataset, partition: GroupPartition) -> EvalReport:
    """Accuracy via the model's prediction path, grouped by training counts."""
    num_classes = model.config.num_classes
    if test_ds.labels.size and test_ds.labels.max() >= num_classes:
        raise IndexError(
            f"evaluate: label {int(test_ds.labels.max())} outside [0, {num_classes})"
        )
    preds = predict(model, test_ds.features)
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (test_ds.labels, preds), 1)
    total = int(confusion.sum())
    overall = float(np.trace(confusion)) / total
    group_acc = {}
    for name in GROUP_NAMES:
        classes = sorted(getattr(partition, name))
        group_total = int(confusion[classes].sum()) if classes else 0
        if group_total == 0:
            group_acc[name] = None
        else:
            correct = int(confusion[classes, classes].sum())
            group_acc[name] = correct / group_total
    return EvalReport(overall, group_acc, total, confusion, preds, test_ds.labels)


def one_hot_predictions(model: DamelModel, test_ds: Dataset) -> np.ndarray:
    """[M, L] indicator matrix of the model's predictions."""
    return labels_one_hot(predict(model, test_ds.features), model.config.num_classes)


def labels_one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass
class BiasVarianceReport:
    """Per-sample-normalized decomposition over repeated runs."""

    bias_sq: float
    variance: float
    mse: float
    num_runs: int
    per_sample: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "bias_sq": self.bias_sq,
            "variance": self.variance,
            "mse": self.mse,
            "num_runs": self.num_runs,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)


def bias_variance_decompose(preds_per_run, labels_onehot, return_per_sample: bool = False) -> BiasVarianceReport:
    """Decompose squared prediction error over runs.

    bias_sq = mean_m ||y_m - mean_pred_m||^2,
    variance = mean_{s,m} ||pred_{s,m} - mean_pred_m||^2,
    mse = mean_{s,m} ||y_m - pred_{s,m}||^2,
    so bias_sq + variance == mse exactly up to rounding.
    """
    stack = np.stack([np.asarray(p, dtype=np.float64) for p in preds_per_run])
    labels_onehot = np.asarray(labels_onehot, dtype=np.float64)
    runs = stack.shape[0]
    if runs < 2:
        raise ContractError(f"bias_variance_decompose: need at least 2 runs, got {runs}")
    if stack.shape[1:] != labels_onehot.shape:
        raise ContractError(
            f"bias_variance_decompose: prediction shape {stack.shape[1:]} does not match "
            f"labels {labels_onehot.shape}"
        )
    samples = labels_onehot.shape[0]
    mean_pred = stack.mean(axis=0)
    bias_per_sample = ((labels_onehot - mean_pred) ** 2).sum(axis=1)
    var_per_sample = ((stack - mean_pred) ** 2).sum(axis=2).mean(axis=0)
    mse_per_sample = ((labels_onehot - stack) ** 2).sum(axis=2).mean(axis=0)
    report = BiasVarianceReport(
        bias_sq=float(bias_per_sample.sum() / samples),
        variance=float(var_per_sample.sum() / samples),
        mse=float(mse_per_sample.sum() / samples),
        num_runs=runs,
    )
    if return_per_sample:
        report.per_sample = {
            "bias_sq": bias_per_sample,
            "variance": var_per_sample,
            "mse": mse_per_sample,
        }
    return report
