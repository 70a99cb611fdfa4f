"""Evaluation tests: accuracy aggregation, one-hot predictions, decomposition."""

import json

import numpy as np
import pytest

from damel.data import LongTailSpec, group_partition, synthesize_gaussian_longtail
from damel.errors import ContractError
from damel.evaluation import (
    bias_variance_decompose,
    evaluate,
    labels_one_hot,
)
from damel.model import DamelConfig, init_model


def eval_setup(seed=0):
    train_spec = LongTailSpec((500, 50, 5))
    partition = group_partition(train_spec)
    test_ds = synthesize_gaussian_longtail(LongTailSpec((10,) * 3), 4, 3.0, seed=seed)
    model = init_model(
        DamelConfig(num_experts=2, input_dim=4, hidden_dim=6, rep_dim=3, num_classes=3),
        seed=seed,
    )
    return model, test_ds, partition


class TestEvaluate:
    def test_counts_and_overall(self):
        model, test_ds, partition = eval_setup()
        report = evaluate(model, test_ds, partition)
        assert report.test_size == 30
        assert int(report.confusion.sum()) == 30
        assert report.overall_acc == np.trace(report.confusion) / 30

    def test_groups_recombine_to_overall(self):
        model, test_ds, partition = eval_setup(seed=1)
        report = evaluate(model, test_ds, partition)
        groups = {"many": [0], "medium": [1], "few": [2]}
        weighted = sum(
            report.group_acc[g] * report.confusion[classes].sum()
            for g, classes in groups.items()
        )
        assert abs(weighted / report.test_size - report.overall_acc) < 1e-12

    def test_perfect_and_half_accuracy_paths(self):
        confusion = np.array([[10, 0], [0, 10]])
        assert np.trace(confusion) / confusion.sum() == 1.0
        confusion = np.array([[10, 0], [10, 0]])
        assert np.trace(confusion) / confusion.sum() == 0.5

    def test_label_outside_the_model_classes_is_index_error(self):
        model, _, partition = eval_setup()
        test_ds = synthesize_gaussian_longtail(LongTailSpec((2,) * 4), 4, 3.0, seed=0)
        with pytest.raises(IndexError, match=r"^evaluate: label 3 outside \[0, 3\)$"):
            evaluate(model, test_ds, partition)

    def test_empty_group_absent_not_zero(self):
        model, test_ds, _ = eval_setup()
        partition = group_partition(LongTailSpec((500, 400, 300)))  # all classes "many"
        report = evaluate(model, test_ds, partition)
        assert report.group_acc["few"] is None
        assert report.group_acc["medium"] is None
        assert "few" not in report.to_json_dict()["group_acc"]

    def test_json_and_csv_round_trip(self, tmp_path):
        model, test_ds, partition = eval_setup()
        report = evaluate(model, test_ds, partition)
        report.save_json(tmp_path / "eval.json")
        loaded = json.loads((tmp_path / "eval.json").read_text())
        assert loaded["overall_acc"] == report.overall_acc
        report.save_confusion_csv(tmp_path / "confusion.csv")
        rows = (tmp_path / "confusion.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 classes


class TestLabelsOneHot:
    def test_labels_one_hot(self):
        out = labels_one_hot(np.array([1, 0]), 3)
        np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 0]])


class TestBiasVarianceDecompose:
    def test_all_correct_everywhere(self):
        labels = labels_one_hot(np.array([0, 1, 1]), 2)
        report = bias_variance_decompose([labels.copy(), labels.copy()], labels)
        assert (report.bias_sq, report.variance, report.mse) == (0.0, 0.0, 0.0)

    def test_hand_case_exact(self):
        # one sample, true class 0, runs predict class 0 and class 1
        labels = np.array([[1.0, 0.0]])
        preds = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        report = bias_variance_decompose(preds, labels)
        assert report.bias_sq == 0.5
        assert report.variance == 0.5
        assert report.mse == 1.0

    def test_identity_on_random_ensembles(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            runs, samples, classes = rng.integers(2, 6), int(rng.integers(1, 30)), int(rng.integers(2, 6))
            labels = labels_one_hot(rng.integers(0, classes, size=samples), classes)
            preds = [
                labels_one_hot(rng.integers(0, classes, size=samples), classes)
                for _ in range(runs)
            ]
            report = bias_variance_decompose(preds, labels)
            assert abs(report.bias_sq + report.variance - report.mse) < 1e-9

    def test_variance_zero_iff_runs_identical(self):
        rng = np.random.default_rng(1)
        labels = labels_one_hot(rng.integers(0, 3, size=10), 3)
        same = labels_one_hot(rng.integers(0, 3, size=10), 3)
        assert bias_variance_decompose([same, same.copy()], labels).variance == 0.0
        different = same.copy()
        different[0] = np.roll(different[0], 1)
        assert bias_variance_decompose([same, different], labels).variance > 0.0

    def test_run_order_invariant(self):
        rng = np.random.default_rng(2)
        labels = labels_one_hot(rng.integers(0, 4, size=8), 4)
        preds = [labels_one_hot(rng.integers(0, 4, size=8), 4) for _ in range(4)]
        a = bias_variance_decompose(preds, labels)
        b = bias_variance_decompose(preds[::-1], labels)
        assert (a.bias_sq, a.variance, a.mse) == (b.bias_sq, b.variance, b.mse)

    def test_needs_two_runs(self):
        labels = labels_one_hot(np.array([0]), 2)
        with pytest.raises(ContractError, match="at least 2"):
            bias_variance_decompose([labels], labels)

    def test_prediction_shape_must_match_labels(self):
        labels = labels_one_hot(np.array([0, 1]), 2)
        with pytest.raises(ContractError, match=r"prediction shape \(3, 2\) does not match labels \(2, 2\)"):
            bias_variance_decompose([np.zeros((3, 2))] * 2, labels)

    def test_group_terms_partition_the_whole(self):
        # A group's terms are the decomposition of its rows alone: each term
        # averaged over those rows, and the groups' row-weighted terms sum to
        # the whole's.
        rng = np.random.default_rng(3)
        for _ in range(100):
            runs, samples, classes = int(rng.integers(2, 6)), int(rng.integers(2, 40)), int(rng.integers(2, 6))
            labels = labels_one_hot(rng.integers(0, classes, size=samples), classes)
            stack = np.stack([labels_one_hot(rng.integers(0, classes, size=samples), classes)
                              for _ in range(runs)])
            mean = stack.mean(axis=0)
            per_row = {"bias_sq": ((labels - mean) ** 2).sum(axis=1),
                       "variance": ((stack - mean) ** 2).sum(axis=2).mean(axis=0),
                       "mse": ((labels - stack) ** 2).sum(axis=2).mean(axis=0)}
            whole = bias_variance_decompose(stack, labels).to_json_dict()
            group_of = rng.integers(0, 3, size=samples)
            weighted = dict.fromkeys(per_row, 0.0)
            for group in np.unique(group_of):
                rows = group_of == group
                terms = bias_variance_decompose(stack[:, rows], labels[rows]).to_json_dict()
                for term, values in per_row.items():
                    assert abs(terms[term] - values[rows].mean()) <= 1e-12
                    weighted[term] += terms[term] * rows.sum() / samples
            for term in per_row:
                assert abs(weighted[term] - whole[term]) <= 1e-12

    def test_json_serialization(self):
        labels = labels_one_hot(np.array([0]), 2)
        report = bias_variance_decompose([labels, 1.0 - labels], labels)
        loaded = json.loads(json.dumps(report.to_json_dict()))
        assert loaded["num_runs"] == 2 and loaded["mse"] == report.mse
