"""Data module tests: count profiles, synthesis, subsampling, batching, ingestion."""

import struct

import numpy as np
import pytest

from damel.data import (
    Dataset,
    GroupPartition,
    LongTailSpec,
    balanced_spec,
    dataset_from_arrays,
    epoch_permutation,
    group_partition,
    load_csv_dataset,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    long_tail_counts,
    minibatch_iterator,
    split_balanced_holdout,
    subsample_longtail,
    synthesize_balanced_test,
    synthesize_gaussian_longtail,
)
from damel.errors import CapacityError, ContractError


class TestLongTailCounts:
    def test_two_class_endpoints(self):
        assert long_tail_counts(2, 100, 100).counts == (100, 1)

    def test_balanced_degenerate(self):
        assert long_tail_counts(5, 80, 1).counts == (80,) * 5

    def test_ten_class_profile_matches_high_precision_oracle(self):
        # Frozen from a 50-digit evaluation of head * (1/ratio)^(k/9), half-up.
        expected = (1000, 599, 359, 215, 129, 77, 46, 28, 17, 10)
        assert long_tail_counts(10, 1000, 100).counts == expected

    def test_monotone_and_exact_endpoints(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            num_classes = int(rng.integers(2, 60))
            head = int(rng.integers(1, 5000))
            ratio = float(rng.uniform(1.0, head))
            spec = long_tail_counts(num_classes, head, ratio)
            counts = spec.counts
            assert counts[0] == head
            assert counts[-1] == int(np.floor(head / ratio + 0.5)) or counts[-1] == 1
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert min(counts) >= 1

    def test_invalid_ratio(self):
        with pytest.raises(ContractError, match="imbalance_ratio"):
            long_tail_counts(5, 100, 0.5)

    def test_infeasible_tail(self):
        with pytest.raises(ContractError, match="infeasible tail"):
            long_tail_counts(5, 10, 100)

    def test_spec_ratio_is_exact_count_ratio(self):
        spec = long_tail_counts(10, 100, 7)
        assert spec.imbalance_ratio == spec.counts[0] / spec.counts[-1]

    def test_spec_rejects_unsorted_counts(self):
        with pytest.raises(ContractError, match="non-increasing"):
            LongTailSpec((5, 10))


class TestSynthesize:
    def test_tallies_respected(self):
        ds = synthesize_gaussian_longtail(LongTailSpec((5, 5)), 2, 1.0, seed=3)
        assert dict(zip(*np.unique(ds.labels, return_counts=True))) == {0: 5, 1: 5}

    def test_deterministic(self):
        spec = long_tail_counts(4, 20, 4)
        a = synthesize_gaussian_longtail(spec, 3, 2.0, seed=9)
        b = synthesize_gaussian_longtail(spec, 3, 2.0, seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_center_seed_shares_geometry_across_noise_seeds(self):
        spec = balanced_spec(3, 10)
        a = synthesize_gaussian_longtail(spec, 4, 2.0, seed=1, center_seed=7)
        b = synthesize_gaussian_longtail(spec, 4, 2.0, seed=2, center_seed=7)
        assert a.features.tobytes() != b.features.tobytes()
        # class means estimate the shared centers
        mean_a = np.stack([a.features[a.labels == c].mean(axis=0) for c in range(3)])
        mean_b = np.stack([b.features[b.labels == c].mean(axis=0) for c in range(3)])
        assert np.abs(mean_a - mean_b).max() < 2.0

    def test_well_separated_classes_are_linearly_solvable(self):
        # Oracle: least-squares one-vs-rest probe; 8-sigma separation makes the
        # classes nearly disjoint, so the probe must reach 99%+ accuracy.
        spec = balanced_spec(4, 200)
        train = synthesize_gaussian_longtail(spec, 5, 8.0, seed=11)
        test = synthesize_balanced_test(4, 100, 5, 8.0, seed=11)
        x = np.hstack([train.features, np.ones((len(train), 1))])
        targets = np.eye(4)[train.labels]
        coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
        xt = np.hstack([test.features, np.ones((len(test), 1))])
        acc = ((xt @ coef).argmax(axis=1) == test.labels).mean()
        assert acc >= 0.99

    def test_balanced_test_uses_same_centers(self):
        test = synthesize_balanced_test(3, 50, 4, 6.0, seed=5)
        train = synthesize_gaussian_longtail(balanced_spec(3, 50), 4, 6.0, seed=5)
        for c in range(3):
            mu_test = test.features[test.labels == c].mean(axis=0)
            mu_train = train.features[train.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_test - mu_train) < 1.5

    def test_invalid_args(self):
        with pytest.raises(ContractError, match="feature_dim"):
            synthesize_gaussian_longtail(balanced_spec(2, 3), 1, 1.0, seed=0)
        with pytest.raises(ContractError, match="class_sep"):
            synthesize_gaussian_longtail(balanced_spec(2, 3), 2, 0.0, seed=0)


class TestSubsample:
    def test_identity_spec_keeps_everything(self):
        src = synthesize_gaussian_longtail(balanced_spec(2, 5), 2, 1.0, seed=0)
        out = subsample_longtail(src, src.spec, seed=1)
        assert sorted(map(tuple, out.features)) == sorted(map(tuple, src.features))

    def test_target_tallies(self):
        src = synthesize_gaussian_longtail(balanced_spec(2, 5), 2, 1.0, seed=0)
        out = subsample_longtail(src, LongTailSpec((3, 1)), seed=1)
        assert dict(zip(*np.unique(out.labels, return_counts=True))) == {0: 3, 1: 1}

    def test_rows_kept_bit_exact(self):
        src = synthesize_gaussian_longtail(balanced_spec(3, 6), 3, 1.0, seed=2)
        out = subsample_longtail(src, LongTailSpec((4, 2, 1)), seed=3)
        src_rows = {r.tobytes() for r in src.features}
        assert all(r.tobytes() in src_rows for r in out.features)

    def test_insufficient_class_names_class(self):
        src = synthesize_gaussian_longtail(LongTailSpec((5, 2)), 2, 1.0, seed=0)
        with pytest.raises(CapacityError, match="class 1"):
            subsample_longtail(src, LongTailSpec((3, 3)), seed=0)

    def test_deterministic_selection(self):
        src = synthesize_gaussian_longtail(balanced_spec(4, 10), 3, 1.0, seed=5)
        a = subsample_longtail(src, long_tail_counts(4, 8, 8), seed=7)
        b = subsample_longtail(src, long_tail_counts(4, 8, 8), seed=7)
        assert a.features.tobytes() == b.features.tobytes()


class TestGroupPartition:
    def test_default_thresholds(self):
        part = group_partition(LongTailSpec((500, 50, 5)), hi=100, lo=20)
        assert (part.many, part.medium, part.few) == ({0}, {1}, {2})

    def test_boundaries_inclusive_in_medium(self):
        part = group_partition(LongTailSpec((100, 100, 100)))
        assert part.medium == {0, 1, 2} and not part.many and not part.few
        edge = group_partition(LongTailSpec((101, 100, 20, 19)))
        assert part.thresholds == (100, 20)
        assert (edge.many, edge.medium, edge.few) == ({0}, {1, 2}, {3})

    def test_matches_threshold_scan(self):
        spec = long_tail_counts(10, 1000, 100)
        part = group_partition(spec)
        for cls, n in enumerate(spec.counts):
            expected = "many" if n > 100 else ("few" if n < 20 else "medium")
            assert cls in getattr(part, expected)
        assert len(part.many) + len(part.medium) + len(part.few) == spec.num_classes

    def test_threshold_validation(self):
        with pytest.raises(ContractError, match="hi > lo"):
            group_partition(LongTailSpec((5, 4)), hi=10, lo=10)


class TestMinibatchIterator:
    def _dataset(self, n=10):
        counts = (n // 2, n - n // 2) if n % 2 else (n // 2, n // 2)
        feats = np.arange(n * 2, dtype=float).reshape(n, 2)
        labels = np.array([0] * counts[0] + [1] * counts[1])
        return Dataset(feats, labels, LongTailSpec(tuple(sorted(counts, reverse=True))))

    def test_batch_sizes(self):
        ds = self._dataset(10)
        sizes = [len(y) for _, y in minibatch_iterator(ds, 3, seed=0, epoch=0)]
        assert sizes == [3, 3, 3, 1]

    def test_every_point_once_per_epoch(self):
        ds = self._dataset(10)
        seen = np.concatenate([x[:, 0] for x, _ in minibatch_iterator(ds, 4, seed=1, epoch=2)])
        assert sorted(seen) == sorted(ds.features[:, 0])

    def test_epoch_reshuffles_and_replays(self):
        assert not np.array_equal(epoch_permutation(10, 3, 0), epoch_permutation(10, 3, 1))
        assert np.array_equal(epoch_permutation(10, 3, 0), epoch_permutation(10, 3, 0))

    def test_batch_size_bounds(self):
        ds = self._dataset(4)
        with pytest.raises(ContractError, match="batch_size"):
            list(minibatch_iterator(ds, 0, seed=0, epoch=0))
        with pytest.raises(ContractError, match="batch_size"):
            list(minibatch_iterator(ds, 5, seed=0, epoch=0))


def _write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path, lbl_path = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    img_path.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()
    )
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestIngestion:
    def test_idx_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(6, 2, 2), dtype=np.uint8)
        labels = np.array([1, 0, 0, 1, 0, 1], dtype=np.uint8)
        img_path, lbl_path = _write_idx_pair(tmp_path, images, labels)
        feats = load_idx_images(img_path)
        assert feats.shape == (6, 4)
        np.testing.assert_allclose(feats, images.reshape(6, 4) / 255.0)
        np.testing.assert_array_equal(load_idx_labels(lbl_path), labels)

    def test_idx_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000804, 1, 1, 1) + b"\x00")
        with pytest.raises(ContractError, match="magic"):
            load_idx_images(path)

    def test_idx_dataset_relabels_by_descending_count(self, tmp_path):
        images = np.zeros((5, 1, 1), dtype=np.uint8)
        labels = np.array([7, 7, 7, 2, 2], dtype=np.uint8)  # class 7 is largest
        img_path, lbl_path = _write_idx_pair(tmp_path, images, labels)
        ds = load_idx_dataset(img_path, lbl_path)
        assert ds.spec.counts == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 0, 0, 1, 1])

    def test_relabel_ties_keep_label_order_and_gaps_close(self):
        # 9 and 4 tie at two samples each; 4 < 9, so 4 keeps the lower index.
        labels = np.array([9, 30, 4, 30, 9, 30, 4, 1])
        ds = dataset_from_arrays(np.zeros((8, 1)), labels)
        assert ds.spec.counts == (3, 2, 2, 1)
        np.testing.assert_array_equal(ds.labels, [2, 0, 1, 0, 2, 0, 1, 3])
        assert ds.labels.dtype == np.int64

    def test_idx_subsample_repeatable(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(120, 2, 2), dtype=np.uint8)
        labels = np.repeat(np.arange(10, dtype=np.uint8), 12)
        img_path, lbl_path = _write_idx_pair(tmp_path, images, labels)
        source = load_idx_dataset(img_path, lbl_path)
        spec = long_tail_counts(10, 12, 10)
        first = subsample_longtail(source, spec, seed=13)
        second = subsample_longtail(source, spec, seed=13)
        assert sorted(r.tobytes() for r in first.features) == sorted(
            r.tobytes() for r in second.features
        )

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv_dataset(path)
        assert ds.spec.counts == (2, 1)
        np.testing.assert_allclose(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_csv_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,2.99999\n")
        with pytest.raises(ContractError, match="integer class labels"):
            load_csv_dataset(path)

    def test_csv_infinite_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,inf\n")
        with pytest.raises(ContractError, match="integer class labels"):
            load_csv_dataset(path)

    def test_csv_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,nan,1\n5.0,6.0,0\n")
        with pytest.raises(ContractError, match="finite"):
            load_csv_dataset(path)

    def test_holdout_split(self):
        src = synthesize_gaussian_longtail(balanced_spec(3, 10), 3, 2.0, seed=4)
        test, rest = split_balanced_holdout(src, per_class=4, seed=0)
        assert test.spec.counts == (4, 4, 4)
        assert rest.spec.counts == (6, 6, 6)
        with pytest.raises(CapacityError, match="class"):
            split_balanced_holdout(src, per_class=10, seed=0)
