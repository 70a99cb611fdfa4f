#!/usr/bin/env python3
"""Long-tailed data construction: count profiles, groups, synthetic blobs.

The training distribution follows an exponential decay from the largest
class to the smallest, parameterized by the head count and the imbalance
ratio (largest count / smallest count). Test sets are always balanced.
"""

import numpy as np

from damel.data import (
    group_partition,
    long_tail_counts,
    minibatch_iterator,
    subsample_longtail,
    synthesize_balanced_test,
    synthesize_gaussian_longtail,
)

print("== exponential count profile ==")
spec = long_tail_counts(num_classes=10, head_count=500, imbalance_ratio=100)
print("counts:", spec.counts)
print(f"total {spec.total}, realized imbalance ratio {spec.imbalance_ratio:.1f}")

part = group_partition(spec)
print("many:", sorted(part.many), "medium:", sorted(part.medium), "few:", sorted(part.few))

print("\n== synthetic Gaussian blobs around seed-derived class directions ==")
train = synthesize_gaussian_longtail(spec, feature_dim=20, class_sep=3.0, seed=0)
test = synthesize_balanced_test(10, per_class=100, feature_dim=20, class_sep=3.0, seed=0)
print("train:", train.features.shape, "test:", test.features.shape)
tallies = np.bincount(train.labels)
print("label tallies match the profile:", tuple(tallies) == spec.counts)

print("\n== resampling an ingested balanced pool into a long tail ==")
pool = synthesize_gaussian_longtail(
    long_tail_counts(10, 500, 1),  # balanced pool of 500 per class
    feature_dim=20, class_sep=3.0, seed=1,
)
subsampled = subsample_longtail(pool, spec, seed=7)
print("subsampled tallies:", tuple(int(c) for c in np.bincount(subsampled.labels)))

print("\n== one epoch of minibatches covers every point exactly once ==")
sizes = [len(y) for _, y in minibatch_iterator(train, batch_size=256, seed=0, epoch=0)]
print("batch sizes:", sizes, "->", sum(sizes), "points")
