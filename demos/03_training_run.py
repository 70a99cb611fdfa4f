#!/usr/bin/env python3
"""One full training run: multi-expert losses, epoch-level EMA, evaluation.

Trains the 3-expert model on the default synthetic benchmark for a short
schedule and prints the loss components plus raw-vs-averaged test accuracy
per epoch. The averaged weights alone drive the final evaluation; the norm
layers' running statistics are recomputed from the training set first.
"""

from damel.averaging import export_eval_weights, load_eval_model
from damel.data import group_partition, long_tail_counts, synthesize_balanced_test, synthesize_gaussian_longtail
from damel.evaluation import evaluate
from damel.model import DamelConfig, init_model
from damel.training import TrainConfig, make_avg_state, train

spec = long_tail_counts(num_classes=10, head_count=500, imbalance_ratio=100)
train_ds = synthesize_gaussian_longtail(spec, feature_dim=20, class_sep=3.0, seed=0, center_seed=0)
test_ds = synthesize_balanced_test(10, per_class=100, feature_dim=20, class_sep=3.0, seed=0, center_seed=0)

model = init_model(
    DamelConfig(
        num_experts=3, input_dim=20, hidden_dim=64, rep_dim=32, num_classes=10,
        scale=16.0, use_norm_layers=True,
    ),
    seed=0,
)
cfg = TrainConfig(epochs=15, batch_size=64, lr=0.1, momentum=0.9, ema_rate=0.1)

model, avg_state, log = train(model, train_ds, cfg, make_avg_state(cfg), seed=0, test_ds=test_ds)

print(f"{'epoch':>5} {'expert CE sum':>14} {'balanced CE':>12} {'test raw':>9} {'test ema':>9}")
for m in log:
    print(
        f"{m.epoch:>5} {sum(m.expert_ce):>14.4f} {m.balanced_ce:>12.4f} "
        f"{m.test_acc_raw:>9.3f} {m.test_acc_ema:>9.3f}"
    )

eval_model = load_eval_model(model, export_eval_weights(avg_state, model.flatten()), train_ds)
report = evaluate(eval_model, test_ds, group_partition(spec))
print("\nfinal (averaged weights):")
print(f"  overall {report.overall_acc:.3f}")
for group, acc in report.group_acc.items():
    print(f"  {group:>6} {acc:.3f}")
