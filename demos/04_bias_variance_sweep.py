#!/usr/bin/env python3
"""Seed sweep and the squared-bias / variance decomposition of predictions.

Repeats the same experiment across seeds (training data resampled, shared
balanced test set), stacks the one-hot predictions, and splits the mean
squared error into squared bias and variance exactly. Comparing the EMA
configuration against raw final weights shows the time-axis ensemble's
variance reduction.
"""

import json
import tempfile
from pathlib import Path

from damel.experiment import default_config, run_seed_sweep, vary_config

with tempfile.TemporaryDirectory(prefix="damel_sweep_") as tmp:  # removed on exit
    root = Path(tmp)
    cfg = default_config(output_dir=str(root))  # full 40-epoch schedule: the EMA
    seeds = [0, 1, 2, 3]                        # window needs enough snapshots

    print("== sweep with epoch-level EMA ==")
    ema_summary, _ = run_seed_sweep(cfg, seeds=seeds, sweep_dir=root / "ema")
    print(json.dumps(ema_summary.to_json_dict(), indent=2))

    print("\n== same sweep with raw final weights (no averaging) ==")
    raw_cfg = vary_config(cfg, train_updates={"averaging": "none"})
    raw_summary, _ = run_seed_sweep(raw_cfg, seeds=seeds, sweep_dir=root / "raw")
    print(json.dumps(raw_summary.to_json_dict(), indent=2))

    print(
        f"\nvariance: {ema_summary.variance:.4f} (ema) vs {raw_summary.variance:.4f} (raw); "
        f"bias_sq: {ema_summary.bias_sq:.4f} vs {raw_summary.bias_sq:.4f}"
    )
