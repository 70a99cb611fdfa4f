#!/usr/bin/env python3
"""Ablation grids: expand a named suite into cells and run it end to end.

Suites mirror the package's comparison tables: EMA update frequency
(table7), expert-count and hyperparameter sensitivity grids (table8-10),
the capacity-controlled single-expert baseline (table11), and the full
component ablation (table12). Each cell runs over the configured seeds and
lands in its own directory with a summary CSV per suite.
"""

import tempfile
from pathlib import Path

from damel.experiment import default_config, expand_suite, run_ablation_suite

with tempfile.TemporaryDirectory(prefix="damel_ablate_") as tmp:  # removed on exit
    root = Path(tmp)
    cfg = default_config(output_dir=str(root))  # full schedule; two seeds keep it quick
    cfg.seeds = [0, 1]

    print("table12 expands into these cells:")
    for cell, _ in expand_suite(cfg, "table12"):
        print("  -", cell)

    print("\nrunning the epoch-vs-iteration EMA comparison (table7) ...")
    csv_path, rows = run_ablation_suite(cfg, "table7")
    print(f"\nwrote {csv_path.relative_to(root)}:\n")
    print(csv_path.read_text())
