"""Experiment driver tests: config validation, runs, sweeps, suites, CLI."""

import csv
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import damel.experiment as experiment
from damel.cli import main as cli_main
from damel.errors import ConfigError, DamelError, NumericError
from damel.averaging import load_eval_model, recompute_running_stats
from damel.data import load_csv_dataset, load_idx_dataset, split_balanced_holdout
from damel.evaluation import EvalReport, bias_variance_decompose, labels_one_hot
from damel.experiment import (
    CHECKPOINT_MAGIC,
    SUITES,
    RunRecord,
    aggregate_report,
    build_damel_config,
    config_hash,
    config_to_dict,
    decode_checkpoint,
    default_config,
    encode_checkpoint,
    expand_suite,
    load_checkpoint,
    load_config,
    parse_config,
    resolve_workers,
    run_ablation_suite,
    run_seed_sweep,
    run_single,
    vary_config,
)
from damel.model import VARIANTS, init_model, predict


@pytest.fixture(autouse=True)
def many_usable_cpus(monkeypatch):
    """resolve_workers caps a pool at the usable CPU count, so every test here
    sees 64 CPUs: a 2-worker pool is a real one on any host. A test of the
    cap patches its own count."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 64)


def cli_process(argv, cwd=None, **env_updates):
    """``damel`` as a child process on this checkout's sources, in ``cwd``; an
    environment variable given as None is unset. The child sees 64 usable
    CPUs as well, so ``--workers 2`` is a real pool on any host."""
    env = dict(os.environ)
    src = str(Path(experiment.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for key, value in env_updates.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    launch = ("import damel.experiment as e; e._usable_cpus = lambda: 64; "
              "from damel.cli import console_main; console_main()")
    return subprocess.run([sys.executable, "-c", launch, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


def artifacts(root):
    """Every file under ``root`` but run.json (it holds the wall time), by relative path."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(Path(root).rglob("*"))
            if p.is_file() and p.name != "run.json"}


def small_raw(tmp_path, **overrides):
    raw = {
        "dataset": {
            "source": "synthetic", "num_classes": 4, "head_count": 30,
            "imbalance_ratio": 10, "feature_dim": 5, "class_sep": 3.0,
            "test_per_class": 10, "base_seed": 0,
        },
        "model": {"num_experts": 2, "hidden_dim": 8, "rep_dim": 4, "use_norm_layers": True},
        "train": {"epochs": 2, "batch_size": 16},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "runs"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        assert cfg.dataset.num_classes == 4
        assert cfg.model.num_experts == 2
        assert cfg.train.epochs == 2

    def test_unknown_top_key(self, tmp_path):
        raw = small_raw(tmp_path)
        raw["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(raw)

    def test_unknown_nested_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="gama"):
            parse_config(small_raw(tmp_path, dataset={"gama": 10}))
        with pytest.raises(ConfigError, match="n_expert"):
            parse_config(small_raw(tmp_path, model={"n_expert": 3}))
        with pytest.raises(ConfigError, match="lr_sched"):
            parse_config(small_raw(tmp_path, train={"lr_sched": "cos"}))

    def test_missing_block(self, tmp_path):
        raw = small_raw(tmp_path)
        del raw["model"]
        with pytest.raises(ConfigError, match="model"):
            parse_config(raw)

    def test_bad_source(self, tmp_path):
        with pytest.raises(ConfigError, match="source"):
            parse_config(small_raw(tmp_path, dataset={"source": "parquet"}))

    def test_module_preconditions_surface_early(self, tmp_path):
        with pytest.raises(ConfigError, match="imbalance_ratio"):
            parse_config(small_raw(tmp_path, dataset={"imbalance_ratio": 0.5}))
        with pytest.raises(ConfigError, match="lr"):
            parse_config(small_raw(tmp_path, train={"lr": -1.0}))
        with pytest.raises(ConfigError, match="variant"):
            parse_config(small_raw(tmp_path, model={"variant": "bagging"}))
        with pytest.raises(ConfigError, match="^dataset: synthesize: feature_dim must be >= 2, got 1$"):
            parse_config(small_raw(tmp_path, dataset={"feature_dim": 1}))
        with pytest.raises(ConfigError, match="^dataset: synthesize: class_sep must be positive"):
            parse_config(small_raw(tmp_path, dataset={"class_sep": 0.0}))

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_load_config_rejects_a_root_that_is_no_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
            load_config(path)

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_every_wrongly_typed_value_is_config_error_or_accepted(self, tmp_path, source):
        raw = small_raw(
            tmp_path,
            model={"scale": 16.0, "variant": "standard", "use_norm_layers": True},
            train={"lr": 0.1, "momentum": 0.9, "cb_loss_weight": 1.0, "ema_rate": 0.1,
                   "ema_frequency": "epoch", "averaging": "ema", "decoupled": False,
                   "cb_loss_enabled": True},
        )
        if source == "csv":
            raw["dataset"] = {"source": "csv", "num_classes": 4, "head_count": 30,
                              "imbalance_ratio": 10, "csv_path": "pool.csv",
                              "test_per_class": 10, "base_seed": 0}
        parse_config(raw)
        places = [(key, None) for key in raw]
        places += [(block, key) for block in ("dataset", "model", "train") for key in raw[block]]
        for block, key in places:
            for value in ("x", None, [], {}, True):
                mutated = json.loads(json.dumps(raw))
                if key is None:
                    mutated[block] = value
                else:
                    mutated[block][key] = value
                try:
                    parse_config(mutated)
                except ConfigError:
                    pass

    @pytest.mark.parametrize("block, key, value", [
        ("model", "num_experts", "3"), ("model", "hidden_dim", None), ("model", "scale", "16"),
        ("train", "epochs", "2"), ("train", "lr", None), ("dataset", "num_classes", "4"),
        ("dataset", "imbalance_ratio", "x"), ("dataset", "test_per_class", "5"),
        ("dataset", "feature_dim", "5"), ("seeds", None, 5), ("model", None, None),
        ("train", None, 5), ("dataset", None, [1]), ("seeds", None, [True, False]),
        ("model", "use_norm_layers", 1), ("train", "lr", float("nan")), ("output_dir", None, None),
    ])
    def test_wrong_type_is_one_line_config_error(self, tmp_path, block, key, value):
        raw = small_raw(tmp_path)
        if key is None:
            raw[block] = value
        else:
            raw[block][key] = value
        with pytest.raises(ConfigError, match=block if key is None else key) as info:
            parse_config(raw)
        assert "\n" not in str(info.value)

    def test_missing_required_key_is_config_error(self, tmp_path):
        raw = small_raw(tmp_path)
        del raw["dataset"]["num_classes"]
        with pytest.raises(ConfigError, match="missing key 'num_classes'"):
            parse_config(raw)

    @pytest.mark.parametrize("source", ["synthetic", "idx", "csv"])
    def test_config_to_dict_round_trips(self, tmp_path, source):
        raw = small_raw(tmp_path)
        if source == "idx":
            raw["dataset"] = {"source": "idx", "images": "imgs.idx", "labels": "lbls.idx",
                              "num_classes": 4, "head_count": 30, "imbalance_ratio": 10}
        elif source == "csv":
            raw["dataset"] = {"source": "csv", "csv_path": "pool.csv", "num_classes": 4,
                              "head_count": 30, "imbalance_ratio": 10, "base_seed": 3}
        cfg = parse_config(raw)
        as_dict = config_to_dict(cfg)
        again = parse_config(json.loads(json.dumps(as_dict)))
        assert again == cfg
        assert config_to_dict(again) == as_dict and config_hash(again) == config_hash(cfg)

    def test_another_sources_field_is_rejected_unless_null(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys \\['csv_path'\\]"):
            parse_config(small_raw(tmp_path, dataset={"csv_path": "pool.csv"}))
        assert parse_config(small_raw(tmp_path, dataset={"csv_path": None})).dataset.csv_path is None
        with pytest.raises(ConfigError, match="unknown keys \\['csv_pth'\\]"):
            parse_config(small_raw(tmp_path, dataset={"csv_pth": None}))

    @pytest.mark.parametrize("overrides, field", [
        ({"seeds": [0, -1]}, "seeds"),
        ({"dataset": {"base_seed": -1}}, "dataset: base_seed"),
    ])
    def test_negative_seeds_are_config_errors(self, tmp_path, overrides, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            parse_config(small_raw(tmp_path, **overrides))

    @pytest.mark.parametrize("model, train, message", [
        ({}, {"batch_size": 54}, "batch_size 54 exceeds the 53 training samples"),
        ({"use_norm_layers": False}, {"batch_size": 500}, "batch_size 500 exceeds"),
        ({}, {"batch_size": 4}, "batch_size 4 leaves a single-sample final batch for 53"),
        ({}, {"batch_size": 1}, "batch_size 1 leaves a single-sample final batch"),
    ])
    def test_batch_size_no_run_can_train_with_is_config_error(self, tmp_path, model, train, message):
        # small_raw's profile holds 53 samples, and every source trains on exactly those.
        with pytest.raises(ConfigError, match=f"^train.{message}"):
            parse_config(small_raw(tmp_path, model=model, train=train))

    @pytest.mark.parametrize("block, key, value, message", [
        ("train", "epochs", -1, "epochs must be >= 0, got -1"),
        ("train", "batch_size", 0, "batch_size must be >= 1, got 0"),
        ("train", "lr", 0, "lr must be positive, got 0"),
        ("train", "momentum", 1.0, r"momentum must lie in \[0, 1\), got 1.0"),
        ("train", "ema_rate", 0, r"ema_rate must lie in \(0, 1\], got 0"),
        ("train", "cb_loss_weight", -1, "cb_loss_weight must be >= 0, got -1"),
        ("model", "hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
        ("model", "rep_dim", 0, "rep_dim must be >= 1, got 0"),
        ("model", "scale", 0, "scale must be positive, got 0"),
        ("dataset", "num_classes", 1, "long_tail_counts: need at least 2 classes, got 1"),
        ("dataset", "head_count", 0, "long_tail_counts: head_count must be >= 1, got 0"),
        ("dataset", "test_per_class", 0, "test_per_class must be >= 1, got 0"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, block, key, value, message):
        with pytest.raises(ConfigError, match=f"^{block}: {message}$"):
            parse_config(small_raw(tmp_path, **{block: {key: value}}))

    @pytest.mark.parametrize("model, train", [
        ({}, {"batch_size": 53}),
        ({"use_norm_layers": False}, {"batch_size": 4}),
        ({"use_norm_layers": False}, {"batch_size": 1}),
        ({}, {"batch_size": 500, "epochs": 0}),
    ])
    def test_batch_size_every_run_can_train_with_is_accepted(self, tmp_path, model, train):
        parse_config(small_raw(tmp_path, model=model, train=train))

    @pytest.mark.parametrize("model, train, message", [
        ({"variant": "aggregate_predictions"}, {"decoupled": True},
         "train.decoupled re-trains the auxiliary head, which variant aggregate_predictions "
         "does not have"),
        ({}, {"decoupled": True, "epochs": 1},
         "train.decoupled at epochs 1 leaves no epoch for its auxiliary phase"),
        ({}, {"cb_loss_weight": 0},
         "train.cb_loss_weight 0 leaves the auxiliary head of variant standard, its prediction "
         "path, untrained"),
        ({"variant": "average_representations"}, {"cb_loss_weight": 0.0},
         "train.cb_loss_weight 0 leaves the auxiliary head of variant average_representations, "
         "its prediction path, untrained"),
    ], ids=["decoupled_aggregate_predictions", "decoupled_one_epoch", "zero_weight_standard",
            "zero_weight_average_representations"])
    def test_aux_head_that_cannot_train_is_config_error(self, tmp_path, model, train, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(small_raw(tmp_path, model=model, train=train))

    @pytest.mark.parametrize("model, train", [
        ({"variant": "aggregate_predictions"}, {"cb_loss_weight": 0}),
        ({}, {"decoupled": True, "epochs": 0}),
        ({}, {"decoupled": True, "epochs": 2}),
    ], ids=["zero_weight_aggregate_predictions", "decoupled_zero_epochs", "decoupled_two_epochs"])
    def test_aux_head_rules_accept(self, tmp_path, model, train):
        parse_config(small_raw(tmp_path, model=model, train=train))

    def test_hash_ignores_seeds_and_output(self, tmp_path):
        a = parse_config(small_raw(tmp_path, seeds=[0, 1]))
        b = parse_config(small_raw(tmp_path, seeds=[5, 6], output_dir=str(tmp_path / "other")))
        assert config_hash(a) == config_hash(b)
        c = parse_config(small_raw(tmp_path, train={"lr": 0.05}))
        assert config_hash(a) != config_hash(c)
        # Run records carry the hash: the default config's value is pinned.
        assert config_hash(default_config()) == "007544365f8f980e960b30b64ef5b29dd9302a0fc6700c5419a03d48eb6c60df"
        # A checkpoint embeds the same run key, so the run writes the same bytes
        # under either seed list and output directory.
        blobs = [Path(run_single(cfg, seed=0).checkpoint_path).read_bytes() for cfg in (a, b)]
        assert blobs[0] == blobs[1]


class TestRunSingle:
    def test_outputs_written(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        record = run_single(cfg, seed=0)
        run_dir = Path(cfg.output_dir) / "single" / "default" / "0"
        for name in ("run.json", "metrics.csv", "eval.json", "confusion.csv",
                     "checkpoint.bin", "onehot.npy"):
            assert (run_dir / name).exists()
        header, *rows = (run_dir / "metrics.csv").read_text().splitlines()
        assert header == "epoch,per_expert_ce_0,per_expert_ce_1,cb,total,train_acc,test_acc_raw,test_acc_ema"
        assert len(rows) == 2
        for row in rows:
            for cell in row.split(","):
                float(cell)  # a plain number, never a wrapper such as np.float64(...)
        assert record.config_hash == config_hash(cfg)

    def test_deterministic_artifacts(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        blobs = []
        for attempt in range(2):
            run_dir = tmp_path / f"attempt{attempt}"
            run_single(cfg, seed=1, run_dir=run_dir)
            blobs.append(
                (
                    (run_dir / "checkpoint.bin").read_bytes(),
                    (run_dir / "eval.json").read_bytes(),
                    (run_dir / "metrics.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    # The averaged weights drive the evaluation once a snapshot is in, else the trained ones.
    @pytest.mark.parametrize("train, averaged_drives", [
        ({}, True),
        ({"averaging": "none"}, False),
        ({"epochs": 0}, False),
    ], ids=["ema", "no_averaging", "ema_zero_epochs"])
    def test_onehot_matches_eval_model_predictions(self, tmp_path, train, averaged_drives):
        cfg = parse_config(small_raw(tmp_path, train=train))
        run_dir = tmp_path / "run"
        run_single(cfg, seed=2, run_dir=run_dir)
        _, trained, averaged = load_checkpoint(run_dir / "checkpoint.bin")
        assert (averaged is not None) == averaged_drives
        if averaged_drives:
            assert averaged.tobytes() != trained.tobytes()
        train_ds, test_ds, _ = experiment.build_datasets(cfg.dataset, 2)
        model_cfg = experiment.build_damel_config(cfg.model, cfg.dataset, train_ds.features.shape[1])
        eval_model = init_model(model_cfg, 2)
        eval_model.buffer[:] = averaged if averaged_drives else trained
        recompute_running_stats(eval_model, train_ds)
        saved = np.load(run_dir / "onehot.npy")
        expected = labels_one_hot(predict(eval_model, test_ds.features), model_cfg.num_classes)
        assert saved.tobytes() == expected.tobytes()

    def test_zero_epochs_near_chance(self, tmp_path):
        raw = small_raw(tmp_path, train={"epochs": 0})
        cfg = parse_config(raw)
        accs = [run_single(cfg, seed=s, run_dir=tmp_path / f"z{s}").eval_report.overall_acc
                for s in (0, 1, 2)]
        assert abs(np.mean(accs) - 0.25) <= 0.15

    def test_interrupted_run_json_write_leaves_no_record(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}))
        root = tmp_path / "tree"
        run_single(cfg, seed=0, run_dir=root / "table7" / "epoch" / "0")

        class Killed(BaseException):
            """Not an Exception, so run_single's cleanup lets it through."""

        real_dump = json.dump

        def dump_then_die(obj, fh, **kwargs):
            if "run.json" not in Path(fh.name).name:
                return real_dump(obj, fh, **kwargs)
            fh.write(json.dumps(obj, **kwargs)[:40])
            fh.flush()
            raise Killed

        monkeypatch.setattr(json, "dump", dump_then_die)
        with pytest.raises(Killed):
            run_single(cfg, seed=1, run_dir=root / "table7" / "epoch" / "1")
        monkeypatch.undo()
        assert (root / "table7" / "epoch" / "1" / "eval.json").exists()
        assert not (root / "table7" / "epoch" / "1" / "run.json").exists()
        _, rows = aggregate_report(root)
        assert [row[:3] for row in rows] == [["table7", "epoch", "0"]]

    def test_failed_run_removes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path))
        written = []

        def fail_after_three_files(report, path):
            written.extend(sorted(p.name for p in Path(path).parent.iterdir()))
            raise ZeroDivisionError

        monkeypatch.setattr(EvalReport, "save_confusion_csv", fail_after_three_files)
        with pytest.raises(ZeroDivisionError):
            run_single(cfg, seed=0, run_dir=tmp_path / "broken")
        assert written == ["checkpoint.bin", "eval.json", "metrics.csv"]
        assert not (tmp_path / "broken").exists()

    def test_failed_rerun_keeps_the_previous_run(self, tmp_path):
        run_dir = tmp_path / "d" / "r"
        run_single(parse_config(small_raw(tmp_path)), seed=0, run_dir=run_dir)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert len(before) == 6  # run.json included
        cfg = parse_config(small_raw(tmp_path, train={"cb_loss_weight": 1e300}))
        with pytest.raises(NumericError, match=r"\(epoch 0, iteration \d+\)$"):
            run_single(cfg, seed=0, run_dir=run_dir)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_failed_run_removes_the_empty_directories_it_created(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path))
        monkeypatch.setattr(EvalReport, "save_json", lambda *a, **k: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_single(cfg, seed=0)
        assert not (tmp_path / "runs").exists()
        # A parent that was there before stays, and so does one holding another run.
        (tmp_path / "runs" / "single").mkdir(parents=True)
        with pytest.raises(ZeroDivisionError):
            run_single(cfg, seed=0)
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["single"]
        assert not any((tmp_path / "runs" / "single").iterdir())
        (tmp_path / "runs" / "single" / "default" / "7").mkdir(parents=True)
        with pytest.raises(ZeroDivisionError):
            run_single(cfg, seed=0)
        assert [p.name for p in (tmp_path / "runs" / "single" / "default").iterdir()] == ["7"]

    def test_overflow_in_the_final_evaluation_is_numeric_error(self, tmp_path):
        # No epoch trains, so the recompute of the norm statistics is the first to overflow.
        cfg = parse_config(small_raw(tmp_path, dataset={"class_sep": 1e300}, train={"epochs": 0}))
        with pytest.raises(NumericError, match=r"^overflow encountered in [\w ]+ \(final evaluation\)$"):
            run_single(cfg, seed=0)
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_is_config_error_before_any_directory(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        with pytest.raises(ConfigError, match="^seed must be a non-negative integer, got -1"):
            run_single(cfg, seed=-1)
        with pytest.raises(ConfigError, match="^sweep: seed must be a non-negative integer, got -1"):
            run_seed_sweep(cfg, seeds=[0, -1], workers=2)
        assert not (tmp_path / "runs").exists()

    def test_raw_accuracy_logged_under_both_averaging_modes(self, tmp_path):
        for mode, name in (("ema", "with_ema"), ("none", "without")):
            cfg = parse_config(small_raw(tmp_path, train={"averaging": mode}))
            run_single(cfg, seed=0, run_dir=tmp_path / name)
            rows = (tmp_path / name / "metrics.csv").read_text().splitlines()
            header = rows[0].split(",")
            raw_col = header.index("test_acc_raw")
            assert all(np.isfinite(float(r.split(",")[raw_col])) for r in rows[1:])


class TestDatasetSources:
    def _idx_files(self, tmp_path, per_class=30, num_classes=4, side=3):
        import struct as _struct

        rng = np.random.default_rng(0)
        n = per_class * num_classes
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = np.repeat(np.arange(num_classes, dtype=np.uint8), per_class)
        img, lbl = tmp_path / "x.idx", tmp_path / "y.idx"
        img.write_bytes(_struct.pack(">IIII", 0x803, n, side, side) + images.tobytes())
        lbl.write_bytes(_struct.pack(">II", 0x801, n) + labels.tobytes())
        return img, lbl

    def test_idx_source_end_to_end(self, tmp_path):
        img, lbl = self._idx_files(tmp_path)
        raw = small_raw(tmp_path)
        raw["dataset"] = {
            "source": "idx", "images": str(img), "labels": str(lbl),
            "num_classes": 4, "head_count": 20, "imbalance_ratio": 10,
            "test_per_class": 5, "base_seed": 0,
        }
        raw["train"] = {"epochs": 1, "batch_size": 8}
        cfg = parse_config(raw)
        record = run_single(cfg, seed=0, run_dir=tmp_path / "idxrun")
        assert record.eval_report.test_size == 20

    def test_idx_class_count_mismatch(self, tmp_path):
        img, lbl = self._idx_files(tmp_path)
        raw = small_raw(tmp_path)
        raw["dataset"] = {
            "source": "idx", "images": str(img), "labels": str(lbl),
            "num_classes": 5, "head_count": 4, "imbalance_ratio": 2,
            "test_per_class": 5, "base_seed": 0,
        }
        raw["train"]["batch_size"] = 8  # the profile holds 14 samples
        cfg = parse_config(raw)
        with pytest.raises(ConfigError, match="4 classes"):
            experiment.build_datasets(cfg.dataset, seed=0)

    def test_csv_source_end_to_end(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = []
        for cls in range(3):
            center = np.zeros(4)
            center[cls] = 4.0
            for _ in range(25):
                rows.append(list(rng.normal(size=4) + center) + [cls])
        path = tmp_path / "data.csv"
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        raw = small_raw(tmp_path)
        raw["dataset"] = {
            "source": "csv", "csv_path": str(path), "num_classes": 3,
            "head_count": 15, "imbalance_ratio": 5, "test_per_class": 4, "base_seed": 0,
        }
        raw["train"] = {"epochs": 1, "batch_size": 5}
        cfg = parse_config(raw)
        record = run_single(cfg, seed=0, run_dir=tmp_path / "csvrun")
        assert record.eval_report.test_size == 12

    def test_singleton_final_batch_with_norm_layers_fails_fast(self, tmp_path):
        from damel.data import synthesize_gaussian_longtail, LongTailSpec
        from damel.model import DamelConfig, init_model
        from damel.training import TrainConfig, make_avg_state, train
        from damel.errors import ContractError

        ds = synthesize_gaussian_longtail(LongTailSpec((5, 4)), 3, 2.0, seed=0)  # 9 samples
        model = init_model(
            DamelConfig(num_experts=1, input_dim=3, hidden_dim=4, rep_dim=3,
                        num_classes=2, use_norm_layers=True),
            seed=0,
        )
        cfg = TrainConfig(epochs=1, batch_size=4)  # 9 % 4 == 1
        with pytest.raises(ContractError, match="single-sample final batch"):
            train(model, ds, cfg, make_avg_state(cfg), seed=0)

    def test_test_set_shared_across_seeds_training_resampled(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        train_a, test_a, _ = experiment.build_datasets(cfg.dataset, seed=0)
        train_b, test_b, _ = experiment.build_datasets(cfg.dataset, seed=1)
        assert test_a.features.tobytes() == test_b.features.tobytes()
        assert train_a.features.tobytes() != train_b.features.tobytes()


def write_csv_pool(path, seed, per_class=25, num_classes=3, dim=4):
    """Features in [1, 9) at three decimals, so every draw has the same byte length."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    features = rng.uniform(1.0, 9.0, size=(labels.size, dim))
    rows = [",".join(f"{v:.3f}" for v in row) + f",{label}" for row, label in zip(features, labels)]
    Path(path).write_text("\n".join(rows) + "\n")


def csv_raw(tmp_path, csv_path, **overrides):
    raw = small_raw(tmp_path, train={"epochs": 1, "batch_size": 5}, **overrides)
    raw["dataset"] = {
        "source": "csv", "csv_path": str(csv_path), "num_classes": 3,
        "head_count": 15, "imbalance_ratio": 5, "test_per_class": 4, "base_seed": 0,
    }
    return raw


class TestFileSourceParsedOnce:
    @pytest.fixture
    def parses(self, monkeypatch):
        """Every Dataset a real CSV or IDX parse returned, in call order."""
        seen = []
        for name in ("load_csv_dataset", "load_idx_dataset"):
            real = getattr(experiment, name)

            def counted(*paths, _real=real):
                seen.append(_real(*paths))
                return seen[-1]

            monkeypatch.setattr(experiment, name, counted)
        return seen

    @pytest.mark.parametrize("env_workers", [None, "2"], ids=["env_unset", "env_2"])
    def test_inline_sweep_parses_once(self, tmp_path, parses, monkeypatch, env_workers):
        """workers=1 goes inline whatever DAMEL_WORKERS says: damel does not read it."""
        if env_workers is not None:
            monkeypatch.setenv("DAMEL_WORKERS", env_workers)
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv", seeds=[0, 1, 2, 3]))
        run_seed_sweep(cfg, workers=1)
        assert len(parses) == 1

    @pytest.mark.parametrize("env_workers", [None, "2"], ids=["env_unset", "env_2"])
    def test_inline_suite_parses_once(self, tmp_path, parses, monkeypatch, env_workers):
        if env_workers is not None:
            monkeypatch.setenv("DAMEL_WORKERS", env_workers)
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv"))
        run_ablation_suite(cfg, "table7", workers=1)
        assert len(parses) == 1

    def test_same_size_rewrite_with_old_mtime_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "pool.csv"
        write_csv_pool(path, seed=0)
        cfg = parse_config(csv_raw(tmp_path, path))
        _, old_test, _ = experiment.build_datasets(cfg.dataset, 0)
        before = os.stat(path)
        write_csv_pool(path, seed=1)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        _, new_test, _ = experiment.build_datasets(cfg.dataset, 0)
        assert len(parses) == 2
        expected, _ = split_balanced_holdout(load_csv_dataset(path), 4, 0)
        assert new_test.features.tobytes() == expected.features.tobytes()
        assert new_test.features.tobytes() != old_test.features.tobytes()

    def test_idx_labels_rewrite_is_parsed_again(self, tmp_path, parses):
        img, lbl = TestDatasetSources()._idx_files(tmp_path)
        raw = small_raw(tmp_path)
        raw["dataset"] = {
            "source": "idx", "images": str(img), "labels": str(lbl),
            "num_classes": 4, "head_count": 20, "imbalance_ratio": 10,
            "test_per_class": 5, "base_seed": 0,
        }
        cfg = parse_config(raw)
        experiment.build_datasets(cfg.dataset, 0)
        experiment.build_datasets(cfg.dataset, 1)
        assert len(parses) == 1
        header, labels = lbl.read_bytes()[:8], np.frombuffer(lbl.read_bytes()[8:], dtype=np.uint8)
        lbl.write_bytes(header + np.roll(labels, 1).tobytes())
        experiment.build_datasets(cfg.dataset, 0)
        assert len(parses) == 2
        assert parses[1].labels.tobytes() == load_idx_dataset(img, lbl).labels.tobytes()
        assert parses[1].labels.tobytes() != parses[0].labels.tobytes()

    def test_parsed_source_is_read_only_and_runs_get_copies(self, tmp_path, parses):
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv"))
        train_ds, test_ds, _ = experiment.build_datasets(cfg.dataset, 0)
        with pytest.raises(ValueError, match="read-only"):
            parses[0].features[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            parses[0].labels[0] = 0
        train_ds.features[0, 0] = -1.0  # a run's own copy
        test_ds.features[0, 0] = -1.0
        again, _, _ = experiment.build_datasets(cfg.dataset, 0)
        assert len(parses) == 1 and again.features[0, 0] != -1.0

    def test_missing_csv_is_config_error_naming_the_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        raw = csv_raw(tmp_path, missing)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(missing) in err and err.count("\n") == 1
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("command", [["sweep", "--seeds", "0,1", "--workers", "2"],
                                         ["ablate", "--suite", "table7", "--workers", "2"]])
    @pytest.mark.parametrize("broken", ["missing", "directory"])
    def test_unreadable_csv_fails_sweep_and_suite_before_the_fan_out(self, tmp_path, capsys,
                                                                     command, broken):
        source = tmp_path / "pool.csv"
        if broken == "directory":
            source.mkdir()
        raw = csv_raw(tmp_path, source)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset (csv): cannot read csv_path ")
        assert str(source) in err and err.count("\n") == 1
        assert not Path(raw["output_dir"]).exists()

    def test_missing_idx_file_names_the_field(self, tmp_path):
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        raw = small_raw(tmp_path)
        raw["dataset"] = {"source": "idx", "images": str(tmp_path / "pool.csv"),
                          "labels": str(tmp_path / "labels.idx"), "num_classes": 3,
                          "head_count": 15, "imbalance_ratio": 5, "test_per_class": 4}
        with pytest.raises(ConfigError, match="cannot read labels"):
            run_seed_sweep(parse_config(raw), workers=1)
        assert not Path(raw["output_dir"]).exists()

    def test_sweep_artifacts_match_a_fresh_parse_per_run(self, tmp_path, parses, monkeypatch):
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv", seeds=[0, 1, 2, 3]))
        run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / "memo")
        assert len(parses) == 1
        real = experiment.build_datasets

        def fresh(dataset, seed):
            experiment._parsed_source.clear()
            shutil.rmtree(tmp_path / experiment.CSV_CACHE_DIR, ignore_errors=True)
            return real(dataset, seed)

        monkeypatch.setattr(experiment, "build_datasets", fresh)
        run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / "fresh")
        assert len(parses) == 5
        names = sorted(p.relative_to(tmp_path / "memo") for p in (tmp_path / "memo").rglob("*")
                       if p.is_file() and p.name != "run.json")
        assert len(names) == 4 * 5 + 2
        for name in names:
            assert (tmp_path / "memo" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @staticmethod
    def _cached(cache):
        with np.load(cache) as npz:
            return str(npz["sha256"]), npz["features"].tobytes(), npz["labels"].tobytes()

    def test_cache_hit_equals_a_fresh_parse(self, tmp_path, parses):
        path = tmp_path / "pool.csv"
        rng = np.random.default_rng(0)
        labels = rng.permutation(np.repeat([0, 1, 2], [10, 30, 20]))  # relabeled 1, 2, 0 -> 0, 1, 2
        path.write_text("".join(",".join(f"{v:.3f}" for v in rng.normal(size=4)) + f",{label}\n"
                                for label in labels))
        cfg = parse_config(csv_raw(tmp_path, path))
        experiment._file_source(cfg.dataset)
        experiment._parsed_source.clear()
        hit = experiment._file_source(cfg.dataset)
        assert len(parses) == 1
        fresh = load_csv_dataset(path)
        for got, want in ((hit.features, fresh.features), (hit.labels, fresh.labels)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert not got.flags.writeable
        assert hit.spec == fresh.spec and hit.spec.counts == (30, 20, 10)
        assert os.listdir(tmp_path / experiment.CSV_CACHE_DIR) == ["pool.csv.npz"]

    @pytest.mark.parametrize("fault", ["empty", "truncated", "bit_flip", "other_sha",
                                       "wrong_dtype", "wrong_shape"])
    def test_faulty_cache_is_parsed_again_and_rewritten(self, tmp_path, parses, capfd, fault):
        path = tmp_path / "pool.csv"
        write_csv_pool(path, seed=0)
        cfg = parse_config(csv_raw(tmp_path, path))
        run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / "cold")
        cache = tmp_path / experiment.CSV_CACHE_DIR / "pool.csv.npz"
        good = cache.read_bytes()
        with np.load(cache) as npz:
            sha, features, labels = npz["sha256"], npz["features"], npz["labels"]
        cached = (str(sha), features.tobytes(), labels.tobytes())
        if fault in ("empty", "truncated"):
            cache.write_bytes(good[:len(good) // 2 if fault == "truncated" else 0])
        elif fault == "bit_flip":  # inside the features payload, so only the zip CRC sees it
            at = good.index(features.tobytes()[:64]) + 3
            cache.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
        else:
            np.savez(cache, **{
                "other_sha": dict(sha256=np.array("0" * 64), features=features + 1.0, labels=labels),
                "wrong_dtype": dict(sha256=sha, features=features.astype(np.float32), labels=labels),
                "wrong_shape": dict(sha256=sha, features=features, labels=labels[:-1]),
            }[fault])
        experiment._parsed_source.clear()
        capfd.readouterr()
        run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / "again")
        assert capfd.readouterr() == ("", "")
        assert len(parses) == 2
        assert self._cached(cache) == cached
        assert artifacts(tmp_path / "cold") == artifacts(tmp_path / "again")

    @pytest.mark.parametrize("blocked", ["denied", "file_in_the_way"])
    def test_unwritable_cache_directory_parses_as_today_and_prints_nothing(
            self, tmp_path, parses, capfd, monkeypatch, blocked):
        path = tmp_path / "pool.csv"
        write_csv_pool(path, seed=0)
        cfg = parse_config(csv_raw(tmp_path, path))
        run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / "cached")
        cache_dir = tmp_path / experiment.CSV_CACHE_DIR
        shutil.rmtree(cache_dir)
        if blocked == "denied":  # root ignores a read-only mode, so the refusal is simulated
            def denied(*args, **kwargs):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(experiment.tempfile, "mkstemp", denied)
        else:
            cache_dir.write_text("a file, not a directory")
        capfd.readouterr()
        for sweep_dir in ("uncached", "uncached_again"):
            experiment._parsed_source.clear()
            run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / sweep_dir)
            assert artifacts(tmp_path / sweep_dir) == artifacts(tmp_path / "cached")
        assert capfd.readouterr() == ("", "")
        assert len(parses) == 3
        if blocked == "denied":
            assert os.listdir(cache_dir) == []
        else:
            assert cache_dir.read_text() == "a file, not a directory"

    def test_two_pool_workers_on_a_cold_cache_leave_one_valid_npz(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.csv"
        write_csv_pool(path, seed=0)
        cfg = parse_config(csv_raw(tmp_path, path, seeds=[0, 1, 2, 3]))
        log = tmp_path / "parses.log"
        real = experiment.load_csv_dataset

        def logged(csv_path):  # forked workers inherit it; each parse appends a line
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(csv_path)

        monkeypatch.setattr(experiment, "load_csv_dataset", logged)
        run_seed_sweep(cfg, workers=2, sweep_dir=tmp_path / "cold")
        cold_parses = log.read_text().count("\n") if log.exists() else 0
        cache_dir = tmp_path / experiment.CSV_CACHE_DIR
        assert os.listdir(cache_dir) == ["pool.csv.npz"]
        fresh = load_csv_dataset(path)
        assert self._cached(cache_dir / "pool.csv.npz") == (
            experiment._sha256(path), fresh.features.tobytes(), fresh.labels.tobytes())
        run_seed_sweep(cfg, workers=2, sweep_dir=tmp_path / "warm")
        assert 1 <= cold_parses <= 2  # each worker parses at most once
        assert (log.read_text().count("\n") if log.exists() else 0) == cold_parses
        assert os.listdir(cache_dir) == ["pool.csv.npz"]
        assert artifacts(tmp_path / "cold") == artifacts(tmp_path / "warm")


def tiny_checkpoint_config(tmp_path):
    """A one-unit-wide run config as a checkpoint embeds it, and its parameter
    count: w1 5 + b1 + w2 + b2, one expert (w, b, 4 class columns), aux 4."""
    raw = small_raw(tmp_path, model={"num_experts": 1, "hidden_dim": 1, "rep_dim": 1,
                                     "use_norm_layers": False})
    return dict(config_to_dict(parse_config(raw)), seed=3), 18


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config, count = tiny_checkpoint_config(tmp_path)
        trained = np.arange(count, dtype=np.float64)
        averaged = trained * 0.5
        blob = encode_checkpoint(config, trained, averaged)
        assert blob[:8] == b"DAMELCKP"
        (json_len,) = struct.unpack("<I", blob[8:12])
        assert json.loads(blob[12:12 + json_len]) == config
        cfg, t, a = decode_checkpoint(blob, "ck.bin")
        assert cfg == config
        np.testing.assert_array_equal(t, trained)
        np.testing.assert_array_equal(a, averaged)

    def test_without_averaged(self, tmp_path):
        config, count = tiny_checkpoint_config(tmp_path)
        _, t, a = decode_checkpoint(encode_checkpoint(config, np.ones(count), None), "ck.bin")
        assert a is None and t.size == count

    def test_bad_magic(self):
        with pytest.raises(ConfigError, match="bad.bin: bad checkpoint magic"):
            decode_checkpoint(b"NOTDAMEL" + b"\x00" * 16, "bad.bin")

    @pytest.mark.parametrize("with_averaged", [False, True])
    def test_every_truncation_is_config_error(self, tmp_path, with_averaged):
        config, count = tiny_checkpoint_config(tmp_path)
        trained = np.arange(count, dtype=np.float64)
        blob = encode_checkpoint(config, trained, trained * 0.5 if with_averaged else None)
        trained_only_len = len(blob) - 8 * trained.size if with_averaged else None
        for length in range(len(blob)):
            if length == trained_only_len:
                # Exactly a well-formed checkpoint without averaged weights.
                _, t, a = decode_checkpoint(blob[:length], "cut.bin")
                assert a is None and t.tobytes() == trained.tobytes()
                continue
            with pytest.raises(ConfigError, match="^cut.bin: "):
                decode_checkpoint(blob[:length], "cut.bin")

    def test_every_header_mutation_is_config_error_or_a_valid_config(self, tmp_path):
        """Each header byte flipped by each single-bit mask and by 0xFF: the
        decoder refuses it as a ConfigError or returns a run config that parses
        and whose parameter count fits it; no other exception escapes."""
        config, count = tiny_checkpoint_config(tmp_path)
        blob = encode_checkpoint(config, np.arange(count, dtype=np.float64), None)
        header = len(blob) - 8 * count
        refused = decoded = 0
        for index in range(header):
            for mask in [1 << bit for bit in range(8)] + [0xFF]:
                mutant = bytearray(blob)
                mutant[index] ^= mask
                try:
                    found, trained, _ = decode_checkpoint(bytes(mutant), "ck.bin")
                except ConfigError:
                    refused += 1
                    continue
                decoded += 1
                cfg = parse_config({key: value for key, value in found.items() if key != "seed"})
                width = cfg.dataset.feature_dim
                model_cfg = experiment.build_damel_config(cfg.model, cfg.dataset, width)
                assert trained.size == experiment.param_count(model_cfg)
        assert refused + decoded == 9 * header and refused and decoded

    def test_averaged_weights_of_another_length_are_refused(self, tmp_path):
        config, count = tiny_checkpoint_config(tmp_path)
        with pytest.raises(ConfigError, match="averaged weights length differs from trained"):
            encode_checkpoint(config, np.zeros(count), np.zeros(count + 1))

    def test_refused_save_writes_no_file(self, tmp_path):
        """The length check comes before any byte, so a refused save leaves
        no trained-only checkpoint behind that would load."""
        path = tmp_path / "ck.bin"
        config, count = tiny_checkpoint_config(tmp_path)
        with pytest.raises(ConfigError, match="averaged weights length differs from trained"):
            path.write_bytes(encode_checkpoint(config, np.zeros(count), np.zeros(count + 1)))
        assert not path.exists()

    @pytest.mark.parametrize("with_averaged", [False, True])
    def test_trailing_byte_is_config_error(self, tmp_path, with_averaged):
        config, count = tiny_checkpoint_config(tmp_path)
        trained = np.arange(count, dtype=np.float64)
        blob = encode_checkpoint(config, trained, trained if with_averaged else None)
        with pytest.raises(ConfigError, match="weight bytes"):
            decode_checkpoint(blob + b"\x00", "ck.bin")

    @pytest.mark.parametrize("config", [{}, {"seed": 3}, [], {"seed": 3, "model": {}},
                                        b"{not json", b"\xff\xfe{}"])
    def test_config_that_does_not_parse_is_config_error(self, config):
        if isinstance(config, bytes):  # a header whose config is not JSON at all
            blob = CHECKPOINT_MAGIC + struct.pack("<I", len(config)) + config + struct.pack("<Q", 0)
        else:
            blob = encode_checkpoint(config, np.ones(18), None)
        with pytest.raises(ConfigError, match="ck.bin: checkpoint config"):
            decode_checkpoint(blob, "ck.bin")

    @pytest.mark.parametrize("seed", [-5, "abc", 1.5, True, "missing"])
    def test_invalid_or_missing_seed_is_config_error(self, tmp_path, seed):
        config, count = tiny_checkpoint_config(tmp_path)
        if seed == "missing":
            del config["seed"]
        else:
            config["seed"] = seed
        with pytest.raises(ConfigError, match="ck.bin: checkpoint seed"):
            decode_checkpoint(encode_checkpoint(config, np.zeros(count), None), "ck.bin")

    @pytest.mark.parametrize("model", [{}, {"num_experts": 4, "use_norm_layers": False}],
                             ids=["default", "four_experts_norm_free"])
    def test_checkpoint_alone_rebuilds_the_run_predictions(self, tmp_path, model):
        """The embedded config and the averaged weights, read back in layout
        order, rebuild the eval model whose predictions onehot.npy holds."""
        raw = config_to_dict(default_config(str(tmp_path / "runs")))
        raw["model"].update(model)
        raw["train"]["epochs"] = 6
        run_dir = tmp_path / "run"
        run_single(parse_config(raw), seed=1, run_dir=run_dir)

        config, _, averaged = load_checkpoint(run_dir / "checkpoint.bin")
        saved = parse_config({key: value for key, value in config.items() if key != "seed"})
        train_ds, test_ds, _ = experiment.build_datasets(saved.dataset, config["seed"])
        model_cfg = experiment.build_damel_config(saved.model, saved.dataset, train_ds.features.shape[1])
        # The template lends its config and norm-layer names; the weights are the checkpoint's.
        eval_model = load_eval_model(init_model(model_cfg, seed=0), averaged, train_ds)
        assert eval_model.buffer is averaged
        onehot = np.load(run_dir / "onehot.npy")
        np.testing.assert_array_equal(predict(eval_model, test_ds.features), onehot.argmax(axis=1))

    def test_checkpoint_with_a_use_bias_key_is_refused(self, tmp_path):
        # Checkpoints written while the model had a use_bias switch embed it.
        config, count = tiny_checkpoint_config(tmp_path)
        config["model"]["use_bias"] = True
        with pytest.raises(ConfigError, match=r"ck.bin: checkpoint config is invalid .*'use_bias'"):
            decode_checkpoint(encode_checkpoint(config, np.zeros(count), None), "ck.bin")

    def test_checkpoint_with_a_ref_experts_key_is_refused(self, tmp_path):
        # Checkpoints written while capacity_controlled was a variant embed ref_experts.
        config, count = tiny_checkpoint_config(tmp_path)
        config["model"]["ref_experts"] = None
        with pytest.raises(ConfigError, match=r"^ck.bin: checkpoint config is invalid \(model: "
                                              r"unknown keys \['ref_experts'\] "):
            decode_checkpoint(encode_checkpoint(config, np.zeros(count), None), "ck.bin")

    def test_count_must_match_synthetic_config(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}))
        run_single(cfg, seed=0, run_dir=tmp_path / "run")
        config, trained, averaged = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert averaged is not None
        hidden = cfg.model.hidden_dim
        for count in (trained.size - 1, trained.size + 1, trained.size + hidden):
            blob = encode_checkpoint(config, np.zeros(count), np.zeros(count))
            with pytest.raises(ConfigError, match=f"ck.bin: checkpoint holds {count} parameters"):
                decode_checkpoint(blob, "ck.bin")

    def test_count_must_fit_csv_config(self, tmp_path):
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv"))
        run_single(cfg, seed=0, run_dir=tmp_path / "run")
        config, trained, _ = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        # The input width is the data file's: any width's count loads.
        hidden = cfg.model.hidden_dim
        for count in (trained.size + hidden, trained.size - 3 * hidden):
            blob = encode_checkpoint(config, np.zeros(count), None)
            assert decode_checkpoint(blob, "ck.bin")[1].size == count
        # Width 4 is the file's, so 4 * hidden fewer is no width at all.
        for count in (trained.size + 1, trained.size - 1, trained.size - 4 * hidden):
            blob = encode_checkpoint(config, np.zeros(count), None)
            with pytest.raises(ConfigError, match=f"ck.bin: checkpoint holds {count} parameters"):
                decode_checkpoint(blob, "ck.bin")


class TestSweep:
    def test_summary_and_identity(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, seeds=[0, 1, 2]))
        summary, records = run_seed_sweep(cfg)
        assert summary.num_runs == 3
        assert len(records) == 3
        sweep_dir = Path(cfg.output_dir) / "sweep" / "default"
        payload = json.loads((sweep_dir / "summary.json").read_text())
        assert payload["num_runs"] == 3
        # re-verify the identity from the emitted per-seed matrices
        preds = [np.load(sweep_dir / str(s) / "onehot.npy") for s in (0, 1, 2)]
        targets = np.load(sweep_dir / "test_labels_onehot.npy")
        rebuilt = bias_variance_decompose(preds, targets)
        assert abs(rebuilt.bias_sq + rebuilt.variance - rebuilt.mse) < 1e-9
        assert rebuilt.mse == summary.mse

    def test_identical_seeds_have_zero_pair_variance(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        run_single(cfg, 0, run_dir=tmp_path / "a")
        run_single(cfg, 0, run_dir=tmp_path / "b")
        preds = [np.load(tmp_path / d / "onehot.npy") for d in ("a", "b")]
        labels = np.zeros_like(preds[0])
        labels[:, 0] = 1.0
        assert bias_variance_decompose(preds, labels).variance == 0.0

    def test_needs_two_seeds(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, seeds=[0]))
        with pytest.raises(ConfigError, match="2 seeds"):
            run_seed_sweep(cfg)

    def test_failing_seed_is_named(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path, seeds=[0, 1]))
        real = experiment.run_single

        def sabotage(config, seed, run_dir=None):
            if seed == 1:
                raise RuntimeError("boom")
            return real(config, seed, run_dir)

        monkeypatch.setattr(experiment, "run_single", sabotage)
        with pytest.raises(DamelError, match="seed 1"):
            run_seed_sweep(cfg)

    def test_parallel_workers_match_sequential(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, seeds=[0, 1]))
        summary_seq, _ = run_seed_sweep(cfg, sweep_dir=tmp_path / "seq")
        summary_par, _ = run_seed_sweep(cfg, workers=2, sweep_dir=tmp_path / "par")
        assert summary_seq.to_json_dict() == summary_par.to_json_dict()

    def test_test_labels_are_the_shared_test_set(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, seeds=[3, 1]))
        _, records = run_seed_sweep(cfg, workers=2, sweep_dir=tmp_path / "sweep")
        _, test_ds, _ = experiment.build_datasets(cfg.dataset, 3)
        expected = labels_one_hot(test_ds.labels, cfg.dataset.num_classes)
        assert np.load(tmp_path / "sweep" / "test_labels_onehot.npy").tobytes() == expected.tobytes()
        assert [r.seed for r in records] == [3, 1]
        for record in records:
            assert record.eval_report.labels.tobytes() == test_ds.labels.tobytes()

    def test_parallel_failure_cancels_queued_seeds(self, tmp_path, monkeypatch):
        # Seed 0 fails at once, and each other run takes long enough (about a
        # second) that the failure is seen before the pool could hand out the
        # last seeds.
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 200}, seeds=list(range(8))))
        real_build = experiment.build_datasets

        def failing_for_seed_0(dataset, seed):  # forked workers inherit it
            if seed == 0:
                raise RuntimeError("no data for seed 0")
            return real_build(dataset, seed)

        monkeypatch.setattr(experiment, "build_datasets", failing_for_seed_0)
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(DamelError, match="sweep: seed 0 failed"):
            run_seed_sweep(cfg, workers=2, sweep_dir=sweep_dir)
        # The pool holds one run per worker and gets the next only when one
        # finishes, so only seed 1 ran beside seed 0; a pool that is handed
        # every job at once runs seeds up to 4 or 5 as well.
        for seed in range(2, 8):
            assert not (sweep_dir / str(seed)).exists()

    def test_parallel_failure_removes_the_directories_it_created(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path, seeds=[0, 1]))

        def failing(config, seed, run_dir=None):  # forked workers inherit it
            Path(run_dir).mkdir(parents=True)
            shutil.rmtree(run_dir)  # as a failed run does, its own directory alone
            raise RuntimeError("boom")

        monkeypatch.setattr(experiment, "run_single", failing)
        (tmp_path / "kept").mkdir()
        with pytest.raises(DamelError, match="boom"):
            run_seed_sweep(cfg, workers=2, sweep_dir=tmp_path / "kept" / "sweep" / "default")
        assert list((tmp_path / "kept").iterdir()) == []

    def test_duplicate_seeds_rejected_before_any_run(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="seed 0 is listed twice"):
            run_seed_sweep(cfg, seeds=[0, 1, 0], workers=2, sweep_dir=sweep_dir)
        assert not sweep_dir.exists()


class TestWorkers:
    @pytest.mark.parametrize("requested", [0, -3])
    def test_requested_below_one_is_config_error(self, requested):
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {requested}"):
            resolve_workers(requested)

    def test_capped_at_job_count(self):
        assert resolve_workers(8) == 8
        assert resolve_workers(None) == 1
        assert resolve_workers(8, jobs=3) == 3
        assert resolve_workers(2, jobs=3) == 2
        assert resolve_workers(None, jobs=3) == 1

    def test_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        assert resolve_workers(8) == 2
        assert resolve_workers(8, jobs=5) == 2
        assert resolve_workers(8, jobs=1) == 1
        assert resolve_workers(None, jobs=5) == 1

    def test_environment_does_not_set_workers(self, monkeypatch):
        """DAMEL_WORKERS is not read: an integer or a word changes nothing."""
        for env in ("3", "many"):
            monkeypatch.setenv("DAMEL_WORKERS", env)
            assert resolve_workers(8) == 8
            assert resolve_workers() == 1

    def test_usable_cpus_is_the_affinity_mask_else_the_cpu_count(self, monkeypatch):
        monkeypatch.undo()  # the real _usable_cpus, on patched OS calls
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert experiment._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiment._usable_cpus() == 16
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._usable_cpus() == 1

    def test_pool_gets_the_capped_count(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path, seeds=[0, 1, 2]))
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        started = []

        class NoPool:  # records the worker count and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)
                raise RuntimeError("no pool in this test")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", NoPool)
        with pytest.raises(RuntimeError, match="no pool"):
            run_seed_sweep(cfg, workers=8, sweep_dir=tmp_path / "sweep")
        assert started == [2]


class TestSuites:
    def test_expansions(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        assert [cell for cell, _ in expand_suite(cfg, "table7")] == ["iteration", "epoch"]
        rates = [c.train.ema_rate for _, c in expand_suite(cfg, "table9")]
        assert rates == [0.01, 0.05, 0.1, 0.2, 0.3]
        scales = [c.model.scale for _, c in expand_suite(cfg, "table10")]
        assert scales == [8.0, 16.0, 20.0, 24.0]
        assert len(expand_suite(cfg, "table5")) == 6
        assert len(expand_suite(cfg, "table8")) == 4
        assert len(expand_suite(cfg, "table12")) == 10
        assert {suite: [cell for cell, _ in expand_suite(cfg, suite)] for suite in SUITES} == {
            "table5": ["aggregate_predictions_k2", "aggregate_predictions_k3",
                       "aggregate_predictions_k4", "standard_k2", "standard_k3", "standard_k4"],
            "table7": ["iteration", "epoch"],
            "table8": ["experts_1", "experts_2", "experts_3", "experts_4"],
            "table9": ["rate_0.01", "rate_0.05", "rate_0.1", "rate_0.2", "rate_0.3"],
            "table10": ["scale_8", "scale_16", "scale_20", "scale_24"],
            "table11": ["capacity_controlled", "standard"],
            "table12": ["proposed", "no_ema", "single_expert", "no_cb_loss",
                        "average_representations", "iteration_ema", "swa", "high_ema_rate",
                        "low_ema_rate", "decoupled"],
        }

    def test_expansion_is_pure(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        first = [(cell, config_to_dict(c)) for cell, c in expand_suite(cfg, "table12")]
        second = [(cell, config_to_dict(c)) for cell, c in expand_suite(cfg, "table12")]
        assert first == second

    @pytest.mark.parametrize("model_updates, train_updates, message", [
        ({}, {"batch_size": 5000}, r"^train\.batch_size 5000 exceeds the \d+ training samples$"),
        ({}, {"epochs": 1.5}, r"^train: epochs must be an integer, got 1\.5$"),
        ({"num_experts": "2"}, {}, r"^model: num_experts must be an integer, got '2'$"),
        ({}, {"lr": float("nan")}, r"^train: lr must be a finite number, got nan$"),
    ], ids=["batch_size", "epochs", "num_experts", "lr"])
    def test_vary_config_checks_the_config_before_any_run(self, tmp_path, monkeypatch,
                                                          model_updates, train_updates, message):
        builds = []
        monkeypatch.setattr(experiment, "build_datasets", lambda *args: builds.append(args))
        cfg = default_config(str(tmp_path / "runs"))
        with pytest.raises(ConfigError, match=message):
            run_single(vary_config(cfg, model_updates, train_updates), 0)
        assert builds == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_capacity_controlled_cell_is_one_expert_as_wide_as_the_concatenation(self, tmp_path,
                                                                                variant):
        """Under any base variant, table11's first cell is the configured model
        but for one standard expert as wide as the configured experts side by
        side: the width a standard model's auxiliary head reads."""
        cfg = parse_config(small_raw(tmp_path, model={"variant": variant}))
        cells = dict(expand_suite(cfg, "table11"))
        cell = cells["capacity_controlled"]
        assert cells["standard"] == cfg and (cell.dataset, cell.train) == (cfg.dataset, cfg.train)
        width = cfg.model.num_experts * cfg.model.rep_dim
        assert cell.model == replace(cfg.model, variant="standard", num_experts=1, rep_dim=width)
        standard = replace(cfg.model, variant="standard")
        assert (build_damel_config(cell.model, cell.dataset, 5).aux_input_dim
                == build_damel_config(standard, cfg.dataset, 5).aux_input_dim == width)

    def test_decoupled_cell_without_an_aux_head_names_the_cell(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, model={"variant": "aggregate_predictions"}))
        with pytest.raises(ConfigError, match=r"^table12/decoupled: train\.decoupled re-trains "):
            expand_suite(cfg, "table12")

    def test_unknown_suite_lists_names(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        with pytest.raises(ConfigError, match="table5"):
            expand_suite(cfg, "table99")

    def test_table7_run_counts_and_csv(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}, seeds=[0, 1]))
        csv_path, rows = run_ablation_suite(cfg, "table7")
        assert len(rows) == 2
        run_files = list((Path(cfg.output_dir) / "table7").glob("*/*/run.json"))
        assert len(run_files) == 4  # 2 cells x 2 seeds
        text = csv_path.read_text().splitlines()
        assert text[0].startswith("suite,cell,seeds,overall_mean")
        assert len(text) == 3

    def test_one_seed_cell_leaves_its_spread_empty(self, tmp_path):
        # A sample standard deviation of one value is undefined, not 0.0.
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}, seeds=[0]))
        csv_path, _ = run_ablation_suite(cfg, "table7")
        cell_dir = Path(cfg.output_dir) / "table7" / "epoch"
        assert cli_main(["report", "--dir", str(cell_dir)]) == 0
        tables = []
        for path in (csv_path, cell_dir / "report.csv"):
            with open(path, newline="") as fh:
                tables.append({row["cell"]: row for row in csv.DictReader(fh)})
        assert tables[1] == {"epoch": tables[0]["epoch"]}
        for row in tables[0].values():
            assert 0.0 <= float(row["overall_mean"]) <= 1.0
            assert float(row["few_mean"]) >= 0.0
            assert [row[column] for column in row if column.endswith("_sd")] == [""] * 4

    def test_report_on_a_file_is_config_error(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match=f"^report: {path} is not a directory$"):
            aggregate_report(path)

    def test_report_reaggregates(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}, seeds=[0]))
        run_ablation_suite(cfg, "table7")
        csv_path, rows = aggregate_report(cfg.output_dir)
        assert csv_path.exists()
        cells = {row[1] for row in rows}
        assert cells == {"iteration", "epoch"}

    def test_parallel_suite_csv_matches_serial(self, tmp_path):
        blobs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}, output_dir=str(out)))
            csv_path, _ = run_ablation_suite(cfg, "table7", workers=workers)
            blobs.append(csv_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_report_rows_match_suite_rows(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}, seeds=[0, 1]))
        _, suite_rows = run_ablation_suite(cfg, "table7", workers=2)
        # --dir may be any level of the tree: the root, a suite or a cell.
        for root in (Path(cfg.output_dir), Path(cfg.output_dir) / "table7"):
            csv_path, report_rows = aggregate_report(root)
            assert {row[1]: row for row in report_rows} == {row[1]: row for row in suite_rows}
            assert len(csv_path.read_text().splitlines()) == 1 + len(suite_rows)
        _, cell_rows = aggregate_report(Path(cfg.output_dir) / "table7" / "epoch")
        assert cell_rows == [row for row in suite_rows if row[1] == "epoch"]

    def test_report_orders_seeds_numerically(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}, seeds=list(range(11))))
        _, suite_rows = run_ablation_suite(cfg, "table7")
        _, report_rows = aggregate_report(Path(cfg.output_dir))
        assert sorted(report_rows) == sorted(suite_rows)
        assert report_rows[0][2] == " ".join(str(seed) for seed in range(11))

    def test_duplicate_seeds_rejected_before_any_run(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, seeds=[1, 1]))
        with pytest.raises(ConfigError, match="table7/iteration: seed 1 is listed twice"):
            run_ablation_suite(cfg, "table7")
        assert not (Path(cfg.output_dir) / "table7").exists()

    def test_empty_seed_list_rejected_before_any_run(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        cfg.seeds = []
        with pytest.raises(ConfigError, match="table7/iteration: seeds must be a non-empty list"):
            run_ablation_suite(cfg, "table7")
        assert not Path(cfg.output_dir).exists()

    def test_run_record_json_round_trip(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}))
        record = run_single(cfg, seed=0, run_dir=tmp_path / "run")
        payload = json.loads((tmp_path / "run" / "run.json").read_text())
        rebuilt = RunRecord.from_json_dict(payload)
        assert rebuilt.to_json_dict() == record.to_json_dict()
        assert rebuilt.eval_report.group_acc == record.eval_report.group_acc
        assert rebuilt.eval_report.confusion.tobytes() == record.eval_report.confusion.tobytes()
        assert rebuilt.eval_report.predictions is None and rebuilt.eval_report.labels is None
        assert EvalReport.from_json_dict(payload["eval"]).to_json_dict() == payload["eval"]


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        raw = small_raw(tmp_path, **overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path, raw

    def test_run_command(self, tmp_path, capsys):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1})
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 0
        assert (Path(raw["output_dir"]) / "single" / "default" / "0" / "run.json").exists()

    def test_sweep_command(self, tmp_path, capsys):
        path, _ = self._write_cfg(tmp_path, train={"epochs": 1})
        assert cli_main(["sweep", "--config", str(path), "--seeds", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_runs"] == 2

    def test_ablate_and_report_commands(self, tmp_path, capsys):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1}, seeds=[0])
        assert cli_main(["ablate", "--config", str(path), "--suite", "table7"]) == 0
        assert cli_main(["report", "--dir", raw["output_dir"]]) == 0

    def test_report_on_malformed_record_exits_1_naming_the_file(self, tmp_path, capsys):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1}, seeds=[0])
        assert cli_main(["ablate", "--config", str(path), "--suite", "table7"]) == 0
        root = Path(raw["output_dir"])
        record = root / "table7" / "epoch" / "0" / "run.json"
        payload = json.loads(record.read_text())
        del payload["eval"]
        for text, reason in ((record.read_text()[:40], "invalid JSON: "),
                             ("[1, 2]", "a JSON list, not an object"),
                             (json.dumps(payload), "missing field 'eval'")):
            record.write_text(text)
            capsys.readouterr()
            assert cli_main(["report", "--dir", str(root)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: report: {record}: not a damel run record ({reason}")
            assert err.count("\n") == 1
            assert not (root / "report.csv").exists()

    @pytest.mark.parametrize("field, value, reason", [
        (("seed",), "1", "seed must be a non-negative integer, got '1'"),
        (("seed",), -1, "seed must be a non-negative integer, got -1"),
        (("seed",), True, "seed must be a non-negative integer, got True"),
        (("seed",), 1.5, "seed must be a non-negative integer, got 1.5"),
        (("wall_seconds",), "slow", "wall_seconds must be a finite number, got 'slow'"),
        (("eval", "overall_acc"), "high", "overall_acc must be a number in [0, 1], got 'high'"),
        (("eval", "overall_acc"), True, "overall_acc must be a number in [0, 1], got True"),
        (("eval", "group_acc", "few"), "x", "group_acc.few must be a number in [0, 1], got 'x'"),
        (("eval", "test_size"), "40", "test_size must be a non-negative integer, got '40'"),
        (("eval", "confusion"), [[1.5, 0], [0, 1]],
         "confusion must be an integer matrix, got float64 of shape (2, 2)"),
        (("eval", "confusion"), [1, 2], "confusion must be an integer matrix, got int64 of shape (2,)"),
        (("eval", "confusion"), "abc", "confusion must be an integer matrix, got <U3 of shape ()"),
    ])
    def test_report_on_wrongly_typed_field_exits_1_naming_the_file(self, tmp_path, capsys,
                                                                   field, value, reason):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1}, seeds=[0])
        assert cli_main(["ablate", "--config", str(path), "--suite", "table7"]) == 0
        root = Path(raw["output_dir"])
        record = root / "table7" / "epoch" / "0" / "run.json"
        payload = json.loads(record.read_text())
        target = payload
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        record.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli_main(["report", "--dir", str(root)]) == 1
        assert capsys.readouterr().err == (
            f"config error: report: {record}: not a damel run record ({reason})\n")
        assert not (root / "report.csv").exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    @pytest.mark.parametrize("command", [["run", "--seed", "0"],
                                         ["sweep", "--seeds", "0,1", "--workers", "2"]])
    def test_empty_csv_is_one_stderr_line(self, tmp_path, text, command):
        """A real process, so pool workers' stderr counts too."""
        data = tmp_path / "empty.csv"
        data.write_text(text)
        raw = csv_raw(tmp_path, data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        proc = cli_process([command[0], "--config", str(path), *command[1:]])
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("run failed: ")
        assert proc.stderr.endswith(f"{data}: CSV holds no rows\n")
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("overflow", [{"dataset": {"class_sep": 1e300}},
                                          {"train": {"cb_loss_weight": 1e300}}],
                             ids=["class_sep", "cb_loss_weight"])
    @pytest.mark.parametrize("command", [["run", "--seed", "0"],
                                         ["sweep", "--seeds", "0,1", "--workers", "2"]])
    def test_overflowing_run_exits_2_on_one_line(self, tmp_path, overflow, command):
        """A real process: pytest's filters turn the numpy warnings a breach
        prints into errors, so in-process the breach would not show."""
        path, raw = self._write_cfg(tmp_path, **overflow)
        proc = cli_process([command[0], "--config", str(path), *command[1:]])
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert re.fullmatch(r"run failed: (sweep: seed \d failed: )?overflow encountered in "
                            r"[\w ]+ \(epoch 0, iteration \d+\)\n", proc.stderr)
        assert not Path(raw["output_dir"]).exists()

    def test_report_on_a_tree_without_run_records_exits_1(self, tmp_path, capsys):
        (tmp_path / "table7" / "epoch" / "0").mkdir(parents=True)
        (tmp_path / "table7" / "epoch" / "0" / "eval.json").write_text("{}")
        (tmp_path / "empty").mkdir()
        for root in (tmp_path / "table7" / "epoch" / "0", tmp_path / "empty", tmp_path):
            assert cli_main(["report", "--dir", str(root)]) == 1
            assert capsys.readouterr().err == f"config error: report: no run records under {root}\n"
            assert not (root / "report.csv").exists()

    def test_non_integer_seed_list_exit_code(self, tmp_path, capsys):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1})
        assert cli_main(["sweep", "--config", str(path), "--seeds", "0,x"]) == 1
        assert capsys.readouterr().err == (
            "config error: --seeds must be a comma-separated integer list, got '0,x'\n")
        assert not Path(raw["output_dir"]).exists()

    def test_duplicate_seeds_exit_code(self, tmp_path, capsys):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1})
        assert cli_main(["sweep", "--config", str(path), "--seeds", "0,0"]) == 1
        err = capsys.readouterr().err
        assert "seed 0 is listed twice" in err and err.count("\n") == 1
        assert not (Path(raw["output_dir"]) / "sweep").exists()

    @pytest.mark.parametrize("argv, field", [
        (["run", "--seed", "-1"], "seed"),
        (["sweep", "--seeds=-1,0"], "sweep: seed"),
    ])
    def test_negative_seed_exit_code(self, tmp_path, capsys, argv, field):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1})
        assert cli_main([argv[0], "--config", str(path), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"config error: {field} must be a non-negative integer, got -1\n"
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("command", [["sweep", "--seeds", "0,1"], ["ablate", "--suite", "table7"]])
    def test_workers_below_one_exit_code(self, tmp_path, capsys, command):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1})
        argv = [command[0], "--config", str(path), *command[1:], "--workers", "0"]
        assert cli_main(argv) == 1
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("batch_size", [500, 4])
    @pytest.mark.parametrize("command", [
        ["run", "--seed", "0"], ["sweep", "--seeds", "0,1", "--workers", "2"],
        ["ablate", "--suite", "table7", "--workers", "2"],
    ])
    def test_degenerate_batch_size_exits_1_before_any_run(self, tmp_path, capsys, command, batch_size):
        path, raw = self._write_cfg(tmp_path, train={"batch_size": batch_size})
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: train.batch_size {batch_size} ") and err.count("\n") == 1
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("dataset", [{"feature_dim": 1}, {"class_sep": 0.0}])
    @pytest.mark.parametrize("command", [
        ["run", "--seed", "0"], ["sweep", "--seeds", "0,1", "--workers", "2"],
        ["ablate", "--suite", "table7", "--workers", "2"],
    ])
    def test_degenerate_synthetic_source_exits_1_before_any_run(self, tmp_path, capsys, command,
                                                                dataset):
        path, raw = self._write_cfg(tmp_path, dataset=dataset)
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset: synthesize: ") and err.count("\n") == 1
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("command, model, train, reason", [
        (["run", "--seed", "0"], {"variant": "aggregate_predictions"}, {"decoupled": True},
         "train.decoupled re-trains the auxiliary head"),
        (["sweep", "--seeds", "0,1", "--workers", "2"], {"variant": "aggregate_predictions"},
         {"decoupled": True}, "train.decoupled re-trains the auxiliary head"),
        (["run", "--seed", "0"], {}, {"cb_loss_weight": 0}, "train.cb_loss_weight 0 leaves"),
    ], ids=["run_decoupled", "sweep_decoupled", "run_zero_weight"])
    def test_aux_head_that_cannot_train_exits_1_before_any_run(self, tmp_path, capsys, command,
                                                               model, train, reason):
        path, raw = self._write_cfg(tmp_path, model=model, train=train)
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {reason}") and err.count("\n") == 1
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_suite_cell_the_model_cannot_run_exits_1_before_any_run(self, tmp_path, capsys, workers):
        """Under aggregate_predictions, table12's decoupled cell has no head to re-train."""
        path, raw = self._write_cfg(tmp_path, model={"variant": "aggregate_predictions"})
        argv = ["ablate", "--config", str(path), "--suite", "table12", "--workers", workers]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: table12/decoupled: train.decoupled re-trains the auxiliary head, "
            "which variant aggregate_predictions does not have\n")
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("command, where", [
        (["run", "--seed", "0"], ""),
        (["sweep", "--seeds", "0,1", "--workers", "1"], "sweep: seed 0 failed: "),
        (["sweep", "--seeds", "0,1", "--workers", "2"], "sweep: seed "),
        (["ablate", "--suite", "table7", "--workers", "2"], "table7/"),
    ])
    def test_config_error_found_in_a_run_exits_1(self, tmp_path, capsys, command, where):
        """A 4-class config over a 3-class CSV fails inside the run, under every command."""
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        raw = csv_raw(tmp_path, tmp_path / "pool.csv")
        raw["dataset"]["num_classes"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}") and err.count("\n") == 1
        assert err.endswith("dataset: file holds 3 classes, config says 4\n")
        assert not Path(raw["output_dir"]).exists()

    @pytest.mark.parametrize("dataset, reason", [
        ({"test_per_class": 30}, "holdout: class 0 has 25 samples, needs at least 31"),
        ({"head_count": 41}, "subsample: class 0 has 21 samples, spec needs 41"),
    ], ids=["holdout", "subsample"])
    @pytest.mark.parametrize("command, where", [
        (["run", "--seed", "0"], ""),
        (["sweep", "--seeds", "0,1", "--workers", "2"], "sweep: seed "),
    ], ids=["run", "sweep_workers_2"])
    def test_csv_too_small_for_the_profile_exits_1(self, tmp_path, capsys, command, where,
                                                   dataset, reason):
        """25 rows per class cannot fill the configured holdout or training profile."""
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        raw = csv_raw(tmp_path, tmp_path / "pool.csv")
        raw["dataset"].update(dataset)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}") and err.count("\n") == 1
        assert f"dataset: {reason}" in err
        assert not Path(raw["output_dir"]).exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"source": "synthetic"}}))
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 1

    def test_wrongly_typed_field_exit_code(self, tmp_path, capsys):
        path, _ = self._write_cfg(tmp_path, model={"num_experts": "3"})
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 1
        assert capsys.readouterr().err == (
            "config error: model: num_experts must be an integer, got '3'\n"
        )

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json"), "--seed", "0"]) == 1

    @pytest.mark.parametrize("config, reason", [
        ("directory", "cannot read config: Is a directory"),
        ("not_utf8", "invalid JSON ("),
        ("missing", "cannot read config: No such file or directory"),
    ], ids=["directory", "not_utf8", "missing"])
    @pytest.mark.parametrize("command", [["run", "--seed", "0"], ["sweep", "--seeds", "0,1"]],
                             ids=["run", "sweep"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, command, config, reason):
        path = tmp_path / "cfg.json"
        if config == "directory":
            path.mkdir()
        elif config == "not_utf8":
            path.write_bytes(b"\xff\xfe{")
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {reason}") and err.count("\n") == 1

    def test_unknown_suite_exit_code(self, tmp_path, capsys):
        path, _ = self._write_cfg(tmp_path)
        assert cli_main(["ablate", "--config", str(path), "--suite", "table99"]) == 1
        assert "table12" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert cli_main(["run", "--seed", "0"]) == 1

    def test_non_numeric_csv_cell_is_one_line_run_failure(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("1.0,2.0,0\n3.0,4.0,x\n5.0,6.0,1\n")
        raw = small_raw(tmp_path)
        raw["dataset"] = {
            "source": "csv", "csv_path": str(data), "num_classes": 2, "head_count": 1,
            "imbalance_ratio": 1, "test_per_class": 1, "base_seed": 0,
        }
        raw["train"]["batch_size"] = 2  # the profile holds 2 samples
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("run failed: ") and str(data) in err

    def test_unexpected_error_is_one_line_run_failure(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("first line\nsecond line")

        monkeypatch.setattr("damel.cli.run_single", boom)
        path, _ = self._write_cfg(tmp_path)
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 2
        assert capsys.readouterr().err == "run failed: ValueError: first line second line\n"

    @pytest.mark.parametrize("dangling", [False, True], ids=["file", "dangling_symlink"])
    @pytest.mark.parametrize("command", [["run", "--seed", "0"],
                                         ["sweep", "--seeds", "0,1,2", "--workers", "1"],
                                         ["ablate", "--suite", "table7", "--workers", "2"]])
    def test_output_dir_under_a_file_exits_1_before_any_data_is_built(self, tmp_path, capsys,
                                                                      monkeypatch, command, dangling):
        builds = []
        monkeypatch.setattr(experiment, "build_datasets", lambda *args: builds.append(args))
        blocker = tmp_path / "blocker"
        if dangling:
            blocker.symlink_to(tmp_path / "nowhere")
        else:
            blocker.write_text("a file, not a directory")
        path, _ = self._write_cfg(tmp_path, output_dir=str(blocker / "runs"))
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: output_dir: cannot make run directory "
                            rf"{re.escape(str(blocker))}/runs/\S+: {re.escape(str(blocker))} "
                            rf"is not a directory\n", err), err
        assert builds == [] and not (tmp_path / "nowhere").exists()
        assert dangling or blocker.read_text() == "a file, not a directory"


# The command line's contract as a real process, so that pool workers' stderr
# counts too. Each case runs one command from a scratch directory that holds
# cfg.json, the base config below with the case's blocks swapped in, and the
# data files the sources name: pool.csv (3 classes of 25 rows), an IDX pair of
# the same profile (2x2 images) and short-images, its images file one byte
# short. A failure exits 1 or 2 on exactly one stderr line that matches the
# case's pattern, with no traceback, and leaves no `runs` directory; a success
# exits 0 and writes nothing to stderr.
_BASE_CONFIG = small_raw(Path(), output_dir="runs")
_CSV = {block: csv_raw(Path(), "pool.csv")[block] for block in ("dataset", "train")}
_IDX = {"dataset": {"source": "idx", "images": "idx-images", "labels": "idx-labels",
                    "num_classes": 3, "head_count": 15, "imbalance_ratio": 5,
                    "test_per_class": 4, "base_seed": 0},
        "train": _CSV["train"]}
_RUN = ["run", "--seed", "0"]
_SWEEP_2 = ["sweep", "--seeds", "0,1", "--workers", "2"]


def _ablate_2(suite):
    return ["ablate", "--suite", suite, "--workers", "2"]


def _dataset(source, **updates):
    return dict(source, dataset=dict(source["dataset"], **updates))


_NO_BIAS = {"model": dict(_BASE_CONFIG["model"], use_bias=False)}
_USE_BIAS = r"config error: model: unknown keys \['use_bias'\] .*"
_REF_EXPERTS = {"model": dict(_BASE_CONFIG["model"], ref_experts=3)}
_CAPACITY = {"model": dict(_BASE_CONFIG["model"], variant="capacity_controlled", num_experts=1)}
# pool.csv is a regular file, so no run directory can be made under it.
_UNDER_A_FILE = {"output_dir": "pool.csv/runs"}
_CLASSES = r"dataset: file holds 3 classes, config says 4"
_SHORT_IDX = r"short-images: IDX payload size 299 != 75\*2\*2"

# (id, the command and its arguments but --config, replaced blocks, exit code,
#  stderr pattern)
CLI_CONTRACT_CASES = [
    ("use_bias_run", _RUN, _NO_BIAS, 1, _USE_BIAS),
    ("use_bias_sweep_workers_2", _SWEEP_2, _NO_BIAS, 1, _USE_BIAS),
    # capacity_controlled is table11's cell, a standard config, and no longer a variant.
    ("ref_experts_run", _RUN, _REF_EXPERTS, 1, r"config error: model: unknown keys \['ref_experts'\] .*"),
    ("capacity_controlled_variant_run", _RUN, _CAPACITY, 1,
     r"config error: model: unknown variant 'capacity_controlled', expected one of "
     r"\('standard', 'aggregate_predictions', 'average_representations'\)"),
    ("output_dir_under_a_file_run", _RUN, _UNDER_A_FILE, 1,
     r"config error: output_dir: cannot make run directory pool\.csv/runs/single/default/0: "
     r"pool\.csv is not a directory"),
    ("output_dir_under_a_file_sweep_workers_2", _SWEEP_2, _UNDER_A_FILE, 1,
     r"config error: output_dir: cannot make run directory pool\.csv/runs/sweep/default/0: "
     r"pool\.csv is not a directory"),
    # Which worker fails first varies, so the pooled miscount runs five times.
    *[(f"csv_classes_sweep_workers_2_try{n}", _SWEEP_2, _dataset(_CSV, num_classes=4), 1,
       rf"config error: sweep: seed \d failed: {_CLASSES}") for n in range(5)],
    ("csv_classes_ablate_workers_2", _ablate_2("table7"), _dataset(_CSV, num_classes=4), 1,
     rf"config error: table7/\w+: seed \d failed: {_CLASSES}"),
    ("csv_holdout_sweep_workers_2", _SWEEP_2, _dataset(_CSV, test_per_class=30), 1,
     r"config error: sweep: seed \d failed: dataset: holdout: class 0 has 25 samples, "
     r"needs at least 31 to keep a training remainder"),
    ("csv_profile_sweep_workers_2", _SWEEP_2, _dataset(_CSV, head_count=41), 1,
     r"config error: sweep: seed \d failed: dataset: subsample: class 0 has 21 samples, "
     r"spec needs 41"),
    ("idx_short_images_run", _RUN, _dataset(_IDX, images="short-images"), 2,
     rf"run failed: {_SHORT_IDX}"),
    ("idx_short_images_sweep_workers_2", _SWEEP_2, _dataset(_IDX, images="short-images"), 2,
     rf"run failed: sweep: seed \d failed: {_SHORT_IDX}"),
    ("idx_classes_run", _RUN, _dataset(_IDX, num_classes=4), 1, rf"config error: {_CLASSES}"),
    ("sweep_workers_2", ["sweep", "--seeds", "0,1,2", "--workers", "2"], {}, 0, ""),
    # table5 aggregates predictions, table11 holds one wide expert and
    # table12 average_representations: every predict variant in a pool.
    *[(f"ablate_{suite}_workers_2", _ablate_2(suite), {}, 0, "")
      for suite in ("table7", "table5", "table11", "table12")],
    ("csv_ablate_table7_workers_2", _ablate_2("table7"), _CSV, 0, ""),
    ("idx_sweep_workers_2", _SWEEP_2, _IDX, 0, ""),
    ("idx_ablate_table7_workers_2", _ablate_2("table7"), _IDX, 0, ""),
]


def write_contract_sources(root):
    """pool.csv, idx-images, idx-labels and short-images under ``root``; in the
    IDX pair, class c brightens pixel c."""
    write_csv_pool(root / "pool.csv", seed=0)
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3, dtype=np.uint8), 25)
    pixels = rng.integers(0, 50, size=(75, 4)) + 200 * (np.arange(4) == labels[:, None])
    images = struct.pack(">IIII", 0x803, 75, 2, 2) + pixels.astype(np.uint8).tobytes()
    (root / "idx-images").write_bytes(images)
    (root / "short-images").write_bytes(images[:-1])
    (root / "idx-labels").write_bytes(struct.pack(">II", 0x801, 75) + labels.tobytes())


@pytest.mark.parametrize("argv, blocks, code, pattern",
                         [case[1:] for case in CLI_CONTRACT_CASES],
                         ids=[case[0] for case in CLI_CONTRACT_CASES])
def test_cli_contract(tmp_path, argv, blocks, code, pattern):
    write_contract_sources(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**_BASE_CONFIG, **blocks}))
    proc = cli_process([argv[0], "--config", "cfg.json", *argv[1:]], cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        return
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert re.fullmatch(pattern + "\n", proc.stderr), proc.stderr
    assert not (tmp_path / "runs").exists()


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """default_config() cut to 6 epochs runs with OpenBLAS at 1 and 2 threads and
    with the variable unset, and every artifact but run.json is the same byte
    for byte, which every comparison of artifact hashes across hosts assumes."""
    raw = config_to_dict(default_config())
    raw["train"]["epochs"] = 6
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    runs = []
    for threads in ("1", "2", None):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        proc = cli_process(["run", "--config", "../cfg.json", "--seed", "0"], cwd=cwd,
                           OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        runs.append(artifacts(cwd / "runs"))
    assert len(runs[0]) == 5
    assert runs[0] == runs[1] == runs[2]
