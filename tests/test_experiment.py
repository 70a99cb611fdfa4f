"""Experiment driver tests: config validation, runs, sweeps, suites, CLI."""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import damel.experiment as experiment
from damel.cli import main as cli_main
from damel.errors import ConfigError, DamelError
from damel.averaging import recompute_running_stats
from damel.data import load_csv_dataset, load_idx_dataset, split_balanced_holdout
from damel.evaluation import EvalReport, bias_variance_decompose, labels_one_hot, one_hot_predictions
from damel.experiment import (
    RunRecord,
    aggregate_report,
    config_hash,
    config_to_dict,
    expand_suite,
    load_checkpoint,
    load_config,
    parse_config,
    resolve_workers,
    run_ablation_suite,
    run_seed_sweep,
    run_single,
    save_checkpoint,
)
from damel.model import init_model


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

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_every_wrongly_typed_value_is_config_error_or_accepted(self, tmp_path, source):
        raw = small_raw(
            tmp_path,
            model={"scale": 16.0, "variant": "standard", "use_bias": True, "ref_experts": None},
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
        ("model", "use_bias", 1), ("train", "lr", float("nan")), ("output_dir", None, None),
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

    @pytest.mark.parametrize("model, train", [
        ({}, {"batch_size": 53}),
        ({"use_norm_layers": False}, {"batch_size": 4}),
        ({"use_norm_layers": False}, {"batch_size": 1}),
        ({}, {"batch_size": 500, "epochs": 0}),
    ])
    def test_batch_size_every_run_can_train_with_is_accepted(self, tmp_path, model, train):
        parse_config(small_raw(tmp_path, model=model, train=train))

    def test_hash_ignores_seeds_and_output(self, tmp_path):
        a = parse_config(small_raw(tmp_path, seeds=[0, 1]))
        b = parse_config(small_raw(tmp_path, seeds=[5, 6], output_dir=str(tmp_path / "other")))
        assert config_hash(a) == config_hash(b)
        c = parse_config(small_raw(tmp_path, train={"lr": 0.05}))
        assert config_hash(a) != config_hash(c)


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

    def test_onehot_matches_eval_model_predictions(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        run_dir = tmp_path / "run"
        run_single(cfg, seed=2, run_dir=run_dir)
        _, _, averaged = load_checkpoint(run_dir / "checkpoint.bin")
        train_ds, test_ds, _ = experiment.build_datasets(cfg.dataset, 2)
        model_cfg = experiment.build_damel_config(cfg.model, cfg.dataset, train_ds.features.shape[1])
        eval_model = init_model(model_cfg, 2)
        eval_model.unflatten(averaged)
        recompute_running_stats(eval_model, train_ds)
        saved = np.load(run_dir / "onehot.npy")
        assert saved.tobytes() == one_hot_predictions(eval_model, test_ds).tobytes()

    def test_zero_epochs_near_chance(self, tmp_path):
        raw = small_raw(tmp_path, train={"epochs": 0})
        cfg = parse_config(raw)
        accs = [run_single(cfg, seed=s, run_dir=tmp_path / f"z{s}").eval_report.overall_acc
                for s in (0, 1, 2)]
        assert abs(np.mean(accs) - 0.25) <= 0.15

    def test_failed_run_removes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path))
        monkeypatch.setattr(experiment, "evaluate", lambda *a, **k: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_single(cfg, seed=0, run_dir=tmp_path / "broken")
        assert not (tmp_path / "broken").exists()

    def test_failed_run_removes_the_empty_directories_it_created(self, tmp_path, monkeypatch):
        cfg = parse_config(small_raw(tmp_path))
        monkeypatch.setattr(experiment, "evaluate", lambda *a, **k: 1 / 0)
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

    def test_inline_sweep_parses_once(self, tmp_path, parses):
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv", seeds=[0, 1, 2, 3]))
        run_seed_sweep(cfg, workers=1)
        assert len(parses) == 1

    def test_inline_suite_parses_once(self, tmp_path, parses):
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
        assert err.startswith("config error: ") and str(missing) in err
        assert not (Path(raw["output_dir"]) / "single" / "default" / "0").exists()

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
            return real(dataset, seed)

        monkeypatch.setattr(experiment, "build_datasets", fresh)
        run_seed_sweep(cfg, workers=1, sweep_dir=tmp_path / "fresh")
        assert len(parses) == 5
        names = sorted(p.relative_to(tmp_path / "memo") for p in (tmp_path / "memo").rglob("*")
                       if p.is_file() and p.name != "run.json")
        assert len(names) == 4 * 5 + 2
        for name in names:
            assert (tmp_path / "memo" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def tiny_checkpoint_config(tmp_path):
    """A one-unit-wide run config as a checkpoint embeds it, and its parameter
    count: w1 5 + b1 + w2 + b2, one expert (w, b, 4 class columns), aux 4."""
    raw = small_raw(tmp_path, model={"num_experts": 1, "hidden_dim": 1, "rep_dim": 1,
                                     "use_norm_layers": False})
    return dict(config_to_dict(parse_config(raw)), seed=3), 18


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.bin"
        config, count = tiny_checkpoint_config(tmp_path)
        trained = np.arange(count, dtype=np.float64)
        averaged = trained * 0.5
        save_checkpoint(path, config, trained, averaged)
        blob = path.read_bytes()
        assert blob[:8] == b"DAMELCKP"
        (json_len,) = struct.unpack("<I", blob[8:12])
        assert json.loads(blob[12:12 + json_len]) == config
        cfg, t, a = load_checkpoint(path)
        assert cfg == config
        np.testing.assert_array_equal(t, trained)
        np.testing.assert_array_equal(a, averaged)

    def test_without_averaged(self, tmp_path):
        path = tmp_path / "ck.bin"
        config, count = tiny_checkpoint_config(tmp_path)
        save_checkpoint(path, config, np.ones(count), None)
        _, t, a = load_checkpoint(path)
        assert a is None and t.size == count

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTDAMEL" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("with_averaged", [False, True])
    def test_every_truncation_is_config_error(self, tmp_path, with_averaged):
        path = tmp_path / "ck.bin"
        config, count = tiny_checkpoint_config(tmp_path)
        trained = np.arange(count, dtype=np.float64)
        save_checkpoint(path, config, trained,
                        trained * 0.5 if with_averaged else None)
        blob = path.read_bytes()
        trained_only_len = len(blob) - 8 * trained.size if with_averaged else None
        cut = tmp_path / "cut.bin"
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            if length == trained_only_len:
                # Exactly a well-formed checkpoint without averaged weights.
                _, t, a = load_checkpoint(cut)
                assert a is None and t.tobytes() == trained.tobytes()
                continue
            with pytest.raises(ConfigError):
                load_checkpoint(cut)

    @pytest.mark.parametrize("with_averaged", [False, True])
    def test_trailing_byte_is_config_error(self, tmp_path, with_averaged):
        path = tmp_path / "ck.bin"
        config, count = tiny_checkpoint_config(tmp_path)
        trained = np.arange(count, dtype=np.float64)
        save_checkpoint(path, config, trained, trained if with_averaged else None)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConfigError, match="weight bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [{}, {"seed": 3}, [], {"seed": 3, "model": {}}])
    def test_config_that_does_not_parse_is_config_error(self, tmp_path, config):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, config, np.ones(18), None)
        with pytest.raises(ConfigError, match="ck.bin: checkpoint config"):
            load_checkpoint(path)

    def test_count_must_match_synthetic_config(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 1}))
        run_single(cfg, seed=0, run_dir=tmp_path / "run")
        config, trained, averaged = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert averaged is not None
        path = tmp_path / "ck.bin"
        hidden = cfg.model.hidden_dim
        for count in (trained.size - 1, trained.size + 1, trained.size + hidden):
            save_checkpoint(path, config, np.zeros(count), np.zeros(count))
            with pytest.raises(ConfigError, match=f"ck.bin: checkpoint holds {count} parameters"):
                load_checkpoint(path)

    def test_count_must_fit_csv_config(self, tmp_path):
        write_csv_pool(tmp_path / "pool.csv", seed=0)
        cfg = parse_config(csv_raw(tmp_path, tmp_path / "pool.csv"))
        run_single(cfg, seed=0, run_dir=tmp_path / "run")
        config, trained, _ = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        path = tmp_path / "ck.bin"
        # The input width is the data file's: any width's count loads.
        hidden = cfg.model.hidden_dim
        for count in (trained.size + hidden, trained.size - 3 * hidden):
            save_checkpoint(path, config, np.zeros(count), None)
            assert load_checkpoint(path)[1].size == count
        # Width 4 is the file's, so 4 * hidden fewer is no width at all.
        for count in (trained.size + 1, trained.size - 1, trained.size - 4 * hidden):
            save_checkpoint(path, config, np.zeros(count), None)
            with pytest.raises(ConfigError, match=f"ck.bin: checkpoint holds {count} parameters"):
                load_checkpoint(path)


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

    def test_parallel_failure_cancels_queued_seeds(self, tmp_path):
        # Each run takes long enough (about a second) that the first failure
        # is seen before the pool could hand out the last seeds.
        cfg = parse_config(small_raw(tmp_path, train={"epochs": 200}, seeds=list(range(8))))
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        (sweep_dir / "0").write_text("a file where seed 0's run directory goes")
        with pytest.raises(DamelError, match="sweep: seed 0 failed"):
            run_seed_sweep(cfg, workers=2, sweep_dir=sweep_dir)
        # The pool holds one run per worker and gets the next only when one
        # finishes, so only seed 1 ran beside seed 0; a pool that is handed
        # every job at once runs seeds up to 4 or 5 as well.
        for seed in range(2, 8):
            assert not (sweep_dir / str(seed)).exists()

    def test_duplicate_seeds_rejected_before_any_run(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="seed 0 is listed twice"):
            run_seed_sweep(cfg, seeds=[0, 1, 0], workers=2, sweep_dir=sweep_dir)
        assert not sweep_dir.exists()


class TestWorkers:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("DAMEL_WORKERS", "3")
        assert resolve_workers(8) == 3
        monkeypatch.delenv("DAMEL_WORKERS")
        assert resolve_workers(8) == 8
        assert resolve_workers(None) == 1

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("DAMEL_WORKERS", "many")
        with pytest.raises(ConfigError, match="DAMEL_WORKERS"):
            resolve_workers()

    @pytest.mark.parametrize("requested", [0, -3])
    def test_requested_below_one_is_config_error(self, monkeypatch, requested):
        monkeypatch.delenv("DAMEL_WORKERS", raising=False)
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {requested}"):
            resolve_workers(requested)
        monkeypatch.setenv("DAMEL_WORKERS", str(requested))
        with pytest.raises(ConfigError, match="DAMEL_WORKERS must be >= 1"):
            resolve_workers(2)

    def test_capped_at_job_count(self, monkeypatch):
        monkeypatch.delenv("DAMEL_WORKERS", raising=False)
        assert resolve_workers(8, jobs=3) == 3
        assert resolve_workers(2, jobs=3) == 2
        assert resolve_workers(None, jobs=3) == 1
        monkeypatch.setenv("DAMEL_WORKERS", "6")
        assert resolve_workers(1, jobs=4) == 4


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
        table11 = dict(expand_suite(cfg, "table11"))
        assert table11["capacity_controlled"].model.ref_experts == cfg.model.num_experts
        assert len(expand_suite(cfg, "table12")) == 10

    def test_expansion_is_pure(self, tmp_path):
        cfg = parse_config(small_raw(tmp_path))
        first = [(cell, config_to_dict(c)) for cell, c in expand_suite(cfg, "table12")]
        second = [(cell, config_to_dict(c)) for cell, c in expand_suite(cfg, "table12")]
        assert first == second

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
        _, report_rows = aggregate_report(Path(cfg.output_dir))
        assert {row[1]: row for row in report_rows} == {row[1]: row for row in suite_rows}

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

    def test_duplicate_seeds_exit_code(self, tmp_path, capsys):
        path, raw = self._write_cfg(tmp_path, train={"epochs": 1})
        assert cli_main(["sweep", "--config", str(path), "--seeds", "0,0"]) == 1
        assert "seed 0 is listed twice" in capsys.readouterr().err
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
    def test_workers_below_one_exit_code(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.delenv("DAMEL_WORKERS", raising=False)
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

    def test_run_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path, _ = self._write_cfg(tmp_path, output_dir=str(blocker / "runs"))
        assert cli_main(["run", "--config", str(path), "--seed", "0"]) == 2
