"""Training loop tests: losses, SGD recursion, determinism, decoupled phases."""

import gc
import weakref

import numpy as np
import pytest

import damel.training as training
from damel.averaging import EmaState
from damel.data import LongTailSpec, long_tail_counts, synthesize_gaussian_longtail
from damel.errors import ContractError, NumericError
from damel.model import DamelConfig, bind_params, full_forward, init_model, param_group
from damel.tensor import Tape, Tensor, backward, mul, reduce_sum
from damel.training import (
    OptimizerState,
    TrainConfig,
    class_balanced_weights,
    compute_losses,
    flatten_grads,
    make_avg_state,
    sgd_step,
    train,
)


def tiny_config(**overrides):
    base = dict(num_experts=2, input_dim=4, hidden_dim=6, rep_dim=3, num_classes=3)
    base.update(overrides)
    return DamelConfig(**base)


def tiny_dataset(seed=0, per_class=8, num_classes=3, dim=4):
    spec = LongTailSpec((per_class,) * num_classes)
    return synthesize_gaussian_longtail(spec, dim, 3.0, seed=seed)


class TestClassBalancedWeights:
    def test_uniform_counts(self):
        np.testing.assert_array_equal(class_balanced_weights(LongTailSpec((10, 10))), [1.0, 1.0])

    def test_inverse_frequency_values(self):
        w = class_balanced_weights(LongTailSpec((100, 10)))
        np.testing.assert_allclose(w, [2.0 / 11.0, 20.0 / 11.0], atol=1e-15)

    def test_mean_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = tuple(sorted(rng.integers(1, 500, size=6), reverse=True))
            assert abs(class_balanced_weights(LongTailSpec(counts)).mean() - 1.0) < 1e-12


class TestComputeLosses:
    def _forward(self, model, x, y):
        tape = Tape()
        params = bind_params(model, tape)
        out = full_forward(model, x, mode="train", params=params)
        return out, params

    def test_identical_expert_logits_give_identical_losses(self):
        model = init_model(tiny_config(), seed=1)
        for name in ("experts.w", "experts.b", "experts.cls"):
            model.params[name][1] = model.params[name][0]
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], ds.spec, TrainConfig(epochs=1))
        assert bundle.expert_values()[0] == bundle.expert_values()[1]

    def test_balanced_spec_matches_unweighted(self):
        model = init_model(tiny_config(), seed=2)
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], ds.spec, TrainConfig(epochs=1))
        from damel.tensor import softmax_cross_entropy

        unweighted = softmax_cross_entropy(out.aux_logits, ds.labels[:6])
        assert abs(bundle.balanced_value() - unweighted.item()) < 1e-12

    def test_zero_weight_drops_balanced_term(self):
        model = init_model(tiny_config(), seed=3)
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(
            out, ds.labels[:6], ds.spec, TrainConfig(epochs=1, cb_loss_weight=0.0)
        )
        assert abs(bundle.total_value() - sum(bundle.expert_values())) < 1e-12

    def test_total_linearity_invariant(self):
        model = init_model(tiny_config(), seed=4)
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=1, cb_loss_weight=1.7)
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], ds.spec, cfg)
        expected = sum(bundle.expert_values()) + 1.7 * bundle.balanced_value()
        assert abs(bundle.total_value() - expected) < 1e-12

    def test_one_backward_equals_sum_of_parts(self):
        model = init_model(tiny_config(), seed=5)
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=1, cb_loss_weight=1.3)
        tape = Tape()
        params = bind_params(model, tape)
        out = full_forward(model, ds.features[:6], mode="train", params=params)
        bundle = compute_losses(out, ds.labels[:6], ds.spec, cfg)
        total_grad = flatten_grads(model, params, backward(bundle.total))
        parts = np.zeros_like(total_grad)
        for k in range(model.config.num_experts):
            term = reduce_sum(mul(bundle.expert_ce, Tensor(np.eye(model.config.num_experts)[k])))
            parts += flatten_grads(model, params, backward(term))
        parts += 1.3 * flatten_grads(model, params, backward(bundle.balanced_ce))
        np.testing.assert_allclose(total_grad, parts, atol=1e-10)


class TestSgdStep:
    def _flat_model(self):
        model = init_model(tiny_config(num_experts=1), seed=0)
        model.buffer[:] = np.zeros(model.param_count())
        return model

    def test_plain_step(self):
        model = self._flat_model()
        opt = OptimizerState.for_model(model)
        sgd_step(model, np.ones(model.param_count()), opt, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(model.buffer.copy(), -0.1)

    def test_two_step_momentum_recursion(self):
        model = self._flat_model()
        opt = OptimizerState.for_model(model)
        g = np.ones(model.param_count())
        sgd_step(model, g, opt, lr=1.0, momentum=0.9)
        sgd_step(model, g, opt, lr=1.0, momentum=0.9)
        np.testing.assert_allclose(model.buffer.copy(), -2.9)

    def test_zero_gradient_decays_velocity(self):
        model = self._flat_model()
        opt = OptimizerState.for_model(model)
        sgd_step(model, np.ones(model.param_count()), opt, lr=0.0 + 0.1, momentum=0.5)
        theta = model.buffer.copy()
        sgd_step(model, np.zeros(model.param_count()), opt, lr=0.1, momentum=0.5)
        np.testing.assert_allclose(opt.velocity, 0.5)
        assert not np.array_equal(model.buffer.copy(), theta)  # velocity still moving

    def test_non_finite_gradient_aborts(self):
        model = self._flat_model()
        opt = OptimizerState.for_model(model)
        bad = np.ones(model.param_count())
        bad[0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            sgd_step(model, bad, opt, lr=0.1, momentum=0.9)


def quick_train_setup(seed=0, epochs=3, **cfg_overrides):
    spec = long_tail_counts(4, 24, 6)
    ds = synthesize_gaussian_longtail(spec, 4, 3.0, seed=seed)
    model = init_model(tiny_config(input_dim=4, num_classes=4), seed=seed)
    cfg = TrainConfig(epochs=epochs, batch_size=8, **cfg_overrides)
    return model, ds, cfg


class TestTrain:
    def test_zero_epochs_is_identity(self):
        model, ds, cfg = quick_train_setup(epochs=0)
        before = model.buffer.copy().tobytes()
        _, avg, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0)
        assert model.buffer.copy().tobytes() == before
        assert metrics == []

    def test_full_rate_ema_tracks_model(self):
        model, ds, cfg = quick_train_setup(epochs=3, ema_rate=1.0)
        _, avg, _ = train(model, ds, cfg, make_avg_state(cfg), seed=0)
        assert avg.weights.tobytes() == model.buffer.copy().tobytes()

    def test_expert_loss_decreases_early(self):
        spec = long_tail_counts(4, 50, 10)
        ds = synthesize_gaussian_longtail(spec, 4, 3.0, seed=1)
        model = init_model(tiny_config(input_dim=4, num_classes=4, hidden_dim=8), seed=1)
        cfg = TrainConfig(epochs=6, batch_size=16)
        _, _, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=1)
        sums = [sum(m.expert_ce) for m in metrics]
        assert all(a > b for a, b in zip(sums[:5], sums[1:6]))

    @pytest.mark.parametrize("averaging", ["ema", "swa"])
    def test_averaged_score_views_the_state_weights(self, monkeypatch, averaging):
        seen = []
        real_load = training.load_eval_model

        def recording_load(model, weights, train_ds):
            seen.append(weights)
            return real_load(model, weights, train_ds)

        model, ds, cfg = quick_train_setup(epochs=3, averaging=averaging)
        monkeypatch.setattr(training, "load_eval_model", recording_load)
        _, avg, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0, test_ds=ds)
        assert len(seen) == 3 and all(weights is avg.weights for weights in seen)
        assert all(np.isfinite(m.test_acc_ema) for m in metrics)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            model, ds, cfg = quick_train_setup(seed=3, epochs=2)
            model, _, _ = train(model, ds, cfg, make_avg_state(cfg), seed=3)
            runs.append(model.buffer.copy().tobytes())
        assert runs[0] == runs[1]

    def test_disabled_balanced_loss_freezes_aux(self):
        model, ds, cfg = quick_train_setup(epochs=3, cb_loss_enabled=False)
        before = model.params["aux.cls"].tobytes()
        train(model, ds, cfg, make_avg_state(cfg), seed=0)
        assert model.params["aux.cls"].tobytes() == before

    def test_detach_propagation_every_step(self):
        model, ds, cfg = quick_train_setup(epochs=2)
        checked = []

        def hook(ctx):
            grads = backward(ctx.bundle.balanced_ce)
            for name, leaf in ctx.params.items():
                g = grads[leaf.tape_id].values
                if param_group(name) == "aux":
                    assert np.abs(g).sum() > 0
                else:
                    assert np.abs(g).sum() == 0.0
            checked.append(ctx.iteration)

        train(model, ds, cfg, make_avg_state(cfg), seed=0, step_hook=hook)
        assert len(checked) > 0

    def test_step_tape_freed_before_next_step_hook(self):
        model, ds, cfg = quick_train_setup(epochs=2)
        model = init_model(tiny_config(input_dim=4, num_classes=4, use_norm_layers=True), seed=0)
        tapes, dead_at_next_hook = [], []

        def hook(ctx):
            if tapes:
                dead_at_next_hook.append(tapes[-1]() is None)
            tapes.append(weakref.ref(next(iter(ctx.params.values())).tape))

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train(model, ds, cfg, make_avg_state(cfg), seed=0, step_hook=hook)
        finally:
            if was_enabled:
                gc.enable()
        assert len(dead_at_next_hook) == len(tapes) - 1 > 0
        assert all(dead_at_next_hook)

    @pytest.mark.parametrize("use_norm_layers", [False, True])
    def test_step_tape_length_does_not_grow_with_experts(self, use_norm_layers):
        lengths = {}
        for k in (1, 4):
            model, ds, cfg = quick_train_setup(epochs=1)
            model = init_model(tiny_config(input_dim=4, num_classes=4, num_experts=k,
                                           use_norm_layers=use_norm_layers), seed=0)
            seen = set()
            train(model, ds, cfg, make_avg_state(cfg), seed=0,
                  step_hook=lambda ctx: seen.add(len(next(iter(ctx.params.values())).tape)))
            assert len(seen) == 1
            lengths[k] = seen.pop()
        assert lengths[1] == lengths[4]

    def test_iteration_frequency_updates_every_step(self):
        model, ds, cfg = quick_train_setup(epochs=1, ema_frequency="iteration")
        _, avg, _ = train(model, ds, cfg, make_avg_state(cfg), seed=0)
        steps = -(-len(ds) // cfg.batch_size)
        assert avg.updates == steps

    def test_epoch_frequency_updates_once_per_epoch(self):
        model, ds, cfg = quick_train_setup(epochs=3)
        _, avg, _ = train(model, ds, cfg, make_avg_state(cfg), seed=0)
        assert avg.updates == 3

    def test_missing_avg_state_rejected(self):
        model, ds, cfg = quick_train_setup(epochs=1)
        with pytest.raises(ContractError, match="averaging"):
            train(model, ds, cfg, None, seed=0)

    def test_ema_state_at_another_rate_rejected(self):
        model, ds, _ = quick_train_setup()
        cfg = TrainConfig(epochs=2, batch_size=16, ema_rate=0.3)
        steps = []
        with pytest.raises(ContractError, match=r"EmaState rate 0\.1 does not match ema_rate 0\.3"):
            train(model, ds, cfg, EmaState(rate=0.1), seed=0, step_hook=steps.append)
        assert steps == []

    def test_decoupled_phases_freeze_param_groups(self):
        model, ds, cfg = quick_train_setup(epochs=4, decoupled=True)
        trace = []

        def hook(ctx):
            trace.append(
                (ctx.epoch, ctx.model.params["aux.cls"].copy(), ctx.model.params["backbone.w1"].copy())
            )

        init_aux = model.params["aux.cls"].copy()
        train(model, ds, cfg, make_avg_state(cfg), seed=0, step_hook=hook)
        # epochs 0-1 are the representation phase, 2-3 the aux-only phase
        phase1 = [t for t in trace if t[0] < 2]
        phase2 = [t for t in trace if t[0] >= 2]
        assert phase1 and phase2
        for _, aux, _ in phase1:
            np.testing.assert_array_equal(aux, init_aux)
        backbone_frozen = phase2[0][2]
        for _, _, backbone in phase2:
            np.testing.assert_array_equal(backbone, backbone_frozen)
        assert not np.array_equal(model.params["aux.cls"], init_aux)

    def test_metrics_log_shape(self):
        model, ds, cfg = quick_train_setup(epochs=2)
        test_ds = tiny_dataset(seed=9, per_class=4, num_classes=4)
        _, _, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0, test_ds=test_ds)
        assert [m.epoch for m in metrics] == [0, 1]
        for m in metrics:
            assert len(m.expert_ce) == 2
            assert np.isfinite(m.total) and np.isfinite(m.train_acc)
            assert np.isfinite(m.test_acc_raw) and np.isfinite(m.test_acc_ema)
