"""Training loop tests: losses, SGD recursion, determinism, decoupled phases."""

import gc
import weakref

import numpy as np
import pytest

import damel.training as training
from damel.averaging import EmaState
from damel.data import LongTailSpec, long_tail_counts, synthesize_gaussian_longtail
from damel.errors import ContractError, NumericError
from damel.model import DamelConfig, bind_params, full_forward, init_model, param_group, param_views
from damel.tensor import Tape, Tensor, backward, mul, reduce_sum
from damel.training import (
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


def flat_grad(model, params, grads):
    """backward()'s gradients as one fresh vector in parameter order."""
    flat = np.empty(model.buffer.size)
    assert flatten_grads(param_views(model.config, flat), params, grads) is None
    return flat


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
        out = full_forward(model, x, params=params)
        return out, params

    def test_identical_expert_logits_give_identical_losses(self):
        model = init_model(tiny_config(), seed=1)
        for name in ("experts.w", "experts.b", "experts.cls"):
            model.params[name][1] = model.params[name][0]
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], class_balanced_weights(ds.spec), 1.0)
        assert bundle.expert_ce.values.tolist()[0] == bundle.expert_ce.values.tolist()[1]

    def test_balanced_spec_matches_unweighted(self):
        model = init_model(tiny_config(), seed=2)
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], class_balanced_weights(ds.spec), 1.0)
        from damel.tensor import softmax_cross_entropy

        unweighted = softmax_cross_entropy(out.aux_logits, ds.labels[:6])
        assert abs(bundle.balanced_ce.item() - unweighted.item()) < 1e-12

    def _folded_terms(self, bundle):
        return bundle.total.tape.nodes[bundle.total.tape_id].input_ids

    def test_zero_weight_drops_balanced_term(self):
        model = init_model(tiny_config(), seed=3)
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], class_balanced_weights(ds.spec), 0.0)
        assert abs(bundle.total.item() - sum(bundle.expert_ce.values.tolist())) < 1e-12
        # A weight of 0.0 is a weight: the term is folded in, at zero.
        assert self._folded_terms(bundle) == (bundle.expert_ce.tape_id, bundle.balanced_ce.tape_id)

    def test_total_linearity_invariant(self):
        model = init_model(tiny_config(), seed=4)
        ds = tiny_dataset()
        out, _ = self._forward(model, ds.features[:6], ds.labels[:6])
        bundle = compute_losses(out, ds.labels[:6], class_balanced_weights(ds.spec), 1.7)
        expected = sum(bundle.expert_ce.values.tolist()) + 1.7 * bundle.balanced_ce.item()
        assert abs(bundle.total.item() - expected) < 1e-12

    def test_one_backward_equals_sum_of_parts(self):
        model = init_model(tiny_config(), seed=5)
        ds = tiny_dataset()
        tape = Tape()
        params = bind_params(model, tape)
        out = full_forward(model, ds.features[:6], params=params)
        bundle = compute_losses(out, ds.labels[:6], class_balanced_weights(ds.spec), 1.3)
        total_grad = flat_grad(model, params, backward(bundle.total))
        parts = np.zeros_like(total_grad)
        for k in range(model.config.num_experts):
            term = reduce_sum(mul(bundle.expert_ce, Tensor(np.eye(model.config.num_experts)[k])))
            parts += flat_grad(model, params, backward(term))
        parts += 1.3 * flat_grad(model, params, backward(bundle.balanced_ce))
        np.testing.assert_allclose(total_grad, parts, atol=1e-10)


class TestSgdStep:
    def _flat_model(self):
        model = init_model(tiny_config(num_experts=1), seed=0)
        model.buffer[:] = np.zeros(model.buffer.size)
        return model

    def test_plain_step(self):
        model = self._flat_model()
        velocity = np.zeros(model.buffer.size)
        sgd_step(model, np.ones(model.buffer.size), velocity, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(model.buffer.copy(), -0.1)

    def test_two_step_momentum_recursion(self):
        model = self._flat_model()
        velocity = np.zeros(model.buffer.size)
        g = np.ones(model.buffer.size)
        sgd_step(model, g, velocity, lr=1.0, momentum=0.9)
        sgd_step(model, g, velocity, lr=1.0, momentum=0.9)
        np.testing.assert_allclose(model.buffer.copy(), -2.9)

    def test_zero_gradient_decays_velocity(self):
        model = self._flat_model()
        velocity = np.zeros(model.buffer.size)
        sgd_step(model, np.ones(model.buffer.size), velocity, lr=0.0 + 0.1, momentum=0.5)
        theta = model.buffer.copy()
        sgd_step(model, np.zeros(model.buffer.size), velocity, lr=0.1, momentum=0.5)
        np.testing.assert_allclose(velocity, 0.5)
        assert not np.array_equal(model.buffer.copy(), theta)  # velocity still moving

    @pytest.mark.parametrize("bad_value, missing, error, match", [
        (np.nan, 0, NumericError, "non-finite"),
        (1.0, 1, ContractError, "does not match velocity"),
    ], ids=["nan_gradient", "short_velocity"])
    def test_non_finite_gradient_aborts(self, bad_value, missing, error, match):
        model = self._flat_model()
        velocity = np.zeros(model.buffer.size - missing)
        bad = np.ones(model.buffer.size)
        bad[0] = bad_value
        with pytest.raises(error, match=match):
            sgd_step(model, bad, velocity, lr=0.1, momentum=0.9)


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

    @pytest.mark.parametrize("averaging, ema_frequency", [
        ("ema", "epoch"), ("swa", "epoch"), ("ema", "iteration"), ("none", "epoch"),
    ], ids=["ema", "swa", "ema_iteration", "none"])
    def test_averaged_score_views_the_state_weights(self, monkeypatch, averaging, ema_frequency):
        seen = []
        real_load = training.load_eval_model

        def recording_load(model, weights, train_ds):
            seen.append(weights)
            return real_load(model, weights, train_ds)

        model, ds, cfg = quick_train_setup(epochs=3, averaging=averaging, ema_frequency=ema_frequency)
        monkeypatch.setattr(training, "load_eval_model", recording_load)
        _, avg, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0, test_ds=ds)
        if avg is None:
            assert not seen and all(np.isnan(m.test_acc_ema) for m in metrics)
        else:
            assert len(seen) == 3 and all(weights is avg.weights for weights in seen)
            assert all(np.isfinite(m.test_acc_ema) for m in metrics)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            model, ds, cfg = quick_train_setup(seed=3, epochs=2)
            model, _, _ = train(model, ds, cfg, make_avg_state(cfg), seed=3)
            runs.append(model.buffer.copy().tobytes())
        assert runs[0] == runs[1]

    def test_zero_balanced_weight_freezes_aux(self):
        model, ds, cfg = quick_train_setup(epochs=3, cb_loss_weight=0.0)
        before = model.params["aux.cls"].tobytes()
        train(model, ds, cfg, make_avg_state(cfg), seed=0)
        assert model.params["aux.cls"].tobytes() == before

    def test_disabled_balanced_loss_trains_aux_on_unit_weights(self, monkeypatch):
        """Without rebalancing the aux head trains on plain cross-entropy: the
        run is a rebalanced one whose class weights are all 1."""
        runs = []
        for enabled in (False, True):
            if enabled:
                monkeypatch.setattr(training, "class_balanced_weights", lambda spec: np.ones(spec.num_classes))
            model, ds, cfg = quick_train_setup(epochs=3, cb_loss_enabled=enabled)
            init_aux = model.params["aux.cls"].tobytes()
            _, avg, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0, test_ds=ds)
            assert model.params["aux.cls"].tobytes() != init_aux
            runs.append((model.buffer.tobytes(), avg.weights.tobytes(), repr(metrics)))
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize("use_norm_layers", [False, True])
    def test_representation_phase_tapes_all_but_the_head(self, use_norm_layers):
        config = tiny_config(input_dim=4, num_classes=4, use_norm_layers=use_norm_layers)
        lengths, seen = set(), []

        def joint_hook(ctx):
            lengths.add(len(ctx.bundle.total.tape))

        def hook(ctx):
            if ctx.epoch < 2:
                taped = [name for name, t in ctx.params.items() if t.tape_id is not None]
                seen.append((taped, ctx.bundle.balanced_ce.tape, len(ctx.bundle.total.tape)))
                with pytest.raises(ContractError, match="not linked to a tape"):
                    backward(ctx.bundle.balanced_ce)

        for decoupled, step_hook in ((False, joint_hook), (True, hook)):
            model, ds, cfg = quick_train_setup(epochs=4, decoupled=decoupled)
            train(init_model(config, seed=0), ds, cfg, make_avg_state(cfg), seed=0, step_hook=step_hook)
        (joint,) = lengths
        trunk = [name for name in init_model(config, seed=0).params if name != "aux.cls"]
        assert seen and all(step == (trunk, None, joint - 3) for step in seen)

    @pytest.mark.parametrize("use_norm_layers", [False, True])
    def test_aux_phase_tapes_only_the_head(self, use_norm_layers):
        model, ds, cfg = quick_train_setup(epochs=4, decoupled=True)
        model = init_model(tiny_config(input_dim=4, num_classes=4, use_norm_layers=use_norm_layers),
                           seed=0)
        seen = []

        def hook(ctx):
            if ctx.epoch >= 2:
                taped = [name for name, t in ctx.params.items() if t.tape_id is not None]
                seen.append((taped, len(ctx.bundle.total.tape)))

        train(model, ds, cfg, make_avg_state(cfg), seed=0, step_hook=hook)
        assert seen and all(step == (["aux.cls"], 4) for step in seen)

    def test_aux_phase_gradients_are_zero_outside_the_head(self, monkeypatch):
        handed, epochs = [], []
        real_step = training.sgd_step

        def recording_step(model, grad_flat, velocity, lr, momentum):
            handed.append(grad_flat.copy())
            real_step(model, grad_flat, velocity, lr, momentum)

        monkeypatch.setattr(training, "sgd_step", recording_step)
        model, ds, cfg = quick_train_setup(epochs=4, decoupled=True)
        train(model, ds, cfg, make_avg_state(cfg), seed=0, step_hook=lambda ctx: epochs.append(ctx.epoch))
        aux_phase = [g for g, epoch in zip(handed, epochs) if epoch >= 2]
        assert len(handed) == len(epochs) and aux_phase
        for grad in aux_phase:
            views = param_views(model.config, grad)
            assert all(not view.any() for name, view in views.items() if name != "aux.cls")
            assert views["aux.cls"].any()

    @pytest.mark.parametrize("use_norm_layers", [False, True], ids=["plain", "norm"])
    @pytest.mark.parametrize("variant", ["standard", "average_representations", "capacity_controlled"])
    def test_decoupled_run_matches_slice_zeroing_oracle(self, monkeypatch, variant, use_norm_layers):
        """Untaped constants freeze each phase exactly as taping every
        parameter and zeroing the gradient spans outside the phase's trained
        names does."""
        extra = {"num_experts": 1, "ref_experts": 2} if variant == "capacity_controlled" else {}
        config = tiny_config(input_dim=4, num_classes=4, variant=variant,
                             use_norm_layers=use_norm_layers, **extra)
        real_bind, real_step = training.bind_params, training.sgd_step
        phase, zeroed = [None], {}

        def bind_all(model, tape, trained=None):
            phase[0] = trained
            return real_bind(model, tape)

        def zeroing_step(model, grad_flat, velocity, lr, momentum):
            frozen = [view for name, view in param_views(model.config, grad_flat).items()
                      if name not in phase[0]]
            zeroed.setdefault(phase[0], []).append(any(view.any() for view in frozen))
            for view in frozen:
                view[...] = 0.0
            real_step(model, grad_flat, velocity, lr, momentum)

        runs = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(training, "bind_params", bind_all)
                monkeypatch.setattr(training, "sgd_step", zeroing_step)
            model, ds, cfg = quick_train_setup(epochs=4, decoupled=True)
            model = init_model(config, seed=0)
            _, avg, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0, test_ds=ds)
            runs.append((model.buffer.tobytes(), avg.weights.tobytes(), repr(metrics)))
        # Both phases ran, and the oracle's full backward reached their frozen spans.
        assert len(zeroed) == 2 and all(all(steps) for steps in zeroed.values())
        assert runs[0] == runs[1]

    def test_decoupled_without_an_aux_head_is_contract_error_before_any_step(self):
        model, ds, cfg = quick_train_setup(epochs=4, decoupled=True)
        model = init_model(tiny_config(input_dim=4, num_classes=4, variant="aggregate_predictions"),
                           seed=0)
        before, steps = model.buffer.tobytes(), []
        with pytest.raises(ContractError, match="^decoupled training re-trains the auxiliary head, "
                                                "which variant aggregate_predictions does not have$"):
            train(model, ds, cfg, make_avg_state(cfg), seed=0, step_hook=steps.append)
        assert steps == [] and model.buffer.tobytes() == before

    @pytest.mark.parametrize("variant, decoupled", [
        ("standard", False), ("aggregate_predictions", False), ("standard", True),
    ], ids=["standard", "aggregate_predictions", "decoupled"])
    def test_metrics_log_shape(self, variant, decoupled):
        model, ds, cfg = quick_train_setup(epochs=2, decoupled=decoupled)
        model = init_model(tiny_config(input_dim=4, num_classes=4, variant=variant), seed=0)
        has_aux = "aux.cls" in model.params
        test_ds = tiny_dataset(seed=9, per_class=4, num_classes=4)
        _, _, metrics = train(model, ds, cfg, make_avg_state(cfg), seed=0, test_ds=test_ds)
        assert [m.epoch for m in metrics] == [0, 1]
        for m in metrics:
            assert len(m.expert_ce) == 2
            assert np.isfinite(m.total) and np.isfinite(m.train_acc)
            assert np.isfinite(m.test_acc_raw) and np.isfinite(m.test_acc_ema)
            assert np.isfinite(m.balanced_ce) == has_aux
            expected = sum(m.expert_ce) + (cfg.cb_loss_weight * m.balanced_ce if has_aux else 0.0)
            assert abs(m.total - expected) < 1e-12

    @pytest.mark.parametrize("decoupled", [False, True])
    def test_one_gradient_vector_per_call(self, monkeypatch, decoupled):
        handed = []
        real_step = training.sgd_step

        def recording_step(model, grad_flat, velocity, lr, momentum):
            handed.append(grad_flat)
            real_step(model, grad_flat, velocity, lr, momentum)

        monkeypatch.setattr(training, "sgd_step", recording_step)
        for _ in range(2):
            model, ds, cfg = quick_train_setup(epochs=2, decoupled=decoupled)
            train(model, ds, cfg, make_avg_state(cfg), seed=0)
        first, second = handed[:len(handed) // 2], handed[len(handed) // 2:]
        assert len(first) > 1
        assert all(g is first[0] for g in first) and all(g is second[0] for g in second)
        assert first[0] is not second[0]

    @pytest.mark.parametrize("name, use_norm_layers, message", [
        ("backbone.w1", True, "sgd_step: non-finite gradient"),
        ("experts.cls", False, "non-finite loss"),
        ("aux.cls", False, "non-finite loss"),
    ])
    def test_nan_weight_is_numeric_error_at_the_first_step(self, name, use_norm_layers, message):
        model, ds, cfg = quick_train_setup(epochs=2)
        model = init_model(tiny_config(input_dim=4, num_classes=4, use_norm_layers=use_norm_layers),
                           seed=0)
        model.params[name][...] = np.nan
        with pytest.raises(NumericError, match=rf"^{message} \(epoch 0, iteration 0\)$"):
            train(model, ds, cfg, make_avg_state(cfg), seed=0)

    def test_nan_weight_no_step_sees_is_numeric_error_at_the_epoch_end(self):
        # Without norm layers the relu maps the NaN activations to 0, so the
        # loss and every gradient stay finite through the whole epoch.
        model, ds, cfg = quick_train_setup(epochs=2)
        model = init_model(tiny_config(input_dim=4, num_classes=4, use_norm_layers=False), seed=0)
        model.params["backbone.w1"][...] = np.nan
        with pytest.raises(NumericError, match=r"^non-finite weight \(epoch 0, epoch-end evaluation\)$"):
            train(model, ds, cfg, make_avg_state(cfg), seed=0)

    def test_floating_point_fault_in_a_step_is_numeric_error(self):
        model, ds, cfg = quick_train_setup(epochs=2, cb_loss_weight=1e300)
        with pytest.raises(NumericError, match=r"^overflow encountered in [\w ]+ \(epoch 0, iteration \d+\)$"):
            train(model, ds, cfg, make_avg_state(cfg), seed=0)

    def test_floating_point_fault_in_the_epoch_end_evaluation_is_numeric_error(self, monkeypatch):
        def overflowing_accuracy(model, ds):
            return float(np.float64(1e300) * 1e300)

        model, ds, cfg = quick_train_setup(epochs=2)
        monkeypatch.setattr(training, "_accuracy", overflowing_accuracy)
        with pytest.raises(NumericError, match=r"^overflow encountered in scalar multiply "
                                               r"\(epoch 0, epoch-end evaluation\)$"):
            train(model, ds, cfg, make_avg_state(cfg), seed=0)

    def test_underflow_stays_silent(self):
        model, ds, cfg = quick_train_setup(epochs=1)
        train(model, ds, cfg, make_avg_state(cfg), seed=0,
              step_hook=lambda ctx: np.float64(1e-300) * 1e-300)
