"""Model tests: init determinism, cosine paths, detach wall, variants, predict."""

import tracemalloc

import numpy as np
import pytest

from damel.data import LongTailSpec
from damel.errors import ConfigError, ShapeError
from damel.model import (
    PREDICT_BLOCK_ROWS,
    VARIANTS,
    DamelConfig,
    bind_params,
    forward_experts,
    full_forward,
    init_model,
    param_group,
    predict,
)
from damel.tensor import Tape, backward, softmax_cross_entropy
from damel.training import TrainConfig, class_balanced_weights, compute_losses, flatten_grads
from helpers import reference_forward, reference_losses, reference_params


def small_config(**overrides):
    base = dict(
        num_experts=3, input_dim=6, hidden_dim=8, rep_dim=4, num_classes=5, scale=16.0
    )
    base.update(overrides)
    return DamelConfig(**base)


class TestInit:
    def test_deterministic(self):
        a = init_model(small_config(), seed=5)
        b = init_model(small_config(), seed=5)
        assert a.flatten().tobytes() == b.flatten().tobytes()

    def test_experts_differ(self):
        m = init_model(small_config(), seed=5)
        assert not np.array_equal(m.params["experts.w"][0], m.params["experts.w"][1])
        assert not np.array_equal(m.params["experts.cls"][1], m.params["experts.cls"][2])

    def test_param_count_closed_form(self):
        cfg = DamelConfig(
            num_experts=3, input_dim=20, hidden_dim=64, rep_dim=32, num_classes=10
        )
        m = init_model(cfg, seed=0)
        # Hand count: backbone affines + biases, expert affine/bias/classifier, aux head.
        backbone = 20 * 64 + 64 + 64 * 64 + 64
        experts = 3 * (64 * 32 + 32 + 32 * 10)
        aux = (3 * 32) * 10
        assert m.param_count() == backbone + experts + aux

    def test_flatten_round_trip_bit_exact(self):
        m = init_model(small_config(use_norm_layers=True), seed=1)
        flat = m.flatten()
        before = {k: v.copy() for k, v in m.params.items()}
        m.unflatten(flat)
        for k, v in m.params.items():
            assert v.tobytes() == before[k].tobytes()

    def test_params_are_views_of_one_buffer_in_per_expert_order(self):
        m = init_model(small_config(use_norm_layers=True), seed=3)
        for name, view in m.params.items():
            assert np.shares_memory(view, m.buffer), name
        per_expert = reference_params(m, Tape())
        assert list(per_expert)[:8] == list(m.params)[:8]  # the backbone
        np.testing.assert_array_equal(
            m.flatten(), np.concatenate([leaf.values.reshape(-1) for leaf in per_expert.values()])
        )
        with pytest.raises(TypeError):
            m.params["backbone.w1"] = np.zeros((6, 8))

    def test_clone_and_unflatten_copy_into_own_buffers(self):
        m = init_model(small_config(), seed=3)
        c = m.clone()
        assert not np.shares_memory(c.buffer, m.buffer)
        for name, view in c.params.items():
            assert np.shares_memory(view, c.buffer), name
        flat = m.flatten()
        flat[:] = 1.5
        c.unflatten(flat)
        flat[:] = 0.0
        assert (c.params["experts.cls"] == 1.5).all() and not (m.params["experts.cls"] == 1.5).any()
        with pytest.raises(ShapeError, match="unflatten"):
            c.unflatten(flat[:-1])

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="variant"):
            small_config(variant="bagging").validate()
        with pytest.raises(ConfigError, match="scale"):
            small_config(scale=0.0).validate()
        with pytest.raises(ConfigError, match="one expert"):
            small_config(variant="capacity_controlled", num_experts=2, ref_experts=3).validate()
        with pytest.raises(ConfigError, match="ref_experts"):
            small_config(variant="capacity_controlled", num_experts=1).validate()


class TestExpertForward:
    def _identity_model(self):
        # Identity weights turn the backbone and expert block into pass-throughs,
        # pinning the representation so the cosine path is directly observable.
        cfg = DamelConfig(
            num_experts=1, input_dim=2, hidden_dim=2, rep_dim=2, num_classes=2,
            scale=16.0, use_bias=False,
        )
        m = init_model(cfg, seed=0)
        eye = np.eye(2)
        m.params["backbone.w1"][...] = eye
        m.params["backbone.w2"][...] = eye
        m.params["experts.w"][0] = eye
        m.params["experts.cls"][0] = eye
        return m

    def test_cosine_logit_values(self):
        m = self._identity_model()
        out = forward_experts(m, np.array([[3.0, 0.0]]), mode="eval")
        # representation [1, 0] against unit class columns [1,0] and [0,1]
        np.testing.assert_allclose(out.expert_logits.values[0], [[16.0, 0.0]], atol=1e-12)

    def test_logits_bounded_by_scale(self):
        rng = np.random.default_rng(2)
        m = init_model(small_config(), seed=3)
        out = forward_experts(m, rng.normal(size=(20, 6)), mode="eval")
        for logit in out.expert_logits.values:
            assert np.abs(logit).max() <= 16.0 * (1 + 1e-9)

    def test_positive_scaling_invariance_bias_free(self):
        rng = np.random.default_rng(4)
        m = init_model(small_config(use_bias=False), seed=7)
        x = rng.normal(size=(5, 6))
        base = forward_experts(m, x, mode="eval")
        scaled = forward_experts(m, 3.7 * x, mode="eval")
        for a, b in zip(base.expert_logits.values, scaled.expert_logits.values):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_input_width_checked(self):
        m = init_model(small_config(), seed=0)
        with pytest.raises(ShapeError, match="input"):
            forward_experts(m, np.ones((2, 7)))


class TestAuxiliary:
    def test_single_expert_consumes_its_representation(self):
        m = init_model(small_config(num_experts=1), seed=2)
        x = np.random.default_rng(0).normal(size=(4, 6))
        out = full_forward(m, x, mode="eval")
        z = out.normalized_reps.values[0]
        aux_w = m.params["aux.cls"]
        unit_w = aux_w / np.sqrt((aux_w**2).sum(axis=0, keepdims=True))
        renorm = z / np.sqrt((z**2).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.aux_logits.values, 16.0 * renorm @ unit_w, atol=1e-12)

    def test_concat_width_and_norm(self):
        m = init_model(small_config(num_experts=2, rep_dim=3), seed=2)
        x = np.random.default_rng(1).normal(size=(4, 6))
        out = forward_experts(m, x, mode="eval")
        concat = np.concatenate(list(out.normalized_reps.values), axis=1)
        assert concat.shape[1] == 6
        # two unit rows concatenated have norm sqrt(2) before re-normalization
        # (rows whose representation died under relu are excluded)
        live = np.ones(4, dtype=bool)
        for z in out.normalized_reps.values:
            live &= np.sqrt((z**2).sum(axis=1)) > 0.5
        assert live.any()
        np.testing.assert_allclose(
            np.sqrt((concat[live] ** 2).sum(axis=1)), np.sqrt(2.0), atol=1e-9
        )
        assert m.config.aux_input_dim == 6

    def test_aux_width_accounting(self):
        assert small_config().aux_input_dim == 12
        assert small_config(variant="average_representations").aux_input_dim == 4
        cap = small_config(variant="capacity_controlled", num_experts=1, ref_experts=3)
        assert cap.aux_input_dim == 12 and cap.expert_rep_dim == 12
        assert small_config(variant="aggregate_predictions").aux_input_dim is None

    def test_aggregate_predictions_has_no_aux(self):
        m = init_model(small_config(variant="aggregate_predictions"), seed=0)
        assert "aux.cls" not in m.params
        out = full_forward(m, np.ones((2, 6)), mode="eval")
        assert out.aux_logits is None

    @pytest.mark.parametrize("variant", ["standard", "average_representations", "capacity_controlled"])
    def test_detach_wall_zero_gradients(self, variant):
        kwargs = {"variant": variant}
        if variant == "capacity_controlled":
            kwargs.update(num_experts=1, ref_experts=3)
        m = init_model(small_config(use_norm_layers=True, **kwargs), seed=9)
        rng = np.random.default_rng(3)
        tape = Tape()
        params = bind_params(m, tape)
        out = full_forward(m, rng.normal(size=(6, 6)), mode="train", params=params)
        loss = softmax_cross_entropy(out.aux_logits, rng.integers(0, 5, size=6))
        grads = backward(loss)
        for name, leaf in params.items():
            g = grads[leaf.tape_id].values
            if param_group(name) == "aux":
                assert np.abs(g).sum() > 0
            else:
                assert np.abs(g).sum() == 0.0, f"{name} leaked gradient through detach"


class TestPredict:
    def test_argmax_and_ties(self):
        # argmax over aux logits with lowest-index tie break
        assert np.argmax(np.array([0.1, 3.2, -1.0])) == 1
        assert np.argmax(np.array([2.0, 2.0])) == 0

    def test_predict_matches_aux_argmax(self):
        x = np.random.default_rng(5).normal(size=(40, 6))
        for overrides in ({}, {"variant": "average_representations"},
                          {"variant": "capacity_controlled", "num_experts": 1, "ref_experts": 3}):
            for use_norm_layers in (False, True):
                m = init_model(small_config(use_norm_layers=use_norm_layers, **overrides), seed=4)
                out = full_forward(m, x, mode="eval")
                np.testing.assert_array_equal(predict(m, x), out.aux_logits.values.argmax(axis=1))

    def test_expert_heads_do_not_affect_standard_predictions(self):
        m = init_model(small_config(), seed=6)
        x = np.random.default_rng(6).normal(size=(10, 6))
        before = predict(m, x)
        rng = np.random.default_rng(7)
        for k in range(3):
            m.params["experts.cls"][k] = rng.normal(size=m.params["experts.cls"][k].shape)
        np.testing.assert_array_equal(predict(m, x), before)

    def test_aggregate_uses_mean_expert_softmax(self):
        m = init_model(small_config(variant="aggregate_predictions"), seed=8)
        x = np.random.default_rng(8).normal(size=(5, 6))
        out = forward_experts(m, x, mode="eval")

        def softmax(v):
            e = np.exp(v - v.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        probs = np.mean([softmax(l) for l in out.expert_logits.values], axis=0)
        np.testing.assert_array_equal(predict(m, x), probs.argmax(axis=1))


def _whole_batch_logits(model, x):
    """The logits predict reads, from one forward over all rows of ``x``."""
    out = full_forward(model, x, mode="eval")
    return out.expert_logits.values if out.aux_logits is None else out.aux_logits.values


class TestPredictRowBlocks:
    """predict walks its rows in fixed blocks; the result is the whole batch's."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("use_norm_layers", [True, False])
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 257, 1242])
    def test_blocks_match_whole_batch(self, variant, use_norm_layers, use_bias, rows):
        cfg = small_config(**_model_kwargs(variant, 3, use_bias, use_norm_layers))
        model = init_model(cfg, seed=rows)
        rng = np.random.default_rng(rows)
        for state in model.norm_states.values():
            state.running_mean[:] = rng.normal(size=state.running_mean.shape)
            state.running_var[:] = rng.uniform(0.5, 2.0, size=state.running_var.shape)
        x = rng.normal(size=(rows, 6))

        whole = _whole_batch_logits(model, x)
        if variant == "aggregate_predictions":
            e = np.exp(whole - whole.max(axis=-1, keepdims=True))
            expected = (e / e.sum(axis=-1, keepdims=True)).mean(axis=0).argmax(axis=1)
        else:
            expected = whole.argmax(axis=1)
        labels = predict(model, x)
        assert labels.shape == (rows,)
        np.testing.assert_array_equal(labels, expected)

        starts = range(0, rows, PREDICT_BLOCK_ROWS)
        blocks = [_whole_batch_logits(model, x[i:i + PREDICT_BLOCK_ROWS]) for i in starts]
        if blocks:
            np.testing.assert_allclose(np.concatenate(blocks, axis=-2), whole, rtol=0, atol=1e-12)

    def test_peak_memory_does_not_grow_with_rows(self):
        cfg = DamelConfig(num_experts=3, input_dim=20, hidden_dim=64, rep_dim=32, num_classes=10)
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)

        def traced_peak(rows):
            x = rng.normal(size=(rows, cfg.input_dim))
            predict(model, x)
            tracemalloc.start()
            try:
                predict(model, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(PREDICT_BLOCK_ROWS), traced_peak(5000)
        assert large <= 1.25 * small, (small, large)


def _model_kwargs(variant, num_experts, use_bias, use_norm_layers):
    kwargs = dict(variant=variant, num_experts=num_experts, use_bias=use_bias,
                  use_norm_layers=use_norm_layers)
    if variant == "capacity_controlled":
        kwargs.update(num_experts=1, ref_experts=num_experts)
    return kwargs


class TestStackedMatchesPerExpertReference:
    """The stacked expert chain against a K-loop of 2-D ops, bit for bit."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("num_experts", [1, 2, 4])
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("use_norm_layers", [True, False])
    # 13.7 is no power of two, so where the scale is applied shows in the bits.
    @pytest.mark.parametrize("scale", [16.0, 13.7])
    def test_forward_losses_and_gradients_bitwise(self, variant, num_experts, use_bias, use_norm_layers,
                                                  scale):
        cfg = small_config(scale=scale, **_model_kwargs(variant, num_experts, use_bias, use_norm_layers))
        model = init_model(cfg, seed=11)
        reference = model.clone()
        rng = np.random.default_rng(num_experts)
        x = rng.normal(size=(9, 6))
        labels = rng.integers(0, 5, size=9)
        spec = LongTailSpec((40, 20, 10, 5, 2))
        train_cfg = TrainConfig(epochs=1, cb_loss_weight=1.3)

        tape = Tape()
        params = bind_params(model, tape)
        out = full_forward(model, x, mode="train", params=params)
        bundle = compute_losses(out, labels, spec, train_cfg)
        grad = flatten_grads(model, params, backward(bundle.total))

        ref_tape = Tape()
        ref_params = reference_params(reference, ref_tape)
        logits, reps, aux = reference_forward(reference, x, ref_params)
        expert_ce, total = reference_losses(
            logits, aux, labels, class_balanced_weights(spec), train_cfg.cb_loss_weight
        )
        ref_grads = backward(total)
        ref_grad = np.concatenate(
            [ref_grads[leaf.tape_id].values.reshape(-1) for leaf in ref_params.values()]
        )

        assert out.expert_logits.values.tobytes() == np.stack([l.values for l in logits]).tobytes()
        assert out.normalized_reps.values.tobytes() == np.stack([z.values for z in reps]).tobytes()
        assert bundle.expert_ce.values.tobytes() == np.array([t.item() for t in expert_ce]).tobytes()
        assert bundle.total.values.tobytes() == total.values.tobytes()
        if aux is None:
            assert out.aux_logits is None
        else:
            assert out.aux_logits.values.tobytes() == aux.values.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        for name, state in model.norm_states.items():
            assert state.running_mean.tobytes() == reference.norm_states[name].running_mean.tobytes()
            assert state.running_var.tobytes() == reference.norm_states[name].running_var.tobytes()
