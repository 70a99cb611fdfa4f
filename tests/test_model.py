"""Model tests: init determinism, cosine paths, detach wall, variants, predict."""

import numpy as np
import pytest

from damel.errors import ConfigError, ShapeError
from damel.model import (
    DamelConfig,
    bind_params,
    forward_experts,
    full_forward,
    init_model,
    param_group,
    predict,
)
from damel.tensor import Tape, backward, softmax_cross_entropy


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
        assert not np.array_equal(m.params["expert0.w"], m.params["expert1.w"])
        assert not np.array_equal(m.params["expert1.cls"], m.params["expert2.cls"])

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
        m.params["backbone.w1"] = eye.copy()
        m.params["backbone.w2"] = eye.copy()
        m.params["expert0.w"] = eye.copy()
        m.params["expert0.cls"] = eye.copy()
        return m

    def test_cosine_logit_values(self):
        m = self._identity_model()
        out = forward_experts(m, np.array([[3.0, 0.0]]), mode="eval")
        # representation [1, 0] against unit class columns [1,0] and [0,1]
        np.testing.assert_allclose(out.expert_logits[0].values, [[16.0, 0.0]], atol=1e-12)

    def test_logits_bounded_by_scale(self):
        rng = np.random.default_rng(2)
        m = init_model(small_config(), seed=3)
        out = forward_experts(m, rng.normal(size=(20, 6)), mode="eval")
        for logit in out.expert_logits:
            assert np.abs(logit.values).max() <= 16.0 * (1 + 1e-9)

    def test_positive_scaling_invariance_bias_free(self):
        rng = np.random.default_rng(4)
        m = init_model(small_config(use_bias=False), seed=7)
        x = rng.normal(size=(5, 6))
        base = forward_experts(m, x, mode="eval")
        scaled = forward_experts(m, 3.7 * x, mode="eval")
        for a, b in zip(base.expert_logits, scaled.expert_logits):
            np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_input_width_checked(self):
        m = init_model(small_config(), seed=0)
        with pytest.raises(ShapeError, match="input"):
            forward_experts(m, np.ones((2, 7)))


class TestAuxiliary:
    def test_single_expert_consumes_its_representation(self):
        m = init_model(small_config(num_experts=1), seed=2)
        x = np.random.default_rng(0).normal(size=(4, 6))
        out = full_forward(m, x, mode="eval")
        z = out.normalized_reps[0].values
        aux_w = m.params["aux.cls"]
        unit_w = aux_w / np.sqrt((aux_w**2).sum(axis=0, keepdims=True))
        renorm = z / np.sqrt((z**2).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.aux_logits.values, 16.0 * renorm @ unit_w, atol=1e-12)

    def test_concat_width_and_norm(self):
        m = init_model(small_config(num_experts=2, rep_dim=3), seed=2)
        x = np.random.default_rng(1).normal(size=(4, 6))
        out = forward_experts(m, x, mode="eval")
        concat = np.concatenate([z.values for z in out.normalized_reps], axis=1)
        assert concat.shape[1] == 6
        # two unit rows concatenated have norm sqrt(2) before re-normalization
        # (rows whose representation died under relu are excluded)
        live = np.ones(4, dtype=bool)
        for z in out.normalized_reps:
            live &= np.sqrt((z.values**2).sum(axis=1)) > 0.5
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
            m.params[f"expert{k}.cls"] = rng.normal(size=m.params[f"expert{k}.cls"].shape)
        np.testing.assert_array_equal(predict(m, x), before)

    def test_aggregate_uses_mean_expert_softmax(self):
        m = init_model(small_config(variant="aggregate_predictions"), seed=8)
        x = np.random.default_rng(8).normal(size=(5, 6))
        out = forward_experts(m, x, mode="eval")

        def softmax(v):
            e = np.exp(v - v.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        probs = np.mean([softmax(l.values) for l in out.expert_logits], axis=0)
        np.testing.assert_array_equal(predict(m, x), probs.argmax(axis=1))
