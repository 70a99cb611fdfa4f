"""Model tests: init determinism, cosine paths, detach wall, variants, predict."""

import re
import tracemalloc

import numpy as np
import pytest

from damel.data import LongTailSpec
from damel.errors import ConfigError, ShapeError
from damel.model import (
    PREDICT_BLOCK_ROWS,
    VARIANTS,
    DamelConfig,
    DamelModel,
    _eval_kernel,
    _layout,
    bind_params,
    full_forward,
    init_model,
    param_group,
    param_views,
    predict,
)
from damel.tensor import NormStatsState, Tape, backward, softmax_cross_entropy
from damel.training import TrainConfig, class_balanced_weights, compute_losses, flatten_grads
from helpers import reference_forward, reference_losses, reference_params


# The variants plus table11's capacity_controlled cell, which _model_kwargs builds.
MODEL_CASES = VARIANTS + ("capacity_controlled",)


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
        assert a.buffer.copy().tobytes() == b.buffer.copy().tobytes()

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
        assert m.buffer.size == backbone + experts + aux

    def test_params_are_views_of_one_buffer_in_layout_order(self):
        m = init_model(small_config(use_norm_layers=True), seed=3)
        assert [(name, view.shape) for name, view in m.params.items()] == _layout(m.config) == [
            ("backbone.w1", (6, 8)), ("backbone.b1", (8,)),
            ("backbone.bn1.gamma", (8,)), ("backbone.bn1.beta", (8,)),
            ("backbone.w2", (8, 8)), ("backbone.b2", (8,)),
            ("backbone.bn2.gamma", (8,)), ("backbone.bn2.beta", (8,)),
            ("experts.w", (3, 8, 4)), ("experts.b", (3, 4)), ("experts.cls", (3, 4, 5)),
            ("aux.cls", (12, 5)),
        ]
        # The views tile the buffer once, each one contiguous span, in layout order.
        offset = 0
        for name, view in m.params.items():
            assert view.flags.c_contiguous and np.shares_memory(view, m.buffer), name
            start = (view.__array_interface__["data"][0]
                     - m.buffer.__array_interface__["data"][0]) // m.buffer.itemsize
            assert start == offset, name
            offset += view.size
        assert offset == m.buffer.size
        with pytest.raises(TypeError):
            m.params["backbone.w1"] = np.zeros((6, 8))

    def test_config_validation(self):
        assert VARIANTS == ("standard", "aggregate_predictions", "average_representations")
        # table11's capacity_controlled cell is a standard config, not a variant.
        for variant in ("bagging", "capacity_controlled"):
            with pytest.raises(ConfigError, match=f"unknown variant '{variant}'"):
                small_config(variant=variant).validate()
        with pytest.raises(ConfigError, match="scale"):
            small_config(scale=0.0).validate()


class TestExpertForward:
    def _identity_model(self):
        # Identity weights turn the backbone and expert block into pass-throughs,
        # pinning the representation so the cosine path is directly observable.
        cfg = DamelConfig(
            num_experts=1, input_dim=2, hidden_dim=2, rep_dim=2, num_classes=2,
            scale=16.0,
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
        out = full_forward(m, np.array([[3.0, 0.0]]), train=False)
        # representation [1, 0] against unit class columns [1,0] and [0,1]
        np.testing.assert_allclose(out.expert_logits.values[0], [[16.0, 0.0]], atol=1e-12)

    def test_logits_bounded_by_scale(self):
        rng = np.random.default_rng(2)
        m = init_model(small_config(), seed=3)
        out = full_forward(m, rng.normal(size=(20, 6)), train=False)
        for logit in out.expert_logits.values:
            assert np.abs(logit).max() <= 16.0 * (1 + 1e-9)

    def test_input_width_checked(self):
        m = init_model(small_config(), seed=0)
        with pytest.raises(ShapeError, match="input"):
            full_forward(m, np.ones((2, 7)))


class TestAuxiliary:
    def test_single_expert_consumes_its_representation(self):
        m = init_model(small_config(num_experts=1), seed=2)
        x = np.random.default_rng(0).normal(size=(4, 6))
        out = full_forward(m, x, train=False)
        z = out.normalized_reps.values[0]
        aux_w = m.params["aux.cls"]
        unit_w = aux_w / np.sqrt((aux_w**2).sum(axis=0, keepdims=True))
        renorm = z / np.sqrt((z**2).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out.aux_logits.values, 16.0 * renorm @ unit_w, atol=1e-12)

    def test_concat_width_and_norm(self):
        m = init_model(small_config(num_experts=2, rep_dim=3), seed=2)
        x = np.random.default_rng(1).normal(size=(4, 6))
        out = full_forward(m, x, train=False)
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
        # One expert as wide as three reads the same width as three concatenated.
        assert small_config(**_model_kwargs("capacity_controlled", 3, False)).aux_input_dim == 12
        assert small_config(variant="aggregate_predictions").aux_input_dim is None

    def test_aggregate_predictions_has_no_aux(self):
        m = init_model(small_config(variant="aggregate_predictions"), seed=0)
        assert "aux.cls" not in m.params
        out = full_forward(m, np.ones((2, 6)), train=False)
        assert out.aux_logits is None

    @pytest.mark.parametrize("variant", ["standard", "average_representations", "capacity_controlled"])
    def test_detach_wall_zero_gradients(self, variant):
        m = init_model(small_config(**_model_kwargs(variant, 3, True)), seed=9)
        rng = np.random.default_rng(3)
        tape = Tape()
        params = bind_params(m, tape)
        out = full_forward(m, rng.normal(size=(6, 6)), params=params)
        loss = softmax_cross_entropy(out.aux_logits, rng.integers(0, 5, size=6))
        grads = backward(loss)
        for name, leaf in params.items():
            g = grads[leaf.tape_id].values
            if param_group(name) == "aux":
                assert np.abs(g).sum() > 0
            else:
                assert np.abs(g).sum() == 0.0, f"{name} leaked gradient through detach"


class TestFullForward:
    @pytest.mark.parametrize("variant", MODEL_CASES)
    def test_default_params_are_untaped_and_match_bound_leaves(self, variant):
        model = init_model(small_config(**_model_kwargs(variant, 3, True)), seed=5)
        rng = np.random.default_rng(5)
        for state in model.norm_states.values():
            state.running_mean[:] = rng.normal(size=state.running_mean.shape)
            state.running_var[:] = rng.uniform(0.5, 2.0, size=state.running_var.shape)
        states = {name: NormStatsState(st.running_mean.copy(), st.running_var.copy())
                  for name, st in model.norm_states.items()}
        twin = DamelModel(model.config, model.buffer.copy(), states)
        x = rng.normal(size=(7, 6))

        out = full_forward(model, x, train=False)
        bound = full_forward(twin, x, train=False, params=bind_params(twin, Tape()))
        pairs = [(out.expert_logits, bound.expert_logits), (out.normalized_reps, bound.normalized_reps)]
        if variant == "aggregate_predictions":
            assert out.aux_logits is None and bound.aux_logits is None
        else:
            pairs.append((out.aux_logits, bound.aux_logits))
        for const, leafy in pairs:
            assert const.tape is None and leafy.tape is not None
            assert const.values.tobytes() == leafy.values.tobytes()

    def test_eval_forward_leaves_norm_states_alone(self):
        model = init_model(small_config(use_norm_layers=True), seed=2)
        before = {name: {field: (value, np.asarray(value).tobytes()) for field, value in vars(st).items()}
                  for name, st in model.norm_states.items()}
        full_forward(model, np.random.default_rng(2).normal(size=(5, 6)), train=False)
        for name, state in model.norm_states.items():
            assert vars(state).keys() == before[name].keys()
            for field, (value, data) in before[name].items():
                assert getattr(state, field) is value and np.asarray(value).tobytes() == data, (name, field)

    @pytest.mark.parametrize("variant", MODEL_CASES)
    def test_zero_row_eval_forward(self, variant):
        model = init_model(small_config(**_model_kwargs(variant, 3, True)), seed=0)
        out = full_forward(model, np.ones((0, 6)), train=False)
        k = model.config.num_experts
        assert out.expert_logits.shape == (k, 0, 5)
        assert out.normalized_reps.shape == (k, 0, model.config.rep_dim)
        if variant == "aggregate_predictions":
            assert out.aux_logits is None
        else:
            assert out.aux_logits.shape == (0, 5)


class TestPredict:
    def test_argmax_and_ties(self):
        # argmax over aux logits with lowest-index tie break
        assert np.argmax(np.array([0.1, 3.2, -1.0])) == 1
        assert np.argmax(np.array([2.0, 2.0])) == 0

    def test_predict_matches_aux_argmax(self):
        x = np.random.default_rng(5).normal(size=(40, 6))
        for case in ("standard", "average_representations", "capacity_controlled"):
            for use_norm_layers in (False, True):
                m = init_model(small_config(**_model_kwargs(case, 3, use_norm_layers)), seed=4)
                out = full_forward(m, x, train=False)
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
        out = full_forward(m, x, train=False)

        def softmax(v):
            e = np.exp(v - v.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        probs = np.mean([softmax(l) for l in out.expert_logits.values], axis=0)
        np.testing.assert_array_equal(predict(m, x), probs.argmax(axis=1))


BIASES = ["zero", "random"]


def _set_biases(model, biases, seed):
    """Leave every bias at its zero init, or draw each one off zero, so the
    bias add shows in the values a test compares."""
    if biases == "random":
        rng = np.random.default_rng([seed, 1])
        for name in ("backbone.b1", "backbone.b2", "experts.b"):
            model.params[name][:] = 0.5 * rng.normal(size=model.params[name].shape)


def _unit_rows(v):
    return v / np.maximum(np.sqrt(np.square(v).sum(axis=1, keepdims=True)), 1e-300)


def _whole_batch_logits(model, x):
    """The logits predict reads, from one forward over all rows of ``x``."""
    out = full_forward(model, x, train=False)
    return out.expert_logits.values if out.aux_logits is None else out.aux_logits.values


class TestPredictRowBlocks:
    """predict walks its rows in fixed blocks; the result is the whole batch's."""

    @pytest.mark.parametrize("variant", MODEL_CASES)
    @pytest.mark.parametrize("use_norm_layers", [True, False])
    @pytest.mark.parametrize("biases", BIASES)
    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 257, 1242])
    @pytest.mark.parametrize("scale", [16.0, 13.7])
    def test_blocks_match_whole_batch(self, variant, use_norm_layers, biases, rows, scale):
        cfg = small_config(scale=scale, **_model_kwargs(variant, 3, use_norm_layers))
        model = init_model(cfg, seed=rows)
        _set_biases(model, biases, seed=rows)
        rng = np.random.default_rng(rows)
        for state in model.norm_states.values():
            state.running_mean[:] = rng.normal(size=state.running_mean.shape)
            state.running_var[:] = rng.uniform(0.5, 2.0, size=state.running_var.shape)
        x = rng.normal(size=(rows, 6))

        buffer = model.buffer.tobytes()
        stats = [(st.running_mean.tobytes(), st.running_var.tobytes()) for st in model.norm_states.values()]
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

        # The kernel's scores drift from the composite logits in the last
        # bits only, up to the positive row factors that no argmax sees.
        scores = _eval_kernel(model)
        for i in starts:
            block = x[i:i + PREDICT_BLOCK_ROWS]
            logits = _whole_batch_logits(model, block)
            if variant == "aggregate_predictions":
                e = np.exp(logits - logits.max(axis=-1, keepdims=True))
                np.testing.assert_allclose(scores(block), (e / e.sum(axis=-1, keepdims=True)).mean(axis=0),
                                           rtol=0, atol=1e-12)
            else:
                np.testing.assert_allclose(_unit_rows(scores(block)), _unit_rows(logits), rtol=0, atol=1e-12)
        assert model.buffer.tobytes() == buffer
        assert [(st.running_mean.tobytes(), st.running_var.tobytes())
                for st in model.norm_states.values()] == stats

    def test_input_rank_and_width_checked(self):
        model = init_model(small_config(), seed=0)
        with pytest.raises(ShapeError, match=r"predict: input must be \[B, 6\], got \(6,\)"):
            predict(model, np.ones(6))
        with pytest.raises(ShapeError, match=r"predict: input must be \[B, 6\], got \(0, 7\)"):
            predict(model, np.ones((0, 7)))

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


def _model_kwargs(case, num_experts, use_norm_layers):
    """small_config overrides for a variant, or for table11's capacity_controlled
    cell: one standard expert as wide as ``num_experts`` of small_config's
    width-4 experts side by side."""
    kwargs = dict(variant=case, num_experts=num_experts, use_norm_layers=use_norm_layers)
    if case == "capacity_controlled":
        kwargs.update(variant="standard", num_experts=1, rep_dim=4 * num_experts)
    return kwargs


class TestStackedMatchesPerExpertReference:
    """The stacked expert chain against a K-loop of 2-D ops, bit for bit."""

    @pytest.mark.parametrize("variant", MODEL_CASES)
    @pytest.mark.parametrize("num_experts", [1, 2, 4])
    @pytest.mark.parametrize("biases", BIASES)
    @pytest.mark.parametrize("use_norm_layers", [True, False])
    # 13.7 is no power of two, so where the scale is applied shows in the bits.
    @pytest.mark.parametrize("scale", [16.0, 13.7])
    def test_forward_losses_and_gradients_bitwise(self, variant, num_experts, biases, use_norm_layers,
                                                  scale):
        cfg = small_config(scale=scale, **_model_kwargs(variant, num_experts, use_norm_layers))
        model = init_model(cfg, seed=11)
        _set_biases(model, biases, seed=11)
        states = {name: NormStatsState(st.running_mean.copy(), st.running_var.copy())
                  for name, st in model.norm_states.items()}
        reference = DamelModel(cfg, model.buffer.copy(), states)
        rng = np.random.default_rng(num_experts)
        x = rng.normal(size=(9, 6))
        labels = rng.integers(0, 5, size=9)
        spec = LongTailSpec((40, 20, 10, 5, 2))
        train_cfg = TrainConfig(epochs=1, cb_loss_weight=1.3)

        tape = Tape()
        params = bind_params(model, tape)
        out = full_forward(model, x, params=params)
        bundle = compute_losses(out, labels, class_balanced_weights(spec), train_cfg.cb_loss_weight)
        grad = np.empty(model.buffer.size)
        grad_views = param_views(cfg, grad)
        flatten_grads(grad_views, params, backward(bundle.total))

        ref_tape = Tape()
        ref_params = reference_params(reference, ref_tape)
        logits, reps, aux = reference_forward(reference, x, ref_params)
        expert_ce, total = reference_losses(
            logits, aux, labels, class_balanced_weights(spec), train_cfg.cb_loss_weight
        )
        ref_grads = backward(total)

        assert out.expert_logits.values.tobytes() == np.stack([l.values for l in logits]).tobytes()
        assert out.normalized_reps.values.tobytes() == np.stack([z.values for z in reps]).tobytes()
        assert bundle.expert_ce.values.tobytes() == np.array([t.item() for t in expert_ce]).tobytes()
        assert bundle.total.values.tobytes() == total.values.tobytes()
        if aux is None:
            assert out.aux_logits is None
        else:
            assert out.aux_logits.values.tobytes() == aux.values.tobytes()
        # Each reference leaf against its gradient view; expert{k}.{w,b,cls}
        # is slice k of the stacked experts.{w,b,cls}.
        for name, leaf in ref_params.items():
            per_expert = re.fullmatch(r"expert(\d+)\.(w|b|cls)", name)
            view = grad_views[f"experts.{per_expert[2]}"][int(per_expert[1])] if per_expert else grad_views[name]
            assert view.tobytes() == ref_grads[leaf.tape_id].values.tobytes(), name
        assert sum(leaf.values.size for leaf in ref_params.values()) == grad.size
        for name, state in model.norm_states.items():
            assert state.running_mean.tobytes() == reference.norm_states[name].running_mean.tobytes()
            assert state.running_var.tobytes() == reference.norm_states[name].running_var.tobytes()
