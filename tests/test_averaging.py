"""Weight-averaging tests: EMA closed form, SWA mean, stats recomputation."""

import numpy as np
import pytest

import damel.tensor
from damel.averaging import (
    EmaState,
    SwaState,
    ema_update,
    load_eval_model,
    recompute_running_stats,
    swa_update,
    update_average,
)
from damel.data import Dataset, LongTailSpec, balanced_spec, synthesize_gaussian_longtail
from damel.errors import ContractError, ShapeError
from damel.model import DamelConfig, DamelModel, backbone_layers, init_model, predict
from damel.tensor import BATCH_NORM_EPS, NormStatsState, Tensor, affine, dense_bn_relu
from damel.training import TrainConfig, train


def ema_closed_form(snapshots, rate):
    """Independent oracle: direct weighted sum over a snapshot stream.

    The first snapshot initializes the state, so after n snapshots the value
    is (1-rate)^(n-1) * s1 + rate * sum_{i=2..n} (1-rate)^(n-i) * si.
    """
    n = len(snapshots)
    out = (1.0 - rate) ** (n - 1) * snapshots[0]
    for i in range(1, n):
        out = out + rate * (1.0 - rate) ** (n - 1 - i) * snapshots[i]
    return out


class TestEma:
    def test_rate_one_tracks_last_snapshot(self):
        state = EmaState(rate=1.0)
        for v in ([1.0, 2.0], [5.0, -1.0]):
            ema_update(state, np.array(v))
        np.testing.assert_array_equal(state.weights, [5.0, -1.0])

    def test_single_step_hand_value(self):
        state = EmaState(rate=0.1, weights=np.array([0.0]))
        ema_update(state, np.array([10.0]))
        np.testing.assert_allclose(state.weights, [1.0])

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for rate in (0.01, 0.1, 0.3, 1.0):
            snaps = [rng.normal(size=6) for _ in range(5)]
            state = EmaState(rate=rate)
            for s in snaps:
                ema_update(state, s)
            np.testing.assert_allclose(state.weights, ema_closed_form(snaps, rate), atol=1e-9)

    def test_recency_monotonicity_via_impulse_streams(self):
        # Feed unit impulses at each recursion position; the resulting weight
        # is that snapshot's coefficient, which must increase with recency.
        rate, length = 0.2, 7
        coeffs = []
        for pos in range(1, length):  # positions after initialization
            state = EmaState(rate=rate)
            for i in range(length):
                ema_update(state, np.array([1.0 if i == pos else 0.0]))
            coeffs.append(state.weights[0])
        assert all(a < b for a, b in zip(coeffs, coeffs[1:]))

    def test_length_mismatch(self):
        state = EmaState(rate=0.1)
        ema_update(state, np.zeros(3))
        with pytest.raises(ContractError, match="length"):
            ema_update(state, np.zeros(4))

    def test_invalid_rate(self):
        with pytest.raises(ContractError, match="rate"):
            EmaState(rate=0.0)

    def test_does_not_alias_live_parameters(self):
        theta = np.array([1.0, 2.0])
        state = ema_update(EmaState(rate=0.5), theta)
        theta[0] = 99.0
        np.testing.assert_array_equal(state.weights, [1.0, 2.0])


class TestSwa:
    def test_first_update_copies(self):
        state = swa_update(SwaState(), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(state.weights, [3.0, 4.0])
        assert state.count == 1

    def test_two_snapshot_mean(self):
        state = SwaState()
        swa_update(state, np.array([0.0]))
        swa_update(state, np.array([2.0]))
        np.testing.assert_array_equal(state.weights, [1.0])

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(1)
        snaps = [rng.normal(size=5) for _ in range(7)]
        state = SwaState()
        for s in snaps:
            swa_update(state, s)
        np.testing.assert_allclose(state.weights, np.mean(snaps, axis=0), atol=1e-12)

    def test_uniform_coefficients_via_impulses(self):
        n = 6
        for pos in range(n):
            state = SwaState()
            for i in range(n):
                swa_update(state, np.array([1.0 if i == pos else 0.0]))
            np.testing.assert_allclose(state.weights, [1.0 / n], atol=1e-12)


class TestExport:
    def test_ema_first_update_equals_snapshot(self):
        theta = np.array([4.0, 5.0])
        state = ema_update(EmaState(rate=0.1), theta)
        np.testing.assert_array_equal(state.weights, theta)
        assert state.weights is not theta

    def test_ema_and_swa_differ_on_streams(self):
        snaps = [np.array([0.0]), np.array([3.0]), np.array([9.0])]
        ema, swa = EmaState(rate=0.1), SwaState()
        for s in snaps:
            ema_update(ema, s)
            swa_update(swa, s)
        assert ema.weights[0] != swa.weights[0]

    def test_update_average_follows_the_state_type(self):
        ema = update_average(EmaState(rate=0.5, weights=np.array([0.0])), np.array([2.0]))
        np.testing.assert_array_equal(ema.weights, [1.0])
        swa = update_average(SwaState(weights=np.array([0.0]), count=1), np.array([2.0]))
        np.testing.assert_array_equal(swa.weights, [1.0])
        assert swa.count == 2
        assert update_average(None, np.array([2.0])) is None

    @pytest.mark.parametrize("averaging, state", [
        ("ema", None), ("ema", SwaState()), ("swa", EmaState(rate=0.1)), ("none", SwaState()),
    ])
    def test_train_rejects_a_wrong_typed_state_before_its_first_step(self, averaging, state):
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=0)
        steps = []
        with pytest.raises(ContractError, match=f"averaging={averaging}"):
            train(_norm_model(), ds, TrainConfig(epochs=1, batch_size=8, averaging=averaging), state,
                  step_hook=steps.append)
        assert steps == []


def _norm_model(use_bias=True):
    cfg = DamelConfig(
        num_experts=2, input_dim=3, hidden_dim=4, rep_dim=3, num_classes=3,
        use_norm_layers=True, use_bias=use_bias,
    )
    return init_model(cfg, seed=0)


def _oracle_norm_stats(model, x):
    """Independent oracle: each norm layer's (mean, population variance) over
    its eval-mode pre-norm input, the backbone rebuilt from numpy alone, each
    layer normalized by the statistics the oracle found for it."""
    p, h, stats = model.params, x, []
    for i in (1, 2):
        z = h @ p[f"backbone.w{i}"]
        if f"backbone.b{i}" in p:
            z = z + p[f"backbone.b{i}"]
        mean = z.mean(0)
        var = np.square(z - mean).sum(0) / len(z)
        stats.append((mean, var))
        x_hat = (z - mean) * (1.0 / np.sqrt(var + BATCH_NORM_EPS))
        h = np.maximum(p[f"backbone.bn{i}.gamma"] * x_hat + p[f"backbone.bn{i}.beta"], 0.0)
    return stats


class TestRecomputeRunningStats:
    def test_no_norm_layers_is_noop(self):
        cfg = DamelConfig(num_experts=1, input_dim=3, hidden_dim=4, rep_dim=3, num_classes=3)
        model = init_model(cfg, seed=0)
        before = model.buffer.copy().tobytes()
        ds = synthesize_gaussian_longtail(balanced_spec(3, 4), 3, 2.0, seed=0)
        recompute_running_stats(model, ds)
        assert model.buffer.copy().tobytes() == before
        assert not model.norm_states

    def test_single_feature_population_stats(self):
        model = _norm_model()
        ds = Dataset(
            np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
            np.array([0, 1]),
            LongTailSpec((1, 1)),
        )
        # first norm layer sees x @ w1; with w1 pinned to a selector column the
        # layer input is the raw first feature, so stats are mean 2, var 1.
        w1 = np.zeros((3, 4))
        w1[0, 0] = 1.0
        model.params["backbone.w1"][...] = w1
        model.params["backbone.b1"][...] = 0.0
        recompute_running_stats(model, ds)
        state = model.norm_states["backbone.bn1"]
        assert state.running_mean[0] == 2.0
        assert state.running_var[0] == 1.0

    def test_chunking_invariance(self):
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=3)
        whole = _norm_model()
        chunked = _norm_model()
        recompute_running_stats(whole, ds)
        recompute_running_stats(chunked, ds, chunk_size=6)
        for name in whole.norm_states:
            np.testing.assert_allclose(
                whole.norm_states[name].running_mean,
                chunked.norm_states[name].running_mean,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                whole.norm_states[name].running_var,
                chunked.norm_states[name].running_var,
                atol=1e-10,
            )

    @pytest.mark.parametrize("chunk_size", [None, 1, 5, 7])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_layer_walk_matches_numpy_oracle(self, chunk_size, use_bias, monkeypatch):
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=6)
        n = len(ds)
        step = n if chunk_size is None else chunk_size
        model = _norm_model(use_bias)
        rng = np.random.default_rng(8)
        for name, value in model.params.items():
            if name.startswith("backbone."):  # gamma, beta and biases off their init values
                value += 0.3 * rng.normal(size=value.shape)
        expected = _oracle_norm_stats(model, ds.features)

        products = []
        real = damel.tensor._matmul_parts

        def counted(op_kind, a, b):
            products.append(a.shape[0])
            return real(op_kind, a, b)

        monkeypatch.setattr(damel.tensor, "_matmul_parts", counted)
        features = ds.features.tobytes()
        recompute_running_stats(model, ds, chunk_size=chunk_size)
        # Each backbone affine once per chunk: the rows of layer 1, then of layer 2.
        assert products == [min(step, n - start) for start in range(0, n, step)] * 2
        assert ds.features.tobytes() == features  # normalized in place, but never the input
        for i, (mean, var) in enumerate(expected, start=1):
            got = model.norm_states[f"backbone.bn{i}"]
            assert got.mode == "eval"
            if chunk_size is None:
                assert got.running_mean.tobytes() == mean.tobytes()
                assert got.running_var.tobytes() == var.tobytes()
            else:
                np.testing.assert_allclose(got.running_mean, mean, rtol=0, atol=1e-10)
                np.testing.assert_allclose(got.running_var, var, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("use_bias", [True, False])
    def test_statistics_are_of_the_eval_forward(self, use_bias):
        """The in-place normalize has the bits of the eval-mode composite, so
        the second layer's statistics are those of its eval-time input."""
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=6)
        model = _norm_model(use_bias)
        rng = np.random.default_rng(9)
        for name, value in model.params.items():
            if name.startswith("backbone."):
                value += 0.3 * rng.normal(size=value.shape)
        recompute_running_stats(model, ds)
        (w1, b1, norm1), (w2, b2, _) = backbone_layers(model, model.params)
        z = affine(dense_bn_relu(Tensor(ds.features), w1, b1, norm1), w2, b2).values
        mean = z.mean(axis=0)
        state = model.norm_states["backbone.bn2"]
        assert state.running_mean.tobytes() == mean.tobytes()
        assert state.running_var.tobytes() == (np.square(z - mean).sum(axis=0) / len(z)).tobytes()

    def test_empty_dataset_rejected(self):
        model = _norm_model()
        ds = synthesize_gaussian_longtail(balanced_spec(3, 2), 3, 2.0, seed=0)
        ds.features = ds.features[:0]
        ds.labels = ds.labels[:0]
        with pytest.raises(ContractError, match="empty"):
            recompute_running_stats(model, ds)


class TestLoadEvalModel:
    def test_views_the_weights_and_matches_a_fresh_copy_bitwise(self):
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=5)
        model = _norm_model()
        for step in range(3):
            weights = model.buffer.copy() * (1.0 + 0.1 * step)
            eval_model = load_eval_model(model, weights, ds)
            assert eval_model.buffer is weights
            fresh = {name: NormStatsState.for_features(st.running_mean.size)
                     for name, st in model.norm_states.items()}
            reference = recompute_running_stats(DamelModel(model.config, weights.copy(), fresh), ds)
            for name, state in reference.norm_states.items():
                ours = eval_model.norm_states[name]
                assert ours is not model.norm_states[name]
                assert ours.running_mean.tobytes() == state.running_mean.tobytes()
                assert ours.running_var.tobytes() == state.running_var.tobytes()
            assert predict(eval_model, ds.features).tobytes() == predict(reference, ds.features).tobytes()

    @pytest.mark.parametrize("weights", [lambda m: m.buffer[:-1], lambda m: m.buffer.astype(np.float32)],
                             ids=["short", "float32"])
    def test_wrong_length_or_dtype_is_shape_error(self, weights):
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=5)
        model = _norm_model()
        with pytest.raises(ShapeError, match="expected a float64 vector"):
            load_eval_model(model, weights(model), ds)

    def test_leaves_the_source_model_alone(self):
        ds = synthesize_gaussian_longtail(balanced_spec(3, 7), 3, 2.0, seed=5)
        model = _norm_model()
        before = model.buffer.copy().tobytes()
        stats = {n: s.running_mean.tobytes() for n, s in model.norm_states.items()}
        load_eval_model(model, model.buffer.copy() * 2.0, ds)
        assert model.buffer.copy().tobytes() == before
        assert {n: s.running_mean.tobytes() for n, s in model.norm_states.items()} == stats
