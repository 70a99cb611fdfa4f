"""Tensor engine tests: forward semantics, tape backward vs. finite differences."""

import gc
import math
import weakref

import numpy as np
import pytest

from damel.errors import ContractError, ShapeError
from damel.tensor import (
    BATCH_NORM_EPS,
    BATCH_NORM_MOMENTUM,
    NormStatsState,
    Tape,
    Tensor,
    add,
    affine,
    backward,
    batch_norm,
    concat_last_axis,
    cosine_logits,
    dense_bn_relu,
    expert_block,
    l2_normalize,
    loss_fold,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    softmax_cross_entropy,
)
from helpers import build_random_net, check_function_gradients


class TestForwardOps:
    def test_matmul_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_concat_last_axis(self):
        out = concat_last_axis([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_add_bias_broadcast(self):
        out = add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.values, [[11.0, 22.0], [13.0, 24.0]])

    def test_scalar_scaling(self):
        out = 2.0 * Tensor([[1.0, -1.0]])
        np.testing.assert_array_equal(out.values, [[2.0, -2.0]])

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 2\).*\(3, 1\)"):
            matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 1))))
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeError, match="concat"):
            concat_last_axis([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))])

    def test_no_general_broadcasting(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3))))

    def test_direct_op_calls(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(matmul(a, b).values, [[11.0]])
        np.testing.assert_array_equal(relu(Tensor([-2.0, 5.0])).values, [0.0, 5.0])
        assert reduce_mean(Tensor([1.0, 3.0])).item() == 2.0
        assert reduce_sum(Tensor([1.0, 3.0])).item() == 4.0

    def test_relu_bitwise_equals_where(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(64, 33))
        specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf]
        x.flat[rng.choice(x.size, size=200, replace=False)] = np.resize(specials, 200)
        expected = np.where(x > 0, x, 0.0)
        assert np.array_equal(relu(Tensor(x)).values.view(np.int64), expected.view(np.int64))


class TestTape:
    def test_nodes_reference_earlier_inputs_only(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        y = mul(x, x)
        z = reduce_sum(add(y, x))
        for node_id, node in enumerate(tape.nodes):
            assert all(i < node_id for i in node.input_ids)
        assert z.tape_id == len(tape.nodes) - 1

    def test_untaped_inputs_record_nothing(self):
        out = mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert out.tape is None and out.tape_id is None

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ContractError, match="different tapes"):
            add(t1.leaf([1.0]), t2.leaf([1.0]))


class TestBackward:
    def test_sum_of_squares(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0, 3.0])
        grads = backward(reduce_sum(mul(x, x)))
        np.testing.assert_array_equal(grads[x.tape_id].values, [2.0, 4.0, 6.0])

    def test_detached_factor_is_constant(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        grads = backward(reduce_sum(mul(Tensor(x.values), x)))
        np.testing.assert_array_equal(grads[x.tape_id].values, [1.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ContractError, match="scalar"):
            backward(mul(x, x))

    def test_unlinked_loss_rejected(self):
        with pytest.raises(ContractError, match="tape"):
            backward(Tensor(1.0))

    def test_fanout_accumulates(self):
        tape = Tape()
        x = tape.leaf([3.0])
        # f = x*x + 2*x -> df/dx = 2x + 2
        grads = backward(reduce_sum(add(mul(x, x), mul(Tensor(2.0), x))))
        np.testing.assert_allclose(grads[x.tape_id].values, [8.0])

    def test_random_three_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 5)) / 2.0
        b1 = rng.normal(size=5) / 4.0
        w2 = rng.normal(size=(5, 4)) / 2.0
        w3 = rng.normal(size=(4, 3)) / 2.0
        x0 = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])

        def net(params):
            p1, p2, p3, p4 = params
            h = relu(matmul(Tensor(x0), p1) + p2)
            h = relu(matmul(h, p3))
            return softmax_cross_entropy(matmul(h, p4), labels)

        check_function_gradients(net, [w1, b1, w2, w3])


class TestDetach:
    def test_totality_upstream_of_detach(self):
        # Leaves that reach the loss only through a constant built from their
        # values get exact zeros; the one live leaf gets its gradient.
        rng = np.random.default_rng(3)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(2, 3)))
        w = tape.leaf(rng.normal(size=(3, 3)))
        live = tape.leaf(rng.normal(size=(2, 3)))
        blocked = Tensor(relu(matmul(x, w)).values)
        grads = backward(reduce_sum(mul(blocked, live)))
        assert np.abs(grads[x.tape_id].values).sum() == 0.0
        assert np.abs(grads[w.tape_id].values).sum() == 0.0
        np.testing.assert_array_equal(grads[live.tape_id].values, blocked.values)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(Tensor([3.0, 4.0]), axis=0).values, [0.6, 0.8])

    def test_zero_vector_maps_to_zero(self):
        np.testing.assert_array_equal(
            l2_normalize(Tensor([0.0, 0.0]), axis=0).values, [0.0, 0.0]
        )

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=16)
        out = l2_normalize(Tensor(v), axis=0).values
        assert abs(np.sqrt((out * out).sum()) - 1.0) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.normal(size=(3, 5))
            once = l2_normalize(Tensor(v), axis=1).values
            twice = l2_normalize(Tensor(once), axis=1).values
            np.testing.assert_allclose(twice, once, atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_gradients(self, axis):
        rng = np.random.default_rng(20 + axis)
        v = rng.normal(size=(4, 3))

        def f(params):
            return reduce_sum(mul(l2_normalize(params[0], axis=axis), Tensor(coeffs)))

        coeffs = rng.normal(size=(4, 3))
        check_function_gradients(f, [v])


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_stable_under_large_logits(self):
        loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert abs(loss.item()) < 1e-9

    def test_weighted_value(self):
        # Independent oracle: direct evaluation of 2 * (-log(e^3 / (e + e^2 + e^3))).
        expected = 2.0 * (math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0)
        loss = softmax_cross_entropy(Tensor([[1.0, 2.0, 3.0]]), [2], class_weights=[1.0, 1.0, 2.0])
        assert abs(loss.item() - expected) < 1e-12

    def test_unit_weights_bit_identical_to_unweighted(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        a = softmax_cross_entropy(Tensor(logits), labels)
        b = softmax_cross_entropy(Tensor(logits), labels, class_weights=np.ones(4))
        assert a.item() == b.item()

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="label out of range"):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ContractError, match="positive"):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0], class_weights=[1.0, 0.0])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_gradients(self, weighted):
        rng = np.random.default_rng(30 + weighted)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        weights = 0.5 + rng.uniform(size=4) if weighted else None

        def f(params):
            return softmax_cross_entropy(params[0], labels, class_weights=weights)

        check_function_gradients(f, [logits])


class TestBatchNorm:
    def test_train_normalizes_column(self):
        state = NormStatsState.for_features(1)
        out = batch_norm(Tensor([[1.0], [3.0]]), state, Tensor([1.0]), Tensor([0.0]))
        expected = (np.array([[1.0], [3.0]]) - 2.0) / math.sqrt(1.0 + BATCH_NORM_EPS)
        np.testing.assert_allclose(out.values, expected, rtol=1e-12)
        np.testing.assert_allclose(out.values, [[-1.0], [1.0]], atol=1e-4)

    def test_eval_identity_map(self):
        state = NormStatsState.for_features(2)
        x = np.array([[0.1, -0.05], [0.02, 0.08]])
        out = batch_norm(Tensor(x), state, Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), train=False)
        np.testing.assert_allclose(out.values, x, atol=1e-6)

    def test_running_stats_two_step_recursion(self):
        state = NormStatsState.for_features(1)
        momentum = BATCH_NORM_MOMENTUM
        batch_norm(Tensor([[1.0], [3.0]]), state, Tensor([1.0]), Tensor([0.0]))
        batch_norm(Tensor([[5.0], [7.0]]), state, Tensor([1.0]), Tensor([0.0]))
        # Hand recursion: running <- (1-m)*running + m*batch, population variance.
        rm = (1 - momentum) * ((1 - momentum) * 0.0 + momentum * 2.0) + momentum * 6.0
        rv = (1 - momentum) * ((1 - momentum) * 1.0 + momentum * 1.0) + momentum * 1.0
        np.testing.assert_allclose(state.running_mean, [rm], rtol=1e-12)
        np.testing.assert_allclose(state.running_var, [rv], rtol=1e-12)

    def test_train_running_var_bitwise_equals_np_var(self):
        rng = np.random.default_rng(12)
        x = rng.normal(loc=3.0, scale=2.5, size=(37, 9))
        state = NormStatsState.for_features(9)
        momentum = BATCH_NORM_MOMENTUM
        batch_norm(Tensor(x), state, Tensor(np.ones(9)), Tensor(np.zeros(9)))
        expected = (1.0 - momentum) * np.ones(9) + momentum * np.var(x, axis=0)
        assert np.array_equal(state.running_var.view(np.int64), expected.view(np.int64))

    def test_single_sample_train_batch_rejected(self):
        state = NormStatsState.for_features(1)
        with pytest.raises(ContractError, match="at least 2"):
            batch_norm(Tensor([[1.0]]), state, Tensor([1.0]), Tensor([0.0]))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients(self, mode):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(5, 3))
        gamma = 1.0 + 0.1 * rng.normal(size=3)
        beta = 0.1 * rng.normal(size=3)
        coeffs = rng.normal(size=(5, 3))
        state_proto = NormStatsState(running_mean=rng.normal(size=3), running_var=0.5 + rng.uniform(size=3))

        def f(params):
            state = NormStatsState(state_proto.running_mean.copy(), state_proto.running_var.copy())
            out = batch_norm(params[0], state, params[1], params[2], train=mode == "train")
            return reduce_sum(mul(out, Tensor(coeffs)))

        check_function_gradients(f, [x, gamma, beta])


class TestPerOpGradients:
    """Each op kind in isolation against the finite-difference oracle."""

    rng = np.random.default_rng(77)
    coeffs = rng.normal(size=(3, 4))

    def _scalarize(self, t):
        return reduce_sum(mul(t, Tensor(self.coeffs[: t.shape[0], : t.shape[1]])))

    def test_matmul(self):
        a, b = self.rng.normal(size=(3, 5)), self.rng.normal(size=(5, 4))
        check_function_gradients(lambda p: self._scalarize(matmul(p[0], p[1])), [a, b])

    def test_add_equal_and_bias(self):
        a, b = self.rng.normal(size=(3, 4)), self.rng.normal(size=(3, 4))
        check_function_gradients(lambda p: self._scalarize(add(p[0], p[1])), [a, b])
        bias = self.rng.normal(size=4)
        check_function_gradients(lambda p: self._scalarize(add(p[0], p[1])), [a, bias])

    def test_mul_with_scalar(self):
        a, s = self.rng.normal(size=(3, 4)), np.asarray(1.3)
        check_function_gradients(lambda p: self._scalarize(mul(p[0], p[1])), [a, s])

    def test_relu(self):
        a = self.rng.normal(size=(3, 4)) + 0.05
        check_function_gradients(lambda p: self._scalarize(relu(p[0])), [a])

    def test_concat_last_axis(self):
        a, b = self.rng.normal(size=(3, 2)), self.rng.normal(size=(3, 2))
        check_function_gradients(
            lambda p: self._scalarize(concat_last_axis([p[0], p[1]])), [a, b]
        )

    def test_mean_and_sum(self):
        a = self.rng.normal(size=(3, 4))
        check_function_gradients(lambda p: reduce_mean(mul(p[0], p[0])), [a])
        check_function_gradients(lambda p: reduce_sum(mul(p[0], p[0])), [a])


class TestStackedOps:
    """The K-block forms of matmul, affine and softmax_cross_entropy."""

    rng = np.random.default_rng(88)

    def _scalarize(self, t):
        coeffs = np.random.default_rng(t.size).normal(size=t.shape)
        return reduce_sum(mul(t, Tensor(coeffs)))

    def test_stacked_matmul_gradients(self):
        h, w = self.rng.normal(size=(4, 3)), self.rng.normal(size=(3, 3, 2))
        check_function_gradients(lambda p: self._scalarize(matmul(p[0], p[1])), [h, w])
        r, c = self.rng.normal(size=(3, 4, 2)), self.rng.normal(size=(3, 2, 5))
        check_function_gradients(lambda p: self._scalarize(matmul(p[0], p[1])), [r, c])

    def test_affine_gradients(self):
        x = self.rng.normal(size=(4, 3))
        w, b = self.rng.normal(size=(3, 5)), self.rng.normal(size=5)
        check_function_gradients(lambda p: self._scalarize(affine(p[0], p[1], p[2])), [x, w, b])
        ws, bs = self.rng.normal(size=(2, 3, 5)), self.rng.normal(size=(2, 5))
        check_function_gradients(lambda p: self._scalarize(affine(p[0], p[1], p[2])), [x, ws, bs])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_stacked_cross_entropy_gradients(self, weighted):
        logits = self.rng.normal(size=(3, 5, 4))
        labels = self.rng.integers(0, 4, size=5)
        weights = 0.5 + self.rng.uniform(size=4) if weighted else None
        check_function_gradients(
            lambda p: self._scalarize(softmax_cross_entropy(p[0], labels, class_weights=weights)),
            [logits],
        )

    def test_blocks_match_two_d_ops_bitwise(self):
        h, w, b = self.rng.normal(size=(6, 5)), self.rng.normal(size=(3, 5, 4)), self.rng.normal(size=(3, 4))
        labels = self.rng.integers(0, 4, size=6)
        z = affine(h, w, b).values
        losses = softmax_cross_entropy(z, labels).values
        for k in range(3):
            zk = add(matmul(h, w[k].copy()), b[k].copy()).values
            assert z[k].tobytes() == zk.tobytes()
            assert losses[k] == softmax_cross_entropy(zk, labels).item()

    def test_shared_input_gradient_adds_last_block_first(self):
        tape = Tape()
        h = tape.leaf(self.rng.normal(size=(4, 3)))
        w = self.rng.normal(size=(3, 3, 2))
        g = self.rng.normal(size=(3, 4, 2))
        grads = backward(reduce_sum(mul(matmul(h, Tensor(w)), Tensor(g))))
        parts = [g[k] @ w[k].T for k in range(3)]
        expected = (parts[2] + parts[1]) + parts[0]
        assert grads[h.tape_id].values.tobytes() == expected.tobytes()

    def test_reduce_sum_is_a_left_fold(self):
        # Each 1.0 vanishes into 1e16 when added one by one; grouped, they do not.
        v = np.array([1e16] + [1.0] * 8 + [-1e16])
        expected = v[0]
        for term in v[1:]:
            expected = expected + term
        assert expected == 0.0
        assert reduce_sum(Tensor(v)).item() == expected

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(ShapeError, match="inner"):
            matmul(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 4, 5))))
        with pytest.raises(ShapeError, match="stacks differ"):
            matmul(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((3, 3, 5))))
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((2, 4, 3))), Tensor(np.ones((3, 5))))
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((2, 3, 5))))
        with pytest.raises(ShapeError, match="affine: bias"):
            affine(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3, 5))), Tensor(np.ones(5)))
        with pytest.raises(ShapeError, match="affine: bias"):
            affine(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3, 5))), Tensor(np.ones((3, 5))))
        with pytest.raises(ShapeError, match="affine"):
            affine(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 3, 5))), Tensor(np.ones((2, 5))))
        with pytest.raises(ShapeError, match="dense_bn_relu: bias"):
            dense_bn_relu(Tensor(np.ones((4, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(3)))
        with pytest.raises(ShapeError, match="expert_block: bias"):
            expert_block(Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3, 5))), Tensor(np.ones(5)))
        with pytest.raises(ShapeError, match="logits"):
            softmax_cross_entropy(Tensor(np.ones((2, 2, 3, 4))), [0, 1, 2])
        with pytest.raises(ShapeError, match="labels"):
            softmax_cross_entropy(Tensor(np.ones((2, 3, 4))), [0, 1])


class TestRandomNetworks:
    def test_composed_networks_match_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            arrays, forward_fn = build_random_net(rng)
            check_function_gradients(forward_fn, arrays)


def _norm_state(rng, width):
    """A norm state with random running statistics."""
    return NormStatsState(rng.normal(size=width), 0.5 + rng.uniform(size=width))


def _clone_state(state):
    return NormStatsState(state.running_mean.copy(), state.running_var.copy())


def _state_bytes(state):
    return [state.running_mean.tobytes(), state.running_var.tobytes()]


def _assert_bitwise_like_chain(composite, chain, arrays, taped=None, make_states=None, scalarize=True):
    """Run ``composite`` and ``chain`` on leaves holding copies of ``arrays``
    (constants where ``taped`` is False) and fresh copies of the same norm
    states; the outputs, every input adjoint and the states must agree bit
    for bit."""
    taped = [True] * len(arrays) if taped is None else taped
    proto = make_states() if make_states is not None else []
    runs = []
    for fn in (composite, chain):
        tape = Tape()
        inputs = [tape.leaf(a.copy()) if t else Tensor(a.copy()) for a, t in zip(arrays, taped)]
        states = [_clone_state(st) for st in proto]
        out = fn(inputs, *states)
        loss = out
        if scalarize:
            coeffs = np.random.default_rng(out.size).normal(size=out.shape)
            loss = reduce_sum(mul(out, Tensor(coeffs)))
        grads = backward(loss)
        adjoints = [grads[t.tape_id].values for t in inputs if t.tape_id is not None]
        runs.append((out.values, adjoints, [_state_bytes(st) for st in states], len(tape)))
    (out_a, grads_a, states_a, nodes_a), (out_b, grads_b, states_b, nodes_b) = runs
    assert out_a.tobytes() == out_b.tobytes()
    assert len(grads_a) == len(grads_b) == sum(taped)
    for got, want in zip(grads_a, grads_b):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert states_a == states_b
    assert nodes_a <= nodes_b  # the composite is one node where the chain has one or more


class TestComposites:
    """Each composite against the primitive chain it replaces (bit for bit) and
    against finite differences."""

    rng = np.random.default_rng(99)

    def _scalarize(self, t):
        coeffs = np.random.default_rng(t.size).normal(size=t.shape)
        return reduce_sum(mul(t, Tensor(coeffs)))

    @pytest.mark.parametrize("w_taped", [True, False])
    @pytest.mark.parametrize("mode", [None, "train", "eval"])
    @pytest.mark.parametrize("x_taped", [True, False])
    def test_dense_bn_relu_bitwise(self, mode, x_taped, w_taped):
        x, w, b = self.rng.normal(size=(7, 5)), self.rng.normal(size=(5, 6)), self.rng.normal(size=6)
        gamma, beta = 1.0 + 0.1 * self.rng.normal(size=6), 0.1 * self.rng.normal(size=6)
        arrays, taped = [x, w, b, gamma, beta], [x_taped, w_taped, True, True, True]
        seed = int(self.rng.integers(1 << 30))

        def make_states():
            return [] if mode is None else [_norm_state(np.random.default_rng(seed), 6)]

        def composite(p, *state):
            return dense_bn_relu(*p[:3], (state[0], *p[3:]) if state else None, train=mode == "train")

        def chain(p, *state):
            h = affine(*p[:3])
            if state:
                h = batch_norm(h, state[0], *p[3:], train=mode == "train")
            return relu(h)

        if mode is None:  # gamma and beta then feed nothing: leave them out
            arrays, taped = arrays[:-2], taped[:-2]
        _assert_bitwise_like_chain(composite, chain, arrays, taped, make_states)

    def test_dense_bn_relu_overwrites_only_an_untaped_affine_output(self):
        z, w, b = self.rng.normal(size=(6, 4)), self.rng.normal(size=(4, 4)), self.rng.normal(size=4)
        norm = (NormStatsState.for_features(4), np.ones(4), np.zeros(4))
        before = z.copy()
        for x in (z, Tensor(z), Tape().leaf(z)):
            dense_bn_relu(x, w, b, norm)
        assert z.tobytes() == before.tobytes()

    @pytest.mark.parametrize("h_taped", [True, False])
    @pytest.mark.parametrize("num_experts", [1, 2, 4])
    def test_expert_block_bitwise(self, num_experts, h_taped):
        h = self.rng.normal(size=(6, 5))
        w, b = self.rng.normal(size=(num_experts, 5, 3)), self.rng.normal(size=(num_experts, 3))
        _assert_bitwise_like_chain(lambda p: expert_block(*p),
                                   lambda p: l2_normalize(relu(affine(*p)), axis=-1), [h, w, b],
                                   [h_taped, True, True])

    @pytest.mark.parametrize("x_taped", [True, False])
    def test_affine_is_matmul_then_add_bitwise(self, x_taped):
        x, w, b = self.rng.normal(size=(6, 5)), self.rng.normal(size=(5, 3)), self.rng.normal(size=3)
        _assert_bitwise_like_chain(lambda p: affine(*p), lambda p: add(matmul(p[0], p[1]), p[2]),
                                   [x, w, b], [x_taped, True, True])

    def test_expert_block_two_d_weights_bitwise(self):
        h, w, b = self.rng.normal(size=(6, 5)), self.rng.normal(size=(5, 3)), self.rng.normal(size=3)
        _assert_bitwise_like_chain(lambda p: expert_block(*p),
                                   lambda p: l2_normalize(relu(affine(*p)), axis=-1), [h, w, b])

    @pytest.mark.parametrize("num_experts", [None, 1, 2, 4])
    @pytest.mark.parametrize("x_taped", [True, False])
    def test_cosine_logits_bitwise(self, num_experts, x_taped):
        stack = () if num_experts is None else (num_experts,)
        x = l2_normalize(self.rng.normal(size=stack + (6, 3)), axis=-1).values
        w = self.rng.normal(size=stack + (3, 4))
        # A scale that is not a power of two, so that where it is applied shows.
        _assert_bitwise_like_chain(
            lambda p: cosine_logits(p[0], p[1], 13.7),
            lambda p: 13.7 * matmul(p[0], l2_normalize(p[1], axis=-2)),
            [x, w], [x_taped, True],
        )

    @pytest.mark.parametrize("num_experts", [1, 2, 4])
    @pytest.mark.parametrize("weight", [None, 1.3, 0.0])
    def test_loss_fold_bitwise(self, num_experts, weight):
        terms, extra = self.rng.uniform(size=num_experts), np.asarray(self.rng.uniform())
        if weight is None:
            _assert_bitwise_like_chain(lambda p: loss_fold(p[0]), lambda p: reduce_sum(p[0]),
                                       [terms], scalarize=False)
        else:
            _assert_bitwise_like_chain(lambda p: loss_fold(p[0], p[1], weight),
                                       lambda p: reduce_sum(p[0]) + weight * p[1],
                                       [terms, extra], scalarize=False)

    def test_loss_fold_adds_terms_as_a_left_fold(self):
        v = np.array([1e16] + [1.0] * 8 + [-1e16])
        assert loss_fold(Tensor(v)).item() == reduce_sum(Tensor(v)).item() == 0.0
        with pytest.raises(ShapeError, match="loss_fold"):
            loss_fold(Tensor(v), Tensor(np.ones(2)))

    @pytest.mark.parametrize("mode", [None, "train", "eval"])
    def test_dense_bn_relu_gradients(self, mode):
        x = self.rng.normal(size=(5, 3))
        w, b = self.rng.normal(size=(3, 4)), self.rng.normal(size=4)
        gamma, beta = 1.0 + 0.1 * self.rng.normal(size=4), 0.1 * self.rng.normal(size=4)
        seed = int(self.rng.integers(1 << 30))

        def f(p):
            norm = None
            if mode is not None:
                norm = (_norm_state(np.random.default_rng(seed), 4), p[3], p[4])
            return self._scalarize(dense_bn_relu(p[0], p[1], p[2], norm, train=mode == "train"))

        arrays = [x, w, b, gamma, beta] if mode is not None else [x, w, b]
        check_function_gradients(f, arrays)

    @pytest.mark.parametrize("num_experts", [1, 2, 4])
    def test_expert_block_gradients(self, num_experts):
        h = self.rng.normal(size=(4, 3))
        w, b = self.rng.normal(size=(num_experts, 3, 2)), self.rng.normal(size=(num_experts, 2))
        check_function_gradients(lambda p: self._scalarize(expert_block(*p)), [h, w, b])

    @pytest.mark.parametrize("num_experts", [None, 2])
    def test_cosine_logits_gradients(self, num_experts):
        stack = () if num_experts is None else (num_experts,)
        x, w = self.rng.normal(size=stack + (4, 3)), self.rng.normal(size=stack + (3, 5))
        check_function_gradients(lambda p: self._scalarize(cosine_logits(p[0], p[1], 8.0)), [x, w])

    def test_loss_fold_gradients(self):
        terms, extra = self.rng.normal(size=3), np.asarray(self.rng.normal())
        check_function_gradients(lambda p: loss_fold(p[0], p[1], 1.7), [terms, extra])
        check_function_gradients(lambda p: loss_fold(p[0]), [terms])

    def test_untaped_inputs_record_nothing(self):
        h, w = Tensor(self.rng.normal(size=(4, 3))), Tensor(self.rng.normal(size=(2, 3, 5)))
        b, cls = Tensor(self.rng.normal(size=(2, 5))), Tensor(self.rng.normal(size=(2, 5, 6)))
        reps = expert_block(h, w, b)
        for out in (dense_bn_relu(h, w.values[0], b.values[0]), reps, cosine_logits(reps, cls, 4.0),
                    loss_fold(Tensor(np.ones(2)), Tensor(1.0), 0.5)):
            assert out.tape is None


# name -> (op over the input Tensors, input shapes). Norm states are made per
# call, so every run starts from the same statistics.
_LIFETIME_CASES = {
    "add": (lambda p: add(p[0], p[1]), [(3, 4), (4,)]),
    "mul": (lambda p: mul(p[0], p[1]), [(3, 4), (3, 4)]),
    "matmul": (lambda p: matmul(p[0], p[1]), [(3, 4), (2, 4, 5)]),
    "affine": (lambda p: affine(p[0], p[1], p[2]), [(3, 4), (2, 4, 5), (2, 5)]),
    "affine_2d": (lambda p: affine(p[0], p[1], p[2]), [(3, 4), (4, 5), (5,)]),
    "relu": (lambda p: relu(p[0]), [(3, 4)]),
    "concat_last_axis": (lambda p: concat_last_axis(p), [(3, 2), (3, 4)]),
    "mean": (lambda p: reduce_mean(p[0]), [(3, 4)]),
    "sum": (lambda p: reduce_sum(p[0]), [(3, 4)]),
    "l2_normalize": (lambda p: l2_normalize(p[0]), [(3, 4)]),
    "softmax_cross_entropy": (
        lambda p: softmax_cross_entropy(p[0], [0, 2, 1], [1.0, 2.0, 0.5]), [(2, 3, 3)]),
    "batch_norm_train": (
        lambda p: batch_norm(p[0], NormStatsState.for_features(4), p[1], p[2]),
        [(3, 4), (4,), (4,)]),
    "batch_norm_eval": (
        lambda p: batch_norm(p[0], _norm_state(np.random.default_rng(0), 4), p[1], p[2], train=False),
        [(3, 4), (4,), (4,)]),
    "dense_bn_relu_bias": (lambda p: dense_bn_relu(p[0], p[1], p[2]), [(3, 4), (4, 5), (5,)]),
    "dense_bn_relu_bias_norm": (
        lambda p: dense_bn_relu(p[0], p[1], p[2], (NormStatsState.for_features(5), p[3], p[4])),
        [(3, 4), (4, 5), (5,), (5,), (5,)]),
    "dense_bn_relu_norm_eval": (
        lambda p: dense_bn_relu(p[0], p[1], p[2], (_norm_state(np.random.default_rng(0), 5), p[3], p[4]),
                                train=False),
        [(3, 4), (4, 5), (5,), (5,), (5,)]),
    "expert_block_bias": (lambda p: expert_block(p[0], p[1], p[2]), [(3, 4), (2, 4, 5), (2, 5)]),
    "expert_block_2d": (lambda p: expert_block(p[0], p[1], p[2]), [(3, 4), (4, 5), (5,)]),
    "cosine_logits": (lambda p: cosine_logits(p[0], p[1], 8.0), [(2, 3, 4), (2, 4, 5)]),
    "loss_fold": (lambda p: loss_fold(p[0]), [(3,)]),
    "loss_fold_extra": (lambda p: loss_fold(p[0], p[1], 1.7), [(3,), ()]),
}


def _lifetime_params():
    """Every case with all inputs taped, and with each input in turn a constant."""
    for name, (_, shapes) in _LIFETIME_CASES.items():
        yield pytest.param(name, None, id=f"{name}-all_taped")
        if len(shapes) > 1:
            for i in range(len(shapes)):
                yield pytest.param(name, i, id=f"{name}-input{i}_constant")


def _forward_backward(name, constant):
    """Forward and backward on a fresh tape; returns a weak reference to it."""
    op, shapes = _LIFETIME_CASES[name]
    rng = np.random.default_rng(5)
    tape = Tape()
    inputs = [Tensor(rng.normal(size=s)) if i == constant else tape.leaf(rng.normal(size=s))
              for i, s in enumerate(shapes)]
    out = op(inputs)
    loss = out if out.shape == () else reduce_sum(mul(out, Tensor(rng.normal(size=out.shape))))
    grads = backward(loss)
    assert sorted(grads) == [t.tape_id for t in inputs if t.tape_id is not None]
    assert all(g.tape is None for g in grads.values())
    return weakref.ref(tape)


class TestTapeLifetime:
    """A tape holds no Tensor, so it is in no reference cycle: with the cyclic
    collector off, it is freed once the caller drops its Tensors."""

    @pytest.mark.parametrize("name, constant", list(_lifetime_params()))
    def test_tape_freed_without_cyclic_collector(self, name, constant):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape_ref = _forward_backward(name, constant)
            assert tape_ref() is None
        finally:
            if was_enabled:
                gc.enable()
