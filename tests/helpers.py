"""Shared test oracles: finite-difference gradients, random net composition,
and the per-expert reference forward of the multi-expert model.

The finite-difference oracle is deliberately independent of the tape engine:
it only calls the forward path on plain (untaped) tensors and differences the
scalar output. Gradient assertions use relative error with an absolute floor.
"""

from __future__ import annotations

import numpy as np

from damel.tensor import (
    NormStatsState,
    Tape,
    Tensor,
    add,
    backward,
    batch_norm,
    concat_last_axis,
    l2_normalize,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    softmax_cross_entropy,
)

REL_TOL = 1e-4
ABS_FLOOR = 1e-7
FD_STEP = 1e-5


def numeric_gradient(scalar_fn, arrays, h=FD_STEP):
    """Central finite differences of ``scalar_fn()`` wrt each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = scalar_fn()
            flat[i] = orig - h
            f_minus = scalar_fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def assert_gradients_close(analytic, numeric, rel=REL_TOL, floor=ABS_FLOOR):
    for a, n in zip(analytic, numeric):
        a = np.asarray(a)
        scale = np.maximum(np.abs(a), np.abs(n))
        bad = np.abs(a - n) > np.maximum(floor, rel * scale)
        assert not bad.any(), (
            f"gradient mismatch at {np.argwhere(bad)[:5]}: "
            f"analytic {a[bad][:5]} vs numeric {n[bad][:5]}"
        )


def check_function_gradients(forward_fn, arrays, rel=REL_TOL, floor=ABS_FLOOR):
    """Compare tape gradients of ``forward_fn(param_tensors) -> scalar Tensor``
    against the finite-difference oracle, for every parameter array."""
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = forward_fn(leaves)
    grads = backward(loss)
    analytic = [grads[leaf.tape_id].values for leaf in leaves]
    numeric = numeric_gradient(lambda: forward_fn([Tensor(a) for a in arrays]).item(), arrays)
    assert_gradients_close(analytic, numeric, rel=rel, floor=floor)
    return analytic, numeric


def build_random_net(rng, min_layers=2, max_layers=4):
    """Compose a random feedforward net over the closed op set.

    Returns (arrays, forward_fn) where forward_fn maps a list of parameter
    tensors (taped or not) to a scalar loss Tensor. All structural choices
    (widths, layer kinds, labels, each norm layer's running statistics and
    train flag) are frozen at build time, so the forward is a pure function
    of the parameters.
    """
    batch = int(rng.integers(3, 6))
    width = int(rng.integers(3, 7))
    x0 = rng.normal(size=(batch, width))
    arrays = []
    plan = []  # (kind, payload) executed by forward_fn

    def add_param(shape):
        arrays.append(rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0]))
        return len(arrays) - 1

    n_layers = int(rng.integers(min_layers, max_layers + 1))
    for _ in range(n_layers):
        kind = rng.choice(["affine", "affine_norm", "l2norm", "elementwise"])
        if kind == "affine":
            out_w = int(rng.integers(3, 7))
            plan.append(("affine", (add_param((width, out_w)), add_param((out_w,)))))
            width = out_w
        elif kind == "affine_norm":
            out_w = int(rng.integers(3, 7))
            idx_w, idx_b = add_param((width, out_w)), add_param((out_w,))
            idx_g, idx_s = add_param((out_w,)), add_param((out_w,))
            arrays[idx_g] = 1.0 + 0.1 * rng.normal(size=out_w)
            state = NormStatsState(
                running_mean=rng.normal(size=out_w),
                running_var=0.5 + rng.uniform(size=out_w),
            )
            train = rng.choice(["train", "eval"]) == "train"
            plan.append(("affine_norm", (idx_w, idx_b, idx_g, idx_s, state, train)))
            width = out_w
        elif kind == "l2norm":
            plan.append(("l2norm", None))
        else:
            plan.append(("elementwise", add_param((width,))))

    head = rng.choice(["sum_sq", "mean", "ce", "ce_weighted", "cosine_ce", "concat_ce"])
    n_cls = int(rng.integers(2, 5))
    labels = rng.integers(0, n_cls, size=batch)
    weights = 0.5 + rng.uniform(size=n_cls) if head == "ce_weighted" else None
    head_payload = None
    if head in ("ce", "ce_weighted", "cosine_ce"):
        head_payload = add_param((width, n_cls))
    elif head == "concat_ce":
        head_payload = (add_param((width, width)), add_param((2 * width, n_cls)))

    def forward_fn(params):
        h = Tensor(x0)
        for kind, payload in plan:
            if kind == "affine":
                idx_w, idx_b = payload
                h = relu(matmul(h, params[idx_w]) + params[idx_b])
            elif kind == "affine_norm":
                idx_w, idx_b, idx_g, idx_s, state, train = payload
                h = matmul(h, params[idx_w]) + params[idx_b]
                h = relu(batch_norm(h, state, params[idx_g], params[idx_s], train))
            elif kind == "l2norm":
                h = l2_normalize(h, axis=1)
            else:
                h = mul(h, params[payload])
        if head == "sum_sq":
            return reduce_sum(mul(h, h))
        if head == "mean":
            return reduce_mean(h)
        if head == "cosine_ce":
            logits = 8.0 * matmul(l2_normalize(h, axis=1), l2_normalize(params[head_payload], axis=0))
            return softmax_cross_entropy(logits, labels)
        if head == "concat_ce":
            idx_branch, idx_cls = head_payload
            branch = relu(matmul(h, params[idx_branch]))
            merged = concat_last_axis([h, branch])
            return softmax_cross_entropy(matmul(merged, params[idx_cls]), labels)
        return softmax_cross_entropy(matmul(h, params[head_payload]), labels, weights)

    return arrays, forward_fn


def reference_params(model, tape):
    """Per-expert leaves: the backbone, then expert{k}.w/b/cls for each k
    (slice k of the stacked experts.w/b/cls), then aux.cls; each leaf holds a
    copy of its values."""
    params = {n: tape.leaf(v.copy()) for n, v in model.params.items() if n.startswith("backbone.")}
    stacked = [n for n in model.params if n.startswith("experts.")]
    for k in range(model.config.num_experts):
        for name in stacked:
            params[f"expert{k}.{name.split('.', 1)[1]}"] = tape.leaf(model.params[name][k].copy())
    if "aux.cls" in model.params:
        params["aux.cls"] = tape.leaf(model.params["aux.cls"].copy())
    return params


def reference_forward(model, x, params):
    """The model's train forward as a K-loop of 2-D ops, one expert at a time:
    matmul, bias add, relu and l2_normalize per expert, one cosine head per
    expert, and the aux input built with concat_last_axis or an add chain.

    Returns (expert_logits, normalized_reps, aux_logits); the first two are
    lists of [B, *] tensors, aux_logits is None for aggregate_predictions.
    """
    cfg = model.config
    h = Tensor(x)
    for i in (1, 2):
        h = matmul(h, params[f"backbone.w{i}"]) + params[f"backbone.b{i}"]
        if cfg.use_norm_layers:
            h = batch_norm(h, model.norm_states[f"backbone.bn{i}"], params[f"backbone.bn{i}.gamma"],
                           params[f"backbone.bn{i}.beta"])
        h = relu(h)
    reps, logits = [], []
    for k in range(cfg.num_experts):
        z = matmul(h, params[f"expert{k}.w"]) + params[f"expert{k}.b"]
        reps.append(l2_normalize(relu(z), axis=1))
        logits.append(cfg.scale * matmul(reps[k], l2_normalize(params[f"expert{k}.cls"], axis=0)))
    if cfg.variant == "aggregate_predictions":
        return logits, reps, None
    blocked = [Tensor(z.values) for z in reps]
    if cfg.variant == "average_representations":
        merged = blocked[0]
        for z in blocked[1:]:
            merged = add(merged, z)
        merged = (1.0 / cfg.num_experts) * merged
    else:
        merged = concat_last_axis(blocked)
    aux = cfg.scale * matmul(l2_normalize(merged, axis=1), l2_normalize(params["aux.cls"], axis=0))
    return logits, reps, aux


def reference_losses(logits, aux, labels, class_weights, cb_loss_weight):
    """Per-expert cross-entropies, summed one by one, plus the weighted balanced term."""
    expert_ce = [softmax_cross_entropy(l, labels) for l in logits]
    total = expert_ce[0]
    for term in expert_ce[1:]:
        total = total + term
    if aux is not None:
        total = total + cb_loss_weight * softmax_cross_entropy(aux, labels, class_weights)
    return expert_ce, total
