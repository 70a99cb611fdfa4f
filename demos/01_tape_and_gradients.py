#!/usr/bin/env python3
"""Tour of the tensor engine: taped ops, backward, constants, finite differences.

Every training step in this package rebuilds a fresh tape, records the ops it
executes, and differentiates the scalar loss with one reverse sweep. An
untaped constant, Tensor(values), is the engine's one way to stop a gradient:
it is what lets the auxiliary classifier train on expert representations
without pushing its gradients into them.
"""

import numpy as np

from damel.tensor import (
    Tape,
    Tensor,
    backward,
    l2_normalize,
    matmul,
    mul,
    reduce_sum,
    relu,
    softmax_cross_entropy,
)

rng = np.random.default_rng(0)

print("== a scalar loss and its gradients ==")
tape = Tape()
x = tape.leaf([1.0, 2.0, 3.0])
loss = reduce_sum(mul(x, x))  # sum of squares
grads = backward(loss)
print("d/dx sum(x^2) at [1,2,3] ->", grads[x.tape_id].values)

print("\n== an untaped constant blocks gradient flow, not values ==")
tape = Tape()
x = tape.leaf([1.0, 2.0])
doubled = 2.0 * x
constant = Tensor(doubled.values)              # same values, no tape
flowing = reduce_sum(mul(constant, x))         # constant factor, live x
print("constant values:            ", constant.values)
print("grad with constant factor:  ", backward(flowing)[x.tape_id].values)
print("loss on constants is taped: ", reduce_sum(constant).tape is not None)

print("\n== a small cosine-classifier network, checked against finite differences ==")
features = rng.normal(size=(4, 5))
weights = rng.normal(size=(5, 3)) / np.sqrt(5)
labels = np.array([0, 2, 1, 2])


def net_loss(w_array):
    logits = 8.0 * matmul(l2_normalize(relu(Tensor(features)), axis=1),
                          l2_normalize(Tensor(w_array), axis=0))
    return softmax_cross_entropy(logits, labels)


tape = Tape()
w_leaf = tape.leaf(weights)
logits = 8.0 * matmul(l2_normalize(relu(Tensor(features)), axis=1), l2_normalize(w_leaf, axis=0))
analytic = backward(softmax_cross_entropy(logits, labels))[w_leaf.tape_id].values

h = 1e-5
numeric = np.zeros_like(weights)
flat, nflat = weights.reshape(-1), numeric.reshape(-1)
for i in range(flat.size):
    orig = flat[i]
    flat[i] = orig + h
    up = net_loss(weights).item()
    flat[i] = orig - h
    down = net_loss(weights).item()
    flat[i] = orig
    nflat[i] = (up - down) / (2 * h)

worst = np.max(np.abs(analytic - numeric) / np.maximum(1e-7, np.abs(numeric)))
print(f"worst relative disagreement vs central differences: {worst:.2e}")
