"""Dense float64 tensors with a define-by-run reverse-mode differentiation tape.

The op set is deliberately closed. The primitives are matmul, affine, add,
mul, relu, concat_last_axis, mean, sum, plus detach, l2_normalize,
softmax_cross_entropy and batch_norm. Elementwise ops allow only exact shape
matches, scalars, and trailing-axis (bias-style) broadcasts; there is no
general broadcasting.

The composites fuse the fixed chains of the multi-expert model, each into one
tape node with a hand-written adjoint:
  dense_bn_relu  relu(batch_norm(x @ w + b)), bias and norm layer optional
  expert_block   l2_normalize(relu(x @ w + b), axis=-1) over a [K, H, R] stack
  cosine_logits  scale * (x @ l2_normalize(w, axis=-2))
  loss_fold      sum(terms) + weight * extra, the terms added in index order
A composite evaluates the same numpy expressions, in the same order, as the
primitive chain it replaces, adjoints included, so the two are bit-identical;
the primitives share those expressions through the private ``_*_parts``
helpers below.

Stacked operands carry a leading axis of K independent blocks (the experts),
so K blocks cost one op instead of K:
  matmul   [B, H] @ [K, H, R] -> [K, B, R]  (one input shared by every block)
           [K, B, R] @ [K, R, L] -> [K, B, L]
  affine   x @ w + b with b added to every row: [B, H], [H, R], [R] or
           [B, H], [K, H, R], [K, R]
  softmax_cross_entropy  [K, B, L] logits -> the K per-block losses
relu, l2_normalize and the elementwise ops work on any shape. Every stacked
op computes each block with the same numpy calls, in the same order, as the
2-D op on that block alone, so a stacked chain is bit-identical to K 2-D
chains; where K blocks feed one input, its gradient adds the blocks last
first, as the reverse sweep over K 2-D ops would.

A Tape is rebuilt per forward pass. Nodes are appended in execution order, so
insertion order is a topological order and backward() is a single reverse
sweep. Tensors and the tape they link to are confined to one thread.

Forward ops compute only their output; whatever only the adjoint needs (the
relu mask, the l2_normalize dead-slice mask) is built inside the backward
closure, so forward-only passes never pay for it. A Tensor points at its tape,
but the tape points at no Tensor: its leaves are kept as value arrays and its
adjoint closures capture arrays, shapes and flags only. A tape is thus never
part of a reference cycle, and reference counting frees it, with every saved
activation, as soon as the caller drops its last Tensor on it.
An op whose inputs are all detached records no node: nothing upstream of it
can receive a gradient through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

DEFAULT_NORM_EPS = 1e-12
BATCH_NORM_EPS = 1e-5


def _as_array(values) -> Array:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """A dense float64 value, optionally linked to a node on a Tape.

    Tensors are treated as immutable once created; ops return new tensors.
    A Tensor keeps its tape alive, never the other way round; gradients are
    read from the map that :func:`backward` returns.
    """

    __slots__ = ("values", "tape", "tape_id")

    def __init__(self, values, tape: Optional["Tape"] = None, tape_id: Optional[int] = None):
        self.values = _as_array(values)
        self.tape = tape
        self.tape_id = tape_id

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def detach(self) -> "Tensor":
        return detach(self)

    def sum(self) -> "Tensor":
        return reduce_sum(self)

    def mean(self) -> "Tensor":
        return reduce_mean(self)

    def __add__(self, other) -> "Tensor":
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, _wrap(other))

    def __repr__(self) -> str:
        link = f", tape_id={self.tape_id}" if self.tape_id is not None else ""
        return f"Tensor(shape={self.shape}{link})"


def _new(values, tape: Optional["Tape"] = None, tape_id: Optional[int] = None) -> Tensor:
    """Tensor over a float64 value an op just computed, without re-wrapping it.

    Elementwise ops on two 0-d arrays yield a numpy scalar; only that case
    needs wrapping back into an array.
    """
    t = Tensor.__new__(Tensor)
    t.values = values if type(values) is np.ndarray else np.asarray(values, dtype=np.float64)
    t.tape = tape
    t.tape_id = tape_id
    return t


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass(slots=True)
class TapeNode:
    """One recorded op. ``backward_fn`` maps the output adjoint to one
    gradient array per recorded (tape-linked) input, in input order; a leaf
    has none."""

    op_kind: str
    input_ids: tuple
    backward_fn: Optional[Callable[[Array], tuple]]


class Tape:
    """Append-only record of differentiable operations.

    Every node's inputs appear earlier in the sequence, so reverse insertion
    order is a valid order for the backward sweep. Saved activations live in
    each node's backward closure. The tape holds arrays only (leaf values and
    what the closures saved), never a Tensor.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._leaves: dict[int, Array] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, values) -> Tensor:
        """Register ``values`` as a differentiable leaf (parameter or input)."""
        arr = values.values if isinstance(values, Tensor) else _as_array(values)
        t = _new(arr, self, self._append("leaf", (), None))
        self._leaves[t.tape_id] = arr
        return t

    def _append(self, op_kind: str, input_ids: tuple, backward_fn) -> int:
        nodes = self.nodes
        nodes.append(TapeNode(op_kind, input_ids, backward_fn))
        return len(nodes) - 1


def _record(op_kind: str, inputs: Sequence[Tensor], out_values: Array, adjoints) -> Tensor:
    """Record one op with any number of inputs on the (single) tape they live on.

    ``adjoints(g, need)`` maps the output adjoint to one gradient per input,
    in input order; ``need[i]`` says whether input i is tape-linked, and the
    gradients of the others are dropped, so they need not be computed.
    Detached tensors keep tape provenance but no node id; they anchor the
    result to the tape without contributing a gradient path. ``adjoints``
    must capture arrays, shapes and flags only, never a Tensor: a Tensor
    points at its tape, and the tape would then be part of a cycle.
    """
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError(f"{op_kind}: operands belong to different tapes")
    if tape is None:
        return _new(out_values)
    need = tuple(t.tape_id is not None for t in inputs)
    input_ids = tuple(t.tape_id for t in inputs if t.tape_id is not None)
    if not input_ids:
        return _new(out_values, tape)

    def backward_fn(gout: Array) -> tuple:
        return tuple([g for g, wanted in zip(adjoints(gout, need), need) if wanted])

    return _new(out_values, tape, tape._append(op_kind, input_ids, backward_fn))


def _each(grad_fns) -> Callable:
    """``adjoints`` for an op whose inputs' gradients are independent maps."""
    return lambda g, need: [fn(g) if wanted else None for fn, wanted in zip(grad_fns, need)]


def backward(loss: Tensor) -> dict:
    """Reverse sweep from a scalar, tape-linked loss.

    Returns a map from tape_id to gradient Tensor covering every leaf on the
    tape; leaves unreachable from the loss get exact zeros.
    """
    if loss.tape is None:
        raise ContractError("backward: loss is not linked to a tape")
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    nodes = tape.nodes
    # A loss that is itself detached has no node; every leaf gets zeros.
    start = loss.tape_id if loss.tape_id is not None else -1
    adjoint: dict[int, Array] = {} if start < 0 else {start: np.ones_like(loss.values)}
    for node_id in range(start, -1, -1):
        node = nodes[node_id]
        if node.backward_fn is None:
            continue
        # An op's adjoint is complete once the sweep reaches it; only leaf
        # adjoints are read after the sweep.
        gout = adjoint.pop(node_id, None)
        if gout is None:
            continue
        for input_id, g in zip(node.input_ids, node.backward_fn(gout)):
            if g is None:
                continue
            prev = adjoint.get(input_id)
            adjoint[input_id] = g if prev is None else prev + g
    grads: dict[int, Tensor] = {}
    for node_id, values in tape._leaves.items():
        g = adjoint.get(node_id)
        grads[node_id] = Tensor(np.zeros_like(values) if g is None else g)
    return grads


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def _check_elementwise(op_kind: str, sa: tuple, sb: tuple) -> None:
    """Allow equal shapes, scalars, and trailing-axis broadcasts only."""
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return
    raise ShapeError(f"{op_kind}: cannot combine shapes {sa} and {sb}")


def _reduce_to(g: Array, shape: tuple) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    reduced = g.sum(axis=tuple(range(extra))) if extra else g
    return reduced.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.values.shape, b.values.shape
    _check_elementwise("add", sa, sb)
    return _record("add", (a, b), a.values + b.values,
                   _each((lambda g: _reduce_to(g, sa), lambda g: _reduce_to(g, sb))))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values
    sa, sb = av.shape, bv.shape
    _check_elementwise("mul", sa, sb)
    return _record("mul", (a, b), av * bv,
                   _each((lambda g: _reduce_to(g * bv, sa), lambda g: _reduce_to(g * av, sb))))


def _matmul_parts(op_kind: str, av: Array, bv: Array) -> tuple:
    """Product of 2-D or stacked operands, plus the adjoint map of each input."""
    if not (av.ndim in (2, 3) and bv.ndim in (2, 3) and av.ndim <= bv.ndim):
        raise ShapeError(
            f"{op_kind}: operands must be [B, H] @ [H, R], [B, H] @ [K, H, R] or "
            f"[K, B, H] @ [K, H, R], got {av.shape} and {bv.shape}"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"{op_kind}: inner dimensions differ for {av.shape} and {bv.shape}")
    if av.ndim == 3 and av.shape[0] != bv.shape[0]:
        raise ShapeError(f"{op_kind}: stacks differ for {av.shape} and {bv.shape}")
    if av.ndim < bv.ndim:
        def ga(g: Array) -> Array:
            # Sum the blocks' contributions last block first, the order in
            # which a reverse sweep over K separate matmuls would add them.
            parts = g @ np.swapaxes(bv, -1, -2)
            acc = parts[-1]
            for k in range(len(parts) - 2, -1, -1):
                acc = acc + parts[k]
            return acc
    else:
        def ga(g: Array) -> Array:
            return g @ np.swapaxes(bv, -1, -2)
    return av @ bv, ga, lambda g: np.swapaxes(av, -1, -2) @ g


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out, ga, gb = _matmul_parts("matmul", a.values, b.values)
    return _record("matmul", (a, b), out, _each((ga, gb)))


def _affine_parts(op_kind: str, x, w, b) -> tuple:
    """x @ w, plus b when given: the output, the inputs [x, w(, b)], and
    their ``adjoints`` map."""
    x, w = _wrap(x), _wrap(w)
    out, gx, gw = _matmul_parts(op_kind, x.values, w.values)
    inputs = [x, w]
    if b is not None:
        b = _wrap(b)
        if b.shape != w.shape[:-2] + w.shape[-1:]:
            raise ShapeError(f"{op_kind}: bias shape {b.shape} does not match weights {w.shape}")
        out += b.values[..., None, :]
        inputs.append(b)
    has_bias = b is not None

    def adjoints(g: Array, need: tuple) -> list:
        grads = [gx(g) if need[0] else None, gw(g) if need[1] else None]
        if has_bias:
            grads.append(g.sum(axis=-2) if need[2] else None)
        return grads

    return out, inputs, adjoints


def affine(x, w, b=None) -> Tensor:
    """x @ w + b, with b added to every row of each block: one node for both.

    b has w's shape without its input axis: [R] for w [H, R], [K, R] for a
    stack w [K, H, R]. With b None the output is the bits of matmul(x, w).
    """
    out, inputs, adjoints = _affine_parts("affine", x, w, b)
    return _record("affine", inputs, out, adjoints)


def relu(x) -> Tensor:
    x = _wrap(x)
    # fmax(v, 0) is bit-identical to where(v > 0, v, 0) (-0.0, NaN and inf
    # included) and much faster; out > 0 exactly where v > 0.
    out = np.fmax(x.values, 0.0)
    return _record("relu", (x,), out, _each((lambda g: g * (out > 0),)))


def concat_last_axis(tensors: Sequence[Tensor]) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ContractError("concat_last_axis: needs at least one input")
    lead = tensors[0].shape[:-1] if tensors[0].values.ndim else None
    if lead is None:
        raise ShapeError("concat_last_axis: scalar inputs have no axis to concatenate")
    for t in tensors[1:]:
        if t.values.ndim != tensors[0].values.ndim or t.shape[:-1] != lead:
            raise ShapeError(
                "concat_last_axis: shapes must agree in all but the last axis, got "
                f"{[t.shape for t in tensors]}"
            )
    widths = [t.shape[-1] for t in tensors]
    offsets = np.cumsum([0] + widths)
    out = np.concatenate([t.values for t in tensors], axis=-1)

    def slice_fn(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[..., lo:hi]

    return _record("concat_last_axis", tensors, out,
                   _each([slice_fn(i) for i in range(len(tensors))]))


def reduce_mean(x) -> Tensor:
    x = _wrap(x)
    n, shape = x.values.size, x.values.shape
    return _record("mean", (x,), np.asarray(x.values.mean()),
                   _each((lambda g: np.full(shape, float(g) / n),)))


def reduce_sum(x) -> Tensor:
    """Sum of every element, added in index order (a left fold).

    That is the order of a chain of scalar adds, so the sum of a stack of K
    losses has the bits of adding the K losses one by one; ndarray.sum pairs
    the terms of longer vectors differently.
    """
    x = _wrap(x)
    shape = x.values.shape
    return _record("sum", (x,), np.asarray(_left_fold(x.values)),
                   _each((lambda g: np.full(shape, float(g)),)))


def _left_fold(values: Array):
    flat = values.reshape(-1)
    return np.add.accumulate(flat)[-1] if flat.size else np.float64(0.0)


def detach(x) -> Tensor:
    """Same values, no tape node: consumers treat it as a constant.

    Tape provenance is retained so graphs built purely on detached values
    still resolve against the tape's leaves (with exact zero gradients).
    """
    x = _wrap(x)
    return _new(x.values, x.tape)


# ---------------------------------------------------------------------------
# normalization and losses
# ---------------------------------------------------------------------------


def _l2_parts(v: Array, axis: int) -> tuple:
    """l2_normalize's output and its adjoint map."""
    norm = np.sqrt((v * v).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, DEFAULT_NORM_EPS)
    out = v / denom

    def gx(g: Array) -> Array:
        keep = (norm >= DEFAULT_NORM_EPS).astype(np.float64)
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (g - keep * out * inner) / denom

    return out, gx


def l2_normalize(x, axis: int = -1) -> Tensor:
    """Scale slices along ``axis`` to unit Euclidean norm.

    The divisor is max(norm, DEFAULT_NORM_EPS), so slices with a smaller norm
    (dead features) pass through scaled by 1/DEFAULT_NORM_EPS instead of
    producing NaN.
    """
    x = _wrap(x)
    out, gx = _l2_parts(x.values, axis)
    return _record("l2_normalize", (x,), out, _each((gx,)))


def softmax_cross_entropy(logits, labels, class_weights=None) -> Tensor:
    """Batch-mean (optionally class-weighted) softmax cross-entropy.

    logits: [B, L], or a stack [K, B, L] scored against the same labels, which
    yields the K per-block losses as a [K] tensor; labels: length-B class
    indices; class_weights: optional length-L positive weights. Uses
    max-subtraction for stability. With all weights equal to 1 the result is
    bit-identical to the unweighted loss.
    """
    logits = _wrap(logits)
    if logits.values.ndim not in (2, 3):
        raise ShapeError(
            f"softmax_cross_entropy: logits must be [B, L] or [K, B, L], got {logits.shape}"
        )
    batch, num_classes = logits.shape[-2:]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch,):
        raise ShapeError(
            f"softmax_cross_entropy: labels must have shape ({batch},), got {labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise IndexError(
            f"softmax_cross_entropy: label out of range [0, {num_classes})"
        )
    if class_weights is None:
        weights = np.ones(num_classes)
    else:
        weights = _as_array(class_weights)
        if weights.shape != (num_classes,):
            raise ShapeError(
                f"softmax_cross_entropy: class_weights must have shape ({num_classes},), "
                f"got {weights.shape}"
            )
        if np.any(weights <= 0):
            raise ContractError("softmax_cross_entropy: class_weights must be positive")

    v = logits.values
    shifted = v - v.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    rows = np.arange(batch)
    per_sample_w = weights[labels]
    # Fancy indexing a stack yields a column-major [K, B]; copied to rows,
    # each block's mean sums in the order of the 2-D case.
    picked = np.ascontiguousarray(log_probs[..., rows, labels])
    out = np.asarray((per_sample_w * -picked).mean(axis=-1))

    def glogits(g: Array) -> Array:
        grad = np.exp(log_probs) * (per_sample_w / batch)[:, None]
        grad[..., rows, labels] -= per_sample_w / batch
        return np.asarray(g)[..., None, None] * grad

    return _record("softmax_cross_entropy", (logits,), out, _each((glogits,)))


@dataclass
class NormStatsState:
    """Per-feature running statistics for one normalization layer.

    ``mode`` selects batch statistics (train) or running statistics (eval)
    at forward time.
    """

    running_mean: Array
    running_var: Array
    mode: str = "train"  # "train" | "eval"

    @classmethod
    def for_features(cls, num_features: int) -> "NormStatsState":
        return cls(np.zeros(num_features), np.ones(num_features))


def _bn_parts(op_kind: str, v: Array, state: NormStatsState, gamma_v: Array, beta_v: Array,
              momentum: float, owned: bool = False) -> tuple:
    """batch_norm's output and the adjoint maps of its input, scale and shift.

    With ``owned`` the op may centre ``v`` in place: the caller made it and
    reads it no more.
    """
    if v.ndim != 2:
        raise ShapeError(f"{op_kind}: norm input must be [B, F], got {v.shape}")
    batch = v.shape[0]

    train = state.mode == "train"
    if train and batch < 2:
        raise ContractError(f"{op_kind}: train mode requires a batch of at least 2 samples")

    centred = v if owned else None
    if train:
        mu = v.mean(axis=0)
        x_hat = np.subtract(v, mu, out=centred)
        # The steps of ndarray.var on the centred values it would recompute.
        var = np.square(x_hat).sum(axis=0) / batch
        inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
        state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mu
        state.running_var = (1.0 - momentum) * state.running_var + momentum * var

        def gx(g: Array) -> Array:
            g_hat = g * gamma_v
            return (inv_std / batch) * (
                batch * g_hat - g_hat.sum(axis=0) - x_hat * (g_hat * x_hat).sum(axis=0)
            )
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BATCH_NORM_EPS)
        x_hat = np.subtract(v, state.running_mean, out=centred)

        def gx(g: Array) -> Array:
            return g * gamma_v * inv_std

    x_hat *= inv_std
    out = gamma_v * x_hat
    out += beta_v
    return out, gx, lambda g: (g * x_hat).sum(axis=0), lambda g: g.sum(axis=0)


def batch_norm(x, state: NormStatsState, gamma_scale, beta_shift, momentum: float) -> Tensor:
    """Normalize [B, F] activations per feature.

    Train mode uses batch statistics (population variance) and folds them
    into the running statistics as running <- (1-momentum)*running +
    momentum*batch. Eval mode normalizes by running statistics only.
    """
    x, gamma_scale, beta_shift = _wrap(x), _wrap(gamma_scale), _wrap(beta_shift)
    out, gx, ggamma, gbeta = _bn_parts(
        "batch_norm", x.values, state, gamma_scale.values, beta_shift.values, momentum
    )
    return _record("batch_norm", (x, gamma_scale, beta_shift), out, _each((gx, ggamma, gbeta)))


# ---------------------------------------------------------------------------
# composites: one node each for the fixed chains of the multi-expert model
# ---------------------------------------------------------------------------


def dense_bn_relu(x, w, b=None, norm=None, momentum: float = 0.1) -> Tensor:
    """relu(batch_norm(x @ w + b)) as one node: a backbone layer.

    ``b`` is None for a bias-free layer. ``norm`` is None for no norm layer,
    else (state, gamma, beta) as batch_norm takes them, in train or eval
    mode.

    Unlike the chain, the op writes its intermediates in place where nothing
    reads them again, so it holds fewer activation-sized buffers at once.
    """
    out, inputs, gaffine = _affine_parts("dense_bn_relu", x, w, b)
    has_norm = norm is not None
    if has_norm:
        state, gamma, beta = norm
        gamma, beta = _wrap(gamma), _wrap(beta)
        out, gnorm, ggamma, gbeta = _bn_parts(
            "dense_bn_relu", out, state, gamma.values, beta.values, momentum, owned=True
        )
        inputs += [gamma, beta]
    # As relu: fmax is bit-identical to where(v > 0, v, 0), and out > 0
    # exactly where the input was. It writes over the op's own intermediate.
    out = np.fmax(out, 0.0, out=out)

    def adjoints(g: Array, need: tuple) -> list:
        g = g * (out > 0)
        tail = []
        if has_norm:
            tail = [ggamma(g) if need[-2] else None, gbeta(g) if need[-1] else None]
            g = gnorm(g)
        return gaffine(g, need) + tail

    return _record("dense_bn_relu", inputs, out, adjoints)


def expert_block(x, w, b=None) -> Tensor:
    """l2_normalize(relu(x @ w + b), axis=-1) as one node: the stacked expert layer.

    x [B, H] is shared by a stack w [K, H, R] (b [K, R], or None for no bias)
    and yields K blocks of unit rows [K, B, R]; 2-D weights work as well.
    """
    z, inputs, gaffine = _affine_parts("expert_block", x, w, b)
    r = np.fmax(z, 0.0, out=z)
    out, gnorm = _l2_parts(r, -1)
    return _record("expert_block", inputs, out, lambda g, need: gaffine(gnorm(g) * (r > 0), need))


def cosine_logits(x, w, scale: float) -> Tensor:
    """scale * (x @ l2_normalize(w, axis=-2)) as one node: a cosine classifier.

    The columns of w [R, L] (or of each block of a stack [K, R, L]) are scaled
    to unit norm; x holds the unit feature rows, [B, R] or [K, B, R].
    """
    x, w = _wrap(x), _wrap(w)
    unit_w, gnorm = _l2_parts(w.values, -2)
    logits, gx, gunit = _matmul_parts("cosine_logits", x.values, unit_w)
    s = _as_array(scale)
    out = logits * s

    def adjoints(g: Array, need: tuple) -> list:
        g = g * s
        return [gx(g) if need[0] else None, gnorm(gunit(g)) if need[1] else None]

    return _record("cosine_logits", (x, w), out, adjoints)


def loss_fold(terms, extra=None, weight: float = 1.0) -> Tensor:
    """sum(terms) + weight * extra as one node; ``extra`` (a scalar) may be None.

    The terms add in index order, as reduce_sum adds them, and the weighted
    extra term comes last, as reduce_sum(terms) + weight * extra would.
    """
    terms = _wrap(terms)
    shape = terms.values.shape
    total = _left_fold(terms.values)
    inputs = [terms]
    w = _as_array(weight)
    if extra is not None:
        extra = _wrap(extra)
        if extra.values.shape != ():
            raise ShapeError(f"loss_fold: extra term must be a scalar, got shape {extra.shape}")
        total = total + extra.values * w
        inputs.append(extra)
    has_extra = extra is not None

    def adjoints(g: Array, need: tuple) -> list:
        return [np.full(shape, float(g)) if need[0] else None] + (
            [g * w if need[1] else None] if has_extra else []
        )

    return _record("loss_fold", inputs, np.asarray(total), adjoints)
