"""The multi-expert network and its ablation variants.

A shared two-layer feedforward backbone feeds ``num_experts`` independent
expert blocks (one affine+relu layer each) with cosine classifiers: logits
are scale * <unit feature row, unit class column>. The auxiliary classifier
consumes the gradient-detached, re-normalized concatenation of all expert
representations and is the sole prediction path at test time, except for the
aggregate_predictions baseline which averages per-expert softmaxes instead.

Parameters live in one contiguous float64 vector; ``DamelModel.params``
holds named views into it, each tensor one contiguous span. The K expert
blocks are three stacked tensors, ``experts.w`` [K, H, R], ``experts.b``
[K, R] and ``experts.cls`` [K, R, L].

Every forward runs on the tensor module's composite ops, one tape node per
fixed chain: a ``dense_bn_relu`` per backbone layer, one ``expert_block`` for
the K stacked experts and a ``cosine_logits`` per classifier head, so the
tape length does not depend on K. Training steps take this one path, and
it stays the reference for eval.

``predict`` does not: it runs a plain-numpy argmax-only kernel. Once per call
it folds each backbone layer's eval norm into its affine, lays the K expert
affines side by side as one matrix, and scales the head columns to unit
norm; then it walks its input in fixed blocks of ``PREDICT_BLOCK_ROWS`` rows,
so its memory does not depend on the set size. With an auxiliary head the
kernel skips the expert cosine heads and the row renormalization, 1/K and
scale of that head, all positive row factors the argmax cannot see. Its
scores may thus differ from the composite logits in the last bits, and a
prediction only at an exact near-tie.

``full_forward`` is the one composite forward; its ``train`` flag, not the
norm states, picks batch or running norm statistics. ``backbone_layers``
lists the shared trunk's layers for it, for the norm-statistics pass, which
walks them one at a time in plain numpy, and for ``predict``'s fold.

Variants:
  standard                concatenated detached representations -> aux head
  aggregate_predictions   no aux head; predict via mean expert softmax
  average_representations aux head consumes the elementwise mean instead
  capacity_controlled     one expert whose representation width matches the
                          concatenation of ``ref_experts`` standard experts
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    BATCH_NORM_EPS,
    DEFAULT_NORM_EPS,
    NormStatsState,
    Tape,
    Tensor,
    cosine_logits,
    dense_bn_relu,
    expert_block,
    l2_normalize,
)

VARIANTS = ("standard", "aggregate_predictions", "average_representations", "capacity_controlled")

# Rows per block in ``predict``. At the default widths (K=3, R=32) a
# block's largest transient array, the [rows, K*R] expert affine, is 96 KiB:
# under glibc's 128 KiB mmap threshold, so every block reuses the same heap
# memory. With 256-row blocks a K=4 run still faulted most of it back in.
PREDICT_BLOCK_ROWS = 128


@dataclass
class DamelConfig:
    num_experts: int
    input_dim: int
    hidden_dim: int
    rep_dim: int
    num_classes: int
    scale: float = 16.0
    variant: str = "standard"
    use_norm_layers: bool = False
    ref_experts: Optional[int] = None

    def validate(self) -> "DamelConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        for name in ("num_experts", "input_dim", "hidden_dim", "rep_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.variant == "capacity_controlled":
            if self.num_experts != 1:
                raise ConfigError("capacity_controlled uses exactly one expert")
            if not self.ref_experts or self.ref_experts < 1:
                raise ConfigError("capacity_controlled needs ref_experts >= 1")
        return self

    @property
    def expert_rep_dim(self) -> int:
        """Representation width of each expert block."""
        if self.variant == "capacity_controlled":
            return self.rep_dim * self.ref_experts
        return self.rep_dim

    @property
    def aux_input_dim(self) -> Optional[int]:
        """Width of the auxiliary classifier input, None when it has none."""
        if self.variant == "aggregate_predictions":
            return None
        if self.variant == "average_representations":
            return self.rep_dim
        return self.num_experts * self.expert_rep_dim


@dataclass
class ForwardOutput:
    """Stacked expert outputs: logits [K, B, L] and unit representations [K, B, R]."""

    expert_logits: Tensor
    normalized_reps: Tensor
    aux_logits: Optional[Tensor] = None


def _layout(config: DamelConfig) -> list:
    """The flat parameter order: [(name, shape)], each tensor one span."""
    h = config.hidden_dim
    layout = []
    for i, fan_in in ((1, config.input_dim), (2, h)):
        layout += [(f"backbone.w{i}", (fan_in, h)), (f"backbone.b{i}", (h,))]
        if config.use_norm_layers:
            layout += [(f"backbone.bn{i}.gamma", (h,)), (f"backbone.bn{i}.beta", (h,))]
    k, rep = config.num_experts, config.expert_rep_dim
    layout += [("experts.w", (k, h, rep)), ("experts.b", (k, rep)),
               ("experts.cls", (k, rep, config.num_classes))]
    if config.aux_input_dim is not None:
        layout.append(("aux.cls", (config.aux_input_dim, config.num_classes)))
    return layout


def param_count(config: DamelConfig) -> int:
    return sum(prod(shape) for _, shape in _layout(config))


def param_views(config: DamelConfig, flat: np.ndarray) -> dict:
    """name -> view of ``flat`` shaped like that parameter, in flat order."""
    views, offset = {}, 0
    for name, shape in _layout(config):
        size = prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


class DamelModel:
    """One contiguous parameter vector with named views, plus norm-layer statistics.

    ``buffer`` is the flat float64 vector; ``params`` maps each name to a
    view into it and cannot be rebound, so every write goes through the
    views. The model owns no copy of ``buffer``: two models over one vector
    share their weights. The forward lives below.
    """

    def __init__(self, config: DamelConfig, buffer: np.ndarray, norm_states: dict):
        count = param_count(config)
        if buffer.dtype != np.float64 or buffer.shape != (count,):
            raise ShapeError(
                f"DamelModel: expected a float64 vector of {count} values, "
                f"got {buffer.dtype} {buffer.shape}"
            )
        self.config = config
        self.buffer = buffer
        self.params = MappingProxyType(param_views(config, buffer))
        self.norm_states = norm_states


def _fan_in_uniform(rng, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: DamelConfig, seed: int) -> DamelModel:
    """Deterministic init; each expert block draws from its own seed stream.

    The backbone's ``[seed, 0]`` and the aux head's ``[seed, 2]`` are the data's
    class-center and test-noise streams when ``seed`` equals ``base_seed``, as
    in run seed 0 of every default config; ROADMAP item 7 will retag them."""
    config.validate()
    norm_states: dict[str, NormStatsState] = {}
    if config.use_norm_layers:
        for name in ("backbone.bn1", "backbone.bn2"):
            norm_states[name] = NormStatsState.for_features(config.hidden_dim)
    model = DamelModel(config, np.zeros(param_count(config)), norm_states)
    p = model.params  # biases and norm shifts stay zero

    backbone_rng = np.random.default_rng([seed, 0])
    p["backbone.w1"][:] = _fan_in_uniform(backbone_rng, (config.input_dim, config.hidden_dim))
    p["backbone.w2"][:] = _fan_in_uniform(backbone_rng, (config.hidden_dim, config.hidden_dim))
    if config.use_norm_layers:
        p["backbone.bn1.gamma"][:] = 1.0
        p["backbone.bn2.gamma"][:] = 1.0

    rep = config.expert_rep_dim
    for k in range(config.num_experts):
        expert_rng = np.random.default_rng([seed, 1, k])
        p["experts.w"][k] = _fan_in_uniform(expert_rng, (config.hidden_dim, rep))
        p["experts.cls"][k] = _fan_in_uniform(expert_rng, (rep, config.num_classes))

    if config.aux_input_dim is not None:
        aux_rng = np.random.default_rng([seed, 2])
        p["aux.cls"][:] = _fan_in_uniform(aux_rng, (config.aux_input_dim, config.num_classes))
    return model


def bind_params(model: DamelModel, tape: Tape, trained=None) -> dict:
    """name -> Tensor per parameter: a leaf on ``tape`` if ``trained`` names
    it (by default every one does), else an untaped constant no step moves."""
    return {name: tape.leaf(p) if trained is None or name in trained else Tensor(p)
            for name, p in model.params.items()}


def param_group(name: str) -> str:
    """'backbone', 'experts' or 'aux' from a parameter name."""
    return name.split(".", 1)[0]


def backbone_layers(model: DamelModel, p: dict) -> list:
    """(w, b, norm) per backbone layer, as dense_bn_relu takes them: norm is
    (state, gamma, beta), or None without norm layers."""
    layers = []
    for i in (1, 2):
        norm = None
        if model.config.use_norm_layers:
            norm = (model.norm_states[f"backbone.bn{i}"], p[f"backbone.bn{i}.gamma"],
                    p[f"backbone.bn{i}.beta"])
        layers.append((p[f"backbone.w{i}"], p[f"backbone.b{i}"], norm))
    return layers


def full_forward(model: DamelModel, x, train: bool = True, params: Optional[dict] = None) -> ForwardOutput:
    """The model's forward: backbone, stacked experts and, unless the variant
    is aggregate_predictions, the auxiliary head.

    With ``train`` the norm layers use batch statistics and fold them into
    their running ones, else they only read the running ones. ``params``
    defaults to the model's own arrays, which every op reads as untaped
    constants. The expert heads give cosine logits [K, B, L], softmax left to
    the loss. The auxiliary head reads the [K, B, R] representations as
    constants (the detach wall), lays them side by side per row
    (standard/capacity) or averages them (average_representations),
    re-normalizes the rows and classifies them by unit-column cosine weights.
    """
    cfg = model.config
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.values.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"forward: input must be [B, {cfg.input_dim}], got {x.shape}")
    p = model.params if params is None else params

    h = x
    for w, b, norm in backbone_layers(model, p):
        h = dense_bn_relu(h, w, b, norm, train)
    reps = expert_block(h, p["experts.w"], p["experts.b"])
    out = ForwardOutput(expert_logits=cosine_logits(reps, p["experts.cls"], cfg.scale),
                        normalized_reps=reps)
    if cfg.variant == "aggregate_predictions":
        return out
    values = reps.values
    if cfg.variant == "average_representations":
        merged = values.sum(axis=0) * (1.0 / cfg.num_experts)
    else:
        k, rows, width = values.shape  # spelt out: -1 cannot be inferred at zero rows
        merged = values.transpose(1, 0, 2).reshape(rows, k * width)
    out.aux_logits = cosine_logits(l2_normalize(merged, axis=1), p["aux.cls"], cfg.scale)
    return out


def _softmax_rows(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _l2_divisor(v: np.ndarray, axis: int) -> np.ndarray:
    """max(norm, eps) of the slices along ``axis``: l2_normalize's divisor."""
    return np.maximum(np.sqrt(np.square(v).sum(axis=axis, keepdims=True)), DEFAULT_NORM_EPS)


def _eval_kernel(model: DamelModel):
    """The scores ``predict`` takes the argmax of, as a function of a block of rows.

    The constants are built here, once per call, and nothing is written into
    ``model.params``: each backbone layer's eval norm folded into its affine,
    the K expert affines side by side as one [H, K*R] matrix, and the
    unit-column head weights. A block then runs on plain numpy. Where an
    auxiliary head predicts, the scores are the unit expert rows, laid side
    by side or summed, against its unit columns: the row renormalization, the
    1/K and the scale of ``full_forward``'s auxiliary head are positive
    factors on a row, which no argmax sees. aggregate_predictions keeps the
    scale and returns the mean expert softmax, which the scale does change.
    """
    cfg = model.config
    layers = []
    for w, b, norm in backbone_layers(model, model.params):
        if norm is not None:
            state, gamma, beta = norm
            s = gamma / np.sqrt(state.running_var + BATCH_NORM_EPS)
            w, b = w * s, (b - state.running_mean) * s + beta
        layers.append((w, b))
    stack = model.params["experts.w"]  # [K, H, R]
    k, hidden, rep = stack.shape
    expert_w = stack.transpose(1, 0, 2).reshape(hidden, k * rep)
    expert_b = model.params["experts.b"].reshape(-1)
    head = model.params["experts.cls" if cfg.variant == "aggregate_predictions" else "aux.cls"]
    head = head / _l2_divisor(head, -2)

    def scores(x: np.ndarray) -> np.ndarray:
        h = x
        for w, b in layers:
            h = h @ w
            h += b
            np.fmax(h, 0.0, out=h)
        z = h @ expert_w
        z += expert_b
        np.fmax(z, 0.0, out=z)
        reps = z.reshape(len(x), k, rep)  # a view: z holds the unit rows side by side
        reps /= _l2_divisor(reps, -1)
        if cfg.variant == "aggregate_predictions":
            logits = np.matmul(reps.swapaxes(0, 1), head)
            logits *= cfg.scale
            return _softmax_rows(logits).mean(axis=0)
        if cfg.variant == "average_representations":
            return reps.sum(axis=1) @ head
        return z @ head

    return scores


def predict(model: DamelModel, x) -> np.ndarray:
    """Class indices of the eval-mode model; ties resolve to the lowest index.

    The rows run through ``_eval_kernel`` in blocks of ``PREDICT_BLOCK_ROWS``,
    each writing its argmax into one preallocated output, so the transient
    memory does not grow with the number of rows. The kernel folds each norm
    layer into its affine and skips what the argmax cannot see, so its scores
    may differ from the composite forward's logits in the last bits, and a
    prediction can differ only at an exact near-tie. ``predict`` reads the
    parameters and norm statistics and writes nothing.
    """
    x = np.asarray(x.values if isinstance(x, Tensor) else x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ShapeError(f"predict: input must be [B, {model.config.input_dim}], got {x.shape}")
    scores = _eval_kernel(model)
    labels = np.empty(len(x), dtype=np.intp)
    for start in range(0, len(x), PREDICT_BLOCK_ROWS):
        stop = start + PREDICT_BLOCK_ROWS
        np.argmax(scores(x[start:stop]), axis=1, out=labels[start:stop])
    return labels
