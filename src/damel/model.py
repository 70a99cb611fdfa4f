"""The multi-expert network and its ablation variants.

A shared two-layer feedforward backbone feeds ``num_experts`` independent
expert blocks (one affine+relu layer each) with cosine classifiers: logits
are scale * <unit feature row, unit class column>. The auxiliary classifier
consumes the gradient-detached, re-normalized concatenation of all expert
representations and is the sole prediction path at test time, except for the
aggregate_predictions baseline which averages per-expert softmaxes instead.

Parameters live in one contiguous float64 vector; ``DamelModel.params``
holds named views into it. The K expert blocks are three stacked views,
``experts.w`` [K, H, R], ``experts.b`` [K, R] and ``experts.cls`` [K, R, L],
strided over a flat order that keeps each expert's (w, b, cls) together, so
the flat vector (and a checkpoint) is laid out expert by expert.

Every forward runs on the tensor module's composite ops, one tape node per
fixed chain: a ``dense_bn_relu`` per backbone layer, one ``expert_block`` for
the K stacked experts and a ``cosine_logits`` per classifier head, so the
tape length does not depend on K. Training steps and evaluation predicts
take this one path; ``predict`` walks its input in fixed blocks of
``PREDICT_BLOCK_ROWS`` rows, so its memory does not depend on the set size.

``forward_backbone`` is the shared trunk alone. ``backbone_layers`` lists its
layers for the norm-statistics pass, which walks them one at a time and
normalizes each with ``dense_bn_relu`` as well. ``forward_experts`` adds the
expert blocks and their cosine heads; ``predict`` skips those heads when the
auxiliary head makes the prediction.

Variants:
  standard                concatenated detached representations -> aux head
  aggregate_predictions   no aux head; predict via mean expert softmax
  average_representations aux head consumes the elementwise mean instead
  capacity_controlled     one expert whose representation width matches the
                          concatenation of ``ref_experts`` standard experts
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    NormStatsState,
    Tape,
    Tensor,
    cosine_logits,
    dense_bn_relu,
    expert_block,
    l2_normalize,
)

VARIANTS = ("standard", "aggregate_predictions", "average_representations", "capacity_controlled")

BN_MOMENTUM = 0.1

# Rows per forward in ``predict``. At the default widths (K=3, R=32) a
# block's largest transient array, the [K, rows, R] expert affine, is 96 KiB:
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
    use_bias: bool = True
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

    expert_logits: Optional[Tensor]
    normalized_reps: Tensor
    aux_logits: Optional[Tensor] = None


def _layout(config: DamelConfig) -> list:
    """The flat parameter order as runs of blocks: [(stack, [(name, shape), ...])].

    A run holds ``stack`` blocks back to back, each block every listed tensor
    in turn; ``stack`` is None for a single unstacked block. The experts are
    one run of K blocks (w, b, cls), so the flat order is expert by expert.
    """
    h = config.hidden_dim

    def layer(i: int, fan_in: int) -> list:
        parts = [(f"backbone.w{i}", (fan_in, h))]
        if config.use_bias:
            parts.append((f"backbone.b{i}", (h,)))
        if config.use_norm_layers:
            parts += [(f"backbone.bn{i}.gamma", (h,)), (f"backbone.bn{i}.beta", (h,))]
        return parts

    rep = config.expert_rep_dim
    expert = [("experts.w", (h, rep))]
    if config.use_bias:
        expert.append(("experts.b", (rep,)))
    expert.append(("experts.cls", (rep, config.num_classes)))
    runs = [(None, layer(1, config.input_dim) + layer(2, h)), (config.num_experts, expert)]
    if config.aux_input_dim is not None:
        runs.append((None, [("aux.cls", (config.aux_input_dim, config.num_classes))]))
    return runs


def param_count(config: DamelConfig) -> int:
    return sum((stack or 1) * prod(shape) for stack, parts in _layout(config) for _, shape in parts)


def param_views(config: DamelConfig, flat: np.ndarray) -> dict:
    """name -> view of ``flat`` shaped like that parameter, in flat order."""
    views, offset = {}, 0
    for stack, parts in _layout(config):
        n = stack or 1
        width = sum(prod(shape) for _, shape in parts)
        blocks = flat[offset:offset + n * width].reshape(n, width)
        offset += n * width
        col = 0
        for name, shape in parts:
            size = prod(shape)
            # Reshaping a contiguous span of each row never copies.
            view = blocks[:, col:col + size].reshape((n,) + shape)
            views[name] = view if stack else view[0]
            col += size
    return views


class DamelModel:
    """One contiguous parameter vector with named views, plus norm-layer statistics.

    ``buffer`` is the flat float64 vector; ``params`` maps each name to a
    view into it and cannot be rebound, so every write goes through the
    views. ``flatten`` is one copy of the buffer and ``unflatten`` one slice
    assignment; the forward passes live below.
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

    def flatten(self) -> np.ndarray:
        return self.buffer.copy()

    def unflatten(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.buffer.shape:
            raise ShapeError(
                f"unflatten: expected {self.param_count()} values, got {flat.shape}"
            )
        self.buffer[:] = flat

    def param_count(self) -> int:
        return self.buffer.size

    @cached_property
    def grad_layout(self) -> tuple:
        """(a flat vector, name -> view of it shaped like that parameter),
        laid out once per model for gathering a step's gradients."""
        flat = np.empty(self.buffer.size)
        return flat, param_views(self.config, flat)

    def clone(self) -> "DamelModel":
        return DamelModel(
            self.config,
            self.buffer.copy(),
            {name: st.clone() for name, st in self.norm_states.items()},
        )


def _fan_in_uniform(rng, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: DamelConfig, seed: int) -> DamelModel:
    """Deterministic init; each expert block draws from its own seed stream."""
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


def bind_params(model: DamelModel, tape: Tape) -> dict:
    """Register every parameter as a differentiable leaf on ``tape``."""
    return {name: tape.leaf(p) for name, p in model.params.items()}


def constant_params(model: DamelModel) -> dict:
    return {name: Tensor(p) for name, p in model.params.items()}


def param_group(name: str) -> str:
    """'backbone', 'experts' or 'aux' from a parameter name."""
    return name.split(".", 1)[0]


def backbone_layers(model: DamelModel, p: dict) -> list:
    """(w, b, norm) per backbone layer, as dense_bn_relu takes them: b is None
    without biases, norm is (state, gamma, beta) or None without norm layers."""
    layers = []
    for i in (1, 2):
        norm = None
        if model.config.use_norm_layers:
            norm = (model.norm_states[f"backbone.bn{i}"], p[f"backbone.bn{i}.gamma"],
                    p[f"backbone.bn{i}.beta"])
        layers.append((p[f"backbone.w{i}"], p.get(f"backbone.b{i}"), norm))
    return layers


def forward_backbone(model: DamelModel, x, mode: str = "train", params: Optional[dict] = None) -> Tensor:
    """Shared backbone: two affine(+norm)+relu layers, [B, input_dim] -> [B, hidden_dim].

    Sets every norm layer to ``mode``.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"forward mode must be 'train' or 'eval', got {mode!r}")
    cfg = model.config
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.values.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"forward: input must be [B, {cfg.input_dim}], got {x.shape}")
    p = params if params is not None else constant_params(model)
    for state in model.norm_states.values():
        state.mode = mode

    h = x
    for w, b, norm in backbone_layers(model, p):
        h = dense_bn_relu(h, w, b, norm, BN_MOMENTUM)
    return h


def _expert_reps(h: Tensor, p: dict) -> Tensor:
    """Unit-row representations of all K expert blocks at once: [K, B, R]."""
    return expert_block(h, p["experts.w"], p.get("experts.b"))


def forward_experts(model: DamelModel, x, mode: str = "train", params: Optional[dict] = None) -> ForwardOutput:
    """Backbone + stacked expert blocks; cosine logits [K, B, L], softmax left to the loss."""
    p = params if params is not None else constant_params(model)
    reps = _expert_reps(forward_backbone(model, x, mode=mode, params=p), p)
    logits = cosine_logits(reps, p["experts.cls"], model.config.scale)
    return ForwardOutput(expert_logits=logits, normalized_reps=reps)


def forward_auxiliary(model: DamelModel, out: ForwardOutput, params: Optional[dict] = None) -> Optional[Tensor]:
    """Auxiliary logits over gradient-detached expert representations.

    The [K, B, R] representations are read as constants (the detach wall),
    then laid side by side per row (standard/capacity) or averaged
    (average_representations), re-normalized to unit rows, and classified by
    unit-column cosine weights. Returns None for aggregate_predictions,
    which has no auxiliary classifier.
    """
    cfg = model.config
    if cfg.variant == "aggregate_predictions":
        return None
    if out.normalized_reps is None:
        raise ConfigError("forward_auxiliary: expert representations missing")
    p = params if params is not None else constant_params(model)
    reps = out.normalized_reps.values
    if cfg.variant == "average_representations":
        merged = reps.sum(axis=0) * (1.0 / cfg.num_experts)
    else:
        k, rows, width = reps.shape  # spelt out: -1 cannot be inferred at zero rows
        merged = reps.transpose(1, 0, 2).reshape(rows, k * width)
    aux_w = p["aux.cls"]
    if merged.shape[1] != aux_w.shape[0]:
        raise ConfigError(
            f"auxiliary head expects width {aux_w.shape[0]}, got {merged.shape[1]} "
            f"(variant {cfg.variant!r})"
        )
    logits = cosine_logits(l2_normalize(merged, axis=1), aux_w, cfg.scale)
    out.aux_logits = logits
    return logits


def full_forward(model: DamelModel, x, mode: str = "train", params: Optional[dict] = None) -> ForwardOutput:
    out = forward_experts(model, x, mode=mode, params=params)
    forward_auxiliary(model, out, params=params)
    return out


def _softmax_rows(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _predict_block(model: DamelModel, x, p: dict) -> np.ndarray:
    """Class indices for one block of rows; ``predict`` is the entry."""
    if model.config.variant == "aggregate_predictions":
        out = forward_experts(model, x, mode="eval", params=p)
        return _softmax_rows(out.expert_logits.values).mean(axis=0).argmax(axis=1)
    reps = _expert_reps(forward_backbone(model, x, mode="eval", params=p), p)
    out = ForwardOutput(expert_logits=None, normalized_reps=reps)
    return forward_auxiliary(model, out, params=p).values.argmax(axis=1)


def predict(model: DamelModel, x) -> np.ndarray:
    """Class indices in eval mode; ties resolve to the lowest index.

    The rows go through the forward in blocks of ``PREDICT_BLOCK_ROWS``, so
    its transient memory does not grow with the number of rows. A block's
    matmuls may round a logit differently from one whole-batch matmul, in
    the last bits only. Variants with an auxiliary head skip the expert
    cosine heads, whose logits that head never reads.
    """
    x = x.values if isinstance(x, Tensor) else np.asarray(x)
    p = constant_params(model)
    # One block at zero rows, so an empty input is still shape-checked.
    return np.concatenate([
        _predict_block(model, x[start:start + PREDICT_BLOCK_ROWS], p)
        for start in range(0, max(len(x), 1), PREDICT_BLOCK_ROWS)
    ])
