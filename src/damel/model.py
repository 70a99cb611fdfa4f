"""The multi-expert network and its ablation variants.

A shared two-layer feedforward backbone feeds ``num_experts`` independent
expert blocks (one affine+relu layer each) with cosine classifiers: logits
are scale * <unit feature row, unit class column>. The auxiliary classifier
consumes the gradient-detached, re-normalized concatenation of all expert
representations and is the sole prediction path at test time, except for the
aggregate_predictions baseline which averages per-expert softmaxes instead.

``forward_backbone`` is the shared trunk alone: the whole forward a
norm-statistics pass needs. ``forward_experts`` adds the expert blocks and
their cosine heads; ``predict`` skips those heads when the auxiliary head
makes the prediction.

Variants:
  standard                concatenated detached representations -> aux head
  aggregate_predictions   no aux head; predict via mean expert softmax
  average_representations aux head consumes the elementwise mean instead
  capacity_controlled     one expert whose representation width matches the
                          concatenation of ``ref_experts`` standard experts
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    NormStatsState,
    Tape,
    Tensor,
    concat_last_axis,
    batch_norm,
    detach,
    l2_normalize,
    matmul,
    mul,
    relu,
)

VARIANTS = ("standard", "aggregate_predictions", "average_representations", "capacity_controlled")

BN_MOMENTUM = 0.1


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
    expert_logits: list
    normalized_reps: list
    aux_logits: Optional[Tensor] = None


class DamelModel:
    """Parameter store plus norm-layer statistics; forward passes live below.

    Parameters are kept as an ordered name->array mapping; ``flatten`` /
    ``unflatten`` round-trip them bit-exactly for weight averaging.
    """

    def __init__(self, config: DamelConfig, params: dict, norm_states: dict):
        self.config = config
        self.params = params
        self.norm_states = norm_states

    def flatten(self) -> np.ndarray:
        return np.concatenate([p.reshape(-1) for p in self.params.values()])

    def unflatten(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.param_count(),):
            raise ShapeError(
                f"unflatten: expected {self.param_count()} values, got {flat.shape}"
            )
        offset = 0
        for name, p in self.params.items():
            size = p.size
            self.params[name] = flat[offset:offset + size].reshape(p.shape).copy()
            offset += size

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def flat_slices(self) -> dict:
        """name -> (start, stop) within the flattened vector."""
        slices, offset = {}, 0
        for name, p in self.params.items():
            slices[name] = (offset, offset + p.size)
            offset += p.size
        return slices

    def clone(self) -> "DamelModel":
        return DamelModel(
            self.config,
            {name: p.copy() for name, p in self.params.items()},
            {name: st.clone() for name, st in self.norm_states.items()},
        )


def _fan_in_uniform(rng, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: DamelConfig, seed: int) -> DamelModel:
    """Deterministic init; each expert block draws from its own seed stream."""
    config.validate()
    params: dict[str, np.ndarray] = {}
    norm_states: dict[str, NormStatsState] = {}

    backbone_rng = np.random.default_rng([seed, 0])
    params["backbone.w1"] = _fan_in_uniform(backbone_rng, (config.input_dim, config.hidden_dim))
    if config.use_bias:
        params["backbone.b1"] = np.zeros(config.hidden_dim)
    if config.use_norm_layers:
        params["backbone.bn1.gamma"] = np.ones(config.hidden_dim)
        params["backbone.bn1.beta"] = np.zeros(config.hidden_dim)
        norm_states["backbone.bn1"] = NormStatsState.for_features(config.hidden_dim)
    params["backbone.w2"] = _fan_in_uniform(backbone_rng, (config.hidden_dim, config.hidden_dim))
    if config.use_bias:
        params["backbone.b2"] = np.zeros(config.hidden_dim)
    if config.use_norm_layers:
        params["backbone.bn2.gamma"] = np.ones(config.hidden_dim)
        params["backbone.bn2.beta"] = np.zeros(config.hidden_dim)
        norm_states["backbone.bn2"] = NormStatsState.for_features(config.hidden_dim)

    rep = config.expert_rep_dim
    for k in range(config.num_experts):
        expert_rng = np.random.default_rng([seed, 1, k])
        params[f"expert{k}.w"] = _fan_in_uniform(expert_rng, (config.hidden_dim, rep))
        if config.use_bias:
            params[f"expert{k}.b"] = np.zeros(rep)
        params[f"expert{k}.cls"] = _fan_in_uniform(expert_rng, (rep, config.num_classes))

    if config.aux_input_dim is not None:
        aux_rng = np.random.default_rng([seed, 2])
        params["aux.cls"] = _fan_in_uniform(aux_rng, (config.aux_input_dim, config.num_classes))

    return DamelModel(config, params, norm_states)


def bind_params(model: DamelModel, tape: Tape) -> dict:
    """Register every parameter as a differentiable leaf on ``tape``."""
    return {name: tape.leaf(p) for name, p in model.params.items()}


def constant_params(model: DamelModel) -> dict:
    return {name: Tensor(p) for name, p in model.params.items()}


def param_group(name: str) -> str:
    """'backbone', 'expertK' or 'aux' from a parameter name."""
    return name.split(".", 1)[0]


def forward_backbone(model: DamelModel, x, mode: str = "train", params: Optional[dict] = None) -> Tensor:
    """Shared backbone: two affine(+norm)+relu layers, [B, input_dim] -> [B, hidden_dim].

    Sets every norm layer that is not accumulating to ``mode``. It is the
    whole forward a norm-statistics pass needs, since the norm layers live
    only here.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"forward mode must be 'train' or 'eval', got {mode!r}")
    cfg = model.config
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.values.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"forward: input must be [B, {cfg.input_dim}], got {x.shape}")
    p = params if params is not None else constant_params(model)
    for state in model.norm_states.values():
        if not state.accumulating:
            state.mode = mode

    h = matmul(x, p["backbone.w1"])
    if cfg.use_bias:
        h = h + p["backbone.b1"]
    if cfg.use_norm_layers:
        h = batch_norm(h, model.norm_states["backbone.bn1"],
                       p["backbone.bn1.gamma"], p["backbone.bn1.beta"], BN_MOMENTUM)
    h = relu(h)
    h = matmul(h, p["backbone.w2"])
    if cfg.use_bias:
        h = h + p["backbone.b2"]
    if cfg.use_norm_layers:
        h = batch_norm(h, model.norm_states["backbone.bn2"],
                       p["backbone.bn2.gamma"], p["backbone.bn2.beta"], BN_MOMENTUM)
    return relu(h)


def _expert_reps(model: DamelModel, h: Tensor, p: dict) -> list:
    """Unit-row representation of each expert block over backbone features."""
    cfg = model.config
    reps = []
    for k in range(cfg.num_experts):
        z = matmul(h, p[f"expert{k}.w"])
        if cfg.use_bias:
            z = z + p[f"expert{k}.b"]
        reps.append(l2_normalize(relu(z), axis=1))
    return reps


def forward_experts(model: DamelModel, x, mode: str = "train", params: Optional[dict] = None) -> ForwardOutput:
    """Backbone + expert blocks; cosine logits per expert, softmax left to the loss."""
    p = params if params is not None else constant_params(model)
    reps = _expert_reps(model, forward_backbone(model, x, mode=mode, params=p), p)
    scale = model.config.scale
    expert_logits = [
        scale * matmul(z_unit, l2_normalize(p[f"expert{k}.cls"], axis=0))
        for k, z_unit in enumerate(reps)
    ]
    return ForwardOutput(expert_logits=expert_logits, normalized_reps=reps)


def forward_auxiliary(model: DamelModel, out: ForwardOutput, params: Optional[dict] = None) -> Optional[Tensor]:
    """Auxiliary logits over gradient-detached expert representations.

    Representations are concatenated (standard/capacity) or averaged
    (average_representations), re-normalized to unit rows, and classified by
    unit-column cosine weights. Returns None for aggregate_predictions,
    which has no auxiliary classifier.
    """
    cfg = model.config
    if cfg.variant == "aggregate_predictions":
        return None
    if not out.normalized_reps:
        raise ConfigError("forward_auxiliary: expert representations missing")
    p = params if params is not None else constant_params(model)
    blocked = [detach(z) for z in out.normalized_reps]
    if cfg.variant == "average_representations":
        merged = blocked[0]
        for z in blocked[1:]:
            merged = merged + z
        merged = (1.0 / cfg.num_experts) * merged
    else:
        merged = concat_last_axis(blocked)
    aux_w = p["aux.cls"]
    if merged.shape[1] != aux_w.shape[0]:
        raise ConfigError(
            f"auxiliary head expects width {aux_w.shape[0]}, got {merged.shape[1]} "
            f"(variant {cfg.variant!r})"
        )
    merged_unit = l2_normalize(merged, axis=1)
    logits = cfg.scale * matmul(merged_unit, l2_normalize(aux_w, axis=0))
    out.aux_logits = logits
    return logits


def full_forward(model: DamelModel, x, mode: str = "train", params: Optional[dict] = None) -> ForwardOutput:
    out = forward_experts(model, x, mode=mode, params=params)
    forward_auxiliary(model, out, params=params)
    return out


def _softmax_rows(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def predict(model: DamelModel, x) -> np.ndarray:
    """Class indices in eval mode; ties resolve to the lowest index.

    Variants with an auxiliary head skip the expert cosine heads, whose
    logits that head never reads.
    """
    if model.config.variant == "aggregate_predictions":
        out = forward_experts(model, x, mode="eval")
        probs = np.mean([_softmax_rows(l.values) for l in out.expert_logits], axis=0)
        return probs.argmax(axis=1)
    p = constant_params(model)
    reps = _expert_reps(model, forward_backbone(model, x, mode="eval", params=p), p)
    out = ForwardOutput(expert_logits=[], normalized_reps=reps)
    return forward_auxiliary(model, out, params=p).values.argmax(axis=1)
