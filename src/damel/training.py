"""Loss computation, SGD with momentum, and the end-to-end training loop.

Each step runs one forward over experts and the auxiliary head, one backward
over the combined objective (per-expert cross-entropy plus the weighted
class-balanced term on the auxiliary logits), and one SGD update in place on
the model's parameter buffer. Averaged weights are folded in per iteration or
per epoch according to the config, read straight from that buffer; the
averaging state never aliases it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .averaging import EmaState, SwaState, load_eval_model, update_average
from .data import Dataset, LongTailSpec, minibatch_iterator
from .errors import ConfigError, ContractError, NumericError
from .model import DamelModel, bind_params, full_forward, predict
from .tensor import Tape, Tensor, backward, loss_fold, softmax_cross_entropy

EMA_FREQUENCIES = ("epoch", "iteration")
AVERAGING_SCHEMES = ("ema", "swa", "none")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    cb_loss_weight: float = 1.0
    ema_rate: float = 0.1
    ema_frequency: str = "epoch"
    averaging: str = "ema"
    decoupled: bool = False
    cb_loss_enabled: bool = True

    def validate(self) -> "TrainConfig":
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 < self.ema_rate <= 1.0:
            raise ConfigError(f"ema_rate must lie in (0, 1], got {self.ema_rate}")
        if self.cb_loss_weight < 0:
            raise ConfigError(f"cb_loss_weight must be >= 0, got {self.cb_loss_weight}")
        if self.ema_frequency not in EMA_FREQUENCIES:
            raise ConfigError(f"ema_frequency must be one of {EMA_FREQUENCIES}")
        if self.averaging not in AVERAGING_SCHEMES:
            raise ConfigError(f"averaging must be one of {AVERAGING_SCHEMES}")
        return self


@dataclass
class OptimizerState:
    """Momentum buffer aligned with the flattened parameter vector."""

    velocity: np.ndarray

    @classmethod
    def for_model(cls, model: DamelModel) -> "OptimizerState":
        return cls(np.zeros(model.param_count()))


@dataclass
class LossBundle:
    """Tape-linked losses for one batch; total honors the enabled terms.

    ``expert_ce`` holds the K per-expert cross-entropies as one [K] tensor.
    """

    expert_ce: Tensor
    balanced_ce: Optional[Tensor]
    total: Tensor

    def expert_values(self) -> list:
        return self.expert_ce.values.tolist()

    def balanced_value(self) -> float:
        return float(self.balanced_ce.values) if self.balanced_ce is not None else float("nan")

    def total_value(self) -> float:
        return float(self.total.values)


@dataclass
class StepContext:
    """Handed to the optional per-step hook after the parameter update."""

    epoch: int
    iteration: int
    bundle: LossBundle
    params: dict
    model: DamelModel


def class_balanced_weights(spec: LongTailSpec) -> np.ndarray:
    """Inverse-frequency class weights normalized to mean 1."""
    counts = np.asarray(spec.counts, dtype=np.float64)
    inverse = 1.0 / counts
    return inverse * (spec.num_classes / inverse.sum())


def compute_losses(out, labels, spec: LongTailSpec, cfg: TrainConfig,
                   class_weights: Optional[np.ndarray] = None) -> LossBundle:
    """Per-expert cross-entropy plus the class-balanced auxiliary term.

    total = sum(expert terms) + cb_loss_weight * balanced when the balanced
    loss is enabled and an auxiliary head exists; otherwise just the sum of
    expert terms. ``class_weights`` defaults to class_balanced_weights(spec).
    """
    expert_ce = softmax_cross_entropy(out.expert_logits, labels)
    balanced = None
    if out.aux_logits is not None:
        if class_weights is None:
            class_weights = class_balanced_weights(spec)
        balanced = softmax_cross_entropy(out.aux_logits, labels, class_weights)
    weighted = balanced if cfg.cb_loss_enabled else None
    total = loss_fold(expert_ce, weighted, cfg.cb_loss_weight)
    return LossBundle(expert_ce=expert_ce, balanced_ce=balanced, total=total)


def sgd_step(model: DamelModel, grad_flat: np.ndarray, opt: OptimizerState,
             lr: float, momentum: float) -> None:
    """v <- momentum*v + g; theta <- theta - lr*v (in place on the model)."""
    grad_flat = np.asarray(grad_flat, dtype=np.float64)
    if grad_flat.shape != opt.velocity.shape:
        raise ContractError(
            f"sgd_step: gradient length {grad_flat.shape} does not match "
            f"velocity {opt.velocity.shape}"
        )
    if not np.isfinite(grad_flat).all():
        raise NumericError("sgd_step: non-finite gradient")
    velocity = opt.velocity
    velocity *= momentum
    velocity += grad_flat
    model.buffer -= lr * velocity


def flatten_grads(model: DamelModel, params: dict, grads: dict) -> np.ndarray:
    """Gradient map from backward() -> a fresh flat vector in parameter order."""
    flat, views = model.grad_layout
    for name, view in views.items():
        view[...] = grads[params[name].tape_id].values
    return flat.copy()


def _accuracy(model: DamelModel, ds: Dataset) -> float:
    return float((predict(model, ds.features) == ds.labels).mean())


@dataclass
class EpochMetrics:
    epoch: int
    expert_ce: tuple
    balanced_ce: float
    total: float
    train_acc: float
    test_acc_raw: float
    test_acc_ema: float


def train(
    model: DamelModel,
    ds: Dataset,
    cfg: TrainConfig,
    avg_state=None,
    *,
    seed: int = 0,
    test_ds: Optional[Dataset] = None,
    step_hook: Optional[Callable[[StepContext], None]] = None,
):
    """Run the full training loop; returns (model, avg_state, metrics log).

    With decoupled=True the epochs split into a representation phase (the
    balanced loss excluded, auxiliary head frozen) followed by an
    auxiliary-only phase (everything else frozen, velocity reset).
    """
    cfg.validate()
    if type(avg_state) is not type(make_avg_state(cfg)):
        raise ContractError(
            f"averaging={cfg.averaging} does not take a {type(avg_state).__name__} state"
        )
    if model.norm_states and cfg.epochs > 0 and (len(ds) - 1) % cfg.batch_size == 0:
        raise ContractError(
            f"batch_size {cfg.batch_size} leaves a single-sample final batch for "
            f"{len(ds)} samples, which norm layers cannot train on; pick a batch "
            "size with a different remainder"
        )
    opt = OptimizerState.for_model(model)
    rep_phase_epochs = (cfg.epochs + 1) // 2 if cfg.decoupled else cfg.epochs
    # The aux head, when there is one, is the tail of the flat layout.
    aux = model.params.get("aux.cls")
    aux_start = model.param_count() - (0 if aux is None else aux.size)
    freeze_aux, freeze_rest = slice(aux_start, None), slice(0, aux_start)
    class_weights = class_balanced_weights(ds.spec)
    metrics: list[EpochMetrics] = []
    shadow = None  # the averaged weights' eval model, reused every epoch

    for epoch in range(cfg.epochs):
        aux_phase = cfg.decoupled and epoch >= rep_phase_epochs
        if cfg.decoupled and epoch == rep_phase_epochs:
            opt.velocity[:] = 0.0
        cfg_eff = replace(cfg, cb_loss_enabled=False) if (cfg.decoupled and not aux_phase) else cfg
        frozen = (freeze_rest if aux_phase else freeze_aux) if cfg.decoupled else None

        n_seen = 0
        sums = {"expert": None, "balanced": 0.0, "total": 0.0}
        for iteration, (xb, yb) in enumerate(minibatch_iterator(ds, cfg.batch_size, seed, epoch)):
            tape = Tape()
            params = bind_params(model, tape)
            out = full_forward(model, xb, mode="train", params=params)
            bundle = compute_losses(out, yb, ds.spec, cfg_eff, class_weights)
            if not np.isfinite(bundle.total_value()):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, iteration {iteration}"
                )
            grads = backward(bundle.total)
            grad_flat = flatten_grads(model, params, grads)
            if frozen is not None:
                grad_flat[frozen] = 0.0
            try:
                sgd_step(model, grad_flat, opt, cfg.lr, cfg.momentum)
            except NumericError as err:
                raise NumericError(f"{err} (epoch {epoch}, iteration {iteration})") from None
            if cfg.ema_frequency == "iteration":
                avg_state = update_average(avg_state, model.buffer)
            if step_hook is not None:
                step_hook(StepContext(epoch, iteration, bundle, params, model))

            batch_n = len(yb)
            n_seen += batch_n
            expert_vals = np.array(bundle.expert_values())
            sums["expert"] = expert_vals * batch_n if sums["expert"] is None \
                else sums["expert"] + expert_vals * batch_n
            bal = bundle.balanced_value()
            sums["balanced"] += (bal if np.isfinite(bal) else 0.0) * batch_n
            sums["total"] += bundle.total_value() * batch_n

        if cfg.ema_frequency == "epoch":
            avg_state = update_average(avg_state, model.buffer)

        test_acc_ema = float("nan")
        if test_ds is not None and avg_state is not None and avg_state.initialized:
            shadow = load_eval_model(model, avg_state.weights, ds, shadow)
            test_acc_ema = _accuracy(shadow, test_ds)
        has_balanced = model.config.aux_input_dim is not None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                expert_ce=tuple(sums["expert"] / n_seen),
                balanced_ce=sums["balanced"] / n_seen if has_balanced else float("nan"),
                total=sums["total"] / n_seen,
                train_acc=_accuracy(model, ds),
                test_acc_raw=_accuracy(model, test_ds) if test_ds is not None else float("nan"),
                test_acc_ema=test_acc_ema,
            )
        )
    return model, avg_state, metrics


def make_avg_state(cfg: TrainConfig):
    """Fresh averaging state matching the configured scheme (None for 'none')."""
    if cfg.averaging == "ema":
        return EmaState(rate=cfg.ema_rate)
    if cfg.averaging == "swa":
        return SwaState()
    return None
