"""Loss computation, SGD with momentum, and the end-to-end training loop.

Each step runs one forward over experts and the auxiliary head, one backward
over the combined objective (per-expert cross-entropy plus the weighted
class-balanced term on the auxiliary logits), and one SGD update in place on
the model's parameter buffer. train() owns the step's two flat vectors, each
allocated once per call: the momentum buffer, which sgd_step updates in
place, and the gradient vector, which flatten_grads fills in place through
its per-parameter views. Averaged weights are folded in per iteration or per
epoch according to the config, read straight from the parameter buffer; the
averaging state never aliases it. A floating-point fault (overflow, an
invalid operation or a division by zero) in a step or an epoch-end
evaluation, or a non-finite weight at an epoch end, ends the run as a
NumericError naming where it happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .averaging import EmaState, SwaState, load_eval_model, update_average
from .data import Dataset, LongTailSpec, minibatch_iterator
from .errors import ConfigError, ContractError, NumericError
from .model import DamelModel, bind_params, full_forward, param_views, predict
from .tensor import Tape, Tensor, backward, loss_fold, softmax_cross_entropy

EMA_FREQUENCIES = ("epoch", "iteration")
AVERAGING_SCHEMES = ("ema", "swa", "none")
# A run's numpy error state: overflow, invalid operations and division by
# zero raise FloatingPointError; underflow, which flushes to zero, stays silent.
FP_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}


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
class LossBundle:
    """Tape-linked losses for one batch; total honors the enabled terms.

    ``expert_ce`` holds the K per-expert cross-entropies as one [K] tensor.
    """

    expert_ce: Tensor
    balanced_ce: Optional[Tensor]
    total: Tensor


@dataclass
class StepContext:
    """Handed to the optional per-step hook after the parameter update. A
    ``params`` entry the step does not train is an untaped constant, whose
    ``tape_id`` is None: in a decoupled run, ``aux.cls`` in the first phase,
    which leaves ``balanced_ce`` untaped so that ``backward`` refuses it, and
    every entry but ``aux.cls`` in the auxiliary phase."""

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


def compute_losses(out, labels, class_weights: np.ndarray, aux_weight: float) -> LossBundle:
    """Per-expert cross-entropy plus the class-balanced auxiliary term.

    total = sum(expert terms) + aux_weight * balanced, or the sum of the
    expert terms alone without an auxiliary head; a weight of 0.0 still
    folds the term in.
    """
    expert_ce = softmax_cross_entropy(out.expert_logits, labels)
    balanced = None
    if out.aux_logits is not None:
        balanced = softmax_cross_entropy(out.aux_logits, labels, class_weights)
    total = loss_fold(expert_ce, balanced, aux_weight)
    return LossBundle(expert_ce=expert_ce, balanced_ce=balanced, total=total)


def sgd_step(model: DamelModel, grad_flat: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float) -> None:
    """v <- momentum*v + g; theta <- theta - lr*v, in place on the plain
    momentum array ``velocity`` and on the model's parameter buffer."""
    grad_flat = np.asarray(grad_flat, dtype=np.float64)
    if grad_flat.shape != velocity.shape:
        raise ContractError(
            f"sgd_step: gradient length {grad_flat.shape} does not match "
            f"velocity {velocity.shape}"
        )
    if not np.isfinite(grad_flat).all():
        raise NumericError("sgd_step: non-finite gradient")
    velocity *= momentum
    velocity += grad_flat
    model.buffer -= lr * velocity


def flatten_grads(grad_views: dict, params: dict, grads: dict) -> None:
    """Write backward()'s gradient map into ``grad_views`` (``param_views`` of
    a flat vector), and 0.0 into the view of a parameter bound untaped."""
    for name, view in grad_views.items():
        tape_id = params[name].tape_id
        view[...] = 0.0 if tape_id is None else grads[tape_id].values


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


@np.errstate(**FP_RAISE)
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

    Runs under ``FP_RAISE``: a floating-point fault, a non-finite loss or a
    non-finite gradient ends the run as a NumericError that names the epoch
    and iteration, or the epoch-end evaluation. A non-finite weight that no
    loss or gradient shows (a relu can zero a NaN activation) fails at the
    epoch end.

    Every step's loss is the full objective; a phase decides only which
    parameters are taped, the rest bound as untaped constants that no step
    moves. With decoupled=True the first (epochs + 1) // 2 epochs tape every
    parameter but the auxiliary head, which keeps its init; the rest tape
    the head alone and reset the velocity so the other weights do not coast.
    A decoupled model without an auxiliary head is a ContractError. With
    cb_loss_enabled=False the balanced loss weighs every class 1.
    """
    cfg.validate()
    if cfg.decoupled and "aux.cls" not in model.params:
        raise ContractError(f"decoupled training re-trains the auxiliary head, which variant "
                            f"{model.config.variant} does not have")
    if type(avg_state) is not type(make_avg_state(cfg)):
        raise ContractError(
            f"averaging={cfg.averaging} does not take a {type(avg_state).__name__} state"
        )
    if cfg.averaging == "ema" and avg_state.rate != cfg.ema_rate:
        raise ContractError(
            f"EmaState rate {avg_state.rate} does not match ema_rate {cfg.ema_rate}"
        )
    if model.norm_states and cfg.epochs > 0 and (len(ds) - 1) % cfg.batch_size == 0:
        raise ContractError(
            f"batch_size {cfg.batch_size} leaves a single-sample final batch for "
            f"{len(ds)} samples, which norm layers cannot train on; pick a batch "
            "size with a different remainder"
        )
    velocity = np.zeros(model.buffer.size)
    grad_flat = np.empty(model.buffer.size)
    grad_views = param_views(model.config, grad_flat)
    rep_phase_epochs = (cfg.epochs + 1) // 2 if cfg.decoupled else cfg.epochs
    rep_params = tuple(name for name in model.params if name != "aux.cls") if cfg.decoupled else None
    class_weights = class_balanced_weights(ds.spec) if cfg.cb_loss_enabled else np.ones(ds.spec.num_classes)
    metrics: list[EpochMetrics] = []

    try:
        for epoch in range(cfg.epochs):
            where = f"epoch {epoch}"
            trained = rep_params if epoch < rep_phase_epochs else ("aux.cls",)
            if epoch == rep_phase_epochs:
                velocity[:] = 0.0

            # Per-sample loss sums: the K expert terms, then balanced and total;
            # balanced stays nan without an aux head.
            sums = np.zeros(model.config.num_experts + 2)
            batches = minibatch_iterator(ds, cfg.batch_size, seed, epoch)
            for iteration, (xb, yb) in enumerate(batches):
                where = f"epoch {epoch}, iteration {iteration}"
                tape = Tape()
                params = bind_params(model, tape, trained)
                out = full_forward(model, xb, params=params)
                bundle = compute_losses(out, yb, class_weights, cfg.cb_loss_weight)
                if not np.isfinite(bundle.total.values):
                    raise NumericError("non-finite loss")
                flatten_grads(grad_views, params, backward(bundle.total))
                sgd_step(model, grad_flat, velocity, cfg.lr, cfg.momentum)
                if cfg.ema_frequency == "iteration":
                    avg_state = update_average(avg_state, model.buffer)
                if step_hook is not None:
                    step_hook(StepContext(epoch, iteration, bundle, params, model))
                balanced = np.nan if bundle.balanced_ce is None else bundle.balanced_ce.values
                sums += np.hstack([bundle.expert_ce.values, balanced, bundle.total.values]) * len(yb)

            where = f"epoch {epoch}, epoch-end evaluation"
            if not np.isfinite(model.buffer).all():
                raise NumericError("non-finite weight")
            if cfg.ema_frequency == "epoch":
                avg_state = update_average(avg_state, model.buffer)

            test_acc_ema = float("nan")
            # Every epoch folds at least one snapshot in, so a state holds weights here.
            if test_ds is not None and avg_state is not None:
                test_acc_ema = _accuracy(load_eval_model(model, avg_state.weights, ds), test_ds)
            means = sums / len(ds)  # an epoch passes over every sample once
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    expert_ce=tuple(means[:-2]),
                    balanced_ce=float(means[-2]),
                    total=float(means[-1]),
                    train_acc=_accuracy(model, ds),
                    test_acc_raw=_accuracy(model, test_ds) if test_ds is not None else float("nan"),
                    test_acc_ema=test_acc_ema,
                )
            )
    except (FloatingPointError, NumericError) as err:
        raise NumericError(f"{err} ({where})") from None
    return model, avg_state, metrics


def make_avg_state(cfg: TrainConfig):
    """Fresh averaging state matching the configured scheme (None for 'none')."""
    if cfg.averaging == "ema":
        return EmaState(rate=cfg.ema_rate)
    if cfg.averaging == "swa":
        return SwaState()
    return None
