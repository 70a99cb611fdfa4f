"""Time-axis weight aggregation and post-averaging statistics recomputation.

EMA keeps an exponentially weighted aggregate of parameter snapshots,
weights_new = (1 - rate) * weights + rate * snapshot, initialized from the
first snapshot. SWA keeps their plain arithmetic mean. The state's type is
the scheme: an EmaState, a SwaState, or None for no averaging. Both operate
on the flat parameter vector (norm-layer scale/shift included, running
statistics excluded; those are recomputed exactly from the training set,
here and nowhere else). A snapshot may be the model's live parameter buffer
itself: it is only read, the state keeps its own copy, and later updates
fold into that copy in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .model import DamelModel, backbone_layers, constant_params
from .tensor import affine, dense_bn_relu


@dataclass
class EmaState:
    """Exponential moving average of snapshots; ``rate`` weights the newest."""

    rate: float
    weights: Optional[np.ndarray] = None
    updates: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ContractError(f"EMA rate must lie in (0, 1], got {self.rate}")
        if self.weights is not None:
            self.weights = np.array(self.weights, dtype=np.float64)

    @property
    def initialized(self) -> bool:
        return self.weights is not None


@dataclass
class SwaState:
    """Uniform running mean of snapshots."""

    weights: Optional[np.ndarray] = None
    count: int = 0

    def __post_init__(self):
        if self.weights is not None:
            self.weights = np.array(self.weights, dtype=np.float64)

    @property
    def initialized(self) -> bool:
        return self.weights is not None


def _check_length(state_weights: np.ndarray, snapshot: np.ndarray, kind: str) -> None:
    if state_weights.shape != snapshot.shape:
        raise ContractError(
            f"{kind}: snapshot length {snapshot.shape} does not match state {state_weights.shape}"
        )


def ema_update(state: EmaState, snapshot: np.ndarray) -> EmaState:
    """Fold one snapshot into the EMA; the first call copies it verbatim."""
    snapshot = np.asarray(snapshot, dtype=np.float64)
    if state.weights is None:
        state.weights = snapshot.copy()
    else:
        _check_length(state.weights, snapshot, "ema_update")
        state.weights *= 1.0 - state.rate
        state.weights += state.rate * snapshot
    state.updates += 1
    return state


def swa_update(state: SwaState, snapshot: np.ndarray) -> SwaState:
    snapshot = np.asarray(snapshot, dtype=np.float64)
    if state.weights is None:
        state.weights = snapshot.copy()
        state.count = 1
    else:
        _check_length(state.weights, snapshot, "swa_update")
        state.weights *= state.count
        state.weights += snapshot
        state.weights /= state.count + 1
        state.count += 1
    return state


_UPDATES = {EmaState: ema_update, SwaState: swa_update}


def update_average(avg_state, snapshot: np.ndarray):
    """Fold one snapshot into ``avg_state`` by its scheme; None averages nothing."""
    return None if avg_state is None else _UPDATES[type(avg_state)](avg_state, snapshot)


def export_eval_weights(avg_state, trained: np.ndarray) -> np.ndarray:
    """The parameter vector the evaluation path consumes: a copy of the
    averaged weights once a snapshot is in, else of ``trained``."""
    if avg_state is None or not avg_state.initialized:
        return np.array(trained, dtype=np.float64, copy=True)
    return avg_state.weights.copy()


def recompute_running_stats(model: DamelModel, train_ds, chunk_size: Optional[int] = None) -> DamelModel:
    """Replace every norm layer's running statistics with exact aggregates.

    The backbone runs layer by layer over the chunks of the training set.
    Each layer computes its affine output once per chunk and merges the
    chunks' means and M2s in order (Chan et al.'s parallel merge); once every
    chunk is in, the same outputs are normalized in place with the final
    statistics and go on to the next layer. So the mean/variance are exact
    population statistics of each layer's true eval-time input for any
    chunking (equal up to the merge's rounding), and each layer runs once
    per recompute. The pass holds at most two activation-sized buffers per
    chunk at a time.
    """
    if not model.norm_states:
        return model
    n = len(train_ds)
    if n == 0:
        raise ContractError("recompute_running_stats: training set is empty")
    step = n if chunk_size is None else int(chunk_size)
    if step < 1:
        raise ContractError(f"recompute_running_stats: chunk_size must be >= 1, got {chunk_size}")
    chunks = [train_ds.features[start:start + step] for start in range(0, n, step)]
    layers = backbone_layers(model, constant_params(model))
    for i, (w, b, norm) in enumerate(layers):
        state = norm[0]
        # The affine outputs replace the layer's inputs, which are done with.
        chunks = [affine(h, w, b) for h in chunks]
        count, mean, m2 = 0, np.zeros_like(state.running_mean), np.zeros_like(state.running_var)
        for z in chunks:
            n_b = len(z.values)
            mean_b = z.values.mean(axis=0)
            dev = z.values - mean_b
            m2_b = np.square(dev, out=dev).sum(axis=0)  # the bits of dev ** 2, one buffer
            total = count + n_b
            delta = mean_b - mean
            mean = mean + delta * (n_b / total)
            m2 = m2 + m2_b + delta * delta * (count * n_b / total)
            count = total
        del z, dev  # else the last chunk's buffers stay alive into the next layer
        state.running_mean, state.running_var, state.mode = mean, m2 / count, "eval"
        if i + 1 < len(layers):  # the last layer's output feeds no statistics
            chunks = [dense_bn_relu(z, None, None, norm) for z in chunks]
    return model


def load_eval_model(model: DamelModel, weights: np.ndarray, train_ds,
                    shadow: Optional[DamelModel] = None) -> DamelModel:
    """``weights`` copied into ``shadow`` (a new clone of ``model`` if None),
    norm statistics recomputed on ``train_ds``. The recompute starts from
    zero, so a reused shadow evaluates exactly like a fresh clone."""
    if shadow is None:
        shadow = model.clone()
    shadow.unflatten(weights)
    return recompute_running_stats(shadow, train_ds)
