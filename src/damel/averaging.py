"""Time-axis weight aggregation and post-averaging statistics recomputation.

EMA keeps an exponentially weighted aggregate of parameter snapshots,
weights_new = (1 - rate) * weights + rate * snapshot, initialized from the
first snapshot. SWA keeps their plain arithmetic mean. Both operate on the
flat parameter vector (norm-layer scale/shift included, running statistics
excluded; those are recomputed exactly from the training set). A snapshot
may be the model's live parameter buffer itself: it is only read, the state
keeps its own copy, and later updates fold into that copy in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .model import DamelModel, backbone_layers, constant_params
from .tensor import affine, dense_bn_relu, matmul


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


def update_average(avg_state, snapshot: np.ndarray, averaging: str):
    """Dispatch one snapshot to whichever averaging scheme is active."""
    if averaging == "none":
        return avg_state
    if averaging == "ema":
        if not isinstance(avg_state, EmaState):
            raise ContractError("averaging=ema requires an EmaState")
        return ema_update(avg_state, snapshot)
    if averaging == "swa":
        if not isinstance(avg_state, SwaState):
            raise ContractError("averaging=swa requires a SwaState")
        return swa_update(avg_state, snapshot)
    raise ContractError(f"unknown averaging scheme {averaging!r}")


def export_eval_weights(avg_state, averaging: str, trained: np.ndarray) -> np.ndarray:
    """The parameter vector the evaluation path consumes."""
    if averaging == "none":
        return np.array(trained, dtype=np.float64, copy=True)
    if averaging in ("ema", "swa"):
        if avg_state is None or not avg_state.initialized:
            raise ContractError(f"averaging={averaging}: state has received no snapshots")
        return avg_state.weights.copy()
    raise ContractError(f"unknown averaging scheme {averaging!r}")


def recompute_running_stats(model: DamelModel, train_ds, chunk_size: Optional[int] = None) -> DamelModel:
    """Replace every norm layer's running statistics with exact aggregates.

    The backbone runs layer by layer over the chunks of the training set.
    Each layer computes its affine output once per chunk and merges it into
    its norm layer's statistics; once every chunk is in, the same outputs are
    normalized in place with the final statistics and go on to the next layer.
    So the accumulated mean/variance are exact population statistics of each
    layer's true eval-time input for any chunking (equal up to the merge's
    rounding), and each layer runs once per recompute. The pass holds at most
    two activation-sized buffers per chunk at a time.
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
        state.begin_accumulation()
        # The affine outputs replace the layer's inputs, which are done with.
        chunks = [matmul(h, w) if b is None else affine(h, w, b) for h in chunks]
        for z in chunks:
            state.merge_batch(z.values)
        del z  # else the last chunk's outputs stay alive into the next layer
        state.finish_accumulation()
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
