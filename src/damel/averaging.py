"""Time-axis weight aggregation and post-averaging statistics recomputation.

EMA keeps an exponentially weighted aggregate of parameter snapshots,
weights_new = (1 - rate) * weights + rate * snapshot, initialized from the
first snapshot. SWA keeps their plain arithmetic mean. The state's type is
the scheme: an EmaState, a SwaState, or None for no averaging. Both operate
on the flat parameter vector (norm-layer scale/shift included, running
statistics excluded; those are recomputed exactly from the training set,
here and nowhere else). A snapshot may be the model's live parameter buffer
itself: it is only read, the state keeps its own copy, and later updates
fold into that copy in place. An eval model views the weights it evaluates,
the state's own or the trained buffer, and copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .model import DamelModel, backbone_layers
from .tensor import BATCH_NORM_EPS, NormStatsState, affine


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


@dataclass
class SwaState:
    """Uniform running mean of snapshots."""

    weights: Optional[np.ndarray] = None
    count: int = 0

    def __post_init__(self):
        if self.weights is not None:
            self.weights = np.array(self.weights, dtype=np.float64)


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


def recompute_running_stats(model: DamelModel, train_ds, chunk_size: Optional[int] = None) -> DamelModel:
    """Replace every norm layer's running statistics with exact aggregates.

    The backbone runs layer by layer over the chunks of the training set, in
    plain numpy. Each layer computes its affine output once per chunk; the
    mean is the chunks' column sums over n, the variance their summed squared
    deviations from that mean over n. So for any chunking the statistics are
    exact population statistics of each layer's input under the composite
    forward with ``train=False`` (with one chunk, the bits of ndarray.mean and
    ndarray.var). The same outputs are then normalized in place as that norm
    layer does and go on to the next layer, so each layer runs once per
    recompute. ``predict``'s folded kernel feeds the next layer
    fmax(x @ (w*s) + ((b - mean)*s + beta), 0) instead, which differs from
    that composite forward only in the last bits.
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
    layers = backbone_layers(model, model.params)
    for i, (w, b, (state, gamma, beta)) in enumerate(layers):
        # The affine outputs replace the layer's inputs, which are done with.
        chunks = [affine(h, w, b).values for h in chunks]
        mean = sum(z.sum(axis=0) for z in chunks) / n
        devs = (z - mean for z in chunks)  # one at a time, squared in place: the bits of dev ** 2
        var = sum(np.square(dev, out=dev).sum(axis=0) for dev in devs) / n
        state.running_mean, state.running_var = mean, var
        if i + 1 < len(layers):  # the last layer's output feeds no statistics
            inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
            for z in chunks:
                z -= mean
                z *= inv_std
                z *= gamma
                z += beta
                np.fmax(z, 0.0, out=z)
            del z  # else the last chunk stays alive beside the next layer's outputs
    return model


def load_eval_model(model: DamelModel, weights: np.ndarray, train_ds) -> DamelModel:
    """``model``'s config over ``weights`` itself, norm statistics recomputed
    on ``train_ds`` in fresh states.

    The eval model only reads ``weights`` and copies nothing, so a caller
    whose weights change later, as an average does when it folds in a
    snapshot, builds a new one. A wrong length or dtype is DamelModel's
    ShapeError."""
    states = {name: NormStatsState.for_features(st.running_mean.size)
              for name, st in model.norm_states.items()}
    return recompute_running_stats(DamelModel(model.config, weights, states), train_ds)
