"""Desk-scale laboratory for class-imbalanced multi-expert training.

The model concatenates the normalized representations of several experts
that share a backbone, trains an auxiliary classifier on that (gradient
detached) concatenation with a class-balanced loss, and aggregates network
weights across epochs with an exponential moving average that alone drives
test-time predictions.
"""

from .averaging import (
    EmaState,
    SwaState,
    ema_update,
    load_eval_model,
    recompute_running_stats,
    swa_update,
)
from .data import (
    Dataset,
    GroupPartition,
    LongTailSpec,
    group_partition,
    long_tail_counts,
    minibatch_iterator,
    subsample_longtail,
    synthesize_balanced_test,
    synthesize_gaussian_longtail,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    DamelError,
    NumericError,
    ShapeError,
)
from .evaluation import (
    BiasVarianceReport,
    EvalReport,
    bias_variance_decompose,
    evaluate,
    one_hot_predictions,
)
from .experiment import (
    ExperimentConfig,
    RunRecord,
    default_config,
    expand_suite,
    load_config,
    parse_config,
    run_ablation_suite,
    run_seed_sweep,
    run_single,
    vary_config,
)
from .model import (
    DamelConfig,
    DamelModel,
    ForwardOutput,
    init_model,
    predict,
)
from .tensor import (
    NormStatsState,
    Tape,
    Tensor,
    backward,
    batch_norm,
    detach,
    l2_normalize,
    softmax_cross_entropy,
)
from .training import (
    LossBundle,
    OptimizerState,
    TrainConfig,
    class_balanced_weights,
    compute_losses,
    make_avg_state,
    sgd_step,
    train,
)

__version__ = "0.1.0"
