"""Sparsity-preserving low-rank adapter toolkit.

Six adapter variants over frozen sparse weights, instrumented so every
multiply-accumulate and every saved-for-backward element is counted and
checkable against closed-form predictions: plain LoRA, masked-merge variants
that keep or recompute the merged weight, the Hadamard Repeat
parameterization, and the recompute-plus-reordered-backward variant with
SVD-based initialization.
"""

from .errors import (
    ArgumentError,
    CheckpointFormatError,
    GraphError,
    NumericError,
    ShapeError,
)
from .matrix import DenseMatrix, Rng
from .svd import SvdResult, svd
from .tape import CostCounters, SavedContext, Tape
from .prune import (
    CalibrationBatch,
    SparseWeight,
    prune_activation_scaled,
    prune_magnitude,
    prune_two_four,
    sparsity,
    two_four_valid,
)
from .adapters import (
    VARIANTS,
    AdaptedLayer,
    AdapterPair,
    CostPrediction,
    SppAdapter,
    VariantGrads,
    lora_forward,
    lors_forward,
    make_layer,
    merge,
    predict_cost,
    spp_forward,
    spp_gc_forward,
    sqft_forward,
    sqft_gc_forward,
    variant_backward,
    variant_forward,
)
from .initialization import (
    InitSpec,
    MemoryGauge,
    ProbeBatch,
    UpdateCheckReport,
    apply_init,
    first_step_update_check,
    fit_rank_r_rows,
    init_gradient_svd,
    init_zero_random,
    init_zero_zero,
    projection_residual,
    singular_tail,
)
from .train import (
    Dataset,
    MetricsTrace,
    OptimState,
    RecoveryResult,
    ToyModel,
    TrainConfig,
    evaluate,
    finetune,
    make_cluster_data,
    make_teacher_data,
    model_from_weights,
    random_dense_weights,
    run_recovery,
    train_step,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .bench import BenchReport, BenchRow, run_bench, run_suites, run_variant_bench

__version__ = "0.1.0"
