"""Heterogeneous multi-task affect learning toolkit.

Couples expression classification, action-unit detection, and valence/arousal
regression through relatedness tables, co-annotation and distribution-matching
losses, aligned heterogeneous batching, and zero-shot compound scoring.
"""

__version__ = "0.1.0"

from .errors import AffectMTLError, ConfigError, DataError, NumericalError
from .labels import (
    EmotionSoftLabel,
    SampleSet,
    clean_va_expr,
    co_annotate,
    subsample_frames,
)
from .losses import (
    LossReport,
    LossWeights,
    SoftTargets,
    ccc,
    ccc_loss,
    dm_loss,
    dm_targets,
    masked_bce,
    sca_loss,
    softmax_ce,
    total_mt_loss,
)
from .model import (
    MultiHeadModel,
    SGDMomentum,
    gradient_check,
    median_filter,
)
from .relatedness import (
    AU_LABELS,
    CANONICAL_AUS,
    EMOTIONS,
    RelatednessTable,
    domain_table,
    infer_empirical,
    load_domain_table,
)
from .scheduler import EpochPlan, next_joint_batch, plan_epoch
from .training import ExperimentConfig, run_eval, run_gradcheck, run_train
from .zeroshot import (
    CompoundClass,
    CompoundScores,
    compound_scores,
    default_compound_classes,
    load_compound_profiles,
    save_compound_profiles,
)
