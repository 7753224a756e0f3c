"""Heterogeneous multi-task affect learning toolkit.

Couples expression classification, action-unit detection, and valence/arousal
regression through relatedness tables, co-annotation and distribution-matching
losses, aligned heterogeneous batching, and zero-shot compound scoring.
"""

__version__ = "0.1.0"

from .errors import AffectMTLError, ConfigError, DataError, NumericalError
from .labels import (
    SampleSet,
    clean_va_expr,
    co_annotate,
    subsample_frames,
)
from .losses import ccc
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
)
from .scheduler import plan_epoch
from .training import ExperimentConfig, run_eval, run_gradcheck, run_train
from .zeroshot import (
    CompoundProfiles,
    CompoundScores,
    compound_scores,
    default_compound_classes,
    load_compound_profiles,
    save_compound_profiles,
)
