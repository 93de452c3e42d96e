"""
wikistream - stream-based profiling and classification of wiki contributors.

Pipeline: ingest edit events, aggregate per contributor-day, optionally
balance the bot class with fabricated samples, profile contributors
incrementally and classify them online (human/bot, benign/malign) under
prequential evaluation.
"""

from .model import (
    AggregateBatch,
    DailyAggregate,
    EditEvent,
    ValidationError,
    derive_contribution_type,
    derive_user_type,
)
from .ingest import (
    aggregate_daily,
    load_stream,
    parse_events,
    summarize,
)
from .analysis import (
    SET1,
    SET2,
    SET3_TARGET1,
    SET3_TARGET2,
    FeatureSet,
    correlation_report,
    fit_l1_linear,
    pearson,
    rfe,
)
from .fabricate import (
    balance_dataset,
    compare_stats,
    generate_synthetic,
    k_selection_curve,
    kmeans_fit,
    quartile_stats,
)
from .profiling import ProfileStore, to_feature_vector
from .learn import (
    BaggingForest,
    GaussianNaiveBayes,
    HoeffdingTree,
    OnlineBoosting,
    StackingModel,
    make_classifier,
)
from .evaluate import (
    ConfusionMatrix,
    f_measure,
    macro_micro,
    prequential_run,
    prequential_run_stacking,
)
from .sim import SimConfig, simulate, write_simulation

__version__ = "0.1.0"
