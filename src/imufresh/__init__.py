"""imufresh: feature engineering for activity recognition from synchronized IMUs.

The library covers the full workflow: virtual-sensor time-series
engineering, exhaustive parameterized feature extraction, hypothesis-test
feature selection with FDR control, random-forest training with
importance-based subset optimization, and deployment via restricted
extraction driven by parsed feature names.
"""

__version__ = "0.1.0"

from .calculators import (
    CALCULATORS,
    GRID_FEATURES_PER_KIND,
    ExtractionSettings,
    compute_feature,
    decode_feature_name,
    default_settings,
    make_feature_name,
    settings_from_feature_names,
)
from .errors import (
    BadParameters,
    ConfigError,
    DataError,
    ImufreshError,
    NothingSelected,
)
from .extraction import FeatureMatrix, extract, save_matrix
from .forest import (
    CVReport,
    ForestModel,
    ForestParams,
    aggregate_importances,
    cross_validate,
    load_model_file,
    predict_proba,
    save_model_file,
    top_k_features,
    train_forest,
)
from .names import FeatureName
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    PredictionTimeline,
    benchmark,
    load_config,
    predict,
    run_full_pipeline,
)
from .selection import (
    SelectionReport,
    benjamini_hochberg,
    benjamini_yekutieli,
    fisher_exact_test,
    kendall_tau,
    kendall_tau_test,
    ks_two_sample_test,
    select_features,
)
from .synth import synth_multi_activity, synth_walk_run
from .timeseries import (
    Recording,
    WindowSet,
    load_recording,
    load_recording_csv,
    save_recording,
    segment_fixed,
)
from .virtual import VirtualSensorSpec, apply_virtual_sensors, default_pairing

__all__ = [
    "__version__",
    "CALCULATORS",
    "GRID_FEATURES_PER_KIND",
    "ExtractionSettings",
    "compute_feature",
    "decode_feature_name",
    "default_settings",
    "make_feature_name",
    "settings_from_feature_names",
    "BadParameters",
    "ConfigError",
    "DataError",
    "ImufreshError",
    "NothingSelected",
    "FeatureMatrix",
    "extract",
    "save_matrix",
    "CVReport",
    "ForestModel",
    "ForestParams",
    "aggregate_importances",
    "cross_validate",
    "load_model_file",
    "predict_proba",
    "save_model_file",
    "top_k_features",
    "train_forest",
    "FeatureName",
    "PipelineConfig",
    "PipelineResult",
    "PredictionTimeline",
    "benchmark",
    "load_config",
    "predict",
    "run_full_pipeline",
    "SelectionReport",
    "benjamini_hochberg",
    "benjamini_yekutieli",
    "fisher_exact_test",
    "kendall_tau",
    "kendall_tau_test",
    "ks_two_sample_test",
    "select_features",
    "synth_multi_activity",
    "synth_walk_run",
    "Recording",
    "WindowSet",
    "load_recording",
    "load_recording_csv",
    "save_recording",
    "segment_fixed",
    "VirtualSensorSpec",
    "apply_virtual_sensors",
    "default_pairing",
]
