"""Cough-audio feature extraction and ensemble MCDM model selection."""

__version__ = "0.1.0"

from .audio import (
    AudioClip,
    FeatureVector,
    StftConfig,
    extract_features,
    load_and_resample,
)
from .ensemble import ClosenessTable, EnsembleResult, fuse, soft_ensemble
from .learn import Dataset, StrategyConfig, rfecv, run_strategy, smote, stratified_kfold
from .mcdm import TopsisResult, WeightVector, entropy_weights, topsis
from .metrics import (
    CriterionSpec,
    DecisionMatrix,
    EvaluationReport,
    PredictionSet,
    build_decision_matrix,
    evaluate,
    threshold_sweep,
)

__all__ = [
    "AudioClip",
    "ClosenessTable",
    "CriterionSpec",
    "Dataset",
    "DecisionMatrix",
    "EnsembleResult",
    "EvaluationReport",
    "FeatureVector",
    "PredictionSet",
    "StftConfig",
    "StrategyConfig",
    "TopsisResult",
    "WeightVector",
    "build_decision_matrix",
    "entropy_weights",
    "evaluate",
    "extract_features",
    "fuse",
    "load_and_resample",
    "rfecv",
    "run_strategy",
    "smote",
    "soft_ensemble",
    "stratified_kfold",
    "threshold_sweep",
    "topsis",
]
