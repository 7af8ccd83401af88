"""ECG emotion recognition toolkit on controllable synthetic data.

Pipeline: synthetic ECG acquisition -> FIR band-pass denoising -> truncated
DCT features -> one of three classifiers (PSO-tuned RBF-SVM, bagged random
forest, K-NN) -> repeated-run evaluation and sweep experiments.
"""

from .config import PipelineConfig
from .types import (
    ConfigError,
    Dataset,
    DataFormatError,
    Emotion,
    FeatureVector,
    ParameterError,
    SignalRecord,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "DataFormatError",
    "Emotion",
    "FeatureVector",
    "ParameterError",
    "PipelineConfig",
    "SignalRecord",
    "__version__",
]
