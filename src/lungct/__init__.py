"""Batch lung-CT tumour detection, segmentation and analysis.

The image-processing names (pipeline, preprocess, watershed) load on first
use (PEP 562), so training and evaluation never import scipy.
"""

import importlib

__version__ = "0.1.0"

from .analytics import SeriesReport, SliceDetection, build_report
from .config import PipelineConfig
from .ensemble import (
    BaggedTreesClassifier,
    cross_validate,
    evaluate,
    load_model,
    save_model,
)
from .features import RegionFeatures, feature_vector
from .ingest import CtSeries, load_series, to_gray8

_LAZY = {
    "analyze_slice": "pipeline",
    "classify_series": "pipeline",
    "segment_series": "pipeline",
    "SlicePreprocessor": "preprocess",
    "preprocess_slice": "preprocess",
    "MarkerSet": "watershed",
    "candidate_masks": "watershed",
    "compute_markers": "watershed",
    "extract_region": "watershed",
}

__all__ = [
    "BaggedTreesClassifier",
    "CtSeries",
    "MarkerSet",
    "PipelineConfig",
    "RegionFeatures",
    "SeriesReport",
    "SliceDetection",
    "SlicePreprocessor",
    "analyze_slice",
    "build_report",
    "candidate_masks",
    "classify_series",
    "compute_markers",
    "cross_validate",
    "evaluate",
    "extract_region",
    "feature_vector",
    "load_model",
    "load_series",
    "preprocess_slice",
    "save_model",
    "segment_series",
    "to_gray8",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
