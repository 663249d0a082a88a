"""Batch lung-CT tumour detection, segmentation and analysis.

Every public name is bound at import. The runtime needs numpy only.
"""

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
from .pipeline import analyze_slice, classify_series, segment_series
from .preprocess import SlicePreprocessor, preprocess_slice
from .watershed import MarkerSet, candidate_masks, compute_markers, extract_region

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
