"""End-to-end per-slice pipeline and series-level orchestration.

One slice flows preprocess -> markers -> watershed -> candidate masks ->
region extraction -> features. Slices are independent, so a worker pool
may fan them out; results come back in slice order, making the output
identical for any worker count.
"""

from dataclasses import dataclass

import numpy as np

from .analytics import SliceDetection, build_report
from .base import map_tasks
from .config import PipelineConfig
from .errors import SliceError
from .features import RegionFeatures, feature_vector
from .ingest import CtSeries
from .morphology import erode_mask, make_disk
from .preprocess import preprocess_slice
from .watershed import candidate_masks, compute_markers, extract_region, watershed


@dataclass
class Candidate:
    """One segmented region on one slice, ready for classification."""

    slice_index: int
    mask: np.ndarray
    region: np.ndarray
    features: RegionFeatures


def analyze_slice(original, config: PipelineConfig, slice_index=0):
    """Segment one slice into candidate regions with features.

    Features and extracted pixels come from the original 8-bit slice, not
    the remapped working image, so mean intensities stay in the raw
    tumour range the classifier learns.
    """
    pre = preprocess_slice(original, **config.preprocess_kwargs())
    markers = compute_markers(pre, disk_radius=config.disk_radius)
    if not markers.foreground.any():
        return []
    labels = watershed(pre, markers)
    out = []
    for mask in candidate_masks(labels, markers):
        region = extract_region(original, mask)
        out.append(
            Candidate(
                slice_index=slice_index,
                mask=mask,
                region=region,
                features=feature_vector(region),
            )
        )
    return out


def _slice_task(payload):
    index, original, config = payload
    try:
        return analyze_slice(original, config, slice_index=index)
    except Exception as exc:
        raise SliceError(f"slice {index}: {exc}") from exc


def segment_series(slices, config: PipelineConfig):
    """Candidates for every slice, ordered by slice index, segmented by
    ``config.threads`` processes."""
    tasks = [(i, np.asarray(img), config) for i, img in enumerate(slices)]
    return map_tasks(_slice_task, tasks, config.threads)


def classify_series(series: CtSeries, model, config: PipelineConfig):
    """The report of the full detection pipeline over a series, segmented as
    :func:`segment_series` does; each positive keeps its mask for overlays."""
    per_slice = segment_series(series.slices, config)
    detections = []
    for slice_index, candidates in enumerate(per_slice):
        for cand in candidates:
            label, confidence = model.predict_one(cand.features)
            if label != 1:
                continue
            detections.append(
                SliceDetection(
                    slice_index=slice_index,
                    area_px=cand.features.size_px,
                    center=cand.features.center,
                    confidence=confidence,
                    mask=cand.mask,
                    instance_number=series.instance_numbers[slice_index],
                )
            )
    return build_report(
        series.patient_id, detections, series.slice_thickness_mm, series.pixel_spacing_mm
    )


def render_overlay(original, mask):
    """Original slice with the 1-px inner boundary of ``mask`` at full white."""
    original = np.asarray(original)
    boundary = mask & ~erode_mask(mask, make_disk(1))
    out = original.copy()
    out[boundary] = 255
    return out
