"""Aggregate per-slice detections into a series-level tumour report."""

import json
from dataclasses import dataclass, field

import numpy as np

from .config import check_geometry


@dataclass
class SliceDetection:
    """One positively classified region on one slice."""

    slice_index: int
    area_px: int
    center: tuple
    confidence: float
    mask: np.ndarray = field(default=None, repr=False, compare=False)
    instance_number: int = None

    def __post_init__(self):
        if self.area_px < 1:
            raise ValueError("a detection must cover at least one pixel")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")


@dataclass
class SeriesReport:
    patient_id: str
    positives: list
    max_area_px: int
    max_area_slice: int          # None when there are no positives
    volume_px_mm: float          # sum(area_px) * thickness: pixel-area times mm
    volume_mm3: float            # with pixel spacing folded in: true cubic mm
    mean_confidence: float
    slice_thickness_mm: float
    pixel_spacing_mm: tuple


def build_report(patient_id, detections, thickness_mm, spacing_mm) -> SeriesReport:
    """Summarize detections: max cross-sectional area and approximate volume.

    The volume sums every positive cross-sectional area and multiplies by
    the slice thickness; ``volume_mm3`` additionally folds in the pixel
    spacing so the number is in cubic millimetres. A max-area tie goes to
    the lowest slice index.
    """
    thickness, (row, col) = check_geometry(thickness_mm, spacing_mm)
    detections = sorted(detections, key=lambda d: (d.slice_index, -d.area_px))
    total_area = sum(d.area_px for d in detections)

    max_area, max_slice = 0, None
    for d in detections:
        if d.area_px > max_area:
            max_area, max_slice = d.area_px, d.slice_index
    return SeriesReport(
        patient_id=patient_id,
        positives=detections,
        max_area_px=max_area,
        max_area_slice=max_slice,
        volume_px_mm=total_area * thickness,
        volume_mm3=total_area * (row * col) * thickness,
        mean_confidence=(
            sum(d.confidence for d in detections) / len(detections) if detections else 0.0
        ),
        slice_thickness_mm=thickness,
        pixel_spacing_mm=(row, col),
    )


def report_to_dict(report: SeriesReport) -> dict:
    return {
        "patient_id": report.patient_id,
        "positives": [
            {
                "slice_index": d.slice_index,
                "instance_number": d.instance_number,
                "area_px": d.area_px,
                "center": [int(d.center[0]), int(d.center[1])],
                "confidence": d.confidence,
            }
            for d in report.positives
        ],
        "max_area_px": report.max_area_px,
        "max_area_slice": report.max_area_slice,
        "volume_px_mm": report.volume_px_mm,
        "volume_mm3": report.volume_mm3,
        "mean_confidence": report.mean_confidence,
        "slice_thickness_mm": report.slice_thickness_mm,
        "pixel_spacing_mm": list(report.pixel_spacing_mm),
    }


def report_to_json(report: SeriesReport) -> str:
    """Stable JSON rendering: sorted keys, no volatile fields."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_to_text(report: SeriesReport) -> str:
    """Human-readable summary for the per-patient result folder."""
    lines = [f"Patient {report.patient_id}"]
    if not report.positives:
        lines.append("No tumour found.")
    else:
        lines.append(f"Positive slices: {len(report.positives)}")
        for d in report.positives:
            instance = f" (instance {d.instance_number})" if d.instance_number is not None else ""
            lines.append(
                f"  slice {d.slice_index}{instance}: area {d.area_px} px, "
                f"center ({d.center[0]}, {d.center[1]}), "
                f"confidence {100.0 * d.confidence:.1f}%"
            )
        lines.append(
            f"Max cross-sectional area: {report.max_area_px} px "
            f"on slice {report.max_area_slice}"
        )
        lines.append(f"Approximate volume: {report.volume_px_mm:.1f} px*mm")
        lines.append(f"Approximate volume: {report.volume_mm3:.1f} mm^3")
        lines.append(f"Mean confidence: {100.0 * report.mean_confidence:.1f}%")
    return "\n".join(lines) + "\n"
