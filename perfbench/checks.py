"""Output checks computed apart from lungct.

Every check reads what a run wrote (report.json, overlays, model files,
CLI text) and compares it with the phantom's planted geometry, the DICOM
geometry the benchmark wrote, or another run. None compares with a stored
copy of an earlier output. Each function returns a list of problems; an
empty list means the output passed.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import ndimage

from lungct.config import PipelineConfig

# lungct's default tumour intensity band and cleanup disk radius, read from
# its configuration (inputs the program is given, not outputs it computes).
# The preprocessing closes the in-band pixels with this disk, so a vessel
# speck the phantom drew within reach of the tumour joins it, and the
# watershed basin may run up to the cleanup radius beyond the bright structure.
BAND = (PipelineConfig().band_lo, PipelineConfig().band_hi)
CLEANUP_RADIUS = PipelineConfig().cleanup_radius_close

# The lowest tumour area recall an analysis may have. Seeds 0-199 of the
# benchmark series give 0.737-0.99 (partial segmentation, see CHANGES.md),
# so this floor fails only an analysis that lost about a third of the tumour.
MIN_RECALL = 0.65
MIN_CV_ACCURACY = 0.95
MIN_HELDOUT_ACCURACY = 0.95
_CV_LINE = re.compile(r"cross-validation .*mean accuracy ([0-9.]+)%")
_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_pgm(path):
    """Binary P5 PGM with maxval 255 (no header comments) as a 2-D uint8 array."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None or header.group(3) != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = int(header.group(1)), int(header.group(2))
    raster = data[header.end():header.end() + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _disk_structure(radius):
    ys, xs = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    return xs * xs + ys * ys <= radius * radius


def allowed_overlay_regions(series):
    """Per tumour slice, where an overlay may draw: the planted structure grown by 3 px.

    The planted structure is the tumour disk plus every in-band pixel that
    the 3 px closing joins to it.
    """
    disk = series.disk()
    close_se = _disk_structure(CLEANUP_RADIUS)
    regions = {}
    for index in series.tumour_slices:
        gray = series.slices[index]
        in_band = (gray >= BAND[0]) & (gray <= BAND[1])
        joined = ndimage.binary_closing(in_band, structure=close_se) | disk
        labels, _ = ndimage.label(joined, structure=np.ones((3, 3), dtype=bool))
        structure = np.isin(labels, np.unique(labels[disk]))
        regions[index] = ndimage.distance_transform_edt(~structure) <= CLEANUP_RADIUS
    return regions


def check_analysis(patient_dir, series, allowed, reference_report=None):
    """Problems with one ``lungct analyze`` output folder, and the tumour area recall.

    ``allowed`` comes from :func:`allowed_overlay_regions`; ``reference_report``
    is the report.json bytes of another run of the same series, which must match.
    A planted slice with no positive is not a problem by itself: on a few
    seeds the watershed keeps too little of the tumour for the classifier,
    which the recall shows instead, so that the share of failed operations
    does not depend on the seed. A recall below ``MIN_RECALL`` is a problem.
    """
    patient_dir = Path(patient_dir)
    try:
        report_bytes = (patient_dir / "report.json").read_bytes()
        report = json.loads(report_bytes)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], None
    problems = []
    positives = report.get("positives", [])

    found = sorted({p["slice_index"] for p in positives})
    false_slices = sorted(set(found) - set(series.tumour_slices))
    if false_slices:
        problems.append(f"positives on slices {false_slices} where no tumour was planted")

    cx, cy = series.tumour_center
    for p in positives:
        x, y = p["center"]
        if (x - cx) ** 2 + (y - cy) ** 2 > series.tumour_radius ** 2:
            problems.append(f"slice {p['slice_index']}: centre {(x, y)} outside the planted disk")

    row, col = series.spacing_mm
    total_area = sum(p["area_px"] for p in positives)
    expected = total_area * row * col * series.thickness_mm
    if not math.isclose(report.get("volume_mm3", -1.0), expected, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"volume_mm3 {report.get('volume_mm3')} != sum(area) x spacing x "
                        f"thickness = {expected}")

    overlays = {int(p.name[6:9]): p for p in patient_dir.glob("slice_*_overlay.pgm")}
    if sorted(overlays) != found:
        problems.append(f"overlay files for slices {sorted(overlays)} != positives {found}")
    for index, path in sorted(overlays.items()):
        try:
            overlay = read_pgm(path)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        gray = series.slices[index]
        if overlay.shape != gray.shape:
            problems.append(f"{path.name}: shape {overlay.shape} != slice {gray.shape}")
            continue
        changed = overlay != gray
        if np.any(overlay[changed] != 255):
            problems.append(f"{path.name}: overlay changes pixels to values other than 255")
        outside = changed & ~allowed.get(index, np.zeros_like(changed))
        if outside.any():
            problems.append(f"{path.name}: {int(outside.sum())} drawn pixel(s) outside the "
                            f"planted tumour grown by {CLEANUP_RADIUS} px")

    if reference_report is not None and report_bytes != reference_report:
        problems.append("report.json differs from the --threads 1 report")

    planted = int(series.disk().sum()) * len(series.tumour_slices)
    recall = total_area / planted
    if recall < MIN_RECALL:
        problems.append(f"tumour area recall {recall:.4f} < {MIN_RECALL}")
    return problems, recall


def cv_accuracy(stdout):
    """The cross-validation mean accuracy ``lungct train`` printed, as a fraction."""
    match = _CV_LINE.search(stdout)
    return float(match.group(1)) / 100.0 if match else None


def check_training(cv, model_bytes, reference_bytes, heldout_accuracy):
    """Problems with one training: ``cv`` is its cross-validation accuracy or None."""
    problems = []
    if cv is None:
        problems.append("no cross-validation accuracy in the train output")
    elif cv < MIN_CV_ACCURACY:
        problems.append(f"cross-validation accuracy {cv:.4f} < {MIN_CV_ACCURACY}")
    if model_bytes != reference_bytes:
        problems.append("model file differs from another training on the same corpus")
    if heldout_accuracy < MIN_HELDOUT_ACCURACY:
        problems.append(f"held-out accuracy {heldout_accuracy:.4f} < {MIN_HELDOUT_ACCURACY}")
    return problems
