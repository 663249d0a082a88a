"""Region features used to tell tumours from other isolated lung particles.

Three values per extracted region: the non-zero pixel count, the mean
intensity over those pixels, and the horizontal distance from the region
center to the vertical midline of the image. The center is the midpoint
of the region's bounding-box extremities.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyRegionError
from .validation import _DECIMAL, _INTEGER, _check_numerals, as_gray_image

FEATURE_NAMES = ("size_px", "mean_intensity", "center_distance_px")
CSV_HEADER = ("patient_id", "slice_index", *FEATURE_NAMES, "label")
_CSV_FEATURES = slice(2, 2 + len(FEATURE_NAMES))  # the feature columns of a CSV row


@dataclass
class RegionFeatures:
    size_px: int
    mean_intensity: float
    center_distance_px: float
    center: tuple
    bbox: tuple  # (x_min, x_max, y_min, y_max)

    def as_vector(self):
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


def center_distance(center, image_width) -> float:
    """Horizontal distance from the center pixel to the vertical midline."""
    x = center[0]
    if not 0 <= x < image_width:
        raise ValueError(f"center x={x} outside image of width {image_width}")
    return abs(x - image_width / 2.0)


def feature_vector(region) -> RegionFeatures:
    """All three features of one extracted region (full-size image expected).

    Size is the non-zero pixel count and the mean intensity is taken over
    those pixels; the center is the integer-truncated midpoint (x, y) of
    their bounding-box extremities.
    """
    region = as_gray_image(region, "region")
    ys, xs = np.nonzero(region)
    if xs.size == 0:
        raise EmptyRegionError("region has no non-zero pixel")
    x_min, x_max = int(xs.min()), int(xs.max())
    y_min, y_max = int(ys.min()), int(ys.max())
    center = ((x_min + x_max) // 2, (y_min + y_max) // 2)
    size = int(xs.size)
    mean = float(region.sum(dtype=np.int64)) / float(size)
    return RegionFeatures(
        size_px=size,
        mean_intensity=mean,
        center_distance_px=center_distance(center, region.shape[1]),
        center=center,
        bbox=(x_min, x_max, y_min, y_max),
    )


# --- CSV interchange ------------------------------------------------------------

def write_feature_csv(path, rows):
    """Write feature rows: (patient_id, slice_index, size, mean, distance, label)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for patient_id, slice_index, size, mean, distance, label in rows:
            writer.writerow(
                [patient_id, slice_index, size, f"{mean:.6g}", f"{distance:.6g}", label]
            )


def _csv_rows(fh):
    """``(line, row)`` for each row of the CSV file ``fh``, ``line`` being the physical line
    the row starts on; a line the csv module rejects is a ValueError naming it."""
    reader = csv.reader(fh)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


def read_feature_csv(path):
    """Read a feature CSV back into (X, y, patient_ids, slice_indices).

    Raises ValueError on a malformed file: a wrong header, a line the csv
    module rejects, or a row with a bad field count, a non-finite feature,
    a number outside its grammar or a label other than -1, 0 or 1.
    """
    with Path(path).open(encoding="utf-8", newline="") as fh:
        rows = _csv_rows(fh)
        _, header = next(rows, (None, None))
        if header is None:
            raise ValueError("empty feature CSV")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"unexpected feature CSV header: {header}")
        patient_ids, slice_indices, X, y = [], [], [], []
        for line, row in rows:
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            try:
                patient_ids.append(row[0])
                slice_indices.append(int(row[1]))
                X.append([float(cell) for cell in row[_CSV_FEATURES]])
                y.append(int(row[-1]))
                if not all(map(math.isfinite, X[-1])):
                    raise ValueError(f"non-finite feature value in {row[_CSV_FEATURES]}")
                _check_numerals((row[1], row[-1]), _INTEGER)
                _check_numerals(row[_CSV_FEATURES], _DECIMAL)
                if y[-1] not in (-1, 0, 1):
                    raise ValueError(f"label must be -1, 0 or 1, got {y[-1]}")
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from exc
    return (
        np.array(X, dtype=np.float64).reshape(-1, len(FEATURE_NAMES)),
        np.array(y, dtype=np.int64),
        patient_ids,
        slice_indices,
    )
