"""Synthetic CT phantoms and feature corpora for exercising the pipeline.

No clinical data ships with this package; these generators produce chest
slices with the structures the pipeline cares about (lung fields, body
wall, a central trachea ring, vessel specks, optional tumour disks) plus
labeled feature-space corpora for training the classifier.
"""

from pathlib import Path

import numpy as np

from .ensemble import Xorshift64Star
from .ingest import write_pgm

BODY_VALUE = 160
LUNG_VALUE = 55
AIR_VALUE = 0
TRACHEA_WALL_VALUE = 120   # inside the tumour intensity band on purpose
TUMOUR_VALUE = 115
TUMOUR_JITTER = 5


def _disk(shape, cx, cy, radius):
    h, w = shape
    ys, xs = np.ogrid[:h, :w]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius


def _ellipse(shape, cx, cy, rx, ry):
    h, w = shape
    ys, xs = np.ogrid[:h, :w]
    return ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0


def make_phantom_slice(
    size=512,
    rng=None,
    tumour=None,          # (cx, cy, radius) or None
    distractor=None,      # (cx, cy, radius) or None
    n_specks=8,
):
    """One synthetic chest slice.

    The trachea ring and the top-edge artifact block intentionally sit in
    the tumour intensity band: the central strip and the blackout step of
    preprocessing must neutralize them.
    """
    rng = rng or np.random.default_rng(0)
    img = np.full((size, size), AIR_VALUE, dtype=np.int32)
    cy = cx = size // 2

    body = _ellipse(img.shape, cx, cy, 0.46 * size, 0.40 * size)
    img[body] = BODY_VALUE

    lungs = np.zeros_like(body)
    for side in (-1, 1):
        lungs |= _ellipse(img.shape, cx + side * 0.19 * size, cy, 0.17 * size, 0.28 * size)
    lungs &= body
    noise = rng.integers(-8, 9, size=img.shape)
    img[lungs] = np.clip(LUNG_VALUE + noise, 42, 75)[lungs]

    # Trachea: an in-band ring at the vertical midline, isolated from the wall.
    tcx = cx + int(rng.integers(-1, 2))
    tcy = cy - int(0.06 * size)
    ring = _disk(img.shape, tcx, tcy, 11) & ~_disk(img.shape, tcx, tcy, 8)
    img[ring] = TRACHEA_WALL_VALUE
    img[_disk(img.shape, tcx, tcy, 8)] = 25

    # Scanner-table style artifact in the top band, also in-band.
    top = int(0.04 * size)
    img[top : top + max(2, size // 100), cx - size // 5 : cx + size // 5] = 118

    # Small bright vessels inside the lungs; far smaller than the opening disk.
    for _ in range(n_specks):
        side = -1 if rng.uniform() < 0.5 else 1
        sx = cx + side * int(rng.integers(int(0.10 * size), int(0.26 * size)))
        sy = cy + int(rng.integers(-int(0.20 * size), int(0.20 * size)))
        speck = _disk(img.shape, sx, sy, int(rng.integers(2, 4)))
        img[speck & lungs] = int(rng.integers(112, 126))

    def plant(cx_p, cy_p, radius):
        blob = _disk(img.shape, cx_p, cy_p, radius)
        jitter = rng.integers(-TUMOUR_JITTER, TUMOUR_JITTER + 1, size=img.shape)
        img[blob] = (TUMOUR_VALUE + jitter)[blob]

    if distractor is not None:
        plant(*distractor)
    if tumour is not None:
        plant(*tumour)

    return np.clip(img, 0, 255).astype(np.uint8)


def make_phantom_series(
    n_slices=80,
    size=512,
    tumour_slices=(),
    distractor_slices=(),
    seed=0,
    tumour_radius_range=(20, 30),
    tumour_offset_range=(85, 105),
):
    """A full synthetic series plus its ground truth.

    The tumour keeps one (side, row, radius, offset) geometry across its
    slices, like a real lesion seen on consecutive cuts. Distractor blobs
    are tumour-like in intensity and size but sit close to the midline,
    where the center-distance feature must reject them.

    Returns ``(slices, truth)``: a (n, size, size) uint8 stack and a dict
    with the planted geometry.
    """
    rng = np.random.default_rng(seed)
    scale = size / 512.0

    side = -1 if rng.uniform() < 0.5 else 1
    radius = int(rng.integers(tumour_radius_range[0], tumour_radius_range[1] + 1))
    offset = int(rng.integers(tumour_offset_range[0], tumour_offset_range[1] + 1))
    tumour_cx = size // 2 + side * int(offset * scale)
    tumour_cy = size // 2 + int(rng.integers(-int(0.10 * size), int(0.10 * size)))

    distractor_cx = size // 2 + (-side) * int(40 * scale)
    distractor_cy = size // 2 + int(0.08 * size)
    distractor_radius = max(9, int(15 * scale))

    tumour = (tumour_cx, tumour_cy, radius)
    distractor = (distractor_cx, distractor_cy, distractor_radius)
    slices = [
        make_phantom_slice(size=size, rng=rng, tumour=tumour if i in tumour_slices else None,
                           distractor=distractor if i in distractor_slices else None)
        for i in range(n_slices)
    ]
    truth = {
        "tumour_slices": sorted(tumour_slices),
        "distractor_slices": sorted(distractor_slices),
        "tumour_center": (tumour_cx, tumour_cy),
        "tumour_radius": radius,
        "tumour_offset_px": offset,
    }
    return np.stack(slices), truth


def write_series_pgm(directory, slices):
    """Write a slice stack as slice_000.pgm, slice_001.pgm, ..."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(slices):
        path = directory / f"slice_{i:03d}.pgm"
        write_pgm(path, img)
        paths.append(path)
    return paths


# --- feature-space corpus ---------------------------------------------------------

# (size, mean, distance) boxes; gaps against the positive box keep the
# learning problem separable with margin.
_POSITIVE_BOX = ((1000.0, 5000.0), (100.0, 120.0), (80.0, 110.0))
_NEGATIVE_BOXES = (
    ((20.0, 900.0), (40.0, 220.0), (0.0, 250.0)),       # specks and fragments
    ((600.0, 6000.0), (95.0, 125.0), (0.0, 50.0)),      # central structures
    ((900.0, 8000.0), (30.0, 88.0), (55.0, 130.0)),     # dark lung-texture plateaus
    ((5500.0, 120000.0), (125.0, 230.0), (0.0, 200.0)), # body wall / huge regions
)


def make_feature_corpus(n=500, seed=0):
    """Labeled synthetic feature vectors: (X, y, patient_ids, slice_indices).

    Half the samples are tumour-like, half are drawn from the negative
    boxes in rotation. Each row gets its own synthetic patient id so
    patient-level and sample-level cross-validation coincide.
    """
    rng = Xorshift64Star(seed)

    def draw(box):
        return [lo + (hi - lo) * rng.uniform() for lo, hi in box]

    X, y = [], []
    for i in range(n):
        if i % 2 == 0:
            X.append(draw(_POSITIVE_BOX))
            y.append(1)
        else:
            X.append(draw(_NEGATIVE_BOXES[(i // 2) % len(_NEGATIVE_BOXES)]))
            y.append(0)
    patient_ids = [f"syn{i:05d}" for i in range(n)]
    slice_indices = list(range(n))
    return np.array(X, dtype=np.float64), np.array(y, dtype=np.int64), patient_ids, slice_indices
