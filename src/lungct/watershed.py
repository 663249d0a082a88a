"""Marker-controlled watershed segmentation.

Markers come from regional maxima of a double reconstruction filter,
split into foreground/background by a global Otsu threshold. Minima are
imposed at all marker pixels and a flood over hierarchical queues, one
FIFO per gray level (Beucher & Meyer 1993), grows each marker component
into a catchment basin; pixels where two different labels meet become
ridge (label 0). Candidate tumour regions are the basins grown from
foreground markers.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import NoMarkerError, ShapeError
from .morphology import (
    _SQUARE,
    _label,
    close_by_reconstruction,
    dilate_mask,
    erode_mask,
    impose_minima,
    make_disk,
    open_by_reconstruction,
    regional_maxima,
)
from .validation import as_bool_mask, as_gray_image

_BORDER, _UNQUEUED, _QUEUED = -2, -1, -3  # flood states of pixels without a label

BORDER_EROSION_RADIUS = 2  # the dark area shrinks by this disk before it marks background


@dataclass
class MarkerSet:
    """Disjoint foreground (candidate) and background (certain non-target) masks."""

    foreground: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        self.foreground = as_bool_mask(self.foreground, name="foreground")
        self.background = as_bool_mask(self.background, self.foreground.shape, "background")
        if np.any(self.foreground & self.background):
            raise ValueError("foreground and background markers overlap")

    @property
    def shape(self):
        return self.foreground.shape

    def any(self):
        return bool(self.foreground.any() or self.background.any())


def otsu_threshold(img) -> int:
    """Histogram threshold maximizing between-class variance.

    Returns t such that the bright class is ``img >= t``. For a constant
    image there is no valid split; the returned t is one above the single
    value, so the bright class is empty.
    """
    img = as_gray_image(img)
    hist = np.bincount(img.ravel(), minlength=256).astype(np.float64)
    n0 = np.cumsum(hist)[:-1]                   # pixels below t, for t = 1..255
    n1 = hist.sum() - n0
    below_weighted = np.cumsum(hist * np.arange(256))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = below_weighted[:-1] / n0
        mu1 = (below_weighted[255] - below_weighted[:-1]) / n1
        score = n0 * n1 * (mu0 - mu1) ** 2
    valid = (n0 != 0) & (n1 != 0)
    if not valid.any():
        return int(img.flat[0]) + 1
    return int(np.argmax(np.where(valid, score, -1.0))) + 1  # first best t


def compute_markers(pre, disk_radius=DEFAULTS.disk_radius) -> MarkerSet:
    """Derive watershed markers from a preprocessed slice.

    Opening- then closing-by-reconstruction with a disk flattens texture
    inside bright and dark structures; the regional maxima of that image
    at or above its Otsu threshold are foreground markers, while the
    maxima below it plus the eroded dark area form the background
    markers. An empty foreground is a legal result meaning "no candidate
    on this slice".

    Every 8-connected component of regional maxima is a plateau of one
    value, so it lies wholly on one side of the threshold and the
    pixel-wise split already separates whole components.
    """
    pre = as_gray_image(pre)
    se = make_disk(disk_radius)
    smooth = close_by_reconstruction(open_by_reconstruction(pre, se), se)
    maxima = regional_maxima(smooth)
    bright = smooth >= otsu_threshold(smooth)
    foreground = maxima & bright
    background = (maxima & ~bright) | erode_mask(~bright, make_disk(BORDER_EROSION_RADIUS))
    return MarkerSet(foreground=foreground, background=background)


def _seed_labels(markers: MarkerSet):
    """Label marker components: foreground first, then background.

    4-connected, like the flood and the basin/ridge topology, so each basin
    is a single 4-connected component; extrema detection stays 8-connected.
    One labelling of the foreground stacked above the background, a blank
    row apart, numbers them in raster order: every foreground component
    before any background one. The two masks are disjoint, so the halves add.
    """
    h, w = markers.shape
    labels, _ = _label(np.vstack([markers.foreground, np.zeros((1, w), dtype=bool),
                                  markers.background]), 4)
    return labels[:h] + labels[h + 1:]


def _flood(relief, seeds):
    """Flood the uint8 relief from the seed labels; returns the int32 label grid.

    Hierarchical queues, one FIFO per gray level: pixels pop in increasing
    relief value, ties in queueing order; a pixel queued below the current
    level steps the level back to it. A popped pixel meeting two different
    labels becomes ridge (0) and does not propagate. Every queued pixel has
    a labelled 4-neighbor and a pixel that joins a basin queues all its
    unqueued 4-neighbors, so pixels never queued form pockets sealed off by
    ridge (possible only in degenerate marker geometries) and stay ridge.
    Labels go in place into a padded copy of ``seeds``: only the unlabelled
    pixels are visited one by one.
    """
    wp = relief.shape[1] + 2
    offsets = (-wp, -1, 1, wp)
    val = np.pad(relief, 1).tobytes()
    lab_arr = np.pad(seeds, 1, constant_values=_BORDER)
    unassigned = lab_arr == 0
    frontier = unassigned & dilate_mask(lab_arr > 0, make_disk(1))
    lab_arr[unassigned] = _UNQUEUED
    lab_arr[frontier] = _QUEUED
    lab = memoryview(lab_arr.reshape(-1))
    queues = [deque() for _ in range(256)]
    for idx in np.flatnonzero(frontier).tolist():
        queues[val[idx]].append(idx)
    level = 0
    while level < 256:
        queue = queues[level]
        if not queue:
            level += 1
            continue
        idx = queue.popleft()
        label = 0
        for off in offsets:
            neighbor = lab[idx + off]
            if neighbor > 0 and neighbor != label:
                if label:
                    label = 0  # two basins meet here: ridge
                    break
                label = neighbor
        lab[idx] = label
        if not label:
            continue
        for off in offsets:
            n = idx + off
            if lab[n] == _UNQUEUED:
                lab[n] = _QUEUED
                v = val[n]
                queues[v].append(n)
                if v < level:
                    level = v
    return np.maximum(lab_arr[1:-1, 1:-1], 0)  # unpopped pocket pixels become ridge


def watershed(img, markers: MarkerSet):
    """Flood the image from the marker set; 0 marks ridge lines.

    Minima are imposed at every marker pixel first, so each marker
    component becomes one catchment basin. Deterministic: identical
    inputs give identical label grids.
    """
    img = as_gray_image(img)
    if markers.shape != img.shape:
        raise ShapeError(f"markers shape {markers.shape} does not match image {img.shape}")
    if not markers.any():
        raise NoMarkerError("both marker masks are empty")
    return _flood(impose_minima(img, markers.foreground | markers.background), _seed_labels(markers))


def candidate_masks(labels, markers: MarkerSet):
    """Masks of basins seeded by foreground and untouched by background.

    Each mask is the basin plus its bounding ridge pixels; a ridge pixel
    shared between two candidate basins is assigned to the lower label so
    the masks stay pairwise disjoint.
    """
    labels = np.asarray(labels)
    if labels.shape != markers.shape:
        raise ShapeError(f"labels shape {labels.shape} does not match markers {markers.shape}")
    ridge = labels == 0
    claimed = np.zeros(labels.shape, dtype=bool)
    masks = []
    for basin_id in np.flatnonzero(np.bincount(labels[markers.foreground])).tolist():
        basin = labels == basin_id
        if basin_id == 0 or (basin & markers.background).any():
            continue
        mask = basin | (ridge & dilate_mask(basin, _SQUARE) & ~claimed)
        claimed |= mask
        masks.append(mask)
    return masks


def extract_region(original, mask):
    """Keep the original pixels inside and on the mask, black out the rest."""
    original = as_gray_image(original, "original")
    mask = as_bool_mask(mask, original.shape)
    return np.where(mask, original, np.uint8(0))
