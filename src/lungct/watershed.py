"""Marker-controlled watershed segmentation.

Markers come from regional maxima of a double reconstruction filter,
split into foreground/background by a global Otsu threshold. Minima are
imposed at all marker pixels and a priority flood grows each marker
component into a catchment basin; pixels where two different labels meet
become ridge (label 0). Candidate tumour regions are the basins grown
from foreground markers.
"""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .config import DEFAULTS
from .errors import NoMarkerError, ShapeError
from .morphology import (
    close_by_reconstruction,
    erode_mask,
    impose_minima,
    make_disk,
    open_by_reconstruction,
    regional_maxima,
)
from .validation import as_bool_mask, as_gray_image

# The flood and the basin/ridge topology are 4-connected so each basin is
# a single 4-connected component; extrema detection above stays 8-connected.
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_FULL = np.ones((3, 3), dtype=bool)

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
    total = hist.sum()
    below = np.cumsum(hist)                     # pixels with value < t is below[t-1]
    below_weighted = np.cumsum(hist * np.arange(256))
    best_t, best_score = None, -1.0
    for t in range(1, 256):
        n0 = below[t - 1]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        mu0 = below_weighted[t - 1] / n0
        mu1 = (below_weighted[255] - below_weighted[t - 1]) / n1
        score = n0 * n1 * (mu0 - mu1) ** 2
        if score > best_score:
            best_t, best_score = t, score
    if best_t is None:
        return int(img.flat[0]) + 1
    return best_t


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
    """Label marker components: foreground first, then background, 4-connected."""
    fg_labels, n_fg = ndimage.label(markers.foreground, structure=_CROSS)
    bg_labels, _ = ndimage.label(markers.background, structure=_CROSS)
    seeds = fg_labels.astype(np.int32)
    np.add(seeds, np.where(bg_labels > 0, bg_labels + n_fg, 0).astype(np.int32), out=seeds)
    return seeds


def _flood(values, seeds):
    """Priority flood over padded flat lists; returns int32 label grid.

    Pops in increasing pixel value; insertion order breaks ties (FIFO).
    A popped pixel adopting two different neighbor labels becomes ridge
    (0) and does not propagate. Pockets sealed off entirely by ridge
    pixels - possible only in degenerate marker geometries - are never
    popped and become ridge too, because no basin could claim them: every
    pushed pixel has a labelled 4-neighbor, so it joins a basin unless two
    meet there, and a pixel that joins pushes all its unassigned
    4-neighbors. A pocket pixel thus has only ridge and pocket pixels as
    4-neighbors.
    """
    h, w = values.shape
    wp = w + 2
    val = np.pad(values.astype(np.int32), 1).ravel().tolist()
    lab_arr = np.pad(seeds, 1, constant_values=-2)
    unassigned = lab_arr == 0
    frontier = unassigned & ndimage.binary_dilation(lab_arr > 0, structure=_CROSS)
    lab_arr[unassigned] = -1
    lab = lab_arr.ravel().tolist()

    offsets = (-wp, -1, 1, wp)
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    queued = bytearray(len(lab))
    seq = 0
    for idx in np.flatnonzero(frontier.ravel()).tolist():
        queued[idx] = 1
        push(heap, (val[idx], seq, idx))
        seq += 1
    while heap:
        _, _, idx = pop(heap)
        first = 0
        conflict = False
        for off in offsets:
            neighbor = lab[idx + off]
            if neighbor > 0:
                if first == 0:
                    first = neighbor
                elif neighbor != first:
                    conflict = True
        if conflict:
            lab[idx] = 0
            continue
        lab[idx] = first
        for off in offsets:
            n = idx + off
            if lab[n] == -1 and not queued[n]:
                queued[n] = 1
                push(heap, (val[n], seq, n))
                seq += 1
    out = np.array(lab, dtype=np.int32).reshape(h + 2, wp)[1:-1, 1:-1]
    return np.maximum(out, 0)  # unpopped pocket pixels (-1) become ridge


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
    relief = impose_minima(img, markers.foreground | markers.background)
    seeds = _seed_labels(markers)
    return _flood(relief, seeds)


def candidate_masks(labels, markers: MarkerSet):
    """Masks of basins seeded by foreground and untouched by background.

    Each mask is the basin plus its bounding ridge pixels; a ridge pixel
    shared between two candidate basins is assigned to the lower label so
    the masks stay pairwise disjoint.
    """
    labels = np.asarray(labels)
    if labels.shape != markers.shape:
        raise ShapeError(f"labels shape {labels.shape} does not match markers {markers.shape}")
    fg_ids = set(np.unique(labels[markers.foreground]).tolist())
    bg_ids = set(np.unique(labels[markers.background]).tolist())
    candidate_ids = sorted((fg_ids - bg_ids) - {0})

    ridge = labels == 0
    claimed = np.zeros(labels.shape, dtype=bool)
    masks = []
    for basin_id in candidate_ids:
        basin = labels == basin_id
        bounding = ridge & ndimage.binary_dilation(basin, structure=_FULL) & ~claimed
        mask = basin | bounding
        claimed |= mask
        masks.append(mask)
    return masks


def extract_region(original, mask):
    """Keep the original pixels inside and on the mask, black out the rest."""
    original = as_gray_image(original, "original")
    mask = as_bool_mask(mask, original.shape)
    return np.where(mask, original, np.uint8(0))
