"""Flat grayscale morphology on 8-bit images.

Disk structuring elements, erosion/dilation and their compositions,
geodesic reconstruction, regional extrema and minima imposition. All
operators treat the image border by shrinking the neighborhood: pixels
outside the image simply do not participate, no padding value is
invented.

Only the max side is implemented, on int32: one disk max filter and one
geodesic-dilation fixpoint loop. Every min-based operator is its exact
dual, ``min(f) = -max(-f)`` (negate, run the max kernel, negate back),
so intermediate images may leave [0, 255]. Each public function
validates and converts its uint8 input once and composes the int32
kernels, never the public functions.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMarkerError
from .validation import as_bool_mask, as_gray_image, require_same_shape

# Padding that never wins a max against real (or negated) data.
_LO = np.int32(-(2**30))

_OFFSETS_8 = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)


@dataclass(frozen=True)
class StructuringElement:
    """Flat disk neighborhood: all integer offsets within ``radius``."""

    radius: int
    offsets: tuple

    def __post_init__(self):
        if (0, 0) not in self.offsets:
            raise ValueError("structuring element must contain its origin")


def make_disk(radius: int) -> StructuringElement:
    """Disk of the given radius: offsets (dx, dy) with dx^2 + dy^2 <= radius^2."""
    if radius < 0:
        raise ValueError(f"disk radius must be >= 0, got {radius}")
    r2 = radius * radius
    offsets = tuple(
        (dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= r2
    )
    return StructuringElement(radius=radius, offsets=offsets)


def _max_filter(arr, se):
    """Shrinking-border max filter over the structuring element (int32)."""
    h, w = arr.shape
    r = se.radius
    if r == 0:
        return arr.copy()
    padded = np.pad(arr, r, constant_values=_LO)
    out = arr.copy()
    for dx, dy in se.offsets:
        if dx == 0 and dy == 0:
            continue
        view = padded[r + dy : r + dy + h, r + dx : r + dx + w]
        np.maximum(out, view, out=out)
    return out


def _min_filter(arr, se):
    return -_max_filter(-arr, se)


def _as_int(img, name="image"):
    return as_gray_image(img, name).astype(np.int32)


def erode(img, se: StructuringElement):
    """Minimum over the disk neighborhood of each pixel."""
    return _min_filter(_as_int(img), se).astype(np.uint8)


def dilate(img, se: StructuringElement):
    """Maximum over the disk neighborhood of each pixel."""
    return _max_filter(_as_int(img), se).astype(np.uint8)


def open_image(img, se: StructuringElement):
    """Erosion followed by dilation: removes bright structures below the disk."""
    return _max_filter(_min_filter(_as_int(img), se), se).astype(np.uint8)


def close_image(img, se: StructuringElement):
    """Dilation followed by erosion: fills dark structures below the disk."""
    return _min_filter(_max_filter(_as_int(img), se), se).astype(np.uint8)


# --- geodesic reconstruction ---------------------------------------------------

def _reconstruct(marker, mask):
    """Iterate 8-connected geodesic dilation of ``marker`` under ``mask`` to the fixpoint."""
    h, w = marker.shape
    padded = np.full((h + 2, w + 2), _LO, dtype=np.int32)
    inner = padded[1 : 1 + h, 1 : 1 + w]
    cur = marker.copy()
    buf = np.empty_like(cur)
    while True:
        inner[...] = cur
        np.copyto(buf, cur)
        for dy, dx in _OFFSETS_8:
            np.maximum(buf, padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w], out=buf)
        np.minimum(buf, mask, out=buf)
        if np.array_equal(buf, cur):
            return cur
        cur, buf = buf, cur


def _marker_and_mask(marker, mask):
    marker = _as_int(marker, "marker")
    mask = _as_int(mask, "mask")
    require_same_shape(marker, mask, "marker and mask")
    return marker, mask


def reconstruct_by_dilation(marker, mask):
    """Grow ``marker`` under ``mask`` until stable (marker <= mask required).

    A marker exceeding the mask anywhere is clamped down with a warning.
    """
    marker, mask = _marker_and_mask(marker, mask)
    if np.any(marker > mask):
        warnings.warn("marker exceeds mask; clamping marker to mask", stacklevel=2)
        marker = np.minimum(marker, mask)
    return _reconstruct(marker, mask).astype(np.uint8)


def reconstruct_by_erosion(marker, mask):
    """Shrink ``marker`` onto ``mask`` until stable (marker >= mask required)."""
    marker, mask = _marker_and_mask(marker, mask)
    if np.any(marker < mask):
        warnings.warn("marker is below mask; clamping marker to mask", stacklevel=2)
        marker = np.maximum(marker, mask)
    return (-_reconstruct(-marker, -mask)).astype(np.uint8)


def open_by_reconstruction(img, se: StructuringElement):
    """Erode, then rebuild surviving structures to their exact original shape."""
    arr = _as_int(img)
    return _reconstruct(_min_filter(arr, se), arr).astype(np.uint8)


def close_by_reconstruction(img, se: StructuringElement):
    """Dilate, then rebuild: dark structures below the disk are filled."""
    arr = _as_int(img)
    return (-_reconstruct(-_max_filter(arr, se), -arr)).astype(np.uint8)


# --- regional extrema ------------------------------------------------------------

def _regional_maxima(arr):
    return arr > _reconstruct(arr - 1, arr)


def regional_maxima(img):
    """Mask of connected plateaus with no strictly brighter neighbor."""
    return _regional_maxima(_as_int(img))


def regional_minima(img):
    """Mask of connected plateaus with no strictly darker neighbor."""
    return _regional_maxima(255 - _as_int(img))


def impose_minima(img, markers):
    """Force the image's regional minima to be exactly the marker components.

    Marker pixels drop to 0; everywhere else the output stays strictly
    positive and no non-marker minimum survives.
    """
    arr = _as_int(img)
    markers = as_bool_mask(markers, arr.shape, "markers")
    if not markers.any():
        raise EmptyMarkerError("marker mask selects no pixel")
    # Reconstruction by erosion of (0 on markers, +inf elsewhere) above
    # min(img + 1, that marker), written as its dual.
    forced = np.where(markers, np.int32(0), _LO)
    out = -_reconstruct(forced, np.maximum(-arr - 1, forced))
    return np.clip(out, 0, 255).astype(np.uint8)


def erode_mask(mask, se: StructuringElement):
    """Binary erosion with the shrinking-border policy."""
    return _min_filter(as_bool_mask(mask).astype(np.int32), se).astype(bool)
