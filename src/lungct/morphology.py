"""Flat grayscale morphology on 8-bit images.

Disk structuring elements, erosion/dilation and their compositions,
geodesic reconstruction, regional maxima and minima imposition. All
operators treat the image border by shrinking the neighborhood: pixels
outside the image simply do not participate. The kernel pads with 0, the
identity of max on uint8 and bool, which amounts to the same.

Only the max side is implemented, and it runs on the uint8 image itself:
one neighbourhood-max kernel, ``_fold``, and one geodesic-dilation
fixpoint loop (Vincent 1993) built on it. Every min-based operator is its
exact dual under the order-reversing complement ``~x = 255 - x`` (``not x``
on bool masks): ``min(f) = ~max(~f)``. The complement maps [0, 255] onto
itself, and every iterate of a reconstruction stays between its marker and
its mask, so no image ever leaves uint8.

``_fold`` works on the image framed by zeros as one flat raster, so every
pass is one contiguous numpy operation; on a 2-D view whose rows are not
contiguous, numpy pays per row, about four times as much per pixel on a
512x512 slice. The disk filter, the reconstruction step and the regional
maxima all call it.

The kernel decomposes the element into its rows. Each row ``dy`` is one
run ``-k..k`` of offsets, so its max is the running max of the image row
over ``[-k, k]`` read ``dy`` rows away. The running maxima for k = 1..radius
take two passes each (each widens the last by one pixel on either side),
and the element rows one pass each, the first two sharing one: 32 passes
for radius 8 instead of one per offset (196). Max is associative and
commutative, so regrouping the offsets this way gives the same value bit
for bit, and the frame is ``radius`` columns wide, so no shift reaches the
next row. One scratch buffer holds the running max, widened in place:
rows are folded narrowest first, so a narrower span is never read again.

The reconstruction step ``min(max3x3(cur), mask)`` is recomputed only on
the rows that can still change: the rows that changed in the last step,
grown by one. A pixel with no change in its 3x3 neighbourhood in the last
step reads the same inputs as in that step, so its value is already this
step's result: the skipped rows would not change, and every iterate, the
fixpoint included, is that of the full-image loop. Whole rows, not a 2-D
box, keep the passes flat.

Minima imposition is the textbook reconstruction by erosion of the marker
image (0 on markers, +inf elsewhere) above ``min(img + 1, marker image)``.
Clipping at 255 is monotone, so it commutes with every erosion and max of
that reconstruction: clipping the two inputs first gives the clipped
result, and the clipped inputs fit in uint8.

Regional maxima take no fixpoint loop: two 3x3 max filters and one
labelling pass find the plateaus with no brighter neighbour. Their second
filter reads ``img + 1`` on pixels that have a brighter neighbour, which
are therefore at most 254, so it stays in uint8 too.

Each public function validates its input once and composes the uint8
kernels, never the public functions. Every result is a new array.

``_label`` numbers connected components by union-find over row runs,
exactly as ``scipy.ndimage.label`` numbers them, so lungct needs no scipy.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import EmptyMarkerError
from .validation import as_bool_mask, as_gray_image, require_same_shape

@dataclass(frozen=True)
class StructuringElement:
    """Flat neighborhood: (dx, dy) offsets within ``radius`` on each axis (a disk, or a 3x3 square).

    Each row of offsets must be one run ``-k..k`` symmetric about ``dx = 0``;
    ``rows`` lists every row as ``(k, dy)``, narrowest first.
    """

    radius: int
    offsets: tuple
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (0, 0) not in self.offsets:
            raise ValueError("structuring element must contain its origin")
        by_row = {}
        for dx, dy in self.offsets:
            by_row.setdefault(dy, set()).add(dx)
        rows = []
        for dy, dxs in by_row.items():
            k = max(dxs)
            if dxs != set(range(-k, k + 1)) or max(k, abs(dy)) > self.radius:
                raise ValueError(f"row dy={dy} of the structuring element must be one run "
                                 f"symmetric about dx=0 within radius {self.radius}, "
                                 f"got dx={sorted(dxs)}")
            rows.append((k, dy))
        object.__setattr__(self, "rows", tuple(sorted(rows)))


@lru_cache(maxsize=16)
def make_disk(radius: int) -> StructuringElement:
    """Disk of the given radius: offsets (dx, dy) with dx^2 + dy^2 <= radius^2.

    Elements are immutable, so every caller shares one per radius; a slice
    asks for about five.
    """
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


_SQUARE = StructuringElement(1, tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)))


def _fold(flat, width, se, lo, hi, out, span):
    """Write into ``out[lo:hi]`` the max of ``flat`` over ``se`` and return that view.

    ``flat`` is a raster ``width`` pixels wide whose rows carry at least
    ``se.radius`` zero columns at either end, with ``se.radius`` rows above
    ``lo`` and below ``hi`` (zero outside the image). Pixels in the frame
    columns of ``out[lo:hi]`` get values the caller must discard; ``out``
    outside ``lo:hi`` is not written. ``span`` is scratch the size of
    ``flat``; neither it nor ``out`` may overlap ``flat``.
    """
    r = se.radius
    a, b = lo - r * width, hi + r * width
    step = out[lo:hi]
    src, k = flat, 0
    for n, (half, rows) in enumerate(groupby(se.rows, key=itemgetter(0))):
        while k < half:  # the running row max over [-k, k] on rows a:b, widened in place
            k += 1
            np.maximum(src[a + k : b], flat[a : b - k], out=span[a + k : b])
            span[a : a + k] = src[a : a + k]  # frame pixels, kept defined
            np.maximum(span[a : b - k], flat[a + k : b], out=span[a : b - k])
            src = span
        views = [src[lo + dy * width : hi + dy * width] for _, dy in rows]
        if n == 0:  # the first two rows in one pass; max(v, v) = v if there is one
            np.maximum(views[0], views[-1], out=step)
            views = views[1:-1]
        for view in views:
            np.maximum(step, view, out=step)
    return step


def _max_filter(arr, se):
    """Shrinking-border max filter over the structuring element (uint8 or bool)."""
    h, w = arr.shape
    r = se.radius
    width = w + 2 * r
    framed = np.zeros((h + 2 * r, width), dtype=arr.dtype)
    framed[r : r + h, r : r + w] = arr
    flat = framed.reshape(-1)
    out = np.empty_like(flat)
    _fold(flat, width, se, r * width, (r + h) * width, out, np.empty_like(flat))
    return out.reshape(-1, width)[r : r + h, r : r + w].copy()


def _min_filter(arr, se):
    return ~_max_filter(~arr, se)


def erode(img, se: StructuringElement):
    """Minimum over the disk neighborhood of each pixel."""
    return _min_filter(as_gray_image(img), se)


def dilate(img, se: StructuringElement):
    """Maximum over the disk neighborhood of each pixel."""
    return _max_filter(as_gray_image(img), se)


def open_image(img, se: StructuringElement):
    """Erosion followed by dilation: removes bright structures below the disk."""
    return _max_filter(_min_filter(as_gray_image(img), se), se)


def close_image(img, se: StructuringElement):
    """Dilation followed by erosion: fills dark structures below the disk."""
    return _min_filter(_max_filter(as_gray_image(img), se), se)


# --- geodesic reconstruction ---------------------------------------------------

def _reconstruct(marker, mask):
    """Iterate 8-connected geodesic dilation of ``marker`` under ``mask`` to the fixpoint.

    Works on both images framed by zeros, as flat rasters; the frame stays 0
    because its mask is 0. Each step recomputes only the rows ``y0:y1``
    that can still change: the last step's changed rows, grown by one.
    """
    h, w = marker.shape
    width = w + 2
    cur = np.zeros((h + 2, width), dtype=marker.dtype)
    cur[1:-1, 1:-1] = marker
    limit = np.zeros_like(cur)
    limit[1:-1, 1:-1] = mask
    cur_f, limit_f = cur.reshape(-1), limit.reshape(-1)
    new, span = np.empty_like(cur_f), np.empty_like(cur_f)
    changed = np.empty(cur_f.size, dtype=bool)
    y0, y1 = 1, h + 1
    while True:
        lo, hi = y0 * width, y1 * width
        step = _fold(cur_f, width, _SQUARE, lo, hi, new, span)
        np.minimum(step, limit_f[lo:hi], out=step)
        diff = np.not_equal(step, cur_f[lo:hi], out=changed[lo:hi])
        moved = np.flatnonzero(diff.reshape(-1, width).any(axis=1))
        if not moved.size:
            return cur[1:-1, 1:-1].copy()
        cur_f[lo:hi] = step
        y0, y1 = max(y0 + int(moved[0]) - 1, 1), min(y0 + int(moved[-1]) + 2, h + 1)


def _marker_and_mask(marker, mask):
    marker = as_gray_image(marker, "marker")
    mask = as_gray_image(mask, "mask")
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
    return _reconstruct(marker, mask)


def reconstruct_by_erosion(marker, mask):
    """Shrink ``marker`` onto ``mask`` until stable (marker >= mask required)."""
    marker, mask = _marker_and_mask(marker, mask)
    if np.any(marker < mask):
        warnings.warn("marker is below mask; clamping marker to mask", stacklevel=2)
        marker = np.maximum(marker, mask)
    return ~_reconstruct(~marker, ~mask)


def open_by_reconstruction(img, se: StructuringElement):
    """Erode, then rebuild surviving structures to their exact original shape."""
    arr = as_gray_image(img)
    return _reconstruct(_min_filter(arr, se), arr)


def close_by_reconstruction(img, se: StructuringElement):
    """Dilate, then rebuild: dark structures below the disk are filled."""
    arr = as_gray_image(img)
    return ~_reconstruct(~_max_filter(arr, se), ~arr)


# --- regional extrema ------------------------------------------------------------

def _label(mask, connectivity):
    """Connected components of a 2-D bool mask: (int32 labels, count).

    ``connectivity`` is 4 or 8. Components are numbered 1.. in raster order
    of their first pixel, as ``scipy.ndimage.label`` numbers them. Run-based
    two-pass labelling (Rosenfeld & Pfaltz 1966; Wu, Otoo & Suzuki 2009):
    each row run joins the first run it touches in the row above and merges
    with the others in a union-find whose roots are the lowest run index,
    i.e. each component's first run in raster order.
    """
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # Flat indices into the (h, w + 1) row transitions: run starts and
    # (exclusive) ends alternate, since every padded row opens and closes on 0.
    edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    starts, ends = edges[0::2], edges[1::2]
    n = starts.size
    # The runs [lo, hi) of the row above that each run touches: w + 1 back is
    # one row up, and 8-connectivity adds a column of slack for corners.
    slack = int(connectivity == 8)
    lo = np.searchsorted(ends, starts - (w + 1) - slack, side="right")
    hi = np.searchsorted(starts, ends - (w + 1) + slack, side="left")
    parent = np.where(hi > lo, lo, np.arange(n)).tolist()

    def find(x):  # with path halving
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    merging = np.flatnonzero(hi - lo > 1)
    for j, first, stop in zip(merging.tolist(), lo[merging].tolist(), hi[merging].tolist()):
        for i in range(first + 1, stop):
            a, b = find(i), find(j)
            parent[max(a, b)] = min(a, b)
    # Every parent precedes its run, so pointer jumping ends at the roots.
    root = np.array(parent, dtype=np.intp)
    while not np.array_equal(up := root[root], root):
        root = up
    is_root = root == np.arange(n)
    values = np.zeros(2 * n + 1, dtype=np.int32)  # gap, run, gap, ..., run, gap
    values[1::2] = np.cumsum(is_root, dtype=np.int32)[root]
    bounds = edges - edges // (w + 1)  # the edges in the flat (h, w) layout
    labels = np.repeat(values, np.diff(bounds, prepend=0, append=h * w))
    return labels.reshape(h, w), int(is_root.sum())


def _regional_maxima(arr):
    """8-connected plateaus with no strictly higher neighbour (Vincent 1993).

    ``top`` pixels have no strictly higher neighbour. Two adjacent ``top``
    pixels are equal, so each component of ``top`` lies in one plateau; it
    is the whole plateau unless one of its pixels touches an equal pixel
    that is not ``top``. Every neighbour of a ``top`` pixel is at most its
    value, so that touch shows as the max of ``lower`` (0 on ``top``, one
    above the pixel elsewhere) exceeding the pixel. A pixel that is not
    ``top`` has a brighter neighbour, so it is at most 254 and ``lower``
    fits in uint8.
    """
    top = _max_filter(arr, _SQUARE) <= arr
    lower = arr + 1
    lower[top] = 0
    leaks = top & (_max_filter(lower, _SQUARE) > arr)
    labels, n = _label(top, 8)
    leaky = np.zeros(n + 1, dtype=bool)
    leaky[labels[leaks]] = True
    return top & ~np.take(leaky, labels)


def regional_maxima(img):
    """Mask of connected plateaus with no strictly brighter neighbor."""
    return _regional_maxima(as_gray_image(img))


def impose_minima(img, markers):
    """Force the image's regional minima to be exactly the marker components.

    Marker pixels drop to 0; everywhere else the output stays strictly
    positive and no non-marker minimum survives.
    """
    arr = as_gray_image(img)
    markers = as_bool_mask(markers, arr.shape, "markers")
    if not markers.any():
        raise EmptyMarkerError("marker mask selects no pixel")
    # Reconstruction by erosion of (0 on markers, 255 elsewhere) above
    # min(img + 1, 255, that marker), written as its dual.
    forced = markers * np.uint8(255)
    return ~_reconstruct(forced, np.maximum(254 - np.minimum(arr, 254), forced))


def erode_mask(mask, se: StructuringElement):
    """Binary erosion with the shrinking-border policy."""
    return _min_filter(as_bool_mask(mask), se)


def dilate_mask(mask, se: StructuringElement):
    """Binary dilation with the shrinking-border policy: the dual of ``erode_mask``."""
    return _max_filter(as_bool_mask(mask), se)
