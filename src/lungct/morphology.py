"""Flat grayscale morphology on 8-bit images.

Disk structuring elements, erosion/dilation and their compositions,
geodesic reconstruction, regional extrema and minima imposition. All
operators treat the image border by shrinking the neighborhood: pixels
outside the image simply do not participate. Where a kernel pads, it pads
with 0, the identity of max on uint8 and bool, which amounts to the same.

Only the max side is implemented, and it runs on the uint8 image itself:
one disk max filter, one separable 3x3 max filter and one geodesic-dilation
fixpoint loop (Vincent 1993). Every min-based operator is its exact dual
under the order-reversing complement ``~x = 255 - x`` (``not x`` on bool
masks): ``min(f) = ~max(~f)``. The complement maps [0, 255] onto itself,
and every iterate of a reconstruction stays between its marker and its
mask, so no image ever leaves uint8.

The disk filter and the fixpoint loop run on the zero-padded image as one
flat raster, so every pass is one contiguous numpy operation; on a 2-D
view whose rows are not contiguous, numpy pays per row, about four times
as much per pixel on a 512x512 slice.

The disk filter decomposes the element into its rows. Each row ``dy`` is
one run ``-k..k`` of offsets, so its max is the running max of the image
row over ``[-k, k]`` read ``dy`` rows away. The running maxima for
k = 1..radius take two passes each (each widens the last by one pixel on
either side), and each element row adds one pass: 33 passes for radius 8
instead of one per offset (196). Max is associative and commutative, so
regrouping the offsets this way gives the same value bit for bit, and the
padding is ``radius`` columns wide, so no shift reaches the next row.

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


def _max_filter(arr, se):
    """Shrinking-border max filter over the structuring element (uint8 or bool).

    Works on the image padded with ``radius`` zero columns on each side, as
    one flat raster: a shift of at most ``radius`` pixels stays in its row.
    ``span`` is the running max of each row over ``[-k, k]``, widened one
    step of k at a time; each element row ``(k, dy)`` folds ``span``,
    shifted by ``dy`` rows, into the result.
    """
    h, w = arr.shape
    r = se.radius
    width = w + 2 * r
    padded = np.zeros((h, width), dtype=arr.dtype)
    padded[:, r : r + w] = arr
    flat = padded.reshape(-1)
    out = np.zeros_like(flat)
    span, k = flat, 0
    for half, dy in se.rows:
        while k < half:
            k += 1
            wider = np.empty_like(flat)
            np.maximum(span[k:], flat[:-k], out=wider[k:])
            wider[:k] = span[:k]  # padding, kept defined
            np.maximum(wider[:-k], flat[k:], out=wider[:-k])
            span = wider
        if abs(dy) < h:  # out row y reads span row y + dy wherever both lie in the image
            a, b, n = max(-dy, 0) * width, max(dy, 0) * width, out.size
            np.maximum(out[a : n - b], span[b : n - a], out=out[a : n - b])
    return out.reshape(h, width)[:, r : r + w].copy()


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

def _max3x3(src, out, tmp):
    """Write into ``out`` the max of ``src`` over each pixel's 3x3 neighbourhood.

    A row pass (left and right neighbours) into ``tmp``, then a column pass
    on it. Slicing leaves out-of-image pixels out, so the border shrinks.
    ``out`` and ``tmp`` must not overlap ``src`` or each other.
    """
    np.maximum(src[:, 1:], src[:, :-1], out=tmp[:, 1:])
    tmp[:, 0] = src[:, 0]
    np.maximum(tmp[:, :-1], src[:, 1:], out=tmp[:, :-1])
    np.maximum(tmp[1:], tmp[:-1], out=out[1:])
    out[0] = tmp[0]
    np.maximum(out[:-1], tmp[1:], out=out[:-1])
    return out


def _reconstruct(marker, mask):
    """Iterate 8-connected geodesic dilation of ``marker`` under ``mask`` to the fixpoint.

    Works on both images framed by zeros, as flat rasters; the frame stays 0
    because its mask is 0, and its two rows at either end keep every read
    inside the array. Each step recomputes only the rows ``y0:y1`` that can
    still change: the last step's changed rows, grown by one.
    """
    h, w = marker.shape
    width = w + 2
    cur = np.zeros((h + 4, width), dtype=marker.dtype)
    cur[2:-2, 1:-1] = marker
    limit = np.zeros_like(cur)
    limit[2:-2, 1:-1] = mask
    cur_f, limit_f = cur.reshape(-1), limit.reshape(-1)
    row_max, new = np.empty_like(cur_f), np.empty_like(cur_f)
    changed = np.empty(cur_f.size, dtype=bool)
    y0, y1 = 2, h + 2
    while True:
        lo, hi = y0 * width, y1 * width
        # 3x3 max: a row pass over the rows y0 - 1 .. y1, then a column pass.
        near = slice(lo - width, hi + width)
        np.maximum(cur_f[near.start - 1 : near.stop - 1], cur_f[near.start + 1 : near.stop + 1],
                   out=row_max[near])
        np.maximum(row_max[near], cur_f[near], out=row_max[near])
        step = new[lo:hi]
        np.maximum(row_max[lo - width : hi - width], row_max[lo + width : hi + width], out=step)
        np.maximum(step, row_max[lo:hi], out=step)
        np.minimum(step, limit_f[lo:hi], out=step)
        diff = np.not_equal(step, cur_f[lo:hi], out=changed[lo:hi])
        moved = np.flatnonzero(diff.reshape(-1, width).any(axis=1))
        if not moved.size:
            return cur[2:-2, 1:-1].copy()
        cur_f[lo:hi] = step
        y0, y1 = max(y0 + int(moved[0]) - 1, 2), min(y0 + int(moved[-1]) + 2, h + 2)


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
    tmp = np.empty_like(arr)
    top = _max3x3(arr, np.empty_like(arr), tmp) <= arr
    lower = arr + 1
    lower[top] = 0
    leaks = top & (_max3x3(lower, np.empty_like(arr), tmp) > arr)
    labels, n = _label(top, 8)
    leaky = np.zeros(n + 1, dtype=bool)
    leaky[labels[leaks]] = True
    return top & ~leaky[labels]


def regional_maxima(img):
    """Mask of connected plateaus with no strictly brighter neighbor."""
    return _regional_maxima(as_gray_image(img))


def regional_minima(img):
    """Mask of connected plateaus with no strictly darker neighbor."""
    return _regional_maxima(~as_gray_image(img))


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
