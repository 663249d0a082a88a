"""Independent reference implementations used only to check the package.

Each oracle derives its answer straight from the operator's definition,
using a different decomposition than the library (per-pixel window
gathers and float infinities here vs. offset-shifted integer
accumulation there; naive fixpoint iteration vs. buffered propagation;
pure-python recursion vs. vectorized split scoring).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from lungct.morphology import (
    close_by_reconstruction,
    erode_mask,
    make_disk,
    open_by_reconstruction,
    regional_maxima,
)
from lungct.watershed import BORDER_EROSION_RADIUS, otsu_threshold

_OFFS8 = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
_OFFS4 = [(-1, 0), (0, -1), (0, 1), (1, 0)]


def disk_offsets_bruteforce(radius):
    """Every lattice offset within the radius, counted one by one."""
    found = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx * dx + dy * dy <= radius * radius:
                found.append((dx, dy))
    return found


def _footprint(se):
    r = se.radius
    fp = np.zeros((2 * r + 1, 2 * r + 1), dtype=bool)
    for dx, dy in se.offsets:
        fp[dy + r, dx + r] = True
    return fp


def naive_erode(img, se):
    """Triple-loop erosion: min over in-bounds neighbors of each pixel."""
    h, w = img.shape
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            best = None
            for dx, dy in se.offsets:
                yy, xx = y + dy, x + dx
                if 0 <= yy < h and 0 <= xx < w:
                    v = int(img[yy, xx])
                    if best is None or v < best:
                        best = v
            out[y, x] = best
    return out.astype(np.uint8)


def naive_dilate(img, se):
    h, w = img.shape
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            best = None
            for dx, dy in se.offsets:
                yy, xx = y + dy, x + dx
                if 0 <= yy < h and 0 <= xx < w:
                    v = int(img[yy, xx])
                    if best is None or v > best:
                        best = v
            out[y, x] = best
    return out.astype(np.uint8)


def window_erode(img, se):
    """Window-gather erosion: pad with +inf, mask the footprint, reduce."""
    r = se.radius
    if r == 0:
        return img.copy()
    padded = np.pad(img.astype(np.float64), r, constant_values=np.inf)
    windows = sliding_window_view(padded, (2 * r + 1, 2 * r + 1))
    masked = np.where(_footprint(se), windows, np.inf)
    return masked.min(axis=(2, 3)).astype(np.uint8)


def window_dilate(img, se):
    r = se.radius
    if r == 0:
        return img.copy()
    padded = np.pad(img.astype(np.float64), r, constant_values=-np.inf)
    windows = sliding_window_view(padded, (2 * r + 1, 2 * r + 1))
    masked = np.where(_footprint(se), windows, -np.inf)
    return masked.max(axis=(2, 3)).astype(np.uint8)


def _elementary_float(arr, offsets, take_min):
    padded = np.pad(arr, 1, constant_values=np.inf if take_min else -np.inf)
    windows = sliding_window_view(padded, (3, 3))
    fp = np.zeros((3, 3), dtype=bool)
    fp[1, 1] = True
    for dy, dx in offsets:
        fp[dy + 1, dx + 1] = True
    masked = np.where(fp, windows, np.inf if take_min else -np.inf)
    return masked.min(axis=(2, 3)) if take_min else masked.max(axis=(2, 3))


def iterate_reconstruct_dilation(marker, mask, connectivity=8):
    """Geodesic dilation repeated until nothing changes."""
    offsets = _OFFS8 if connectivity == 8 else _OFFS4
    cur = np.asarray(marker, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    while True:
        nxt = np.minimum(_elementary_float(cur, offsets, take_min=False), mask)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def iterate_reconstruct_erosion(marker, mask, connectivity=8):
    offsets = _OFFS8 if connectivity == 8 else _OFFS4
    cur = np.asarray(marker, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    while True:
        nxt = np.maximum(_elementary_float(cur, offsets, take_min=True), mask)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def plateau_regional_maxima(img, connectivity=8):
    """Flood each constant plateau and check no neighbor is brighter."""
    img = np.asarray(img, dtype=np.int64)
    offsets = _OFFS8 if connectivity == 8 else _OFFS4
    h, w = img.shape
    visited = np.zeros((h, w), dtype=bool)
    out = np.zeros((h, w), dtype=bool)
    for sy in range(h):
        for sx in range(w):
            if visited[sy, sx]:
                continue
            value = img[sy, sx]
            stack = [(sy, sx)]
            visited[sy, sx] = True
            plateau = [(sy, sx)]
            is_max = True
            while stack:
                y, x = stack.pop()
                for dy, dx in offsets:
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        if img[yy, xx] == value:
                            if not visited[yy, xx]:
                                visited[yy, xx] = True
                                plateau.append((yy, xx))
                                stack.append((yy, xx))
                        elif img[yy, xx] > value:
                            is_max = False
            if is_max:
                for y, x in plateau:
                    out[y, x] = True
    return out


def plateau_regional_minima(img, connectivity=8):
    img = np.asarray(img, dtype=np.int64)
    return plateau_regional_maxima(-img, connectivity)


# --- watershed markers ----------------------------------------------------------

def markers_by_component(pre, disk_radius):
    """Watershed markers with the bright/dark split decided per maxima component.

    The smoothing, maxima, threshold and erosion come from the package (their
    own oracles check them); each 8-connected regional-maximum component with
    no pixel at or above the threshold is labelled and classed as dark as a
    whole. Returns ``(foreground, background)``.
    """
    se = make_disk(disk_radius)
    smooth = close_by_reconstruction(open_by_reconstruction(pre, se), se)
    maxima = regional_maxima(smooth)
    bright = smooth >= otsu_threshold(smooth)
    foreground = maxima & bright
    labels, n = ndimage.label(maxima, structure=np.ones((3, 3), dtype=bool))
    dark_maxima = np.zeros_like(maxima)
    if n:
        comp_bright = ndimage.maximum(bright, labels, index=np.arange(1, n + 1))
        dark_ids = np.flatnonzero(~comp_bright.astype(bool)) + 1
        if dark_ids.size:
            dark_maxima = np.isin(labels, dark_ids)
    eroded_dark = erode_mask(~bright, make_disk(BORDER_EROSION_RADIUS))
    return foreground, (dark_maxima | eroded_dark) & ~foreground


# --- reference tree learner ------------------------------------------------------

class ReferenceTree:
    """Exhaustive-split reference learner, pure python, exact arithmetic."""

    def __init__(self, X, y, min_leaf=5, max_depth=12):
        self.X = [[float(v) for v in row] for row in X]
        self.y = [int(v) for v in y]
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.root = self._build(list(range(len(self.y))), 0)

    def _build(self, indices, depth):
        labels = [self.y[i] for i in indices]
        if (
            depth >= self.max_depth
            or len(indices) < 2 * self.min_leaf
            or min(labels) == max(labels)
        ):
            return self._leaf(labels)
        best = None  # (score, feature, threshold, left, right)
        n_features = len(self.X[0])
        for f in range(n_features):
            values = sorted({self.X[i][f] for i in indices})
            for a, b in zip(values, values[1:]):
                threshold = (a + b) / 2.0
                left = [i for i in indices if self.X[i][f] <= threshold]
                right = [i for i in indices if self.X[i][f] > threshold]
                if len(left) < self.min_leaf or len(right) < self.min_leaf:
                    continue
                c1l = sum(self.y[i] for i in left)
                c0l = len(left) - c1l
                c1r = sum(self.y[i] for i in right)
                c0r = len(right) - c1r
                score = len(right) * (c0l * c0l + c1l * c1l) + len(left) * (
                    c0r * c0r + c1r * c1r
                )
                if best is None or score > best[0]:
                    best = (score, f, threshold, left, right)
        if best is None:
            return self._leaf(labels)
        _, f, threshold, left, right = best
        return {
            "feature": f,
            "threshold": threshold,
            "left": self._build(left, depth + 1),
            "right": self._build(right, depth + 1),
        }

    @staticmethod
    def _leaf(labels):
        n1 = sum(labels)
        n0 = len(labels) - n1
        return {"vote": 1 if n1 > n0 else 0}

    def predict_one(self, x):
        node = self.root
        while "vote" not in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["vote"]

    def predict(self, X):
        return [self.predict_one([float(v) for v in row]) for row in X]
