"""Marker computation, the flood itself, and candidate extraction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import lungct
from lungct.config import DEFAULTS
from lungct.errors import NoMarkerError, ShapeError
from lungct.phantom import make_phantom_series
from lungct.preprocess import preprocess_slice
from lungct.watershed import (
    MarkerSet,
    candidate_masks,
    compute_markers,
    extract_region,
    otsu_threshold,
    watershed,
)

from _oracles import (
    dilation_candidate_masks,
    heap_watershed,
    loop_otsu_threshold,
    markers_by_component,
)

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _phantom_blob(size=96, radius=14, value=220, background=15, center=None):
    img = np.full((size, size), background, dtype=np.uint8)
    cy, cx = center or (size // 2, size // 2)
    ys, xs = np.ogrid[:size, :size]
    img[(xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius] = value
    return img


# --- otsu -------------------------------------------------------------------------

def test_otsu_splits_bimodal():
    img = np.concatenate([np.full(600, 10), np.full(300, 200)]).astype(np.uint8).reshape(30, 30)
    t = otsu_threshold(img)
    assert 10 < t <= 200


def test_otsu_matches_naive_argmax(rng):
    img = rng.integers(0, 256, (24, 24)).astype(np.uint8)
    flat = img.ravel().astype(np.float64)
    best_t, best_var = None, -1.0
    for t in range(1, 256):
        lo, hi = flat[flat < t], flat[flat >= t]
        if len(lo) == 0 or len(hi) == 0:
            continue
        var = len(lo) * len(hi) * (lo.mean() - hi.mean()) ** 2
        if var > best_var:
            best_t, best_var = t, var
    assert otsu_threshold(img) == best_t


def test_otsu_matches_loop_reference(rng):
    # Few distinct values make tied scores, where the first best t must win.
    for _ in range(2000):
        h, w = rng.integers(1, 30, 2)
        values = rng.choice(256, int(rng.choice([1, 2, 3, 8, 256])), replace=False)
        img = values[rng.integers(0, values.size, (h, w))].astype(np.uint8)
        assert otsu_threshold(img) == loop_otsu_threshold(img)


def test_otsu_constant_image_gives_empty_bright_class():
    img = np.full((8, 8), 17, dtype=np.uint8)
    t = otsu_threshold(img)
    assert not (img >= t).any()


# --- markers ----------------------------------------------------------------------

def test_markers_all_dark_has_empty_foreground():
    img = np.full((64, 64), 12, dtype=np.uint8)
    markers = compute_markers(img)
    assert not markers.foreground.any()
    assert markers.background.any()
    assert markers.background[32, 32]


def test_markers_single_blob():
    img = _phantom_blob()
    markers = compute_markers(img)
    comps, n = ndimage.label(markers.foreground, structure=np.ones((3, 3), bool))
    assert n == 1
    ys, xs = np.nonzero(markers.foreground)
    c = img.shape[0] // 2
    assert ((xs - c) ** 2 + (ys - c) ** 2 <= 14 * 14).all()  # inside the blob
    assert markers.background.any()
    assert not (markers.foreground & markers.background).any()


def test_markers_two_blobs():
    img = np.full((96, 96), 15, dtype=np.uint8)
    ys, xs = np.ogrid[:96, :96]
    img[(xs - 28) ** 2 + (ys - 48) ** 2 <= 121] = 215
    img[(xs - 70) ** 2 + (ys - 48) ** 2 <= 121] = 225
    markers = compute_markers(img)
    _, n = ndimage.label(markers.foreground, structure=np.ones((3, 3), bool))
    assert n == 2


def _random_gray(rng):
    """Noise or blocky plateaus, so maxima come both as points and as flat areas."""
    h, w = rng.integers(8, 41, 2)
    if rng.uniform() < 0.5:
        return rng.integers(0, 256, (h, w)).astype(np.uint8)
    levels = int(rng.choice([3, 8, 256]))
    coarse = rng.integers(0, levels, ((h + 3) // 4, (w + 3) // 4))
    return (np.kron(coarse, np.ones((4, 4), int))[:h, :w] * (255 // (levels - 1))).astype(np.uint8)


def test_markers_match_per_component_reference(rng):
    for i in range(210):
        img = _random_gray(rng)
        radius = 1 + i % 3
        markers = compute_markers(img, disk_radius=radius)
        foreground, background = markers_by_component(img, radius)
        assert np.array_equal(markers.foreground, foreground)
        assert np.array_equal(markers.background, background)


def test_markers_match_per_component_reference_on_phantom_slices():
    slices, _ = make_phantom_series(
        n_slices=3, size=512, tumour_slices=(1,), distractor_slices=(2,), seed=8
    )
    for original in slices:
        pre = preprocess_slice(original)
        markers = compute_markers(pre)
        foreground, background = markers_by_component(pre, DEFAULTS.disk_radius)
        assert markers.foreground.any()
        assert np.array_equal(markers.foreground, foreground)
        assert np.array_equal(markers.background, background)


def test_marker_set_rejects_overlap():
    fg = np.zeros((4, 4), bool)
    bg = np.zeros((4, 4), bool)
    fg[1, 1] = bg[1, 1] = True
    with pytest.raises(ValueError):
        MarkerSet(fg, bg)


# --- watershed ----------------------------------------------------------------------

def test_watershed_five_pixel_profile():
    img = np.array([[3, 1, 3, 1, 3]], dtype=np.uint8)
    fg = np.array([[0, 1, 0, 0, 0]], dtype=bool)
    bg = np.array([[0, 0, 0, 1, 0]], dtype=bool)
    labels = watershed(img, MarkerSet(fg, bg))
    assert labels.tolist() == [[1, 1, 0, 2, 2]]


def test_watershed_single_marker_single_basin(rng):
    img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
    fg = np.zeros((12, 12), bool)
    fg[4:6, 4:6] = True
    labels = watershed(img, MarkerSet(fg, np.zeros((12, 12), bool)))
    assert set(labels.ravel().tolist()) == {1}


def test_watershed_requires_markers():
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(NoMarkerError):
        watershed(img, MarkerSet(np.zeros((4, 4), bool), np.zeros((4, 4), bool)))


def test_watershed_ridge_encloses_blob():
    img = _phantom_blob()
    markers = compute_markers(img)
    labels = watershed(img, markers)
    fg_label = int(labels[markers.foreground][0])
    # 4-connected flood from the basin may not reach the border without
    # crossing a ridge pixel
    basin = labels == fg_label
    passable = labels != 0
    reach = ndimage.binary_propagation(basin, mask=passable, structure=CROSS)
    border = np.zeros_like(basin)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    assert not (reach & border).any()


def test_watershed_sealed_pocket_becomes_ridge():
    # The ridge pixels around the centre meet two basins each, so the centre
    # is never reached from a basin and stays ridge.
    img = np.array([[5, 3, 8, 2, 6], [1, 9, 4, 7, 3], [6, 2, 9, 5, 8],
                    [3, 7, 4, 1, 2], [8, 5, 3, 6, 4]], dtype=np.uint8)
    fg = np.zeros((5, 5), bool)
    bg = np.zeros((5, 5), bool)
    fg[1, 1] = fg[3, 3] = True
    bg[1, 3] = bg[3, 1] = True
    labels = watershed(img, MarkerSet(fg, bg))
    assert labels.tolist() == [
        [1, 1, 0, 3, 3],
        [1, 1, 0, 3, 3],
        [0, 0, 0, 0, 0],
        [4, 4, 0, 2, 2],
        [4, 4, 4, 0, 2],
    ]
    assert labels.dtype == np.int32


def test_watershed_deterministic(rng):
    img = rng.integers(0, 256, (24, 24)).astype(np.uint8)
    fg = np.zeros((24, 24), bool)
    bg = np.zeros((24, 24), bool)
    fg[5:7, 5:7] = True
    bg[17:19, 17:19] = True
    markers = MarkerSet(fg, bg)
    a = watershed(img, markers)
    b = watershed(img.copy(), MarkerSet(fg.copy(), bg.copy()))
    assert np.array_equal(a, b)


def test_watershed_marker_components_basin_pure(rng):
    for _ in range(10):
        img = rng.integers(0, 256, (20, 20)).astype(np.uint8)
        fg = np.zeros((20, 20), bool)
        bg = np.zeros((20, 20), bool)
        fg[3:5, 3:5] = True
        fg[14:16, 4:6] = True
        bg[9:11, 15:17] = True
        markers = MarkerSet(fg, bg)
        labels = watershed(img, markers)
        assert (labels >= 0).all()
        for mask in (fg, bg):
            comps, n = ndimage.label(mask, structure=CROSS)
            for k in range(1, n + 1):
                values = set(labels[comps == k].tolist())
                assert len(values) == 1
                assert 0 not in values


def test_watershed_shape_mismatch():
    fg = np.zeros((4, 4), bool)
    fg[0, 0] = True
    with pytest.raises(ShapeError):
        watershed(np.zeros((5, 5), dtype=np.uint8), MarkerSet(fg, np.zeros((4, 4), bool)))


def _flood_bank(rng, n):
    """Random images and disjoint random markers.

    Images have 2, 3, 8 or 256 gray levels; some are one pixel wide or tall,
    and some carry 1-px-wide bright lines.
    """
    for i in range(n):
        h, w = rng.integers(1, 25, 2)
        if i % 5 == 0:
            h, w = (1, w) if i % 10 else (h, 1)
        levels = int(rng.choice([2, 3, 8, 256]))
        img = (rng.integers(0, levels, (h, w)) * (255 // (levels - 1))).astype(np.uint8)
        if i % 3 == 0:  # 1-px-wide lines: a bright row and column across the image
            img[rng.integers(0, h)] = 255
            img[:, rng.integers(0, w)] = 255
        fg = rng.random((h, w)) < rng.uniform(0.0, 0.2)
        bg = (rng.random((h, w)) < rng.uniform(0.0, 0.2)) & ~fg
        if fg.any() or bg.any():
            yield img, fg, bg


def test_watershed_and_candidates_match_heap_flood_reference():
    # A pixel queued below the level being flooded is common on this bank:
    # without the flood's step back to its level, most of these cases differ.
    rng = np.random.default_rng(2024)
    for img, fg, bg in _flood_bank(rng, 1500):
        markers = MarkerSet(fg, bg)
        labels = watershed(img, markers)
        expected = heap_watershed(img, fg, bg)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, expected)
        masks = candidate_masks(labels, markers)
        reference = dilation_candidate_masks(expected, fg, bg)
        assert len(masks) == len(reference)
        for got, want in zip(masks, reference):
            assert np.array_equal(got, want)


def test_watershed_matches_heap_flood_reference_on_phantom_slices():
    slices, _ = make_phantom_series(
        n_slices=3, size=512, tumour_slices=(1,), distractor_slices=(2,), seed=8
    )
    for original in slices:
        pre = preprocess_slice(original)
        markers = compute_markers(pre)
        labels = watershed(pre, markers)
        expected = heap_watershed(pre, markers.foreground, markers.background)
        assert np.array_equal(labels, expected)
        masks = candidate_masks(labels, markers)
        reference = dilation_candidate_masks(expected, markers.foreground, markers.background)
        assert len(masks) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(masks, reference))


# --- candidate masks -----------------------------------------------------------------

def test_candidates_empty_without_foreground():
    img = np.full((32, 32), 10, dtype=np.uint8)
    markers = compute_markers(img)
    assert not markers.foreground.any()
    bg_only = MarkerSet(np.zeros_like(markers.background), markers.background)
    labels = watershed(img, bg_only)
    assert candidate_masks(labels, bg_only) == []


def test_candidates_single_blob_area_close_to_blob():
    # tumour-like noisy blob through the full preprocessing chain
    from lungct.preprocess import preprocess_slice

    rng = np.random.default_rng(3)
    img = np.full((160, 160), 55, dtype=np.uint8)
    ys, xs = np.ogrid[:160, :160]
    blob = (xs - 115) ** 2 + (ys - 80) ** 2 <= 20 * 20
    values = 115 + rng.integers(-5, 6, size=img.shape)
    img[blob] = values[blob]
    pre = preprocess_slice(img)
    markers = compute_markers(pre)
    labels = watershed(pre, markers)
    masks = candidate_masks(labels, markers)
    assert len(masks) == 1
    blob_area = blob.sum()
    assert abs(int(masks[0].sum()) - blob_area) / blob_area < 0.10


def test_candidates_two_blobs_disjoint():
    img = np.full((96, 96), 15, dtype=np.uint8)
    ys, xs = np.ogrid[:96, :96]
    img[(xs - 28) ** 2 + (ys - 48) ** 2 <= 121] = 215
    img[(xs - 70) ** 2 + (ys - 48) ** 2 <= 121] = 225
    markers = compute_markers(img)
    labels = watershed(img, markers)
    masks = candidate_masks(labels, markers)
    assert len(masks) == 2
    assert not (masks[0] & masks[1]).any()


def test_candidates_exclude_basins_touching_background():
    # hand-built label grid: basin 1 holds fg and bg pixels -> excluded
    labels = np.array([[1, 1, 2], [1, 0, 2], [1, 2, 2]], dtype=np.int32)
    fg = np.zeros((3, 3), bool)
    bg = np.zeros((3, 3), bool)
    fg[0, 0] = True
    bg[2, 0] = True
    fg2 = fg.copy()
    fg2[0, 2] = True  # basin 2 is purely foreground
    masks = candidate_masks(labels, MarkerSet(fg2, bg))
    assert len(masks) == 1
    assert masks[0][0, 2]
    assert not masks[0][0, 0]


# --- region extraction ----------------------------------------------------------------

def test_extract_full_mask_is_identity(rng):
    img = rng.integers(0, 256, (10, 10)).astype(np.uint8)
    assert np.array_equal(extract_region(img, np.ones((10, 10), bool)), img)


def test_extract_empty_mask_is_black(rng):
    img = rng.integers(0, 256, (10, 10)).astype(np.uint8)
    assert extract_region(img, np.zeros((10, 10), bool)).max() == 0


def test_extract_half_plane(rng):
    img = rng.integers(1, 256, (10, 10)).astype(np.uint8)
    mask = np.zeros((10, 10), bool)
    mask[:, :5] = True
    out = extract_region(img, mask)
    assert np.array_equal(out[:, :5], img[:, :5])
    assert (out[:, 5:] == 0).all()


def test_extract_shape_mismatch():
    with pytest.raises(ShapeError):
        extract_region(np.zeros((4, 4), dtype=np.uint8), np.zeros((5, 5), bool))


def test_analyzing_a_slice_does_not_import_numpy_ma():
    # numpy.ma costs about 16 ms to import, once per process and once per
    # pool worker; np.unique is one function that pulls it in.
    code = (
        "import sys\n"
        "from lungct.config import PipelineConfig\n"
        "from lungct.phantom import make_phantom_series\n"
        "from lungct.pipeline import analyze_slice\n"
        "slices, _ = make_phantom_series(n_slices=1, size=256, tumour_slices=(0,), seed=1)\n"
        "assert analyze_slice(slices[0], PipelineConfig())\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lungct.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"
