"""Morphology kernels against brute-force oracles and algebraic laws."""

import numpy as np
import pytest
from scipy import ndimage

from lungct.errors import EmptyMarkerError, ShapeError
from lungct.morphology import (
    close_by_reconstruction,
    close_image,
    dilate,
    erode,
    impose_minima,
    make_disk,
    open_by_reconstruction,
    open_image,
    reconstruct_by_dilation,
    reconstruct_by_erosion,
    regional_maxima,
    regional_minima,
)

from _oracles import (
    disk_offsets_bruteforce,
    iterate_reconstruct_dilation,
    iterate_reconstruct_erosion,
    naive_dilate,
    naive_erode,
    plateau_regional_maxima,
    plateau_regional_minima,
    window_dilate,
    window_erode,
)


# --- structuring elements -------------------------------------------------------

def test_disk_radius_zero():
    assert make_disk(0).offsets == ((0, 0),)


def test_disk_radius_one_is_cross():
    assert set(make_disk(1).offsets) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_disk_radius_eight_offset_count():
    brute = disk_offsets_bruteforce(8)
    se = make_disk(8)
    assert len(se.offsets) == len(brute) == 197
    assert set(se.offsets) == set(brute)


def test_disk_symmetric_under_negation():
    offsets = set(make_disk(5).offsets)
    assert {(-dx, -dy) for dx, dy in offsets} == offsets


def test_disk_negative_radius_rejected():
    with pytest.raises(ValueError):
        make_disk(-1)


# --- erosion / dilation -----------------------------------------------------------

def test_dilate_impulse_response():
    img = np.zeros((5, 5), dtype=np.uint8)
    img[2, 2] = 255
    out = dilate(img, make_disk(1))
    expected = np.zeros((5, 5), dtype=np.uint8)
    for y, x in [(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)]:
        expected[y, x] = 255
    assert np.array_equal(out, expected)


def test_erode_constant_image_unchanged():
    img = np.full((6, 7), 99, dtype=np.uint8)
    assert np.array_equal(erode(img, make_disk(2)), img)


def test_erode_dilate_match_naive_oracle(rng):
    se = make_disk(2)
    for _ in range(5):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert np.array_equal(erode(img, se), naive_erode(img, se))
        assert np.array_equal(dilate(img, se), naive_dilate(img, se))


def test_window_oracle_agrees_with_naive_oracle(rng):
    # the two independent oracle formulations must agree with each other
    se = make_disk(3)
    img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
    assert np.array_equal(window_erode(img, se), naive_erode(img, se))
    assert np.array_equal(window_dilate(img, se), naive_dilate(img, se))


# --- opening / closing -------------------------------------------------------------

def test_open_kills_impulse():
    img = np.zeros((7, 7), dtype=np.uint8)
    img[3, 3] = 200
    assert open_image(img, make_disk(1)).max() == 0


def test_close_fills_dark_impulse():
    img = np.full((7, 7), 200, dtype=np.uint8)
    img[3, 3] = 0
    assert close_image(img, make_disk(1)).min() == 200


def test_open_close_match_oracle_composition(rng):
    se = make_disk(2)
    for _ in range(3):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert np.array_equal(open_image(img, se), naive_dilate(naive_erode(img, se), se))
        assert np.array_equal(close_image(img, se), naive_erode(naive_dilate(img, se), se))


def test_ordering_and_idempotence(rng):
    se = make_disk(2)
    for _ in range(5):
        img = rng.integers(0, 256, (20, 20)).astype(np.uint8)
        opened = open_image(img, se)
        closed = close_image(img, se)
        assert np.all(opened <= img)
        assert np.all(img <= closed)
        assert np.array_equal(open_image(opened, se), opened)
        assert np.array_equal(close_image(closed, se), closed)


def test_erode_dilate_duality(rng):
    se = make_disk(3)
    img = rng.integers(0, 256, (18, 18)).astype(np.uint8)
    assert np.array_equal(erode(img, se), 255 - dilate(255 - img, se))


# --- reconstruction -----------------------------------------------------------------

def test_reconstruction_fixpoint_when_marker_equals_mask(rng):
    img = rng.integers(0, 256, (10, 10)).astype(np.uint8)
    assert np.array_equal(reconstruct_by_dilation(img, img), img)


def test_reconstruction_zero_marker_stays_zero(rng):
    mask = rng.integers(0, 256, (10, 10)).astype(np.uint8)
    marker = np.zeros_like(mask)
    assert reconstruct_by_dilation(marker, mask).max() == 0


def test_reconstruction_matches_iterative_oracle(rng):
    for _ in range(5):
        a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        b = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        marker = np.minimum(a, b)
        out = reconstruct_by_dilation(marker, a)
        assert np.array_equal(out, iterate_reconstruct_dilation(marker, a).astype(np.uint8))


def test_reconstruction_marker_clamped_with_warning(rng):
    mask = rng.integers(0, 128, (8, 8)).astype(np.uint8)
    marker = mask.copy()
    marker[0, 0] = 255
    with pytest.warns(UserWarning, match="clamp"):
        out = reconstruct_by_dilation(marker, mask)
    clamped = np.minimum(marker, mask)
    assert np.array_equal(out, iterate_reconstruct_dilation(clamped, mask).astype(np.uint8))


def test_reconstruction_bounds_and_stability(rng):
    for _ in range(5):
        a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        b = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        marker = np.minimum(a, b)
        out = reconstruct_by_dilation(marker, a)
        assert np.all(marker <= out)
        assert np.all(out <= a)
        again = reconstruct_by_dilation(out, a)
        assert np.array_equal(again, out)


def test_reconstruction_by_erosion_is_complement_dual(rng):
    for _ in range(3):
        a = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        b = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        marker = np.maximum(a, b)
        out = reconstruct_by_erosion(marker, a)
        dual = 255 - reconstruct_by_dilation(255 - marker, 255 - a)
        assert np.array_equal(out, dual)


def test_reconstruction_shape_mismatch():
    with pytest.raises(ShapeError):
        reconstruct_by_dilation(np.zeros((3, 3), np.uint8), np.zeros((4, 4), np.uint8))


# --- reconstruction-based filters ----------------------------------------------------

def test_open_by_reconstruction_constant_unchanged():
    img = np.full((20, 20), 77, dtype=np.uint8)
    assert np.array_equal(open_by_reconstruction(img, make_disk(3)), img)


def _blob_image(radius, value=200, size=48, background=20):
    img = np.full((size, size), background, dtype=np.uint8)
    ys, xs = np.ogrid[:size, :size]
    c = size // 2
    img[(xs - c) ** 2 + (ys - c) ** 2 <= radius * radius] = value
    return img


def test_open_by_reconstruction_preserves_large_blob():
    img = _blob_image(radius=12)
    out = open_by_reconstruction(img, make_disk(8))
    marker = naive_erode(img, make_disk(8))
    oracle = iterate_reconstruct_dilation(marker, img).astype(np.uint8)
    assert np.array_equal(out, oracle)
    assert out[24, 24] == 200  # blob interior survives at full value


def test_open_by_reconstruction_removes_small_speck():
    img = _blob_image(radius=3)
    out = open_by_reconstruction(img, make_disk(8))
    assert out.max() == 20  # flattened to the background level


def test_open_by_reconstruction_at_least_plain_opening(rng):
    se = make_disk(2)
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    assert np.all(open_by_reconstruction(img, se) >= open_image(img, se))


def test_close_by_reconstruction_matches_oracle(rng):
    se = make_disk(2)
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    marker = naive_dilate(img, se)
    oracle = iterate_reconstruct_erosion(marker, img).astype(np.uint8)
    assert np.array_equal(close_by_reconstruction(img, se), oracle)


# --- regional extrema ------------------------------------------------------------------

def test_regional_maxima_constant_image_is_one_plateau():
    img = np.full((5, 8), 13, dtype=np.uint8)
    assert regional_maxima(img).all()


def test_regional_maxima_single_peak():
    img = np.zeros((5, 5), dtype=np.uint8)
    img[2, 2] = 9
    out = regional_maxima(img)
    assert out[2, 2]
    assert out.sum() == 1


def test_regional_maxima_column_gradient():
    img = np.tile(np.arange(8, dtype=np.uint8), (5, 1))
    out = regional_maxima(img, connectivity=8)
    expected = np.zeros((5, 8), dtype=bool)
    expected[:, -1] = True
    assert np.array_equal(out, expected)


def test_regional_maxima_matches_plateau_oracle(rng):
    for _ in range(5):
        img = rng.integers(0, 12, (16, 16)).astype(np.uint8)  # small range -> many plateaus
        assert np.array_equal(regional_maxima(img), plateau_regional_maxima(img))


def test_regional_maxima_connectivity_four(rng):
    img = rng.integers(0, 8, (12, 12)).astype(np.uint8)
    assert np.array_equal(
        regional_maxima(img, connectivity=4), plateau_regional_maxima(img, connectivity=4)
    )


def test_regional_maxima_components_are_plateaus(rng):
    # Every 8-connected component of the maxima is constant-valued, raw or
    # after the disk smoothing the marker step applies first.
    se = make_disk(2)
    for i in range(60):
        img = rng.integers(0, (4, 16, 256)[i % 3], (24, 24)).astype(np.uint8)
        if i % 2:
            img = close_by_reconstruction(open_by_reconstruction(img, se), se)
        maxima = regional_maxima(img)
        labels, n = ndimage.label(maxima, structure=np.ones((3, 3), dtype=bool))
        index = np.arange(1, n + 1)
        assert np.array_equal(ndimage.minimum(img, labels, index), ndimage.maximum(img, labels, index))


@pytest.mark.parametrize("op", [
    lambda img: open_by_reconstruction(img, make_disk(1), connectivity=6),
    lambda img: close_by_reconstruction(img, make_disk(1), connectivity=6),
    lambda img: regional_minima(img, connectivity=6),
    lambda img: reconstruct_by_erosion(img, img, connectivity=6),
])
def test_bad_connectivity_rejected(op):
    with pytest.raises(ValueError, match="connectivity"):
        op(np.zeros((5, 5), dtype=np.uint8))


def test_regional_maxima_invariant_under_constant_shift(rng):
    img = rng.integers(0, 200, (16, 16)).astype(np.uint8)
    assert np.array_equal(regional_maxima(img), regional_maxima(img + 40))


def test_regional_minima_matches_oracle(rng):
    img = rng.integers(0, 12, (14, 14)).astype(np.uint8)
    assert np.array_equal(regional_minima(img), plateau_regional_minima(img))


# --- minima imposition -------------------------------------------------------------------

def test_impose_minima_full_marker_gives_zero():
    img = np.random.default_rng(0).integers(0, 256, (8, 8)).astype(np.uint8)
    out = impose_minima(img, np.ones((8, 8), dtype=bool))
    assert out.max() == 0


def test_impose_minima_single_marker_on_constant():
    img = np.full((9, 9), 50, dtype=np.uint8)
    markers = np.zeros((9, 9), dtype=bool)
    markers[4, 4] = True
    out = impose_minima(img, markers)
    assert out[4, 4] == 0
    off = out[~markers]
    assert (off > 0).all()


def test_impose_minima_minima_equal_markers(rng):
    for _ in range(10):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        markers = rng.random((16, 16)) < 0.08
        if not markers.any():
            markers[3, 3] = True
        out = impose_minima(img, markers)
        assert np.array_equal(plateau_regional_minima(out), markers)


def test_impose_minima_empty_marker_rejected():
    with pytest.raises(EmptyMarkerError):
        impose_minima(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 4), dtype=bool))
