"""Morphology kernels against brute-force oracles and algebraic laws."""

import numpy as np
import pytest
from scipy import ndimage

from lungct.errors import EmptyMarkerError, ShapeError
from lungct.morphology import (
    StructuringElement,
    _fold,
    _label,
    _max_filter,
    _reconstruct,
    close_by_reconstruction,
    close_image,
    dilate,
    dilate_mask,
    erode,
    erode_mask,
    impose_minima,
    make_disk,
    open_by_reconstruction,
    open_image,
    reconstruct_by_dilation,
    reconstruct_by_erosion,
    regional_maxima,
)
from lungct.phantom import make_phantom_series
from lungct.preprocess import preprocess_slice
from lungct.watershed import compute_markers

from _oracles import (
    disk_offsets_bruteforce,
    iterate_reconstruct_dilation,
    iterate_reconstruct_erosion,
    naive_dilate,
    naive_erode,
    plateau_regional_maxima,
    plateau_regional_minima,
    reconstruction_regional_maxima,
    reconstruction_regional_minima,
    textbook_impose_minima,
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


@pytest.mark.parametrize("offsets", [
    ((0, 0), (2, 0)),             # a gap between the run and dx = 2
    ((0, 0), (1, 0)),             # one-sided row
    ((-1, 1), (0, 0), (0, 1)),    # one-sided row away from the origin
    ((0, 0), (0, 2)),             # row beyond the radius
    ((-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)),  # run wider than the radius
], ids=["gap", "one-sided", "one-sided-off-origin", "row-beyond-radius", "run-beyond-radius"])
def test_structuring_element_rows_must_be_symmetric_runs_within_radius(offsets):
    with pytest.raises(ValueError, match="symmetric about dx=0"):
        StructuringElement(1, offsets)


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


_SQUARE_3X3 = StructuringElement(1, tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)))


@pytest.mark.parametrize("se", [make_disk(0), make_disk(1), make_disk(2), make_disk(3), _SQUARE_3X3],
                         ids=["disk0", "disk1", "disk2", "disk3", "square3x3"])
def test_dilate_mask_matches_binary_dilation(se, rng):
    footprint = np.zeros((2 * se.radius + 1,) * 2, dtype=bool)
    for dx, dy in se.offsets:
        footprint[dy + se.radius, dx + se.radius] = True
    for shape in [(16, 16), (7, 23), (23, 7), (1, 15), (15, 1), (1, 1)] * 5:
        mask = rng.random(shape) < rng.uniform(0.02, 0.5)
        before = mask.copy()
        out = dilate_mask(mask, se)
        assert out.dtype == bool
        assert np.array_equal(out, ndimage.binary_dilation(mask, structure=footprint, border_value=0))
        assert np.array_equal(mask, before)


@pytest.mark.parametrize("se", [make_disk(r) for r in range(10)] + [_SQUARE_3X3],
                         ids=[f"disk{r}" for r in range(10)] + ["square3x3"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 40), (19, 23)])
def test_max_filter_matches_naive_oracle_on_every_disk_and_tiny_images(se, shape, rng):
    # Images narrower or shorter than the element exercise the row spans
    # that leave the image and the element rows that miss it entirely.
    gray = rng.integers(0, 256, shape).astype(np.uint8)
    assert np.array_equal(_max_filter(gray, se), naive_dilate(gray, se))
    mask = rng.random(shape) < 0.1
    out = _max_filter(mask, se)
    assert out.dtype == bool
    assert np.array_equal(out, naive_dilate(mask, se).astype(bool))


@pytest.mark.parametrize("se", [make_disk(r) for r in range(10)] + [_SQUARE_3X3],
                         ids=[f"disk{r}" for r in range(10)] + ["square3x3"])
@pytest.mark.parametrize("dtype", [np.uint8, bool])
def test_fold_writes_the_max_filter_on_its_row_window_and_nothing_else(se, dtype, rng):
    r = se.radius
    for _ in range(20):
        h, w = rng.integers(1, 20, 2)
        img = (rng.integers(0, 256, (h, w)) if dtype is np.uint8 else rng.random((h, w)) < 0.1)
        img = img.astype(dtype)
        width = w + 2 * r
        framed = np.zeros((h + 2 * r, width), dtype=dtype)
        framed[r : r + h, r : r + w] = img
        flat = framed.reshape(-1)
        y0 = int(rng.integers(0, h))
        y1 = int(rng.integers(y0 + 1, h + 1))
        lo, hi = (r + y0) * width, (r + y1) * width
        out = rng.integers(0, 256 if dtype is np.uint8 else 2, flat.size).astype(dtype)
        before = out.copy()
        step = _fold(flat, width, se, lo, hi, out, np.empty_like(flat))
        assert np.shares_memory(step, out) and step.size == hi - lo
        assert np.array_equal(out[:lo], before[:lo]) and np.array_equal(out[hi:], before[hi:])
        window = out[lo:hi].reshape(-1, width)[:, r : r + w]
        assert np.array_equal(window, _max_filter(img, se)[y0:y1])


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


@pytest.mark.parametrize("shape", [(7, 23), (23, 7), (1, 15), (15, 1), (2, 9)])
def test_reconstruction_matches_iterative_oracle_on_non_square_images(shape, rng):
    for _ in range(4):
        a = rng.integers(0, 256, shape).astype(np.uint8)
        b = rng.integers(0, 256, shape).astype(np.uint8)
        low, high = np.minimum(a, b), np.maximum(a, b)
        assert np.array_equal(reconstruct_by_dilation(low, a),
                              iterate_reconstruct_dilation(low, a).astype(np.uint8))
        assert np.array_equal(reconstruct_by_erosion(high, a),
                              iterate_reconstruct_erosion(high, a).astype(np.uint8))


def _serpentine(h, w, rng):
    """A corridor mask (1..255 inside, 0 on the walls) winding down the rows."""
    mask = rng.integers(1, 256, (h, w)).astype(np.uint8)
    for y in range(2, h, 4):
        mask[y] = 0
        gap = w - 1 if y % 8 == 2 else 0  # the gap alternates right, left, ...
        mask[y, gap] = rng.integers(1, 256)
    return mask


@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "columns"])
def test_reconstruction_front_crossing_a_serpentine_matches_iterative_oracle(transpose, rng):
    # The front enters at one corner and winds through every corridor, so
    # the region that can still change grows, shrinks and moves across the
    # whole image; a second seed mid-way starts a second front.
    mask = _serpentine(41, 37, rng)
    marker = np.zeros_like(mask)
    marker[0, 0] = mask[0, 0]
    marker[20, 18] = mask[20, 18] // 2
    if transpose:
        mask, marker = mask.T.copy(), marker.T.copy()
    expected = iterate_reconstruct_dilation(marker, mask).astype(np.uint8)
    assert np.array_equal(_reconstruct(marker, mask), expected)
    assert np.array_equal(reconstruct_by_dilation(marker, mask), expected)
    assert np.array_equal(reconstruct_by_erosion(255 - marker, 255 - mask), 255 - expected)
    assert expected[-1].any() and expected[:, -1].any()  # the front crossed the image


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


# --- connected-component labelling (scipy is the reference) ------------------------

_STRUCTURE = {4: ndimage.generate_binary_structure(2, 1), 8: np.ones((3, 3), dtype=bool)}


def _assert_labels_like_scipy(mask, connectivity):
    labels, n = _label(mask, connectivity)
    expected, expected_n = ndimage.label(mask, structure=_STRUCTURE[connectivity])
    assert (labels.dtype, labels.shape, n) == (np.int32, mask.shape, expected_n)
    np.testing.assert_array_equal(labels, expected)
    return labels, n


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_matches_scipy_on_random_masks(connectivity):
    rng = np.random.default_rng(1966)
    for _ in range(1500):
        h, w = rng.integers(1, 30, size=2)
        _assert_labels_like_scipy(rng.random((h, w)) < rng.random(), connectivity)


_CHECKERBOARD = (np.indices((6, 7)).sum(axis=0) % 2).astype(bool)
_DIAGONALS = np.array([[0, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=bool)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("mask, counts", [
    (np.zeros((5, 7), dtype=bool), (0, 0)),
    (np.ones((5, 7), dtype=bool), (1, 1)),
    (np.array([[1, 1, 0, 1, 0, 0, 1]], dtype=bool), (3, 3)),
    (np.array([[1], [1], [0], [1], [0], [0], [1]], dtype=bool), (3, 3)),
    (np.ones((1, 1), dtype=bool), (1, 1)),
    (np.zeros((1, 1), dtype=bool), (0, 0)),
    (_CHECKERBOARD, (21, 1)),
    (_DIAGONALS, (5, 2)),
], ids=["empty", "full", "one-row", "one-column", "1x1", "1x1-empty", "checkerboard",
        "diagonal-touches"])
def test_label_edge_cases_match_scipy(mask, counts, connectivity):
    _, n = _assert_labels_like_scipy(mask, connectivity)
    assert n == counts[connectivity == 8]


def test_label_numbers_components_in_raster_order_of_their_first_pixel():
    # The run at (0, 2) starts a tree of its own and joins the first
    # component only on row 2, so it must not use up a number.
    mask = np.array([[1, 0, 1, 0, 1],
                     [1, 0, 1, 0, 0],
                     [1, 1, 1, 0, 1]], dtype=bool)
    expected = np.array([[1, 0, 1, 0, 2],
                         [1, 0, 1, 0, 0],
                         [1, 1, 1, 0, 3]])
    for connectivity in (4, 8):
        labels, n = _assert_labels_like_scipy(mask, connectivity)
        assert n == 3 and np.array_equal(labels, expected)
    labels, n = _assert_labels_like_scipy(_DIAGONALS, 4)
    assert n == 5 and np.array_equal(labels, [[0, 0, 0, 1], [2, 0, 3, 0], [0, 4, 0, 0],
                                              [0, 0, 0, 5]])
    labels, n = _assert_labels_like_scipy(_DIAGONALS, 8)
    assert n == 2 and np.array_equal(labels, [[0, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0],
                                              [0, 0, 0, 2]])


def test_label_matches_scipy_on_the_masks_a_phantom_slice_labels():
    slices, _ = make_phantom_series(
        n_slices=2, size=512, tumour_slices=(1,), distractor_slices=(0,), seed=25
    )
    for original in slices:
        markers = compute_markers(preprocess_slice(original))
        for mask in (markers.foreground, markers.background, regional_maxima(original)):
            for connectivity in (4, 8):
                _assert_labels_like_scipy(mask, connectivity)


# --- regional extrema ------------------------------------------------------------------

def test_regional_maxima_constant_image_is_one_plateau():
    img = np.full((5, 8), 13, dtype=np.uint8)
    assert regional_maxima(img).all()


@pytest.mark.parametrize("value", [0, 255])
def test_regional_extrema_of_constant_image_at_either_end_of_the_range(value):
    img = np.full((5, 8), value, dtype=np.uint8)
    assert regional_maxima(img).all()


def test_regional_maxima_single_peak():
    img = np.zeros((5, 5), dtype=np.uint8)
    img[2, 2] = 9
    out = regional_maxima(img)
    assert out[2, 2]
    assert out.sum() == 1


def test_regional_maxima_column_gradient():
    img = np.tile(np.arange(8, dtype=np.uint8), (5, 1))
    out = regional_maxima(img)
    expected = np.zeros((5, 8), dtype=bool)
    expected[:, -1] = True
    assert np.array_equal(out, expected)


def test_regional_maxima_matches_plateau_oracle(rng):
    for _ in range(5):
        img = rng.integers(0, 12, (16, 16)).astype(np.uint8)  # small range -> many plateaus
        assert np.array_equal(regional_maxima(img), plateau_regional_maxima(img))


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


def test_regional_maxima_plateau_with_only_a_diagonal_higher_neighbour():
    img = np.zeros((6, 6), dtype=np.uint8)
    img[1:3, 1:3] = 5
    img[3, 3] = 9  # touches the plateau at (2, 2) only diagonally
    expected = np.zeros((6, 6), dtype=bool)
    expected[3, 3] = True
    assert np.array_equal(regional_maxima(img), expected)
    assert np.array_equal(regional_maxima(img), plateau_regional_maxima(img))


def test_regional_maxima_plateau_along_the_border():
    img = np.full((5, 7), 3, dtype=np.uint8)
    img[0, :] = 8
    img[:, 0] = 8
    img[2, 3] = 6
    expected = np.zeros((5, 7), dtype=bool)
    expected[0, :] = expected[:, 0] = True
    expected[2, 3] = True
    assert np.array_equal(regional_maxima(img), expected)
    img[4, 0] = 9  # a brighter corner pixel drains the whole border plateau
    expected[0, :] = expected[:, 0] = False
    expected[4, 0] = True
    assert np.array_equal(regional_maxima(img), expected)


def test_regional_maxima_plateau_top_in_one_part_leaking_in_another():
    # One 8-connected plateau of 5s: its left block sees no brighter pixel,
    # its right block, joined only diagonally, touches a 7.
    img = np.zeros((6, 8), dtype=np.uint8)
    img[0:2, 0:2] = 5
    img[2:4, 2:6] = 5
    img[3, 6] = 7
    expected = np.zeros((6, 8), dtype=bool)
    expected[3, 6] = True
    assert np.array_equal(regional_maxima(img), expected)
    img[3, 6] = 4  # without the 7 the whole plateau is a maximum
    assert np.array_equal(regional_maxima(img), img == 5)


@pytest.mark.parametrize("shape", [(1, 12), (12, 1)])
def test_regional_extrema_on_single_row_and_column_images(shape, rng):
    line = np.array([1, 3, 3, 2, 5, 5, 5, 0, 0, 4, 4, 2], dtype=np.uint8).reshape(shape)
    assert np.flatnonzero(regional_maxima(line)).tolist() == [1, 2, 4, 5, 6, 9, 10]
    for _ in range(20):
        img = rng.integers(0, 4, shape).astype(np.uint8)
        assert np.array_equal(regional_maxima(img), plateau_regional_maxima(img))
    single = np.full((1, 1), 7, dtype=np.uint8)
    assert regional_maxima(single).all()


def test_regional_extrema_match_reconstruction_definition_on_phantom_slices():
    slices, _ = make_phantom_series(
        n_slices=3, size=512, tumour_slices=(1,), distractor_slices=(2,), seed=8
    )
    se = make_disk(8)
    for original in slices:
        smooth = close_by_reconstruction(open_by_reconstruction(preprocess_slice(original), se), se)
        for img in (original, smooth):
            maxima = regional_maxima(img)
            assert maxima.any()
            assert np.array_equal(maxima, reconstruction_regional_maxima(img))


def test_reconstruction_oracle_agrees_with_plateau_oracle(rng):
    for i in range(20):
        img = rng.integers(0, (3, 12, 256)[i % 3], (11, 17)).astype(np.uint8)
        assert np.array_equal(reconstruction_regional_maxima(img), plateau_regional_maxima(img))
        assert np.array_equal(reconstruction_regional_minima(img), plateau_regional_minima(img))


def test_regional_maxima_invariant_under_constant_shift(rng):
    img = rng.integers(0, 200, (16, 16)).astype(np.uint8)
    assert np.array_equal(regional_maxima(img), regional_maxima(img + 40))


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


def _extreme_image(rng, shape):
    """Random image where about half the pixels sit at 0 or 255."""
    img = rng.integers(0, 256, shape).astype(np.uint8)
    pick = rng.random(shape)
    img[pick < 0.25] = 0
    img[pick > 0.75] = 255
    return img


@pytest.mark.parametrize("shape", [(16, 16), (7, 23), (23, 7), (1, 15), (15, 1), (1, 1)])
def test_impose_minima_values_match_textbook_formula(shape, rng):
    for _ in range(8):
        img = _extreme_image(rng, shape)
        markers = rng.random(shape) < 0.1
        markers.flat[rng.integers(markers.size)] = True
        out = impose_minima(img, markers)
        assert out.dtype == np.uint8
        assert np.array_equal(out, textbook_impose_minima(img, markers))


def test_impose_minima_values_match_textbook_formula_on_phantom_slices():
    slices, _ = make_phantom_series(
        n_slices=3, size=512, tumour_slices=(1,), distractor_slices=(2,), seed=8
    )
    for original in slices:
        pre = preprocess_slice(original)
        markers = compute_markers(pre)
        seeds = markers.foreground | markers.background
        assert not seeds.all()
        assert np.array_equal(impose_minima(pre, seeds), textbook_impose_minima(pre, seeds))


# --- results are new arrays --------------------------------------------------------

_BOOL_RESULTS = {"regional_maxima", "erode_mask", "dilate_mask"}
_PUBLIC = (
    "erode", "dilate", "open_image", "close_image", "reconstruct_by_dilation",
    "reconstruct_by_erosion", "open_by_reconstruction", "close_by_reconstruction",
    "regional_maxima", "impose_minima", "erode_mask", "dilate_mask",
)


@pytest.mark.parametrize("radius", [0, 1, 3])
@pytest.mark.parametrize("name", _PUBLIC)
def test_results_never_alias_or_change_their_inputs(name, radius, rng):
    img = _extreme_image(rng, (13, 17))
    other = _extreme_image(rng, (13, 17))
    markers = rng.random((13, 17)) < 0.6
    se = make_disk(radius)
    func, args = {
        "erode": (erode, (img, se)),
        "dilate": (dilate, (img, se)),
        "open_image": (open_image, (img, se)),
        "close_image": (close_image, (img, se)),
        "reconstruct_by_dilation": (reconstruct_by_dilation, (np.minimum(img, other), img)),
        "reconstruct_by_erosion": (reconstruct_by_erosion, (np.maximum(img, other), img)),
        "open_by_reconstruction": (open_by_reconstruction, (img, se)),
        "close_by_reconstruction": (close_by_reconstruction, (img, se)),
        "regional_maxima": (regional_maxima, (img,)),
        "impose_minima": (impose_minima, (img, markers)),
        "erode_mask": (erode_mask, (markers, se)),
        "dilate_mask": (dilate_mask, (markers, se)),
    }[name]
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    out = func(*args)
    assert out.dtype == (bool if name in _BOOL_RESULTS else np.uint8)
    for a, b in zip(arrays, before):
        assert not np.shares_memory(out, a)
        assert np.array_equal(a, b)
