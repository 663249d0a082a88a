"""Region features: size, mean intensity, center distance."""

import numpy as np
import pytest

from lungct.errors import EmptyRegionError
from lungct.features import (
    CSV_HEADER,
    center_distance,
    feature_vector,
    read_feature_csv,
    write_feature_csv,
)


def test_region_size_all_zero():
    # an all-zero region has no size to measure: it is rejected, not sized 0
    with pytest.raises(EmptyRegionError):
        feature_vector(np.zeros((6, 6), dtype=np.uint8))


def test_region_size_counts_nonzero():
    img = np.zeros((5, 5), dtype=np.uint8)
    img.ravel()[[1, 3, 7, 9, 13, 17, 21]] = 50
    assert feature_vector(img).size_px == 7


def test_region_size_matches_loop_oracle(rng):
    img = rng.integers(0, 4, (12, 12)).astype(np.uint8)
    count = sum(1 for v in img.ravel() if v > 0)
    assert feature_vector(img).size_px == count


def test_mean_two_pixels():
    img = np.zeros((3, 3), dtype=np.uint8)
    img[0, 0] = 100
    img[2, 2] = 120
    assert feature_vector(img).mean_intensity == 110.0


def test_mean_single_pixel():
    img = np.zeros((2, 2), dtype=np.uint8)
    img[1, 0] = 115
    assert feature_vector(img).mean_intensity == 115.0


def test_mean_empty_region_rejected():
    with pytest.raises(EmptyRegionError):
        feature_vector(np.zeros((4, 4), dtype=np.uint8))


def test_mean_matches_oracle(rng):
    img = rng.integers(0, 256, (10, 10)).astype(np.uint8)
    nz = [int(v) for v in img.ravel() if v > 0]
    assert feature_vector(img).mean_intensity == pytest.approx(sum(nz) / len(nz))


def test_center_pixel_bbox_midpoint():
    img = np.zeros((50, 50), dtype=np.uint8)
    img[30, 10] = 1
    img[40, 20] = 1
    assert feature_vector(img).center == (15, 35)


def test_center_pixel_single():
    img = np.zeros((20, 20), dtype=np.uint8)
    img[9, 7] = 5
    assert feature_vector(img).center == (7, 9)


def test_center_pixel_truncates():
    img = np.zeros((4, 4), dtype=np.uint8)
    img[0, 0] = 1
    img[0, 3] = 1
    assert feature_vector(img).center[0] == 1  # (0 + 3) // 2


def test_center_distance_examples():
    assert center_distance((346, 0), 512) == 90
    assert center_distance((256, 0), 512) == 0
    assert center_distance((0, 0), 512) == 256


def test_center_distance_out_of_range():
    with pytest.raises(ValueError):
        center_distance((512, 0), 512)


def test_feature_vector_phantom_disk():
    img = np.zeros((512, 512), dtype=np.uint8)
    ys, xs = np.ogrid[:512, :512]
    cx = 256 + 95
    img[(xs - cx) ** 2 + (ys - 250) ** 2 <= 25 * 25] = 112
    f = feature_vector(img)
    assert abs(f.size_px - np.pi * 25 * 25) / (np.pi * 25 * 25) < 0.02
    assert f.mean_intensity == 112.0
    assert f.center_distance_px == 95
    assert f.center == (cx, 250)


def test_feature_vector_single_pixel():
    img = np.zeros((400, 512), dtype=np.uint8)
    img[200, 346] = 115
    f = feature_vector(img)
    assert (f.size_px, f.mean_intensity, f.center_distance_px) == (1, 115.0, 90.0)
    assert f.bbox == (346, 346, 200, 200)


def test_feature_vector_uniform_fill_mean():
    img = np.full((8, 8), 77, dtype=np.uint8)
    assert feature_vector(img).mean_intensity == 77.0


def test_feature_vector_empty_rejected():
    with pytest.raises(EmptyRegionError):
        feature_vector(np.zeros((4, 4), dtype=np.uint8))


def test_translation_properties():
    base = np.zeros((64, 64), dtype=np.uint8)
    base[20:24, 30:35] = 100
    f0 = feature_vector(base)
    shifted_y = np.roll(base, 7, axis=0)
    assert feature_vector(shifted_y).center_distance_px == f0.center_distance_px
    shifted_x = np.roll(base, 6, axis=1)
    f1 = feature_vector(shifted_x)
    assert abs(f1.center_distance_px - f0.center_distance_px) == 6


def test_intensity_scaling_keeps_size(rng):
    img = np.zeros((32, 32), dtype=np.uint8)
    img[4:12, 4:12] = rng.integers(40, 100, (8, 8))
    doubled = np.clip(img.astype(int) * 2, 0, 255).astype(np.uint8)
    assert feature_vector(doubled).size_px == feature_vector(img).size_px


def test_csv_roundtrip(tmp_path):
    rows = [
        ("P1", 3, 1500, 113.25, 92.0, 1),
        ("P1", 4, 800, 60.5, 12.0, 0),
        ("P2", 0, 2000, 110.0, 101.5, -1),
    ]
    path = tmp_path / "features.csv"
    write_feature_csv(path, rows)
    X, y, patient_ids, slice_indices = read_feature_csv(path)
    assert X.shape == (3, 3)
    assert y.tolist() == [1, 0, -1]
    assert patient_ids == ["P1", "P1", "P2"]
    assert slice_indices == [3, 4, 0]
    assert X[0].tolist() == [1500.0, 113.25, 92.0]
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


@pytest.mark.parametrize("cells", [
    "nan,113.25,92", "1500,inf,92", "1500,113.25,-inf", "NaN,1,2", "1e999,1,2",
])
def test_csv_non_finite_feature_rejected_with_line(tmp_path, cells):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + f"\nP1,0,1,2,3,0\nP1,1,{cells},1\n")
    with pytest.raises(ValueError, match="^line 3: .*non-finite"):
        read_feature_csv(path)


@pytest.mark.parametrize("label", ["2", "-2", "10"])
def test_csv_label_outside_minus_one_to_one_rejected_with_line(tmp_path, label):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + f"\nP1,0,1,2,3,-1\nP1,1,1,2,3,{label}\n")
    with pytest.raises(ValueError, match=f"^line 3: label must be -1, 0 or 1, got {label}$"):
        read_feature_csv(path)


@pytest.mark.parametrize("cells, bad", [
    ("1_0,1,2,3,0", "1_0"), ("0,1_000,2,3,0", "1_000"), ("0,1,1_0.5,3,0", "1_0.5"),
    ("0,1,2,3,0_1", "0_1"), ("0,1,2,\u0663,0", "\u0663"),
])
def test_csv_number_outside_its_grammar_rejected_with_line(tmp_path, cells, bad):
    # float() and int() read "1_000" as 1000 and an Arabic-Indic digit as its value.
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + f"\nP1,0,1,2,3,0\nP1,{cells}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^line 3: malformed number '{bad}'$"):
        read_feature_csv(path)


def test_csv_malformed_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,real,header\n")
    with pytest.raises(ValueError):
        read_feature_csv(path)
    path.write_text(",".join(CSV_HEADER) + "\nP1,notanint,1,2,3,0\n")
    with pytest.raises(ValueError):
        read_feature_csv(path)
