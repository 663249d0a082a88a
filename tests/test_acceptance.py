"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a [ACCEPTANCE] PASS/FAIL line via conftest. The suite
favors independence over speed: everything is checked against oracles
built from definitions, not against the library's own kernels.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import ndimage

from lungct.cli import main
from lungct.config import PipelineConfig
from lungct.dicom import parse_dicom
from lungct.ensemble import (
    BaggedTreesClassifier,
    cross_validate,
    evaluate,
    load_model,
    save_model,
)
from lungct.errors import (
    FormatError,
    MissingTagError,
    ModelFormatError,
    ModelVersionError,
)
from lungct.analytics import SliceDetection, build_report
from lungct.morphology import (
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
)
from lungct.phantom import make_feature_corpus, make_phantom_series, write_series_pgm
from lungct.pipeline import analyze_slice
from lungct.watershed import MarkerSet, watershed

from _dicom_fixture import assert_same_parse, build_dicom
from _oracles import (
    iterate_reconstruct_dilation,
    iterate_reconstruct_erosion,
    plateau_regional_maxima,
    plateau_regional_minima,
    window_dilate,
    window_erode,
)

DISK_RADII = (1, 2, 3, 8)


def _image_bank(n=200, size=32, seed=2024, high=256):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, high, (size, size)).astype(np.uint8) for _ in range(n)]


# --- criterion: Table 3 metric arithmetic -----------------------------------------

def test_table3_metric_arithmetic():
    predictions = np.concatenate([
        np.ones(72, int), np.zeros(1, int), np.ones(31, int), np.zeros(1616, int)
    ])
    labels = np.concatenate([
        np.ones(73, int), np.zeros(1647, int)
    ])
    start = time.perf_counter()
    metrics = evaluate(predictions, labels)
    elapsed = time.perf_counter() - start
    assert metrics["confusion"] == (72, 1, 31, 1616)
    assert round(metrics["accuracy"] * 100, 2) == 98.14
    assert round(metrics["sensitivity"] * 100, 2) == 98.63
    assert elapsed < 0.001


# --- criterion: morphology oracle suite ---------------------------------------------

def test_morphology_oracle_suite():
    images = _image_bank(200)
    start = time.perf_counter()
    mismatches = 0
    for radius in DISK_RADII:
        se = make_disk(radius)
        for img in images:
            oracle_eroded = window_erode(img, se)
            oracle_dilated = window_dilate(img, se)
            mismatches += int(np.count_nonzero(erode(img, se) != oracle_eroded))
            mismatches += int(np.count_nonzero(dilate(img, se) != oracle_dilated))
            mismatches += int(
                np.count_nonzero(open_image(img, se) != window_dilate(oracle_eroded, se))
            )
            mismatches += int(
                np.count_nonzero(close_image(img, se) != window_erode(oracle_dilated, se))
            )
    for i, img in enumerate(images):
        other = images[(i + 1) % len(images)]
        marker_lo = np.minimum(img, other)
        oracle = iterate_reconstruct_dilation(marker_lo, img).astype(np.uint8)
        mismatches += int(np.count_nonzero(reconstruct_by_dilation(marker_lo, img) != oracle))
        marker_hi = np.maximum(img, other)
        oracle = iterate_reconstruct_erosion(marker_hi, img).astype(np.uint8)
        mismatches += int(np.count_nonzero(reconstruct_by_erosion(marker_hi, img) != oracle))
        mismatches += int(
            np.count_nonzero(regional_maxima(img) != plateau_regional_maxima(img))
        )
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0


# --- criterion: morphology algebra ---------------------------------------------------

def test_morphology_algebra():
    images = _image_bank(200)
    shifted_bank = _image_bank(200, seed=77, high=216)  # +40 stays in range
    for radius in DISK_RADII:
        se = make_disk(radius)
        for img in images:
            opened = open_image(img, se)
            closed = close_image(img, se)
            assert np.all(opened <= img)
            assert np.all(img <= closed)
            assert np.array_equal(open_image(opened, se), opened)
            assert np.array_equal(close_image(closed, se), closed)
            assert np.array_equal(erode(img, se), 255 - dilate(255 - img, se))
    se8 = make_disk(8)
    for i, img in enumerate(images):
        other = images[(i + 1) % len(images)]
        marker = np.minimum(img, other)
        rec = reconstruct_by_dilation(marker, img)
        assert np.all(marker <= rec)
        assert np.all(rec <= img)
        assert np.array_equal(reconstruct_by_dilation(rec, img), rec)  # fixpoint
        assert np.all(open_by_reconstruction(img, se8) >= open_image(img, se8))
    for img in shifted_bank:
        assert np.array_equal(regional_maxima(img), regional_maxima(img + 40))


# --- criterion: minima imposition exactness --------------------------------------------

def test_impose_minima_exactness():
    rng = np.random.default_rng(99)
    for _ in range(100):
        img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        markers = rng.random((32, 32)) < 0.06
        if not markers.any():
            markers[rng.integers(0, 32), rng.integers(0, 32)] = True
        out = impose_minima(img, markers)
        assert np.array_equal(plateau_regional_minima(out), markers)


# --- criterion: watershed contract -------------------------------------------------------

def _plant_markers(rng, shape, n_markers):
    fg = np.zeros(shape, bool)
    bg = np.zeros(shape, bool)
    spots = []
    while len(spots) < n_markers:
        y = int(rng.integers(2, shape[0] - 2))
        x = int(rng.integers(2, shape[1] - 2))
        if all(abs(y - a) + abs(x - b) > 4 for a, b in spots):
            spots.append((y, x))
    for i, (y, x) in enumerate(spots):
        (fg if i % 2 == 0 else bg)[y - 1 : y + 2, x - 1 : x + 2] = True
    return MarkerSet(fg, bg)


def _watershed_task(payload):
    img, fg, bg = payload
    return watershed(img, MarkerSet(fg, bg))


def test_watershed_contract():
    img = np.array([[3, 1, 3, 1, 3]], dtype=np.uint8)
    markers = MarkerSet(
        np.array([[0, 1, 0, 0, 0]], bool), np.array([[0, 0, 0, 1, 0]], bool)
    )
    assert watershed(img, markers).tolist() == [[1, 1, 0, 2, 2]]

    rng = np.random.default_rng(4242)
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], bool)
    cases = []
    for _ in range(50):
        image = rng.integers(0, 256, (24, 24)).astype(np.uint8)
        marker_set = _plant_markers(rng, (24, 24), int(rng.integers(2, 5)))
        cases.append((image, marker_set.foreground, marker_set.background))

    serial = [_watershed_task(case) for case in cases]
    with ProcessPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(_watershed_task, cases))

    for (image, fg, bg), labels, labels_parallel in zip(cases, serial, parallel):
        assert np.array_equal(labels, labels_parallel)  # 1 vs 4 workers identical
        assert (labels >= 0).all()
        for mask in (fg, bg):
            comps, n = ndimage.label(mask, structure=cross)
            for k in range(1, n + 1):
                values = set(labels[comps == k].tolist())
                assert len(values) == 1 and 0 not in values  # basin-pure
        ridge_ys, ridge_xs = np.nonzero(labels == 0)
        h, w = labels.shape
        for y, x in zip(ridge_ys, ridge_xs):
            if y in (0, h - 1) or x in (0, w - 1):
                continue
            window = labels[y - 1 : y + 2, x - 1 : x + 2]
            assert len(set(window.ravel().tolist()) - {0}) >= 2  # touches two basins


# --- criterion: phantom feature ranges ------------------------------------------------------

def test_phantom_feature_ranges():
    config = PipelineConfig()
    checked = 0
    for seed in (11, 22, 33):
        slices, truth = make_phantom_series(
            n_slices=3, size=512, tumour_slices=(0, 1, 2), seed=seed
        )
        for i, img in enumerate(slices):
            candidates = analyze_slice(img, config, slice_index=i)
            assert len(candidates) == 1
            f = candidates[0].features
            assert 1000 <= f.size_px <= 5000
            assert 100 <= f.mean_intensity <= 120
            assert 80 <= f.center_distance_px <= 110
            checked += 1
    assert checked == 9


# --- criterion: volume oracle ------------------------------------------------------------------

def test_volume_oracle():
    radius, thickness, spacing = 22, 4.0, 0.8
    ys, xs = np.ogrid[-64:64, -64:64]
    detections = []
    analytic = 0.0
    for depth in range(-radius + 1, radius):
        r2 = radius * radius - depth * depth
        area = int(np.count_nonzero(xs * xs + ys * ys <= r2))
        detections.append(
            SliceDetection(slice_index=depth + radius, area_px=area, center=(64, 64),
                           confidence=1.0)
        )
        analytic += np.pi * r2 * spacing * spacing * thickness
    report = build_report("SPHERE", detections, thickness, (spacing, spacing))
    assert abs(report.volume_mm3 - analytic) / analytic < 0.10

    # additivity is exact
    half_a = build_report("S", detections[:20], thickness, (spacing, spacing))
    half_b = build_report("S", detections[20:], thickness, (spacing, spacing))
    assert half_a.volume_px_mm + half_b.volume_px_mm == report.volume_px_mm
    assert half_a.volume_mm3 + half_b.volume_mm3 == pytest.approx(report.volume_mm3)


# --- criterion: classifier properties -----------------------------------------------------------

def test_classifier_properties(tmp_path):
    X, y, _, _ = make_feature_corpus(500, seed=0)

    # bit-reproducibility of training and cross-validation
    for name, seed in (("a", 17), ("b", 17)):
        save_model(BaggedTreesClassifier(seed=seed).fit(X, y), tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert cross_validate(X, y, k=15, seed=3) == cross_validate(X, y, k=15, seed=3)

    # confidence quantization
    model = BaggedTreesClassifier(n_trees=30, seed=0).fit(X, y)
    rng = np.random.default_rng(5)
    probe = rng.uniform(0, 10000, (500, 3))
    confidence = model.predict_confidence(probe)
    assert np.allclose(confidence * 30, np.round(confidence * 30), atol=1e-12)
    assert ((confidence >= 0) & (confidence <= 1)).all()

    # label invariance under monotone rescaling applied at train and predict time
    scale = np.array([3.0, 0.25, 12.0])
    shift = np.array([50.0, -10.0, 4.0])
    rescaled = BaggedTreesClassifier(seed=0).fit(X * scale + shift, y)
    assert model.predict(probe).tolist() == rescaled.predict(probe * scale + shift).tolist()
    nonlinear = BaggedTreesClassifier(seed=0).fit(np.power(X, 1.5), y)
    assert model.predict(X).tolist() == nonlinear.predict(np.power(X, 1.5)).tolist()

    # separable corpus: 15-fold CV at or above 0.95
    assert cross_validate(X, y, k=15, seed=0)["mean_accuracy"] >= 0.95

    # label-shuffled corpus: chance-level CV across 20 seeds
    shuffle_rng = np.random.default_rng(0)
    means = []
    for seed in range(20):
        shuffled = y.copy()
        shuffle_rng.shuffle(shuffled)
        means.append(cross_validate(X, shuffled, k=15, seed=seed)["mean_accuracy"])
    assert 0.35 <= float(np.mean(means)) <= 0.65


# --- criterion: model persistence ----------------------------------------------------------------

def test_model_persistence(tmp_path):
    X, y, _, _ = make_feature_corpus(400, seed=1)
    model = BaggedTreesClassifier(seed=9).fit(X, y)
    path = tmp_path / "model.lctm"
    save_model(model, path)
    loaded = load_model(path)
    probe = np.random.default_rng(7).uniform(0, 150000, (1000, 3))
    assert model.predict(probe).tolist() == loaded.predict(probe).tolist()

    data = path.read_bytes()
    truncated = tmp_path / "truncated.lctm"
    truncated.write_bytes(data[: len(data) - 7])
    with pytest.raises(ModelFormatError):
        load_model(truncated)

    bumped = bytearray(data)
    bumped[4] += 1
    versioned = tmp_path / "versioned.lctm"
    versioned.write_bytes(bytes(bumped))
    with pytest.raises(ModelVersionError):
        load_model(versioned)


# --- criterion: DICOM fixtures --------------------------------------------------------------------

def test_dicom_fixtures():
    kwargs = dict(rows=2, cols=2, bits=16, pixels=(0, 100, 200, 300), patient_id="P1",
                  instance=7, slope=1.0, intercept=-1024.0, thickness=5.0, spacing=(0.7, 0.7))
    explicit = parse_dicom(build_dicom(explicit=True, **kwargs))
    implicit = parse_dicom(build_dicom(explicit=False, **kwargs))
    assert_same_parse(explicit, implicit)
    assert explicit.pixel_data.tolist() == [0, 100, 200, 300]

    with pytest.raises(FormatError):
        parse_dicom(build_dicom(magic=b"XXXX", **kwargs))

    with pytest.raises(MissingTagError) as excinfo:
        parse_dicom(build_dicom(omit=((0x7FE0, 0x0010),), **kwargs))
    assert excinfo.value.tag == (0x7FE0, 0x0010)


# --- criterion: end-to-end phantom detection (slowest, runs last) ---------------------------------

PLANTED = (30, 31, 32, 33, 34)
DISTRACTORS = (10, 50)


def test_end_to_end_phantom_detection(tmp_path):
    X, y, _, _ = make_feature_corpus(500, seed=0)
    model_path = tmp_path / "classifier.lctm"
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), model_path)

    successes = 0
    timings = []
    for trial in range(20):
        series_dir = tmp_path / "series" / f"PH{trial:03d}"
        slices, truth = make_phantom_series(
            n_slices=80,
            size=512,
            tumour_slices=PLANTED,
            distractor_slices=DISTRACTORS,
            seed=1000 + trial,
        )
        write_series_pgm(series_dir, slices)
        out_dir = tmp_path / "out" / f"t{trial}"
        start = time.perf_counter()
        code = main([
            "analyze", str(series_dir), "--model", str(model_path),
            "--out", str(out_dir), "--threads", "1",
        ])
        elapsed = time.perf_counter() - start
        timings.append(elapsed)
        assert code == 0
        assert elapsed <= 60.0, f"trial {trial} took {elapsed:.1f}s"
        report = json.loads((out_dir / f"PH{trial:03d}" / "report.json").read_text())
        found = sorted({p["slice_index"] for p in report["positives"]})
        if found == list(PLANTED):
            successes += 1
    print(f"\nphantom trials: {successes}/20 exact, slowest series {max(timings):.1f}s")
    assert successes >= 18
