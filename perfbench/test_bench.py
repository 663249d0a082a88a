"""Fast self-tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import dicomwrite  # noqa: E402
from inputs import SeriesInput  # noqa: E402
from spans import Tracer, median_duration, self_times  # noqa: E402

from lungct.ingest import load_series  # noqa: E402


def test_writer_round_trips_every_gray_level(tmp_path):
    rng = np.random.default_rng(5)
    stack = rng.integers(0, 256, size=(3, 40, 56), dtype=np.uint8)
    stack[0].flat[:256] = np.arange(256)
    dicomwrite.write_series(tmp_path, stack, "RT1", 1.25, (0.68, 0.74), uid_stem="2.25.9")
    series = load_series(tmp_path)
    assert np.array_equal(series.slices, stack)
    assert series.patient_id == "RT1"
    assert series.slice_thickness_mm == 1.25
    assert series.pixel_spacing_mm == (0.68, 0.74)
    assert series.instance_numbers == [1, 2, 3]


def _span(i, start, end, parent=None):
    return {"id": i, "name": f"s{i}", "start": start, "end": end, "parent": parent, "series": 0}


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 4.0, 0),   # overlaps span 1
        _span(3, 8.0, 12.0, 0),  # runs past its parent's end
        _span(4, 1.5, 2.5, 1),   # grandchild: counts against span 1 only
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 1.0, 2: 2.0, 3: 4.0, 4: 1.0})
    assert median_duration(spans, "s1", scale=1e3) == pytest.approx(2000.0)
    assert median_duration(spans, "s1", scale=1e3, use_self=own) == pytest.approx(1000.0)
    assert median_duration(spans, "absent") == 0.0


def test_tracer_nests_and_patches_then_restores():
    import types

    module = types.SimpleNamespace(work=lambda x: x + 1)
    original = module.work
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.patched([(module, "work", "inner")]):
            assert module.work(1) == 2
    assert module.work is original
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    own = self_times(tracer.spans)
    assert own[outer["id"]] + own[inner["id"]] == pytest.approx(outer["end"] - outer["start"])


# --- output checks on a hand-made analysis -------------------------------------------

CENTER, RADIUS, TUMOUR = (40, 30), 8, (1, 2)
SPACING, THICKNESS = (0.68, 0.74), 1.25


def _series(tmp_path):
    ys, xs = np.ogrid[:64, :64]
    disk = (xs - CENTER[0]) ** 2 + (ys - CENTER[1]) ** 2 <= RADIUS ** 2
    slices = np.full((3, 64, 64), 50, dtype=np.uint8)
    for i in TUMOUR:
        slices[i][disk] = 115
    return SeriesInput(tmp_path / "series", "T1", slices, TUMOUR, CENTER, RADIUS, THICKNESS,
                       SPACING), disk


def _write_analysis(patient_dir, series, disk):
    """A correct output folder: the disk found on each tumour slice, boundary drawn."""
    patient_dir.mkdir(parents=True)
    inner = np.zeros_like(disk)
    inner[1:-1, 1:-1] = disk[1:-1, 1:-1] & disk[:-2, 1:-1] & disk[2:, 1:-1] \
        & disk[1:-1, :-2] & disk[1:-1, 2:]
    area = int(disk.sum())
    positives = [{"slice_index": i, "instance_number": i + 1, "area_px": area,
                  "center": list(CENTER), "confidence": 1.0} for i in TUMOUR]
    report = {"patient_id": "T1", "positives": positives,
              "volume_mm3": area * len(TUMOUR) * SPACING[0] * SPACING[1] * THICKNESS}
    (patient_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    for i in TUMOUR:
        overlay = series.slices[i].copy()
        overlay[disk & ~inner] = 255
        _write_pgm(patient_dir / f"slice_{i:03d}_overlay.pgm", overlay)


def _write_pgm(path, img):
    path.write_bytes(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode() + img.tobytes())


def _edit_report(patient_dir, edit):
    path = patient_dir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report, sort_keys=True, indent=2))


def _edit_overlay(patient_dir, index, edit):
    path = patient_dir / f"slice_{index:03d}_overlay.pgm"
    img = checks.read_pgm(path).copy()
    edit(img)
    _write_pgm(path, img)


def _positive_on_plain_slice(patient_dir):
    _edit_report(patient_dir, lambda r: r["positives"][0].__setitem__("slice_index", 0))
    (patient_dir / "slice_001_overlay.pgm").rename(patient_dir / "slice_000_overlay.pgm")


def _lost_slice(patient_dir):
    def drop(report):
        report["positives"] = report["positives"][:1]
        report["volume_mm3"] /= 2
    _edit_report(patient_dir, drop)
    (patient_dir / "slice_002_overlay.pgm").unlink()


# corruption -> (edit of a correct output folder, words of the problem it must raise)
CORRUPTIONS = {
    "positive on a slice without tumour": (_positive_on_plain_slice, "where no tumour"),
    "centre outside disk": (lambda d: _edit_report(
        d, lambda r: r["positives"][0].__setitem__("center", [5, 5])), "outside the planted disk"),
    "volume off": (lambda d: _edit_report(
        d, lambda r: r.__setitem__("volume_mm3", r["volume_mm3"] * 1.01)), "volume_mm3"),
    "far overlay pixel": (lambda d: _edit_overlay(
        d, 1, lambda img: img.__setitem__((5, 60), 255)), "outside the planted tumour"),
    "overlay value not 255": (lambda d: _edit_overlay(
        d, 2, lambda img: img.__setitem__((CENTER[1], CENTER[0]), 200)), "other than 255"),
    "stale overlay file": (lambda d: _write_pgm(d / "slice_000_overlay.pgm", np.full(
        (64, 64), 50, dtype=np.uint8)), "overlay files for slices [0, 1, 2]"),
    "half the tumour lost": (_lost_slice, "tumour area recall 0.5000 < 0.65"),
}


def test_a_correct_analysis_passes(tmp_path):
    series, disk = _series(tmp_path)
    _write_analysis(tmp_path / "out", series, disk)
    report = (tmp_path / "out" / "report.json").read_bytes()
    problems, recall = checks.check_analysis(tmp_path / "out", series,
                                             checks.allowed_overlay_regions(series), report)
    assert problems == []
    assert recall == 1.0


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_each_analysis_check_rejects_a_corrupted_output(tmp_path, corruption):
    series, disk = _series(tmp_path)
    _write_analysis(tmp_path / "out", series, disk)
    edit, expected = CORRUPTIONS[corruption]
    edit(tmp_path / "out")
    problems, _ = checks.check_analysis(tmp_path / "out", series,
                                        checks.allowed_overlay_regions(series))
    assert any(expected in problem for problem in problems), problems


def test_report_differing_between_thread_counts_is_rejected(tmp_path):
    series, disk = _series(tmp_path)
    _write_analysis(tmp_path / "out", series, disk)
    problems, _ = checks.check_analysis(tmp_path / "out", series,
                                        checks.allowed_overlay_regions(series), b"{}\n")
    assert problems == ["report.json differs from the --threads 1 report"]


def test_overlay_may_follow_an_in_band_speck_the_closing_joins():
    slices = np.full((1, 64, 64), 50, dtype=np.uint8)
    ys, xs = np.ogrid[:64, :64]
    slices[0][(xs - 30) ** 2 + (ys - 30) ** 2 <= 64] = 115
    slices[0][30, 41:43] = 120   # 2 px gap from the disk edge at x=38: closed
    slices[0][5, 5] = 120        # far away: not part of the tumour
    series = SeriesInput(Path("."), "T", slices, (0,), (30, 30), 8, 1.0, (1.0, 1.0))
    allowed = checks.allowed_overlay_regions(series)[0]
    assert allowed[30, 45] and not allowed[30, 46]
    assert not allowed[5, 5]


def test_training_checks():
    good = checks.check_training(0.99, b"m", b"m", 0.99)
    assert good == []
    assert len(checks.check_training(None, b"m", b"m", 0.99)) == 1
    assert len(checks.check_training(0.90, b"m", b"m", 0.99)) == 1
    assert len(checks.check_training(0.99, b"m", b"n", 0.99)) == 1
    assert len(checks.check_training(0.99, b"m", b"m", 0.90)) == 1
    line = "15-fold cross-validation (patient level): mean accuracy 99.40%\n"
    assert checks.cv_accuracy("trained 30 trees on 3000 samples\n" + line) == pytest.approx(0.994)
