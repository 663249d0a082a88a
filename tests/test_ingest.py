"""Series assembly and the PGM fallback."""

from pathlib import Path

import numpy as np
import pytest

from lungct.dicom import parse_dicom
from lungct.errors import EmptySeriesError, FormatError, MixedSeriesError, SeriesShapeError
from lungct.ingest import load_series, read_pgm, to_gray8, write_pgm

from _dicom_fixture import build_dicom


def _write_slices(directory, specs):
    for name, kwargs in specs:
        (directory / name).write_bytes(build_dicom(**kwargs))


def _slice_kwargs(instance, patient="P1", rows=2, cols=2, value=None):
    pixels = [value if value is not None else instance * 10] * (rows * cols)
    return dict(rows=rows, cols=cols, bits=16, pixels=pixels, patient_id=patient,
                instance=instance, slope=1.0, intercept=0.0, thickness=4.0,
                spacing=(0.8, 0.8))


def test_slices_sorted_by_instance_number(tmp_path):
    _write_slices(tmp_path, [
        ("c.dcm", _slice_kwargs(3)),
        ("a.dcm", _slice_kwargs(1)),
        ("b.dcm", _slice_kwargs(2)),
    ])
    series = load_series(tmp_path)
    assert series.instance_numbers == [1, 2, 3]
    assert series.patient_id == "P1"
    assert series.slice_thickness_mm == 4.0
    assert series.pixel_spacing_mm == (0.8, 0.8)
    assert series.slices.shape == (3, 2, 2)


def test_order_invariant_to_filenames(tmp_path):
    # same content under reversed names sorts identically by instance number
    _write_slices(tmp_path, [
        ("z_first.dcm", _slice_kwargs(2, value=20)),
        ("a_last.dcm", _slice_kwargs(1, value=10)),
    ])
    series = load_series(tmp_path)
    assert series.instance_numbers == [1, 2]
    assert series.slices[0].max() < series.slices[1].max()


def test_non_dicom_file_skipped_with_warning(tmp_path):
    _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1)), ("b.dcm", _slice_kwargs(2))])
    (tmp_path / "notes.txt").write_text("not an image")
    with pytest.warns(UserWarning, match="notes.txt"):
        series = load_series(tmp_path)
    assert len(series) == 2


def test_non_finite_geometry_slice_skipped_with_warning(tmp_path):
    _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1)), ("b.dcm", _slice_kwargs(2))])
    (tmp_path / "c.dcm").write_bytes(build_dicom(**{**_slice_kwargs(3), "thickness": "nan"}))
    with pytest.warns(UserWarning, match="c.dcm.*decimal string"):
        series = load_series(tmp_path)
    assert series.instance_numbers == [1, 2]


def test_unreadable_file_skipped_with_warning(tmp_path, monkeypatch):
    _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1)), ("b.dcm", _slice_kwargs(2))])
    read_bytes = Path.read_bytes

    def refuse_b(path):
        if path.name == "b.dcm":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse_b)
    with pytest.warns(UserWarning, match="b.dcm.*Permission denied"):
        series = load_series(tmp_path)
    assert series.instance_numbers == [1]


def test_unlistable_directory_rejected(tmp_path, monkeypatch):
    _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1))])

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "iterdir", refuse)
    with pytest.raises(EmptySeriesError, match="Permission denied"):
        load_series(tmp_path)


def test_mixed_patients_rejected(tmp_path):
    _write_slices(tmp_path, [
        ("a.dcm", _slice_kwargs(1, patient="A")),
        ("b.dcm", _slice_kwargs(2, patient="B")),
    ])
    with pytest.raises(MixedSeriesError):
        load_series(tmp_path)


def test_empty_directory_rejected(tmp_path):
    with pytest.raises(EmptySeriesError):
        load_series(tmp_path)


def test_inconsistent_dimensions_rejected(tmp_path):
    _write_slices(tmp_path, [
        ("a.dcm", _slice_kwargs(1, rows=2, cols=2)),
        ("b.dcm", _slice_kwargs(2, rows=3, cols=3)),
    ])
    with pytest.raises(SeriesShapeError):
        load_series(tmp_path)


# Signed 16-bit CT with air stored as -1000, and 8-bit slices whose odd
# pixel count leaves a pad byte after PixelData.
_SIGNED_16 = dict(rows=2, cols=3, bits=16, pixel_representation=1, slope=1.0, intercept=0.0)
_PADDED_8 = dict(rows=3, cols=3, bits=8, slope=4.0, intercept=-1024.0)


@pytest.mark.parametrize("kind, pixels", [
    (_SIGNED_16, lambda k: [-1000, -1000, -400 + 50 * k, 0, 300, -1000]),
    (_PADDED_8, lambda k: [0, 30 + k, 60, 90, 120, 150, 180, 210, 255]),
], ids=["signed-16", "padded-8"])
def test_series_stacks_each_files_windowed_parse(tmp_path, kind, pixels):
    window = (-300.0, 1400.0)
    files = {}
    for instance, name in ((2, "a.dcm"), (3, "b.dcm"), (1, "c.dcm")):
        files[instance] = build_dicom(**kind, pixels=pixels(instance), patient_id="P7",
                                      instance=instance, thickness=1.25, spacing=(0.6, 0.7))
        (tmp_path / name).write_bytes(files[instance])
    series = load_series(tmp_path, window=window)
    expected = np.stack([to_gray8(parse_dicom(files[i]), *window) for i in (1, 2, 3)])
    assert series.slices.dtype == np.uint8
    assert np.array_equal(series.slices, expected)
    assert series.instance_numbers == [1, 2, 3]
    assert series.patient_id == "P7"
    assert series.slice_thickness_mm == 1.25
    assert series.pixel_spacing_mm == (0.6, 0.7)


def test_pgm_series_fallback(tmp_path):
    imgs = [np.full((4, 5), v, dtype=np.uint8) for v in (10, 20)]
    for i, img in enumerate(imgs):
        write_pgm(tmp_path / f"s{i}.pgm", img)
    series = load_series(tmp_path, default_thickness_mm=3.0, default_spacing_mm=(0.7, 0.9))
    assert series.patient_id == tmp_path.name
    assert series.slice_thickness_mm == 3.0
    assert series.pixel_spacing_mm == (0.7, 0.9)
    assert np.array_equal(series.slices[0], imgs[0])
    assert np.array_equal(series.slices[1], imgs[1])


def test_missing_dicom_geometry_takes_the_callers_defaults(tmp_path):
    _write_slices(tmp_path, [
        (f"{i}.dcm", {**_slice_kwargs(i), "thickness": None, "spacing": None}) for i in (1, 2)
    ])
    with pytest.warns(UserWarning, match="assuming 2.5 mm"):
        series = load_series(tmp_path, default_thickness_mm=2.5, default_spacing_mm=(0.6, 0.7))
    assert series.slice_thickness_mm == 2.5
    assert series.pixel_spacing_mm == (0.6, 0.7)


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, (7, 9)).astype(np.uint8)
    write_pgm(tmp_path / "x.pgm", img)
    back = read_pgm((tmp_path / "x.pgm").read_bytes())
    assert np.array_equal(back, img)


def test_pgm_with_comment():
    img = read_pgm(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert img.tolist() == [[1, 2], [3, 4]]


def test_pgm_bad_magic():
    with pytest.raises(FormatError):
        read_pgm(b"P6\n2 2\n255\n" + bytes(12))


def test_pgm_wrong_maxval():
    with pytest.raises(FormatError):
        read_pgm(b"P5\n2 2\n65535\n" + bytes(8))


def test_dicom_preferred_over_pgm(tmp_path):
    _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1))])
    write_pgm(tmp_path / "b.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.warns(UserWarning, match="ignoring"):
        series = load_series(tmp_path)
    assert len(series) == 1
