"""Series assembly and the PGM fallback."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@pytest.mark.parametrize("layout, match", [
    (dict(bits_stored=17), "BitsStored"), (dict(bits_stored=12, high_bit=15), "HighBit"),
])
def test_bad_bits_stored_slice_skipped_with_warning(tmp_path, layout, match):
    _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1)), ("b.dcm", _slice_kwargs(2))])
    (tmp_path / "c.dcm").write_bytes(build_dicom(**_slice_kwargs(3), **layout))
    with pytest.warns(UserWarning, match=f"c.dcm.*{match}"):
        series = load_series(tmp_path)
    assert series.instance_numbers == [1, 2]


@pytest.mark.parametrize("fmt", ["dicom", "pgm"])
def test_zero_size_slice_skipped_with_warning(tmp_path, fmt):
    if fmt == "dicom":
        _write_slices(tmp_path, [("a.dcm", _slice_kwargs(1)), ("b.dcm", _slice_kwargs(2))])
        (tmp_path / "c.dcm").write_bytes(build_dicom(**{**_slice_kwargs(3), "rows": 0, "cols": 0,
                                                        "pixels": ()}))
        match, expected = "c.dcm.*0x0", [1, 2]
    else:
        for name in ("a.pgm", "b.pgm", "d.pgm"):
            write_pgm(tmp_path / name, np.full((16, 16), 7, dtype=np.uint8))
        (tmp_path / "c.pgm").write_bytes(b"P5\n0 4\n255\n")
        match, expected = "c.pgm.*0x4", [1, 2, 3]
    with pytest.warns(UserWarning, match=match):
        series = load_series(tmp_path)
    assert series.instance_numbers == expected


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


def test_two_series_of_one_patient_in_one_directory_rejected(tmp_path):
    # Each series numbers its slices from 1, so merged they would repeat 1, 2, 3.
    _write_slices(tmp_path, [(f"{series}{i}.dcm", _slice_kwargs(i)) for series in "ab" for i in (1, 2, 3)])
    with pytest.raises(MixedSeriesError, match=r"instance numbers \[1, 2, 3\] repeat"):
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


@pytest.mark.parametrize("field, values, match", [
    ("thickness", (1.25, 2.5, 1.25), r"slice thickness differs across slices: \[1.25, 2.5\]; using 1.25"),
    ("spacing", ((0.8, 0.8), (0.8, 0.8), (0.7, 0.9)),
     r"pixel spacing differs across slices: \[\(0.7, 0.9\), \(0.8, 0.8\)\]; using \(0.8, 0.8\)"),
], ids=["thickness", "spacing"])
def test_geometry_that_differs_across_slices_warns_and_keeps_the_first(tmp_path, field, values,
                                                                        match):
    _write_slices(tmp_path, [
        (f"{i}.dcm", {**_slice_kwargs(i), field: value}) for i, value in enumerate(values, 1)
    ])
    with pytest.warns(UserWarning, match=match):
        series = load_series(tmp_path)
    assert series.slice_thickness_mm == (values[0] if field == "thickness" else 4.0)
    assert series.pixel_spacing_mm == (values[0] if field == "spacing" else (0.8, 0.8))
    assert series.instance_numbers == [1, 2, 3]


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


@pytest.mark.parametrize("thickness, spacing, match", [
    (-2.0, (0.7, 0.9), "slice_thickness_mm must be > 0, got -2.0"),
    (float("nan"), (0.7, 0.9), "slice_thickness_mm must be > 0, got nan"),
    (3.0, (0.0, 0.9), "pixel_spacing_row_mm must be > 0, got 0.0"),
    (3.0, (0.7, float("nan")), "pixel_spacing_col_mm must be > 0, got nan"),
    (3.0, (0.7, float("inf")), "pixel_spacing_col_mm must be < inf, got inf"),
    (-2.0, (0.0, float("nan")), "slice_thickness_mm must be > 0, got -2.0"),
], ids=["negative-thickness", "nan-thickness", "zero-row-spacing", "nan-col-spacing",
        "inf-col-spacing", "all-bad-names-thickness-first"])
def test_out_of_range_default_geometry_rejected_before_any_file_is_read(
        tmp_path, monkeypatch, thickness, spacing, match):
    write_pgm(tmp_path / "s0.pgm", np.full((4, 5), 10, dtype=np.uint8))
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"read {self.name}"))
    with pytest.raises(ValueError, match=match):
        load_series(tmp_path, default_thickness_mm=thickness, default_spacing_mm=spacing)


@pytest.mark.parametrize("window, match", [
    ((0.0, -5.0), "window_width must be > 0, got -5.0"),
    ((float("nan"), 100.0), "window_center must be > -inf, got nan"),
], ids=["negative-width", "nan-center"])
def test_out_of_range_window_rejected_before_any_file_is_read(tmp_path, monkeypatch, window,
                                                              match):
    write_pgm(tmp_path / "s0.pgm", np.full((4, 5), 10, dtype=np.uint8))
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"read {self.name}"))
    with pytest.raises(ValueError, match=match):
        load_series(tmp_path, window=window)


def test_missing_dicom_geometry_takes_the_callers_defaults(tmp_path):
    _write_slices(tmp_path, [
        (f"{i}.dcm", {**_slice_kwargs(i), "thickness": None, "spacing": None}) for i in (1, 2)
    ])
    with pytest.warns(UserWarning, match="assuming 2.5 mm"):
        series = load_series(tmp_path, default_thickness_mm=2.5, default_spacing_mm=(0.6, 0.7))
    assert series.slice_thickness_mm == 2.5
    assert series.pixel_spacing_mm == (0.6, 0.7)


def test_missing_slice_thickness_warns_once_per_series(tmp_path):
    _write_slices(tmp_path, [
        (f"{i}.dcm", {**_slice_kwargs(i), "thickness": thickness})
        for i, thickness in ((1, None), (2, 2.0), (3, None))
    ])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = load_series(tmp_path, default_thickness_mm=2.5)
    assert sorted(str(w.message) for w in caught) == [
        "SliceThickness missing; assuming 2.5 mm",
        "slice thickness differs across slices: [2.0, 2.5]; using 2.5",
    ]
    assert series.slice_thickness_mm == 2.5


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, (7, 9)).astype(np.uint8)
    write_pgm(tmp_path / "x.pgm", img)
    back = read_pgm((tmp_path / "x.pgm").read_bytes())
    assert np.array_equal(back, img)


def test_pgm_with_comment():
    img = read_pgm(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert img.tolist() == [[1, 2], [3, 4]]


_SEPARATORS = st.lists(
    st.one_of(
        st.text(" \t\n\r\v\f", min_size=1, max_size=3),
        st.text(st.characters(blacklist_characters="\n\r", max_codepoint=126), max_size=8).map(
            lambda comment: f"\n#{comment}\n"
        ),
    ),
    min_size=1,
    max_size=4,
).map("".join)


@given(_SEPARATORS, _SEPARATORS, _SEPARATORS)
def test_pgm_header_whitespace_and_comments_read_as_the_same_image(before_width, before_height,
                                                                    before_maxval):
    header = f"P5{before_width}3{before_height}2{before_maxval}255\n".encode("ascii")
    img = read_pgm(header + bytes(range(6)))
    assert img.tolist() == [[0, 1, 2], [3, 4, 5]]


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
