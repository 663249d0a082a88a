"""Parser tests against hand-built fixtures plus the 8-bit conversion."""

import warnings

import numpy as np
import pytest

from lungct.dicom import TAGS, DicomObject, parse_dicom
from lungct.errors import FormatError, IngestError, MissingTagError, UnsupportedError
from lungct.ingest import load_series, to_gray8

from _dicom_fixture import assert_same_parse, build_dicom, element_explicit, element_implicit


BASE = dict(rows=2, cols=2, bits=16, pixels=(0, 100, 200, 300), patient_id="PAT1",
            instance=1, slope=1.0, intercept=0.0, thickness=5.0, spacing=(1.0, 1.0))


def test_explicit_fixture_parses():
    obj = parse_dicom(build_dicom(explicit=True, **BASE))
    assert obj.rows == 2
    assert obj.cols == 2
    assert obj.bits_allocated == 16
    assert obj.patient_id == "PAT1"
    assert obj.instance_number == 1
    assert obj.rescale_slope == 1.0
    assert obj.rescale_intercept == 0.0
    assert obj.slice_thickness_mm == 5.0
    assert obj.pixel_spacing_mm == (1.0, 1.0)
    assert obj.pixel_data.tolist() == [0, 100, 200, 300]


def test_bad_magic_is_format_error():
    with pytest.raises(FormatError):
        parse_dicom(build_dicom(magic=b"XXXX", **BASE))


def test_truncated_file_is_format_error():
    data = build_dicom(explicit=True, **BASE)
    with pytest.raises(FormatError):
        parse_dicom(data[:-3])


def test_implicit_matches_explicit():
    explicit = parse_dicom(build_dicom(explicit=True, **BASE))
    implicit = parse_dicom(build_dicom(explicit=False, **BASE))
    assert_same_parse(explicit, implicit)


@pytest.mark.parametrize("explicit", [True, False])
def test_roundtrip_random_fixtures(explicit, rng):
    for _ in range(20):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        pixels = rng.integers(0, 4096, rows * cols).tolist()
        obj = parse_dicom(
            build_dicom(
                explicit=explicit,
                rows=rows,
                cols=cols,
                bits=16,
                pixels=pixels,
                patient_id=f"P{rng.integers(0, 999)}",
                instance=int(rng.integers(1, 500)),
                slope=float(rng.integers(1, 4)),
                intercept=float(rng.integers(-1024, 0)),
                thickness=float(rng.integers(3, 7)),
                spacing=(0.7, 0.7),
            )
        )
        assert obj.rows * obj.cols == len(obj.pixel_data)
        assert obj.pixel_data.tolist() == pixels


def test_eight_bit_pixels():
    obj = parse_dicom(build_dicom(explicit=True, rows=1, cols=3, bits=8,
                                  pixels=(5, 6, 7), patient_id="A", instance=2,
                                  thickness=5.0))
    assert obj.bits_allocated == 8
    assert obj.pixel_data.tolist() == [5, 6, 7]


@pytest.mark.parametrize("bits, pixels", [(16, (-1000, -1, 0, 3000)), (8, (-128, -1, 0, 127))])
def test_signed_pixel_representation(bits, pixels):
    signed = parse_dicom(build_dicom(**{**BASE, "bits": bits, "pixels": pixels},
                                     pixel_representation=1))
    assert signed.pixel_data.tolist() == list(pixels)
    unsigned = parse_dicom(build_dicom(**BASE, pixel_representation=0))
    assert unsigned.pixel_data.tolist() == list(BASE["pixels"])


def test_signed_air_windows_to_black():
    obj = parse_dicom(build_dicom(**{**BASE, "pixels": (-1000, -1000, 0, 0)},
                                  pixel_representation=1))
    assert to_gray8(obj)[0].tolist() == [0, 0]


@pytest.mark.parametrize("signed, stored, pixels, expected", [
    # 12-bit two's complement written without sign extension: -1000 is 0x0C18.
    (1, 12, (0x0C18, 0x0FFF, 0x0800, 0x07FF), (-1000, -1, -2048, 2047)),
    # Bits above HighBit are not part of the value, whatever they hold.
    (1, 12, (-1000, 0x73E8, -0x1000, 0x1800), (-1000, 1000, 0, -2048)),
    (0, 12, (0xF064, 0x1FFF, 0x0FFF, 0x8000), (100, 4095, 4095, 0)),
    (0, 1, (0, 1, 2, 3), (0, 1, 0, 1)),
])
def test_bits_stored_masks_and_sign_extends(signed, stored, pixels, expected):
    obj = parse_dicom(build_dicom(**{**BASE, "pixels": pixels}, pixel_representation=signed,
                                  bits_stored=stored, high_bit=stored - 1))
    assert obj.pixel_data.tolist() == list(expected)
    assert obj.pixel_data.dtype == np.dtype("<i2" if signed else "<u2")


def test_bits_stored_equal_to_allocated_keeps_pixels():
    obj = parse_dicom(build_dicom(**{**BASE, "pixels": (-1000, -1, 0, 3000)},
                                  pixel_representation=1, bits_stored=16, high_bit=15))
    assert obj.pixel_data.tolist() == [-1000, -1, 0, 3000]


def test_signed_12_bit_air_windows_to_black():
    obj = parse_dicom(build_dicom(**{**BASE, "pixels": (0x0C18,) * 4}, pixel_representation=1,
                                  bits_stored=12, high_bit=11))
    assert to_gray8(obj).tolist() == [[0, 0], [0, 0]]


@pytest.mark.parametrize("bits, stored", [(16, 0), (16, 17), (8, 9)])
def test_bits_stored_outside_allocated_is_format_error(bits, stored):
    with pytest.raises(FormatError, match=f"BitsStored.*{stored}"):
        parse_dicom(build_dicom(**{**BASE, "bits": bits, "pixels": (0, 1, 2, 3)},
                                bits_stored=stored))


@pytest.mark.parametrize("stored, high_bit", [(12, 15), (12, 12), (None, 11)])
def test_high_bit_other_than_bits_stored_minus_one_is_unsupported(stored, high_bit):
    with pytest.raises(UnsupportedError, match=f"HighBit.*{high_bit}"):
        parse_dicom(build_dicom(**BASE, bits_stored=stored, high_bit=high_bit))


def test_bad_pixel_representation_rejected():
    with pytest.raises(FormatError, match="PixelRepresentation"):
        parse_dicom(build_dicom(**BASE, pixel_representation=2))


@pytest.mark.parametrize("tag", [TAGS[keyword] for keyword in
                                 ("Rows", "PatientID", "InstanceNumber", "PixelData")])
def test_missing_required_tag(tag):
    with pytest.raises(MissingTagError) as excinfo:
        parse_dicom(build_dicom(omit=(tag,), **BASE))
    assert excinfo.value.tag == tag


def test_defaults_for_optional_tags():
    data = build_dicom(rows=2, cols=2, bits=16, pixels=(1, 2, 3, 4),
                       patient_id="A", instance=1)  # no slope/intercept/thickness/spacing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj = parse_dicom(data)
    assert obj.rescale_slope == 1.0
    assert obj.rescale_intercept == 0.0
    assert obj.slice_thickness_mm is None
    assert obj.pixel_spacing_mm is None


def test_compressed_transfer_syntax_rejected():
    data = build_dicom(transfer_syntax="1.2.840.10008.1.2.4.70", **BASE)
    with pytest.raises(UnsupportedError):
        parse_dicom(data)


def test_big_endian_rejected():
    data = build_dicom(transfer_syntax="1.2.840.10008.1.2.2", **BASE)
    with pytest.raises(UnsupportedError):
        parse_dicom(data)


def test_pixel_count_mismatch_is_format_error():
    with pytest.raises(FormatError):
        parse_dicom(build_dicom(rows=3, cols=3, bits=16, pixels=(1, 2, 3, 4),
                                patient_id="A", instance=1, thickness=5.0))


def test_defined_length_sequence_is_skipped():
    sq = element_explicit((0x0008, 0x1140), b"\x00" * 8, "SQ")
    obj = parse_dicom(build_dicom(extra_elements=(sq,), **BASE))
    assert (0x0008, 0x1140) in obj.tags
    assert obj.rows == 2


@pytest.mark.parametrize("explicit", [True, False])
def test_every_prefix_parses_whole_or_raises_an_ingest_error(explicit):
    data = build_dicom(explicit=explicit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the fixture has no SliceThickness
        parse_dicom(data)
        for end in range(len(data)):
            with pytest.raises(IngestError):
                parse_dicom(data[:end])


def test_undefined_length_rejected():
    sq = element_implicit((0x0008, 0x1140), b"", length=0xFFFFFFFF)
    with pytest.raises(UnsupportedError):
        parse_dicom(build_dicom(explicit=False, extra_elements=(sq,), **BASE))


def test_unsupported_bits_allocated():
    with pytest.raises(UnsupportedError):
        parse_dicom(build_dicom(rows=1, cols=1, bits=32, pixels=(1,),
                                patient_id="A", instance=1, thickness=5.0))


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 2), (2, 0)])
def test_zero_rows_or_columns_is_format_error(rows, cols):
    with pytest.raises(FormatError, match=f"Rows and Columns must be positive, got {rows}x{cols}"):
        parse_dicom(build_dicom(**{**BASE, "rows": rows, "cols": cols, "pixels": ()}))


def test_nonpositive_thickness_rejected():
    with pytest.raises(FormatError):
        parse_dicom(build_dicom(**{**BASE, "thickness": 0.0}))


@pytest.mark.parametrize("key, value, name", [
    ("slope", "", "RescaleSlope"), ("slope", " ", "RescaleSlope"),
    ("intercept", "", "RescaleIntercept"), ("intercept", " ", "RescaleIntercept"),
])
def test_empty_rescale_value_is_format_error(key, value, name):
    # Both are Type 1 in the CT Image Module (PS3.3 C.8.2.1): a value is required.
    with pytest.raises(FormatError, match=name):
        parse_dicom(build_dicom(**{**BASE, key: value}))


@pytest.mark.parametrize("value", ["", " "])
def test_empty_slice_thickness_takes_the_default(tmp_path, value):
    # Type 2 in the Image Plane Module (PS3.3 C.7.6.2): zero length means unknown.
    data = build_dicom(**{**BASE, "thickness": value})
    assert parse_dicom(data).slice_thickness_mm is None
    (tmp_path / "1.dcm").write_bytes(data)
    with pytest.warns(UserWarning, match="SliceThickness missing; assuming 2.5 mm"):
        series = load_series(tmp_path, default_thickness_mm=2.5)
    assert series.slice_thickness_mm == 2.5


# --- windowing ---------------------------------------------------------------

def _obj(pixels, slope=1.0, intercept=0.0, rows=1, cols=None):
    cols = cols or len(pixels)
    return DicomObject(
        tags={}, rows=rows, cols=cols, bits_allocated=16, rescale_slope=slope,
        rescale_intercept=intercept, slice_thickness_mm=5.0, pixel_spacing_mm=(1, 1),
        patient_id="A", instance_number=1,
        pixel_data=np.asarray(pixels, dtype=np.int32),
    )


def test_window_floor_and_ceiling():
    center, width = -300.0, 1400.0
    low = center - width / 2
    high = center + width / 2
    out = to_gray8(_obj([low, high]), center, width)
    assert out.tolist() == [[0, 255]]


def test_window_midpoint_rounds_half_away():
    out = to_gray8(_obj([-300]), -300.0, 1400.0)
    assert out.tolist() == [[128]]  # 127.5 rounds away from zero


def test_window_applies_rescale():
    # stored 100 with slope 2, intercept -1200 -> HU -1000 -> window floor
    out = to_gray8(_obj([100], slope=2.0, intercept=-1200.0), -300.0, 1400.0)
    assert out.tolist() == [[0]]


def test_window_monotone(rng):
    stored = np.sort(rng.integers(-2000, 3000, 64))
    out = to_gray8(_obj(stored.tolist(), slope=1.0, intercept=0.0), -300.0, 1400.0)
    flat = out.ravel()
    assert np.all(np.diff(flat.astype(int)) >= 0)


def _formula_gray8(stored, slope, intercept, center, width):
    """The window formula on each value, rounding halves away from zero."""
    scaled = 255.0 * (stored.astype(np.float64) * slope + intercept - (center - width / 2.0)) / width
    return np.clip(np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("dtype", [np.uint16, np.int16])
@pytest.mark.parametrize("slope, intercept, center, width", [
    (1.5, -1024.0, -300.0, 1400.0), (0.37, -3000.0, 40.0, 80.0), (-2.25, -7.5, -1000.0, 3.0),
])
def test_window_matches_the_formula_on_every_16_bit_stored_value(dtype, slope, intercept,
                                                                center, width, rng):
    info = np.iinfo(dtype)
    stored = rng.permutation(np.arange(info.min, info.max + 1)).astype(dtype)
    obj = _obj(stored, slope=slope, intercept=intercept, rows=256, cols=256)
    obj.pixel_data = stored  # the stored 16-bit dtype, not _obj's int32
    expected = _formula_gray8(stored, slope, intercept, center, width).reshape(256, 256)
    assert np.array_equal(to_gray8(obj, center, width), expected)
    # A range wider than the slice: the formula runs on the pixels themselves.
    few = stored[:100]
    obj = _obj(few, slope=slope, intercept=intercept, rows=10, cols=10)
    obj.pixel_data = few
    assert np.array_equal(to_gray8(obj, center, width),
                          _formula_gray8(few, slope, intercept, center, width).reshape(10, 10))


@pytest.mark.parametrize("tags", [
    dict(thickness="nan"), dict(thickness="inf"), dict(spacing=("inf", "1")),
    dict(slope="nan"), dict(slope="1e999"), dict(intercept="-inf"), dict(intercept="Infinity"),
])
def test_non_finite_decimal_string_is_format_error(tags):
    # PS3.5 6.2: a decimal string is a fixed or floating point number; it
    # has no spelling for NaN or infinity, though Python's float() accepts one.
    with pytest.raises(FormatError, match="decimal string"):
        parse_dicom(build_dicom(**{**BASE, **tags}))


@pytest.mark.parametrize("key, value, named", [
    ("thickness", "abc", "SliceThickness (0018,0050): malformed decimal string 'abc'"),
    ("slope", "nan", "RescaleSlope (0028,1053): non-finite decimal string 'nan'"),
    ("slope", " ", "RescaleSlope (0028,1053): empty decimal string"),
    ("instance", "1.5", "InstanceNumber (0020,0013): invalid literal for int() with base 10: '1.5'"),
    # Python's float() and int() take digit-group underscores; PS3.5 6.2 has none.
    ("thickness", "2_5", "SliceThickness (0018,0050): malformed decimal string '2_5'"),
    ("spacing", ("0_7", "0.7"), r"PixelSpacing (0028,0030): malformed decimal string '0_7\\0.7'"),
    ("instance", "1_2", "InstanceNumber (0020,0013): malformed integer string '1_2'"),
], ids=["thickness-abc", "slope-nan", "slope-blank", "instance-1.5", "thickness-2_5",
        "spacing-0_7", "instance-1_2"])
def test_malformed_value_names_its_keyword_and_tag(key, value, named):
    with pytest.raises(FormatError) as excinfo:
        parse_dicom(build_dicom(**{**BASE, key: value}))
    assert str(excinfo.value) == named


def test_window_width_must_be_positive():
    with pytest.raises(ValueError):
        to_gray8(_obj([0]), 0.0, 0.0)
