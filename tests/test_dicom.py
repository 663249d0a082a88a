"""Parser tests against hand-built fixtures plus the 8-bit conversion."""

import numpy as np
import pytest

from lungct.dicom import (
    DicomObject,
    TAG_INSTANCE_NUMBER,
    TAG_PATIENT_ID,
    TAG_PIXEL_DATA,
    TAG_ROWS,
    parse_dicom,
)
from lungct.errors import FormatError, MissingTagError, UnsupportedError
from lungct.ingest import to_gray8

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


def test_bad_pixel_representation_rejected():
    with pytest.raises(FormatError, match="PixelRepresentation"):
        parse_dicom(build_dicom(**BASE, pixel_representation=2))


@pytest.mark.parametrize("tag", [TAG_ROWS, TAG_PATIENT_ID, TAG_INSTANCE_NUMBER, TAG_PIXEL_DATA])
def test_missing_required_tag(tag):
    with pytest.raises(MissingTagError) as excinfo:
        parse_dicom(build_dicom(omit=(tag,), **BASE))
    assert excinfo.value.tag == tag


def test_defaults_for_optional_tags():
    data = build_dicom(rows=2, cols=2, bits=16, pixels=(1, 2, 3, 4),
                       patient_id="A", instance=1)  # no slope/intercept/thickness/spacing
    with pytest.warns(UserWarning, match="SliceThickness"):
        obj = parse_dicom(data)
    assert obj.rescale_slope == 1.0
    assert obj.rescale_intercept == 0.0
    assert obj.slice_thickness_mm == 5.0
    assert obj.pixel_spacing_mm == (1.0, 1.0)


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


def test_undefined_length_rejected():
    sq = element_implicit((0x0008, 0x1140), b"", length=0xFFFFFFFF)
    with pytest.raises(UnsupportedError):
        parse_dicom(build_dicom(explicit=False, extra_elements=(sq,), **BASE))


def test_unsupported_bits_allocated():
    with pytest.raises(UnsupportedError):
        parse_dicom(build_dicom(rows=1, cols=1, bits=32, pixels=(1,),
                                patient_id="A", instance=1, thickness=5.0))


def test_nonpositive_thickness_rejected():
    with pytest.raises(FormatError):
        parse_dicom(build_dicom(**{**BASE, "thickness": 0.0}))


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


@pytest.mark.parametrize("tags", [
    dict(thickness="nan"), dict(thickness="inf"), dict(spacing=("inf", "1")),
    dict(slope="nan"), dict(slope="1e999"), dict(intercept="-inf"), dict(intercept="Infinity"),
])
def test_non_finite_decimal_string_is_format_error(tags):
    # PS3.5 6.2: a decimal string is a fixed or floating point number; it
    # has no spelling for NaN or infinity, though Python's float() accepts one.
    with pytest.raises(FormatError, match="decimal string"):
        parse_dicom(build_dicom(**{**BASE, **tags}))


def test_window_width_must_be_positive():
    with pytest.raises(ValueError):
        to_gray8(_obj([0]), 0.0, 0.0)
