"""Minimal DICOM Part-10 reader.

Covers exactly what the pipeline needs: little-endian transfer syntaxes
(implicit and explicit VR), uncompressed pixel data, and the handful of
tags required to turn a CT slice into an 8-bit image with real-world
scaling. Everything else in a file is skipped, not rejected, except for
constructs that cannot be skipped safely (undefined-length values).
"""

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS, check_geometry
from .errors import FormatError, MissingTagError, UnsupportedError

PREAMBLE_LEN = 128
MAGIC = b"DICM"

TS_IMPLICIT_LE = "1.2.840.10008.1.2"
TS_EXPLICIT_LE = "1.2.840.10008.1.2.1"

TAG_TRANSFER_SYNTAX = (0x0002, 0x0010)
TAG_PATIENT_ID = (0x0010, 0x0020)
TAG_SLICE_THICKNESS = (0x0018, 0x0050)
TAG_INSTANCE_NUMBER = (0x0020, 0x0013)
TAG_ROWS = (0x0028, 0x0010)
TAG_COLS = (0x0028, 0x0011)
TAG_PIXEL_SPACING = (0x0028, 0x0030)
TAG_BITS_ALLOCATED = (0x0028, 0x0100)
TAG_BITS_STORED = (0x0028, 0x0101)
TAG_HIGH_BIT = (0x0028, 0x0102)
TAG_PIXEL_REPRESENTATION = (0x0028, 0x0103)
TAG_RESCALE_INTERCEPT = (0x0028, 0x1052)
TAG_RESCALE_SLOPE = (0x0028, 0x1053)
TAG_PIXEL_DATA = (0x7FE0, 0x0010)

# Explicit-VR codes that use the 4-byte length form (2 reserved bytes first).
_LONG_VRS = {b"OB", b"OW", b"OF", b"SQ", b"UT", b"UN"}
_UNDEFINED_LENGTH = 0xFFFFFFFF
# Supported transfer syntax -> explicit VR; a file meta group without one is explicit.
_EXPLICIT_VR = {"": True, TS_EXPLICIT_LE: True, TS_IMPLICIT_LE: False}


@dataclass(eq=False)
class DicomObject:
    """Parsed slice: raw tag map plus the decoded fields the pipeline uses.

    ``pixel_data`` is flat in the stored dtype: 8 or 16 bits, signed when
    PixelRepresentation is 1. Each value is its low BitsStored bits,
    sign-extended when signed; the bits above HighBit are dropped.
    """

    tags: dict = field(repr=False)
    rows: int
    cols: int
    bits_allocated: int
    rescale_slope: float
    rescale_intercept: float
    slice_thickness_mm: float
    pixel_spacing_mm: tuple
    patient_id: str
    instance_number: int
    pixel_data: np.ndarray


def is_dicom(data):
    """Whether ``data`` carries the "DICM" magic after the 128-byte preamble (PS3.10 7.1)."""
    return data[PREAMBLE_LEN : PREAMBLE_LEN + 4] == MAGIC


def _read_elements(data, pos, explicit, group=None):
    """Read data elements (PS3.5 7.1) from ``pos`` while at least 8 bytes remain
    and, given ``group``, while the next element is in that group.
    Returns ``({(group, element): value bytes}, position after the last one)``."""
    elements = {}
    while len(data) - pos >= 8:
        tag = struct.unpack_from("<HH", data, pos)
        if group is not None and tag[0] != group:
            break
        # (length format, its offset, the value's offset) within the element
        if explicit and data[pos + 4 : pos + 6] in _LONG_VRS:
            fmt, at, start = "<I", 8, 12
        else:
            fmt, at, start = ("<H", 6, 8) if explicit else ("<I", 4, 8)
        if len(data) - pos < start:
            raise FormatError("truncated file while reading element length")
        (length,) = struct.unpack_from(fmt, data, pos + at)
        name = f"{tag[0]:04X},{tag[1]:04X}"
        if length == _UNDEFINED_LENGTH:
            raise UnsupportedError(
                f"element {name} has undefined length; only defined-length values are supported"
            )
        pos += start
        if len(data) - pos < length:
            raise FormatError(f"truncated file while reading value of ({name})")
        elements[tag] = data[pos : pos + length]
        pos += length
    return elements, pos


def _decode_text(raw):
    return raw.decode("ascii", errors="replace").strip("\x00 ")


def _decode_ds(raw, tag):
    """Decimal string, possibly multi-valued (backslash separated), finite as PS3.5 6.2 requires."""
    text = _decode_text(raw)
    try:
        values = [float(part) for part in text.split("\\") if part.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"malformed decimal string in {tag}: {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise FormatError(f"non-finite decimal string in {tag}: {text!r}")
    return values


def _decode_ds_value(raw, tag, name):
    """The first value of a decimal string that must hold one (a Type 1 tag)."""
    values = _decode_ds(raw, tag)
    if not values:
        raise FormatError(f"empty {name} ({tag[0]:04X},{tag[1]:04X})")
    return values[0]


def _decode_us(raw, tag):
    if len(raw) != 2:
        raise FormatError(f"unsigned-short tag {tag} has length {len(raw)}")
    return struct.unpack("<H", raw)[0]


def _require(tags, tag):
    if tag not in tags:
        raise MissingTagError(tag)
    return tags[tag]


def parse_dicom(
    data: bytes,
    default_thickness_mm=DEFAULTS.slice_thickness_mm,
    default_spacing_mm=(DEFAULTS.pixel_spacing_row_mm, DEFAULTS.pixel_spacing_col_mm),
) -> DicomObject:
    """Parse one DICOM file image into a :class:`DicomObject`.

    A slice without SliceThickness (or with an empty one) or without
    PixelSpacing gets the given default.

    Raises
    ------
    ValueError
        A default outside its config field's range, checked before the data
        is read.
    FormatError
        Missing "DICM" magic, truncation, malformed values, an empty
        RescaleSlope or RescaleIntercept, or Rows or Columns of 0.
    UnsupportedError
        Transfer syntax other than little-endian implicit/explicit VR, a
        HighBit other than BitsStored - 1, or constructs that cannot be
        skipped (undefined lengths).
    MissingTagError
        A tag the pipeline cannot default is absent.
    """
    default_thickness_mm, default_spacing_mm = check_geometry(default_thickness_mm, default_spacing_mm)
    if not is_dicom(data):
        raise FormatError('missing "DICM" magic after the 128-byte preamble')
    # The file meta group (0002,xxxx) is always explicit VR little endian.
    meta, pos = _read_elements(data, PREAMBLE_LEN + 4, explicit=True, group=0x0002)
    transfer_syntax = _decode_text(meta.get(TAG_TRANSFER_SYNTAX, b""))
    explicit = _EXPLICIT_VR.get(transfer_syntax)
    if explicit is None:
        raise UnsupportedError(f"unsupported transfer syntax {transfer_syntax!r}")
    tags, pos = _read_elements(data, pos, explicit)
    if pos != len(data):
        raise FormatError("trailing bytes after the last complete data element")

    rows = _decode_us(_require(tags, TAG_ROWS), TAG_ROWS)
    cols = _decode_us(_require(tags, TAG_COLS), TAG_COLS)
    if rows == 0 or cols == 0:
        raise FormatError(f"Rows and Columns must be positive, got {rows}x{cols}")
    bits = _decode_us(_require(tags, TAG_BITS_ALLOCATED), TAG_BITS_ALLOCATED)
    if bits not in (8, 16):
        raise UnsupportedError(f"BitsAllocated must be 8 or 16, got {bits}")
    # PS3.3 C.7.6.3: the value is bits 0..BitsStored-1; both tags default to the full word.
    stored = _decode_us(tags[TAG_BITS_STORED], TAG_BITS_STORED) if TAG_BITS_STORED in tags else bits
    if not 1 <= stored <= bits:
        raise FormatError(f"BitsStored must lie in [1, {bits}], got {stored}")
    high_bit = _decode_us(tags[TAG_HIGH_BIT], TAG_HIGH_BIT) if TAG_HIGH_BIT in tags else stored - 1
    if high_bit != stored - 1:
        raise UnsupportedError(f"HighBit must be BitsStored - 1 = {stored - 1}, got {high_bit}")

    patient_id = _decode_text(_require(tags, TAG_PATIENT_ID))
    instance_raw = _decode_text(_require(tags, TAG_INSTANCE_NUMBER))
    try:
        instance_number = int(instance_raw)
    except ValueError as exc:
        raise FormatError(f"malformed InstanceNumber {instance_raw!r}") from exc

    # Both are Type 1 in the CT Image Module (PS3.3 C.8.2.1); absent, they
    # take the identity rescale.
    slope = _decode_ds_value(tags.get(TAG_RESCALE_SLOPE, b"1"), TAG_RESCALE_SLOPE, "RescaleSlope")
    intercept = _decode_ds_value(tags.get(TAG_RESCALE_INTERCEPT, b"0"), TAG_RESCALE_INTERCEPT,
                                 "RescaleIntercept")

    # Type 2 in the Image Plane Module (PS3.3 C.7.6.2): an empty value means
    # unknown, as an absent one does.
    thickness_values = _decode_ds(tags.get(TAG_SLICE_THICKNESS, b""), TAG_SLICE_THICKNESS)
    if thickness_values:
        thickness = thickness_values[0]
        if thickness <= 0:
            raise FormatError(f"SliceThickness must be positive, got {thickness}")
    else:
        thickness = default_thickness_mm
        warnings.warn(
            f"SliceThickness missing; assuming {thickness} mm", stacklevel=2
        )

    if TAG_PIXEL_SPACING in tags:
        values = _decode_ds(tags[TAG_PIXEL_SPACING], TAG_PIXEL_SPACING)
        if len(values) != 2 or min(values) <= 0:
            raise FormatError(f"malformed PixelSpacing {values}")
        spacing = (values[0], values[1])
    else:
        spacing = default_spacing_mm

    # PixelRepresentation 1 stores two's complement; 0 (or no tag) unsigned.
    signed = _decode_us(tags.get(TAG_PIXEL_REPRESENTATION, b"\0\0"), TAG_PIXEL_REPRESENTATION)
    if signed not in (0, 1):
        raise FormatError(f"PixelRepresentation must be 0 or 1, got {signed}")
    raw_pixels = _require(tags, TAG_PIXEL_DATA)
    dtype = np.dtype(f"<{'i' if signed else 'u'}{bits // 8}")
    if bits == 8 and len(raw_pixels) == rows * cols + 1:
        raw_pixels = raw_pixels[:-1]  # even-length padding byte
    if len(raw_pixels) != rows * cols * dtype.itemsize:
        raise FormatError(
            f"PixelData holds {len(raw_pixels)} bytes; expected "
            f"{rows * cols * dtype.itemsize} for {rows}x{cols} at {bits} bits"
        )
    pixel_data = np.frombuffer(raw_pixels, dtype=dtype)
    if stored < bits:
        # The left shift drops the bits above HighBit; the right shift is
        # arithmetic on a signed dtype, so it sign-extends.
        pixel_data = (pixel_data << (bits - stored)) >> (bits - stored)

    return DicomObject(
        tags=tags,
        rows=rows,
        cols=cols,
        bits_allocated=bits,
        rescale_slope=slope,
        rescale_intercept=intercept,
        slice_thickness_mm=thickness,
        pixel_spacing_mm=spacing,
        patient_id=patient_id,
        instance_number=instance_number,
        pixel_data=pixel_data,
    )
