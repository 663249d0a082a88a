"""Minimal DICOM Part-10 reader.

Covers exactly what the pipeline needs: little-endian transfer syntaxes
(implicit and explicit VR), uncompressed pixel data, and the handful of
tags required to turn a CT slice into an 8-bit image with real-world
scaling. Everything else in a file is skipped, not rejected, except for
constructs that cannot be skipped safely (undefined-length values).
"""

import math
import re
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

# PS3.6 keyword -> (group, element) of every attribute the parser reads.
TAGS = {
    "TransferSyntaxUID": (0x0002, 0x0010),
    "PatientID": (0x0010, 0x0020),
    "SliceThickness": (0x0018, 0x0050),
    "InstanceNumber": (0x0020, 0x0013),
    "Rows": (0x0028, 0x0010),
    "Columns": (0x0028, 0x0011),
    "PixelSpacing": (0x0028, 0x0030),
    "BitsAllocated": (0x0028, 0x0100),
    "BitsStored": (0x0028, 0x0101),
    "HighBit": (0x0028, 0x0102),
    "PixelRepresentation": (0x0028, 0x0103),
    "RescaleIntercept": (0x0028, 0x1052),
    "RescaleSlope": (0x0028, 0x1053),
    "PixelData": (0x7FE0, 0x0010),
}

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


# Value decoders (PS3.5 6.2), one per value representation; a bad value raises ValueError.
# A number must match its grammar too, as float() and int() also take such spellings as "1_0".
_DS = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
_IS = re.compile(r"[+-]?[0-9]+")


def _text(raw):
    return raw.decode("ascii", errors="replace").strip("\x00 ")


def _ds(raw):
    """Decimal string, possibly multi-valued (backslash separated), finite as PS3.5 6.2 requires."""
    text = _text(raw)
    parts = [part.strip() for part in text.split("\\") if part.strip() != ""]
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"malformed decimal string {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite decimal string {text!r}")
    if not all(map(_DS.fullmatch, parts)):
        raise ValueError(f"malformed decimal string {text!r}")
    return values


def _ds1(raw):
    """The first value of a decimal string that must hold one (a Type 1 attribute)."""
    values = _ds(raw)
    if not values:
        raise ValueError("empty decimal string")
    return values[0]


def _is(raw):
    text = _text(raw)
    value = int(text)
    if not _IS.fullmatch(text.strip()):
        raise ValueError(f"malformed integer string {text!r}")
    return value


def _us(raw):
    if len(raw) != 2:
        raise ValueError(f"unsigned short of length {len(raw)}")
    return struct.unpack("<H", raw)[0]


def _named(keyword):
    """``keyword`` and its tag as a message names them, such as "Rows (0028,0010)"."""
    return "{} ({:04X},{:04X})".format(keyword, *TAGS[keyword])


def _get(elements, keyword, decode, default=None):
    """Attribute ``keyword`` of ``elements`` decoded, else ``default``, else MissingTagError.
    A value ``decode`` rejects raises FormatError naming the keyword and its tag."""
    tag = TAGS[keyword]
    if tag not in elements:
        if default is None:
            raise MissingTagError(tag)
        return default
    try:
        return decode(elements[tag])
    except ValueError as exc:
        raise FormatError(f"{_named(keyword)}: {exc}") from exc


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
        RescaleSlope or RescaleIntercept, or Rows or Columns of 0. A message
        about an attribute's value names its keyword and tag.
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
    transfer_syntax = _get(meta, "TransferSyntaxUID", _text, "")
    explicit = _EXPLICIT_VR.get(transfer_syntax)
    if explicit is None:
        raise UnsupportedError(f"unsupported transfer syntax {transfer_syntax!r}")
    tags, pos = _read_elements(data, pos, explicit)
    if pos != len(data):
        raise FormatError("trailing bytes after the last complete data element")

    rows = _get(tags, "Rows", _us)
    cols = _get(tags, "Columns", _us)
    if rows == 0 or cols == 0:
        raise FormatError(f"Rows and Columns must be positive, got {rows}x{cols} "
                          f"({_named('Rows')}, {_named('Columns')})")
    bits = _get(tags, "BitsAllocated", _us)
    if bits not in (8, 16):
        raise UnsupportedError(f"{_named('BitsAllocated')} must be 8 or 16, got {bits}")
    # PS3.3 C.7.6.3: the value is bits 0..BitsStored-1; both attributes default to the full word.
    stored = _get(tags, "BitsStored", _us, bits)
    if not 1 <= stored <= bits:
        raise FormatError(f"{_named('BitsStored')} must lie in [1, {bits}], got {stored}")
    high_bit = _get(tags, "HighBit", _us, stored - 1)
    if high_bit != stored - 1:
        raise UnsupportedError(f"{_named('HighBit')} must be BitsStored - 1 = {stored - 1}, "
                               f"got {high_bit}")

    patient_id = _get(tags, "PatientID", _text)
    instance_number = _get(tags, "InstanceNumber", _is)

    # Both are Type 1 in the CT Image Module (PS3.3 C.8.2.1); absent, they
    # take the identity rescale.
    slope = _get(tags, "RescaleSlope", _ds1, 1.0)
    intercept = _get(tags, "RescaleIntercept", _ds1, 0.0)

    # Type 2 in the Image Plane Module (PS3.3 C.7.6.2): an empty value means
    # unknown, as an absent one does.
    thickness_values = _get(tags, "SliceThickness", _ds, [])
    thickness = thickness_values[0] if thickness_values else default_thickness_mm
    if not thickness_values:
        warnings.warn(f"SliceThickness missing; assuming {thickness} mm", stacklevel=2)
    elif thickness <= 0:
        raise FormatError(f"{_named('SliceThickness')} must be positive, got {thickness}")

    spacing = tuple(_get(tags, "PixelSpacing", _ds, default_spacing_mm))
    if len(spacing) != 2 or min(spacing) <= 0:
        raise FormatError(f"{_named('PixelSpacing')} must hold two positive values, got {spacing}")

    # PixelRepresentation 1 stores two's complement; 0 (or no attribute) unsigned.
    signed = _get(tags, "PixelRepresentation", _us, 0)
    if signed not in (0, 1):
        raise FormatError(f"{_named('PixelRepresentation')} must be 0 or 1, got {signed}")
    raw_pixels = _get(tags, "PixelData", bytes)
    dtype = np.dtype(f"<{'i' if signed else 'u'}{bits // 8}")
    if bits == 8 and len(raw_pixels) == rows * cols + 1:
        raw_pixels = raw_pixels[:-1]  # even-length padding byte
    if len(raw_pixels) != rows * cols * dtype.itemsize:
        raise FormatError(
            f"{_named('PixelData')} holds {len(raw_pixels)} bytes; expected "
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
