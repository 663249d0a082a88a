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

from .config import DEFAULTS
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
TAG_PIXEL_REPRESENTATION = (0x0028, 0x0103)
TAG_RESCALE_INTERCEPT = (0x0028, 0x1052)
TAG_RESCALE_SLOPE = (0x0028, 0x1053)
TAG_PIXEL_DATA = (0x7FE0, 0x0010)

# Explicit-VR codes that use the 4-byte length form (2 reserved bytes first).
_LONG_VRS = {b"OB", b"OW", b"OF", b"SQ", b"UT", b"UN"}
_UNDEFINED_LENGTH = 0xFFFFFFFF


@dataclass(eq=False)
class DicomObject:
    """Parsed slice: raw tag map plus the decoded fields the pipeline uses.

    ``pixel_data`` is flat in the stored dtype: 8 or 16 bits, signed when
    PixelRepresentation is 1.
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


class _Reader:
    def __init__(self, data, offset=0):
        self.data = data
        self.pos = offset

    def remaining(self):
        return len(self.data) - self.pos

    def take(self, n, what="bytes"):
        if self.remaining() < n:
            raise FormatError(f"truncated file while reading {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def peek_u16(self):
        if self.remaining() < 2:
            return None
        return struct.unpack_from("<H", self.data, self.pos)[0]

    def read_element(self, explicit):
        """Return ((group, element), value_bytes) for the next data element."""
        group, element = struct.unpack("<HH", self.take(4, "element tag"))
        tag = (group, element)
        if explicit:
            vr = self.take(2, "VR")
            if vr in _LONG_VRS:
                self.take(2, "reserved length bytes")
                (length,) = struct.unpack("<I", self.take(4, "element length"))
            else:
                (length,) = struct.unpack("<H", self.take(2, "element length"))
        else:
            (length,) = struct.unpack("<I", self.take(4, "element length"))
        if length == _UNDEFINED_LENGTH:
            raise UnsupportedError(
                f"element {group:04X},{element:04X} has undefined length; "
                "only defined-length values are supported"
            )
        return tag, self.take(length, f"value of ({group:04X},{element:04X})")


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

    A slice without SliceThickness or PixelSpacing gets the given default.

    Raises
    ------
    FormatError
        Missing "DICM" magic, truncation, or malformed values.
    UnsupportedError
        Transfer syntax other than little-endian implicit/explicit VR,
        or constructs that cannot be skipped (undefined lengths).
    MissingTagError
        A tag the pipeline cannot default is absent.
    """
    if len(data) < PREAMBLE_LEN + 4 or data[PREAMBLE_LEN : PREAMBLE_LEN + 4] != MAGIC:
        raise FormatError('missing "DICM" magic after the 128-byte preamble')

    reader = _Reader(data, PREAMBLE_LEN + 4)

    # File meta group (0002,xxxx) is always explicit VR little endian.
    meta = {}
    while reader.remaining() >= 8 and reader.peek_u16() == 0x0002:
        tag, value = reader.read_element(explicit=True)
        meta[tag] = value

    transfer_syntax = _decode_text(meta.get(TAG_TRANSFER_SYNTAX, b""))
    if transfer_syntax in ("", TS_EXPLICIT_LE):
        explicit = True
    elif transfer_syntax == TS_IMPLICIT_LE:
        explicit = False
    else:
        raise UnsupportedError(f"unsupported transfer syntax {transfer_syntax!r}")

    tags = {}
    while reader.remaining() >= 8:
        tag, value = reader.read_element(explicit)
        tags[tag] = value
    if reader.remaining():
        raise FormatError("trailing bytes after the last complete data element")

    rows = _decode_us(_require(tags, TAG_ROWS), TAG_ROWS)
    cols = _decode_us(_require(tags, TAG_COLS), TAG_COLS)
    bits = _decode_us(_require(tags, TAG_BITS_ALLOCATED), TAG_BITS_ALLOCATED)
    if bits not in (8, 16):
        raise UnsupportedError(f"BitsAllocated must be 8 or 16, got {bits}")

    patient_id = _decode_text(_require(tags, TAG_PATIENT_ID))
    instance_raw = _decode_text(_require(tags, TAG_INSTANCE_NUMBER))
    try:
        instance_number = int(instance_raw)
    except ValueError as exc:
        raise FormatError(f"malformed InstanceNumber {instance_raw!r}") from exc

    slope = 1.0
    if TAG_RESCALE_SLOPE in tags:
        slope = _decode_ds(tags[TAG_RESCALE_SLOPE], TAG_RESCALE_SLOPE)[0]
    intercept = 0.0
    if TAG_RESCALE_INTERCEPT in tags:
        intercept = _decode_ds(tags[TAG_RESCALE_INTERCEPT], TAG_RESCALE_INTERCEPT)[0]

    if TAG_SLICE_THICKNESS in tags:
        thickness = _decode_ds(tags[TAG_SLICE_THICKNESS], TAG_SLICE_THICKNESS)[0]
        if thickness <= 0:
            raise FormatError(f"SliceThickness must be positive, got {thickness}")
    else:
        thickness = float(default_thickness_mm)
        warnings.warn(
            f"SliceThickness missing; assuming {thickness} mm", stacklevel=2
        )

    if TAG_PIXEL_SPACING in tags:
        values = _decode_ds(tags[TAG_PIXEL_SPACING], TAG_PIXEL_SPACING)
        if len(values) != 2 or min(values) <= 0:
            raise FormatError(f"malformed PixelSpacing {values}")
        spacing = (values[0], values[1])
    else:
        spacing = (float(default_spacing_mm[0]), float(default_spacing_mm[1]))

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
