"""Hand-built DICOM byte images for parser tests.

The writer is assembled independently from the parser, straight from the
Part-10 encoding rules, so a parse of its output is a genuine round-trip
check.
"""

import struct

import numpy as np

TS_IMPLICIT = "1.2.840.10008.1.2"
TS_EXPLICIT = "1.2.840.10008.1.2.1"

# (group, element) -> VR used when writing explicit files.
_VRS = {
    (0x0010, 0x0020): "LO",
    (0x0018, 0x0050): "DS",
    (0x0020, 0x0013): "IS",
    (0x0028, 0x0010): "US",
    (0x0028, 0x0011): "US",
    (0x0028, 0x0030): "DS",
    (0x0028, 0x0100): "US",
    (0x0028, 0x0101): "US",
    (0x0028, 0x0102): "US",
    (0x0028, 0x0103): "US",
    (0x0028, 0x1052): "DS",
    (0x0028, 0x1053): "DS",
    (0x7FE0, 0x0010): "OW",
}

_LONG_VRS = {"OB", "OW", "OF", "SQ", "UT", "UN"}


def _even(value, pad=b" "):
    return value if len(value) % 2 == 0 else value + pad


def _encode(tag, value, bits=16, signed=False):
    """Encode a python value for the given tag; pixels as two's complement if ``signed``."""
    vr = _VRS.get(tag, "LO")
    if vr == "US":
        return struct.pack("<H", value), vr
    if vr == "OW":
        arr = np.asarray(value, dtype=np.dtype(f"<{'i' if signed else 'u'}{bits // 8}"))
        return _even(arr.tobytes(), b"\x00"), vr
    if vr in ("DS", "IS", "LO"):
        if isinstance(value, (list, tuple)):
            text = "\\".join(str(v) for v in value)
        else:
            text = str(value)
        return _even(text.encode("ascii")), vr
    raise AssertionError(vr)


def element_explicit(tag, value_bytes, vr):
    group, elem = tag
    head = struct.pack("<HH", group, elem) + vr.encode("ascii")
    if vr in _LONG_VRS:
        return head + b"\x00\x00" + struct.pack("<I", len(value_bytes)) + value_bytes
    return head + struct.pack("<H", len(value_bytes)) + value_bytes


def element_implicit(tag, value_bytes, length=None):
    group, elem = tag
    if length is None:
        length = len(value_bytes)
    return struct.pack("<HHI", group, elem, length) + value_bytes


def build_dicom(
    explicit=True,
    rows=2,
    cols=2,
    bits=16,
    pixels=(0, 100, 200, 300),
    patient_id="PAT1",
    instance=1,
    slope=None,
    intercept=None,
    thickness=None,
    spacing=None,
    pixel_representation=None,
    bits_stored=None,
    high_bit=None,
    magic=b"DICM",
    transfer_syntax=None,
    omit=(),
    extra_elements=(),
):
    """One complete DICOM file image.

    ``extra_elements`` are raw pre-encoded element bytes appended at the
    very end of the dataset; ``omit`` removes tags by (group, element).
    ``pixel_representation`` 1 writes the tag and stores signed pixels;
    None leaves the tag out, and so does None for ``bits_stored`` (0028,0101)
    or ``high_bit`` (0028,0102). ``pixels`` are written as stored, bits
    above the high bit included.
    """
    ts = transfer_syntax or (TS_EXPLICIT if explicit else TS_IMPLICIT)
    ts_bytes = _even(ts.encode("ascii"), b"\x00")
    meta_elements = element_explicit((0x0002, 0x0010), ts_bytes, "UI")
    meta = (
        element_explicit((0x0002, 0x0000), struct.pack("<I", len(meta_elements)), "UL")
        + meta_elements
    )

    values = {
        (0x0010, 0x0020): patient_id,
        (0x0018, 0x0050): thickness,
        (0x0020, 0x0013): instance,
        (0x0028, 0x0010): rows,
        (0x0028, 0x0011): cols,
        (0x0028, 0x0030): spacing,
        (0x0028, 0x0100): bits,
        (0x0028, 0x0101): bits_stored,
        (0x0028, 0x0102): high_bit,
        (0x0028, 0x0103): pixel_representation,
        (0x0028, 0x1052): intercept,
        (0x0028, 0x1053): slope,
        (0x7FE0, 0x0010): pixels,
    }
    body = b""
    for tag in sorted(values):
        if tag in omit or values[tag] is None:
            continue
        raw, vr = _encode(tag, values[tag], bits=bits, signed=pixel_representation == 1)
        body += element_explicit(tag, raw, vr) if explicit else element_implicit(tag, raw)
    for raw in extra_elements:
        body += raw
    return b"\x00" * 128 + magic + meta + body


def assert_same_parse(a, b):
    """Two parsed slices agree in every field; pixels by value and dtype."""
    a, b = dict(vars(a)), dict(vars(b))
    pixels_a, pixels_b = a.pop("pixel_data"), b.pop("pixel_data")
    assert pixels_a.dtype == pixels_b.dtype and np.array_equal(pixels_a, pixels_b)
    assert a == b
