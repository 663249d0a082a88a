"""A small DICOM Part-10 writer for the benchmark's CT series.

Written from the Part-10 encoding rules (PS3.10 file meta, PS3.5 explicit
VR little endian), not from lungct's reader, so reading the files back
through ``lungct.load_series`` is a genuine round trip.

Gray values g in 0..255 are stored as unsigned 16-bit ``round(hu + 1024)``
with RescaleIntercept -1024 and RescaleSlope 1, where hu is the value the
display window maps onto g. The rounding error is at most 0.5 HU, which the
default 1400 HU window turns into at most 0.091 gray levels, so windowing the
stored values with the same window gives g back exactly.
"""

import struct
from pathlib import Path

import numpy as np

from lungct.config import PipelineConfig

CT_IMAGE_STORAGE = "1.2.840.10008.5.1.4.1.1.2"
EXPLICIT_VR_LITTLE_ENDIAN = "1.2.840.10008.1.2.1"
IMPLEMENTATION_UID = "2.25.318046207761529034714152364862937162301"
RESCALE_INTERCEPT = -1024

# The display window (center, width) in HU that lungct applies by default.
DEFAULT_WINDOW = (PipelineConfig().window_center, PipelineConfig().window_width)

_LONG_VRS = {"OB", "OW", "OF", "SQ", "UT", "UN"}


def gray_to_stored(gray):
    """Unsigned 16-bit stored values whose default-windowed gray level is ``gray``."""
    center, width = DEFAULT_WINDOW
    low = center - width / 2.0
    hu = np.asarray(gray, dtype=np.float64) * width / 255.0 + low
    stored = np.floor(hu - RESCALE_INTERCEPT + 0.5)
    if stored.min() < 0 or stored.max() > 0xFFFF:
        raise ValueError("window maps gray values outside unsigned 16-bit storage")
    return stored.astype("<u2")


def _element(group, element, vr, value):
    if len(value) % 2:
        value += b"\x00" if vr in ("UI", "OB", "OW") else b" "
    head = struct.pack("<HH", group, element) + vr.encode("ascii")
    if vr in _LONG_VRS:
        return head + b"\x00\x00" + struct.pack("<I", len(value)) + value
    return head + struct.pack("<H", len(value)) + value


def _text(value):
    return str(value).encode("ascii")


def _ds(value):
    return _text(repr(float(value)))


def _us(value):
    return struct.pack("<H", value)


def encode_slice(gray, patient_id, instance_number, thickness_mm, spacing_mm,
                 sop_instance_uid):
    """Bytes of one Part-10 CT slice holding the 2-D uint8 image ``gray``."""
    gray = np.asarray(gray)
    rows, cols = gray.shape
    meta_body = b"".join([
        _element(0x0002, 0x0001, "OB", b"\x00\x01"),
        _element(0x0002, 0x0002, "UI", _text(CT_IMAGE_STORAGE)),
        _element(0x0002, 0x0003, "UI", _text(sop_instance_uid)),
        _element(0x0002, 0x0010, "UI", _text(EXPLICIT_VR_LITTLE_ENDIAN)),
        _element(0x0002, 0x0012, "UI", _text(IMPLEMENTATION_UID)),
    ])
    meta = _element(0x0002, 0x0000, "UL", struct.pack("<I", len(meta_body))) + meta_body
    z = (instance_number - 1) * thickness_mm
    dataset = b"".join([
        _element(0x0008, 0x0016, "UI", _text(CT_IMAGE_STORAGE)),
        _element(0x0008, 0x0018, "UI", _text(sop_instance_uid)),
        _element(0x0008, 0x0060, "CS", b"CT"),
        _element(0x0010, 0x0020, "LO", _text(patient_id)),
        _element(0x0018, 0x0050, "DS", _ds(thickness_mm)),
        _element(0x0020, 0x0013, "IS", _text(int(instance_number))),
        _element(0x0020, 0x0032, "DS", b"0.0\\0.0\\" + _ds(z)),
        _element(0x0028, 0x0002, "US", _us(1)),
        _element(0x0028, 0x0004, "CS", b"MONOCHROME2"),
        _element(0x0028, 0x0010, "US", _us(rows)),
        _element(0x0028, 0x0011, "US", _us(cols)),
        _element(0x0028, 0x0030, "DS", _ds(spacing_mm[0]) + b"\\" + _ds(spacing_mm[1])),
        _element(0x0028, 0x0100, "US", _us(16)),
        _element(0x0028, 0x0101, "US", _us(16)),
        _element(0x0028, 0x0102, "US", _us(15)),
        _element(0x0028, 0x0103, "US", _us(0)),
        _element(0x0028, 0x1052, "DS", _ds(RESCALE_INTERCEPT)),
        _element(0x0028, 0x1053, "DS", _ds(1)),
        _element(0x7FE0, 0x0010, "OW", gray_to_stored(gray).tobytes()),
    ])
    return b"\x00" * 128 + b"DICM" + meta + dataset


def write_series(directory, slices, patient_id, thickness_mm, spacing_mm, uid_stem):
    """Write a (n, rows, cols) uint8 stack as slice_NNN.dcm, instance numbers 1..n."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, gray in enumerate(slices):
        path = directory / f"slice_{i:03d}.dcm"
        path.write_bytes(encode_slice(gray, patient_id, i + 1, thickness_mm, spacing_mm,
                                      f"{uid_stem}.{i + 1}"))
        paths.append(path)
    return paths
