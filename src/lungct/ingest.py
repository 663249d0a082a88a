"""Series ingestion: DICOM (or PGM fallback) files to an ordered slice stack."""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULTS
from .dicom import MAGIC, PREAMBLE_LEN, DicomObject, parse_dicom
from .errors import EmptySeriesError, FormatError, MixedSeriesError, SeriesShapeError
from .validation import as_gray_image, round_half_away


@dataclass
class CtSeries:
    """Ordered slice stack for one patient.

    ``slices`` is a (n, height, width) uint8 array ordered by ascending
    instance number; ``instance_numbers`` keeps the original numbering so
    reports can reference the acquisition's own slice ids.
    """

    patient_id: str
    slices: np.ndarray
    slice_thickness_mm: float
    pixel_spacing_mm: tuple
    instance_numbers: list

    def __len__(self):
        return len(self.slices)


def to_gray8(obj: DicomObject, window_center=DEFAULTS.window_center,
             window_width=DEFAULTS.window_width):
    """Convert stored pixel values to 8-bit gray via rescale + linear window.

    Stored value v maps to ``hu = v * slope + intercept``, then the window
    [center - width/2, center + width/2] maps linearly onto [0, 255] with
    clamping. Rounding is half away from zero.
    """
    if window_width <= 0:
        raise ValueError(f"window width must be positive, got {window_width}")
    hu = obj.pixel_data.astype(np.float64) * obj.rescale_slope + obj.rescale_intercept
    low = window_center - window_width / 2.0
    scaled = 255.0 * (hu - low) / window_width
    out = np.clip(round_half_away(scaled), 0, 255).astype(np.uint8)
    return out.reshape(obj.rows, obj.cols)


# --- PGM fallback -------------------------------------------------------------

def read_pgm(data: bytes):
    """Read a binary (P5) PGM image with maxval 255."""
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM file (missing P5 magic)")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError("malformed PGM header") from exc
    if maxval != 255:
        raise FormatError(f"only maxval 255 PGM supported, got {maxval}")
    expected = width * height
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise FormatError("PGM raster shorter than header promises")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, img):
    """Write a 2-D uint8 image as binary (P5) PGM."""
    img = as_gray_image(img)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())


# --- series assembly ----------------------------------------------------------

def _looks_like_dicom(data):
    return len(data) >= PREAMBLE_LEN + 4 and data[PREAMBLE_LEN : PREAMBLE_LEN + 4] == MAGIC


def load_series(
    directory,
    window=(DEFAULTS.window_center, DEFAULTS.window_width),
    default_thickness_mm=DEFAULTS.slice_thickness_mm,
    default_spacing_mm=(DEFAULTS.pixel_spacing_row_mm, DEFAULTS.pixel_spacing_col_mm),
) -> CtSeries:
    """Load every readable slice in ``directory`` into an ordered series.

    DICOM files are windowed to 8-bit via ``to_gray8``. If the directory
    holds no DICOM at all, binary PGM files are accepted as a fallback
    slice format (ordered by filename, patient id = resolved directory name, with
    thickness/spacing from the defaults, typically CLI flags).

    Unreadable files are skipped with a warning; an unreadable directory
    raises EmptySeriesError.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise EmptySeriesError(f"{directory} is not a directory")

    dicoms = []
    pgms = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        data = path.read_bytes()
        if _looks_like_dicom(data):
            try:
                dicoms.append((path.name, parse_dicom(data)))
            except Exception as exc:  # noqa: BLE001 - tolerate junk neighbours
                warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
        elif data.startswith(b"P5"):
            try:
                pgms.append((path.name, read_pgm(data)))
            except FormatError as exc:
                warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
        else:
            warnings.warn(f"skipping {path.name}: not a DICOM or PGM file", stacklevel=2)

    if dicoms:
        if pgms:
            warnings.warn(
                f"{directory.name}: ignoring {len(pgms)} PGM file(s) because "
                "DICOM slices are present",
                stacklevel=2,
            )
        return _series_from_dicoms(dicoms, window)
    if pgms:
        return _series_from_pgms(directory.resolve().name, pgms, default_thickness_mm, default_spacing_mm)
    raise EmptySeriesError(f"no readable slices in {directory}")


def _series_from_dicoms(named, window):
    patient_ids = {obj.patient_id for _, obj in named}
    if len(patient_ids) > 1:
        raise MixedSeriesError(f"multiple patient ids in one directory: {sorted(patient_ids)}")

    # Instance-number order; filename only breaks exact duplicates.
    named.sort(key=lambda item: (item[1].instance_number, item[0]))
    objs = [obj for _, obj in named]

    shapes = {(obj.rows, obj.cols) for obj in objs}
    if len(shapes) > 1:
        raise SeriesShapeError(f"inconsistent slice dimensions: {sorted(shapes)}")

    first = objs[0]
    slices = np.stack([to_gray8(obj, *window) for obj in objs])
    return CtSeries(
        patient_id=first.patient_id,
        slices=slices,
        slice_thickness_mm=first.slice_thickness_mm,
        pixel_spacing_mm=first.pixel_spacing_mm,
        instance_numbers=[obj.instance_number for obj in objs],
    )


def _series_from_pgms(patient_id, named, thickness_mm, spacing_mm):
    named.sort(key=lambda item: item[0])
    shapes = {img.shape for _, img in named}
    if len(shapes) > 1:
        raise SeriesShapeError(f"inconsistent slice dimensions: {sorted(shapes)}")
    slices = np.stack([img for _, img in named])
    return CtSeries(
        patient_id=patient_id,
        slices=slices,
        slice_thickness_mm=float(thickness_mm),
        pixel_spacing_mm=(float(spacing_mm[0]), float(spacing_mm[1])),
        instance_numbers=list(range(1, len(named) + 1)),
    )
