"""Series ingestion: DICOM (or PGM fallback) files to an ordered slice stack."""

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULTS, check, check_geometry
from .dicom import DicomObject, is_dicom, parse_dicom
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

    The formula runs once per stored value in the slice's [min, max] range,
    a table of at most 65 536 entries for 8- and 16-bit data, and the pixels
    index that table. The table never outgrows the slice: when the range is
    wider than the pixel count, the formula runs on the pixels themselves.
    """
    check("window_center", window_center)
    check("window_width", window_width)
    low = window_center - window_width / 2.0

    def gray(stored):
        hu = stored.astype(np.float64) * obj.rescale_slope + obj.rescale_intercept
        return np.clip(round_half_away(255.0 * (hu - low) / window_width), 0, 255).astype(np.uint8)

    pixels = obj.pixel_data
    if pixels.size and pixels.dtype.kind in "iu":
        first, last = int(pixels.min()), int(pixels.max())
        if last - first < pixels.size:
            # intp: an int16 pixel minus a negative minimum can overflow int16.
            table = gray(np.arange(first, last + 1))
            return table[np.subtract(pixels, first, dtype=np.intp)].reshape(obj.rows, obj.cols)
    return gray(pixels).reshape(obj.rows, obj.cols)


# --- PGM fallback -------------------------------------------------------------

# Whitespace, then a "#" comment to the end of its line or a header field (None at the end).
_PGM_TOKEN = re.compile(rb"\s*(#[^\n]*|\S+)?")


def read_pgm(data: bytes):
    """Read a binary (P5) PGM image with maxval 255 and a positive width and height."""
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM file (missing P5 magic)")
    pos = 2
    fields = []
    while len(fields) < 3:
        token = _PGM_TOKEN.match(data, pos)
        pos = token.end()
        if token[1] is None:
            raise FormatError("truncated PGM header")
        if not token[1].startswith(b"#"):
            fields.append(token[1])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError("malformed PGM header") from exc
    if maxval != 255:
        raise FormatError(f"only maxval 255 PGM supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise FormatError(f"PGM width and height must be positive, got {width}x{height}")
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

def load_series(
    directory,
    window=(DEFAULTS.window_center, DEFAULTS.window_width),
    default_thickness_mm=DEFAULTS.slice_thickness_mm,
    default_spacing_mm=(DEFAULTS.pixel_spacing_row_mm, DEFAULTS.pixel_spacing_col_mm),
) -> CtSeries:
    """Load every readable slice in ``directory`` into an ordered series.

    Each DICOM file is windowed to 8-bit via ``to_gray8`` as it is read;
    only that slice, its ids and its geometry are kept. If the directory
    holds no DICOM at all, binary PGM files are accepted as a fallback
    slice format (ordered by filename, patient id = resolved directory name).
    The default thickness and spacing (typically the config's) stand in for
    geometry a slice lacks: always for PGM, per missing tag for DICOM, with
    one warning per series for a missing SliceThickness. A window or default
    outside the config's ranges raises ValueError before any file is read.

    A file that cannot be read or decoded, or is neither format, is skipped
    with one warning, ``skipping NAME: REASON``; an unreadable directory
    raises EmptySeriesError.
    """
    check("window_center", window[0])
    check("window_width", window[1])
    thickness, spacing = check_geometry(default_thickness_mm, default_spacing_mm)
    directory = Path(directory)
    if not directory.is_dir():
        raise EmptySeriesError(f"{directory} is not a directory")

    try:
        paths = sorted(p for p in directory.iterdir() if p.is_file())
    except OSError as exc:
        raise EmptySeriesError(f"cannot list {directory}: {exc}") from exc
    pgm_fields = (directory.resolve().name, thickness, spacing)
    # Per file: (instance number, filename, patient id, thickness, spacing, gray8 slice).
    dicoms = []
    pgms = []
    thickness_missing = False
    for path in paths:
        try:
            data = path.read_bytes()
            if is_dicom(data):
                obj = parse_dicom(data)
            elif data.startswith(b"P5"):
                obj = read_pgm(data)
            else:
                raise FormatError("not a DICOM or PGM file")
        except Exception as exc:  # noqa: BLE001 - tolerate junk neighbours
            warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
            continue
        if isinstance(obj, DicomObject):
            # parse_dicom gives None for a tag the file lacks, else a positive value.
            thickness_missing |= obj.slice_thickness_mm is None
            dicoms.append((obj.instance_number, path.name, obj.patient_id,
                           obj.slice_thickness_mm or thickness, obj.pixel_spacing_mm or spacing,
                           to_gray8(obj, *window)))
        else:
            # ``paths`` is sorted, so PGM slices are numbered in filename order.
            pgms.append((len(pgms) + 1, path.name, *pgm_fields, obj))

    if thickness_missing:
        warnings.warn(f"SliceThickness missing; assuming {thickness} mm", stacklevel=2)
    if dicoms and pgms:
        warnings.warn(
            f"{directory.name}: ignoring {len(pgms)} PGM file(s) because "
            "DICOM slices are present",
            stacklevel=2,
        )
    if dicoms or pgms:
        return _assemble(dicoms or pgms)
    raise EmptySeriesError(f"no readable slices in {directory}")


def _assemble(slices):
    """The series of per-file slices, in (instance number, filename) order.

    Geometry is the first slice's, with a warning naming the distinct values
    when the slices disagree; every slice must share one patient id and one
    shape, and no two may share an instance number.
    """
    slices.sort(key=lambda s: s[:2])
    numbers, _, patient_ids, thicknesses, spacings, images = zip(*slices)
    for name, values in (("slice thickness", thicknesses), ("pixel spacing", spacings)):
        if len(set(values)) > 1:
            warnings.warn(f"{name} differs across slices: {sorted(set(values))}; "
                          f"using {values[0]}", stacklevel=3)
    if len(set(patient_ids)) > 1:
        raise MixedSeriesError(f"multiple patient ids in one directory: {sorted(set(patient_ids))}")
    repeated = sorted({a for a, b in zip(numbers, numbers[1:]) if a == b})
    if repeated:
        raise MixedSeriesError(f"instance numbers {repeated} repeat in one directory; "
                               "it must hold one series")
    shapes = {img.shape for img in images}
    if len(shapes) > 1:
        raise SeriesShapeError(f"inconsistent slice dimensions: {sorted(shapes)}")
    return CtSeries(
        patient_id=patient_ids[0],
        slices=np.stack(images),
        slice_thickness_mm=thicknesses[0],
        pixel_spacing_mm=spacings[0],
        instance_numbers=list(numbers),
    )
