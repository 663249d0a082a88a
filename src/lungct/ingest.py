"""Series ingestion: DICOM (or PGM fallback) files to an ordered slice stack."""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULTS, check
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
    check("window_center", window_center)
    check("window_width", window_width)
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

    Each DICOM file is windowed to 8-bit via ``to_gray8`` as it is read;
    only that slice, its ids and its geometry are kept. If the directory
    holds no DICOM at all, binary PGM files are accepted as a fallback
    slice format (ordered by filename, patient id = resolved directory name).
    The default thickness and spacing (typically the config's) stand in for
    geometry a slice lacks: always for PGM, per missing tag for DICOM.

    Unreadable files are skipped with a warning; an unreadable directory
    raises EmptySeriesError. A window ``to_gray8`` rejects raises at the
    first DICOM slice.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise EmptySeriesError(f"{directory} is not a directory")

    try:
        paths = sorted(p for p in directory.iterdir() if p.is_file())
    except OSError as exc:
        raise EmptySeriesError(f"cannot list {directory}: {exc}") from exc
    pgm_fields = (directory.resolve().name, float(default_thickness_mm),
                  (float(default_spacing_mm[0]), float(default_spacing_mm[1])))
    # Per file: (instance number, filename, patient id, thickness, spacing, gray8 slice).
    dicoms = []
    pgms = []
    for path in paths:
        try:
            data = path.read_bytes()
        except OSError as exc:
            warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
            continue
        if _looks_like_dicom(data):
            try:
                obj = parse_dicom(data, default_thickness_mm, default_spacing_mm)
            except Exception as exc:  # noqa: BLE001 - tolerate junk neighbours
                warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
                continue
            # Outside the try: a bad window is the caller's error, not a junk file.
            dicoms.append((obj.instance_number, path.name, obj.patient_id, obj.slice_thickness_mm,
                           obj.pixel_spacing_mm, to_gray8(obj, *window)))
        elif data.startswith(b"P5"):
            try:
                img = read_pgm(data)
            except FormatError as exc:
                warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
                continue
            # ``paths`` is sorted, so PGM slices are numbered in filename order.
            pgms.append((len(pgms) + 1, path.name, *pgm_fields, img))
        else:
            warnings.warn(f"skipping {path.name}: not a DICOM or PGM file", stacklevel=2)

    if dicoms:
        if pgms:
            warnings.warn(
                f"{directory.name}: ignoring {len(pgms)} PGM file(s) because "
                "DICOM slices are present",
                stacklevel=2,
            )
        return _assemble(dicoms)
    if pgms:
        return _assemble(pgms)
    raise EmptySeriesError(f"no readable slices in {directory}")


def _assemble(slices):
    """The series of per-file slices, in (instance number, filename) order.

    Geometry is the first slice's; every slice must share one patient id
    and one shape.
    """
    slices.sort(key=lambda s: s[:2])
    numbers, _, patient_ids, thicknesses, spacings, images = zip(*slices)
    if len(set(patient_ids)) > 1:
        raise MixedSeriesError(f"multiple patient ids in one directory: {sorted(set(patient_ids))}")
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
