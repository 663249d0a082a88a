"""Exception hierarchy shared across the pipeline."""


class LungCtError(Exception):
    """Base class for all errors raised by this package."""


# --- ingest -----------------------------------------------------------------

class FormatError(LungCtError):
    """Input bytes are not a file of the claimed format."""


class UnsupportedError(LungCtError):
    """The file is well-formed but uses a feature outside the supported subset."""


class MissingTagError(LungCtError):
    """A required DICOM tag is absent."""

    def __init__(self, tag):
        self.tag = tag
        super().__init__(f"required tag {_tag_str(tag)} is missing")


def _tag_str(tag):
    try:
        group, element = tag
        return f"({group:04X},{element:04X})"
    except (TypeError, ValueError):
        return repr(tag)


class EmptySeriesError(LungCtError):
    """No readable slice was found in the series directory."""


class SeriesShapeError(LungCtError):
    """Slices of one series disagree on dimensions or ordering."""


class MixedSeriesError(LungCtError):
    """Slices from more than one patient in a single series directory."""


# --- imaging ----------------------------------------------------------------

class ShapeError(LungCtError):
    """Two images that must share dimensions do not."""


class EmptyMarkerError(LungCtError):
    """A marker mask that must select at least one pixel is empty."""


class NoMarkerError(LungCtError):
    """Watershed was invoked with no marker pixels at all."""


class EmptyRegionError(LungCtError):
    """A region operation needs at least one non-zero pixel."""


class SliceError(LungCtError, RuntimeError):
    """Analysing one slice of a series failed; the message starts with its index."""


# --- classifier -------------------------------------------------------------

class EmptyTrainingSetError(LungCtError):
    """Training was requested on zero samples."""


class SingleClassError(LungCtError):
    """Training data contains only one class label."""


class FoldTooSmallError(LungCtError):
    """Cross-validation folds would be empty for the requested k."""


class LengthMismatchError(LungCtError):
    """Prediction and label sequences differ in length."""


class ModelFormatError(LungCtError):
    """Model file is corrupt or not a model file at all."""


class ModelVersionError(LungCtError):
    """Model file was written by an incompatible format version."""
