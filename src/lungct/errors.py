"""Exception hierarchy shared across the pipeline.

The CLI maps three families to exit codes: :class:`IngestError` to 2,
:class:`ModelError` to 3 and :class:`InputError` to 4. The imaging errors
belong to none; they reach the CLI only wrapped in a :class:`SliceError`.
"""


class LungCtError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(LungCtError):
    """A series could not be read or analysed (exit 2)."""


class ModelError(LungCtError):
    """A model file could not be loaded (exit 3)."""


class InputError(LungCtError):
    """Training or evaluation input the user gave is unusable (exit 4)."""


# --- ingest -----------------------------------------------------------------

class FormatError(IngestError):
    """Input bytes are not a file of the claimed format."""


class UnsupportedError(IngestError):
    """The file is well-formed but uses a feature outside the supported subset."""


class MissingTagError(IngestError):
    """A required DICOM tag is absent."""

    def __init__(self, tag):
        self.tag = tag
        super().__init__(f"required tag ({tag[0]:04X},{tag[1]:04X}) is missing")


class EmptySeriesError(IngestError):
    """No readable slice was found in the series directory."""


class SeriesShapeError(IngestError):
    """Slices of one series disagree on dimensions."""


class MixedSeriesError(IngestError):
    """A series directory holds more than one patient, or repeats an instance number."""


# --- imaging ----------------------------------------------------------------

class ShapeError(LungCtError):
    """Two images that must share dimensions do not."""


class EmptyMarkerError(LungCtError):
    """A marker mask that must select at least one pixel is empty."""


class NoMarkerError(LungCtError):
    """Watershed was invoked with no marker pixels at all."""


class EmptyRegionError(LungCtError):
    """A region operation needs at least one non-zero pixel."""


class SliceError(IngestError, RuntimeError):
    """Analysing one slice of a series failed; the message starts with its index."""


# --- classifier -------------------------------------------------------------

class EmptyTrainingSetError(InputError):
    """Training was requested on zero samples."""


class SingleClassError(InputError):
    """Training data contains only one class label."""


class FoldTooSmallError(InputError):
    """Cross-validation folds would be empty for the requested k."""


class LengthMismatchError(InputError):
    """Two sequences that must pair up one to one (such as features and labels) differ in length."""


class ModelFormatError(ModelError):
    """Model file is corrupt or not a model file at all."""


class ModelVersionError(ModelError):
    """Model file was written by an incompatible format version."""
