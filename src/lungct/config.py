"""Pipeline configuration: one flat record of every tunable, with defaults.

Serialized as plain ``key = value`` lines (``#`` comments allowed) so a
run's settings diff cleanly. Every field can also be overridden by a CLI
flag of the same name with dashes; file and flag values are parsed by the
field's declared type. This is the only place a default is written: the
layers take theirs from :data:`DEFAULTS`.
"""

import inspect
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass
class PipelineConfig:
    # ingest: display window applied to DICOM stored values (PGM input is
    # used as-is), a lung/soft-tissue compromise; fallback geometry for
    # headerless PGM series
    window_center: float = -300.0
    window_width: float = 1400.0
    slice_thickness_mm: float = 5.0
    pixel_spacing_row_mm: float = 1.0
    pixel_spacing_col_mm: float = 1.0

    # preprocessing
    blackout_fraction: float = 0.20
    band_lo: int = 110
    band_hi: int = 130
    strip_width_fraction: float = 0.06
    cleanup_radius_close: int = 3
    cleanup_radius_open: int = 3

    # segmentation
    disk_radius: int = 8

    # classifier
    n_trees: int = 30
    min_leaf: int = 5
    max_depth: int = 12
    seed: int = 0

    # execution
    threads: int = 1

    def __post_init__(self):
        # Checked here, so a bad file or flag is a config error before any
        # slice is read; the layers keep their own checks for direct callers.
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        for name in ("slice_thickness_mm", "pixel_spacing_row_mm", "pixel_spacing_col_mm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.band_lo < self.band_hi <= 255:
            raise ValueError(
                f"need 0 <= band_lo < band_hi <= 255, got band_lo {self.band_lo}, band_hi {self.band_hi}")
        if self.disk_radius < 0:
            raise ValueError(f"disk_radius must be >= 0, got {self.disk_radius}")
        for name in ("cleanup_radius_close", "cleanup_radius_open"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.blackout_fraction < 0.5:
            raise ValueError(f"blackout_fraction must lie in [0, 0.5), got {self.blackout_fraction}")
        if not 0 < self.strip_width_fraction <= 0.3:
            raise ValueError(f"strip_width_fraction must lie in (0, 0.3], got {self.strip_width_fraction}")
        for name, low in (("n_trees", 1), ("min_leaf", 1), ("max_depth", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @classmethod
    def from_file(cls, path):
        """Parse a key = value config file; unknown keys are an error."""
        text = Path(path).read_text()
        known = {f.name: f.type for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = known[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: cannot parse {value!r}") from exc
        return cls(**values)

    def override(self, **updates):
        """Return a copy with the given non-None fields replaced."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in updates.items():
            if key not in current:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                current[key] = value
        return PipelineConfig(**current)

    def _kwargs_for(self, consumer):
        """The fields named by ``consumer``'s parameters, as keyword arguments."""
        params = inspect.signature(consumer).parameters
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name in params}

    def preprocess_kwargs(self):
        """Keyword arguments for :func:`lungct.preprocess.preprocess_slice`."""
        from .preprocess import preprocess_slice

        return self._kwargs_for(preprocess_slice)

    def classifier_kwargs(self):
        """Keyword arguments for :class:`lungct.ensemble.BaggedTreesClassifier`."""
        from .ensemble import BaggedTreesClassifier

        return self._kwargs_for(BaggedTreesClassifier)

    def to_text(self):
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


DEFAULTS = PipelineConfig()
