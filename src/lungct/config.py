"""Pipeline configuration: one flat record of every tunable, with its default and range.

Serialized as plain ``key = value`` lines (``#`` comments allowed) so a
run's settings diff cleanly. Every field can also be overridden by a CLI
flag of the same name with dashes; file and flag values are parsed by the
field's declared type. This is the only place a default or a range is
written: the layers take their defaults from :data:`DEFAULTS` and check
their arguments with :func:`check`.
"""

import inspect
import os
from dataclasses import dataclass, field, fields, replace
from math import inf
from operator import ge, gt, le, lt
from pathlib import Path


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tunable(default, low, high=inf, ends="[)"):
    """A field with its default and its range from ``low`` to ``high``,
    ``ends`` marking each end closed (``[``, ``]``) or open (``(``, ``)``)."""
    return field(default=default, metadata={"range": (low, high, ends)})


@dataclass
class PipelineConfig:
    # ingest: display window applied to DICOM stored values (PGM input is
    # used as-is), a lung/soft-tissue compromise; fallback geometry for
    # headerless PGM series
    window_center: float = _tunable(-300.0, -inf, inf, "()")
    window_width: float = _tunable(1400.0, 0, inf, "()")
    slice_thickness_mm: float = _tunable(5.0, 0, inf, "()")
    pixel_spacing_row_mm: float = _tunable(1.0, 0, inf, "()")
    pixel_spacing_col_mm: float = _tunable(1.0, 0, inf, "()")

    # preprocessing; band_lo < band_hi as well
    blackout_fraction: float = _tunable(0.20, 0, 0.5)
    band_lo: int = _tunable(110, 0, 255, "[]")
    band_hi: int = _tunable(130, 0, 255, "[]")
    strip_width_fraction: float = _tunable(0.06, 0, 0.3, "(]")
    cleanup_radius_close: int = _tunable(3, 1)
    cleanup_radius_open: int = _tunable(3, 1)

    # segmentation
    disk_radius: int = _tunable(8, 0)

    # classifier; the LCTM model header stores the seed as int64, the rest as uint32
    n_trees: int = _tunable(30, 1, 2**32 - 1, "[]")
    min_leaf: int = _tunable(5, 1, 2**32 - 1, "[]")
    max_depth: int = _tunable(12, 0, 2**32 - 1, "[]")
    seed: int = _tunable(0, -2**63, 2**63 - 1, "[]")

    # execution: worker processes, by default one per CPU this process may use
    threads: int = _tunable(_usable_cpus(), 1)

    def __post_init__(self):
        # A bad file or flag is a config error before any slice or CSV is read.
        for f in fields(self):
            check(f.name, getattr(self, f.name))
        check_band(self.band_lo, self.band_hi)

    @classmethod
    def from_file(cls, path):
        """Parse a key = value config file; an unknown or repeated key is an error."""
        text = Path(path).read_text()
        known = {f.name: f.type for f in fields(cls)}
        values, first_line = {}, {}
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
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is already set "
                                 f"on line {first_line[key]}")
            try:
                values[key] = known[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: cannot parse {value!r}") from exc
            first_line[key] = lineno
        return cls(**values)

    def override(self, **updates):
        """Return a copy with the given non-None fields replaced."""
        unknown = updates.keys() - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(f"unknown config key {min(unknown)!r}")
        return replace(self, **{key: value for key, value in updates.items() if value is not None})

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


_RANGES = {f.name: f.metadata["range"] for f in fields(PipelineConfig)}
_COMPARE = {"[": (ge, ">="), "(": (gt, ">"), "]": (le, "<="), ")": (lt, "<")}


def check(name, value):
    """Return ``value`` if it lies in config field ``name``'s range, else raise
    a ValueError naming the bound it breaks (``min_leaf must be >= 1, got 0``).
    NaN compares false with every bound, so it breaks the first."""
    low, high, ends = _RANGES[name]
    for end, bound in zip(ends, (low, high)):
        within, symbol = _COMPARE[end]
        if not within(value, bound):
            raise ValueError(f"{name} must be {symbol} {bound}, got {value}")
    return value


def check_band(band_lo, band_hi):
    """Check both band ends and the one rule across fields: the band is not empty."""
    if not check("band_lo", band_lo) < check("band_hi", band_hi):
        raise ValueError(f"band_lo must be < band_hi, got band_lo {band_lo}, band_hi {band_hi}")


def check_geometry(thickness_mm, spacing_mm):
    """Check a slice thickness and a (row, column) pixel spacing against their
    fields' ranges; return them as floats, ``(thickness, (row, column))``."""
    return (check("slice_thickness_mm", float(thickness_mm)),
            (check("pixel_spacing_row_mm", float(spacing_mm[0])),
             check("pixel_spacing_col_mm", float(spacing_mm[1]))))


def range_text(name):
    """Config field ``name``'s range in interval notation, such as ``[0, 0.5)``."""
    low, high, ends = _RANGES[name]
    return f"{ends[0]}{low}, {high}{ends[1]}"


DEFAULTS = PipelineConfig()
