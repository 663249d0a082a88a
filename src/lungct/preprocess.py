"""Per-slice preprocessing that primes a CT image for watershed segmentation.

The chain, in order: blacken the top/bottom bands (no anatomy of interest
there, only isolated artifacts), boost the tumour intensity band while
flattening everything else, superimpose a dark central strip so the
trachea region merges with its surrounding wall, then a closing/opening
pass to fill gaps inside bright structures and cut thin attachments.
"""

import inspect

import numpy as np

from .base import ParamsMixin
from .config import DEFAULTS, check, check_band
from .morphology import close_image, make_disk, open_image
from .validation import as_gray_image, round_half_away

BAND_LOW_TARGET = 210   # tumour band lands on 210..230
BAND_OUT_TARGET = 10    # everything else lands on 10..30
BAND_SPAN = 20
STRIP_VALUE = 20        # middle of the suppressed 10..30 range


def blackout_bands(img, fraction=DEFAULTS.blackout_fraction):
    """Zero the top and bottom ``fraction`` of image rows."""
    check("blackout_fraction", fraction)
    img = as_gray_image(img)
    rows = int(np.floor(fraction * len(img)))
    out = img.copy()
    out[:rows] = 0
    out[len(out) - rows :] = 0
    return out


def _remap_lut(band_lo, band_hi):
    values = np.arange(256, dtype=np.float64)
    outside = BAND_OUT_TARGET + round_half_away(BAND_SPAN * values / 255.0)
    inside = BAND_LOW_TARGET + round_half_away(
        BAND_SPAN * (values - band_lo) / (band_hi - band_lo)
    )
    in_band = (values >= band_lo) & (values <= band_hi)
    return np.where(in_band, inside, outside).astype(np.uint8)


def remap_intensity(img, band_lo=DEFAULTS.band_lo, band_hi=DEFAULTS.band_hi):
    """Step the [band_lo, band_hi] range up to 210..230, everything else down to 10..30."""
    check_band(band_lo, band_hi)
    img = as_gray_image(img)
    return np.take(_remap_lut(band_lo, band_hi), img)


def apply_central_strip(img, width_fraction=DEFAULTS.strip_width_fraction,
                        blackout_fraction=DEFAULTS.blackout_fraction):
    """Paint a vertical strip of ``STRIP_VALUE`` through the image center.

    The strip is ``floor(width_fraction * width)`` pixels wide, widened to
    the symmetric odd span around the central column, and only covers rows
    between the blackout bands. A fraction too small to reach one pixel is
    the identity.
    """
    check("strip_width_fraction", width_fraction)
    check("blackout_fraction", blackout_fraction)
    img = as_gray_image(img)
    height, width = img.shape
    strip = int(np.floor(width_fraction * width))
    out = img.copy()
    if strip:
        half, center = strip // 2, width // 2
        band = int(np.floor(blackout_fraction * height))
        out[band : height - band, max(0, center - half) : min(width, center + half + 1)] = STRIP_VALUE
    return out


def cleanup(img, close_radius=DEFAULTS.cleanup_radius_close,
            open_radius=DEFAULTS.cleanup_radius_open):
    """Close then open with small disks: fill interior gaps, detach thin bridges."""
    close_se = make_disk(check("cleanup_radius_close", close_radius))
    open_se = make_disk(check("cleanup_radius_open", open_radius))
    return open_image(close_image(img, close_se), open_se)


def preprocess_slice(
    img,
    blackout_fraction=DEFAULTS.blackout_fraction,
    band_lo=DEFAULTS.band_lo,
    band_hi=DEFAULTS.band_hi,
    strip_width_fraction=DEFAULTS.strip_width_fraction,
    cleanup_radius_close=DEFAULTS.cleanup_radius_close,
    cleanup_radius_open=DEFAULTS.cleanup_radius_open,
):
    """Full preprocessing chain on one slice; deterministic, pure."""
    out = blackout_bands(img, blackout_fraction)
    out = remap_intensity(out, band_lo, band_hi)
    out = apply_central_strip(out, strip_width_fraction, blackout_fraction)
    return cleanup(out, cleanup_radius_close, cleanup_radius_open)


# SlicePreprocessor's parameters are preprocess_slice's, with ``self`` in place of the image.
_SLICE_PARAMS = list(inspect.signature(preprocess_slice).parameters.values())
_INIT_SIGNATURE = inspect.Signature([_SLICE_PARAMS[0].replace(name="self"), *_SLICE_PARAMS[1:]])


class SlicePreprocessor(ParamsMixin):
    """Estimator-style wrapper over the preprocessing chain.

    Stateless: ``fit`` records nothing and exists so the class slots into
    pipeline tooling; ``transform`` accepts one slice or a slice stack.
    Its parameters, names and defaults alike, are those of
    :func:`preprocess_slice` after the image.
    """

    def __init__(self, *args, **kwargs):
        bound = _INIT_SIGNATURE.bind(self, *args, **kwargs)
        bound.apply_defaults()
        del bound.arguments["self"]
        vars(self).update(bound.arguments)

    __init__.__signature__ = _INIT_SIGNATURE

    def fit(self, X=None, y=None):
        return self

    def transform(self, X):
        X = np.asarray(X)
        if X.ndim == 2:
            return self._one(X)
        if X.ndim == 3:
            return np.stack([self._one(sl) for sl in X])
        raise ValueError(f"expected a slice or slice stack, got shape {X.shape}")

    def _one(self, img):
        return preprocess_slice(img, **self.get_params())
