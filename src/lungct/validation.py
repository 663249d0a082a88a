"""Input validation helpers for images and masks."""

import numpy as np

from .errors import ShapeError


def as_gray_image(img, name="image"):
    """Coerce input to a 2-D uint8 array, validating the value range.

    Accepts any integer-like array (nested lists included). Values must
    already lie in [0, 255]; this never rescales.
    """
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.issubdtype(arr.dtype, np.floating):
                raise TypeError(f"{name} has non-numeric dtype {arr.dtype}")
            if not np.all(arr == np.floor(arr)):
                raise ValueError(f"{name} has non-integral float values")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError(f"{name} values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return np.ascontiguousarray(arr)


def as_bool_mask(mask, shape=None, name="mask"):
    """Coerce input to a 2-D bool array, optionally checking its shape."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.dtype != bool:
        arr = arr.astype(bool)
    if shape is not None and arr.shape != tuple(shape):
        raise ShapeError(f"{name} shape {arr.shape} does not match image shape {tuple(shape)}")
    return np.ascontiguousarray(arr)


def require_same_shape(a, b, what="inputs"):
    if a.shape != b.shape:
        raise ShapeError(f"{what} must share dimensions: {a.shape} vs {b.shape}")


def round_half_away(x):
    """Round to nearest integer, halves away from zero, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(np.int64)
