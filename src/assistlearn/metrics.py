"""Scoring helpers shared by the engine and the harness."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def _pair(y_true, y_pred):
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatch(
            f"incompatible shapes {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch("empty inputs")
    return a, b


def rms(values: np.ndarray) -> float:
    """Root mean square of a float vector (a residual's RMSE against zero)."""
    return float(np.sqrt(np.mean(values * values)))


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    a, b = _pair(y_true, y_pred)
    return rms(a - b)


def mad(y_true, y_pred) -> float:
    """Mean absolute deviation."""
    a, b = _pair(y_true, y_pred)
    return float(np.mean(np.abs(a - b)))
