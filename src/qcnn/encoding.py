"""Qubit Lattice encoding: one wire per pixel, intensity as a rotation angle.

A pixel p in 0..255 becomes the angle pi*p/255, loaded with an RY rotation,
so p=0 keeps the wire at |0> and p=255 flips it to |1>.  Probabilities fed
back between layers use the same idea on the unit interval: p in [0, 1]
becomes pi*p.
"""
from __future__ import annotations

import numpy as np

_PROB_SLACK = 1e-9


def _intensities(pixel) -> np.ndarray:
    """pixel as an integer array; a ValueError that starts with `pixels`
    unless it holds integers in 0..255, which bools are not."""
    arr = np.asarray(pixel)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"pixels must be integers, got {arr.dtype} values")
    if arr.size and not (0 <= arr.min() and arr.max() <= 255):  # nan fails both
        raise ValueError("pixels must lie in 0..255")
    if arr.dtype.kind == "f" and not np.all(np.mod(arr, 1) == 0):
        raise ValueError("pixels must be integers")
    return arr.astype(np.int64) if arr.dtype.kind == "f" else arr


def pixel_to_angle(pixel) -> np.ndarray:
    """Map integer intensities 0..255 to angles [0, pi] linearly."""
    out = np.pi * _intensities(pixel) / 255.0
    return float(out) if np.isscalar(pixel) or out.ndim == 0 else out


_PIXEL_COS = np.cos(pixel_to_angle(np.arange(256)))


def pixel_cos(pixel) -> np.ndarray:
    """cos(pixel_to_angle(pixel)), bit for bit, looked up in a table of the
    256 intensities instead of computed once per pixel."""
    return _PIXEL_COS[_intensities(pixel)]


def prob_to_angle(p) -> np.ndarray:
    """Map probabilities [0, 1] to angles [0, pi] linearly."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("probability must be finite")
    if arr.size and (arr.min() < -_PROB_SLACK or arr.max() > 1.0 + _PROB_SLACK):
        raise ValueError("probability must lie in [0, 1]")
    out = np.pi * np.clip(arr, 0.0, 1.0)
    return float(out) if np.isscalar(p) or out.ndim == 0 else out
