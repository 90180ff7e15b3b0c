"""Synthetic two-class image data: uniform single-colored squares against
independent per-pixel noise.

Label 1 means every pixel carries one intensity drawn uniformly from 0..255;
label 0 means each pixel is drawn independently from the same range.  Both
classes therefore share the same mean intensity and differ only in their
internal structure.  Generation uses numpy's PCG64 so a seed pins the exact
byte content of a saved dataset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import decimal_ints, read_ascii_lines, require_int, write_text_atomic

VALID_SIDES = (2, 4, 8)


class DatasetFormatError(ValueError):
    """A dataset file failed validation; the message names the line."""


def _check_side(side) -> None:
    if side not in VALID_SIDES or not isinstance(side, (int, np.integer)):  # concrete types: an ABC check costs ~1 us a row
        raise ValueError(f"side must be one of {VALID_SIDES}, got {side!r}")


@dataclass(frozen=True)
class LabeledImage:
    """One image and its label; the one check of a row's side, pixel range
    and label, whether the row is drawn or read from a file."""

    side: int
    pixels: np.ndarray
    label: int

    def __post_init__(self):
        _check_side(self.side)
        try:
            pixels = np.asarray(self.pixels, dtype=np.int64).reshape(-1)
        except OverflowError:  # beyond int64, so beyond 0..255
            raise ValueError("pixel out of range 0..255") from None
        object.__setattr__(self, "pixels", pixels)
        if pixels.shape != (self.side * self.side,):
            raise ValueError(f"expected {self.side * self.side} pixels, got {pixels.shape}")
        if pixels.min() < 0 or pixels.max() > 255:
            raise ValueError("pixel out of range 0..255")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    def grid(self) -> np.ndarray:
        return self.pixels.reshape(self.side, self.side)


def gen_sample(side: int, rng: np.random.Generator) -> LabeledImage:
    """Draw one labeled image.  Noise samples that come out accidentally
    uniform are redrawn, so label 0 always shows at least two intensities."""
    label = int(rng.integers(0, 2))
    k = side * side
    if label == 1:
        value = int(rng.integers(0, 256))
        pixels = np.full(k, value, dtype=np.int64)
    else:
        pixels = rng.integers(0, 256, size=k)
        while np.all(pixels == pixels[0]):
            pixels = rng.integers(0, 256, size=k)
    return LabeledImage(side, pixels, label)


def gen_dataset(n: int, side: int, seed: int) -> list:
    """n labeled images from a PCG64 stream seeded with `seed`.  The side
    is checked before any row is drawn, so a huge one allocates nothing."""
    n = require_int("n", n, 1)
    _check_side(side)
    rng = np.random.Generator(np.random.PCG64(require_int("seed", seed, 0)))
    return [gen_sample(side, rng) for _ in range(n)]


def _header(k: int) -> str:
    return "label," + ",".join(f"p{i}" for i in range(k))


def save_dataset(samples, path) -> None:
    """Write samples as CSV: header `label,p0,...`, one row per image."""
    samples = list(samples)
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    k = samples[0].side ** 2
    lines = [_header(k)]
    for s in samples:
        if s.side ** 2 != k:
            raise ValueError("all samples in a dataset must share one side length")
        lines.append(",".join([str(s.label)] + [str(int(p)) for p in s.pixels]))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_dataset(path) -> list:
    """Read a dataset CSV back: an ASCII file whose header names a square
    number of pixels, then at least one row of plain decimal integers.
    LabeledImage refuses a bad row; the error names the file and line."""
    lines = read_ascii_lines(path, DatasetFormatError)
    if not lines:
        raise DatasetFormatError(f"{path}: line 1: empty file")
    k = lines[0].count(",")
    side = math.isqrt(k)
    if lines[0] != _header(k) or side * side != k:
        raise DatasetFormatError(f"{path}: line 1: header {lines[0][:80]!r} is not label,p0,...,pN of a square image")
    samples = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise DatasetFormatError(f"{path}: line {ln}: expected {k + 1} columns, got {len(parts)}")
        try:
            values = decimal_ints(parts)
            samples.append(LabeledImage(side, values[1:], values[0]))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {ln}: {exc}") from None
    if not samples:
        raise DatasetFormatError(f"{path}: dataset is empty")
    return samples
