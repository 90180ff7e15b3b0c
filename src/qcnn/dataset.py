"""Synthetic two-class image data: uniform single-colored squares against
independent per-pixel noise.

Label 1 means every pixel carries one intensity drawn uniformly from 0..255;
label 0 means each pixel is drawn independently from the same range.  Both
classes therefore share the same mean intensity and differ only in their
internal structure.  Generation uses numpy's PCG64 so a seed pins the exact
byte content of a saved dataset.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import decimal_ints, write_text_atomic

VALID_SIDES = (2, 4, 8)


class DatasetFormatError(ValueError):
    """A dataset file failed validation; the message names the line."""


@dataclass(frozen=True)
class LabeledImage:
    side: int
    pixels: np.ndarray
    label: int

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "pixels", pixels)
        if self.side not in VALID_SIDES:
            raise ValueError(f"side must be one of {VALID_SIDES}, got {self.side}")
        if pixels.shape != (self.side * self.side,):
            raise ValueError(f"expected {self.side * self.side} pixels, got {pixels.shape}")
        if pixels.min() < 0 or pixels.max() > 255:
            raise ValueError("pixel values must lie in 0..255")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    def grid(self) -> np.ndarray:
        return self.pixels.reshape(self.side, self.side)


def gen_sample(side: int, rng: np.random.Generator) -> LabeledImage:
    """Draw one labeled image.  Noise samples that come out accidentally
    uniform are redrawn, so label 0 always shows at least two intensities."""
    if side not in VALID_SIDES:
        raise ValueError(f"side must be one of {VALID_SIDES}, got {side}")
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
    """n labeled images from a PCG64 stream seeded with `seed`."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
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
    """Read a dataset CSV back, validating shape, ranges and the header.
    Values are plain decimal integers in an ASCII file, and at least one
    row follows the header."""
    raw = Path(path).read_bytes()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DatasetFormatError(f"{path}: line {line}: non-ASCII byte 0x{raw[exc.start]:02x}") from None
    if not lines:
        raise DatasetFormatError(f"{path}: line 1: empty file")
    cols = lines[0].split(",")
    k = len(cols) - 1
    side = int(round(np.sqrt(k))) if k > 0 else 0
    if k <= 0 or side * side != k or side not in VALID_SIDES:
        raise DatasetFormatError(f"{path}: line 1: header implies {k} pixels, not a valid image size")
    if lines[0] != _header(k):
        raise DatasetFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    samples = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise DatasetFormatError(f"{path}: line {ln}: expected {k + 1} columns, got {len(parts)}")
        try:
            values = decimal_ints(parts)
        except ValueError:
            raise DatasetFormatError(f"{path}: line {ln}: non-integer value") from None
        label, pixels = values[0], values[1:]
        if label not in (0, 1):
            raise DatasetFormatError(f"{path}: line {ln}: label must be 0 or 1, got {label}")
        if min(pixels) < 0 or max(pixels) > 255:
            raise DatasetFormatError(f"{path}: line {ln}: pixel out of range 0..255")
        samples.append(LabeledImage(side, np.array(pixels, dtype=np.int64), label))
    if not samples:
        raise DatasetFormatError(f"{path}: dataset is empty")
    return samples
