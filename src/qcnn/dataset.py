"""Synthetic two-class image data: uniform single-colored squares against
independent per-pixel noise.

Label 1 means every pixel carries one intensity drawn uniformly from 0..255;
label 0 means each pixel is drawn independently from the same range.  Both
classes therefore share the same mean intensity and differ only in their
internal structure.  Generation uses numpy's PCG64 so a seed pins the exact
byte content of a saved dataset.  A dataset is two arrays, labels and pixel
rows (Dataset); its items are LabeledImage rows.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._io import _decimal_fields, blocks, decimal_ints, read_ascii, require_int, write_text_atomic

VALID_SIDES = (2, 4, 8)


class DatasetFormatError(ValueError):
    """A dataset file failed validation; the message names the line."""


def _check_side(side) -> None:
    if side not in VALID_SIDES or not isinstance(side, (int, np.integer)):  # concrete types: an ABC check costs ~1 us a row
        raise ValueError(f"side must be one of {VALID_SIDES}, got {side!r}")


@dataclass(frozen=True, eq=False)
class LabeledImage:
    """One image and its label; the one check of a row's side, pixel range
    and label, whether the row is drawn or read from a file.  Rows compare
    and hash by identity."""

    side: int
    pixels: np.ndarray
    label: int

    def __post_init__(self):
        _check_side(self.side)
        # a sequence keeps its values as given, so a bool or a str shows
        pixels = self.pixels if isinstance(self.pixels, np.ndarray) else np.array(self.pixels, dtype=object)
        if pixels.dtype.kind not in "iufO" or pixels.dtype.kind == "O" and not all(
                issubclass(t, numbers.Real) and t is not bool for t in set(map(type, pixels.flat))):
            raise ValueError("pixels must be integers")
        try:
            pixels = pixels.reshape(-1).astype(np.float64 if pixels.dtype.kind == "O" else pixels.dtype, copy=False)
        except OverflowError:  # an int beyond float64, so beyond 0..255
            raise ValueError("pixel out of range 0..255") from None
        if pixels.shape != (self.side * self.side,):
            raise ValueError(f"expected {self.side * self.side} pixels, got {pixels.shape}")
        if not (pixels.min() >= 0 and pixels.max() <= 255):  # nan fails both
            raise ValueError("pixel out of range 0..255")
        if pixels.dtype.kind == "f" and (pixels % 1).any():
            raise ValueError("pixels must be integers")
        object.__setattr__(self, "pixels", pixels.astype(np.int64))
        if isinstance(self.label, (bool, np.bool_)) or self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled images of one side as two uint8 arrays: labels (n,) and
    pixels (n, side * side), holding only rows LabeledImage accepts.  Its
    items are LabeledImage rows, and a slice of it is a Dataset.  Datasets
    compare and hash by identity."""

    side: int
    labels: np.ndarray
    pixels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Dataset(self.side, self.labels[i], self.pixels[i])
        return LabeledImage(self.side, self.pixels[i], int(self.labels[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def as_dataset(samples) -> Dataset:
    """A Dataset as it is, or a sequence of LabeledImage of one side stacked
    into one; either must hold at least one row."""
    if not len(samples):
        raise ValueError("a dataset must hold at least one row")
    if isinstance(samples, Dataset):
        return samples
    side = samples[0].side
    if any(s.side != side for s in samples):
        raise ValueError("all samples in a dataset must share one side length")
    labels = np.array([s.label for s in samples], np.uint8)
    return Dataset(side, labels, np.array([s.pixels for s in samples], np.uint8))


def _rows_from_words(n: int, k: int, draw) -> tuple:
    """(labels, pixels) of n rows of k pixels, read in order from the uint32
    words that draw(m) hands out m at a time.  A row is a label word, then
    one value word for label 1 or k pixel words for label 0, drawn again
    while all k are equal, so label 0 always shows at least two intensities.
    numpy's bounded integers take a power-of-two range from the top bits of
    one word and never reject it, so a label is a word's top bit and an
    intensity its top byte: the rows are those that per-row
    rng.integers(0, 2) and rng.integers(0, 256, size=k) calls would draw.

    jump[p] is where the next row starts if a row starts at word p, clipped
    to m + 1 past the m words drawn.  The row heads come from pointer
    jumping: doubling the list of heads [0] by jump, and jump by itself,
    until it holds n + 1, which takes about log2(n) passes over m words.
    The first draw covers the mean of (k + 3) / 2 words a row plus about
    three standard deviations of (k - 1) / 2 sqrt(n); when the rows still
    run past it, more words are drawn and the pass runs again."""
    words = draw(n * (k + 3) // 2 + 3 * (math.isqrt(n) + 1) * (k - 1) // 2 + 2 * k)
    while True:
        m = len(words)
        bits, top = words >> 31, (words >> 24).astype(np.uint8)
        changes = np.concatenate(([0], np.cumsum(top[1:] != top[:-1])))
        block = np.arange(m + 1)  # the first word of the pixel block kept when drawing from word q on
        for q in np.flatnonzero(changes[k - 1:] == changes[: m - k + 1])[::-1]:  # k equal top bytes from q
            block[q] = block[q + k]
        jump = np.full(m + 2, m + 1)
        np.minimum(np.where(bits, np.arange(2, m + 2), block[1:] + k), m + 1, out=jump[:m])
        heads = np.zeros(1, np.intp)
        while len(heads) <= n:
            heads = np.concatenate((heads, jump.take(heads)))
            if len(heads) <= n:
                jump = jump.take(jump)
        if heads[n] <= m:  # row n - 1 ends within the words drawn
            break
        words = np.concatenate((words, draw(m // 2 + 2 * k)))
    heads = heads[:n]
    labels = bits[heads].astype(np.uint8)
    firsts = np.where(labels, heads + 1, block[heads + 1])
    return labels, top[firsts[:, None] + np.arange(k) * (1 - labels[:, None])]


def gen_dataset(n: int, side: int, seed: int) -> Dataset:
    """n labeled images from a PCG64 stream seeded with `seed`, drawn as one
    block of words sized so that it nearly always holds the n rows, then
    read in array passes by _rows_from_words.  The side is checked before
    any row is drawn, so a huge one allocates nothing; an n whose words do
    not fit in memory, or in one array, is refused by name."""
    n = require_int("n", n, 1)
    _check_side(side)
    rng = np.random.Generator(np.random.PCG64(require_int("seed", seed, 0)))

    def draw(m):
        try:
            return rng.integers(0, 2**32, size=m, dtype=np.uint32)
        except (MemoryError, ValueError):  # no memory for m words, or more than one array can index
            raise ValueError(f"n is too large to draw: {n} rows take {m} random words") from None

    return Dataset(side, *_rows_from_words(n, side * side, draw))


def _header(k: int) -> str:
    return "label," + ",".join(f"p{i}" for i in range(k))


def save_dataset(samples, path) -> None:
    """Write a Dataset, or LabeledImage rows of one side, as CSV: header
    `label,p0,...`, one row per image."""
    data = as_dataset(samples)
    rows = np.column_stack((data.labels, data.pixels)).tolist()
    write_text_atomic(path, "\n".join([_header(data.side ** 2)] + [",".join(map(str, r)) for r in rows]) + "\n")


def _vouched(raw: bytes, at: int, k: int) -> tuple:
    """One numpy pass per block of whole newline-separated lines of raw from
    offset `at` on: whether each line is k + 1 comma-separated fields of
    one to three digits, a label of at most 1 and pixels of at most 255,
    the values (vouched lines, k + 1) of those that are, and the offset in
    raw of each line's end (len(raw) for the last line)."""
    masks, rows, line_ends = [], [], []
    for start, stop in blocks(raw, b"\n", at):
        b = np.frombuffer(raw[start:stop] + b"\n", np.uint8)
        ends, _, value, bad = _decimal_fields(b, (b == 44) | (b == 10), 3)  # ends: the comma or newline after each field
        bad |= value > 255
        lasts = np.flatnonzero(b[ends] == 10)  # each line's last field
        label_fields = np.concatenate(([0], lasts[:-1] + 1))
        bad[label_fields[value[label_fields] > 1]] = True
        fields = np.diff(lasts, prepend=-1)
        vouched = fields == k + 1
        vouched[np.searchsorted(lasts, np.flatnonzero(bad))] = False
        values = value if vouched.all() else value[np.repeat(vouched, fields)]
        masks.append(vouched)
        rows.append(values.reshape(-1, k + 1).astype(np.uint8))
        line_ends.append(ends[lasts] + start)
    return np.concatenate(masks), np.concatenate(rows), np.concatenate(line_ends)


def load_dataset(path) -> Dataset:
    """Read a dataset CSV back: an ASCII file whose header names a square
    number of pixels, then at least one row of plain decimal integers, in
    the lines read_ascii gives.  One numpy pass per block of lines of the
    bytes after the header reads the lines it can vouch for; only the other
    lines are decoded, and each takes the row rule, decimal_ints and
    LabeledImage, which accepts it (`007`, `-0`) or refuses it, naming the
    file and line.  Blank lines are skipped."""
    raw = read_ascii(path, DatasetFormatError)
    if not raw:
        raise DatasetFormatError(f"{path}: line 1: empty file")
    at = raw.find(b"\n") + 1 or len(raw)  # where the body starts
    head = raw[:at].rstrip(b"\n").decode()
    k = head.count(",")
    side = math.isqrt(k)
    if head != _header(k) or side * side != k:
        raise DatasetFormatError(f"{path}: line 1: header {head[:80]!r} is not label,p0,...,pN of a square image")
    vouched, values, ends = _vouched(raw, at, k)
    rows = np.zeros((len(vouched), k + 1), np.uint8)
    if side in VALID_SIDES:
        rows[vouched] = values
    else:  # LabeledImage refuses the first row that is not blank
        vouched[:] = False
    blank = []
    for ln in np.flatnonzero(~vouched).tolist():
        line = raw[ends[ln - 1] + 1 if ln else at : ends[ln]].decode()
        if not line:
            blank.append(ln)
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise DatasetFormatError(f"{path}: line {ln + 2}: expected {k + 1} columns, got {len(parts)}")
        try:
            values = decimal_ints(parts)
            image = LabeledImage(side, np.array(values[1:]), values[0])  # ints, so an array skips the per-type check
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {ln + 2}: {exc}") from None
        rows[ln, 0], rows[ln, 1:] = image.label, image.pixels
    rows = np.delete(rows, blank, axis=0)
    if not len(rows):
        raise DatasetFormatError(f"{path}: dataset is empty")
    return Dataset(side, rows[:, 0], rows[:, 1:])
