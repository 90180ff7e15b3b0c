"""Plain-text grayscale image files (magic number P2).

Reader accepts `#` comments and arbitrary whitespace, reads plain decimal
integers only, checks the sample count and range, and rescales to the
0..255 range this package uses everywhere.  Writer emits maxval 255, one
image row per text line.
"""
from __future__ import annotations

import numpy as np

from ._io import _decimal_fields, blocks, decimal_ints, read_ascii, write_text_atomic

# the bytes at which str.split cuts: \t, \n, \x0b, \x0c, \r, \x1c-\x1f and space
_SPLIT = bytes([9, 10, 11, 12, 13, 28, 29, 30, 31, 32])
_DECIMAL = np.array([str(v) for v in range(256)], dtype=object)  # write_pgm's text of each intensity


class PgmFormatError(ValueError):
    pass


def _separators(b) -> np.ndarray:
    """The mask of the bytes of _SPLIT among the uint8 bytes b: two runs,
    9..13 and 28..32, each found by one wrapping uint8 comparison."""
    return (b - 9 <= 4) | (b - 28 <= 4)


def _tokens(text: str) -> list:
    return [tok for line in text.splitlines() for tok in line.split("#", 1)[0].split()]


def _header(raw: bytes) -> tuple:
    """The tokens of raw up to the first newline after the fourth, and the
    offset after that newline; only those lines are decoded."""
    toks, at = [], 0
    while len(toks) < 4 and at < len(raw):
        end = raw.find(b"\n", at) + 1 or len(raw)
        toks += _tokens(raw[at:end].decode("ascii"))
        at = end
    return toks, at


def _pieces(rest: list, raw: bytes, at: int):
    """The uint8 bytes of the tokens rest, then of raw from offset `at` on
    in blocks, each ending in a separator: a block but the last is read in
    place with the separator after it."""
    yield np.frombuffer(" ".join(rest).encode() + b" ", np.uint8)
    *inner, (last, _) = blocks(raw, _SPLIT, at)
    for start, stop in inner:
        yield np.frombuffer(raw, np.uint8, stop + 1 - start, start)
    yield np.frombuffer(raw[last:] + b" ", np.uint8)


def _block_values(b):
    """The values of the tokens of the uint8 bytes b, which end in a
    separator, one numpy pass, if all are plain digit tokens of at most 5
    digits; None if any other token is there."""
    _, width, value, bad = _decimal_fields(b, _separators(b), 5)
    token = width > 0  # separators may run together
    return None if bad[token].any() else value[token]


def _plain_values(rest: list, raw: bytes, at: int, size: int):
    """The values of the tokens rest, then of raw from offset `at` on, as
    one int64 array of `size` values filled block by block, and how many
    values there are (those past `size` are only counted); None at the
    first block that holds a token other than plain digits.  raw holds at
    most one value per byte, so a header that claims more sizes no array
    beyond the file's length."""
    out, found = np.empty(min(size, len(raw)), np.int64), 0
    for b in _pieces(rest, raw, at):
        value = _block_values(b)
        if value is None:
            return None
        out[found:found + value.size] = value[: max(out.size - found, 0)]
        found += value.size
    return out, found


def read_pgm(path) -> np.ndarray:
    """Read a P2 file into an int64 array of shape (height, width), values
    rescaled to 0..255 when the file's maxval differs.  Lines are those
    read_ascii gives.  Only the header's lines are decoded; one numpy pass
    per block of the file's bytes reads a body of plain digit tokens of at
    most 5 digits straight into the one int64 array the header sizes, and
    any other body (a `#`, a sign, a longer token) is decoded and read
    token by token, so a refusal names the same fault either way.  An unreadable file raises OSError."""
    raw = read_ascii(path, PgmFormatError)
    toks, at = _header(raw)
    if toks[:1] != ["P2"]:
        raise PgmFormatError(f"{path}: expected magic number P2, found {toks[0] if toks else 'nothing'}")
    if len(toks) < 4:
        raise PgmFormatError(f"{path}: truncated header")
    try:
        width, height, maxval = decimal_ints(toks[1:4])
    except ValueError:
        raise PgmFormatError(f"{path}: width, height and maxval must be integers") from None
    if width < 1 or height < 1:
        raise PgmFormatError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise PgmFormatError(f"{path}: maxval must lie in 1..65535, got {maxval}")

    # the body: the tokens after the fourth on its line, then the lines below
    plain = _plain_values(toks[4:], raw, at, width * height)
    if plain is None:
        tokens = toks[4:] + _tokens(raw[at:].decode("ascii"))
    found = plain[1] if plain else len(tokens)
    if found != width * height:
        raise PgmFormatError(
            f"{path}: expected {width * height} pixel values, found {found}"
        )
    try:
        flat = plain[0] if plain else np.array(decimal_ints(tokens), dtype=np.int64)
    except (ValueError, OverflowError):  # OverflowError: beyond int64
        raise PgmFormatError(f"{path}: pixel values must be integers in 0..{maxval}") from None
    if flat.min() < 0 or flat.max() > maxval:
        raise PgmFormatError(f"{path}: pixel values must lie in 0..{maxval}")

    grid = flat.reshape(height, width)
    if maxval != 255:
        # multiply before dividing: both stay exact in float64, so ties
        # land on .5 and round predictably
        grid = np.rint(grid * 255.0 / maxval).astype(np.int64)
    return grid


def write_pgm(path, grid, comment: str = None) -> None:
    """Write an integer grid (values 0..255) as a P2 file with maxval 255,
    after an optional comment line; a comment that is not one line of ASCII
    text is refused before anything is written."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError("image grid must be 2-d")
    if not np.issubdtype(grid.dtype, np.integer):
        raise ValueError("image grid must hold integers; rescale and round first")
    if grid.min() < 0 or grid.max() > 255:
        raise ValueError("pixel values must lie in 0..255")
    lines = ["P2"]
    if comment:
        lines.append(f"# {comment}")
        if lines[-1].splitlines() != [lines[-1]] or not lines[-1].isascii():
            raise ValueError(f"comment must be one line of ASCII text, got {comment!r}")
    height, width = grid.shape
    lines += [f"{width} {height}", "255"]
    lines += [" ".join(row) for row in _DECIMAL[grid].tolist()]
    write_text_atomic(path, "\n".join(lines) + "\n")
