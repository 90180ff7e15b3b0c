"""Plain-text grayscale image files (magic number P2).

Reader accepts `#` comments and arbitrary whitespace, reads plain decimal
integers only, checks the sample count and range, and rescales to the
0..255 range this package uses everywhere.  Writer emits maxval 255, one
image row per text line.
"""
from __future__ import annotations

import numpy as np

from ._io import decimal_ints, read_ascii_lines, write_text_atomic


class PgmFormatError(ValueError):
    pass


def read_pgm(path) -> np.ndarray:
    """Read a P2 file into an int64 array of shape (height, width), values
    rescaled to 0..255 when the file's maxval differs.  An unreadable file
    raises OSError."""
    toks = [tok for line in read_ascii_lines(path, PgmFormatError) for tok in line.split("#", 1)[0].split()]
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

    values = toks[4:]
    if len(values) != width * height:
        raise PgmFormatError(
            f"{path}: expected {width * height} pixel values, found {len(values)}"
        )
    try:
        flat = np.array(decimal_ints(values), dtype=np.int64)
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
    """Write an integer grid (values 0..255) as a P2 file with maxval 255."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError("image grid must be 2-d")
    if not np.issubdtype(grid.dtype, np.integer):
        raise ValueError("image grid must hold integers; rescale and round first")
    if grid.min() < 0 or grid.max() > 255:
        raise ValueError("pixel values must lie in 0..255")
    height, width = grid.shape
    lines = ["P2"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{width} {height}")
    lines.append("255")
    for row in grid:
        lines.append(" ".join(str(int(v)) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")
