"""File helpers: output files are written whole or not at all, input files
are read as ASCII lines, and the numbers of input files and flags are read
in plain decimal only."""
from __future__ import annotations

import contextlib
import numbers
import os
import re
import shutil
from pathlib import Path

import numpy as np


def write_text_atomic(path, text: str) -> None:
    """Write ASCII text to a temporary file beside `path`, then move it over
    `path` in one step: a failed write leaves the old file as it was and no
    temporary file behind.  A replaced file keeps its permission bits.  An
    OSError names `path`, not the temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        try:
            with open(tmp, "x", encoding="ascii") as fh:
                fh.write(text)
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def read_ascii(path, error=ValueError) -> bytes:
    """The bytes of an ASCII text file.  A non-ASCII byte raises `error`
    naming the path and its line; an unreadable file raises OSError."""
    raw = Path(path).read_bytes()
    if not raw.isascii():
        at = next(i for i, byte in enumerate(raw) if byte > 127)
        line = raw.count(b"\n", 0, at) + 1
        raise error(f"{path}: line {line}: non-ASCII byte 0x{raw[at]:02x}")
    return raw


def read_ascii_lines(path, error=ValueError) -> list:
    """The lines of an ASCII text file, as str.splitlines cuts them."""
    return read_ascii(path, error).decode("ascii").splitlines()


def require_int(name: str, value, least: int) -> int:
    """value as an int if it is an integer of at least `least`, not a bool;
    otherwise a ValueError whose first word is `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        what = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _decimal_fields(b, sep, most: int) -> tuple:
    """One numpy pass over the uint8 bytes b, cut into fields at the bytes
    where sep is True; b ends in a separator.  Per field: the index of the
    separator after it, its width, its value read as plain decimal digits,
    and whether it is bad: empty, longer than `most` digits, or holding a
    byte that is neither a digit nor a separator."""
    digit = b - 48  # a uint8 above 9 off the digits
    ends = np.flatnonzero(sep)
    width = np.diff(ends, prepend=-1) - 1
    value = sum(digit.take(ends - i, mode="clip").astype(np.uint32) * 10 ** (i - 1) * (width >= i) for i in range(1, most + 1))
    bad = (width < 1) | (width > most)
    bad[np.searchsorted(ends, np.flatnonzero(~sep & (digit > 9)))] = True
    return ends, width, value, bad


def decimal_ints(tokens) -> list:
    """Integers of tokens in ASCII decimal digits with an optional leading
    minus; ValueError on whatever else int() takes (`+3`, `1_0`, spaces)."""
    digits = "".join(tokens).replace("-", "")
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # a misplaced minus, an empty token
            return [int(t) for t in tokens]
    raise ValueError("non-integer value")


def decimal_int(token: str) -> int:
    """The one integer of decimal_ints([token]); also a flag type."""
    return decimal_ints([token])[0]


_DECIMAL_FLOAT = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan", re.ASCII)
# the negative numbers decimal_float reads (-1e-7, -.5, -inf); argparse takes
# a value that its parser's _negative_number_matcher misses for an option
NEGATIVE_NUMBER = re.compile(rf"(?=-)(?:{_DECIMAL_FLOAT.pattern})\Z", re.ASCII)


def decimal_float(token: str) -> float:
    """Float of a token in ASCII decimal, or the inf, -inf or nan '%g' writes;
    ValueError on whatever else float() takes (`+0.5`, `1_0`, spaces).
    Also a flag type: argparse names the flag when it refuses a value."""
    if not _DECIMAL_FLOAT.fullmatch(token):
        raise ValueError("not a plain decimal number")
    return float(token)
