"""File helpers: output files are written whole or not at all, and the
numbers of input files and flags are read in plain decimal only."""
from __future__ import annotations

import contextlib
import os
import re
import secrets
import shutil
from pathlib import Path


def write_text_atomic(path, text: str) -> None:
    """Write ASCII text to a temporary file beside `path`, then move it over
    `path` in one step: a failed write leaves the old file as it was and no
    temporary file behind.  A replaced file keeps its permission bits.  An
    OSError names `path`, not the temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
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


def decimal_ints(tokens) -> list:
    """Integers of tokens in ASCII decimal digits with an optional leading
    minus; ValueError on whatever else int() takes (`+3`, `1_0`, spaces)."""
    digits = "".join(tokens).replace("-", "")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not a plain decimal integer")
    return [int(t) for t in tokens]


def decimal_int(token: str) -> int:
    """The one integer of decimal_ints([token]); also a flag type."""
    return decimal_ints([token])[0]


_DECIMAL_FLOAT = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan", re.ASCII)


def decimal_float(token: str) -> float:
    """Float of a token in ASCII decimal, or the inf, -inf or nan '%g' writes;
    ValueError on whatever else float() takes (`+0.5`, `1_0`, spaces).
    Also a flag type: argparse names the flag when it refuses a value."""
    if not _DECIMAL_FLOAT.fullmatch(token):
        raise ValueError("not a plain decimal number")
    return float(token)
