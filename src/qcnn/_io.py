"""Output files are written whole or not at all."""
from __future__ import annotations

import contextlib
import os
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
