"""Output files are replaced whole: a write that fails part way leaves the
previous file as it was and no temporary file beside it, and a replaced file
keeps its permission bits."""
import os
import stat

import numpy as np
import pytest

from qcnn import _io
from qcnn.dataset import gen_dataset, save_dataset
from qcnn.network import ModelParams, save_params
from qcnn.pgm import write_pgm
from qcnn.training import LossCurve, save_curve


def _curve():
    curve = LossCurve()
    curve.record(1, 0.25, 10)
    return curve


WRITERS = {
    "params": lambda path: save_params(ModelParams((np.full(4, 0.5),)), path),
    "curve": lambda path: save_curve(_curve(), path),
    "dataset": lambda path: save_dataset(gen_dataset(3, 2, 0), path),
    "pgm": lambda path: write_pgm(path, np.full((2, 2), 7)),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch, name):
    out = tmp_path / "out.txt"
    out.write_text("old contents\n", encoding="ascii")

    def broken_replace(src, dst):
        raise OSError(28, "No space left on device", str(src))

    monkeypatch.setattr(_io.os, "replace", broken_replace)
    with pytest.raises(OSError) as err:
        WRITERS[name](out)
    assert err.value.filename == str(out)
    assert out.read_text(encoding="ascii") == "old contents\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_replaces_the_file_and_leaves_nothing_else(tmp_path, name):
    out = tmp_path / "out.txt"
    out.write_text("old contents\n", encoding="ascii")
    WRITERS[name](out)
    assert out.read_text(encoding="ascii") != "old contents\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
    # a missing directory is reported against the requested path
    with pytest.raises(FileNotFoundError) as err:
        WRITERS[name](tmp_path / "missing" / "out.txt")
    assert err.value.filename == str(tmp_path / "missing" / "out.txt")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_replaced_file_keeps_its_permissions(tmp_path, name):
    # a new file gets the default mode, a replaced one keeps its own
    umask = os.umask(0)
    os.umask(umask)
    fresh = tmp_path / "fresh.txt"
    WRITERS[name](fresh)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    out = tmp_path / "out.txt"
    out.write_text("old contents\n", encoding="ascii")
    out.chmod(0o600)
    WRITERS[name](out)
    assert out.read_text(encoding="ascii") != "old contents\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
