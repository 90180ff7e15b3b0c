"""Plain-text grayscale file round trip and reader diagnostics."""
import numpy as np
import pytest

from qcnn.pgm import PgmFormatError, read_pgm, write_pgm


def test_roundtrip(tmp_path):
    grid = np.arange(24).reshape(4, 6) * 10
    path = tmp_path / "img.pgm"
    write_pgm(path, grid)
    np.testing.assert_array_equal(read_pgm(path), grid)


def test_write_layout_frozen(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0, 255], [12, 34]]), comment="hello")
    assert path.read_text() == "P2\n# hello\n2 2\n255\n0 255\n12 34\n"


def test_reader_tolerates_comments_and_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2 # magic\n# full comment line\n  3 1\n255\n 1   2\t\n3\n")
    np.testing.assert_array_equal(read_pgm(path), [[1, 2, 3]])


def test_reader_rescales_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n100\n0 50\n100 25\n")
    np.testing.assert_array_equal(read_pgm(path), [[0, 128], [255, 64]])
    path.write_text("P2\n1 1\n65535\n65535\n")
    np.testing.assert_array_equal(read_pgm(path), [[255]])


def test_reader_rejections(tmp_path):
    path = tmp_path / "img.pgm"
    cases = {
        "P5\n1 1\n255\n0\n": "magic",
        "": "magic",
        "P2\n2 2\n255\n0 0 0\n": "expected 4 pixel values",
        "P2\n2\n": "truncated",
        "P2\nx 1\n255\n0\n": "integers",
        "P2\n0 1\n255\n": "positive",
        "P2\n1 1\n0\n0\n": "maxval",
        "P2\n1 1\n70000\n1\n": "maxval",
        "P2\n1 1\n255\nbad\n": "integers",
        "P2\n1 1\n255\n300\n": "0..255",
        "P2\n1 1\n255\n-1\n": "0..255",
        # int() would read these as 10 and 3, or the width as 2
        "P2\n2 1\n255\n1_0 +3\n": "pixel values must be integers",
        "P2\n+2 1\n255\n0 0\n": "width, height and maxval must be integers",
    }
    for text, key in cases.items():
        path.write_text(text)
        with pytest.raises(PgmFormatError, match=key):
            read_pgm(path)
    with pytest.raises(OSError):
        read_pgm(tmp_path / "missing.pgm")
    path.write_bytes(b"P2\n1 1\n255\n\xff\n")
    with pytest.raises(PgmFormatError, match="line 4: non-ASCII byte 0xff"):
        read_pgm(path)


def test_reader_refuses_pixels_beyond_int64(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 1\n255\n0 99999999999999999999\n")
    with pytest.raises(PgmFormatError, match="pixel values must be integers in 0..255"):
        read_pgm(path)


def test_writer_validation(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros(4, dtype=np.int64))  # not 2-d
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros((2, 2)))  # floats
    with pytest.raises(ValueError):
        write_pgm(path, np.full((2, 2), 256))
    with pytest.raises(ValueError):
        write_pgm(path, np.full((2, 2), -3))
