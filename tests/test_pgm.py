"""Plain-text grayscale file round trip and reader diagnostics.  The byte
pass of the reader and the table of the writer are checked against the
token-by-token reader and the per-pixel formatter they stand in for."""
import tracemalloc

import numpy as np
import pytest

from qcnn import _io, pgm
from qcnn._io import blocks, decimal_ints, read_ascii_lines
from qcnn.pgm import PgmFormatError, read_pgm, write_pgm


def _read_by_tokens(path) -> np.ndarray:
    """Reference: every line cut at `#` and split into tokens, every pixel
    token through decimal_ints."""
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
        raise PgmFormatError(f"{path}: expected {width * height} pixel values, found {len(values)}")
    try:
        flat = np.array(decimal_ints(values), dtype=np.int64)
    except (ValueError, OverflowError):
        raise PgmFormatError(f"{path}: pixel values must be integers in 0..{maxval}") from None
    if flat.min() < 0 or flat.max() > maxval:
        raise PgmFormatError(f"{path}: pixel values must lie in 0..{maxval}")
    grid = flat.reshape(height, width)
    if maxval != 255:
        grid = np.rint(grid * 255.0 / maxval).astype(np.int64)
    return grid


def _write_by_pixels(grid, comment=None) -> bytes:
    """Reference: the writer's text with str(int(v)) per pixel."""
    lines = ["P2"] + ([f"# {comment}"] if comment else []) + [f"{grid.shape[1]} {grid.shape[0]}", "255"]
    lines += [" ".join(str(int(v)) for v in row) for row in grid]
    return ("\n".join(lines) + "\n").encode("ascii")


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


def _traced_peak(path) -> tuple:
    """read_pgm's grid or refusal message, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            got = read_pgm(path)
        except PgmFormatError as exc:
            got = str(exc)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_peaks_at_a_few_times_the_file_size(tmp_path):
    # the byte pass fills the one int64 array that the header sizes, so the
    # body's values are held once, beside the file's bytes and one block's
    # temporaries; and a header claiming more values than the file has bytes
    # sizes no array beyond them before the count is refused
    path = tmp_path / "big.pgm"
    yy, xx = np.mgrid[0:512, 0:512]
    write_pgm(path, (xx + yy) * 255 // 1022)
    grid, peak = _traced_peak(path)
    assert grid.shape == (512, 512)
    assert peak < 4.0 * path.stat().st_size, peak / path.stat().st_size
    path.write_text("P2\n1000000 1000000\n255\n1 2 3\n")
    got, peak = _traced_peak(path)
    assert got == f"{path}: expected 1000000000000 pixel values, found 3"
    assert peak < 1e6, peak


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


def test_write_matches_the_per_pixel_formatter(tmp_path):
    path = tmp_path / "img.pgm"
    every = np.arange(256)
    grids = [every.reshape(16, 16), every.reshape(4, 64), np.random.default_rng(3).permutation(every).reshape(32, 8)]
    for grid in grids:
        for dtype in (np.uint8, np.int32, np.int64):
            for comment in (None, "every intensity"):
                write_pgm(path, grid.astype(dtype), comment=comment)
                assert path.read_bytes() == _write_by_pixels(grid, comment), (dtype, comment)


def test_writer_refuses_a_comment_it_could_not_read_back(tmp_path):
    path = tmp_path / "img.pgm"
    grid = np.zeros((2, 2), dtype=np.uint8)
    # "x\n7 9" would make the next header line read as a 7x9 image
    for comment in ("x\n7 9", "x\r\n7 9", "x\r7", "a\x0bb", "a\x0cb", "a\x1cb", "a\x1eb", "ends\n", "caf\u00e9", "a\u2028b"):
        with pytest.raises(ValueError) as info:
            write_pgm(path, grid, comment=comment)
        assert str(info.value).startswith("comment must be one line of ASCII text"), comment
        assert not path.exists()
    write_pgm(path, grid, comment="tab\tand\x1funit separator # and a hash")
    np.testing.assert_array_equal(read_pgm(path), grid)


def _outcome(read, path):
    try:
        return read(path).tolist()
    except PgmFormatError as exc:
        return str(exc)


_SEPS = [" ", " ", " ", "  ", "\t", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \n\t"]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _p2_file(rng) -> bytes:
    """A seeded P2 file: a valid one with every spacing str.split and
    str.splitlines allow, header comments, leading zeros and 5-digit values,
    or, in about half the files, one with an edit that either reader may
    refuse or read."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    width, height = (int(v) for v in rng.integers(1, 5 if rng.random() < 0.8 else 40, 2))
    maxval = pick([255, 255, 255, 65535, 65535, 100, 1, 7])
    toks = [str(v) for v in rng.integers(0, maxval + 1, width * height)]
    toks = [t.zfill(int(rng.integers(1, 6))) if rng.random() < 0.15 else t for t in toks]  # leading zeros
    edit = int(rng.integers(12))
    if edit == 0:  # a count off by one
        toks = toks[:-1] if rng.random() < 0.5 else toks + ["0"]
    elif edit == 1:  # a sign
        toks[int(rng.integers(len(toks)))] = pick(["+", "-"]) + pick(["0", "3", "255"])
    elif edit == 2:  # what int() reads and decimal_ints does not
        toks[int(rng.integers(len(toks)))] = pick(["1_0", "0x1", "1e2", "2.0"])
    elif edit == 3:  # a token of 6 digits or more: leading zeros or beyond maxval
        toks[int(rng.integers(len(toks)))] = pick(["000255", "0000000", "123456", "4294967296", "99999999999999999999"])
    elif edit == 4:  # a `#` in the body
        at = int(rng.integers(len(toks)))
        toks[at] = toks[at] + pick(["#", "#c", " # c" + pick(_BREAKS), "#" + pick(_BREAKS)])
    elif edit == 5:  # a 5-digit value beyond maxval 255
        toks[int(rng.integers(len(toks)))] = pick(["65535", "00256", "99999"])
    single_line = rng.random() < 0.2
    body = "".join(t + (" " if single_line else pick(_SEPS)) for t in toks)
    gaps = _SEPS + ["  # a comment" + pick(_BREAKS), pick(_BREAKS) + "# full line" + pick(_BREAKS)]
    head = "".join(t + pick(gaps) for t in ("P2", str(width), str(height)))
    # unless its gap holds a line break, the fourth header token shares its line with pixels
    head += str(maxval) + pick(gaps + [" ", "\t", "\x1f"] * 4)
    raw = (head + body if rng.random() < 0.9 else head + body.rstrip()).encode("ascii")
    if edit == 6:  # a byte that is neither a digit nor a separator
        at = int(rng.integers(len(raw) + 1))
        raw = raw[:at] + pick([b"x", b"\x00", b".", b"\x7f", b",", b"\xc3\xa9"]) + raw[at:]
    return raw


def test_read_matches_the_token_reference(tmp_path, monkeypatch):
    # seeded P2 files: the byte pass and the token reader accept the same
    # files with the same grids, and refuse the others with the same
    # message, in blocks of the default size and of a few tokens (the seam
    # test below tries blocks of every size on shorter files)
    path = tmp_path / "img.pgm"
    for block in (_io.BLOCK, 32):
        monkeypatch.setattr(_io, "BLOCK", block)
        rng = np.random.default_rng(17)
        accepted = refused = 0
        for _ in range(1500):
            raw = _p2_file(rng)
            path.write_bytes(raw)
            got = _outcome(read_pgm, path)
            assert got == _outcome(_read_by_tokens, path), (block, raw)
            accepted += not isinstance(got, str)
            refused += isinstance(got, str)
        assert accepted >= 600 and refused >= 300


_SEAM_BODIES = [
    "0 1 2 3\n4 5 6 7\n",
    "0 \t\r\n\x1f 1\x0b\x0c2   3\n\n4\x1c5\x1d6\x1e7",  # runs of separators, no final newline
    "65535 00001 12345 0\n99999 1 2 3\n",  # 5-digit tokens; 99999 is beyond maxval
    "0 1 2 3 4 5 6 123456\n",  # a token too long for the byte pass, in a later block
    "0 1 2 3 4 5 6 +7\n",
    "0 1 2 3\n4 5 6 7 # a comment\n",
    "0 1 2 3\n4 5 6 7 8\n",
    "x 1 2 3\n4 5 6 7\n",  # a refusal in the first block
]


def test_read_matches_the_reference_at_every_block_seam(tmp_path, monkeypatch):
    # every block size up to the file's length puts a cut at every separator
    path = tmp_path / "seam.pgm"
    for body in _SEAM_BODIES:
        raw = f"P2\n4 2\n65535 {body}".encode()
        path.write_bytes(raw)
        want = _outcome(_read_by_tokens, path)
        for block in range(1, len(raw) + 2):
            monkeypatch.setattr(_io, "BLOCK", block)
            assert _outcome(read_pgm, path) == want, (block, body)


def test_blocks_cut_whole_fields_just_past_the_block_size(monkeypatch):
    rng = np.random.default_rng(23)
    alphabet = b"0123456789#" + pgm._SPLIT
    for _ in range(300):
        body = bytes(alphabet[i] for i in rng.integers(len(alphabet), size=int(rng.integers(0, 60))))
        block = int(rng.integers(1, 20))
        monkeypatch.setattr(_io, "BLOCK", block)
        spans = blocks(body, pgm._SPLIT)
        assert spans[0][0] == 0 and spans[-1][1] == len(body)
        for (start, stop), (after, _) in zip(spans, spans[1:]):
            # a block stops at the first separator from start + BLOCK on,
            # which no block holds
            assert stop >= start + block and after == stop + 1 and body[stop] in pgm._SPLIT
            assert not any(c in pgm._SPLIT for c in body[start + block : stop])
        last = spans[-1][0]
        assert not any(c in pgm._SPLIT for c in body[last + block :])
        assert b" ".join(body[a:b] for a, b in spans).decode().split() == body.decode().split()


def test_separator_mask_is_membership_in_split():
    every_byte = np.arange(256, dtype=np.uint8)
    np.testing.assert_array_equal(pgm._separators(every_byte), np.isin(every_byte, list(pgm._SPLIT)))


def _decimal_fields_all_terms(b, sep, most):
    """Reference: the field values with all `most` digit terms summed."""
    digit = b - 48
    ends = np.flatnonzero(sep)
    width = np.diff(ends, prepend=-1) - 1
    terms = range(1, most + 1)
    return sum(digit.take(ends - i, mode="clip").astype(np.uint32) * 10 ** (i - 1) * (width >= i) for i in terms)


def test_decimal_fields_sum_only_the_terms_a_field_reaches():
    # blocks whose widest field has 1 to 5 digits (and one of 6, too wide)
    # give what all five terms give on every good field, flag the same bad
    # fields, and a block of separators alone gives no value but zeros
    rng = np.random.default_rng(29)
    for widest in range(1, 7):
        for _ in range(40):
            widths = np.append(rng.integers(0, widest + 1, size=int(rng.integers(0, 30))), widest)
            fields = [rng.choice(list(b"0123456789x"), size=w, p=[0.099] * 10 + [0.01]) for w in rng.permutation(widths)]
            gaps = [rng.choice(list(pgm._SPLIT), size=int(rng.integers(1, 3))) for _ in fields]
            raw = b"".join(bytes(f.tolist() + g.tolist()) for f, g in zip(fields, gaps))
            b = np.frombuffer(raw, np.uint8)
            ends, width, value, bad = _io._decimal_fields(b, pgm._separators(b), 5)
            assert value.dtype == np.uint32 and value.shape == ends.shape == width.shape == bad.shape
            assert width.max() == widest
            full = _decimal_fields_all_terms(b, pgm._separators(b), 5)
            np.testing.assert_array_equal(value[~bad], full[~bad])
            assert value[~bad].tolist() == [int(raw[e - w : e]) for e, w, x in zip(ends, width, bad) if not x]
            want_bad = np.array([w < 1 or w > 5 or b"x" in raw[e - w : e] for e, w in zip(ends, width)])
            np.testing.assert_array_equal(bad, want_bad)
    b = np.frombuffer(b" \t\n ", np.uint8)
    ends, width, value, bad = _io._decimal_fields(b, pgm._separators(b), 5)
    assert value.dtype == np.uint32 and value.tolist() == [0, 0, 0, 0] and bad.all()


def test_plain_bodies_take_the_byte_pass(tmp_path, monkeypatch):
    # every separator str.split cuts at, leading zeros, 5-digit values and
    # pixels on the fourth header token's line: only the header's three
    # numbers go through decimal_ints
    calls = []
    monkeypatch.setattr(pgm, "decimal_ints", lambda toks: calls.append(len(toks)) or decimal_ints(toks))
    path = tmp_path / "img.pgm"
    seps = [" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
    values = [0, 65535, 7, 12345, 100, 3, 65535, 0, 42, 9, 99, 65535]
    body = "".join(f"{v:0{1 + i % 5}d}{seps[i % len(seps)]}" for i, v in enumerate(values))
    path.write_text(f"P2 # magic\n4 3\r\n65535 {body}")
    want = np.rint(np.array(values).reshape(3, 4) * 255.0 / 65535).astype(np.int64)
    np.testing.assert_array_equal(read_pgm(path), want)
    assert calls == [3]
