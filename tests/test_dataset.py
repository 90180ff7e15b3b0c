"""Synthetic dataset generation and the CSV round trip, including the line
diagnostics of the loader.  The block draw and the byte-level parse are
checked against per-row references: numpy's own rng.integers calls, and
the line-by-line loader."""
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qcnn import _io
from qcnn._io import decimal_ints, read_ascii_lines
from qcnn.dataset import (
    VALID_SIDES,
    Dataset,
    DatasetFormatError,
    LabeledImage,
    _rows_from_words,
    gen_dataset,
    load_dataset,
    save_dataset,
)


def gen_sample(side: int, rng) -> LabeledImage:
    """Reference: one labeled image from per-row rng.integers calls.  Noise
    samples that come out accidentally uniform are redrawn, so label 0
    always shows at least two intensities."""
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


class _Words:
    """A scripted word stream read two ways: in blocks by draw(m), as
    gen_dataset reads PCG64, and by integers(0, 2 or 256), as gen_sample
    reads it (a power-of-two range is the top bits of one word)."""

    def __init__(self, words):
        self.words, self.at, self.sizes = np.asarray(words, dtype=np.uint32), 0, []

    def _take(self, m):
        self.at += m
        assert self.at <= len(self.words), "the script ran out"
        return self.words[self.at - m : self.at]

    def draw(self, m):
        self.sizes.append(m)
        return self._take(m) if self.at + m <= len(self.words) else np.zeros(m, dtype=np.uint32)

    def integers(self, low, high, size=None):
        words = self._take(1 if size is None else size) >> {2: 31, 256: 24}[high]
        return int(words[0]) if size is None else words.astype(np.int64)


def _assert_rows_match(side, n, words):
    """_rows_from_words on `words` gives gen_sample's n rows on them; returns
    how many blocks it drew."""
    block, rows = _Words(words), _Words(words)
    labels, pixels = _rows_from_words(n, side * side, block.draw)
    want = [gen_sample(side, rows) for _ in range(n)]
    np.testing.assert_array_equal(labels, [s.label for s in want])
    np.testing.assert_array_equal(pixels, [s.pixels for s in want])
    return len(block.sizes)


class _Stop(Exception):
    pass


def _first_draw(n, k):
    """How many words _rows_from_words asks for first, for n rows of k pixels."""
    sizes = []

    def draw(m):
        sizes.append(m)
        raise _Stop

    with pytest.raises(_Stop):
        _rows_from_words(n, k, draw)
    return sizes[0]


def _rows_taking(n, k, total, rng):
    """Words of n rows that take exactly `total` words: label 0 rows take
    k - 1 words more than label 1 rows, and each uniform pixel block drawn
    again k more, so as many label 0 rows as fit, then uniform blocks."""
    spare = total - 2 * n
    zeros = max(b for b in range(n + 1) if (k - 1) * b <= spare and (spare - (k - 1) * b) % k == 0)
    uniform = np.bincount(rng.integers(0, zeros, size=(spare - (k - 1) * zeros) // k), minlength=zeros)
    labels = rng.permutation([0] * zeros + [1] * (n - zeros))
    rows, redraws = [], iter(uniform)
    for label in labels:
        rows.append([(int(label) << 31) | int(rng.integers(0, 2**31))])
        if label:
            rows.append(rng.integers(0, 2**32, size=1))
            continue
        for _ in range(next(redraws)):
            rows.append((int(rng.integers(0, 256)) << 24) | rng.integers(0, 2**24, size=k))
        noise = rng.integers(0, 2**32, size=k)
        noise[1] = noise[0] ^ (1 << 24)  # two intensities, so this block is kept
        rows.append(noise)
    words = np.concatenate(rows).astype(np.uint32)
    assert len(words) == total
    return words


@pytest.mark.parametrize("side", VALID_SIDES)
def test_gen_dataset_matches_per_row_draws(side):
    for seed in [*range(20), 2**62 + 5]:
        got = gen_dataset(500, side, seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        want = [gen_sample(side, rng) for _ in range(500)]
        assert got.side == side and got.labels.dtype == got.pixels.dtype == np.uint8
        np.testing.assert_array_equal(got.labels, [s.label for s in want])
        np.testing.assert_array_equal(got.pixels, [s.pixels for s in want])


@pytest.mark.parametrize("side", VALID_SIDES)
def test_block_draw_redraws_uniform_noise(side):
    # no seed reaches a uniform noise draw (odds 256^-(k-1) a row), so the
    # stream is scripted: label 0 rows whose first one and two blocks of k
    # pixel words share one top byte under different low bits
    k = side * side
    rng = np.random.default_rng(side)
    noise = rng.integers(0, 2**32, size=(6, k), dtype=np.uint32)
    flat = (np.uint32(77 << 24) | rng.integers(0, 2**24, size=(3, k), dtype=np.uint32))
    label0, label1 = np.uint32(5), np.uint32(2**31 + 5)
    words = np.concatenate([[label0], flat[0], noise[0], [label1, 123 << 24], [label0], flat[1], flat[2], noise[1],
                            [label0], noise[2], rng.integers(0, 2**32, size=40 * k, dtype=np.uint32)])
    _assert_rows_match(side, 4, words)
    labels, pixels = _rows_from_words(4, k, _Words(words).draw)
    assert labels.tolist() == [0, 1, 0, 0]
    np.testing.assert_array_equal(pixels[[0, 2, 3]], noise[:3] >> 24)
    assert pixels[1].tolist() == [123] * k


@pytest.mark.parametrize("side", VALID_SIDES)
def test_block_draw_extends_its_block(side):
    # all label 0 rows take k + 1 words each, more than the first block's
    # (k + 3) / 2 a row plus three standard deviations of (k - 1) / 2 sqrt(n);
    # a uniform block straddles where the first block ends
    k, n = side * side, 40
    rng = np.random.default_rng(10 + side)
    words = rng.integers(0, 2**31, size=3 * n * (k + 1), dtype=np.uint32)  # top bit 0: label 0
    first = n * (k + 3) // 2 + 3 * (math.isqrt(n) + 1) * (k - 1) // 2 + 2 * k
    assert first == _first_draw(n, k) < n * (k + 1)
    at = first - first % (k + 1) + 1  # a row's first pixel word before the first block's end
    assert at < first < at + k
    words[at : at + k] = (words[at : at + k] & 0xFFFFFF) | (200 << 24)
    assert _assert_rows_match(side, n, words) >= 2


@pytest.mark.parametrize("side", VALID_SIDES)
def test_block_draw_at_every_doubling_edge(side):
    # the row heads double from [0] until there are n + 1 of them: n one
    # short of, at, and one past a power of two
    k = side * side
    rng = np.random.default_rng(20 + side)
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65):
        words = rng.integers(0, 2**32, size=3 * (n + 10) * (k + 1), dtype=np.uint32)
        assert _assert_rows_match(side, n, words) == 1


@pytest.mark.parametrize("side", VALID_SIDES)
def test_block_draw_whose_last_row_ends_on_the_last_word(side):
    # the n rows take exactly the first draw's m words, so the head after
    # the last row is m, and the rows are complete; one word more and the
    # last row ends on the second draw's first word
    k, n = side * side, 100
    rng = np.random.default_rng(30 + side)
    first = _first_draw(n, k)
    more = rng.integers(0, 2**32, size=first, dtype=np.uint32)
    assert _assert_rows_match(side, n, np.concatenate((_rows_taking(n, k, first, rng), more))) == 1
    assert _assert_rows_match(side, n, np.concatenate((_rows_taking(n, k, first + 1, rng), more))) == 2


def test_first_draw_nearly_always_holds_the_batch():
    # a 2x2 row takes 3.5 +- 1.5 words; the first draw covers about three
    # standard deviations over the mean, so almost no batch draws again
    n, k = 1000, 4
    assert _first_draw(n, k) <= n * 3.5 + 4 * 1.5 * math.sqrt(n) + 2 * k
    once = 0
    for seed in range(200):
        rng = np.random.Generator(np.random.PCG64(seed))
        words = _Words(rng.integers(0, 2**32, size=2 * n * (k + 3), dtype=np.uint32))
        _rows_from_words(n, k, words.draw)
        once += len(words.sizes) == 1
    assert once >= 198


@pytest.mark.parametrize("side, digest", [
    (2, "f2227ac90b08cc84af6ee3f0396847572b3fdae9d69ad5d94b8401210a537099"),
    (4, "a49ee209fbe94ec9243dea8e738ae5dc41b4d65c7e72577a111e5fd51db19077"),
    (8, "30018e8bd9ddfc37bcb1deedf3123a3abf923e880d3f58ed822dfd9b54d255a6"),
])
def test_gen_dataset_matches_recorded_digests(side, digest):
    # 5000 rows take 13 doublings of the row heads; the digests were
    # recorded with the per-row reading of the same words
    data = gen_dataset(5000, side, 7)
    assert hashlib.sha256(data.labels.tobytes() + data.pixels.tobytes()).hexdigest() == digest


def test_gen_dataset_deterministic():
    a = gen_dataset(40, 4, seed=9)
    b = gen_dataset(40, 4, seed=9)
    assert [s.label for s in a] == [s.label for s in b]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.pixels, y.pixels)
    c = gen_dataset(40, 4, seed=10)
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


def test_gen_sample_class_semantics():
    for side in VALID_SIDES:
        for s in gen_dataset(200, side, seed=3):
            if s.label == 1:
                assert np.all(s.pixels == s.pixels[0])
            else:
                assert not np.all(s.pixels == s.pixels[0])


def test_gen_dataset_rough_class_balance():
    samples = gen_dataset(400, 2, seed=5)
    ones = sum(s.label for s in samples)
    assert 140 <= ones <= 260


def test_gen_validation():
    with pytest.raises(ValueError):
        gen_dataset(1, 3, seed=0)
    with pytest.raises(ValueError):
        gen_dataset(0, 2, seed=1)


def test_dataset_items_are_labeled_images():
    data = gen_dataset(30, 4, seed=12)
    assert isinstance(data, Dataset) and len(data) == 30
    assert data.labels.shape == (30,) and data.pixels.shape == (30, 16)
    rows = list(data)
    assert all(isinstance(s, LabeledImage) and s.side == 4 for s in rows)
    assert [s.label for s in rows] == data.labels.tolist()
    np.testing.assert_array_equal([s.pixels for s in rows], data.pixels)
    assert data[7].label == data.labels[7] and np.array_equal(data[-1].pixels, data.pixels[-1])
    part = data[5:9]
    assert isinstance(part, Dataset) and part.side == 4 and len(part) == 4
    np.testing.assert_array_equal(part.pixels, data.pixels[5:9])


def test_rows_and_datasets_compare_by_identity():
    # == answers, rather than raising on the arrays: distinct objects of
    # equal content are unequal, and each object equals itself
    a, b = gen_dataset(2, 2, 0), gen_dataset(2, 2, 0)
    row, other = a[0], b[0]
    np.testing.assert_array_equal(row.pixels, other.pixels)
    assert row != other and a != b
    assert row == row and a == a
    assert len({row, other, a, b}) == 4


def test_gen_dataset_refusals_name_the_parameter():
    # each refusal starts with the parameter's name, and a side is refused
    # before any row is drawn
    for args, name in (((0, 2, 1), "n"), ((2.0, 2, 1), "n"), ((1, 3, 1), "side"), ((1, 2.0, 1), "side"), ((1, 2**20, 1), "side"),
                       ((1, 2, -1), "seed"), ((1, 2, 1.5), "seed"), ((1, 2, True), "seed")):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            gen_dataset(*args)


def test_gen_dataset_refuses_an_n_too_large_to_draw():
    # 10**21 rows take more words than any numpy array can hold
    with pytest.raises(ValueError, match=f"^n is too large to draw: {10**21} rows take "):
        gen_dataset(10**21, 8, 0)


def test_gen_dataset_refuses_an_n_whose_draw_runs_out_of_memory(no_memory):
    with pytest.raises(ValueError, match="^n is too large to draw: 3 rows take "):
        gen_dataset(3, 2, 0)


def test_labeled_image_validation():
    img = LabeledImage(2, [0, 1, 2, 3], 1)
    np.testing.assert_array_equal(img.pixels.reshape(img.side, img.side), [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        LabeledImage(3, list(range(9)), 0)  # side not supported
    with pytest.raises(ValueError):
        LabeledImage(2, [0, 1, 2], 0)  # wrong pixel count
    with pytest.raises(ValueError):
        LabeledImage(2, [0, 1, 2, 300], 0)  # out of range
    with pytest.raises(ValueError):
        LabeledImage(2, [0, 1, 2, 3], 2)  # bad label
    assert set(VALID_SIDES) == {2, 4, 8}


def test_labeled_image_refuses_what_is_not_an_integer_pixel_or_label():
    # the row rule reads a value as encoding.pixel_cos does: a fraction, a
    # bool or a str is not an intensity, however numpy would convert it
    for pixels in ([0.5, 1.9, 2, 254.99], [0, 1, 2, 3.5], np.array([0, 1, 2, 0.5]), [True, 1, 2, 3],
                   [0, 1, np.True_, 3], np.ones(4, bool), ["1", "2", "3", "4"], np.array(["1", "2", "3", "4"]),
                   [0, 1, 2, None], [0, 1, 2, 1j]):
        with pytest.raises(ValueError, match="^pixels must be integers$"):
            LabeledImage(2, pixels, 0)
    for label in (True, False, np.True_):
        with pytest.raises(ValueError, match="^label must be 0 or 1, got "):
            LabeledImage(2, [0, 1, 2, 3], label)
    # integers out of range keep their text, however large
    for pixels in ([0, 1, 2, 256], [-1, 0, 0, 0], [0, 0, 0, 2**70], [0, 0, 0, -(10**400)], [0, 0, 0, float("inf")],
                   [0, 0, 0, float("nan")], np.array([0, 0, 0, 2**63 - 1])):
        with pytest.raises(ValueError, match=r"^pixel out of range 0\.\.255$"):
            LabeledImage(2, pixels, 1)
    # integral values of any numeric type stay valid
    for pixels in (np.zeros(4), [0.0, 1.0, 254.0, 255.0], np.arange(4, dtype=np.uint8), np.arange(4, dtype=np.int64),
                   [np.int64(7), 8, 9.0, np.uint8(10)], [[0, 1], [2, 3]]):
        row = LabeledImage(2, pixels, np.int64(1))
        assert row.pixels.dtype == np.int64 and row.pixels.shape == (4,)
        np.testing.assert_array_equal(row.pixels, np.asarray(pixels).reshape(-1))


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "set.csv"
    samples = gen_dataset(25, 8, seed=77)
    save_dataset(samples, path)
    back = load_dataset(path)
    assert len(back) == 25
    for x, y in zip(samples, back):
        assert x.label == y.label and x.side == y.side
        np.testing.assert_array_equal(x.pixels, y.pixels)


def test_save_validation(tmp_path):
    with pytest.raises(ValueError):
        save_dataset([], tmp_path / "nope.csv")
    mixed = [gen_dataset(1, 2, seed=0)[0], gen_dataset(1, 4, seed=0)[0]]
    with pytest.raises(ValueError):
        save_dataset(mixed, tmp_path / "mixed.csv")


def test_csv_layout_frozen(tmp_path):
    path = tmp_path / "tiny.csv"
    save_dataset([LabeledImage(2, [7, 0, 255, 13], 1)], path)
    assert path.read_text() == "label,p0,p1,p2,p3\n1,7,0,255,13\n"


def _write(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    return p


def test_load_rejects_bad_header(tmp_path):
    p = _write(tmp_path, "label,a,b,c,d\n1,0,0,0,0\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(p)
    p = _write(tmp_path, "label,p0,p1,p2\n")  # 3 pixels is not a square image
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(p)
    p = _write(tmp_path, "")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(p)


def test_load_rejects_bad_rows(tmp_path):
    head = "label,p0,p1,p2,p3\n"
    p = _write(tmp_path, head + "1,0,0,0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(p)
    p = _write(tmp_path, head + "1,0,0,0,0\n2,0,0,0,0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(p)
    p = _write(tmp_path, head + "1,0,0,x,0\n")
    with pytest.raises(DatasetFormatError, match="non-integer"):
        load_dataset(p)
    p = _write(tmp_path, head + "0,0,0,256,0\n")
    with pytest.raises(DatasetFormatError, match="0..255"):
        load_dataset(p)
    for text in (head, head + "\n\n"):
        p = _write(tmp_path, text)
        with pytest.raises(DatasetFormatError, match=r"bad\.csv: dataset is empty"):
            load_dataset(p)


def test_labeled_image_refuses_a_loaded_row(tmp_path):
    # the loader parses; LabeledImage's rules refuse the row, and the
    # error names the file and line
    p = _write(tmp_path, "label,p0,p1,p2,p3\n1,0,0,0,0\n0,0,0,99999999999999999999,0\n")  # beyond int64
    with pytest.raises(DatasetFormatError, match=r"bad\.csv: line 3: pixel out of range 0..255"):
        load_dataset(p)
    p = _write(tmp_path, "label," + ",".join(f"p{i}" for i in range(9)) + "\n" + ",".join("0" * 10) + "\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv: line 2: side must be one of \(2, 4, 8\), got 3"):
        load_dataset(p)


def test_load_reads_plain_decimal_integers_only(tmp_path):
    # int() would read these as 10, 7 and 3; a dataset holds digits only
    head = "label,p0,p1,p2,p3\n"
    for row in ("1,1_0,7,3,4", "1,10, 7,3,4", "1,10,7,+3,4", "1,10,7,3,4 ", "1,10,7,-,4"):
        p = _write(tmp_path, head + row + "\n")
        with pytest.raises(DatasetFormatError, match="line 2: non-integer"):
            load_dataset(p)
    p = _write(tmp_path, head + "1,-1,7,3,4\n")
    with pytest.raises(DatasetFormatError, match="line 2: pixel out of range 0..255"):
        load_dataset(p)
    # a non-ASCII byte names the file and its line, not the codec
    p = tmp_path / "bad.csv"
    p.write_bytes((head + "1,5,5,5,5\n0,1,2,").encode() + "\u0663".encode() + b",4\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv: line 3: non-ASCII byte 0xd9"):
        load_dataset(p)


def test_load_tolerates_blank_lines(tmp_path):
    p = _write(tmp_path, "label,p0,p1,p2,p3\n1,5,5,5,5\n\n0,1,2,3,4\n")
    back = load_dataset(p)
    assert [s.label for s in back] == [1, 0]


def _load_by_lines(path) -> list:
    """Reference: the line-by-line loader that the byte pass stands in for,
    every row through decimal_ints and LabeledImage."""
    lines = read_ascii_lines(path, DatasetFormatError)
    if not lines:
        raise DatasetFormatError(f"{path}: line 1: empty file")
    k = lines[0].count(",")
    side = math.isqrt(k)
    if lines[0] != "label," + ",".join(f"p{i}" for i in range(k)) or side * side != k:
        raise DatasetFormatError(f"{path}: line 1: header {lines[0][:80]!r} is not label,p0,...,pN of a square image")
    samples = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise DatasetFormatError(f"{path}: line {ln}: expected {k + 1} columns, got {len(parts)}")
        try:
            values = decimal_ints(parts)
            samples.append(LabeledImage(side, values[1:], values[0]))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {ln}: {exc}") from None
    if not samples:
        raise DatasetFormatError(f"{path}: dataset is empty")
    return samples


def _outcome(load, path):
    try:
        rows = list(load(path))
    except DatasetFormatError as exc:
        return str(exc)
    return rows[0].side, [s.label for s in rows], [s.pixels.tolist() for s in rows]


def test_load_refusals_are_byte_identical(tmp_path):
    p = tmp_path / "bad.csv"
    head = b"label,p0,p1,p2,p3\n"
    cases = [
        (b"", "line 1: empty file"),
        (b"label,a,b,c,d\n1,0,0,0,0\n", "line 1: header 'label,a,b,c,d' is not label,p0,...,pN of a square image"),
        (head + b"1,0,0,0\n", "line 2: expected 5 columns, got 4"),
        (head + b"1,0,0,0,0\n2,0,0,0,0\n", "line 3: label must be 0 or 1, got 2"),
        (head + b"1,0,0,x,0\n", "line 2: non-integer value"),
        (head + b"1,0,0,,0\n", "line 2: non-integer value"),
        (head + b"0,0,0,256,0\n", "line 2: pixel out of range 0..255"),
        (head + b"0,0,0,1000,0\n", "line 2: pixel out of range 0..255"),
        (head + b"0,0,0,-1,0\n", "line 2: pixel out of range 0..255"),
        (head + b"1,0,0,0,0\n0,0,0,99999999999999999999,0\n", "line 3: pixel out of range 0..255"),
        (b"label," + b",".join(b"p%d" % i for i in range(9)) + b"\n" + b",".join([b"0"] * 10) + b"\n",
         "line 2: side must be one of (2, 4, 8), got 3"),
        (head + b"1,5,5,5,5\n0,1,2," + "٣".encode() + b",4\n", "line 3: non-ASCII byte 0xd9"),
        (head + b"\n\n", "dataset is empty"),
        # lines are numbered as str.splitlines cuts them: \r\n is one break, \f is one more
        (head[:-1] + b"\r\n1,1,1,1,1\r\n0,1,2,3,256\r\n", "line 3: pixel out of range 0..255"),
        (head + b"1,1,1\x0c1,1\n", "line 2: expected 5 columns, got 3"),
        (head + b"\n1,1,1,1,1\n\n0,0,0,0,300\n", "line 5: pixel out of range 0..255"),
        (head + b"1,2,2,2,2\n\n0,1,2,3,4\n0,1,2,3,4,5\n", "line 5: expected 5 columns, got 6"),
        (head[:-1] + b"\r1,2,2,2,2\r\n\n0,1,2,3,9999", "line 4: pixel out of range 0..255"),
        (b"label," + b",".join(b"p%d" % i for i in range(9)) + b"\n\n\n" + b",".join([b"0"] * 10) + b"\n",
         "line 4: side must be one of (2, 4, 8), got 3"),
    ]
    for content, want in cases:
        p.write_bytes(content)
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}: {want}", content


def test_load_accepts_minus_zero_and_leading_zeros(tmp_path):
    p = _write(tmp_path, "label,p0,p1,p2,p3\n0,-0,007,0255,00\n-0,1,1,1,1\n1,2,2,2,2")
    data = load_dataset(p)
    assert data.labels.tolist() == [0, 0, 1]
    assert data.pixels.tolist() == [[0, 7, 255, 0], [1, 1, 1, 1], [2, 2, 2, 2]]


def test_load_names_the_first_of_several_bad_lines(tmp_path):
    bad = {"1,0,0,0": "expected 5 columns, got 4", "1,0,x,0,0": "non-integer value",
           "0,0,0,0,256": "pixel out of range 0..255", "3,0,0,0,0": "label must be 0 or 1, got 3"}
    for first, second, third in itertools.permutations(bad, 3):
        p = _write(tmp_path, "\n".join(["label,p0,p1,p2,p3", "1,1,1,1,1", first, "0,1,2,3,4", second, third]) + "\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}: line 3: {bad[first]}"


def test_load_matches_the_line_by_line_reference(tmp_path, monkeypatch):
    # seeded edits of saved datasets: the byte pass and the row rule accept
    # the same files with the same rows, and refuse the others with the
    # same message, in blocks of the default size and of a few bytes
    goods = []
    for side, n in ((2, 6), (4, 4), (8, 2)):
        save_dataset(gen_dataset(n, side, seed=side), tmp_path / "good.csv")
        goods.append((tmp_path / "good.csv").read_bytes())
    alphabet = b"0123456789,\n-+ \r\x0b\x0c\x1ex"
    p = tmp_path / "edited.csv"
    for block in (_io.BLOCK, 5):
        monkeypatch.setattr(_io, "BLOCK", block)
        rng = np.random.default_rng(18)
        accepted = 0
        for i in range(600):
            edited, chars = bytearray(goods[i % 3]), alphabet if i % 2 else b"0123456789-"
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(len(edited) + 1))
                byte = chars[int(rng.integers(len(chars)))]
                edited[at : at + int(rng.integers(0, 2))] = bytes([byte])  # replace or insert one byte
            p.write_bytes(bytes(edited))
            got = _outcome(load_dataset, p)
            assert got == _outcome(_load_by_lines, p), (block, bytes(edited))
            accepted += not isinstance(got, str)
        assert accepted >= 40


_SEAM_FILES = [
    b"1,5,5,5,5\n\n0,1,2,3,4\n\n\n1,9,9,9,9\n",  # blank lines: a block ends at one
    b"1,5,5,5,5\n0,1,2,3,4\n",  # a block ends at the final newline
    b"1,5,5,5,5\n0,1,2,3,4",  # no final newline
    b"1,5,5,5,5\n0,1,2,3,4\n\n",
    b"\n1,255,0,17,200\n0,007,-0,1,2\n1,1,1,1,1",  # a leading blank, rows for the row rule
    b"1,5,5,5,5\n0,1,2,3,4\n1,0,0,0,256\n",  # a refusal in a later block
    b"1,5,5,5,5\n0,1,2,3,4\n1,0,0,0\n0,1,1,1,1\n",
    b"1,5,5,5,5\r\n0,1,2,3,4\r\n1,0,0,0,300\r\n",  # other breaks: the lines str.splitlines cuts
    b"1,5,5,5,5\r\n0,1,2,3,4\r\n",
    b"1,5,5,5,5\x0c0,1,2,3,4\r\n\x1e1,0,0,0\n",
    b"\n\n\n",
]


def test_load_matches_the_reference_at_every_block_seam(tmp_path, monkeypatch):
    # every block size up to the body's length puts a cut after every line
    p = tmp_path / "seam.csv"
    for body in _SEAM_FILES:
        p.write_bytes(b"label,p0,p1,p2,p3\n" + body)
        want = _outcome(_load_by_lines, p)
        for block in range(1, len(body) + 2):
            monkeypatch.setattr(_io, "BLOCK", block)
            assert _outcome(load_dataset, p) == want, (block, body)


def test_load_peaks_at_a_few_times_the_file_size(tmp_path):
    # the byte pass holds one block's int64 field arrays at a time, not the
    # whole file's, and only the lines it does not vouch for are decoded:
    # the file is never held as one str
    p = tmp_path / "big.csv"
    save_dataset(gen_dataset(20000, 8, seed=3), p)
    size = p.stat().st_size
    tracemalloc.start()
    try:
        data = load_dataset(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 20000
    assert peak < 3.5 * size, peak / size


def test_a_late_non_ascii_byte_names_its_line(tmp_path):
    p = tmp_path / "late.csv"
    save_dataset(gen_dataset(20000, 8, seed=3), p)
    p.write_bytes(p.read_bytes() + b"0,1,\xd9")
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(p)
    assert str(info.value) == f"{p}: line 20002: non-ASCII byte 0xd9"
