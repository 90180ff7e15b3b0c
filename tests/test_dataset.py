"""Synthetic dataset generation and the CSV round trip, including the line
diagnostics of the loader."""
import numpy as np
import pytest

from qcnn.dataset import (
    VALID_SIDES,
    DatasetFormatError,
    LabeledImage,
    gen_dataset,
    gen_sample,
    load_dataset,
    save_dataset,
)


def test_gen_dataset_deterministic():
    a = gen_dataset(40, 4, seed=9)
    b = gen_dataset(40, 4, seed=9)
    assert [s.label for s in a] == [s.label for s in b]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.pixels, y.pixels)
    c = gen_dataset(40, 4, seed=10)
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


def test_gen_sample_class_semantics():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = gen_sample(2, rng)
        if s.label == 1:
            assert np.all(s.pixels == s.pixels[0])
        else:
            assert not np.all(s.pixels == s.pixels[0])


def test_gen_dataset_rough_class_balance():
    samples = gen_dataset(400, 2, seed=5)
    ones = sum(s.label for s in samples)
    assert 140 <= ones <= 260


def test_gen_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_sample(3, rng)
    with pytest.raises(ValueError):
        gen_dataset(0, 2, seed=1)


def test_gen_dataset_refusals_name_the_parameter():
    # each refusal starts with the parameter's name, and a side is refused
    # before any row is drawn
    for args, name in (((0, 2, 1), "n"), ((2.0, 2, 1), "n"), ((1, 3, 1), "side"), ((1, 2.0, 1), "side"), ((1, 2**20, 1), "side"),
                       ((1, 2, -1), "seed"), ((1, 2, 1.5), "seed"), ((1, 2, True), "seed")):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            gen_dataset(*args)


def test_labeled_image_validation():
    img = LabeledImage(2, [0, 1, 2, 3], 1)
    np.testing.assert_array_equal(img.grid(), [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        LabeledImage(3, list(range(9)), 0)  # side not supported
    with pytest.raises(ValueError):
        LabeledImage(2, [0, 1, 2], 0)  # wrong pixel count
    with pytest.raises(ValueError):
        LabeledImage(2, [0, 1, 2, 300], 0)  # out of range
    with pytest.raises(ValueError):
        LabeledImage(2, [0, 1, 2, 3], 2)  # bad label
    assert set(VALID_SIDES) == {2, 4, 8}


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
