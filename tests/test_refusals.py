"""Seeded refusal fuzzing of the command line: wrong run settings by flag,
config file and QCNN_SEED, and dataset, params and PGM files with flipped
bytes, truncations and non-ASCII bytes.  Every case exits 0 or 2 without a
traceback (an exception would fail the test), and every exit-2 message
names the flag, config key, QCNN_SEED or file the bad value came from."""
import dataclasses
import json

import numpy as np
import pytest

from qcnn.cli import EXIT_OK, EXIT_USAGE, entry
from qcnn.pgm import write_pgm
from qcnn.training import TrainConfig

FLAGS = {
    "arch": "--arch", "epochs": "--epochs", "batch_size": "--batch", "learning_rate": "--lr",
    "shots": "--shots", "grad_method": "--grad", "measure_mode": "--measure",
    "update_strategy": "--update", "eval_mode": "--eval-mode", "init_scheme": "--init", "seed": "--seed",
}
COUNTS = ("epochs", "batch_size", "shots", "seed")
CHOICES = ("arch", "grad_method", "measure_mode", "update_strategy", "eval_mode", "init_scheme")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("QCNN_SEED", raising=False)


def _run(argv, capsys) -> tuple:
    try:
        rc = entry(argv)
    except SystemExit as exc:  # argparse refusals
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_USAGE) and "Traceback" not in err, (argv, rc, err)
    return rc, err


def _outs(tmp_path) -> list:
    return ["--params-out", str(tmp_path / "p_out.txt"), "--curve-out", str(tmp_path / "c_out.csv")]


def _bad_values(rng, key) -> list:
    """A wrong type, out-of-range, non-finite and bool value of one setting,
    some of them drawn from rng."""
    n = int(rng.integers(1, 1000))
    common = [None, [n], {"v": n}, float("inf"), float("-inf"), float("nan"), True, False]
    if key in COUNTS:
        least = 0 if key == "seed" else 1
        return common + [str(n), n + 0.5, least - n, float(n)]
    if key == "learning_rate":
        return common + [f"{rng.uniform(1e-9, 1e-6):g}", 0, -rng.uniform(1e-9, 1.0), -n]
    return common + [n, f"bogus-{n}"]


def test_every_setting_is_fuzzed():
    assert set(FLAGS) == {f.name for f in dataclasses.fields(TrainConfig)} == set(COUNTS + CHOICES + ("learning_rate",))


@pytest.mark.parametrize("key", sorted(FLAGS))
def test_bad_config_values_name_their_key(tmp_path, capsys, key):
    rng = np.random.default_rng([14, len(key)])
    cfg = tmp_path / "run.json"
    for value in _bad_values(rng, key):
        if key == "arch" and value is None:
            continue  # a missing architecture is its own refusal
        cfg.write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 2, key: value}))
        rc, err = _run(["train", "--config", str(cfg)] + _outs(tmp_path), capsys)
        assert rc == EXIT_USAGE and f"config key '{key}' " in err, (key, value, err)
    assert not (tmp_path / "p_out.txt").exists()


@pytest.mark.parametrize("key", sorted(FLAGS))
def test_bad_flag_values_name_their_flag(tmp_path, capsys, key):
    rng = np.random.default_rng([15, len(key)])
    n = int(rng.integers(1, 1000))
    values = ["", " ", f"{n}x", "inf", "nan", "-inf", "true", f"٣{n}", f"{n}_0"]
    if key in COUNTS:
        values += [f"-{n}", f"{n}.5", f"{n}e2"] + ([] if key == "seed" else ["0"])
    elif key == "learning_rate":
        values += ["0", f"-{rng.uniform(1e-9, 1e-6):g}", f"-{rng.uniform(1e-9, 1e-6):e}", f"-.{n}", f"+{n}"]
    else:
        values += [f"bogus-{n}", str(n)]
    base = ["train", "--arch", "conv", "--epochs", "1", "--batch", "2"] + _outs(tmp_path)
    for value in values:
        rc, err = _run(base + [FLAGS[key], value], capsys)
        assert rc == EXIT_USAGE and FLAGS[key] in err, (key, value, err)
    assert not (tmp_path / "p_out.txt").exists()


def test_bad_env_seeds_name_qcnn_seed(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(16)
    draws = rng.integers(1, 10**6, size=4)
    values = ["", " ", "abc", "1.5", "inf", "nan", "+3", "1_0", "0x10", "٣", "²", "- 3"]
    values += [f"-{d}" for d in draws] + [f"{d}e3" for d in draws]
    values += ["".join(map(chr, rng.integers(33, 127, size=int(rng.integers(1, 6))))) + "z" for _ in range(8)]
    for value in values:
        monkeypatch.setenv("QCNN_SEED", value)
        for argv in (["gen", "--side", "2", "--count", "2", "--out", str(tmp_path / "d.csv")],
                     ["train", "--arch", "conv", "--epochs", "1", "--batch", "2"] + _outs(tmp_path)):
            rc, err = _run(argv, capsys)
            assert rc == EXIT_USAGE and "QCNN_SEED" in err, (value, argv, err)
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "p_out.txt").exists()


def _corruptions(rng, good: bytes, n: int):
    """n (kind, bytes): a random byte at a random place, a cut at a random
    length, or a non-ASCII byte put in at a random place."""
    for i in range(n):
        kind = ("flip", "cut", "non-ascii")[i % 3]
        at = int(rng.integers(0, len(good)))
        if kind == "flip":
            yield kind, good[:at] + bytes([int(rng.integers(0, 256))]) + good[at + 1:]
        elif kind == "cut":
            yield kind, good[:at]
        else:
            yield kind, good[:at] + bytes([int(rng.integers(128, 256))]) + good[at:]


@pytest.mark.parametrize("target", ["dataset", "params", "pgm", "config"])
def test_corrupted_files_name_the_file(tmp_path, capsys, target):
    rng = np.random.default_rng([17, len(target)])
    data, params, img, cfg, bad = (tmp_path / n for n in ("d.csv", "p.txt", "in.pgm", "c.json", f"bad-{target}"))
    entry(["gen", "--side", "2", "--count", "6", "--seed", "3", "--out", str(data)])
    params.write_text("".join(f"{v:.17g}\n" for v in rng.uniform(-np.pi, np.pi, 4)), encoding="ascii")
    write_pgm(img, rng.integers(0, 256, size=(4, 6)))
    cfg.write_text('{\n  "arch": "conv",\n  "epochs": 1,\n  "batch_size": 2,\n  "learning_rate": 1e-7\n}\n')
    capsys.readouterr()
    good = {"dataset": data, "params": params, "pgm": img, "config": cfg}[target].read_bytes()
    commands = {
        "dataset": [["eval", "--params", str(params), "--data", str(bad)],
                    ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--data", str(bad)] + _outs(tmp_path)],
        "params": [["eval", "--params", str(bad), "--data", str(data)],
                   ["featmap", "--in", str(img), "--params", str(bad), "--out", str(tmp_path / "o.pgm")]],
        "pgm": [["featmap", "--in", str(bad), "--params", str(params), "--out", str(tmp_path / "o.pgm")]],
        "config": [["train", "--config", str(bad)] + _outs(tmp_path)],
    }[target]
    # a config value that still parses is refused by its key, as a flag's is
    sources = (str(bad), "error: config key '") if target == "config" else (str(bad),)
    refused = 0
    for kind, content in _corruptions(rng, good, 60):
        bad.write_bytes(content)
        for argv in commands:
            rc, err = _run(argv, capsys)
            if rc == EXIT_USAGE:
                refused += 1
                assert any(source in err for source in sources), (kind, content, argv, err)
            if kind == "non-ascii":
                assert rc == EXIT_USAGE and "non-ASCII byte" in err, (content, argv, err)
    assert refused >= 20 * len(commands)


def test_shots_beyond_int64_name_their_source(tmp_path, capsys):
    # sampled readouts draw Generator.binomial(shots, p), which takes shots
    # up to 2**63 - 1; a larger count is refused before the run starts
    base = ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--eval-mode", "sampled"] + _outs(tmp_path)
    for value in (str(2**63), "99999999999999999999"):
        rc, err = _run(base + ["--shots", value], capsys)
        assert rc == EXIT_USAGE and "error: --shots must be " in err, (value, err)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 2, "eval_mode": "sampled", "shots": 2**63}))
    rc, err = _run(["train", "--config", str(cfg)] + _outs(tmp_path), capsys)
    assert rc == EXIT_USAGE and "error: config key 'shots' must be " in err, err
    assert not (tmp_path / "p_out.txt").exists()
    rc, err = _run(base + ["--shots", str(2**63 - 1)], capsys)
    assert rc == EXIT_OK and (tmp_path / "p_out.txt").exists(), err


def test_configs_json_cannot_take_name_the_file(tmp_path, capsys):
    # nesting deeper than the recursion limit, and an integer of more digits
    # than Python converts, are refused as any other bad JSON is
    cfg = tmp_path / "run.json"
    for content in ("[" * 100000, '{"arch": "conv", "seed": ' + "9" * 5000 + "}", '{"arch": "conv",}'):
        cfg.write_text(content)
        rc, err = _run(["train", "--config", str(cfg)] + _outs(tmp_path), capsys)
        assert rc == EXIT_USAGE and err.startswith(f"error: {cfg}: not valid JSON: "), err[:200]
    cfg.unlink()
    rc, err = _run(["train", "--config", str(cfg)] + _outs(tmp_path), capsys)
    assert rc == EXIT_USAGE and err.startswith(f"error: {cfg}: "), err
    assert not (tmp_path / "p_out.txt").exists()


# each format's lines, the third holding a non-ASCII byte, then the same
# lines with a fault of that format on the third line and what its
# refusal says; a PGM refusal names no line
_LINES = {
    "dataset": (["label,p0,p1,p2,p3", "1,5,5,5,5", "0,1,\xff,3,4"],
                ["label,p0,p1,p2,p3", "1,5,5,5,5", "0,1,256,3,4"], "line 3: pixel out of range 0..255"),
    "params": (["0.1", "0.2", "0.3\xff", "0.4"], ["0.1", "0.2", "0.3x", "0.4"], "line 3: parameter file must hold"),
    "pgm": (["P2", "2 2", "255 \xff", "0 1 2 3"], None, None),
    "config": (['{"arch": "conv",', '"epochs": 1,', '"batch_size": 2\xff}'],
               ['{"arch": "conv",', '"epochs": 1,', '"batch_size" 2}'], "line 3 column 14"),
}


@pytest.mark.parametrize("brk", [b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1e"], ids=repr)
@pytest.mark.parametrize("target", sorted(_LINES))
def test_every_reader_counts_lines_as_splitlines_does(tmp_path, capsys, target, brk):
    data, params, img, bad = (tmp_path / n for n in ("d.csv", "p.txt", "in.pgm", f"bad-{target}"))
    entry(["gen", "--side", "2", "--count", "6", "--seed", "3", "--out", str(data)])
    params.write_text("0.1\n0.2\n0.3\n0.4\n")
    write_pgm(img, np.zeros((2, 2), int))
    argv = {
        "dataset": ["eval", "--params", str(params), "--data", str(bad)],
        "params": ["eval", "--params", str(bad), "--data", str(data)],
        "pgm": ["featmap", "--in", str(bad), "--params", str(params), "--out", str(tmp_path / "o.pgm")],
        "config": ["train", "--config", str(bad)] + _outs(tmp_path),
    }[target]
    non_ascii, faulty, want = _LINES[target]
    capsys.readouterr()
    bad.write_bytes(brk.join(line.encode("latin-1") for line in non_ascii) + brk)
    rc, err = _run(argv, capsys)
    assert rc == EXIT_USAGE and err == f"error: {bad}: line 3: non-ASCII byte 0xff\n", err
    if faulty:
        bad.write_bytes(brk.join(line.encode() for line in faulty) + brk)
        rc, err = _run(argv, capsys)
        assert rc == EXIT_USAGE and err.startswith(f"error: {bad}: ") and want in err, err
