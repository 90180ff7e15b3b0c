"""End-to-end command-line checks: exit codes, output files, seed
precedence, and byte-level reproducibility."""
import argparse
import dataclasses
import enum
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import qcnn
from qcnn.cli import EXIT_OK, EXIT_USAGE, _build_parser, entry
from qcnn.dataset import load_dataset
from qcnn.network import Architecture, ModelParams
from qcnn.pgm import read_pgm, write_pgm
from qcnn.training import TrainConfig, evaluate


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("QCNN_SEED", raising=False)


def _write_params(path, values):
    path.write_text("".join(f"{v}\n" for v in values), encoding="ascii")


def test_gen_writes_dataset_and_summary(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = entry(["gen", "--side", "2", "--count", "12", "--seed", "4", "--out", str(out)])
    assert rc == EXIT_OK
    line = capsys.readouterr().out.strip()
    samples = load_dataset(out)
    ones = sum(s.label for s in samples)
    assert len(samples) == 12 and all(s.side == 2 for s in samples)
    assert line == f"wrote 12 samples to {out} (label 1: {ones}, label 0: {12 - ones})"


def test_gen_rejects_invalid_side_and_count(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    assert entry(["gen", "--side", "3", "--count", "5", "--out", out]) == EXIT_USAGE
    assert "2, 4, 8" in capsys.readouterr().err
    assert entry(["gen", "--side", "2", "--count", "0", "--out", out]) == EXIT_USAGE
    assert "at least 1" in capsys.readouterr().err


def test_gen_byte_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    entry(["gen", "--side", "4", "--count", "20", "--seed", "9", "--out", str(a)])
    entry(["gen", "--side", "4", "--count", "20", "--seed", "9", "--out", str(b)])
    entry(["gen", "--side", "4", "--count", "20", "--seed", "10", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("side, digest", [
    (2, "17d089a4ba80bb3ec4da0de0fd84c06a56b500b2c68ebca8d5186b0ecdcf57a6"),
    (4, "ec3bb9da9d8b933c090ff2bd9ea9d01045527f6fa818d4e3f1a80546fe5fa087"),
    (8, "ea27c53109167368d8b2c8ba37408523a324fa3d3a1312d0d0fdc4f8e81c8878"),
])
def test_gen_bytes_match_recorded_digests(tmp_path, side, digest):
    # a seeded dataset is part of every seeded result: the bytes `gen`
    # writes at a fixed seed stay the same from version to version
    out = tmp_path / "data.csv"
    assert entry(["gen", "--side", str(side), "--count", "50", "--seed", "11", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_seed_from_environment(tmp_path, monkeypatch):
    flagged = tmp_path / "flag.csv"
    entry(["gen", "--side", "2", "--count", "10", "--seed", "5", "--out", str(flagged)])

    env_only = tmp_path / "env.csv"
    monkeypatch.setenv("QCNN_SEED", "5")
    entry(["gen", "--side", "2", "--count", "10", "--out", str(env_only)])
    assert env_only.read_bytes() == flagged.read_bytes()

    # an explicit flag beats the environment
    overridden = tmp_path / "over.csv"
    monkeypatch.setenv("QCNN_SEED", "6")
    entry(["gen", "--side", "2", "--count", "10", "--seed", "5", "--out", str(overridden)])
    assert overridden.read_bytes() == flagged.read_bytes()


def test_gen_rejects_non_integer_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QCNN_SEED", "abc")
    rc = entry(["gen", "--side", "2", "--count", "1", "--out", str(tmp_path / "d.csv")])
    assert rc == EXIT_USAGE
    assert "QCNN_SEED" in capsys.readouterr().err


def _train(tmp_path, name, extra):
    params = tmp_path / f"{name}_params.txt"
    curve = tmp_path / f"{name}_curve.csv"
    argv = ["train", "--arch", "conv", "--epochs", "2", "--batch", "4",
            "--params-out", str(params), "--curve-out", str(curve)] + extra
    rc = entry(argv)
    return rc, params, curve


def test_train_minimal_run(tmp_path, capsys):
    rc, params, curve = _train(tmp_path, "m", ["--seed", "7", "--progress"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "after 2 epochs" in captured.out
    assert f"params written to {params}, curve to {curve}" in captured.out
    assert captured.err.count("epoch=") == 2

    angle_lines = params.read_text().splitlines()
    assert len(angle_lines) == 4
    assert all(np.isfinite(float(x)) for x in angle_lines)
    curve_lines = curve.read_text().splitlines()
    assert curve_lines[0] == "epoch,mse" and len(curve_lines) == 3
    assert curve_lines[1].startswith("1,")


def test_train_byte_deterministic(tmp_path):
    _, p1, c1 = _train(tmp_path, "r1", ["--seed", "13"])
    _, p2, c2 = _train(tmp_path, "r2", ["--seed", "13"])
    assert p1.read_bytes() == p2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()


def test_train_config_file_merging(tmp_path, capsys):
    params = tmp_path / "cfg_params.txt"
    curve = tmp_path / "cfg_curve.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "arch": "conv", "epochs": 3, "batch_size": 4, "seed": 11,
        "params_out": str(params), "curve_out": str(curve),
    }))
    rc = entry(["train", "--config", str(cfg), "--epochs", "2"])
    assert rc == EXIT_OK
    assert "after 2 epochs" in capsys.readouterr().out  # flag overrides file
    # file supplied arch, batch and seed: must equal the all-flags run
    _, ref_params, ref_curve = _train(tmp_path, "ref", ["--seed", "11"])
    assert params.read_bytes() == ref_params.read_bytes()
    assert curve.read_bytes() == ref_curve.read_bytes()


def test_train_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"arch": "conv", "momentum": 0.9}))
    assert entry(["train", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown config keys: momentum" in capsys.readouterr().err


def test_train_config_rejects_a_repeated_key(tmp_path, capsys):
    # json.loads would keep the last value; a repeated key is a mistake in the file
    cfg = tmp_path / "twice.json"
    cfg.write_text('{"arch": "conv", "seed": 1, "seed": 2}')
    assert entry(["train", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {cfg}: duplicate config key 'seed'\n"


def test_in_process_entry_calls_stay_independent(tmp_path, monkeypatch, capsys):
    # one parser serves every entry call in a process: a seed given to one
    # train run does not carry over to the next, which takes QCNN_SEED or 0
    _, seeded, _ = _train(tmp_path, "seeded", ["--seed", "3"])
    for name, env, want in (("default", None, "0"), ("env", "5", "5")):
        if env is not None:
            monkeypatch.setenv("QCNN_SEED", env)
        _, got, _ = _train(tmp_path, name, [])
        monkeypatch.delenv("QCNN_SEED", raising=False)
        _, ref, _ = _train(tmp_path, f"{name}_ref", ["--seed", want])
        assert got.read_bytes() == ref.read_bytes() != seeded.read_bytes()
    capsys.readouterr()

    # and an eval after a featmap prints what a fresh process prints
    data, params, image = tmp_path / "d.csv", tmp_path / "p.txt", tmp_path / "in.pgm"
    entry(["gen", "--side", "2", "--count", "30", "--seed", "8", "--out", str(data)])
    _write_params(params, [0.3, -1.2, 0.7, 2.0])
    write_pgm(image, np.arange(48).reshape(6, 8) * 5)
    eval_argv = ["eval", "--params", str(params), "--data", str(data), "--threshold", "0.4"]
    assert entry(["featmap", "--in", str(image), "--params", str(params), "--out", str(tmp_path / "fm.pgm")]) == EXIT_OK
    capsys.readouterr()
    assert entry(eval_argv) == EXIT_OK
    src = str(Path(qcnn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "qcnn", *eval_argv], env=env, capture_output=True, text=True, check=True)
    assert capsys.readouterr().out == fresh.stdout


def test_removed_options_exit_2(tmp_path, capsys):
    # evaluation runs on one thread, training walks one group template at a
    # time, eval is exact and the decision threshold is an eval option only:
    # train --threshold and --width-cap, eval --seed, every --jobs flag and
    # the "jobs" and "width_cap" config keys are refused before any work
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "2", "--count", "4", "--seed", "0", "--out", str(data)])
    params = tmp_path / "p.txt"
    _write_params(params, [0.1] * 4)
    img = tmp_path / "in.pgm"
    write_pgm(img, np.zeros((2, 2), dtype=int))
    outs = ["--params-out", str(tmp_path / "p_out.txt"), "--curve-out", str(tmp_path / "c.csv")]
    for argv in (
        ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--threshold", "0.7"] + outs,
        ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--jobs", "2"] + outs,
        ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--width-cap", "4"] + outs,
        ["eval", "--params", str(params), "--data", str(data), "--jobs", "2"],
        ["eval", "--params", str(params), "--data", str(data), "--seed", "1"],
        ["featmap", "--in", str(img), "--params", str(params), "--out", str(tmp_path / "o.pgm"), "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            entry(argv)
        assert info.value.code == EXIT_USAGE, argv
    capsys.readouterr()
    for key in ("jobs", "width_cap"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 2, key: 4}))
        assert entry(["train", "--config", str(cfg)] + outs) == EXIT_USAGE
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "p_out.txt").exists()


def test_eval_threshold_sets_the_decision_boundary(tmp_path, capsys):
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "2", "--count", "8", "--seed", "0", "--out", str(data)])
    params = tmp_path / "p.txt"
    _write_params(params, [0.5, 0.25, 1.0, 2.0])
    samples = load_dataset(data)
    kernel = ModelParams.from_vector(Architecture.CONV, [0.5, 0.25, 1.0, 2.0])
    capsys.readouterr()
    accs = set()
    for threshold in ("0.3", "0.7"):
        _, acc = evaluate(kernel, samples, TrainConfig(arch="conv"), threshold=float(threshold))
        accs.add(acc)
        assert entry(["eval", "--params", str(params), "--data", str(data), "--threshold", threshold]) == EXIT_OK
        assert f"accuracy {acc:.6f}" in capsys.readouterr().out.splitlines()
    assert len(accs) == 2
    assert entry(["eval", "--params", str(params), "--data", str(data), "--threshold", "1.5"]) == EXIT_USAGE
    assert "threshold" in capsys.readouterr().err


def test_train_seed_precedence_file_over_env(tmp_path, monkeypatch):
    _, ref_params, _ = _train(tmp_path, "seed5", ["--seed", "5"])

    cfg = tmp_path / "seeded.json"
    file_params = tmp_path / "file_params.txt"
    cfg.write_text(json.dumps({
        "arch": "conv", "epochs": 2, "batch_size": 4, "seed": 5,
        "params_out": str(file_params), "curve_out": str(tmp_path / "file_curve.csv"),
    }))
    monkeypatch.setenv("QCNN_SEED", "9")
    assert entry(["train", "--config", str(cfg)]) == EXIT_OK
    assert file_params.read_bytes() == ref_params.read_bytes()

    # with no flag and no file value the environment seed applies
    monkeypatch.setenv("QCNN_SEED", "5")
    _, env_params, _ = _train(tmp_path, "env", [])
    assert env_params.read_bytes() == ref_params.read_bytes()

    # and with nothing set anywhere the seed falls back to 0
    monkeypatch.delenv("QCNN_SEED")
    _, bare_params, _ = _train(tmp_path, "bare", [])
    _, zero_params, _ = _train(tmp_path, "zero", ["--seed", "0"])
    assert bare_params.read_bytes() == zero_params.read_bytes()


@pytest.mark.parametrize("command, flag, value", [
    ("gen", "--count", "1_0"), ("gen", "--seed", "\u0663"), ("gen", "--side", "+2"),
    ("train", "--epochs", "\u0662"), ("train", "--batch", " 4"), ("train", "--shots", "1_000"),
    ("train", "--seed", "\u00b2"), ("train", "--lr", "1_0e-8"), ("train", "--lr", "+1e-7"),
    ("eval", "--threshold", "\u0660.\u0665"), ("eval", "--threshold", "0.5 "),
])
def test_number_flags_take_plain_ascii_decimal_only(tmp_path, capsys, command, flag, value):
    data, params, out = tmp_path / "d.csv", tmp_path / "p.txt", tmp_path / "out"
    entry(["gen", "--side", "2", "--count", "4", "--seed", "0", "--out", str(data)])
    _write_params(params, [0.1] * 4)
    argv = {
        "gen": ["gen", "--side", "2", "--count", "4", "--seed", "1", "--out", str(out)],
        "train": ["train", "--arch", "conv", "--epochs", "1", "--batch", "4", "--params-out", str(out),
                  "--curve-out", str(tmp_path / "c.csv")],
        "eval": ["eval", "--params", str(params), "--data", str(data)],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        entry(argv + [flag, value])
    assert info.value.code == EXIT_USAGE
    assert f"argument {flag}: invalid " in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_nonpositive_lr(tmp_path, capsys):
    for bad, want in (("-1", "a finite real number >= 0"), ("0", "positive")):
        rc, _, _ = _train(tmp_path, f"lr{bad}", ["--lr", bad])
        assert rc == EXIT_USAGE
        assert f"--lr must be {want}" in capsys.readouterr().err


def test_negative_numbers_in_every_form_reach_their_rules(tmp_path, capsys):
    # argparse takes only -digits[.digits] for a value; every negative form
    # decimal_float reads reaches the library rule, named by its flag
    data, params = tmp_path / "d.csv", tmp_path / "p.txt"
    entry(["gen", "--side", "2", "--count", "4", "--seed", "0", "--out", str(data)])
    _write_params(params, [0.1] * 4)
    capsys.readouterr()
    for value in ("-1e-7", "-.5", "-inf", "-2E+3"):
        rc, out, _ = _train(tmp_path, "neg", ["--lr", value])
        assert rc == EXIT_USAGE, value
        assert "--lr must be a finite real number >= 0" in capsys.readouterr().err, value
        assert not out.exists()
        assert entry(["eval", "--params", str(params), "--data", str(data), "--threshold", value]) == EXIT_USAGE
        assert "--threshold must be a real number strictly inside (0, 1)" in capsys.readouterr().err, value


def test_train_rejects_mismatched_dataset(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    entry(["gen", "--side", "4", "--count", "6", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    rc, _, _ = _train(tmp_path, "mm", ["--data", str(data)])
    assert rc == EXIT_USAGE
    assert "expects 2x2" in capsys.readouterr().err


def test_train_rejects_empty_dataset(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("label,p0,p1,p2,p3\n")
    rc, _, _ = _train(tmp_path, "empty", ["--data", str(data)])
    assert rc == EXIT_USAGE
    assert "dataset is empty" in capsys.readouterr().err


def test_eval_reports_metrics(tmp_path, capsys):
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "2", "--count", "8", "--seed", "0", "--out", str(data)])
    params = tmp_path / "p.txt"
    _write_params(params, [0.5, 0.25, 1.0, 2.0])
    capsys.readouterr()
    rc = entry(["eval", "--params", str(params), "--data", str(data)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "samples 8" in out and "mse 0." in out and "accuracy " in out


def test_eval_scores_with_the_measure_mode_it_is_given(tmp_path, capsys):
    # params trained with --measure intermediate are scored by that circuit;
    # the default stays end-to-end
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "4", "--count", "40", "--seed", "3", "--out", str(data)])
    params = tmp_path / "p.txt"
    _write_params(params, [0.1, 0.1, 0.1, 0.1])
    samples = load_dataset(data)
    kernel = ModelParams.from_vector(Architecture.CONV_POOL_POOL, [0.1] * 4)
    want = {
        mode: evaluate(kernel, samples, TrainConfig(arch="conv-pool-pool", measure_mode=mode))[0]
        for mode in ("end-to-end", "intermediate")
    }
    assert abs(want["end-to-end"] - want["intermediate"]) > 0.01
    capsys.readouterr()
    for argv, mode in (([], "end-to-end"), (["--measure", "intermediate"], "intermediate"),
                       (["--measure", "end-to-end"], "end-to-end")):
        rc = entry(["eval", "--params", str(params), "--data", str(data)] + argv)
        assert rc == EXIT_OK
        assert f"mse {want[mode]:.6f}" in capsys.readouterr().out.splitlines()


def test_eval_refuses_lenient_integers_and_non_ascii_data(tmp_path, capsys):
    params = tmp_path / "p.txt"
    _write_params(params, [0.1] * 4)
    data = tmp_path / "d.csv"
    head = "label,p0,p1,p2,p3\n"
    data.write_text(head + "1,1_0, 7,+3,4\n")
    assert entry(["eval", "--params", str(params), "--data", str(data)]) == EXIT_USAGE
    assert f"{data}: line 2: non-integer value" in capsys.readouterr().err
    data.write_bytes(head.encode() + "0,1,2,\u0663,4\n".encode())
    assert entry(["eval", "--params", str(params), "--data", str(data)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{data}: line 2: non-ASCII byte 0xd9" in err and "codec" not in err


def test_bad_params_and_config_files_name_the_path(tmp_path, capsys):
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "2", "--count", "4", "--seed", "0", "--out", str(data)])
    params = tmp_path / "p.txt"
    for content, want in (
        (b"0.1\nnan\n0.2\n0.3\n", f"{params}: line 2: angle nan is not finite"),
        (b"0.1\n0.2\n0.3\n1e400\n", f"{params}: line 4: angle 1e400 is not finite"),
        (b"0.1\n0.2\xff\n0.3\n0.4\n", f"{params}: line 2: non-ASCII byte 0xff"),
    ):
        params.write_bytes(content)
        capsys.readouterr()
        assert entry(["eval", "--params", str(params), "--data", str(data)]) == EXIT_USAGE
        assert want in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"arch": "conv"\xff}')
    rc = entry(["train", "--config", str(cfg), "--params-out", str(tmp_path / "o.txt"),
                "--curve-out", str(tmp_path / "c.csv")])
    assert rc == EXIT_USAGE
    assert f"{cfg}: line 1: non-ASCII byte 0xff" in capsys.readouterr().err


def test_eval_rejects_param_count_mismatch(tmp_path, capsys):
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "2", "--count", "4", "--seed", "0", "--out", str(data)])
    params = tmp_path / "p8.txt"
    _write_params(params, [0.1] * 8)
    capsys.readouterr()
    rc = entry(["eval", "--params", str(params), "--data", str(data)])
    assert rc == EXIT_USAGE
    assert "needs 4" in capsys.readouterr().err


def test_featmap_halves_even_images(tmp_path, capsys):
    grid = np.arange(24).reshape(6, 4) * 10
    src = tmp_path / "in.pgm"
    write_pgm(src, grid)
    params = tmp_path / "k.txt"
    _write_params(params, [0.3, 0.7, 1.1, 0.2])
    out = tmp_path / "out.pgm"
    rc = entry(["featmap", "--in", str(src), "--params", str(params), "--out", str(out)])
    assert rc == EXIT_OK
    assert "wrote 3x2 feature map" in capsys.readouterr().out
    result = read_pgm(out)
    assert result.shape == (3, 2)
    assert np.all((result >= 0) & (result <= 255))


def test_featmap_bytes_match_recorded_digest(tmp_path):
    # a seeded 64x48 image and kernel: the bytes `featmap` writes stay the
    # same from version to version (every value lies at least 3.5e-4 of a
    # grey level away from a rounding boundary)
    rng = np.random.default_rng(48)
    src, params, out = tmp_path / "in.pgm", tmp_path / "k.txt", tmp_path / "out.pgm"
    write_pgm(src, rng.integers(0, 256, size=(48, 64)))
    _write_params(params, rng.uniform(-np.pi, np.pi, 4))
    assert entry(["featmap", "--in", str(src), "--params", str(params), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1e72f24d65965f6ca90b514a95420abdcdd5da5428280d597a8432f51c314142"
    )


def test_featmap_constant_image_is_flat(tmp_path):
    src = tmp_path / "flat.pgm"
    write_pgm(src, np.full((4, 4), 170))
    params = tmp_path / "k.txt"
    _write_params(params, [0.4, 0.9, 0.1, 1.5])
    out = tmp_path / "flat_out.pgm"
    assert entry(["featmap", "--in", str(src), "--params", str(params), "--out", str(out)]) == EXIT_OK
    result = read_pgm(out)
    assert result.shape == (2, 2) and len(np.unique(result)) == 1


def test_featmap_rejects_odd_dimensions(tmp_path, capsys):
    src = tmp_path / "odd.pgm"
    write_pgm(src, np.zeros((3, 4), dtype=int))
    params = tmp_path / "k.txt"
    _write_params(params, [0.0, 0.0, 0.0, 0.0])
    rc = entry(["featmap", "--in", str(src), "--params", str(params), "--out", str(tmp_path / "o.pgm")])
    assert rc == EXIT_USAGE
    assert f"{src} must form a grid with even sides" in capsys.readouterr().err


def test_missing_arguments_exit_2(capsys):
    for argv in ([], ["gen"], ["eval", "--params", "x"], ["featmap"]):
        with pytest.raises(SystemExit) as info:
            entry(argv)
        assert info.value.code == 2
    capsys.readouterr()


def test_missing_input_files_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    entry(["gen", "--side", "2", "--count", "4", "--seed", "0", "--out", str(data)])
    params = tmp_path / "p.txt"
    _write_params(params, [0.1] * 4)
    capsys.readouterr()
    missing = str(tmp_path / "missing.csv")
    for argv in (
        ["eval", "--params", str(params), "--data", missing],
        ["eval", "--params", missing, "--data", str(data)],
        ["featmap", "--in", missing, "--params", str(params), "--out", str(tmp_path / "o.pgm")],
    ):
        assert entry(argv) == EXIT_USAGE
        assert missing in capsys.readouterr().err
    rc, _, _ = _train(tmp_path, "nodata", ["--data", missing])
    assert rc == EXIT_USAGE
    assert missing in capsys.readouterr().err


def test_train_checks_output_directories_before_training(tmp_path, capsys):
    absent = tmp_path / "absent"
    for flag in ("--params-out", "--curve-out"):
        out = str(absent / "out.txt")
        argv = ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--progress",
                "--params-out", str(tmp_path / "p.txt"), "--curve-out", str(tmp_path / "c.csv"), flag, out]
        assert entry(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert out in err and "epoch=" not in err  # refused before epoch 1


def test_train_checks_output_paths_before_training(tmp_path, capsys):
    # an output path that is a directory, or one file named by both
    # outputs, is refused before epoch 1 and names the flags
    base = ["train", "--arch", "conv", "--epochs", "1", "--batch", "2", "--progress"]
    params, curve = str(tmp_path / "p.txt"), str(tmp_path / "c.csv")
    for flag, outs in (("--params-out", [str(tmp_path), curve]), ("--curve-out", [params, str(tmp_path)])):
        assert entry(base + ["--params-out", outs[0], "--curve-out", outs[1]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag} {tmp_path} is a directory" in err and "epoch=" not in err
    same = tmp_path / "same.txt"
    for other in (str(same), f"{tmp_path}/./same.txt"):
        assert entry(base + ["--params-out", str(same), "--curve-out", other]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--params-out and --curve-out both name" in err and "epoch=" not in err
    assert not same.exists()
    # an output that names the --data file, by any spelling, leaves it as it was
    data = tmp_path / "d.csv"
    assert entry(["gen", "--side", "2", "--count", "2", "--seed", "1", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    before = data.read_bytes()
    (tmp_path / "link.csv").symlink_to(data)
    for flag in ("--params-out", "--curve-out"):
        for spelling in (str(data), f"{tmp_path}/./d.csv", str(tmp_path / "link.csv")):
            outs = {"--params-out": params, "--curve-out": curve, flag: spelling}
            argv = base + ["--data", str(data)] + [arg for pair in outs.items() for arg in pair]
            assert entry(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"{flag} and --data both name" in err and "epoch=" not in err
            assert data.read_bytes() == before
    assert not (tmp_path / "p.txt").exists() and not (tmp_path / "c.csv").exists()


def test_train_names_config_file_output_paths_by_key(tmp_path, monkeypatch, capsys):
    # a path from the config file is named by its key, one from a flag, or
    # a default, by its flag; either way nothing is written
    monkeypatch.chdir(tmp_path)
    assert entry(["gen", "--side", "2", "--count", "2", "--seed", "1", "--out", "d.csv"]) == EXIT_OK
    capsys.readouterr()
    before = Path("d.csv").read_bytes()
    base = {"arch": "conv", "epochs": 1, "batch_size": 2}
    for cfg, flags, want in (
        ({"data": "d.csv", "params_out": "d.csv"}, [], "config key 'params_out' and config key 'data' both name d.csv"),
        ({"data": "d.csv", "curve_out": "./d.csv"}, [], "config key 'curve_out' and config key 'data' both name d.csv"),
        ({"params_out": "d.csv"}, ["--data", "d.csv"], "config key 'params_out' and --data both name d.csv"),
        ({"data": "d.csv"}, ["--curve-out", "d.csv"], "--curve-out and config key 'data' both name d.csv"),
        ({"params_out": "x.txt", "curve_out": "x.txt"}, [], "config key 'params_out' and config key 'curve_out' both name x.txt"),
        ({"curve_out": "x.txt"}, ["--params-out", "x.txt"], "--params-out and config key 'curve_out' both name x.txt"),
        ({"params_out": "curve.csv"}, [], "config key 'params_out' and --curve-out both name curve.csv"),
        ({"params_out": "."}, [], "config key 'params_out' . is a directory"),
        ({"curve_out": "."}, [], "config key 'curve_out' . is a directory"),
        ({"params_out": "."}, ["--params-out", "p.txt", "--curve-out", "."], "--curve-out . is a directory"),
    ):
        Path("cfg.json").write_text(json.dumps({**base, **cfg}))
        assert entry(["train", "--config", "cfg.json", *flags]) == EXIT_USAGE, cfg
        assert capsys.readouterr().err == f"error: {want}\n"
        assert Path("d.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv"]


def test_outputs_that_name_an_input_are_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # train's outputs may not name its config file, and featmap's output
    # may not name its kernel angles or its input image: each exits 2
    # naming both flags, and leaves the input as it was
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 2}))
    write_pgm("in.pgm", np.arange(8).reshape(2, 4) * 30)
    _write_params(Path("k.txt"), [0.3, 0.7, 1.1, 0.2])
    before = {name: Path(name).read_bytes() for name in ("cfg.json", "in.pgm", "k.txt")}
    for argv, want in (
        (["train", "--config", "cfg.json", "--progress", "--params-out", "cfg.json"],
         "--params-out and --config both name cfg.json"),
        (["train", "--config", "cfg.json", "--progress", "--curve-out", "./cfg.json"],
         "--curve-out and --config both name cfg.json"),
        (["featmap", "--in", "in.pgm", "--params", "k.txt", "--out", "k.txt"], "--out and --params both name k.txt"),
        (["featmap", "--in", "in.pgm", "--params", "k.txt", "--out", f"{tmp_path}/in.pgm"],
         f"--out and --in both name {tmp_path}/in.pgm"),
    ):
        assert entry(argv) == EXIT_USAGE, argv
        assert capsys.readouterr() == ("", f"error: {want}\n")
        assert {name: Path(name).read_bytes() for name in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.pgm", "k.txt"]


def test_env_seed_takes_plain_ascii_decimal_only(tmp_path, monkeypatch, capsys):
    out = tmp_path / "d.csv"
    for value in ("\u0663", "\u00b2", "1_0", "+3", ""):
        monkeypatch.setenv("QCNN_SEED", value)
        assert entry(["gen", "--side", "2", "--count", "2", "--out", str(out)]) == EXIT_USAGE, value
        assert f"QCNN_SEED must be a non-negative integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("QCNN_SEED", " 7 ")
    assert entry(["gen", "--side", "2", "--count", "2", "--out", str(out)]) == EXIT_OK


def test_train_config_rejects_non_integer_fields(tmp_path, capsys):
    for key, value in (("epochs", 2.5), ("epochs", True), ("batch_size", "4")):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"arch": "conv", key: value}))
        rc = entry(["train", "--config", str(cfg), "--params-out", str(tmp_path / "p.txt"),
                    "--curve-out", str(tmp_path / "c.csv")])
        assert rc == EXIT_USAGE
        assert f"config key '{key}' must be an integer" in capsys.readouterr().err


def test_train_config_rejects_wrongly_typed_values(tmp_path, capsys):
    for key, value in (
        ("learning_rate", "1e-7"), ("learning_rate", True), ("threshold", "0.5"), ("arch", 5),
        ("params_out", 5), ("curve_out", ["c.csv"]), ("data", 7),
    ):
        cfg = tmp_path / "typed.json"
        doc = {"arch": "conv", "epochs": 1, "batch_size": 2, key: value}
        if key not in ("params_out", "curve_out"):
            doc.update(params_out=str(tmp_path / "p.txt"), curve_out=str(tmp_path / "c.csv"))
        cfg.write_text(json.dumps(doc))
        assert entry(["train", "--config", str(cfg)]) == EXIT_USAGE, key
        err = capsys.readouterr().err
        assert f"{key}" in err and "Traceback" not in err, err
    cfg.write_text(json.dumps({"arch": "conv", "learning_rate": 0}))
    assert entry(["train", "--config", str(cfg)]) == EXIT_USAGE
    assert "config key 'learning_rate' must be positive, got 0" in capsys.readouterr().err


def test_every_train_setting_has_one_flag_and_one_config_key(tmp_path, capsys):
    # a train flag sets a TrainConfig field or a path; every field has a
    # flag and a config key; and a bad choice lists the valid values
    settings = {f.name for f in dataclasses.fields(TrainConfig)}
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices["train"]._actions} - {"help"}
    assert dests <= settings | {"data", "params_out", "curve_out", "config", "progress"}
    assert settings <= dests

    outs = {"params_out": str(tmp_path / "p.txt"), "curve_out": str(tmp_path / "c.csv")}
    doc = {f: getattr(v, "value", v) for f, v in vars(TrainConfig(arch="conv", epochs=1, batch_size=2)).items()}
    assert doc.keys() == settings
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps({**doc, **outs}))
    assert entry(["train", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()

    choices = {f: t for f, t in get_type_hints(TrainConfig).items() if issubclass(t, enum.Enum)}
    assert len(choices) == 6
    for key, enum_cls in choices.items():
        cfg.write_text(json.dumps({**doc, **outs, key: 3}))
        assert entry(["train", "--config", str(cfg)]) == EXIT_USAGE, key
        err = capsys.readouterr().err
        assert "choose one of: " + ", ".join(m.value for m in enum_cls) in err, err


def test_train_refuses_data_shorter_than_batch(tmp_path, capsys):
    data = tmp_path / "short.csv"
    entry(["gen", "--side", "2", "--count", "5", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    rc, params, _ = _train(tmp_path, "short", ["--data", str(data), "--batch", "1000", "--progress"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{data} holds 5 rows, fewer than --batch 1000" in err and "epoch=" not in err
    assert not params.exists()


def test_data_shorter_than_batch_names_where_the_batch_came_from(tmp_path, capsys):
    data = tmp_path / "short.csv"
    entry(["gen", "--side", "2", "--count", "5", "--seed", "1", "--out", str(data)])
    outs = ["--params-out", str(tmp_path / "p.txt"), "--curve-out", str(tmp_path / "c.csv")]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 6}))
    assert entry(["train", "--config", str(cfg), "--data", str(data)] + outs) == EXIT_USAGE
    assert f"{data} holds 5 rows, fewer than config key 'batch_size' 6" in capsys.readouterr().err
    assert entry(["train", "--arch", "conv", "--epochs", "1", "--data", str(data)] + outs) == EXIT_USAGE
    assert f"{data} holds 5 rows, fewer than the default batch size 1000" in capsys.readouterr().err


def test_a_count_or_batch_too_large_to_draw_names_its_source(tmp_path, capsys):
    # 10**21 rows take more words than any numpy array can hold: exit 2,
    # naming the flag or config key, and nothing written
    huge = str(10**21)
    out = tmp_path / "d.csv"
    assert entry(["gen", "--side", "2", "--count", huge, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: --count is too large to draw: {huge} rows take ")
    rc, params, _ = _train(tmp_path, "huge", ["--batch", huge])
    assert rc == EXIT_USAGE and not params.exists()
    assert capsys.readouterr().err.startswith(f"error: --batch is too large to draw: {huge} rows take ")
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 10**21}))
    assert entry(["train", "--config", str(cfg), "--params-out", str(tmp_path / "p.txt"),
                  "--curve-out", str(tmp_path / "c.csv")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: config key 'batch_size' is too large to draw: ")
    assert not out.exists()


def test_a_count_or_batch_that_runs_out_of_memory_names_its_source(tmp_path, capsys, no_memory):
    out = tmp_path / "d.csv"
    assert entry(["gen", "--side", "2", "--count", "3", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --count is too large to draw: 3 rows take ")
    rc, params, _ = _train(tmp_path, "oom", [])
    assert rc == EXIT_USAGE and not params.exists() and not out.exists()
    assert capsys.readouterr().err.startswith("error: --batch is too large to draw: 4 rows take ")


def test_negative_seed_names_its_source(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "d.csv")
    assert entry(["gen", "--side", "2", "--count", "2", "--seed", "-3", "--out", out]) == EXIT_USAGE
    assert "--seed must be a non-negative integer" in capsys.readouterr().err

    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"arch": "conv", "epochs": 1, "batch_size": 2, "seed": -3}))
    rc = entry(["train", "--config", str(cfg), "--params-out", str(tmp_path / "p.txt"),
                "--curve-out", str(tmp_path / "c.csv")])
    assert rc == EXIT_USAGE
    assert "config key 'seed' must be a non-negative integer" in capsys.readouterr().err

    monkeypatch.setenv("QCNN_SEED", "-3")
    assert entry(["gen", "--side", "2", "--count", "2", "--out", out]) == EXIT_USAGE
    assert "QCNN_SEED must be a non-negative integer" in capsys.readouterr().err
