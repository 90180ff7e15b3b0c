"""End-to-end command-line checks: exit codes, output files, seed
precedence, and byte-level reproducibility."""
import hashlib
import json

import numpy as np
import pytest

from qcnn.cli import EXIT_OK, EXIT_USAGE, entry
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


def test_train_rejects_nonpositive_lr(tmp_path, capsys):
    for bad in ("-1", "0"):
        rc, _, _ = _train(tmp_path, f"lr{bad}", ["--lr", bad])
        assert rc == EXIT_USAGE
        assert "--lr must be positive" in capsys.readouterr().err


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
    assert "must be even" in capsys.readouterr().err


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


def test_train_config_rejects_non_integer_fields(tmp_path, capsys):
    for key, value in (("epochs", 2.5), ("epochs", True), ("batch_size", "4")):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"arch": "conv", key: value}))
        rc = entry(["train", "--config", str(cfg), "--params-out", str(tmp_path / "p.txt"),
                    "--curve-out", str(tmp_path / "c.csv")])
        assert rc == EXIT_USAGE
        assert f"{key} must be an integer" in capsys.readouterr().err


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
    assert "--lr must be positive" in capsys.readouterr().err


def test_train_refuses_data_shorter_than_batch(tmp_path, capsys):
    data = tmp_path / "short.csv"
    entry(["gen", "--side", "2", "--count", "5", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    rc, params, _ = _train(tmp_path, "short", ["--data", str(data), "--batch", "1000", "--progress"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{data} holds 5 rows, fewer than --batch 1000" in err and "epoch=" not in err
    assert not params.exists()


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
