"""Command-line surface: dataset generation, training, evaluation, and
feature-map rendering, with reproducible seeded runs.

Exit codes: 0 success, 2 usage or validation problem.  A training run may
read a flat JSON config file; flags override file values, and unset values
fall back to the standard defaults.  The environment variable QCNN_SEED
supplies the seed of `gen` and `train` as a last resort; `eval` is exact
and takes no seed.
"""
from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dataset import VALID_SIDES, gen_dataset, load_dataset, save_dataset
from .network import Architecture, ModelParams, conv_feature_map, load_params, save_params
from .pgm import read_pgm, write_pgm
from .training import TrainConfig, evaluate, save_curve, train

EXIT_OK = 0
EXIT_USAGE = 2

_ARCH_BY_SIDE = {2: Architecture.CONV, 4: Architecture.CONV_POOL_POOL, 8: Architecture.CONV_POOL_CONV_POOL}

# TrainConfig fields a config file may set, plus run plumbing.
_CONFIG_KEYS = (
    "arch", "epochs", "batch_size", "learning_rate", "shots", "grad_method",
    "measure_mode", "update_strategy", "eval_mode", "init_scheme", "seed",
    "data", "params_out", "curve_out",
)


class CliError(Exception):
    """Validation failure destined for exit code 2."""


def _resolve_seed(flag_value, file_value):
    if flag_value is not None:
        value, source = flag_value, "--seed"
    elif file_value is not None:
        value, source = file_value, "config key 'seed'"
    elif "QCNN_SEED" in os.environ:
        value, source = os.environ["QCNN_SEED"], "QCNN_SEED"
        if value.strip().isdigit():
            value = int(value)
    else:
        return 0
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CliError(f"{source} must be a non-negative integer, got {value!r}")
    return value


def _load_config_file(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a flat JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def cmd_gen(args) -> int:
    if args.side not in VALID_SIDES:
        raise CliError(f"--side must be one of {', '.join(map(str, VALID_SIDES))}, got {args.side}")
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    seed = _resolve_seed(args.seed, None)
    samples = gen_dataset(args.count, args.side, seed)
    save_dataset(samples, args.out)
    ones = sum(s.label for s in samples)
    print(f"wrote {len(samples)} samples to {args.out} (label 1: {ones}, label 0: {len(samples) - ones})")
    return EXIT_OK


def _merged_train_settings(args) -> tuple:
    file_cfg = _load_config_file(args.config) if args.config else {}
    flags = dict(arch=args.arch, epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr, shots=args.shots,
                 grad_method=args.grad, measure_mode=args.measure, update_strategy=args.update,
                 eval_mode=args.eval_mode, init_scheme=args.init)
    merged = {}
    for key, value in file_cfg.items():
        if key in ("data", "params_out", "curve_out"):
            if not isinstance(value, str):
                raise CliError(f"config key '{key}' must be a path string, got {value!r}")
            continue
        if key != "seed":
            merged[key] = value
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    merged["seed"] = _resolve_seed(args.seed, file_cfg.get("seed"))
    if "arch" not in merged or merged["arch"] is None:
        raise CliError("an architecture is required (--arch or config file)")
    lr = merged.get("learning_rate")
    if isinstance(lr, numbers.Real) and not isinstance(lr, bool) and lr <= 0:
        raise CliError(f"--lr must be positive, got {lr}")

    data_path = args.data if args.data is not None else file_cfg.get("data")
    params_out = args.params_out if args.params_out is not None else file_cfg.get("params_out", "params.txt")
    curve_out = args.curve_out if args.curve_out is not None else file_cfg.get("curve_out", "curve.csv")
    try:
        config = TrainConfig(**merged)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    return config, data_path, params_out, curve_out


def cmd_train(args) -> int:
    config, data_path, params_out, curve_out = _merged_train_settings(args)
    for out in map(Path, (params_out, curve_out)):
        if not out.parent.is_dir():
            raise CliError(f"cannot write {out}: directory {out.parent} does not exist")
    dataset = None
    if data_path is not None:
        dataset = load_dataset(data_path)
        if not dataset:
            raise CliError(f"{data_path}: dataset is empty")
        if dataset[0].side != config.arch.image_side:
            raise CliError(
                f"{data_path} holds {dataset[0].side}x{dataset[0].side} images but "
                f"{config.arch.value} expects {config.arch.image_side}x{config.arch.image_side}"
            )
        if len(dataset) < config.batch_size:
            raise CliError(f"{data_path} holds {len(dataset)} rows, fewer than --batch {config.batch_size}")
    log_fn = (lambda line: print(line, file=sys.stderr)) if args.progress else None
    t0 = time.perf_counter()
    params, curve = train(config, dataset=dataset, log_fn=log_fn)
    wall = time.perf_counter() - t0
    save_params(params, params_out)
    save_curve(curve, curve_out)
    print(f"final mse {curve.final_mse:.6f} after {config.epochs} epochs")
    print(f"circuit evaluations {curve.total_evals}")
    print(f"wall clock {wall:.2f} s")
    print(f"params written to {params_out}, curve to {curve_out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    samples = load_dataset(args.data)
    if not samples:
        raise CliError(f"{args.data}: dataset is empty")
    side = samples[0].side
    arch = _ARCH_BY_SIDE[side]
    vector = load_params(args.params).vector()
    if vector.size != arch.n_params:
        raise CliError(
            f"{args.params} holds {vector.size} angles but {arch.value} "
            f"(inferred from {side}x{side} data) needs {arch.n_params}"
        )
    config = TrainConfig(arch=arch, measure_mode=args.measure)
    params = ModelParams.from_vector(arch, vector)
    m, acc = evaluate(params, samples, config, threshold=args.threshold)
    print(f"samples {len(samples)}")
    print(f"mse {m:.6f}")
    print(f"accuracy {acc:.6f}")
    return EXIT_OK


def cmd_featmap(args) -> int:
    grid = read_pgm(args.infile)
    height, width = grid.shape
    if height % 2 or width % 2:
        raise CliError(f"{args.infile}: image dimensions must be even, got {height}x{width}")
    vector = load_params(args.params).vector()
    kernel = vector[:4]
    probs = conv_feature_map(grid, kernel)
    out = np.rint(np.clip(probs, 0.0, 1.0) * 255).astype(np.int64)
    write_pgm(args.out, out, comment="window summary probabilities, rescaled to 0..255")
    print(f"wrote {out.shape[0]}x{out.shape[1]} feature map to {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcnn",
        description="Train and inspect small variational image classifiers on pixel lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled dataset CSV")
    p.add_argument("--side", type=int, required=True, help="image side length (2, 4 or 8)")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model and write params + loss curve")
    p.add_argument("--config", default=None, help="flat JSON config file; flags override it")
    p.add_argument("--arch", choices=[a.value for a in Architecture], default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None, help="samples per epoch")
    p.add_argument("--lr", type=float, default=None, help="learning rate")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--grad", choices=["sigmoid", "shift", "combined"], default=None)
    p.add_argument("--measure", choices=["end-to-end", "intermediate"], default=None)
    p.add_argument("--update", choices=["simultaneous", "layer-wise"], default=None)
    p.add_argument("--eval-mode", choices=["exact", "sampled"], default=None)
    p.add_argument("--init", choices=["uniform", "zeros"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", default=None, help="fixed dataset CSV reused every epoch")
    p.add_argument("--params-out", default=None)
    p.add_argument("--curve-out", default=None)
    p.add_argument("--progress", action="store_true", help="log one line per epoch to stderr")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="report MSE and accuracy of saved params on a dataset")
    p.add_argument("--params", required=True, help="params file, one angle per line")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--measure", choices=["end-to-end", "intermediate"], default="end-to-end",
                   help="circuit to score with; match the one the params were trained with")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("featmap", help="render a half-resolution window-summary image")
    p.add_argument("--in", dest="infile", required=True, help="input PGM (P2), even dimensions")
    p.add_argument("--params", required=True, help="kernel angles file (first four are used)")
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(fn=cmd_featmap)

    return parser


def entry(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
