"""Command-line surface: dataset generation, training, evaluation, and
feature-map rendering, with reproducible seeded runs.

Exit codes: 0 success, 2 usage or validation problem.  A training run may
read a flat JSON config file; flags override file values, and unset values
fall back to the standard defaults.  The environment variable QCNN_SEED
supplies the seed of `gen` and `train` as a last resort; `eval` is exact
and takes no seed.  The library checks every value; this module only says
where a refused value came from: its flag, its config key, QCNN_SEED or
its file.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._io import NEGATIVE_NUMBER, decimal_float, decimal_int, read_ascii
from .dataset import gen_dataset, load_dataset, save_dataset
from .network import Architecture, InitScheme, conv_feature_map, load_params, save_params
from .pgm import read_pgm, write_pgm
from .training import EvalMode, GradMethod, MeasureMode, TrainConfig, UpdateStrategy, evaluate, save_curve, train

EXIT_OK = 0
EXIT_USAGE = 2

_ARCH_BY_SIDE = {arch.image_side: arch for arch in Architecture}

# run plumbing a config file may set beside the TrainConfig fields, and its defaults
_PATH_DEFAULTS = {"data": None, "params_out": "params.txt", "curve_out": "curve.csv"}
_CONFIG_KEYS = tuple(f.name for f in fields(TrainConfig)) + tuple(_PATH_DEFAULTS)


class CliError(Exception):
    """Validation failure destined for exit code 2."""


@contextlib.contextmanager
def _named(sources):
    """Re-raise a library refusal whose first word names a value (a
    TrainConfig field, a parameter) as a CliError that starts with where
    the value came from instead; sources maps those names to sources."""
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if not sources.get(name):
            raise
        raise CliError(f"{sources[name]} {rest}") from None


def _resolve_seed(flag_value, file_cfg) -> tuple:
    """(seed, its source): the --seed flag, then the config file's seed,
    then QCNN_SEED, then 0 from no source.  The library checks the value."""
    if flag_value is not None:
        return flag_value, "--seed"
    if "seed" in file_cfg:
        return file_cfg["seed"], "config key 'seed'"
    value = os.environ.get("QCNN_SEED")
    if value is None:
        return 0, None
    try:
        return decimal_int(value.strip()), "QCNN_SEED"
    except ValueError:
        raise CliError(f"QCNN_SEED must be a non-negative integer, got {value!r}") from None


def _load_config_file(path) -> dict:
    """The flat JSON object of an ASCII config file; a refusal names the file,
    and a key given twice is refused rather than read as its last value."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise CliError(f"{path}: duplicate config key {key!r}")
            seen.add(key)
        return dict(pairs)

    raw = read_ascii(path, CliError)
    try:
        doc = json.loads(raw, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep a nesting
        raise CliError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a flat JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def cmd_gen(args) -> int:
    seed, source = _resolve_seed(args.seed, {})
    with _named({"n": "--count", "side": "--side", "seed": source}):
        data = gen_dataset(args.count, args.side, seed)
    save_dataset(data, args.out)
    ones = int(data.labels.sum())
    print(f"wrote {len(data)} samples to {args.out} (label 1: {ones}, label 0: {len(data) - ones})")
    return EXIT_OK


def _merged_train_settings(args) -> tuple:
    """(TrainConfig, sources, data path, params path, curve path): flags
    that were given override config-file values, which override the
    defaults.  sources names where each setting came from, its flag (also
    for a default path), its config key or QCNN_SEED, and a refusal of the
    setting starts with that name."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    for key in _PATH_DEFAULTS:
        if key in file_cfg and not isinstance(file_cfg[key], str):
            raise CliError(f"config key '{key}' must be a path string, got {file_cfg[key]!r}")
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS and value is not None}
    seed, seed_source = _resolve_seed(args.seed, file_cfg)
    merged = {**_PATH_DEFAULTS, **file_cfg, **flags, "seed": seed}
    sources = {key: f"config key '{key}'" if key in file_cfg and key not in flags else args.flag_names[key] for key in merged}
    sources["seed"] = seed_source
    paths = [merged.pop(key) for key in _PATH_DEFAULTS]
    if merged.get("arch") is None:
        raise CliError("an architecture is required (--arch or config file)")
    with _named(sources):
        config = TrainConfig(**merged)
        if config.learning_rate == 0:  # the API keeps 0 for a frozen model; a run refuses it
            raise ValueError(f"learning_rate must be positive, got {config.learning_rate}")
    return (config, sources, *paths)


def _refuse_overwrite(out, out_source, inputs) -> None:
    """Refuse an output path that names, by any spelling, a file of
    inputs, a list of (source, path or None)."""
    for source, path in inputs:
        if path is not None and os.path.realpath(out) == os.path.realpath(path):
            raise CliError(f"{out_source} and {source} both name {out}")


def cmd_train(args) -> int:
    config, sources, data_path, params_out, curve_out = _merged_train_settings(args)
    for key, out in (("params_out", Path(params_out)), ("curve_out", Path(curve_out))):
        if out.is_dir():
            raise CliError(f"{sources[key]} {out} is a directory")
        if not out.parent.is_dir():
            raise CliError(f"cannot write {out}: directory {out.parent} does not exist")
        _refuse_overwrite(out, sources[key], [(sources["data"], data_path), ("--config", args.config)])
    _refuse_overwrite(params_out, sources["params_out"], [(sources["curve_out"], curve_out)])
    dataset = None
    if data_path is not None:
        dataset = load_dataset(data_path)
        if dataset.side != config.arch.image_side:
            raise CliError(
                f"{data_path} holds {dataset.side}x{dataset.side} images but "
                f"{config.arch.value} expects {config.arch.image_side}x{config.arch.image_side}"
            )
        if len(dataset) < config.batch_size:
            batch = sources.get("batch_size", "the default batch size")
            raise CliError(f"{data_path} holds {len(dataset)} rows, fewer than {batch} {config.batch_size}")
    log_fn = (lambda line: print(line, file=sys.stderr)) if args.progress else None
    t0 = time.perf_counter()
    with _named({"n": sources.get("batch_size")}):  # a batch too large to draw
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
    side = samples.side
    arch = _ARCH_BY_SIDE[side]
    params = load_params(args.params)
    if params.vector().size != arch.n_params:
        raise CliError(
            f"{args.params} holds {params.vector().size} angles but {arch.value} "
            f"(inferred from {side}x{side} data) needs {arch.n_params}"
        )
    config = TrainConfig(arch=arch, measure_mode=args.measure)
    with _named({"threshold": "--threshold"}):
        m, acc = evaluate(params, samples, config, threshold=args.threshold)
    print(f"samples {len(samples)}")
    print(f"mse {m:.6f}")
    print(f"accuracy {acc:.6f}")
    return EXIT_OK


def cmd_featmap(args) -> int:
    _refuse_overwrite(args.out, "--out", [("--in", args.infile), ("--params", args.params)])
    grid = read_pgm(args.infile)
    kernel = load_params(args.params).vector()[:4]
    with _named({"pixels": args.infile}):
        probs = conv_feature_map(grid, kernel)
    out = np.rint(np.clip(probs, 0.0, 1.0) * 255).astype(np.int64)
    write_pgm(args.out, out, comment="window summary probabilities, rescaled to 0..255")
    print(f"wrote {out.shape[0]}x{out.shape[1]} feature map to {args.out}")
    return EXIT_OK


def _values(enum_cls) -> list:
    return [m.value for m in enum_cls]


@functools.cache  # built on the first entry call, not at import, and kept for the process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcnn",
        description="Train and inspect small variational image classifiers on pixel lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled dataset CSV")
    p.add_argument("--side", type=decimal_int, required=True, help="image side length (2, 4 or 8)")
    p.add_argument("--count", type=decimal_int, required=True, help="number of samples")
    p.add_argument("--seed", type=decimal_int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model and write params + loss curve")
    p.add_argument("--config", help="flat JSON config file; flags override it")
    # each dest is the TrainConfig field or config key the flag sets
    p.add_argument("--arch", choices=_values(Architecture))
    p.add_argument("--epochs", type=decimal_int)
    p.add_argument("--batch", dest="batch_size", type=decimal_int, help="samples per epoch")
    p.add_argument("--lr", dest="learning_rate", type=decimal_float, help="learning rate")
    p.add_argument("--shots", type=decimal_int)
    p.add_argument("--grad", dest="grad_method", choices=_values(GradMethod))
    p.add_argument("--measure", dest="measure_mode", choices=_values(MeasureMode))
    p.add_argument("--update", dest="update_strategy", choices=_values(UpdateStrategy))
    p.add_argument("--eval-mode", choices=_values(EvalMode))
    p.add_argument("--init", dest="init_scheme", choices=_values(InitScheme))
    p.add_argument("--seed", type=decimal_int)
    p.add_argument("--data", help="fixed dataset CSV reused every epoch")
    p.add_argument("--params-out")
    p.add_argument("--curve-out")
    p.add_argument("--progress", action="store_true", help="log one line per epoch to stderr")
    p.set_defaults(fn=cmd_train, flag_names={a.dest: a.option_strings[-1] for a in p._actions})
    p._negative_number_matcher = NEGATIVE_NUMBER  # so --lr -1e-7 reaches the learning_rate rule

    p = sub.add_parser("eval", help="report MSE and accuracy of saved params on a dataset")
    p.add_argument("--params", required=True, help="params file, one angle per line")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--measure", choices=_values(MeasureMode), default=MeasureMode.END_TO_END.value,
                   help="circuit to score with; match the one the params were trained with")
    p.add_argument("--threshold", type=decimal_float, default=0.5)
    p.set_defaults(fn=cmd_eval)
    p._negative_number_matcher = NEGATIVE_NUMBER

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
    except (CliError, ValueError, OSError) as exc:
        detail = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
