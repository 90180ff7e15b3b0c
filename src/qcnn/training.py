"""Training loop and gradient rules for the lattice convolution networks.

The readout probability p1 enters the logistic activation as the signed
shot-average 2*p1 - 1 (the measured value in -1..1 units), and the loss is
the mean squared error of the activated values against the labels.  Three
update rules are supported: the activation-derivative
heuristic (one scalar nudges every kernel angle), the circuit-derivative
rule (angle displacement by +-pi/2 per rotation occurrence, the two-point
expectation identity for X rotations), and their combination.  Update
magnitudes keep the source protocol's units: circuit outputs enter the
update formulas scaled by the shot count and the batch reduces by sum, so
learning_rate 1e-7 with batch 1000 and 1000 shots moves angles by useful
amounts.  Mathematically the circuit-derivative direction is an exact
gradient: summing the two-point displacements over every occurrence of a
shared angle differentiates p1 itself, and the chained variants inherit
that exactness (verified against finite differences in the tests).
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import gen_dataset
from .encoding import pixel_to_angle, prob_to_angle
from .network import (
    Architecture,
    ModelParams,
    build_plan,
    group_plan,
    init_params,
    layer_structure,
)
from .runner import DEFAULT_WIDTH_CAP, run_plan_batch

_TAG_INIT = 101
_TAG_DATA = 202
_TAG_SHOTS = 303


class GradMethod(Enum):
    SIGMOID = "sigmoid"
    SHIFT = "shift"
    COMBINED = "combined"


class MeasureMode(Enum):
    END_TO_END = "end-to-end"
    INTERMEDIATE = "intermediate"


class UpdateStrategy(Enum):
    SIMULTANEOUS = "simultaneous"
    LAYER_WISE = "layer-wise"


class EvalMode(Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


def _enum_from(enum_cls, value, what):
    if isinstance(value, enum_cls):
        return value
    for member in enum_cls:
        if member.value == value:
            return member
    valid = ", ".join(m.value for m in enum_cls)
    raise ValueError(f"unknown {what} {value!r}; choose one of: {valid}")


@dataclass
class TrainConfig:
    arch: Architecture
    epochs: int = 500
    batch_size: int = 1000
    learning_rate: float = 1e-7
    shots: int = 1000
    grad_method: GradMethod = GradMethod.SHIFT
    measure_mode: MeasureMode = MeasureMode.END_TO_END
    update_strategy: UpdateStrategy = UpdateStrategy.SIMULTANEOUS
    eval_mode: EvalMode = EvalMode.EXACT
    threshold: float = 0.5
    init_scheme: str = "uniform"
    seed: int = 0
    jobs: int = None
    width_cap: int = DEFAULT_WIDTH_CAP

    def __post_init__(self):
        self.arch = _enum_from(Architecture, self.arch, "arch")
        self.grad_method = _enum_from(GradMethod, self.grad_method, "gradient method")
        self.measure_mode = _enum_from(MeasureMode, self.measure_mode, "measure mode")
        self.update_strategy = _enum_from(UpdateStrategy, self.update_strategy, "update strategy")
        self.eval_mode = _enum_from(EvalMode, self.eval_mode, "eval mode")
        for name in ("epochs", "batch_size", "shots", "seed", "jobs", "width_cap"):
            value = getattr(self, name)
            if name == "jobs" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise ValueError("learning rate must be non-negative and finite")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("decision threshold must lie strictly inside (0, 1)")
        if self.init_scheme not in ("uniform", "zeros"):
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")
        if self.width_cap < 1:
            raise ValueError("width cap must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.seed = int(self.seed)


@dataclass
class LossCurve:
    epochs: list = field(default_factory=list)
    mses: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    evals: list = field(default_factory=list)

    def record(self, epoch, mse_value, ms, n_evals):
        self.epochs.append(int(epoch))
        self.mses.append(float(mse_value))
        self.wall_ms.append(float(ms))
        self.evals.append(int(n_evals))

    @property
    def final_mse(self) -> float:
        return self.mses[-1]

    @property
    def total_evals(self) -> int:
        return sum(self.evals)

    @property
    def total_wall_ms(self) -> float:
        return sum(self.wall_ms)


def save_curve(curve: LossCurve, path) -> None:
    """Loss curve CSV: header `epoch,mse`, one row per epoch."""
    lines = ["epoch,mse"]
    for e, m in zip(curve.epochs, curve.mses):
        lines.append(f"{e},{m:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def sigmoid_deriv(x):
    s = sigmoid(x)
    return s * (1.0 - s)


def activate(p1):
    """Activation of the readout: logistic of the signed expectation
    2*p1 - 1, the shot-averaged measured value in the -1..1 convention.
    Centered at p1 = 1/2 so both classes start equally far from their
    targets."""
    return sigmoid(2.0 * np.asarray(p1, dtype=np.float64) - 1.0)


def activate_deriv(p1):
    """Derivative of the logistic at the signed-expectation input (the
    per-sample chain factor shared by the combined and heuristic rules)."""
    return sigmoid_deriv(2.0 * np.asarray(p1, dtype=np.float64) - 1.0)


def mse(predictions, labels) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have matching shapes")
    return float(np.mean((predictions - labels) ** 2))


def _derived_rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(tuple(int(k) for k in key))))


def _pixel_matrix(batch) -> np.ndarray:
    return np.stack([np.asarray(s.pixels, dtype=np.float64) for s in batch])


class TrainingObjective:
    """One batch bound to one architecture and config: evaluates readout
    probabilities, optionally with a single rotation occurrence displaced,
    and assembles the per-sample circuit jacobian from those displacements."""

    def __init__(self, config: TrainConfig, pixel_rows, labels, base_key: int = 0):
        self.config = config
        self.arch = config.arch
        pixel_rows = np.asarray(pixel_rows, dtype=np.float64)
        if pixel_rows.ndim != 2 or pixel_rows.shape[1] != self.arch.image_side ** 2:
            raise ValueError(
                f"{self.arch.value} expects {self.arch.image_side ** 2} pixels per row, got {pixel_rows.shape}"
            )
        self.angles = pixel_to_angle(pixel_rows)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.labels.shape != (pixel_rows.shape[0],):
            raise ValueError("one label per pixel row is required")
        self.plan, _ = build_plan(self.arch)
        self.layers = layer_structure(self.arch)
        self.base_key = int(base_key)
        self._eval_ordinal = 0
        self.evals = 0

    @property
    def batch_size(self) -> int:
        return self.labels.shape[0]

    def _sample(self, probs, *key) -> np.ndarray:
        rng = _derived_rng(self.config.seed, _TAG_SHOTS, self.base_key, *key)
        return rng.binomial(self.config.shots, np.clip(probs, 0.0, 1.0)) / self.config.shots

    def p1(self, params: ModelParams, shift_occ=None) -> np.ndarray:
        """Readout probability per sample.  shift_occ = (layer, index, occ,
        delta) displaces occurrence `occ` of one trainable angle."""
        ordinal = self._eval_ordinal
        self._eval_ordinal += 1
        self.evals += self.batch_size
        cfg = self.config
        sampled = cfg.eval_mode is EvalMode.SAMPLED

        if cfg.measure_mode is MeasureMode.END_TO_END:
            shift = None
            if shift_occ is not None:
                layer, j, occ, delta = shift_occ
                gate_idx = self.plan.param_occurrences(layer, j)[occ]
                shift = {gate_idx: delta}
            p = run_plan_batch(
                self.plan, self.angles, params,
                shift=shift, width_cap=cfg.width_cap, jobs=cfg.jobs,
            )
            return self._sample(p, ordinal, 0) if sampled else p

        values = self.angles
        for li, spec in enumerate(self.layers):
            tpl = group_plan(spec.kind, spec.param_layer)
            outs = np.empty((self.batch_size, len(spec.groups)))
            for g, grp in enumerate(spec.groups):
                shift = None
                if (
                    shift_occ is not None
                    and spec.kind == "conv"
                    and spec.param_layer == shift_occ[0]
                    and g == shift_occ[2]
                ):
                    gate_idx = tpl.param_occurrences(shift_occ[0], shift_occ[1])[0]
                    shift = {gate_idx: shift_occ[3]}
                outs[:, g] = run_plan_batch(
                    tpl, values[:, grp], params,
                    shift=shift, width_cap=cfg.width_cap, jobs=cfg.jobs,
                )
            if sampled:
                outs = self._sample(outs, ordinal, li + 1)
            if li == len(self.layers) - 1:
                return outs[:, 0]
            values = prob_to_angle(outs)
        raise AssertionError("architecture has no layers")

    def jacobian(self, params: ModelParams, slots=None) -> np.ndarray:
        """d p1 / d angle per sample, from two-point displacements summed
        over each angle's occurrences.  Columns follow `slots` (default: all
        angles, layer-major)."""
        slots = list(slots) if slots is not None else self.plan.param_slots()
        cols = np.zeros((self.batch_size, len(slots)))
        for c, (layer, j) in enumerate(slots):
            n_occ = len(self.plan.param_occurrences(layer, j))
            if not n_occ:
                raise ValueError(f"the {self.arch.value} plan has no trainable angle {(layer, j)}")
            for occ in range(n_occ):
                up = self.p1(params, shift_occ=(layer, j, occ, +np.pi / 2))
                dn = self.p1(params, shift_occ=(layer, j, occ, -np.pi / 2))
                cols[:, c] += 0.5 * (up - dn)
        return cols


def update_direction(objective: TrainingObjective, params: ModelParams, p1s, slots) -> np.ndarray:
    """Flat per-angle update direction of the configured rule at readouts
    p1s, zero outside `slots`.  The circuit-derivative rules weight the
    shot-scaled jacobian by the prediction error (times the activation
    derivative for `combined`) and sum over the batch; `sigmoid` puts one
    scalar, shot-scaled readout times error times activation derivative
    summed over the batch, on every slot."""
    cfg = objective.config
    err = objective.labels - activate(p1s)
    cols = [4 * layer + j for layer, j in slots]
    direction = np.zeros(cfg.arch.n_params)
    if cfg.grad_method is GradMethod.SIGMOID:
        direction[cols] = float(np.sum((cfg.shots * p1s) * err * activate_deriv(p1s)))
        return direction
    w = err * activate_deriv(p1s) if cfg.grad_method is GradMethod.COMBINED else err
    jac = objective.jacobian(params, slots=slots)
    direction[cols] = (w[:, None] * (cfg.shots * jac)).sum(axis=0)
    return direction


def loss_gradient(objective: TrainingObjective, params: ModelParams) -> np.ndarray:
    """Exact gradient of the batch-mean squared error of the activated
    readout, assembled from the two-point circuit derivative and the closed
    forms of the outer layers.  A negative multiple of the `combined` rule's
    update direction."""
    p1s = objective.p1(params)
    jac = objective.jacobian(params)
    act = activate(p1s)
    w = 4.0 * (act - objective.labels) * activate_deriv(p1s) / objective.batch_size
    return (w[:, None] * jac).sum(axis=0)


def _require_full_batch(config: TrainConfig, dataset) -> None:
    if dataset is not None and len(dataset) < config.batch_size:
        raise ValueError(f"dataset holds {len(dataset)} rows, fewer than the batch size {config.batch_size}")


def _epoch_batch(config: TrainConfig, dataset, epoch: int):
    if dataset is not None:
        return dataset[: config.batch_size]
    seed = _derived_rng(config.seed, _TAG_DATA, epoch).integers(0, 2**63 - 1)
    return gen_dataset(config.batch_size, config.arch.image_side, int(seed))


def train(config: TrainConfig, dataset=None, log_fn=None, initial: ModelParams = None):
    """Run the training protocol and return (final params, loss curve).

    dataset: optional list of LabeledImage reused every epoch (the first
    batch_size samples, so it must hold at least that many); without it
    each epoch draws a fresh seeded batch.  Simultaneous updates move every
    angle from the epoch's readouts; layer-wise updates move one layer at a
    time, each from fresh readouts at the params the previous layer left.
    """
    _require_full_batch(config, dataset)
    init_seed = int(_derived_rng(config.seed, _TAG_INIT).integers(0, 2**63 - 1))
    params = initial if initial is not None else init_params(config.arch, init_seed, config.init_scheme)
    curve = LossCurve()
    simultaneous = config.update_strategy is UpdateStrategy.SIMULTANEOUS
    slots = build_plan(config.arch)[0].param_slots()
    if simultaneous:
        slot_groups = [slots]
    else:
        slot_groups = [[s for s in slots if s[0] == layer] for layer in range(config.arch.conv_layer_count)]

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        batch = _epoch_batch(config, dataset, epoch)
        pixels = _pixel_matrix(batch)
        labels = np.array([s.label for s in batch], dtype=np.float64)
        obj = TrainingObjective(config, pixels, labels, base_key=epoch)

        p1s = obj.p1(params)
        epoch_mse = mse(activate(p1s), labels)

        for group in slot_groups:
            readouts = p1s if simultaneous else obj.p1(params)
            params = params.with_update(config.learning_rate * update_direction(obj, params, readouts, group))

        ms = (time.perf_counter() - t0) * 1000.0
        curve.record(epoch, epoch_mse, ms, obj.evals)
        if log_fn is not None:
            log_fn(f"epoch={epoch} mse={epoch_mse:.6f} wall_ms={ms:.1f} evals={obj.evals}")

    return params, curve


def evaluate(params: ModelParams, samples, config: TrainConfig):
    """MSE and accuracy of a parameter set over a sample list, exact mode."""
    if not samples:
        raise ValueError("cannot evaluate an empty dataset")
    pixels = _pixel_matrix(samples)
    labels = np.array([s.label for s in samples], dtype=np.float64)
    obj = TrainingObjective(config, pixels, labels)
    acts = activate(obj.p1(params))
    preds = (acts > config.threshold).astype(np.float64)
    return mse(acts, labels), float(np.mean(preds == labels))
