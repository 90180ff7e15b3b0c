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
run_epochs is the one epoch loop, and score the one scorer, of both these
networks and the classical reference in baseline.py.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from . import runner
from ._io import require_int, write_text_atomic
from .dataset import as_dataset, gen_dataset
from .encoding import pixel_cos, pixel_to_angle, prob_to_angle
from .network import Architecture, InitScheme, ModelParams, _enum_from, build_plan, group_plan, init_params
from .runner import run_plan_batch  # noqa: F401  (timed through this name by perfbench/tracer.py)

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
    init_scheme: InitScheme = InitScheme.UNIFORM
    seed: int = 0

    def __post_init__(self):
        """The one check of each setting; a refusal starts with the field's name."""
        for name, enum_cls in _CHOICES.items():
            setattr(self, name, _enum_from(enum_cls, getattr(self, name), name))
        for name in ("epochs", "batch_size", "shots", "seed"):
            setattr(self, name, require_int(name, getattr(self, name), 0 if name == "seed" else 1))
        if self.shots > 2**63 - 1:  # the most Generator.binomial draws for sampled readouts
            raise ValueError(f"shots must be at most 2**63 - 1, got {self.shots}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 <= lr < np.inf:
            raise ValueError(f"learning_rate must be a finite real number >= 0, got {lr!r}")


# the TrainConfig fields that name a choice, and the enum of each
_CHOICES = {name: kind for name, kind in get_type_hints(TrainConfig).items() if issubclass(kind, Enum)}


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


def save_curve(curve: LossCurve, path) -> None:
    """Loss curve CSV: header `epoch,mse`, one row per epoch."""
    lines = ["epoch,mse"]
    for e, m in zip(curve.epochs, curve.mses):
        lines.append(f"{e},{m:.17g}")
    write_text_atomic(path, "\n".join(lines) + "\n")


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
    """The generator numpy seeds from the tuple of non-negative ints `key`.
    SeedSequence gets the uint32 words numpy would make of the tuple (each
    int's 32-bit words, low word first, at least one per int) as one array,
    which skips numpy's slow per-int conversion; the pool, and so the
    stream, are the same."""
    words = []
    for k in map(int, key):
        if k < 0:
            raise ValueError(f"a stream key must be non-negative, got {k}")
        words.append(k & 0xFFFFFFFF)
        while k := k >> 32:
            words.append(k & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


class TrainingObjective:
    """One batch bound to one architecture and config: evaluates readout
    probabilities, optionally with a single rotation occurrence displaced,
    and assembles the per-sample circuit jacobian from those displacements.

    Every readout is a kernel factor times a per-row product
    (runner.template_steps refuses a template for which it is not).  Each
    evaluation is one row of a kernel batch: a layer runs its group
    template once (runner.run_template) on its kernel angles alone, one row
    per evaluation and group with that evaluation's displacement added,
    every data wire in |0> as the all-black row leaves it.  End to end each
    layer takes the Bloch vectors of the layer below, and the root's z, F,
    gives p1 = 1/2 - F phi / 2, where phi is the product of cos(pixel
    angle) over the row.  Measured after each layer, a group's z is its
    kernel factor times the product of its inputs' z: cos of the pixel
    angles at the first layer, and above it cos of the re-encoded readouts
    of the layer below, drawn when sampled.
    """

    def __init__(self, config: TrainConfig, pixel_rows, labels, base_key: int = 0):
        self.config = config
        self.arch = config.arch
        pixel_rows = np.asarray(pixel_rows)
        if pixel_rows.ndim != 2 or pixel_rows.shape[1] != self.arch.image_side ** 2:
            raise ValueError(
                f"{self.arch.value} expects {self.arch.image_side ** 2} pixels per row, got {pixel_rows.shape}"
            )
        self._pixel_rows = pixel_rows
        self.cos = pixel_cos(pixel_rows)  # (B, P) cos of each pixel's angle
        self.phi = np.prod(self.cos, axis=1)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.labels.shape != (pixel_rows.shape[0],):
            raise ValueError("one label per pixel row is required")
        self.plan, self.layers = build_plan(self.arch)
        self._occs = {spec.param_layer: len(spec.groups) for spec in self.layers if spec.kind == "conv"}
        self.base_key = require_int("base_key", base_key, 0)
        self._eval_ordinal = 0
        self.evals = 0

    @property
    def angles(self) -> np.ndarray:
        """(B, P) pixel angles of the rows; the readouts need only their cos."""
        return pixel_to_angle(self._pixel_rows)

    @property
    def batch_size(self) -> int:
        return self.labels.shape[0]

    def _draw(self, probs, ordinals, layer) -> np.ndarray:
        """Sampled mode: each evaluation's readouts probs[e] as binomial
        counts over the shot number, drawn on the stream keyed by (seed,
        _TAG_SHOTS, base_key, ordinals[e], layer)."""
        if self.config.eval_mode is EvalMode.EXACT:
            return probs
        # on the 2^-32 grid, 1/2 + 1 ulp draws as 1/2 does, not as shots - X(1/2 - 1 ulp)
        p = np.rint(np.clip(probs, 0.0, 1.0) * 2.0**32) / 2.0**32
        counts = np.empty(p.shape, dtype=np.int64)
        for e, ordinal in enumerate(ordinals):
            rng = _derived_rng(self.config.seed, _TAG_SHOTS, self.base_key, ordinal, layer)
            counts[e] = rng.binomial(self.config.shots, p[e])
        return counts / self.config.shots

    def _check_params(self, params: ModelParams) -> None:
        n = params.vector().size
        if n != self.arch.n_params:
            raise ValueError(f"{self.arch.value} takes {self.arch.n_params} angles, got {n}")

    def _evaluate(self, params, rows) -> np.ndarray:
        """Readouts (E, B) of E evaluations, one per entry of rows: None for
        the plain readout, or (layer, j, occ, delta), kernel angle (layer, j)
        moved by delta in group occ of its conv layer.  Each conv layer runs
        on (E, G, 4) kernel angles, one row per evaluation and group."""
        e, b = len(rows), self.batch_size
        kernels = {layer: np.tile(params.layers[layer], (e, g, 1)) for layer, g in self._occs.items()}
        for r, row in enumerate(rows):
            if row is not None:
                layer, j, occ, delta = row
                if j not in range(4) or occ not in range(self._occs.get(layer, 0)):
                    raise ValueError(f"the {self.arch.value} network has no occurrence {occ} of angle {(layer, j)}")
                kernels[layer][r, occ, j] += delta
        ordinals = range(self._eval_ordinal, self._eval_ordinal + e)
        self._eval_ordinal += e
        self.evals += e * b
        measured = self.config.measure_mode is MeasureMode.INTERMEDIATE
        state, z = None, self.cos
        for li, spec in enumerate(self.layers):
            groups = np.array(spec.groups)
            kernel = kernels.get(spec.param_layer, np.zeros((e, len(groups), 0)))
            inputs = state[:, groups] if li and not measured else None
            state = runner.run_template(group_plan(spec.kind, spec.param_layer), kernel, inputs)
            if measured:
                if li:
                    drawn = self._draw(runner.readout_probs(z), ordinals, li)
                    z = np.cos(prob_to_angle(drawn.reshape(e * b, -1))).reshape(e, b, -1)
                z = state[:, None, :, 2] * np.prod(z[..., groups], axis=-1)
        z = z[..., 0] if measured else state[:, :1, 2] * self.phi
        return self._draw(runner.readout_probs(z), ordinals, len(self.layers) if measured else 0)

    def p1(self, params: ModelParams, shift_occ=None) -> np.ndarray:
        """Readout probability per sample.  shift_occ = (layer, index, occ,
        delta) displaces occurrence `occ` of one trainable angle."""
        self._check_params(params)
        return self._evaluate(params, [None if shift_occ is None else tuple(shift_occ)])[0]

    def jacobian(self, params: ModelParams, slots=None) -> np.ndarray:
        """d p1 / d angle per sample, from two-point displacements summed
        over each angle's occurrences.  Columns follow `slots` (default: all
        angles, layer-major)."""
        self._check_params(params)
        slots = list(slots) if slots is not None else self.plan.param_slots()
        # a slot of a layer the network lacks keeps one row, for _evaluate to refuse
        sites = [(c, (layer, j, o, d)) for c, (layer, j) in enumerate(slots)
                 for o in range(self._occs.get(layer, 1)) for d in (np.pi / 2, -np.pi / 2)]
        p = self._evaluate(params, [row for _, row in sites]) if sites else ()
        cols = np.zeros((self.batch_size, len(slots)))
        for (c, _), up, dn in zip(sites[::2], p[0::2], p[1::2]):
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


def run_epochs(config: TrainConfig, dataset, log_fn, init, step):
    """The training protocol shared by every model; returns (final state,
    loss curve).  init(seed) gives the model's initial state from the
    run's init seed.  Each epoch, step(state, epoch, pixels, labels) returns
    (state, mse, evaluations) for that epoch's batch as the Dataset's uint8
    arrays: the first batch_size rows of `dataset`, or without it a fresh
    seeded batch.  Epoch time, the loss curve and the log_fn line are kept
    here."""
    if dataset is not None:
        if len(dataset) < config.batch_size:
            raise ValueError(f"dataset holds {len(dataset)} rows, fewer than the batch size {config.batch_size}")
        fixed = as_dataset(dataset[: config.batch_size])
    state = init(int(_derived_rng(config.seed, _TAG_INIT).integers(0, 2**63 - 1)))
    curve = LossCurve()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        if dataset is None:
            seed = _derived_rng(config.seed, _TAG_DATA, epoch).integers(0, 2**63 - 1)
            batch = gen_dataset(config.batch_size, config.arch.image_side, int(seed))
        else:
            batch = fixed
        state, epoch_mse, evals = step(state, epoch, batch.pixels, batch.labels)
        ms = (time.perf_counter() - t0) * 1000.0
        curve.record(epoch, epoch_mse, ms, evals)
        if log_fn is not None:
            log_fn(f"epoch={epoch} mse={epoch_mse:.6f} wall_ms={ms:.1f} evals={evals}")
    return state, curve


def score(samples, threshold, predict):
    """(MSE, accuracy) of the activated outputs predict(pixels, labels)
    over a Dataset or LabeledImage list; an output above `threshold`
    predicts label 1."""
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be a real number strictly inside (0, 1), got {threshold!r}")
    data = as_dataset(samples)
    acts = predict(data.pixels, data.labels)
    return mse(acts, data.labels), float(np.mean((acts > threshold) == data.labels))


def train(config: TrainConfig, dataset=None, log_fn=None, initial: ModelParams = None):
    """Run the training protocol and return (final params, loss curve).

    dataset: optional Dataset or LabeledImage list reused every epoch (the
    first batch_size rows, so it must hold at least that many); without it
    each epoch draws a fresh seeded batch.  Simultaneous updates move every
    angle from the epoch's readouts; layer-wise updates move one layer at a
    time, each from fresh readouts at the params the previous layer left.
    """
    simultaneous = config.update_strategy is UpdateStrategy.SIMULTANEOUS
    slots = build_plan(config.arch)[0].param_slots()
    by_layer = [[s for s in slots if s[0] == layer] for layer in range(config.arch.conv_layer_count)]
    slot_groups = [slots] if simultaneous else by_layer

    def init(seed):
        return initial if initial is not None else init_params(config.arch, seed, config.init_scheme)

    def step(params, epoch, pixels, labels):
        obj = TrainingObjective(config, pixels, labels, base_key=epoch)
        p1s = obj.p1(params)
        epoch_mse = mse(activate(p1s), labels)
        for group in slot_groups:
            readouts = p1s if simultaneous else obj.p1(params)
            params = params.with_update(config.learning_rate * update_direction(obj, params, readouts, group))
        return params, epoch_mse, obj.evals

    return run_epochs(config, dataset, log_fn, init, step)


def evaluate(params: ModelParams, samples, config: TrainConfig, threshold: float = 0.5):
    """MSE and accuracy of a parameter set over a Dataset or LabeledImage
    list from exact readouts, whatever config.eval_mode says; an activated
    readout above `threshold` predicts label 1."""
    exact = replace(config, eval_mode=EvalMode.EXACT)

    def predict(pixels, labels):
        return activate(TrainingObjective(exact, pixels, labels).p1(params))

    return score(samples, threshold, predict)
