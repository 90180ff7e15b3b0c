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
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import runner
from ._io import write_text_atomic
from .dataset import gen_dataset
from .encoding import pixel_to_angle, prob_to_angle
from .gates import Angle
from .network import Architecture, ModelParams, build_plan, group_plan, init_params, layer_structure
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
    init_scheme: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        self.arch = _enum_from(Architecture, self.arch, "arch")
        self.grad_method = _enum_from(GradMethod, self.grad_method, "gradient method")
        self.measure_mode = _enum_from(MeasureMode, self.measure_mode, "measure mode")
        self.update_strategy = _enum_from(UpdateStrategy, self.update_strategy, "update strategy")
        self.eval_mode = _enum_from(EvalMode, self.eval_mode, "eval mode")
        for name in ("epochs", "batch_size", "shots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real):
            raise ValueError(f"learning_rate must be a real number, got {lr!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise ValueError("learning rate must be non-negative and finite")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.init_scheme not in ("uniform", "zeros"):
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")
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
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(tuple(int(k) for k in key))))


def _pixels_and_labels(samples) -> tuple:
    """(pixel rows, labels) of a sample list as float64 arrays."""
    pixels = np.stack([np.asarray(s.pixels, dtype=np.float64) for s in samples])
    return pixels, np.array([s.label for s in samples], dtype=np.float64)


class TrainingObjective:
    """One batch bound to one architecture and config: evaluates readout
    probabilities, optionally with a single rotation occurrence displaced,
    and assembles the per-sample circuit jacobian from those displacements.

    Each layer runs its group template as a tree of two-input channels
    (runner.run_template) over all of its groups at once, with the walker's
    bits.  End to end the readout is linear in the input state x of any one
    rotation, so one backward sweep gives all displaced readouts from the
    derivative g there: p + g . (R(delta) x R(delta)^dagger - x).  Measured
    after each layer, a displaced evaluation runs its group again, then the
    layers above on its own draws when sampled.
    """

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
        self.plan = build_plan(self.arch)[0]
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

    def _draw(self, probs, ordinals, layer) -> np.ndarray:
        """Sampled mode: each evaluation's rows of probs, drawn on its key."""
        if self.config.eval_mode is EvalMode.EXACT:
            return probs
        return np.concatenate([self._sample(p, o, layer) for p, o in zip(np.split(probs, len(ordinals)), ordinals)])

    def _site(self, layer, j, occ) -> int:
        """Index of the conv layer whose group `occ` holds angle (layer, j)."""
        li = next((i for i, spec in enumerate(self.layers) if spec.param_layer == layer), None)
        if li is None or j not in range(4) or occ not in range(len(self.layers[li].groups)):
            raise ValueError(f"the {self.arch.value} network has no occurrence {occ} of angle {(layer, j)}")
        return li

    def _walk(self, params, ordinals, site=None, tapes=None) -> np.ndarray:
        """States (rows, 1, 2, 2) of the root.  Measured after each layer,
        rows are shared until the evaluations part, at the first draw or at
        the displaced layer, where site = (layer index, angle, occs, deltas)
        runs each evaluation's group again with the angle moved."""
        b, e = self.batch_size, len(ordinals)
        rho = self.angles
        for li, spec in enumerate(self.layers):
            values, tpl, groups = rho, group_plan(spec.kind, spec.param_layer), np.array(spec.groups)
            if li and self.config.measure_mode is MeasureMode.INTERMEDIATE:
                outs = runner.readout_probs(rho)
                if self.config.eval_mode is EvalMode.SAMPLED:
                    outs = np.tile(outs, (e * b // len(outs), 1))
                values = prob_to_angle(self._draw(outs, ordinals, li))
            given = {"inputs" if values.ndim == 4 else "data": values[:, groups]}
            rho = runner.run_template(tpl, params, tape=None if tapes is None else tapes[li], **given)
            if site is not None and site[0] == li:
                copies = np.arange(e) % (len(values) // b)
                x = np.take_along_axis(values.reshape(-1, b, values.shape[1])[copies], groups[site[2]][:, None], axis=2)
                rho = rho.reshape((-1, b) + rho.shape[1:])[copies]
                rho[np.arange(e), :, site[2]] = runner.run_template(tpl, params, data=x, shift={site[1]: site[3][:, None]})
                rho = rho.reshape((e * b,) + rho.shape[2:])
        return rho

    def _sweep(self, params):
        """End to end: the root readouts (B,) and, from one backward sweep,
        each kernel rotation's (input state, derivative of the root readout
        there, gate), the first two (B, G, 2, 2) over its layer's groups."""
        tapes, rots = [[] for _ in self.layers], {}
        rho = self._walk(params, range(1), tapes=tapes)
        g = np.broadcast_to(runner.UNITS[3], rho.shape)
        for li, spec in reversed(list(enumerate(self.layers))):
            order = np.argsort(np.ravel(spec.groups))
            found, grads = runner.sweep_template(group_plan(spec.kind, spec.param_layer), tapes[li], g)
            rots.update(found)
            if li:  # the inputs' derivatives, back in the order of the layer below
                g = np.stack([grads[w] for w in range(len(spec.groups[0]))], 2).reshape(len(rho), -1, 2, 2)[:, order]
        return runner.readout_probs(rho)[:, 0], rots

    def _evaluate(self, params, slot=None, sites=((0, 0.0),), swept=None) -> np.ndarray:
        """Readouts (E, B) of E evaluations: undisplaced (slot None), or with
        kernel angle `slot` moved by delta in group occ for each (occ, delta)
        of sites.  swept: _sweep(params), shared across a jacobian's slots."""
        ordinals = range(self._eval_ordinal, self._eval_ordinal + len(sites))
        self._eval_ordinal += len(sites)
        self.evals += len(sites) * self.batch_size
        measured = self.config.measure_mode is MeasureMode.INTERMEDIATE
        occ, delta = (np.array(a) for a in zip(*sites))
        site = None if slot is None else (max(self._site(*slot, o) for o in occ), Angle.param(*slot), occ, delta)
        if site is None or measured:
            p = runner.readout_probs(self._walk(params, ordinals, site))[:, 0]
        else:
            root, rots = swept or self._sweep(params)
            x, g, gate = rots[site[1]]
            rot = (np.swapaxes(x[:, occ], 0, 1), np.swapaxes(g[:, occ], 0, 1), gate)
            p = np.clip(root + runner.moved(rot, delta[:, None]), 0.0, 1.0)
        return self._draw(p.reshape(-1, 1), ordinals, len(self.layers) if measured else 0).reshape(len(sites), -1)

    def p1(self, params: ModelParams, shift_occ=None) -> np.ndarray:
        """Readout probability per sample.  shift_occ = (layer, index, occ,
        delta) displaces occurrence `occ` of one trainable angle."""
        if shift_occ is None:
            return self._evaluate(params)[0]
        return self._evaluate(params, tuple(shift_occ[:2]), [tuple(shift_occ[2:])])[0]

    def jacobian(self, params: ModelParams, slots=None) -> np.ndarray:
        """d p1 / d angle per sample, from two-point displacements summed
        over each angle's occurrences.  Columns follow `slots` (default: all
        angles, layer-major)."""
        slots = list(slots) if slots is not None else self.plan.param_slots()
        cols = np.zeros((self.batch_size, len(slots)))
        swept = self._sweep(params) if self.config.measure_mode is MeasureMode.END_TO_END else None
        for c, (layer, j) in enumerate(slots):
            n_occ = len(self.layers[self._site(layer, j, 0)].groups)
            p = self._evaluate(params, (layer, j), [(o, d) for o in range(n_occ) for d in (np.pi / 2, -np.pi / 2)], swept)
            for up, dn in zip(p[0::2], p[1::2]):
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


def _require_threshold(threshold) -> None:
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be a real number strictly inside (0, 1), got {threshold!r}")


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
    by_layer = [[s for s in slots if s[0] == layer] for layer in range(config.arch.conv_layer_count)]
    slot_groups = [slots] if simultaneous else by_layer

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        batch = _epoch_batch(config, dataset, epoch)
        pixels, labels = _pixels_and_labels(batch)
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


def evaluate(params: ModelParams, samples, config: TrainConfig, threshold: float = 0.5):
    """MSE and accuracy of a parameter set over a sample list from exact
    readouts, whatever config.eval_mode says; an activated readout above
    `threshold` predicts label 1."""
    _require_threshold(threshold)
    if not samples:
        raise ValueError("cannot evaluate an empty dataset")
    pixels, labels = _pixels_and_labels(samples)
    obj = TrainingObjective(replace(config, eval_mode=EvalMode.EXACT), pixels, labels)
    acts = activate(obj.p1(params))
    preds = (acts > threshold).astype(np.float64)
    return mse(acts, labels), float(np.mean(preds == labels))
