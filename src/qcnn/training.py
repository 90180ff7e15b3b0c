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

import functools
import numbers
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from . import runner
from ._io import require_int, write_text_atomic
from .dataset import as_dataset, gen_dataset
from .encoding import pixel_cos, prob_to_angle
from .network import Architecture, InitScheme, ModelParams, _enum_from, build_plan, group_plan, init_params
from .runner import _read_only
from .runner import run_plan_batch  # noqa: F401  (timed through this name by perfbench/tracer.py)

_TAG_INIT = 101
_TAG_DATA = 202
_TAG_SHOTS = 303

# one displaced kernel angle: evaluation row, conv layer, angle, occurrence (group) and delta
_SITE = np.dtype([("row", np.intp), ("layer", np.intp), ("angle", np.intp), ("occ", np.intp), ("delta", np.float64)])


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
    evals: list = field(default_factory=list)

    def record(self, epoch, mse_value, n_evals):
        self.epochs.append(int(epoch))
        self.mses.append(float(mse_value))
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
    probabilities, and the per-sample circuit jacobian of every kernel
    angle or of one conv layer's four from the two-point displacements of
    each of their rotation occurrences.

    Every readout is a kernel factor times a per-row product (Bermejo et
    al., arXiv:2408.12739): a group template runs RY encodings, one RX turn
    per wire, then pair runs that scale a wire's (y, z) by its partner's z
    (runner.template_steps refuses any other).  So each call runs in two
    stages: _kernel_stage runs the templates on kernel angles alone, with
    no batch axis, and _row_stage multiplies in the rows.
    """

    def __init__(self, config: TrainConfig, pixel_rows, labels, base_key: int = 0):
        self.config = config
        self.arch = config.arch
        pixel_rows = np.asarray(pixel_rows)
        if pixel_rows.ndim != 2 or pixel_rows.shape[1] != self.arch.image_side ** 2:
            raise ValueError(f"pixel_rows must hold {self.arch.image_side ** 2} pixels per row for "
                             f"{self.arch.value}, got shape {pixel_rows.shape}")
        self.cos = pixel_cos(pixel_rows)  # (B, P) cos of each pixel's angle
        self.phi = np.prod(self.cos, axis=1)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.labels.shape != (pixel_rows.shape[0],):
            raise ValueError(f"labels must hold one label per pixel row, got shape {self.labels.shape}")
        self.layers = build_plan(self.arch)[1]
        self.base_key = require_int("base_key", base_key, 0)
        self._eval_ordinal = 0
        self.evals = 0

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

    def _check(self, params: ModelParams, layer=None):
        """Refuse params of another architecture, and a `layer` that is
        neither None nor the index of a conv layer; return the layer."""
        if params.vector().size != self.arch.n_params:
            raise ValueError(f"{self.arch.value} takes {self.arch.n_params} angles, got {params.vector().size}")
        if layer is None:
            return None
        layer = require_int("layer", layer, 0)
        if layer >= self.arch.conv_layer_count:
            raise ValueError(f"layer must name one of the {self.arch.conv_layer_count} conv layers of "
                             f"{self.arch.value}, got {layer}")
        return layer

    def _kernel_stage(self, params, tables) -> list:
        """Per layer, the (E, G) template readouts (y, z) of the evaluations
        and groups of the layer tables `tables` (_layer_tables), on kernel
        angles alone with every data wire in |0>.  A layer's kernel rows are
        its plain row, then one per site displaced in that layer; pick (E,
        G) names each evaluation's and group's row.  End to end each layer
        above the first starts from the layer below's (y, z), so the root's
        z is F; measured after each layer each starts from |0>, so its z is
        its kernel factor."""
        chained = self.config.measure_mode is MeasureMode.END_TO_END
        out = []
        for spec, groups, (k, angle, delta, pick) in zip(self.layers, _group_index(self.arch), tables):
            tpl = group_plan(spec.kind, spec.param_layer)
            conv = spec.kind == "conv"
            rows = np.repeat(params.layers[spec.param_layer][None] if conv else np.zeros((1, 0)), 1 + k.size, axis=0)
            rows[k, angle] += delta
            if out and chained:  # rows.take(pick, axis=0) is rows[pick], several times faster
                out.append(runner.run_template(tpl, rows.take(pick, axis=0), tuple(v[:, groups] for v in out[-1])))
            else:
                out.append(tuple(v[pick] for v in runner.run_template(tpl, rows)))
        return out

    def _row_stage(self, kernel) -> np.ndarray:
        """Readouts (E, B) of the E evaluations whose kernel stage gave
        `kernel`.  End to end p1 = 1/2 - F phi / 2, where phi is the product
        of cos(pixel angle) over the row.  Measured after each layer, a
        group's z is its kernel factor times the product of its inputs' z:
        cos of the pixel angles at the first layer, and above it cos of the
        re-encoded readouts of the layer below, drawn when sampled."""
        e = kernel[0][1].shape[0]
        ordinals = range(self._eval_ordinal, self._eval_ordinal + e)
        self._eval_ordinal, self.evals = self._eval_ordinal + e, self.evals + e * self.batch_size
        if self.config.measure_mode is MeasureMode.END_TO_END:
            return self._draw(runner.readout_probs(kernel[-1][1] * self.phi), ordinals, 0)
        z = self.cos
        for li, (groups, (_, factor)) in enumerate(zip(_group_index(self.arch), kernel)):
            if li:
                drawn = self._draw(runner.readout_probs(z), ordinals, li)
                z = np.cos(prob_to_angle(drawn.reshape(-1, drawn.shape[-1]))).reshape(drawn.shape)
            z = factor[:, None, :] * np.prod(z[..., groups], axis=-1)
        return self._draw(runner.readout_probs(z[..., 0]), ordinals, len(kernel))

    def p1(self, params: ModelParams) -> np.ndarray:
        """Readout probability per sample."""
        self._check(params)
        return self._row_stage(self._kernel_stage(params, _plain_tables(self.arch)))[0]

    def jacobian(self, params: ModelParams, layer=None) -> np.ndarray:
        """d p1 / d angle per sample, from two-point displacements summed
        over each angle's occurrences: a column per kernel angle,
        layer-major, or the four of conv layer `layer`."""
        sites, n, tables = _jacobian_sites(self.arch, self._check(params, layer))
        p = self._row_stage(self._kernel_stage(params, tables))
        # (occurrence, sample, angle), zero past an angle's last occurrence
        half = np.zeros((n.max(), self.batch_size, n.size))
        half[sites["occ"][0::2], :, np.repeat(np.arange(n.size), n)] = 0.5 * (p[0::2] - p[1::2])
        cols = np.zeros((self.batch_size, n.size))
        for k in range(n.max()):  # whole-row adds, in occurrence order
            cols += half[k]
        return cols


@functools.lru_cache(maxsize=None)
def _group_index(arch: Architecture) -> tuple:
    """Per layer, the (G, fan-in) array of each group's inputs in the layer below."""
    return tuple(_read_only(np.array(spec.groups)) for spec in build_plan(arch)[1])


def _layer_tables(arch: Architecture, sites, e: int) -> tuple:
    """Per layer, the read-only tables of e evaluations whose displaced
    angles are the site table sites (_SITE, of the network's occurrences):
    each site moves kernel angle (layer, angle) by delta in group occ of its
    conv layer for one evaluation row, and a row without one is the plain
    readout.  A layer's tables are the kernel row of each of its sites (1
    on), their angles and deltas, and pick (E, G), the kernel row of each
    evaluation and group."""
    tables = []
    for spec in build_plan(arch)[1]:
        here = sites[sites["layer"] == spec.param_layer] if spec.kind == "conv" else sites[:0]
        k = np.arange(1, here.size + 1)
        pick = np.zeros((e, len(spec.groups)), np.intp)
        pick[here["row"], here["occ"]] = k
        tables.append(tuple(map(_read_only, (k, here["angle"], here["delta"], pick))))
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def _plain_tables(arch: Architecture) -> tuple:
    """The layer tables of one undisplaced evaluation."""
    return _layer_tables(arch, np.empty(0, dtype=_SITE), 1)


@functools.lru_cache(maxsize=None)
def _jacobian_sites(arch: Architecture, layer) -> tuple:
    """(site table, occurrences of each angle, layer tables) of the
    jacobian of conv layer `layer`'s four angles, or of every kernel angle
    (layer-major) when it is None: one evaluation row per occurrence of
    each angle in turn, moved by +pi/2 and then by -pi/2.  Every array is
    read-only, as every call for this layer shares them."""
    layers = np.arange(arch.conv_layer_count) if layer is None else np.array([layer])
    n = np.repeat(np.array([len(spec.groups) for spec in build_plan(arch)[1] if spec.kind == "conv"])[layers], 4)
    col = np.repeat(np.arange(n.size), 2 * n)
    sites = np.empty(col.size, dtype=_SITE)
    sites["row"] = np.arange(col.size)
    sites["layer"], sites["angle"] = layers[col // 4], col % 4
    sites["occ"] = sites["row"] // 2 - (np.cumsum(n) - n)[col]
    sites["delta"] = np.where(sites["row"] % 2, -np.pi / 2, np.pi / 2)
    return _read_only(sites), _read_only(n), _layer_tables(arch, sites, sites.size)


def update_direction(objective: TrainingObjective, params: ModelParams, p1s, layer=None) -> np.ndarray:
    """Flat per-angle update direction of the configured rule at readouts
    p1s: every kernel angle's, or zero outside conv layer `layer`.  The
    circuit-derivative rules weight the shot-scaled jacobian by the
    prediction error (times the activation derivative for `combined`) and
    sum over the batch; `sigmoid` puts one scalar, shot-scaled readout
    times error times activation derivative summed over the batch, on every
    angle it moves."""
    cfg = objective.config
    layer = objective._check(params, layer)
    err = objective.labels - activate(p1s)
    cols = slice(None) if layer is None else slice(4 * layer, 4 * layer + 4)
    direction = np.zeros(cfg.arch.n_params)
    if cfg.grad_method is GradMethod.SIGMOID:
        direction[cols] = float(np.sum((cfg.shots * p1s) * err * activate_deriv(p1s)))
        return direction
    w = err * activate_deriv(p1s) if cfg.grad_method is GradMethod.COMBINED else err
    jac = objective.jacobian(params, layer)
    direction[cols] = (w[:, None] * (cfg.shots * jac)).sum(axis=0)
    return direction


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
        curve.record(epoch, epoch_mse, evals)
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
    angle from the epoch's readouts; layer-wise updates move one conv layer
    at a time, in order, each from fresh readouts at the params the layer
    before left, the first at the epoch's own params (a second pass)."""
    simultaneous = config.update_strategy is UpdateStrategy.SIMULTANEOUS
    layers = (None,) if simultaneous else range(config.arch.conv_layer_count)

    def init(seed):
        return initial if initial is not None else init_params(config.arch, seed, config.init_scheme)

    def step(params, epoch, pixels, labels):
        obj = TrainingObjective(config, pixels, labels, base_key=epoch)
        p1s = obj.p1(params)
        epoch_mse = mse(activate(p1s), labels)
        for layer in layers:
            readouts = p1s if simultaneous else obj.p1(params)
            params = params.with_update(config.learning_rate * update_direction(obj, params, readouts, layer))
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
