"""Single-neuron classical reference trained with the same protocol.

Forward pass: logistic activation of an affine map on pixels normalized to
[0, 1].  Updates keep the shared protocol's unit conventions: the batch is
reduced by sum and the weight update is driven by raw pixel values
(0..255), so learning_rate 1e-7 produces visible descent.  The replicated
versus independent classes are not linearly separable, which pins the
reachable mean squared error near 0.25.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .training import (
    _TAG_INIT, LossCurve, TrainConfig, _derived_rng, _epoch_batch,
    _pixels_and_labels, _require_full_batch, _require_threshold, mse, sigmoid,
)


@dataclass(frozen=True)
class ClassicalKernel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite 1-d vector")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))


def init_classical(side: int, seed: int) -> ClassicalKernel:
    rng = np.random.Generator(np.random.PCG64(seed))
    return ClassicalKernel(rng.uniform(-0.5, 0.5, side * side), 0.0)


def classical_forward(kernel: ClassicalKernel, pixel_rows) -> np.ndarray:
    """Activated output per row; pixels enter normalized to [0, 1]."""
    rows = np.asarray(pixel_rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != kernel.weights.size:
        raise ValueError(f"expected {kernel.weights.size} pixels per row, got {rows.shape[1]}")
    z = rows / 255.0 @ kernel.weights + kernel.bias
    return sigmoid(z)


def classical_loss_and_grad(kernel: ClassicalKernel, pixel_rows, labels):
    """Batch-mean squared error and its exact gradient in (weights, bias).

    This is the calculus gradient of the loss itself (normalized inputs,
    mean reduction), used to check the update directions against finite
    differences; the training update below applies its own unit scale.
    """
    rows = np.asarray(pixel_rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    acts = classical_forward(kernel, rows)
    n = labels.size
    inner = 2.0 * (acts - labels) * acts * (1.0 - acts) / n
    grad_w = inner @ (rows / 255.0)
    grad_b = float(np.sum(inner))
    return mse(acts, labels), grad_w, grad_b


def classical_update(kernel: ClassicalKernel, pixel_rows, labels, learning_rate: float) -> ClassicalKernel:
    """One protocol step: error times activation derivative, summed over the
    batch; weights are driven by raw pixels, the bias by the bare sum."""
    rows = np.asarray(pixel_rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    acts = classical_forward(kernel, rows)
    err = labels - acts
    inner = err * acts * (1.0 - acts)
    new_w = kernel.weights + learning_rate * (inner @ rows)
    new_b = kernel.bias + learning_rate * float(np.sum(inner))
    return ClassicalKernel(new_w, new_b)


def classical_train(config: TrainConfig, dataset=None, log_fn=None):
    """Train the reference neuron; returns (kernel, loss curve).  Uses the
    same per-epoch batch stream as the lattice trainer at equal seed."""
    _require_full_batch(config, dataset)
    init_seed = int(_derived_rng(config.seed, _TAG_INIT).integers(0, 2**63 - 1))
    kernel = init_classical(config.arch.image_side, init_seed)
    curve = LossCurve()

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        batch = _epoch_batch(config, dataset, epoch)
        rows, labels = _pixels_and_labels(batch)
        acts = classical_forward(kernel, rows)
        epoch_mse = mse(acts, labels)
        kernel = classical_update(kernel, rows, labels, config.learning_rate)
        ms = (time.perf_counter() - t0) * 1000.0
        curve.record(epoch, epoch_mse, ms, labels.size)
        if log_fn is not None:
            log_fn(f"epoch={epoch} mse={epoch_mse:.6f} wall_ms={ms:.1f} evals={labels.size}")
    return kernel, curve


def classical_evaluate(kernel: ClassicalKernel, samples, threshold: float = 0.5):
    """MSE and accuracy over a sample list; an activated output above
    `threshold` predicts label 1."""
    _require_threshold(threshold)
    if not samples:
        raise ValueError("cannot evaluate an empty dataset")
    rows, labels = _pixels_and_labels(samples)
    acts = classical_forward(kernel, rows)
    preds = (acts > threshold).astype(np.float64)
    return mse(acts, labels), float(np.mean(preds == labels))
