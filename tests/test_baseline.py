"""Single-neuron reference model: gradient correctness, protocol updates,
and the shared batch stream."""
import numpy as np
import pytest
from conftest import batches_seen

from qcnn.baseline import (
    ClassicalKernel,
    classical_evaluate,
    classical_forward,
    classical_loss_and_grad,
    classical_train,
    classical_update,
    init_classical,
)
from qcnn.dataset import gen_dataset
from qcnn.training import TrainConfig


def _batch(n=12, side=2, seed=60):
    samples = gen_dataset(n, side, seed=seed)
    rows = np.stack([s.pixels.astype(float) for s in samples])
    labels = np.array([s.label for s in samples], dtype=float)
    return rows, labels


def test_kernel_validation():
    k = ClassicalKernel(np.zeros(4), 0.0)
    assert k.weights.shape == (4,) and k.bias == 0.0
    with pytest.raises(ValueError):
        ClassicalKernel(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        ClassicalKernel(np.array([np.nan, 0.0]), 0.0)
    with pytest.raises(ValueError):
        ClassicalKernel(np.zeros(0), 0.0)


def test_init_classical_deterministic_and_bounded():
    a = init_classical(4, seed=3)
    b = init_classical(4, seed=3)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.weights.shape == (16,) and a.bias == 0.0
    assert np.all(np.abs(a.weights) <= 0.5)


def test_forward_shapes_and_range():
    kernel = ClassicalKernel(np.array([1.0, -1.0, 0.5, 0.0]), 0.1)
    rows, _ = _batch()
    acts = classical_forward(kernel, rows)
    assert acts.shape == (12,) and np.all((0 < acts) & (acts < 1))
    single = classical_forward(kernel, rows[0])
    assert single.shape == (1,) and single[0] == pytest.approx(acts[0])
    with pytest.raises(ValueError):
        classical_forward(kernel, np.zeros((2, 9)))


def test_loss_gradient_matches_finite_difference():
    rng = np.random.default_rng(61)
    kernel = ClassicalKernel(rng.uniform(-0.5, 0.5, 4), 0.05)
    rows, labels = _batch()
    loss, grad_w, grad_b = classical_loss_and_grad(kernel, rows, labels)
    assert 0.0 <= loss <= 1.0
    h = 1e-6
    fd_w = np.zeros(4)
    for i in range(4):
        up = kernel.weights.copy()
        dn = kernel.weights.copy()
        up[i] += h
        dn[i] -= h
        lu = classical_loss_and_grad(ClassicalKernel(up, kernel.bias), rows, labels)[0]
        ld = classical_loss_and_grad(ClassicalKernel(dn, kernel.bias), rows, labels)[0]
        fd_w[i] = (lu - ld) / (2 * h)
    lu = classical_loss_and_grad(ClassicalKernel(kernel.weights, kernel.bias + h), rows, labels)[0]
    ld = classical_loss_and_grad(ClassicalKernel(kernel.weights, kernel.bias - h), rows, labels)[0]
    np.testing.assert_allclose(grad_w, fd_w, atol=1e-9)
    assert grad_b == pytest.approx((lu - ld) / (2 * h), abs=1e-9)


def test_update_moves_against_error():
    # a single sample with label 1 must push the activation upward
    kernel = ClassicalKernel(np.zeros(4), 0.0)
    rows = np.array([[100.0, 100.0, 100.0, 100.0]])
    labels = np.array([1.0])
    before = classical_forward(kernel, rows)[0]
    stepped = classical_update(kernel, rows, labels, learning_rate=1e-4)
    after = classical_forward(stepped, rows)[0]
    assert after > before
    frozen = classical_update(kernel, rows, labels, learning_rate=0.0)
    np.testing.assert_array_equal(frozen.weights, kernel.weights)
    assert frozen.bias == kernel.bias


def test_train_deterministic_and_flat_at_zero_lr():
    config = TrainConfig(arch="conv", epochs=4, batch_size=25, seed=62)
    k1, c1 = classical_train(config)
    k2, c2 = classical_train(config)
    np.testing.assert_array_equal(k1.weights, k2.weights)
    assert c1.mses == c2.mses and c1.epochs == [1, 2, 3, 4]

    dataset = gen_dataset(25, 2, seed=63)
    frozen_cfg = TrainConfig(arch="conv", epochs=4, batch_size=25, seed=62, learning_rate=0.0)
    _, flat = classical_train(frozen_cfg, dataset=dataset)
    assert max(flat.mses) == min(flat.mses)


def test_classical_evaluate():
    samples = gen_dataset(30, 2, seed=64)
    kernel = init_classical(2, seed=64)
    m, acc = classical_evaluate(kernel, samples)
    assert 0.0 <= m <= 1.0 and 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        classical_evaluate(kernel, [])
    # the decision threshold is checked as evaluate() checks it
    for bad in (1.0, 0.0, 1.5, float("nan"), "0.5", False):
        with pytest.raises(ValueError, match="threshold"):
            classical_evaluate(kernel, samples, threshold=bad)


def test_train_and_classical_train_see_the_same_batches():
    # one protocol: at equal seed both models receive byte-identical rows
    # and labels, the Dataset's own uint8 arrays, in every epoch, fresh
    # batches and a fixed dataset alike
    for update in ("simultaneous", "layer-wise"):
        config = TrainConfig(arch="conv-pool-pool", epochs=3, batch_size=10, seed=65, update_strategy=update)
        for dataset in (None, gen_dataset(12, 4, seed=66)):
            quantum, classical = batches_seen(config, dataset)
            assert len(quantum) == len(classical) == 3
            for (qp, ql), (cp, cl) in zip(quantum, classical):
                assert qp.shape == cp.shape == (10, 16) and ql.shape == cl.shape == (10,)
                for q, c in ((qp, cp), (ql, cl)):
                    assert q.dtype == c.dtype == np.uint8 and q.tobytes() == c.tobytes()
