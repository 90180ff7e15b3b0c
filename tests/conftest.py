"""Shared test helpers: an independent dense-matrix oracle, a seeded
random circuit-plan generator used by the engine-equivalence suites, a
record of the batches each trainer receives, and draws that run out of
memory."""
import numpy as np
import pytest

import qcnn.baseline
import qcnn.training
from qcnn import Angle, CircuitPlan, GateKind, GateOp, ModelParams

GATE_KINDS = (GateKind.RX, GateKind.RY, GateKind.CFLIP_X, GateKind.CFLIP_Y, GateKind.CFLIP_Z)


def embed_gate(mat, wires, n):
    """Embed a 2x2 or 4x4 gate matrix into the full 2**n unitary by explicit
    bit arithmetic (wire 0 = most significant bit, first wire of a pair = the
    high bit of the gate sub-space).  Deliberately written with per-element
    loops and no einsum or kron, so it cannot share a bug with the package's
    contraction code."""
    dim = 2**n
    m = len(wires)
    shifts = [n - 1 - w for w in wires]
    rest_mask = dim - 1
    for s in shifts:
        rest_mask &= ~(1 << s)
    full = np.zeros((dim, dim), dtype=np.complex128)
    for row in range(dim):
        row_sub = 0
        for s in shifts:
            row_sub = (row_sub << 1) | ((row >> s) & 1)
        rest = row & rest_mask
        for col_sub in range(2**m):
            col = rest
            for k, s in enumerate(shifts):
                col |= ((col_sub >> (m - 1 - k)) & 1) << s
            full[row, col] = mat[row_sub, col_sub]
    return full


def random_state(rng, n):
    """A random normalized complex amplitude vector over n wires."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_plan(rng, max_wires=10, mean_gates=12, max_gates=40):
    """A random valid plan plus a matching data row and parameter set.

    Rotation angles mix const, data-slot and trainable sources so the
    resolution paths all get exercised; two-wire gates need at least two
    wires, so single-wire plans degrade those draws to rotations.
    """
    n_wires = int(rng.integers(1, max_wires + 1))
    n_gates = min(max_gates, int(rng.geometric(1.0 / mean_gates)))
    n_layers = int(rng.integers(1, 3))
    gates = []
    for _ in range(n_gates):
        kind = GATE_KINDS[rng.integers(0, len(GATE_KINDS))]
        if kind.n_wires == 2 and n_wires < 2:
            kind = GateKind.RY
        wires = tuple(int(w) for w in rng.choice(n_wires, size=kind.n_wires, replace=False))
        if kind.is_rotation:
            u = rng.random()
            if u < 0.7:
                angle = Angle.const(float(rng.uniform(-np.pi, np.pi)))
            elif u < 0.9:
                angle = Angle.data(int(rng.integers(0, n_wires)))
            else:
                angle = Angle.param(int(rng.integers(0, n_layers)), int(rng.integers(0, 4)))
            gates.append(GateOp(kind, wires, angle))
        else:
            gates.append(GateOp(kind, wires))
    readout = int(rng.integers(0, n_wires))
    plan = CircuitPlan(n_wires, tuple(gates), readout)
    data = rng.uniform(0.0, np.pi, n_wires)
    params = ModelParams(tuple(rng.uniform(0.0, np.pi, 4) for _ in range(n_layers)))
    return plan, data, params


def batches_seen(config, dataset=None):
    """Per epoch, the (pixels, labels) that `train` builds its objective on
    and that `classical_train` updates on, each model trained at config."""
    quantum, classical = [], []
    objective, update = qcnn.training.TrainingObjective, qcnn.baseline.classical_update

    def record_objective(cfg, pixels, labels, base_key=0):
        quantum.append((np.array(pixels), np.array(labels)))
        return objective(cfg, pixels, labels, base_key)

    def record_update(kernel, rows, labels, learning_rate):
        classical.append((np.array(rows), np.array(labels)))
        return update(kernel, rows, labels, learning_rate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcnn.training, "TrainingObjective", record_objective)
        mp.setattr(qcnn.baseline, "classical_update", record_update)
        qcnn.training.train(config, dataset=dataset)
        qcnn.baseline.classical_train(config, dataset=dataset)
    return quantum, classical


class _NoMemory(np.random.Generator):
    def integers(self, *args, size=None, **kwargs):
        if size is None:
            return super().integers(*args, **kwargs)
        raise MemoryError(f"Unable to allocate an array of {size} integers")


@pytest.fixture
def no_memory(monkeypatch):
    """Every Generator.integers draw of an array fails as numpy's does when
    the array does not fit in memory, so no test has to allocate one; a
    scalar draw, such as a seed, still works."""
    monkeypatch.setattr(np.random, "Generator", _NoMemory)
