"""Shared test helpers: an independent dense-matrix oracle, seeded
random circuit-plan and group-template generators used by the
engine-equivalence suites, a record of the batches each trainer
receives, and draws that run out of memory."""
import functools

import numpy as np
import pytest

import qcnn.baseline
import qcnn.training
from qcnn import Angle, CircuitPlan, GateKind, GateOp, ModelParams
from qcnn.gates import gate_matrix

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


PAIR_KINDS = (GateKind.CFLIP_X, GateKind.CFLIP_Y, GateKind.CFLIP_Z)
PAULI_YZ = np.array([[[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # Y, Z


@functools.lru_cache(maxsize=None)
def _factors(kinds: tuple) -> bool:
    """Whether a run of controlled flips of these kinds on one wire pair
    takes each of Y x I and Z x I to one signed product P_i x P_j with P_i,
    P_j in {Y, Z}: the Heisenberg picture u^dagger (P x I) u of the product
    u of the flip matrices, compared entry by entry."""
    u = np.eye(4)
    for kind in kinds:
        u = gate_matrix(GateOp(kind, (0, 1))) @ u
    products = [s * np.kron(p, q) for s in (1, -1) for p in PAULI_YZ for q in PAULI_YZ]
    return all(any(np.array_equal(u.conj().T @ np.kron(p, np.eye(2)) @ u, m) for m in products) for p in PAULI_YZ)


def random_template(rng, max_wires=6):
    """A random group template, a (3, n) block of data rows for it, and
    whether its readout factors into channels.

    Each wire w takes an RY encoding of data slot w with probability 0.7.
    Then runs of one to three CFLIP_X/Y/Z gates on a random ordered pair of
    live wires follow, with RX turns of kernel angles 0..3 on live wires
    between them.  A run's second wire is never used again, so it retires
    at the run's last gate, and runs follow until one live wire, the
    readout, is left: every wire feeds it, as in a group template.  Each
    run is redrawn until _factors() agrees with a coin that says yes 4
    times in 5, so that whole templates that factor are common.  A turn may
    also fall inside a run, on any live wire; one on the run's own wires
    cuts it, and the readout then does not factor.
    """
    n = int(rng.integers(2, max_wires + 1))
    gates = [GateOp(GateKind.RY, (w,), Angle.data(w)) for w in range(n) if rng.random() < 0.7]
    live = list(range(n))
    factoring = True

    def turns(count):
        wires = [int(rng.choice(live)) for _ in range(count)]
        gates.extend(GateOp(GateKind.RX, (w,), Angle.param(0, int(rng.integers(0, 4)))) for w in wires)
        return wires

    for _ in range(n - 1):
        turns(int(rng.integers(0, 3)))
        a, b = (int(w) for w in rng.choice(live, size=2, replace=False))
        want = rng.random() < 0.8
        kinds = None
        while kinds is None or _factors(kinds) != want:
            kinds = tuple(PAIR_KINDS[k] for k in rng.integers(0, len(PAIR_KINDS), int(rng.integers(1, 4))))
        factoring &= want
        for k, kind in enumerate(kinds):
            if k and rng.random() < 0.15:
                factoring &= not {a, b} & set(turns(1))
            gates.append(GateOp(kind, (a, b)))
        live.remove(b)
    turns(int(rng.integers(0, 3)))
    return CircuitPlan(n, tuple(gates), live[0]), rng.uniform(0.0, np.pi, (3, n)), factoring


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
