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
PAULI_Y, PAULI_Z = np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])


@functools.lru_cache(maxsize=None)
def _scales_by_partner_z(kinds: tuple) -> bool:
    """Whether a run of controlled flips of these kinds on one wire pair
    takes Y x I to Y x Z and Z x I to Z x Z: the Heisenberg picture
    u^dagger (P x I) u of the product u of the flip matrices, compared
    entry by entry."""
    u = np.eye(4)
    for kind in kinds:
        u = gate_matrix(GateOp(kind, (0, 1))) @ u
    return all(np.array_equal(u.conj().T @ np.kron(p, np.eye(2)) @ u, np.kron(p, PAULI_Z)) for p in (PAULI_Y, PAULI_Z))


def random_template(rng, max_wires=6):
    """A random group template, a (3, n) block of data rows for it, and
    whether it has the network's template shape, the one the channel
    compile admits.

    Each wire w takes an RY encoding of data slot w with probability 0.7.
    Then, half the time, every wire takes one RX turn of a kernel angle
    0..3, in random wire order.  Then runs of one to three CFLIP_X/Y/Z
    gates on a random ordered pair of live wires follow.  A run's second
    wire is never used again, so it retires at the run's last gate, and
    runs follow until one live wire, the readout, is left: every wire
    feeds it, as in a group template.  Each run is redrawn until
    _scales_by_partner_z() agrees with a coin that says yes 4 times in 5.
    Up to one template in four then has one gate out of that shape: an encoding
    after the first turn or pair gate, a turn after the first pair gate,
    an extra turn among the turns (a wire turned twice, or turns on one
    wire only), a turn left out, or a wire encoded twice.
    """
    n = int(rng.integers(2, max_wires + 1))
    encodings = [GateOp(GateKind.RY, (w,), Angle.data(w)) for w in range(n) if rng.random() < 0.7]
    turns = [GateOp(GateKind.RX, (int(w),), Angle.param(0, int(rng.integers(0, 4))))
             for w in (rng.permutation(n) if rng.random() < 0.5 else ())]
    pairs, live, shaped = [], list(range(n)), True
    for _ in range(n - 1):
        a, b = (int(w) for w in rng.choice(live, size=2, replace=False))
        want = rng.random() < 0.8
        kinds = None
        while kinds is None or _scales_by_partner_z(kinds) != want:
            kinds = tuple(PAIR_KINDS[k] for k in rng.integers(0, len(PAIR_KINDS), int(rng.integers(1, 4))))
        shaped &= want
        pairs.extend(GateOp(kind, (a, b)) for kind in kinds)
        live.remove(b)

    def rotation(kind):
        w = int(rng.integers(0, n))
        return GateOp(kind, (w,), Angle.data(w) if kind is GateKind.RY else Angle.param(0, int(rng.integers(0, 4))))

    body, fault = turns + pairs, int(rng.integers(0, 20))
    if fault == 0:  # an encoding after the first turn or pair gate
        body.insert(int(rng.integers(1, len(body) + 1)), rotation(GateKind.RY))
    elif fault == 1:  # a turn after the first pair gate
        body.insert(int(rng.integers(len(turns) + 1, len(body) + 1)), rotation(GateKind.RX))
    elif fault == 2:  # an extra turn: a wire turned twice, or turns on one wire only
        body.insert(int(rng.integers(0, len(turns) + 1)), rotation(GateKind.RX))
    elif fault == 3 and turns:  # a turn left out
        body.pop(int(rng.integers(0, len(turns))))
    elif fault == 4 and encodings:  # a wire encoded twice
        encodings.append(encodings[int(rng.integers(0, len(encodings)))])
    else:
        fault = None
    data = rng.uniform(0.0, np.pi, (3, n))
    return CircuitPlan(n, tuple(encodings + body), live[0]), data, shaped and fault is None


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
