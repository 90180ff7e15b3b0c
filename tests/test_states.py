"""State-vector engine checks against an independent dense-embedding oracle,
plus measurement behavior."""
import numpy as np
import pytest

from conftest import GATE_KINDS, embed_gate, random_state
from qcnn.gates import Angle, GateKind, GateOp, gate_matrix
from qcnn.plans import CircuitPlan
from qcnn.statevec import PureState, apply_gate, exact_prob_one, run_pure


def _random_gate(rng, n_wires):
    kind = GATE_KINDS[rng.integers(0, len(GATE_KINDS))]
    if kind.n_wires == 2 and n_wires < 2:
        kind = GateKind.RY
    wires = tuple(int(w) for w in rng.choice(n_wires, size=kind.n_wires, replace=False))
    if kind.is_rotation:
        return GateOp(kind, wires, Angle.const(float(rng.uniform(-np.pi, np.pi))))
    return GateOp(kind, wires)


def test_apply_gate_matches_dense_embedding():
    rng = np.random.default_rng(101)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        state = PureState(n, random_state(rng, n))
        gate = _random_gate(rng, n)
        out = apply_gate(state, gate)
        full = embed_gate(gate_matrix(gate, gate.angle.value if gate.angle else None), gate.wires, n)
        np.testing.assert_allclose(out.amplitudes, full @ state.amplitudes, atol=1e-12)


def test_apply_gate_norm_preserved():
    rng = np.random.default_rng(102)
    state = PureState.zero(4)
    for _ in range(200):
        state = apply_gate(state, _random_gate(rng, 4))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_apply_gate_wire_range_checked():
    state = PureState.zero(2)
    with pytest.raises(ValueError):
        apply_gate(state, GateOp(GateKind.RY, (2,), Angle.const(0.1)))


def test_apply_gate_angle_resolution():
    state = PureState.zero(1)
    gate = GateOp(GateKind.RY, (0,), Angle.const(np.pi))
    flipped = apply_gate(state, gate)
    np.testing.assert_allclose(np.abs(flipped.amplitudes), [0.0, 1.0], atol=1e-15)
    # explicit angle overrides nothing here, it is the only source for
    # data/param gates outside a plan run
    sym = GateOp(GateKind.RY, (0,), Angle.data(0))
    half = apply_gate(state, sym, angle=np.pi / 2)
    np.testing.assert_allclose(np.abs(half.amplitudes) ** 2, [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        apply_gate(state, sym)  # unresolved data angle


def test_pure_state_validation():
    z = PureState.zero(3)
    assert z.amplitudes[0] == 1.0 and np.count_nonzero(z.amplitudes) == 1
    with pytest.raises(ValueError):
        PureState(0, np.array([1.0]))
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))  # not normalized


def test_exact_prob_one_marginals():
    # |psi> = 0.6|01> + 0.8|11>: wire 0 (high bit) reads 1 with 0.64,
    # wire 1 reads 1 with certainty
    psi = PureState(2, np.array([0.0, 0.6, 0.0, 0.8]))
    assert exact_prob_one(psi, 0) == pytest.approx(0.64, abs=1e-15)
    assert exact_prob_one(psi, 1) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        exact_prob_one(psi, 2)


def test_run_pure_single_rotation_law():
    # RY(e)|0> measures 1 with probability (1 - cos e)/2
    for e in (0.0, 0.3, np.pi / 2, 2.0, np.pi):
        plan = CircuitPlan(1, (GateOp(GateKind.RY, (0,), Angle.const(e)),), 0)
        assert run_pure(plan) == pytest.approx((1 - np.cos(e)) / 2, abs=1e-14)


def test_run_pure_controlled_flip_copies_population():
    # excite the control (wire 1), flip the target (wire 0): the readout
    # inherits the control's excitation probability
    for e in (0.0, 0.8, np.pi / 2, np.pi):
        plan = CircuitPlan(
            2,
            (
                GateOp(GateKind.RY, (1,), Angle.const(e)),
                GateOp(GateKind.CFLIP_X, (0, 1)),
            ),
            0,
        )
        assert run_pure(plan) == pytest.approx(np.sin(e / 2) ** 2, abs=1e-14)


def test_run_pure_resolves_data_and_params():
    from qcnn import ModelParams

    sym = CircuitPlan(
        2,
        (
            GateOp(GateKind.RY, (0,), Angle.data(1)),
            GateOp(GateKind.RX, (0,), Angle.param(0, 2)),
            GateOp(GateKind.CFLIP_Z, (0, 1)),
        ),
        0,
    )
    data = np.array([0.0, 0.7])
    params = ModelParams((np.array([0.0, 0.0, 1.1, 0.0]),))
    lit = CircuitPlan(
        2,
        (
            GateOp(GateKind.RY, (0,), Angle.const(0.7)),
            GateOp(GateKind.RX, (0,), Angle.const(1.1)),
            GateOp(GateKind.CFLIP_Z, (0, 1)),
        ),
        0,
    )
    assert run_pure(sym, data, params) == pytest.approx(run_pure(lit), abs=1e-15)
    assert sym.n_data_slots == 2
