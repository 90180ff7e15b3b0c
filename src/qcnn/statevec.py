"""Dense state-vector simulation.

This is the reference engine: it keeps all wires of a circuit at once, so it
is exact but limited to small wire counts.  Wire 0 occupies the most
significant bit of the basis index, matching the tensor-product order in
which a pair of encoded qubits reads |a b> with a on the first wire.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contract import apply_to_vector, vector_prob_one
from .gates import AngleSource, GateOp, gate_matrix

_NORM_TOL = 1e-10


@dataclass
class PureState:
    """A normalized complex amplitude vector over n_wires qubits."""

    n_wires: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.n_wires < 1:
            raise ValueError("need at least one wire")
        if self.amplitudes.shape != (2**self.n_wires,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.n_wires}, got shape {self.amplitudes.shape}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized (|norm - 1| = {abs(norm - 1.0):.3g})")

    @classmethod
    def zero(cls, n_wires: int) -> "PureState":
        amps = np.zeros(2**n_wires, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_wires, amps)


def apply_gate(state: PureState, gate: GateOp, angle=None) -> PureState:
    """Apply one gate and return the new state.

    Rotations take their angle either from a const source on the gate or
    from the explicit ``angle`` argument.
    """
    for w in gate.wires:
        if w >= state.n_wires:
            raise ValueError(f"wire {w} out of range for {state.n_wires}-wire state")
    if gate.kind.is_rotation and angle is None:
        if gate.angle is None or gate.angle.source is not AngleSource.CONST:
            raise ValueError("rotation angle is unresolved; pass angle= explicitly")
        angle = gate.angle.value
    mat = gate_matrix(gate, angle)
    amps = apply_to_vector(state.amplitudes, mat, gate.wires, state.n_wires)
    out = PureState.__new__(PureState)
    out.n_wires = state.n_wires
    out.amplitudes = amps
    return out


def exact_prob_one(state: PureState, wire: int) -> float:
    """Exact probability of reading 1 on the given wire."""
    if not 0 <= wire < state.n_wires:
        raise ValueError(f"wire {wire} out of range for {state.n_wires}-wire state")
    return float(vector_prob_one(state.amplitudes, wire, state.n_wires))


def run_pure(plan, data=None, params=None) -> float:
    """Evaluate a circuit plan on the full state vector and return the
    readout-wire probability of 1.  Oracle-grade but O(2**n_wires)."""
    state = PureState.zero(plan.n_wires)
    for gate in plan.gates:
        state = apply_gate(state, gate, gate.angle.resolve(data, params) if gate.angle is not None else None)
    return exact_prob_one(state, plan.readout_wire)
