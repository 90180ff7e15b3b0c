"""Gate matrices and gate descriptions for the lattice convolution circuits.

The two-wire gates are the controlled flips about the x, y and z axes,
written as explicit 4x4 matrices over an ordered wire pair: the first wire
of the pair is the target (and the high-order bit of the 2-qubit
sub-space), the second wire is the control.  CFLIP_X applies X to the
target when the control is 1 (a controlled NOT), CFLIP_Y applies Y, and
CFLIP_Z applies Z (the symmetric phase flip on the 11 component).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class GateKind(Enum):
    RX = "rx"
    RY = "ry"
    CFLIP_X = "cflip_x"
    CFLIP_Y = "cflip_y"
    CFLIP_Z = "cflip_z"

    @property
    def n_wires(self) -> int:
        return 1 if self in (GateKind.RX, GateKind.RY) else 2

    @property
    def is_rotation(self) -> bool:
        return self in (GateKind.RX, GateKind.RY)


CFLIP_X = np.array([[1, 0, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, 1, 0],
                    [0, 1, 0, 0]], dtype=np.complex128)

CFLIP_Y = np.array([[1, 0, 0, 0],
                    [0, 0, 0, -1j],
                    [0, 0, 1, 0],
                    [0, 1j, 0, 0]], dtype=np.complex128)

CFLIP_Z = np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, -1]], dtype=np.complex128)

_FIXED = {GateKind.CFLIP_X: CFLIP_X, GateKind.CFLIP_Y: CFLIP_Y, GateKind.CFLIP_Z: CFLIP_Z}


def _rotation(theta, off) -> np.ndarray:
    th = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(th)):
        raise ValueError("rotation angle must be finite")
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    m = np.empty(th.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1], m[..., 1, 0] = off[0] * s, off[1] * s
    return m


def rx_matrix(theta) -> np.ndarray:
    """Rotation about x: [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]];
    an array of angles yields matrices of shape ``theta.shape + (2, 2)``."""
    return _rotation(theta, (-1j, -1j))


def ry_matrix(theta) -> np.ndarray:
    """Rotation about y: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    return _rotation(theta, (-1, 1))


@dataclass(frozen=True)
class Angle:
    """Where a rotation angle comes from when a plan is evaluated.

    source is one of 'const' (value holds the angle), 'data' (index selects
    a slot of the per-image angle vector) or 'param' (layer/index select a
    trainable angle).
    """

    source: str
    value: float = 0.0
    index: int = 0
    layer: int = 0

    @classmethod
    def const(cls, value: float) -> "Angle":
        return cls("const", value=float(value))

    @classmethod
    def data(cls, index: int) -> "Angle":
        return cls("data", index=int(index))

    @classmethod
    def param(cls, layer: int, index: int) -> "Angle":
        return cls("param", layer=int(layer), index=int(index))

    def resolve(self, data=None, params=None):
        if self.source == "const":
            return self.value
        if self.source == "data":
            if data is None:
                raise ValueError("plan has data slots but no data was given")
            return np.asarray(data)[..., self.index]
        if self.source == "param":
            if params is None:
                raise ValueError("plan has parameter slots but no parameters were given")
            return params.layers[self.layer][self.index]
        raise ValueError(f"unknown angle source {self.source!r}")


@dataclass(frozen=True)
class GateOp:
    """One gate of a circuit plan: a kind, the wires it acts on, and for
    rotations the angle source."""

    kind: GateKind
    wires: tuple
    angle: Optional[Angle] = None

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != self.kind.n_wires:
            raise ValueError(f"{self.kind.value} acts on {self.kind.n_wires} wires, got {wires}")
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate wires must be distinct, got {wires}")
        if any(w < 0 for w in wires):
            raise ValueError(f"wire indices must be non-negative, got {wires}")
        if self.kind.is_rotation and self.angle is None:
            raise ValueError(f"{self.kind.value} needs an angle")
        if not self.kind.is_rotation and self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")


def gate_matrix(gate: GateOp, angle=None) -> np.ndarray:
    """Realized unitary of a gate.  Rotations need the resolved angle
    (scalar or batch array); fixed gates ignore it."""
    if gate.kind is GateKind.RX:
        return rx_matrix(angle)
    if gate.kind is GateKind.RY:
        return ry_matrix(angle)
    return _FIXED[gate.kind]
