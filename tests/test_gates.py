"""Gate-level checks: frozen controlled-flip matrices, rotation identities,
unitarity, and the angle-source plumbing on gate descriptions."""
import numpy as np
import pytest

from qcnn.gates import (
    CFLIP_X, CFLIP_Y, CFLIP_Z, Angle, AngleSource, GateKind, GateOp, gate_matrix, rx_matrix, ry_matrix,
)
from qcnn.network import ModelParams

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def test_cflip_matrices_frozen():
    # first wire = target = high bit of the pair, second wire = control
    np.testing.assert_array_equal(
        CFLIP_X,
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
    )
    np.testing.assert_array_equal(
        CFLIP_Y,
        [[1, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1, 0], [0, 1j, 0, 0]],
    )
    np.testing.assert_array_equal(
        CFLIP_Z,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    )


def test_cflip_matrices_are_controlled_paulis():
    # block structure: identity on control=0, the Pauli on control=1.
    # basis order is |t c> with t the high bit, so control=1 selects the
    # odd rows/columns.
    for mat, pauli in ((CFLIP_X, X), (CFLIP_Y, Y), (CFLIP_Z, Z)):
        np.testing.assert_array_equal(mat[0::2, 0::2], I2)
        np.testing.assert_array_equal(mat[1::2, 1::2], pauli)
        np.testing.assert_array_equal(mat[0::2, 1::2], np.zeros((2, 2)))
        np.testing.assert_array_equal(mat[1::2, 0::2], np.zeros((2, 2)))


def test_cflip_basis_action():
    # |t=0,c=1> is basis index 1, |t=1,c=1> is index 3
    e = np.eye(4, dtype=np.complex128)
    np.testing.assert_array_equal(CFLIP_X @ e[1], e[3])
    np.testing.assert_array_equal(CFLIP_X @ e[3], e[1])
    np.testing.assert_array_equal(CFLIP_Y @ e[1], 1j * e[3])
    np.testing.assert_array_equal(CFLIP_Y @ e[3], -1j * e[1])
    np.testing.assert_array_equal(CFLIP_Z @ e[3], -e[3])
    for mat in (CFLIP_X, CFLIP_Y, CFLIP_Z):
        np.testing.assert_array_equal(mat @ e[0], e[0])
        np.testing.assert_array_equal(mat @ e[2], e[2])


def test_rotations_match_pauli_exponentials():
    # RX(t) = cos(t/2) I - i sin(t/2) X, same for RY with Y
    for theta in (-2.5, -np.pi / 3, 0.0, 0.7, np.pi / 2, np.pi, 4.0):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        np.testing.assert_allclose(rx_matrix(theta), c * I2 - 1j * s * X, atol=1e-15)
        np.testing.assert_allclose(ry_matrix(theta), c * I2 - 1j * s * Y, atol=1e-15)


def test_rotation_composition_and_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        np.testing.assert_allclose(rx_matrix(a) @ rx_matrix(b), rx_matrix(a + b), atol=1e-14)
        np.testing.assert_allclose(ry_matrix(a) @ ry_matrix(b), ry_matrix(a + b), atol=1e-14)
        np.testing.assert_allclose(rx_matrix(a) @ rx_matrix(-a), I2, atol=1e-14)
        np.testing.assert_allclose(ry_matrix(-a), ry_matrix(a).conj().T, atol=1e-14)


def test_unitarity_all_kinds():
    rng = np.random.default_rng(12)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 100):
        for mat in (rx_matrix(theta), ry_matrix(theta)):
            np.testing.assert_allclose(mat @ mat.conj().T, I2, atol=1e-12)
    for mat in (CFLIP_X, CFLIP_Y, CFLIP_Z):
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-15)


def test_rotation_matrices_batched():
    thetas = np.array([[0.0, 1.0], [2.0, -0.5], [np.pi, 0.25]])
    batch = rx_matrix(thetas)
    assert batch.shape == (3, 2, 2, 2)
    for i in range(3):
        for j in range(2):
            np.testing.assert_allclose(batch[i, j], rx_matrix(thetas[i, j]), atol=0)
    assert ry_matrix(np.array([0.3, 0.4])).shape == (2, 2, 2)


def test_rotation_rejects_nonfinite_angles():
    with pytest.raises(ValueError):
        rx_matrix(np.nan)
    with pytest.raises(ValueError):
        ry_matrix(np.array([0.1, np.inf]))


def test_gate_kind_properties():
    assert GateKind.RX.n_wires == 1 and GateKind.RX.is_rotation
    assert GateKind.RY.n_wires == 1 and GateKind.RY.is_rotation
    for kind in (GateKind.CFLIP_X, GateKind.CFLIP_Y, GateKind.CFLIP_Z):
        assert kind.n_wires == 2 and not kind.is_rotation


def test_fixed_matrix_lookup():
    # the controlled flips realize as their frozen constants, whatever angle
    # is passed along
    for kind, mat in ((GateKind.CFLIP_X, CFLIP_X), (GateKind.CFLIP_Y, CFLIP_Y), (GateKind.CFLIP_Z, CFLIP_Z)):
        assert gate_matrix(GateOp(kind, (0, 1))) is mat
        assert gate_matrix(GateOp(kind, (1, 0)), 0.7) is mat


def test_angle_sources_resolve():
    assert Angle.const(1.5).resolve() == 1.5
    row = np.array([0.1, 0.2, 0.3])
    assert Angle.data(2).resolve(data=row) == pytest.approx(0.3)
    batch = np.array([[0.1, 0.2], [0.3, 0.4]])
    np.testing.assert_allclose(Angle.data(1).resolve(data=batch), [0.2, 0.4])
    params = ModelParams((np.array([1.0, 2.0, 3.0, 4.0]), np.array([5.0, 6.0, 7.0, 8.0])))
    assert Angle.param(1, 2).resolve(params=params) == 7.0


def test_angle_resolve_requires_inputs():
    with pytest.raises(ValueError):
        Angle.data(0).resolve()
    with pytest.raises(ValueError):
        Angle.param(0, 0).resolve()


def test_angle_source_is_checked_at_construction():
    # a source given by its value becomes the enum member, so the two
    # spellings are one angle; any other source is refused before use
    assert Angle("param", layer=1, index=2) == Angle.param(1, 2)
    assert Angle.data(3).source is AngleSource.DATA
    for bad in ("bogus", "Data", None):
        with pytest.raises(ValueError):
            Angle(bad)


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp(GateKind.RX, (0, 1), Angle.const(0.1))  # rotation on two wires
    with pytest.raises(ValueError):
        GateOp(GateKind.CFLIP_X, (0,))  # pair gate on one wire
    with pytest.raises(ValueError):
        GateOp(GateKind.CFLIP_X, (3, 3))  # duplicate wires
    with pytest.raises(ValueError):
        GateOp(GateKind.RY, (-1,), Angle.const(0.1))
    with pytest.raises(ValueError):
        GateOp(GateKind.RX, (0,))  # missing angle
    with pytest.raises(ValueError):
        GateOp(GateKind.CFLIP_Z, (0, 1), Angle.const(0.1))  # angle on fixed gate


def test_gate_matrix_dispatch():
    rx = GateOp(GateKind.RX, (0,), Angle.const(0.4))
    np.testing.assert_allclose(gate_matrix(rx, 0.4), rx_matrix(0.4), atol=0)
    ry = GateOp(GateKind.RY, (1,), Angle.const(-0.9))
    np.testing.assert_allclose(gate_matrix(ry, -0.9), ry_matrix(-0.9), atol=0)
    flip = GateOp(GateKind.CFLIP_Y, (0, 1))
    np.testing.assert_array_equal(gate_matrix(flip), CFLIP_Y)
