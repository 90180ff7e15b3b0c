"""The channel evaluator against the engines it replaces in training: its
compiled two-input channels and rotations against dense matrices built
element by element, its readouts against the dense state vector, its
displaced readouts against shifted whole-plan and per-group engine runs,
and the feature map against a batched engine run."""
import numpy as np
import pytest

from conftest import embed_gate, random_template
from qcnn.dataset import gen_dataset
from qcnn.gates import CFLIP_Z, Angle, GateKind, GateOp, gate_matrix, rx_matrix
from qcnn.network import ModelParams, build_plan, conv_feature_map, group_plan, layer_structure
from qcnn.plans import CircuitPlan
from qcnn.runner import _pair_table, pair_channel, rotate, run_plan_batch, run_template, template_steps
from qcnn.statevec import run_pure
from qcnn.training import TrainConfig, TrainingObjective

ARCHS = ("conv", "conv-pool-pool", "conv-pool-conv-pool")
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # I, X, Y, Z


def _pauli_pair(i, j):
    """P_i x P_j on a wire pair, by explicit 4x4 matrices."""
    return embed_gate(PAULIS[i], (0,), 2) @ embed_gate(PAULIS[j], (1,), 2)


def _dense_pair(gates):
    """The pair's unitary and its Pauli transfer matrix R[k, l, i, j] =
    Tr((P_k x P_l) u (P_i x P_j) u^dagger) / 4, by explicit 4x4 matrices."""
    u = np.eye(4, dtype=complex)
    for g in gates:
        u = embed_gate(gate_matrix(g), (0, 1), 2) @ u
    ptm = np.zeros((4, 4, 4, 4))
    for k, l, i, j in np.ndindex(ptm.shape):
        ptm[k, l, i, j] = np.trace(_pauli_pair(k, l) @ u @ _pauli_pair(i, j) @ u.conj().T).real / 4
    return u, ptm


def _density(v):
    """(I + x X + y Y + z Z) / 2 of Bloch vectors v (..., 3)."""
    return (PAULIS[0] + np.einsum("...k,kab->...ab", v, PAULIS[1:])) / 2


def _bloch(rho):
    return np.stack([np.einsum("...ab,ba->...", rho, p).real for p in PAULIS[1:]], axis=-1)


def _random_bloch(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True) * rng.uniform(0, 1, (n, 1))


@pytest.mark.parametrize("kind, param_layer", [("conv", 0), ("conv", 1), ("pool", None)])
def test_compiled_channels_match_dense_matrices(kind, param_layer):
    tpl = group_plan(kind, param_layer)
    pairs = [(wires, op) for wires, op in template_steps(tpl) if isinstance(op, tuple)]
    assert len(pairs) == (3 if kind == "conv" else 1)
    rng = np.random.default_rng(3)
    for wires, table in pairs:
        # every run compiles to y' = a_y b_z, z' = a_z b_z
        assert table == ((1, 0, 1), (1, 1, 1))
        u, ptm = _dense_pair([g for g in tpl.gates if g.wires == wires])
        for k, (sign, i, j) in enumerate(table, 2):
            want = np.zeros((4, 4))
            want[i + 2, j + 2] = sign
            np.testing.assert_array_equal(ptm[k, 0], want)
        # and gives the y and z of u (rho_a x rho_b) u^dagger traced over b,
        # from full Bloch vectors whose x the tree never sees
        a, b = _random_bloch(rng, 5), _random_bloch(rng, 5)
        rho = np.einsum("nab,ncd->nacbd", _density(a), _density(b)).reshape(5, 4, 4)
        out = np.trace((u @ rho @ u.conj().T).reshape(5, 2, 2, 2, 2), axis1=2, axis2=4)
        got = pair_channel(table, (a[:, 1], a[:, 2]), (b[:, 1], b[:, 2]))
        np.testing.assert_allclose(np.stack(got, axis=-1), _bloch(out)[:, 1:], rtol=0, atol=1e-15)
    # an RX turn takes the (y, z) of rho to those of u rho u^dagger
    for gate in (g for g in tpl.gates if g.kind is GateKind.RX):
        theta = rng.uniform(-np.pi, np.pi, 5)
        u = gate_matrix(gate, theta)
        v = _random_bloch(rng, 5)
        got = rotate((v[:, 1], v[:, 2]), theta)
        np.testing.assert_allclose(np.stack(got, axis=-1), _bloch(u @ _density(v) @ u.conj().swapaxes(-1, -2))[:, 1:],
                                   rtol=0, atol=1e-15)
    # a run whose output is a sum of Pauli products does not compile
    with pytest.raises(ValueError, match="one signed Pauli product"):
        _pair_table(np.kron(rx_matrix(0.3), np.eye(2)))


def test_templates_whose_readout_does_not_factor_are_refused():
    # a readout factors into a kernel part times a per-row product only when
    # data rotations are RY encodings, kernel rotations are RX turns and
    # every pair table builds y and z from the y and z of both wires
    data = [GateOp(GateKind.RY, (w,), Angle.data(w)) for w in range(2)]
    ry_kernel = data + [GateOp(GateKind.RY, (0,), Angle.param(0, 0)), GateOp(GateKind.CFLIP_X, (0, 1))]
    with pytest.raises(ValueError, match="RX turns of kernel angles"):
        template_steps(CircuitPlan(2, tuple(ry_kernel), 0))
    # a lone CFLIP_Z takes Z x I to itself, which is no product of Y and Z on both wires
    lone_z = data + [GateOp(GateKind.RX, (0,), Angle.param(0, 0)), GateOp(GateKind.CFLIP_Z, (0, 1))]
    for refused in (lambda: _pair_table(CFLIP_Z), lambda: template_steps(CircuitPlan(2, tuple(lone_z), 0))):
        with pytest.raises(ValueError, match="one signed Pauli product of Y and Z on both wires"):
            refused()
    # a turn of a run's wire inside the run cannot move before the run's channel
    cut = data + [GateOp(GateKind.CFLIP_Y, (0, 1)), GateOp(GateKind.RX, (1,), Angle.param(0, 0)),
                  GateOp(GateKind.CFLIP_Z, (0, 1))]
    with pytest.raises(ValueError, match="does not factor into two-input channels"):
        template_steps(CircuitPlan(2, tuple(cut), 0))


def test_random_templates_compile_exactly_or_are_refused():
    # every template the compiler admits reads, through its channel tree at
    # zero data times the cos product of its data angles, what the dense
    # state vector reads; it refuses exactly those with a run that builds Y
    # or Z of its first wire from anything but one signed product of Y and
    # Z on both wires, or with a turn of a run's own wire inside the run
    rng = np.random.default_rng(2207)
    admitted = refused = 0
    for case in range(500):
        tpl, data, factoring = random_template(rng)
        try:
            template_steps(tpl)
        except ValueError:
            assert not factoring, case
            refused += 1
            continue
        assert factoring, case
        admitted += 1
        kernel = rng.uniform(-np.pi, np.pi, (3, 4))
        encoded = [g.wires[0] for g in tpl.gates if g.kind is GateKind.RY]
        got = run_template(tpl, kernel)[1] * np.prod(np.cos(data[:, encoded]), axis=1)
        want = [1 - 2 * run_pure(tpl, row, ModelParams((k,))) for row, k in zip(data, kernel)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(case))
    assert admitted > 150 and refused > 150


def _per_gate(tpl, kernel, inputs=None):
    """run_template one gate at a time: each RX turn rotates its wire where
    it stands, and a pair run applies its signed products at its last gate."""
    zero = (np.zeros(kernel.shape[:-1]), np.ones(kernel.shape[:-1]))
    state = {} if inputs is None else {w: (inputs[0][..., w], inputs[1][..., w]) for w in range(inputs[0].shape[-1])}
    run = []
    for at, gate in enumerate(tpl.gates):
        if gate.kind is GateKind.RX:
            state[gate.wires[0]] = rotate(state.get(gate.wires[0], zero), kernel[..., gate.angle.index])
        elif len(gate.wires) == 2:
            run.append(gate)
            if gate.wires[1] in tpl.retire_schedule[at]:
                u = np.eye(4)
                for g in run:
                    u = gate_matrix(g) @ u
                a, b = state.get(gate.wires[0], zero), state.pop(gate.wires[1], zero)
                state[gate.wires[0]] = tuple(sign * a[i] * b[j] for sign, i, j in _pair_table(u))
                run = []
    return state.get(tpl.readout_wire, zero)


def _same_bits(got, want, case=None):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64), err_msg=str(case))


@pytest.mark.parametrize("rows", [(1,), (129,), (144, 2)])
@pytest.mark.parametrize("kind, param_layer", [("conv", 0), ("conv", 1), ("pool", None)])
def test_run_template_matches_the_per_gate_loop_bit_for_bit(kind, param_layer, rows):
    # a run of turns rotates its stacked wires in one call and a pair's
    # products drop their factor of +-1: both are elementwise, so a group
    # template reads bit for bit what one gate at a time gives, with and
    # without inputs
    rng = np.random.default_rng(sum(rows))
    tpl = group_plan(kind, param_layer)
    kernel = rng.uniform(-np.pi, np.pi, rows + (4 if kind == "conv" else 0,))
    inputs = tuple(rng.uniform(-1, 1, (2,) + rows + (tpl.n_wires,)))
    for given in (None, inputs):
        for got, want in zip(run_template(tpl, kernel, given), _per_gate(tpl, kernel, given)):
            _same_bits(got, want)


def test_random_templates_run_bit_for_bit_as_one_gate_at_a_time():
    # so does every random template the compiler admits (the templates and
    # kernels of the fuzz above), with and without inputs on its first few
    # wires; every admitted run has signs +1, so a row of sign -1 is held
    # to the signed product alone, signed zeros included
    fuzz, rng, admitted = np.random.default_rng(2207), np.random.default_rng(5), 0
    for case in range(500):
        tpl, _, _ = random_template(fuzz)
        try:
            template_steps(tpl)
        except ValueError:
            continue
        admitted += 1
        kernel = fuzz.uniform(-np.pi, np.pi, (3, 4))
        given = tuple(rng.uniform(-1, 1, (2, 3, int(rng.integers(0, tpl.n_wires + 1)))))
        for inputs in (None, given):
            for got, want in zip(run_template(tpl, kernel, inputs), _per_gate(tpl, kernel, inputs)):
                _same_bits(got, want, case)
    assert admitted == 219
    a, b = rng.uniform(-1, 1, (2, 2, 40))
    a[:, :4], b[:, 2:6] = [0.0, -0.0, 0.0, -0.0], [0.0, -0.0, 0.0, -0.0]
    table = ((-1, 0, 1), (1, 1, 0), (-1, 1, 1))
    for got, (sign, i, j) in zip(pair_channel(table, a, b), table):
        _same_bits(got, sign * a[i] * b[j])


def _rows(arch, n, seed):
    config = TrainConfig(arch=arch)
    samples = gen_dataset(n, config.arch.image_side, seed=seed)
    rows = np.stack([s.pixels for s in samples]).astype(float)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(seed).uniform(-0.6, 0.6, config.arch.n_params))
    return config.arch, rows, params


def _per_group(arch, angles, params, run, shift_site=None):
    """Readouts measured after each layer, every group run on its own by
    run(template, group angles, shift); shift_site = (layer, j, occ, delta)
    moves angle (layer, j) in group occ of its conv layer."""
    values = angles
    for spec in layer_structure(arch):
        tpl = group_plan(spec.kind, spec.param_layer)
        outs = np.empty((len(angles), len(spec.groups)))
        for g, grp in enumerate(spec.groups):
            shift = None
            if shift_site is not None and spec.param_layer == shift_site[0] and g == shift_site[2]:
                shift = {tpl.param_occurrences(shift_site[0], shift_site[1])[0]: shift_site[3]}
            outs[:, g] = run(tpl, values[:, list(grp)], params, shift)
        values = np.pi * outs
    return outs[:, 0]


@pytest.mark.parametrize("arch", ARCHS)
def test_readouts_match_the_dense_state_vector(arch):
    # end to end where the whole plan fits a state vector (16 wires at
    # most), and measured after each layer with every group's template run
    # as a state vector
    arch, rows, params = _rows(arch, 4, seed=71)
    angles = np.pi * rows / 255.0
    if arch.image_side < 8:
        plan, _ = build_plan(arch)
        got = TrainingObjective(TrainConfig(arch=arch), rows, np.zeros(4)).p1(params)
        np.testing.assert_allclose(got, [run_pure(plan, a, params) for a in angles], rtol=0, atol=1e-12)

    def dense(tpl, group_angles, p, shift):
        return [run_pure(tpl, a, p) for a in group_angles]

    got = TrainingObjective(TrainConfig(arch=arch, measure_mode="intermediate"), rows, np.zeros(4)).p1(params)
    np.testing.assert_allclose(got, _per_group(arch, angles, params, dense), rtol=0, atol=1e-12)


@pytest.mark.parametrize("measure_mode", ["end-to-end", "intermediate"])
@pytest.mark.parametrize("arch", ARCHS)
def test_every_displaced_readout_matches_shifted_engine_runs(arch, measure_mode):
    # each +-pi/2 displacement of each occurrence, read one at a time,
    # against the engine: the whole plan with that gate shifted end to end,
    # and every group run on its own when measured after each layer
    arch, rows, params = _rows(arch, 3, seed=72)
    angles = np.pi * rows / 255.0
    obj = TrainingObjective(TrainConfig(arch=arch, measure_mode=measure_mode), rows, np.zeros(3))
    plan, _ = build_plan(arch)

    def engine(tpl, group_angles, p, shift):
        return run_plan_batch(tpl, group_angles, p, shift=shift)

    for layer, j in plan.param_slots():
        for occ, gate in enumerate(plan.param_occurrences(layer, j)):
            for delta in (np.pi / 2, -np.pi / 2):
                got = obj.p1(params, shift_occ=(layer, j, occ, delta))
                if measure_mode == "end-to-end":
                    want = run_plan_batch(plan, angles, params, shift={gate: delta})
                else:
                    want = _per_group(arch, angles, params, engine, (layer, j, occ, delta))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str((layer, j, occ, delta)))


def test_feature_map_matches_a_batched_engine_run():
    rng = np.random.default_rng(73)
    grid = rng.integers(0, 256, size=(10, 14))
    kernel = rng.uniform(-np.pi, np.pi, 4)
    windows = np.pi * grid.reshape(5, 2, 7, 2).transpose(0, 2, 1, 3).reshape(-1, 4) / 255.0
    want = run_plan_batch(group_plan("conv", 0), windows, ModelParams((kernel,))).reshape(5, 7)
    np.testing.assert_allclose(conv_feature_map(grid, kernel), want, rtol=0, atol=1e-12)
