"""The channel evaluator against the engines it replaces in training: its
compiled two-input channels and rotations against dense matrices built
element by element, its readouts against the dense state vector, its
displaced readouts against shifted whole-plan and per-group engine runs,
and the feature map against a batched engine run."""
import functools

import numpy as np
import pytest

from conftest import displaced_p1, embed_gate, param_slots, random_template
from qcnn.dataset import gen_dataset
from qcnn.gates import Angle, GateKind, GateOp, gate_matrix
from qcnn.network import ModelParams, build_plan, conv_feature_map, group_plan, layer_structure
from qcnn.plans import CircuitPlan
from qcnn.runner import pair_channel, rotate, run_plan_batch, run_template, template_steps
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


@functools.lru_cache(maxsize=None)
def _run_terms(kinds):
    """The one term (sign, i, j) of each of the first wire's y and z after
    a run of controlled flips of these kinds, read off its dense Pauli
    transfer matrix: y' or z' = sign a_i b_j, with i, j in {0: y, 1: z}."""
    _, ptm = _dense_pair([GateOp(kind, (0, 1)) for kind in kinds])
    terms = []
    for k in (2, 3):
        (i, j), = np.argwhere(ptm[k, 0])
        assert i >= 2 and j >= 2, kinds  # built from y and z alone
        terms.append((ptm[k, 0, i, j], i - 2, j - 2))
    return tuple(terms)


@pytest.mark.parametrize("kind, param_layer", [("conv", 0), ("conv", 1), ("pool", None)])
def test_compiled_channels_match_dense_matrices(kind, param_layer):
    tpl = group_plan(kind, param_layer)
    turns, pairs = template_steps(tpl)
    assert pairs == (((0, 1), (2, 3), (0, 2)) if kind == "conv" else ((0, 1),))
    np.testing.assert_array_equal(turns, range(4) if kind == "conv" else [])
    rng = np.random.default_rng(3)
    for wires in pairs:
        # every run takes y' = a_y b_z, z' = a_z b_z
        u, ptm = _dense_pair([g for g in tpl.gates if g.wires == wires])
        for k in (2, 3):
            want = np.zeros((4, 4))
            want[k, 3] = 1
            np.testing.assert_array_equal(ptm[k, 0], want)
        # and gives the y and z of u (rho_a x rho_b) u^dagger traced over b,
        # from full Bloch vectors whose x the tree never sees
        a, b = _random_bloch(rng, 5), _random_bloch(rng, 5)
        rho = np.einsum("nab,ncd->nacbd", _density(a), _density(b)).reshape(5, 4, 4)
        out = np.trace((u @ rho @ u.conj().T).reshape(5, 2, 2, 2, 2), axis1=2, axis2=4)
        got = pair_channel((a[:, 1], a[:, 2]), (b[:, 1], b[:, 2]))
        np.testing.assert_allclose(np.stack(got, axis=-1), _bloch(out)[:, 1:], rtol=0, atol=1e-15)
    # an RX turn takes the (y, z) of rho to those of u rho u^dagger
    for gate in (g for g in tpl.gates if g.kind is GateKind.RX):
        theta = rng.uniform(-np.pi, np.pi, 5)
        u = gate_matrix(gate, theta)
        v = _random_bloch(rng, 5)
        got = rotate((v[:, 1], v[:, 2]), theta)
        np.testing.assert_allclose(np.stack(got, axis=-1), _bloch(u @ _density(v) @ u.conj().swapaxes(-1, -2))[:, 1:],
                                   rtol=0, atol=1e-15)


def _ry(w):
    return GateOp(GateKind.RY, (w,), Angle.data(w))


def _rx(w, j=0):
    return GateOp(GateKind.RX, (w,), Angle.param(0, j))


def test_templates_of_another_shape_are_refused():
    # the compile admits RY encodings of data, at most one per wire, then
    # one RX turn of a kernel angle on every wire or none, then pair runs
    # that scale the first wire's (y, z) by the partner's z, until every
    # wire but the readout has retired into one
    pair = [GateOp(GateKind.CFLIP_Z, (0, 1)), GateOp(GateKind.CFLIP_Y, (0, 1))]
    template = [_ry(0), _ry(1), _rx(0), _rx(1, 1)] + pair
    template_steps(CircuitPlan(2, tuple(template), 0))
    misfit = ("does not fit the template shape: RY encodings of data, then one RX turn of a kernel angle per wire, "
              "then pair runs")
    retire = "template pair runs do not retire every wire but the readout into it"
    for gates, message in (
        # an encoding after a turn
        ([_ry(0), _rx(0), _ry(1), _rx(1)] + pair, f"template gate 2, ry on wires (1,), {misfit}"),
        # a turn after a pair gate
        ([_ry(0), _ry(1), pair[0], _rx(0), _rx(1), pair[1]], f"template gate 3, rx on wires (0,), {misfit}"),
        # a wire turned twice
        ([_ry(0), _ry(1), _rx(0), _rx(1), _rx(0, 2)] + pair, f"template gate 4, rx on wires (0,), {misfit}"),
        # a wire encoded twice
        ([_ry(0), _ry(1), _ry(0)] + pair, f"template gate 2, ry on wires (0,), {misfit}"),
        # turns on some wires only
        ([_ry(0), _ry(1), _rx(1)] + pair, "template turns 1 of its 2 wires, not every wire or none"),
        # a lone CFLIP_Z takes Z x I to itself
        ([_ry(0), _ry(1), pair[0]], "pair run on wires (0, 1) does not take Y x I to Y x Z and Z x I to Z x Z"),
        # a rotation of a kernel angle about y
        ([_ry(0), _ry(1), GateOp(GateKind.RY, (0,), Angle.param(0, 0))] + pair,
         f"template gate 2, ry on wires (0,), {misfit}"),
        # a wire that joins no pair, and a run whose partner is the readout
        ([_ry(0), _ry(1), _ry(2)] + pair, retire),
        ([_ry(0), _ry(1), GateOp(GateKind.CFLIP_X, (1, 0))], retire),
    ):
        n = 1 + max(w for g in gates for w in g.wires)
        with pytest.raises(ValueError) as info:
            template_steps(CircuitPlan(n, tuple(gates), 0))
        assert str(info.value) == message


def test_random_templates_compile_exactly_or_are_refused():
    # every template the compiler admits reads, through its channel tree at
    # zero data times the cos product of its data angles, what the dense
    # state vector reads; it refuses exactly those that are not the
    # network's template shape, with every run scaling by the partner's z
    rng = np.random.default_rng(2207)
    admitted = refused = 0
    for case in range(500):
        tpl, data, shaped = random_template(rng)
        try:
            template_steps(tpl)
        except ValueError:
            assert not shaped, case
            refused += 1
            continue
        assert shaped, case
        admitted += 1
        kernel = rng.uniform(-np.pi, np.pi, (3, 4))
        encoded = [g.wires[0] for g in tpl.gates if g.kind is GateKind.RY]
        got = run_template(tpl, kernel)[1] * np.prod(np.cos(data[:, encoded]), axis=1)
        want = [1 - 2 * run_pure(tpl, row, ModelParams((k,))) for row, k in zip(data, kernel)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(case))
    assert admitted > 150 and refused > 150


def _per_gate(tpl, kernel, inputs=None):
    """run_template one gate at a time: each RX turn rotates its wire where
    it stands, and a pair run, at its last gate, applies the terms its
    dense transfer matrix keeps (_run_terms)."""
    zero = (np.zeros(kernel.shape[:-1]), np.ones(kernel.shape[:-1]))
    state = {} if inputs is None else {w: (inputs[0][..., w], inputs[1][..., w]) for w in range(tpl.n_wires)}
    run = []
    for at, gate in enumerate(tpl.gates):
        if gate.kind is GateKind.RX:
            state[gate.wires[0]] = rotate(state.get(gate.wires[0], zero), kernel[..., gate.angle.index])
        elif len(gate.wires) == 2:
            run.append(gate.kind)
            if gate.wires[1] in tpl.retire_schedule[at]:
                a, b = state.get(gate.wires[0], zero), state.pop(gate.wires[1], zero)
                state[gate.wires[0]] = tuple(sign * a[i] * b[j] for sign, i, j in _run_terms(tuple(run)))
                run = []
    return state.get(tpl.readout_wire, zero)


def _same_bits(got, want, case=None):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64), err_msg=str(case))


@pytest.mark.parametrize("rows", [(1,), (129,), (144, 2)])
@pytest.mark.parametrize("kind, param_layer", [("conv", 0), ("conv", 1), ("pool", None)])
def test_run_template_matches_the_per_gate_loop_bit_for_bit(kind, param_layer, rows):
    # one rotate call turns every wire and a pair's products drop the
    # factor of 1 its transfer matrix gives: both are elementwise, so a
    # group template reads bit for bit what one gate at a time gives, with
    # no inputs and with inputs on every wire; inputs on fewer wires are
    # refused
    rng = np.random.default_rng(sum(rows))
    tpl = group_plan(kind, param_layer)
    kernel = rng.uniform(-np.pi, np.pi, rows + (4 if kind == "conv" else 0,))
    inputs = tuple(rng.uniform(-1, 1, (2,) + rows + (tpl.n_wires,)))
    for given in (None, inputs):
        for got, want in zip(run_template(tpl, kernel, given), _per_gate(tpl, kernel, given)):
            _same_bits(got, want)
    with pytest.raises(ValueError, match=f"^inputs hold {tpl.n_wires - 1} wires, the template has {tpl.n_wires}$"):
        run_template(tpl, kernel, tuple(v[..., 1:] for v in inputs))


def test_random_templates_run_bit_for_bit_as_one_gate_at_a_time():
    # so does every random template the compiler admits (the templates and
    # kernels of the fuzz above), with no inputs and with inputs on every
    # wire
    fuzz, rng, admitted = np.random.default_rng(2207), np.random.default_rng(5), 0
    for case in range(500):
        tpl, _, _ = random_template(fuzz)
        try:
            template_steps(tpl)
        except ValueError:
            continue
        admitted += 1
        kernel = fuzz.uniform(-np.pi, np.pi, (3, 4))
        given = tuple(rng.uniform(-1, 1, (2, 3, tpl.n_wires)))
        for inputs in (None, given):
            for got, want in zip(run_template(tpl, kernel, inputs), _per_gate(tpl, kernel, inputs)):
                _same_bits(got, want, case)
    assert admitted == 193


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

    for layer, j in param_slots(plan):
        for occ, gate in enumerate(plan.param_occurrences(layer, j)):
            for delta in (np.pi / 2, -np.pi / 2):
                got = displaced_p1(obj, params, (layer, j, occ, delta))
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
