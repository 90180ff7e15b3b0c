"""The channel evaluator against the engines it replaces in training: its
compiled two-input channels against dense matrices built element by
element, its readouts against the dense state vector, its displaced
readouts against shifted whole-plan and per-group engine runs, and the
feature map against a batched engine run."""
import numpy as np
import pytest

from conftest import embed_gate
from qcnn.dataset import gen_dataset
from qcnn.gates import gate_matrix
from qcnn.network import ModelParams, build_plan, conv_feature_map, group_plan, layer_structure
from qcnn.runner import rotate, run_plan_batch, template_steps
from qcnn.statevec import run_pure
from qcnn.training import TrainConfig, TrainingObjective

ARCHS = ("conv", "conv-pool-pool", "conv-pool-conv-pool")
UNITS = np.eye(4).reshape(4, 2, 2)


def _dense_pair_transfer(gates):
    """(16, 4) map from products of matrix units on a wire pair to the first
    wire's entries after the gates, by explicit 4x4 matrices."""
    u = np.eye(4, dtype=complex)
    for g in gates:
        u = embed_gate(gate_matrix(g), (0, 1), 2) @ u
    rows = []
    for m in range(4):
        for n in range(4):
            out = (u @ np.kron(UNITS[m], UNITS[n]) @ u.conj().T).reshape(2, 2, 2, 2)
            rows.append(np.trace(out, axis1=1, axis2=3).reshape(4))
    return np.array(rows)


@pytest.mark.parametrize("kind, param_layer", [("conv", 0), ("conv", 1), ("pool", None)])
def test_compiled_channels_match_dense_matrices(kind, param_layer):
    tpl = group_plan(kind, param_layer)
    pairs = [(wires, op) for wires, op in template_steps(tpl) if isinstance(op, np.ndarray)]
    assert len(pairs) == (3 if kind == "conv" else 1)
    for wires, transfer in pairs:
        gates = [g for g in tpl.gates if g.wires == wires]
        assert transfer.shape == (16, 4)
        np.testing.assert_allclose(transfer, _dense_pair_transfer(gates), rtol=0, atol=1e-15)
    # a rotation acts as u rho u^dagger
    rng = np.random.default_rng(3)
    rho = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    for gate in (g for g in tpl.gates if g.kind.is_rotation):
        u = gate_matrix(gate, rng.uniform(-np.pi, np.pi))
        np.testing.assert_allclose(rotate(rho, u), u @ rho @ u.conj().T, rtol=0, atol=1e-15)


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
