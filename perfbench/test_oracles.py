"""The benchmark's oracles against the package's dense reference `run_pure`,
on plans of at most 16 wires.

    python3 -m pytest perfbench/test_oracles.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
from qcnn import Angle, Architecture, CircuitPlan, GateOp, ModelParams, build_plan, group_plan, run_pure  # noqa: E402


def _inputs(seed, n, side, layers):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, np.pi, (n, side * side))
    blocks = [rng.uniform(0, np.pi, 4) for _ in range(layers)]
    return angles, blocks


@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool"])
def test_end_to_end_lattice_matches_run_pure(arch):
    a = Architecture.from_string(arch)
    plan, _ = build_plan(a)
    assert plan.n_wires <= 16
    angles, blocks = _inputs(5, 4, a.image_side, a.conv_layer_count)
    want = [run_pure(plan, row, ModelParams(tuple(blocks))) for row in angles]
    np.testing.assert_allclose(O.lattice_p1(arch, angles, blocks), want, atol=1e-12)


def test_dim_inputs_and_small_angles_stay_away_from_half():
    plan, _ = build_plan(Architecture.CONV_POOL_POOL)
    rng = np.random.default_rng(6)
    angles = np.pi * rng.integers(0, 13, (3, 16)) / 255.0
    blocks = [rng.uniform(0, 0.25, 4)]
    got = O.lattice_p1("conv-pool-pool", angles, blocks)
    want = [run_pure(plan, row, ModelParams(tuple(blocks))) for row in angles]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.all(np.abs(got - 0.5) > 0.05)


def test_shifted_occurrence_matches_run_pure():
    plan, _ = build_plan(Architecture.CONV_POOL_POOL)
    angles, blocks = _inputs(7, 2, 4, 1)
    # occurrence 2 of angle 3 is the RX of the third window's last wire
    gate = plan.param_occurrences(0, 3)[2]
    gates = list(plan.gates)
    gates[gate] = GateOp(gates[gate].kind, gates[gate].wires, Angle.const(blocks[0][3] + 0.7))
    shifted = CircuitPlan(plan.n_wires, tuple(gates), plan.readout_wire)
    want = [run_pure(shifted, row, ModelParams(tuple(blocks))) for row in angles]
    got = O.lattice_p1("conv-pool-pool", angles, blocks, shifts={(0, 2, 3): 0.7})
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_intermediate_composition_matches_group_plans():
    angles, blocks = _inputs(8, 3, 4, 1)
    params = ModelParams(tuple(blocks))
    conv, pool = group_plan("conv", 0), group_plan("pool")
    windows = O.first_windows(4)
    want = []
    for row in angles:
        p = [run_pure(conv, row[list(w)], params) for w in windows]
        for _ in range(2):
            p = [run_pure(pool, np.pi * np.array(p[i : i + 2]), params) for i in range(0, len(p), 2)]
        want.append(p[0])
    got = O.intermediate_layers("conv-pool-pool", angles, blocks)
    assert [x.shape[1] for x in got] == [4, 2, 1]
    np.testing.assert_allclose(got[-1][:, 0], want, atol=1e-12)


def test_window_unitary_is_unitary():
    u = O.window_unitary(np.array([0.1, 0.2, 0.3, 0.4]))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-13)
