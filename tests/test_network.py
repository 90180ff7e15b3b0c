"""Architecture plans: layer geometry, the frozen convolution gate sequence,
parameter bookkeeping, closed-form readout oracles, and the feature map."""
import json
from pathlib import Path

import numpy as np
import pytest

from qcnn.encoding import pixel_to_angle
from qcnn.gates import GateKind
from qcnn.network import (
    Architecture,
    ModelParams,
    build_plan,
    conv_feature_map,
    group_plan,
    init_params,
    layer_structure,
    load_params,
    save_params,
)
from qcnn.runner import run_plan, run_plan_batch
from qcnn.statevec import run_pure

CONV = Architecture.CONV
CPP = Architecture.CONV_POOL_POOL
CPCP = Architecture.CONV_POOL_CONV_POOL


def test_architecture_lookup():
    assert Architecture.from_string("conv") is CONV
    assert Architecture.from_string("conv-pool-pool") is CPP
    assert Architecture.from_string("conv-pool-conv-pool") is CPCP
    with pytest.raises(ValueError, match="conv-pool-pool"):
        Architecture.from_string("bogus")
    assert (CONV.image_side, CPP.image_side, CPCP.image_side) == (2, 4, 8)
    assert CPCP.layer_kinds == ("conv", "pool", "conv", "pool")
    assert (CONV.n_params, CPP.n_params, CPCP.n_params) == (4, 4, 8)


def test_layer_structure_spatial_windows():
    (conv,) = layer_structure(CONV)
    assert conv.kind == "conv" and conv.groups == ((0, 1, 2, 3),)

    layers = layer_structure(CPP)
    assert [l.kind for l in layers] == ["conv", "pool", "pool"]
    # 2x2 windows over the 4x4 row-major grid, stride 2
    assert layers[0].groups == (
        (0, 1, 4, 5),
        (2, 3, 6, 7),
        (8, 9, 12, 13),
        (10, 11, 14, 15),
    )
    assert layers[1].groups == ((0, 1), (2, 3))
    assert layers[2].groups == ((0, 1),)

    layers = layer_structure(CPCP)
    assert [l.kind for l in layers] == ["conv", "pool", "conv", "pool"]
    assert len(layers[0].groups) == 16
    assert layers[0].groups[0] == (0, 1, 8, 9)
    assert layers[0].groups[1] == (2, 3, 10, 11)
    assert layers[0].groups[4] == (16, 17, 24, 25)
    assert layers[2].param_layer == 1 and len(layers[2].groups) == 2
    assert len(layers[3].groups) == 1


def test_conv_plan_gate_sequence_frozen():
    plan, boundaries = build_plan(CONV)
    seq = [(g.kind, g.wires) for g in plan.gates]
    assert seq == [
        (GateKind.RY, (0,)),
        (GateKind.RY, (1,)),
        (GateKind.RY, (2,)),
        (GateKind.RY, (3,)),
        (GateKind.RX, (0,)),
        (GateKind.RX, (1,)),
        (GateKind.RX, (2,)),
        (GateKind.RX, (3,)),
        (GateKind.CFLIP_Z, (0, 1)),
        (GateKind.CFLIP_Y, (0, 1)),
        (GateKind.CFLIP_Z, (2, 3)),
        (GateKind.CFLIP_Y, (2, 3)),
        (GateKind.CFLIP_Z, (0, 2)),
        (GateKind.CFLIP_Y, (0, 2)),
    ]
    assert [g.angle.index for g in plan.gates[:4]] == [0, 1, 2, 3]
    assert [(g.angle.layer, g.angle.index) for g in plan.gates[4:8]] == [
        (0, 0), (0, 1), (0, 2), (0, 3),
    ]
    assert plan.readout_wire == 0
    assert len(boundaries) == 1 and boundaries[0].wires == (0,)


def test_plan_sizes_and_peak_widths():
    conv, _ = build_plan(CONV)
    cpp, _ = build_plan(CPP)
    cpcp, _ = build_plan(CPCP)
    assert (len(conv.gates), len(cpp.gates), len(cpcp.gates)) == (14, 59, 253)
    assert (conv.n_wires, cpp.n_wires, cpcp.n_wires) == (4, 16, 64)
    assert conv.peak_active_width() == 4
    assert cpp.peak_active_width() == 6
    assert cpcp.peak_active_width() == 9
    assert (conv.readout_wire, cpp.readout_wire, cpcp.readout_wire) == (0, 0, 0)
    # pooling is one controlled NOT per merged pair
    kinds = [g.kind for g in cpp.gates]
    assert kinds.count(GateKind.CFLIP_X) == 3
    assert [g.kind for g in cpcp.gates].count(GateKind.CFLIP_X) == 8 + 1


def test_plan_boundaries_name_live_wires():
    _, boundaries = build_plan(CPP)
    assert [b.kind for b in boundaries] == ["conv", "pool", "pool"]
    assert boundaries[0].wires == (0, 2, 8, 10)
    assert boundaries[1].wires == (0, 8)
    assert boundaries[2].wires == (0,)


def test_param_occurrence_index():
    cpp, _ = build_plan(CPP)
    for j in range(4):
        occ = cpp.param_occurrences(0, j)
        assert len(occ) == 4
        assert all(cpp.gates[i].kind is GateKind.RX for i in occ)
    assert cpp.param_slots() == ((0, 0), (0, 1), (0, 2), (0, 3))
    cpcp, _ = build_plan(CPCP)
    assert len(cpcp.param_occurrences(0, 0)) == 16
    assert len(cpcp.param_occurrences(1, 3)) == 2
    assert len(cpcp.param_slots()) == 8


def test_build_plan_is_cached():
    a1, _ = build_plan(CONV)
    a2, _ = build_plan(CONV)
    assert a1 is a2  # plans are cached per architecture


def test_group_plan_templates():
    conv = group_plan("conv", 0)
    assert conv.n_wires == 4 and len(conv.gates) == 14 and conv.readout_wire == 0
    assert conv.n_data_slots == 4
    pool = group_plan("pool")
    assert pool.n_wires == 2 and len(pool.gates) == 3
    assert pool.gates[2].kind is GateKind.CFLIP_X
    with pytest.raises(ValueError):
        group_plan("dense")
    assert group_plan("conv", 1).param_slots() == ((1, 0), (1, 1), (1, 2), (1, 3))


def _conv_closed_form(encode, kernel):
    # per-wire excitations combine by parity: the readout reads 1 when an
    # odd number of window wires are excited
    signs = np.cos(np.asarray(encode)) * np.cos(np.asarray(kernel))
    return 0.5 * (1.0 - np.prod(signs))


def test_conv_readout_closed_form():
    rng = np.random.default_rng(31)
    plan, _ = build_plan(CONV)
    for _ in range(30):
        encode = rng.uniform(0.0, np.pi, 4)
        kernel = rng.uniform(-np.pi, np.pi, 4)
        params = ModelParams((kernel,))
        want = _conv_closed_form(encode, kernel)
        assert run_pure(plan, encode, params) == pytest.approx(want, abs=1e-12)
        assert run_plan(plan, encode, params) == pytest.approx(want, abs=1e-12)


def test_conv_pool_pool_readout_closed_form():
    # pooling merges window parities, so the deep readout is the parity of
    # all sixteen pixel excitations with the shared kernel applied per window
    rng = np.random.default_rng(32)
    plan, _ = build_plan(CPP)
    for _ in range(5):
        encode = rng.uniform(0.0, np.pi, 16)
        kernel = rng.uniform(-np.pi, np.pi, 4)
        params = ModelParams((kernel,))
        want = 0.5 * (1.0 - np.prod(np.cos(kernel)) ** 4 * np.prod(np.cos(encode)))
        assert run_pure(plan, encode, params) == pytest.approx(want, abs=1e-12)
        assert run_plan(plan, encode, params) == pytest.approx(want, abs=1e-12)


def test_deep_plan_engines_agree():
    # the 64-wire plan is beyond the dense oracle, so its readouts are held
    # against values stored from the former single-sample frontier engine,
    # which agreed with run_plan to 1e-15 on them.  Dim images (intensities
    # 0..39) and small kernels keep every readout >= 4e-3 away from 1/2,
    # where wide lattices otherwise collapse
    cases = json.loads((Path(__file__).parent / "data" / "lattice64.json").read_text())
    plan, _ = build_plan(CPCP)
    assert len(cases) == 8
    for case in cases:
        encode = pixel_to_angle(np.array(case["pixels"]))
        params = ModelParams(tuple(np.array(k) for k in case["kernels"]))
        assert abs(case["p1"] - 0.5) >= 4e-3
        assert run_plan(plan, encode, params) == pytest.approx(case["p1"], abs=1e-12)


def test_model_params_container():
    params = ModelParams((np.array([1.0, 2.0, 3.0, 4.0]),))
    np.testing.assert_array_equal(params.vector(), [1, 2, 3, 4])
    assert params.n_layers == 1
    two = ModelParams.from_vector(CPCP, np.arange(8.0))
    assert two.n_layers == 2
    np.testing.assert_array_equal(two.layers[1], [4, 5, 6, 7])
    bumped = params.with_update([0.5, 0, 0, -0.5])
    np.testing.assert_allclose(bumped.vector(), [1.5, 2, 3, 3.5])
    np.testing.assert_array_equal(params.vector(), [1, 2, 3, 4])  # original untouched
    with pytest.raises(ValueError):
        ModelParams((np.zeros(3),))
    with pytest.raises(ValueError):
        ModelParams((np.array([np.inf, 0, 0, 0]),))
    with pytest.raises(ValueError):
        ModelParams.from_vector(CONV, np.zeros(8))
    with pytest.raises(ValueError):
        ModelParams.from_flat(np.zeros(6))


def test_init_params_schemes():
    zeros = init_params(CPCP, seed=0, scheme="zeros")
    assert zeros.n_layers == 2 and not zeros.vector().any()
    a = init_params(CONV, seed=4)
    b = init_params(CONV, seed=4)
    np.testing.assert_array_equal(a.vector(), b.vector())
    assert np.all(a.vector() >= 0) and np.all(a.vector() < np.pi)
    c = init_params(CONV, seed=5)
    assert not np.array_equal(a.vector(), c.vector())
    with pytest.raises(ValueError):
        init_params(CONV, seed=0, scheme="gaussian")


def test_params_file_roundtrip(tmp_path):
    path = tmp_path / "params.txt"
    params = ModelParams((np.array([np.pi, 1 / 3, -2.5, 1e-17]),))
    save_params(params, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4 and lines[0] == f"{np.pi:.17g}"
    np.testing.assert_array_equal(load_params(path).vector(), params.vector())


def test_params_file_rejections(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("1.0\nnope\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="one angle per line"):
        load_params(path)
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match="multiple of 4"):
        load_params(path)
    path.write_text("\n")
    with pytest.raises(ValueError, match="multiple of 4"):
        load_params(path)


def test_feature_map_matches_per_window_runs():
    rng = np.random.default_rng(55)
    grid = rng.integers(0, 256, size=(4, 6))
    kernel = rng.uniform(0, np.pi, 4)
    fm = conv_feature_map(grid, kernel)
    assert fm.shape == (2, 3)
    tpl = group_plan("conv", 0)
    params = ModelParams((kernel,))
    for wr in range(2):
        for wc in range(3):
            window = grid[2 * wr : 2 * wr + 2, 2 * wc : 2 * wc + 2]
            want = run_plan(tpl, pixel_to_angle(window).reshape(-1), params)
            assert fm[wr, wc] == pytest.approx(want, abs=1e-12)


def test_feature_map_constant_image_is_flat():
    fm = conv_feature_map(np.full((6, 6), 77), [0.3, 1.2, 0.0, 2.2])
    assert fm.shape == (3, 3)
    assert np.ptp(fm) < 1e-14


def test_feature_map_translation_covariance():
    # shifting the image by a full window stride shifts the map by one cell
    rng = np.random.default_rng(56)
    grid = rng.integers(0, 256, size=(4, 4))
    kernel = rng.uniform(0, np.pi, 4)
    shifted = np.roll(grid, 2, axis=1)
    np.testing.assert_allclose(
        conv_feature_map(shifted, kernel),
        np.roll(conv_feature_map(grid, kernel), 1, axis=1),
        atol=1e-14,
    )


def test_feature_map_validation():
    with pytest.raises(ValueError):
        conv_feature_map(np.zeros((3, 4), dtype=int), np.zeros(4))  # odd height
    with pytest.raises(ValueError):
        conv_feature_map(np.zeros(4, dtype=int), np.zeros(4))  # not 2-d
    with pytest.raises(ValueError):
        conv_feature_map(np.zeros((2, 2), dtype=int), np.zeros(3))  # short kernel


def test_conv_block_readout_matches_template():
    # the end-to-end single-window plan and the group template only differ
    # by wire naming
    rng = np.random.default_rng(57)
    encode = rng.uniform(0, np.pi, 4)
    params = ModelParams((rng.uniform(0, np.pi, 4),))
    plan, _ = build_plan(CONV)
    tpl = group_plan("conv", 0)
    assert run_pure(plan, encode, params) == pytest.approx(
        run_pure(tpl, encode, params), abs=1e-14
    )


def test_run_plan_batch_on_architecture_plans():
    rng = np.random.default_rng(58)
    plan, _ = build_plan(CPP)
    rows = rng.uniform(0, np.pi, (6, 16))
    params = ModelParams((rng.uniform(0, np.pi, 4),))
    got = run_plan_batch(plan, rows, params)
    want = np.array([run_pure(plan, row, params) for row in rows])
    np.testing.assert_allclose(got, want, atol=1e-11)
