"""Architecture plans: layer geometry, the frozen convolution gate sequence,
parameter bookkeeping, closed-form readout oracles, and the feature map."""
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import param_slots

from qcnn.baseline import init_classical
from qcnn.encoding import pixel_cos, pixel_to_angle
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
from qcnn.runner import readout_probs, run_plan, run_plan_batch, run_template
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
    plan, layers = build_plan(CONV)
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
    assert layers == layer_structure(CONV)
    # the deeper plans, whole: a changed gate, wire, angle source or slot
    # changes the digest
    for arch, digest in (
        (CPP, "455fac8f12f7ac98864b12bd31b1ff0117f95f3e0fd34a389f3542ccae02de57"),
        (CPCP, "e4e45795c6caa6eca92427f24078ed74157e187b310a44da685973ce6c849198"),
    ):
        assert hashlib.sha256(repr(build_plan(arch)[0]).encode()).hexdigest() == digest, arch


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
    # a group above the first layer acts on the wires that carry its
    # children's outputs (the first wire of each child's leftmost window):
    # pools join two of them, the second window layer rotates four
    plan, _ = build_plan(CPP)
    assert [g.wires for g in plan.gates if g.kind is GateKind.CFLIP_X] == [(0, 2), (8, 10), (0, 8)]
    plan, _ = build_plan(CPCP)
    assert [g.wires for g in plan.gates if g.kind is GateKind.CFLIP_X] == [
        (0, 2), (4, 6), (16, 18), (20, 22), (32, 34), (36, 38), (48, 50), (52, 54), (0, 32),
    ]
    assert [g.wires[0] for g in plan.gates if g.kind is GateKind.RX and g.angle.layer == 1] == [
        0, 4, 16, 20, 32, 36, 48, 52,
    ]


def test_plan_nodes_tile_the_plan_in_post_order():
    # the nodes of the group tree build_plan returns own consecutive spans
    # of the gate list, children before their parent: a group's template
    # gates, less its data rotations above the first layer
    for arch in (CONV, CPP, CPCP):
        plan, layers = build_plan(arch)
        assert layers == layer_structure(arch)
        end = [0]

        def visit(level, group):
            """(first gate of the group's subtree, the group's output wire)"""
            spec = layers[level]
            firsts = [visit(level - 1, i)[0] for i in spec.groups[group]] if level else []
            tpl = group_plan(spec.kind, spec.param_layer)
            lo, end[0] = end[0], end[0] + len(tpl.gates) - (tpl.n_data_slots if level else 0)
            own = plan.gates[lo : end[0]]
            assert [g.kind for g in own] == [g.kind for g in tpl.gates[len(tpl.gates) - len(own) :]]
            first, wire = (firsts or [lo])[0], own[0].wires[0]
            # the subtree's gates touch no wire after it ends, except its output
            inside = {w for g in plan.gates[first : end[0]] for w in g.wires}
            later = {w for g in plan.gates[end[0] :] for w in g.wires}
            assert inside & later <= {wire}
            assert wire in inside
            return first, wire

        assert visit(len(layers) - 1, 0) == (0, plan.readout_wire)
        assert end[0] == len(plan.gates)


def test_param_occurrence_index():
    cpp, _ = build_plan(CPP)
    for j in range(4):
        occ = cpp.param_occurrences(0, j)
        assert len(occ) == 4
        assert all(cpp.gates[i].kind is GateKind.RX for i in occ)
    assert param_slots(cpp) == ((0, 0), (0, 1), (0, 2), (0, 3))
    cpcp, _ = build_plan(CPCP)
    assert len(cpcp.param_occurrences(0, 0)) == 16
    assert len(cpcp.param_occurrences(1, 3)) == 2
    assert len(param_slots(cpcp)) == 8


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
    assert param_slots(group_plan("conv", 1)) == ((1, 0), (1, 1), (1, 2), (1, 3))


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
    assert len(params.layers) == 1
    two = ModelParams.from_vector(CPCP, np.arange(8.0))
    assert len(two.layers) == 2
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


def test_model_params_name_the_first_non_finite_angle(tmp_path):
    # ModelParams owns the finiteness rule; load_params maps the flat index
    # it names back to the file line, past blank lines
    with pytest.raises(ValueError, match=r"^kernel angle 5 is not finite, got nan$"):
        ModelParams.from_flat([0, 1, 2, 3, 4, np.nan, np.inf, 7])
    path = tmp_path / "params.txt"
    path.write_text("0\n1\n\n2\n3\n4\n\n-inf\nnan\n7\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 8: angle -inf is not finite")):
        load_params(path)


def test_init_params_schemes():
    zeros = init_params(CPCP, seed=0, scheme="zeros")
    assert len(zeros.layers) == 2 and not zeros.vector().any()
    a = init_params(CONV, seed=4)
    b = init_params(CONV, seed=4)
    np.testing.assert_array_equal(a.vector(), b.vector())
    assert np.all(a.vector() >= 0) and np.all(a.vector() < np.pi)
    c = init_params(CONV, seed=5)
    assert not np.array_equal(a.vector(), c.vector())
    with pytest.raises(ValueError):
        init_params(CONV, seed=0, scheme="gaussian")


def test_init_params_takes_an_architecture_or_its_value():
    for arch in Architecture:
        np.testing.assert_array_equal(init_params(arch.value, 3).vector(), init_params(arch, 3).vector())
    for arch in ("conv-pool", "CONV", 2, None):
        with pytest.raises(ValueError, match=r"^arch cannot be "):
            init_params(arch, 3)


@pytest.mark.parametrize("init", [lambda seed: init_params(CONV, seed).vector(),
                                  lambda seed: init_classical(2, seed).weights])
def test_init_seeds_must_be_non_negative_integers(init):
    for seed in (-1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            init(seed)
    np.testing.assert_array_equal(init(np.int64(7)), init(7))


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
    # a non-finite angle or a non-ASCII byte names the file and its line
    for text, line in (("1.0\nnan\n2.0\n3.0\n", 2), ("1.0\n2.0\n\n1e400\n3.0\n", 4)):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: angle ") + ".* is not finite"):
            load_params(path)
    path.write_bytes(b"1.0\n2.0\xff\n3.0\n4.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: non-ASCII byte 0xff")):
        load_params(path)


def test_params_file_takes_plain_decimal_only(tmp_path):
    # every line save_params writes loads back bit for bit; a line float()
    # would read some other way names the file and its line
    path = tmp_path / "params.txt"
    params = ModelParams.from_flat([5e-324, -0.0, 1.7976931348623157e308, 1e16, 1e17, -123.0, 0.1, 2.5e-5])
    save_params(params, path)
    np.testing.assert_array_equal(load_params(path).vector(), params.vector())
    for bad in ("1_0", "+0.5", " 0.25", "0.1 ", "0x1p-2", "1e", ".", "Infinity"):
        path.write_text(f"0.5\n\n1.0\n{bad}\n2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ") + ".*" + re.escape(repr(bad))):
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


def test_feature_map_equals_the_transposed_window_product():
    # the four strided views multiply in the order np.prod takes over the
    # transposed (N, 4) window copy, so the map is the same bit for bit
    rng = np.random.default_rng(58)
    for _ in range(50):
        height, width = 2 * rng.integers(1, 24, size=2)
        grid = rng.integers(0, 256, size=(height, width))
        kernel = rng.uniform(-4 * np.pi, 4 * np.pi, 4)
        windows = pixel_cos(grid).reshape(height // 2, 2, width // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 4)
        factor = run_template(group_plan("conv", 0), ModelParams((kernel,)).layers[0])[1]
        want = readout_probs(factor * np.prod(windows, axis=1)).reshape(height // 2, width // 2)
        np.testing.assert_array_equal(conv_feature_map(grid, kernel), want)


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
