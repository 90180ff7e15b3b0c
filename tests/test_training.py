"""Training mathematics: the activation, the two-point displacement rule,
the three update directions, both measure modes, and the epoch loop."""
import functools
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import batches_seen, displaced_p1, loss_gradient, param_slots

from qcnn.baseline import classical_train
from qcnn.dataset import LabeledImage, gen_dataset
from qcnn.encoding import pixel_to_angle, prob_to_angle
from qcnn.network import Architecture, ModelParams, build_plan, group_plan, layer_structure
from qcnn.runner import run_plan_batch
from qcnn.training import (
    EvalMode,
    GradMethod,
    LossCurve,
    MeasureMode,
    TrainConfig,
    TrainingObjective,
    UpdateStrategy,
    _derived_rng,
    activate,
    activate_deriv,
    evaluate,
    mse,
    save_curve,
    sigmoid,
    sigmoid_deriv,
    train,
    update_direction,
)


def _reference_draw(obj, probs, ordinal, layer):
    """Reference: readouts drawn as binomial counts over the shot number on
    the 2^-32 grid, from the stream numpy seeds with the int-tuple key
    (seed, 303, base_key, ordinal, layer)."""
    key = (obj.config.seed, 303, obj.base_key, ordinal, layer)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    p = np.rint(np.clip(probs, 0.0, 1.0) * 2.0**32) / 2.0**32
    return rng.binomial(obj.config.shots, p) / obj.config.shots


def _drawn(obj, probs, ordinal, layer):
    """The objective's own draw of one evaluation's readouts."""
    return obj._draw(np.asarray(probs)[None], [ordinal], layer)[0]


def _objective(arch="conv", n=6, seed=0, **kw):
    config = TrainConfig(arch=arch, seed=seed, **kw)
    samples = gen_dataset(n, config.arch.image_side, seed=seed + 40)
    rows = np.stack([s.pixels.astype(float) for s in samples])
    labels = np.array([s.label for s in samples], dtype=float)
    return TrainingObjective(config, rows, labels), config


def _angles(obj, n, seed):
    """The pixel angles of the rows that _objective(arch, n, seed) binds."""
    return pixel_to_angle(gen_dataset(n, obj.arch.image_side, seed=seed + 40).pixels)


def test_sigmoid_values_and_derivative():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-12)
    for x in np.linspace(-3, 3, 13):
        fd = (sigmoid(x + 1e-6) - sigmoid(x - 1e-6)) / 2e-6
        assert sigmoid_deriv(x) == pytest.approx(fd, abs=1e-8)


def test_activation_is_centered_logistic():
    # the readout probability enters as the signed average 2*p - 1, so a
    # fifty-fifty readout activates to exactly one half
    assert activate(0.5) == 0.5
    assert activate(1.0) == pytest.approx(sigmoid(1.0))
    assert activate(0.0) == pytest.approx(sigmoid(-1.0))
    ps = np.linspace(0, 1, 21)
    assert np.all(np.diff(activate(ps)) > 0)
    # activate_deriv is the logistic factor a*(1-a) at the signed input;
    # the chain factor 2 from 2*p - 1 is carried by the loss gradient
    for p in ps:
        fd = (activate(p + 1e-6) - activate(p - 1e-6)) / 2e-6
        assert 2.0 * activate_deriv(p) == pytest.approx(fd, abs=1e-8)
        a = activate(p)
        assert activate_deriv(p) == pytest.approx(a * (1 - a))


def test_mse_values():
    assert mse([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert mse([0.5], [0.0]) == 0.25
    assert mse([0.3], [1.0]) == pytest.approx(0.49)
    with pytest.raises(ValueError):
        mse([0.1, 0.2], [0.1])


def test_two_point_displacement_is_exact():
    # single window: p(t) = (1 - cos(e) cos(t))/2, so the halved difference
    # of the +-pi/2 displacements must equal cos(e) sin(t)/2 exactly
    config = TrainConfig(arch="conv", seed=1)
    pixels = np.array([[200, 0, 0, 0]], dtype=float)
    e = np.pi * 200 / 255
    obj = TrainingObjective(config, pixels, np.array([1.0]))
    for theta in (0.0, np.pi / 4, np.pi / 2, 1.0):
        params = ModelParams((np.array([theta, 0.0, 0.0, 0.0]),))
        up = displaced_p1(obj, params, (0, 0, 0, +np.pi / 2))[0]
        dn = displaced_p1(obj, params, (0, 0, 0, -np.pi / 2))[0]
        want = 0.5 * np.cos(e) * np.sin(theta)
        assert 0.5 * (up - dn) == pytest.approx(want, abs=1e-12)
    # stationary point: the rule reports a zero derivative at theta = 0
    params = ModelParams((np.zeros(4),))
    up = displaced_p1(obj, params, (0, 0, 0, +np.pi / 2))[0]
    dn = displaced_p1(obj, params, (0, 0, 0, -np.pi / 2))[0]
    assert abs(up - dn) < 1e-10


def _fd_jacobian(obj, params, h=1e-6):
    base = params.vector()
    cols = []
    for i in range(base.size):
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        pu = obj.p1(ModelParams.from_flat(up))
        pd = obj.p1(ModelParams.from_flat(dn))
        cols.append((pu - pd) / (2 * h))
    return np.stack(cols, axis=1)


def test_jacobian_matches_finite_difference_conv():
    obj, _ = _objective("conv", n=6, seed=2)
    rng = np.random.default_rng(12)
    params = ModelParams((rng.uniform(0, np.pi, 4),))
    np.testing.assert_allclose(
        obj.jacobian(params), _fd_jacobian(obj, params), atol=1e-8
    )


def test_jacobian_sums_shared_occurrences():
    # conv-pool-pool shares each kernel angle across four windows; the
    # two-point rule must add the four per-occurrence contributions to match
    # the derivative of the shared parameter
    obj, _ = _objective("conv-pool-pool", n=4, seed=3)
    rng = np.random.default_rng(13)
    params = ModelParams((rng.uniform(0, np.pi, 4),))
    assert all(len(build_plan(obj.arch)[0].param_occurrences(0, j)) == 4 for j in range(4))
    np.testing.assert_allclose(
        obj.jacobian(params), _fd_jacobian(obj, params), atol=1e-8
    )


def test_jacobian_slot_selection():
    # jacobian(params, layer) gives conv layer `layer`'s four columns of
    # the full jacobian; any other layer is refused by name
    obj, _ = _objective("conv-pool-conv-pool", n=2, seed=4)
    rng = np.random.default_rng(14)
    params = ModelParams((rng.uniform(0, np.pi, 4), rng.uniform(0, np.pi, 4)))
    full = obj.jacobian(params)
    assert full.shape == (2, 8)
    for layer in (0, 1, np.int64(1)):
        np.testing.assert_array_equal(obj.jacobian(params, layer=layer), full[:, 4 * layer: 4 * layer + 4])
    assert len(build_plan(obj.arch)[0].param_occurrences(1, 0)) == 2
    # bools, floats, negatives, non-numbers and layers past the last are refused
    for bad in (2, 5, -1, True, np.True_, 1.0, "1", (1,), 2**64):
        with pytest.raises(ValueError, match="^layer"):
            obj.jacobian(params, layer=bad)
    # conv-pool-pool has one conv layer
    one = ModelParams(params.layers[:1])
    other, _ = _objective("conv-pool-pool", n=2, seed=4)
    with pytest.raises(ValueError, match=r"^layer must name one of the 1 conv layers of conv-pool-pool, got 1$"):
        other.jacobian(one, layer=1)


def test_a_layer_equal_to_an_accepted_one_is_still_checked():
    # True == 1.0 == 1 and all three hash alike, so a jacobian cache keyed
    # on the layer's value alone would pass a bool or a float once layer 1
    # has run; every call checks its layer before the cache sees it
    obj, config = _objective("conv-pool-conv-pool", n=2, seed=4)
    params = ModelParams.from_vector(config.arch, np.full(8, 0.3))
    obj.jacobian(params, layer=1)
    obj.jacobian(params)
    for layer, message in ((True, "layer must be a non-negative integer, got True"),
                           (1.0, "layer must be a non-negative integer, got 1.0"),
                           (2, "layer must name one of the 2 conv layers of conv-pool-conv-pool, got 2")):
        with pytest.raises(ValueError) as info:
            obj.jacobian(params, layer=layer)
        assert str(info.value) == message
    assert obj.jacobian(params, layer=1).shape == (2, 4)


@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_a_refused_site_changes_nothing(arch):
    # the layer check runs before any evaluation: a refused layer counts no
    # evaluation and moves no sampled stream, under any rule, so the
    # objective then draws exactly what a fresh one draws
    for rule in ("sigmoid", "shift", "combined"):
        kw = dict(n=3, seed=26, grad_method=rule, measure_mode="intermediate", eval_mode="sampled", shots=50)
        obj, config = _objective(arch, **kw)
        fresh, _ = _objective(arch, **kw)
        params = ModelParams.from_vector(config.arch, np.random.default_rng(27).uniform(-np.pi, np.pi, config.arch.n_params))
        last = config.arch.conv_layer_count - 1
        for layer in (last + 1, -1, True, 0.0, "0"):
            with pytest.raises(ValueError, match="^layer"):
                obj.jacobian(params, layer=layer)
            with pytest.raises(ValueError, match="^layer"):
                update_direction(obj, params, np.full(3, 0.5), layer)
        assert obj.evals == 0
        site = (0, 1, 0, 0.2)
        np.testing.assert_array_equal(displaced_p1(obj, params, site), displaced_p1(fresh, params, site))
        np.testing.assert_array_equal(obj.jacobian(params, layer=last), fresh.jacobian(params, layer=last))
        np.testing.assert_array_equal(obj.jacobian(params), fresh.jacobian(params))
        assert obj.evals == fresh.evals


@functools.lru_cache(maxsize=None)
def _whole_plan_runs(arch):
    """Readouts of whole-plan walks at fixed inputs: undisplaced, then the
    (+pi/2, -pi/2) pair of every occurrence of every slot, in the order the
    jacobian evaluates them."""
    obj, config = _objective(arch, n=5, seed=21)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(22).uniform(-0.6, 0.6, config.arch.n_params))
    plan, angles = build_plan(config.arch)[0], _angles(obj, 5, 21)
    runs = [run_plan_batch(plan, angles, params)]
    for layer, j in param_slots(plan):
        for g in plan.param_occurrences(layer, j):
            runs += [run_plan_batch(plan, angles, params, shift={g: d}) for d in (np.pi / 2, -np.pi / 2)]
    return params, runs


@pytest.mark.parametrize("eval_mode", ["exact", "sampled"])
@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_end_to_end_readouts_and_jacobian_equal_whole_plan_runs(arch, eval_mode):
    # the factored readout gives, to rounding, the readouts of walking the
    # whole plan, and of walking it with one rotation occurrence displaced;
    # sampled mode draws the same shots
    params, runs = _whole_plan_runs(arch)
    obj, _ = _objective(arch, n=5, seed=21, eval_mode=eval_mode, shots=100)
    want = iter(_reference_draw(obj, p, k, 0) if eval_mode == "sampled" else p for k, p in enumerate(runs))
    near = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    same = np.testing.assert_array_equal if eval_mode == "sampled" else near
    same(obj.p1(params), next(want))
    plan = build_plan(obj.arch)[0]
    slots = param_slots(plan)
    jac = np.zeros((5, len(slots)))
    for c, (layer, j) in enumerate(slots):
        for _ in plan.param_occurrences(layer, j):
            up, dn = next(want), next(want)
            jac[:, c] += 0.5 * (up - dn)
    same(obj.jacobian(params), jac)
    assert obj.evals == 5 * len(runs)


def _per_group_readout(obj, values, params, site, ordinal):
    """Readout measured after each layer of the rows of pixel angles values,
    every group of every layer run as its own template; site = (layer, j,
    occ, delta) displaces occurrence `occ` of angle (layer, j), which is
    group `occ` of that conv layer.  Sampled mode draws each layer's
    readouts with the evaluation's key."""
    for li, spec in enumerate(layer_structure(obj.arch)):
        tpl = group_plan(spec.kind, spec.param_layer)
        outs = np.empty((obj.batch_size, len(spec.groups)))
        for g, grp in enumerate(spec.groups):
            shift = None
            if site is not None and spec.param_layer == site[0] and g == site[2]:
                shift = {tpl.param_occurrences(site[0], site[1])[0]: site[3]}
            outs[:, g] = run_plan_batch(tpl, values[:, grp], params, shift=shift)
        if obj.config.eval_mode is EvalMode.SAMPLED:
            outs = _reference_draw(obj, outs, ordinal, li + 1)
        values = prob_to_angle(outs)
    return outs[:, 0]


@pytest.mark.parametrize("eval_mode", ["exact", "sampled"])
@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_intermediate_readouts_and_jacobian_equal_per_group_runs(arch, eval_mode):
    # measured after each layer, a readout and every displaced readout of
    # the jacobian agree to rounding with running every group of every
    # layer again; sampled mode draws the same shots between the layers
    obj, config = _objective(arch, n=5, seed=21, measure_mode="intermediate", eval_mode=eval_mode, shots=100)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(22).uniform(-0.6, 0.6, config.arch.n_params))
    plan = build_plan(config.arch)[0]
    slots = param_slots(plan)
    sites = [None] + [
        (layer, j, occ, d)
        for layer, j in slots
        for occ in range(len(plan.param_occurrences(layer, j)))
        for d in (np.pi / 2, -np.pi / 2)
    ]
    angles = _angles(obj, 5, 21)
    want = [_per_group_readout(obj, angles, params, site, k) for k, site in enumerate(sites)]
    near = functools.partial(np.testing.assert_allclose, rtol=0, atol=1e-12)
    same = np.testing.assert_array_equal if eval_mode == "sampled" else near
    same(obj.p1(params), want[0])
    jac = np.zeros((5, len(slots)))
    for (layer, j, _, _), up, dn in zip(sites[1::2], want[1::2], want[2::2]):
        jac[:, slots.index((layer, j))] += 0.5 * (up - dn)
    same(obj.jacobian(params), jac)
    assert obj.evals == 5 * len(sites)


def _kernel_batches(arch, measure_mode):
    """(kernel shape, input-free) of each run_template call of a readout
    and then a full jacobian.  A layer with no inputs runs on the plain
    kernel row and the rows displaced in that layer: 4 angles, + and -, at
    each of its groups.  A layer that reads the layer below runs on every
    evaluation and group."""
    layers = layer_structure(Architecture(arch))
    jacobian_rows = 8 * sum(len(spec.groups) for spec in layers if spec.kind == "conv")
    calls = []
    for rows in (1, jacobian_rows):
        for li, spec in enumerate(layers):
            n = 4 if spec.kind == "conv" else 0
            free = li == 0 or measure_mode == "intermediate"
            displaced = 8 * len(spec.groups) if spec.kind == "conv" and rows > 1 else 0
            calls.append(((1 + displaced, n) if free else (rows, len(spec.groups), n), free))
    return calls


@pytest.mark.parametrize("measure_mode, counts", [
    ("end-to-end", (6, 10, 16)),
    ("intermediate", (6, 10, 16)),
])
def test_engine_work_of_a_readout_and_full_jacobian(monkeypatch, measure_mode, counts):
    # compiling the channels from gate-matrix products and then a readout
    # plus a full jacobian apply no gate through the engine, and a fixed
    # number of two-input channels whatever the batch size or mode: each
    # call runs every layer's template once, for all of its evaluations and
    # groups at once, on zero angles, and the rows enter only through
    # per-row products.  A layer with no inputs runs on its distinct
    # kernel rows alone.  Once the tables are compiled, no gate matrix is
    # built: rotations act on Bloch vectors
    import qcnn.runner

    gates, pairs, matrices, kernels = [], [], [], []
    apply, pair, matrix = qcnn.runner.apply_to_density, qcnn.runner.pair_channel, qcnn.runner.gate_matrix
    run = qcnn.runner.run_template
    monkeypatch.setattr(qcnn.runner, "apply_to_density", lambda *a: gates.append(1) or apply(*a))
    monkeypatch.setattr(qcnn.runner, "pair_channel", lambda *a: pairs.append(1) or pair(*a))
    monkeypatch.setattr(qcnn.runner, "gate_matrix", lambda *a: matrices.append(1) or matrix(*a))
    monkeypatch.setattr(qcnn.runner, "run_template",
                        lambda tpl, kernel, inputs=None: kernels.append((kernel.shape, inputs is None))
                        or run(tpl, kernel, inputs))
    for eval_mode in ("exact", "sampled"):
        for arch, want in zip(("conv", "conv-pool-pool", "conv-pool-conv-pool"), counts):
            for n in (1, 3):
                case = (eval_mode, arch, n)
                obj, config = _objective(arch, n=n, seed=27, measure_mode=measure_mode, eval_mode=eval_mode)
                params = ModelParams.from_vector(config.arch, np.full(config.arch.n_params, 0.4))
                qcnn.runner.template_steps.cache_clear()
                gates.clear()
                obj.p1(params)  # compiles the channels on first use
                assert matrices, case
                pairs.clear()
                matrices.clear()
                kernels.clear()
                obj.p1(params)
                obj.jacobian(params)
                assert (len(gates), len(pairs), len(matrices)) == (0, want, 0), case
                assert kernels == _kernel_batches(arch, measure_mode), case


@pytest.mark.parametrize("arch", ["conv-pool-pool", "conv-pool-conv-pool"])
def test_each_hand_off_re_encodes_that_layers_drawn_readouts(monkeypatch, arch):
    # measured after each layer and sampled, p1 hands each layer above the
    # first to one prob_to_angle call on the layer below's (B, G) drawn
    # readouts, multiples of 1/shots, the first of them near the exact
    # ones; a full jacobian makes one call per hand-off on its (E*B, G)
    # readouts
    import qcnn.training

    seen, encode = [], qcnn.training.prob_to_angle
    monkeypatch.setattr(qcnn.training, "prob_to_angle", lambda p: seen.append(np.array(p)) or encode(p))
    net = Architecture(arch)
    layers = layer_structure(net)
    e = 8 * sum(len(spec.groups) for spec in layers if spec.kind == "conv")
    params = ModelParams.from_vector(net, np.linspace(0.3, 2.9, net.n_params))
    handed = {}
    for eval_mode in ("exact", "sampled"):
        obj, _ = _objective(arch, n=3, seed=31, measure_mode="intermediate", eval_mode=eval_mode, shots=1000)
        seen.clear()
        obj.p1(params)
        assert [p.shape for p in seen] == [(3, len(spec.groups)) for spec in layers[:-1]]
        handed[eval_mode] = list(seen)
        seen.clear()
        obj.jacobian(params)
        assert [p.shape for p in seen] == [(e * 3, len(spec.groups)) for spec in layers[:-1]]
    for drawn in handed["sampled"]:
        np.testing.assert_array_equal(np.rint(drawn * 1000) / 1000, drawn)
    drawn, exact = handed["sampled"][0], handed["exact"][0]
    assert np.all(np.abs(drawn - exact) <= 6 * np.sqrt(exact * (1 - exact) / 1000) + 1e-3)


@pytest.mark.parametrize("measure_mode", ["end-to-end", "intermediate"])
@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_exact_jacobian_sums_its_displaced_readouts_bit_for_bit(arch, measure_mode):
    # in exact mode the jacobian's one batch of displaced evaluations gives
    # each of them bit for bit as a displaced p1 does alone, and sums each
    # angle's two-point differences in occurrence order
    obj, config = _objective(arch, n=5, seed=31, measure_mode=measure_mode)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(32).uniform(-np.pi, np.pi, config.arch.n_params))
    plan = build_plan(config.arch)[0]
    slots = param_slots(plan)
    want = np.zeros((5, len(slots)))
    for c, (layer, j) in enumerate(slots):
        for occ in range(len(plan.param_occurrences(layer, j))):
            up, dn = (displaced_p1(obj, params, (layer, j, occ, d)) for d in (np.pi / 2, -np.pi / 2))
            want[:, c] += 0.5 * (up - dn)
    np.testing.assert_array_equal(obj.jacobian(params), want)


def test_evals_count_the_protocol_whatever_the_call_order():
    # a jacobian without a preceding readout runs its own forward pass;
    # evals still counts batch x protocol evaluations, not engine work
    obj, config = _objective("conv-pool-conv-pool", n=3, seed=23)
    params = ModelParams.from_vector(config.arch, np.full(8, 0.3))
    obj.jacobian(params)
    assert obj.evals == 3 * 2 * (4 * 16 + 4 * 2)
    obj.p1(params)
    assert obj.evals == 3 * (1 + 2 * (4 * 16 + 4 * 2))


def test_readouts_and_jacobian_follow_the_params():
    # readouts and jacobian at new params never reuse subtrees of old ones
    arch = Architecture.CONV_POOL_CONV_POOL
    rng = np.random.default_rng(24)
    a, b = (ModelParams.from_vector(arch, rng.uniform(-0.6, 0.6, 8)) for _ in range(2))
    obj, _ = _objective(arch.value, n=3, seed=24)
    fresh, _ = _objective(arch.value, n=3, seed=24)
    pa = obj.p1(a)
    np.testing.assert_array_equal(obj.jacobian(b, layer=1), fresh.jacobian(b, layer=1))
    np.testing.assert_array_equal(obj.p1(b), fresh.p1(b))
    np.testing.assert_array_equal(obj.p1(a), pa)
    assert not np.array_equal(pa, fresh.p1(b))
    # a returned readout is the caller's own: writing to it changes no later readout
    obj.p1(a)[:] = -1.0
    np.testing.assert_array_equal(obj.p1(a), pa)


@pytest.mark.parametrize("measure_mode", ["end-to-end", "intermediate"])
def test_objective_rows_do_not_depend_on_their_batch(measure_mode):
    # each row is evaluated on its own: objectives over row slices give the
    # readouts and jacobian rows of one objective over all the rows
    config = TrainConfig(arch="conv-pool-conv-pool", seed=26, measure_mode=measure_mode)
    samples = gen_dataset(12, config.arch.image_side, seed=66)
    rows = np.stack([s.pixels.astype(float) for s in samples])
    labels = np.array([s.label for s in samples], dtype=float)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(26).uniform(-0.6, 0.6, 8))
    whole = TrainingObjective(config, rows, labels)
    parts = [TrainingObjective(config, rows[a:b], labels[a:b]) for a, b in ((0, 1), (1, 7), (7, 12))]
    np.testing.assert_array_equal(np.concatenate([o.p1(params) for o in parts]), whole.p1(params))
    np.testing.assert_array_equal(np.concatenate([o.jacobian(params) for o in parts]), whole.jacobian(params))


def test_loss_gradient_matches_finite_difference():
    obj, _ = _objective("conv", n=8, seed=5)
    rng = np.random.default_rng(15)
    params = ModelParams((rng.uniform(0, np.pi, 4),))

    def loss(vec):
        return mse(activate(obj.p1(ModelParams.from_flat(vec))), obj.labels)

    base = params.vector()
    fd = np.zeros(4)
    for i in range(4):
        up, dn = base.copy(), base.copy()
        up[i] += 1e-6
        dn[i] -= 1e-6
        fd[i] = (loss(up) - loss(dn)) / 2e-6
    got = loss_gradient(obj, params)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-10)


def test_combined_direction_is_scaled_loss_descent():
    # the chained update direction is exactly -shots * B/4 times the loss
    # gradient, so the two formulations describe the same descent direction
    obj, config = _objective("conv", n=5, seed=6, grad_method="combined")
    rng = np.random.default_rng(16)
    params = ModelParams((rng.uniform(0, np.pi, 4),))
    combined = update_direction(obj, params, obj.p1(params))
    grad = loss_gradient(obj, params)
    np.testing.assert_allclose(
        combined, -config.shots * obj.batch_size / 4.0 * grad, rtol=1e-10, atol=1e-12
    )


def test_shift_direction_zero_on_zero_error():
    # labels equal to the activated outputs produce a zero update
    config = TrainConfig(arch="conv", seed=8)
    pixels = np.array([[10, 20, 30, 40]], dtype=float)
    obj = TrainingObjective(config, pixels, np.array([0.0]))
    params = ModelParams((np.array([0.4, 1.0, 0.2, 2.0]),))
    obj.labels = activate(obj.p1(params))
    direction = update_direction(obj, params, obj.p1(params))
    np.testing.assert_allclose(direction, np.zeros(4), atol=1e-12)


def test_sigmoid_update_rule_formula():
    config = TrainConfig(arch="conv", grad_method="sigmoid", shots=10)
    params = ModelParams((np.array([1.0, 2.0, 3.0, 4.0]),))
    # readout 1/2 activates to 1/2, so label 0.7 is an error of 0.2
    p1s = np.array([0.5])
    obj = TrainingObjective(config, np.zeros((1, 4)), np.array([0.7]))
    # scalar = (shots*p1) * err * activation'(p1) = 10*0.5*0.2*0.25
    np.testing.assert_allclose(update_direction(obj, params, p1s), np.full(4, 0.25))
    # zero error freezes the parameters
    obj.labels = np.array([0.5])
    np.testing.assert_array_equal(update_direction(obj, params, p1s, layer=0), np.zeros(4))
    # one scalar per batch: the per-sample terms are summed
    two = TrainingObjective(config, np.zeros((2, 4)), np.array([0.7, 0.7]))
    np.testing.assert_allclose(update_direction(two, params, np.array([0.5, 0.5])), np.full(4, 0.5))


def test_sigmoid_update_layer_targeting():
    # every rule leaves the angles outside the requested layer at zero, and
    # a layer's circuit-derivative direction does not depend on which other
    # layers are requested alongside it
    for rule in ("sigmoid", "shift", "combined"):
        obj, _ = _objective("conv-pool-conv-pool", n=2, seed=4, grad_method=rule)
        params = ModelParams((np.full(4, 0.3), np.full(4, -0.2)))
        p1s = obj.p1(params)
        second = update_direction(obj, params, p1s, layer=1)
        assert np.all(second[:4] == 0.0) and np.all(second[4:] != 0.0), rule
        full = update_direction(obj, params, p1s)
        np.testing.assert_allclose(second[4:], full[4:], rtol=0, atol=1e-15, err_msg=rule)


@pytest.mark.parametrize("rule", ["sigmoid", "shift", "combined"])
@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_a_layer_direction_is_the_full_direction_sliced(arch, rule):
    # exact, each conv layer's direction is bit for bit its four entries of
    # the every-angle direction, and zero at every other angle
    obj, config = _objective(arch, n=4, seed=38, grad_method=rule)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(38).uniform(-np.pi, np.pi, config.arch.n_params))
    p1s = obj.p1(params)
    full = update_direction(obj, params, p1s)
    for layer in range(config.arch.conv_layer_count):
        cols = slice(4 * layer, 4 * layer + 4)
        want = np.zeros(config.arch.n_params)
        want[cols] = full[cols]
        np.testing.assert_array_equal(update_direction(obj, params, p1s, layer=layer), want, err_msg=str(layer))


def test_intermediate_equals_end_to_end_single_layer():
    rng = np.random.default_rng(18)
    rows = rng.integers(0, 256, size=(10, 4)).astype(float)
    labels = rng.integers(0, 2, size=10).astype(float)
    params = ModelParams((rng.uniform(0, np.pi, 4),))
    cfg_end = TrainConfig(arch="conv", measure_mode="end-to-end")
    cfg_mid = TrainConfig(arch="conv", measure_mode="intermediate")
    p_end = TrainingObjective(cfg_end, rows, labels).p1(params)
    p_mid = TrainingObjective(cfg_mid, rows, labels).p1(params)
    np.testing.assert_allclose(p_mid, p_end, atol=1e-9)


def _pool_cut(pa, pb):
    # re-encoded pair pooling: RY(pi*pa), RY(pi*pb), controlled NOT
    return 0.5 * (1.0 - np.cos(np.pi * pa) * np.cos(np.pi * pb))


def test_intermediate_mode_matches_composed_closed_form():
    # with a measurement cut after every layer the pipeline is a composition
    # of small closed forms: window parity, then pair parity on re-encoded
    # probabilities
    obj, _ = _objective("conv-pool-pool", n=6, seed=9, measure_mode="intermediate")
    rng = np.random.default_rng(19)
    kernel = rng.uniform(0, np.pi, 4)
    params = ModelParams((kernel,))
    groups = ((0, 1, 4, 5), (2, 3, 6, 7), (8, 9, 12, 13), (10, 11, 14, 15))
    win = np.stack(
        [
            0.5 * (1.0 - np.prod(np.cos(_angles(obj, 6, 9)[:, g]) * np.cos(kernel), axis=1))
            for g in groups
        ],
        axis=1,
    )
    want = _pool_cut(_pool_cut(win[:, 0], win[:, 1]), _pool_cut(win[:, 2], win[:, 3]))
    got = obj.p1(params)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # the cut moves the readout away from the end-to-end value in general
    end, _ = _objective("conv-pool-pool", n=6, seed=9)
    assert not np.allclose(end.p1(params), got, atol=1e-6)
    # displacement machinery stays usable on the cut pipeline
    jac = obj.jacobian(params)
    assert jac.shape == (6, 4) and np.all(np.isfinite(jac))


def test_sampled_mode_quantizes_and_repeats():
    obj, config = _objective("conv", n=8, seed=10, eval_mode="sampled", shots=100)
    params = ModelParams((np.full(4, 0.8),))
    p = obj.p1(params)
    np.testing.assert_allclose(p * config.shots, np.rint(p * config.shots), atol=1e-9)
    obj2, _ = _objective("conv", n=8, seed=10, eval_mode="sampled", shots=100)
    np.testing.assert_array_equal(obj2.p1(params), p)
    # later calls advance the draw stream
    assert not np.array_equal(obj.p1(params), p) or not np.array_equal(
        obj.p1(params), p
    )


def test_readout_extremes_and_predicted_labels():
    # a zero kernel on a black window reads 0; a single half-turn on one
    # wire flips the window parity outright.  evaluate() thresholds the
    # activated readouts: activate(0) < 1/2 predicts label 0, activate(1)
    # > 1/2 predicts label 1
    config = TrainConfig(arch="conv")
    cold = ModelParams((np.zeros(4),))
    hot = ModelParams((np.array([np.pi, 0.0, 0.0, 0.0]),))
    obj = TrainingObjective(config, np.zeros((1, 4)), np.zeros(1))
    assert obj.p1(cold)[0] == pytest.approx(0.0, abs=1e-12)
    assert obj.p1(hot)[0] == pytest.approx(1.0, abs=1e-12)
    black = [LabeledImage(2, np.zeros(4), 0)]
    assert evaluate(cold, black, config) == pytest.approx((activate(0.0) ** 2, 1.0))
    assert evaluate(hot, black, config, threshold=0.5) == pytest.approx((activate(1.0) ** 2, 0.0))
    # the decision threshold moves the predicted labels, not the mse
    assert evaluate(hot, black, config, threshold=0.99) == pytest.approx((activate(1.0) ** 2, 1.0))


def test_draws_do_not_depend_on_a_readouts_last_bit():
    # numpy draws p > 1/2 as shots - X(1 - p), so the readouts one ulp on
    # either side of 1/2 would draw far apart; rounded to the 2^-32 grid
    # they draw the counts of 1/2 itself
    obj, _ = _objective("conv", n=3, seed=42, eval_mode="sampled", shots=100)
    for key in range(6):
        half = _drawn(obj, np.full(5, 0.5), key, 1)
        for p in (np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)):
            np.testing.assert_array_equal(_drawn(obj, np.full(5, p), key, 1), half, err_msg=str((key, p)))


def test_shot_sampling_deterministic_and_bounded():
    # sampled readouts are binomial counts over the shot number, drawn from
    # a stream keyed by (seed, epoch, evaluation, layer): equal keys repeat,
    # certain outcomes stay certain, and the rate converges on the readout
    obj, _ = _objective("conv", n=3, seed=42, eval_mode="sampled", shots=1000)
    p = np.array([0.37, 0.0, 1.0])
    a = _drawn(obj, p, 0, 0)
    np.testing.assert_array_equal(a, _drawn(obj, p, 0, 0))
    assert not np.array_equal(a, _drawn(obj, p, 1, 0))
    assert 0.0 <= a[0] <= 1.0 and a[1] == 0.0 and a[2] == 1.0
    # readouts a rounding error outside [0, 1] are clipped, not refused
    np.testing.assert_array_equal(_drawn(obj, np.array([-1e-12, 1.0 + 1e-12, 0.0]), 0, 0), [0.0, 1.0, 0.0])
    big, _ = _objective("conv", n=1, seed=7, eval_mode="sampled", shots=100000)
    assert abs(_drawn(big, np.array([0.3]), 0, 0)[0] - 0.3) < 0.01


@pytest.mark.parametrize("seed, base_key", [(0, 0), (2**40 + 7, 2**33 + 1)])
def test_a_block_of_evaluations_draws_each_on_its_own_key(seed, base_key):
    # _draw takes (E, B, G) readouts and draws evaluation e on the stream
    # of its ordinal, as the tuple-keyed reference does one at a time
    config = TrainConfig(arch="conv", seed=seed, eval_mode="sampled", shots=1000)
    obj = TrainingObjective(config, np.zeros((1, 4), dtype=np.uint8), np.zeros(1), base_key=base_key)
    probs = np.random.default_rng(5).uniform(-1e-12, 1.0 + 1e-12, (4, 3, 2))
    ordinals = [0, 7, 2**32, 2**64 + 3]
    want = np.stack([_reference_draw(obj, p, o, 2) for p, o in zip(probs, ordinals)])
    np.testing.assert_array_equal(obj._draw(probs, ordinals, 2), want)


def test_stream_keys_seed_as_their_int_tuples():
    # _derived_rng seeds from the key's uint32 words; numpy's SeedSequence
    # of the int tuple gives the same pool and state at every key position,
    # across the 32- and 64-bit word boundaries
    values = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100 + 3)
    for pos in range(5):
        for value in values:
            key = [3, 303, 2, 17, 1]
            key[pos] = value
            ours = _derived_rng(*key).bit_generator.seed_seq
            ref = np.random.SeedSequence(tuple(key))
            np.testing.assert_array_equal(ours.pool, ref.pool, err_msg=str(key))
            np.testing.assert_array_equal(ours.generate_state(4, np.uint64), ref.generate_state(4, np.uint64))
    np.testing.assert_array_equal(_derived_rng(*values).integers(0, 2**63, 8),
                                  np.random.default_rng(values).integers(0, 2**63, 8))


@pytest.mark.parametrize("key", [(-1,), (0, 303, -1), (2**64, -(2**40))])
def test_a_negative_stream_key_is_refused(key):
    with pytest.raises(ValueError, match="non-negative"):
        _derived_rng(*key)


@pytest.mark.parametrize("bad", [-1, True, 2.5, "3", None])
def test_base_key_refusals_start_with_its_name(bad):
    config = TrainConfig(arch="conv", eval_mode="sampled")
    with pytest.raises(ValueError, match=r"^base_key must be a non-negative integer"):
        TrainingObjective(config, np.zeros((1, 4), dtype=np.uint8), np.zeros(1), base_key=bad)


def test_setting_refusals_start_with_the_field_name():
    # the command line puts the value's flag, config key or QCNN_SEED in
    # place of this first word
    for field in TrainConfig.__dataclass_fields__:
        for bad in ("bogus", -1, None, True, float("inf")):
            with pytest.raises(ValueError) as info:
                TrainConfig(**{"arch": "conv", field: bad})
            assert str(info.value).split()[0] == field, (field, bad, info.value)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(arch="conv", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(arch="conv", batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(arch="conv", learning_rate=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(arch="conv", shots=0)
    with pytest.raises(ValueError):
        TrainConfig(arch="conv", init_scheme="ones")
    with pytest.raises(ValueError):
        TrainConfig(arch="conv", grad_method="newton")
    with pytest.raises(ValueError):
        TrainConfig(arch="dense")
    for field, bad in (
        ("epochs", 2.5), ("epochs", True), ("shots", "1000"), ("seed", -1),
        ("learning_rate", "1e-7"), ("learning_rate", True), ("learning_rate", None),
        ("arch", 5), ("arch", None),
    ):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{"arch": "conv", field: bad})
    assert TrainConfig(arch="conv", learning_rate=1).learning_rate == 1
    assert TrainConfig(arch="conv", epochs=np.int64(3)).epochs == 3
    # the decision threshold belongs to evaluate(), which checks it first
    samples = gen_dataset(2, 2, seed=0)
    params = ModelParams((np.zeros(4),))
    for bad in (1.0, 0.0, float("nan"), "0.5", False):
        with pytest.raises(ValueError, match="threshold"):
            evaluate(params, samples, TrainConfig(arch="conv"), threshold=bad)
    # every activated readout is at least activate(0) > 0.25, so all predict 1
    acc = evaluate(params, samples, TrainConfig(arch="conv"), threshold=np.float64(0.25))[1]
    assert acc == np.mean([s.label for s in samples])
    config = TrainConfig(
        arch="conv-pool-pool",
        grad_method="combined",
        measure_mode="intermediate",
        update_strategy="layer-wise",
        eval_mode="sampled",
    )
    assert config.arch is Architecture.CONV_POOL_POOL
    assert config.grad_method is GradMethod.COMBINED
    assert config.measure_mode is MeasureMode.INTERMEDIATE
    assert config.update_strategy is UpdateStrategy.LAYER_WISE
    assert config.eval_mode is EvalMode.SAMPLED


def test_objective_validates_rows():
    config = TrainConfig(arch="conv")
    with pytest.raises(ValueError, match=r"^pixel_rows must hold 4 pixels per row for conv, got shape \(2, 9\)$"):
        TrainingObjective(config, np.zeros((2, 9)), np.zeros(2))
    with pytest.raises(ValueError, match=r"^labels must hold one label per pixel row, got shape \(3,\)$"):
        TrainingObjective(config, np.zeros((2, 4)), np.zeros(3))


@pytest.mark.parametrize("measure_mode", ["end-to-end", "intermediate"])
@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_objective_reads_uint8_rows_as_their_float64_copies(arch, measure_mode):
    # training hands the objective a Dataset's own uint8 rows; readouts and
    # the jacobian equal, bit for bit, those of the same rows as float64
    config = TrainConfig(arch=arch, seed=28, measure_mode=measure_mode)
    data = gen_dataset(6, config.arch.image_side, seed=68)
    params = ModelParams.from_vector(config.arch, np.random.default_rng(28).uniform(-0.6, 0.6, config.arch.n_params))
    small, wide = (TrainingObjective(config, rows, data.labels) for rows in (data.pixels, data.pixels.astype(float)))
    assert data.pixels.dtype == np.uint8
    assert small.p1(params).tobytes() == wide.p1(params).tobytes()
    assert small.jacobian(params).tobytes() == wide.jacobian(params).tobytes()


def test_train_is_deterministic():
    config = TrainConfig(arch="conv", epochs=3, batch_size=30, seed=21)
    p1, c1 = train(config)
    p2, c2 = train(TrainConfig(arch="conv", epochs=3, batch_size=30, seed=21))
    np.testing.assert_array_equal(p1.vector(), p2.vector())
    assert c1.mses == c2.mses
    p3, _ = train(TrainConfig(arch="conv", epochs=3, batch_size=30, seed=22))
    assert not np.array_equal(p1.vector(), p3.vector())


def test_train_curve_accounting():
    config = TrainConfig(arch="conv", epochs=3, batch_size=20, seed=23)
    lines = []
    params, curve = train(config, log_fn=lines.append)
    assert curve.epochs == [1, 2, 3]
    assert all(0.0 <= m <= 1.0 for m in curve.mses)
    assert curve.final_mse == curve.mses[-1]
    # per epoch: one forward pass plus 4 angles x 1 occurrence x 2 points
    assert curve.evals == [20 * 9] * 3
    assert curve.total_evals == 540
    assert len(lines) == 3 and lines[0].startswith("epoch=1 mse=")
    assert len(params.layers) == 1


def test_train_uses_fixed_dataset_when_given():
    dataset = gen_dataset(30, 2, seed=31)
    config = TrainConfig(arch="conv", epochs=2, batch_size=20, seed=31)
    p1, c1 = train(config, dataset=dataset)
    p2, c2 = train(config, dataset=dataset)
    np.testing.assert_array_equal(p1.vector(), p2.vector())
    assert c1.mses == c2.mses
    # a fresh stream without the dataset differs
    _, c3 = train(config)
    assert c1.mses != c3.mses


def test_train_fresh_batches_differ_across_epochs():
    config = TrainConfig(arch="conv", epochs=2, batch_size=10, seed=32)
    (m1, _), (m2, _) = batches_seen(config)[0]
    assert not np.array_equal(m1, m2)
    fixed = gen_dataset(15, 2, seed=1)
    for pixels, labels in batches_seen(config, fixed)[0]:
        np.testing.assert_array_equal(pixels, np.stack([s.pixels for s in fixed[:10]]))
        np.testing.assert_array_equal(labels, [s.label for s in fixed[:10]])


def test_train_refuses_dataset_shorter_than_batch():
    # a fixed dataset supplies the first batch_size rows every epoch, so a
    # shorter one is refused before epoch 1 rather than trained on silently
    config = TrainConfig(arch="conv", epochs=1, batch_size=6)
    short = gen_dataset(5, 2, seed=1)
    for fn in (train, classical_train):
        with pytest.raises(ValueError, match="5 rows, fewer than the batch size 6"):
            fn(config, dataset=short)
    train(config, dataset=gen_dataset(6, 2, seed=1))


@pytest.mark.parametrize("arch", ["conv", "conv-pool-pool", "conv-pool-conv-pool"])
def test_train_updates_the_slots_of_the_plan(monkeypatch, arch):
    # train takes its layers from the architecture, not the composed plan:
    # simultaneous updates move every slot of the plan at once, layer-wise
    # updates each conv layer's four slots in turn
    import qcnn.training

    seen = []
    direction = qcnn.training.update_direction
    monkeypatch.setattr(qcnn.training, "update_direction",
                        lambda obj, params, p1s, layer=None: seen.append(layer) or direction(obj, params, p1s, layer))
    want = list(param_slots(build_plan(Architecture(arch))[0]))
    assert want == [(layer, j) for layer in range(len(want) // 4) for j in range(4)]
    train(TrainConfig(arch=arch, epochs=1, batch_size=2))
    assert seen == [None]
    seen.clear()
    train(TrainConfig(arch=arch, epochs=1, batch_size=2, update_strategy="layer-wise"))
    assert seen == list(range(len(want) // 4))


def test_train_layer_wise_strategy():
    config = TrainConfig(
        arch="conv-pool-conv-pool",
        epochs=2,
        batch_size=4,
        seed=33,
        update_strategy="layer-wise",
        learning_rate=1e-5,
    )
    params, curve = train(config)
    assert len(params.layers) == 2 and len(curve.mses) == 2
    assert all(np.isfinite(m) for m in curve.mses)


def test_train_sigmoid_method_moves_all_angles_together():
    config = TrainConfig(
        arch="conv", epochs=1, batch_size=25, seed=34, grad_method="sigmoid",
        learning_rate=1e-4,
    )
    start_seed_params, _ = train(
        TrainConfig(arch="conv", epochs=1, batch_size=25, seed=34,
                    grad_method="sigmoid", learning_rate=0.0)
    )
    moved, _ = train(config)
    delta = moved.vector() - start_seed_params.vector()
    # one shared scalar lands on every angle
    assert np.ptp(delta) < 1e-15 and abs(delta[0]) > 0


def test_evaluate_outputs():
    config = TrainConfig(arch="conv", seed=35)
    samples = gen_dataset(40, 2, seed=35)
    m, acc = evaluate(ModelParams((np.full(4, 2.5),)), samples, config)
    assert 0.0 <= m <= 1.0 and 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        evaluate(ModelParams((np.zeros(4),)), [], config)


def test_train_refuses_initial_params_of_another_architecture():
    # too few angles for the deep network, too many for the single window
    cases = (("conv-pool-conv-pool", 4, "conv-pool-conv-pool takes 8 angles, got 4"),
             ("conv", 8, "conv takes 4 angles, got 8"))
    for arch, n, message in cases:
        config = TrainConfig(arch=arch, epochs=1, batch_size=3)
        with pytest.raises(ValueError, match=message):
            train(config, initial=ModelParams.from_flat(np.full(n, 0.3)))


def test_objective_refuses_params_of_another_architecture():
    obj, _ = _objective("conv", n=3)
    params = ModelParams.from_flat(np.full(8, 0.3))
    for call in (obj.p1, obj.jacobian):
        with pytest.raises(ValueError, match="conv takes 4 angles, got 8"):
            call(params)
    assert obj.evals == 0


def test_evaluate_refuses_params_of_another_architecture():
    # eight angles are not scored with the first four
    samples = gen_dataset(5, 2, seed=37)
    with pytest.raises(ValueError, match="conv takes 4 angles, got 8"):
        evaluate(ModelParams.from_flat(np.full(8, 0.3)), samples, TrainConfig(arch="conv"))


def test_evaluate_scores_exact_readouts_whatever_the_eval_mode():
    # a config that samples its readouts still scores exact ones, with any
    # seed and shot count, in both measure modes
    samples = gen_dataset(50, 4, seed=36)
    params = ModelParams((np.array([0.3, 1.1, 2.0, 0.7]),))
    for mode in ("end-to-end", "intermediate"):
        exact = evaluate(params, samples, TrainConfig(arch="conv-pool-pool", measure_mode=mode))
        for seed in (0, 9):
            config = TrainConfig(arch="conv-pool-pool", measure_mode=mode, eval_mode="sampled", shots=3, seed=seed)
            assert evaluate(params, samples, config) == exact


def test_save_curve_format(tmp_path):
    curve = LossCurve()
    curve.record(1, 0.25, 100)
    curve.record(2, 1 / 3, 100)
    path = tmp_path / "curve.csv"
    save_curve(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mse"
    assert lines[1] == "1,0.25"
    assert lines[2] == f"2,{1 / 3:.17g}"


def test_update_paths_match_recorded_runs():
    # recorded final angles and loss curves of seeded runs: every rule x
    # strategy x eval mode on the 2x2 lattice and on the 4x4 lattice measured
    # after each layer, both with fresh batches, and the layer-wise and
    # sampled paths of the 8x8 lattice on fixed dim images, whose readouts
    # stay clear of 1/2 so the updates are not vanishing
    doc = json.loads((Path(__file__).parent / "data" / "update_paths.json").read_text())
    dim8 = [LabeledImage(8, np.array(p), y) for p, y in zip(doc["dim8"]["pixels"], doc["dim8"]["labels"])]
    for run in doc["runs"]:
        keys = ("arch", "measure_mode", "grad_method", "update_strategy", "eval_mode")
        cfg = TrainConfig(
            **{k: run[k] for k in keys}, epochs=run["epochs"], batch_size=run["batch_size"],
            learning_rate=run["learning_rate"], seed=run["seed"],
        )
        initial = ModelParams.from_flat(run["initial"])
        params, curve = train(cfg, dataset=dim8 if run["fixed_data"] else None, initial=initial)
        what = " ".join(run[k] for k in keys)
        np.testing.assert_allclose(params.vector(), run["params"], rtol=0, atol=1e-12, err_msg=what)
        np.testing.assert_allclose(curve.mses, run["mses"], rtol=0, atol=1e-12, err_msg=what)
