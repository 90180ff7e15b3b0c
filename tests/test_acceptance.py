"""Release gate: one test per acceptance criterion, each printing a single
summary line

    [N] <subject>: PASS/FAIL (<measured numbers>)

so a plain ``pytest -v`` run doubles as the sign-off checklist.  The
assertions carry the same numbers that appear in the printed line.
"""
import time

import numpy as np
import pytest

from conftest import GATE_KINDS, loss_gradient, random_plan, random_state
from qcnn import (
    Angle,
    Architecture,
    GateKind,
    GateOp,
    ModelParams,
    PureState,
    TrainConfig,
    TrainingObjective,
    apply_gate,
    build_plan,
    classical_train,
    gen_dataset,
    run_plan,
    run_pure,
    train,
    write_pgm,
)
from qcnn.cli import EXIT_OK, entry
from qcnn.gates import gate_matrix
from qcnn.training import activate, mse, save_curve


def _report(capsys, num, subject, ok, detail):
    with capsys.disabled():
        print(f"\n[{num}] {subject}: {'PASS' if ok else 'FAIL'} ({detail})")


def _gate_matrix_of(kind, angle=None):
    wires = tuple(range(kind.n_wires))
    if kind.is_rotation:
        return gate_matrix(GateOp(kind, wires, Angle.const(angle)), angle)
    return gate_matrix(GateOp(kind, wires))


# --- 1: gate algebra ---------------------------------------------------------

def test_gate_set_is_unitary_and_norm_preserving(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    worst_unitary = 0.0
    for kind in GATE_KINDS:
        dim = 2 ** kind.n_wires
        if kind.is_rotation:
            mats = np.stack([
                _gate_matrix_of(kind, float(a))
                for a in rng.uniform(-2 * np.pi, 2 * np.pi, 400)
            ])
        else:
            mats = _gate_matrix_of(kind)[None, :, :]
        defect = mats @ mats.conj().transpose(0, 2, 1) - np.eye(dim)
        worst_unitary = max(worst_unitary, float(np.abs(defect).max()))

    worst_norm = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        kind = GATE_KINDS[rng.integers(0, len(GATE_KINDS))]
        if kind.n_wires > n:
            kind = GateKind.RX
        wires = tuple(int(w) for w in rng.choice(n, size=kind.n_wires, replace=False))
        angle = Angle.const(float(rng.uniform(-2 * np.pi, 2 * np.pi))) if kind.is_rotation else None
        state = PureState(n, random_state(rng, n))
        out = apply_gate(state, GateOp(kind, wires, angle))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(out.amplitudes)) - 1.0))

    wall = time.perf_counter() - t0
    ok = worst_unitary <= 1e-10 and worst_norm <= 1e-10 and wall < 5.0
    _report(capsys, 1, "gate unitarity and norm preservation", ok,
            f"unitarity defect {worst_unitary:.2e}, norm drift {worst_norm:.2e} "
            f"over 10000 applications, {wall:.1f}s")
    assert ok


# --- 2: engine equivalence ---------------------------------------------------

def test_frontier_engine_matches_dense_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    worst = 0.0
    for _ in range(1000):
        plan, data, params = random_plan(rng, max_wires=10)
        diff = abs(run_plan(plan, data, params) - run_pure(plan, data, params))
        worst = max(worst, diff)

    # the 16-wire two-pool lattice, dense evaluation included
    plan, _ = build_plan(Architecture.CONV_POOL_POOL)
    sample = gen_dataset(1, 4, seed=11)[0]
    data = np.pi * sample.pixels / 255.0
    params = ModelParams((rng.uniform(-np.pi, np.pi, 4),))
    deep = abs(run_plan(plan, data, params) - run_pure(plan, data, params))

    wall = time.perf_counter() - t0
    ok = worst <= 1e-9 and deep <= 1e-9 and wall < 60.0
    _report(capsys, 2, "batched engine vs dense state vector", ok,
            f"max diff {worst:.2e} over 1000 random plans, 16-wire lattice diff {deep:.2e}, {wall:.1f}s")
    assert ok


# --- 3: gradient validity ----------------------------------------------------

# Batches are built from extreme intensities (|cos| >= 0.997 per pixel) and
# angles stay within +-0.6 so products of up to 64 cosines remain far above
# the h=1e-4 central-difference roundoff floor; wider draws would sink the
# finite difference itself into subtraction noise and test nothing.
_GRAD_BATCH = {"conv": 16, "conv-pool-pool": 12, "conv-pool-conv-pool": 8}


def _loss_of(obj, params):
    return mse(activate(obj.p1(params)), obj.labels)


def _fd_gradient(obj, arch, vec, h=1e-4):
    g = np.zeros(vec.size)
    for i in range(vec.size):
        up = vec.copy()
        dn = vec.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (_loss_of(obj, ModelParams.from_vector(arch, up))
                - _loss_of(obj, ModelParams.from_vector(arch, dn))) / (2 * h)
    return g


def test_shift_gradient_matches_finite_difference(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for arch in Architecture:
        rng = np.random.default_rng(777)
        k = arch.image_side ** 2
        n = _GRAD_BATCH[arch.value]
        extremes = np.concatenate([np.arange(0, 7), np.arange(249, 256)])
        rows = rng.choice(extremes, size=(n, k)).astype(float)
        labels = (np.arange(n) % 2).astype(float)
        obj = TrainingObjective(TrainConfig(arch=arch), rows, labels)
        for _ in range(50):
            vec = rng.uniform(-0.6, 0.6, arch.n_params)
            params = ModelParams.from_vector(arch, vec)
            got = loss_gradient(obj, params)
            want = _fd_gradient(obj, arch, vec)
            rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            worst = max(worst, rel)

    wall = time.perf_counter() - t0
    ok = worst <= 1e-5 and wall < 300.0
    _report(capsys, 3, "two-point gradient vs central differences", ok,
            f"worst relative error {worst:.2e} over 3 architectures x 50 draws, {wall:.0f}s")
    assert ok


# --- 4 and 5 share the four seeded headline runs -----------------------------

@pytest.fixture(scope="module")
def headline_runs():
    quantum, classical = [], []
    t0 = time.perf_counter()
    for seed in range(4):
        _, curve = train(TrainConfig(arch="conv", seed=seed))
        quantum.append(curve)
    quantum_wall = time.perf_counter() - t0
    for seed in range(4):
        _, curve = classical_train(TrainConfig(arch="conv", seed=seed))
        classical.append(curve)
    return quantum, classical, quantum_wall


def test_headline_accuracy_bands(headline_runs, capsys):
    quantum, classical, quantum_wall = headline_runs
    q_final = [c.mses[-1] for c in quantum]
    c_final = [c.mses[-1] for c in classical]
    q_hits = sum(0.231 - 0.02 <= v <= 0.231 + 0.02 for v in q_final)
    c_hits = sum(0.255 - 0.03 <= v <= 0.255 + 0.03 for v in c_final)
    ok = q_hits >= 3 and c_hits >= 3 and quantum_wall < 600.0
    _report(capsys, 4, "headline 2x2 training accuracy", ok,
            f"window finals {q_hits}/4 in 0.231+-0.02 {np.round(q_final, 4).tolist()}, "
            f"single-neuron finals {c_hits}/4 in 0.255+-0.03 {np.round(c_final, 4).tolist()}, "
            f"{quantum_wall:.0f}s for 4 runs")
    assert ok


def test_curve_settling_and_lr_sensitivity(headline_runs, capsys):
    quantum, _, _ = headline_runs
    settled = sum(c.mses[-1] < c.mses[0] for c in quantum)

    wins = 0
    pairs = []
    for seed in range(4):
        spread = {}
        for lr in (1e-6, 1e-8):
            cfg = TrainConfig(arch="conv", grad_method="sigmoid", learning_rate=lr, seed=seed)
            _, curve = train(cfg)
            spread[lr] = max(curve.mses) - min(curve.mses)
        wins += spread[1e-6] > spread[1e-8]
        pairs.append(f"{spread[1e-6]:.1e}>{spread[1e-8]:.1e}")

    ok = settled >= 3 and wins >= 3
    _report(capsys, 5, "curve settling and step-size sensitivity", ok,
            f"final<first on {settled}/4 seeds; scalar-rule spread larger at lr 1e-6 "
            f"on {wins}/4 seeds [{', '.join(pairs)}]")
    assert ok


# --- 6: deep lattice completes ------------------------------------------------

def test_deep_lattice_completes_under_both_update_strategies(tmp_path, capsys):
    ok = True
    details = []
    for strategy in ("simultaneous", "layer-wise"):
        cfg = TrainConfig(arch="conv-pool-conv-pool", epochs=20, batch_size=100,
                          update_strategy=strategy, seed=0)
        t0 = time.perf_counter()
        _, curve = train(cfg)
        wall = time.perf_counter() - t0
        out = tmp_path / f"deep_{strategy}.csv"
        save_curve(curve, out)
        emitted = len(out.read_text().splitlines()) == 21
        good = (curve.epochs == list(range(1, 21))
                and bool(np.all(np.isfinite(curve.mses)))
                and emitted and wall < 1800.0)
        ok = ok and good
        details.append(f"{strategy} {wall:.0f}s")
    _report(capsys, 6, "8x8 lattice, 20 epochs, both update strategies", ok,
            ", ".join(details) + " (budget 1800s each)")
    assert ok


# --- 7: measurement-placement experiment --------------------------------------

def test_intermediate_measurement_experiment(tmp_path, capsys):
    ok = True
    details = []
    for mode in ("end-to-end", "intermediate"):
        cfg = TrainConfig(arch="conv-pool-pool", epochs=50, batch_size=200,
                          measure_mode=mode, seed=0)
        t0 = time.perf_counter()
        _, curve = train(cfg)
        wall = time.perf_counter() - t0
        out = tmp_path / f"cpp_{mode}.csv"
        save_curve(curve, out)
        good = (len(curve.mses) == 50 and bool(np.all(np.isfinite(curve.mses)))
                and len(out.read_text().splitlines()) == 51)
        ok = ok and good
        details.append(f"{mode} {wall:.0f}s")

    # with a single window layer the cut sits after the only measurement,
    # so both modes must read out identically
    samples = gen_dataset(64, 2, seed=5)
    rows = np.stack([s.pixels for s in samples]).astype(float)
    labels = np.array([s.label for s in samples], dtype=float)
    params = ModelParams((np.random.default_rng(6).uniform(-np.pi, np.pi, 4),))
    p_end = TrainingObjective(TrainConfig(arch="conv"), rows, labels).p1(params)
    p_mid = TrainingObjective(TrainConfig(arch="conv", measure_mode="intermediate"),
                              rows, labels).p1(params)
    mode_diff = float(np.abs(p_end - p_mid).max())
    ok = ok and mode_diff <= 1e-9

    _report(capsys, 7, "mid-circuit readout experiment", ok,
            ", ".join(details) + f"; single-layer mode agreement {mode_diff:.2e}")
    assert ok


# --- 8: byte-level reproducibility ---------------------------------------------

def test_commands_repeat_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QCNN_SEED", raising=False)

    def gen_run(tag):
        out = tmp_path / f"{tag}.csv"
        assert entry(["gen", "--side", "4", "--count", "30", "--seed", "3",
                      "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    def train_run(tag):
        p = tmp_path / f"{tag}_params.txt"
        c = tmp_path / f"{tag}_curve.csv"
        assert entry(["train", "--arch", "conv", "--epochs", "3", "--batch", "8",
                      "--seed", "3", "--params-out", str(p), "--curve-out", str(c)]) == EXIT_OK
        return p.read_bytes(), c.read_bytes()

    def featmap_run(tag):
        src = tmp_path / "fm_in.pgm"
        write_pgm(src, np.arange(16).reshape(4, 4) * 17 % 256)
        kfile = tmp_path / "fm_k.txt"
        kfile.write_text("0.5\n1.0\n1.5\n2.0\n")
        out = tmp_path / f"{tag}.pgm"
        assert entry(["featmap", "--in", str(src), "--params", str(kfile),
                      "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    data_same = gen_run("g1") == gen_run("g2")
    (p1, c1), (p2, c2) = train_run("t1"), train_run("t2")
    feat_same = featmap_run("f1") == featmap_run("f2")
    ok = data_same and p1 == p2 and c1 == c2 and feat_same
    _report(capsys, 8, "repeat runs are byte identical", ok,
            f"dataset {data_same}, params {p1 == p2}, curve {c1 == c2}, feature map {feat_same}")
    assert ok
