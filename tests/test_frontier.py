"""Frontier-engine checks on the batched factored runner: equivalence with
the dense oracle on random plans, lazy allocation and retirement, physical
factors after every gate, and the width cap, which is checked against the
plan's peak live width before any gate runs."""
import numpy as np
import pytest

import qcnn.runner
from conftest import random_plan
from qcnn.gates import Angle, GateKind, GateOp
from qcnn.network import ModelParams
from qcnn.plans import CircuitPlan
from qcnn.runner import WIDTH_CAP, FactorSim, FrontierWidthError, run_plan, run_plan_batch
from qcnn.statevec import run_pure


def _all_live(n_wires):
    # every wire is rotated before the first pair gate, so all n_wires are
    # live at once; each pair gate then retires its control, so no factor
    # grows past two wires and a walk at the cap stays cheap
    gates = [GateOp(GateKind.RY, (w,), Angle.const(0.1 * (w + 1))) for w in range(n_wires)]
    gates += [GateOp(GateKind.CFLIP_X, (0, w)) for w in range(1, n_wires)]
    plan = CircuitPlan(n_wires, tuple(gates), 0)
    assert plan.peak_active_width() == n_wires
    return plan


def test_frontier_matches_pure_on_random_plans():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(150):
        plan, data, params = random_plan(rng, max_wires=8)
        a = run_plan(plan, data, params)
        b = run_pure(plan, data, params)
        worst = max(worst, abs(a - b))
    assert worst < 1e-10


def test_frontier_manual_walk():
    sim = FactorSim(batch_size=1)
    sim.allocate(5)
    sim.allocate(2)
    assert len(sim._where) == 2
    sim.apply(GateOp(GateKind.RY, (2,), Angle.const(1.3)), angle=1.3)
    sim.apply(GateOp(GateKind.CFLIP_X, (5, 2)))
    assert sim.prob_one(5)[0] == pytest.approx(np.sin(0.65) ** 2, abs=1e-14)
    sim.retire(2)
    assert len(sim._where) == 1 and sim._where[5].rho.shape == (1, 2, 2)
    # the traced-out control leaves the target marginal untouched
    assert sim.prob_one(5)[0] == pytest.approx(np.sin(0.65) ** 2, abs=1e-14)


def test_frontier_state_errors():
    sim = FactorSim(batch_size=1)
    sim.allocate(0)
    with pytest.raises(ValueError):
        sim.allocate(0)
    with pytest.raises(ValueError):
        sim.apply(GateOp(GateKind.RY, (3,), Angle.const(0.1)), angle=0.1)
    with pytest.raises(FrontierWidthError):
        run_plan(_all_live(WIDTH_CAP + 1))


def test_width_cap_enforced(monkeypatch):
    # two wires over the cap, refused before the first gate is realized; the
    # error reports the plan's peak, not the width at which a gate-by-gate
    # walk would first overflow (one over the cap)
    realized = []
    monkeypatch.setattr(qcnn.runner, "gate_matrix", lambda *a: realized.append(a))
    with pytest.raises(FrontierWidthError) as err:
        run_plan_batch(_all_live(WIDTH_CAP + 2), None, batch_size=2)
    assert err.value.peak_width == WIDTH_CAP + 2 and WIDTH_CAP == 12
    assert str(err.value) == "plan needs 14 simultaneously live wires, exceeding the cap of 12"
    assert realized == []


def test_frontier_run_untouched_readout_is_zero():
    plan = CircuitPlan(3, (GateOp(GateKind.RY, (1,), Angle.const(2.0)),), 0)
    assert run_plan(plan) == 0.0
    assert run_pure(plan) == 0.0


def test_frontier_run_allocates_lazily():
    # more declared wires than the cap, but only two are ever live at once,
    # so the walk fits under it
    n = WIDTH_CAP + 8
    gates = tuple(GateOp(GateKind.CFLIP_X, (w, w + 1)) for w in range(n - 1))
    plan = CircuitPlan(n, gates, n - 1)
    assert plan.peak_active_width() == 2
    assert run_plan(plan) == 0.0


def test_frontier_run_width_cap_overflow():
    # one wire over the cap is refused; exactly at the cap runs
    with pytest.raises(FrontierWidthError) as err:
        run_plan(_all_live(WIDTH_CAP + 1))
    assert err.value.peak_width == WIDTH_CAP + 1
    plan = _all_live(WIDTH_CAP)
    assert run_plan(plan) == pytest.approx(run_pure(plan), abs=1e-12)


def _assert_physical(rho, where):
    # trace, hermiticity and positivity drift only through fp error
    tr = np.trace(rho, axis1=-2, axis2=-1)
    assert np.max(np.abs(tr - 1.0)) <= 1e-9, f"trace drifted to {tr} {where}"
    assert np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))) <= 1e-9, f"lost hermiticity {where}"
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= -1e-8, f"eigenvalue {eigs.min()} {where}"


def test_factor_sim_factors_stay_physical():
    # walk FactorSim gate by gate over seeded plans, with a batch of data
    # rows, and check every live factor once each gate has been applied and
    # the wires it was last to touch retired
    rng = np.random.default_rng(7)
    for k in range(40):
        plan, _, params = random_plan(rng, max_wires=6)
        rows = rng.uniform(0.0, np.pi, (3, plan.n_wires))
        sim = FactorSim(batch_size=3)
        for i, gate in enumerate(plan.gates):
            for w in gate.wires:
                if w not in sim._where:
                    sim.allocate(w)
            angle = gate.angle.resolve(rows, params) if gate.angle is not None else None
            sim.apply(gate, angle)
            for w in plan.retire_schedule[i]:
                sim.retire(w)
            for f in set(sim._where.values()):
                _assert_physical(f.rho, f"in plan {k} after gate {i}")
        want = [run_pure(plan, row, params) for row in rows]
        np.testing.assert_allclose(sim.prob_one(plan.readout_wire), want, atol=1e-12)


def test_retirement_preserves_readout():
    # retiring the partner after a pair gate must not change the kept
    # wire's marginal
    plan = CircuitPlan(
        2,
        (
            GateOp(GateKind.RY, (0,), Angle.const(0.6)),
            GateOp(GateKind.RY, (1,), Angle.const(1.9)),
            GateOp(GateKind.CFLIP_Y, (0, 1)),
        ),
        0,
    )
    assert plan.retire_schedule[2] == frozenset({1})
    assert run_plan(plan) == pytest.approx(run_pure(plan), abs=1e-14)


def test_run_plan_batch_matches_pure_rowwise():
    rng = np.random.default_rng(501)
    for _ in range(25):
        plan, _, params = random_plan(rng, max_wires=6)
        rows = rng.uniform(0.0, np.pi, (5, plan.n_wires))
        got = run_plan_batch(plan, rows, params)
        want = np.array([run_pure(plan, row, params) for row in rows])
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_run_plan_batch_shift_targets_one_occurrence():
    # two gates share one trainable angle; shifting gate 0 must leave gate 1
    # at the base angle
    theta, delta = 0.8, np.pi / 2
    shared = Angle.param(0, 0)
    plan = CircuitPlan(
        1,
        (GateOp(GateKind.RX, (0,), shared), GateOp(GateKind.RX, (0,), shared)),
        0,
    )
    params = ModelParams((np.array([theta, 0.0, 0.0, 0.0]),))
    shifted = run_plan_batch(plan, None, params, shift={0: delta})
    lit = CircuitPlan(
        1,
        (
            GateOp(GateKind.RX, (0,), Angle.const(theta + delta)),
            GateOp(GateKind.RX, (0,), Angle.const(theta)),
        ),
        0,
    )
    assert shifted[0] == pytest.approx(run_pure(lit), abs=1e-14)


def test_run_plan_batch_validation():
    plan = CircuitPlan(
        2,
        (
            GateOp(GateKind.RY, (0,), Angle.data(0)),
            GateOp(GateKind.CFLIP_X, (0, 1)),
        ),
        0,
    )
    with pytest.raises(ValueError):
        run_plan_batch(plan, None)  # data slots but no data
    with pytest.raises(ValueError):
        run_plan_batch(plan, np.zeros((3, 0)))  # rows too narrow


def test_run_plan_batch_rows_are_independent():
    # a row's readout does not depend on the rows beside it: any split of
    # the batch gives the readouts of the whole batch, displaced or not
    rng = np.random.default_rng(77)
    for _ in range(10):
        plan, _, params = random_plan(rng, max_wires=5)
        rows = rng.uniform(0.0, np.pi, (32, plan.n_wires))
        rotations = [g for g, op in enumerate(plan.gates) if op.kind.is_rotation]
        for shift in (None, {rotations[0]: np.pi / 2} if rotations else None):
            whole = run_plan_batch(plan, rows, params, shift=shift)
            parts = [run_plan_batch(plan, rows[a:b], params, shift=shift) for a, b in ((0, 1), (1, 13), (13, 32))]
            np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_run_plan_scalar_wrapper():
    plan = CircuitPlan(1, (GateOp(GateKind.RY, (0,), Angle.const(1.1)),), 0)
    assert run_plan(plan) == pytest.approx((1 - np.cos(1.1)) / 2, abs=1e-14)


def test_factor_sim_merge_and_retire():
    sim = FactorSim(batch_size=3)
    sim.allocate(0)
    sim.allocate(1)
    sim.allocate(2)
    assert len(sim._where) == 3 and len(set(sim._where.values())) == 3
    sim.apply(GateOp(GateKind.RY, (1,), Angle.const(2.0)), angle=2.0)
    sim.apply(GateOp(GateKind.CFLIP_X, (0, 1)))  # merges two factors
    assert len(set(sim._where.values())) == 2
    np.testing.assert_allclose(sim.prob_one(0), np.full(3, np.sin(1.0) ** 2), atol=1e-14)
    np.testing.assert_allclose(sim.prob_one(9), np.zeros(3))  # untouched wire
    sim.retire(1)
    assert len(sim._where) == 2
    np.testing.assert_allclose(sim.prob_one(0), np.full(3, np.sin(1.0) ** 2), atol=1e-14)
    with pytest.raises(ValueError):
        sim.allocate(0)


def test_factor_sim_batch_width_cap():
    with pytest.raises(FrontierWidthError) as err:
        run_plan_batch(_all_live(WIDTH_CAP + 1), None, batch_size=2)
    assert err.value.peak_width == WIDTH_CAP + 1
    plan = _all_live(WIDTH_CAP)
    np.testing.assert_allclose(run_plan_batch(plan, None, batch_size=2), [run_pure(plan)] * 2, atol=1e-12)
