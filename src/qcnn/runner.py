"""Batched evaluation of circuit plans over density matrices.

Each wire enters the state at its first gate and is traced out at its last,
so wide block-structured plans cost memory in the peak live width rather
than the total wire count.  Live wires that have never interacted are held
as separate factors, one small density matrix per independent group; wires
merge only when a two-wire gate spans groups, which for the convolution
plans keeps every factor at kernel size.  A leading batch axis evaluates a
whole sample batch in single numpy calls.

Group templates also run as trees of two-input channels: in a template,
the gates on a wire pair end where its second wire retires, a (16, 4)
transfer from products of the pair's matrix entries to the first wire's,
computed once by walk_plan on wires seeded with matrix units.  Controlled
flips are Clifford, so a transfer only moves, signs and pairwise adds
products; with rotations as (U rho) U^dagger, a template gives the
walker's bits.  A readout is linear in each wire's state, so one backward
sweep gives its derivative with respect to all of them.
"""
from __future__ import annotations

import functools

import numpy as np

from ._contract import apply_to_density, density_prob_one, trace_out
from .gates import GateOp, gate_matrix
from .plans import CircuitPlan

DEFAULT_WIDTH_CAP = 12


class FrontierWidthError(RuntimeError):
    """Raised when a plan needs more simultaneously live wires than the cap."""

    def __init__(self, peak_width: int, cap: int):
        self.peak_width = peak_width
        self.cap = cap
        super().__init__(
            f"plan needs {peak_width} simultaneously live wires, exceeding the cap of {cap}"
        )


class _Factor:
    __slots__ = ("wires", "rho")

    def __init__(self, wires, rho):
        self.wires = wires  # list of logical wire ids, position = local MSB order
        self.rho = rho      # (B, d, d)


class FactorSim:
    """Batched frontier state held as a product of independent factors.
    Live width is the plan's business: walk_plan checks
    CircuitPlan.peak_active_width() against the cap before the walk."""

    def __init__(self, batch_size: int):
        self.batch = batch_size
        self._factors: list = []
        self._where: dict = {}  # wire -> factor

    def allocate(self, wire: int) -> None:
        self.seed(wire, np.broadcast_to(UNITS[0], (self.batch, 2, 2)))

    def seed(self, wire: int, rho) -> None:
        """Make a wire live in a given (B, 2, 2) state, its own factor."""
        if wire in self._where:
            raise ValueError(f"wire {wire} is already active")
        f = _Factor([wire], rho)
        self._factors.append(f)
        self._where[wire] = f

    def _merge(self, fa: _Factor, fb: _Factor) -> _Factor:
        da = fa.rho.shape[-1]
        db = fb.rho.shape[-1]
        rho = np.einsum("...ab,...cd->...acbd", fa.rho, fb.rho).reshape(
            self.batch, da * db, da * db
        )
        merged = _Factor(fa.wires + fb.wires, rho)
        self._factors.remove(fa)
        self._factors.remove(fb)
        self._factors.append(merged)
        for w in merged.wires:
            self._where[w] = merged
        return merged

    def apply(self, gate, angle=None) -> None:
        factors = []
        for w in gate.wires:
            f = self._where.get(w)
            if f is None:
                raise ValueError(f"wire {w} is not active")
            if f not in factors:
                factors.append(f)
        f = factors[0] if len(factors) == 1 else self._merge(*factors)
        pos = [f.wires.index(w) for w in gate.wires]
        mat = gate_matrix(gate, angle)
        f.rho = apply_to_density(f.rho, mat, pos, len(f.wires))

    def retire(self, wire: int) -> None:
        f = self._where.pop(wire)
        pos = f.wires.index(wire)
        if len(f.wires) == 1:
            self._factors.remove(f)
            return
        f.rho = trace_out(f.rho, pos, len(f.wires))
        f.wires.pop(pos)

    def prob_one(self, wire: int) -> np.ndarray:
        f = self._where.get(wire)
        if f is None:
            # a wire no gate ever touched is still |0>
            return np.zeros(self.batch)
        pos = f.wires.index(wire)
        return density_prob_one(f.rho, pos, len(f.wires))


def walk_plan(
    plan: CircuitPlan,
    batch: int,
    data=None,
    params=None,
    *,
    inputs: dict = None,
    shift: dict = None,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> FactorSim:
    """Apply the gates of a plan to a batch of `batch` rows and return the
    resulting state.  inputs maps wires to their (B, 2, 2) states before
    the first gate; every other wire enters in |0> at its first gate.
    Wires retire at their last gate, so only the readout wire stays live.
    shift maps gate positions to angle offsets.  A plan whose peak live
    width exceeds width_cap raises FrontierWidthError before any gate runs.
    """
    if plan.peak_active_width() > width_cap:
        raise FrontierWidthError(plan.peak_active_width(), width_cap)
    sim = FactorSim(batch)
    for w, rho in (inputs or {}).items():
        sim.seed(w, rho)
    for i, gate in enumerate(plan.gates):
        for w in gate.wires:
            if w not in sim._where:
                sim.allocate(w)
        angle = None
        if gate.angle is not None:
            angle = gate.angle.resolve(data, params)
            if shift and i in shift:
                angle = angle + shift[i]
        sim.apply(gate, angle)
        for w in plan.retire_schedule[i]:
            sim.retire(w)
    return sim


def run_plan_batch(
    plan: CircuitPlan,
    data=None,
    params=None,
    *,
    batch_size: int = None,
    shift: dict = None,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> np.ndarray:
    """Readout-wire probability of 1 for a batch of data rows at shared
    parameters, shape (B,): walk_plan over the whole plan.  data: (B,
    n_data_slots) angle matrix, or None for plans without data slots (then
    batch_size sets B, default 1).  shift maps gate positions to angle
    offsets, which displaces one rotation occurrence without touching the
    other occurrences of the same trainable angle."""
    if data is not None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape[1] < plan.n_data_slots:
            raise ValueError(
                f"plan reads {plan.n_data_slots} data slots, data rows have {data.shape[1]}"
            )
        b = data.shape[0]
    else:
        if plan.n_data_slots:
            raise ValueError("plan has data slots but no data was given")
        b = batch_size or 1
    sim = walk_plan(plan, b, data, params, shift=shift, width_cap=width_cap)
    return sim.prob_one(plan.readout_wire)


def run_plan(plan: CircuitPlan, data=None, params=None, **kw) -> float:
    """Readout probability of one sample: run_plan_batch on a batch of one.
    Equals the dense state-vector result for any plan."""
    return float(run_plan_batch(plan, data, params, batch_size=1, **kw)[0])


UNITS = np.eye(4, dtype=np.complex128).reshape(4, 2, 2)  # |a><b| at 2a + b; P(1) = Re <UNITS[3], rho>


@functools.lru_cache(maxsize=None)
def template_steps(tpl: CircuitPlan) -> tuple:
    """A template as steps (wires, op): op is a rotation gate, or the (16, 4)
    transfer of a wire pair (row 4m + n: input units m, n)."""
    steps, run = [], []
    for i, gate in enumerate(tpl.gates):
        if gate.kind.is_rotation:
            steps.append((gate.wires, gate))
            continue
        if run and run[0].wires != gate.wires:
            raise ValueError("template does not factor into two-input channels")
        run.append(gate)
        if gate.wires[1] in tpl.retire_schedule[i]:
            plan = CircuitPlan(2, tuple(GateOp(g.kind, (0, 1)) for g in run), 0)
            sim = walk_plan(plan, 16, inputs={0: np.repeat(UNITS, 4, axis=0), 1: np.tile(UNITS, (4, 1, 1))})
            steps.append((gate.wires, sim._where[0].rho.reshape(16, 4)))
            run = []
    return tuple(steps)


def _dot(a, b) -> np.ndarray:
    """Sum of a * b over the last axis, left to right, so that a row's bits
    do not depend on how many rows there are."""
    return sum((a[..., i] * b[..., i] for i in range(1, a.shape[-1])), a[..., 0] * b[..., 0])


def _mm(a, b) -> np.ndarray:
    """2x2 matrix products over leading axes, each entry a two-term sum."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def rotate(rho, u) -> np.ndarray:
    """u rho u^dagger as (u rho) u^dagger; rho None is |0><0|."""
    if rho is None:
        return u[..., :, :1] * np.conj(u[..., None, :, 0])
    return _mm(_mm(u, rho), np.conj(np.swapaxes(u, -1, -2)))


def pair_channel(t, a, b) -> np.ndarray:
    """Transfer t on density matrices a, b (..., 2, 2).  Each output entry
    adds at most two products a_i b_j, each times +-1 or +-i: no rounding
    but the one addition, and no BLAS buffers."""
    a, b = a.reshape(a.shape[:-2] + (4,)), b.reshape(b.shape[:-2] + (4,))
    rows = np.argsort(t == 0, axis=0, kind="stable")[:2]  # each column's nonzero rows first
    out = [sum(t[m, k] * (a[..., m // 4] * b[..., m % 4]) for m in rows[:, k]) for k in range(4)]
    return np.stack(out, axis=-1).reshape(out[0].shape + (2, 2))


def run_template(tpl: CircuitPlan, params, data=None, inputs=None, shift=None, tape=None) -> np.ndarray:
    """Readout-wire density matrices (..., 2, 2) of a template.  Wires start
    in |0> and data slots read `data` (..., n_data); or `inputs` (..., k, 2,
    2) holds the states of wires 0..k-1 in place of the data rotations.
    shift maps parameter angles to offsets that broadcast against the
    rows; `tape` collects what sweep_template() reads."""
    rho = {} if inputs is None else dict(enumerate(np.moveaxis(inputs, -3, 0)))
    for wires, op in template_steps(tpl):
        w = wires[0]
        if isinstance(op, np.ndarray):
            saved = (rho[w], rho.pop(wires[1]))
            rho[w] = pair_channel(op, *saved)
        elif op.angle.source == "data":
            if inputs is None:
                rho[w] = rotate(rho.get(w), gate_matrix(op, op.angle.resolve(data, params)))
            continue
        else:
            saved = (rho.get(w), gate_matrix(op, op.angle.resolve(data, params) + (shift or {}).get(op.angle, 0.0)))
            rho[w] = rotate(*saved)
        if tape is not None:
            tape.append((wires, op, saved))
    return rho[tpl.readout_wire]


def sweep_template(tpl: CircuitPlan, tape, g) -> tuple:
    """Backward pass that consumes the tape of run_template(tpl, ...), from
    g (..., 2, 2), the derivative Re <g, d rho> of a scalar at the readout
    wire.  Returns the rotations' {angle source: (input state, derivative
    there, gate)} and the inputs' {wire: derivative}."""
    grads, rots = {tpl.readout_wire: g}, {}
    while tape:  # consumed, so each step's states are freed once used
        wires, op, saved = tape.pop()
        w = wires[0]
        if isinstance(op, np.ndarray):
            a, b = (s.reshape(s.shape[:-2] + (4,)) for s in saved)
            gout, ga, gb = grads[w].reshape(a.shape), np.zeros(a.shape, np.complex128), np.zeros(b.shape, np.complex128)
            for n, k in zip(*np.nonzero(op)):  # input product a_i b_j, n = 4i + j, feeds output k
                ga[..., n // 4] += op[n, k] * gout[..., k] * b[..., n % 4]
                gb[..., n % 4] += op[n, k] * gout[..., k] * a[..., n // 4]
            grads[w], grads[wires[1]] = ga.reshape(saved[0].shape), gb.reshape(saved[1].shape)
        else:
            grads[w] = _mm(np.swapaxes(saved[1], -1, -2), _mm(grads[w], np.conj(saved[1])))
            rots[op.angle] = (saved[0], grads[w], op)
    return rots, grads


def moved(rot, delta) -> np.ndarray:
    """Change of the swept scalar when a rotation rot = (x, g, gate) of
    sweep_template() turns by delta (broadcast against x's rows) more:
    R(t + delta) = R(t) R(delta) makes it Re <g, R(delta) x R(delta)^+ - x>."""
    x, g, gate = rot
    d = rotate(x, gate_matrix(gate, delta)) - x
    return _dot(g.reshape(g.shape[:-2] + (4,)), d.reshape(d.shape[:-2] + (4,))).real


def readout_probs(rho) -> np.ndarray:
    return np.clip(rho[..., 1, 1].real, 0.0, 1.0)
