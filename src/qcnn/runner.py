"""Batched evaluation of circuit plans over density matrices.

Each wire enters the state at its first gate and is traced out at its last,
so wide block-structured plans cost memory in the peak live width rather
than the total wire count.  Live wires that have never interacted are held
as separate factors, one small density matrix per independent group; wires
merge only when a two-wire gate spans groups, which for the convolution
plans keeps every factor at kernel size.  A leading batch axis evaluates a
whole sample batch in single numpy calls.

Group templates also run as trees of two-input channels on the Bloch
components (y, z) of each wire, whose state is (I + x X + y Y + z Z) / 2;
no readout reads x.  Only kernel angles enter: data rotations are RY
encodings from |0>, so a wire's (y, z) starts as cos(t) (0, 1), and every
other rotation is an RX of a kernel angle, which turns (y, z) among
themselves.  Turns on distinct wires commute, so each run of them is one
step that rotates the run's stacked (y, z) at once.  The controlled
flips on a wire pair are Clifford, and the compile admits a pair run only
when it builds each of the first wire's y and z as one signed product of
the y and z of both wires.  So a template's readout z is its value with
every data wire left in |0> times the product of cos(t) over its data
slots.
"""
from __future__ import annotations

import functools

import numpy as np

from ._contract import apply_to_density, density_prob_one, trace_out
from .gates import AngleSource, GateKind, gate_matrix
from .plans import CircuitPlan

# the most live wires run_plan_batch holds; the deepest architecture's plan peaks at 9
WIDTH_CAP = 12


class FrontierWidthError(RuntimeError):
    """Raised when a plan needs more simultaneously live wires than WIDTH_CAP."""

    def __init__(self, peak_width: int):
        self.peak_width = peak_width
        super().__init__(f"plan needs {peak_width} simultaneously live wires, exceeding the cap of {WIDTH_CAP}")


class _Factor:
    __slots__ = ("wires", "rho")

    def __init__(self, wires, rho):
        self.wires = wires  # list of logical wire ids, position = local MSB order
        self.rho = rho      # (B, d, d)


class FactorSim:
    """Batched frontier state held as a product of independent factors, the
    state run_plan_batch walks a plan on.  Live width is the plan's
    business: run_plan_batch checks CircuitPlan.peak_active_width() against
    WIDTH_CAP before the walk."""

    def __init__(self, batch_size: int):
        self.batch = batch_size
        self._where: dict = {}  # wire -> factor

    def allocate(self, wire: int) -> None:
        """Make a wire live in |0>, its own factor."""
        if wire in self._where:
            raise ValueError(f"wire {wire} is already active")
        self._where[wire] = _Factor([wire], np.broadcast_to(np.diag([1.0 + 0j, 0.0]), (self.batch, 2, 2)))

    def _merge(self, fa: _Factor, fb: _Factor) -> _Factor:
        da = fa.rho.shape[-1]
        db = fb.rho.shape[-1]
        rho = np.einsum("...ab,...cd->...acbd", fa.rho, fb.rho).reshape(
            self.batch, da * db, da * db
        )
        merged = _Factor(fa.wires + fb.wires, rho)
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
        if len(f.wires) > 1:
            f.rho = trace_out(f.rho, f.wires.index(wire), len(f.wires))
            f.wires.remove(wire)

    def prob_one(self, wire: int) -> np.ndarray:
        f = self._where.get(wire)
        if f is None:
            # a wire no gate ever touched is still |0>
            return np.zeros(self.batch)
        pos = f.wires.index(wire)
        return density_prob_one(f.rho, pos, len(f.wires))


def run_plan_batch(plan: CircuitPlan, data=None, params=None, *, batch_size: int = None,
                   shift: dict = None) -> np.ndarray:
    """Readout-wire probability of 1 for a batch of data rows at shared
    parameters, shape (B,).  data: (B, n_data_slots) angle matrix, or None
    for plans without data slots (then batch_size sets B, default 1).
    shift maps gate positions to angle offsets, which displaces one
    rotation occurrence without touching the other occurrences of the same
    trainable angle.  Each wire enters in |0> at its first gate and retires
    at its last, so only the readout wire stays live; a plan whose peak
    live width exceeds WIDTH_CAP raises FrontierWidthError before any gate
    runs."""
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
    if plan.peak_active_width() > WIDTH_CAP:
        raise FrontierWidthError(plan.peak_active_width())
    sim = FactorSim(b)
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
    return sim.prob_one(plan.readout_wire)


def run_plan(plan: CircuitPlan, data=None, params=None, shift: dict = None) -> float:
    """Readout probability of one sample: run_plan_batch on a batch of one.
    Equals the dense state-vector result for any plan."""
    return float(run_plan_batch(plan, data, params, batch_size=1, shift=shift)[0])


_YZ = np.array([[[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # Y, Z
_PRODUCTS = np.einsum("iab,jcd->ijacbd", _YZ, _YZ).reshape(2, 2, 4, 4)  # [i, j] = P_i x P_j


def _pair_table(u) -> tuple:
    """Rows (sign, i, j) of the first wire's y and z after a pair run u,
    with i, j in {0: y, 1: z}: u^dagger (P_k x I) u = sign P_i x P_j
    exactly, so on independent wires a, b component k is sign a_i b_j."""
    h = np.conj(u.T) @ np.kron(_YZ, np.eye(2)) @ u
    found = np.argwhere((h[:, None, None, None] == np.stack([_PRODUCTS, -_PRODUCTS])).all(axis=(-2, -1)))
    if list(found[:, 0]) != [0, 1]:  # rows (k, sign index, i, j)
        raise ValueError("pair run does not map each of Y and Z to one signed Pauli product of Y and Z on both wires")
    return tuple(((1, -1)[s], int(i), int(j)) for _, s, i, j in found)


@functools.lru_cache(maxsize=None)
def template_steps(tpl: CircuitPlan) -> tuple:
    """A template as steps (wires, op): op is a read-only array of the
    kernel indices of a run of RX turns on distinct wires, one per wire, or
    the table (_pair_table) of a wire pair's run, from the product of its
    gate matrices; data RY encodings are checked but make no step.  A
    template whose readout does not factor raises ValueError."""
    steps, run, touched = [], [], set()
    for i, gate in enumerate(tpl.gates):
        # a run is one step, taken at its last gate: no other pair and no turn of its own wires may fall inside it
        if run and run[0].wires != gate.wires and (len(gate.wires) == 2 or gate.wires[0] in run[0].wires):
            raise ValueError("template does not factor into two-input channels")
        if gate.kind.is_rotation:
            data = gate.angle.source is AngleSource.DATA
            want = (GateKind.RY, AngleSource.DATA) if data else (GateKind.RX, AngleSource.PARAM)
            if (gate.kind, gate.angle.source) != want or (data and gate.wires[0] in touched):
                raise ValueError("template rotations must be RY encodings of data and RX turns of kernel angles")
            touched.add(gate.wires[0])
            if data:
                continue
            # turns on distinct wires commute, so consecutive ones make one step
            if steps and isinstance(steps[-1][1], list) and gate.wires[0] not in steps[-1][0]:
                steps[-1][0].append(gate.wires[0])
                steps[-1][1].append(gate.angle.index)
            else:
                steps.append(([gate.wires[0]], [gate.angle.index]))
            continue
        touched.update(gate.wires)
        run.append(gate)
        if gate.wires[1] in tpl.retire_schedule[i]:
            steps.append((gate.wires, _pair_table(functools.reduce(np.matmul, [gate_matrix(g) for g in reversed(run)]))))
            run = []
    return tuple((wires, op) if isinstance(op, tuple) else (tuple(wires), _read_only(op)) for wires, op in steps)


def _read_only(a) -> np.ndarray:
    """a as an array that cannot be written, for tables every caller shares."""
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def rotate(v, theta) -> tuple:
    """Bloch components v = (y, z) turned by theta, as an RX gate turns them."""
    c, s = np.cos(theta), np.sin(theta)
    y, z = v
    return c * y - s * z, c * z + s * y


def pair_channel(table, a, b) -> tuple:
    """A pair run's table on the (y, z) of wires a and b, one product a row;
    a row of sign -1 negates its product, which rounds as the product of
    the negated factor would."""
    return tuple(a[i] * b[j] if sign > 0 else -(a[i] * b[j]) for sign, i, j in table)


def run_template(tpl: CircuitPlan, kernel, inputs=None) -> tuple:
    """Readout-wire Bloch components (y, z) of a template at each row's
    kernel angles, an array (..., n) with n the template's kernel angles (0
    for a pool) whose leading axes set the rows.  inputs, a (y, z) pair of
    (..., k) arrays, holds the states of wires 0..k-1; every other wire
    starts in |0>, (0, 1), as an RY encoding of angle 0 leaves it.  A run
    of turns rotates its wires' stacked (..., w) components in one call;
    on wires no step has touched, those are the inputs themselves or zeros
    and ones."""
    rows = kernel.shape[:-1]
    k = 0 if inputs is None else inputs[0].shape[-1]
    zero = (np.zeros(rows), np.ones(rows))
    state = {}  # (y, z) of each wire a step has written

    def wire(w):
        return state.pop(w) if w in state else (inputs[0][..., w], inputs[1][..., w]) if w < k else zero

    for wires, op in template_steps(tpl):
        if isinstance(op, tuple):
            state[wires[0]] = pair_channel(op, wire(wires[0]), wire(wires[1]))
            continue
        fresh = state.keys().isdisjoint(wires)
        if fresh and k and wires == tuple(range(k)):
            v = inputs
        elif fresh and min(wires) >= k:
            v = np.zeros(rows + (len(wires),)), np.ones(rows + (len(wires),))
        else:
            v = tuple(np.stack(c, axis=-1) for c in zip(*map(wire, wires)))
        y, z = rotate(v, kernel[..., op])
        state.update((w, (y[..., i], z[..., i])) for i, w in enumerate(wires))
    return wire(tpl.readout_wire)


def readout_probs(z) -> np.ndarray:
    """P(1) of a wire whose Bloch vector has z component z: (1 - z) / 2."""
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)
