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
no readout reads x.  The compile admits one shape, the network's: RY
encodings of data, then one RX turn of a kernel angle on every wire or
none, then pair runs of controlled flips.  An encoding from |0> leaves a
wire at cos(t) (0, 1), a turn rotates (y, z) among themselves, and every
pair run scales the first wire's (y, z) by its partner's z.  So a
template's readout z is its value with every data wire left in |0> times
the product of cos(t) over its data slots.
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


_Y, _Z = np.array([[0, -1j], [1j, 0]]), np.diag([1.0 + 0j, -1.0])
# a pair run's Heisenberg rule: Y x I to Y x Z and Z x I to Z x Z
_PAIR_RULE = tuple((np.kron(p, np.eye(2)), np.kron(p, _Z)) for p in (_Y, _Z))


@functools.lru_cache(maxsize=None)
def template_steps(tpl: CircuitPlan) -> tuple:
    """A template as (turns, pairs): turns, a read-only array of each
    wire's kernel angle index (empty when no wire turns), and pairs, the
    (first, second) wires of each pair run in order.  A template runs RY
    encodings of data, at most one per wire, then RX turns of kernel
    angles, one on every wire or none, then pair runs: each ends where its
    second wire retires, and the product of its gate matrices takes Y x I
    to Y x Z and Z x I to Z x Z, until every wire but the readout has
    retired into one.  Any other template raises ValueError."""
    encoded, turns, pairs, run, stage = {}, {}, [], [], 0  # wire -> angle index of its encoding and of its turn
    for i, gate in enumerate(tpl.gates):
        at = {GateKind.RY: 0, GateKind.RX: 1}.get(gate.kind, 2)  # encoding, turn, pair run
        misread = at < 2 and gate.angle.source is not (AngleSource.DATA, AngleSource.PARAM)[at]
        if misread or at < stage or gate.wires[0] in (encoded, turns, ())[at] or run and run[0].wires != gate.wires:
            raise ValueError(f"template gate {i}, {gate.kind.value} on wires {gate.wires}, does not fit the template "
                             "shape: RY encodings of data, then one RX turn of a kernel angle per wire, then pair runs")
        stage = at
        if at < 2:
            (encoded, turns)[at][gate.wires[0]] = gate.angle.index
            continue
        run.append(gate)
        if gate.wires[1] in tpl.retire_schedule[i]:
            u = functools.reduce(np.matmul, [gate_matrix(g) for g in reversed(run)])
            if not all(np.array_equal(np.conj(u.T) @ p @ u, q) for p, q in _PAIR_RULE):
                raise ValueError(f"pair run on wires {gate.wires} does not take Y x I to Y x Z and Z x I to Z x Z")
            pairs.append(gate.wires)
            run = []
    if turns and len(turns) != tpl.n_wires:
        raise ValueError(f"template turns {len(turns)} of its {tpl.n_wires} wires, not every wire or none")
    if run or sorted(b for _, b in pairs) != [w for w in range(tpl.n_wires) if w != tpl.readout_wire]:
        raise ValueError("template pair runs do not retire every wire but the readout into it")
    return _read_only(np.array([turns[w] for w in sorted(turns)], dtype=np.intp)), tuple(pairs)


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


def pair_channel(a, b) -> tuple:
    """A pair run on the (y, z) of wires a and b: the first wire's (y, z)
    scaled by the partner's z."""
    return a[0] * b[1], a[1] * b[1]


def run_template(tpl: CircuitPlan, kernel, inputs=None) -> tuple:
    """Readout-wire Bloch components (y, z) of a template at each row's
    kernel angles, an array (..., n) with n the template's kernel angles (0
    for a pool) whose leading axes set the rows.  inputs, a (y, z) pair of
    (..., n_wires) arrays, holds the state of every wire; without it every
    wire starts in |0>, (0, 1), as an RY encoding of angle 0 leaves it.
    One rotate call turns all wires, then each pair run applies
    pair_channel once."""
    turns, pairs = template_steps(tpl)
    if inputs is None:
        shape = kernel.shape[:-1] + (tpl.n_wires,)
        inputs = np.zeros(shape), np.ones(shape)
    elif inputs[0].shape[-1] != tpl.n_wires:
        raise ValueError(f"inputs hold {inputs[0].shape[-1]} wires, the template has {tpl.n_wires}")
    y, z = rotate(inputs, kernel[..., turns]) if turns.size else inputs
    state = [(y[..., w], z[..., w]) for w in range(tpl.n_wires)]
    for a, b in pairs:
        state[a] = pair_channel(state[a], state[b])
    return state[tpl.readout_wire]


def readout_probs(z) -> np.ndarray:
    """P(1) of a wire whose Bloch vector has z component z: (1 - z) / 2."""
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)
