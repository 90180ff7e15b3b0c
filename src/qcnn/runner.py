"""Batched frontier evaluation over factored density matrices.

Each wire enters the state at its first gate and is traced out at its last,
so wide block-structured plans cost memory in the peak live width rather
than the total wire count.  Live wires that have never interacted are held
as separate factors, one small density matrix per independent group; wires
merge only when a two-wire gate spans groups, which for the convolution
plans keeps every factor at kernel size.  A leading batch axis evaluates a
whole sample batch in single numpy calls.  walk_plan can start after a
plan's first gates from given input states, which lets a caller compose a
tree of small group plans: a parent group's template runs on its
children's output states in place of its own encoding gates.
"""
from __future__ import annotations

import numpy as np

from ._contract import apply_to_density, density_prob_one, trace_out
from .gates import gate_matrix
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
        rho = np.zeros((self.batch, 2, 2), dtype=np.complex128)
        rho[:, 0, 0] = 1.0
        self.seed(wire, rho)

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

    def density(self, wire: int) -> np.ndarray:
        """(B, 2, 2) state of a live wire that shares its factor with no
        other wire."""
        f = self._where.get(wire)
        if f is None or len(f.wires) != 1:
            raise ValueError(f"wire {wire} is not a live wire of its own")
        return f.rho

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
    lo: int = 0,
    inputs: dict = None,
    shift: dict = None,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> FactorSim:
    """Apply the gates of a plan from position lo on (default: all of
    them) to a batch of `batch` rows and return the resulting state.

    inputs maps wires that are live when gate lo runs to their (B, 2, 2)
    states; every other wire enters in |0> at its first gate from lo on.
    Wires retire at their last gate, so only the readout wire stays live.
    shift maps gate positions to angle offsets.  A plan whose peak live
    width exceeds width_cap raises FrontierWidthError before any gate runs.
    """
    if plan.peak_active_width() > width_cap:
        raise FrontierWidthError(plan.peak_active_width(), width_cap)
    sim = FactorSim(batch)
    for w, rho in (inputs or {}).items():
        sim.seed(w, rho)
    for i in range(lo, len(plan.gates)):
        gate = plan.gates[i]
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
    parameters, shape (B,): walk_plan over the whole plan.

    data: (B, n_data_slots) angle matrix, or None for plans without data
    slots (then batch_size sets B, default 1).  shift maps gate positions to
    angle offsets, which is how one rotation occurrence is displaced without
    touching the other occurrences of the same trainable angle.  A plan
    whose peak live width exceeds width_cap raises FrontierWidthError
    before any gate runs.
    """
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
