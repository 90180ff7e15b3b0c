"""Circuit plans: ordered gate lists plus when each wire is last used, where
the batched engine traces it out and a template's pair channel ends."""
from __future__ import annotations

from dataclasses import dataclass, field

from .gates import AngleSource, GateOp


@dataclass(frozen=True)
class CircuitPlan:
    """An ordered gate list over n_wires wires with a single readout wire.

    retire_schedule[i] is the set of wires whose last gate is gates[i]; the
    readout wire is never scheduled for retirement, so it stays measurable
    after the final gate.  The peak live width under that schedule is
    computed once, here, and is what run_plan_batch checks against its
    width cap.
    """

    n_wires: int
    gates: tuple
    readout_wire: int
    retire_schedule: tuple = field(init=False, compare=False, repr=False)
    _peak_width: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if self.n_wires < 1:
            raise ValueError("plan needs at least one wire")
        if not 0 <= self.readout_wire < self.n_wires:
            raise ValueError(f"readout wire {self.readout_wire} out of range")
        for g in gates:
            if not isinstance(g, GateOp):
                raise ValueError(f"plan gates must be GateOp, got {type(g)!r}")
            for w in g.wires:
                if w >= self.n_wires:
                    raise ValueError(f"wire {w} out of range for {self.n_wires}-wire plan")

        last_use = {}
        for i, g in enumerate(gates):
            for w in g.wires:
                last_use[w] = i
        schedule = [frozenset() for _ in gates]
        for w, i in last_use.items():
            if w != self.readout_wire:
                schedule[i] = schedule[i] | {w}
        object.__setattr__(self, "retire_schedule", tuple(schedule))

        seen = set()
        active = peak = 0
        for g, retired in zip(gates, schedule):
            for w in g.wires:
                if w not in seen:
                    seen.add(w)
                    active += 1
            peak = max(peak, active)
            active -= len(retired)
        object.__setattr__(self, "_peak_width", peak)
        # the dataclass hash of the compared fields, taken once: template_steps looks plans up by it
        object.__setattr__(self, "_hash", hash((self.n_wires, gates, self.readout_wire)))

    def __hash__(self):
        return self._hash

    @property
    def n_data_slots(self) -> int:
        slots = [g.angle.index for g in self.gates if g.angle is not None and g.angle.source is AngleSource.DATA]
        return max(slots) + 1 if slots else 0

    def param_occurrences(self, layer: int, index: int) -> tuple:
        """Gate positions at which trainable angle (layer, index) appears."""
        return tuple(
            i
            for i, g in enumerate(self.gates)
            if g.angle is not None
            and g.angle.source is AngleSource.PARAM
            and g.angle.layer == layer
            and g.angle.index == index
        )

    def peak_active_width(self) -> int:
        """Largest number of simultaneously live wires when gates run in
        plan order with retirement at last use."""
        return self._peak_width
