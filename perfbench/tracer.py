"""Spans around calls into the qcnn modules, installed from outside.

`Tracer.install()` replaces module attributes with timing wrappers, also
where another module imported the name (`qcnn.runner.apply_to_density` is
the binding the runner calls, not `qcnn._contract.apply_to_density`), and
`uninstall()` puts the originals back.  Spans stay in memory as tuples
(name, parent index, start, end, work) and are written out once at the end.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def _batch_gates(args, kwargs, out):
    plan = args[0]
    data = args[1] if len(args) > 1 else kwargs.get("data")
    rows = data.shape[0] if getattr(data, "ndim", 0) == 2 else (kwargs.get("batch_size") or 1)
    return (len(plan.gates), rows * len(plan.gates))


def _bytes_touched(args, kwargs, out):
    """Bytes read and written, computed from array sizes (cache misses and
    einsum temporaries are not seen)."""
    total = args[0].nbytes + getattr(out, "nbytes", 0)
    if len(args) > 1 and hasattr(args[1], "nbytes"):
        total += args[1].nbytes
    return total


# (span name, function, modules whose attribute is rebound, work counter)
TARGETS = (
    ("dataset.gen_dataset", "qcnn.dataset:gen_dataset", ("qcnn.training", "qcnn.cli"), None),
    ("dataset.load_dataset", "qcnn.dataset:load_dataset", ("qcnn.cli",), None),
    ("training.p1", "qcnn.training:TrainingObjective.p1", (), None),
    ("training.jacobian", "qcnn.training:TrainingObjective.jacobian", (), None),
    ("runner.run_plan_batch", "qcnn.runner:run_plan_batch", ("qcnn.training", "qcnn.network"), _batch_gates),
    ("contract.apply_to_density", "qcnn._contract:apply_to_density", ("qcnn.runner",), _bytes_touched),
    ("contract.trace_out", "qcnn._contract:trace_out", ("qcnn.runner",), _bytes_touched),
    ("contract.density_prob_one", "qcnn._contract:density_prob_one", ("qcnn.runner",), _bytes_touched),
    ("gates.gate_matrix", "qcnn.gates:gate_matrix", ("qcnn.runner",), None),
    ("encoding.prob_to_angle", "qcnn.encoding:prob_to_angle", ("qcnn.training",), None),
    ("baseline.classical_forward", "qcnn.baseline:classical_forward", (), None),
    ("baseline.classical_update", "qcnn.baseline:classical_update", (), None),
    ("network.build_plan", "qcnn.network:build_plan", ("qcnn.training",), None),
    ("network.conv_feature_map", "qcnn.network:conv_feature_map", ("qcnn.cli",), None),
    ("pgm.read_pgm", "qcnn.pgm:read_pgm", ("qcnn.cli",), None),
    ("pgm.write_pgm", "qcnn.pgm:write_pgm", ("qcnn.cli",), None),
    ("cli.entry", "qcnn.cli:entry", (), None),
)


def _resolve(modules, spec):
    mod_name, attr = spec.split(":")
    owner = modules[mod_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, work(args, kwargs, out) if work and out is not None else None)

        return traced

    def install(self, modules) -> None:
        """Rebind every target in `modules` (a name -> module mapping)."""
        for name, spec, users, work in TARGETS:
            owner, leaf = _resolve(modules, spec)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original, work)
            for where in (owner,) + tuple(modules[u] for u in users):
                if getattr(where, leaf) is not original:
                    raise RuntimeError(f"{where.__name__}.{leaf} is not the expected function")
                self._saved.append((where, leaf, original))
                setattr(where, leaf, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            where, leaf, original = self._saved.pop()
            setattr(where, leaf, original)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name totals over spans lo..hi-1: calls, ms, self_ms, work."""
        child_time = defaultdict(float)
        for name, parent, t0, t1, _ in self.spans[lo:hi]:
            if parent >= lo:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": [0, 0], "nested_ms": 0.0})
        for idx in range(lo, hi):
            name, parent, t0, t1, work = self.spans[idx]
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += (t1 - t0) * 1e3
            agg["self_ms"] += (t1 - t0 - child_time[idx]) * 1e3
            if parent >= lo and self.spans[parent][0] == "training.jacobian":
                agg["nested_ms"] += (t1 - t0) * 1e3
            if isinstance(work, tuple):
                agg["work"][0] += work[0]
                agg["work"][1] += work[1]
            elif work is not None:
                agg["work"][0] += work
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"names": names, "fields": ["name", "parent", "start_s", "end_s"]}) + "\n")
            base = self.spans[0][2] if self.spans else 0.0
            for name, parent, t0, t1, _ in self.spans:
                fh.write(f"{code[name]},{parent},{t0 - base:.9f},{t1 - base:.9f}\n")
