"""Network architectures: convolution kernels over pixel wires, pooling by
controlled flips, and the plans that realize them.

Every convolution layer applies one shared 2x2 kernel: four trainable RX
angles (a00, a01, a10, a11 in window row-major order) followed by a fixed
entangler, after which the window's first wire carries the window summary.
Pooling merges summary pairs with a CFLIP_X and keeps the even-positioned
wire.  Plans emit gates window by window so the batched engine can retire
wires early; the readout always ends on wire 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._io import write_text_atomic
from .encoding import pixel_to_angle
from .gates import Angle, GateKind, GateOp
from .plans import CircuitPlan
from .runner import readout_probs, run_template
from .runner import run_plan_batch  # noqa: F401  (timed through this name by perfbench/tracer.py)


class Architecture(Enum):
    CONV = "conv"
    CONV_POOL_POOL = "conv-pool-pool"
    CONV_POOL_CONV_POOL = "conv-pool-conv-pool"

    @classmethod
    def from_string(cls, name: str) -> "Architecture":
        for arch in cls:
            if arch.value == name:
                return arch
        valid = ", ".join(a.value for a in cls)
        raise ValueError(f"unknown architecture {name!r}; choose one of: {valid}")

    @property
    def image_side(self) -> int:
        return {"conv": 2, "conv-pool-pool": 4, "conv-pool-conv-pool": 8}[self.value]

    @property
    def layer_kinds(self) -> tuple:
        return {"conv": ("conv",), "conv-pool-pool": ("conv", "pool", "pool"),
                "conv-pool-conv-pool": ("conv", "pool", "conv", "pool")}[self.value]

    @property
    def conv_layer_count(self) -> int:
        return self.layer_kinds.count("conv")

    @property
    def n_params(self) -> int:
        return 4 * self.conv_layer_count


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its kind, which input values each group consumes, and for
    convolutions the index of the trainable angle block it shares."""

    kind: str
    groups: tuple
    param_layer: int = None


@dataclass(frozen=True)
class PlanNode:
    """One group of the end-to-end plan.  gates[lo:hi] are the node's own
    gates; its children's subtrees come right before lo, so the node list
    is in post-order with the root last.  After gate hi - 1 every wire of
    the subtree except `wire` is retired: the node's output is the reduced
    state of that one wire."""

    layer: int
    lo: int
    hi: int
    children: tuple
    wire: int


def layer_structure(arch: Architecture) -> tuple:
    side = arch.image_side
    layers = []
    conv_ordinal = 0
    n_values = side * side
    for kind in arch.layer_kinds:
        if kind == "conv":
            if conv_ordinal == 0:
                # spatial 2x2 windows, stride 2, over the row-major pixel grid
                groups = []
                for wr in range(side // 2):
                    for wc in range(side // 2):
                        r, c = 2 * wr, 2 * wc
                        groups.append(
                            (r * side + c, r * side + c + 1, (r + 1) * side + c, (r + 1) * side + c + 1)
                        )
            else:
                if n_values % 4:
                    raise ValueError(f"cannot group {n_values} values into 2x2 kernels")
                groups = [tuple(range(i, i + 4)) for i in range(0, n_values, 4)]
            layers.append(LayerSpec("conv", tuple(groups), conv_ordinal))
            conv_ordinal += 1
        elif kind == "pool":
            if n_values % 2:
                raise ValueError(f"cannot pair {n_values} values for pooling")
            groups = [(i, i + 1) for i in range(0, n_values, 2)]
            layers.append(LayerSpec("pool", tuple(groups)))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        n_values = len(layers[-1].groups)
    if n_values != 1:
        raise ValueError(f"{arch.value} does not reduce to a single readout value")
    return tuple(layers)


def _emit_conv_block(gates, wires, param_layer):
    a, b, c, d = wires
    for k, w in enumerate(wires):
        gates.append(GateOp(GateKind.RX, (w,), Angle.param(param_layer, k)))
    for tgt, ctl in ((a, b), (c, d)):
        gates.append(GateOp(GateKind.CFLIP_Z, (tgt, ctl)))
        gates.append(GateOp(GateKind.CFLIP_Y, (tgt, ctl)))
    gates.append(GateOp(GateKind.CFLIP_Z, (a, c)))
    gates.append(GateOp(GateKind.CFLIP_Y, (a, c)))
    return a


_PLAN_CACHE = {}


def build_plan(arch: Architecture):
    """The end-to-end circuit plan of an architecture and its group nodes
    (PlanNode tuple, post-order).

    The plan is symbolic: pixel angles fill data slots (slot = wire = pixel
    index) and kernel angles fill parameter slots, both resolved at run
    time.
    """
    if arch in _PLAN_CACHE:
        return _PLAN_CACHE[arch]

    layers = layer_structure(arch)
    gates = []
    nodes = []

    def emit(level: int, group: int) -> int:
        spec = layers[level]
        idxs = spec.groups[group]
        if level == 0:
            children = ()
            wires = list(idxs)
            lo = len(gates)
            for w in wires:
                gates.append(GateOp(GateKind.RY, (w,), Angle.data(w)))
        else:
            children = tuple(emit(level - 1, i) for i in idxs)
            wires = [nodes[c].wire for c in children]
            lo = len(gates)
        if spec.kind == "conv":
            out = _emit_conv_block(gates, wires, spec.param_layer)
        else:
            tgt, ctl = wires
            gates.append(GateOp(GateKind.CFLIP_X, (tgt, ctl)))
            out = tgt
        nodes.append(PlanNode(level, lo, len(gates), children, out))
        return len(nodes) - 1

    root = emit(len(layers) - 1, 0)
    plan = CircuitPlan(arch.image_side ** 2, tuple(gates), nodes[root].wire)
    _PLAN_CACHE[arch] = (plan, tuple(nodes))
    return _PLAN_CACHE[arch]


_GROUP_PLAN_CACHE = {}


def group_plan(kind: str, param_layer: int = None) -> CircuitPlan:
    """Template plan for one group evaluated in isolation: data slots hold
    the group's input angles, the group summary is read on wire 0."""
    key = (kind, param_layer)
    if key in _GROUP_PLAN_CACHE:
        return _GROUP_PLAN_CACHE[key]
    n = {"conv": 4, "pool": 2}.get(kind)
    if n is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    gates = [GateOp(GateKind.RY, (w,), Angle.data(w)) for w in range(n)]
    if kind == "conv":
        _emit_conv_block(gates, [0, 1, 2, 3], param_layer)
    else:
        gates.append(GateOp(GateKind.CFLIP_X, (0, 1)))
    _GROUP_PLAN_CACHE[key] = CircuitPlan(n, tuple(gates), 0)
    return _GROUP_PLAN_CACHE[key]


@dataclass(frozen=True)
class ModelParams:
    """Trainable kernel angles, one block of four per convolution layer."""

    layers: tuple

    def __post_init__(self):
        blocks = tuple(np.array(b, dtype=np.float64) for b in self.layers)
        object.__setattr__(self, "layers", blocks)
        for b in blocks:
            if b.shape != (4,):
                raise ValueError(f"each kernel block holds 4 angles, got shape {b.shape}")
            if not np.all(np.isfinite(b)):
                raise ValueError("kernel angles must be finite")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def vector(self) -> np.ndarray:
        return np.concatenate(self.layers) if self.layers else np.zeros(0)

    @classmethod
    def from_vector(cls, arch: Architecture, vec) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size != arch.n_params:
            raise ValueError(f"{arch.value} takes {arch.n_params} angles, got {vec.size}")
        return cls.from_flat(vec)

    def with_update(self, deltas) -> "ModelParams":
        """New params with a per-angle update added (flat vector order)."""
        return ModelParams.from_flat(self.vector() + np.asarray(deltas, dtype=np.float64))

    @classmethod
    def from_flat(cls, vec) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size % 4:
            raise ValueError("angle vector length must be a multiple of 4")
        return cls(tuple(vec[i : i + 4] for i in range(0, vec.size, 4)))


def init_params(arch: Architecture, seed: int, scheme: str = "uniform") -> ModelParams:
    """Fresh kernel angles: 'uniform' draws each from [0, pi), 'zeros'
    starts every angle at 0."""
    if scheme == "zeros":
        return ModelParams(tuple(np.zeros(4) for _ in range(arch.conv_layer_count)))
    if scheme == "uniform":
        rng = np.random.Generator(np.random.PCG64(seed))
        return ModelParams(tuple(rng.uniform(0.0, np.pi, 4) for _ in range(arch.conv_layer_count)))
    raise ValueError(f"unknown init scheme {scheme!r}; choose 'uniform' or 'zeros'")


def save_params(params: ModelParams, path) -> None:
    """One angle per line, kernel-block order, full double precision."""
    lines = [f"{a:.17g}" for a in params.vector()]
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_params(path) -> ModelParams:
    lines = [ln for ln in Path(path).read_text(encoding="ascii").splitlines() if ln.strip()]
    try:
        vec = np.array([float(ln) for ln in lines])
    except ValueError:
        raise ValueError(f"{path}: parameter file must hold one angle per line") from None
    if vec.size == 0 or vec.size % 4:
        raise ValueError(f"{path}: expected a multiple of 4 angles, got {vec.size}")
    return ModelParams.from_flat(vec)


def conv_feature_map(pixels, kernel_angles) -> np.ndarray:
    """Slide the 2x2 kernel (stride 2) over a grayscale grid and return the
    window summary probabilities as a half-resolution float grid."""
    grid = np.asarray(pixels)
    if grid.ndim != 2:
        raise ValueError(f"expected a 2-d pixel grid, got shape {grid.shape}")
    height, width = grid.shape
    if height < 2 or width < 2 or height % 2 or width % 2:
        raise ValueError(f"feature map needs even dimensions of at least 2, got {height}x{width}")
    kernel = np.asarray(kernel_angles, dtype=np.float64).reshape(-1)
    if kernel.shape != (4,):
        raise ValueError(f"kernel takes 4 angles, got {kernel.size}")

    out_h, out_w = height // 2, width // 2
    # window (wr, wc) holds pixels (2wr, 2wc), (2wr, 2wc+1), (2wr+1, 2wc), (2wr+1, 2wc+1)
    windows = pixel_to_angle(grid).reshape(out_h, 2, out_w, 2).transpose(0, 2, 1, 3).reshape(-1, 4)
    return readout_probs(run_template(group_plan("conv", 0), ModelParams((kernel,)), data=windows)).reshape(out_h, out_w)
