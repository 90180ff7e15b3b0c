"""Network architectures: convolution kernels over pixel wires, pooling by
controlled flips, and the plans that realize them.

Every convolution layer applies one shared 2x2 kernel: four trainable RX
angles (a00, a01, a10, a11 in window row-major order) followed by a fixed
entangler, after which the window's first wire carries the window summary.
Pooling merges summary pairs with a CFLIP_X and keeps the even-positioned
wire.  Plans compose the group templates window by window so the batched
engine can retire wires early; the readout always ends on wire 0.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._io import decimal_float, read_ascii_lines, require_int, write_text_atomic
from .encoding import pixel_cos
from .gates import Angle, AngleSource, GateKind, GateOp
from .plans import CircuitPlan
from .runner import readout_probs, run_template
from .runner import run_plan_batch  # noqa: F401  (timed through this name by perfbench/tracer.py)


def _enum_from(enum_cls, value, what):
    """The member of enum_cls that is or has `value`; the one parser of a
    named choice, whether it comes from the API, a flag or a config file.
    A refusal starts with `what`."""
    if isinstance(value, enum_cls):
        return value
    for member in enum_cls:
        if member.value == value:
            return member
    valid = ", ".join(m.value for m in enum_cls)
    raise ValueError(f"{what} cannot be {value!r}; choose one of: {valid}")


class Architecture(Enum):
    CONV = "conv"
    CONV_POOL_POOL = "conv-pool-pool"
    CONV_POOL_CONV_POOL = "conv-pool-conv-pool"

    @classmethod
    def from_string(cls, name: str) -> "Architecture":
        return _enum_from(cls, name, "architecture")

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


class InitScheme(Enum):
    UNIFORM = "uniform"
    ZEROS = "zeros"


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its kind, which input values each group consumes, and for
    convolutions the index of the trainable angle block it shares."""

    kind: str
    groups: tuple
    param_layer: int = None


def layer_structure(arch: Architecture) -> tuple:
    side = arch.image_side
    layers = []
    n_values = side * side
    for kind in arch.layer_kinds:
        if kind == "pool":
            groups, param_layer = tuple((i, i + 1) for i in range(0, n_values, 2)), None
        elif not layers:
            # spatial 2x2 windows, stride 2, over the row-major pixel grid
            corners = [2 * wr * side + 2 * wc for wr in range(side // 2) for wc in range(side // 2)]
            groups, param_layer = tuple((c, c + 1, c + side, c + side + 1) for c in corners), 0
        else:
            groups = tuple(tuple(range(i, i + 4)) for i in range(0, n_values, 4))
            param_layer = sum(layer.kind == "conv" for layer in layers)
        layers.append(LayerSpec(kind, groups, param_layer))
        n_values = len(groups)
    return tuple(layers)


@functools.lru_cache(maxsize=None)
def group_plan(kind: str, param_layer: int = None) -> CircuitPlan:
    """Template plan for one group evaluated in isolation: data slots hold
    the group's input angles, the group summary is read on wire 0.  The
    only place that spells out a group's gates: build_plan composes these
    templates, and the channel tree compiles them."""
    n = {"conv": 4, "pool": 2}.get(kind)
    if n is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    gates = [GateOp(GateKind.RY, (w,), Angle.data(w)) for w in range(n)]
    if kind == "conv":
        gates += [GateOp(GateKind.RX, (w,), Angle.param(param_layer, w)) for w in range(n)]
        for pair in ((0, 1), (2, 3), (0, 2)):
            gates += [GateOp(GateKind.CFLIP_Z, pair), GateOp(GateKind.CFLIP_Y, pair)]
    else:
        gates.append(GateOp(GateKind.CFLIP_X, (0, 1)))
    return CircuitPlan(n, tuple(gates), 0)


@functools.lru_cache(maxsize=None)
def build_plan(arch: Architecture):
    """The end-to-end circuit plan of an architecture and the group tree
    (layer_structure) it composes.

    Each group is its group_plan template with the template's wires renamed
    to the group's inputs.  A first-layer window keeps the template's RY
    gates, reading the pixel wire's data slot (slot = wire = pixel index);
    a group above drops them and takes its children's output wires.  Kernel
    angles fill parameter slots, resolved at run time.
    """
    layers = layer_structure(arch)
    gates = []

    def emit(level: int, group: int) -> int:
        """Append a group's gates after its children's; return its summary wire."""
        spec = layers[level]
        wires = [emit(level - 1, i) for i in spec.groups[group]] if level else list(spec.groups[group])
        tpl = group_plan(spec.kind, spec.param_layer)
        for g in tpl.gates:
            data = g.angle is not None and g.angle.source is AngleSource.DATA
            if not (data and level):
                angle = Angle.data(wires[g.angle.index]) if data else g.angle
                gates.append(GateOp(g.kind, tuple(wires[w] for w in g.wires), angle))
        return wires[tpl.readout_wire]

    readout = emit(len(layers) - 1, 0)
    return CircuitPlan(arch.image_side ** 2, tuple(gates), readout), layers


class NonFiniteAngleError(ValueError):
    """A kernel angle is infinite or nan; `index` is its flat position."""

    def __init__(self, index: int, value: float):
        super().__init__(f"kernel angle {index} is not finite, got {value}")
        self.index = index


@dataclass(frozen=True)
class ModelParams:
    """Trainable kernel angles, one block of four per convolution layer."""

    layers: tuple

    def __post_init__(self):
        """The one check of the angles: blocks of four finite values."""
        blocks = tuple(np.array(b, dtype=np.float64) for b in self.layers)
        object.__setattr__(self, "layers", blocks)
        for b in blocks:
            if b.shape != (4,):
                raise ValueError(f"each kernel block holds 4 angles, got shape {b.shape}")
        bad = np.flatnonzero(~np.isfinite(self.vector()))
        if bad.size:
            raise NonFiniteAngleError(int(bad[0]), self.vector()[bad[0]])

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


def init_params(arch: Architecture, seed: int, scheme=InitScheme.UNIFORM) -> ModelParams:
    """Fresh kernel angles; arch is an Architecture or its value, scheme an
    InitScheme or its value.  'uniform' draws each angle from [0, pi),
    'zeros' starts every angle at 0."""
    arch = _enum_from(Architecture, arch, "arch")
    seed = require_int("seed", seed, 0)
    if _enum_from(InitScheme, scheme, "scheme") is InitScheme.ZEROS:
        return ModelParams(tuple(np.zeros(4) for _ in range(arch.conv_layer_count)))
    rng = np.random.Generator(np.random.PCG64(seed))
    return ModelParams(tuple(rng.uniform(0.0, np.pi, 4) for _ in range(arch.conv_layer_count)))


def save_params(params: ModelParams, path) -> None:
    """One angle per line, kernel-block order, full double precision."""
    lines = [f"{a:.17g}" for a in params.vector()]
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_params(path) -> ModelParams:
    """Angles of a save_params file: one finite plain decimal per line of
    an ASCII file.  An unreadable file raises OSError."""
    angles, lines = [], []
    for n, ln in enumerate(read_ascii_lines(path), 1):
        if ln.strip():
            try:
                angles.append(decimal_float(ln))
            except ValueError:
                raise ValueError(f"{path}: line {n}: parameter file must hold one angle per line, got {ln!r}") from None
            lines.append((n, ln))
    if not angles or len(angles) % 4:
        raise ValueError(f"{path}: expected a multiple of 4 angles, got {len(angles)}")
    try:
        return ModelParams.from_flat(angles)
    except NonFiniteAngleError as exc:
        n, ln = lines[exc.index]
        raise ValueError(f"{path}: line {n}: angle {ln} is not finite") from None


def conv_feature_map(pixels, kernel_angles) -> np.ndarray:
    """Slide the 2x2 kernel (stride 2) over a grayscale grid and return the
    window summary probabilities as a half-resolution float grid: (1 - F
    prod cos t) / 2 over each window's pixel angles t, with F the kernel's
    readout z on an all-black window.  A refusal of the grid starts with
    `pixels`."""
    grid = np.asarray(pixels)
    if grid.ndim != 2:
        raise ValueError(f"pixels must form a 2-d grid, got shape {grid.shape}")
    height, width = grid.shape
    if height < 2 or width < 2 or height % 2 or width % 2:
        raise ValueError(f"pixels must form a grid with even sides of at least 2, got {height}x{width}")
    kernel = np.asarray(kernel_angles, dtype=np.float64).reshape(-1)
    if kernel.shape != (4,):
        raise ValueError(f"kernel takes 4 angles, got {kernel.size}")

    # window (wr, wc) holds pixels (2wr, 2wc), (2wr, 2wc+1), (2wr+1, 2wc), (2wr+1, 2wc+1):
    # four strided views, multiplied in that order as np.prod over a window would
    c = pixel_cos(grid)
    products = c[0::2, 0::2] * c[0::2, 1::2] * c[1::2, 0::2] * c[1::2, 1::2]
    factor = run_template(group_plan("conv", 0), ModelParams((kernel,)).layers[0])[1]
    return readout_probs(factor * products)
