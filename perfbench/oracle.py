"""Reference evaluations that share no code with the qcnn package.

Gate matrices are built here from projectors and Pauli matrices, and every
circuit is evaluated by dense linear algebra on small density matrices.
The lattice circuits need no more than four wires at a time: a window's
wires other than its summary wire are never touched again after the
window, so the summaries of different windows stay in a product state and
each window or pool can be evaluated on its own.

Wire order inside a window follows the window's pixels in row-major order
(a, b, c, d); wire a is the most significant bit and carries the summary.
Two-wire gates act on an ordered (target, control) pair.
"""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
PX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)

ARCH_KINDS = {
    "conv": ("conv",),
    "conv-pool-pool": ("conv", "pool", "pool"),
    "conv-pool-conv-pool": ("conv", "pool", "conv", "pool"),
}
ARCH_SIDE = {"conv": 2, "conv-pool-pool": 4, "conv-pool-conv-pool": 8}


def rx(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * PX


def controlled(pauli: np.ndarray) -> np.ndarray:
    """Pauli on the target (high bit) when the control (low bit) is 1."""
    return np.kron(I2, P0) + np.kron(pauli, P1)


def embed(op: np.ndarray, wires, n: int) -> np.ndarray:
    """Matrix of `op` acting on `wires` of an n-wire register, built one
    basis column at a time."""
    m = len(wires)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        bits = [(col >> (n - 1 - w)) & 1 for w in range(n)]
        sub_in = sum(bits[w] << (m - 1 - k) for k, w in enumerate(wires))
        for sub_out in range(2**m):
            amp = op[sub_out, sub_in]
            if amp == 0:
                continue
            out = list(bits)
            for k, w in enumerate(wires):
                out[w] = (sub_out >> (m - 1 - k)) & 1
            full[sum(b << (n - 1 - w) for w, b in enumerate(out)), col] += amp
    return full


def _entangler() -> np.ndarray:
    ent = np.eye(16, dtype=np.complex128)
    for tgt, ctl in ((0, 1), (2, 3), (0, 2)):
        ent = embed(controlled(PZ), (tgt, ctl), 4) @ ent
        ent = embed(controlled(PY), (tgt, ctl), 4) @ ent
    return ent


_ENTANGLER = _entangler()


def window_unitary(kernel) -> np.ndarray:
    """16x16 unitary of one window: RX(kernel[k]) on wire k, then the
    controlled-Z / controlled-Y pairs on (a,b), (c,d) and (a,c)."""
    rot = np.kron(np.kron(rx(kernel[0]), rx(kernel[1])), np.kron(rx(kernel[2]), rx(kernel[3])))
    return _ENTANGLER @ rot


def ry_density(theta) -> np.ndarray:
    """Batch of |psi><psi| for RY(theta)|0>, shape theta.shape + (2, 2)."""
    th = np.asarray(theta, dtype=np.float64)
    v = np.stack([np.cos(th / 2), np.sin(th / 2)], axis=-1).astype(np.complex128)
    return v[..., :, None] * v[..., None, :]


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, da, db = a.shape[0], a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, da * db, da * db)


def _keep_high(rho: np.ndarray, dim_rest: int) -> np.ndarray:
    """Reduced state of the most significant wire."""
    n = rho.shape[0]
    return np.trace(rho.reshape(n, 2, dim_rest, 2, dim_rest), axis1=2, axis2=4)


def window(rhos, kernel) -> np.ndarray:
    """Summary state of one window from four single-wire input states."""
    rho = _kron_batch(_kron_batch(rhos[0], rhos[1]), _kron_batch(rhos[2], rhos[3]))
    u = window_unitary(kernel)
    rho = u @ rho @ u.conj().T
    return _keep_high(rho, 8)


_CNOT = controlled(PX)


def pool(rho_t: np.ndarray, rho_c: np.ndarray) -> np.ndarray:
    """Target state after a controlled X and tracing out the control."""
    rho = _CNOT @ _kron_batch(rho_t, rho_c) @ _CNOT.conj().T
    return _keep_high(rho, 2)


def prob_one(rho: np.ndarray) -> np.ndarray:
    return rho[:, 1, 1].real


def first_windows(side: int):
    """Pixel indices of the stride-2 windows, in row-major window order."""
    out = []
    for r in range(0, side, 2):
        for c in range(0, side, 2):
            out.append((r * side + c, r * side + c + 1, (r + 1) * side + c, (r + 1) * side + c + 1))
    return out


def _layer(kind: str, states, params, conv: int, shifts) -> list:
    """One layer over single-wire states: windows of four with kernel block
    `conv` (one occurrence displaced where `shifts` says), or pooled pairs."""
    if kind == "pool":
        return [pool(states[i], states[i + 1]) for i in range(0, len(states), 2)]
    out = []
    for g in range(len(states) // 4):
        kernel = np.array(params[conv], dtype=np.float64)
        for (cl, wg, k), delta in (shifts or {}).items():
            if cl == conv and wg == g:
                kernel[k] += delta
        out.append(window(states[4 * g : 4 * g + 4], kernel))
    return out


def lattice_p1(arch: str, angles, params, shifts=None) -> np.ndarray:
    """End-to-end readout probability for a batch of pixel-angle rows.

    params is a list of kernel blocks.  shifts maps (conv ordinal, window
    index, angle index) to an offset on that one occurrence.
    """
    angles = np.asarray(angles, dtype=np.float64)
    kinds = ARCH_KINDS[arch]
    side = ARCH_SIDE[arch]
    states = []
    for w in first_windows(side):
        states.extend(ry_density(angles[:, i]) for i in w)
    conv = 0
    for kind in kinds:
        states = _layer(kind, states, params, conv, shifts)
        conv += kind == "conv"
    return prob_one(states[0])


def intermediate_layers(arch: str, angles, params, fed=None, shifts=None) -> list:
    """Exact per-layer readouts when every layer is measured and re-encoded
    as RY(pi * p) for the next layer.  fed[l], when given, replaces layer
    l's readouts before they are re-encoded, so the function can follow a
    sampled run layer by layer."""
    angles = np.asarray(angles, dtype=np.float64)
    kinds = ARCH_KINDS[arch]
    side = ARCH_SIDE[arch]
    inputs = np.stack([angles[:, i] for w in first_windows(side) for i in w], axis=1)
    outs = []
    conv = 0
    for li, kind in enumerate(kinds):
        states = [ry_density(inputs[:, j]) for j in range(inputs.shape[1])]
        nxt = _layer(kind, states, params, conv, shifts)
        conv += kind == "conv"
        p = np.stack([prob_one(s) for s in nxt], axis=1)
        outs.append(p)
        if fed is not None and li < len(fed) and fed[li] is not None:
            p = fed[li]
        inputs = np.pi * np.clip(p, 0.0, 1.0)
    return outs


def occurrences(arch: str) -> list:
    """Window count of each convolution layer (occurrences per angle)."""
    n = (ARCH_SIDE[arch] // 2) ** 2
    counts = []
    for kind in ARCH_KINDS[arch]:
        if kind == "conv":
            counts.append(n)
            n //= 4
        else:
            n //= 2
    return counts


def central_jacobian(fn, params, h: float = 1e-5) -> np.ndarray:
    """d fn / d angle by central differences over the flat angle vector."""
    flat = np.concatenate([np.asarray(b, dtype=np.float64) for b in params])
    cols = []
    for k in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        cols.append((fn(blocks(up)) - fn(blocks(dn))) / (2 * h))
    return np.stack(cols, axis=1)


def shift_jacobian(arch: str, angles, params) -> np.ndarray:
    """Two-point displacement (+-pi/2) summed over each angle's occurrences,
    on the intermediate (measured and re-encoded) composition."""
    cols = []
    for layer, n_occ in enumerate(occurrences(arch)):
        for k in range(4):
            col = 0.0
            for g in range(n_occ):
                up = intermediate_layers(arch, angles, params, shifts={(layer, g, k): np.pi / 2})[-1][:, 0]
                dn = intermediate_layers(arch, angles, params, shifts={(layer, g, k): -np.pi / 2})[-1][:, 0]
                col = col + 0.5 * (up - dn)
            cols.append(col)
    return np.stack(cols, axis=1)


def blocks(flat) -> list:
    """Kernel blocks of four angles from a flat angle vector."""
    return [flat[i : i + 4] for i in range(0, flat.size, 4)]


def activate(p) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(2.0 * np.asarray(p) - 1.0)))


def conv_windows(grid) -> np.ndarray:
    """(h/2 * w/2, 4) pixel-angle windows of a grid, row-major."""
    g = np.pi * np.asarray(grid, dtype=np.float64) / 255.0
    return np.stack([g[0::2, 0::2], g[0::2, 1::2], g[1::2, 0::2], g[1::2, 1::2]], axis=-1).reshape(-1, 4)


def window_p1(angle_rows, kernel) -> np.ndarray:
    """Summary readout of single windows over a batch of 4-angle rows."""
    rows = np.asarray(angle_rows, dtype=np.float64)
    return prob_one(window([ry_density(rows[:, k]) for k in range(4)], kernel))
