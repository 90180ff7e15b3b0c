"""Tensor contractions used by the state-vector and density-matrix engines.

All state layouts put wire 0 on the most significant bit of the basis index,
so after reshaping to (2,)*n the tensor axis of a wire equals its position
in the wire list.  Batch axes, if any, sit in front and ride through every
contraction via einsum ellipses.  Gate matrices may carry their own leading
batch axes (per-sample rotation angles).
"""
from __future__ import annotations

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _contract(gt, t, positions, axis, fresh):
    """One einsum of a gate tensor into the given axes of t; returns the
    result and its axis labels."""
    g_out, g_in, out_axis = [], [], list(axis)
    for p in positions:
        lbl = next(fresh)
        g_out.append(lbl)
        g_in.append(axis[p])
        out_axis[p] = lbl
    expr = f"...{''.join(g_out + g_in)},...{''.join(axis)}->...{''.join(out_axis)}"
    return np.einsum(expr, gt, t), out_axis


def _gate_tensor(gate, m: int) -> np.ndarray:
    g = np.asarray(gate)
    return g.reshape(g.shape[:-2] + (2,) * (2 * m))


def apply_to_vector(psi: np.ndarray, gate: np.ndarray, positions, n: int) -> np.ndarray:
    """psi: (..., 2**n). gate: (..., 2**m, 2**m) acting on the given wire
    positions (first position = high bit of the gate's sub-space)."""
    batch = psi.shape[:-1]
    gt = _gate_tensor(gate, len(positions))
    t, _ = _contract(gt, psi.reshape(batch + (2,) * n), positions, _LETTERS[:n], iter(_LETTERS[n:]))
    return t.reshape(batch + (2**n,))


def apply_to_density(rho: np.ndarray, gate: np.ndarray, positions, n: int) -> np.ndarray:
    """rho -> U rho U^dagger.  rho: (..., 2**n, 2**n), gate as above."""
    batch = rho.shape[:-2]
    gt = _gate_tensor(gate, len(positions))
    fresh = iter(_LETTERS[2 * n :])
    t, axis = _contract(gt, rho.reshape(batch + (2,) * (2 * n)), positions, _LETTERS[: 2 * n], fresh)
    # conj(U) contracted against the bra axes: rho'_{ab} = U_{ac} rho_{cd} conj(U_{bd})
    t, _ = _contract(np.conj(gt), t, [n + p for p in positions], axis, fresh)
    return t.reshape(batch + (2**n, 2**n))


def trace_out(rho: np.ndarray, position: int, n: int) -> np.ndarray:
    """Partial trace of one wire position out of an n-wire density matrix."""
    batch = rho.shape[:-2]
    t = rho.reshape(batch + (2,) * (2 * n))
    axis = list(_LETTERS[: 2 * n])
    axis[n + position] = axis[position]
    out = [axis[i] for i in range(2 * n) if i != position and i != n + position]
    t = np.einsum(f"...{''.join(axis)}->...{''.join(out)}", t)
    d = 2 ** (n - 1)
    return t.reshape(batch + (d, d))


def density_prob_one(rho: np.ndarray, position: int, n: int) -> np.ndarray:
    """Probability of measuring 1 on one wire of an n-wire density matrix."""
    batch = rho.shape[:-2]
    t = rho.reshape(batch + (2,) * (2 * n))
    axis = list(_LETTERS[: 2 * n])
    for i in range(n):
        if i != position:
            axis[n + i] = axis[i]
    out = [axis[position], axis[n + position]]
    r = np.einsum(f"...{''.join(axis)}->...{''.join(out)}", t)
    p = r[..., 1, 1].real
    return np.clip(p, 0.0, 1.0)


def vector_prob_one(psi: np.ndarray, position: int, n: int) -> np.ndarray:
    """Probability of measuring 1 on one wire of an n-wire state vector."""
    batch = psi.shape[:-1]
    t = psi.reshape(batch + (2,) * n)
    s = np.take(t, 1, axis=len(batch) + position)
    mag = np.abs(s) ** 2
    axes = tuple(range(len(batch), mag.ndim))
    p = mag.sum(axis=axes) if axes else mag
    return np.clip(p, 0.0, 1.0)
