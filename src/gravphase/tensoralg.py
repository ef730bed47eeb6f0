"""Fourier-space symmetric-tensor algebra.

Symmetric tensors are plain (..., 3, 3) arrays.  All operations are pure and
vectorised over leading axes, so per-mode work parallelises trivially.
"""

from __future__ import annotations

import numpy as np


def transverse_projector(k: np.ndarray) -> np.ndarray:
    """P_ij = delta_ij - k_i k_j / |k|^2, shape (..., 3, 3)."""
    k = np.asarray(k, dtype=float)
    norm = np.sqrt((k**2).sum(axis=-1))
    if not np.all(np.isfinite(norm)):
        raise ValueError("wavevector components must be finite")
    if np.any(norm == 0.0):
        raise ValueError("transverse projector is undefined at k = 0")
    n = k / norm[..., None]
    return np.eye(3) - n[..., :, None] * n[..., None, :]


def tt_project(t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Transverse-traceless part P T P - (P/2) (P:T) of a symmetric tensor."""
    t = np.asarray(t)
    p = transverse_projector(k)
    ptp = p @ t @ p
    ptrace = np.einsum("...ij,...ij->...", p, t)
    return ptp - 0.5 * p * ptrace[..., None, None]


def decompose(t: np.ndarray, k: np.ndarray):
    """Split T into (longitudinal, transverse-trace scalar, TT part).

    The transverse-trace scalar is P:T; recomposition is
    T = longitudinal + (P/2) * scalar + TT.
    """
    t = np.asarray(t)
    p = transverse_projector(k)
    trace_part = np.einsum("...ij,...ij->...", p, t)
    tt = tt_project(t, k)
    longitudinal = t - tt - 0.5 * p * trace_part[..., None, None]
    return longitudinal, trace_part, tt
