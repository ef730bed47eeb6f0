"""Mode-discretised Gaussian-functional inner products.

Two regimes are contrasted here.  Treating a displaced source classically
pins the constraint field to a delta functional, so two solutions that differ
by any amount are orthogonal; regularising each mode's delta as a Gaussian of
width w exhibits the limit (`semiclassical_overlap` falls off as w shrinks,
as the displacement grows and as more modes are constrained).  Keeping the
source quantum instead, the joint matter+field inner product collapses onto
the matter overlap alone: the per-mode shift phases cancel exactly for equal
eigen-densities and orthogonal eigenstates drop out (`exact_joint_overlap`).

Mode data live on the FFT lattice; Fourier amplitudes carry the cell-volume
factor h^3 (physical convention, stable under grid refinement) and the k = 0
mode never enters a product.  Only transverse-traceless vacuum factors and
trace-part shift phases matter: the longitudinal and trace momentum
integrations are common normalisation between bra and ket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .sources import (
    EnergyDensity,
    PhysicalConstants,
    QuantumSourceState,
    effective_sigma,
    point_density,
    sample_on_grid,
)

SHIFT_CANCEL_TOL = 1e-14


@dataclass(frozen=True)
class ModeGaussianState:
    """Per-mode Gaussian data of the field state in the momentum
    representation: the trace-sector displacement phase coefficient
    h^T_E(k) / (2 hbar).  The TT vacuum Gaussians are identical in bra and
    ket, so they normalise to one and are not stored."""

    grid: GridSpec
    shift: np.ndarray          # (n, n, n) complex, k = 0 entry zeroed

    def __post_init__(self):
        if self.shift.shape != (self.grid.n,) * 3:
            raise ValueError("shift array does not match grid")


def field_fourier_amplitudes(e: EnergyDensity, grid: GridSpec, consts: PhysicalConstants) -> np.ndarray:
    """Per-mode constraint amplitudes h^T_E(k) = kappa E(k) / |k|^2.

    This solves the trace-sector Poisson equation mode by mode on the
    lattice, with E(k) the cell-volume-weighted transform of the sampled
    density (so values are stable under grid refinement).  The k = 0 entry
    is zeroed; that mode never enters an overlap product.  The
    position-space solver treats the same equation with free-space boundary
    conditions; here the periodic mode decomposition itself is the object.
    """
    vals = sample_on_grid(e, grid, consts).values
    ek = np.fft.fftn(vals) * grid.cell_volume
    kmag = grid.k_magnitude()
    mask = grid.nonzero_mode_mask()
    out = np.zeros_like(ek)
    out[mask] = consts.kappa * ek[mask] / kmag[mask] ** 2
    return out


def build_field_state(e: EnergyDensity, consts: PhysicalConstants, grid: GridSpec) -> ModeGaussianState:
    hk = field_fourier_amplitudes(e, grid, consts)
    shift = hk / (2.0 * consts.hbar)
    mask = grid.nonzero_mode_mask()
    shift[~mask] = 0.0
    return ModeGaussianState(grid=grid, shift=shift)


def exact_joint_overlap(
    psi_a: QuantumSourceState,
    psi_b: QuantumSourceState,
    grid: GridSpec,
    consts: PhysicalConstants,
) -> complex:
    """Inner product of the joint matter+field states.

    Assembles the field state of every eigen-density and contracts.  For
    matching eigenbasis indices the two shift arrays are verified to cancel
    mode by mode (gravity factor exactly 1); for distinct indices the matter
    factor <E'|E> = 0 removes the term.  The result therefore equals the bare
    matter overlap, which is what this function returns after the checks.
    """
    states_a = {idx: build_field_state(d, consts, grid)
                for idx, d in zip(psi_a.indices, psi_a.densities)}
    states_b = {idx: build_field_state(d, consts, grid)
                for idx, d in zip(psi_b.indices, psi_b.densities)}
    out = 0.0 + 0.0j
    amp_b = dict(zip(psi_b.indices, psi_b.amplitudes))
    for idx, amp in zip(psi_a.indices, psi_a.amplitudes):
        if idx not in amp_b:
            continue
        da, db = states_a[idx], states_b[idx]
        scale = max(np.abs(da.shift).max(), 1.0)
        defect = np.abs(da.shift - db.shift).max() / scale
        if defect > SHIFT_CANCEL_TOL:
            raise ValueError(
                f"eigenstate index {idx} carries inconsistent densities "
                f"(per-mode shift mismatch {defect:.2e})"
            )
        out += np.conj(amp) * amp_b[idx]
    return complex(out)


def analytic_point_amplitudes(mass: float, sigma: float, grid: GridSpec,
                              consts: PhysicalConstants) -> np.ndarray:
    """Exact h^T(k) of a Gaussian-regularised point source on the mode
    lattice: kappa m c^2 exp(-sigma^2 k^2 / 2) / k^2, zero at k = 0.

    Taking the closed form rather than the grid solve keeps the per-mode
    values independent of the lattice resolution, so refining the grid
    changes a mode product only by adding modes.  The grid-solve transform
    agrees with these values mode by mode up to discretisation (tested).
    """
    kmag = grid.k_magnitude()
    mask = grid.nonzero_mode_mask()
    out = np.zeros_like(kmag)
    k2 = kmag[mask] ** 2
    out[mask] = consts.kappa * mass * consts.c**2 * np.exp(-0.5 * sigma**2 * k2) / k2
    return out


def semiclassical_overlap(
    x,
    epsilon,
    w: float,
    grid: GridSpec,
    consts: PhysicalConstants,
    mass: float = 1.0,
    sigma_reg: float | None = None,
    matter_width: float | None = None,
    return_log: bool = False,
):
    """Overlap of two classically-treated displaced sources.

    The per-mode delta constraint on the trace field is regularised as a
    Gaussian of width w, giving the product over modes of
    exp(-|dh(k)|^2 / 4 w^2) with dh(k) = (1 - e^{-i k . eps}) h^T(k), times
    the displaced-wavepacket overlap exp(-|eps|^2 / 8 sigma_m^2) when a
    matter width is declared.  Accumulated in log space; `return_log` gives
    the log value directly for ladder studies that would underflow.
    """
    if w <= 0.0:
        raise ValueError("regularisation width must be positive; "
                         "study the w -> 0 limit by sweeping instead")
    x = np.asarray(x, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    if np.any(x < 0.0) or np.any(x + eps > grid.box) or np.any(x > grid.box):
        raise ValueError("displacement leaves the box")
    if sigma_reg is None:  # the width any unregularised point source gets on this grid
        sigma_reg = effective_sigma(point_density(0.0), grid)
    hk = analytic_point_amplitudes(mass, sigma_reg, grid, consts)
    kvec = grid.k_lattice()
    # |1 - e^{-i k.eps}|^2 = 2 (1 - cos k.eps)
    keps = kvec @ eps
    dh2 = 2.0 * (1.0 - np.cos(keps)) * hk**2
    mask = grid.nonzero_mode_mask()
    log_overlap = -float(dh2[mask].sum() / (4.0 * w**2))
    if matter_width is not None:
        if matter_width <= 0.0:
            raise ValueError("matter width must be positive")
        log_overlap += -float((eps**2).sum() / (8.0 * matter_width**2))
    if return_log:
        return log_overlap
    return math.exp(log_overlap) if log_overlap > -745.0 else 0.0
