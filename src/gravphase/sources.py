"""Energy densities (local eigenvalues of the energy-density operator) and
quantum source states given as finite spectral decompositions over them.

A density is a Gaussian (mass, center, width) or a sampled grid; profiles
carry masses in the active unit system.  A point source is a Gaussian of
its regularisation width, fixed where the density is built, because a true
delta function can be neither sampled nor integrated against 1/r; a point
that declares no width is POINT_SIGMA_CELLS cells of the grid it is used
on.  Eigenbasis identity between states is decided by a declared integer
index, never by comparing density values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec


@dataclass(frozen=True)
class PhysicalConstants:
    """Gravitational constant, speed of light and hbar in one unit system."""

    G: float
    c: float
    hbar: float

    def __post_init__(self):
        if min(self.G, self.c, self.hbar) <= 0.0:
            raise ValueError("constants must be strictly positive")

    @property
    def kappa(self) -> float:
        return 16.0 * math.pi * self.G / self.c**4

    @classmethod
    def si(cls) -> "PhysicalConstants":
        return cls(G=6.67430e-11, c=2.99792458e8, hbar=1.054571817e-34)

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        return cls(G=1.0, c=1.0, hbar=1.0)

    def rescaled(self, length_scale: float, mass_scale: float) -> "PhysicalConstants":
        """Constants in units where lengths, masses and times are measured in
        multiples of `length_scale`, `mass_scale` and `length_scale / c`.

        c maps to 1 by construction.  Dimensionless results (phases,
        overlaps) are invariant; use this to keep kappa-sized products well
        conditioned when inputs arrive in SI.
        """
        t0 = length_scale / self.c
        g = self.G * mass_scale * t0**2 / length_scale**3
        hbar = self.hbar * t0 / (mass_scale * length_scale**2)
        return PhysicalConstants(G=g, c=1.0, hbar=hbar)


@dataclass(frozen=True)
class EnergyDensity:
    """Static energy density E(x) with total integral mass * c^2.

    kind is "gaussian" (mass, center and width sigma > 0) or "grid" (the
    sampled array plus box length).
    """

    kind: str
    mass: float | None = None
    center: tuple[float, float, float] | None = None
    sigma: float | None = None
    values: np.ndarray | None = None
    box: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "grid"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "grid":
            if self.values is None or self.box is None:
                raise ValueError("grid profile needs values and box")
            if np.any(self.values < 0.0) or not np.all(np.isfinite(self.values)):
                raise ValueError("grid density must be finite and non-negative")
        else:
            if self.mass is None or self.mass < 0.0:
                raise ValueError("analytic profile needs a non-negative mass")
            if self.center is None or not all(map(math.isfinite, self.center)):
                raise ValueError("analytic profile needs a finite center")
            if not (self.sigma and self.sigma > 0.0):
                raise ValueError("gaussian profile needs sigma > 0")


def gaussian_density(mass: float, center, sigma: float) -> EnergyDensity:
    return EnergyDensity(kind="gaussian", mass=mass, center=tuple(center), sigma=sigma)


def grid_density(values: np.ndarray, box: float) -> EnergyDensity:
    return EnergyDensity(kind="grid", values=np.asarray(values, dtype=float), box=float(box))


POINT_SIGMA_CELLS = 2.0  # width of a point source that declares none, in grid cells


def sample_on_grid(
    e: EnergyDensity,
    grid: GridSpec,
    consts: PhysicalConstants,
) -> EnergyDensity:
    """Sample an analytic profile on the lattice, renormalised so that the
    discrete integral equals mass * c^2 exactly.

    Raises if the box cannot hold the profile (L <= 6 sigma), since the
    renormalisation would then hide a truncated tail.
    """
    if e.kind == "grid":
        if e.values.shape != (grid.n,) * 3 or not np.isclose(e.box, grid.box):
            raise ValueError("grid density does not match requested grid")
        return e
    sigma, (dx2, dy2, dz2) = _fitted_offsets(e, grid)
    r2 = dx2[:, None, None] + dy2[None, :, None] + dz2[None, None, :]
    vals = np.exp(-r2 / (2.0 * sigma**2))
    total = vals.sum() * grid.cell_volume
    _require_support(total)
    vals *= e.mass * consts.c**2 / total
    return grid_density(vals, grid.box)


def axis_profiles(e: EnergyDensity, grid: GridSpec) -> np.ndarray:
    """The three axis factors of an analytic profile on the lattice, shape
    (3, N), each normalised to unit sum: `sample_on_grid(e, grid, consts)`
    is mass c^2 / h^3 times their outer product, up to rounding.  The
    guards are those of `sample_on_grid`."""
    sigma, offsets = _fitted_offsets(e, grid)
    g = np.exp(-np.array(offsets) / (2.0 * sigma**2))
    sums = g.sum(axis=1)
    _require_support(float(np.prod(sums)))
    return g / sums[:, None]


def _fitted_offsets(e: EnergyDensity, grid: GridSpec):
    """Width of an analytic profile and its squared node offsets per axis,
    (x_a - c_a)^2.  Raises if the box cannot hold the profile (L <= 6
    sigma), since the renormalisation would then hide a truncated tail."""
    sigma = float(e.sigma)
    if grid.box <= 6.0 * sigma:
        raise ValueError(
            f"profile truncated: box {grid.box} must exceed 6 sigma = {6 * sigma}"
        )
    ax = grid.axes()
    return sigma, [(ax - c) ** 2 for c in e.center]


def _require_support(total: float) -> None:
    """Refuse a profile whose discrete integral vanishes on the grid."""
    if total == 0.0:
        raise ValueError("profile truncated: no support on the grid")


@dataclass(frozen=True)
class QuantumSourceState:
    """Finite decomposition sum_i c_i |E_i> over energy-density eigenstates.

    `indices` are the eigenbasis labels; two components from different states
    represent the same eigenstate exactly when their indices match.
    """

    amplitudes: np.ndarray
    densities: tuple
    indices: tuple

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "densities", tuple(self.densities))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not (len(amps) == len(self.densities) == len(self.indices)) or len(amps) == 0:
            raise ValueError("need matching, non-empty component lists")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("eigenbasis indices must be distinct within a state")
        norm = float((np.abs(amps) ** 2).sum())
        if not abs(norm - 1.0) <= 1e-12:  # also refuses NaN
            raise ValueError("state amplitudes must be normalised")


def source_overlap(psi: QuantumSourceState, phi: QuantumSourceState) -> complex:
    """<psi|phi> = sum over shared eigenbasis indices of conj(psi_i) phi_i."""
    phi_by_index = dict(zip(phi.indices, phi.amplitudes))
    out = 0.0 + 0.0j
    for idx, amp in zip(psi.indices, psi.amplitudes):
        if idx in phi_by_index:
            out += np.conj(amp) * phi_by_index[idx]
    return complex(out)
