"""Energy densities (local eigenvalues of the energy-density operator) and
quantum source states given as finite spectral decompositions over them.

Profiles carry masses in the active unit system; a "point" source is
regularised as a narrow Gaussian when it is put on a grid, because a true
delta function cannot be sampled.  Eigenbasis identity between states is
decided by a declared integer index, never by comparing density values.
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

    kind is one of "point", "gaussian", "grid".  Analytic profiles store
    mass/center/width; grids store the sampled array plus box length.  A
    point profile keeps sigma = None until it is regularised on a grid.
    """

    kind: str
    mass: float | None = None
    center: tuple[float, float, float] | None = None
    sigma: float | None = None
    values: np.ndarray | None = None
    box: float | None = None

    def __post_init__(self):
        if self.kind not in ("point", "gaussian", "grid"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "grid":
            if self.values is None or self.box is None:
                raise ValueError("grid profile needs values and box")
            if np.any(self.values < 0.0) or not np.all(np.isfinite(self.values)):
                raise ValueError("grid density must be finite and non-negative")
        else:
            if self.mass is None or self.mass < 0.0:
                raise ValueError("analytic profile needs a non-negative mass")
            if self.center is None:
                raise ValueError("analytic profile needs a center")
            if self.kind == "gaussian" and not (self.sigma and self.sigma > 0.0):
                raise ValueError("gaussian profile needs sigma > 0")

    @property
    def analytic(self) -> bool:
        return self.kind in ("point", "gaussian")


def point_density(mass: float, center=(0.0, 0.0, 0.0), sigma_reg: float | None = None) -> EnergyDensity:
    """Point source; regularised as a Gaussian of width sigma_reg on grids
    (default: POINT_SIGMA_CELLS grid cells, fixed at sampling time)."""
    return EnergyDensity(kind="point", mass=mass, center=tuple(center), sigma=sigma_reg)


def gaussian_density(mass: float, center, sigma: float) -> EnergyDensity:
    return EnergyDensity(kind="gaussian", mass=mass, center=tuple(center), sigma=sigma)


def grid_density(values: np.ndarray, box: float) -> EnergyDensity:
    return EnergyDensity(kind="grid", values=np.asarray(values, dtype=float), box=float(box))


POINT_SIGMA_CELLS = 2.0  # width of an unregularised point source, in grid cells


def effective_sigma(e: EnergyDensity, grid: GridSpec | None) -> float:
    """Width of an analytic profile: a Gaussian's sigma, a point source's
    regularisation width, or POINT_SIGMA_CELLS cells of `grid` for a point
    source that declares none."""
    if e.kind == "grid":
        raise ValueError("grid profiles have no analytic width")
    if e.sigma:
        return float(e.sigma)
    if grid is None:
        raise ValueError("point profile needs an explicit regularisation width "
                         "when no grid is given")
    return POINT_SIGMA_CELLS * grid.h


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
    sigma = effective_sigma(e, grid)
    if grid.box <= 6.0 * sigma:
        raise ValueError(
            f"profile truncated: box {grid.box} must exceed 6 sigma = {6 * sigma}"
        )
    ax = grid.axes()
    dx2 = (ax - e.center[0]) ** 2
    dy2 = (ax - e.center[1]) ** 2
    dz2 = (ax - e.center[2]) ** 2
    r2 = dx2[:, None, None] + dy2[None, :, None] + dz2[None, None, :]
    vals = np.exp(-r2 / (2.0 * sigma**2))
    total = vals.sum() * grid.cell_volume
    if total == 0.0:
        raise ValueError("profile truncated: no support on the grid")
    vals *= e.mass * consts.c**2 / total
    return grid_density(vals, grid.box)


def total_mass(e: EnergyDensity, consts: PhysicalConstants) -> float:
    """int E d^3x / c^2."""
    if e.analytic:
        return float(e.mass)
    n = e.values.shape[0]
    cell = (e.box / n) ** 3
    return float(e.values.sum() * cell / consts.c**2)


@dataclass(frozen=True)
class LocalizedSourceSpec:
    """Superposition of localised branches of one source of mass `mass`:
    amplitudes c_i, branch centers x_i and widths sigma_i."""

    mass: float
    amplitudes: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        centers = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        widths = np.asarray(self.widths, dtype=float)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        if not (len(amps) == len(centers) == len(widths)) or len(amps) == 0:
            raise ValueError("need matching, non-empty branch lists")
        if not np.all(np.isfinite(centers)) or not np.all(widths > 0.0):
            raise ValueError("branch centers and widths must be finite, widths > 0")
        norm = float((np.abs(amps) ** 2).sum())
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("branch amplitudes must be normalised")

    @property
    def n_branches(self) -> int:
        return len(self.amplitudes)

    def branch_density(self, i: int) -> EnergyDensity:
        return gaussian_density(self.mass, self.centers[i], float(self.widths[i]))


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
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("state amplitudes must be normalised")

    @property
    def n_components(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def from_localized(cls, spec: LocalizedSourceSpec, index_offset: int = 0) -> "QuantumSourceState":
        dens = [spec.branch_density(i) for i in range(spec.n_branches)]
        idx = tuple(index_offset + i for i in range(spec.n_branches))
        return cls(amplitudes=spec.amplitudes, densities=dens, indices=idx)


def source_overlap(psi: QuantumSourceState, phi: QuantumSourceState) -> complex:
    """<psi|phi> = sum over shared eigenbasis indices of conj(psi_i) phi_i."""
    phi_by_index = dict(zip(phi.indices, phi.amplitudes))
    out = 0.0 + 0.0j
    for idx, amp in zip(psi.indices, psi.amplitudes):
        if idx in phi_by_index:
            out += np.conj(amp) * phi_by_index[idx]
    return complex(out)
