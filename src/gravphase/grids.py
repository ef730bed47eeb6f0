"""Cubic periodic grid bookkeeping shared by the spectral modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """N^3 lattice on a cubic box of side `box`; nodes sit at i*h, i = 0..n-1."""

    n: int
    box: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two")
        if not (self.box > 0.0 and np.isfinite(self.box)):
            raise ValueError("box length must be positive and finite")

    @property
    def h(self) -> float:
        return self.box / self.n

    @property
    def cell_volume(self) -> float:
        return self.h**3

    def axes(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def k_axes(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def k_lattice(self) -> np.ndarray:
        """Wavevectors, shape (n, n, n, 3), FFT layout."""
        k = self.k_axes()
        kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
        return np.stack([kx, ky, kz], axis=-1)

    def k_magnitude(self) -> np.ndarray:
        return np.sqrt((self.k_lattice() ** 2).sum(axis=-1))

    def nonzero_mode_mask(self) -> np.ndarray:
        mask = np.ones((self.n,) * 3, dtype=bool)
        mask[0, 0, 0] = False
        return mask

