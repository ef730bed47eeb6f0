"""Cubic periodic grid bookkeeping shared by the spectral modules.

`GridSpec` owns the tables every spectral computation on a grid reads: the
mode magnitudes |k|, the lattice 1/r kernel over the non-negative offsets
(the octant) and, built from it, the spectrum of the doubled-box kernel of
the free-space (Hockney) convolution, real as the kernel is even.  Each is
built on first use, once per grid object, and is read-only; equality and
hashing still go by (n, box) alone.  No (n, n, n, 3) wavevector lattice is
ever formed: |k| is summed from squared axis wavenumbers, and the overlap
mode sums read the folded axis `k_folded`.  In the FFT layout k = 0 is
element 0 of every flattened mode table.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .records import frozen_record

# Average of 1/|r| over the unit cube centred at the origin, in closed form.
_UNIT_CUBE_INV_R_AVERAGE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@frozen_record
class GridSpec:
    """N^3 lattice on a cubic box of side `box`; nodes sit at i*h, i = 0..n-1.

    It owns the read-only tables built from (n, box) on first use: |k| for
    the field states, the lattice 1/r octant that the separable pair sums
    contract, and the doubled-box kernel spectrum, made from the octant,
    that the spectral solve multiplies by."""

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

    def k_axis(self) -> np.ndarray:
        """Wavenumbers along one axis, FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def k_folded(self) -> np.ndarray:
        """|k_j| for j = 0..n/2, the axis folded onto its non-negative
        indices: the same values as `k_axis`, whose Nyquist entry is the
        one wavenumber -pi/h, without importing numpy.fft."""
        return 2.0 * np.pi * (np.arange(self.n // 2 + 1) * (1.0 / (self.n * self.h)))

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        """|k| per mode, shape (n, n, n), FFT layout, summed from the
        squared axis wavenumbers without forming the lattice."""
        k2 = self.k_axis() ** 2
        return _read_only(np.sqrt(k2[:, None, None] + k2[None, :, None] + k2[None, None, :]))

    @cached_property
    def coulomb_octant(self) -> np.ndarray:
        """`coulomb_kernel_octant` of this grid, shape (n + 1,) * 3, which
        the separable pair sums read."""
        return _read_only(coulomb_kernel_octant(self))

    @cached_property
    def coulomb_kernel_hat(self) -> np.ndarray:
        """rfftn of the doubled-box 1/r kernel, real, shape (2n, 2n, n + 1),
        which `solve_hT_spectral` multiplies by.

        Offsets i and 2n - i have the same |d|, so the kernel is the octant
        mirrored in every axis and its transform is real and even.  Each axis
        is transformed as the real part of an rfft of the mirrored octant,
        and the (n+1)^3 result is mirrored into the first two axes; the full
        (2n)^3 kernel is never formed.  The octant is a temporary here, so a
        grid that only solves does not keep it."""
        mirror = np.r_[0:self.n + 1, self.n - 1:0:-1]
        table = coulomb_kernel_octant(self)
        for axis in (2, 1, 0):
            table = np.fft.rfft(np.take(table, mirror, axis=axis), axis=axis).real
        return _read_only(table[np.ix_(mirror, mirror, np.arange(self.n + 1))])


def cell_averaged_inv_r(h: float) -> float:
    """Cell average of 1/r for a cubic cell of side h centred on the node."""
    return _UNIT_CUBE_INV_R_AVERAGE / h


def coulomb_kernel_octant(grid: GridSpec) -> np.ndarray:
    """1/r over the (N+1)^3 non-negative offsets 0..N per axis of the doubled
    box, with the cell average at the origin; offset i stands for i and
    2N - i, the minimum image of both."""
    d = np.arange(grid.n + 1) * grid.h
    octant = d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2
    with np.errstate(divide="ignore"):  # in place: one table-sized array
        np.divide(1.0, np.sqrt(octant, out=octant), out=octant)
    octant[0, 0, 0] = cell_averaged_inv_r(grid.h)
    return octant
