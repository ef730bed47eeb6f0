"""Solvers for the transverse-trace constraint field h^T of a static source.

The field obeys the Poisson equation del^2 h^T = -kappa E with fields
vanishing at infinity, equivalently

    h^T(x) = (kappa / 4 pi) int d^3y E(y) / |x - y|.

Two backends evaluate the same discrete quadrature of that integral on the
lattice (midpoint rule, singular self cell replaced by the closed-form cell
average of 1/r):

* `solve_hT_direct` sums the kernel in position space with no FFT anywhere,
  kept as the oracle.  Every source-target displacement is an integer offset
  times h, so 1/r is tabulated once, over the signed offsets -(N-1)..N-1 in
  the first two axes and 0..N-1 in the third; each target column's slab of
  that table is then a basic slice, which the column copies, contracts with
  the source weights in one matrix product and whose Toeplitz diagonal it
  sums along the third axis.  The sum is exact: every source node meets
  every target.  The target planes run on the threads of `_run_workers`.
* `solve_hT_spectral` performs the identical free-space convolution by
  zero-padded grid doubling (Hockney): the density's transform on the
  doubled box is multiplied by the grid's `coulomb_kernel_hat` (the real
  spectrum of the 1/r kernel tabulated on the doubled box with the
  cell-averaged value at the origin, which also renders its k = 0 Fourier
  mode finite; `GridSpec` builds it once per grid) and transformed back.
  Periodic images never contaminate the result because every source to
  target displacement of the original box is covered by the doubled box.
  The module keeps no state of its own.

Continuum fidelity is checked elsewhere against closed forms (point far
field, mutual Gaussian energies) and the discrete Laplacian residual.

Coulomb pair integrals int E_i E_j / |x - y| come from one entry point,
`pair_integrals(family, pairs, ...)`: a list of Gaussian densities (a point
source is a Gaussian of its regularisation width, fixed where it is built)
and the (i, j) indices into it of every integral wanted, each computed
once, in closed form (`coulomb_pair_analytic`), by grid quadrature
(`coulomb_pair_grid`) or by 6-D Monte Carlo (`coulomb_pair_mc`).  Only the
grid quadrature reads a grid.
`mutual_coulomb` is its one-pair call.  The grid quadrature is the Hockney
sum h^6 sum_{x,y} rho_i(x) rho_j(y) K(x - y) with the lattice 1/r kernel K
of the solvers.  A Gaussian profile on the lattice is a product of
three axis profiles, so the sum factorises into three length-N
cross-correlations contracted with the (N+1)^3 octant of K: no density is
sampled and no transform taken.  Each backend computes an integral the same
way whichever others are computed with it.

The Monte-Carlo stream is part of the contract, so a seed gives the same
integrals on every version: chunk c holds the n <= MC_CHUNK samples from
c MC_CHUNK onwards, and its standard normals Z_x and Z_y, each drawn as a
(3, n) array (axis, sample), come from the first and the second child of
SeedSequence([seed, c]).  Every density of the family is drawn from the
same chunk (common random numbers): density k sits at
c_k + sigma_k Z_x on the x side and at c_k + sigma_k Z_y on the y side.
Each integral stays an unbiased estimate with its own standard error; only
the integrals' errors are correlated.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .grids import GridSpec, cell_averaged_inv_r
from .sources import EnergyDensity, PhysicalConstants, axis_profiles, sample_on_grid

RESIDUAL_MARGIN = 3  # boundary cells the Laplacian residual leaves out on each face
# Monte-Carlo samples per chunk: sets which seed draws which sample, so it
# is part of the stream contract, not a tuning knob.
MC_CHUNK = 16_384


@dataclass(frozen=True)
class ScalarFieldX:
    """Real scalar field sampled on the grid nodes."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n,) * 3:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field entries must be finite")


def solve_hT_spectral(e: EnergyDensity, grid: GridSpec, consts: PhysicalConstants) -> ScalarFieldX:
    """Free-space solve by zero-padded FFT convolution (see module docstring).

    The transforms are those of rfftn/irfftn on the doubled box, axis by
    axis in their order, but each axis is zero-padded only when it is
    transformed and cropped as soon as it is back in position space, so the
    7/8 of the doubled box that holds zeros is never built."""
    vals = sample_on_grid(e, grid, consts).values
    n, n2 = grid.n, 2 * grid.n
    spec = np.fft.fft(np.fft.fft(np.fft.rfft(vals, n=n2, axis=2), n=n2, axis=1), n=n2, axis=0)
    spec *= grid.coulomb_kernel_hat
    spec = np.fft.ifft(spec, axis=0, out=spec)[:n]
    spec = np.fft.ifft(spec, axis=1)[:, :n]  # frees the product before the last transform
    conv = np.fft.irfft(spec, n=n2, axis=2)
    out = conv[:, :, :n] * (consts.kappa / (4.0 * math.pi)) * grid.cell_volume
    return ScalarFieldX(grid=grid, values=out)


def solve_hT_direct(
    e: EnergyDensity,
    grid: GridSpec,
    consts: PhysicalConstants,
    stride: int = 1,
) -> ScalarFieldX:
    """Position-space quadrature oracle: no FFT, every source node summed
    into every target node.

    K[p, q, r] = 1 / (h sqrt(p^2 + q^2 + r^2)) is tabulated over the integer
    offsets (its own table, independent of the spectral kernel), with the
    cell average of 1/r at the origin.  The table is unfolded in the first
    two axes, shape (2N-1, 2N-1, N): entry [N-1-x+j] holds the offset |x - j|,
    so the slab K[|x_a - jx|, |y_b - jy|, :] of the target column (x_a, y_b)
    is the basic slice starting at [N-1-x_a, N-1-y_b], copied into one buffer
    per worker.  It is contracted over (jx, jy) with the source weights,
    A[jz, r] = sum W[jx, jy, jz] K[.., .., r], and the field at z_c is the
    diagonal sum over jz of A[jz, |z_c - jz|].  Worker w of n_w (see
    `_run_workers`) takes the target planes x_a with a = w, w + n_w, ...;
    each column is summed the same way whichever worker takes it, so the
    field does not depend on the thread count.

    With stride > 1 the field is evaluated on the coarser sub-lattice only
    (every stride-th node per axis); the returned field then lives on
    GridSpec(n // stride, box).
    """
    if grid.n % stride:
        raise ValueError("stride must divide N")
    n = grid.n
    weights = (sample_on_grid(e, grid, consts).values * grid.cell_volume).reshape(n * n, n)
    offsets = np.arange(n)
    signed = np.abs(np.arange(1 - n, n, dtype=float))  # exact small integers
    table = signed[:, None, None] ** 2 + signed[None, :, None] ** 2 + signed[n - 1:] ** 2
    np.sqrt(table, out=table)
    table *= grid.h
    with np.errstate(divide="ignore"):
        np.divide(1.0, table, out=table)
    table[n - 1, n - 1, 0] = cell_averaged_inv_r(grid.h)

    targets = offsets[::stride]
    dist = np.abs(targets[:, None] - offsets[None, :])  # |target - source| per axis
    out = np.empty((len(targets),) * 3)

    def work(w, n_w):
        slab, contracted = np.empty((n, n, n)), np.empty((n, n))
        for a in range(w, len(targets), n_w):
            plane = table[n - 1 - targets[a]:2 * n - 1 - targets[a]]
            for b, y in enumerate(targets):
                np.copyto(slab, plane[:, n - 1 - y:2 * n - 1 - y])
                np.matmul(weights.T, slab.reshape(n * n, n), out=contracted)
                out[a, b] = contracted[offsets, dist].sum(axis=1)

    _run_workers(work, len(targets))
    out *= consts.kappa / (4.0 * math.pi)
    ngrid = GridSpec(grid.n // stride, grid.box) if stride > 1 else grid
    return ScalarFieldX(grid=ngrid, values=out)


def coulomb_pair_analytic(e_a: EnergyDensity, e_b: EnergyDensity,
                          consts: PhysicalConstants) -> float:
    """Closed form of int E_A(x) E_B(y) / |x-y| for Gaussian profiles.

    The displacement of two Gaussian clouds is Gaussian with summed
    covariance, so the pair integral is m_A m_B c^4 erf(d / sqrt(2) s) / d
    with s^2 = sigma_A^2 + sigma_B^2 (and the d -> 0 limit for coincident
    centers).
    """
    s = math.sqrt(e_a.sigma**2 + e_b.sigma**2)
    d = float(np.linalg.norm(np.subtract(e_a.center, e_b.center)))
    m2c4 = e_a.mass * e_b.mass * consts.c**4
    if d == 0.0:
        return m2c4 * math.sqrt(2.0 / math.pi) / s
    return m2c4 * math.erf(d / (math.sqrt(2.0) * s)) / d


def mutual_coulomb(
    e_a: EnergyDensity,
    e_b: EnergyDensity,
    consts: PhysicalConstants,
    backend: str = "auto",
    grid: GridSpec | None = None,
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """int d^3x d^3y E_A(x) E_B(y) / |x - y|, returned as (value, stderr):
    the one-pair call of `pair_integrals`, which it equals bit for bit."""
    val, err = pair_integrals([e_a, e_b], [(0, 1)], consts, backend, grid, mc_samples, seed)
    return float(val[0]), float(err[0])


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(work, tasks: int) -> None:
    """Call work(w, n_w) for w = 0..n_w-1, each on its own thread, with
    n_w = min(tasks, CPUs in the affinity mask); worker 0 runs on the calling
    thread.  The workers share the process's arrays and split the tasks
    among themselves by w.  Every thread is joined before the error of the
    lowest-numbered worker that failed, if any, is raised here, so no worker
    outlives the call and none reports through `threading.excepthook`."""
    n_w = min(tasks, _cpu_count())
    errors = [None] * n_w

    def run(w):
        try:
            work(w, n_w)
        except BaseException as exc:  # raised again below, on the calling thread
            errors[w] = exc

    threads = []
    try:  # a failed start still joins the threads already started
        for w in range(1, n_w):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def coulomb_pair_grid(family, pairs, consts: PhysicalConstants, grid: GridSpec) -> np.ndarray:
    """Hockney quadrature h^6 sum_{x,y} rho_i(x) rho_j(y) K(x - y) of each
    (i, j) of `pairs`, indices into `family`, by the separable `_lattice_sum`."""

    @cache
    def profile(k):
        return axis_profiles(family[k], grid)

    return np.array([family[i].mass * family[j].mass * consts.c**4
                     * _lattice_sum(profile(i), profile(j), grid.coulomb_octant)
                     for i, j in pairs], dtype=float)


def _lattice_sum(g_i: np.ndarray, g_j: np.ndarray, octant: np.ndarray) -> float:
    """sum_{x,y} g_i(x) g_j(y) K(x - y) for two separable unit-mass profiles,
    g(x) = g[0, x_0] g[1, x_1] g[2, x_2] (`axis_profiles`).

    K depends on the displacement only, through |p|, |q|, |r| per axis, so
    the sum is sum_{p,q,r >= 0} K[p, q, r] D_0[p] D_1[q] D_2[r], where D_a[p]
    sums g_i[a, u] g_j[a, v] over |u - v| = p: the two cross-correlations
    of the axis factors, added lag by lag, which is symmetric in i and j bit
    for bit.  The octant's offset N is never reached (D_a[N] = 0)."""
    n = g_i.shape[1]
    d = np.zeros((3, n + 1))
    for a in range(3):
        d[a, :n] = (np.correlate(g_i[a], g_j[a], "full")
                    + np.correlate(g_j[a], g_i[a], "full"))[n - 1:]
    d[:, 0] *= 0.5  # lag 0 is counted by both correlations
    return float(d[0] @ ((octant.reshape(-1, n + 1) @ d[2]).reshape(n + 1, n + 1) @ d[1]))


def coulomb_pair_mc(family, pairs, consts: PhysicalConstants, samples: int = 1_000_000,
                    seed: int = 0):
    """Monte-Carlo estimates of int E_i E_j / |x - y| and their standard
    errors for each (i, j) of `pairs`, indices into `family`.  Positions are
    drawn exactly from the (Gaussian) profiles, so each integral is the mean
    of m m' c^4 / |x - y|.

    Every integral reads the same chunks of the stream (see the module
    docstring), so a self integral still pairs two independent draws, and
    an integral's value does not depend on which others are computed with
    it.  The chunks run on the threads of `_run_workers`: worker w of n_w
    takes chunks w, w + n_w, ... into buffers it allocates once, 13
    doubles per chunk sample whatever the family size (the two draws, one
    x side, the displacement and 1/r).  The chunks' partial sums are added
    in chunk order, so the values do not depend on the thread count.  Per
    chunk the squared distance is summed in the order of
    np.linalg.norm(axis=0), and each sum over the chunk's samples is
    numpy's pairwise sum."""
    if samples < 2:
        raise ValueError(f"mc backend needs at least 2 samples for a standard error, got {samples}")
    sigma = [e.sigma for e in family]
    center = np.array([e.center for e in family], float).reshape(len(family), 3, 1)
    order = sorted(range(len(pairs)), key=lambda p: tuple(pairs[p]))  # x_i built once per i
    n_chunks = -(-samples // MC_CHUNK)
    parts = np.empty((n_chunks, 2, len(pairs)))

    def work(w, n_w):
        z_buf, x_buf, d_buf = np.empty(6 * MC_CHUNK), np.empty(3 * MC_CHUNK), np.empty(3 * MC_CHUNK)
        inv_buf = np.empty(MC_CHUNK)
        for c in range(w, n_chunks, n_w):
            rows = min(MC_CHUNK, samples - c * MC_CHUNK)
            z = z_buf[:6 * rows].reshape(2, 3, rows)
            x, d = x_buf[:3 * rows].reshape(3, rows), d_buf[:3 * rows].reshape(3, rows)
            inv = inv_buf[:rows]
            for k, s in enumerate(np.random.SeedSequence([seed, c]).spawn(2)):
                np.random.default_rng(s).standard_normal(out=z[k])
            x_of = None
            for p in order:
                i, j = pairs[p]
                if i != x_of:
                    np.multiply(z[0], sigma[i], out=x)
                    x += center[i]
                    x_of = i
                np.multiply(z[1], sigma[j], out=d)
                d += center[j]
                np.subtract(x, d, out=d)
                d *= d
                np.add(d[0], d[1], out=inv)  # the order of np.linalg.norm(axis=0)
                inv += d[2]
                np.sqrt(inv, out=inv)
                np.divide(1.0, inv, out=inv)
                parts[c, 0, p] = inv.sum()
                inv *= inv
                parts[c, 1, p] = inv.sum()

    sums = np.zeros((2, len(pairs)))
    if pairs:
        _run_workers(work, n_chunks)  # numpy's generator and ufuncs release the GIL
        for part in parts:
            sums += part
    mean = sums[0] / samples
    scale = np.array([family[i].mass * family[j].mass for i, j in pairs]) * consts.c**4
    return scale * mean, scale * np.sqrt(np.maximum(sums[1] / samples - mean**2, 0.0) / samples)


def pair_integrals(
    family,
    pairs,
    consts: PhysicalConstants,
    backend: str = "auto",
    grid: GridSpec | None = None,
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """int E_i(x) E_j(y) / |x - y| for each (i, j) of `pairs`, indices into
    the list `family` of Gaussian densities, returned as (values,
    stderr) arrays in the order of `pairs`, each integral computed once.  The
    standard errors are zero on the deterministic backends.

    backend: "analytic" (the closed form, `coulomb_pair_analytic`), "grid"
    (the separable lattice sum, `coulomb_pair_grid`), "mc"
    (`coulomb_pair_mc`, one sample stream that every integral reads), or
    "auto", which is "analytic".  An empty pair list gives empty arrays on
    every backend.
    """
    family = list(family)
    if not all(e.kind == "gaussian" for e in family):
        raise ValueError("pair integrals need point or gaussian profiles")
    if backend not in ("auto", "analytic", "grid", "mc"):
        raise ValueError(f"unknown backend {backend!r}")
    backend = "analytic" if backend == "auto" else backend
    if backend == "grid" and grid is None:
        raise ValueError("grid backend needs a GridSpec")
    if backend == "mc":
        return coulomb_pair_mc(family, pairs, consts, samples=mc_samples, seed=seed)
    if backend == "grid":
        val = coulomb_pair_grid(family, pairs, consts, grid)
    else:
        val = np.array([coulomb_pair_analytic(family[i], family[j], consts) for i, j in pairs])
    return val, np.zeros_like(val)


def laplacian_residual(field: ScalarFieldX, e: EnergyDensity, consts: PhysicalConstants):
    """RMS of the 7-point discrete Laplacian residual del^2 h + kappa E,
    relative to RMS(kappa E), both evaluated away from the margin of
    RESIDUAL_MARGIN boundary cells."""
    grid, margin = field.grid, RESIDUAL_MARGIN
    if grid.n <= 2 * margin:
        raise ValueError(f"Laplacian residual needs N > {2 * margin} (margin {margin})")
    vals = field.values
    h2 = grid.h**2
    lap = (
        np.roll(vals, 1, 0) + np.roll(vals, -1, 0)
        + np.roll(vals, 1, 1) + np.roll(vals, -1, 1)
        + np.roll(vals, 1, 2) + np.roll(vals, -1, 2)
        - 6.0 * vals
    ) / h2
    src = consts.kappa * sample_on_grid(e, grid, consts).values
    sl = slice(margin, grid.n - margin)
    res = lap[sl, sl, sl] + src[sl, sl, sl]
    rms_res = float(np.sqrt((res**2).mean()))
    rms_src = float(np.sqrt((src[sl, sl, sl] ** 2).mean()))
    return rms_res, rms_src
