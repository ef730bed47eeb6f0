"""Solvers for the transverse-trace constraint field h^T of a static source.

The field obeys the Poisson equation del^2 h^T = -kappa E with fields
vanishing at infinity, equivalently

    h^T(x) = (kappa / 4 pi) int d^3y E(y) / |x - y|.

Two backends evaluate the same discrete quadrature of that integral on the
lattice (midpoint rule, singular self cell replaced by the closed-form cell
average of 1/r):

* `solve_hT_direct` sums the kernel in position space with no FFT anywhere,
  kept as the oracle.  Every source-target displacement is an integer offset
  times h, so 1/r is tabulated once over the offsets 0..N-1 per axis; each
  target column then gathers its slab of that table, contracts it with the
  source weights in one matrix product and sums the Toeplitz diagonal along
  the third axis.  The sum is exact: every source node meets every target.
* `solve_hT_spectral` performs the identical free-space convolution by
  zero-padded grid doubling (Hockney): the 1/r kernel is tabulated on the
  doubled box with the cell-averaged value at the origin (which also renders
  its k = 0 Fourier mode finite), transformed once per grid, multiplied and
  transformed back.  Periodic images never contaminate the result because
  every source to target displacement of the original box is covered by the
  doubled box.

Continuum fidelity is checked elsewhere against closed forms (point far
field, mutual Gaussian energies) and the discrete Laplacian residual.

Coulomb pair integrals int E_A E_B / |x - y| come in closed form, by grid
quadrature against the spectral potential, or by 6-D Monte Carlo, one pair
at a time (`mutual_coulomb`) or for two whole density families at once
(`pair_integrals`, which computes each integral once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import GridSpec
from .sources import EnergyDensity, PhysicalConstants, effective_sigma, sample_on_grid

DIRECT_N_LIMIT = 48


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


# Average of 1/|r| over the unit cube centred at the origin, in closed form.
_UNIT_CUBE_INV_R_AVERAGE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0


def cell_averaged_inv_r(h: float) -> float:
    """Cell average of 1/r for a cubic cell of side h centred on the node."""
    return _UNIT_CUBE_INV_R_AVERAGE / h


def _as_grid_values(e: EnergyDensity, grid: GridSpec, consts: PhysicalConstants) -> np.ndarray:
    return sample_on_grid(e, grid, consts).values


def _displacement_kernel_1d(grid: GridSpec) -> np.ndarray:
    """Signed displacements covered by the doubled lattice, length 2n."""
    n2 = 2 * grid.n
    idx = np.arange(n2)
    idx = np.where(idx < grid.n, idx, idx - n2)  # minimum image on the doubled box
    return idx * grid.h


def _coulomb_kernel(grid: GridSpec) -> np.ndarray:
    d = _displacement_kernel_1d(grid)
    r2 = d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2
    with np.errstate(divide="ignore"):
        k = 1.0 / np.sqrt(r2)
    k[0, 0, 0] = cell_averaged_inv_r(grid.h)
    return k


@lru_cache(maxsize=1)
def _coulomb_kernel_hat(grid: GridSpec) -> np.ndarray:
    """Transform of the doubled-box kernel; a run solves on one grid."""
    k_hat = np.fft.rfftn(_coulomb_kernel(grid))
    k_hat.flags.writeable = False
    return k_hat


def solve_hT_spectral(e: EnergyDensity, grid: GridSpec, consts: PhysicalConstants) -> ScalarFieldX:
    """Free-space solve by zero-padded FFT convolution (see module docstring)."""
    vals = _as_grid_values(e, grid, consts)
    n2 = 2 * grid.n
    padded = np.zeros((n2,) * 3)
    padded[: grid.n, : grid.n, : grid.n] = vals
    conv = np.fft.irfftn(np.fft.rfftn(padded) * _coulomb_kernel_hat(grid),
                         s=(n2,) * 3, axes=(0, 1, 2))
    out = conv[: grid.n, : grid.n, : grid.n] * (consts.kappa / (4.0 * math.pi)) * grid.cell_volume
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
    offsets 0..N-1 (its own table, independent of the spectral kernel), with
    the cell average of 1/r at the origin.  For the target column (x_a, y_b)
    the slab K[|x_a - jx|, |y_b - jy|, :] is contracted over (jx, jy) with
    the source weights, A[jz, r] = sum W[jx, jy, jz] K[.., .., r], and the
    field at z_c is the diagonal sum over jz of A[jz, |z_c - jz|].

    With stride > 1 the field is evaluated on the coarser sub-lattice only
    (every stride-th node per axis); the returned field then lives on
    GridSpec(n // stride, box).
    """
    if grid.n > DIRECT_N_LIMIT:
        raise ValueError(f"direct solver guarded to N <= {DIRECT_N_LIMIT}")
    if grid.n % stride:
        raise ValueError("stride must divide N")
    n = grid.n
    weights = (_as_grid_values(e, grid, consts) * grid.cell_volume).reshape(n * n, n)
    offsets = np.arange(n)
    r2 = offsets[:, None, None] ** 2 + offsets[None, :, None] ** 2 + offsets[None, None, :] ** 2
    with np.errstate(divide="ignore"):
        table = 1.0 / (grid.h * np.sqrt(r2))
    table[0, 0, 0] = cell_averaged_inv_r(grid.h)

    targets = offsets[::stride]
    dist = np.abs(targets[:, None] - offsets[None, :])  # |target - source| per axis
    out = np.empty((len(targets),) * 3)
    for a, dx in enumerate(dist):
        slab_x = table[dx]
        for b, dy in enumerate(dist):
            contracted = weights.T @ slab_x[:, dy].reshape(n * n, n)
            out[a, b] = contracted[offsets, dist].sum(axis=1)
    out *= consts.kappa / (4.0 * math.pi)
    ngrid = GridSpec(grid.n // stride, grid.box) if stride > 1 else grid
    return ScalarFieldX(grid=ngrid, values=out)


def _pair_is_analytic(e: EnergyDensity) -> bool:
    return e.analytic


def coulomb_pair_analytic(e_a: EnergyDensity, e_b: EnergyDensity, consts: PhysicalConstants,
                          grid: GridSpec | None = None) -> float:
    """Closed form of int E_A(x) E_B(y) / |x-y| for Gaussian/point profiles.

    The displacement of two Gaussian clouds is Gaussian with summed
    covariance, so the pair integral is m_A m_B c^4 erf(d / sqrt(2) s) / d
    with s^2 = sigma_A^2 + sigma_B^2 (and the d -> 0 limit for coincident
    centers).
    """
    if not (_pair_is_analytic(e_a) and _pair_is_analytic(e_b)):
        raise ValueError("analytic backend needs point or gaussian profiles")
    sa = effective_sigma(e_a, grid)
    sb = effective_sigma(e_b, grid)
    s = math.sqrt(sa**2 + sb**2)
    d = float(np.linalg.norm(np.subtract(e_a.center, e_b.center)))
    m2c4 = e_a.mass * e_b.mass * consts.c**4
    if d == 0.0:
        return m2c4 * math.sqrt(2.0 / math.pi) / s
    return m2c4 * math.erf(d / (math.sqrt(2.0) * s)) / d


def _sample_profile_points(e: EnergyDensity, n: int, rng: np.random.Generator,
                           grid: GridSpec | None) -> np.ndarray:
    sigma = effective_sigma(e, grid)
    return rng.normal(loc=e.center, scale=sigma, size=(n, 3))


def coulomb_pair_mc(
    e_a: EnergyDensity,
    e_b: EnergyDensity,
    consts: PhysicalConstants,
    samples: int = 1_000_000,
    seed: int = 0,
    grid: GridSpec | None = None,
    batch: int = 1_000_000,
):
    """6-D Monte-Carlo estimate of the Coulomb pair integral with its
    standard error.  Positions are drawn exactly from the (Gaussian)
    profiles, so the estimator is mean of m_A m_B c^4 / |x - y|."""
    if not (_pair_is_analytic(e_a) and _pair_is_analytic(e_b)):
        raise ValueError("mc backend needs point or gaussian profiles")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        xa = _sample_profile_points(e_a, m, rng, grid)
        xb = _sample_profile_points(e_b, m, rng, grid)
        inv = 1.0 / np.linalg.norm(xa - xb, axis=1)
        total += inv.sum()
        total_sq += (inv**2).sum()
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    scale = e_a.mass * e_b.mass * consts.c**4
    return scale * mean, scale * math.sqrt(var / samples)


def _coulomb_potential(e: EnergyDensity, grid: GridSpec, consts: PhysicalConstants) -> np.ndarray:
    """int E(y) / |x - y| on the grid nodes: the spectral h^T without kappa / 4 pi."""
    return solve_hT_spectral(e, grid, consts).values * (4.0 * math.pi / consts.kappa)


def _contract(values: np.ndarray, potential: np.ndarray, grid: GridSpec) -> float:
    return float((values * potential).sum() * grid.cell_volume)


def coulomb_pair_grid(e_a: EnergyDensity, e_b: EnergyDensity, consts: PhysicalConstants,
                      grid: GridSpec) -> float:
    """Grid quadrature: contract E_A with the solved potential of E_B."""
    va = _as_grid_values(e_a, grid, consts)
    return _contract(va, _coulomb_potential(e_b, grid, consts), grid)


def mutual_coulomb(
    e_a: EnergyDensity,
    e_b: EnergyDensity,
    consts: PhysicalConstants,
    backend: str = "auto",
    grid: GridSpec | None = None,
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """int d^3x d^3y E_A(x) E_B(y) / |x - y|, returned as (value, stderr).

    backend: "analytic" (Gaussian/point closed form), "grid" (spectral solve
    plus contraction), "mc" (6-D Monte Carlo), or "auto" which picks the
    closed form when both profiles are analytic and the grid route otherwise.
    stderr is zero for the deterministic backends.
    """
    if backend == "auto":
        backend = "analytic" if (_pair_is_analytic(e_a) and _pair_is_analytic(e_b)) else "grid"
    if backend == "analytic":
        return coulomb_pair_analytic(e_a, e_b, consts, grid), 0.0
    if backend == "mc":
        return coulomb_pair_mc(e_a, e_b, consts, samples=mc_samples, seed=seed, grid=grid)
    if backend == "grid":
        if grid is None:
            raise ValueError("grid backend needs a GridSpec")
        return coulomb_pair_grid(e_a, e_b, consts, grid), 0.0
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class PairIntegrals:
    """Coulomb pair integrals of two density families A and B:
    cross[i, j] = int E_A,i(x) E_B,j(y) / |x - y| with its Monte-Carlo
    standard error (zero on the deterministic backends), and the self
    integral int E(x) E(y) / |x - y| of every density of A and of B."""

    cross: np.ndarray
    stderr: np.ndarray
    self_a: np.ndarray
    self_b: np.ndarray


def pair_integrals(
    dens_a,
    dens_b,
    consts: PhysicalConstants,
    backend: str = "auto",
    grid: GridSpec | None = None,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> PairIntegrals:
    """Every pair integral between and within two density families, each
    computed once.

    "auto" takes the closed form when every density is analytic and the grid
    otherwise, so that all integrals share one quadrature.  The grid backend
    solves one potential per density, holding one at a time; "mc" draws
    independent samples per integral, seeded seed + k with k counting the
    cross block row by row, then the self integrals of A and of B.
    """
    dens_a, dens_b = list(dens_a), list(dens_b)
    n_a, n_b = len(dens_a), len(dens_b)
    if backend == "auto":
        analytic = all(_pair_is_analytic(e) for e in dens_a + dens_b)
        backend = "analytic" if analytic else "grid"
    if backend == "grid":
        if grid is None:
            raise ValueError("grid backend needs a GridSpec")
        # one potential live at a time keeps the peak memory that of one
        # solve; only A's sampled densities are held throughout
        va, self_a, self_b = [], np.empty(n_a), np.empty(n_b)
        cross = np.empty((n_a, n_b))
        for i, e in enumerate(dens_a):
            va.append(_as_grid_values(e, grid, consts))
            self_a[i] = _contract(va[i], _coulomb_potential(e, grid, consts), grid)
        for j, e in enumerate(dens_b):
            pot = _coulomb_potential(e, grid, consts)
            self_b[j] = _contract(_as_grid_values(e, grid, consts), pot, grid)
            cross[:, j] = [_contract(v, pot, grid) for v in va]
        return PairIntegrals(cross, np.zeros((n_a, n_b)), self_a, self_b)

    pairs = ([(x, y) for x in dens_a for y in dens_b]
             + [(e, e) for e in dens_a] + [(e, e) for e in dens_b])
    vals, errs = np.array([
        mutual_coulomb(x, y, consts, backend=backend, grid=grid,
                       mc_samples=mc_samples, seed=seed + k)
        for k, (x, y) in enumerate(pairs)]).T
    m = n_a * n_b
    return PairIntegrals(vals[:m].reshape(n_a, n_b), errs[:m].reshape(n_a, n_b),
                         vals[m:m + n_a], vals[m + n_a:])


def laplacian_residual(field: ScalarFieldX, e: EnergyDensity, consts: PhysicalConstants,
                       margin: int = 3):
    """RMS of the 7-point discrete Laplacian residual del^2 h + kappa E,
    relative to RMS(kappa E), both evaluated away from boundary cells."""
    grid = field.grid
    vals = field.values
    h2 = grid.h**2
    lap = (
        np.roll(vals, 1, 0) + np.roll(vals, -1, 0)
        + np.roll(vals, 1, 1) + np.roll(vals, -1, 1)
        + np.roll(vals, 1, 2) + np.roll(vals, -1, 2)
        - 6.0 * vals
    ) / h2
    src = consts.kappa * _as_grid_values(e, grid, consts)
    sl = slice(margin, grid.n - margin)
    res = lap[sl, sl, sl] + src[sl, sl, sl]
    rms_res = float(np.sqrt((res**2).mean()))
    rms_src = float(np.sqrt((src[sl, sl, sl] ** 2).mean()))
    return rms_res, rms_src
