import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from gravphase.grids import GridSpec, cell_averaged_inv_r, coulomb_kernel_octant
from gravphase.poisson import (
    MC_BLOCK,
    coulomb_pair_analytic,
    coulomb_pair_mc,
    laplacian_residual,
    mutual_coulomb,
    pair_integrals,
    solve_hT_direct,
    solve_hT_spectral,
)
from gravphase.sources import (
    PhysicalConstants,
    effective_sigma,
    gaussian_density,
    grid_density,
    point_density,
    sample_on_grid,
)

CONSTS = PhysicalConstants.natural()
SRC = str(Path(__file__).resolve().parents[1] / "src")
KAPPA = CONSTS.kappa


def smooth_density(grid, seed=1, n_blobs=2):
    """Random mixture of Gaussians, wide enough to be smooth on an N = 32
    box-8 grid (4.6 to 5.2 cells) while still fitting the truncation guard."""
    rng = np.random.default_rng(seed)
    total = np.zeros((grid.n,) * 3)
    for _ in range(n_blobs):
        sigma = rng.uniform(1.15, 1.30)
        center = grid.box / 2 + rng.uniform(-0.04, 0.04, size=3) * grid.box
        mass = rng.uniform(0.5, 1.5)
        total += sample_on_grid(gaussian_density(mass, center, sigma), grid, CONSTS).values
    return grid_density(total, grid.box)


def test_analytic_pair_matches_scipy_erf_closed_form():
    # the closed form is evaluated with math.erf; scipy's erf is the oracle
    rng = np.random.default_rng(4)
    for _ in range(200):
        sa, sb = rng.uniform(0.01, 2.0, size=2)
        ea = gaussian_density(rng.uniform(0.1, 3.0), rng.uniform(-2, 2, size=3), sa)
        eb = gaussian_density(rng.uniform(0.1, 3.0), rng.uniform(-2, 2, size=3), sb)
        d = float(np.linalg.norm(np.subtract(ea.center, eb.center)))
        s = math.sqrt(sa**2 + sb**2)
        want = ea.mass * eb.mass * erf(d / (math.sqrt(2.0) * s)) / d
        got = coulomb_pair_analytic(ea, eb, CONSTS)
        assert abs(got - want) <= 5e-16 * abs(want)


def test_cell_average_constant_against_brute_force():
    # midpoint refinement oracle for the average of 1/r over the unit cube
    n = 200
    xs = (np.arange(n) + 0.5) / n - 0.5
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    brute = float((1.0 / np.sqrt(x**2 + y**2 + z**2)).mean())
    assert abs(cell_averaged_inv_r(1.0) - brute) < 2e-5 * brute
    assert abs(cell_averaged_inv_r(0.5) - 2.0 * cell_averaged_inv_r(1.0)) < 1e-12


def test_cell_average_closed_form_without_scipy_quadrature():
    closed = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0
    for h in (1.0, 0.25, 4.0):  # powers of two scale exactly
        assert cell_averaged_inv_r(h) * h == closed
    # the constant no longer needs scipy's quadrature, whose import was most
    # of the cold start of every process
    probe = "import sys, gravphase.poisson; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


def _direct_pair_loop(e, grid, stride):
    """The oracle as first written: float displacements and one sqrt per
    source-target pair."""
    ax = grid.axes()
    src = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = sample_on_grid(e, grid, CONSTS).values.reshape(-1) * grid.cell_volume
    tax = ax[::stride]
    targets = np.stack(np.meshgrid(tax, tax, tax, indexing="ij"), axis=-1).reshape(-1, 3)
    out = np.empty(len(targets))
    for i, t in enumerate(targets):
        total = 0.0
        for s, w in zip(src, weights):
            r = math.sqrt(((t - s) ** 2).sum())
            total += w * (1.0 / r if r > 0.0 else cell_averaged_inv_r(grid.h))
        out[i] = total
    m = grid.n // stride
    return out.reshape((m,) * 3) * KAPPA / (4.0 * math.pi)


@pytest.mark.parametrize("stride", [1, 2])
def test_direct_matches_pair_loop(stride):
    grid = GridSpec(8, 3.0)
    rng = np.random.default_rng(20 + stride)
    e = grid_density(rng.uniform(0.0, 1.0, (8, 8, 8)), grid.box)
    got = solve_hT_direct(e, grid, CONSTS, stride=stride).values
    ref = _direct_pair_loop(e, grid, stride)
    assert got.shape == ref.shape == (8 // stride,) * 3
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_zero_density_zero_field():
    grid = GridSpec(16, 8.0)
    e = grid_density(np.zeros((16, 16, 16)), 8.0)
    assert np.all(solve_hT_spectral(e, grid, CONSTS).values == 0.0)


def test_point_far_field():
    grid = GridSpec(32, 8.0)
    m = 1.0
    e = point_density(m, (4.0, 4.0, 4.0))
    h = solve_hT_spectral(e, grid, CONSTS)
    r = 2.0  # box / 4
    i = int((4.0 + r) / grid.h)
    predicted = KAPPA * m * CONSTS.c**2 / (4 * np.pi * r)
    assert abs(h.values[i, 16, 16] / predicted - 1.0) < 0.02


def test_gaussian_profile_matches_erf_closed_form():
    grid = GridSpec(32, 8.0)
    m, sigma = 1.0, 0.5
    h = solve_hT_spectral(gaussian_density(m, (4.0, 4.0, 4.0), sigma), grid, CONSTS)
    for r in (0.75, 1.25, 2.0, 2.5):
        i = int(round((4.0 + r) / grid.h))
        rr = i * grid.h - 4.0
        predicted = KAPPA * m / (4 * np.pi * rr) * erf(rr / (np.sqrt(2) * sigma))
        assert abs(h.values[i, 16, 16] / predicted - 1.0) < 0.02


def test_backends_agree_on_random_density():
    grid = GridSpec(16, 8.0)
    e = smooth_density(grid, seed=3)
    spectral = solve_hT_spectral(e, grid, CONSTS)
    direct = solve_hT_direct(e, grid, CONSTS)
    dev = np.abs(spectral.values - direct.values).max() / np.abs(direct.values).max()
    assert dev < 0.01


def test_direct_stride_subsampling():
    grid = GridSpec(16, 8.0)
    e = smooth_density(grid, seed=4)
    full = solve_hT_direct(e, grid, CONSTS)
    strided = solve_hT_direct(e, grid, CONSTS, stride=2)
    np.testing.assert_allclose(strided.values, full.values[::2, ::2, ::2], rtol=1e-12)
    with pytest.raises(ValueError):
        solve_hT_direct(e, GridSpec(64, 8.0), CONSTS)


def test_cached_kernel_never_serves_another_grid():
    grids = [GridSpec(16, 8.0), GridSpec(16, 4.0), GridSpec(16, 8.0)]
    e = gaussian_density(1.0, (2.0, 2.0, 2.0), 0.4)  # fits both boxes
    # each reference solve builds its kernel on a grid object of its own
    fresh = {g: solve_hT_spectral(e, GridSpec(g.n, g.box), CONSTS).values for g in grids[:2]}
    for grid in grids + grids:  # the second pass reads every grid's built kernel
        np.testing.assert_array_equal(solve_hT_spectral(e, grid, CONSTS).values, fresh[grid])


def _kernel_reference(grid):
    """The doubled-box kernel as first written: 1/r of the signed minimum-image
    displacement over all (2N)^3 offsets, cell average at the origin."""
    n2 = 2 * grid.n
    idx = np.arange(n2)
    d = np.where(idx < grid.n, idx, idx - n2) * grid.h
    r2 = d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2
    with np.errstate(divide="ignore"):
        k = 1.0 / np.sqrt(r2)
    k[0, 0, 0] = cell_averaged_inv_r(grid.h)
    return k


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_octant_kernel_is_bit_identical_to_the_full_formula(n):
    # offsets i and 2N - i share |d|: the octant mirrored is the full kernel
    mirror = np.r_[0:n + 1, n - 1:0:-1]
    octant = coulomb_kernel_octant(GridSpec(n, 4.0))
    np.testing.assert_array_equal(octant[np.ix_(mirror, mirror, mirror)],
                                  _kernel_reference(GridSpec(n, 4.0)))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_real_kernel_spectrum_is_the_real_part_of_the_full_transform(n):
    # the doubled-box kernel is even in every axis, so its transform is real:
    # the reference's imaginary part is rounding noise, and the table built
    # from the octant agrees with its real part to a few ulps of the largest
    # entry (measured <= 0.11 eps)
    grid = GridSpec(n, 4.0)
    ref = np.fft.rfftn(_kernel_reference(grid))
    table = grid.coulomb_kernel_hat
    scale = np.abs(ref.real).max()
    assert table.dtype == np.float64 and table.shape == ref.shape == (2 * n, 2 * n, n + 1)
    assert np.abs(ref.imag).max() <= 1e-16 * scale
    assert np.abs(table - ref.real).max() <= 8 * np.finfo(float).eps * scale


def _spectral_reference(e, grid):
    """The spectral solve as first written: the density zero-padded into the
    doubled box, rfftn, times the grid's kernel spectrum, irfftn, cropped."""
    n, n2 = grid.n, 2 * grid.n
    padded = np.zeros((n2,) * 3)
    padded[:n, :n, :n] = sample_on_grid(e, grid, CONSTS).values
    conv = np.fft.irfftn(np.fft.rfftn(padded) * grid.coulomb_kernel_hat,
                         s=(n2,) * 3, axes=(0, 1, 2))
    return conv[:n, :n, :n] * (KAPPA / (4.0 * math.pi)) * grid.cell_volume


@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_pruned_spectral_solve_is_bit_identical_to_the_padded_transform(n):
    # the transforms run axis by axis in rfftn/irfftn's order; another order
    # differs in the last bits, so the comparison is exact
    grid = GridSpec(n, 4.0)
    e = gaussian_density(1.0, (1.3, 2.2, 1.9), 0.4)  # off-centre in every axis
    got = solve_hT_spectral(e, grid, CONSTS).values
    assert np.array_equal(got, _spectral_reference(e, grid))


def test_spectral_solve_peak_memory_is_two_spectra():
    n = 64
    grid = GridSpec(n, 4.0)
    e = gaussian_density(1.0, (1.3, 2.2, 1.9), 0.4)
    solve_hT_spectral(e, grid, CONSTS)  # builds the grid's kernel spectrum
    tracemalloc.start()
    try:
        solve_hT_spectral(e, grid, CONSTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most the doubled-box product (inverted along axis 0 in place) and
    # its axis-1 inverse, half as tall, live at once, plus the density; 64 KiB
    # covers the transforms' line buffers
    spectrum = (2 * n) ** 2 * (n + 1) * 16
    assert peak <= spectrum + spectrum // 2 + n**3 * 8 + 2**16, peak


def test_laplacian_residual_small():
    grid = GridSpec(32, 8.0)
    e = smooth_density(grid, seed=5)
    h = solve_hT_spectral(e, grid, CONSTS)
    rms_res, rms_src = laplacian_residual(h, e, CONSTS)
    assert rms_res < 0.01 * rms_src


def test_translation_covariance():
    # free-space solve: shifting a compactly supported density by one cell
    # shifts the field by one cell exactly on every node except the column
    # that enters from outside the box (free space is not periodic there)
    grid = GridSpec(16, 8.0)
    vals = smooth_density(grid, seed=6).values.copy()
    vals[-2:, :, :] = 0.0  # make the shift an exact translation, no wrap
    e = grid_density(vals, grid.box)
    h = solve_hT_spectral(e, grid, CONSTS)
    shifted = grid_density(np.roll(e.values, 1, axis=0), grid.box)
    h_shifted = solve_hT_spectral(shifted, grid, CONSTS)
    np.testing.assert_allclose(h_shifted.values[1:], h.values[:-1], rtol=1e-12)


def test_linearity_and_positivity():
    grid = GridSpec(16, 8.0)
    e1 = smooth_density(grid, seed=7)
    e2 = smooth_density(grid, seed=8)
    h1 = solve_hT_spectral(e1, grid, CONSTS).values
    h2 = solve_hT_spectral(e2, grid, CONSTS).values
    combo = grid_density(2.0 * e1.values + 0.5 * e2.values, grid.box)
    h = solve_hT_spectral(combo, grid, CONSTS).values
    np.testing.assert_allclose(h, 2.0 * h1 + 0.5 * h2, rtol=1e-10)
    assert np.all(h1 > 0.0)


def test_mutual_coulomb_point_pair():
    d = 2.0
    a = point_density(1.0, (3.0, 4.0, 4.0), sigma_reg=0.05)
    b = point_density(1.5, (5.0, 4.0, 4.0), sigma_reg=0.05)
    val, err = mutual_coulomb(a, b, CONSTS)
    assert err == 0.0
    assert abs(val - 1.0 * 1.5 * CONSTS.c**4 / d) < 0.02 * val


def test_mutual_coulomb_zero_and_symmetry():
    grid = GridSpec(16, 8.0)
    zero = grid_density(np.zeros((16,) * 3), 8.0)
    e = smooth_density(grid, seed=9)
    val, _ = mutual_coulomb(e, zero, CONSTS, backend="grid", grid=grid)
    assert val == 0.0
    e2 = smooth_density(grid, seed=10)
    ab, _ = mutual_coulomb(e, e2, CONSTS, backend="grid", grid=grid)
    ba, _ = mutual_coulomb(e2, e, CONSTS, backend="grid", grid=grid)
    assert ab == ba


def test_grid_backend_against_closed_form():
    grid = GridSpec(32, 8.0)
    a = gaussian_density(1.0, (3.2, 4.0, 4.0), 0.5)
    b = gaussian_density(0.8, (4.8, 4.0, 4.0), 0.4)
    exact = coulomb_pair_analytic(a, b, CONSTS)
    approx, _ = mutual_coulomb(a, b, CONSTS, backend="grid", grid=grid)
    assert abs(approx / exact - 1.0) < 0.01


def test_mc_oracle_narrow_gaussians_approach_point_pair():
    d = 2.0
    sigma = 0.1
    a = gaussian_density(1.0, (3.0, 4.0, 4.0), sigma)
    b = gaussian_density(1.0, (5.0, 4.0, 4.0), sigma)
    val, err = mutual_coulomb(a, b, CONSTS, backend="mc", mc_samples=2_000_000, seed=42)
    assert err > 0.0
    point = CONSTS.c**4 / d
    # spherical non-overlapping clouds: correction is tail overlap, tiny here
    assert abs(val - point) < max(3.0 * err, 1e-4 * point)
    exact = coulomb_pair_analytic(a, b, CONSTS)
    assert abs(val - exact) < 4.0 * err


def test_pair_integrals_match_the_single_pair_backends():
    grid = GridSpec(16, 8.0)
    dens_a = [gaussian_density(1.0, (3.0, 4.0, 4.0), 0.6), smooth_density(grid, seed=11)]
    dens_b = [gaussian_density(0.5, (5.0, 4.0, 4.0), 0.5)]
    pairs = pair_integrals(dens_a, dens_b, CONSTS, grid=grid)  # auto: one non-analytic -> grid
    for i, e in enumerate(dens_a):
        assert pairs.cross[i, 0] == mutual_coulomb(e, dens_b[0], CONSTS, backend="grid", grid=grid)[0]
        assert pairs.self_a[i] == mutual_coulomb(e, e, CONSTS, backend="grid", grid=grid)[0]
    assert pairs.self_b[0] == mutual_coulomb(dens_b[0], dens_b[0], CONSTS, backend="grid", grid=grid)[0]
    assert not pairs.stderr.any()

    # mc: seed + k, k counting the cross block row by row, then the self integrals
    gauss = [gaussian_density(1.0, (0.3 * k, 0.0, 0.0), 0.2 + 0.1 * k) for k in range(3)]
    mc = pair_integrals(gauss[:2], gauss[2:], CONSTS, backend="mc", mc_samples=500, seed=3)
    order = [(gauss[0], gauss[2]), (gauss[1], gauss[2]), (gauss[0], gauss[0]),
             (gauss[1], gauss[1]), (gauss[2], gauss[2])]
    got = [mc.cross[0, 0], mc.cross[1, 0], *mc.self_a, *mc.self_b]
    for k, ((x, y), value) in enumerate(zip(order, got)):
        assert value == mutual_coulomb(x, y, CONSTS, backend="mc", mc_samples=500, seed=3 + k)[0]
    assert np.all(mc.stderr > 0.0)
    with pytest.raises(ValueError, match="GridSpec"):
        pair_integrals([dens_a[1]], [], CONSTS)


def _mc_reference(e_a, e_b, samples, seed, grid=None):
    """The Monte-Carlo pair integral as first written: per block of 10^6
    samples, broadcast normal draws for A then B, the row norm and two sums."""
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    for start in range(0, samples, 1_000_000):
        m = min(1_000_000, samples - start)
        xa = rng.normal(loc=e_a.center, scale=effective_sigma(e_a, grid), size=(m, 3))
        xb = rng.normal(loc=e_b.center, scale=effective_sigma(e_b, grid), size=(m, 3))
        inv = 1.0 / np.linalg.norm(xa - xb, axis=1)
        total += inv.sum()
        total_sq += (inv**2).sum()
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    scale = e_a.mass * e_b.mass * CONSTS.c**4
    return scale * mean, scale * math.sqrt(var / samples)


_MC_PAIRS = {
    "gaussians": (gaussian_density(1.0, (0.1, 0.2, -0.3), 0.3),
                  gaussian_density(0.7, (1.1, 0.0, 0.2), 0.5), None),
    "point-width-from-grid": (point_density(1.3, (2.0, 2.0, 2.0)),
                              gaussian_density(0.7, (3.0, 2.1, 2.0), 0.4), GridSpec(32, 4.0)),
    "coincident-centres": (gaussian_density(1.0, (1.0, 1.0, 1.0), 0.3),
                           point_density(2.0, (1.0, 1.0, 1.0), sigma_reg=0.2), None),
}


@pytest.mark.parametrize("pair", sorted(_MC_PAIRS))
def test_mc_kernel_is_bit_identical_to_the_reference(pair):
    # the streamed kernel draws the same numbers and sums them in the same
    # order, so values and stderr are equal, not close; the counts straddle
    # the B chunk (65 536 rows) and the block (MC_BLOCK)
    e_a, e_b, grid = _MC_PAIRS[pair]
    for samples in (2, 7, 65_536, 65_537, 1_000_000, 1_000_001):
        got = coulomb_pair_mc(e_a, e_b, CONSTS, samples=samples, seed=samples % 5, grid=grid)
        assert got == _mc_reference(e_a, e_b, samples, samples % 5, grid), samples


def test_mc_kernel_peak_memory_is_one_block():
    e_a, e_b, _ = _MC_PAIRS["gaussians"]
    for samples in (1_000_000, 2_500_000):
        tracemalloc.start()
        try:
            coulomb_pair_mc(e_a, e_b, CONSTS, samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5 doubles per sample of one block; the kernel holds ~4.5
        assert peak <= 40 * min(samples, MC_BLOCK), (samples, peak)


@pytest.mark.parametrize("samples", [0, 1])
def test_mc_kernel_refuses_fewer_than_two_samples(samples):
    # one draw has a variance estimate of 0, which would claim an exact value
    e_a, e_b, _ = _MC_PAIRS["gaussians"]
    with pytest.raises(ValueError, match="at least 2 samples"):
        coulomb_pair_mc(e_a, e_b, CONSTS, samples=samples)


@pytest.mark.parametrize("cpus", [1, 4])
def test_mc_pair_integrals_do_not_depend_on_the_thread_count(cpus, monkeypatch):
    import concurrent.futures

    workers = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    dens_a = [gaussian_density(1.0, (0.3 * k, 0.0, 0.1), 0.2 + 0.1 * k) for k in range(2)]
    dens_b = [gaussian_density(0.5, (1.0, 0.2 * k, 0.0), 0.3) for k in range(3)]
    got = pair_integrals(dens_a, dens_b, CONSTS, backend="mc", mc_samples=3000, seed=7)
    assert workers == [cpus]
    # seed + k: k counts the cross block row by row, then A's and B's self integrals
    k = 7
    for i, x in enumerate(dens_a):
        for j, y in enumerate(dens_b):
            assert (got.cross[i, j], got.stderr[i, j]) == coulomb_pair_mc(
                x, y, CONSTS, samples=3000, seed=k)
            k += 1
    for own, family in ((got.self_a, dens_a), (got.self_b, dens_b)):
        for value, e in zip(own, family):
            assert value == coulomb_pair_mc(e, e, CONSTS, samples=3000, seed=k)[0]
            k += 1


def test_mc_pair_integral_errors_reach_the_caller():
    e_a, e_b, _ = _MC_PAIRS["gaussians"]
    with pytest.raises(ValueError, match="at least 2 samples"):
        pair_integrals([e_a], [e_b], CONSTS, backend="mc", mc_samples=1)


def test_grid_pair_integrals_sample_each_density_once(monkeypatch):
    from gravphase import poisson

    sampled = []
    real = poisson.sample_on_grid

    def recording(e, grid, consts):
        sampled.append(e.kind)
        return real(e, grid, consts)

    monkeypatch.setattr(poisson, "sample_on_grid", recording)
    grid = GridSpec(16, 6.0)
    dens_a = [gaussian_density(1.0, (2.5 + 0.4 * k, 3.0, 3.0), 0.5) for k in range(2)]
    dens_b = [gaussian_density(0.7, (3.5, 3.0 - 0.3 * k, 3.0), 0.6) for k in range(2)]
    got = pair_integrals(dens_a, dens_b, CONSTS, backend="grid", grid=grid)
    # one sampling per density and no solve, so no grid density is sampled
    assert sampled.count("gaussian") == 4 and sampled.count("grid") == 0
    monkeypatch.setattr(poisson, "sample_on_grid", real)

    def pair(x, y):  # position space: E_A contracted with the solved potential of E_B
        pot = solve_hT_spectral(y, grid, CONSTS).values * (4.0 * math.pi / KAPPA)
        return float((sample_on_grid(x, grid, CONSTS).values * pot).sum() * grid.cell_volume)

    # the same quadrature summed in another order: equal to rounding
    want = [[pair(x, y) for y in dens_b] for x in dens_a]
    np.testing.assert_allclose(got.cross, want, rtol=1e-14, atol=0)
    np.testing.assert_allclose(got.self_a, [pair(x, x) for x in dens_a], rtol=1e-14, atol=0)
    np.testing.assert_allclose(got.self_b, [pair(y, y) for y in dens_b], rtol=1e-14, atol=0)


def test_swapping_the_families_transposes_the_grid_pair_integrals():
    # a few random spikes per density spread the sums evenly over the modes,
    # so that an asymmetric product such as (K a) b shows in the last bits
    grid = GridSpec(16, 8.0)
    rng = np.random.default_rng(12)
    spikes = []
    for _ in range(3):
        values = np.zeros((16,) * 3)
        values.flat[rng.choice(values.size, 5, replace=False)] = rng.uniform(0.5, 1.5, 5)
        spikes.append(grid_density(values, grid.box))
    dens_a = [spikes[0], gaussian_density(1.0, (3.0, 4.0, 4.5), 0.6)]
    dens_b = [gaussian_density(0.5, (5.0, 4.0, 4.0), 0.5), spikes[1], spikes[2]]
    ab = pair_integrals(dens_a, dens_b, CONSTS, backend="grid", grid=grid)
    ba = pair_integrals(dens_b, dens_a, CONSTS, backend="grid", grid=grid)
    assert np.array_equal(ba.cross, ab.cross.T)
    assert np.array_equal(ba.self_a, ab.self_b) and np.array_equal(ba.self_b, ab.self_a)


def test_grid_pair_integrals_peak_memory_is_the_stages_and_one_plane():
    n = 64
    grid = GridSpec(n, 6.0)
    dens_a = [gaussian_density(0.7, (1.65 + dx, 3.0, 3.0), 0.3) for dx in (0.0, 0.7)]
    dens_b = [gaussian_density(0.7, (3.65 + dx, 3.0, 3.0), 0.3) for dx in (0.0, 0.7)]
    grid.coulomb_kernel_hat  # built once per grid, not part of the call
    tracemalloc.start()
    try:
        pair_integrals(dens_a, dens_b, CONSTS, backend="grid", grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the four axis-2 stages, (N, N, N+1) complex each, and the work of one
    # k2 plane: the four (2N, 2N) complex slab transforms, at most three live
    # temporaries of the sums, each the four cross products (two planes'
    # worth), and two planes for the transform's intermediate and buffers
    # (measured 19.9 MB)
    stage, plane = n * n * (n + 1) * 16, (2 * n) ** 2 * 16
    assert peak <= 4 * stage + (4 + 3 * 2 + 2) * plane, peak


@pytest.mark.parametrize("backend", ["auto", "analytic", "grid", "mc"])
def test_empty_density_families_give_empty_pair_integrals(backend):
    got = pair_integrals([], [], CONSTS, backend=backend, grid=GridSpec(8, 6.0))
    assert [a.shape for a in (got.cross, got.stderr, got.self_a, got.self_b)] == \
        [(0, 0), (0, 0), (0,), (0,)]
    assert all(a.dtype == np.float64 for a in (got.cross, got.stderr, got.self_a, got.self_b))


def test_pair_integrals_refuse_an_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend 'fmm'"):
        pair_integrals([], [], CONSTS, backend="fmm")
