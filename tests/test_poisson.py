import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from gravphase.grids import GridSpec, cell_averaged_inv_r, coulomb_kernel_octant
from gravphase.poisson import (
    MC_CHUNK,
    _cpu_count,
    _run_workers,
    coulomb_pair_analytic,
    coulomb_pair_mc,
    laplacian_residual,
    mutual_coulomb,
    pair_integrals,
    solve_hT_direct,
    solve_hT_spectral,
)
from gravphase.sources import (
    POINT_SIGMA_CELLS,
    PhysicalConstants,
    gaussian_density,
    grid_density,
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


def _direct_reference(e, grid, stride):
    """The oracle's per-column loop on one thread, with two gathers of the
    folded offset table per column: the reference of the sliced, threaded
    solve, whose arithmetic is the same."""
    n = grid.n
    weights = (sample_on_grid(e, grid, CONSTS).values * grid.cell_volume).reshape(n * n, n)
    offsets = np.arange(n)
    r2 = offsets[:, None, None] ** 2 + offsets[None, :, None] ** 2 + offsets[None, None, :] ** 2
    with np.errstate(divide="ignore"):
        table = 1.0 / (grid.h * np.sqrt(r2))
    table[0, 0, 0] = cell_averaged_inv_r(grid.h)
    targets = offsets[::stride]
    dist = np.abs(targets[:, None] - offsets[None, :])
    out = np.empty((len(targets),) * 3)
    for a, dx in enumerate(dist):
        slab_x = table[dx]
        for b, dy in enumerate(dist):
            contracted = weights.T @ slab_x[:, dy].reshape(n * n, n)
            out[a, b] = contracted[offsets, dist].sum(axis=1)
    return out * (CONSTS.kappa / (4.0 * math.pi))


def _random_grid_density(n, shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (n,) * 3)
    if shape == "sparse":
        values *= rng.uniform(size=values.shape) < 0.1
    elif shape == "peaked":
        values **= 8
    return values


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_direct_equals_its_reference_loop_on_every_stride_and_thread_count(n, monkeypatch):
    # the same table entries, matrix products and diagonal sums as the
    # single-threaded gather loop, so the field is equal, not close; a mask
    # of 3 CPUs splits the target planes unevenly
    grid = GridSpec(n, 3.0 + n / 7)
    for stride in [s for s in range(1, n) if n % s == 0 and n // s >= 2]:
        for shape in ("uniform", "sparse", "peaked"):
            e = grid_density(_random_grid_density(n, shape, n + stride), grid.box)
            want = _direct_reference(e, grid, stride)
            for cpus in (1, 2, 3, 4):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)),
                                    raising=False)
                got = solve_hT_direct(e, grid, CONSTS, stride=stride).values
                assert np.array_equal(got, want), (stride, shape, cpus)


def test_direct_peak_memory_is_the_table_and_one_slab_per_worker(monkeypatch):
    # the unfolded 1/r table, the weights and the returned field, plus per
    # worker one slab and one contracted block, N^3 + N^2 doubles; besides
    # them under 16 kB per worker (its thread, its diagonal gather of
    # (N / stride) x N doubles and the index temporaries) and 64 kB in all.
    # Batching a plane's columns into one product would hold N / stride
    # slabs per worker instead
    n = 32
    grid = GridSpec(n, 4.0)
    e = grid_density(_random_grid_density(n, "uniform", 3), grid.box)
    solve_hT_direct(e, grid, CONSTS, stride=2)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)),
                            raising=False)
        for stride in (1, 2):
            tracemalloc.start()
            try:
                solve_hT_direct(e, grid, CONSTS, stride=stride)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            shared = 8 * ((2 * n - 1) ** 2 * n + n**3 + (n // stride) ** 3)
            bound = shared + cpus * (8 * (n**3 + n**2) + 16 * 1024) + 64 * 1024
            assert peak <= bound, (cpus, stride, peak, bound)


def test_a_worker_error_reaches_the_caller_after_every_thread_joined(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    before = threading.active_count()
    done, raising = [], threading.Event()

    def work(w, n_w):
        if w == 2:
            raising.set()
            raise ValueError(f"worker {w} of {n_w}")
        if w == 0:  # the caller finishes its own share only once worker 2 failed
            assert raising.wait(timeout=10)
        if w == 3:  # still running then: the error must wait for it
            time.sleep(0.2)
        done.append(w)

    with pytest.raises(ValueError, match="worker 2 of 4"):
        _run_workers(work, 7)
    assert threading.active_count() == before
    assert sorted(done) == [0, 1, 3]
    assert hooked == []


def test_zero_density_zero_field():
    grid = GridSpec(16, 8.0)
    e = grid_density(np.zeros((16, 16, 16)), 8.0)
    assert np.all(solve_hT_spectral(e, grid, CONSTS).values == 0.0)


def test_point_far_field():
    grid = GridSpec(32, 8.0)
    m = 1.0
    e = gaussian_density(m, (4.0, 4.0, 4.0), POINT_SIGMA_CELLS * grid.h)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 8, 16]), box=st.floats(0.5, 10.0),
       shape=st.sampled_from(["uniform", "sparse", "peaked"]), seed=st.integers(0, 2**32 - 1))
def test_backends_agree_on_random_density(n, box, shape, seed):
    # both solvers take the same discrete quadrature of a non-negative
    # density, so they differ by rounding only.  Bound, in units of eps/2 of
    # the largest value: log2(2N) per length-2N transform of the spectral
    # solve, three forward, three inverse and three for the kernel spectrum,
    # and three more for the product and the two rescales; the direct sum's
    # matrix product over N^2 source columns and its diagonal sum over N
    # nodes, whose terms are all non-negative
    grid = GridSpec(n, box)
    e = grid_density(_random_grid_density(n, shape, seed), box)
    spectral = solve_hT_spectral(e, grid, CONSTS).values
    direct = solve_hT_direct(e, grid, CONSTS).values
    tol = (9 * math.log2(2 * n) + 3 + n * n + n) * np.finfo(float).eps / 2
    assert tol <= 1e-13
    assert np.abs(spectral - direct).max() <= tol * np.abs(direct).max()


def test_direct_stride_subsampling():
    grid = GridSpec(16, 8.0)
    e = smooth_density(grid, seed=4)
    full = solve_hT_direct(e, grid, CONSTS)
    strided = solve_hT_direct(e, grid, CONSTS, stride=2)
    np.testing.assert_allclose(strided.values, full.values[::2, ::2, ::2], rtol=1e-12)


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
    a = gaussian_density(1.0, (3.0, 4.0, 4.0), 0.05)
    b = gaussian_density(1.5, (5.0, 4.0, 4.0), 0.05)
    val, err = mutual_coulomb(a, b, CONSTS)
    assert err == 0.0
    assert abs(val - 1.0 * 1.5 * CONSTS.c**4 / d) < 0.02 * val


def test_mutual_coulomb_zero_and_symmetry():
    # off-node centres and unequal widths, so that an asymmetric sum would
    # show in the last bits
    grid = GridSpec(16, 8.0)
    zero = gaussian_density(0.0, (4.0, 4.0, 4.0), 0.6)
    e = gaussian_density(1.2, (3.7, 4.1, 4.3), 0.9)
    val, _ = mutual_coulomb(e, zero, CONSTS, backend="grid", grid=grid)
    assert val == 0.0
    e2 = gaussian_density(0.8, (4.6, 3.9, 4.2), 1.1)
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


def _cross_and_self(dens_a, dens_b):
    """Both families as one list, and the pair list of `compare_models`:
    the cross block row by row, then the self integral of every density."""
    n_a, n = len(dens_a), len(dens_a) + len(dens_b)
    cross = [(i, j) for i in range(n_a) for j in range(n_a, n)]
    return [*dens_a, *dens_b], cross + [(k, k) for k in range(n)]


def test_pair_integrals_match_the_single_pair_backends():
    grid = GridSpec(16, 8.0)
    dens, pairs = _cross_and_self(
        [gaussian_density(1.0, (3.0, 4.0, 4.0), 0.6),
         gaussian_density(0.9, (4.2, 3.6, 4.1), 0.3)],
        [gaussian_density(0.5, (5.0, 4.0, 4.0), 0.5)])
    val, err = pair_integrals(dens, pairs, CONSTS, backend="grid", grid=grid)
    for value, (i, j) in zip(val, pairs, strict=True):
        assert value == mutual_coulomb(dens[i], dens[j], CONSTS, backend="grid", grid=grid)[0]
    assert not err.any()
    # auto is the closed form, and needs no grid
    auto, closed = (pair_integrals(dens, pairs, CONSTS, backend=b)[0] for b in ("auto", "analytic"))
    assert np.array_equal(auto, closed)

    # mc: every entry equals its own 1 x 1 call, stderr included
    gauss = [gaussian_density(1.0, (0.3 * k, 0.0, 0.0), 0.2 + 0.1 * k) for k in range(3)]
    val, err = pair_integrals(gauss, pairs, CONSTS, backend="mc", mc_samples=500, seed=3)
    for value, stderr, (i, j) in zip(val, err, pairs, strict=True):
        assert (value, stderr) == mutual_coulomb(gauss[i], gauss[j], CONSTS, backend="mc",
                                                 mc_samples=500, seed=3)
    assert np.all(err > 0.0)
    with pytest.raises(ValueError, match="GridSpec"):
        pair_integrals([dens[1]], [], CONSTS, backend="grid")


def _mc_reference(e_a, e_b, samples, seed):
    """One Monte-Carlo pair integral as a plain loop over the stream: per
    chunk of MC_CHUNK samples, normals drawn as (axis, sample) from the two
    children of SeedSequence([seed, chunk]), scaled and shifted into A's and
    B's positions, then the norm and two sums."""
    total = total_sq = 0.0
    for c, start in enumerate(range(0, samples, MC_CHUNK)):
        rows = min(MC_CHUNK, samples - start)
        gen_x, gen_y = (np.random.default_rng(s) for s in np.random.SeedSequence([seed, c]).spawn(2))
        x = gen_x.standard_normal((3, rows)) * e_a.sigma + np.reshape(e_a.center, (3, 1))
        y = gen_y.standard_normal((3, rows)) * e_b.sigma + np.reshape(e_b.center, (3, 1))
        inv = 1.0 / np.linalg.norm(x - y, axis=0)
        total += inv.sum()
        total_sq += (inv**2).sum()
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    scale = e_a.mass * e_b.mass * CONSTS.c**4
    return scale * mean, scale * math.sqrt(var / samples)


_MC_PAIRS = {
    "gaussians": (gaussian_density(1.0, (0.1, 0.2, -0.3), 0.3),
                  gaussian_density(0.7, (1.1, 0.0, 0.2), 0.5)),
    "coincident-centres": (gaussian_density(1.0, (1.0, 1.0, 1.0), 0.3),
                           gaussian_density(2.0, (1.0, 1.0, 1.0), 0.2)),
}


@pytest.mark.parametrize("pair", sorted(_MC_PAIRS))
def test_mc_kernel_is_bit_identical_to_the_reference(pair):
    # the kernel draws the same numbers and sums them in the same order, so
    # values and stderr are equal, not close; the counts straddle MC_CHUNK
    e_a, e_b = _MC_PAIRS[pair]
    for samples in (2, 7, MC_CHUNK, MC_CHUNK + 1, 100_001):
        seed = samples % 5
        val, err = coulomb_pair_mc([e_a, e_b], [(0, 1), (0, 0), (1, 1)], CONSTS,
                                   samples=samples, seed=seed)
        assert (val[0], err[0]) == _mc_reference(e_a, e_b, samples, seed), samples
        assert val[1] == _mc_reference(e_a, e_a, samples, seed)[0], samples
        assert val[2] == _mc_reference(e_b, e_b, samples, seed)[0], samples


def _ladder_shaped_family():
    """14 densities and the pair list of a phase-compare run with a 4-rung
    ladder: two branches per source, the cross block and the self
    integrals, then the point pair at min(ladder) / 4 and one equal-width
    pair per rung."""
    ladder = (0.2, 0.1, 0.05, 0.025)
    c_a, c_b = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.1, -0.2])
    family = [gaussian_density(1.0, c_a + (0.0, 0.3 * k, 0.0), 0.1) for k in range(2)]
    family += [gaussian_density(0.8, c_b + (0.0, 0.3 * k, 0.0), 0.1) for k in range(2)]
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3)] + [(k, k) for k in range(4)]
    for s in (min(ladder) / 4, *ladder):
        pairs.append((len(family), len(family) + 1))
        family += [gaussian_density(1.0, c_a, s), gaussian_density(0.8, c_b, s)]
    return family, pairs


@pytest.mark.parametrize("samples", [2, MC_CHUNK, MC_CHUNK + 1, 4 * MC_CHUNK + 1])
def test_mc_kernel_is_the_reference_on_any_pair_list_and_thread_count(samples, monkeypatch):
    # the kernel builds each x side once per first index and visits the
    # pairs sorted, but stores each result at its own place: an unsorted
    # list with repeats, both orders of a pair and self pairs gives, entry
    # by entry, the plain loop's value and stderr on every affinity mask
    family, pairs = _ladder_shaped_family()
    pairs = pairs + [(j, i) for i, j in pairs[:4]] + [(13, 12), (4, 5), (0, 2), (6, 6), (5, 0)]
    pairs = [pairs[p] for p in np.random.default_rng(8).permutation(len(pairs))]
    want = {(i, j): _mc_reference(family[i], family[j], samples, 5) for i, j in set(pairs)}
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        val, err = coulomb_pair_mc(family, pairs, CONSTS, samples=samples, seed=5)
        for value, stderr, pair in zip(val, err, pairs, strict=True):
            assert (value, stderr) == want[pair], (cpus, pair)


def test_mc_kernel_peak_memory_is_bounded_per_worker():
    e_a, e_b = _MC_PAIRS["gaussians"]
    for family, pairs in (([e_a, e_b], [(0, 1), (0, 0), (1, 1)]), _ladder_shaped_family()):
        coulomb_pair_mc(family, pairs, CONSTS, samples=2)  # imports the pool and the generator
        for samples in (1_000_000, 2_500_000):
            tracemalloc.start()
            try:
                coulomb_pair_mc(family, pairs, CONSTS, samples=samples, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # per worker, one chunk's doubles per sample whatever the family
            # size: the two draws (6), one x side (3), the displacement (3)
            # and 1/r (1); besides them only the partial sums and the pool's
            # bookkeeping, under 1 kB per chunk, and each worker's thread and
            # generators, under 16 kB
            n_chunks = -(-samples // MC_CHUNK)
            bound = _cpu_count() * (13 * 8 * MC_CHUNK + 16 * 1024) + n_chunks * 1024
            assert peak <= bound, (len(family), samples, peak)


@pytest.mark.parametrize("samples", [0, 1])
def test_mc_kernel_refuses_fewer_than_two_samples(samples):
    # one draw has a variance estimate of 0, which would claim an exact value
    e_a, e_b = _MC_PAIRS["gaussians"]
    with pytest.raises(ValueError, match="at least 2 samples"):
        coulomb_pair_mc([e_a, e_b], [(0, 1)], CONSTS, samples=samples)


@pytest.mark.parametrize("backend", ["auto", "analytic", "grid", "mc"])
def test_pair_integrals_refuse_a_grid_density(backend):
    # one rule on every backend, checked before any integral
    e_a, _ = _MC_PAIRS["gaussians"]
    lumpy = grid_density(np.ones((4, 4, 4)), 2.0)
    kw = dict(backend=backend, grid=GridSpec(4, 2.0), mc_samples=10)
    with pytest.raises(ValueError, match="^pair integrals need point or gaussian profiles$"):
        pair_integrals([e_a, lumpy], [(0, 1)], CONSTS, **kw)
    with pytest.raises(ValueError, match="^pair integrals need point or gaussian profiles$"):
        mutual_coulomb(lumpy, e_a, CONSTS, **kw)


@pytest.mark.parametrize("cpus", [1, 4])
def test_mc_pair_integrals_do_not_depend_on_the_thread_count(cpus, monkeypatch):
    # the chunks' partial sums are added in chunk order whatever thread ran
    # them, so every affinity mask gives the arrays of the plain per-pair loop
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(threading, "Thread", Recording)
    dens_a = [gaussian_density(1.0, (0.3 * k, 0.0, 0.1), 0.2 + 0.1 * k) for k in range(2)]
    dens_b = [gaussian_density(0.5, (1.0, 0.2 * k, 0.0), 0.3) for k in range(3)]
    samples = 4 * MC_CHUNK + 1  # five chunks, more than either mask's CPUs
    dens, pairs = _cross_and_self(dens_a, dens_b)
    val, err = pair_integrals(dens, pairs, CONSTS, backend="mc", mc_samples=samples, seed=7)
    assert len(started) == cpus - 1  # worker 0 runs on the calling thread
    assert not any(thread.is_alive() for thread in started)
    want = [_mc_reference(dens[i], dens[j], samples, 7) for i, j in pairs]
    assert np.array_equal(val, [v for v, _ in want])
    assert np.array_equal(err, [e for _, e in want])


def test_mc_pair_integral_errors_reach_the_caller():
    e_a, e_b = _MC_PAIRS["gaussians"]
    with pytest.raises(ValueError, match="at least 2 samples"):
        pair_integrals([e_a, e_b], [(0, 1)], CONSTS, backend="mc", mc_samples=1)


_GAUSSIAN = st.builds(gaussian_density, st.floats(0.5, 2.0),
                      st.tuples(*[st.floats(0.0, 2.0)] * 3), st.floats(0.2, 1.0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(dens_a=st.lists(_GAUSSIAN, min_size=1, max_size=3),
       dens_b=st.lists(_GAUSSIAN, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_mc_pair_integrals_agree_with_the_closed_form(dens_a, dens_b, seed):
    # every entry, cross and self, is an unbiased estimate with its own
    # standard error, although all of them read the same sample stream
    dens, pairs = _cross_and_self(dens_a, dens_b)
    got, err = pair_integrals(dens, pairs, CONSTS, backend="mc", mc_samples=3000, seed=seed)
    exact, _ = pair_integrals(dens, pairs, CONSTS, backend="analytic")
    assert np.all(np.abs(got - exact) <= 5.0 * err)


# Relative error of the grid quadrature against the closed form, per
# (h / sigma)^2 with sigma the narrower width of the pair: measured on the
# width ladder sigma / h = 2, 2.5, 3, 4, 6, 8 (N = 128, h = 1, six random
# sub-cell centres per width, partners 0 to 3 sigma away at 1, 1.5 and 2.5
# times the width, every centre 5 widths or more inside the box, cross and
# self entries) as 0.0175, 0.0178, 0.0179, 0.0180, 0.0181, 0.0182.
GRID_H2_RATE = 0.0183
_FUZZ_GRIDS = {n: GridSpec(n, 8.0) for n in (16, 32, 64)}


@st.composite
def _grid_family(draw):
    """A grid and 1-3 Gaussians per side, each at least 2 cells wide and at
    most 8, with its +-3 sigma cube inside the box (the 6 sigma guard)."""
    grid = _FUZZ_GRIDS[draw(st.sampled_from(sorted(_FUZZ_GRIDS)))]
    h, box = grid.h, grid.box
    sigma_max = min(8.0 * h, np.nextafter(box / 6.0, 0.0))

    def gaussian():
        sigma = draw(st.floats(2.0 * h, sigma_max))
        lo, hi = 3.0 * sigma - h / 2, box - h / 2 - 3.0 * sigma
        center = [draw(st.floats(lo, hi)) for _ in range(3)]
        return gaussian_density(draw(st.floats(0.5, 2.0)), center, sigma)

    families = [[gaussian() for _ in range(draw(st.integers(1, 3)))] for _ in range(2)]
    return grid, *families


def _lost_mass(e, grid):
    """Share of a Gaussian's mass outside the cells of the grid, which
    sample_on_grid's renormalisation puts back onto the cells."""
    phi = NormalDist(0.0, e.sigma).cdf
    kept = math.prod(phi(grid.box - grid.h / 2 - c) - phi(-grid.h / 2 - c) for c in e.center)
    return 1.0 - kept


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_grid_family())
def test_grid_pair_integrals_agree_with_the_closed_form(family):
    # O(h^2) from the measured rate, plus the truncated tails: renormalising
    # a Gaussian that lost a share tau of its mass moves it by 2 tau m c^2 in
    # L1, and the other density's potential is at most m' c^2 sqrt(2/pi)/sigma'
    grid, dens_a, dens_b = family
    dens, pairs = _cross_and_self(dens_a, dens_b)
    got, _ = pair_integrals(dens, pairs, CONSTS, backend="grid", grid=grid)
    exact, _ = pair_integrals(dens, pairs, CONSTS, backend="analytic")

    def bound(x, y, value):
        rate = GRID_H2_RATE * (grid.h / min(x.sigma, y.sigma)) ** 2 * value
        tails = _lost_mass(x, grid) / y.sigma + _lost_mass(y, grid) / x.sigma
        return rate + 2.0 * math.sqrt(2.0 / math.pi) * x.mass * y.mass * CONSTS.c**4 * tails

    for value, closed, (i, j) in zip(got, exact, pairs, strict=True):
        assert abs(value - closed) <= bound(dens[i], dens[j], closed)


def test_grid_pair_integrals_sample_each_density_once(monkeypatch):
    from gravphase import poisson

    sampled = []
    real = poisson.sample_on_grid

    def recording(e, grid, consts):
        sampled.append(e)
        return real(e, grid, consts)

    monkeypatch.setattr(poisson, "sample_on_grid", recording)
    grid = GridSpec(16, 6.0)
    dens_a = [gaussian_density(1.0, (2.5 + 0.4 * k, 3.0, 3.0), 0.5) for k in range(2)]
    dens_b = [gaussian_density(0.7, (3.5, 3.0 - 0.3 * k, 3.0), 0.6) for k in range(2)]
    dens, pairs = _cross_and_self(dens_a, dens_b)
    got, _ = pair_integrals(dens, pairs, CONSTS, backend="grid", grid=grid)
    # the separable sum: no sampling, no transform, no kernel spectrum
    assert sampled == [] and "coulomb_kernel_hat" not in vars(grid)
    monkeypatch.setattr(poisson, "sample_on_grid", real)
    # the same quadrature summed in another order: equal to rounding
    np.testing.assert_allclose(got, _spectral_pair_integrals(dens, pairs, grid)[0], rtol=1e-14,
                               atol=0)


_SEPARABLE_FAMILIES = {
    # phase-grid's geometry: 2 x 2 branches 0.7 apart, sources 2.0 apart
    "phase-grid": (GridSpec(64, 6.0),
                   [gaussian_density(1.0, (1.65 + dx, 3.0, 3.0), 0.3) for dx in (0.0, 0.7)],
                   [gaussian_density(1.0, (3.65 + dx, 3.05, 2.9), 0.3) for dx in (0.0, 0.7)]),
    "mixed-widths": (GridSpec(32, 8.0),
                     [gaussian_density(1.3, (3.1, 4.4, 2.9), 0.6),
                      gaussian_density(0.4, (5.2, 3.3, 4.1),
                                       POINT_SIGMA_CELLS * GridSpec(32, 8.0).h)],
                     [gaussian_density(0.8, (4.0, 4.0, 4.0), 1.1)]),
    "wide-and-narrow": (GridSpec(16, 8.0),
                        [gaussian_density(1.0, (3.6, 4.3, 4.0), 1.2)],
                        [gaussian_density(2.0, (4.5, 3.8, 4.2), 1.0),
                         gaussian_density(0.5, (3.0, 5.0, 3.4), 1.25)]),
}


def _spectral_pair_integrals(dens, pairs, grid):
    """The Hockney sum of each pair by the spectral solve: each sampled
    density contracted with the other's `solve_hT_spectral` potential,
    rescaled by 4 pi / kappa, the two orders averaged; and the largest value
    of each density's potential phi = 4 pi h^T / kappa."""
    rho = [sample_on_grid(e, grid, CONSTS).values for e in dens]
    pot = [solve_hT_spectral(e, grid, CONSTS).values for e in dens]
    sums = [0.5 * ((rho[i] * pot[j]).sum() + (rho[j] * pot[i]).sum())
            * grid.cell_volume * (4.0 * math.pi / KAPPA) for i, j in pairs]
    return np.array(sums), [p.max() * (4.0 * math.pi / KAPPA) for p in pot]


@pytest.mark.parametrize("name", sorted(_SEPARABLE_FAMILIES))
def test_separable_sum_equals_the_spectral_solve_route(name):
    # the same quadrature summed two ways: the separable lattice sum, and
    # each density contracted with the other's spectral potential.
    # Rounding bound, in units of eps/2.  Both sides read the same unit-sum
    # axis factors (the sampling is their outer product), so their roundings
    # cancel.  On the spectral side: the sampling's outer product (2) and its
    # scale m c^2 / h^3 and that scale's product (4), for each of the two
    # densities; log2(2N) for each of the three forward and three inverse
    # transforms of length 2N and the three of the kernel spectrum; the
    # contraction sum (pairwise, log2 N^3 + 8); and the rescales by
    # kappa h^3 / 4 pi, h^3 4 pi / kappa and the average (8).  On the
    # separable side: the correlations (N) and the three contractions
    # (N + 1 each).  A transform's roundings are relative to the potential's
    # largest value, so an entry's scale is m_i max phi_j (and the same with
    # i and j swapped, averaged), which bounds the entry itself
    grid, dens_a, dens_b = _SEPARABLE_FAMILIES[name]
    n = grid.n
    terms = 2 * 6 + 9 * math.log2(2 * n) + (3 * math.log2(n) + 8) + 8 + n + 3 * (n + 1)
    tol = terms * np.finfo(float).eps / 2
    dens, pairs = _cross_and_self(dens_a, dens_b)
    sep, _ = pair_integrals(dens, pairs, CONSTS, backend="grid", grid=grid)
    spec, peaks = _spectral_pair_integrals(dens, pairs, grid)
    m = [e.mass * CONSTS.c**2 for e in dens]
    scale = np.array([0.5 * (m[i] * peaks[j] + peaks[i] * m[j]) for i, j in pairs])
    assert np.all(np.abs(sep - spec) <= tol * scale)


def test_a_centre_far_outside_the_box_raises_on_both_grid_paths():
    # the pair list and the one-pair call
    grid = GridSpec(16, 8.0)
    inside = gaussian_density(1.0, (4.0, 4.0, 4.0), 0.6)
    far = gaussian_density(1.0, (4.0, 4.0, 1e4), 0.6)
    with pytest.raises(ValueError, match="no support on the grid"):
        pair_integrals(*_cross_and_self([far], [inside]), CONSTS, backend="grid", grid=grid)
    with pytest.raises(ValueError, match="no support on the grid"):
        mutual_coulomb(inside, far, CONSTS, backend="grid", grid=grid)


def test_swapping_the_families_transposes_the_grid_pair_integrals():
    # each (i, j) against its (j, i): the transpose of the cross block.
    # Gaussians at off-node centres with unequal widths spread the sums, so
    # that an asymmetric sum shows in the last bits
    grid = GridSpec(16, 8.0)
    rng = np.random.default_rng(12)
    blobs = [gaussian_density(rng.uniform(0.5, 1.5), rng.uniform(3.0, 5.0, 3), rng.uniform(0.5, 1.2))
             for _ in range(3)]
    dens_a = [blobs[0], gaussian_density(1.0, (3.0, 4.0, 4.5), 0.6)]
    dens_b = [gaussian_density(0.5, (5.0, 4.0, 4.0), 0.5), blobs[1], blobs[2]]
    family, pairs = _cross_and_self(dens_a, dens_b)
    ab, _ = pair_integrals(family, pairs, CONSTS, backend="grid", grid=grid)
    ba, _ = pair_integrals(family, [(j, i) for i, j in pairs], CONSTS, backend="grid", grid=grid)
    assert np.array_equal(ba, ab)


def _phase_grid_family():
    dens_a = [gaussian_density(0.7, (1.65 + dx, 3.0, 3.0), 0.3) for dx in (0.0, 0.7)]
    dens_b = [gaussian_density(0.7, (3.65 + dx, 3.0, 3.0), 0.3) for dx in (0.0, 0.7)]
    return dens_a, dens_b


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_separable_pair_integrals_peak_memory_is_the_octant_and_planes_of_it():
    n = 64
    grid = GridSpec(n, 6.0)
    dens_a, dens_b = _phase_grid_family()
    peak = _traced_peak(lambda: pair_integrals(*_cross_and_self(dens_a, dens_b), CONSTS,
                                               backend="grid", grid=grid))
    # the grid's octant table, built in place on first use; per integral,
    # the (N+1)^2 partial contraction and O(N) lag sums; 128 KiB for numpy's
    # ufunc buffers (64 KiB) and the call's bookkeeping.  No (N, N, N)
    # density, stage or spectrum (measured 2.36 MB).
    octant, plane = (n + 1) ** 3 * 8, (n + 1) ** 2 * 8
    assert peak <= octant + 2 * plane + 2**17, peak
    assert "coulomb_kernel_hat" not in vars(grid)
    # with the octant built, what remains is per-integral work only
    # (measured 44 kB)
    peak = _traced_peak(lambda: pair_integrals(*_cross_and_self(dens_a, dens_b), CONSTS,
                                               backend="grid", grid=grid))
    assert peak <= 2 * plane + 2**16, peak


@pytest.mark.parametrize("backend", ["auto", "analytic", "grid", "mc"])
def test_empty_density_families_give_empty_pair_integrals(backend):
    got = pair_integrals([], [], CONSTS, backend=backend, grid=GridSpec(8, 6.0))
    assert [a.shape for a in got] == [(0,), (0,)]
    assert all(a.dtype == np.float64 for a in got)


def test_pair_integrals_refuse_an_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend 'fmm'"):
        pair_integrals([], [], CONSTS, backend="fmm")
    e = gaussian_density(1.0, (3.0, 3.0, 3.0), 0.5)
    with pytest.raises(ValueError, match="unknown backend 'fmm'"):
        mutual_coulomb(e, e, CONSTS, backend="fmm")


def test_both_pair_entry_points_need_a_grid_for_the_grid_backend():
    e = gaussian_density(1.0, (3.0, 3.0, 3.0), 0.5)
    with pytest.raises(ValueError, match="grid backend needs a GridSpec"):
        pair_integrals([e, e], [(0, 1)], CONSTS, backend="grid")
    with pytest.raises(ValueError, match="grid backend needs a GridSpec"):
        mutual_coulomb(e, e, CONSTS, backend="grid")
