import numpy as np
import pytest

from gravphase.grids import GridSpec
from gravphase.gridio import load_scalar_grid, save_scalar_grid
from gravphase.sources import (
    POINT_SIGMA_CELLS,
    EnergyDensity,
    PhysicalConstants,
    QuantumSourceState,
    axis_profiles,
    gaussian_density,
    sample_on_grid,
    source_overlap,
)

CONSTS = PhysicalConstants.natural()


def _mass(e, grid):
    """int E d^3x / c^2 of a sampled density."""
    return float(e.values.sum() * grid.cell_volume / CONSTS.c**2)


def test_constants_kappa_consistent():
    c = PhysicalConstants.si()
    assert abs(c.kappa - 16 * np.pi * c.G / c.c**4) <= 1e-15 * c.kappa
    with pytest.raises(ValueError):
        PhysicalConstants(G=0.0, c=1.0, hbar=1.0)


def test_rescaled_constants_set_c_to_one():
    si = PhysicalConstants.si()
    scaled = si.rescaled(length_scale=1e-6, mass_scale=1e-14)
    assert scaled.c == 1.0
    assert scaled.G > 0 and scaled.hbar > 0


def test_gaussian_sampling_mass_exact():
    grid = GridSpec(32, 8.0)
    e = gaussian_density(1.3, (4.0, 4.0, 4.0), 0.5)
    g = sample_on_grid(e, grid, CONSTS)
    assert abs(_mass(g, grid) - 1.3) < 1e-9 * 1.3


def test_point_profile_dominant_cell():
    grid = GridSpec(16, 8.0)
    e = gaussian_density(2.0, (4.0, 4.0, 4.0), 0.15)
    g = sample_on_grid(e, grid, CONSTS)
    assert abs(_mass(g, grid) - 2.0) < 1e-12 * 2.0
    assert g.values.max() * grid.cell_volume > 0.5 * g.values.sum() * grid.cell_volume


def test_refinement_study():
    e = gaussian_density(1.0, (4.0, 4.0, 4.0), 0.9)
    coarse = sample_on_grid(e, GridSpec(16, 8.0), CONSTS)
    fine = sample_on_grid(e, GridSpec(32, 8.0), CONSTS)
    on_coarse_nodes = fine.values[::2, ::2, ::2]
    diff = np.abs(coarse.values - on_coarse_nodes).max() / coarse.values.max()
    assert diff < 0.01


def test_profile_truncation_guard():
    # both builders share one guard: too wide for the box, or no support
    for build in (lambda e, g: sample_on_grid(e, g, CONSTS), axis_profiles):
        with pytest.raises(ValueError, match="box 8.0 must exceed 6 sigma"):
            build(gaussian_density(1.0, (4.0, 4.0, 4.0), 2.0), GridSpec(16, 8.0))
        with pytest.raises(ValueError, match="no support on the grid"):
            build(gaussian_density(1.0, (4.0, -1e4, 4.0), 0.5), GridSpec(16, 8.0))


@pytest.mark.parametrize("e", [gaussian_density(1.3, (3.1, 4.4, 2.2), 0.7),
                               gaussian_density(0.6, (5.0, 2.5, 4.0),
                                                POINT_SIGMA_CELLS * GridSpec(32, 8.0).h)])
def test_axis_profiles_factor_the_sampled_density(e):
    # sample_on_grid's density is m c^2 / h^3 times the outer product of the
    # unit-sum axis factors, built in the same order bit for bit
    grid = GridSpec(32, 8.0)
    g = axis_profiles(e, grid)
    assert g.shape == (3, 32) and np.all(np.abs(g.sum(axis=1) - 1.0) <= 1e-15)
    want = g[0][:, None, None] * g[1][:, None] * g[2]
    want *= e.mass * CONSTS.c**2 / grid.cell_volume
    np.testing.assert_array_equal(sample_on_grid(e, grid, CONSTS).values, want)


def test_total_mass_grid_refinement_invariance():
    e = gaussian_density(1.0, (4.0, 4.0, 4.0), 0.8)
    g16, g32 = GridSpec(16, 8.0), GridSpec(32, 8.0)
    m16 = _mass(sample_on_grid(e, g16, CONSTS), g16)
    m32 = _mass(sample_on_grid(e, g32, CONSTS), g32)
    assert abs(m16 - m32) < 1e-3  # renormalisation pins both to the same mass


def _state(amps, indices):
    amps = np.asarray(amps, dtype=complex)
    dens = [gaussian_density(1.0, (2.0 + i, 2.0, 2.0), 0.3) for i in indices]
    return QuantumSourceState(amplitudes=amps, densities=dens, indices=indices)


def test_overlap_examples():
    psi = _state([1.0], (0,))
    assert source_overlap(psi, psi) == 1.0
    phi = _state([1.0], (5,))
    assert source_overlap(psi, phi) == 0.0
    s = 1 / np.sqrt(2)
    sup = _state([s, s], (0, 1))
    e1 = _state([1.0], (0,))
    assert abs(source_overlap(sup, e1) - s) < 1e-15


def test_overlap_conjugate_symmetry_and_bound():
    rng = np.random.default_rng(9)
    for _ in range(50):
        ka = rng.integers(1, 5)
        kb = rng.integers(1, 5)
        ia = tuple(sorted(rng.choice(6, size=ka, replace=False)))
        ib = tuple(sorted(rng.choice(6, size=kb, replace=False)))
        aa = rng.normal(size=ka) + 1j * rng.normal(size=ka)
        ab = rng.normal(size=kb) + 1j * rng.normal(size=kb)
        psi = _state(aa / np.linalg.norm(aa), ia)
        phi = _state(ab / np.linalg.norm(ab), ib)
        o1 = source_overlap(psi, phi)
        o2 = source_overlap(phi, psi)
        assert abs(o1 - np.conj(o2)) < 1e-14
        assert abs(o1) <= 1.0 + 1e-12


def test_state_validation():
    for amps in ([1.0, 1.0], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="normalised"):
            _state(amps, (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        _state([1 / np.sqrt(2), 1 / np.sqrt(2)], (0, 0))
    with pytest.raises(ValueError, match="non-empty"):
        QuantumSourceState(amplitudes=[], densities=[], indices=())
    # a component's density: a Gaussian with a finite center and a width > 0
    for center in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite center"):
            gaussian_density(1.0, center, 0.1)
    with pytest.raises(ValueError, match="sigma > 0"):
        gaussian_density(1.0, (0.0, 0.0, 0.0), 0.0)
    # or a grid: a point is a Gaussian of its regularisation width, no kind of its own
    with pytest.raises(ValueError, match="unknown profile kind 'point'"):
        EnergyDensity(kind="point", mass=1.0, center=(0.0, 0.0, 0.0), sigma=0.1)


def test_gridio_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    vals = rng.random((8, 8, 8))
    path = tmp_path / "field.f64"
    save_scalar_grid(path, vals, 4.0, units="test", mass=1.5)
    back, box, header = load_scalar_grid(path)
    np.testing.assert_array_equal(back, vals)
    assert box == 4.0
    assert header["mass"] == 1.5
    assert header["order"] == "x-fastest"


def test_gridio_x_fastest_layout(tmp_path):
    vals = np.zeros((2, 2, 2))
    vals[1, 0, 0] = 7.0  # x index 1 -> second scalar in the flat payload
    path = tmp_path / "tiny.f64"
    save_scalar_grid(path, vals, 1.0)
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    assert raw[1] == 7.0 and raw[0] == 0.0
