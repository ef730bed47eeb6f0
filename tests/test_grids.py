import numpy as np
import pytest

from gravphase.grids import GridSpec, coulomb_kernel_octant
from gravphase.poisson import solve_hT_spectral
from gravphase.sources import PhysicalConstants, gaussian_density

TABLES = ("k_magnitude", "coulomb_octant", "coulomb_kernel_hat")


@pytest.mark.parametrize("name", TABLES)
def test_each_table_is_built_once_and_read_only(name):
    grid = GridSpec(8, 4.0)
    table = getattr(grid, name)
    assert getattr(grid, name) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        table += 1


def test_built_tables_leave_equality_and_hash_alone():
    built, bare = GridSpec(8, 4.0), GridSpec(8, 4.0)
    for name in TABLES:
        getattr(built, name)
    assert built == bare and hash(built) == hash(bare)
    assert {bare: "table"}[built] == "table"
    assert built != GridSpec(8, 2.0)


def test_a_grid_that_only_solves_keeps_no_octant():
    # the kernel spectrum is built from an octant of its own, which is freed
    # (17.2 MB at N = 128); the table is the same either way
    grid = GridSpec(16, 8.0)
    solve_hT_spectral(gaussian_density(1.0, (4.0, 4.0, 4.0), 1.0), grid,
                      PhysicalConstants.natural())
    assert "coulomb_kernel_hat" in vars(grid) and "coulomb_octant" not in vars(grid)
    assert np.array_equal(grid.coulomb_octant, coulomb_kernel_octant(grid))


@pytest.mark.parametrize("box", [1.0, 8.0, 0.013, 1e5])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_k_magnitude_equals_the_lattice_norm(n, box):
    grid = GridSpec(n, box)
    k = grid.k_axis()
    lattice = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1)
    assert np.array_equal(grid.k_magnitude, np.sqrt((lattice**2).sum(axis=-1)))


@pytest.mark.parametrize("box", [1.0, 8.0, 0.013, 1e5, 3.7])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 256])
def test_the_folded_axis_is_the_non_negative_half_of_the_fft_axis(n, box):
    # indices 0..n/2 of the FFT layout, the Nyquist one at -pi/h
    grid = GridSpec(n, box)
    k = grid.k_axis()
    assert k[n // 2] < 0.0
    assert np.array_equal(grid.k_folded(), np.abs(k[:n // 2 + 1]))
