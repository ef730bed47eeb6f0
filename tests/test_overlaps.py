import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravphase import overlaps, scenarios
from gravphase.config import get_preset
from gravphase.grids import GridSpec
from gravphase.overlaps import (
    analytic_point_amplitudes,
    build_field_state,
    exact_joint_overlap,
    semiclassical_overlap,
)
from gravphase.sources import (
    PhysicalConstants,
    QuantumSourceState,
    gaussian_density,
    grid_density,
    sample_on_grid,
    source_overlap,
)

CONSTS = PhysicalConstants.natural()
GRID = GridSpec(16, 8.0)
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _k_lattice(grid):
    """The (n, n, n, 3) wavevectors in FFT layout: the oracle's lattice,
    which the package never forms."""
    k = grid.k_axis()
    return np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1)


def test_build_field_state_zero_source():
    shift = build_field_state(gaussian_density(0.0, (4, 4, 4), 0.4), CONSTS, GRID)
    assert np.all(shift == 0.0)


def test_shift_linearity_in_source():
    s1 = build_field_state(gaussian_density(1.0, (4, 4, 4), 0.4), CONSTS, GRID)
    s2 = build_field_state(gaussian_density(2.0, (4, 4, 4), 0.4), CONSTS, GRID)
    np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12, atol=1e-15)


def test_fft_shift_theorem_for_displaced_source():
    # displace by an exact number of cells so the sampled profiles coincide
    cells = 3
    eps = cells * GRID.h
    s0 = build_field_state(gaussian_density(1.0, (3.0, 4, 4), 0.4), CONSTS, GRID)
    s1 = build_field_state(gaussian_density(1.0, (3.0 + eps, 4, 4), 0.4), CONSTS, GRID)
    kx = _k_lattice(GRID)[..., 0].reshape(-1)[1:]  # every mode but k = 0
    expected = s0.reshape(-1)[1:] * np.exp(-1j * kx * eps)
    scale = np.abs(s0).max()
    np.testing.assert_allclose(s1.reshape(-1)[1:], expected, rtol=1e-10, atol=1e-12 * scale)


def _state(amps, indices, grid=GRID):
    dens = [gaussian_density(1.0, (2.0 + 0.5 * i, 3.0, 4.0), 0.3 + 0.03 * i) for i in indices]
    return QuantumSourceState(amplitudes=amps, densities=dens, indices=indices)


def test_exact_joint_overlap_identities():
    s2 = 1 / np.sqrt(2)
    psi = _state([s2, s2], (0, 1))
    assert abs(exact_joint_overlap(psi, psi, GRID, CONSTS) - 1.0) < 1e-12
    phi = _state([1.0], (4,))
    assert exact_joint_overlap(psi, phi, GRID, CONSTS) == 0.0


def test_exact_joint_overlap_equals_source_overlap_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ka, kb = rng.integers(1, 4), rng.integers(1, 4)
        ia = tuple(sorted(rng.choice(5, size=ka, replace=False)))
        ib = tuple(sorted(rng.choice(5, size=kb, replace=False)))
        aa = rng.normal(size=ka) + 1j * rng.normal(size=ka)
        ab = rng.normal(size=kb) + 1j * rng.normal(size=kb)
        psi = _state(aa / np.linalg.norm(aa), ia)
        phi = _state(ab / np.linalg.norm(ab), ib)
        joint = exact_joint_overlap(psi, phi, GRID, CONSTS)
        bare = source_overlap(psi, phi)
        assert abs(joint - bare) < 1e-12


def test_exact_joint_overlap_rejects_inconsistent_index():
    psi = _state([1.0], (0,))
    other = QuantumSourceState(amplitudes=[1.0],
                               densities=[gaussian_density(1.0, (5.0, 5.0, 5.0), 0.5)],
                               indices=(0,))
    with pytest.raises(ValueError, match="inconsistent"):
        exact_joint_overlap(psi, other, GRID, CONSTS)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_exact_joint_overlap_builds_only_shared_indices(monkeypatch):
    calls = _counting(monkeypatch, overlaps, "build_field_state")
    s3 = 1 / np.sqrt(3)
    psi = _state([s3, s3, s3], (0, 1, 2))
    phi = _state([0.6, 0.8], (1, 3))
    joint = exact_joint_overlap(psi, phi, GRID, CONSTS)
    assert joint == source_overlap(psi, phi)
    # index 1 on each side carries one density, so one field state serves
    # both; indices 0, 2 and 3 meet a zero matter factor
    assert psi.densities[1] == phi.densities[0]
    assert [args[0] for args in calls] == [psi.densities[1]]

    calls.clear()
    other = QuantumSourceState(
        amplitudes=[0.6, 0.8], indices=(1, 3),
        densities=[gaussian_density(1.0, (5.0, 5.0, 5.0), 0.5), phi.densities[1]])
    with pytest.raises(ValueError, match="eigenstate index 1 carries inconsistent"):
        exact_joint_overlap(psi, other, GRID, CONSTS)
    assert len(calls) == 2


def test_overlap_sweep_builds_one_field_state_per_density(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, overlaps, "build_field_state")
    cfg = get_preset("semiclassical-overlap")
    report = scenarios.run_scenario(cfg, tmp_path)["result"]
    assert report["state_pairs_checked"] == cfg["overlap"]["state_pairs"] == 20
    keys = {(dens, grid) for dens, _, grid in calls}
    assert 0 < len(calls) == len(keys) <= 4


def test_exact_joint_overlap_pairs_sequences_and_keys_grid_profiles_by_identity(monkeypatch):
    calls = _counting(monkeypatch, overlaps, "build_field_state")
    s2 = 1 / np.sqrt(2)
    sampled = sample_on_grid(gaussian_density(1.0, (4.0, 4.0, 4.0), 0.5), GRID, CONSTS)
    twin = grid_density(sampled.values.copy(), GRID.box)
    a = QuantumSourceState(amplitudes=[s2, s2], densities=[sampled, sampled], indices=(0, 1))
    b = QuantumSourceState(amplitudes=[s2, -s2], densities=[twin, sampled], indices=(0, 1))
    joint = exact_joint_overlap([a, a, b], [b, a, b], GRID, CONSTS)
    assert joint.dtype == complex and joint.shape == (3,)
    assert list(joint) == [source_overlap(a, b), source_overlap(a, a), source_overlap(b, b)]
    # equal values, two objects: two field states, checked against each other
    assert len(calls) == 2 and calls[0][0] is sampled and calls[1][0] is twin
    assert exact_joint_overlap([], [], GRID, CONSTS).shape == (0,)
    with pytest.raises(ValueError, match="equal numbers of states"):
        exact_joint_overlap([a, b], [a], GRID, CONSTS)


def test_semiclassical_trivial_and_guards():
    pos = (4.0, 4.0, 4.0)
    log_ov = semiclassical_overlap(pos, (0.0, 0.0, 0.0), 1.0, GRID, CONSTS)
    assert overlaps.overlap_from_log(log_ov) == 1.0
    with pytest.raises(ValueError, match="width"):
        semiclassical_overlap(pos, (0.5, 0, 0), 0.0, GRID, CONSTS)
    with pytest.raises(ValueError, match="box"):
        semiclassical_overlap((7.9, 4, 4), (0.5, 0, 0), 1.0, GRID, CONSTS)
    with pytest.raises(ValueError, match="box"):
        semiclassical_overlap((0.1, 4, 4), (-0.5, 0, 0), 1.0, GRID, CONSTS)
    with pytest.raises(ValueError, match="box"):
        semiclassical_overlap(pos, [(0.5, 0, 0), (0, 0, -4.5)], 1.0, GRID, CONSTS)


@pytest.mark.parametrize("w", [[1.0, 0.0, 2.0], [3.0, -0.5], [[1.0, 2.0]]])
def test_semiclassical_refuses_width_arrays_with_a_non_positive_entry(w):
    with pytest.raises(ValueError, match="width"):
        semiclassical_overlap((4.0, 4.0, 4.0), [(0.5, 0, 0), (0, 0.5, 0)], w, GRID, CONSTS)


def _masked_reference(grid):
    """The boolean mask of every mode but k = 0, as the overlaps once
    gathered and scattered through it."""
    mask = np.ones((grid.n,) * 3, dtype=bool)
    mask[0, 0, 0] = False
    return mask


def _masked_point_amplitudes(mass, sigma, grid):
    """The closed form on every lattice mode, |k|^2 summed from the lattice
    components in the order the octant sums its axes."""
    kvec, mask = _k_lattice(grid), _masked_reference(grid)
    k2 = (kvec[..., 0] ** 2 + kvec[..., 1] ** 2 + kvec[..., 2] ** 2)[mask]
    out = np.zeros((grid.n,) * 3)
    out[mask] = CONSTS.kappa * mass * CONSTS.c**2 * np.exp(-0.5 * sigma**2 * k2) / k2
    return out


def _masked_field_state(e, grid):
    ek = np.fft.fftn(sample_on_grid(e, grid, CONSTS).values) * grid.cell_volume
    kmag, mask = grid.k_magnitude, _masked_reference(grid)
    hk = np.zeros_like(ek)
    hk[mask] = CONSTS.kappa * ek[mask] / kmag[mask] ** 2
    return hk / (2.0 * CONSTS.hbar)


def _lattice_mode_sums(eps, grid, mass, sigma):
    """S(eps) = sum over k != 0 of 2 h^2(k) (1 - cos k.eps), one cosine per
    lattice mode, and the bound within which the folded contraction must
    agree with it.

    The bound is the unit roundoff times sum_k 2 h^2(k) times the rounding
    steps each form takes; the amplitudes are equal bit for bit (tested), so
    only the mode factor and the sums differ.  The lattice form sums terms
    of at most 2 sum_k 2 h^2 pairwise, log2(n^3) + 6 roundings deep with its
    cosine counted as 4.  The folded form sums six products of folded
    factors (|u| <= 2, |c|, |s| <= 1 per signed mode, at most 9 sum_k 2 h^2
    in all) through three nested dot products of n/2 + 1 terms, 3 (n/2 + 1)
    + 16 roundings deep with each sine and cosine counted as 4.  The phase
    k.eps carries 3 roundings on the lattice and 1 per axis when folded,
    and 1 - cos moves by at most the phase error.
    """
    hk2 = _masked_point_amplitudes(mass, sigma, grid) ** 2
    kvec = _k_lattice(grid)
    m = grid.n // 2 + 1
    steps = 2.0 * (math.log2(grid.n**3) + 6) + 9.0 * (3 * m + 16)
    sums, bounds = [], []
    for e in np.asarray(eps, float).reshape(-1, 3):
        sums.append((2.0 * (1.0 - np.cos(kvec @ e)) * hk2).sum())
        bounds.append(UNIT_ROUNDOFF * (2.0 * hk2 * (steps + 4.0 * np.abs(kvec * e).sum(-1))).sum())
    return np.array(sums), np.array(bounds)


def _lattice_log_overlaps(eps, ws, grid, mass, sigma_reg, matter_width):
    """The log overlaps of the lattice mode sums, shape (len(eps), len(ws)),
    and their bound: the mode sum's over 4 w^2, plus a few roundings of the
    division and the matter term."""
    eps = np.asarray(eps, float).reshape(-1, 3)
    sums, bounds = _lattice_mode_sums(eps, grid, mass, sigma_reg)
    four_w2 = 4.0 * np.asarray(ws, float) ** 2
    log_overlap = -(sums[:, None] / four_w2)
    if matter_width is not None:
        log_overlap -= ((eps**2).sum(-1) / (8.0 * matter_width**2))[:, None]
    return log_overlap, bounds[:, None] / four_w2 + 8 * UNIT_ROUNDOFF * np.abs(log_overlap)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_the_flat_k0_slice_equals_the_masked_forms(n):
    # k = 0 is element 0 of the flattened FFT-layout lattice, so reading
    # `.reshape(-1)[1:]` gives the masked gathers and scatters bit for bit;
    # the point amplitudes are its octant, which unfolds onto every mode
    rng = np.random.default_rng(n)
    grid = GridSpec(n, float(rng.uniform(0.5, 20.0)))
    fold = np.minimum(np.arange(n), n - np.arange(n))
    for _ in range(3):
        mass, sigma = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.01, 2.0)) * grid.h
        octant = analytic_point_amplitudes(mass, sigma, grid, CONSTS)
        assert octant.shape == (n // 2 + 1,) * 3
        assert np.array_equal(octant[np.ix_(fold, fold, fold)],
                              _masked_point_amplitudes(mass, sigma, grid))
        e = grid_density(rng.exponential(size=(n,) * 3), grid.box)
        assert np.array_equal(build_field_state(e, CONSTS, grid), _masked_field_state(e, grid))
        pos = rng.uniform(0.3, 0.7, 3) * grid.box
        eps = rng.uniform(-0.3, 0.3, (4, 3)) * grid.box
        ws = rng.uniform(0.01, 100.0, 3)
        matter_width = float(rng.uniform(0.1, 2.0))
        got = semiclassical_overlap(pos, eps, ws, grid, CONSTS, mass=mass, sigma_reg=sigma,
                                    matter_width=matter_width)
        want, bound = _lattice_log_overlaps(eps, ws, grid, mass, sigma, matter_width)
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
def test_the_folded_mode_sum_matches_the_lattice_oracle(n):
    # random boxes, masses, widths and displacements off the h lattice, so
    # that every Nyquist sine is far from 0 and its terms count
    rng = np.random.default_rng(1000 + n)
    for _ in range(3 if n < 128 else 1):
        grid = GridSpec(n, float(rng.uniform(0.5, 20.0)))
        mass, sigma = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.01, 2.0)) * grid.h
        pos = np.full(3, 0.5 * grid.box)
        eps = rng.uniform(-0.4, 0.4, (3, 3)) * grid.box
        assert np.abs(np.sin(np.pi * eps / grid.h)).min() > 1e-3
        ws = rng.uniform(0.01, 100.0, 2)
        got = semiclassical_overlap(pos, eps, ws, grid, CONSTS, mass=mass, sigma_reg=sigma)
        want, bound = _lattice_log_overlaps(eps, ws, grid, mass, sigma, None)
        assert np.all(np.abs(got - want) <= bound)
        # no mode contributes at eps = 0: the sum is 0, not a rounding residue
        assert semiclassical_overlap(pos, np.zeros(3), ws, grid, CONSTS, mass=mass,
                                     sigma_reg=sigma).tolist() == [0.0, 0.0]


def test_an_n256_overlap_holds_two_octants_at_most():
    # the (n/2+1)^3 squared wavenumbers and the amplitudes, squared in
    # place, are the only octant-sized arrays; the per-displacement tables
    # are (n/2+1)^2, a few of them at once
    grid = GridSpec(256, 8.0)
    m = grid.n // 2 + 1
    tracemalloc.start()
    try:
        logs = semiclassical_overlap((4.0, 4.0, 4.0), [(0.5, 0.0, 0.0), (-0.3, 0.7, 0.1)],
                                     [1.0, 2.0], grid, CONSTS, sigma_reg=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logs.shape == (2, 2) and np.all(logs < 0.0)
    assert peak <= 2 * 8 * m**3 + 8 * 8 * m**2


@pytest.mark.parametrize("matter_width", [None, 0.25])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_semiclassical_array_forms_equal_scalar_calls(n, matter_width):
    grid = GridSpec(n, 8.0)
    pos = (4.0, 4.0, 4.0)
    eps = np.array([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.3, 0.7, 0.1), (1.3, -2.9, 3.7)])
    # 2.759**2 rounds one ulp apart in Python floats and in numpy's square
    ws = [700.0 * 0.5**i for i in range(6)] + [3.7, 2.759, 0.013, 1e-3 / 3]
    kw = dict(mass=1.3, sigma_reg=0.1, matter_width=matter_width)
    logs = semiclassical_overlap(pos, eps, ws, grid, CONSTS, **kw)
    assert logs.shape == (len(eps), len(ws))
    values = np.array([overlaps.overlap_from_log(v) for v in logs.flat]).reshape(logs.shape)
    assert (values == 0.0).any() and (values == 1.0).any() and ((0 < values) & (values < 1)).any()
    lattice, bound = _lattice_log_overlaps(eps, ws, grid, **kw)
    assert np.all(np.abs(logs - lattice) <= bound)
    for i, e in enumerate(eps):
        for j, w in enumerate(ws):
            assert logs[i, j] == semiclassical_overlap(pos, e, w, grid, CONSTS, **kw)
        row = semiclassical_overlap(pos, e, ws, grid, CONSTS, **kw)
        assert row.shape == (len(ws),) and np.array_equal(row, logs[i])
    column = semiclassical_overlap(pos, eps, ws[2], grid, CONSTS, **kw)
    assert column.shape == (len(eps),) and np.array_equal(column, logs[:, 2])


def test_overlap_sweep_calls_the_overlap_once_per_grid(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, scenarios, "semiclassical_overlap")
    cfg = get_preset("semiclassical-overlap")
    cfg["overlap"]["state_pairs"] = 0
    scenarios.run_scenario(cfg, tmp_path)
    block = cfg["overlap"]
    assert len(calls) == len(block["grid_sizes"]) == 3
    with open(tmp_path / "tables" / "overlap_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ws = [block["w_start"] * 0.5**i for i in range(block["w_halvings"] + 1)]
    expected = [(n, scale, w) for n in block["grid_sizes"]
                for scale in block["epsilon_scales"] for w in ws]
    assert len(rows) == len(expected) == 90
    eps0 = np.array(block["epsilon"])
    for row, (n, scale, w) in zip(rows, expected):
        log_ov = overlaps.semiclassical_overlap(
            block["position"], eps0 * scale, w, GridSpec(n, block["box"]), CONSTS,
            mass=block["mass"], sigma_reg=block["sigma_reg"],
            matter_width=block["matter_width"])
        assert (int(row["N"]), float(row["w"])) == (n, w)
        assert float(row["epsilon"]) == float(np.linalg.norm(eps0 * scale))
        assert float(row["log_overlap"]) == log_ov
        assert float(row["overlap"]) == overlaps.overlap_from_log(log_ov)


@pytest.mark.parametrize("sigma_reg", [0.0, -2.0 * GRID.h])
def test_semiclassical_refuses_non_positive_sigma_reg(sigma_reg):
    # zero used to mean an unregularised 1/k^2 source, a negative width its absolute value
    with pytest.raises(ValueError, match="regularisation width must be positive"):
        semiclassical_overlap((4.0, 4.0, 4.0), (0.5, 0, 0), 0.1, GRID, CONSTS,
                              sigma_reg=sigma_reg)


def test_semiclassical_w_ladder_strictly_decreasing():
    pos, eps = (4.0, 4.0, 4.0), (0.5, 0.0, 0.0)
    logs = [semiclassical_overlap(pos, eps, 700.0 * 0.5**i, GRID, CONSTS,
                                  sigma_reg=0.1) for i in range(6)]
    assert all(b < a for a, b in zip(logs, logs[1:]))
    assert math.exp(logs[-1] - logs[0]) < 1e-3


def test_semiclassical_mode_count_monotone():
    pos, eps = (4.0, 4.0, 4.0), (0.5, 0.0, 0.0)
    logs = [semiclassical_overlap(pos, eps, 500.0, GridSpec(n, 8.0), CONSTS,
                                  sigma_reg=0.1) for n in (8, 16, 32)]
    assert logs[1] < logs[0] and logs[2] < logs[1]


def test_semiclassical_monotone_in_displacement():
    pos = (2.0, 4.0, 4.0)
    values = []
    for scale in (0.0, 0.25, 0.5, 0.75, 1.0):
        values.append(semiclassical_overlap(pos, (scale, 0.0, 0.0), 400.0, GRID, CONSTS,
                                            sigma_reg=0.1, matter_width=0.5))
    assert all(b < a or (a == b == 0.0) for a, b in zip(values, values[1:]))


def test_analytic_amplitudes_match_mode_solve():
    # per-mode constraint amplitudes of a resolved sampled profile agree with
    # the continuum closed form wherever the profile is resolved
    sigma = 0.4
    grid = GridSpec(32, 8.0)
    e = gaussian_density(1.0, (4.0, 4.0, 4.0), sigma)
    hk_grid = 2.0 * CONSTS.hbar * np.abs(build_field_state(e, CONSTS, grid))
    hk_exact = analytic_point_amplitudes(1.0, sigma, grid, CONSTS)
    octant = (slice(0, grid.n // 2 + 1),) * 3
    kmag = grid.k_magnitude[octant]
    sel = (kmag > 0) & (kmag < 4.0)
    rel = np.abs(hk_grid[octant][sel] - hk_exact[sel]) / hk_exact[sel]
    assert rel.max() < 0.01


# The array forms against their scalar calls, bit for bit, on random input:
# eigenbases of analytic and sampled (identity-keyed) densities, and
# displacement stacks against width ladders.
FUZZ_GRID = GridSpec(8, 8.0)
FUZZ_BASIS = [gaussian_density(1.0, (2.0 + 0.5 * i, 3.0, 4.0), 0.3 + 0.03 * i) for i in range(3)]
FUZZ_BASIS.append(sample_on_grid(gaussian_density(2.0, (4.0, 4.0, 4.0), 0.6), FUZZ_GRID, CONSTS))


@st.composite
def _fuzz_state(draw):
    idx = sorted(draw(st.sets(st.integers(0, len(FUZZ_BASIS) - 1), min_size=1)))
    amps = np.array(draw(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                                  min_size=len(idx), max_size=len(idx))))
    return QuantumSourceState(amplitudes=amps / np.linalg.norm(amps),
                              densities=[FUZZ_BASIS[i] for i in idx], indices=idx)


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(_fuzz_state(), _fuzz_state()), max_size=6))
def test_batched_joint_overlap_equals_its_pair_calls(pairs):
    psis, phis = [a for a, _ in pairs], [b for _, b in pairs]
    joint = exact_joint_overlap(psis, phis, FUZZ_GRID, CONSTS)
    assert list(joint) == [exact_joint_overlap(a, b, FUZZ_GRID, CONSTS) for a, b in pairs]


_COORD = st.floats(-1.5, 1.5, allow_subnormal=False)


@settings(max_examples=80, deadline=None)
@given(eps=st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=4),
       ws=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
       sigma_reg=st.floats(0.05, 0.5),
       matter_width=st.none() | st.floats(0.05, 2.0))
def test_semiclassical_stacks_equal_their_scalar_calls(eps, ws, sigma_reg, matter_width):
    pos = (4.0, 4.0, 4.0)
    kw = dict(mass=1.3, sigma_reg=sigma_reg, matter_width=matter_width)
    logs = semiclassical_overlap(pos, eps, ws, FUZZ_GRID, CONSTS, **kw)
    assert logs.shape == (len(eps), len(ws))
    for i, e in enumerate(eps):
        for j, w in enumerate(ws):
            assert logs[i, j] == semiclassical_overlap(pos, e, w, FUZZ_GRID, CONSTS, **kw)
