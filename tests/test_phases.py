import numpy as np
import pytest
from scipy.special import erf

from gravphase import phases, poisson
from gravphase.grids import GridSpec
from gravphase.phases import (
    PhaseMatrix,
    compare_models,
    negativity,
    newton_phase,
    theta_AB,
)
from gravphase.poisson import pair_integrals
from gravphase.sources import (
    PhysicalConstants,
    QuantumSourceState,
    gaussian_density,
    grid_density,
)

CONSTS = PhysicalConstants.natural()
S2 = 1 / np.sqrt(2)


def branch_state(centers, width=0.05, mass=1.0):
    """Equal superposition of one Gaussian density of `mass` and `width`
    per branch center, the branches indexed in order."""
    amps = np.full(len(centers), 1 / np.sqrt(len(centers)))
    return QuantumSourceState(amplitudes=amps, indices=range(len(centers)),
                              densities=[gaussian_density(mass, c, width) for c in centers])


def pair_states(d=1.0, width=0.05, mass=1.0):
    return (branch_state([[0.0, 0.0, 0.0]], width, mass),
            branch_state([[d, 0.0, 0.0]], width, mass))


def gie_states(x0=0.0, dx=0.4, d=1.0, width=0.05, mass=1.0):
    return (branch_state([[x0, 0, 0], [x0 + dx, 0, 0]], width, mass),
            branch_state([[x0 + d, 0, 0], [x0 + d + dx, 0, 0]], width, mass))


def single(e):
    return QuantumSourceState(amplitudes=[1.0], densities=[e], indices=(0,))


def models(a, b, t, **kw):
    return compare_models(a, b, t, CONSTS, **kw)


def test_theta_trivial_zeroes():
    e = gaussian_density(1.0, (0, 0, 0), 0.1)
    zero = gaussian_density(0.0, (1, 0, 0), 0.1)
    assert theta_AB(e, zero, 1.0, CONSTS)[0] == 0.0
    assert theta_AB(e, e, 0.0, CONSTS)[0] == 0.0


def test_theta_point_pair_value():
    d, t = 1.0, 0.2
    for sigma in (0.05, 0.02, 0.01):
        a = gaussian_density(1.0, (0, 0, 0), sigma)
        b = gaussian_density(1.0, (d, 0, 0), sigma)
        th, _ = theta_AB(a, b, t, CONSTS)
        expected = -CONSTS.kappa * t * CONSTS.c**4 / (4 * np.pi * CONSTS.hbar * d)
        assert abs(th / expected - 1.0) < 0.02
    # the prefactor is 4x the Newton phase magnitude, opposite sign
    newton = CONSTS.G * t / (CONSTS.hbar * d)
    assert abs(th / newton + 4.0) < 1e-3


def test_theta_bilinear_and_time_linear():
    grid = GridSpec(16, 8.0)

    def theta(m_a, m_b, t):
        return theta_AB(gaussian_density(m_a, (3.5, 4, 4), 0.6),
                        gaussian_density(m_b, (4.5, 4, 4), 0.5), t, CONSTS,
                        backend="grid", grid=grid)[0]

    base, scaled = theta(1.0, 1.0, 1.0), theta(2.5, 0.5, 3.0)
    assert abs(scaled - 2.5 * 0.5 * 3.0 * base) < 1e-10 * abs(base)


def test_theta_symmetry_and_screening():
    a, b = pair_states(d=1.0, width=0.2)
    ea, eb = a.densities[0], b.densities[0]
    tab, _ = theta_AB(ea, eb, 1.0, CONSTS)
    tba, _ = theta_AB(eb, ea, 1.0, CONSTS)
    assert abs(tab - tba) < 1e-12 * abs(tab)
    last = np.inf
    for sigma in (0.1, 0.2, 0.4, 0.6):
        th, _ = theta_AB(gaussian_density(1.0, (0, 0, 0), sigma),
                         gaussian_density(1.0, (1.0, 0, 0), sigma), 1.0, CONSTS)
        assert abs(th) < last
        last = abs(th)


def test_self_energy():
    pref = -CONSTS.kappa / (8.0 * np.pi)
    zero = gaussian_density(0.0, (0, 0, 0), 0.1)
    e = gaussian_density(1.0, (1.0, 0, 0), 0.3)  # off A's center: Newton needs distinct centers
    e2 = gaussian_density(2.0, (0, 0, 0), 0.3)
    (s0, s1, s2), _ = pair_integrals([zero, e, e2], [(0, 0), (1, 1), (2, 2)], CONSTS)
    assert s0 == 0.0
    assert abs(s2 - 4.0 * s1) < 1e-12 * abs(s2)
    # a Gaussian's self integral in closed form: m^2 c^4 / (sqrt(pi) sigma)
    assert abs(s1 - 1.0 / (np.sqrt(np.pi) * 0.3)) < 1e-12 * s1
    rep = models(single(zero), single(e), 1.0)
    assert rep["self_energies"]["A"] == [0.0]
    assert rep["self_energies"]["B"] == [pref * s1]
    assert rep["self_energies_stderr"] == {"A": [0.0], "B": [0.0]}
    # 6-D Monte-Carlo oracle
    (smc,), _ = pair_integrals([e], [(0, 0)], CONSTS, backend="mc", mc_samples=2_000_000, seed=7)
    assert abs(smc - s1) < 0.02 * abs(s1)


def test_newton_phase_values():
    t, d = 0.5, 2.0
    a, b = pair_states(d=d)
    pm = newton_phase(a, b, t, CONSTS)
    assert pm.theta.shape == (1, 1)
    assert np.all(pm.damping == 0.0)
    expected = CONSTS.G * t / (CONSTS.hbar * d)
    assert abs(pm.phases[0, 0] - expected) < 1e-14 * expected
    far_a, far_b = pair_states(d=1e9)
    assert newton_phase(far_a, far_b, t, CONSTS).phases[0, 0] < 1e-8 * expected


def test_newton_gie_relative_phase_hand_value():
    t, dx, d = 0.3, 0.4, 1.0
    a, b = gie_states(dx=dx, d=d)
    pm = newton_phase(a, b, t, CONSTS)
    # scalar arithmetic oracle over the four center distances
    pref = CONSTS.G * t / CONSTS.hbar
    th = np.array([[pref / d, pref / (d + dx)], [pref / (d - dx), pref / d]])
    np.testing.assert_allclose(pm.phases, th, rtol=1e-14)
    rel = pm.phases[0, 0] + pm.phases[1, 1] - pm.phases[0, 1] - pm.phases[1, 0]
    rel_hand = pref * (2 / d - 1 / (d + dx) - 1 / (d - dx))
    assert abs(rel - rel_hand) < 1e-14 * abs(rel_hand)


def test_newton_coincident_centers_error():
    a, _ = pair_states()
    with pytest.raises(ValueError, match="oincident"):
        newton_phase(a, a, 1.0, CONSTS)
    # a grid density has no center
    with pytest.raises(ValueError, match="point or gaussian densities"):
        newton_phase(single(grid_density(np.ones((4, 4, 4)), 4.0)), a, 1.0, CONSTS)


def test_nonlocal_reduction_and_ratio():
    zero = gaussian_density(0.0, (1, 0, 0), 0.1)
    e = gaussian_density(1.0, (0, 0, 0), 0.1)
    assert models(single(e), single(zero), 1.0)["matrices"]["nonlocal"].phases[0, 0] == 0.0
    t, d = 0.4, 1.5
    a = gaussian_density(1.0, (0, 0, 0), 0.02)
    b = gaussian_density(1.0, (d, 0, 0), 0.02)
    nl = models(single(a), single(b), t)["matrices"]["nonlocal"].phases[0, 0]
    assert abs(nl - CONSTS.G * t / (CONSTS.hbar * d)) < 0.02 * nl
    rng = np.random.default_rng(3)
    for _ in range(5):
        sig = rng.uniform(0.05, 0.6)
        dd = rng.uniform(0.8, 3.0)
        ea = gaussian_density(rng.uniform(0.5, 2), (0, 0, 0), sig)
        eb = gaussian_density(rng.uniform(0.5, 2), (dd, 0, 0), sig)
        th, _ = theta_AB(ea, eb, t, CONSTS)
        nl = models(single(ea), single(eb), t)["matrices"]["nonlocal"].phases[0, 0]
        assert abs(nl / th + 0.25) < 1e-6


def test_sn_phase_point_limit_and_separability():
    t, d = 0.7, 2.0
    a, b = pair_states(d=d, width=0.02)
    pm = models(a, b, t)["matrices"]["schroedinger-newton"]
    expected = 2.0 * CONSTS.G * t / (CONSTS.hbar * d)
    assert abs(pm.phases[0, 0] - expected) < 0.02 * expected
    a2, b2 = gie_states(width=0.2)
    rep = models(a2, b2, t)
    assert rep["negativities"]["schroedinger-newton"] == 0.0
    assert negativity(a2.amplitudes, b2.amplitudes, rep["matrices"]["schroedinger-newton"]) == 0.0
    # separable structure: theta_ij - theta_i0 - theta_0j + theta_00 = 0
    th = rep["matrices"]["schroedinger-newton"].phases
    mix = th[1, 1] - th[1, 0] - th[0, 1] + th[0, 0]
    assert abs(mix) < 1e-12 * np.abs(th).max()


def test_sn_differs_from_full_phase_on_wide_gaussians():
    t, d, sigma = 1.0, 1.0, 0.5
    a, b = pair_states(d=d, width=sigma)
    pm = models(a, b, t)["matrices"]["schroedinger-newton"]
    th, _ = theta_AB(a.densities[0], b.densities[0], t, CONSTS)
    # quadrature error here is ~0: analytic backend; difference is structural
    assert abs(pm.phases[0, 0] - th) > 0.5 * abs(th)


def test_phase_matrix_general_structure():
    t = 0.2
    a, b = gie_states()
    pm = models(a, b, t)["matrices"]["general"]
    assert pm.theta.shape == (2, 2)
    one = models(single(a.densities[0]), single(b.densities[0]), t)["matrices"]
    one = one["general"]
    th, _ = theta_AB(a.densities[0], b.densities[0], t, CONSTS)
    assert abs(one.phases[0, 0] - th) < 1e-14 * abs(th)
    swapped = models(b, a, t)["matrices"]["general"]
    np.testing.assert_allclose(swapped.phases, pm.phases.T, rtol=1e-12)
    # narrow limit: equals the Newton matrix up to the constant -4
    newt = newton_phase(a, b, t, CONSTS)
    np.testing.assert_allclose(pm.phases, -4.0 * newt.phases, rtol=1e-6)


def _negativity_oracle_2x2(coeff):
    """Brute-force partial-transpose eigenvalue oracle for a 2x2 pure state."""
    v = coeff.reshape(-1) / np.linalg.norm(coeff)
    rho = np.outer(v, v.conj())
    pt = np.zeros_like(rho)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    pt[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
    evals = np.linalg.eigvalsh(pt)
    return float(sum(abs(x) for x in evals if x < 0))


def test_negativity_separable_and_max():
    amps = np.array([S2, S2])
    sep = PhaseMatrix(model="x", theta=1j * (np.array([[0.3], [0.7]]) + np.array([[0.2, 0.5]])).reshape(2, 2))
    assert negativity(amps, amps, sep) == 0.0
    theta = np.zeros((2, 2), dtype=complex)
    theta[0, 0] = 1j * np.pi
    pm = PhaseMatrix(model="x", theta=theta)
    value = negativity(amps, amps, pm)
    coeff = np.outer(amps, amps) * np.exp(theta)
    assert abs(value - _negativity_oracle_2x2(coeff)) < 1e-12
    assert abs(value - 0.5) < 1e-12


def test_negativity_bounds_and_errors():
    rng = np.random.default_rng(5)
    amps = np.array([S2, S2])
    for _ in range(25):
        theta = 1j * rng.uniform(-np.pi, np.pi, size=(2, 2))
        pm = PhaseMatrix(model="x", theta=theta)
        v = negativity(amps, amps, pm)
        oracle = _negativity_oracle_2x2(np.outer(amps, amps) * np.exp(theta))
        assert -1e-15 <= v <= 0.5 + 1e-12
        assert abs(v - oracle) < 1e-12
    with pytest.raises(ValueError, match="normalisable"):
        negativity([0.0], [0.0], PhaseMatrix(model="x", theta=np.zeros((1, 1), dtype=complex)))
    with pytest.raises(ValueError, match="normalisable"):
        negativity([np.nan], [1.0], PhaseMatrix(model="x", theta=np.zeros((1, 1), dtype=complex)))


def _negativity_partial_transpose(coeff):
    """Oracle: sum of the negative eigenvalues of the partially transposed
    (n_a n_b)^2 density matrix of the normalised pure state."""
    na, nb = coeff.shape
    v = coeff.reshape(-1) / np.linalg.norm(coeff)
    rho = np.outer(v, v.conj()).reshape(na, nb, na, nb)
    evals = np.linalg.eigvalsh(rho.transpose(0, 3, 2, 1).reshape(na * nb, na * nb))
    return float(-evals[evals < 0].sum())


def test_negativity_from_schmidt_coefficients():
    rng = np.random.default_rng(11)
    for _ in range(200):
        na, nb = rng.integers(1, 6, size=2)
        amps_a = rng.normal(size=na) + 1j * rng.normal(size=na)
        amps_b = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        theta = rng.normal(scale=0.3, size=(na, nb)) + 1j * rng.uniform(-np.pi, np.pi, (na, nb))
        coeff = amps_a[:, None] * amps_b[None, :] * np.exp(theta)
        value = negativity(amps_a, amps_b, PhaseMatrix(model="x", theta=theta))
        assert abs(value - _negativity_partial_transpose(coeff)) <= 1e-13
    bell = np.array([[0.0, -1000.0], [-1000.0, 0.0]], dtype=complex)  # exp underflows to 0
    assert negativity([1.0, 1.0], [1.0, 1.0], PhaseMatrix(model="x", theta=bell)) == 0.5
    product = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(1, 4))
    value = negativity([1.0, 2.0, 0.5], [1.0, 1j, -1.0, 0.3],
                       PhaseMatrix(model="x", theta=product))
    assert value == 0.0


def test_compare_models_gie_and_wide():
    t = 0.2
    a, b = gie_states()
    rep = compare_models(a, b, t, CONSTS)
    assert rep["deviations_point_normalized"]["newton"] < 0.02
    assert rep["negativities"]["schroedinger-newton"] == 0.0
    assert rep["negativities"]["general"] > 0.0
    assert np.array_equal(rep["matrices"]["general"].phases,
                          -4.0 * rep["matrices"]["nonlocal"].phases)
    assert len(rep["self_energies"]["A"]) == 2

    wa, wb = pair_states(d=1.0, width=0.5)
    wide = compare_models(wa, wb, t, CONSTS)
    expected_dev = (1.0 - erf(1.0)) / erf(1.0)
    assert abs(wide["deviations_point_normalized"]["newton"] - expected_dev) < 1e-6
    assert wide["deviations_point_normalized"]["newton"] > 0.10


def test_compare_models_refuses_negative_time():
    a, b = gie_states()
    with pytest.raises(ValueError, match="non-negative"):
        compare_models(a, b, -0.1, CONSTS)


def _generic_state_pair():
    """Two states of unequal component counts, masses and widths, with
    complex amplitudes and no shared center."""
    rng = np.random.default_rng(17)

    def state(n, offset):
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        dens = [gaussian_density(rng.uniform(0.5, 2.0), offset + rng.uniform(-0.5, 0.5, 3),
                                 rng.uniform(0.1, 0.4)) for _ in range(n - 1)]
        dens.append(gaussian_density(rng.uniform(0.5, 2.0), offset + rng.uniform(-0.5, 0.5, 3),
                                     0.05))
        return QuantumSourceState(amplitudes=amps / np.linalg.norm(amps), densities=dens,
                                  indices=range(n))

    return state(3, np.zeros(3)), state(2, np.array([2.0, 0.5, 0.0]))


def test_newton_is_the_center_formula_for_any_state_pair():
    t = 0.35
    psi_a, psi_b = _generic_state_pair()
    rep = compare_models(psi_a, psi_b, t, CONSTS)
    want = np.array([[CONSTS.G * ea.mass * eb.mass * t
                      / (CONSTS.hbar * np.sqrt(sum((p - q) * (p - q)
                                                   for p, q in zip(ea.center, eb.center))))
                      for eb in psi_b.densities] for ea in psi_a.densities])
    for pm in (rep["matrices"]["newton"], newton_phase(psi_a, psi_b, t, CONSTS)):
        assert [x.hex() for x in pm.phases.ravel()] == [x.hex() for x in want.ravel()]
        assert np.all(pm.damping == 0.0)
    assert list(rep["matrices"]) == ["general", "newton", "schroedinger-newton", "nonlocal"]


def test_coincident_state_centers_raise():
    psi_a, psi_b = _generic_state_pair()
    shared = gaussian_density(1.0, psi_a.densities[1].center, 0.2)
    psi_b = QuantumSourceState(amplitudes=psi_b.amplitudes, indices=psi_b.indices,
                               densities=(psi_b.densities[0], shared))
    for build in (compare_models, newton_phase):
        with pytest.raises(ValueError, match="coincident density centers"):
            build(psi_a, psi_b, 0.2, CONSTS)


def test_coincident_centers_are_refused_before_any_pair_integral(monkeypatch):
    # Newton is built first, so a run whose centers coincide computes nothing
    def no_integrals(*args, **kwargs):
        raise AssertionError("pair integrals computed before the centers were checked")

    monkeypatch.setattr(phases, "pair_integrals", no_integrals)
    a, _ = pair_states()
    with pytest.raises(ValueError, match="coincident density centers"):
        models(a, a, 0.2, backend="mc", mc_samples=2_000_000)


def test_functional_form_discrimination():
    t, d = 0.2, 1.0
    a1, b1 = pair_states(d=d, width=0.5)
    a2, b2 = pair_states(d=d, width=0.75)
    n1 = newton_phase(a1, b1, t, CONSTS).phases[0, 0]
    n2 = newton_phase(a2, b2, t, CONSTS).phases[0, 0]
    assert n1 == n2  # center-based potential ignores the width, exactly
    t1, _ = theta_AB(a1.densities[0], b1.densities[0], t, CONSTS)
    t2, _ = theta_AB(a2.densities[0], b2.densities[0], t, CONSTS)
    assert abs(t2 - t1) > 0.05 * abs(t1)


def test_phase_invariant_under_unit_rescaling():
    si = PhysicalConstants.si()
    m, d, sigma, t = 1e-14, 450e-6, 100e-6, 2.5
    a = gaussian_density(m, (0, 0, 0), sigma)
    b = gaussian_density(m, (d, 0, 0), sigma)
    th_si, _ = theta_AB(a, b, t, si)
    l0, m0 = 1e-4, 1e-14
    scaled = si.rescaled(l0, m0)
    a2 = gaussian_density(m / m0, (0, 0, 0), sigma / l0)
    b2 = gaussian_density(m / m0, (d / l0, 0, 0), sigma / l0)
    th_nat, _ = theta_AB(a2, b2, t / (l0 / si.c), scaled)
    assert abs(th_si - th_nat) < 1e-12 * abs(th_si)


def test_pairwise_deviations_reported():
    t = 0.2
    a, b = gie_states()
    rep = compare_models(a, b, t, CONSTS)
    # nonlocal carries the identical kernel, so it normalises onto general
    assert rep["pairwise_deviations"]["general|nonlocal"] < 1e-12
    assert rep["pairwise_deviations"]["general|schroedinger-newton"] > 0.1
    assert "general|newton" in rep["pairwise_deviations"]


def _counting(monkeypatch, name, module=poisson):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


LADDER = (0.2, 0.1, 0.05)


def test_compare_models_computes_each_pair_integral_once(monkeypatch):
    a, b = (branch_state([[x, 2.0, 2.0], [x + 0.4, 2.0, 2.0]], 0.3) for x in (1.0, 2.6))
    samplings = _counting(monkeypatch, "sample_on_grid")
    solves = _counting(monkeypatch, "solve_hT_spectral")
    singles = _counting(monkeypatch, "mutual_coulomb", phases)
    grid_sums = _counting(monkeypatch, "coulomb_pair_grid")
    grid = GridSpec(16, 4.0)
    rep = models(a, b, 0.3, backend="grid", grid=grid, sigma_ladder=LADDER)
    # Gaussians take the separable lattice sum: nothing sampled, no potential
    # and no kernel spectrum
    assert not samplings and not solves and "coulomb_kernel_hat" not in vars(grid)
    # the 2x2 cross, 2 + 2 self, the point pair and the 3 rungs in one list
    assert len(grid_sums) == 1 and len(grid_sums[0][1]) == 4 + 4 + 1 + 3
    assert len(rep["convergence"]) == 3
    draws = _counting(monkeypatch, "coulomb_pair_mc")
    models(a, b, 0.3, backend="mc", mc_samples=1000, sigma_ladder=LADDER)
    assert len(draws) == 1  # every integral, ladder included, from one stream
    assert len(grid_sums) == 1 and not singles


@pytest.mark.parametrize("backend", ["analytic", "grid", "mc"])
@pytest.mark.parametrize("t", [0.3, 0.0])
def test_convergence_rows_are_theta_ab_of_each_rung_bit_for_bit(backend, t):
    # the ladder shares the run's one pair list, and every backend computes
    # an integral independently of the others, so each row is the one-pair
    # theta_AB, stderr included, down to the sign of a zero phase at t = 0
    shift = [0.8, 1.5, 1.5]  # gie-2x2 moved into the grid's box
    a, b = (branch_state(np.add(centers, shift)) for centers in
            ([[0.0, 0, 0], [0.4, 0, 0]], [[1.0, 0, 0], [1.4, 0, 0]]))
    kw = dict(backend=backend, grid=GridSpec(32, 3.0), mc_samples=3000, seed=5)
    rows = models(a, b, t, sigma_ladder=LADDER, **kw)["convergence"]

    def theta(width):
        ea, eb = (gaussian_density(s.densities[0].mass, s.densities[0].center, width)
                  for s in (a, b))
        return theta_AB(ea, eb, t, CONSTS, **kw)

    point, _ = theta(LADDER[-1] / 4.0)
    for row, sigma in zip(rows, LADDER, strict=True):
        phase, err = theta(sigma)
        deviation = abs(phase - point) / abs(point) if point else float("nan")
        got = (row["phase"], row["point_phase"], row["deviation"], row["stderr"])
        assert [x.hex() for x in got] == [float(x).hex() for x in (phase, point, deviation, err)]


def test_mc_models_share_one_sample_set():
    # every t: the density and nonlocal prefactors are in exact ratio -4
    a, b = gie_states(width=0.3)
    for t in (0.3, 0.17):
        rep = models(a, b, t, backend="mc", mc_samples=20_000, seed=4)
        assert np.array_equal(rep["matrices"]["general"].phases,
                              -4.0 * rep["matrices"]["nonlocal"].phases)
        assert rep["pairwise_deviations"]["general|nonlocal"] == 0.0
        assert rep["matrices"]["general"].stderr.min() > 0.0
    # the self-energies carry the standard errors of their self integrals,
    # scaled by the same kappa / 8 pi
    dens = [*a.densities, *b.densities]
    _, err = pair_integrals(dens, [(k, k) for k in range(4)], CONSTS, backend="mc",
                            mc_samples=20_000, seed=4)
    pref = CONSTS.kappa / (8.0 * np.pi)
    assert rep["self_energies_stderr"] == {"A": (pref * err[:2]).tolist(),
                                           "B": (pref * err[2:]).tolist()}
    assert min(rep["self_energies_stderr"]["A"] + rep["self_energies_stderr"]["B"]) > 0.0
