import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gravphase.config import cost, get_preset, with_defaults
from gravphase.opalg import (
    ProbeStressTensor,
    TruncatedModeSystem,
    build_HG,
    build_HI,
    c_number_probe_stress,
    closed_form_branch_amplitude,
    commutator,
    compare_propagators,
    exact_propagator,
    extract_relative_phase,
    nested_commutators,
    plus_polarization,
    predict_theta,
    zassenhaus_product,
)
from gravphase.sources import PhysicalConstants

from test_acceptance import _verification_arena

# kappa = 2.7 exactly, c = hbar = 1
CONSTS = PhysicalConstants(G=2.7 / (16 * np.pi), c=1.0, hbar=1.0)
KVEC = (0.0, 0.0, 1.3)
OMEGA = 1.3


def single_system(dim=40, weight=1.0):
    return TruncatedModeSystem(KVEC, dim, CONSTS, weight=weight)


def tt_probe(system, amp_b, amp_a=0.0):
    e_plus = plus_polarization(KVEC)
    return c_number_probe_stress([amp_a * e_plus, amp_b * e_plus])


def closed_form_amplitude(coupling, t, omega=OMEGA, kappa=CONSTS.kappa, hbar=1.0):
    """Displaced-oscillator vacuum persistence amplitude for H = H_G + c h,
    with the free zero-point phase removed: exp(i g^2 (wt - sin wt))
    * exp(-g^2 (1 - cos wt)), g^2 = c^2 kappa / (hbar w^3)."""
    g2 = coupling**2 * kappa / (hbar * omega**3)
    return np.exp(1j * g2 * (omega * t - np.sin(omega * t))) * np.exp(-g2 * (1 - np.cos(omega * t)))


def test_system_validation_and_commutator_defect():
    sys1 = single_system()
    sys1.validate()
    assert sys1.commutator_defect() < 1e-12
    h, pi = sys1.h_op(), sys1.pi_op()
    low = 38
    c = (h @ pi - pi @ h)[:low, :low]
    np.testing.assert_allclose(c, 1j * np.eye(low), atol=1e-12)


def test_hg_spectrum_single_mode():
    sys1 = single_system()
    hg = build_HG(sys1)
    evals = np.sort(np.linalg.eigvalsh(hg))
    n = np.arange(20)
    expected = CONSTS.hbar * OMEGA * (n + 0.5)
    np.testing.assert_allclose(evals[:20], expected, rtol=1e-8)


def test_hg_spectrum_kappa_invariant():
    strong = PhysicalConstants(G=270.0 / (16 * np.pi), c=1.0, hbar=1.0)
    e1 = np.sort(np.linalg.eigvalsh(build_HG(single_system())))[:10]
    e2 = np.sort(np.linalg.eigvalsh(build_HG(TruncatedModeSystem(KVEC, 40, strong))))[:10]
    np.testing.assert_allclose(e1, e2, rtol=1e-10)


def test_hi_zero_probe_and_hermiticity():
    sys1 = single_system()
    probe = c_number_probe_stress([np.zeros((3, 3)), np.zeros((3, 3))])
    hi = build_HI(sys1, probe, 0.0)
    assert np.abs(hi).max() == 0.0
    probe2 = tt_probe(sys1, 0.3)
    hi2 = build_HI(sys1, probe2, 0.7)
    assert np.abs(hi2 - np.swapaxes(hi2.conj(), 1, 2)).max() < 1e-12


def test_hi_linear_drive_matrix_elements():
    sys1 = single_system(weight=2.0)
    amp = 0.25
    probe = tt_probe(sys1, amp)
    hi = build_HI(sys1, probe, 0.0)
    assert hi.shape == (2, 40, 40)
    # branch b block must be -(1/2) * w * amp * h
    np.testing.assert_allclose(hi[1], -0.5 * 2.0 * amp * sys1.h_op(), atol=1e-14)
    assert np.abs(hi[0]).max() == 0.0


def test_probe_stress_refuses_asymmetric_tensors():
    coeffs = np.zeros((2, 3, 3))
    coeffs[1, 0, 1] = 0.2  # xy set, yx left at zero
    with pytest.raises(ValueError, match="symmetric"):
        ProbeStressTensor(coeffs=coeffs)
    with pytest.raises(ValueError, match="shape"):
        ProbeStressTensor(coeffs=np.zeros((2, 6)))


def test_commutator_basics():
    sys1 = single_system()
    hg = build_HG(sys1)
    assert np.abs(commutator(hg, hg)).max() == 0.0


def test_overflowing_commutators_and_non_finite_generators_are_refused_without_a_warning():
    sys1 = single_system()
    hg, hi = build_HG(sys1), build_HI(sys1, tt_probe(sys1, 1e200), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="nested commutators of H_G and H_I overflow"):
            nested_commutators(hg, hi[1])
        with pytest.raises(ValueError, match="generator is not finite"):
            exact_propagator(np.full((2, 2), np.nan), 0.1, 1.0)
        # finite, but its top eigenvalue 3.4e308 is not: eigh returns inf
        # with unitary eigenvectors, which the unitarity check alone passes
        with pytest.raises(ValueError, match="generator has a non-finite spectrum"):
            exact_propagator(np.full((2, 2), 1.7e308), 0.1, 1.0)


def test_double_commutator_is_pure_probe():
    sys1 = single_system(weight=1.5)
    amp_a, amp_b = 0.1, 0.3
    probe = tt_probe(sys1, amp_b, amp_a)
    hg = build_HG(sys1)
    hi = build_HI(sys1, probe, 0.0)
    kappa = CONSTS.kappa
    low = np.eye(40, 38)  # the number states below the top two
    for hib, amp in zip(hi, (amp_a, amp_b)):
        igi = nested_commutators(hg, hib)["IGI"]
        # predicted c-number per branch: (kappa hbar^2 / 2) (w tau_b)^2
        pred = 0.5 * kappa * (1.5 * amp) ** 2 * np.eye(40)
        dev = np.abs(low.T @ (igi - pred) @ low).max()
        assert dev < 1e-8
        # field dependence is confined to the truncation boundary
        off_field = low.T @ igi @ low - pred[:38, :38]
        assert np.abs(off_field).max() < 1e-10


def test_zassenhaus_identity_at_t0_and_commuting_collapse():
    sys1 = single_system()
    probe = c_number_probe_stress([np.zeros((3, 3)), np.diag([0.2, 0.2, 0.0])])
    hg = build_HG(sys1)
    hi = build_HI(sys1, probe, 0.9)  # trace-only coupling: a c-number per branch
    t = 0.3
    for hib in hi:
        _, u0 = zassenhaus_product(hg, hib, 0.0, 1.0)
        np.testing.assert_allclose(u0, np.eye(40), atol=1e-14)
        _, uz = zassenhaus_product(hg, hib, t, 1.0)
        direct = expm(-1j * t * (hg + hib))
        assert np.abs(uz - direct).max() < 1e-12


def test_zassenhaus_defect_slopes():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.3)
    hg = build_HG(sys1)
    hi = build_HI(sys1, probe, 0.0)
    low = np.eye(40, 8)
    ts = np.geomspace(0.03, 0.3, 8)
    d3, d2 = [], []
    for t in ts:
        uex = exact_propagator(hg + hi, t, 1.0)
        z2, z3 = zassenhaus_product(hg, hi, t, 1.0)
        d3.append(max(np.linalg.norm((ub - zb) @ low, 2) for ub, zb in zip(uex, z3)))
        d2.append(max(np.linalg.norm((ub - zb) @ low, 2) for ub, zb in zip(uex, z2)))
    s3 = np.polyfit(np.log(ts), np.log(d3), 1)[0]
    s2 = np.polyfit(np.log(ts), np.log(d2), 1)[0]
    assert 3.9 <= s3 <= 4.3
    assert 2.9 <= s2 <= 3.3


def test_exact_propagator_basics():
    sys1 = single_system()
    assert np.abs(exact_propagator(np.zeros((8, 8)), 1.0, 1.0) - np.eye(8)).max() < 1e-14
    hg = build_HG(sys1)
    t = 2 * np.pi / OMEGA
    u = exact_propagator(hg, t, 1.0)
    # eigenphases are -(n + 1/2) 2 pi: U = -identity on the clean subspace
    low = 20
    np.testing.assert_allclose(u[:low, :low], -np.eye(low), atol=1e-8)
    rng = np.random.default_rng(2)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    v /= np.linalg.norm(v)
    assert abs(np.linalg.norm(u @ v) - 1.0) < 1e-10


def test_predict_theta_zero_and_term_selection():
    sys1 = single_system(weight=1.4)
    zero = c_number_probe_stress([np.zeros((3, 3)), np.zeros((3, 3))])
    pred = predict_theta(sys1, zero, 0.0, 0.5)
    assert np.all(pred.phase0 == 0) and np.all(pred.phase1 == 0)
    amp = 0.2
    probe = tt_probe(sys1, amp)
    t = 0.25
    pred = predict_theta(sys1, probe, 0.0, t)
    c2 = (1.4 * amp) ** 2
    kappa = CONSTS.kappa
    assert pred.phase0[1] == 0.0  # traceless transverse probe: no c-number drive
    np.testing.assert_allclose(pred.phase1[1], -kappa * t**3 / 8 * c2, rtol=1e-12)
    np.testing.assert_allclose(pred.phase2[1], kappa * t**3 / 6 * c2, rtol=1e-12)
    np.testing.assert_allclose(pred.damping0[1], -kappa * t**2 / (8 * OMEGA) * c2, rtol=1e-12)


def test_extract_relative_phase_identity_and_free():
    identity = np.broadcast_to(np.eye(40), (2, 40, 40))
    dphase, dmag = extract_relative_phase(identity)
    assert dphase == 0.0 and dmag == 0.0
    gap = 0.8
    t = 0.37
    # H_b = b * gap on the field space: branch 1 picks up e^{-i gap t}
    u = np.stack([expm(-1j * t * b * gap * np.eye(40)) for b in (0, 1)])
    dphase, dmag = extract_relative_phase(u)
    assert abs(dphase + gap * t) < 1e-12
    assert abs(dmag) < 1e-12


def test_extract_relative_phase_suppressed_branch():
    u = np.zeros((2, 40, 40), dtype=complex)
    u[:, 1, 0] = 1.0  # moves everything out of the vacuum
    u += 1e-15 * np.eye(40)
    with pytest.raises(ValueError, match="suppressed"):
        extract_relative_phase(u)


def test_full_evolution_matches_closed_form_and_predictions():
    sys1 = single_system()
    amp = 0.25
    trace_amp = 0.15
    e_plus = plus_polarization(KVEC)
    khat = np.asarray(KVEC) / OMEGA
    trans = np.eye(3) - np.outer(khat, khat)
    probe = c_number_probe_stress([np.zeros((3, 3)), amp * e_plus + 0.5 * trace_amp * trans])
    hT = 0.9
    hg = build_HG(sys1)
    hi = build_HI(sys1, probe, hT)
    for t in (0.05, 0.1, 0.2):
        u = exact_propagator(hg + hi, t, 1.0)
        dphase, dmag = extract_relative_phase(u)
        pred = predict_theta(sys1, probe, hT, t)
        # trace coupling: c-number branch phase, exact at all orders
        phase0 = pred.phase0[1] - pred.phase0[0]
        lam = 0.5 * 1.0 * amp  # |lambda| of H_I = lambda h on branch b (w = 1)
        closed = closed_form_amplitude(lam, t)
        # closed form phase of branch b relative to idle branch a
        assert abs((dphase - phase0) - np.angle(closed)) < 1e-9
        assert abs(dmag - np.log(abs(closed))) < 1e-9
        # t^3 residual against the commutator prediction
        resid = dphase - phase0
        t3 = pred.phase_t3[1] - pred.phase_t3[0]
        assert abs(resid - t3) < 0.05 * abs(t3) + 1e-12


def test_closed_form_amplitude_matches_the_test_copy():
    # an oblique mode, a full stress tensor and a c-number trace drive on
    # branch 1: the src form adds phase0 to the driven-oscillator phase
    system = TruncatedModeSystem((0.0, 0.9, 0.4), 12, CONSTS, weight=1.4)
    tensor = np.array([[0.1, 0.05, 0.0], [0.05, -0.2, 0.03], [0.0, 0.03, 0.15]])
    probe = c_number_probe_stress([np.zeros((3, 3)), tensor])
    hT = 0.9
    ts = np.array([0.05, 0.2, 1.5])
    got = closed_form_branch_amplitude(system, probe, hT, ts)
    assert got.shape == (3, 2) and np.all(got[:, 0] == 1.0)  # the idle branch
    phase0 = predict_theta(system, probe, hT, ts).phase0[:, 1]
    assert np.all(phase0 != 0.0)
    lam = 0.5 * 1.4 * probe.tt_contraction(system)[1]
    want = np.exp(1j * phase0) * closed_form_amplitude(lam, ts, omega=system.omega)
    # the same closed form, its terms formed and multiplied in another order:
    # a few dozen roundings of quantities of order one
    np.testing.assert_allclose(got[:, 1], want, rtol=64 * np.finfo(float).eps, atol=0)
    assert np.array_equal(closed_form_branch_amplitude(system, probe, hT, ts[1]), got[1])


def test_opalg_verify_reports_its_deviation_from_the_closed_form(tmp_path):
    from gravphase.config import get_preset
    from gravphase.scenarios import run_scenario

    report = run_scenario(get_preset("zassenhaus-t3"), tmp_path)
    dev = report["result"]["closed_form_max_rel_dev"]
    # the preset's smallest |dphase| and |ddamping| (t = 0.02) are 2.0e-4 and
    # 4.0e-6, read from the ratio of two unit-modulus amplitudes that each
    # err by at most product_rounding_bound(40, 1, 2) in the column path, so
    # the ratio errs by at most twice that in phase and in log-magnitude; the
    # closed form rounds by a few ulps, and the truncation at 40 levels is
    # far below rounding at these couplings
    amp_err = 2 * product_rounding_bound(40, 1, EXACT_MATMULS)
    assert 0.0 <= dev["dphase"] <= amp_err / 2.0e-4
    assert 0.0 <= dev["ddamping"] <= amp_err / 4.0e-6


def test_damping_t2_scaling():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.3)
    hg = build_HG(sys1)
    hi = build_HI(sys1, probe, 0.0)
    ts = np.geomspace(0.05, 0.5, 8)
    mags = []
    for t in ts:
        u = exact_propagator(hg + hi, t, 1.0)
        _, dmag = extract_relative_phase(u)
        mags.append(abs(dmag))
    slope = np.polyfit(np.log(ts), np.log(mags), 1)[0]
    assert 1.9 <= slope <= 2.1
    pred = predict_theta(sys1, probe, 0.0, ts[0])
    assert pred.damping0[1] < 0.0  # decaying, matching the sign convention


def product_rounding_bound(dim, n_cols, n_matmuls):
    """Worst-case 2-norm by which one floating-point evaluation of unitary
    factors applied right to left to n_cols orthonormal columns can differ
    from the same product of the same factors in exact arithmetic.  A
    complex product V w errs componentwise by at most
    sqrt(2) gamma_{D+2} (|V||w|)_i (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.6), and (|V||w|)_i <= ||V_i|| ||w||
    = 1 for a unit column w and a unitary V (Cauchy-Schwarz).  So a column
    errs by at most sqrt(2 D) gamma_{D+2} in the 2-norm and the block by
    sqrt(n_cols) times that; unitary factors pass earlier errors on
    unchanged in norm, so the errors of the n_matmuls products add."""
    u = np.finfo(float).eps / 2
    gamma = (dim + 2) * u / (1 - (dim + 2) * u)
    return n_matmuls * math.sqrt(2 * dim * n_cols) * gamma


# matrix products per evaluation: V^dagger x and V (.) per propagator, so
# 2 for the exact propagator and 8 for the four factors of order 3 (order 2
# is the first block of the same pass)
EXACT_MATMULS, ZASSENHAUS_MATMULS = 2, 8


def test_compare_propagators_record():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.2)
    comp = compare_propagators(sys1, probe, 0.0, [0.1])
    assert comp.times.tolist() == [0.1]
    assert comp.defect_order3.shape == comp.dphase_predicted.shape == (1,)
    assert comp.defect_order3[0] >= 0.0
    # the record holds no propagator: rebuild the full ones (x = None)
    hg, hi = build_HG(sys1), build_HI(sys1, probe, 0.0)
    u_exact = exact_propagator(hg + hi, 0.1, 1.0)
    for u in (u_exact, zassenhaus_product(hg, hi, 0.1, 1.0)[1]):
        assert u.shape == (2, 40, 40)
        for ub in u:
            assert np.abs(ub.conj().T @ ub - np.eye(40)).max() < 1e-10
    # the vacuum column, computed alone and within the full matrix, by
    # products that may round differently
    assert comp.amplitudes.shape == (1, 2)
    assert (np.abs(comp.amplitudes[0] - u_exact[:, 0, 0]).max()
            <= 2 * product_rounding_bound(40, 1, EXACT_MATMULS))
    assert abs(comp.dphase_exact[0] - comp.dphase_predicted[0]) < 1e-6
    assert abs(comp.ddamping_exact[0] - comp.ddamping_predicted[0]) < 1e-5
    assert comp.defect_order2[0] > comp.defect_order3[0]


def zassenhaus_t3_arena():
    """The zassenhaus-t3 preset's system: two branches of a 40-level mode,
    with H_G and the per-branch H_I,b."""
    _, system, probe, hT = _verification_arena()
    return system, probe, hT, build_HG(system), build_HI(system, probe, hT)


def test_spectral_propagators_match_expm():
    # scipy's Pade expm is the test-side oracle for the eigendecompositions
    system, _, _, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    for hib in hi:
        nest = nested_commutators(hg, hib)
        for t in (0.02, 0.07, 0.2, 1.5):
            u = exact_propagator(hg + hib, t, hbar)
            assert np.abs(u - expm(-1j * t * (hg + hib) / hbar)).max() <= 1e-13
            factors = [expm(-1j * t * hg / hbar), expm(-1j * t * hib / hbar),
                       expm((t**2 / (2 * hbar**2)) * nest["GI"]),
                       expm((1j * t**3 / (6 * hbar**3)) * (nest["GGI"] + 2 * nest["IGI"]))]
            for order, got in zip((2, 3), zassenhaus_product(hg, hib, t, hbar)):
                want = np.linalg.multi_dot(factors[: order + 1])
                assert np.abs(got - want).max() <= 1e-13


def test_branch_blocks_match_dense_field_probe_space():
    # the field (x) probe operators the branch blocks replace, built densely:
    # H = H_G (x) 1 + sum_b H_I,b (x) |b><b|, exponentiated by scipy's expm
    system, probe, hT, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    n_b = len(hi)
    ket = np.eye(n_b)
    big_g = np.kron(hg, np.eye(n_b))
    big_i = sum(np.kron(hib, np.outer(ket[b], ket[b])) for b, hib in enumerate(hi))
    gi = big_g @ big_i - big_i @ big_g
    t3_gen = (big_g @ gi - gi @ big_g) + 2.0 * (big_i @ gi - gi @ big_i)
    big_low = np.kron(np.eye(40, 8), np.eye(n_b))
    ts = np.geomspace(0.02, 0.2, 4)
    comp = compare_propagators(system, probe, hT, ts, n_low=8)
    for k, t in enumerate(ts):
        u = expm(-1j * t * (big_g + big_i) / hbar)
        # |0, b> is kron-basis vector b: field vacuum first, probe last
        dense_amps = np.array([u[b, b] for b in range(n_b)])
        assert np.abs(dense_amps - comp.amplitudes[k]).max() <= 1e-13
        factors = [expm(-1j * t * big_g / hbar), expm(-1j * t * big_i / hbar),
                   expm((t**2 / (2 * hbar**2)) * gi),
                   expm((1j * t**3 / (6 * hbar**3)) * t3_gen)]
        for order, defect in ((3, comp.defect_order3[k]), (2, comp.defect_order2[k])):
            u_z = np.linalg.multi_dot(factors[: order + 1])
            dense = np.linalg.norm((u - u_z) @ big_low, 2)
            assert abs(dense - defect) <= 1e-12


def test_sweep_is_bit_identical_to_single_time_calls():
    system, probe, hT, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    x = np.eye(40, 8)  # the eight low columns compare_propagators reads, vacuum first
    # a defect read from the columns against one read from the full
    # matrices: both evaluations round, and a defect is 1-Lipschitz in each
    # of its two propagators
    full_bound = 2 * product_rounding_bound(40, 8, EXACT_MATMULS + ZASSENHAUS_MATMULS)
    ts = np.geomspace(0.02, 0.2, 4)
    comp = compare_propagators(system, probe, hT, ts, n_low=8)
    assert np.array_equal(comp.times, ts)
    for k, t in enumerate(ts):
        u_x = exact_propagator(hg + hi, t, hbar, x)
        u_z2, u_z3 = zassenhaus_product(hg, hi, t, hbar, x)
        for u_z, defect in ((u_z3, comp.defect_order3[k]), (u_z2, comp.defect_order2[k])):
            assert defect == max(float(np.linalg.norm(ub - zb, 2)) for ub, zb in zip(u_x, u_z))
        assert np.array_equal(comp.amplitudes[k], u_x[:, 0, 0])
        for b, hib in enumerate(hi):
            assert np.array_equal(u_x[b], exact_propagator(hg + hib, t, hbar, x))
            assert np.array_equal(u_z3[b], zassenhaus_product(hg, hib, t, hbar, x)[1])
        u_exact = exact_propagator(hg + hi, t, hbar)
        full = zassenhaus_product(hg, hi, t, hbar)
        for u_z, defect in ((full[1], comp.defect_order3[k]), (full[0], comp.defect_order2[k])):
            dense = max(float(np.linalg.norm((ub - zb) @ x, 2))
                        for ub, zb in zip(u_exact, u_z))
            assert abs(defect - dense) <= full_bound
        assert (comp.dphase_exact[k], comp.ddamping_exact[k]) == extract_relative_phase(u_x)
        single = compare_propagators(system, probe, hT, [t])
        assert np.array_equal(single.amplitudes[0], comp.amplitudes[k])
        assert (single.defect_order3[0], single.defect_order2[0]) == (
            comp.defect_order3[k], comp.defect_order2[k])


def decomposition_bound(h, s):
    """First-order bound on ||V e^{-i s Lambda} V^dagger - exp(-i s H)||_2
    for eigh's V and Lambda, from the measured backward error
    ||V Lambda V^dagger - H||_2 (times |s|) and loss of unitarity
    ||V^dagger V - I||_2, the largest over a stack of blocks."""
    values, vectors = np.linalg.eigh(h)
    vh = np.swapaxes(vectors.conj(), -1, -2)
    backward = np.linalg.norm((vectors * values[..., None, :]) @ vh - h, 2, axis=(-2, -1))
    unitarity = np.linalg.norm(vh @ vectors - np.eye(h.shape[-1]), 2, axis=(-2, -1))
    return float(np.max(abs(s) * backward + unitarity))


def test_preset_order3_defect_at_the_first_time_matches_its_40_digit_value():
    # mpmath at 40 digits, from the same double-precision H_G and H_I,b
    reference = 4.265926246067722e-09
    system, probe, hT, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    t = 0.02
    comp = compare_propagators(system, probe, hT, [t], n_low=8)
    nest = nested_commutators(np.broadcast_to(hg, hi.shape), hi)
    bound = (product_rounding_bound(40, 8, EXACT_MATMULS + ZASSENHAUS_MATMULS)
             + decomposition_bound(hg + hi, t / hbar) + decomposition_bound(hg, t / hbar)
             + decomposition_bound(hi, t / hbar)
             + decomposition_bound(1j * nest["GI"], t**2 / (2 * hbar**2))
             + decomposition_bound(nest["GGI"] + 2 * nest["IGI"], t**3 / (6 * hbar**3)))
    assert bound < 1e-3 * reference  # the bound pins the defect, not just its size
    assert abs(comp.defect_order3[0] - reference) <= bound


# the zassenhaus-t3 preset's times, whose cubes numpy's array power rounds
# differently at t = 0.02 and t = 0.15485..., and random ones
SWEEP_TIMES = {"preset": np.geomspace(0.02, 0.2, 10),
               "random": np.random.default_rng(7).uniform(0.0, 1.5, 12)}


@pytest.mark.parametrize("which", sorted(SWEEP_TIMES))
def test_time_arrays_equal_the_scalar_calls(which):
    system, _, _, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    ts = SWEEP_TIMES[which]
    u_exact = exact_propagator(hg + hi, ts, hbar)
    u_z2, u_z3 = zassenhaus_product(hg, hi, ts, hbar)
    assert u_exact.shape == u_z2.shape == u_z3.shape == (len(ts),) + hi.shape
    for k, t in enumerate(ts):
        assert np.array_equal(u_exact[k], exact_propagator(hg + hi, t, hbar))
        z2, z3 = zassenhaus_product(hg, hi, float(t), hbar)
        assert np.array_equal(u_z2[k], z2) and np.array_equal(u_z3[k], z3)
    # so do the low columns
    x = np.eye(40, 8)
    u_x = exact_propagator(hg + hi, ts, hbar, x)
    x2, x3 = zassenhaus_product(hg, hi, ts, hbar, x)
    assert u_x.shape == x2.shape == x3.shape == (len(ts),) + hi.shape[:2] + (8,)
    for k, t in enumerate(ts):
        assert np.array_equal(u_x[k], exact_propagator(hg + hi, t, hbar, x))
        z2, z3 = zassenhaus_product(hg, hi, float(t), hbar, x)
        assert np.array_equal(x2[k], z2) and np.array_equal(x3[k], z3)
    # a single branch block takes a time array the same way, and its t^3
    # factor E has the scale -t^3/6hbar^3 formed in Python floats at every
    # time: order 3 is order 2 applied to E x, formed here as the product
    # forms it
    _, order3 = zassenhaus_product(hg, hi[1], ts, hbar, x)
    assert order3.shape == (len(ts),) + x.shape
    nest = nested_commutators(hg, hi[1])
    values, vectors = np.linalg.eigh(nest["GGI"] + 2.0 * nest["IGI"])
    for k, t in enumerate(ts.tolist()):
        s3 = -(t**3) / (6.0 * hbar**3)
        ex = vectors @ (np.exp(-1j * s3 * values)[:, None] * (vectors.conj().T @ x))
        assert np.array_equal(order3[k], zassenhaus_product(hg, hi[1], t, hbar, ex)[0])


@pytest.mark.parametrize("n_times", [1, 10])
def test_compare_propagators_diagonalises_each_generator_once(monkeypatch, n_times):
    # H_G + H_I,b, H_G, H_I,b, i[H_G,H_I,b] and the t^3 generator: one eigh
    # call each, the branch blocks stacked, at any number of times
    system, probe, hT, _, _ = zassenhaus_t3_arena()
    calls = []
    real = np.linalg.eigh

    def counting(h):
        calls.append(h.shape)
        return real(h)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    comp = compare_propagators(system, probe, hT, np.geomspace(0.02, 0.2, n_times))
    assert comp.defect_order3.shape == (n_times,)
    assert sorted(calls) == sorted([(40, 40)] + [(2, 40, 40)] * 4)


def _sweep_config(dim, t_points):
    cfg = get_preset("zassenhaus-t3")
    cfg["opalg"].update(dim=dim, t_points=t_points, tt_branch_amplitudes=[0.0, 0.1])
    return with_defaults(cfg)


@pytest.mark.parametrize("dim", [4, 12, 40])
def test_the_largest_accepted_sweep_peaks_under_the_limit(dim):
    # the config's opalg entry with the limit at 2^22 bytes: the largest
    # number of times it admits peaks under both the limit and the entry
    limit = 2**22
    n_times = 1
    while cost(_sweep_config(dim, n_times + 1))["opalg"] <= limit:
        n_times += 1
    entry = cost(_sweep_config(dim, n_times))["opalg"]
    system = single_system(dim)
    tracemalloc.start()
    try:
        compare_propagators(system, tt_probe(system, 0.1), 0.0,
                            np.geomspace(0.02, 0.2, n_times), n_low=min(8, dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < entry <= limit
