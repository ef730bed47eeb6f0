import numpy as np
import pytest
from scipy.linalg import expm

from gravphase.opalg import (
    ModeSpec,
    ProbeStressTensor,
    TruncatedModeSystem,
    build_HG,
    build_HI,
    c_number_probe_stress,
    commutator,
    compare_propagators,
    exact_propagator,
    extract_relative_phase,
    low_level_projector,
    make_single_mode_system,
    nested_commutators,
    polarization_tensors,
    predict_theta,
    propagator_sweep,
    zassenhaus_product,
)
from gravphase.sources import PhysicalConstants

from test_acceptance import _verification_arena

# kappa = 2.7 exactly, c = hbar = 1
CONSTS = PhysicalConstants(G=2.7 / (16 * np.pi), c=1.0, hbar=1.0)
KVEC = (0.0, 0.0, 1.3)
OMEGA = 1.3


def single_system(dim=40, weight=1.0):
    return make_single_mode_system(KVEC, dim, CONSTS, weight=weight)


def tt_probe(system, amp_b, amp_a=0.0):
    e_plus, _ = polarization_tensors(KVEC)
    return c_number_probe_stress(system, [amp_a * e_plus, amp_b * e_plus])


def closed_form_branch_amplitude(coupling, t, omega=OMEGA, kappa=CONSTS.kappa, hbar=1.0):
    """Displaced-oscillator vacuum persistence amplitude for H = H_G + c h,
    with the free zero-point phase removed: exp(i g^2 (wt - sin wt))
    * exp(-g^2 (1 - cos wt)), g^2 = c^2 kappa / (hbar w^3)."""
    g2 = coupling**2 * kappa / (hbar * omega**3)
    return np.exp(1j * g2 * (omega * t - np.sin(omega * t))) * np.exp(-g2 * (1 - np.cos(omega * t)))


def test_system_validation_and_commutator_defect():
    sys1 = single_system()
    sys1.validate()
    assert sys1.commutator_defect(0) < 1e-12
    h, pi = sys1.h_op(0), sys1.pi_op(0)
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


def test_hg_two_mode_minkowski_sum():
    system = TruncatedModeSystem(
        modes=(ModeSpec(kvec=(0, 0, 1.0), polarization=0, dim=12),
               ModeSpec(kvec=(0, 1.7, 0), polarization=1, dim=12)),
        consts=CONSTS, weight=1.0)
    hg = build_HG(system)
    evals = np.sort(np.linalg.eigvalsh(hg))
    singles = [np.sort(np.linalg.eigvalsh(build_HG(make_single_mode_system(m.kvec, 12, CONSTS))))
               for m in system.modes]
    summed = np.sort(np.add.outer(singles[0][:6], singles[1][:6]).ravel())
    # compare only the low end, where the 6 x 6 Minkowski subset is complete
    np.testing.assert_allclose(evals[:8], summed[:8], rtol=1e-8)


def test_hg_spectrum_kappa_invariant():
    strong = PhysicalConstants(G=270.0 / (16 * np.pi), c=1.0, hbar=1.0)
    e1 = np.sort(np.linalg.eigvalsh(build_HG(single_system())))[:10]
    e2 = np.sort(np.linalg.eigvalsh(build_HG(make_single_mode_system(KVEC, 40, strong))))[:10]
    np.testing.assert_allclose(e1, e2, rtol=1e-10)


def test_hi_zero_probe_and_hermiticity():
    sys1 = single_system()
    probe = c_number_probe_stress(sys1, [np.zeros((3, 3)), np.zeros((3, 3))])
    hi = build_HI(sys1, probe, [0.0])
    assert np.abs(hi).max() == 0.0
    probe2 = tt_probe(sys1, 0.3)
    hi2 = build_HI(sys1, probe2, [0.7])
    assert np.abs(hi2 - hi2.conj().T).max() < 1e-12


def test_hi_linear_drive_matrix_elements():
    sys1 = single_system(weight=2.0)
    amp = 0.25
    probe = tt_probe(sys1, amp)
    hi = build_HI(sys1, probe, [0.0])
    # branch b block must be -(1/2) * w * amp * h
    blk = hi.reshape(40, 2, 40, 2)[:, 1, :, 1]
    np.testing.assert_allclose(blk, -0.5 * 2.0 * amp * sys1.h_op(0), atol=1e-14)
    blk0 = hi.reshape(40, 2, 40, 2)[:, 0, :, 0]
    assert np.abs(blk0).max() == 0.0


def test_hi_mode_mismatch():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.1)
    with pytest.raises(ValueError, match="mode mismatch"):
        build_HI(sys1, probe, [0.0, 1.0])


def test_commutator_basics():
    sys1 = single_system()
    hg = build_HG(sys1, probe_dim=2)
    assert np.abs(commutator(hg, hg)).max() == 0.0


def test_double_commutator_is_pure_probe():
    sys1 = single_system(weight=1.5)
    amp_a, amp_b = 0.1, 0.3
    probe = tt_probe(sys1, amp_b, amp_a)
    hg = build_HG(sys1, probe_dim=2)
    hi = build_HI(sys1, probe, [0.0])
    nest = nested_commutators(hg, hi)
    igi = nest["IGI"]
    # predicted c-number per branch: (kappa hbar^2 / 2) (w tau_b)^2
    kappa = CONSTS.kappa
    pred = np.kron(np.eye(40), np.diag([
        0.5 * kappa * (1.5 * amp_a) ** 2, 0.5 * kappa * (1.5 * amp_b) ** 2]))
    proj = low_level_projector(sys1, 2, 38)
    dev = np.abs(proj @ (igi - pred) @ proj).max()
    assert dev < 1e-8
    # field dependence is confined to the truncation boundary
    off_field = proj @ igi @ proj - pred @ proj
    assert np.abs(off_field).max() < 1e-10


def test_zassenhaus_identity_at_t0_and_commuting_collapse():
    sys1 = single_system()
    probe = c_number_probe_stress(sys1, [np.zeros((3, 3)), np.diag([0.2, 0.2, 0.0])])
    hg = build_HG(sys1, probe_dim=2)
    hi = build_HI(sys1, probe, [0.9])  # trace-only coupling: pure probe operator
    u0 = zassenhaus_product(hg, hi, 0.0, 1.0)
    np.testing.assert_allclose(u0, np.eye(80), atol=1e-14)
    t = 0.3
    uz = zassenhaus_product(hg, hi, t, 1.0)
    direct = expm(-1j * t * (hg + hi))
    assert np.abs(uz - direct).max() < 1e-12


def test_zassenhaus_defect_slopes():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.3)
    hg = build_HG(sys1, probe_dim=2)
    hi = build_HI(sys1, probe, [0.0])
    proj = low_level_projector(sys1, 2, 8)
    ts = np.geomspace(0.03, 0.3, 8)
    d3, d2 = [], []
    for t in ts:
        uex = exact_propagator(hg + hi, t, 1.0)
        d3.append(np.linalg.norm((uex - zassenhaus_product(hg, hi, t, 1.0, order=3)) @ proj, 2))
        d2.append(np.linalg.norm((uex - zassenhaus_product(hg, hi, t, 1.0, order=2)) @ proj, 2))
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
    with pytest.raises(ValueError, match="guard"):
        exact_propagator(np.zeros((5000, 5000)), 1.0, 1.0)


def test_predict_theta_zero_and_term_selection():
    sys1 = single_system(weight=1.4)
    zero = c_number_probe_stress(sys1, [np.zeros((3, 3)), np.zeros((3, 3))])
    pred = predict_theta(sys1, zero, [0.0], 0.5)
    assert np.all(pred.phase0 == 0) and np.all(pred.phase1 == 0)
    amp = 0.2
    probe = tt_probe(sys1, amp)
    t = 0.25
    pred = predict_theta(sys1, probe, [0.0], t)
    c2 = (1.4 * amp) ** 2
    kappa = CONSTS.kappa
    assert pred.phase0[1] == 0.0  # traceless transverse probe: no c-number drive
    np.testing.assert_allclose(pred.phase1[1], -kappa * t**3 / 8 * c2, rtol=1e-12)
    np.testing.assert_allclose(pred.phase2[1], kappa * t**3 / 6 * c2, rtol=1e-12)
    np.testing.assert_allclose(pred.damping0[1], -kappa * t**2 / (8 * OMEGA) * c2, rtol=1e-12)


def test_predict_theta_noncommuting_probe_rejected():
    sys1 = single_system()
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    coeffs = np.zeros((1, 6, 2, 2), dtype=complex)
    coeffs[0, 0] = sx
    coeffs[0, 1] = sz
    probe = ProbeStressTensor(coeffs=coeffs, probe_dim=2)
    with pytest.raises(ValueError, match="branch basis undefined"):
        predict_theta(sys1, probe, [0.0], 0.1)


def test_extract_relative_phase_identity_and_free():
    sys1 = single_system()
    dim = 40 * 2
    dphase, dmag = extract_relative_phase(np.eye(dim), sys1, 2, (0, 1))
    assert dphase == 0.0 and dmag == 0.0
    gap = 0.8
    hfree = np.kron(np.eye(40), np.diag([0.0, gap]))
    t = 0.37
    u = expm(-1j * t * hfree)
    dphase, dmag = extract_relative_phase(u, sys1, 2, (0, 1))
    assert abs(dphase + gap * t) < 1e-12
    assert abs(dmag) < 1e-12


def test_extract_relative_phase_suppressed_branch():
    sys1 = single_system()
    u = np.zeros((80, 80), dtype=complex)
    u[1, 0] = 1.0  # moves everything out of the vacuum-branch subspace
    u += 1e-15 * np.eye(80)
    with pytest.raises(ValueError, match="suppressed"):
        extract_relative_phase(np.eye(80) - np.eye(80) + u, sys1, 2, (0, 1))


def test_full_evolution_matches_closed_form_and_predictions():
    sys1 = single_system()
    amp = 0.25
    trace_amp = 0.15
    e_plus, _ = polarization_tensors(KVEC)
    khat = np.asarray(KVEC) / OMEGA
    trans = np.eye(3) - np.outer(khat, khat)
    probe = c_number_probe_stress(
        sys1, [np.zeros((3, 3)), amp * e_plus + 0.5 * trace_amp * trans])
    hT = np.array([0.9])
    hg = build_HG(sys1, probe_dim=2)
    hi = build_HI(sys1, probe, hT)
    for t in (0.05, 0.1, 0.2):
        u = exact_propagator(hg + hi, t, 1.0)
        dphase, dmag = extract_relative_phase(u, sys1, 2, (0, 1))
        pred = predict_theta(sys1, probe, hT, t)
        # trace coupling: c-number branch phase, exact at all orders
        phase0 = pred.phase0[1] - pred.phase0[0]
        lam = 0.5 * 1.0 * amp  # |lambda| of H_I = lambda h on branch b (w = 1)
        closed = closed_form_branch_amplitude(lam, t)
        # closed form phase of branch b relative to idle branch a
        assert abs((dphase - phase0) - np.angle(closed)) < 1e-9
        assert abs(dmag - np.log(abs(closed))) < 1e-9
        # t^3 residual against the commutator prediction
        resid = dphase - phase0
        t3 = pred.phase_t3[1] - pred.phase_t3[0]
        assert abs(resid - t3) < 0.05 * abs(t3) + 1e-12


def test_damping_t2_scaling():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.3)
    hg = build_HG(sys1, probe_dim=2)
    hi = build_HI(sys1, probe, [0.0])
    ts = np.geomspace(0.05, 0.5, 8)
    mags = []
    for t in ts:
        u = exact_propagator(hg + hi, t, 1.0)
        _, dmag = extract_relative_phase(u, sys1, 2, (0, 1))
        mags.append(abs(dmag))
    slope = np.polyfit(np.log(ts), np.log(mags), 1)[0]
    assert 1.9 <= slope <= 2.1
    pred = predict_theta(sys1, probe, [0.0], ts[0])
    assert pred.damping0[1] < 0.0  # decaying, matching the sign convention


def test_compare_propagators_record():
    sys1 = single_system()
    probe = tt_probe(sys1, 0.2)
    sweep = propagator_sweep(sys1, probe, [0.0])
    comp = compare_propagators(sweep, 0.1, order=3)
    assert comp.defect >= 0.0
    for u in (comp.u_exact, comp.u_zassenhaus):
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-10
    assert abs(comp.dphase_exact - comp.dphase_predicted) < 1e-6
    assert abs(comp.ddamping_exact - comp.ddamping_predicted) < 1e-5
    weaker = compare_propagators(sweep, 0.1, order=2)
    assert weaker.defect > comp.defect
    with pytest.raises(ValueError, match="order"):
        compare_propagators(sweep, 0.1, order=4)


def zassenhaus_t3_arena():
    """The 80 x 80 system of the zassenhaus-t3 preset, with H_G and H_I."""
    _, system, probe, hT = _verification_arena()
    return system, probe, hT, build_HG(system, probe_dim=2), build_HI(system, probe, hT)


def test_spectral_propagators_match_expm():
    # scipy's Pade expm is the test-side oracle for the eigendecompositions
    system, _, _, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    nest = nested_commutators(hg, hi)
    for t in (0.02, 0.07, 0.2, 1.5):
        u = exact_propagator(hg + hi, t, hbar)
        assert np.abs(u - expm(-1j * t * (hg + hi) / hbar)).max() <= 1e-13
        factors = [expm(-1j * t * hg / hbar), expm(-1j * t * hi / hbar),
                   expm((t**2 / (2 * hbar**2)) * nest["GI"]),
                   expm((1j * t**3 / (6 * hbar**3)) * (nest["GGI"] + 2 * nest["IGI"]))]
        for order in (2, 3):
            want = np.linalg.multi_dot(factors[: order + 1])
            got = zassenhaus_product(hg, hi, t, hbar, order=order)
            assert np.abs(got - want).max() <= 1e-13


def test_sweep_is_bit_identical_to_single_time_calls():
    system, probe, hT, hg, hi = zassenhaus_t3_arena()
    hbar = system.consts.hbar
    proj = low_level_projector(system, 2, 8)
    sweep = propagator_sweep(system, probe, hT, n_low=8)
    for t in np.geomspace(0.02, 0.2, 4):
        for order in (3, 2):
            comp = compare_propagators(sweep, t, order=order)
            u_exact = exact_propagator(hg + hi, t, hbar)
            u_z = zassenhaus_product(hg, hi, t, hbar, order=order)
            assert np.array_equal(comp.u_exact, u_exact)
            assert np.array_equal(comp.u_zassenhaus, u_z)
            assert comp.defect == float(np.linalg.norm((u_exact - u_z) @ proj, 2))
            assert (comp.dphase_exact, comp.ddamping_exact) == extract_relative_phase(
                u_exact, system, 2, (0, 1))
            single = compare_propagators(propagator_sweep(system, probe, hT), t, order=order)
            assert np.array_equal(single.u_zassenhaus, comp.u_zassenhaus)
            assert single.defect == comp.defect
