"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 3's slope window checks the rate at which narrow Gaussian sources
reach the point-pair phase.  Isotropic Gaussian sources separated by d
interact exactly like points once their tails stop overlapping (shell
theorem), so the deviation from the point-pair phase is erfc(d / 2 sigma),
which falls off exponentially in (d / sigma)^2, not as a sigma^2 power law.
The ladder sigma/d = 0.2, 0.1, 0.05, 0.025 gives deviations of about 4.1e-4,
1.5e-12, 2e-45 and 5e-176; the last two lie below double-precision rounding
of the phase difference.  The window is therefore centred on the log-log
slope of erfc(d / 2 sigma) over the rungs above 1e3 eps (about 28 between
the first two), computed in the test, and every rung is pinned to the closed
form to 8 eps.  The convergence itself (deviation decreasing to zero) is
asserted separately.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from gravphase.cli import main as cli_main
from gravphase.config import preset_names
from gravphase.grids import GridSpec
from gravphase.opalg import (
    TruncatedModeSystem,
    build_HG,
    build_HI,
    c_number_probe_stress,
    exact_propagator,
    extract_relative_phase,
    plus_polarization,
    predict_theta,
    zassenhaus_product,
)
from gravphase.overlaps import exact_joint_overlap, semiclassical_overlap
from gravphase.phases import compare_models, newton_phase, theta_AB
from gravphase.poisson import laplacian_residual, solve_hT_direct, solve_hT_spectral
from gravphase.sources import (
    POINT_SIGMA_CELLS,
    PhysicalConstants,
    QuantumSourceState,
    gaussian_density,
    source_overlap,
)
from gravphase.tensoralg import decompose, transverse_projector, tt_project

from test_phases import branch_state
from test_poisson import smooth_density

CONSTS = PhysicalConstants.natural()


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))


def test_criterion_1_tensor_algebra_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    n = 1000
    k = rng.normal(size=(n, 3))
    t = rng.normal(size=(n, 3, 3))
    t = 0.5 * (t + np.swapaxes(t, -1, -2))
    p = transverse_projector(k)
    worst = 0.0
    worst = max(worst, float(np.abs(p @ p - p).max()))
    worst = max(worst, float(np.abs(np.einsum("nij,nj->ni", p, k)).max()
                             / np.abs(k).max()))
    tt = tt_project(t, k)
    worst = max(worst, float(np.abs(np.trace(tt, axis1=-2, axis2=-1)).max()))
    worst = max(worst, float(np.abs(np.einsum("nij,nj->ni", tt, k)).max()
                             / np.abs(k).max()))
    longitudinal, trace_part, tt2 = decompose(t, k)
    recomposed = longitudinal + 0.5 * p * trace_part[..., None, None] + tt2
    worst = max(worst, float(np.abs(recomposed - t).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "tensor algebra, 1000 random (T, k)", ok,
            f"worst defect {worst:.2e}, runtime {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_poisson_oracle_equivalence():
    t0 = time.monotonic()
    grid = GridSpec(32, 8.0)
    e = smooth_density(grid, seed=202)
    spectral = solve_hT_spectral(e, grid, CONSTS)
    direct = solve_hT_direct(e, grid, CONSTS, stride=2)
    sub = spectral.values[::2, ::2, ::2]
    backend_dev = float(np.abs(sub - direct.values).max() / np.abs(direct.values).max())

    point = gaussian_density(1.0, (4.0, 4.0, 4.0), POINT_SIGMA_CELLS * grid.h)
    h_pt = solve_hT_spectral(point, grid, CONSTS)
    r = 2.0
    i = int((4.0 + r) / grid.h)
    far_field_rel = abs(h_pt.values[i, 16, 16]
                        / (CONSTS.kappa / (4 * np.pi * r)) - 1.0)

    rms_res, rms_src = laplacian_residual(spectral, e, CONSTS)
    residual_ratio = rms_res / rms_src
    elapsed = time.monotonic() - t0
    ok = backend_dev < 0.01 and far_field_rel < 0.02 and residual_ratio < 0.01 and elapsed < 60.0
    _report(2, "Poisson oracle equivalence, N=32", ok,
            f"backend dev {backend_dev:.2e}, far field {far_field_rel:.2e}, "
            f"residual {residual_ratio:.2e}, runtime {elapsed:.1f} s")
    assert backend_dev < 0.01
    assert far_field_rel < 0.02
    assert residual_ratio < 0.01
    assert elapsed < 60.0


def _narrow_limit_ladder(backend, mc_samples=0):
    d, t = 1.0, 0.2
    sigmas = [0.2, 0.1, 0.05, 0.025]
    sigma_reg = 0.005
    pt_a = gaussian_density(1.0, (0, 0, 0), sigma_reg)
    pt_b = gaussian_density(1.0, (d, 0, 0), sigma_reg)
    kw = {} if backend == "analytic" else {"mc_samples": mc_samples}
    th_pt, err_pt = theta_AB(pt_a, pt_b, t, CONSTS, backend=backend, seed=33, **kw)
    rows = []
    for sigma in sigmas:
        a = gaussian_density(1.0, (0, 0, 0), sigma)
        b = gaussian_density(1.0, (d, 0, 0), sigma)
        th, err = theta_AB(a, b, t, CONSTS, backend=backend, seed=34, **kw)
        dev = abs(th - th_pt) / abs(th_pt)
        rows.append((sigma, dev, math.hypot(err, err_pt) / abs(th_pt)))
    return rows


def test_criterion_3_narrow_limit_convergence():
    t0 = time.monotonic()
    exact_rows = _narrow_limit_ladder("analytic")
    mc_rows = _narrow_limit_ladder("mc", mc_samples=2_500_000)  # 1e7 total budget
    elapsed = time.monotonic() - t0
    devs = [r[1] for r in exact_rows]
    converges = all(b <= a for a, b in zip(devs, devs[1:])) and devs[-1] < 1e-6
    mc_consistent = all(dev <= 4.1e-4 + 4 * noise for _, dev, noise in mc_rows)
    ok = converges and mc_consistent and elapsed < 120.0
    _report(3, "narrow-limit convergence", ok,
            "deviations " + ", ".join(f"{s}: {v:.2e}" for s, v, _ in exact_rows)
            + f", runtime {elapsed:.1f} s")
    assert converges
    assert mc_consistent
    assert elapsed < 120.0


def test_criterion_3_narrow_limit_slope_window():
    eps = np.finfo(float).eps
    exact_rows = _narrow_limit_ladder("analytic")
    sigmas = np.array([r[0] for r in exact_rows])
    devs = np.array([r[1] for r in exact_rows])
    # Shell theorem: the Gaussian pair deviates from the point pair by exactly
    # erfc(d / 2 sigma), d = 1, computed here independently of the program.
    closed = erfc(1.0 / (2 * sigmas))
    # The deviation is a difference of two O(1) phases and cancels to ~eps;
    # only rungs the closed form puts well above that floor carry a slope.
    rungs = closed > 1e3 * eps
    assert rungs.sum() >= 2, "fewer than two ladder rungs lie above the rounding floor"
    target = float(np.polyfit(np.log(sigmas[rungs]), np.log(closed[rungs]), 1)[0])
    slope = (float(np.polyfit(np.log(sigmas[rungs]), np.log(devs[rungs]), 1)[0])
             if (devs[rungs] > 0).all() else float("nan"))
    pin_dev = float(np.abs(devs - closed).max())
    in_window = abs(slope - target) <= 0.2
    pinned = pin_dev <= 8 * eps
    _report(3, f"narrow-limit log-log slope {target:.2f} +/- 0.2 from erfc(d/2 sigma)",
            in_window and pinned,
            f"measured slope {slope:.4f} over {int(rungs.sum())} rungs; "
            f"max |dev - erfc(d/2 sigma)| {pin_dev:.1e} over all rungs")
    assert in_window, (
        f"log-log deviation slope is {slope:.4f}, not {target:.2f} +/- 0.2 "
        "from erfc(d / 2 sigma): isotropic Gaussian pairs must converge to "
        "the point-pair phase as erfc(d / 2 sigma) (shell theorem)."
    )
    assert pinned, (
        f"deviations {devs.tolist()} miss erfc(d / 2 sigma) {closed.tolist()} "
        f"by up to {pin_dev:.1e}, more than 8 eps"
    )


def test_criterion_4_model_discrimination():
    t = 0.2
    # wide pair, sigma = d / 2
    wa, wb = branch_state([[0, 0, 0]], 0.5), branch_state([[1.0, 0, 0]], 0.5)
    wide = compare_models(wa, wb, t, CONSTS)
    newton_dev = wide["deviations_point_normalized"]["newton"]

    # 2x2 branches for the negativity statements
    ga = branch_state([[0, 0, 0], [0.4, 0, 0]], 0.05)
    gb = branch_state([[1.0, 0, 0], [1.4, 0, 0]], 0.05)
    gie = compare_models(ga, gb, t, CONSTS)
    sn_neg = gie["negativities"]["schroedinger-newton"]
    full_neg = gie["negativities"]["general"]
    narrow_newton_dev = gie["deviations_point_normalized"]["newton"]

    # functional-form invariance under width change
    n1 = newton_phase(wa, wb, t, CONSTS).phases[0, 0]
    wa2, wb2 = branch_state([[0, 0, 0]], 0.75), branch_state([[1.0, 0, 0]], 0.75)
    n2 = newton_phase(wa2, wb2, t, CONSTS).phases[0, 0]
    t1, _ = theta_AB(wa.densities[0], wb.densities[0], t, CONSTS)
    t2, _ = theta_AB(wa2.densities[0], wb2.densities[0], t, CONSTS)
    theta_change = abs(t2 - t1) / abs(t1)

    ok = (newton_dev > 0.10 and sn_neg == 0.0 and full_neg > 0.0
          and narrow_newton_dev < 0.02 and n1 == n2 and theta_change > 0.05)
    _report(4, "model discrimination", ok,
            f"wide Newton dev {newton_dev:.3f}, SN negativity {sn_neg}, "
            f"full 2x2 negativity {full_neg:.4f}, narrow Newton dev "
            f"{narrow_newton_dev:.2e}, width response {theta_change:.3f}")
    assert newton_dev > 0.10
    assert sn_neg == 0.0
    assert full_neg > 0.0
    assert narrow_newton_dev < 0.02
    assert n1 == n2
    assert theta_change > 0.05


def test_criterion_5_overlap_identities():
    t0 = time.monotonic()
    grid = GridSpec(16, 8.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        def one():
            k = int(rng.integers(1, 5))
            idx = tuple(sorted(rng.choice(6, size=k, replace=False)))
            amps = rng.normal(size=k) + 1j * rng.normal(size=k)
            amps /= np.linalg.norm(amps)
            dens = [gaussian_density(1.0, (2.0 + 0.5 * i, 3.0, 4.0), 0.3 + 0.02 * i)
                    for i in idx]
            return QuantumSourceState(amplitudes=amps, densities=dens, indices=idx)
        psi, phi = one(), one()
        worst = max(worst, abs(exact_joint_overlap(psi, phi, grid, CONSTS)
                               - source_overlap(psi, phi)))
    # the check behind that identity: a shared index whose two states carry
    # different Gaussians has field shifts that do not cancel
    moved = QuantumSourceState(amplitudes=[1.0], indices=psi.indices[:1],
                               densities=[gaussian_density(1.0, (5.0, 3.0, 4.0), 0.45)])
    with pytest.raises(ValueError, match="inconsistent"):
        exact_joint_overlap(psi, moved, grid, CONSTS)

    pos, eps, sigma_reg = (4.0, 4.0, 4.0), (0.5, 0.0, 0.0), 0.1
    w_logs = [semiclassical_overlap(pos, eps, 700.0 * 0.5**i, grid, CONSTS,
                                    sigma_reg=sigma_reg)
              for i in range(6)]
    w_monotone = all(b < a for a, b in zip(w_logs, w_logs[1:]))
    w_final_small = math.exp(w_logs[-1] - w_logs[0]) < 1e-3
    n_logs = [semiclassical_overlap(pos, eps, 500.0, GridSpec(n, 8.0), CONSTS,
                                    sigma_reg=sigma_reg)
              for n in (8, 16, 32)]
    n_monotone = all(b < a for a, b in zip(n_logs, n_logs[1:]))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and w_monotone and w_final_small and n_monotone and elapsed < 30.0
    _report(5, "overlap identities", ok,
            f"joint-vs-source max dev {worst:.2e}, w-ladder ratio "
            f"{math.exp(w_logs[-1] - w_logs[0]):.1e}, N-ladder logs "
            + ", ".join(f"{v:.4f}" for v in n_logs) + f", runtime {elapsed:.1f} s")
    assert worst <= 1e-12
    assert w_monotone and w_final_small
    assert n_monotone
    assert elapsed < 30.0


def _verification_arena():
    consts = PhysicalConstants.natural()
    system = TruncatedModeSystem((0.0, 0.0, 1.0), 40, consts, weight=1.0)
    e_plus = plus_polarization((0.0, 0.0, 1.0))
    trans = np.diag([1.0, 1.0, 0.0])
    probe = c_number_probe_stress([np.zeros((3, 3)), 0.04 * e_plus + 0.5 * 0.05 * trans])
    hT = 0.8
    return consts, system, probe, hT


def test_criterion_6_zassenhaus_order_certification():
    t0 = time.monotonic()
    consts, system, probe, hT = _verification_arena()
    hg = build_HG(system)
    hi = build_HI(system, probe, hT)
    low = np.eye(40, 8)
    ts = np.geomspace(0.02, 0.2, 10)
    d3, d2 = [], []
    for t in ts:
        # per branch block; the operator norm on field (x) probe is the largest
        uex = exact_propagator(hg + hi, t, consts.hbar)
        uz2, uz3 = zassenhaus_product(hg, hi, t, consts.hbar)
        for out, uz in ((d3, uz3), (d2, uz2)):
            out.append(max(np.linalg.norm((ub - zb) @ low, 2) for ub, zb in zip(uex, uz)))
    slope3 = float(np.polyfit(np.log(ts), np.log(d3), 1)[0])
    slope2 = float(np.polyfit(np.log(ts), np.log(d2), 1)[0])
    elapsed = time.monotonic() - t0
    ok = 3.9 <= slope3 <= 4.3 and 2.9 <= slope2 <= 3.3 and elapsed < 60.0
    _report(6, "Zassenhaus order certification", ok,
            f"slope with t^3 factor {slope3:.3f}, without {slope2:.3f}, "
            f"runtime {elapsed:.1f} s")
    assert 3.9 <= slope3 <= 4.3
    assert 2.9 <= slope2 <= 3.3
    assert elapsed < 60.0


def test_criterion_7_commutator_phase_verification():
    t0 = time.monotonic()
    consts, system, probe, hT = _verification_arena()
    hg = build_HG(system)
    hi = build_HI(system, probe, hT)
    omega = system.omega
    ts = np.geomspace(0.02, 0.2, 10)
    resid, damp = [], []
    for t in ts:
        u = exact_propagator(hg + hi, t, consts.hbar)
        dphase, dmag = extract_relative_phase(u)
        pred = predict_theta(system, probe, hT, t)
        resid.append(dphase - float(pred.phase0[1] - pred.phase0[0]))
        damp.append(abs(dmag))
    slope_resid = float(np.polyfit(np.log(ts), np.log(np.abs(resid)), 1)[0])
    slope_damp = float(np.polyfit(np.log(ts), np.log(damp), 1)[0])

    pred0 = predict_theta(system, probe, hT, ts[0])
    coeff_pred = float(pred0.phase_t3[1] - pred0.phase_t3[0]) / ts[0] ** 3
    coeff_meas = resid[0] / ts[0] ** 3
    # independent oracle: displaced-oscillator closed form,
    # phase = g^2 (wt - sin wt) with g^2 = lambda^2 kappa / (hbar w^3)
    lam = 0.5 * system.weight * 0.04
    g2 = lam**2 * consts.kappa / (consts.hbar * omega**3)
    coeff_oracle = g2 * omega**3 / 6.0
    rel_pred = abs(coeff_meas - coeff_pred) / abs(coeff_pred)
    rel_oracle = abs(coeff_meas - coeff_oracle) / abs(coeff_oracle)
    elapsed = time.monotonic() - t0
    ok = (2.8 <= slope_resid <= 3.2 and rel_pred <= 0.05 and rel_oracle <= 0.05
          and 1.9 <= slope_damp <= 2.1 and elapsed < 120.0)
    _report(7, "commutator-phase verification", ok,
            f"t^3 slope {slope_resid:.3f}, coeff vs prediction {rel_pred:.2e}, "
            f"vs closed form {rel_oracle:.2e}, damping slope {slope_damp:.3f}, "
            f"runtime {elapsed:.1f} s")
    assert 2.8 <= slope_resid <= 3.2
    assert rel_pred <= 0.05
    assert rel_oracle <= 0.05
    assert 1.9 <= slope_damp <= 2.1
    assert elapsed < 120.0


def test_criterion_8_deterministic_reruns(tmp_path):
    identical = True
    details = []
    for name in preset_names():
        bodies = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main(["run", f"preset:{name}", "--out", str(out)])
            assert code == 0, f"preset {name} failed with exit {code}"
            bodies.append({p.name: p.read_bytes()
                           for p in sorted((out / "tables").glob("*.csv"))})
        same = bodies[0] == bodies[1] and bodies[0]
        identical = identical and bool(same)
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    _report(8, "deterministic reruns of every preset", identical, "; ".join(details))
    assert identical
