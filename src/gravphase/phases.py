"""Entangling phases of two static quantum sources and the competing-model
predictions (Newton, ad-hoc nonlocal coupling, mean-field self-gravity),
plus entanglement negativity of the resulting branch states.

Phases are reported in radians without 2 pi reduction so that functional
forms can be compared across models.  For the density-based phase evaluated
on point-like profiles the prefactor is kappa c^4 / (4 pi) = 4 G, i.e. four
times the Newton value G m_A m_B t / (hbar d); model comparisons therefore
normalise the overall constant away and compare shapes only.  The ratio is
reported, never hidden.

Every model matrix except Newton's, and the self-energies, is a fixed linear
map of one set of Coulomb pair integrals.  `compare_models` computes them,
and the convergence ladder's, in one pair-integral call per source pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .poisson import mutual_coulomb, pair_integrals
from .sources import (
    EnergyDensity,
    PhysicalConstants,
    QuantumSourceState,
    gaussian_density,
)

# point-limit ratios of the density phase to each model phase: the constant
# each model matrix is multiplied by before functional forms are compared.
# kappa c^4/(4 pi) = 4 G with the sign of e^{-iVt/hbar} folded in; the
# mean-field model double counts the cross coupling, hence the extra 2.
POINT_LIMIT_RATIOS = {"newton": -4.0, "nonlocal": -4.0, "schroedinger-newton": -2.0}

EIGENVALUE_FLOOR = 1e-12  # relative floor below which Schmidt coefficients count as zero


@dataclass(frozen=True)
class PhaseMatrix:
    """Complex log-amplitude per eigenpair: real part damping (log magnitude),
    imaginary part phase in radians."""

    model: str
    theta: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=complex)
        object.__setattr__(self, "theta", th)
        if not np.all(np.isfinite(th)):
            raise ValueError("phase matrix entries must be finite")

    @property
    def phases(self) -> np.ndarray:
        return self.theta.imag

    @property
    def damping(self) -> np.ndarray:
        return self.theta.real


def _nonlocal_coupling(time: float, consts: PhysicalConstants) -> float:
    """G t / (hbar c^4), the nonlocal model's phase per unit pair integral.
    The density phase is POINT_LIMIT_RATIOS["nonlocal"] = -4 times it (kappa
    / 4 pi = 4 G / c^4), a factor exact in floating point."""
    return consts.G * time / (consts.hbar * consts.c**4)


def theta_AB(
    e_a: EnergyDensity,
    e_b: EnergyDensity,
    time: float,
    consts: PhysicalConstants,
    backend: str = "auto",
    grid: GridSpec | None = None,
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """Entangling phase of the density pair,

        theta = -(kappa t / 4 pi hbar) int E_A(x) E_B(y) / |x-y|,

    returned as (radians, stderr).  stderr is nonzero only for the
    Monte-Carlo backend and is propagated from the pair integral.
    """
    if time == 0.0:
        return 0.0, 0.0
    val, err = mutual_coulomb(e_a, e_b, consts, backend=backend, grid=grid,
                              mc_samples=mc_samples, seed=seed)
    pref = POINT_LIMIT_RATIOS["nonlocal"] * _nonlocal_coupling(time, consts)
    return pref * val, abs(pref) * err


def newton_phase(psi_a: QuantumSourceState, psi_b: QuantumSourceState,
                 time: float, consts: PhysicalConstants) -> PhaseMatrix:
    """Density-center phase matrix of the pairwise 1/r potential:
    theta_ij = + G m_i m_j t / (hbar |x_i - y_j|), with m_i, x_i the mass
    and center of density i of psi_a and m_j, y_j those of psi_b, the phase
    of e^{-i V t / hbar} with V = -G m_i m_j / r.  Pure phase, no damping."""
    if not all(e.kind == "gaussian" for psi in (psi_a, psi_b) for e in psi.densities):
        raise ValueError("the 1/r potential needs point or gaussian densities (a center)")
    (m_a, x), (m_b, y) = ((np.array([e.mass for e in psi.densities], float),
                           np.array([e.center for e in psi.densities], float))
                          for psi in (psi_a, psi_b))
    d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    if np.any(d == 0.0):
        raise ValueError("coincident density centers: 1/r potential undefined")
    theta = consts.G * m_a[:, None] * m_b[None, :] * time / (consts.hbar * d)
    return PhaseMatrix(model="newton", theta=1j * theta)


def negativity(amps_a, amps_b, matrix: PhaseMatrix) -> float:
    """Entanglement negativity of the branch state
    sum_ij c_i d_j exp(theta_ij) |i>|j> (theta complex: damping + i phase).

    For a pure state with Schmidt coefficients s (the singular values of the
    normalised coefficient matrix) the negativity is ((sum s)^2 - 1) / 2
    (Vidal & Werner, PRA 65, 032314); it is evaluated as
    ((sum s)^2 - sum s^2) / (2 sum s^2), which is the same number but keeps
    the rounding of the normalisation out of it.  Coefficients below
    EIGENVALUE_FLOOR * max(s) are treated as zero so that separable inputs
    report exactly 0.
    """
    amps_a = np.asarray(amps_a, dtype=complex)
    amps_b = np.asarray(amps_b, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports both
        coeff = amps_a[:, None] * amps_b[None, :] * np.exp(matrix.theta)
        norm = np.linalg.norm(coeff)
    if not 1e-300 <= norm < np.inf:  # also catches NaN
        raise ValueError("state is not normalisable (coefficients all zero or not finite)")
    s = np.linalg.svd(coeff / norm, compute_uv=False)
    s = s[s > EIGENVALUE_FLOOR * s[0]]
    sq = float((s * s).sum())
    return (float(s.sum()) ** 2 - sq) / (2.0 * sq)


def _point_normalized_deviation(theta_general: np.ndarray, theta_model: np.ndarray,
                                ratio: float) -> float:
    """Max relative deviation between the general matrix and the model matrix
    scaled by its fixed point-limit ratio.  This is the functional-form
    comparison: in the narrow-source limit it vanishes by construction, away
    from it any residual is genuine shape difference."""
    ref = np.abs(theta_general).max()
    if ref == 0.0:
        return 0.0
    return float(np.abs(theta_general - ratio * theta_model).max() / ref)


def _fitted_deviation(theta_general: np.ndarray, theta_model: np.ndarray) -> float:
    """Same comparison with the overall constant fitted by least squares
    instead of pinned; degenerate (zero) for single-entry matrices and for a
    zero general matrix."""
    g = theta_general.reshape(-1)
    m = theta_model.reshape(-1)
    ref = np.abs(g).max()
    if ref == 0.0:
        return 0.0
    denom = float(m @ m)
    if denom == 0.0:
        return float("inf")
    scale = float(g @ m) / denom
    return float(np.abs(g - scale * m).max() / ref)


def compare_models(
    psi_a: QuantumSourceState,
    psi_b: QuantumSourceState,
    time: float,
    consts: PhysicalConstants,
    grid: GridSpec | None = None,
    backend: str = "auto",
    mc_samples: int = 1_000_000,
    seed: int = 0,
    sigma_ladder=(),
) -> dict:
    """Evaluate every model phase matrix for one source pair and quantify
    how far each competing model is from the full density phase.

    Returns a dict: "matrices" (PhaseMatrix per model), "convergence" (the
    narrow-width ladder rows on the first density of each state, each
    phase and stderr equal to `theta_AB` of its pair; empty unless
    sigma_ladder is set), then the report sections "negativities",
    "deviations_point_normalized" (general vs model, point-limit prefactor
    pinned), "deviations_fitted" (same with the overall constant fitted),
    "pairwise_deviations" (model vs model after prefactor normalisation),
    "self_energies" with their Monte-Carlo standard errors in
    "self_energies_stderr" (zeros on the deterministic backends).  A ladder
    on the grid backend adds "ladder_min_width_over_h": the point pair's
    regularisation width, min(sigma_ladder) / 4, over the cell size.
    """
    if time < 0.0:
        raise ValueError("evolution time must be non-negative")
    # first, so that coincident centers are refused before any pair integral
    newton = newton_phase(psi_a, psi_b, time, consts)

    # every Coulomb integral of the run from one pair list: the cross block
    # row by row, the self integrals, then the ladder's point pair and one
    # equal-width Gaussian pair per rung.  Every model matrix and the
    # self-energies are fixed linear maps of the first two.
    family = [*psi_a.densities, *psi_b.densities]
    n_a, n_b = len(psi_a.densities), len(psi_b.densities)
    n_f, n_cross = n_a + n_b, n_a * n_b
    pairs = [(i, j) for i in range(n_a) for j in range(n_a, n_f)] + [(k, k) for k in range(n_f)]
    if sigma_ladder:
        a0, b0 = psi_a.densities[0], psi_b.densities[0]
        reg = min(sigma_ladder) / 4.0
        for s in (reg, *sigma_ladder):
            pairs.append((len(family), len(family) + 1))
            family += [gaussian_density(a0.mass, a0.center, s),
                       gaussian_density(b0.mass, b0.center, s)]
    val, err = pair_integrals(family, pairs, consts, backend=backend, grid=grid,
                              mc_samples=mc_samples, seed=seed)
    cross, cross_err = val[:n_cross].reshape(n_a, n_b), err[:n_cross].reshape(n_a, n_b)
    self_val, self_err = val[n_cross:n_cross + n_f], err[n_cross:n_cross + n_f]

    pref_nonlocal = _nonlocal_coupling(time, consts)
    pref_general = POINT_LIMIT_RATIOS["nonlocal"] * pref_nonlocal
    stderr = abs(pref_general) * cross_err
    general = PhaseMatrix(model="general", theta=1j * (pref_general * cross),
                          stderr=stderr if stderr.any() else None)
    matrices = {"general": general, "newton": newton}

    # mean field: each particle evolves in the averaged field of the other's
    # full state, u_i = pref sum_j |d_j|^2 P_ij and v_j = pref sum_i |c_i|^2 P_ij,
    # so theta_ij = u_i + v_j is separable and never entangles.  Both cross
    # couplings contribute, hence the point-limit ratio -2.
    u = pref_nonlocal * (cross * np.abs(psi_b.amplitudes) ** 2).sum(axis=1)
    v = pref_nonlocal * (np.abs(psi_a.amplitudes[:, None]) ** 2 * cross).sum(axis=0)
    matrices["schroedinger-newton"] = PhaseMatrix(model="schroedinger-newton",
                                                  theta=1j * (u[:, None] + v[None, :]))

    # ad-hoc nonlocal coupling V = -(G / c^4) int E_A E_B / |x-y|: the trace of
    # the stress tensor is energy-density dominated for static sources
    matrices["nonlocal"] = PhaseMatrix(model="nonlocal", theta=1j * (pref_nonlocal * cross))

    negativities = {name: negativity(psi_a.amplitudes, psi_b.amplitudes, pm)
                    for name, pm in matrices.items()}

    models = {name: pm.phases for name, pm in matrices.items() if name != "general"}
    deviations = {name: _point_normalized_deviation(general.phases, th, POINT_LIMIT_RATIOS[name])
                  for name, th in models.items()}
    fitted_deviations = {name: _fitted_deviation(general.phases, th)
                         for name, th in models.items()}

    # pairwise max phase deviation between models, all matrices brought to
    # the general convention by their point-limit ratios first
    normalized = {name: POINT_LIMIT_RATIOS.get(name, 1.0) * pm.phases
                  for name, pm in matrices.items()}
    pairwise_deviations = {}
    names = sorted(normalized)
    for i, m1 in enumerate(names):
        for m2 in names[i + 1:]:
            ref = max(np.abs(normalized[m1]).max(), np.abs(normalized[m2]).max())
            dev = np.abs(normalized[m1] - normalized[m2]).max() / ref if ref else 0.0
            pairwise_deviations[f"{m1}|{m2}"] = float(dev)

    pref_self = -consts.kappa / (8.0 * math.pi)
    self_energies = {"A": (pref_self * self_val[:n_a]).tolist(),
                     "B": (pref_self * self_val[n_a:]).tolist()}
    self_energies_stderr = {"A": (abs(pref_self) * self_err[:n_a]).tolist(),
                            "B": (abs(pref_self) * self_err[n_a:]).tolist()}

    convergence = []
    if sigma_ladder:
        # theta_AB of each pair bit for bit, including its +0.0 at t = 0
        pref = pref_general if time else 0.0
        ths, errs = pref * val[n_cross + n_f:], abs(pref) * err[n_cross + n_f:]
        th_pt = ths[0]  # the point pair, then one pair per rung
        d = float(np.linalg.norm(np.subtract(a0.center, b0.center)))
        for sigma, th, e in zip(sigma_ladder, ths[1:], errs[1:]):
            convergence.append({
                "sigma": float(sigma),
                "sigma_over_d": float(sigma / d),
                "phase": float(th),
                "point_phase": float(th_pt),
                "deviation": float(abs(th - th_pt) / abs(th_pt)) if th_pt else float("nan"),
                "stderr": float(e),
            })

    # a ladder on the grid converges to the lattice value of its point pair,
    # not to the continuum one, once the regularisation is below a cell
    on_grid = ({"ladder_min_width_over_h": reg / grid.h}
               if sigma_ladder and backend == "grid" else {})
    return {
        "matrices": matrices,
        "convergence": convergence,
        "negativities": negativities,
        "deviations_point_normalized": deviations,
        "deviations_fitted": fitted_deviations,
        "pairwise_deviations": pairwise_deviations,
        "self_energies": self_energies,
        "self_energies_stderr": self_energies_stderr,
        **on_grid,
    }
