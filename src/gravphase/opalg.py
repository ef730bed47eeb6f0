"""Truncated-mode operator algebra for the commutator-phase verification.

Arena: a handful of transverse-traceless field modes, each an oscillator of
frequency omega = c |k| truncated to D number states, driven by a probe held
in a superposition of branches b.  Per mode with canonical pair
[h, pi] = i hbar,

    H_G   = kappa pi^2 + (k^2 / 4 kappa) h^2,
    H_I,b = sum_m w [ -(1/2) tau_m(b) h_m  -  (1/4) hS_m tr_m(b) ],

where w is the mode-volume weight, tau_m(b) the polarisation-contracted TT
stress coefficient of branch b (a real number), tr_m(b) its transverse
trace and hS_m the constraint-determined c-number trace field of the source,
so the second term is a c-number per branch.  The probe stress is diagonal
in the branch basis, so H_G + H_I is block diagonal: every branch is its own
problem on the field space (dimension D^M for M modes), and every operator
below is one field-space block or a stack of them, branch first.  The trace
sector itself is non-dynamical: on the constraint surface the quadratic
trace terms of H_G cancel and the longitudinal momenta are dropped.

Per branch the time evolution factorises (nested commutators ordered by
power of t) as

    U_b(t) = e^{-it H_G/hbar} e^{-it H_I,b/hbar} e^{(t^2/2 hbar^2) [H_G, H_I,b]}
             e^{(i t^3/6 hbar^3) ([H_G,[H_G,H_I,b]] + 2 [H_I,b,[H_G,H_I,b]])} + O(t^4).

With coupling coefficient C_m(b) = w tau_m(b) the factors contribute, exactly
to the order kept (verified against the dense propagator and the
displaced-oscillator closed form):

    phase0   = + (t / 4 hbar) sum_m w hS_m tr_m(b)          (c-number drive)
    damping0 = - (kappa t^2 / 8 hbar) sum_m C_m(b)^2 / omega_m
    phase1   = - (kappa t^3 / 8 hbar) sum_m C_m(b)^2        (single commutator)
    phase2   = + (kappa t^3 / 6 hbar) sum_m C_m(b)^2        (double commutators)

phase1 carries the cross term of the h-displacement passing through the
[H_G, H_I] factor; dropping the t^3 Zassenhaus factor degrades the product
from O(t^4) to O(t^3) accuracy, which is the observable signature that the
commutator terms are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sources import PhysicalConstants
from .tensoralg import SYM6_CONTRACTION_WEIGHTS, sym6_from_matrix, transverse_projector

EXACT_DIM_LIMIT = 4096
BRANCH_AMP_FLOOR = 1e-12


def ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def polarization_tensors(kvec) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal TT polarisation tensors for wavevector k (e : e = 1)."""
    k = np.asarray(kvec, dtype=float)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ValueError("polarisations undefined at k = 0")
    n = k / norm
    trial = np.eye(3)[np.argmin(np.abs(n))]
    u = np.cross(n, trial)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    e_plus = (np.outer(u, u) - np.outer(v, v)) / math.sqrt(2.0)
    e_cross = (np.outer(u, v) + np.outer(v, u)) / math.sqrt(2.0)
    return e_plus, e_cross


@dataclass(frozen=True)
class ModeSpec:
    kvec: tuple[float, float, float]
    polarization: int  # 0: plus, 1: cross
    dim: int

    def __post_init__(self):
        if self.polarization not in (0, 1):
            raise ValueError("polarization index must be 0 or 1")
        if self.dim < 4:
            raise ValueError("oscillator dimension too small")


@dataclass(frozen=True)
class TruncatedModeSystem:
    modes: tuple[ModeSpec, ...]
    consts: PhysicalConstants
    weight: float  # mode-volume weight (2 pi / L)^3 / (2 pi)^3 = 1 / L^3

    def __post_init__(self):
        if not self.modes:
            raise ValueError("need at least one mode")
        if self.weight <= 0.0:
            raise ValueError("mode weight must be positive")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def field_dim(self) -> int:
        out = 1
        for m in self.modes:
            out *= m.dim
        return out

    def omega(self, m: int) -> float:
        return self.consts.c * float(np.linalg.norm(self.modes[m].kvec))

    def h_op(self, m: int) -> np.ndarray:
        a = ladder(self.modes[m].dim)
        q0 = math.sqrt(self.consts.hbar * self.consts.kappa / self.omega(m))
        return q0 * (a + a.T)

    def pi_op(self, m: int) -> np.ndarray:
        a = ladder(self.modes[m].dim)
        p0 = math.sqrt(self.consts.hbar * self.omega(m) / (4.0 * self.consts.kappa))
        return 1j * p0 * (a.T - a)

    def polarization_tensor(self, m: int) -> np.ndarray:
        return polarization_tensors(self.modes[m].kvec)[self.modes[m].polarization]

    def commutator_defect(self, m: int) -> float:
        """Norm of [h, pi] - i hbar on the lowest D - 2 levels (truncation
        only corrupts the top of the ladder)."""
        h, pi = self.h_op(m), self.pi_op(m)
        c = h @ pi - pi @ h - 1j * self.consts.hbar * np.eye(self.modes[m].dim)
        low = self.modes[m].dim - 2
        return float(np.abs(c[:low, :low]).max())

    def validate(self, tol: float = 1e-10) -> None:
        for m in range(self.n_modes):
            h, pi = self.h_op(m), self.pi_op(m)
            if np.abs(h - h.conj().T).max() > 1e-12 or np.abs(pi - pi.conj().T).max() > 1e-12:
                raise ValueError("mode operators must be self-adjoint")
            if self.commutator_defect(m) > tol * self.consts.hbar:
                raise ValueError(f"mode {m}: commutator defect exceeds {tol} hbar")


def make_single_mode_system(kvec, dim: int, consts: PhysicalConstants,
                            weight: float = 1.0, polarization: int = 0) -> TruncatedModeSystem:
    return TruncatedModeSystem(
        modes=(ModeSpec(kvec=tuple(float(x) for x in kvec), polarization=polarization, dim=dim),),
        consts=consts, weight=weight,
    )


@dataclass(frozen=True)
class ProbeStressTensor:
    """Probe stress per mode and branch: one real symmetric tensor (SYM6
    order) per branch, shape (n_modes, d_P, 6).  Being diagonal in the branch
    basis is what splits H_G + H_I into one field-space block per branch."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 3 or c.shape[2] != 6:
            raise ValueError("coeffs must have shape (n_modes, d_P, 6)")

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_branches(self) -> int:
        return self.coeffs.shape[1]

    def tt_contraction(self, system: TruncatedModeSystem, m: int) -> np.ndarray:
        """tau_m(b) = e_m : T_b(k_m) per branch, automatically the TT part
        since e_m is TT."""
        e6 = sym6_from_matrix(system.polarization_tensor(m))
        return self.coeffs[m] @ (SYM6_CONTRACTION_WEIGHTS * e6)

    def trace_contraction(self, system: TruncatedModeSystem, m: int) -> np.ndarray:
        """tr_m(b) = P_ij T_b^ij(k_m) per branch, the transverse-trace
        coefficient."""
        p6 = sym6_from_matrix(transverse_projector(np.asarray(system.modes[m].kvec)))
        return self.coeffs[m] @ (SYM6_CONTRACTION_WEIGHTS * p6)


def c_number_probe_stress(system: TruncatedModeSystem, branch_tensors) -> ProbeStressTensor:
    """Probe whose stress is one 3x3 symmetric tensor per branch, the same
    for every mode: branch_tensors is a sequence of d_P matrices."""
    t = np.asarray(branch_tensors, dtype=float)
    per_branch = sym6_from_matrix(0.5 * (t + np.swapaxes(t, -1, -2)))
    return ProbeStressTensor(coeffs=np.repeat(per_branch[None], system.n_modes, axis=0))


def _checked_shift(system: TruncatedModeSystem, probe: ProbeStressTensor,
                   hT_shift) -> np.ndarray:
    hT_shift = np.asarray(hT_shift, dtype=float)
    if probe.n_modes != system.n_modes or hT_shift.shape != (system.n_modes,):
        raise ValueError("mode mismatch between system, probe and trace shifts")
    return hT_shift


def _embed(system: TruncatedModeSystem, mode_ops: dict[int, np.ndarray]) -> np.ndarray:
    """Kron-embed per-mode operators (identity elsewhere) into the field
    space, modes in listed order."""
    out = np.eye(1, dtype=complex)
    for m, spec in enumerate(system.modes):
        out = np.kron(out, mode_ops.get(m, np.eye(spec.dim, dtype=complex)))
    return out


def build_HG(system: TruncatedModeSystem) -> np.ndarray:
    """Free field Hamiltonian: per mode kappa pi^2 + (k^2/4 kappa) h^2, an
    oscillator at omega = c|k| whose spectrum is kappa-independent."""
    kappa = system.consts.kappa
    total = np.zeros((system.field_dim,) * 2, dtype=complex)
    for m in range(system.n_modes):
        h, pi = system.h_op(m), system.pi_op(m)
        k2 = (system.omega(m) / system.consts.c) ** 2
        hmode = kappa * (pi @ pi) + (k2 / (4.0 * kappa)) * (h @ h)
        total += _embed(system, {m: hmode})
    return total


def build_HI(system: TruncatedModeSystem, probe: ProbeStressTensor,
             hT_shift) -> np.ndarray:
    """Interaction Hamiltonian of every branch, shape (d_P, D, D); hT_shift
    is the per-mode real c-number trace field of the source, so the trace
    term is a multiple of the identity per branch."""
    hT_shift = _checked_shift(system, probe, hT_shift)
    w = system.weight
    eye = np.eye(system.field_dim)
    total = np.zeros((probe.n_branches,) + eye.shape, dtype=complex)
    for m in range(system.n_modes):
        tau = probe.tt_contraction(system, m)[:, None, None]
        tr = probe.trace_contraction(system, m)[:, None, None]
        total += -0.5 * w * (tau * _embed(system, {m: system.h_op(m)}))
        total += -0.25 * w * hT_shift[m] * (tr * eye)
    return total


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError("operators live on different spaces")
    return a @ b - b @ a


def nested_commutators(h_g: np.ndarray, h_i: np.ndarray, depth: int = 3) -> dict:
    """{"GI": [H_G,H_I], "GGI": [H_G,[H_G,H_I]], "IGI": [H_I,[H_G,H_I]]} up
    to the requested depth for one branch block (or equal stacks of them);
    computed once and returned as a cache."""
    if not 1 <= depth <= 3:
        raise ValueError("depth must be 1, 2 or 3")
    out = {"GI": commutator(h_g, h_i)}
    if depth >= 2:
        out["GGI"] = commutator(h_g, out["GI"])
    if depth >= 3:
        out["IGI"] = commutator(h_i, out["GI"])
    return out


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition H = V diag(lambda) V^dagger of a Hermitian
    generator, or of a stack of them."""

    values: np.ndarray
    vectors: np.ndarray

    def propagator(self, s: float) -> np.ndarray:
        """exp(-i s H) = V diag(e^{-i s lambda}) V^dagger, unitary by construction."""
        phases = np.exp(-1j * s * self.values)[..., None, :]
        return (self.vectors * phases) @ np.swapaxes(self.vectors.conj(), -1, -2)


def _hermitian_spectrum(h: np.ndarray) -> HermitianSpectrum:
    # eigh reads one triangle, so a commutator that is Hermitian only up to
    # rounding is exponentiated as its Hermitian part
    values, vectors = np.linalg.eigh(h)
    return HermitianSpectrum(values=values, vectors=vectors)


def _exact_spectrum(h_total: np.ndarray) -> HermitianSpectrum:
    if h_total.shape[-1] > EXACT_DIM_LIMIT:
        raise ValueError(f"dense exponential guarded to dimension {EXACT_DIM_LIMIT}")
    return _hermitian_spectrum(h_total)


def _zassenhaus_spectra(h_g: np.ndarray, h_i: np.ndarray,
                        order: int) -> tuple[HermitianSpectrum, ...]:
    """Spectra of the Hermitian generators of the Zassenhaus factors: H_G, H_I,
    i[H_G,H_I] and, at order 3, [H_G,[H_G,H_I]] + 2 [H_I,[H_G,H_I]].  H_I may
    be a stack of branch blocks; H_G is then diagonalised once for all."""
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    nest = nested_commutators(np.broadcast_to(h_g, h_i.shape), h_i,
                              depth=1 if order == 2 else 3)
    generators = [h_g, h_i, 1j * nest["GI"]]
    if order == 3:
        generators.append(nest["GGI"] + 2.0 * nest["IGI"])
    return tuple(_hermitian_spectrum(g) for g in generators)


def _zassenhaus_products(spectra, t: float, hbar: float) -> list[np.ndarray]:
    """Running products of the factors at time t, exp(-i s_k G_k) with
    s = t/hbar, t/hbar, t^2/2hbar^2 and -t^3/6hbar^3 for the generators G_k
    above: entry k is the product of the first k + 1 factors."""
    scales = (t / hbar, t / hbar, t**2 / (2.0 * hbar**2), -(t**3) / (6.0 * hbar**3))
    out = [spectra[0].propagator(scales[0])]
    for spectrum, s in zip(spectra[1:], scales[1:]):
        out.append(out[-1] @ spectrum.propagator(s))
    return out


def zassenhaus_product(h_g: np.ndarray, h_i: np.ndarray, t: float, hbar: float,
                       order: int = 3) -> np.ndarray:
    """Ordered product of exponentials; order 3 keeps the t^3 factor, order 2
    stops after the single-commutator factor."""
    return _zassenhaus_products(_zassenhaus_spectra(h_g, h_i, order), t, hbar)[-1]


def exact_propagator(h_total: np.ndarray, t: float, hbar: float) -> np.ndarray:
    return _exact_spectrum(h_total).propagator(t / hbar)


@dataclass(frozen=True)
class ThetaPrediction:
    """Per-branch phase and damping contributions (see module docstring)."""

    phase0: np.ndarray
    damping0: np.ndarray
    phase1: np.ndarray
    phase2: np.ndarray

    @property
    def phase_t3(self) -> np.ndarray:
        return self.phase1 + self.phase2

    def total_phase(self) -> np.ndarray:
        return self.phase0 + self.phase1 + self.phase2


def predict_theta(system: TruncatedModeSystem, probe: ProbeStressTensor,
                  hT_shift, t: float) -> ThetaPrediction:
    """Commutator-ordered phase and damping predictions per probe branch."""
    hT_shift = _checked_shift(system, probe, hT_shift)
    modes = range(system.n_modes)
    tau = np.array([probe.tt_contraction(system, m) for m in modes])  # (n_modes, d_P)
    tr = np.array([probe.trace_contraction(system, m) for m in modes])
    w = system.weight
    kappa, hbar = system.consts.kappa, system.consts.hbar
    omegas = np.array([system.omega(m) for m in modes])
    c2 = (w * tau) ** 2  # squared H_I coupling coefficients
    phase0 = (t / (4.0 * hbar)) * (w * hT_shift[:, None] * tr).sum(axis=0)
    damping0 = -(kappa * t**2 / (8.0 * hbar)) * (c2 / omegas[:, None]).sum(axis=0)
    phase1 = -(kappa * t**3 / (8.0 * hbar)) * c2.sum(axis=0)
    phase2 = (kappa * t**3 / (6.0 * hbar)) * c2.sum(axis=0)
    return ThetaPrediction(phase0=phase0, damping0=damping0, phase1=phase1, phase2=phase2)


def low_level_projector(system: TruncatedModeSystem, n_low: int) -> np.ndarray:
    """Diagonal projector onto per-mode number states below n_low; restricts
    defect norms to the subspace where truncation is clean."""
    masks = {}
    for m, spec in enumerate(system.modes):
        d = np.zeros(spec.dim)
        d[: min(n_low, spec.dim)] = 1.0
        masks[m] = np.diag(d)
    return _embed(system, masks)


@dataclass(frozen=True)
class PropagatorComparison:
    """One point of the exact-vs-factorised comparison: the per-branch exact
    and order-3 propagators, the restricted operator-norm defects of the
    order-3 and order-2 products, the extracted interference data of a
    branch pair and the commutator-ordered predictions for it."""

    time: float
    u_exact: np.ndarray
    u_zassenhaus: np.ndarray
    defect_order3: float
    defect_order2: float
    dphase_exact: float
    ddamping_exact: float
    prediction: ThetaPrediction
    branch_pair: tuple[int, int]

    def __post_init__(self):
        if min(self.defect_order3, self.defect_order2) < 0.0:
            raise ValueError("defect must be non-negative")

    @property
    def dphase_predicted(self) -> float:
        a, b = self.branch_pair
        total = self.prediction.total_phase()
        return float(total[b] - total[a])

    @property
    def ddamping_predicted(self) -> float:
        a, b = self.branch_pair
        return float(self.prediction.damping0[b] - self.prediction.damping0[a])


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])).max())


@dataclass(frozen=True)
class PropagatorSweep:
    """What every time of a sweep shares, built once: the per-branch spectra
    of H_G + H_I,b and of the Zassenhaus generators, and the low-level
    projector."""

    system: TruncatedModeSystem
    probe: ProbeStressTensor
    hT_shift: np.ndarray
    exact: HermitianSpectrum
    factors: tuple[HermitianSpectrum, ...]
    projector: np.ndarray
    branch_pair: tuple[int, int]


def propagator_sweep(system: TruncatedModeSystem, probe: ProbeStressTensor,
                     hT_shift, n_low: int = 8,
                     branch_pair: tuple[int, int] = (0, 1)) -> PropagatorSweep:
    """Build H_G and every H_I,b once and diagonalise, per branch, H_G + H_I,b
    and the Zassenhaus generators (H_G itself once for all branches)."""
    h_g = build_HG(system)
    h_i = build_HI(system, probe, hT_shift)
    return PropagatorSweep(system=system, probe=probe,
                           hT_shift=np.asarray(hT_shift, dtype=float),
                           exact=_exact_spectrum(h_g + h_i),
                           factors=_zassenhaus_spectra(h_g, h_i, 3),
                           projector=low_level_projector(system, n_low),
                           branch_pair=branch_pair)


def compare_propagators(sweep: PropagatorSweep, t: float) -> PropagatorComparison:
    """Evolve every branch exactly and through the order-3 and order-2
    ordered-exponential factorisations, measure their deviations on the
    low-lying subspace and extract the branch-pair interference data.

    A defect is the largest per-branch ||(U_b - U_Z,b) P||_2, which is the
    operator norm on the block-diagonal field (x) probe space.  Every
    propagator is checked unitary to 1e-10 (they are unitary by
    construction, so this guards against a corrupted decomposition rather
    than roundoff)."""
    system = sweep.system
    hbar = system.consts.hbar
    u_exact = sweep.exact.propagator(t / hbar)
    _, _, u_z2, u_z3 = _zassenhaus_products(sweep.factors, t, hbar)
    for u in (u_exact, u_z2, u_z3):
        if _unitarity_defect(u) > 1e-10:
            raise ValueError("propagator lost unitarity beyond 1e-10")
    defect3, defect2 = (
        float(np.linalg.norm((u_exact - u_z) @ sweep.projector, 2, axis=(-2, -1)).max())
        for u_z in (u_z3, u_z2))
    dphase, dmag = extract_relative_phase(u_exact, sweep.branch_pair)
    pred = predict_theta(system, sweep.probe, sweep.hT_shift, t)
    return PropagatorComparison(time=t, u_exact=u_exact, u_zassenhaus=u_z3,
                                defect_order3=defect3, defect_order2=defect2,
                                dphase_exact=dphase, ddamping_exact=dmag,
                                prediction=pred, branch_pair=sweep.branch_pair)


def extract_relative_phase(u: np.ndarray, branch_pair: tuple[int, int]):
    """Interference data between two probe branches from the per-branch
    propagators u, shape (d_P, D, D).

    Per branch x the vacuum amplitude is A_x = <0|U_x|0> (the field vacuum
    is the first kron-basis vector); returns (arg, log magnitude) of
    A_b / A_a, the relative phase and damping that an interference
    measurement on the probe reads out.
    """
    amps = u[list(branch_pair), 0, 0]
    weakest = float(np.abs(amps).min())
    if weakest < BRANCH_AMP_FLOOR:
        raise ValueError(f"branch suppressed: |amplitude| = {weakest:.2e}")
    ratio = amps[1] / amps[0]
    return float(np.angle(ratio)), float(np.log(np.abs(ratio)))
