"""Truncated-mode operator algebra for the commutator-phase verification.

Arena: a handful of transverse-traceless field modes, each an oscillator of
frequency omega = c |k| truncated to D number states, tensored with a small
probe.  Per mode with canonical pair [h, pi] = i hbar,

    H_G = kappa pi^2 + (k^2 / 4 kappa) h^2,
    H_I = sum_m w [ -(1/2) h_m tau_m  -  (1/4) hS_m tr_m ],

where w is the mode-volume weight, tau_m the polarisation-contracted
TT probe stress coefficient (a Hermitian probe operator), tr_m its
transverse trace and hS_m the constraint-determined c-number trace field of
the source, so the second term is a pure probe operator.  The trace sector
itself is non-dynamical: on the constraint surface the quadratic trace terms
of H_G cancel and the longitudinal momenta are dropped.

The time evolution factorises (nested commutators ordered by power of t) as

    U(t) = e^{-it H_G/hbar} e^{-it H_I/hbar} e^{(t^2/2 hbar^2) [H_G, H_I]}
           e^{(i t^3/6 hbar^3) ([H_G,[H_G,H_I]] + 2 [H_I,[H_G,H_I]])} + O(t^4).

Per probe branch b with coupling coefficient C_m(b) = w tau_m(b) the factors
contribute, exactly to the order kept (verified against the dense propagator
and the displaced-oscillator closed form):

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
    """Probe stress coefficients per mode: a symmetric tensor (SYM6 order)
    whose entries are Hermitian probe-space matrices, shape
    (n_modes, 6, d_P, d_P).  Probe operators commute with the field by
    construction (they act on the probe tensor factor)."""

    coeffs: np.ndarray
    probe_dim: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 4 or c.shape[1] != 6 or c.shape[2:] != (self.probe_dim,) * 2:
            raise ValueError("coeffs must have shape (n_modes, 6, d_P, d_P)")
        herm = np.abs(c - np.conj(np.swapaxes(c, 2, 3))).max()
        if herm > 1e-12:
            raise ValueError("stress coefficients must be Hermitian probe matrices")

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    def tt_contraction(self, system: TruncatedModeSystem, m: int) -> np.ndarray:
        """tau_m = e_m : T(k_m), automatically the TT part since e_m is TT."""
        e6 = sym6_from_matrix(system.polarization_tensor(m))
        return np.einsum("a,a,aij->ij", SYM6_CONTRACTION_WEIGHTS, e6, self.coeffs[m])

    def trace_contraction(self, system: TruncatedModeSystem, m: int) -> np.ndarray:
        """tr_m = P_ij T^ij(k_m), the transverse-trace coefficient."""
        p6 = sym6_from_matrix(transverse_projector(np.asarray(system.modes[m].kvec)))
        return np.einsum("a,a,aij->ij", SYM6_CONTRACTION_WEIGHTS, p6, self.coeffs[m])


def c_number_probe_stress(system: TruncatedModeSystem, branch_tensors) -> ProbeStressTensor:
    """Probe whose stress tensor is a c-number 3x3 symmetric tensor per
    branch (the same for every mode): branch_tensors is a sequence of d_P
    symmetric matrices; the resulting coefficients are diagonal in the
    branch basis."""
    branch_tensors = [np.asarray(t, dtype=float) for t in branch_tensors]
    d_p = len(branch_tensors)
    coeffs = np.zeros((system.n_modes, 6, d_p, d_p), dtype=complex)
    for m in range(system.n_modes):
        for b, t in enumerate(branch_tensors):
            coeffs[m, :, b, b] = sym6_from_matrix(0.5 * (t + t.T))
    return ProbeStressTensor(coeffs=coeffs, probe_dim=d_p)


def _embed(system: TruncatedModeSystem, probe_dim: int,
           mode_ops: dict[int, np.ndarray] | None = None,
           probe_op: np.ndarray | None = None) -> np.ndarray:
    """Kron-embed per-mode operators (identity elsewhere) and a probe factor
    into the full field (x) probe space, modes in listed order, probe last."""
    mode_ops = mode_ops or {}
    out = np.eye(1, dtype=complex)
    for m, spec in enumerate(system.modes):
        op = mode_ops.get(m, np.eye(spec.dim, dtype=complex))
        out = np.kron(out, op)
    out = np.kron(out, probe_op if probe_op is not None else np.eye(probe_dim, dtype=complex))
    return out


def build_HG(system: TruncatedModeSystem, probe_dim: int = 1) -> np.ndarray:
    """Free field Hamiltonian: per mode kappa pi^2 + (k^2/4 kappa) h^2, an
    oscillator at omega = c|k| whose spectrum is kappa-independent."""
    kappa = system.consts.kappa
    total = np.zeros((system.field_dim * probe_dim,) * 2, dtype=complex)
    for m, spec in enumerate(system.modes):
        h, pi = system.h_op(m), system.pi_op(m)
        k2 = (system.omega(m) / system.consts.c) ** 2
        hmode = kappa * (pi @ pi) + (k2 / (4.0 * kappa)) * (h @ h)
        total += _embed(system, probe_dim, {m: hmode})
    return total


def build_HI(system: TruncatedModeSystem, probe: ProbeStressTensor,
             hT_shift) -> np.ndarray:
    """Interaction Hamiltonian; hT_shift is the per-mode real c-number trace
    field of the source.  The trace term is a pure probe operator."""
    hT_shift = np.asarray(hT_shift, dtype=float)
    if probe.n_modes != system.n_modes or hT_shift.shape != (system.n_modes,):
        raise ValueError("mode mismatch between system, probe and trace shifts")
    w = system.weight
    dim = system.field_dim * probe.probe_dim
    total = np.zeros((dim, dim), dtype=complex)
    for m in range(system.n_modes):
        tau = probe.tt_contraction(system, m)
        tr = probe.trace_contraction(system, m)
        total += -0.5 * w * _embed(system, probe.probe_dim, {m: system.h_op(m)}, tau)
        total += -0.25 * w * hT_shift[m] * _embed(system, probe.probe_dim, probe_op=tr)
    return total


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError("operators live on different spaces")
    return a @ b - b @ a


def nested_commutators(h_g: np.ndarray, h_i: np.ndarray, depth: int = 3) -> dict:
    """{"GI": [H_G,H_I], "GGI": [H_G,[H_G,H_I]], "IGI": [H_I,[H_G,H_I]]} up
    to the requested depth; computed once and returned as a cache."""
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
    """Eigendecomposition H = V diag(lambda) V^dagger of a Hermitian generator."""

    values: np.ndarray
    vectors: np.ndarray

    def propagator(self, s: float) -> np.ndarray:
        """exp(-i s H) = V diag(e^{-i s lambda}) V^dagger, unitary by construction."""
        return (self.vectors * np.exp(-1j * s * self.values)) @ self.vectors.conj().T


def _hermitian_spectrum(h: np.ndarray) -> HermitianSpectrum:
    # eigh reads one triangle, so a commutator that is Hermitian only up to
    # rounding is exponentiated as its Hermitian part
    values, vectors = np.linalg.eigh(h)
    return HermitianSpectrum(values=values, vectors=vectors)


def _exact_spectrum(h_total: np.ndarray) -> HermitianSpectrum:
    if h_total.shape[0] > EXACT_DIM_LIMIT:
        raise ValueError(f"dense exponential guarded to dimension {EXACT_DIM_LIMIT}")
    return _hermitian_spectrum(h_total)


def _zassenhaus_spectra(h_g: np.ndarray, h_i: np.ndarray,
                        order: int) -> tuple[HermitianSpectrum, ...]:
    """Spectra of the Hermitian generators of the Zassenhaus factors: H_G, H_I,
    i[H_G,H_I] and, at order 3, [H_G,[H_G,H_I]] + 2 [H_I,[H_G,H_I]]."""
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    nest = nested_commutators(h_g, h_i, depth=1 if order == 2 else 3)
    generators = [h_g, h_i, 1j * nest["GI"]]
    if order == 3:
        generators.append(nest["GGI"] + 2.0 * nest["IGI"])
    return tuple(_hermitian_spectrum(g) for g in generators)


def _zassenhaus_at(spectra, t: float, hbar: float) -> np.ndarray:
    """Product of the factors at time t: exp(-i s_k G_k) with s = t/hbar,
    t/hbar, t^2/2hbar^2 and -t^3/6hbar^3 for the generators G_k above."""
    scales = (t / hbar, t / hbar, t**2 / (2.0 * hbar**2), -(t**3) / (6.0 * hbar**3))
    u = spectra[0].propagator(scales[0])
    for spectrum, s in zip(spectra[1:], scales[1:]):
        u = u @ spectrum.propagator(s)
    return u


def zassenhaus_product(h_g: np.ndarray, h_i: np.ndarray, t: float, hbar: float,
                       order: int = 3) -> np.ndarray:
    """Ordered product of exponentials; order 3 keeps the t^3 factor, order 2
    stops after the single-commutator factor."""
    return _zassenhaus_at(_zassenhaus_spectra(h_g, h_i, order), t, hbar)


def exact_propagator(h_total: np.ndarray, t: float, hbar: float) -> np.ndarray:
    return _exact_spectrum(h_total).propagator(t / hbar)


def _simultaneous_branch_basis(matrices, tol: float = 1e-10) -> np.ndarray:
    """Common eigenbasis of a family of Hermitian matrices, or raise.

    Already-diagonal families keep the computational basis, so branch labels
    follow the caller's ordering."""
    d = matrices[0].shape[0]
    for a in matrices:
        for b in matrices:
            if np.abs(commutator(a, b)).max() > tol * max(1.0, np.abs(a).max() * np.abs(b).max()):
                raise ValueError("branch basis undefined: probe stress "
                                 "coefficients are not simultaneously diagonalisable")
    if all(np.abs(m - np.diag(np.diag(m))).max() <= tol * max(1.0, np.abs(m).max())
           for m in matrices):
        return np.eye(d, dtype=complex)
    rng = np.random.default_rng(12345)
    weights = rng.normal(size=len(matrices))
    probe = sum(wt * m for wt, m in zip(weights, matrices))
    probe = 0.5 * (probe + probe.conj().T)
    _, vecs = np.linalg.eigh(probe)
    for m in matrices:
        off = vecs.conj().T @ m @ vecs
        off = off - np.diag(np.diag(off))
        if np.abs(off).max() > 1e-8 * max(1.0, np.abs(m).max()):
            raise ValueError("branch basis undefined: probe stress "
                             "coefficients are not simultaneously diagonalisable")
    return vecs


@dataclass(frozen=True)
class ThetaPrediction:
    """Per-branch phase and damping contributions (see module docstring)."""

    branch_basis: np.ndarray
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
    hT_shift = np.asarray(hT_shift, dtype=float)
    if probe.n_modes != system.n_modes or hT_shift.shape != (system.n_modes,):
        raise ValueError("mode mismatch between system, probe and trace shifts")
    taus = [probe.tt_contraction(system, m) for m in range(system.n_modes)]
    trs = [probe.trace_contraction(system, m) for m in range(system.n_modes)]
    basis = _simultaneous_branch_basis(taus + trs)
    tau_eig = np.array([np.real(np.diag(basis.conj().T @ tm @ basis)) for tm in taus])
    tr_eig = np.array([np.real(np.diag(basis.conj().T @ tm @ basis)) for tm in trs])
    w = system.weight
    kappa, hbar = system.consts.kappa, system.consts.hbar
    omegas = np.array([system.omega(m) for m in range(system.n_modes)])
    c2 = (w * tau_eig) ** 2  # squared H_I coupling coefficients, (n_modes, d_P)
    phase0 = (t / (4.0 * hbar)) * (w * hT_shift[:, None] * tr_eig).sum(axis=0)
    damping0 = -(kappa * t**2 / (8.0 * hbar)) * (c2 / omegas[:, None]).sum(axis=0)
    phase1 = -(kappa * t**3 / (8.0 * hbar)) * c2.sum(axis=0)
    phase2 = (kappa * t**3 / (6.0 * hbar)) * c2.sum(axis=0)
    return ThetaPrediction(branch_basis=basis, phase0=phase0, damping0=damping0,
                           phase1=phase1, phase2=phase2)


def vacuum_field_state(system: TruncatedModeSystem) -> np.ndarray:
    vec = np.zeros(system.field_dim)
    vec[0] = 1.0  # |0,0,...> is the first kron-basis vector
    return vec


def low_level_projector(system: TruncatedModeSystem, probe_dim: int, n_low: int) -> np.ndarray:
    """Diagonal projector onto per-mode number states below n_low (probe
    untouched); restricts defect norms to the subspace where truncation is
    clean."""
    masks = {}
    for m, spec in enumerate(system.modes):
        d = np.zeros(spec.dim)
        d[: min(n_low, spec.dim)] = 1.0
        masks[m] = np.diag(d)
    return _embed(system, probe_dim, masks)


@dataclass(frozen=True)
class PropagatorComparison:
    """One point of the exact-vs-factorised comparison: both unitaries, the
    restricted operator-norm defect, the extracted interference data of a
    branch pair and the commutator-ordered predictions for it."""

    time: float
    u_exact: np.ndarray
    u_zassenhaus: np.ndarray
    defect: float
    dphase_exact: float
    ddamping_exact: float
    prediction: ThetaPrediction
    branch_pair: tuple[int, int]

    def __post_init__(self):
        if self.defect < 0.0:
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
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


@dataclass(frozen=True)
class PropagatorSweep:
    """What every time of a sweep shares, built once: the spectra of
    H_G + H_I and of the Zassenhaus generators, and the low-level projector."""

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
    """Build H_G and H_I once and diagonalise the five generators that the
    exact propagator and the order-2 and order-3 products need."""
    h_g = build_HG(system, probe_dim=probe.probe_dim)
    h_i = build_HI(system, probe, hT_shift)
    return PropagatorSweep(system=system, probe=probe,
                           hT_shift=np.asarray(hT_shift, dtype=float),
                           exact=_exact_spectrum(h_g + h_i),
                           factors=_zassenhaus_spectra(h_g, h_i, 3),
                           projector=low_level_projector(system, probe.probe_dim, n_low),
                           branch_pair=branch_pair)


def compare_propagators(sweep: PropagatorSweep, t: float,
                        order: int = 3) -> PropagatorComparison:
    """Evolve exactly and through the ordered-exponential factorisation,
    measure their deviation on the low-lying subspace and extract the
    branch-pair interference data.  Both propagators are checked unitary to
    1e-10 (they are unitary by construction, so this guards against a
    corrupted decomposition rather than roundoff)."""
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    system, probe = sweep.system, sweep.probe
    hbar = system.consts.hbar
    u_exact = sweep.exact.propagator(t / hbar)
    u_z = _zassenhaus_at(sweep.factors[: order + 1], t, hbar)
    for u in (u_exact, u_z):
        if _unitarity_defect(u) > 1e-10:
            raise ValueError("propagator lost unitarity beyond 1e-10")
    defect = float(np.linalg.norm((u_exact - u_z) @ sweep.projector, 2))
    dphase, dmag = extract_relative_phase(u_exact, system, probe.probe_dim,
                                          sweep.branch_pair)
    pred = predict_theta(system, probe, sweep.hT_shift, t)
    return PropagatorComparison(time=t, u_exact=u_exact, u_zassenhaus=u_z,
                                defect=defect, dphase_exact=dphase,
                                ddamping_exact=dmag, prediction=pred,
                                branch_pair=sweep.branch_pair)


def extract_relative_phase(u: np.ndarray, system: TruncatedModeSystem,
                           probe_dim: int, branch_pair: tuple[int, int],
                           field_initial: np.ndarray | None = None,
                           field_return: np.ndarray | None = None,
                           branch_basis: np.ndarray | None = None):
    """Interference data between two probe branches.

    Per branch x, A_x = <field_return (x) x| U |field_initial (x) x>; returns
    (arg, log magnitude) of A_b / A_a, the relative phase and damping that an
    interference measurement on the probe reads out.
    """
    if field_initial is None:
        field_initial = vacuum_field_state(system)
    if field_return is None:
        field_return = field_initial
    basis = branch_basis if branch_basis is not None else np.eye(probe_dim, dtype=complex)
    amps = []
    for x in branch_pair:
        probe_vec = basis[:, x]
        ket = np.kron(field_initial, probe_vec)
        bra = np.kron(field_return, probe_vec)
        a = np.conj(bra) @ (u @ ket)
        if abs(a) < BRANCH_AMP_FLOOR:
            raise ValueError(f"branch suppressed: |amplitude| = {abs(a):.2e}")
        amps.append(a)
    ratio = amps[1] / amps[0]
    return float(np.angle(ratio)), float(np.log(np.abs(ratio)))
