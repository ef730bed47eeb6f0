"""Truncated-mode operator algebra for the commutator-phase verification.

Arena: one plus-polarised transverse-traceless field mode, an oscillator of
frequency omega = c |k| truncated to D number states, driven by a probe held
in a superposition of branches b.  With canonical pair [h, pi] = i hbar,

    H_G   = kappa pi^2 + (k^2 / 4 kappa) h^2,
    H_I,b = w [ -(1/2) tau(b) h  -  (1/4) hS tr(b) ],

where w is the mode-volume weight, tau(b) the polarisation-contracted TT
stress coefficient of branch b (a real number), tr(b) its transverse trace
and hS the constraint-determined c-number trace field of the source, so the
second term is a c-number per branch.  The probe stress is diagonal in the
branch basis, so H_G + H_I is block diagonal: every branch is its own
problem on the D-dimensional field space, and every operator below is one
D x D block or a stack of them, branch first.  The trace sector itself is
non-dynamical: on the constraint surface the quadratic trace terms of H_G
cancel and the longitudinal momenta are dropped.  Many modes, were they
needed, would multiply their single-mode amplitudes.

Per branch the time evolution factorises (nested commutators ordered by
power of t) as

    U_b(t) = e^{-it H_G/hbar} e^{-it H_I,b/hbar} e^{(t^2/2 hbar^2) [H_G, H_I,b]}
             e^{(i t^3/6 hbar^3) ([H_G,[H_G,H_I,b]] + 2 [H_I,b,[H_G,H_I,b]])} + O(t^4).

With coupling coefficient C(b) = w tau(b) the factors contribute, exactly
to the order kept (verified against the dense propagator and the
displaced-oscillator closed form):

    phase0   = + (t / 4 hbar) w hS tr(b)          (c-number drive)
    damping0 = - (kappa t^2 / 8 hbar) C(b)^2 / omega
    phase1   = - (kappa t^3 / 8 hbar) C(b)^2      (single commutator)
    phase2   = + (kappa t^3 / 6 hbar) C(b)^2      (double commutators)

phase1 carries the cross term of the h-displacement passing through the
[H_G, H_I] factor; dropping the t^3 Zassenhaus factor degrades the product
from O(t^4) to O(t^3) accuracy, which is the observable signature that the
commutator terms are real.

The verification reads only the low-lying columns of each propagator, so
each is applied to those columns X as V (e^{-i s lambda} (.) V^dagger X),
one eigendecomposition per generator and no D x D matrix per time (the
action of the exponential on a block of vectors: Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 488, 2011).
"""

from __future__ import annotations

import math

import numpy as np

from .records import frozen_record
from .sources import PhysicalConstants
from .tensoralg import transverse_projector

BRANCH_AMP_FLOOR = 1e-12


def ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def plus_polarization(kvec) -> np.ndarray:
    """The plus TT polarisation tensor e_+ of wavevector k (e_+ : e_+ = 1)."""
    k = np.asarray(kvec, dtype=float)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ValueError("polarisations undefined at k = 0")
    n = k / norm
    trial = np.eye(3)[np.argmin(np.abs(n))]
    u = np.cross(n, trial)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return (np.outer(u, u) - np.outer(v, v)) / math.sqrt(2.0)


@frozen_record
class TruncatedModeSystem:
    """One plus-polarised TT mode of wavevector kvec, truncated to dim
    number states."""

    kvec: tuple[float, float, float]
    dim: int
    consts: PhysicalConstants
    weight: float = 1.0  # mode-volume weight (2 pi / L)^3 / (2 pi)^3 = 1 / L^3

    def __post_init__(self):
        object.__setattr__(self, "kvec", tuple(float(x) for x in self.kvec))
        if self.dim < 4:
            raise ValueError("oscillator dimension too small")
        if self.weight <= 0.0:
            raise ValueError("mode weight must be positive")

    @property
    def omega(self) -> float:
        return self.consts.c * float(np.linalg.norm(self.kvec))

    def h_op(self) -> np.ndarray:
        a = ladder(self.dim)
        q0 = math.sqrt(self.consts.hbar * self.consts.kappa / self.omega)
        return q0 * (a + a.T)

    def pi_op(self) -> np.ndarray:
        a = ladder(self.dim)
        p0 = math.sqrt(self.consts.hbar * self.omega / (4.0 * self.consts.kappa))
        return 1j * p0 * (a.T - a)

    def commutator_defect(self) -> float:
        """Norm of [h, pi] - i hbar on the lowest D - 2 levels (truncation
        only corrupts the top of the ladder)."""
        h, pi = self.h_op(), self.pi_op()
        c = h @ pi - pi @ h - 1j * self.consts.hbar * np.eye(self.dim)
        low = self.dim - 2
        return float(np.abs(c[:low, :low]).max())

    def validate(self) -> None:
        """Refuse a truncation whose low levels break [h, pi] = i hbar; h
        and pi are Hermitian by construction."""
        if self.commutator_defect() > 1e-10 * self.consts.hbar:
            raise ValueError("commutator defect exceeds 1e-10 hbar")


@frozen_record
class ProbeStressTensor:
    """Probe stress per branch: one real symmetric 3x3 tensor per branch,
    shape (d_P, 3, 3).  Being diagonal in the branch basis is what splits
    H_G + H_I into one field-space block per branch."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 3 or c.shape[1:] != (3, 3) or not np.array_equal(c, c.swapaxes(1, 2)):
            raise ValueError("coeffs must be symmetric tensors of shape (d_P, 3, 3)")

    def tt_contraction(self, system: TruncatedModeSystem) -> np.ndarray:
        """tau(b) = e_+ : T_b(k) per branch, automatically the TT part since
        e_+ is TT."""
        return np.einsum("bij,ij->b", self.coeffs, plus_polarization(system.kvec))

    def trace_contraction(self, system: TruncatedModeSystem) -> np.ndarray:
        """tr(b) = P_ij T_b^ij(k) per branch, the transverse-trace
        coefficient."""
        p = transverse_projector(np.asarray(system.kvec))
        return np.einsum("bij,ij->b", self.coeffs, p)


def c_number_probe_stress(branch_tensors) -> ProbeStressTensor:
    """Probe whose stress is one 3x3 symmetric tensor per branch:
    branch_tensors is a sequence of d_P matrices, taken by their symmetric
    part."""
    t = np.asarray(branch_tensors, dtype=float)
    return ProbeStressTensor(coeffs=0.5 * (t + np.swapaxes(t, -1, -2)))


def build_HG(system: TruncatedModeSystem) -> np.ndarray:
    """Free field Hamiltonian kappa pi^2 + (k^2/4 kappa) h^2, an oscillator
    at omega = c|k| whose spectrum is kappa-independent.  pi is imaginary
    but pi^2 is real, so the operator is a real symmetric array."""
    kappa = system.consts.kappa
    h, pi = system.h_op(), system.pi_op()
    k2 = (system.omega / system.consts.c) ** 2
    return kappa * (pi @ pi).real + (k2 / (4.0 * kappa)) * (h @ h)


def build_HI(system: TruncatedModeSystem, probe: ProbeStressTensor,
             hT_shift: float) -> np.ndarray:
    """Interaction Hamiltonian of every branch, a real array of shape
    (d_P, D, D); hT_shift is the real c-number trace field of the source,
    so the trace term is a multiple of the identity per branch."""
    w = system.weight
    tau = probe.tt_contraction(system)[:, None, None]
    tr = probe.trace_contraction(system)[:, None, None]
    return -0.5 * w * (tau * system.h_op()) - 0.25 * w * hT_shift * (tr * np.eye(system.dim))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError("operators live on different spaces")
    return a @ b - b @ a


def nested_commutators(h_g: np.ndarray, h_i: np.ndarray) -> dict:
    """{"GI": [H_G,H_I], "GGI": [H_G,[H_G,H_I]], "IGI": [H_I,[H_G,H_I]]} for
    one branch block (or equal stacks of them), computed once.  Raises if
    one overflows, as a large enough coupling makes the nested ones do."""
    with np.errstate(over="ignore", invalid="ignore"):
        gi = commutator(h_g, h_i)
        nest = {"GI": gi, "GGI": commutator(h_g, gi), "IGI": commutator(h_i, gi)}
    if not all(np.isfinite(c).all() for c in nest.values()):
        raise ValueError("nested commutators of H_G and H_I overflow: the coupling is too large")
    return nest


def _propagators(h: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-i s H) X = V (e^{-i s lambda} (.) V^dagger X) at every s, applied
    right to left from one eigendecomposition of H (or of a stack of them).
    s holds the time axes and then one unit axis per stack axis of H, and
    the time axes lead the result.  H and its spectrum must be finite, and V
    is checked unitary to 1e-10 once per generator: the propagators are
    unitary by construction, so this guards against a corrupted
    decomposition rather than roundoff."""
    if not np.isfinite(h).all():
        raise ValueError("propagator generator is not finite")
    # eigh reads one triangle, so a commutator that is Hermitian only up to
    # rounding is exponentiated as its Hermitian part; every generator but
    # i[H_G, H_I] is real symmetric and takes the real eigh
    values, vectors = np.linalg.eigh(h)
    if not np.isfinite(values).all():
        raise ValueError("propagator generator has a non-finite spectrum")
    vectors_h = np.swapaxes(vectors.conj(), -1, -2)
    defect = np.abs(vectors_h @ vectors - np.eye(h.shape[-1])).max()
    if not (defect <= 1e-10):  # a NaN defect fails too
        raise ValueError("propagator lost unitarity beyond 1e-10")
    phases = np.exp(-1j * s[..., None] * values)[..., None]
    return vectors @ (phases * (vectors_h @ x))


def _times(t, unit_axes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A time or a 1-D array of times, and its squares and cubes, each with
    unit_axes unit axes appended; the powers are taken in Python floats, as
    numpy's array power can be an ulp off."""
    t = np.asarray(t, dtype=float)
    shape = t.shape + (1,) * unit_axes
    return tuple(np.reshape([x**p for x in t.ravel().tolist()], shape) for p in (1, 2, 3))


def zassenhaus_product(h_g: np.ndarray, h_i: np.ndarray, t, hbar: float,
                       x: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products of exponentials applied to the columns x (the
    identity when None) at a time or a 1-D array of times (time axis
    first), as (order2 x, order3 x).  The factors are A = exp(-i t H_G/hbar),
    B = exp(-i t H_I/hbar), C = exp(-i (t^2/2hbar^2) i[H_G,H_I]) and
    E = exp(i (t^3/6hbar^3) ([H_G,[H_G,H_I]] + 2 [H_I,[H_G,H_I]])); order 2
    is ABC and order 3 is ABCE.  E x is formed first, and the 2 n columns
    [x | E x] go through C, B and A in one pass.  Each generator is
    diagonalised once per call; H_I may be a stack of branch blocks, and
    H_G is then diagonalised once for all."""
    x = np.eye(h_i.shape[-1]) if x is None else x
    nest = nested_commutators(np.broadcast_to(h_g, h_i.shape), h_i)
    times, squares, cubes = _times(t, h_i.ndim - 2)
    ex = _propagators(nest["GGI"] + 2.0 * nest["IGI"], -cubes / (6.0 * hbar**3), x)
    y = np.concatenate([np.broadcast_to(x, ex.shape), ex], axis=-1)
    for h, s in ((1j * nest["GI"], squares / (2.0 * hbar**2)), (h_i, times / hbar),
                 (h_g, times / hbar)):
        y = _propagators(h, s, y)
    return y[..., : x.shape[-1]], y[..., x.shape[-1]:]


def exact_propagator(h_total: np.ndarray, t, hbar: float, x: np.ndarray | None = None) -> np.ndarray:
    """exp(-i t H / hbar) applied to the columns x (the identity when None)
    at a time or a 1-D array of times (time axis first), from one
    eigendecomposition of H (or of each block of a stack)."""
    x = np.eye(h_total.shape[-1]) if x is None else x
    return _propagators(h_total, _times(t, h_total.ndim - 2)[0] / hbar, x)


@frozen_record
class ThetaPrediction:
    """Per-branch phase and damping contributions (see module docstring)."""

    phase0: np.ndarray
    damping0: np.ndarray
    phase1: np.ndarray
    phase2: np.ndarray

    @property
    def phase_t3(self) -> np.ndarray:
        return self.phase1 + self.phase2


def _couplings(system: TruncatedModeSystem, probe: ProbeStressTensor,
               hT_shift: float) -> tuple[np.ndarray, np.ndarray]:
    """The H_I coupling coefficients C(b) = w tau(b) and the c-number drive
    w hS tr(b), per branch."""
    w = system.weight
    return w * probe.tt_contraction(system), w * hT_shift * probe.trace_contraction(system)


def predict_theta(system: TruncatedModeSystem, probe: ProbeStressTensor,
                  hT_shift: float, t) -> ThetaPrediction:
    """Commutator-ordered phase and damping predictions per probe branch at
    a time or a 1-D array of times (time axis first)."""
    coupling, drive = _couplings(system, probe, hT_shift)
    kappa, hbar = system.consts.kappa, system.consts.hbar
    t, squares, cubes = _times(t, 1)
    c2 = coupling**2
    return ThetaPrediction(
        phase0=(t / (4.0 * hbar)) * drive,
        damping0=-(kappa * squares / (8.0 * hbar)) * (c2 / system.omega),
        phase1=-(kappa * cubes / (8.0 * hbar)) * c2,
        phase2=(kappa * cubes / (6.0 * hbar)) * c2)


def closed_form_branch_amplitude(system: TruncatedModeSystem, probe: ProbeStressTensor,
                                 hT_shift: float, t) -> np.ndarray:
    """Vacuum persistence amplitude of every branch at a time or a 1-D array
    of times (time axis first), exact to all orders in t.  H_G - (C/2) h is
    a linearly driven oscillator, whose amplitude with the free zero-point
    phase removed is exp(i g^2 (omega t - sin omega t))
    exp(-g^2 (1 - cos omega t)), g^2 = (C/2)^2 kappa / (hbar omega^3)
    (Carruthers & Nieto, Am. J. Phys. 33, 537, 1965), and the c-number
    trace term adds phase0.  The dense propagators differ from it only by
    the truncation at D levels."""
    coupling, drive = _couplings(system, probe, hT_shift)
    kappa, hbar, omega = system.consts.kappa, system.consts.hbar, system.omega
    # omega^3 by numpy's array power, which rounds some omegas an ulp away
    # from a Python float's power; the recorded reports hold the former
    g2 = (0.5 * coupling) ** 2 * kappa / (hbar * np.array([omega]) ** 3)
    t = _times(t, 1)[0]
    wt = t * omega
    phase = (t / (4.0 * hbar)) * drive + g2 * (wt - np.sin(wt))
    return np.exp(1j * phase) * np.exp(-(g2 * (1.0 - np.cos(wt))))


@frozen_record
class PropagatorComparison:
    """The exact-vs-factorised comparison over a sweep, time axis first:
    the per-branch vacuum amplitudes <0|U_b|0> of the exact propagators,
    shape (times, d_P), the restricted operator-norm defects of the order-3
    and order-2 products, the extracted interference data of branches 0
    and 1 and the commutator-ordered predictions for it."""

    times: np.ndarray
    amplitudes: np.ndarray
    defect_order3: np.ndarray
    defect_order2: np.ndarray
    dphase_exact: np.ndarray
    ddamping_exact: np.ndarray
    prediction: ThetaPrediction

    @property
    def dphase_predicted(self) -> np.ndarray:
        p = self.prediction
        total = p.phase0 + p.phase1 + p.phase2
        return total[..., 1] - total[..., 0]

    @property
    def ddamping_predicted(self) -> np.ndarray:
        return self.prediction.damping0[..., 1] - self.prediction.damping0[..., 0]


def compare_propagators(system: TruncatedModeSystem, probe: ProbeStressTensor,
                        hT_shift: float, times, n_low: int = 8) -> PropagatorComparison:
    """Evolve every branch exactly and through the order-3 and order-2
    ordered-exponential factorisations over a 1-D array of times, measure
    their deviations on the low-lying subspace and extract the interference
    data of branches 0 and 1.  H_G and every H_I,b are built once, and each
    propagator function is called once for all times.

    Every propagator is applied only to the columns the comparison reads:
    the lowest min(n_low, D) number states X, the field vacuum first.  A
    defect is the largest per-branch ||(U_b - U_Z,b) X||_2, which equals
    ||(U_b - U_Z,b) P||_2 for the projector P = X X^T with X orthonormal,
    and is the operator norm on the block-diagonal field (x) probe space.  The vacuum amplitudes are column
    0 of U_b X."""
    hbar = system.consts.hbar
    times = np.asarray(times, dtype=float)
    h_g = build_HG(system)
    h_i = build_HI(system, probe, hT_shift)
    x = np.eye(system.dim, min(n_low, system.dim))
    u_x = exact_propagator(h_g + h_i, times, hbar, x)
    u_z2, u_z3 = zassenhaus_product(h_g, h_i, times, hbar, x)
    defect3, defect2 = (np.linalg.norm(u_x - u_z, 2, axis=(-2, -1)).max(axis=-1)
                        for u_z in (u_z3, u_z2))
    # the amplitudes are copied, so that no view keeps the column stack alive
    return PropagatorComparison(
        times, u_x[..., 0, 0].copy(), defect3, defect2, *extract_relative_phase(u_x),
        predict_theta(system, probe, hT_shift, times))


def extract_relative_phase(u: np.ndarray):
    """Interference data between probe branches 0 and 1 from the per-branch
    propagators u, shape (..., d_P, D, D) with any leading time axes, or
    from them applied to columns of which the first is the field vacuum.

    Per branch x the vacuum amplitude is A_x = <0|U_x|0> (the field vacuum
    is the first number state); returns (arg, log magnitude) of
    A_1 / A_0, the relative phase and damping that an interference
    measurement on the probe reads out.
    """
    amps = u[..., :2, 0, 0]
    weakest = float(np.abs(amps).min())
    if weakest < BRANCH_AMP_FLOOR:
        raise ValueError(f"branch suppressed: |amplitude| = {weakest:.2e}")
    ratio = amps[..., 1] / amps[..., 0]
    return np.angle(ratio), np.log(np.abs(ratio))
