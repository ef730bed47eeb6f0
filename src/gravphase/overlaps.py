"""Mode-discretised Gaussian-functional inner products.

Two regimes are contrasted here.  Treating a displaced source classically
pins the constraint field to a delta functional, so two solutions that differ
by any amount are orthogonal; regularising each mode's delta as a Gaussian of
width w exhibits the limit (the log overlap `semiclassical_overlap` returns
falls as w shrinks, as the displacement grows and as more modes are
constrained).  Keeping the source quantum instead, the joint matter+field
inner product collapses onto the matter overlap alone: the per-mode shift
phases cancel exactly for equal eigen-densities and orthogonal eigenstates
drop out (`exact_joint_overlap`).

A field state lives on the FFT lattice, whose |k| is the grid's own table;
the closed-form point amplitudes, which depend on |k| alone, live on the
lattice folded onto its non-negative indices, the (n/2+1)^3 octant.
Fourier amplitudes carry the cell-volume factor h^3 (physical convention,
stable under grid refinement).  The k = 0 mode never enters a product: it is
element 0 of a flattened field state, which `build_field_state` skips
through `.reshape(-1)[1:]`, and the zeroed corner of the octant.  Only
transverse-traceless vacuum factors and trace-part shift phases matter: the
longitudinal and trace momentum integrations are common normalisation
between bra and ket.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridSpec
from .sources import (
    POINT_SIGMA_CELLS,
    EnergyDensity,
    PhysicalConstants,
    QuantumSourceState,
    sample_on_grid,
    source_overlap,
)

SHIFT_CANCEL_TOL = 1e-14


def build_field_state(e: EnergyDensity, consts: PhysicalConstants, grid: GridSpec) -> np.ndarray:
    """Per-mode Gaussian data of the field state in the momentum
    representation: the trace-sector displacement phase coefficient
    h^T_E(k) / (2 hbar), an (n, n, n) complex array with the k = 0 entry
    zeroed (that mode never enters an overlap product).  The TT vacuum
    Gaussians are identical in bra and ket, so they normalise to one and are
    not stored.

    h^T_E(k) = kappa E(k) / |k|^2 solves the trace-sector Poisson equation
    mode by mode on the periodic lattice (the position-space solver treats
    it with free-space boundary conditions), E(k) being the
    cell-volume-weighted transform of the sampled density, so values are
    stable under grid refinement.
    """
    vals = sample_on_grid(e, grid, consts).values
    ek = (np.fft.fftn(vals) * grid.cell_volume).reshape(-1)
    hk = np.zeros_like(ek)
    hk[1:] = consts.kappa * ek[1:] / grid.k_magnitude.reshape(-1)[1:] ** 2
    return hk.reshape(vals.shape) / (2.0 * consts.hbar)


def exact_joint_overlap(psi_a, psi_b, grid: GridSpec, consts: PhysicalConstants):
    """Inner product of the joint matter+field states.

    Assembles the field states of the eigen-densities whose index both
    states carry and contracts.  For each such index the two shift arrays are
    verified to cancel mode by mode (gravity factor exactly 1); an index only
    one state carries meets the matter factor <E'|E> = 0, so its field state
    is never built.  The result therefore equals the bare matter overlap,
    `source_overlap`, which this function returns after the checks.

    `psi_a` and `psi_b` may also be equal-length sequences of states, paired
    element by element; the result is then a complex array, one entry per
    pair, each equal to the single-pair call.  Within one call every
    distinct eigen-density gets one field state, so an index whose two
    densities are equal needs no check.
    """
    single = isinstance(psi_a, QuantumSourceState)
    pairs_a, pairs_b = ([psi_a], [psi_b]) if single else (list(psi_a), list(psi_b))
    if len(pairs_a) != len(pairs_b):
        raise ValueError(f"need equal numbers of states, got {len(pairs_a)} and {len(pairs_b)}")
    field_states = {}

    def field_state(dens):
        # equal profile parameters give equal field states; a grid profile's
        # array is not hashable, so it is keyed by identity
        key = id(dens) if dens.kind == "grid" else (dens.kind, dens.mass, dens.center, dens.sigma)
        if key not in field_states:
            field_states[key] = build_field_state(dens, consts, grid)
        return field_states[key]

    for a, b in zip(pairs_a, pairs_b):
        dens_b = dict(zip(b.indices, b.densities))
        for idx, dens in zip(a.indices, a.densities):
            if idx not in dens_b:
                continue
            da, db = field_state(dens), field_state(dens_b[idx])
            if da is not db:
                scale = max(np.abs(da).max(), 1.0)
                defect = np.abs(da - db).max() / scale
                if defect > SHIFT_CANCEL_TOL:
                    raise ValueError(f"eigenstate index {idx} carries inconsistent densities "
                                     f"(per-mode shift mismatch {defect:.2e})")
    result = np.array([source_overlap(a, b) for a, b in zip(pairs_a, pairs_b)], dtype=complex)
    return complex(result[0]) if single else result


def analytic_point_amplitudes(mass: float, sigma: float, grid: GridSpec,
                              consts: PhysicalConstants) -> np.ndarray:
    """Exact h^T(k) of a Gaussian-regularised point source on the folded
    mode octant: kappa m c^2 exp(-sigma^2 k^2 / 2) / k^2, zero at k = 0.

    The value depends on |k| alone, so the (n/2+1)^3 octant of the indices
    j = 0..n/2 per axis (`GridSpec.k_folded`) holds every value of the FFT
    lattice: entry (a, b, c) stands for each sign choice of its three
    wavenumbers.  Taking the closed form rather than the grid solve keeps
    the per-mode values independent of the lattice resolution, so refining
    the grid changes a mode product only by adding modes.  The grid-solve
    transform agrees with these values mode by mode up to discretisation
    (tested).
    """
    k2 = grid.k_folded() ** 2
    k2 = k2[:, None, None] + k2[None, :, None] + k2[None, None, :]
    out = np.multiply(k2, -0.5 * sigma**2)
    np.exp(out, out=out)
    out *= consts.kappa * mass * consts.c**2
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at k = 0
        np.divide(out, k2, out=out)
    out[0, 0, 0] = 0.0
    return out


def _folded_mode_sums(weight: np.ndarray, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """S(eps) = sum over k != 0 of 2 weight(k) (1 - cos k.eps) for each row
    eps, from a weight even in each axis, given on the folded octant (zero
    at k = 0), and the folded axis `k`.

    Summed over the signs of one axis, an even factor gives its value times
    the multiplicity (1 at j = 0 and at Nyquist, 2 between) and an odd one
    gives 0, except at Nyquist, whose one wavenumber has no partner.  With
    u = 2 sin^2(theta/2), c = cos theta and s = sin theta per axis,

        1 - cos(a + b + c) = u_a + c_a u_b + c_a c_b u_c
                             + c_a s_b s_c + s_a c_b s_c + s_a s_b c_c,

    so the sum is a few contractions of the octant with folded per-axis
    factors, and the s terms live on the Nyquist slices alone.  Every term
    carries a u or two s, so eps = 0 gives exactly 0.  Each row is
    contracted alone, in arrays of one shape, so its rounding does not
    depend on how many rows there are.
    """
    m = len(k)
    mult = np.full(m, 2.0)
    mult[0] = mult[-1] = 1.0
    flat = weight.reshape(m * m, m)
    over_z = (flat @ mult).reshape(m, m)
    over_yz = over_z @ mult
    nyquist = weight[:, -1, -1], weight[-1, :, -1], weight[-1, -1, :]
    sums = np.empty(len(rows))
    for r, e in enumerate(rows):
        theta = np.multiply.outer(e, k)
        u = 2.0 * np.sin(0.5 * theta) ** 2 * mult
        c = np.cos(theta) * mult
        # the Nyquist wavenumber is -pi/h, but its sines enter in pairs
        sx, sy, sz = np.sin(theta[:, -1]).tolist()
        terms = (u[0] @ over_yz, c[0] @ (over_z @ u[1]),
                 c[0] @ ((flat @ u[2]).reshape(m, m) @ c[1]),
                 sy * sz * (c[0] @ nyquist[0]), sx * sz * (c[1] @ nyquist[1]),
                 sx * sy * (c[2] @ nyquist[2]))
        sums[r] = 2.0 * sum(terms)
    return sums


def overlap_from_log(log_overlap: float) -> float:
    """exp(log_overlap), flushed to 0 where it would underflow."""
    return math.exp(log_overlap) if log_overlap > -745.0 else 0.0


def semiclassical_overlap(
    x,
    epsilon,
    w,
    grid: GridSpec,
    consts: PhysicalConstants,
    mass: float = 1.0,
    sigma_reg: float | None = None,
    matter_width: float | None = None,
):
    """Log overlap of two classically-treated displaced sources.

    The per-mode delta constraint on the trace field is regularised as a
    Gaussian of width w, giving the product over modes of
    exp(-|dh(k)|^2 / 4 w^2) with dh(k) = (1 - e^{-i k . eps}) h^T(k), times
    the displaced-wavepacket overlap exp(-|eps|^2 / 8 sigma_m^2) when a
    matter width is declared.  The log is returned, since the overlap itself
    underflows on ladder studies; `overlap_from_log` recovers it.

    `epsilon` may be a stack of displacements, shape (m, 3), and `w` a 1-D
    array of widths; the result then has shape (m, len(w)), without the
    axis of a single displacement or a scalar width.  The mode sum
    S(eps) = sum |dh(k)|^2 is formed once per displacement and each width
    only divides it, so every entry equals the scalar call bit for bit.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim > 1:
        raise ValueError("regularisation widths must be a scalar or a 1-D array")
    if np.any(w <= 0.0):
        raise ValueError("regularisation width must be positive; "
                         "study the w -> 0 limit by sweeping instead")
    x = np.asarray(x, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim not in (1, 2) or eps.shape[-1] != 3:
        raise ValueError("displacement must be a 3-vector or a stack of them")
    ends = x + eps
    if (np.any(x < 0.0) or np.any(x > grid.box)
            or np.any(ends < 0.0) or np.any(ends > grid.box)):
        raise ValueError("displacement leaves the box")
    if sigma_reg is None:  # the width of a point source that declares none on this grid
        sigma_reg = POINT_SIGMA_CELLS * grid.h
    elif sigma_reg <= 0.0:
        raise ValueError("source regularisation width must be positive")
    if matter_width is not None and matter_width <= 0.0:
        raise ValueError("matter width must be positive")
    hk = analytic_point_amplitudes(mass, sigma_reg, grid, consts)
    rows = eps.reshape(-1, 3)
    # |1 - e^{-i k.eps}|^2 = 2 (1 - cos k.eps), summed on the octant
    mode_sums = _folded_mode_sums(np.square(hk, out=hk), grid.k_folded(), rows)
    # each width's 4 w^2 in Python floats, as a scalar call has always formed it
    log_overlap = -(mode_sums[:, None] / np.array([4.0 * v**2 for v in w.reshape(-1).tolist()]))
    if matter_width is not None:
        matter = np.array([(e**2).sum() / (8.0 * matter_width**2) for e in rows])
        log_overlap += -matter[:, None]
    log_overlap = log_overlap.reshape(eps.shape[:-1] + w.shape)
    return float(log_overlap) if log_overlap.ndim == 0 else log_overlap
