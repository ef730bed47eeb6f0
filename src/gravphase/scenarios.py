"""Scenario runners behind the CLI: execute one validated config, write the
JSON report plus plot-ready CSV tables, return the report dict."""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import gridio
from .config import to_internal_units
from .grids import GridSpec
from .opalg import (
    TruncatedModeSystem,
    c_number_probe_stress,
    closed_form_branch_amplitude,
    compare_propagators,
    polarization_tensors,
)
from .overlaps import exact_joint_overlap, overlap_from_log, semiclassical_overlap
from .phases import PhaseMatrix, compare_models, negativity, theta_AB
from .poisson import laplacian_residual, solve_hT_direct, solve_hT_spectral
from .sources import (
    EnergyDensity,
    QuantumSourceState,
    gaussian_density,
    grid_density,
    sample_on_grid,
)
from .tensoralg import transverse_projector

# The hybrid classical-quantum row is static: that class of dynamics is
# stochastic and decoherence dominated and generates no entanglement, so
# there is no phase matrix to compute.
CLASSICAL_QUANTUM_ROW = {
    "model": "classical-quantum hybrid",
    "status": "stub",
    "prediction": "decoherence-dominated, no entanglement",
    "note": ("positivity-preserving hybrid couplings evolve by stochastic "
             "open-system dynamics; they diffuse and decohere instead of "
             "building coherent entangling phases, so no phase matrix exists"),
}
VACUUM_REFERENCE = ("field vacuum energy enters only as a subtracted reference; "
                    "it is symbolic and never evaluated")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _amplitude(raw) -> complex:
    if isinstance(raw, (list, tuple)):
        return complex(raw[0], raw[1])
    return complex(raw)


def _build_state(block: dict) -> QuantumSourceState:
    """The state of a "localized", "gaussian" or "point" source block in
    internal units: one Gaussian density of the block's mass per branch, a
    "gaussian" or "point" block being one branch."""
    branches = block.get("branches") or [
        {"amplitude": 1.0, "center": block["center"], "width": block["sigma"]}]
    amps = np.array([_amplitude(b["amplitude"]) for b in branches])
    return QuantumSourceState(
        amplitudes=amps / np.sqrt((np.abs(amps) ** 2).sum()),
        densities=[gaussian_density(block["mass"], b["center"], b["width"]) for b in branches],
        indices=range(len(branches)))


def _build_density(block: dict) -> EnergyDensity:
    """The energy density of a poisson profile block in internal units: a
    grid file's array, else the one Gaussian of a "localized" (one branch,
    checked at load), "gaussian" or "point" block, a point's width
    defaulting to POINT_SIGMA_CELLS cells (`config.with_defaults`)."""
    if block["type"] == "grid-file":
        values, box, _ = gridio.load_scalar_grid(Path(block["path"]))
        return grid_density(values, box)
    return _build_state(block).densities[0]


def run_phase_compare(cfg: dict, outdir: Path) -> dict:
    consts, cfg, unit_label = to_internal_units(cfg)
    psi_a = _build_state(cfg["sources"]["a"])
    psi_b = _build_state(cfg["sources"]["b"])
    grid = GridSpec(**cfg["grid"]) if "grid" in cfg else None
    time = cfg["time"]
    kw = dict(grid=grid, backend=cfg["backend"], mc_samples=cfg["mc_samples"], seed=cfg["seed"])
    report = compare_models(psi_a, psi_b, time, consts,
                            sigma_ladder=tuple(cfg.get("sigma_ladder", ())), **kw)
    matrices, convergence = report.pop("matrices"), report.pop("convergence")

    write_csv(outdir / "tables" / "models.csv",
              ["model", "i", "j", "damping", "phase_rad", "stderr_rad"],
              [(name, i, j, pm.damping[i, j], pm.phases[i, j],
                0.0 if pm.stderr is None else pm.stderr[i, j])
               for name, pm in matrices.items() for i, j in np.ndindex(pm.theta.shape)])
    if convergence:
        write_csv(outdir / "tables" / "convergence.csv",
                  ["sigma", "sigma_over_d", "phase_rad", "point_phase_rad",
                   "deviation", "stderr_rad"],
                  # an undefined deviation (point phase 0) is an empty cell
                  [(c["sigma"], c["sigma_over_d"], c["phase"], c["point_phase"],
                    c["deviation"] if math.isfinite(c["deviation"]) else "", c["stderr"])
                   for c in convergence])

    nw = matrices["newton"].phases[0, 0]  # of the density centres: width-independent
    a0, b0 = psi_a.densities[0], psi_b.densities[0]
    width_rows = []
    for sig in cfg.get("width_variation", ()):
        ea = gaussian_density(a0.mass, a0.center, sig)
        eb = gaussian_density(b0.mass, b0.center, sig)
        th, _ = theta_AB(ea, eb, time, consts, **kw)
        width_rows.append((sig, th, nw))
    if width_rows:
        write_csv(outdir / "tables" / "width_variation.csv",
                  ["sigma", "theta_ab_rad", "newton_rad"], width_rows)

    return {
        "scenario": "phase-compare",
        "units": {"phase": "rad", "damping": "log-magnitude",
                  "self_energy": "energy, " + unit_label,
                  "lengths_masses_times": unit_label},
        **report,
        "classical_quantum_row": CLASSICAL_QUANTUM_ROW,
        "vacuum_reference": VACUUM_REFERENCE,
        "tables": {
            "models.csv": "per model x eigenpair: damping, phase (rad)",
            "convergence.csv": "narrow-width ladder (written when sigma_ladder set)",
            "width_variation.csv": "theta_AB vs width with center-based phase",
        },
    }


def run_poisson(cfg: dict, outdir: Path) -> dict:
    consts, cfg, unit_label = to_internal_units(cfg)
    block = cfg["poisson"]
    grid = GridSpec(**cfg["grid"])
    # sampled once: both solvers and the residual read it
    src = sample_on_grid(_build_density(block["profile"]), grid, consts)

    stride = block["stride"]
    direct = solve_hT_direct(src, grid, consts, stride=stride)
    spectral = solve_hT_spectral(src, grid, consts)
    sub = spectral.values[::stride, ::stride, ::stride]
    scale = np.abs(direct.values).max()  # zero for a massless profile
    backend_dev = float(np.abs(sub - direct.values).max() / scale) if scale else 0.0
    rms_res, rms_src = laplacian_residual(spectral, src, consts)

    if block["save_fields"]:
        fields = outdir / "fields"
        fields.mkdir(parents=True, exist_ok=True)
        gridio.save_scalar_grid(fields / "hT.f64", spectral.values, grid.box,
                                units="dimensionless metric perturbation")

    return {
        "scenario": "poisson",
        "units": {"hT": "dimensionless", "residual_ratio": "dimensionless",
                  "backend_deviation": "dimensionless",
                  "lengths_masses_times": unit_label},
        "grid": {"n": grid.n, "box": grid.box},
        "backend_deviation_max_rel": backend_dev,
        "laplacian_residual_rms_over_source_rms": rms_res / rms_src if rms_src else 0.0,
        "field_files": ["fields/hT.f64", "fields/hT.f64.json"] if block["save_fields"] else [],
    }


def _random_state_pair(rng: random.Random):
    def one():
        k = rng.randint(1, 4)
        idx = tuple(sorted(rng.sample(range(4), k)))
        amps = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in idx])
        amps /= np.linalg.norm(amps)
        dens = [gaussian_density(1.0, (2.0 + 0.5 * i, 2.0, 2.0), 0.25 + 0.05 * i) for i in idx]
        return QuantumSourceState(amplitudes=amps, densities=dens, indices=idx)
    return one(), one()


def run_overlap_sweep(cfg: dict, outdir: Path) -> dict:
    consts, cfg, unit_label = to_internal_units(cfg)
    block = cfg["overlap"]
    pos = np.asarray(block["position"], dtype=float)
    eps0 = np.asarray(block["epsilon"], dtype=float)

    ws = [block["w_start"] * 0.5**i for i in range(block["w_halvings"] + 1)]
    eps_stack = np.array([eps0 * scale for scale in block["epsilon_scales"]])
    grids = [GridSpec(n, block["box"]) for n in block["grid_sizes"]]
    rows = []
    for grid in grids:
        # one call per grid: the mode sum of each displacement serves every width
        logs = semiclassical_overlap(pos, eps_stack, ws, grid, consts,
                                     mass=block["mass"], sigma_reg=block.get("sigma_reg"),
                                     matter_width=block.get("matter_width"))
        for eps, eps_logs in zip(eps_stack, logs):
            eps_norm = float(np.linalg.norm(eps))
            rows.extend((eps_norm, w, grid.n, overlap_from_log(log_ov), log_ov)
                        for w, log_ov in zip(ws, eps_logs))
    write_csv(outdir / "tables" / "overlap_sweep.csv",
              ["epsilon", "w", "N", "overlap", "log_overlap"], rows)

    # every pair in one call, on the smallest sweep grid, which raises if a
    # shared index carries two densities whose field shifts do not cancel;
    # the field states are full n^3 tables, which `config.cost` counts there
    rng = random.Random(cfg["seed"])
    pairs = [_random_state_pair(rng) for _ in range(block["state_pairs"])]
    exact_joint_overlap([a for a, _ in pairs], [b for _, b in pairs],
                        min(grids, key=lambda g: g.n), consts)

    return {
        "scenario": "overlap-sweep",
        "units": {"overlap": "dimensionless", "epsilon": unit_label, "w": "field amplitude, " + unit_label},
        "rows": len(rows),
        "state_pairs_checked": len(pairs),
        "tables": {"overlap_sweep.csv": "(epsilon, w, N, overlap, log_overlap)"},
    }


# the pass flag of each opalg-verify quantity, named from the window
# [lo, hi] it must fall in; a slope's window is also its slopes.csv target
PASS_WINDOWS = {
    "defect_order3": ("defect_slope_order3_in_[{},{}]", 3.9, 4.3),
    "defect_order2": ("defect_slope_order2_in_[{},{}]", 2.9, 3.3),
    "phase_residual": ("phase_residual_slope_near_3", 2.8, 3.2),
    "t3_coefficient_rel_err": ("t3_coefficient_within_5pct", 0.0, 0.05),
    "damping": ("damping_slope_in_[{},{}]", 1.9, 2.1),
}


def _fit_slope(ts, values):
    """Log-log slope, or nan where fewer than two distinct times carry a
    positive value."""
    mask = np.asarray(values) > 0.0
    log_t = np.log(np.asarray(ts)[mask])
    if log_t.size < 2 or log_t.min() == log_t.max():
        return float("nan")
    coef, _, rank, _, _ = np.polyfit(log_t, np.log(np.asarray(values)[mask]), 1, full=True)
    return float(coef[0]) if rank == 2 else float("nan")


def run_opalg_verify(cfg: dict, outdir: Path) -> dict:
    consts, cfg, unit_label = to_internal_units(cfg)
    block = cfg["opalg"]
    system = TruncatedModeSystem(block["kvec"], block["dim"], consts, weight=block["weight"])
    system.validate()
    e_plus, _ = polarization_tensors(block["kvec"])
    trans = transverse_projector(block["kvec"])  # trace amplitude b gives P:T = b
    branch_tensors = [a * e_plus + 0.5 * b * trans for a, b in
                      zip(block["tt_branch_amplitudes"], block["trace_branch_amplitudes"])]
    probe = c_number_probe_stress(branch_tensors)
    hT = block["hT_shift"]

    ts = np.geomspace(block["t_start"], block["t_stop"], block["t_points"])
    comp = compare_propagators(system, probe, hT, ts, n_low=block["n_low"])
    pred = comp.prediction
    resid = comp.dphase_exact - (pred.phase0[:, 1] - pred.phase0[:, 0])
    write_csv(outdir / "tables" / "zassenhaus.csv",
              ["t", "defect_order3", "defect_order2", "dphase_exact",
               "dphase_predicted", "ddamping_exact", "ddamping_predicted"],
              zip(ts, comp.defect_order3, comp.defect_order2, comp.dphase_exact,
                  comp.dphase_predicted, comp.ddamping_exact, comp.ddamping_predicted))

    slopes = {"defect_order3": _fit_slope(ts, comp.defect_order3),
              "defect_order2": _fit_slope(ts, comp.defect_order2),
              "phase_residual": _fit_slope(ts, np.abs(resid)),
              "damping": _fit_slope(ts, np.abs(comp.ddamping_exact))}
    t3_pred = float(pred.phase_t3[0, 1] - pred.phase_t3[0, 0])
    t3_rel_err = abs(resid[0] - t3_pred) / abs(t3_pred) if t3_pred else float("nan")
    # the displaced-oscillator closed form, exact to all orders in t: a
    # closed form that under- or overflows reads as nan
    with np.errstate(all="ignore"):
        closed = closed_form_branch_amplitude(system, probe, hT, ts)
        ratio = closed[:, 1] / closed[:, 0]
        phase, damping = np.angle(ratio), np.log(np.abs(ratio))
        closed_dev = {
            "dphase": float(np.max(np.abs(comp.dphase_exact - phase) / np.abs(phase))),
            "ddamping": float(np.max(np.abs(comp.ddamping_exact - damping) / np.abs(damping)))}
    # an undefined slope is an empty cell, as it is null in the report
    write_csv(outdir / "tables" / "slopes.csv",
              ["quantity", "slope", "window_lo", "window_hi", "target_lo", "target_hi"],
              [(name, slope if math.isfinite(slope) else "", ts[0], ts[-1],
                *PASS_WINDOWS[name][1:]) for name, slope in slopes.items()])

    # an undefined quantity is reported as null, its reason under
    # "undefined", and fails its pass flag (NaN compares false)
    undefined = {}

    def defined(key, value, reason):
        if math.isfinite(value):
            return value
        undefined[key] = reason
        return None

    no_slope = "fewer than two distinct times carry a nonzero value"
    no_closed = "the closed-form difference is 0 (equal branches) or not finite at some time"
    values = {**slopes, "t3_coefficient_rel_err": t3_rel_err}
    flags = {flag.format(lo, hi): bool(lo <= values[name] <= hi)
             for name, (flag, lo, hi) in PASS_WINDOWS.items()}
    return {
        "scenario": "opalg-verify",
        "units": {"t": "time, " + unit_label, "defect": "operator 2-norm",
                  "phase": "rad", "damping": "log-magnitude"},
        "slopes": {name: defined(f"slopes.{name}", value, no_slope)
                   for name, value in slopes.items()},
        "t3_coefficient_rel_err": defined("t3_coefficient_rel_err", t3_rel_err,
                                          "the predicted t^3 phase term is 0 or not finite"),
        "closed_form_max_rel_dev": {
            name: defined(f"closed_form_max_rel_dev.{name}", value, no_closed)
            for name, value in closed_dev.items()},
        "undefined": undefined,
        "pass_flags": flags,
        "tables": {"zassenhaus.csv": "per-t defects and phase/damping comparison"},
    }


def run_negativity(cfg: dict, outdir: Path) -> dict:
    block = to_internal_units(cfg)[1]["negativity"]
    amps_a = np.array([_amplitude(a) for a in block["amplitudes_a"]])
    amps_b = np.array([_amplitude(a) for a in block["amplitudes_b"]])
    pm = PhaseMatrix(model="explicit", theta=np.asarray(block["dampings"], dtype=float)
                     + 1j * np.asarray(block["phases"], dtype=float))
    value = negativity(amps_a / np.linalg.norm(amps_a), amps_b / np.linalg.norm(amps_b), pm)
    write_csv(outdir / "tables" / "negativity.csv", ["negativity"], [(value,)])
    return {
        "scenario": "negativity",
        "units": {"negativity": "dimensionless"},
        "negativity": value,
    }


_RUNNERS = {
    "phase-compare": run_phase_compare,
    "poisson": run_poisson,
    "overlap-sweep": run_overlap_sweep,
    "opalg-verify": run_opalg_verify,
    "negativity": run_negativity,
}


def run_scenario(cfg: dict, outdir) -> dict:
    outdir = Path(outdir)
    result = _RUNNERS[cfg["scenario"]](cfg, outdir)  # raises before writing anything
    outdir.mkdir(parents=True, exist_ok=True)
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "seed": cfg["seed"],
            "scenario": cfg["scenario"],
        },
        "config": cfg,
        "result": result,
    }
    # strict JSON: a non-finite number is a defect of its runner, not a token
    text = json.dumps(report, indent=2, default=float, allow_nan=False)
    (outdir / "report.json").write_text(text + "\n")
    return report
