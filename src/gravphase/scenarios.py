"""Scenario runners behind the CLI: execute one validated config, write the
JSON report plus plot-ready CSV tables, return the report dict."""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import gridio
from .config import ConfigError, build_constants
from .grids import GridSpec
from .opalg import (
    c_number_probe_stress,
    compare_propagators,
    make_single_mode_system,
    polarization_tensors,
    propagator_sweep,
)
from .overlaps import exact_joint_overlap, semiclassical_overlap
from .phases import PhaseRequest, compare_models, newton_phase, theta_AB
from .poisson import laplacian_residual, solve_hT_direct, solve_hT_spectral
from .sources import (
    LocalizedSourceSpec,
    QuantumSourceState,
    gaussian_density,
    grid_density,
    point_density,
    source_overlap,
)


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


def _scaled_vec(v, scales):
    return tuple(float(x) / scales["length"] for x in v)


def _build_source(block: dict, scales: dict):
    kind = block["type"]
    if kind == "localized":
        amps = np.array([_amplitude(b["amplitude"]) for b in block["branches"]])
        amps = amps / np.sqrt((np.abs(amps) ** 2).sum())
        return LocalizedSourceSpec(
            mass=block["mass"] / scales["mass"],
            amplitudes=amps,
            centers=np.array([_scaled_vec(b["center"], scales) for b in block["branches"]]),
            widths=np.array([b["width"] / scales["length"] for b in block["branches"]]),
        )
    if kind == "gaussian":
        return LocalizedSourceSpec(
            mass=block["mass"] / scales["mass"],
            amplitudes=np.array([1.0 + 0.0j]),
            centers=np.array([_scaled_vec(block["center"], scales)]),
            widths=np.array([block["sigma"] / scales["length"]]),
        )
    if kind == "point":
        sigma = block.get("sigma")
        if sigma is not None:
            sigma /= scales["length"]
        return point_density(block["mass"] / scales["mass"],
                             _scaled_vec(block["center"], scales),
                             sigma_reg=sigma)
    if kind == "grid-file":
        path = Path(block["path"])
        if not path.exists():
            raise ConfigError(f"referenced grid file not found: {path}")
        values, box, _ = gridio.load_scalar_grid(path)
        return grid_density(values, box)
    raise ConfigError(f"unsupported source type {kind!r}")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"scenario {cfg.get('scenario')!r} needs a {key!r} block")
    return cfg[key]


def _matrix_rows(name: str, pm, stderr=None):
    rows = []
    n_a, n_b = pm.theta.shape
    for i in range(n_a):
        for j in range(n_b):
            err = 0.0 if stderr is None else stderr[i, j]
            rows.append((name, i, j, pm.damping[i, j], pm.phases[i, j], err))
    return rows


def run_phase_compare(cfg: dict, outdir: Path) -> dict:
    consts, scales, unit_label = build_constants(cfg)
    sources = _require(cfg, "sources")
    spec_a = _build_source(sources["a"], scales)
    spec_b = _build_source(sources["b"], scales)
    if not isinstance(spec_a, LocalizedSourceSpec) or not isinstance(spec_b, LocalizedSourceSpec):
        raise ConfigError("phase-compare sources must be localized or gaussian")
    grid_cfg = cfg.get("grid")
    grid = GridSpec(grid_cfg["n"], grid_cfg["box"] / scales["length"]) if grid_cfg else None
    request = PhaseRequest(
        source_a=spec_a,
        source_b=spec_b,
        time=cfg.get("time", 1.0) / scales["time"],
        consts=consts,
        grid=grid,
        backend=cfg.get("backend", "auto"),
        mc_samples=cfg.get("mc_samples", 1_000_000),
        seed=cfg["seed"],
        sigma_ladder=tuple(s / scales["length"] for s in cfg.get("sigma_ladder", ())),
    )
    report = compare_models(request)

    rows = []
    for name, pm in report.matrices.items():
        rows.extend(_matrix_rows(name, pm, pm.stderr))
    write_csv(outdir / "tables" / "models.csv",
              ["model", "i", "j", "damping", "phase_rad", "stderr_rad"], rows)
    if report.convergence:
        write_csv(outdir / "tables" / "convergence.csv",
                  ["sigma", "sigma_over_d", "phase_rad", "point_phase_rad",
                   "deviation", "stderr_rad"],
                  [(c["sigma"], c["sigma_over_d"], c["phase"], c["point_phase"],
                    c["deviation"], c["stderr"]) for c in report.convergence])

    width_rows = []
    for width in cfg.get("width_variation", ()):
        sig = width / scales["length"]
        ea = gaussian_density(spec_a.mass, spec_a.centers[0], sig)
        eb = gaussian_density(spec_b.mass, spec_b.centers[0], sig)
        th, _ = theta_AB(ea, eb, request.time, consts, backend=request.backend,
                         grid=grid, mc_samples=request.mc_samples, seed=request.seed)
        nw = newton_phase(spec_a, spec_b, request.time, consts).phases[0, 0]
        width_rows.append((sig, th, nw))
    if width_rows:
        write_csv(outdir / "tables" / "width_variation.csv",
                  ["sigma", "theta_ab_rad", "newton_rad"], width_rows)

    return {
        "scenario": "phase-compare",
        "units": {"phase": "rad", "damping": "log-magnitude",
                  "self_energy": "energy, " + unit_label,
                  "lengths_masses_times": unit_label},
        "negativities": report.negativities,
        "deviations_point_normalized": report.deviations,
        "deviations_fitted": report.fitted_deviations,
        "pairwise_deviations": report.pairwise_deviations,
        "self_energies": report.self_energies,
        "prefactor_ratios": report.prefactor_ratios,
        "skipped_models": report.skipped,
        "classical_quantum_row": report.cq_stub,
        "vacuum_reference": report.vacuum_note,
        "tables": {
            "models.csv": "per model x eigenpair: damping, phase (rad)",
            "convergence.csv": "narrow-width ladder (written when sigma_ladder set)",
            "width_variation.csv": "theta_AB vs width with center-based phase",
        },
    }


def run_poisson(cfg: dict, outdir: Path) -> dict:
    consts, scales, unit_label = build_constants(cfg)
    block = _require(cfg, "poisson")
    grid_cfg = _require(cfg, "grid")
    grid = GridSpec(grid_cfg["n"], grid_cfg["box"] / scales["length"])
    profile_block = block["profile"]
    src = _build_source(profile_block, scales)
    if isinstance(src, LocalizedSourceSpec):
        src = src.branch_density(0)

    spectral = solve_hT_spectral(src, grid, consts)
    stride = block.get("stride", max(1, grid.n // 16))
    direct = solve_hT_direct(src, grid, consts, stride=stride)
    sub = spectral.values[::stride, ::stride, ::stride]
    backend_dev = float(np.abs(sub - direct.values).max() / np.abs(direct.values).max())
    rms_res, rms_src = laplacian_residual(spectral, src, consts)

    if block.get("save_fields", True):
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
        "field_files": ["fields/hT.f64", "fields/hT.f64.json"] if block.get("save_fields", True) else [],
    }


def _random_state_pair(rng, n_basis: int = 4):
    def one():
        k = int(rng.integers(1, n_basis + 1))
        idx = tuple(sorted(rng.choice(n_basis, size=k, replace=False)))
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        amps /= np.linalg.norm(amps)
        dens = [gaussian_density(1.0, (2.0 + 0.5 * i, 2.0, 2.0), 0.25 + 0.05 * i) for i in idx]
        return QuantumSourceState(amplitudes=amps, densities=dens, indices=idx)
    return one(), one()


def run_overlap_sweep(cfg: dict, outdir: Path) -> dict:
    consts, scales, unit_label = build_constants(cfg)
    block = _require(cfg, "overlap")
    box = block["box"] / scales["length"]
    pos = np.asarray(block.get("position", [box / 2] * 3), dtype=float) / scales["length"]
    eps0 = np.asarray(block["epsilon"], dtype=float) / scales["length"]
    mass = block.get("mass", 1.0) / scales["mass"]
    sigma_reg = block.get("sigma_reg")
    if sigma_reg is not None:
        sigma_reg /= scales["length"]
    matter_width = block.get("matter_width")
    if matter_width is not None:
        matter_width /= scales["length"]

    ws = [block["w_start"] * 0.5**i for i in range(block["w_halvings"] + 1)]
    eps_scales = block.get("epsilon_scales", [1.0])
    rows = []
    for n in block["grid_sizes"]:
        grid = GridSpec(int(n), box)
        for scale in eps_scales:
            eps = eps0 * scale
            for w in ws:
                log_ov = semiclassical_overlap(pos, eps, w, grid, consts, mass=mass,
                                               sigma_reg=sigma_reg,
                                               matter_width=matter_width,
                                               return_log=True)
                ov = math.exp(log_ov) if log_ov > -745.0 else 0.0
                rows.append((float(np.linalg.norm(eps)), w, int(n), ov, log_ov))
    write_csv(outdir / "tables" / "overlap_sweep.csv",
              ["epsilon", "w", "N", "overlap", "log_overlap"], rows)

    n_pairs = int(block.get("state_pairs", 0))
    max_identity_dev = 0.0
    if n_pairs:
        rng = np.random.default_rng(cfg["seed"])
        grid = GridSpec(int(block["grid_sizes"][0]), box)
        for _ in range(n_pairs):
            psi, phi = _random_state_pair(rng)
            joint = exact_joint_overlap(psi, phi, grid, consts)
            bare = source_overlap(psi, phi)
            max_identity_dev = max(max_identity_dev, abs(joint - bare))

    return {
        "scenario": "overlap-sweep",
        "units": {"overlap": "dimensionless", "epsilon": unit_label, "w": "field amplitude, " + unit_label},
        "rows": len(rows),
        "joint_overlap_identity_max_dev": max_identity_dev,
        "state_pairs_checked": n_pairs,
        "tables": {"overlap_sweep.csv": "(epsilon, w, N, overlap, log_overlap)"},
    }


def _fit_slope(ts, values):
    mask = np.asarray(values) > 0.0
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(np.asarray(ts)[mask]),
                            np.log(np.asarray(values)[mask]), 1)[0])


def run_opalg_verify(cfg: dict, outdir: Path) -> dict:
    consts, _, unit_label = build_constants(cfg)
    block = _require(cfg, "opalg")
    dim = block["dim"]
    system = make_single_mode_system(block["kvec"], dim, consts,
                                     weight=block.get("weight", 1.0))
    system.validate()
    tt_amps = block["tt_branch_amplitudes"]
    tr_amps = block.get("trace_branch_amplitudes", [0.0] * len(tt_amps))
    if len(tr_amps) != len(tt_amps):
        raise ConfigError("branch amplitude lists must have matching length")
    e_plus, _ = polarization_tensors(block["kvec"])
    khat = np.asarray(block["kvec"]) / np.linalg.norm(block["kvec"])
    trans = np.eye(3) - np.outer(khat, khat)  # trace amplitude b gives P:T = b
    branch_tensors = [a * e_plus + 0.5 * b * trans for a, b in zip(tt_amps, tr_amps)]
    probe = c_number_probe_stress(system, branch_tensors)
    hT = np.array([block.get("hT_shift", 0.0)])
    n_low = block.get("n_low", 8)

    ts = np.geomspace(block["t_start"], block["t_stop"], block.get("t_points", 10))
    sweep = propagator_sweep(system, probe, hT, n_low=n_low)
    comps = [compare_propagators(sweep, t) for t in ts]
    defects3 = [c.defect_order3 for c in comps]
    defects2 = [c.defect_order2 for c in comps]
    resid = [c.dphase_exact - float(c.prediction.phase0[1] - c.prediction.phase0[0])
             for c in comps]
    damp = [abs(c.ddamping_exact) for c in comps]
    write_csv(outdir / "tables" / "zassenhaus.csv",
              ["t", "defect_order3", "defect_order2", "dphase_exact",
               "dphase_predicted", "ddamping_exact", "ddamping_predicted"],
              [(c.time, c.defect_order3, c.defect_order2, c.dphase_exact,
                c.dphase_predicted, c.ddamping_exact, c.ddamping_predicted)
               for c in comps])

    slope3 = _fit_slope(ts, defects3)
    slope2 = _fit_slope(ts, defects2)
    slope_resid = _fit_slope(ts, np.abs(resid))
    pred0 = comps[0].prediction
    t3_pred = float(pred0.phase_t3[1] - pred0.phase_t3[0])
    t3_rel_err = abs(resid[0] - t3_pred) / abs(t3_pred) if t3_pred else float("nan")
    slope_damp = _fit_slope(ts, damp)
    write_csv(outdir / "tables" / "slopes.csv",
              ["quantity", "slope", "window_lo", "window_hi", "target_lo", "target_hi"],
              [("defect_order3", slope3, ts[0], ts[-1], 3.9, 4.3),
               ("defect_order2", slope2, ts[0], ts[-1], 2.9, 3.3),
               ("phase_residual", slope_resid, ts[0], ts[-1], 2.8, 3.2),
               ("damping", slope_damp, ts[0], ts[-1], 1.9, 2.1)])

    flags = {
        "defect_slope_order3_in_[3.9,4.3]": bool(3.9 <= slope3 <= 4.3),
        "defect_slope_order2_in_[2.9,3.3]": bool(2.9 <= slope2 <= 3.3),
        "phase_residual_slope_near_3": bool(2.8 <= slope_resid <= 3.2),
        "t3_coefficient_within_5pct": bool(t3_rel_err <= 0.05),
        "damping_slope_in_[1.9,2.1]": bool(1.9 <= slope_damp <= 2.1),
    }
    return {
        "scenario": "opalg-verify",
        "units": {"t": "time, " + unit_label, "defect": "operator 2-norm",
                  "phase": "rad", "damping": "log-magnitude"},
        "slopes": {"defect_order3": slope3, "defect_order2": slope2,
                   "phase_residual": slope_resid, "damping": slope_damp},
        "t3_coefficient_rel_err": t3_rel_err,
        "pass_flags": flags,
        "tables": {"zassenhaus.csv": "per-t defects and phase/damping comparison"},
    }


def run_negativity(cfg: dict, outdir: Path) -> dict:
    from .phases import PhaseMatrix, negativity

    block = _require(cfg, "negativity")
    amps_a = np.array([_amplitude(a) for a in block["amplitudes_a"]])
    amps_b = np.array([_amplitude(a) for a in block["amplitudes_b"]])
    shape = (len(amps_a), len(amps_b))
    for key in ("phases", "dampings"):
        rows = block.get(key)
        if rows is not None and (len(rows) != shape[0] or any(len(r) != shape[1] for r in rows)):
            raise ConfigError(f"config invalid at negativity/{key}: expected a "
                              f"{shape[0]} x {shape[1]} matrix (amplitudes_a x amplitudes_b)")
    phases = np.asarray(block["phases"], dtype=float)
    dampings = np.asarray(block.get("dampings", np.zeros_like(phases)), dtype=float)
    pm = PhaseMatrix(model="explicit", theta=dampings + 1j * phases)
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
    (outdir / "report.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
    return report
