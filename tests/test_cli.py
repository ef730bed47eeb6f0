import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gravphase.cli import main
from gravphase.config import (
    CONFIG_SCHEMA,
    ConfigError,
    apply_overrides,
    get_preset,
    preset_names,
)


def test_presets_listed_and_valid():
    names = preset_names()
    assert len(names) >= 5
    for name in ("gie-2x2", "wide-gaussian-pair", "sn-vs-full",
                 "semiclassical-overlap", "zassenhaus-t3"):
        assert name in names
        get_preset(name)  # validates against the schema


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "gie-2x2" in out
    assert main(["presets", "--emit", "zassenhaus-t3"]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["scenario"] == "opalg-verify"
    assert main(["presets", "--emit", "nope"]) == 1


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema == CONFIG_SCHEMA
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "phase-compare",\n  "seed": }')
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.json:2:" in err  # line-anchored message
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 1
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"scenario": "phase-compare", "seed": -1}))
    assert main(["run", str(invalid)]) == 1


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_rejected_at_load(tmp_path, capsys, literal):
    cfg = json.dumps(get_preset("gie-2x2")).replace('"time": 0.2', f'"time": {literal}')
    path = tmp_path / "nonfinite.json"
    path.write_text(cfg)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert main(["run", "preset:gie-2x2", "--set", f"time={literal}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count(f"non-finite number {literal}") == 2
    assert not out.exists()  # refused before any compute


def test_zero_wavevector_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "preset:zassenhaus-t3", "--set", "opalg.kvec=[0,0,0]",
                 "--out", str(out)]) == 1
    assert "opalg/kvec: wavevector must be nonzero" in capsys.readouterr().err
    assert not out.exists()


def _zero_branch_amplitudes():
    cfg = get_preset("gie-2x2")
    for branch in cfg["sources"]["a"]["branches"]:
        branch["amplitude"] = [0.0, 0.0]
    return cfg


def _zero_negativity_amplitudes():
    return {"scenario": "negativity", "seed": 1, "negativity": {
        "amplitudes_a": [1.0, 1.0], "amplitudes_b": [0.0, [0.0, 0.0]],
        "phases": [[0.0, 0.0], [0.0, 0.0]]}}


@pytest.mark.parametrize("make_cfg, where", [
    (_zero_branch_amplitudes, "sources/a/branches"),
    (_zero_negativity_amplitudes, "negativity/amplitudes_b"),
])
def test_all_zero_amplitudes_are_a_config_error(tmp_path, make_cfg, where):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(make_cfg()))
    # normalising a zero vector would warn; the warning is made an error
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gravphase.cli", "run",
         str(path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 1, proc.stderr
    assert f"config invalid at {where}: amplitudes are all zero" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_override_paths():
    cfg = get_preset("zassenhaus-t3")
    out = apply_overrides(cfg, ["opalg.t_points=5", "seed=9"])
    assert out["opalg"]["t_points"] == 5 and out["seed"] == 9
    with pytest.raises(ConfigError, match="not present"):
        apply_overrides(cfg, ["nope.deep=1"])
    with pytest.raises(ConfigError, match="path=value"):
        apply_overrides(cfg, ["garbage"])


def test_numerical_guard_exit_code(tmp_path):
    cfg = get_preset("gie-2x2")
    cfg["scenario"] = "poisson"
    cfg["grid"] = {"n": 64, "box": 8.0}  # direct solver is guarded above N=48
    cfg["poisson"] = {"profile": {"type": "gaussian", "mass": 1.0,
                                  "center": [4.0, 4.0, 4.0], "sigma": 1.2}}
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_negativity_scenario_matches_direct_computation(tmp_path):
    s2 = 1 / np.sqrt(2)
    cfg = {
        "scenario": "negativity",
        "seed": 1,
        "negativity": {
            "amplitudes_a": [s2, s2],
            "amplitudes_b": [s2, s2],
            "phases": [[np.pi, 0.0], [0.0, 0.0]],
        },
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["result"]["negativity"] - 0.5) < 1e-12


def _negativity_cfg(**block):
    base = {"amplitudes_a": [1.0, 1.0], "amplitudes_b": [1.0, 1.0],
            "phases": [[0.0, 0.0], [0.0, 0.0]]}
    return {"scenario": "negativity", "seed": 1, "negativity": {**base, **block}}


@pytest.mark.parametrize("block, where", [
    ({"amplitudes_a": [{"re": 1}, 1.0]}, "negativity/amplitudes_a/0"),
    ({"amplitudes_b": [1.0, [1.0, 0.0, 2.0]]}, "negativity/amplitudes_b/1"),
    ({"phases": [["0.5", 0.0], [0.0, 0.0]]}, "negativity/phases/0/0"),
    ({"amplitudes_b": [1.0], "phases": [[0.0]]}, "negativity/phases"),
    ({"phases": [[0.0, 0.0], [0.0]]}, "negativity/phases"),
    ({"dampings": [[0.0, 0.0]]}, "negativity/dampings"),
])
def test_malformed_negativity_block_is_a_config_error(tmp_path, capsys, block, where):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(_negativity_cfg(**block)))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config invalid at {where}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_runner_time_opalg_config_error_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "preset:zassenhaus-t3", "--set",
                 "opalg.trace_branch_amplitudes=[0,0.05,0.1]", "--out", str(out)]) == 1
    assert "branch amplitude lists must have matching length" in capsys.readouterr().err
    assert not out.exists()


def test_poisson_scenario_writes_grid_files(tmp_path):
    cfg = {
        "scenario": "poisson",
        "seed": 2,
        "grid": {"n": 16, "box": 8.0},
        "poisson": {"profile": {"type": "gaussian", "mass": 1.0,
                                "center": [4.0, 4.0, 4.0], "sigma": 1.2},
                    "stride": 2},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "fields" / "hT.f64").exists()
    header = json.loads((out / "fields" / "hT.f64.json").read_text())
    assert header["N"] == 16
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["backend_deviation_max_rel"] < 0.01
    assert "units" in report["result"]


def _csv_bodies(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted((outdir / "tables").glob("*.csv"))}


def test_rerun_is_byte_identical(tmp_path):
    cfg = get_preset("zassenhaus-t3")
    cfg["opalg"]["t_points"] = 5
    path = tmp_path / "z.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["run", str(path), "--out", str(out)]) == 0
        outs.append(_csv_bodies(out))
    assert outs[0] and outs[0] == outs[1]


def test_si_units_scenario_matches_natural_computation(tmp_path):
    # GIE-scale numbers in SI; the report's phases must equal a direct
    # computation in rescaled internal units (phases are dimensionless)
    cfg = {
        "scenario": "phase-compare",
        "seed": 4,
        "constants": {"system": "si", "length_scale": 1e-4, "mass_scale": 1e-14},
        "time": 2.5,
        "backend": "auto",
        "sources": {
            "a": {"type": "gaussian", "mass": 1e-14,
                  "center": [0.0, 0.0, 0.0], "sigma": 1e-4},
            "b": {"type": "gaussian", "mass": 1e-14,
                  "center": [4.5e-4, 0.0, 0.0], "sigma": 1e-4},
        },
    }
    path = tmp_path / "si.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    body = (out / "tables" / "models.csv").read_text().splitlines()
    header = body[0].split(",")
    general = next(r.split(",") for r in body[1:] if r.startswith("general"))
    phase = float(general[header.index("phase_rad")])

    from gravphase.phases import theta_AB
    from gravphase.sources import PhysicalConstants, gaussian_density
    si = PhysicalConstants.si()
    expected, _ = theta_AB(gaussian_density(1e-14, (0, 0, 0), 1e-4),
                           gaussian_density(1e-14, (4.5e-4, 0, 0), 1e-4),
                           2.5, si)
    assert abs(phase - expected) < 1e-12 * abs(expected)
    report = json.loads((out / "report.json").read_text())
    assert "internal units" in report["result"]["units"]["lengths_masses_times"]


def _phase_compare(backend):
    def make():
        gaussian = {"type": "gaussian", "mass": 1.0, "sigma": 0.5}
        return {"scenario": "phase-compare", "seed": 3, "time": 0.2, "backend": backend,
                "mc_samples": 2000, "grid": {"n": 16, "box": 6.0},
                "sources": {"a": {**gaussian, "center": [2.5, 3.0, 3.0]},
                            "b": {**gaussian, "center": [3.5, 3.0, 3.0]}}}
    return make


def _small_poisson():
    return {"scenario": "poisson", "seed": 2, "grid": {"n": 16, "box": 8.0},
            "poisson": {"profile": {"type": "gaussian", "mass": 1.0,
                                    "center": [4.0, 4.0, 4.0], "sigma": 1.2},
                        "stride": 2}}


def _small_overlap_sweep():
    cfg = get_preset("semiclassical-overlap")
    cfg["overlap"].update(grid_sizes=[8], w_halvings=1, epsilon_scales=[0.0, 1.0],
                          state_pairs=2)
    return cfg


def _small_negativity():
    return {"scenario": "negativity", "seed": 1, "negativity": {
        "amplitudes_a": [1.0, [0.0, 1.0]], "amplitudes_b": [1.0, 1.0],
        "phases": [[3.0, 0.0], [0.0, 0.0]]}}


@pytest.mark.parametrize("make_cfg", [
    _phase_compare("analytic"), _phase_compare("grid"), _phase_compare("mc"),
    _small_poisson, _small_overlap_sweep, lambda: get_preset("zassenhaus-t3"),
    _small_negativity,
], ids=["phase-compare-analytic", "phase-compare-grid", "phase-compare-mc", "poisson",
        "overlap-sweep", "opalg-verify", "negativity"])
def test_scenarios_run_without_scipy(tmp_path, make_cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_cfg()))
    probe = ("import sys; from gravphase.cli import main; "
             f"code = main(['run', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]); "
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
