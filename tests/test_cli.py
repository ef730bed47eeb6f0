import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gravphase.cli import main
from gravphase.config import (
    BYTES_LIMIT,
    CONFIG_SCHEMA,
    ConfigError,
    apply_overrides,
    cost,
    get_preset,
    preset_names,
    validate_config,
    with_defaults,
)
from gravphase.gridio import load_scalar_grid, save_scalar_grid
from gravphase.sources import PhysicalConstants


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


def _dimensions(schema, path=()):
    """(path, dimension) of every number the schema gives a unit; '*' stands
    for the items of an array."""
    if "dimension" in schema:
        yield "/".join(path), schema["dimension"]
    for key, sub in schema.get("properties", {}).items():
        yield from _dimensions(sub, path + (key,))
    if "items" in schema:
        yield from _dimensions(schema["items"], path + ("*",))


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema == CONFIG_SCHEMA
    # the unit annotations are keywords JSON Schema ignores: still a valid schema
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert schema["properties"]["time"]["default"] == 1.0
    assert schema["properties"]["overlap"]["properties"]["mass"]["default"] == 1.0


def test_the_schema_names_the_unit_of_every_scaled_key():
    # the keys the README lists as read in config units, and no others:
    # overlap/w_start and the opalg block stay in internal units
    source = {"mass": "mass", "center/*": "length", "sigma": "length",
              "branches/*/center/*": "length", "branches/*/width": "length"}
    expected = {"grid/box": "length", "time": "time", "sigma_ladder/*": "length",
                "width_variation/*": "length", "overlap/position/*": "length",
                "overlap/epsilon/*": "length", "overlap/box": "length",
                "overlap/mass": "mass", "overlap/sigma_reg": "length",
                "overlap/matter_width": "length"}
    for where in ("sources/a", "sources/b", "poisson/profile"):
        expected.update((f"{where}/{key}", dim) for key, dim in source.items())
    assert dict(_dimensions(CONFIG_SCHEMA)) == expected


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


def test_unreadable_config_file_exit_codes(tmp_path, capsys):
    (tmp_path / "dir.json").mkdir()
    assert main(["run", str(tmp_path / "dir.json")]) == 3
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    assert main(["run", str(binary)]) == 1
    assert "binary.json: 'utf-8' codec can't decode" in capsys.readouterr().err


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


def _phase_compare_grid_file(tmp_path):
    cfg = _phase_compare("grid")()
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("config, override, where", [
    (_phase_compare_grid_file, "grid.n=16.0", "grid/n"),
    ("preset:gie-2x2", "mc_samples=1000.0", "mc_samples"),
    ("preset:semiclassical-overlap", "seed=7.0", "seed"),
    ("preset:zassenhaus-t3", "opalg.dim=40.0", "opalg/dim"),
])
def test_integral_floats_are_not_integers(tmp_path, capsys, config, override, where):
    config = config if isinstance(config, str) else config(tmp_path)
    out = tmp_path / "o"
    assert main(["run", config, "--set", override, "--out", str(out)]) == 1
    assert f"config invalid at {where}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, dropped", [
    ("localized", "mass"), ("localized", "branches"),
    ("gaussian", "mass"), ("gaussian", "center"), ("gaussian", "sigma"),
    ("point", "mass"), ("point", "center"),
    ("grid-file", "path"),
])
def test_source_type_keys_are_required_at_load(kind, dropped):
    full = {"type": kind, "mass": 1.0, "center": [4.0, 4.0, 4.0], "sigma": 1.2,
            "path": "rho.f64", "branches": get_preset("gie-2x2")["sources"]["a"]["branches"]}
    cfg = _small_poisson()
    cfg["poisson"]["profile"] = {k: v for k, v in full.items() if k != dropped}
    with pytest.raises(ConfigError, match=f"config invalid at poisson/profile: "
                                          f"a '{kind}' source needs '{dropped}'"):
        validate_config(cfg)


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.pop("grid"), "scenario 'poisson' needs a 'grid' block"),
    (lambda c: c.update(constants={"system": "si", "length_scale": 1.0}),
     "si constants need length_scale and mass_scale"),
    (lambda c: c["poisson"].update(profile={"type": "grid-file", "path": "no/such.f64"}),
     "referenced grid file not found: no/such.f64"),
    (lambda c: c.update(scenario="phase-compare", sources={
        "a": {"type": "point", "mass": 1.0, "center": [0.0, 0.0, 0.0]},
        "b": {"type": "gaussian", "mass": 1.0, "center": [1.0, 0.0, 0.0], "sigma": 0.2}}),
     "phase-compare sources must be localized or gaussian"),
    # a poisson run solves for one density: a second branch would be ignored
    (lambda c: c["poisson"].update(profile={
        "type": "localized", "mass": 1.0, "branches": get_preset("gie-2x2")["sources"]["a"][
            "branches"]}),
     "config invalid at poisson/profile/branches: a poisson profile is one density, "
     "got 2 branches"),
    # found before the two solves, not by laplacian_residual after them
    *((lambda c, n=n: c["grid"].update(n=n),
       "config invalid at grid/n: the Laplacian residual reads the cells more than a margin "
       f"of 3 from each face, so N must exceed 6, got {n}") for n in (2, 4)),
    # a key its source type does not read is refused, not silently ignored
    (lambda c: c.update(scenario="phase-compare", sources={
        "a": {"type": "gaussian", "mass": 1.0, "center": [3.0, 4.0, 4.0], "sigma": 0.2,
              "branches": get_preset("gie-2x2")["sources"]["a"]["branches"]},
        "b": {"type": "gaussian", "mass": 1.0, "center": [5.0, 4.0, 4.0], "sigma": 0.2}}),
     "config invalid at sources/a: a 'gaussian' source does not read 'branches'"),
    (lambda c: c["poisson"].update(profile={
        "type": "point", "mass": 1.0, "center": [4.0, 4.0, 4.0], "sigma": 0.5,
        "branches": get_preset("gie-2x2")["sources"]["a"]["branches"]}),
     "config invalid at poisson/profile: a 'point' source does not read 'branches'"),
    (lambda c: c["poisson"]["profile"].update(path="rho.f64"),
     "config invalid at poisson/profile: a 'gaussian' source does not read 'path'"),
    (lambda c: c["poisson"].update(profile={
        "type": "localized", "mass": 1.0, "center": [4.0, 4.0, 4.0], "sigma": 0.5,
        "branches": get_preset("gie-2x2")["sources"]["a"]["branches"][:1]}),
     "config invalid at poisson/profile: a 'localized' source does not read 'center', 'sigma'"),
])
def test_cross_field_checks_run_at_load(edit, message):
    cfg = _small_poisson()
    edit(cfg)
    with pytest.raises(ConfigError, match=message):
        validate_config(cfg)


@pytest.mark.parametrize("config, override, where", [
    ("preset:semiclassical-overlap", "overlap.sigma_reg=0", "overlap/sigma_reg"),
    ("preset:semiclassical-overlap", "overlap.sigma_reg=-0.2", "overlap/sigma_reg"),
    ("preset:semiclassical-overlap", "overlap.mass=-1", "overlap/mass"),
    ("preset:zassenhaus-t3", "opalg.t_start=0", "opalg/t_start"),
    ("preset:zassenhaus-t3", "opalg.weight=-1", "opalg/weight"),
    ("preset:gie-2x2", "time=-0.2", "time"),
    ("preset:gie-2x2", "sigma_ladder=[0.1,0]", "sigma_ladder/1"),
    ("preset:zassenhaus-t3", "opalg.tt_branch_amplitudes=[0.04]",
     "opalg/tt_branch_amplitudes"),
])
def test_out_of_range_numbers_are_config_errors(tmp_path, capsys, config, override, where):
    out = tmp_path / "o"
    assert main(["run", config, "--set", override, "--out", str(out)]) == 1
    assert f"config invalid at {where}: " in capsys.readouterr().err
    assert not out.exists()


def _small_poisson_file(tmp_path):
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps(_small_poisson()))
    return str(path)


@pytest.mark.parametrize("config, override, where", [
    (_phase_compare_grid_file, "grid.n=12", "grid/n"),
    (_small_poisson_file, "grid.n=24", "grid/n"),
    ("preset:semiclassical-overlap", "overlap.grid_sizes=[12]", "overlap/grid_sizes/0"),
    ("preset:semiclassical-overlap", "overlap.grid_sizes=[8,1]", "overlap/grid_sizes/1"),
])
def test_grid_sizes_must_be_powers_of_two_at_load(tmp_path, capsys, config, override, where):
    config = config if isinstance(config, str) else config(tmp_path)
    out = tmp_path / "o"
    assert main(["run", config, "--set", override, "--out", str(out)]) == 1
    assert (f"config invalid at {where}: grid size must be a power of two"
            in capsys.readouterr().err)
    assert not out.exists()


def test_poisson_stride_that_does_not_divide_n_is_refused_at_load(tmp_path, capsys):
    # found before the N^3 spectral solve runs, not by the direct solver after it
    out = tmp_path / "o"
    assert main(["run", _small_poisson_file(tmp_path), "--set", "poisson.stride=3",
                 "--out", str(out)]) == 1
    assert ("config invalid at poisson/stride: stride must divide grid/n = 16, got 3"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("overrides, where", [
    (["overlap.position=[0.1,4,4]", "overlap.epsilon=[-0.5,0,0]"],
     "overlap/epsilon: position + 0.5 * epsilon = [-0.15, 4.0, 4.0] leaves the box"),
    (["overlap.position=[7.9,4,4]"],
     "overlap/epsilon: position + 0.5 * epsilon = [8.15, 4.0, 4.0] leaves the box"),
    (["overlap.position=[4,-1,4]"], "overlap/position: [4, -1, 4] lies outside the box"),
])
def test_overlap_displacement_leaving_the_box_is_refused_at_load(tmp_path, capsys,
                                                                 overrides, where):
    out = tmp_path / "o"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", "preset:semiclassical-overlap", *sets, "--out", str(out)]) == 1
    assert f"config invalid at {where} [0, 8.0]" in capsys.readouterr().err
    assert not out.exists()


def test_si_overlap_sweep_defaults_to_the_box_centre(tmp_path):
    # half the box in config units, scaled like every other length (it was
    # scaled twice, which put it outside the box for any length scale below 1)
    cfg = {"scenario": "overlap-sweep", "seed": 1,
           "constants": {"system": "si", "length_scale": 1e-3, "mass_scale": 1e-14},
           "overlap": {"epsilon": [5e-4, 0.0, 0.0], "w_start": 1.0, "w_halvings": 1,
                       "grid_sizes": [8], "box": 8e-3, "mass": 1e-14}}
    path = tmp_path / "si.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert len((out / "tables" / "overlap_sweep.csv").read_text().splitlines()) == 3


def test_si_overlap_mass_defaults_to_one_kilogram(tmp_path):
    bodies = []
    for tag, mass in (("default", None), ("explicit", 1.0)):
        cfg = {"scenario": "overlap-sweep", "seed": 1,
               "constants": {"system": "si", "length_scale": 1e-3, "mass_scale": 1e-14},
               "overlap": {"epsilon": [5e-4, 0.0, 0.0], "w_start": 1.0, "w_halvings": 1,
                           "grid_sizes": [8], "box": 8e-3}}
        if mass is not None:
            cfg["overlap"]["mass"] = mass
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / tag)]) == 0
        bodies.append(_csv_bodies(tmp_path / tag))
    assert bodies[0] and bodies[0] == bodies[1]


def test_si_opalg_verify_is_refused_at_load(tmp_path, capsys):
    # no opalg entry has a unit: under SI constants its kvec, weight and
    # times would be read in internal units, so the run is refused
    cfg = get_preset("zassenhaus-t3")
    cfg["constants"] = {"system": "si", "length_scale": 1e-3, "mass_scale": 1e-14}
    path = tmp_path / "si.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert ("config invalid at constants/system: no opalg entry has a unit"
            in capsys.readouterr().err)
    assert not out.exists()


def test_underflowing_wavevector_is_a_numerical_guard(tmp_path, capsys):
    # |k| = 1e-300 passes the nonzero check, but omega = c|k| underflows in h_op
    assert main(["run", "preset:zassenhaus-t3", "--set", "opalg.kvec=[0,0,1e-300]",
                 "--out", str(tmp_path / "o")]) == 2
    assert "numerical guard:" in capsys.readouterr().err


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


def _poisson_at(n, tmp_path):
    cfg = get_preset("gie-2x2")
    cfg["scenario"] = "poisson"
    cfg["grid"] = {"n": n, "box": 8.0}
    cfg["poisson"] = {"profile": {"type": "gaussian", "mass": 1.0,
                                  "center": [4.0, 4.0, 4.0], "sigma": 1.2}, "save_fields": False}
    path = tmp_path / f"poisson-{n}.json"
    path.write_text(json.dumps(cfg))
    return path


def _unnormalisable_negativity(tmp_path):
    # exp(800) overflows: a guard only the run can find
    cfg = _small_negativity()
    cfg["negativity"]["dampings"] = [[800.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(cfg))
    return path


def test_numerical_guard_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", str(_unnormalisable_negativity(tmp_path)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("numerical guard: state is not normalisable "
                                       "(coefficients all zero or not finite)\n")
    assert not out.exists()


def _over_limit(where, nbytes):
    return (f"config error: config invalid at {where}: the run would hold {nbytes} bytes here "
            f"at its peak, above the limit of {BYTES_LIMIT}\n")


def test_an_n64_poisson_run_exits_0_and_the_oracle_matches_the_spectral_field(tmp_path):
    out = tmp_path / "o"
    assert main(["run", str(_poisson_at(64, tmp_path)), "--out", str(out)]) == 0
    result = json.loads((out / "report.json").read_text())["result"]
    assert result["grid"]["n"] == 64 and result["field_files"] == []
    assert result["backend_deviation_max_rel"] <= 1e-13


def test_an_n128_poisson_run_is_refused_at_load(tmp_path, capsys):
    # the spectral solve alone would hold 32 (2N)^2 (N+1) = 270.5 MB
    path, out = _poisson_at(128, tmp_path), tmp_path / "o"
    nbytes = cost(with_defaults(json.loads(path.read_text())))["grid/n"]
    assert nbytes > 32 * 256**2 * 129 > BYTES_LIMIT
    tracemalloc.start()
    try:
        code = main(["run", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == _over_limit("grid/n", nbytes)
    assert peak < 8 * 2**20


def test_the_grid_backend_without_a_grid_is_refused_at_load(tmp_path, capsys):
    cfg = _phase_compare("grid")()
    del cfg["grid"]
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: config invalid at backend: the grid backend needs a 'grid' block\n")
    assert not out.exists()


def _oversized_overlap_sweep():
    cfg = _small_overlap_sweep()
    cfg["overlap"]["grid_sizes"] = [8, 1024]
    return cfg


@pytest.mark.parametrize("make_cfg, where, table", [
    (lambda: {**_phase_compare("grid")(), "grid": {"n": 1024, "box": 6.0}}, "grid/n",
     8 * 1025**3),
    (_oversized_overlap_sweep, "overlap/grid_sizes/1", 16 * 513**2 * 517),
], ids=["phase-compare-grid", "overlap-sweep"])
def test_an_oversized_lattice_is_refused_at_load(tmp_path, capsys, make_cfg, where, table):
    # the (N+1)^3 octant of the pair sums (8.02 GiB) or the two (N/2+1)^3
    # octants of the overlap mode sums (2.03 GiB) at N = 1024 is refused
    # before any table is built
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(make_cfg()))
    tracemalloc.start()
    try:
        code = main(["run", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == _over_limit(where, table)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_the_lattice_bound_admits_every_shipped_grid(n):
    # the presets' 8/16/32 and the benchmark's 64 are admitted; the bound
    # falls between 64 and 128 for a poisson run and for the state-pair
    # check's n^3 tables, between 128 and 256 for the pair-sum octant, and
    # between 256 and 512 for the overlap mode sums' (n/2+1)^3 octants; an
    # analytic phase-compare, which builds none, takes any grid
    sweep, states = _small_overlap_sweep(), _small_overlap_sweep()
    sweep["overlap"].update(grid_sizes=[n], state_pairs=0)
    states["overlap"].update(grid_sizes=[n])
    limits = [("grid/n", {**_phase_compare("grid")(), "grid": {"n": n, "box": 6.0}}, 128),
              ("grid/n", {**_small_poisson(), "grid": {"n": n, "box": 8.0}}, 64),
              ("overlap/grid_sizes/0", sweep, 256), ("overlap/grid_sizes/0", states, 64)]
    for where, cfg, largest in limits:
        if n <= largest:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigError, match=f"at {where}: the run would hold"):
                validate_config(cfg)
    validate_config({**_phase_compare("analytic")(), "grid": {"n": 2 * n, "box": 6.0}})


@pytest.mark.parametrize("sizes, state_pairs, refused", [
    ([256], 0, None),
    ([8, 256], 20, None),
    ([256, 16], 3, None),
    ([256, 8, 512], 0, (2, 16 * 257**2 * 261)),
    ([256], 1, (0, 136 * 256**3)),
])
def test_an_n256_overlap_sweep_runs_and_its_state_pairs_take_the_smallest_grid(
        tmp_path, capsys, sizes, state_pairs, refused):
    # the mode sums run on the folded octant up to N = 256; the state pairs'
    # field states are full n^3 tables, built on the smallest sweep grid only
    cfg = _small_overlap_sweep()
    cfg["overlap"].update(grid_sizes=sizes, state_pairs=state_pairs, w_halvings=0)
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if refused is None:
        assert code == 0 and err == ""
        report = json.loads((out / "report.json").read_text())["result"]
        assert report["state_pairs_checked"] == state_pairs
        rows = (out / "tables" / "overlap_sweep.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[2]) for r in rows] == [n for n in sizes for _ in range(2)]
    else:
        i, table = refused
        assert code == 1 and not out.exists()
        assert err == _over_limit(f"overlap/grid_sizes/{i}", table)


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


def _grid_file_poisson(tmp_path, n=16, box=8.0, payload_values=None, header=None, **cfg):
    path = tmp_path / "rho.f64"
    save_scalar_grid(path, np.ones((n, n, n)), box)
    if payload_values is not None:
        path.write_bytes(np.ones(payload_values).tobytes())
    if header is not None:
        (tmp_path / "rho.f64.json").write_text(header)
    config = {**_small_poisson(), **cfg}
    config["poisson"]["profile"] = {"type": "grid-file", "path": str(path)}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    return str(config_path)


def test_matching_grid_file_source_runs(tmp_path):
    out = tmp_path / "o"
    assert main(["run", _grid_file_poisson(tmp_path), "--out", str(out)]) == 0
    assert (out / "fields" / "hT.f64").exists()


@pytest.mark.parametrize("edit, message", [
    (dict(header="not json"), "unreadable grid header"),
    (dict(header=json.dumps({"L": 8.0})), "unreadable grid header"),
    (dict(n=8), "grid file has N = 8, grid/n is 16"),
    (dict(payload_values=16**3 - 1),
     "grid file payload has 32760 bytes, header N = 16 needs 32768"),
    (dict(box=4.0), "grid file has L = 4.0, grid/box is 8.0"),
    (dict(constants={"system": "si", "length_scale": 2.0, "mass_scale": 1.0}),
     "a grid file records no unit system and cannot be read"),
    (dict(constants={"system": "si", "length_scale": 1.0, "mass_scale": 1.0}),
     "a grid file records no unit system and cannot be read"),
], ids=["header-not-json", "header-without-N", "N", "payload-size", "L", "si", "si-unit-scale"])
def test_grid_file_source_is_checked_against_the_grid_at_load(tmp_path, capsys, edit, message):
    # found from the sidecar header before any compute, not by sample_on_grid
    # after the config has been accepted
    config = _grid_file_poisson(tmp_path, **edit)
    out = tmp_path / "o"
    assert main(["run", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config invalid at poisson/profile: {message}" in err
    assert not out.exists()


def test_missing_grid_file_header_is_a_config_error(tmp_path, capsys):
    config = _grid_file_poisson(tmp_path)
    (tmp_path / "rho.f64.json").unlink()
    out = tmp_path / "o"
    assert main(["run", config, "--out", str(out)]) == 1
    assert "config invalid at poisson/profile: unreadable grid header" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_opalg_sweep_exits_1_without_a_traceback(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "gravphase.cli", "run", "preset:zassenhaus-t3",
         "--set", "opalg.t_points=20000", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 1
    assert "config invalid at opalg: the run would hold" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_importing_the_cli_loads_no_layer():
    # layers are imported by module path where they are used, so the package
    # and the CLI module import no other gravphase module
    probe = ("import sys, gravphase, gravphase.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gravphase'))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['gravphase', 'gravphase.cli']"


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, collecting):
    # main pauses the cyclic collector while it imports the layers; a pause
    # that leaked would switch collection off for every in-process caller
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    commands = [(["run", "preset:gie-2x2", "--out", str(tmp_path / "o")], 0),
                (["run", "preset:gie-2x2", "--set", "nope=1"], 1),
                (["run", str(_unnormalisable_negativity(tmp_path)), "--out", str(tmp_path / "g")],
                 2),
                (["run", "preset:gie-2x2", "--out", str(a_file)], 3),
                (["schema"], 0), (["presets"], 0)]
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in commands:
            assert main(argv) == code, argv
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if was_collecting else gc.disable)()


def test_a_run_freezes_the_import_time_heap(tmp_path):
    # numpy and the layers are imported before main freezes the heap, so
    # neither the run's collections nor the interpreter's shutdown rescan
    # them; a heavy import moved after the freeze leaves its module tracked
    probe = ("import gc, sys; from gravphase.cli import main; "
             f"code = main(['run', 'preset:gie-2x2', '--out', {str(tmp_path / 'o')!r}]); "
             "tracked = {id(o) for o in gc.get_objects()}; "
             "print(code, gc.get_freeze_count(), len(tracked), sorted("
             "name for name, m in list(sys.modules.items()) "
             "if name.split('.')[0] in ('gravphase', 'numpy') and id(vars(m)) in tracked))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    code, frozen, tracked, unfrozen_modules = proc.stdout.splitlines()[-1].split(" ", 3)
    assert code == "0"
    assert int(frozen) > int(tracked)
    assert unfrozen_modules == "[]"


def test_schema_and_presets_do_not_import_the_scenarios():
    # the freeze covers what a command imports, and only `run` needs the
    # layers behind gravphase.scenarios; the config prices an opalg sweep
    # without importing the operator algebra
    probe = ("import sys; from gravphase.cli import main; "
             "codes = [main(['schema']), main(['presets']), main(['presets', '--emit', 'gie-2x2'])]; "
             "print(codes, 'gravphase.scenarios' in sys.modules, 'gravphase.opalg' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False False"


def test_gie_report_carries_the_static_rows(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "preset:gie-2x2", "--out", str(out)]) == 0
    result = json.loads((out / "report.json").read_text())["result"]
    row = result["classical_quantum_row"]
    assert row["prediction"] == "decoherence-dominated, no entanglement"
    assert "subtracted" in result["vacuum_reference"]


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


def test_a_poisson_run_samples_its_source_once(tmp_path, monkeypatch):
    # the spectral solve, the direct oracle and the Laplacian residual all
    # read the runner's one grid density, which sample_on_grid passes through
    from gravphase import poisson, scenarios

    kinds = []
    real = scenarios.sample_on_grid

    def recording(e, grid, consts):
        kinds.append(e.kind)
        return real(e, grid, consts)

    for module in (scenarios, poisson):
        monkeypatch.setattr(module, "sample_on_grid", recording)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_small_poisson()))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert kinds == ["gaussian", "grid", "grid", "grid"]


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
    from gravphase.sources import gaussian_density
    si = PhysicalConstants.si()
    expected, _ = theta_AB(gaussian_density(1e-14, (0, 0, 0), 1e-4),
                           gaussian_density(1e-14, (4.5e-4, 0, 0), 1e-4),
                           2.5, si)
    assert abs(phase - expected) < 1e-12 * abs(expected)
    report = json.loads((out / "report.json").read_text())
    assert "internal units" in report["result"]["units"]["lengths_masses_times"]


def _si_phase_compare(backend, length_scale, mass_scale):
    # table-top numbers: two 2-branch sources of 1e-14 kg a few hundred
    # micrometres apart, t = 2.5 s, so the phases are of order 1 rad
    def branch(x):
        return {"amplitude": 0.7071067811865476, "center": [x, 1e-3, 1e-3], "width": 1e-4}

    return {"scenario": "phase-compare", "seed": 4, "time": 2.5, "backend": backend,
            "mc_samples": 2000, "grid": {"n": 32, "box": 2e-3},
            "constants": {"system": "si", "length_scale": length_scale, "mass_scale": mass_scale},
            "sources": {"a": {"type": "localized", "mass": 1e-14,
                              "branches": [branch(6e-4), branch(8e-4)]},
                        "b": {"type": "localized", "mass": 1e-14,
                              "branches": [branch(1.2e-3), branch(1.4e-3)]}}}


# Roundings by which one phase may differ between two unit choices.  Every
# dimensional entry and constant reaches internal units through a few
# divisions, and a phase is a product of them and a pair integral: 32 in
# all, generously.  The Monte-Carlo estimate adds the pairwise sum over its
# samples (log2 of their count).  The grid's separable lattice sum of two
# Gaussians adds, per integral, the lag sums of the axis correlations (N
# terms) and three contractions with the octant of N + 1 positive terms each.
@pytest.mark.parametrize("backend, roundings", [
    ("analytic", 32), ("mc", 32 + math.log2(2000)), ("grid", 32 + 32 + 3 * (32 + 1))])
def test_si_phases_do_not_depend_on_the_unit_choice(tmp_path, backend, roundings):
    eps, c = np.finfo(float).eps, PhysicalConstants.si().c
    phases, negativities, self_energies = [], [], []
    for length_scale, mass_scale in ((1e-3, 1e-14), (1e-4, 1e-13), (1.0, 1.0)):
        path = tmp_path / f"{length_scale}.json"
        path.write_text(json.dumps(_si_phase_compare(backend, length_scale, mass_scale)))
        out = tmp_path / f"o{length_scale}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        body = (out / "tables" / "models.csv").read_text().splitlines()
        column = body[0].split(",").index("phase_rad")
        phases.append(np.array([float(row.split(",")[column]) for row in body[1:]]))
        result = json.loads((out / "report.json").read_text())["result"]
        negativities.append(result["negativities"])
        # internal energies are in units of M0 c^2, with c = 1 inside
        self_energies.append(np.array(result["self_energies"]["A"] + result["self_energies"]["B"])
                             * (mass_scale * c**2))
    assert np.abs(phases[0]).min() > 0.1  # no phase sits near zero, so relative is apt
    bound = roundings * eps / 2
    for other in phases[1:]:
        assert np.all(np.abs(other - phases[0]) <= bound * np.abs(phases[0]))
    # A negativity is dimensionless.  Shifting the phases of a normalised
    # n x m branch state by at most dt moves its coefficient matrix by at most
    # dt in Frobenius norm, so (Mirsky) the sum of its singular values by at
    # most sqrt(min(n, m)) dt and the negativity by at most min(n, m) dt; each
    # run evaluates it once more (exp, norm, SVD and sums: 32 roundings)
    assert max(negativities[0].values()) > 0.01
    neg_bound = 2 * bound * np.abs(phases[0]).max() + 2 * 32 * eps / 2
    for other in negativities[1:]:
        assert other.keys() == negativities[0].keys()
        assert all(abs(other[k] - v) <= neg_bound for k, v in negativities[0].items())
    # a self-energy is a pair integral times constants, like a phase, and its
    # conversion to joules adds three roundings (c^2, M0 and the product)
    assert np.all(self_energies[0] < 0.0)
    for other in self_energies[1:]:
        assert np.all(np.abs(other - self_energies[0])
                      <= (roundings + 3) * eps / 2 * np.abs(self_energies[0]))


def test_si_time_defaults_to_one_second(tmp_path):
    bodies = []
    for tag, time in (("default", None), ("explicit", 1.0)):
        cfg = _si_phase_compare("analytic", 1e-3, 1e-14)
        cfg.pop("time")
        if time is not None:
            cfg["time"] = time
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / tag)]) == 0
        bodies.append(_csv_bodies(tmp_path / tag))
    assert bodies[0] and bodies[0] == bodies[1]


def _si_poisson(length_scale, mass_scale):
    return {"scenario": "poisson", "seed": 0, "grid": {"n": 16, "box": 2e-3},
            "constants": {"system": "si", "length_scale": length_scale, "mass_scale": mass_scale},
            "poisson": {"profile": {"type": "gaussian", "mass": 1e-14,
                                    "center": [1e-3, 1e-3, 1e-3], "sigma": 2e-4}}}


def test_si_poisson_field_does_not_depend_on_the_unit_choice(tmp_path):
    # h^T scales as kappa m c^2 / L, which is dimensionless, so the field
    # written in internal units needs no conversion, and the box converts
    # back by the length scale.  Its bound is that of the phases plus the
    # forward and the inverse transform on the doubled box, 3 log2(2N)
    # roundings each, relative to the largest value
    fields = []
    for length_scale, mass_scale in ((1e-3, 1e-14), (1e-4, 1e-13), (1.0, 1.0)):
        path = tmp_path / f"{length_scale}.json"
        path.write_text(json.dumps(_si_poisson(length_scale, mass_scale)))
        out = tmp_path / f"o{length_scale}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        values, box, _ = load_scalar_grid(out / "fields" / "hT.f64")
        assert abs(box * length_scale - 2e-3) <= 2 * np.finfo(float).eps * 2e-3
        fields.append(values)
    assert np.abs(fields[0]).min() > 0.0
    bound = (32 + 6 * math.log2(32)) * np.finfo(float).eps / 2
    for other in fields[1:]:
        assert np.abs(other - fields[0]).max() <= bound * np.abs(fields[0]).max()


def test_presets_import_no_thread_pool_and_no_random_generator(tmp_path):
    # only the Monte-Carlo pair integrals draw from numpy.random, and no
    # preset uses them, so it may not load at module level; no module loads
    # concurrent.futures
    probe = ("import sys; from gravphase.cli import main; "
             "from gravphase.config import preset_names; "
             f"codes = [main(['run', 'preset:' + name, '--out', {str(tmp_path)!r} + '/' + name]) "
             "for name in preset_names()]; "
             "print(codes, 'concurrent.futures' in sys.modules, 'numpy.random' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(preset_names())} False False"


def _phase_compare(backend):
    def make():
        gaussian = {"type": "gaussian", "mass": 1.0, "sigma": 0.5}
        return {"scenario": "phase-compare", "seed": 3, "time": 0.2, "backend": backend,
                "mc_samples": 2000, "grid": {"n": 16, "box": 6.0},
                "sources": {"a": {**gaussian, "center": [2.5, 3.0, 3.0]},
                            "b": {**gaussian, "center": [3.5, 3.0, 3.0]}}}
    return make


def test_grid_phase_compare_rerun_is_byte_identical(tmp_path):
    # the separable lattice sums run in a fixed order, so a rerun writes the
    # same models.csv, byte for byte
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_phase_compare("grid")()))
    bodies = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["run", str(path), "--out", str(out)]) == 0
        bodies.append((out / "tables" / "models.csv").read_bytes())
    assert bodies[0] and bodies[0] == bodies[1]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("time, mass", [(0.0, 1.0), (0.3, 0.0)])
def test_a_run_with_zero_phases_reports_zero_deviations(tmp_path, time, mass):
    # at t = 0, or with massless sources, every phase matrix is zero: every
    # model matches it, and the report stays standard JSON
    def branches(x):
        return [{"amplitude": 0.7071067811865476, "center": [x + dx, 3.0, 3.0], "width": 0.3}
                for dx in (0.0, 0.7)]

    cfg = {"scenario": "phase-compare", "seed": 0, "time": time, "backend": "analytic",
           "sources": {"a": {"type": "localized", "mass": mass, "branches": branches(1.65)},
                       "b": {"type": "localized", "mass": mass, "branches": branches(3.65)}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    result = _strict_json((tmp_path / "o" / "report.json").read_text())["result"]
    sections = ("deviations_point_normalized", "deviations_fitted", "pairwise_deviations")
    assert all(result[name] and set(result[name].values()) == {0.0} for name in sections)


def test_equal_opalg_branches_report_null_with_a_reason(tmp_path):
    # equal branches have no phase or damping difference: a slope of it, and
    # a deviation relative to it, are undefined, not NaN in the report
    out = tmp_path / "o"
    assert main(["run", "preset:zassenhaus-t3", "--set", "opalg.tt_branch_amplitudes=[0.04,0.04]",
                 "--set", "opalg.trace_branch_amplitudes=[0.05,0.05]", "--out", str(out)]) == 0
    result = _strict_json((out / "report.json").read_text())["result"]
    undefined = {"slopes.phase_residual", "slopes.damping", "t3_coefficient_rel_err",
                 "closed_form_max_rel_dev.dphase", "closed_form_max_rel_dev.ddamping"}
    assert set(result["undefined"]) == undefined and all(result["undefined"].values())
    for key in undefined:
        section, _, name = key.rpartition(".")
        assert (result[section] if section else result)[name] is None, key
    assert result["slopes"]["defect_order3"] > 0.0 and result["slopes"]["defect_order2"] > 0.0
    assert result["pass_flags"] == {
        "defect_slope_order3_in_[3.9,4.3]": True, "defect_slope_order2_in_[2.9,3.3]": True,
        "phase_residual_slope_near_3": False, "t3_coefficient_within_5pct": False,
        "damping_slope_in_[1.9,2.1]": False}


def test_equal_opalg_branches_write_an_empty_slope_cell(tmp_path):
    # the slopes the report gives as null are empty cells in slopes.csv,
    # not a nan token
    out = tmp_path / "o"
    assert main(["run", "preset:zassenhaus-t3", "--set", "opalg.tt_branch_amplitudes=[0.04,0.04]",
                 "--set", "opalg.trace_branch_amplitudes=[0.05,0.05]", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "tables" / "slopes.csv").read_text().splitlines()]
    slopes = {row[0]: row[1] for row in rows[1:]}
    assert slopes["phase_residual"] == slopes["damping"] == ""
    assert float(slopes["defect_order3"]) > 0.0 and float(slopes["defect_order2"]) > 0.0
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row[1:] if cell)


def test_a_grid_ladder_reports_its_narrowest_width_in_cells(tmp_path):
    # the gie-2x2-grid reference regularises its point pair at 0.025 / 4,
    # far below its cell of 3.0 / 32, so its ladder converges to a lattice
    # value; the report says so, the other backends have no cell
    import reference_outputs as ref

    cases = ref.cases()
    for name in ("gie-2x2-grid", "gie-2x2-mc"):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(cases[name]))
        assert main(["run", str(path), "--out", str(out)]) == 0
        result = _strict_json((out / "report.json").read_text())["result"]
        if name == "gie-2x2-grid":
            assert result["ladder_min_width_over_h"] == 0.025 / 4 / (3.0 / 32) < 1.0
        else:
            assert "ladder_min_width_over_h" not in result


def test_a_non_finite_result_is_a_numerical_guard_not_a_report(tmp_path, monkeypatch, capsys):
    from gravphase import scenarios

    monkeypatch.setitem(scenarios._RUNNERS, "negativity", lambda cfg, outdir: {"x": float("nan")})
    out = tmp_path / "o"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_negativity()))
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8.00 GiB")])
def test_running_out_of_memory_is_a_numerical_guard(tmp_path, monkeypatch, capsys, error):
    # a schema-valid config can ask for more memory than the host has; the
    # run exits 2 on one line
    from gravphase import scenarios

    def runner(cfg, outdir):
        raise error

    monkeypatch.setitem(scenarios._RUNNERS, "negativity", runner)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_negativity()))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"numerical guard: {error if str(error) else 'MemoryError'}\n"
    assert not (tmp_path / "o").exists()


def test_one_sample_mc_run_is_a_config_error(tmp_path, capsys):
    # a single draw has a sample variance of 0: the run would report an
    # exact value with stderr_rad 0 on every row
    cfg = _phase_compare("mc")()
    cfg["mc_samples"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "config invalid at mc_samples: " in capsys.readouterr().err
    assert not out.exists()


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
    cfg = make_cfg()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    probe = ("import sys; from gravphase.cli import main; "
             f"code = main(['run', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]); "
             "print(code, sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'jsonschema')), 'concurrent' in sys.modules, "
             "'numpy.random' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    # the worker threads come from threading, which numpy imports anyway, so
    # no scenario pays for concurrent.futures; only the Monte-Carlo pair
    # integrals draw from numpy.random
    mc = cfg.get("backend") == "mc"
    assert proc.stdout.splitlines()[-1] == f"0 [] False {mc}"


@pytest.mark.parametrize("make_cfg", [
    _small_poisson, lambda: {**_phase_compare("mc")(), "mc_samples": 40_000},  # three chunks
], ids=["poisson", "phase-compare-mc"])
def test_a_worker_thread_error_is_a_numerical_guard(tmp_path, make_cfg, monkeypatch, capsys):
    # the direct oracle and the Monte-Carlo integrals run on worker threads;
    # an error on one that is not the calling thread exits 2 like any other,
    # with every thread joined and nothing printed by threading.excepthook
    import threading

    from gravphase import poisson

    run_workers = poisson._run_workers

    def failing(work, tasks):
        def one(w, n_w):
            if w == 1:
                raise ValueError("worker 1 failed")
            work(w, n_w)
        run_workers(one, tasks)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(poisson, "_run_workers", failing)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    before = threading.active_count()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_cfg()))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "numerical guard: worker 1 failed" in err and "Traceback" not in err
    assert threading.active_count() == before and hooked == []


def _edited(make_cfg, edit):
    def make():
        cfg = make_cfg()
        edit(cfg)
        return cfg
    return make


@pytest.mark.parametrize("make_cfg, code", [
    # a slope fit over one time is undefined: nan, not a RankWarning
    (_edited(lambda: get_preset("zassenhaus-t3"),
             lambda c: c["opalg"].update(t_start=0.1, t_stop=0.1, t_points=4)), 0),
    # no interior cells for the Laplacian residual: refused at load; N = 8
    # is the smallest grid that has them
    (_edited(_small_poisson, lambda c: c["grid"].update(n=4, box=8.0)), 1),
    (_edited(_small_poisson, lambda c: c.update(grid={"n": 8, "box": 8.0}, poisson={
        **c["poisson"], "stride": 1})), 0),
    # a massless profile has a zero field on both backends
    (_edited(_small_poisson, lambda c: c["poisson"]["profile"].update(mass=0.0)), 0),
    # exp(710) overflows before the normalisation guard
    (_edited(_small_negativity, lambda c: c["negativity"].update(
        dampings=[[0.0, 0.0], [0.0, 710.0]])), 2),
    # the squared norm underflows to zero
    (_edited(_small_negativity, lambda c: c["negativity"].update(
        amplitudes_b=[0.0, 1e-200])), 1),
], ids=["opalg-one-time", "poisson-n4", "poisson-n8", "poisson-massless", "negativity-overflow",
        "amplitude-underflow"])
def test_degenerate_configs_end_in_an_exit_code(tmp_path, make_cfg, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_cfg()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == code
