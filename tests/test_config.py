"""The in-tree config validator, fuzzed.

`schema_error` is checked against jsonschema, the reference validator, on
configs generated around CONFIG_SCHEMA; schema-valid configs on small grids
are run through the CLI, where every one must end in a documented exit code.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gravphase.cli import main
from gravphase.config import (
    _BUFFER_BYTES,
    CONFIG_SCHEMA,
    ConfigError,
    cost,
    get_preset,
    schema_error,
    to_internal_units,
    validate_config,
    with_defaults,
)
from gravphase.grids import GridSpec
from gravphase.overlaps import build_field_state, semiclassical_overlap
from gravphase.scenarios import run_scenario
from gravphase.sources import PhysicalConstants, gaussian_density

# JSON has no integral floats: an integer is an int, as in the walker
_Draft = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_ORACLE = jsonschema.validators.extend(_Draft, type_checker=_Draft.TYPE_CHECKER.redefine(
    "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))(CONFIG_SCHEMA)


def _valid(schema: dict) -> st.SearchStrategy:
    """Instances of `schema`, small and close to its bounds."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "oneOf" in schema:
        return st.one_of(*map(_valid, schema["oneOf"]))
    kind = schema["type"]
    if kind in ("number", "integer"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -3))
        if kind == "integer":
            return st.integers(lo + ("exclusiveMinimum" in schema), lo + 20)
        return st.floats(lo, lo + 10.0, exclude_min="exclusiveMinimum" in schema)
    if kind == "string":
        return st.text(max_size=3)
    if kind == "boolean":
        return st.booleans()
    if kind == "array":
        lo = schema.get("minItems", 0)
        return st.lists(_valid(schema["items"]), min_size=lo,
                        max_size=schema.get("maxItems", lo + 2))
    props = {k: _valid(s) for k, s in schema["properties"].items()}
    required = schema.get("required", ())
    return st.fixed_dictionaries({k: v for k, v in props.items() if k in required},
                                 optional={k: v for k, v in props.items() if k not in required})


def _nodes(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


_JUNK = [None, True, 0, -1, -1e-9, 0.5, 16.0, "", "x", [], [1.0, 2.0, 3.0, 4.0], {}]


@st.composite
def _around(draw, schema: dict):
    """A config valid under `schema`, then hit by up to two mutations: a
    node replaced by junk or by its integral float, a key or list item
    dropped, an unknown key or a repeated list item added."""
    cfg = draw(_valid(schema))
    for _ in range(draw(st.integers(0, 2))):
        *parent_path, key = draw(st.sampled_from(list(_nodes(cfg))[1:]))
        parent = cfg
        for k in parent_path:
            parent = parent[k]
        value = parent[key]
        # fresh junk per draw: a later mutation may edit a junk list or dict
        # in place, which must not change what the next example draws
        options = ([float(value)] if type(value) is int else []) + copy.deepcopy(_JUNK)
        mutation = draw(st.integers(0, len(options) + 1))
        if mutation < len(options):
            parent[key] = options[mutation]
        elif mutation == len(options):
            del parent[key]
        elif isinstance(parent, dict):
            parent["zz_extra"] = 1
        else:
            parent.append(value)
    return cfg


@settings(max_examples=250, deadline=None)
@given(cfg=_around(CONFIG_SCHEMA))
def test_walker_agrees_with_jsonschema(cfg):
    error = schema_error(cfg, CONFIG_SCHEMA)
    expected = {(tuple(e.absolute_path), e.message) for e in _ORACLE.iter_errors(cfg)}
    assert (error is None) == (not expected)
    if error is not None:
        assert error in expected  # same path, same wording


# --------------------------------------------------------- schema-valid runs

_REAL = st.floats(-1e3, 1e3)
_POSITIVE = st.floats(1e-3, 1e3)
_NON_NEGATIVE = st.one_of(st.just(0.0), _POSITIVE)
_VEC3 = st.lists(st.floats(-2.0, 10.0), min_size=3, max_size=3)
_AMPLITUDE = st.one_of(_REAL, st.lists(_REAL, min_size=2, max_size=2))
_SIZE = st.sampled_from([2, 4, 8, 16])


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_SOURCE = st.one_of(
    st.fixed_dictionaries({"type": st.just("localized"), "mass": _NON_NEGATIVE,
                           "branches": st.lists(st.fixed_dictionaries(
                               {"amplitude": _AMPLITUDE, "center": _VEC3,
                                "width": _POSITIVE}), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"type": st.just("gaussian"), "mass": _NON_NEGATIVE,
                           "center": _VEC3, "sigma": _POSITIVE}),
    st.fixed_dictionaries({"type": st.just("point"), "mass": _NON_NEGATIVE, "center": _VEC3},
                          optional={"sigma": _POSITIVE}),
)

_CONSTANTS = st.one_of(
    _optional(system=st.just("natural"), G=_POSITIVE, c=_POSITIVE, hbar=_POSITIVE),
    st.fixed_dictionaries({"system": st.just("si"), "length_scale": _POSITIVE,
                           "mass_scale": _POSITIVE}),
)

_GRID = st.fixed_dictionaries({"n": _SIZE, "box": _POSITIVE})

_BLOCKS = {
    "phase-compare": st.fixed_dictionaries(
        {"sources": st.fixed_dictionaries({"a": _SOURCE, "b": _SOURCE}),
         "mc_samples": st.integers(2, 10**4)},  # the default of 10^6 is too slow here
        optional={"grid": _GRID, "time": _NON_NEGATIVE,
                  "backend": st.sampled_from(["auto", "analytic", "grid", "mc"]),
                  "sigma_ladder": st.lists(_POSITIVE, min_size=1, max_size=3),
                  "width_variation": st.lists(_POSITIVE, min_size=1, max_size=2)}),
    "poisson": st.fixed_dictionaries(
        {"grid": _GRID,
         "poisson": st.fixed_dictionaries({"profile": _SOURCE}, optional={
             "stride": st.integers(1, 16), "save_fields": st.booleans()})}),
    "overlap-sweep": st.fixed_dictionaries({"overlap": st.fixed_dictionaries(
        {"epsilon": _VEC3, "w_start": _POSITIVE, "w_halvings": st.integers(0, 3),
         "grid_sizes": st.lists(_SIZE, min_size=1, max_size=2), "box": _POSITIVE},
        optional={"position": _VEC3, "epsilon_scales": st.lists(_REAL, min_size=1, max_size=3),
                  "mass": _NON_NEGATIVE, "sigma_reg": _POSITIVE, "matter_width": _POSITIVE,
                  "state_pairs": st.integers(0, 2)})}),
    "opalg-verify": st.fixed_dictionaries({"opalg": st.integers(2, 3).flatmap(
        lambda n_branches: st.fixed_dictionaries(
            {"kvec": _VEC3, "dim": st.integers(4, 12),
             "tt_branch_amplitudes": st.lists(_REAL, min_size=n_branches, max_size=n_branches),
             "t_start": _POSITIVE, "t_stop": _POSITIVE},
            optional={"weight": _POSITIVE, "hT_shift": _REAL, "t_points": st.integers(4, 8),
                      "n_low": st.integers(2, 14),
                      "trace_branch_amplitudes": st.lists(
                          _REAL, min_size=n_branches, max_size=n_branches)}))}),
    "negativity": st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: st.fixed_dictionaries({"negativity": st.fixed_dictionaries(
            {"amplitudes_a": st.lists(_AMPLITUDE, min_size=shape[0], max_size=shape[0]),
             "amplitudes_b": st.lists(_AMPLITUDE, min_size=shape[1], max_size=shape[1]),
             "phases": st.lists(st.lists(_REAL, min_size=shape[1], max_size=shape[1]),
                                min_size=shape[0], max_size=shape[0])},
            optional={"dampings": st.lists(st.lists(_REAL, min_size=shape[1],
                                                    max_size=shape[1]),
                                           min_size=shape[0], max_size=shape[0])})})),
}

_VALID_CONFIGS = st.sampled_from(sorted(_BLOCKS)).flatmap(lambda scenario: st.tuples(
    st.just(scenario), st.integers(0, 2**32), _CONSTANTS, _BLOCKS[scenario],
)).map(lambda t: {"scenario": t[0], "seed": t[1], "constants": t[2], **t[3]})


def _tables(out: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path(out, "tables").glob("*.csv")}


def _refuse_constant(token):
    raise AssertionError(f"report.json holds the non-standard JSON token {token}")


def _ladder_at_time_zero(backend: str) -> dict:
    """A phase-compare run whose ladder has a zero point phase, so every
    `deviation` of convergence.csv is undefined: a corner the random draws
    do not reliably reach."""
    def source(x):
        return {"type": "localized", "mass": 1.0,
                "branches": [{"amplitude": 1.0, "center": [x, 2.0, 2.0], "width": 0.3}]}

    return {"scenario": "phase-compare", "seed": 0, "constants": {}, "mc_samples": 2,
            "sources": {"a": source(1.5), "b": source(2.5)}, "grid": {"n": 16, "box": 4.0},
            "time": 0.0, "backend": backend, "sigma_ladder": [0.4, 0.3]}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_VALID_CONFIGS)
@example(cfg=_ladder_at_time_zero("analytic"))
@example(cfg=_ladder_at_time_zero("grid"))
def test_schema_valid_configs_end_in_an_exit_code(cfg):
    assert schema_error(cfg, CONFIG_SCHEMA) is None
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):  # threading.excepthook prints here too
            code = main(["run", path, "--out", f"{tmp}/o"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:  # a report is standard JSON: no NaN or Infinity token
            with open(f"{tmp}/o/report.json") as fh:
                json.load(fh, parse_constant=_refuse_constant)
            # and a table writes an undefined value as an empty cell
            for name, body in _tables(f"{tmp}/o").items():
                cells = {c for line in body.decode().splitlines() for c in line.split(",")}
                assert not cells & {"nan", "inf", "-inf"}, f"{name} holds a non-finite cell"
            # criterion 8 on a half of them, chosen by the config's bytes: a
            # rerun writes every table again byte for byte
            if zlib.crc32(json.dumps(cfg, sort_keys=True).encode()) % 2 == 0:
                assert main(["run", path, "--out", f"{tmp}/again"]) == 0
                assert _tables(f"{tmp}/again") == _tables(f"{tmp}/o")
        if code == 1:  # a config error is found before anything is written
            assert not os.path.exists(f"{tmp}/o")


@pytest.mark.parametrize("edit", [{"t_points": 10**6}, {"dim": 2048}])
def test_oversized_opalg_sweep_is_refused_at_load(edit):
    # the fuzz above caps dim and t_points, so it never reaches the budget
    cfg = get_preset("zassenhaus-t3")
    cfg["opalg"].update(edit)
    assert schema_error(cfg, CONFIG_SCHEMA) is None
    with pytest.raises(ConfigError, match="config invalid at opalg: the run would hold"):
        validate_config(cfg)


def test_the_largest_accepted_dim_40_sweep_validates_and_the_next_exits_1(tmp_path, capsys):
    # 2 branches x 40 x 16 B x (5 x t_points x 2 x 8 columns + 12 x 40) is at
    # most 2^27 bytes up to 1304 times
    cfg = get_preset("zassenhaus-t3")
    cfg["opalg"]["t_points"] = 1304
    validate_config(cfg)
    out = tmp_path / "o"
    assert main(["run", "preset:zassenhaus-t3", "--set", "opalg.t_points=1305",
                 "--out", str(out)]) == 1
    assert "config invalid at opalg: the run would hold" in capsys.readouterr().err
    assert not out.exists()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _entries(cfg):
    validate_config(cfg)
    return cost(with_defaults(cfg))


def test_the_table_entries_count_the_tables_the_run_builds():
    consts = PhysicalConstants.natural()
    grid = GridSpec(32, 6.0)
    cfg = get_preset("gie-2x2")
    cfg.update(backend="grid", grid={"n": 32, "box": 6.0})
    for source in cfg["sources"].values():  # into the box, as the grid backend needs
        for branch in source["branches"]:
            branch["center"] = [x + s for x, s in zip(branch["center"], (0.8, 1.5, 1.5))]
    assert _entries(cfg) == {"grid/n": grid.coulomb_octant.nbytes}
    # the state pairs are checked on the smallest sweep grid: the four field
    # states the pairs draw on and its |k| table, while a state is built its
    # density, three complex transforms and the squared |k|, and the buffers
    cfg = get_preset("semiclassical-overlap")
    cfg["overlap"]["grid_sizes"] = [16, 8]
    grid = GridSpec(8, cfg["overlap"]["box"])
    state = build_field_state(gaussian_density(1.0, (2.0, 2.0, 2.0), 0.25), consts, grid)
    real = grid.k_magnitude.nbytes
    assert _entries(cfg)["overlap/grid_sizes/1"] == 4 * state.nbytes + real + (
        real + 3 * state.nbytes + real) + _BUFFER_BYTES


@pytest.mark.parametrize("n", [64, 256])
def test_the_overlap_entry_bounds_the_mode_sum_peak(n):
    cfg = get_preset("semiclassical-overlap")
    cfg["overlap"].update(grid_sizes=[n], state_pairs=0)
    block = with_defaults(cfg)["overlap"]
    eps = [[s * e for e in block["epsilon"]] for s in block["epsilon_scales"]]
    ws = [block["w_start"] * 0.5**i for i in range(block["w_halvings"] + 1)]
    peak = _traced_peak(lambda: semiclassical_overlap(
        block["position"], eps, ws, GridSpec(n, block["box"]), PhysicalConstants.natural(),
        sigma_reg=block["sigma_reg"], matter_width=block["matter_width"]))
    entry = _entries(cfg)["overlap/grid_sizes/0"]
    assert entry / 2 < peak <= entry, (peak, entry)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_the_state_pair_entry_bounds_the_check_peak(tmp_path, n):
    # the preset's 20 state pairs on one grid, where the check's tables
    # outweigh the mode sums' octants; at N = 16 the fixed costs the
    # buffers count outweigh the tables
    def config(size):
        cfg = get_preset("semiclassical-overlap")
        cfg["overlap"].update(grid_sizes=[size], w_halvings=0)
        return cfg

    run_scenario(config(8), tmp_path / "warm")  # numpy.fft's first-use state
    cfg = config(n)
    peak = _traced_peak(lambda: run_scenario(cfg, tmp_path / "o"))
    entry = _entries(cfg)["overlap/grid_sizes/0"]
    assert entry / 2 < peak <= entry, (peak, entry)


def _poisson(n, stride=None):
    block = {"profile": {"type": "gaussian", "mass": 1.0, "center": [4.0, 4.0, 4.0],
                         "sigma": 1.2}, "save_fields": False}
    return {"scenario": "poisson", "seed": 0, "grid": {"n": n, "box": 8.0},
            "poisson": {**block, **({"stride": stride} if stride else {})}}


@pytest.mark.parametrize("n, stride", [(16, None), (32, None), (32, 1), (64, None)])
def test_the_poisson_entry_bounds_the_run_peak(tmp_path, n, stride):
    # the entry prices the whole run: the oracle's table and worker buffers,
    # the spectral solve's cold peak, the density and the oracle's field
    run_scenario(_poisson(8), tmp_path / "warm")  # numpy.fft's first-use state
    cfg = _poisson(n, stride)
    peak = _traced_peak(lambda: run_scenario(cfg, tmp_path / "o"))
    entry = _entries(cfg)["grid/n"]
    assert entry / 2 < peak <= entry, (peak, entry)


@pytest.mark.parametrize("branches", [2, 8])
def test_the_monte_carlo_entry_bounds_the_run_peak(tmp_path, branches):
    # 13 and 85 pair integrals, each with its partial sums in 13 chunks
    def config(samples):
        cfg = get_preset("gie-2x2")
        cfg.update(backend="mc", mc_samples=samples)
        for key, x0 in (("a", 0.0), ("b", 3.0)):
            cfg["sources"][key]["branches"] = [
                {"amplitude": 1.0, "center": [x0 + 0.1 * i, 0.0, 0.0], "width": 0.05}
                for i in range(branches)]
        return cfg

    run_scenario(config(2), tmp_path / "warm")  # numpy.random's first-use state
    cfg = config(200_000)
    peak = _traced_peak(lambda: run_scenario(cfg, tmp_path / "o"))
    entry = _entries(cfg)["mc_samples"]
    assert entry / 2 < peak <= entry, (peak, entry)


def test_to_internal_units_fills_the_defaults_and_divides_by_the_scales():
    cfg = {"scenario": "overlap-sweep", "seed": 1,
           "constants": {"system": "si", "length_scale": 1e-3, "mass_scale": 1e-14},
           "overlap": {"epsilon": [5e-4, 0, 0], "w_start": 2.0, "w_halvings": 1,
                       "grid_sizes": [8], "box": 8e-3, "sigma_reg": 1e-4}}
    raw = copy.deepcopy(cfg)
    consts, internal, label = to_internal_units(cfg)
    assert cfg == raw  # the report echoes the config as given
    assert consts == PhysicalConstants.si().rescaled(1e-3, 1e-14)
    assert label.startswith("internal units (L0=0.001 m, M0=1e-14 kg")
    block = internal["overlap"]
    assert internal["time"] == 1.0 / (1e-3 / PhysicalConstants.si().c)
    assert block["mass"] == 1.0 / 1e-14
    assert block["box"] == 8e-3 / 1e-3 and block["sigma_reg"] == 1e-4 / 1e-3
    assert block["epsilon"] == [5e-4 / 1e-3, 0.0, 0.0]
    assert block["w_start"] == 2.0 / 1e-3**3  # a volume
    # not scaled: the integers and the constants block
    assert block["grid_sizes"] == [8]
    assert internal["constants"] == cfg["constants"]


def test_natural_units_turn_dimensional_integers_into_floats_only():
    cfg = {"scenario": "poisson", "seed": 0, "grid": {"n": 16, "box": 8},
           "poisson": {"profile": {"type": "gaussian", "mass": 2, "center": [4, 4, 4],
                                   "sigma": 1}, "stride": 2}}
    consts, internal, _ = to_internal_units(cfg)
    assert consts == PhysicalConstants.natural()
    profile = internal["poisson"]["profile"]
    assert [type(x) for x in (internal["grid"]["box"], profile["mass"], profile["sigma"],
                              *profile["center"])] == [float] * 6
    assert internal["grid"]["box"] == 8.0 and profile["center"] == [4.0, 4.0, 4.0]
    assert [type(x) for x in (internal["grid"]["n"], internal["poisson"]["stride"],
                              internal["seed"])] == [int] * 3


def _schema_defaults(schema: dict, path: tuple = ()):
    """(path, value) of every "default" CONFIG_SCHEMA declares."""
    if "default" in schema:
        yield path, schema["default"]
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_defaults(sub, path + (key,))


# the reference case (tests/reference_outputs.py) that reads each block's defaults
_DEFAULTS_CASE = {(): "phase-mc-0", ("poisson",): "poisson-oracle-0",
                  ("overlap",): "semiclassical-overlap", ("opalg",): "zassenhaus-t3"}
SCHEMA_DEFAULTS = list(_schema_defaults(CONFIG_SCHEMA))


def test_the_schema_declares_every_static_default():
    assert {"/".join(path): value for path, value in SCHEMA_DEFAULTS} == {
        "time": 1.0, "backend": "auto", "mc_samples": 1_000_000, "poisson/save_fields": True,
        "overlap/epsilon_scales": [1.0], "overlap/mass": 1.0, "overlap/state_pairs": 0,
        "opalg/weight": 1.0, "opalg/hT_shift": 0.0, "opalg/t_points": 10, "opalg/n_low": 8}


@pytest.mark.parametrize("path,default", SCHEMA_DEFAULTS,
                         ids=["/".join(path) for path, _ in SCHEMA_DEFAULTS])
def test_an_absent_key_runs_as_its_schema_default(path, default, tmp_path):
    # the run without the key and the run with the key set to the schema's
    # default write the same bytes, and the runners read the filled value
    import reference_outputs as ref

    cfg = {**ref.cases(), **ref.field_cases()}[_DEFAULTS_CASE[path[:-1]]]
    outputs = []
    for tag in ("absent", "given"):
        run = copy.deepcopy(cfg)
        block = run
        for key in path[:-1]:
            block = block[key]
        block.pop(path[-1], None)
        if tag == "given":
            block[path[-1]] = default
        internal = to_internal_units(run)[1]
        for key in path:
            internal = internal[key]
        assert internal == default  # natural units: every scale is 1
        (tmp_path / tag).mkdir()
        ref.run_tables(run, tmp_path / tag)
        out = tmp_path / tag / "out"
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                        if p.is_file() and p.name != "report.json"})
    assert outputs[0] and outputs[0] == outputs[1]


def test_the_derived_defaults_follow_the_fields_they_derive_from():
    overlap = get_preset("semiclassical-overlap")
    del overlap["overlap"]["position"]
    opalg = get_preset("zassenhaus-t3")
    del opalg["opalg"]["trace_branch_amplitudes"]
    negativity = {"scenario": "negativity", "seed": 0, "negativity": {
        "amplitudes_a": [1.0, 1.0, 1.0], "amplitudes_b": [1.0, 1.0], "phases": [[0, 1]] * 3}}
    poisson = {"scenario": "poisson", "seed": 0, "grid": {"n": 64, "box": 8},
               "poisson": {"profile": {"type": "gaussian", "mass": 1.0, "center": [4, 4, 4],
                                       "sigma": 1.0}}}
    raw = copy.deepcopy([overlap, opalg, negativity, poisson])
    assert with_defaults(overlap)["overlap"]["position"] == [4.0, 4.0, 4.0]
    assert with_defaults(opalg)["opalg"]["trace_branch_amplitudes"] == [0.0, 0.0]
    assert with_defaults(negativity)["negativity"]["dampings"] == [[0.0, 0.0]] * 3
    assert with_defaults(poisson)["poisson"]["stride"] == 4
    assert with_defaults({**poisson, "grid": {"n": 8, "box": 8}})["poisson"]["stride"] == 1
    # a point profile without a width is a Gaussian POINT_SIGMA_CELLS = 2 cells wide
    point = copy.deepcopy(poisson)
    point["poisson"]["profile"] = {"type": "point", "mass": 1.0, "center": [4, 4, 4]}
    assert with_defaults(point)["poisson"]["profile"]["sigma"] == 2 * 8 / 64
    point["poisson"]["profile"]["sigma"] = 0.3
    assert with_defaults(point)["poisson"]["profile"]["sigma"] == 0.3
    assert [overlap, opalg, negativity, poisson] == raw  # the report echoes the config as given


def test_no_runner_and_no_cross_field_check_restates_a_default():
    # an absent key reads as None or as nothing to do; every other default
    # is the schema's or with_defaults'
    import ast
    import inspect
    import textwrap

    from gravphase import scenarios

    for owner in (scenarios, validate_config):
        tree = ast.parse(textwrap.dedent(inspect.getsource(owner)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and len(node.args) == 2):
                fallback = node.args[1]
                empty = (isinstance(fallback, ast.Constant) and fallback.value is None
                         or isinstance(fallback, ast.Dict) and not fallback.keys
                         or isinstance(fallback, (ast.Tuple, ast.List)) and not fallback.elts)
                assert empty, f"{owner.__name__}: {ast.unparse(node)} restates a default"
