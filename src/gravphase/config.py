"""Scenario configuration: JSON schema and its validator, presets, loading
and overrides.

Configs are plain JSON.  Every scenario carries a mandatory random seed
(echoed into the outputs) so Monte-Carlo runs are reproducible, and a
constants block that either works in natural units (G = c = hbar = 1 by
default) or takes SI inputs together with length/mass scales that map them
onto well-conditioned internal units.  `validate_config` is the one judge
of a config: a config it accepts is one every scenario runner can read.
`with_defaults` fills in the schema's "default" annotations and five derived
defaults; `to_internal_units` then divides by the "dimension" scales.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from . import gridio
from .poisson import MC_CHUNK, RESIDUAL_MARGIN, _cpu_count
from .sources import POINT_SIGMA_CELLS, PhysicalConstants

SCENARIOS = ("phase-compare", "poisson", "overlap-sweep", "opalg-verify", "negativity")
# peak bytes a run may hold in any one `cost` entry, checked at load
BYTES_LIMIT = 2**27
# numpy's ufunc and transform line buffers and a run's own bookkeeping, on
# top of the tables a `poisson`, Monte-Carlo or state-pair entry counts
_BUFFER_BYTES = 2**18

_NUM = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
# "dimension" marks a number given in config units (SI under "system": "si")
# that `to_internal_units` divides by its unit scale; JSON Schema ignores it
_LENGTH = {**_POSITIVE, "dimension": "length"}
_MASS = {**_NON_NEGATIVE, "dimension": "mass"}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}
_POINT = {**_VEC3, "items": {**_NUM, "dimension": "length"}}
_NUMLIST = {"type": "array", "items": _NUM, "minItems": 1}
_WIDTHS = {"type": "array", "items": _LENGTH, "minItems": 1}
_BRANCH_LIST = {"type": "array", "items": _NUM, "minItems": 2}  # one entry per probe branch
_MATRIX = {"type": "array", "items": _NUMLIST, "minItems": 1}
# a real number or a [re, im] pair
_AMPLITUDE = {"oneOf": [_NUM, {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}]}

_BRANCH = {
    "type": "object",
    "properties": {
        "amplitude": _AMPLITUDE,
        "center": _POINT,
        "width": _LENGTH,
    },
    "required": ["amplitude", "center", "width"],
    "additionalProperties": False,
}

_SOURCE = {
    "type": "object",
    "properties": {
        "type": {"enum": ["localized", "gaussian", "point", "grid-file"]},
        "mass": _MASS,
        "center": _POINT,
        "sigma": _LENGTH,
        "branches": {"type": "array", "items": _BRANCH, "minItems": 1},
        "path": {"type": "string"},
    },
    "required": ["type"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "gravphase scenario configuration",
    "type": "object",
    "properties": {
        "scenario": {"enum": list(SCENARIOS)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "constants": {
            "type": "object",
            "properties": {
                "system": {"enum": ["natural", "si"]},
                "G": _POSITIVE, "c": _POSITIVE, "hbar": _POSITIVE,
                "length_scale": _POSITIVE, "mass_scale": _POSITIVE,
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {"n": {"type": "integer", "minimum": 2}, "box": _LENGTH},
            "required": ["n", "box"],
            "additionalProperties": False,
        },
        "time": {**_NON_NEGATIVE, "dimension": "time", "default": 1.0},
        "backend": {"enum": ["auto", "analytic", "grid", "mc"], "default": "auto"},
        "mc_samples": {"type": "integer", "minimum": 2, "default": 1000000},
        "sources": {
            "type": "object",
            "properties": {"a": _SOURCE, "b": _SOURCE},
            "required": ["a", "b"],
            "additionalProperties": False,
        },
        "sigma_ladder": _WIDTHS,
        "width_variation": _WIDTHS,
        "poisson": {
            "type": "object",
            "properties": {
                "profile": _SOURCE,
                "stride": {"type": "integer", "minimum": 1},
                "save_fields": {"type": "boolean", "default": True},
            },
            "required": ["profile"],
            "additionalProperties": False,
        },
        "overlap": {
            "type": "object",
            "properties": {
                "position": _POINT,
                "epsilon": _POINT,
                "epsilon_scales": {**_NUMLIST, "default": [1.0]},
                "w_start": {**_POSITIVE, "dimension": "volume"},
                "w_halvings": {"type": "integer", "minimum": 0},
                "grid_sizes": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
                "box": _LENGTH,
                "mass": {**_MASS, "default": 1.0},
                "sigma_reg": _LENGTH,
                "matter_width": _LENGTH,
                "state_pairs": {"type": "integer", "minimum": 0, "default": 0},
            },
            "required": ["epsilon", "w_start", "w_halvings", "grid_sizes", "box"],
            "additionalProperties": False,
        },
        "opalg": {
            "type": "object",
            "properties": {
                "kvec": _VEC3,
                "dim": {"type": "integer", "minimum": 4},
                "weight": {**_POSITIVE, "default": 1.0},
                "tt_branch_amplitudes": _BRANCH_LIST,
                "trace_branch_amplitudes": _BRANCH_LIST,
                "hT_shift": {**_NUM, "default": 0.0},
                "t_start": _POSITIVE,
                "t_stop": _POSITIVE,
                "t_points": {"type": "integer", "minimum": 4, "default": 10},
                "n_low": {"type": "integer", "minimum": 2, "default": 8},
            },
            "required": ["kvec", "dim", "tt_branch_amplitudes", "t_start", "t_stop"],
            "additionalProperties": False,
        },
        "negativity": {
            "type": "object",
            "properties": {
                "amplitudes_a": {"type": "array", "items": _AMPLITUDE, "minItems": 1},
                "amplitudes_b": {"type": "array", "items": _AMPLITUDE, "minItems": 1},
                "phases": _MATRIX,
                "dampings": _MATRIX,
            },
            "required": ["amplitudes_a", "amplitudes_b", "phases"],
            "additionalProperties": False,
        },
    },
    "required": ["scenario", "seed"],
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


# JSON type -> Python types; a bool is neither an integer nor a number
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def schema_error(instance, schema: dict, path: tuple = ()):
    """The first violation of `schema` by `instance`, as (path, message), or None.

    Evaluates exactly the keywords CONFIG_SCHEMA uses, with the messages of
    the reference Python JSON Schema validator.  An integer is an int, so
    16.0 is not one; properties are visited in schema order, so the
    reported error is deterministic."""
    kind = schema.get("type")
    if kind and (not isinstance(instance, _TYPES[kind])
                 or isinstance(instance, bool) and kind in ("integer", "number")):
        return path, f"{instance!r} is not of type {kind!r}"
    if "enum" in schema and instance not in schema["enum"]:
        return path, f"{instance!r} is not one of {schema['enum']!r}"
    if "minimum" in schema and instance < schema["minimum"]:
        return path, f"{instance!r} is less than the minimum of {schema['minimum']!r}"
    if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
        return path, (f"{instance!r} is less than or equal to the minimum of "
                      f"{schema['exclusiveMinimum']!r}")
    if "oneOf" in schema and sum(schema_error(instance, s) is None for s in schema["oneOf"]) != 1:
        return path, f"{instance!r} is not valid under any of the given schemas"
    children = []
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                return path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        extras = sorted(k for k in instance if k not in properties)
        if extras and schema.get("additionalProperties") is False:
            return path, ("Additional properties are not allowed (%s %s unexpected)"
                          % (", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"))
        children = [(key, instance[key], sub) for key, sub in properties.items() if key in instance]
    elif isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            return path, f"{instance!r} {short}"
        if len(instance) > schema.get("maxItems", len(instance)):
            return path, f"{instance!r} is too long"
        children = [(i, item, schema["items"]) for i, item in enumerate(instance)
                    if "items" in schema]
    for key, value, sub in children:
        error = schema_error(value, sub, path + (key,))
        if error is not None:
            return error
    return None


# the blocks each scenario reads, the keys each source type needs, and the
# one key a type reads without needing it (a point's width)
_SCENARIO_BLOCKS = {"phase-compare": ("sources",), "poisson": ("poisson", "grid"),
                    "overlap-sweep": ("overlap",), "opalg-verify": ("opalg",),
                    "negativity": ("negativity",)}
_SOURCE_KEYS = {"localized": ("mass", "branches"), "gaussian": ("mass", "center", "sigma"),
                "point": ("mass", "center"), "grid-file": ("path",)}
_OPTIONAL_SOURCE_KEYS = {"point": ("sigma",)}


def _check_grid_file(where: str, path: str, cfg: dict) -> None:
    """Check a grid-file source by `gridio.read_header`, without reading the
    payload, then its N and L against `grid` as `sample_on_grid` will check
    them; the rule it breaks is a ConfigError."""
    grid = cfg.get("grid")
    try:
        if not Path(path).exists():
            raise ValueError(f"referenced grid file not found: {path}")
        if cfg.get("constants", {}).get("system") == "si":
            raise ValueError("a grid file records no unit system and cannot be read under si "
                             "constants")
        n, box, _ = gridio.read_header(path)
        if grid is not None and n != grid["n"]:
            raise ValueError(f"grid file has N = {n}, grid/n is {grid['n']}")
        if grid is not None and not np.isclose(box, grid["box"]):
            raise ValueError(f"grid file has L = {box!r}, grid/box is {grid['box']!r}")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config invalid at {where}: {exc}") from None


def _phase_compare_gaussians(cfg: dict) -> list:
    """(path, center, sigma) of every Gaussian a grid-backend `phase-compare`
    samples: every branch, and each `sigma_ladder` rung and
    `width_variation` row at the first branch centres."""
    gaussians, firsts = [], []
    for k in "ab":
        block = cfg["sources"][k]
        if "branches" in block:
            gaussians += [(f"sources/{k}/branches/{i}", b["center"], b["width"])
                          for i, b in enumerate(block["branches"])]
        else:
            gaussians.append((f"sources/{k}", block["center"], block["sigma"]))
        firsts.append(block.get("branches", [block])[0]["center"])
    for key in ("sigma_ladder", "width_variation"):
        gaussians += [(f"{key}/{i}", c, s) for i, s in enumerate(cfg.get(key, ())) for c in firsts]
    return gaussians


def _check_grid_fit(grid: dict, gaussians: list) -> None:
    """Refuse a Gaussian (path, center, sigma) whose +-3 sigma cube leaves
    the cells [-h/2, L - h/2] of `grid`: `sources.axis_profiles` would put
    its clipped tail back onto the boundary cells, and the run would sample
    another density."""
    h = grid["box"] / grid["n"]
    lo, hi = -h / 2, grid["box"] - h / 2
    for path, center, sigma in gaussians:
        if not all(lo <= x - 3 * sigma and x + 3 * sigma <= hi for x in center):
            raise ConfigError(f"config invalid at {path}: a Gaussian of width {sigma!r} at "
                              f"{center} reaches past the grid cells [{lo!r}, {hi!r}] within "
                              "3 sigma, so the grid would clip it")


def validate_config(cfg: dict) -> None:
    """Raise ConfigError unless `cfg` is a config every scenario runner can
    read: the schema, then the checks that span fields."""
    error = schema_error(cfg, CONFIG_SCHEMA)
    if error is not None:
        path, message = error
        raise ConfigError(f"config invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")
    cfg = with_defaults(cfg)
    scenario = cfg["scenario"]
    for key in _SCENARIO_BLOCKS[scenario]:
        if key not in cfg:
            raise ConfigError(f"scenario {scenario!r} needs a {key!r} block")
    constants = cfg.get("constants", {})
    if constants.get("system") == "si" and not {"length_scale", "mass_scale"} <= constants.keys():
        raise ConfigError("si constants need length_scale and mass_scale")
    if scenario == "opalg-verify" and constants.get("system") == "si":
        raise ConfigError("config invalid at constants/system: no opalg entry has a unit, so "
                          "opalg-verify runs under natural constants only")
    sources = {f"sources/{k}": v for k, v in cfg.get("sources", {}).items()}
    if "poisson" in cfg:
        sources["poisson/profile"] = cfg["poisson"]["profile"]
    for path, block in sources.items():
        kind = block["type"]
        for key in _SOURCE_KEYS[kind]:
            if key not in block:
                raise ConfigError(f"config invalid at {path}: a {kind!r} source needs {key!r}")
        unread = sorted(block.keys() - {"type", *_SOURCE_KEYS[kind],
                                        *_OPTIONAL_SOURCE_KEYS.get(kind, ())})
        if unread:
            raise ConfigError(f"config invalid at {path}: a {kind!r} source does not read "
                              + ", ".join(map(repr, unread)))
        if kind == "grid-file":
            _check_grid_file(path, block["path"], cfg)
    if "poisson" in cfg and len(cfg["poisson"]["profile"].get("branches", ())) > 1:
        raise ConfigError("config invalid at poisson/profile/branches: a poisson profile is one "
                          f"density, got {len(cfg['poisson']['profile']['branches'])} branches")
    if scenario == "phase-compare" and any(
            cfg["sources"][k]["type"] not in ("localized", "gaussian") for k in "ab"):
        raise ConfigError("phase-compare sources must be localized or gaussian")
    if scenario == "phase-compare" and cfg["backend"] == "grid" and "grid" not in cfg:
        raise ConfigError("config invalid at backend: the grid backend needs a 'grid' block")
    overlap = cfg.get("overlap")
    grid_sizes = {"grid/n": cfg["grid"]["n"]} if "grid" in cfg else {}
    if overlap:
        grid_sizes.update((f"overlap/grid_sizes/{i}", n)
                          for i, n in enumerate(overlap["grid_sizes"]))
    for path, n in grid_sizes.items():
        if n < 2 or n & (n - 1):
            raise ConfigError(f"config invalid at {path}: grid size must be a power of two "
                              f">= 2, got {n}")
    if scenario == "poisson" and cfg["grid"]["n"] <= 2 * RESIDUAL_MARGIN:
        raise ConfigError(f"config invalid at grid/n: the Laplacian residual reads the cells "
                          f"more than a margin of {RESIDUAL_MARGIN} from each face, so N must "
                          f"exceed {2 * RESIDUAL_MARGIN}, got {cfg['grid']['n']}")
    if "poisson" in cfg and "grid" in cfg and cfg["grid"]["n"] % cfg["poisson"]["stride"]:
        raise ConfigError(f"config invalid at poisson/stride: stride must divide grid/n = "
                          f"{cfg['grid']['n']}, got {cfg['poisson']['stride']}")
    if scenario == "phase-compare" and cfg["backend"] == "grid":
        _check_grid_fit(cfg["grid"], _phase_compare_gaussians(cfg))
    profile = cfg.get("poisson", {}).get("profile", {})
    if scenario == "poisson" and "branches" in profile:
        branch = profile["branches"][0]
        _check_grid_fit(cfg["grid"], [("poisson/profile/branches/0", branch["center"],
                                       branch["width"])])
    elif scenario == "poisson" and profile["type"] != "grid-file":
        _check_grid_fit(cfg["grid"], [("poisson/profile", profile["center"], profile["sigma"])])
    if overlap:
        box, position = overlap["box"], overlap["position"]
        if not all(0.0 <= x <= box for x in position):
            raise ConfigError(f"config invalid at overlap/position: {position} lies outside "
                              f"the box [0, {box!r}]")
        for scale in overlap["epsilon_scales"]:
            end = [x + scale * e for x, e in zip(position, overlap["epsilon"])]
            if not all(0.0 <= x <= box for x in end):
                raise ConfigError(f"config invalid at overlap/epsilon: position + {scale!r} * "
                                  f"epsilon = {end} leaves the box [0, {box!r}]")
    opalg = cfg.get("opalg", {})
    if "kvec" in opalg and not any(opalg["kvec"]):
        raise ConfigError("config invalid at opalg/kvec: wavevector must be nonzero")
    if opalg and len(opalg["trace_branch_amplitudes"]) != len(opalg["tt_branch_amplitudes"]):
        raise ConfigError("branch amplitude lists must have matching length")
    negativity = cfg.get("negativity", {})
    if negativity:
        shape = (len(negativity["amplitudes_a"]), len(negativity["amplitudes_b"]))
        for key in ("phases", "dampings"):
            if [len(r) for r in negativity[key]] != [shape[1]] * shape[0]:
                raise ConfigError(f"config invalid at negativity/{key}: expected a {shape[0]} x "
                                  f"{shape[1]} matrix (amplitudes_a x amplitudes_b)")
    # amplitudes whose squared norm is 0 or inf in double precision cannot be
    # normalised into a state
    amplitudes = {f"{path}/branches": [b["amplitude"] for b in block["branches"]]
                  for path, block in sources.items() if "branches" in block}
    amplitudes.update({f"negativity/{k}": v for k, v in negativity.items()
                       if k.startswith("amplitudes")})
    for path, amps in amplitudes.items():
        parts = [float(x) for a in amps for x in (a if isinstance(a, list) else [a])]
        if not 0.0 < sum(x * x for x in parts) < math.inf:
            raise ConfigError(f"config invalid at {path}: amplitudes are all zero, "
                              "or too small or too large to normalise")
    for path, nbytes in cost(cfg).items():
        if nbytes > BYTES_LIMIT:
            raise ConfigError(f"config invalid at {path}: the run would hold {nbytes} bytes "
                              f"here at its peak, above the limit of {BYTES_LIMIT}")


def cost(cfg: dict) -> dict:
    """Peak bytes of each table the run of a default-filled config
    (`with_defaults`) builds, by the config path that sizes it: the (N+1)^3
    Coulomb octant of a grid phase-compare; per overlap grid two folded
    (N/2+1)^3 octants and eight of their planes or, on the smallest while
    state pairs are checked, the four field states the pairs draw on, the
    |k| table, and the density, three complex transforms and squared |k|
    of the state being built (16 * 4 + 8 + 8 + 48 + 8 = 136 bytes per
    cell) and `_BUFFER_BYTES`;
    the opalg sweep's 5 column stacks and 12 operators (tracemalloc reads
    4.1-4.2 and about eleven); the Monte-Carlo partial sums and worker
    buffers; and the larger of the poisson oracle's table and worker
    buffers and the spectral solve's product, half product and kernel
    spectrum.  The last two entries also count the density, the oracle's
    weights and field, and `_BUFFER_BYTES`."""
    out = {}
    scenario, grid = cfg["scenario"], cfg.get("grid")
    if scenario == "phase-compare" and cfg["backend"] == "grid":
        out["grid/n"] = 8 * (grid["n"] + 1) ** 3
    if scenario == "phase-compare" and cfg["backend"] == "mc":
        n_a, n_b = (len(s["branches"]) if "branches" in s else 1 for s in cfg["sources"].values())
        ladder = len(cfg.get("sigma_ladder", ()))
        pairs = n_a * n_b + n_a + n_b + (ladder + 1 if ladder else 0)
        chunks = -(-cfg["mc_samples"] // MC_CHUNK)
        workers = min(chunks, _cpu_count())
        out["mc_samples"] = 16 * chunks * pairs + 104 * MC_CHUNK * workers + _BUFFER_BYTES
    if scenario == "poisson":
        n, m = grid["n"], grid["n"] // cfg["poisson"]["stride"]
        direct = 8 * ((2 * n - 1) ** 2 * n + min(m, _cpu_count()) * (n**3 + n**2))
        spectral = 32 * (2 * n) ** 2 * (n + 1)
        out["grid/n"] = max(direct, spectral) + 8 * (2 * n**3 + m**3) + _BUFFER_BYTES
    if scenario == "overlap-sweep":
        sizes = cfg["overlap"]["grid_sizes"]
        out.update((f"overlap/grid_sizes/{i}", 16 * (n // 2 + 1) ** 2 * (n // 2 + 5))
                   for i, n in enumerate(sizes))
        if cfg["overlap"]["state_pairs"]:
            path = f"overlap/grid_sizes/{sizes.index(min(sizes))}"
            out[path] = max(out[path], 136 * min(sizes) ** 3 + _BUFFER_BYTES)
    if scenario == "opalg-verify":
        opalg = cfg["opalg"]
        dim, columns = opalg["dim"], min(opalg["n_low"], opalg["dim"])
        out["opalg"] = 16 * len(opalg["tt_branch_amplitudes"]) * dim * (
            5 * opalg["t_points"] * 2 * columns + 12 * dim)
    return out


def _reject_non_finite(token: str):
    raise ConfigError(f"non-finite number {token} is not allowed")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _reject_non_finite(token)
    return value


def _json_loads(text: str):
    """json.loads that refuses NaN, Infinity and overflowing literals."""
    return json.loads(text, parse_constant=_reject_non_finite, parse_float=_finite_float)


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = _json_loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from None
    validate_config(cfg)
    return cfg


def _parse_value(raw: str):
    try:
        return _json_loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    """Apply --set dotted.path=value overrides to scalar config fields."""
    out = copy.deepcopy(cfg)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        dotted, raw = item.split("=", 1)
        keys = dotted.split(".")
        node = out
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"override path {dotted!r} not present in config")
            node = node[k]
        if not isinstance(node, dict) or keys[-1] not in node:
            raise ConfigError(f"override path {dotted!r} not present in config")
        node[keys[-1]] = _parse_value(raw)
    validate_config(out)
    return out


def _internal(value, schema: dict, scales: dict | None = None):
    """`value` with each default `schema` declares filled in where absent and
    each number it gives a dimension divided by that dimension's `scales`."""
    if "dimension" in schema and scales:
        return value / scales[schema["dimension"]]
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        value = {**{k: s["default"] for k, s in properties.items() if "default" in s}, **value}
        return {k: _internal(v, properties.get(k, {}), scales) for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_internal(v, schema["items"], scales) for v in value]
    return value


def with_defaults(cfg: dict) -> dict:
    """A schema-valid `cfg`, copied, with every default filled in, in config units."""
    cfg = _internal(cfg, CONFIG_SCHEMA)
    poisson, overlap, opalg, negativity = (
        cfg.get(key, {}) for key in ("poisson", "overlap", "opalg", "negativity"))
    if poisson and "grid" in cfg:
        poisson.setdefault("stride", max(1, cfg["grid"]["n"] // 16))
        if poisson["profile"]["type"] == "point":  # a point is a Gaussian this many cells wide
            poisson["profile"].setdefault(
                "sigma", POINT_SIGMA_CELLS * cfg["grid"]["box"] / cfg["grid"]["n"])
    if overlap:
        overlap.setdefault("position", [overlap["box"] / 2] * 3)
    if opalg:
        opalg.setdefault("trace_branch_amplitudes", [0.0] * len(opalg["tt_branch_amplitudes"]))
    if negativity:
        negativity.setdefault("dampings", [[0.0] * len(row) for row in negativity["phases"]])
    return cfg


def to_internal_units(cfg: dict):
    """Returns (consts, internal_cfg, units_label) for a validated config.

    natural: constants taken verbatim (default 1), every scale 1.0.  si: SI
    constants (default CODATA) rescaled by the mandatory length and mass
    scales L0 and M0, with the time scale L0/c and the volume scale L0^3.
    `internal_cfg` is `with_defaults(cfg)` with each number the schema gives
    a "dimension" divided by its scale, in natural units too, so an integer
    entry becomes a float.
    """
    block = cfg.get("constants", {})
    natural = block.get("system", "natural") == "natural"
    default = PhysicalConstants.natural() if natural else PhysicalConstants.si()
    consts = PhysicalConstants(**{k: block.get(k, getattr(default, k)) for k in ("G", "c", "hbar")})
    if natural:
        scales = {"length": 1.0, "mass": 1.0, "time": 1.0, "volume": 1.0}
        label = "natural units (dimensional quantities in config units)"
    else:
        l0, m0 = float(block["length_scale"]), float(block["mass_scale"])
        scales = {"length": l0, "mass": m0, "time": l0 / consts.c, "volume": l0**3}
        consts = consts.rescaled(l0, m0)
        label = f"internal units (L0={l0} m, M0={m0} kg, T0=L0/c)"
    return consts, _internal(with_defaults(cfg), CONFIG_SCHEMA, scales), label


PRESETS: dict[str, dict] = {
    # Bose-style double interferometer: two masses, two branches each,
    # collinear branch geometry, narrow widths.
    "gie-2x2": {
        "scenario": "phase-compare",
        "seed": 7,
        "output_dir": "out/gie-2x2",
        "constants": {"system": "natural"},
        "time": 0.2,
        "backend": "auto",
        "mc_samples": 200000,
        "sources": {
            "a": {"type": "localized", "mass": 1.0, "branches": [
                {"amplitude": 0.7071067811865476, "center": [0.0, 0.0, 0.0], "width": 0.05},
                {"amplitude": 0.7071067811865476, "center": [0.4, 0.0, 0.0], "width": 0.05},
            ]},
            "b": {"type": "localized", "mass": 1.0, "branches": [
                {"amplitude": 0.7071067811865476, "center": [1.0, 0.0, 0.0], "width": 0.05},
                {"amplitude": 0.7071067811865476, "center": [1.4, 0.0, 0.0], "width": 0.05},
            ]},
        },
        "sigma_ladder": [0.2, 0.1, 0.05, 0.025],
    },
    # One wide Gaussian per source, sigma = d/2: the regime where the
    # density phase departs from any center-based potential.
    "wide-gaussian-pair": {
        "scenario": "phase-compare",
        "seed": 11,
        "output_dir": "out/wide-gaussian-pair",
        "constants": {"system": "natural"},
        "time": 0.2,
        "backend": "auto",
        "mc_samples": 200000,
        "sources": {
            "a": {"type": "localized", "mass": 1.0, "branches": [
                {"amplitude": 1.0, "center": [0.0, 0.0, 0.0], "width": 0.5},
            ]},
            "b": {"type": "localized", "mass": 1.0, "branches": [
                {"amplitude": 1.0, "center": [1.0, 0.0, 0.0], "width": 0.5},
            ]},
        },
        "width_variation": [0.5, 0.75],
    },
    # Mean-field self-gravity against the full phase on a 2x2 pair: the
    # separable matrix never entangles, the full one does.
    "sn-vs-full": {
        "scenario": "phase-compare",
        "seed": 13,
        "output_dir": "out/sn-vs-full",
        "constants": {"system": "natural"},
        "time": 0.3,
        "backend": "auto",
        "mc_samples": 200000,
        "sources": {
            "a": {"type": "localized", "mass": 1.0, "branches": [
                {"amplitude": 0.7071067811865476, "center": [0.0, 0.0, 0.0], "width": 0.3},
                {"amplitude": 0.7071067811865476, "center": [0.7, 0.0, 0.0], "width": 0.3},
            ]},
            "b": {"type": "localized", "mass": 1.0, "branches": [
                {"amplitude": 0.7071067811865476, "center": [2.0, 0.0, 0.0], "width": 0.3},
                {"amplitude": 0.7071067811865476, "center": [2.7, 0.0, 0.0], "width": 0.3},
            ]},
        },
    },
    # Displaced-source overlap of classically treated constraints: sweep the
    # delta regularisation and the mode count.
    "semiclassical-overlap": {
        "scenario": "overlap-sweep",
        "seed": 3,
        "output_dir": "out/semiclassical-overlap",
        "constants": {"system": "natural"},
        "overlap": {
            "position": [4.0, 4.0, 4.0],
            "epsilon": [0.5, 0.0, 0.0],
            "epsilon_scales": [0.0, 0.5, 1.0, 1.5, 2.0],
            "w_start": 700.0,
            "w_halvings": 5,
            "grid_sizes": [8, 16, 32],
            "box": 8.0,
            "mass": 1.0,
            "sigma_reg": 0.1,
            "matter_width": 0.25,
            "state_pairs": 20,
        },
    },
    # Single-mode commutator-phase certification: defect slopes with and
    # without the t^3 factor, extracted versus predicted phases.
    "zassenhaus-t3": {
        "scenario": "opalg-verify",
        "seed": 5,
        "output_dir": "out/zassenhaus-t3",
        "constants": {"system": "natural"},
        "opalg": {
            "kvec": [0.0, 0.0, 1.0],
            "dim": 40,
            "weight": 1.0,
            "tt_branch_amplitudes": [0.0, 0.04],
            "trace_branch_amplitudes": [0.0, 0.05],
            "hT_shift": 0.8,
            "t_start": 0.02,
            "t_stop": 0.2,
            "t_points": 10,
            "n_low": 8,
        },
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    cfg = copy.deepcopy(PRESETS[name])
    validate_config(cfg)
    return cfg
