"""Scenario configuration: JSON schema, presets, loading and overrides.

Configs are plain JSON.  Every scenario carries a mandatory random seed
(echoed into the outputs) so Monte-Carlo runs are reproducible, and a
constants block that either works in natural units (G = c = hbar = 1 by
default) or takes SI inputs together with length/mass scales that map them
onto well-conditioned internal units.
"""

from __future__ import annotations

import copy
import json
import math
from functools import lru_cache
from pathlib import Path

import jsonschema

from .sources import PhysicalConstants

SCENARIOS = ("phase-compare", "poisson", "overlap-sweep", "opalg-verify", "negativity")

_NUM = {"type": "number"}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}
_NUMLIST = {"type": "array", "items": _NUM, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUMLIST, "minItems": 1}
# a real number or a [re, im] pair
_AMPLITUDE = {"oneOf": [_NUM, {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}]}

_BRANCH = {
    "type": "object",
    "properties": {
        "amplitude": _AMPLITUDE,
        "center": _VEC3,
        "width": _NUM,
    },
    "required": ["amplitude", "center", "width"],
    "additionalProperties": False,
}

_SOURCE = {
    "type": "object",
    "properties": {
        "type": {"enum": ["localized", "gaussian", "point", "grid-file"]},
        "mass": _NUM,
        "center": _VEC3,
        "sigma": _NUM,
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
                "G": _NUM, "c": _NUM, "hbar": _NUM,
                "length_scale": _NUM, "mass_scale": _NUM,
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {"n": {"type": "integer", "minimum": 2}, "box": _NUM},
            "required": ["n", "box"],
            "additionalProperties": False,
        },
        "time": _NUM,
        "backend": {"enum": ["auto", "analytic", "grid", "mc"]},
        "mc_samples": {"type": "integer", "minimum": 1},
        "sources": {
            "type": "object",
            "properties": {"a": _SOURCE, "b": _SOURCE},
            "required": ["a", "b"],
            "additionalProperties": False,
        },
        "sigma_ladder": _NUMLIST,
        "width_variation": _NUMLIST,
        "poisson": {
            "type": "object",
            "properties": {
                "profile": _SOURCE,
                "stride": {"type": "integer", "minimum": 1},
                "save_fields": {"type": "boolean"},
            },
            "required": ["profile"],
            "additionalProperties": False,
        },
        "overlap": {
            "type": "object",
            "properties": {
                "position": _VEC3,
                "epsilon": _VEC3,
                "epsilon_scales": _NUMLIST,
                "w_start": _NUM,
                "w_halvings": {"type": "integer", "minimum": 0},
                "grid_sizes": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
                "box": _NUM,
                "mass": _NUM,
                "sigma_reg": _NUM,
                "matter_width": _NUM,
                "state_pairs": {"type": "integer", "minimum": 0},
            },
            "required": ["epsilon", "w_start", "w_halvings", "grid_sizes", "box"],
            "additionalProperties": False,
        },
        "opalg": {
            "type": "object",
            "properties": {
                "kvec": _VEC3,
                "dim": {"type": "integer", "minimum": 4},
                "weight": _NUM,
                "tt_branch_amplitudes": _NUMLIST,
                "trace_branch_amplitudes": _NUMLIST,
                "hT_shift": _NUM,
                "t_start": _NUM,
                "t_stop": _NUM,
                "t_points": {"type": "integer", "minimum": 4},
                "n_low": {"type": "integer", "minimum": 2},
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


@lru_cache(maxsize=1)
def _validator():
    # CONFIG_SCHEMA is a constant checked against its meta-schema by the test
    # suite; checking it on every run would cost each process ~50 ms
    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> None:
    # same error selection as jsonschema.validate, without rebuilding the
    # validator on every call
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    kvec = cfg.get("opalg", {}).get("kvec")
    if kvec is not None and not any(kvec):
        raise ConfigError("config invalid at opalg/kvec: wavevector must be nonzero")
    # all-zero amplitudes cannot be normalised into a state
    sources = {f"sources/{k}": v for k, v in cfg.get("sources", {}).items()}
    if "poisson" in cfg:
        sources["poisson/profile"] = cfg["poisson"]["profile"]
    amplitudes = {f"{path}/branches": [b["amplitude"] for b in block["branches"]]
                  for path, block in sources.items() if "branches" in block}
    amplitudes.update({f"negativity/{k}": v for k, v in cfg.get("negativity", {}).items()
                       if k.startswith("amplitudes")})
    for path, amps in amplitudes.items():
        if not any(any(a) if isinstance(a, list) else a for a in amps):
            raise ConfigError(f"config invalid at {path}: amplitudes are all zero")


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
    except ConfigError as exc:
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


def build_constants(cfg: dict):
    """Returns (consts, scales, units_label).

    natural: constants taken verbatim (default 1).  si: SI constants plus
    mandatory length/mass scales; dimensional config entries are interpreted
    as SI and mapped to internal units by the scale functions in `scales`.
    """
    block = cfg.get("constants", {})
    system = block.get("system", "natural")
    if system == "natural":
        consts = PhysicalConstants(
            G=block.get("G", 1.0), c=block.get("c", 1.0), hbar=block.get("hbar", 1.0)
        )
        scales = {"length": 1.0, "mass": 1.0, "time": 1.0}
        label = "natural units (dimensional quantities in config units)"
        return consts, scales, label
    if "length_scale" not in block or "mass_scale" not in block:
        raise ConfigError("si constants need length_scale and mass_scale")
    si = PhysicalConstants(
        G=block.get("G", PhysicalConstants.si().G),
        c=block.get("c", PhysicalConstants.si().c),
        hbar=block.get("hbar", PhysicalConstants.si().hbar),
    )
    l0, m0 = float(block["length_scale"]), float(block["mass_scale"])
    consts = si.rescaled(l0, m0)
    scales = {"length": l0, "mass": m0, "time": l0 / si.c}
    label = f"internal units (L0={l0} m, M0={m0} kg, T0=L0/c)"
    return consts, scales, label


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
