"""Spans around the public functions of each gravphase layer, installed from
outside the package.

The gravphase modules import each other's functions by name (``phases``
calls its own ``mutual_coulomb``, ``scenarios`` its own ``solve_hT_spectral``
and so on), so a wrapper put only on the defining module would miss most
calls.  `install` therefore replaces every reference to a target function
held by any loaded ``gravphase`` module.  `trace_check.py` verifies that no
call escapes.

A span is a dict with the run id, span id, name, parent span id, start and
end (``time.monotonic``, shared by every process on the machine), plus the
work description of `DESCRIBE` where the layer has one.  Spans stay in
memory; the child process writes them out when it ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import pkgutil
import time

TARGETS = (
    "config.validate_config",
    "sources.sample_on_grid",
    "poisson.solve_hT_spectral",
    "poisson.solve_hT_direct",
    "poisson.coulomb_pair_grid",
    "poisson.coulomb_pair_mc",
    "poisson.mutual_coulomb",
    "poisson.laplacian_residual",
    "phases.compare_models",
    "phases.negativity",
    "overlaps.semiclassical_overlap",
    "overlaps.build_field_state",
    "opalg.compare_propagators",
    "opalg.exact_propagator",
    "opalg.zassenhaus_product",
    "opalg.nested_commutators",
    "opalg.build_HG",
    "opalg.build_HI",
    "scenarios.write_csv",
    "gridio.save_scalar_grid",
)


def _density(e) -> tuple:
    """Hashable identity of an EnergyDensity (its arrays are not hashable)."""
    if e.kind == "grid":
        return ("grid", hashlib.sha1(e.values.tobytes()).hexdigest(), e.box)
    return (e.kind, float(e.mass), tuple(map(float, e.center)),
            None if e.sigma is None else float(e.sigma))


def _grid(g) -> tuple | None:
    return None if g is None else (g.n, g.box)


def _keyed(a):
    return {"key": repr((_density(a["e"]), _grid(a["grid"])))}


def _spectral(a):
    # computed, not measured: rfftn of the padded density, rfftn of the
    # kernel and the inverse irfftn, each on the doubled (2N)^3 lattice
    return {**_keyed(a), "fft_points": 3 * (2 * a["grid"].n) ** 3}


def _direct(a):
    n = a["grid"].n
    return {"pair_evals": n**3 * (n // a["stride"]) ** 3}


def _pair(a):
    densities = sorted(repr(_density(a[k])) for k in ("e_a", "e_b"))
    return {"key": repr((densities, a["backend"], _grid(a["grid"])))}


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# Work description per layer, computed from the call arguments once the call
# has returned (for the writers, the size of the file the call wrote).  "key" identifies the input,
# so distinct keys over calls is the share of calls that did new work.
DESCRIBE = {
    "sources.sample_on_grid": _keyed,
    "poisson.solve_hT_spectral": _spectral,
    "poisson.solve_hT_direct": _direct,
    "poisson.coulomb_pair_mc": lambda a: {"samples": a["samples"]},
    "poisson.mutual_coulomb": _pair,
    "overlaps.build_field_state": _keyed,
    "scenarios.write_csv": lambda a: {"bytes": _file_bytes(a["path"])},
    "gridio.save_scalar_grid": lambda a: {
        "bytes": _file_bytes(a["path"], f"{a['path']}.json")},
}


class Tracer:
    """Collects the spans of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, describe=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"run": self.run_id, "id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(describe(bound.arguments))
            return result

        return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target wherever a gravphase module holds it.  Returns the
    (module, attribute, original) triples that `uninstall` puts back."""
    import gravphase

    modules = [gravphase] + [importlib.import_module(f"gravphase.{m.name}")
                             for m in pkgutil.iter_modules(gravphase.__path__)]
    undo = []
    for target in TARGETS:
        modname, fname = target.split(".")
        original = getattr(importlib.import_module(f"gravphase.{modname}"), fname)
        traced = tracer.wrap(target, original, DESCRIBE.get(target))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, original in undo:
        setattr(module, attr, original)
