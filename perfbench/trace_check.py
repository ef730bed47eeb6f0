"""Checks of the benchmark's tracer.

    python3 -m pytest perfbench/trace_check.py

Each workload's processes run here in-process, with the tracer installed and
an independent ``sys.setprofile`` hook counting calls into the original
target functions.  A call that reaches a target without passing its wrapper
(a reference `tracer.install` missed) shows up as a difference between the
two counts.  The traced counts are also compared with the exact counts of
the commit that defined the benchmark: per round for `presets`, per process
for the three processes of a `solvers` round.

The file is not named test_*.py, so the repository's test suite does not
collect it.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Calls with seed 0 at the commit that defined the benchmark: over the five
# processes of a `presets` round, and per process of a `solvers` round.
SEED_COUNTS = {
    "presets": {
        "config.validate_config": 10, "opalg.build_HG": 20, "opalg.build_HI": 20,
        "opalg.compare_propagators": 20, "opalg.exact_propagator": 20,
        "opalg.nested_commutators": 20, "opalg.zassenhaus_product": 20,
        "overlaps.build_field_state": 118, "overlaps.semiclassical_overlap": 90,
        "phases.compare_models": 3, "phases.negativity": 12,
        "poisson.mutual_coulomb": 53, "scenarios.write_csv": 8,
        "sources.sample_on_grid": 118},
    "phase-grid": {
        "config.validate_config": 2, "phases.compare_models": 1, "phases.negativity": 4,
        "poisson.coulomb_pair_grid": 20, "poisson.mutual_coulomb": 20,
        "poisson.solve_hT_spectral": 20, "scenarios.write_csv": 1,
        "sources.sample_on_grid": 40},
    "phase-mc": {
        "config.validate_config": 2, "phases.compare_models": 1, "phases.negativity": 4,
        "poisson.coulomb_pair_mc": 20, "poisson.mutual_coulomb": 20,
        "scenarios.write_csv": 1},
    "poisson-oracle": {
        "config.validate_config": 2, "gridio.save_scalar_grid": 1,
        "poisson.laplacian_residual": 1, "poisson.solve_hT_direct": 1,
        "poisson.solve_hT_spectral": 1, "sources.sample_on_grid": 3},
}


def traced_and_profiled(workload: str, tmp_path: Path):
    """Traced and profiled call counts per process label."""
    originals = {}
    for target in tracer.TARGETS:
        modname, fname = target.split(".")
        fn = getattr(importlib.import_module(f"gravphase.{modname}"), fname)
        originals[fn.__code__] = target
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            profiled[(label, originals[frame.f_code])] += 1

    from gravphase import cli

    ops = workloads.ops(workload, 0, tmp_path)
    t = tracer.Tracer(workload)
    traced, label = Counter(), None
    undo = tracer.install(t)
    try:
        sys.setprofile(profile)
        for op in ops:
            label, first = op.label, len(t.spans)
            assert cli.main([*op.argv, "--out", str(tmp_path / op.label)]) == 0
            traced.update((label, s["name"]) for s in t.spans[first:])
    finally:
        sys.setprofile(None)
        tracer.uninstall(undo)
    return traced, profiled


def counts_by(traced: Counter, workload: str) -> dict:
    """{label: {target: calls}}, with the presets' processes summed."""
    out: dict = {}
    for (label, name), n in traced.items():
        key = workload if workload == "presets" else label
        out.setdefault(key, Counter())[name] += n
    return {key: dict(c) for key, c in out.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_sees_every_call(workload, tmp_path):
    traced, profiled = traced_and_profiled(workload, tmp_path)
    assert traced == profiled, "calls that bypassed the tracer"
    want = {k: SEED_COUNTS[k] for k in
            ((workload,) if workload == "presets" else workloads.SOLVERS)}
    assert counts_by(traced, workload) == want


def test_benchmark_json_names_are_produced():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = {"record": {"spans": [], "entry": 0.0, "exit": 1.0}, "launch": 0.0,
            "exit": 1.0, "rss_mb": 1.0}
    produced = set(run.round_metrics([proc])) | set(run.layer_metrics([proc]))
    produced.add("trace.overhead_s")
    assert {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} <= produced
