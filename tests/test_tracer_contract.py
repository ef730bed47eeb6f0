"""The benchmark tracer (perfbench/tracer.py) wraps gravphase functions by
module and name and describes each call from its argument names; renaming
either breaks every traced benchmark run.  These checks hold the package to
that contract, and check that the benchmark's workloads reach every target,
so that no per-layer metric sits empty."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from gravphase.grids import GridSpec
from gravphase.sources import PhysicalConstants, gaussian_density

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

# The call arguments each DESCRIBE entry reads.
READS = {
    "sources.sample_on_grid": ("e", "grid"),
    "poisson.solve_hT_spectral": ("e", "grid"),
    "poisson.solve_hT_direct": ("grid", "stride"),
    "poisson.coulomb_pair_mc": ("samples",),
    "poisson.mutual_coulomb": ("e_a", "e_b", "backend", "grid"),
    "overlaps.build_field_state": ("e", "grid"),
    "scenarios.write_csv": ("path",),
    "gridio.save_scalar_grid": ("path",),
}


def _target(name):
    module, function = name.split(".")
    return getattr(importlib.import_module(f"gravphase.{module}"), function)


@pytest.mark.parametrize("name", tracer.TARGETS)
def test_every_target_resolves(name):
    assert callable(_target(name))


def test_every_described_target_is_a_target():
    assert set(READS) == set(tracer.DESCRIBE) <= set(tracer.TARGETS)


@pytest.mark.parametrize("name", sorted(READS))
def test_described_arguments_are_in_the_signature(name):
    params = inspect.signature(_target(name)).parameters
    assert set(READS[name]) <= set(params)


def test_install_records_a_described_span_and_uninstall_restores():
    from gravphase import sources

    original = sources.sample_on_grid
    spans = tracer.Tracer("t")
    undo = tracer.install(spans)
    try:
        assert sources.sample_on_grid is not original
        sources.sample_on_grid(gaussian_density(1.0, (2.0, 2.0, 2.0), 0.4), GridSpec(8, 4.0),
                               PhysicalConstants.natural())
    finally:
        tracer.uninstall(undo)
    assert sources.sample_on_grid is original
    [span] = spans.spans
    assert span["name"] == "sources.sample_on_grid" and "key" in span


def test_every_target_records_a_span_in_the_benchmark_workloads(tmp_path):
    from gravphase import cli

    spans = tracer.Tracer("t")
    undo = tracer.install(spans)
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.ops(workload, 0, tmp_path):
                assert cli.main([*op.argv, "--out", str(tmp_path / op.label)]) == 0
    finally:
        tracer.uninstall(undo)
    assert set(tracer.TARGETS) - {span["name"] for span in spans.spans} == set()


OPALG_LAYERS = ("opalg.compare_propagators", "opalg.exact_propagator",
                "opalg.zassenhaus_product", "opalg.nested_commutators", "opalg.build_HG",
                "opalg.build_HI")


def test_one_zassenhaus_run_calls_each_opalg_layer_once(tmp_path):
    # the per-layer opalg metrics are per-call spans: a second call would
    # double them, and a call bypassing the module-global name would leave
    # them empty
    from gravphase import cli

    spans = tracer.Tracer("t")
    undo = tracer.install(spans)
    try:
        assert cli.main(["run", "preset:zassenhaus-t3", "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall(undo)
    names = [span["name"] for span in spans.spans]
    assert {name: names.count(name) for name in OPALG_LAYERS} == dict.fromkeys(OPALG_LAYERS, 1)
