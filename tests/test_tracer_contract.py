"""The benchmark tracer (perfbench/tracer.py) wraps gravphase functions by
module and name and describes each call from its argument names; renaming
either breaks every traced benchmark run.  These checks hold the package to
that contract."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gravphase.grids import GridSpec
from gravphase.sources import PhysicalConstants, gaussian_density

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

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
