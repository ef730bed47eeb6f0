import numpy as np
import pytest

from gravphase.tensoralg import (
    decompose,
    transverse_projector,
    tt_project,
)


def random_sym(rng, n=None):
    shape = (3, 3) if n is None else (n, 3, 3)
    t = rng.normal(size=shape)
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def test_projector_axis_aligned():
    p = transverse_projector([0.0, 0.0, 1.0])
    np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-15)


def test_projector_identities_random():
    rng = np.random.default_rng(0)
    k = rng.normal(size=(500, 3))
    p = transverse_projector(k)
    np.testing.assert_allclose(p @ p, p, atol=1e-14)
    np.testing.assert_allclose(np.swapaxes(p, -1, -2), p, atol=1e-15)
    np.testing.assert_allclose(np.einsum("nij,nj->ni", p, k), 0.0, atol=1e-14 * np.abs(k).max())
    # rank 2: trace is 2
    np.testing.assert_allclose(np.trace(p, axis1=-2, axis2=-1), 2.0, atol=1e-14)


def test_zero_wavevector_rejected():
    with pytest.raises(ValueError):
        transverse_projector([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        tt_project(np.eye(3), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        transverse_projector([np.nan, 0.0, 1.0])


def test_tt_axis_cases():
    k = [0.0, 0.0, 1.0]
    np.testing.assert_allclose(tt_project(np.diag([1.0, 1.0, 0.0]), k), 0.0, atol=1e-15)
    already_tt = np.diag([1.0, -1.0, 0.0])
    np.testing.assert_allclose(tt_project(already_tt, k), already_tt, atol=1e-15)


def test_tt_trace_free_and_transverse_random():
    rng = np.random.default_rng(1)
    t = random_sym(rng, 200)
    k = rng.normal(size=(200, 3))
    tt = tt_project(t, k)
    np.testing.assert_allclose(np.trace(tt, axis1=-2, axis2=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("nij,nj->ni", tt, k), 0.0,
                               atol=1e-12 * np.abs(k).max())
    # projector property
    np.testing.assert_allclose(tt_project(tt, k), tt, atol=1e-12)


def test_decompose_projector_input():
    k = np.array([1.0, 2.0, -0.5])
    p = transverse_projector(k)
    longitudinal, trace_part, tt = decompose(p, k)
    np.testing.assert_allclose(longitudinal, 0.0, atol=1e-14)
    np.testing.assert_allclose(trace_part, 2.0, atol=1e-14)
    np.testing.assert_allclose(tt, 0.0, atol=1e-14)


def test_decompose_pure_longitudinal():
    k = np.array([0.3, -1.1, 0.7])
    t = np.outer(k, k) / (k @ k)
    longitudinal, trace_part, tt = decompose(t, k)
    np.testing.assert_allclose(longitudinal, t, atol=1e-14)
    np.testing.assert_allclose(trace_part, 0.0, atol=1e-14)
    np.testing.assert_allclose(tt, 0.0, atol=1e-14)


def test_decompose_recomposition_and_orthogonality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_sym(rng)
        k = rng.normal(size=3)
        longitudinal, trace_part, tt = decompose(t, k)
        p = transverse_projector(k)
        recomposed = longitudinal + 0.5 * p * trace_part + tt
        np.testing.assert_allclose(recomposed, t, atol=1e-12)
        trace_tensor = 0.5 * p * trace_part
        assert abs((longitudinal * tt).sum()) < 1e-12
        assert abs((longitudinal * trace_tensor).sum()) < 1e-12
        assert abs((tt * trace_tensor).sum()) < 1e-12
