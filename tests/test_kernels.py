"""Kernel correctness: normalization, support, derivatives, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from repro.kernels import (
    CubicSplineKernel,
    SincKernel,
    WendlandC2Kernel,
    WendlandC4Kernel,
    WendlandC6Kernel,
    available_kernels,
    make_kernel,
    register_kernel,
)

ALL_KERNELS = [
    CubicSplineKernel(),
    WendlandC2Kernel(),
    WendlandC4Kernel(),
    WendlandC6Kernel(),
    WendlandC2Kernel(dim_hint=1),
    SincKernel(3.0),
    SincKernel(5.0),
    SincKernel(6.5),
]


def _ids(kernels):
    return [k.name + ("-1d" if getattr(k, "_dim_hint", 3) == 1 else "") for k in kernels]


def _quad_volume(kernel, dim):
    """``int f(q) dV`` over the support by adaptive quadrature (the oracle)."""
    integral, _ = quad(
        lambda q: q ** (dim - 1) * kernel.shape(np.asarray(q)),
        0, 2, limit=200, epsabs=0.0, epsrel=2e-14,
    )
    return (2.0, 2.0 * np.pi, 4.0 * np.pi)[dim - 1] * integral


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=_ids(ALL_KERNELS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normalization_integrates_to_one(kernel, dim):
    """sigma_d must make the kernel a unit-mass density in d dimensions."""
    if getattr(kernel, "_dim_hint", dim) == 1 and dim != 1:
        pytest.skip("1-D Wendland shapes are only normalized in 1-D")
    assert kernel.sigma(dim) * _quad_volume(kernel, dim) == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("name", available_kernels())
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_registered_sigma_matches_quad_oracle(name, dim):
    """The fixed Gauss-Legendre rule vs scipy's adaptive ``quad``: every
    registered kernel, to 1e-13; closed forms pass through untouched."""
    kernel = make_kernel(name)
    exact = kernel._sigma_exact(dim)
    if exact is not None:
        assert kernel.sigma(dim) == exact
    assert kernel.sigma(dim) * _quad_volume(kernel, dim) == pytest.approx(1.0, rel=1e-13)


def test_integrated_sigma_is_shared_by_instances_and_pickled_copies(monkeypatch):
    import pickle

    from repro.kernels import base

    calls = []
    integrate = SincKernel._sigma_numeric
    monkeypatch.setattr(base, "_SIGMA_MEMO", {})
    monkeypatch.setattr(
        SincKernel, "_sigma_numeric",
        lambda self, dim: calls.append((self.name, dim)) or integrate(self, dim),
    )
    first = SincKernel(5.0)
    copies = [SincKernel(5.0), make_kernel("sinc"), pickle.loads(pickle.dumps(first))]
    assert {k.sigma(3) for k in [first, *copies]} == {first.sigma(3)}
    assert calls == [("sinc-s5", 3)]
    # Another exponent or dimension is another integral.
    assert SincKernel(6.0).sigma(3) != first.sigma(3) != first.sigma(2)
    assert calls == [("sinc-s5", 3), ("sinc-s6", 3), ("sinc-s5", 2)]


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=_ids(ALL_KERNELS))
def test_compact_support_and_positivity(kernel):
    q = np.linspace(0.0, 3.0, 301)
    f = kernel.shape(q)
    assert np.all(f[q >= 2.0] == 0.0)
    assert np.all(f[q < 2.0] >= 0.0)
    assert f[0] == pytest.approx(kernel.shape(np.array([0.0]))[0])


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=_ids(ALL_KERNELS))
def test_shape_monotone_decreasing(kernel):
    """All production kernels decrease monotonically on (0, 2)."""
    q = np.linspace(0.0, 1.999, 400)
    f = kernel.shape(q)
    assert np.all(np.diff(f) <= 1e-12)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=_ids(ALL_KERNELS))
def test_shape_derivative_matches_numeric(kernel):
    q = np.linspace(0.05, 1.95, 77)
    eps = 1e-6
    numeric = (kernel.shape(q + eps) - kernel.shape(q - eps)) / (2 * eps)
    analytic = kernel.shape_derivative(q)
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("kernel", ALL_KERNELS[:4], ids=_ids(ALL_KERNELS[:4]))
def test_h_derivative_matches_numeric(kernel):
    r = np.array([0.3, 0.7, 1.4])
    h, eps = 1.0, 1e-6
    numeric = (kernel.value(r, h + eps, 3) - kernel.value(r, h - eps, 3)) / (2 * eps)
    analytic = kernel.h_derivative(r, np.full(3, h), 3)
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_gradient_points_toward_neighbor():
    """grad_i W for dx = x_i - x_j points from i toward j (W decreases)."""
    k = CubicSplineKernel()
    dx = np.array([[0.5, 0.0, 0.0]])
    r = np.array([0.5])
    g = k.gradient(dx, r, np.array([1.0]), 3)
    assert g[0, 0] < 0.0  # toward j (negative x direction)
    assert g[0, 1] == 0.0 and g[0, 2] == 0.0


def test_gradient_zero_at_origin_and_outside():
    k = WendlandC2Kernel()
    dx = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    r = np.array([0.0, 3.0])
    g = k.gradient(dx, r, np.array([1.0, 1.0]), 3)
    assert np.all(g == 0.0)


def test_gradient_antisymmetry():
    k = SincKernel(5.0)
    rng = np.random.default_rng(1)
    dx = rng.normal(size=(50, 3)) * 0.5
    r = np.linalg.norm(dx, axis=1)
    h = np.full(50, 1.0)
    g_ij = k.gradient(dx, r, h, 3)
    g_ji = k.gradient(-dx, r, h, 3)
    assert np.allclose(g_ij, -g_ji)


@given(q=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_sinc_shape_bounded_property(q):
    k = SincKernel(5.0)
    val = float(k.shape(np.array([q]))[0])
    assert 0.0 <= val <= 1.0
    if q >= 2.0:
        assert val == 0.0


def test_sinc_rejects_small_exponent():
    with pytest.raises(ValueError, match="exponent"):
        SincKernel(1.0)


def test_sinc_sharpens_with_exponent():
    """Higher n concentrates the kernel: value at q=1 decreases."""
    vals = [SincKernel(n).shape(np.array([1.0]))[0] for n in (3, 5, 7)]
    assert vals[0] > vals[1] > vals[2]


def test_registry_contains_paper_kernels():
    names = available_kernels()
    for required in ("sinc-s5", "m4", "wendland-c2", "wendland-c4", "wendland-c6"):
        assert required in names
    assert make_kernel("M4").name == "m4-cubic-spline"


def test_registry_unknown_and_duplicate():
    with pytest.raises(ValueError, match="unknown kernel"):
        make_kernel("no-such-kernel")
    with pytest.raises(ValueError, match="already registered"):
        register_kernel("m4", CubicSplineKernel)


def test_value_scales_with_h():
    """W(r, h) = sigma/h^3 f(r/h): doubling h at fixed q scales by 1/8."""
    k = CubicSplineKernel()
    w1 = k.value(np.array([0.5]), np.array([1.0]), 3)
    w2 = k.value(np.array([1.0]), np.array([2.0]), 3)
    assert w2[0] == pytest.approx(w1[0] / 8.0)


def test_sigma_rejects_bad_dim():
    with pytest.raises(ValueError, match="dim"):
        CubicSplineKernel().sigma(4)
