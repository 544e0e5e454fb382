"""The compiled pair ops do each unordered pair once, with fixed bits.

The compiled h iteration emits the lower half (``j <= i``, self pair
last) of the support cut, and every compiled pair op adds each partner's
term into its row in ascending row order (:mod:`repro.backend.csrc`).
Over every op, kernel family, dimension and box:

* the emitted half is the ``j <= i`` part of numpy's
  :func:`~repro.tree.pairs.support_cut` list — on a bare emission, a list
  build, a Verlet-cache hit and an early stop of the h iteration;
* an op handed the full symmetric cut (it reads each row's prefix
  ``j <= i``) returns the bits it returns on the half;
* row slices with their halo rows — 1, 2, 3 and 30 of them — return the
  bits of one slice over every row;
* the results agree with the numpy phases at the backend tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, select_backend
from repro.core.particles import ParticleSystem
from repro.gradients.iad import IAD_RCOND, compute_iad_matrices
from repro.kernels.registry import make_kernel
from repro.sph.density import compute_density, grad_h_terms
from repro.sph.forces import compute_forces, velocity_divergence_curl
from repro.sph.smoothing import (
    SmoothingConfig,
    adapt_from_cached_list,
    adapt_smoothing_lengths,
)
from repro.sph.viscosity import ViscosityParams
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.neighborlist import NeighborList, VerletNeighborCache, balanced_row_slices
from repro.tree.pairs import support_cut
from tests.test_backend import PHASE_TOL, assert_norm_close

pytestmark = pytest.mark.skipif(
    not available_backends()["cffi"], reason="no C toolchain on this host"
)

KERNELS = ("m4", "wendland-c2", "wendland-c4", "wendland-c6", "sinc")
SLICES = (1, 2, 3, 30)


def _lattice(dim, rng):
    """Spacing ``s``, ``h = s``: axis neighbours two spacings apart sit
    exactly on ``support * h``, in exact binary fractions."""
    side = {1: 64, 2: 16, 3: 8}[dim]
    spacing = 1.0 / side
    axes = [np.arange(side) * spacing + spacing / 2] * dim
    x = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return x, np.full(x.shape[0], spacing)


def _cloud(dim, rng):
    """Random positions, ``h`` spread by 30 %, some 10, 30 and 40 gather
    neighbours in 1-, 2- and 3-D (a particle with a handful of
    neighbours has a near-singular IAD moment matrix, whose inverse
    magnifies the roundoff the backends may differ by)."""
    n, (h_lo, h_hi) = {1: (60, (0.035, 0.045)), 2: (200, (0.095, 0.125)),
                       3: (400, (0.11, 0.14))}[dim]
    return rng.random((n, dim)), rng.uniform(h_lo, h_hi, size=n)


def _state(make, dim, periodic, rng):
    x, h = make(dim, rng)
    n = x.shape[0]
    p = ParticleSystem(
        x=x, v=rng.normal(size=(n, dim)), m=rng.uniform(0.5, 1.5, n) / n, h=h
    )
    box = Box.cube(0.0, 1.0, dim=dim, periodic=periodic)
    padded = cell_grid_search(x, 3.2 * h, box, mode="symmetric")
    return p, box, padded


def _lower(nlist):
    """The ``j <= i`` part of a list, rows in its order."""
    keep = nlist.indices <= nlist.pair_i()
    offsets = np.concatenate([[0], np.cumsum(np.bincount(
        nlist.pair_i()[keep], minlength=nlist.n))])
    return NeighborList(offsets, nlist.indices[keep])


def _assert_same_list(got, want):
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.indices, want.indices)


def _op_table(ops, p, box, kernel, c_matrices, balsara_f):
    """Every compiled pair op as ``run(list, lo, hi) -> tuple``."""
    x, v, h, m, rho = p.x, p.v, p.h, p.m, p.rho
    p_over = p.p / rho**2

    def forces(c, b):
        def run(nl, lo, hi):
            return ops.forces(
                x=x, v=v, h=h, m=m, rho=rho, p_over=p_over, cs=p.cs, nlist=nl,
                box=box, kernel=kernel, lo=lo, hi=hi, c_matrices=c,
                balsara_f=b, alpha=1.0, beta=2.0, eta2=0.01,
            )
        return run

    return {
        "density": lambda nl, lo, hi: (
            ops.density_sums(x, h, m, nl, box, kernel, lo, hi),),
        "dwdh": lambda nl, lo, hi: (
            ops.density_sums(x, h, m, nl, box, kernel, lo, hi, dwdh=True),),
        "density_iad": lambda nl, lo, hi: ops.density_iad(
            x, h, m, m, rho, nl, box, kernel, lo, hi, IAD_RCOND),
        "div_curl": lambda nl, lo, hi: ops.div_curl_sums(
            x, v, h, m, nl, box, kernel, lo, hi),
        "forces_iad": forces(c_matrices, None),
        "forces_standard_balsara": forces(None, balsara_f),
    }


def _sliced(run, nlist, n_slices):
    """``run`` over each pair-balanced slice, stitched back together (the
    scalar ``max_mu`` of the force op as the largest)."""
    parts = [run(nlist, lo, hi) for lo, hi in balanced_row_slices(nlist.offsets, n_slices)]
    return tuple(
        max(part[k] for part in parts) if np.ndim(parts[0][k]) == 0
        else np.concatenate([part[k] for part in parts])
        for k in range(len(parts[0]))
    )


def _same(got, want, label):
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"{label}[{k}]"


@pytest.mark.parametrize("make", [_lattice, _cloud], ids=["lattice", "cloud"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_pair_once_ops_are_exact_across_lists_and_slices(
    kernel_name, dim, periodic, make, rng
):
    p, box, padded = _state(make, dim, periodic, rng)
    n = p.n
    kernel = make_kernel(kernel_name)
    ops = select_backend("cffi").ops
    full, record = support_cut(p, padded, kernel, box)
    assert 0 < full.n_pairs < padded.n_pairs
    if make is _lattice:
        # Pairs exactly on the cutoff are kept.
        assert np.any(record.r == kernel.support * p.h[0])

    # The emission of the h iteration (over finished rows) is the j <= i
    # part of numpy's cut.
    half = ops.adapt(
        p.x, p.h, None, padded.as_int32(), box, None, SmoothingConfig(),
        np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int32), kernel.support,
    )
    _assert_same_list(half, _lower(full))

    # A state the phases accept: density, pressure, sound speed.
    compute_density(p, full, kernel, box)
    p.u[:] = rng.uniform(0.5, 1.5, n)
    p.p[:] = (2.0 / 3.0) * p.rho * p.u
    p.cs[:] = np.sqrt((5.0 / 3.0) * p.p / p.rho)
    c_matrices = compute_iad_matrices(p, full, kernel, box, rcond=IAD_RCOND)
    balsara_f = rng.uniform(0.0, 1.0, n)

    full32 = full.as_int32()
    for name, run in _op_table(ops, p, box, kernel, c_matrices, balsara_f).items():
        want = run(half, 0, n)
        _same(run(full32, 0, n), want, f"{name}/full")
        for n_slices in SLICES:
            _same(_sliced(run, half, n_slices), want, f"{name}/{n_slices} slices")

    # Against numpy, through the phase functions, over the half list.
    b = select_backend("cffi")
    rows = (0, n)
    for volume_elements in ("standard", "generalized"):
        ref = compute_density(p, full, kernel, box, rows=rows,
                              volume_elements=volume_elements)
        got = compute_density(p, half, kernel, box, rows=rows,
                              volume_elements=volume_elements, backend=b)
        assert_norm_close(got, ref, PHASE_TOL, f"density[{volume_elements}]")
    assert_norm_close(
        grad_h_terms(p, half, kernel, box, rows=rows, backend=b),
        grad_h_terms(p, full, kernel, box, rows=rows), PHASE_TOL, "grad_h",
    )
    rho, cm = compute_density(p, half, kernel, box, rows=rows, backend=b,
                              return_iad=True)
    assert np.array_equal(rho, compute_density(p, half, kernel, box, rows=rows,
                                               backend=b))
    # Closed-form inverse vs LAPACK: test_backend's tolerance, row by row
    # times the row's condition number (a random cloud in an open box has
    # near-singular moments, by up to 1e10, at its corners).
    err = np.abs(cm - c_matrices).max(axis=(1, 2))
    scale = np.abs(c_matrices).max(axis=(1, 2)) * np.linalg.cond(c_matrices)
    assert np.all(err <= 1e-9 * scale), "iad"
    for got, ref, label in zip(
        velocity_divergence_curl(p, half, kernel, box, rows=rows, backend=b),
        velocity_divergence_curl(p, full, kernel, box, rows=rows),
        ("div", "curl"),
    ):
        assert_norm_close(got, ref, PHASE_TOL, label)
    for label, options in (
        ("iad", dict(c_matrices=c_matrices)),
        ("standard", dict(viscosity=ViscosityParams(use_balsara=True),
                          balsara_f=balsara_f)),
    ):
        ref = compute_forces(p, full, kernel, box, rows=rows, omega=np.ones(n),
                             **options)
        got = compute_forces(p, half, kernel, box, rows=rows, omega=np.ones(n),
                             backend=b, **options)
        assert_norm_close(got.a, ref.a, PHASE_TOL, f"a/{label}")
        assert_norm_close(got.du, ref.du, PHASE_TOL, f"du/{label}")
        assert got.max_mu == pytest.approx(ref.max_mu, rel=PHASE_TOL)


@pytest.mark.parametrize(
    "config",
    [SmoothingConfig(n_target=30), SmoothingConfig(n_target=30, tolerance=0.9)],
    ids=["all-sweeps", "early-stop"],
)
def test_the_h_iteration_emits_the_lower_half_of_the_cut(config, rng):
    """A build (search, sweeps, then an emission over ``within``'s list)
    and a Verlet hit (the sweeps' op emits) end with the ``j <= i`` part
    of numpy's cut of the list they return, at the ``h`` they leave — as
    does a stop at every particle's first sweep, whose final ``h`` comes
    from no update.  h starts at the target (about 30 inside 2h)."""
    dim = 3
    box = Box.cube(0.0, 1.0, dim=dim, periodic=True)
    x = rng.random((400, dim))
    p = ParticleSystem(x=x, v=np.zeros((400, dim)), m=np.full(400, 1 / 400),
                       h=np.full(400, 0.13))
    kernel = make_kernel("m4")
    b = select_backend("cffi")
    cache = VerletNeighborCache()

    def search(x, radii, box, mode):
        return cell_grid_search(x, radii, box, mode=mode)

    nlist, cut = adapt_smoothing_lengths(
        p, box, config, cache, search=search, backend=b, support=kernel.support,
    )
    _assert_same_list(cut, _lower(support_cut(p, nlist, kernel, box)[0]))

    p.x[:] = (p.x + 1e-3 * rng.normal(size=p.x.shape)) % 1.0
    cached = cache.lookup(p.x, p.h, box)
    assert cached is not None
    hit, cut = adapt_from_cached_list(
        p, cached, box, config, cache, backend=b, search=search,
        support=kernel.support,
    )
    assert hit is cached
    _assert_same_list(cut, _lower(support_cut(p, hit, kernel, box)[0]))
