"""Shared fixtures: small particle configurations used across the suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.particles import ParticleSystem
from repro.tree.box import Box


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20180921)  # the paper's arXiv date


@pytest.fixture
def fresh_interpreter():
    """``run(program, *argv)``: execute ``program`` in a new interpreter on
    this one's import path and return the JSON on its last stdout line —
    for what a process has *loaded*, which pytest's own never shows."""

    def run(program: str, *argv: str):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", program, *argv],
            capture_output=True, text=True, check=True, env=env,
        )
        return json.loads(done.stdout.splitlines()[-1])

    return run


@pytest.fixture
def rp_calls(monkeypatch):
    """Every call the process's compiled op table makes into its shared
    library, as ``(entry point, thread ident)`` in call order — counted
    at the ``rp_*`` boundary.  Stays empty on a host without the cffi
    backend."""
    from repro.backend import available_backends, select_backend

    calls = []
    if not available_backends()["cffi"]:
        return calls
    ops = select_backend("cffi").ops
    lib = ops.lib

    class CountingLib:
        def __getattr__(self, name):
            entry = getattr(lib, name)

            def counted(*args):
                calls.append((name, threading.get_ident()))
                return entry(*args)

            return counted

    monkeypatch.setattr(ops, "lib", CountingLib())
    return calls


@pytest.fixture
def unit_box() -> Box:
    return Box.cube(0.0, 1.0, dim=3)


@pytest.fixture
def random_cloud(rng) -> ParticleSystem:
    """500 random particles in the unit cube with sane thermodynamics."""
    n = 500
    x = rng.random((n, 3))
    p = ParticleSystem(
        x=x,
        v=rng.normal(scale=0.1, size=(n, 3)),
        m=np.full(n, 1.0 / n),
        h=np.full(n, 0.08),
    )
    p.u[:] = 1.0
    return p


@pytest.fixture
def small_lattice() -> ParticleSystem:
    """8x8x8 unit-density lattice, the workhorse for SPH checks."""
    side = 8
    spacing = 1.0 / side
    axes = [np.arange(side) * spacing + spacing / 2] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=1)
    n = x.shape[0]
    return ParticleSystem(
        x=x,
        v=np.zeros((n, 3)),
        m=np.full(n, spacing**3),  # rho = 1
        h=np.full(n, 1.6 * spacing),
    )


@pytest.fixture
def store_list_in_checkpoint():
    """``store(path, box, dtype)``: rewrite the checkpoint file at ``path``
    as versions before 12.0.0 wrote it — the Verlet cache's padded list
    of its particles (``indices`` column of ``dtype``) and the list's
    reference state as ``ncache_*`` extras, the skin in ``meta``."""
    from repro.resilience.checkpoint import read_checkpoint, write_checkpoint
    from repro.tree.cellgrid import cell_grid_search
    from repro.tree.neighborlist import SKIN, VerletNeighborCache

    def store(path, box, dtype=np.int32):
        cp = read_checkpoint(path)
        p = cp.particles
        radii = VerletNeighborCache().search_factor * p.h
        nlist = cell_grid_search(p.x, radii, box, mode="symmetric")
        cp.meta["ncache_skin"] = SKIN
        cp.extras.update(
            ncache_offsets=nlist.offsets,
            ncache_indices=nlist.indices.astype(dtype),
            ncache_x_ref=p.x,
            ncache_h_ref=p.h,
        )
        write_checkpoint(path, cp)

    return store
