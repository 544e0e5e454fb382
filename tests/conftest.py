"""Shared fixtures: small particle configurations used across the suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
