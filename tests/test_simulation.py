"""End-to-end Algorithm-1 driver: both test cases, all presets, phases."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.phases import Phase
from repro.core.presets import CHANGA, SPH_EXA, SPHFLOW, SPHYNX, get_preset
from repro.core.simulation import Simulation
from repro.ics.evrard import EvrardConfig, make_evrard
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.timestepping.criteria import TimestepParams


def _small_patch(preset, steps=3, **cfg_kwargs):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=5))
    config = preset.with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
        **cfg_kwargs,
    )
    sim = Simulation(particles, box, eos, config=config)
    sim.run(n_steps=steps)
    return sim


def _small_evrard(preset, steps=3, n=1500, **cfg_kwargs):
    particles, box, eos = make_evrard(EvrardConfig(n_target=n))
    config = preset.with_(n_neighbors=30, **cfg_kwargs)
    sim = Simulation(particles, box, eos, config=config)
    sim.run(n_steps=steps)
    return sim


def test_square_patch_conserves_mass_and_momentum():
    sim = _small_patch(SPHFLOW)
    drift = sim.conservation_drift()
    assert drift["mass"] == 0.0
    assert drift["momentum"] < 1e-12
    assert drift["energy"] < 0.05


def test_square_patch_keeps_rotating():
    """Interior particles still follow v = omega x r after a few steps."""
    sim = _small_patch(SPHFLOW, steps=4)
    p = sim.particles
    r2d = np.hypot(p.x[:, 0], p.x[:, 1])
    interior = r2d < 0.25
    vx_exp = 5.0 * p.x[interior, 1]
    vy_exp = -5.0 * p.x[interior, 0]
    err = np.hypot(p.v[interior, 0] - vx_exp, p.v[interior, 1] - vy_exp)
    assert err.mean() < 0.1 * 5.0 * 0.25


def test_evrard_collapses_and_conserves_energy():
    sim = _small_evrard(SPHYNX, steps=5)
    drift = sim.conservation_drift()
    assert drift["mass"] == 0.0
    assert drift["momentum"] < 1e-10
    assert drift["energy"] < 5e-3
    last = sim.history[-1].conservation
    first = sim.history[0].conservation
    # Collapse: potential deepens, kinetic energy grows from zero.
    assert last.potential_energy < first.potential_energy
    assert last.kinetic_energy > first.kinetic_energy
    assert sim.history[-1].n_p2p > 0  # gravity actually ran


@pytest.mark.parametrize("preset", [SPHYNX, CHANGA, SPHFLOW, SPH_EXA],
                         ids=lambda p: p.label)
def test_all_presets_run_square_patch(preset):
    sim = _small_patch(preset, steps=2)
    assert sim.step_index == 2
    assert np.all(np.isfinite(sim.particles.x))
    assert np.all(sim.particles.rho > 0)


def test_tracer_records_all_phases():
    sim = _small_patch(SPHYNX, steps=2)
    letters = set(sim.tracer.phase_letters())
    for phase in Phase:
        assert phase.letter in letters, f"phase {phase.name} missing"


def test_gravity_phase_empty_without_gravity():
    sim = _small_patch(SPHFLOW, steps=2)  # SPH-flow: no self-gravity
    assert sim.history[-1].n_p2p == 0
    assert sim.history[-1].n_m2p == 0
    assert sim.potential_energy == 0.0


def test_rate_evaluation_searches_once_and_builds_the_tree_on_demand(monkeypatch):
    from repro.tree.octree import Octree

    tree_builds = []
    build = Octree.build.__func__
    monkeypatch.setattr(
        Octree, "build",
        classmethod(lambda cls, *a, **k: tree_builds.append(1) or build(cls, *a, **k)),
    )
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=5))
    config = SPH_EXA.with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    sim = Simulation(particles, box, eos, config=config)
    sim.compute_rates()  # cold: one build of the list
    cache = sim.report().neighbor_cache
    assert cache["builds"] == 1
    assert 1 <= cache["searches"] <= 2
    assert len(tree_builds) == 1

    sim.run(n_steps=3)  # cache hits: no search, and (gravity off) no tree
    cache = sim.report().neighbor_cache
    assert cache["hits"] >= 3 and cache["builds"] == 1
    assert cache["searches"] <= 2
    assert len(tree_builds) == 1
    cold_searches, cold_pairs = cache["searches"], cache["pairs_searched"]
    assert cold_pairs >= sim._nlist.n_pairs  # searched before the cut

    # A rebuild starts from an adapted h: one tree, exactly one search.
    sim._ncache.invalidate()
    sim.compute_rates()
    cache = sim.report().neighbor_cache
    assert cache["builds"] == 2 and len(tree_builds) == 2
    assert cache["searches"] == cold_searches + 1
    assert cache["pairs_searched"] > cold_pairs
    # What the h iteration cost, and how it ended, is on the record too.
    lookups = cache["hits"] + sum(v for k, v in cache.items() if k.startswith("misses"))
    assert cache["adaptations"] == lookups  # one per rate evaluation
    h_iteration = sim.report().h_iteration
    assert h_iteration["adaptations"] == cache["adaptations"]
    assert 1.0 <= h_iteration["mean_sweeps"] <= 10.0  # per particle, capped at 10
    assert cache["particles"] == cache["adaptations"] * sim.particles.n
    assert cache["sweeps"] == h_iteration["mean_sweeps"] * cache["particles"]
    assert 0.0 <= h_iteration["within_tolerance_share"] <= 1.0
    sim.close()


def test_mean_neighbors_near_target():
    sim = _small_patch(SPHFLOW.with_(), steps=2)
    # symmetric list with self; gather count tracks the n_neighbors=30 target
    assert 10 < sim.history[-1].mean_neighbors < 90


def test_run_until_time():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    sim = Simulation(
        particles, box, eos,
        config=SPHFLOW.with_(n_neighbors=25,
                             timestep_params=TimestepParams(use_energy_criterion=False)),
    )
    stats = sim.run(t_end=2e-4)
    assert sim.time >= 2e-4
    assert len(stats) == sim.step_index


def test_run_requires_bound():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    sim = Simulation(particles, box, eos, config=SPHFLOW)
    with pytest.raises(ValueError, match="n_steps"):
        sim.run()


def test_step_stats_fields():
    sim = _small_patch(SPHFLOW, steps=1)
    s = sim.history[0]
    assert s.index == 1
    assert s.dt > 0
    assert s.n_particles == 500
    assert s.n_pairs > 0
    assert s.time == pytest.approx(s.dt)


def test_config_rejects_unknown_choices():
    with pytest.raises(ValueError, match="kernel"):
        SimulationConfig(kernel="nope")
    with pytest.raises(ValueError, match="gradients"):
        SimulationConfig(gradients="bogus")
    with pytest.raises(ValueError, match="gravity"):
        SimulationConfig(gravity="pentapole")
    with pytest.raises(ValueError, match="load_balancing"):
        SimulationConfig(load_balancing="magic")
    with pytest.raises(ValueError, match="theta"):
        SimulationConfig(gravity_theta=0.0)


def test_get_preset_lookup():
    assert get_preset("SPHYNX").label == "SPHYNX"
    assert get_preset("sph-flow").gravity is None
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("gadget")


def test_preset_axes_match_table1():
    assert SPHYNX.kernel.startswith("sinc")
    assert SPHYNX.gradients == "iad"
    assert SPHYNX.volume_elements == "generalized"
    assert SPHYNX.gravity == "quadrupole"
    assert CHANGA.timestepping == "individual"
    assert CHANGA.gravity == "hexadecapole"
    assert SPHFLOW.gravity is None
    assert SPHFLOW.timestepping == "adaptive"
    assert SPH_EXA.gravity == "hexadecapole"


def test_each_phase_letter_has_one_driver_method():
    """The driver reads as Algorithm 1: every Fig. 4 phase is spanned in
    exactly one ``Simulation`` method (the search closure of B sits in
    the method of B-D)."""
    import ast
    import inspect

    from repro.core import simulation

    module = ast.parse(inspect.getsource(simulation))
    (cls,) = [
        node for node in module.body
        if isinstance(node, ast.ClassDef) and node.name == "Simulation"
    ]
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]

    def names(method):
        return {
            node.attr for node in ast.walk(method)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "Phase"
        }

    owner = {}
    for phase in Phase:
        owners = [m.name for m in methods if phase.name in names(m)]
        assert len(owners) == 1, (phase.name, owners)
        owner[phase.letter] = owners[0]
    # ``compute_rates`` is the ordered call list of the steps, no span.
    assert owner == {
        "A": "_build_tree", "B": "_find_neighbours", "C": "_find_neighbours",
        "D": "_find_neighbours", "E": "_density", "F": "_density",
        "G": "_forces", "H": "step", "I": "_gravity", "J": "_update",
    }
