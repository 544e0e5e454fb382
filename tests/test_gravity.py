"""Gravity: direct baseline, multipole moments, contracted far-field
evaluation against the dense-tensor oracle, Barnes-Hut on both paths."""

from itertools import combinations
from typing import List

import numpy as np
import pytest

from repro.backend import select_backend
from repro.gravity.barnes_hut import _leaf_sources, barnes_hut_gravity, potential_energy
from repro.gravity.direct import direct_gravity
from repro.gravity.multipole import compute_node_moments, evaluate_multipoles
from repro.tree.box import Box
from repro.tree.octree import Octree


# ----------------------------------------------------------------------
# Oracle: the far-field expansion through dense derivative tensors
# ``D^(n) = grad^n (1/r)`` — what ``evaluate_multipoles`` contracts away.
# ----------------------------------------------------------------------
def derivative_tensors(d: np.ndarray, max_rank: int) -> List[np.ndarray]:
    """``[D^(0), ..., D^(max_rank)]`` with ``D^(n) = grad^n (1/|d|)``.

    ``d`` has shape ``(k, dim)``; each ``D^(n)`` has shape
    ``(k, dim, ..., dim)`` with n trailing axes.  Explicit closed forms up
    to rank 5 (needed for hexadecapole accelerations).
    """
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    k, dim = d.shape
    r2 = np.einsum("kd,kd->k", d, d)
    if np.any(r2 <= 0.0):
        raise ValueError("derivative tensors are singular at zero separation")
    u = 1.0 / np.sqrt(r2)
    u3 = u**3
    u5 = u3 * u * u
    u7 = u5 * u * u
    u9 = u7 * u * u
    u11 = u9 * u * u
    eye = np.eye(dim)

    out: List[np.ndarray] = [u]
    if max_rank >= 1:
        out.append(-d * u3[:, None])
    if max_rank >= 2:
        dd = d[:, :, None] * d[:, None, :]
        out.append(3.0 * dd * u5[:, None, None] - eye[None, :, :] * u3[:, None, None])
    if max_rank >= 3:
        ddd = dd[:, :, :, None] * d[:, None, None, :]
        sym_ed = (
            eye[None, :, :, None] * d[:, None, None, :]
            + eye[None, :, None, :] * d[:, None, :, None]
            + eye[None, None, :, :] * d[:, :, None, None]
        )
        out.append(
            -15.0 * ddd * u7[:, None, None, None]
            + 3.0 * sym_ed * u5[:, None, None, None]
        )
    if max_rank >= 4:
        dddd = ddd[:, :, :, :, None] * d[:, None, None, None, :]
        sym_edd = np.zeros((k,) + (dim,) * 4)
        letters = "abcd"
        for (a, b) in combinations(range(4), 2):
            rest = [i for i in range(4) if i not in (a, b)]
            e_sub = letters[a] + letters[b]
            d_sub = letters[rest[0]] + letters[rest[1]]
            sym_edd += np.einsum(f"{e_sub},k{d_sub}->kabcd", eye, dd)
        sym_ee = np.zeros((dim,) * 4)
        # The three distinct pairings of four indices into two deltas:
        # (ab)(cd), (ac)(bd), (ad)(bc) — enumerate pairs containing index 0
        # so each pairing is counted exactly once.
        for b in (1, 2, 3):
            rest = [i for i in range(1, 4) if i != b]
            e_sub = letters[0] + letters[b]
            f_sub = letters[rest[0]] + letters[rest[1]]
            sym_ee += np.einsum(f"{e_sub},{f_sub}->abcd", eye, eye)
        out.append(
            105.0 * dddd * u9[:, None, None, None, None]
            - 15.0 * sym_edd * u7[:, None, None, None, None]
            + 3.0 * sym_ee[None] * u5[:, None, None, None, None]
        )
    if max_rank >= 5:
        ddddd = dddd[..., None] * d[:, None, None, None, None, :]
        letters = "abcde"
        sym_eddd = np.zeros((k,) + (dim,) * 5)
        for (a, b) in combinations(range(5), 2):
            rest = [i for i in range(5) if i not in (a, b)]
            e_sub = letters[a] + letters[b]
            d_sub = "".join(letters[i] for i in rest)
            sym_eddd += np.einsum(f"{e_sub},k{d_sub}->kabcde", eye, ddd)
        sym_eed = np.zeros((k,) + (dim,) * 5)
        for solo in range(5):
            others = [i for i in range(5) if i != solo]
            # Three pairings of the remaining four indices into two deltas.
            pairings = [
                ((others[0], others[1]), (others[2], others[3])),
                ((others[0], others[2]), (others[1], others[3])),
                ((others[0], others[3]), (others[1], others[2])),
            ]
            for (p1, p2) in pairings:
                e1 = letters[p1[0]] + letters[p1[1]]
                e2 = letters[p2[0]] + letters[p2[1]]
                ds = letters[solo]
                sym_eed += np.einsum(f"{e1},{e2},k{ds}->kabcde", eye, eye, d)
        out.append(
            -945.0 * ddddd * u11[:, None, None, None, None, None]
            + 105.0 * sym_eddd * u9[:, None, None, None, None, None]
            - 15.0 * sym_eed * u7[:, None, None, None, None, None]
        )
    if max_rank >= 6:
        raise ValueError("derivative tensors implemented up to rank 5")
    return out


def dense_evaluate_multipoles(d, mass, m2, m3, m4, order, g_const=1.0):
    """``evaluate_multipoles`` with every ``D^(n)`` materialised (k rows)."""
    tensors = derivative_tensors(d, order + 1)
    phi = mass * tensors[0]
    acc = mass[:, None] * tensors[1]
    if order >= 2:
        phi = phi + 0.5 * np.einsum("kab,kab->k", m2, tensors[2])
        acc = acc + 0.5 * np.einsum("kab,kabe->ke", m2, tensors[3])
    if order >= 3:
        phi = phi - (1.0 / 6.0) * np.einsum("kabc,kabc->k", m3, tensors[3])
        acc = acc - (1.0 / 6.0) * np.einsum("kabc,kabce->ke", m3, tensors[4])
    if order >= 4:
        phi = phi + (1.0 / 24.0) * np.einsum("kabcd,kabcd->k", m4, tensors[4])
        acc = acc + (1.0 / 24.0) * np.einsum("kabcd,kabcde->ke", m4, tensors[5])
    return g_const * acc, -g_const * phi


@pytest.fixture
def cluster(rng):
    n = 600
    x = rng.normal(size=(n, 3))
    x *= (1.0 / (1.0 + np.linalg.norm(x, axis=1)))[:, None]
    m = rng.uniform(0.5, 1.5, n)
    return x, m


# ----------------------------------------------------------------------
# Direct summation
# ----------------------------------------------------------------------
def test_two_body_analytic():
    x = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    m = np.array([3.0, 5.0])
    acc, phi = direct_gravity(x, m, g_const=2.0)
    assert acc[0, 0] == pytest.approx(2.0 * 5.0 / 4.0)
    assert acc[1, 0] == pytest.approx(-2.0 * 3.0 / 4.0)
    assert phi[0] == pytest.approx(-2.0 * 5.0 / 2.0)


def test_direct_newton_third_law(cluster):
    x, m = cluster
    acc, _ = direct_gravity(x, m)
    assert np.linalg.norm((m[:, None] * acc).sum(axis=0)) < 1e-10 * len(m)


def test_direct_softening_caps_close_forces():
    x = np.array([[0.0, 0, 0], [1e-8, 0, 0]])
    m = np.ones(2)
    acc, _ = direct_gravity(x, m, softening=0.1)
    assert np.abs(acc).max() < 1e-6 / (0.1**3) + 1.0


def test_direct_chunking_consistent(cluster):
    x, m = cluster
    a1, p1 = direct_gravity(x, m, chunk=7)
    a2, p2 = direct_gravity(x, m, chunk=10_000)
    assert np.allclose(a1, a2)
    assert np.allclose(p1, p2)


def test_direct_subset_targets(cluster):
    x, m = cluster
    targets = np.array([0, 5, 10])
    a_sub, p_sub = direct_gravity(x, m, targets=targets)
    a_all, p_all = direct_gravity(x, m)
    assert np.allclose(a_sub, a_all[targets])
    assert np.allclose(p_sub, p_all[targets])


# ----------------------------------------------------------------------
# Multipole machinery
# ----------------------------------------------------------------------
def test_derivative_tensors_vs_numeric():
    d0 = np.array([2.5, -1.0, 0.7])
    eps = 1e-5
    tensors = derivative_tensors(d0[None], 5)
    for rank in range(5):
        num = np.zeros(tensors[rank + 1].shape[1:])
        for e in range(3):
            dp, dm = d0.copy(), d0.copy()
            dp[e] += eps
            dm[e] -= eps
            tp = derivative_tensors(dp[None], rank)[rank][0]
            tm = derivative_tensors(dm[None], rank)[rank][0]
            num[..., e] = (tp - tm) / (2 * eps)
        ref = tensors[rank + 1][0]
        scale = max(np.abs(ref).max(), 1e-30)
        assert np.abs(num - ref).max() / scale < 1e-6, f"rank {rank + 1}"


def test_derivative_tensors_symmetry():
    d = np.array([[1.0, 2.0, 3.0]])
    t = derivative_tensors(d, 4)
    d2, d3, d4 = t[2][0], t[3][0], t[4][0]
    assert np.allclose(d2, d2.T)
    assert np.allclose(d3, np.transpose(d3, (1, 0, 2)))
    assert np.allclose(d3, np.transpose(d3, (0, 2, 1)))
    assert np.allclose(d4, np.transpose(d4, (1, 0, 2, 3)))
    assert np.allclose(d4, np.transpose(d4, (0, 1, 3, 2)))


def test_derivative_tensors_reject_zero():
    with pytest.raises(ValueError, match="singular"):
        derivative_tensors(np.zeros((1, 3)), 2)
    with pytest.raises(ValueError, match="rank 5"):
        derivative_tensors(np.ones((1, 3)), 6)


def test_node_moments_match_brute_force(cluster):
    x, m = cluster
    tree = Octree.build(x, leaf_size=64)
    mom = compute_node_moments(tree, x, m, order=4)
    # Pick a mid-tree node and verify against direct sums.
    k = tree.n_nodes // 2
    idx = tree.order[tree.pstart[k] : tree.pend[k]]
    assert mom.mass[k] == pytest.approx(m[idx].sum(), rel=1e-12)
    com = (m[idx][:, None] * x[idx]).sum(axis=0) / m[idx].sum()
    assert np.allclose(mom.com[k], com, atol=1e-12)
    s = x[idx] - com
    m2 = np.einsum("k,ka,kb->ab", m[idx], s, s)
    assert np.allclose(mom.m2[k], m2, atol=1e-10)
    m3 = np.einsum("k,ka,kb,kc->abc", m[idx], s, s, s)
    assert np.allclose(mom.m3[k], m3, atol=1e-10)
    m4 = np.einsum("k,ka,kb,kc,kd->abcd", m[idx], s, s, s, s)
    assert np.allclose(mom.m4[k], m4, atol=1e-10)


def test_far_field_expansion_converges(cluster):
    """Multipole evaluation at a distant point approaches the exact sum."""
    x, m = cluster
    tree = Octree.build(x, leaf_size=10_000)  # root only
    mom = compute_node_moments(tree, x, m, order=4)
    target = np.array([[6.0, 5.0, 4.0]])
    d = target - mom.com[0]
    exact_phi = -np.sum(m / np.linalg.norm(target - x, axis=1))
    errors = []
    for order in (0, 2, 3, 4):
        _, phi = evaluate_multipoles(
            d, mom.mass[:1], mom.m2[:1], mom.m3[:1], mom.m4[:1], order
        )
        errors.append(abs(phi[0] - exact_phi))
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[3] / abs(exact_phi) < 1e-6


def _scaled_err(got, ref):
    """Max abs error over the largest reference magnitude."""
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.fixture
def interactions(rng):
    """k far-field interactions: random bodies of 6 points, seen from a
    few body radii away, with their raw moments about the COM."""
    k = 400
    w = rng.uniform(0.5, 1.5, (k, 6))
    s = rng.normal(scale=0.3, size=(k, 6, 3))
    s -= (w[..., None] * s).sum(axis=1, keepdims=True) / w.sum(axis=1)[:, None, None]
    d = rng.normal(size=(k, 3))
    d *= (rng.uniform(1.5, 6.0, k) / np.linalg.norm(d, axis=1))[:, None]
    moments = (
        w.sum(axis=1),
        np.einsum("kp,kpa,kpb->kab", w, s, s),
        np.einsum("kp,kpa,kpb,kpc->kabc", w, s, s, s),
        np.einsum("kp,kpa,kpb,kpc,kpd->kabcd", w, s, s, s, s),
    )
    return d, moments


@pytest.mark.parametrize("order", [0, 2, 3, 4])
def test_contracted_evaluation_matches_dense_oracle(interactions, order):
    d, moments = interactions
    a_ref, phi_ref = dense_evaluate_multipoles(d, *moments, order, g_const=1.7)
    acc, phi = evaluate_multipoles(d, *moments, order, g_const=1.7)
    scale = np.linalg.norm(a_ref, axis=1)
    assert (np.linalg.norm(acc - a_ref, axis=1) / scale).max() < 1e-12
    assert (np.abs(phi - phi_ref) / np.abs(phi_ref)).max() < 1e-12


def test_contracted_evaluation_broadcasts_over_targets(interactions):
    """``(targets, nodes, dim)`` separations against per-node moments."""
    d, moments = interactions
    nodes = tuple(mk[:40] for mk in moments)
    d3 = d[:120].reshape(3, 40, 3)
    acc, phi = evaluate_multipoles(d3, *nodes, 4)
    assert acc.shape == (3, 40, 3) and phi.shape == (3, 40)
    for t in range(3):
        a_row, phi_row = evaluate_multipoles(d3[t], *nodes, 4)
        assert np.array_equal(acc[t], a_row)
        assert np.array_equal(phi[t], phi_row)


def test_evaluate_multipoles_rejects_bad_input(interactions):
    d, (mass, m2, m3, m4) = interactions
    with pytest.raises(ValueError, match="singular"):
        evaluate_multipoles(np.zeros((1, 3)), mass[:1], None, None, None, 0)
    for order, held in ((2, (None, m3, m4)), (3, (m2, None, m4)), (4, (m2, m3, None))):
        with pytest.raises(ValueError, match=f"m{order}"):
            evaluate_multipoles(d, mass, *held, order)


# ----------------------------------------------------------------------
# Barnes-Hut
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", [0, 2, 3, 4])
def test_barnes_hut_accuracy_improves_with_order(cluster, order):
    x, m = cluster
    a_exact, p_exact = direct_gravity(x, m)
    res = barnes_hut_gravity(x, m, theta=0.7, order=order, leaf_size=24)
    err = np.linalg.norm(res.acc - a_exact, axis=1) / np.linalg.norm(a_exact, axis=1)
    bound = {0: 5e-2, 2: 6e-3, 3: 3e-3, 4: 1.5e-3}[order]
    assert err.mean() < bound


def test_barnes_hut_theta_zero_limit(cluster):
    """Small theta opens everything: P2P-only, exact result."""
    x, m = cluster
    a_exact, p_exact = direct_gravity(x, m)
    res = barnes_hut_gravity(x, m, theta=1e-6, order=2, leaf_size=16)
    assert res.n_m2p == 0
    assert np.allclose(res.acc, a_exact, rtol=1e-10, atol=1e-12)
    assert np.allclose(res.phi, p_exact, rtol=1e-10, atol=1e-12)


def test_barnes_hut_stats_populated(cluster):
    x, m = cluster
    res = barnes_hut_gravity(x, m, theta=0.6, order=2)
    assert res.n_p2p > 0
    assert res.n_m2p > 0


def test_barnes_hut_potential_energy_matches_direct(cluster):
    x, m = cluster
    _, p_exact = direct_gravity(x, m)
    u_exact = 0.5 * np.sum(m * p_exact)
    res = barnes_hut_gravity(x, m, theta=0.5, order=2)
    assert res.potential_energy(m) == pytest.approx(u_exact, rel=1e-3)
    assert potential_energy(res.phi, m) == res.potential_energy(m)


def test_barnes_hut_reuses_tree_and_moments(cluster):
    x, m = cluster
    tree = Octree.build(x, leaf_size=32)
    mom = compute_node_moments(tree, x, m, order=2)
    res1 = barnes_hut_gravity(x, m, theta=0.5, order=2, tree=tree, moments=mom)
    res2 = barnes_hut_gravity(x, m, theta=0.5, order=2, leaf_size=32)
    assert np.allclose(res1.acc, res2.acc, rtol=1e-12)


def test_barnes_hut_rejects_periodic():
    x = np.random.default_rng(0).random((20, 3))
    with pytest.raises(ValueError, match="periodic"):
        barnes_hut_gravity(x, np.ones(20), box=Box.cube(0, 1, 3, periodic=True))


def test_barnes_hut_rejects_low_order_moments(cluster):
    x, m = cluster
    tree = Octree.build(x, leaf_size=32)
    mom = compute_node_moments(tree, x, m, order=0)
    with pytest.raises(ValueError, match="order"):
        barnes_hut_gravity(x, m, order=2, tree=tree, moments=mom)


def test_barnes_hut_softening_matches_direct(cluster):
    x, m = cluster
    eps = 0.05
    a_exact, _ = direct_gravity(x, m, softening=eps)
    res = barnes_hut_gravity(x, m, theta=1e-6, softening=eps)
    assert np.allclose(res.acc, a_exact, rtol=1e-10)


# ----------------------------------------------------------------------
# Barnes-Hut: the compiled rendering against the numpy reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def compiled_ops():
    backend = select_backend("auto")
    if backend.ops is None:
        pytest.skip("no compiled backend on this host")
    return backend.ops


def _isothermal_sphere(rng, n=900):
    """rho ~ 1/r^2 inside the unit sphere: deep tree at the centre."""
    x = rng.normal(size=(n, 3))
    x *= (rng.random(n) / np.linalg.norm(x, axis=1))[:, None]
    return x, rng.uniform(0.5, 1.5, n)


def _lattice(rng, side=9):
    """Equal masses on a cubic lattice: node COMs sit at symmetric
    distances from the leaf boxes, so many MAC tests are ties."""
    axis = (np.arange(side) + 0.5) / side
    x = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)
    return x, np.ones(x.shape[0])


CLOUDS = {"sphere": _isothermal_sphere, "lattice": _lattice}


@pytest.mark.parametrize("softening", [0.0, 0.03])
@pytest.mark.parametrize("order", [0, 2, 3, 4])
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_compiled_gravity_matches_numpy(compiled_ops, rng, cloud, order, softening):
    x, m = CLOUDS[cloud](rng)
    kw = dict(theta=0.5, order=order, softening=softening, g_const=1.3, leaf_size=16)
    ref = barnes_hut_gravity(x, m, **kw)
    got = barnes_hut_gravity(x, m, ops=compiled_ops, **kw)
    assert (got.n_p2p, got.n_m2p) == (ref.n_p2p, ref.n_m2p)
    assert ref.n_m2p > 0 and ref.n_p2p > 0
    assert _scaled_err(got.acc, ref.acc) < 1e-12
    assert _scaled_err(got.phi, ref.phi) < 1e-12


def test_compiled_gravity_theta_zero_is_direct(compiled_ops, cluster):
    x, m = cluster
    for eps in (0.0, 0.05):
        a_exact, p_exact = direct_gravity(x, m, softening=eps)
        res = barnes_hut_gravity(
            x, m, theta=1e-6, softening=eps, leaf_size=16, ops=compiled_ops
        )
        assert res.n_m2p == 0 and res.n_p2p == len(m) ** 2
        assert np.allclose(res.acc, a_exact, rtol=1e-10, atol=1e-12)
        assert np.allclose(res.phi, p_exact, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("path", ["numpy", "compiled"])
def test_leaf_partition_reproduces_full_walk(request, rng, path):
    """A leaf's sums involve that leaf alone: any split of the target
    leaves adds up, array for array, to the one-call result."""
    ops = request.getfixturevalue("compiled_ops") if path == "compiled" else None
    x, m = _isothermal_sphere(rng)
    tree = Octree.build(x, leaf_size=16)
    mom = compute_node_moments(tree, x, m, order=4)
    kw = dict(theta=0.6, order=4, softening=0.01, tree=tree, moments=mom, ops=ops)
    full = barnes_hut_gravity(x, m, **kw)
    leaves = np.nonzero(tree.is_leaf() & (tree.node_counts() > 0))[0]
    parts = np.array_split(rng.permutation(leaves), 5)
    acc = np.zeros_like(full.acc)
    phi = np.zeros_like(full.phi)
    n_p2p = n_m2p = 0
    for part in parts:
        res = barnes_hut_gravity(x, m, target_leaves=part, **kw)
        acc += res.acc  # disjoint rows: every sum is x + 0
        phi += res.phi
        n_p2p += res.n_p2p
        n_m2p += res.n_m2p
    assert np.array_equal(acc, full.acc)
    assert np.array_equal(phi, full.phi)
    assert (n_p2p, n_m2p) == (full.n_p2p, full.n_m2p)
    # The parts can also fill one shared pair in place (``out``).
    out = (np.zeros_like(full.acc), np.zeros_like(full.phi))
    for part in parts:
        res = barnes_hut_gravity(x, m, target_leaves=part, out=out, **kw)
        assert res.acc is out[0] and res.phi is out[1]
    assert np.array_equal(out[0], full.acc)
    assert np.array_equal(out[1], full.phi)


def _leaf_list_lengths(tree, moments, theta):
    """``(M2P, P2P)`` list length of every target leaf, from the numpy
    walk: accepted nodes, and particles of the opened source leaves."""
    node_size = 2.0 * tree.half.max(axis=1)
    far_lens, near_lens = [], []
    for leaf in np.nonzero(tree.is_leaf() & (tree.node_counts() > 0))[0]:
        far, near = _leaf_sources(tree, moments.com, node_size, theta, leaf)
        far_lens.append(far.size)
        near_lens.append(int((tree.pend[near] - tree.pstart[near]).sum()))
    return np.array(far_lens), np.array(near_lens)


def _dense_clump(rng, n_clump=1200, n_halo=300):
    """A clump 100x denser than its halo: its leaves open hundreds of
    clump particles each."""
    def ball(n, radius):
        u = rng.normal(size=(n, 3))
        return u * (radius * rng.random(n) ** (1 / 3) / np.linalg.norm(u, axis=1))[:, None]

    x = np.vstack([ball(n_clump, 0.01), ball(n_halo, 1.0)])
    return x, rng.uniform(0.5, 1.5, x.shape[0])


@pytest.mark.parametrize("softening", [0.0, 0.03])
@pytest.mark.parametrize("order", [0, 2, 3, 4])
def test_compiled_error_against_direct_is_the_reference_error(
    compiled_ops, rng, order, softening
):
    """The packed, lane-blocked sums move results at roundoff only: the
    error against direct summation is the numpy walk's to 1e-9."""
    x, m = _isothermal_sphere(rng)
    a_exact, _ = direct_gravity(x, m, softening=softening)
    kw = dict(theta=0.6, order=order, softening=softening, leaf_size=16)
    errors = []
    for ops in (None, compiled_ops):
        res = barnes_hut_gravity(x, m, ops=ops, **kw)
        errors.append(np.mean(
            np.linalg.norm(res.acc - a_exact, axis=1) / np.linalg.norm(a_exact, axis=1)
        ))
    assert errors[1] == pytest.approx(errors[0], rel=1e-9)


def test_compiled_gravity_on_and_off_whole_lane_blocks(compiled_ops, rng):
    """Interaction lists of every length modulo the lane count (8), on
    both lists, and at theta -> 0 P2P lists of all n particles — n = 64
    fills whole blocks, n = 67 does not.  Padding adds exact zeros, so
    each agrees with numpy at 1e-12, counts exact."""
    x, m = _isothermal_sphere(rng)
    tree = Octree.build(x, leaf_size=16)
    for lens in _leaf_list_lengths(tree, compute_node_moments(tree, x, m), 0.5):
        assert set(lens % 8) == set(range(8))
    cases = [(x, m, 0.5)] + [(*_isothermal_sphere(rng, n), 1e-6) for n in (64, 67)]
    for x, m, theta in cases:
        kw = dict(theta=theta, order=4, softening=0.0, leaf_size=16)
        ref = barnes_hut_gravity(x, m, **kw)
        got = barnes_hut_gravity(x, m, ops=compiled_ops, **kw)
        assert (got.n_p2p, got.n_m2p) == (ref.n_p2p, ref.n_m2p)
        assert _scaled_err(got.acc, ref.acc) < 1e-12
        assert _scaled_err(got.phi, ref.phi) < 1e-12


def test_compiled_gravity_lists_outgrow_their_first_allocation(compiled_ops, rng):
    from repro.backend.csrc import GRAVITY_LIST_CAP0

    x, m = _dense_clump(rng)
    tree = Octree.build(x, leaf_size=16)
    mom = compute_node_moments(tree, x, m, order=4)
    _, near_lens = _leaf_list_lengths(tree, mom, 0.5)
    assert near_lens.max() > 2 * GRAVITY_LIST_CAP0
    kw = dict(theta=0.5, order=4, softening=0.0, tree=tree, moments=mom)
    ref = barnes_hut_gravity(x, m, **kw)
    got = barnes_hut_gravity(x, m, ops=compiled_ops, **kw)
    assert (got.n_p2p, got.n_m2p) == (ref.n_p2p, ref.n_m2p)
    assert _scaled_err(got.acc, ref.acc) < 1e-12
    assert _scaled_err(got.phi, ref.phi) < 1e-12


# ----------------------------------------------------------------------
# Node moments: the compiled one-pass op against the numpy prefix sums
# ----------------------------------------------------------------------
MOMENT_FIELDS = ("mass", "com", "m2", "m3", "m4")


@pytest.mark.parametrize("order", [0, 2, 3, 4])
@pytest.mark.parametrize("case", ["sphere", "lattice", "one-particle-leaves", "n=1"])
def test_compiled_node_moments_are_the_numpy_arrays(compiled_ops, rng, case, order):
    leaf_size = 16
    if case == "one-particle-leaves":
        x, m = _isothermal_sphere(rng, 200)
        leaf_size = 1
    elif case == "n=1":
        x, m = rng.normal(size=(1, 3)), np.array([1.7])
    else:
        x, m = CLOUDS[case](rng)
    tree = Octree.build(x, leaf_size=leaf_size)
    ref = compute_node_moments(tree, x, m, order=order)
    got = compute_node_moments(tree, x, m, order=order, ops=compiled_ops)
    assert got.order == ref.order
    for name in MOMENT_FIELDS:
        want = getattr(ref, name)
        if want is None:
            assert getattr(got, name) is None, name
        else:
            assert np.array_equal(getattr(got, name), want), name


def test_compiled_gravity_ops_reject_particles_of_another_tree(compiled_ops, rng):
    """The ops read x and m through the tree's permutation: arrays of any
    other length are refused before a pointer reaches C."""
    x, m = _isothermal_sphere(rng, 300)
    tree = Octree.build(x, leaf_size=16)
    mom = compute_node_moments(tree, x, m, order=2)
    with pytest.raises(ValueError, match="300-particle"):
        compute_node_moments(tree, x[:-1], m[:-1], order=2, ops=compiled_ops)
    with pytest.raises(ValueError, match="300-particle"):
        barnes_hut_gravity(x, m[:-1], order=2, tree=tree, moments=mom, ops=compiled_ops)


class _OpsMustNotRun:
    """A compiled table that must not be dispatched to."""

    def gravity(self, *args):  # pragma: no cover - must not be reached
        raise AssertionError("dispatched a planar problem to the 3-D op")

    def node_moments(self, *args):  # pragma: no cover - must not be reached
        raise AssertionError("dispatched planar moments to the 3-D op")


def test_gravity_falls_back_to_numpy(rng):
    # The op is 3-D only: a planar problem stays on the reference even
    # when a compiled table is handed over.
    x2 = rng.random((200, 2))
    ref2 = barnes_hut_gravity(x2, np.ones(200), order=2, leaf_size=8)
    got2 = barnes_hut_gravity(
        x2, np.ones(200), order=2, leaf_size=8, ops=_OpsMustNotRun()
    )
    assert ref2.n_m2p > 0
    assert np.array_equal(got2.acc, ref2.acc)


def test_node_moments_fall_back_to_numpy(rng, rp_calls):
    """Planar input with a compiled table, and 3-D input without one,
    both take the numpy prefix sums — no call reaches the library."""
    x2 = rng.random((200, 2))
    tree2 = Octree.build(x2, leaf_size=8)
    ref2 = compute_node_moments(tree2, x2, np.ones(200), order=4)
    got2 = compute_node_moments(tree2, x2, np.ones(200), order=4, ops=_OpsMustNotRun())
    x3, m3 = _isothermal_sphere(rng, 300)
    tree3 = Octree.build(x3, leaf_size=16)
    ref3 = compute_node_moments(tree3, x3, m3, order=4)
    got3 = compute_node_moments(tree3, x3, m3, order=4, ops=None)
    for ref, got in ((ref2, got2), (ref3, got3)):
        for name in MOMENT_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert rp_calls == []
