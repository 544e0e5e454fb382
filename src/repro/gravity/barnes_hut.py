"""Barnes-Hut tree gravity (Algorithm 1, step 4).

Group-based traversal: the targets are the octree's leaf buckets, and for
each (leaf, source-node) pair the geometric multipole acceptance
criterion

    size(source) <= theta * dist(leaf AABB, source COM)

decides between far-field evaluation (M2P with the configured multipole
order — quadrupole for SPHYNX's "4-pole", hexadecapole for ChaNGa's
"16-pole"), opening the source, or — for source leaves — direct
particle-particle summation with Plummer softening.

Each target leaf is walked on its own and its interactions are summed
into its particles before the next leaf starts, so nothing is staged
between leaves and a leaf's sums depend on that leaf alone — any
partition of the leaves (``target_leaves``) reproduces the full result.
The loop below is the numpy reference; a compiled backend runs the same
walk and MAC per leaf in one call (``ops.gravity``), collecting the
leaf's accepted nodes and source particles into two interaction lists
that each of its particles sums in vectorised lane loops.

Interaction counts (P2P pairs, M2P evaluations) are returned; the cluster
cost model uses them to charge gravity work per rank.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..tree.box import Box
from ..tree.neighborlist import sum_of_squares
from ..tree.octree import LEAF_SIZE, Octree, expand_ranges
from .multipole import NodeMoments, compute_node_moments, evaluate_multipoles

__all__ = ["GravityResult", "barnes_hut_gravity", "potential_energy"]


@dataclass(frozen=True)
class GravityResult:
    """Accelerations, potentials and interaction statistics."""

    acc: np.ndarray
    phi: np.ndarray
    n_p2p: int
    n_m2p: int
    #: Which rendering ran: ``"numpy"`` or the compiled backend's name.
    path: str = "numpy"

    def potential_energy(self, m: np.ndarray) -> float:
        """Total gravitational energy ``1/2 sum_i m_i phi_i``."""
        return float(0.5 * np.sum(np.asarray(m) * self.phi))


def _leaf_sources(
    tree: Octree, com: np.ndarray, node_size: np.ndarray, theta: float, leaf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sources of one target leaf: ``(accepted nodes, opened source leaves)``."""
    center, half = tree.center[leaf], tree.half[leaf]
    far: list[np.ndarray] = []
    near: list[np.ndarray] = []
    front = np.zeros(1, dtype=np.int64)  # start at the root
    while front.size:
        # Distance from the target leaf's AABB to the source COM.
        excess = np.maximum(np.abs(com[front] - center) - half, 0.0)
        dist = np.sqrt(sum_of_squares(excess))
        accept = (node_size[front] <= theta * dist) & (dist > 0.0)
        far.append(front[accept])
        rest = front[~accept]
        src_leaf = tree.child_count[rest] == 0
        near.append(rest[src_leaf])
        opened = rest[~src_leaf]
        front = expand_ranges(tree.child_start[opened], tree.child_count[opened])
    return np.concatenate(far), np.concatenate(near)


def barnes_hut_gravity(
    x: np.ndarray,
    m: np.ndarray,
    *,
    g_const: float = 1.0,
    softening: float = 0.0,
    theta: float = 0.5,
    order: int = 2,
    tree: Octree | None = None,
    leaf_size: int = LEAF_SIZE,
    box: Box | None = None,
    moments: NodeMoments | None = None,
    target_leaves: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    ops=None,
) -> GravityResult:
    """Tree-code gravity for all particles.

    Parameters
    ----------
    theta:
        Geometric opening angle; smaller is more accurate (0 degenerates
        to direct summation).
    order:
        Highest multipole rank: 0 (monopole), 2 (quadrupole / "4-pole"),
        3 (octupole) or 4 (hexadecapole / "16-pole").
    tree, moments:
        Reuse a pre-built tree/moments (e.g. the one neighbour search
        built this step — the co-design point of sharing the tree between
        SPH and gravity).
    target_leaves:
        Restrict the walk to this subset of target leaf nodes (global
        node indices).  Only particles in those leaves receive
        accelerations/potentials; a leaf's walk and sums involve no other
        target leaf, so partitioning the leaves over threads
        (:mod:`repro.core.phase_executor`) reproduces the full walk
        bit-for-bit.
    out:
        Zero-filled ``(acc, phi)`` arrays of all ``n`` particles: the
        walk writes its target rows there and returns them, so slices
        of the leaves fill one shared pair.
    ops:
        A compiled op table (``Backend.ops``).  In 3-D every leaf's
        walk, M2P and P2P run there — same MAC arithmetic, hence the
        same interactions and counts, sums equal to rounding — and so do
        the node moments when ``moments`` is not given (bit for bit);
        otherwise (``None``, or ``dim != 3``) the numpy loop below runs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = np.asarray(m, dtype=np.float64)
    n, dim = x.shape
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if box is not None and bool(np.any(box.periodic)):
        raise ValueError("periodic gravity is not supported (open boundaries only)")
    if tree is None:
        tree = Octree.build(x, box, leaf_size=leaf_size)
    if bool(np.any(tree.box.periodic)):
        raise ValueError("periodic gravity is not supported (open boundaries only)")
    if moments is None:
        moments = compute_node_moments(tree, x, m, order=order, ops=ops)
    elif moments.order < order:
        raise ValueError(
            f"provided moments have order {moments.order} < requested {order}"
        )

    if target_leaves is None:
        leaves = np.nonzero(tree.is_leaf() & (tree.node_counts() > 0))[0]
    else:
        leaves = np.asarray(target_leaves, dtype=np.int64)
    eps2 = float(softening) ** 2
    if ops is not None and dim == 3:
        return GravityResult(
            *ops.gravity(
                tree, x, m, moments, leaves, order, theta, g_const, eps2, out
            ),
            path=ops.name,
        )

    node_size = 2.0 * tree.half.max(axis=1)
    held = (moments.m2, moments.m3, moments.m4)
    acc, phi = (np.zeros((n, dim)), np.zeros(n)) if out is None else out
    n_m2p = n_p2p = 0
    for leaf in leaves:
        far, near = _leaf_sources(tree, moments.com, node_size, theta, leaf)
        tgt = tree.order[tree.pstart[leaf] : tree.pend[leaf]]
        xt = x[tgt][:, None, :]
        if far.size:
            # M2P: (targets, nodes) far-field terms, summed over the nodes.
            a_far, phi_far = evaluate_multipoles(
                xt - moments.com[far],
                moments.mass[far],
                *(None if mk is None else mk[far] for mk in held),
                order,
                g_const,
            )
            acc[tgt] += a_far.sum(axis=1)
            phi[tgt] += phi_far.sum(axis=1)
            n_m2p += tgt.size * far.size
        if near.size:
            # P2P: (targets, sources) Plummer-softened pairs, summed over
            # the sources; a particle exerts nothing on itself.
            counts = tree.pend[near] - tree.pstart[near]
            src = tree.order[expand_ranges(tree.pstart[near], counts)]
            d = xt - x[src]
            r2 = np.einsum("tsd,tsd->ts", d, d) + eps2
            with np.errstate(divide="ignore"):
                inv_r = 1.0 / np.sqrt(r2)
            inv_r[tgt[:, None] == src] = 0.0
            gm = g_const * m[src]
            acc[tgt] -= np.einsum("ts,tsd->td", gm * inv_r**3, d)
            phi[tgt] -= (gm * inv_r).sum(axis=1)
            n_p2p += tgt.size * src.size
    return GravityResult(acc=acc, phi=phi, n_p2p=n_p2p, n_m2p=n_m2p)


def potential_energy(phi: np.ndarray, m: np.ndarray) -> float:
    """Gravitational energy ``1/2 sum m_i phi_i`` (pairwise-consistent)."""
    return float(0.5 * np.sum(np.asarray(m) * np.asarray(phi)))
