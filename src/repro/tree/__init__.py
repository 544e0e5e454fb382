"""Tree and neighbour-search substrate (Algorithm 1, steps 1-2).

Morton/Hilbert space-filling-curve keys, a linear Barnes-Hut octree with a
vectorized tree-walk neighbour search (the paper-faithful path, Table 1
"Tree Walk"), a uniform cell-grid fast path, and the CSR neighbour-list
container every SPH kernel consumes.
"""

from .._lazy import lazy_exports

__all__ = [
    "Box",
    "CellGrid",
    "cell_grid_search",
    "NeighborList",
    "Octree",
    "morton_encode",
    "morton_decode",
    "morton_keys",
    "hilbert_encode",
    "hilbert_keys",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".box": ("Box",),
    ".cellgrid": ("CellGrid", "cell_grid_search"),
    ".morton": (
        "hilbert_encode", "hilbert_keys", "morton_decode", "morton_encode",
        "morton_keys",
    ),
    ".neighborlist": ("NeighborList",),
    ".octree": ("Octree",),
})
