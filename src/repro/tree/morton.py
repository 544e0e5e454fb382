"""Space-filling-curve keys: Morton (Z-order) and Hilbert.

Both the Barnes-Hut octree (Algorithm 1, step 1) and the SFC domain
decomposition of ChaNGa (Table 3) are built on 64-bit particle keys.  Keys
use 21 bits per axis in 3-D (63 bits) and 31 bits per axis in 2-D, computed
with branch-free magic-number bit spreading so the whole particle set is
encoded in a handful of vectorized passes.

Hilbert keys are derived with Skilling's transpose algorithm ("Programming
the Hilbert curve", AIP 2004), vectorized across particles with a loop only
over the ~21 bit levels; unlike Morton order, consecutive Hilbert keys are
always spatially adjacent, which is why production codes prefer them for
domain decomposition locality.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_BITS_3D",
    "MAX_BITS_2D",
    "normalize_coords",
    "quantize",
    "morton_encode",
    "morton_decode",
    "hilbert_encode",
    "morton_keys",
    "hilbert_keys",
]

MAX_BITS_3D = 21
MAX_BITS_2D = 31


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``x`` so they occupy every third bit."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by2`."""
    x = x.astype(np.uint64) & np.uint64(0x1249249249249249)
    x = (x ^ (x >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    x = (x ^ (x >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    x = (x ^ (x >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    x = (x ^ (x >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    x = (x ^ (x >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return x


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of ``x`` so they occupy every other bit."""
    x = x.astype(np.uint64) & np.uint64(0x7FFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _compact1by1(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by1`."""
    x = x.astype(np.uint64) & np.uint64(0x5555555555555555)
    x = (x ^ (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
    x = (x ^ (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x ^ (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x ^ (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x ^ (x >> np.uint64(16))) & np.uint64(0x7FFFFFFF)
    return x


def normalize_coords(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Map positions into the unit cube ``[0, 1)^dim`` of the box (lo, hi).

    Raises ``ValueError`` naming the first non-finite particle: a NaN has
    no cell, and casting one to an unsigned grid coordinate is undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.nonzero(~finite)[0]
        raise ValueError(
            f"non-finite position: particle {bad[0]} at {x[bad[0]]} "
            f"(first of {np.unique(bad).size})"
        )
    span = hi - lo
    if not np.all(span > 0.0):
        raise ValueError(f"degenerate bounding box: lo={lo}, hi={hi}")
    frac = (x - lo) / span
    # Clamp so particles sitting exactly on the upper face stay inside.
    return np.clip(frac, 0.0, np.nextafter(1.0, 0.0))


def quantize(frac: np.ndarray, bits: int) -> np.ndarray:
    """Quantize unit-cube fractions to ``bits``-bit unsigned grid coords."""
    scale = float(1 << bits)
    grid = np.floor(np.asarray(frac) * scale).astype(np.uint64)
    return np.minimum(grid, np.uint64((1 << bits) - 1))


def morton_encode(grid: np.ndarray) -> np.ndarray:
    """Interleave integer grid coordinates ``(n, dim)`` into Morton keys.

    Axis 0 occupies the most significant bit of each group, so keys sort
    identically to a top-down octree split on x, then y, then z.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=np.uint64))
    dim = grid.shape[1]
    if dim == 3:
        return (
            (_part1by2(grid[:, 0]) << np.uint64(2))
            | (_part1by2(grid[:, 1]) << np.uint64(1))
            | _part1by2(grid[:, 2])
        )
    if dim == 2:
        return (_part1by1(grid[:, 0]) << np.uint64(1)) | _part1by1(grid[:, 1])
    if dim == 1:
        return grid[:, 0].astype(np.uint64)
    raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def morton_decode(keys: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`morton_encode`; returns grid coords ``(n, dim)``."""
    keys = np.asarray(keys, dtype=np.uint64)
    if dim == 3:
        return np.stack(
            [
                _compact1by2(keys >> np.uint64(2)),
                _compact1by2(keys >> np.uint64(1)),
                _compact1by2(keys),
            ],
            axis=1,
        )
    if dim == 2:
        return np.stack(
            [_compact1by1(keys >> np.uint64(1)), _compact1by1(keys)], axis=1
        )
    if dim == 1:
        return keys[:, None].copy()
    raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def _axes_to_transpose(grid: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's AxesToTranspose, vectorized over points.

    Converts grid coordinates to the "transposed" Hilbert representation in
    place-order; interleaving the result yields the Hilbert index.
    """
    x = np.asarray(grid, dtype=np.uint64).copy()
    npts, ndim = x.shape
    m = np.uint64(1) << np.uint64(bits - 1)

    # Inverse undo excess work.
    q = m
    one = np.uint64(1)
    while q > one:
        p = q - one
        for i in range(ndim):
            flip = (x[:, i] & q) != 0
            # Invert the primary axis where the bit is set...
            x[flip, 0] ^= p
            # ...and exchange low bits with the primary axis elsewhere.
            t = (x[~flip, 0] ^ x[~flip, i]) & p
            x[~flip, 0] ^= t
            x[~flip, i] ^= t
        q >>= one

    # Gray encode.
    for i in range(1, ndim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(npts, dtype=np.uint64)
    q = m
    while q > one:
        sel = (x[:, ndim - 1] & q) != 0
        t[sel] ^= q - one
        q >>= one
    for i in range(ndim):
        x[:, i] ^= t
    return x


def hilbert_encode(grid: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert keys for integer grid coordinates ``(n, dim)``."""
    grid = np.atleast_2d(np.asarray(grid, dtype=np.uint64))
    dim = grid.shape[1]
    if dim == 1:
        return grid[:, 0].astype(np.uint64)
    transposed = _axes_to_transpose(grid, bits)
    return morton_encode(transposed)


def morton_keys(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int | None = None
) -> np.ndarray:
    """Morton keys for positions ``x`` within the bounding box (lo, hi)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dim = x.shape[1]
    if bits is None:
        bits = MAX_BITS_3D if dim == 3 else MAX_BITS_2D
    return morton_encode(quantize(normalize_coords(x, lo, hi), bits))


def hilbert_keys(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int | None = None
) -> np.ndarray:
    """Hilbert keys for positions ``x`` within the bounding box (lo, hi)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dim = x.shape[1]
    if bits is None:
        bits = MAX_BITS_3D if dim == 3 else MAX_BITS_2D
    return hilbert_encode(quantize(normalize_coords(x, lo, hi), bits), bits)
