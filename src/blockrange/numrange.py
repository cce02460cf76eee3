"""Numerical range of a single matrix via rotated-Hermitian support probing.

For each grid direction theta the largest eigenvalue of
H(theta) = (e^{-i theta} A + e^{i theta} A*) / 2 is the support value of
W(A) in that direction, and the Rayleigh quotient of its eigenvector is an
attained boundary point.  The outer region is carved from the support
values, the inner region is the hull of the attained points, and the gap
between them bounds the discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex2d import DEFAULT_GRID, ConvexRegion, grid_angles, hausdorff
from .errors import EmptyInput
from .linalg import DEFAULT_EIG_TOL, ComplexMatrix, max_eigenpairs_batch

_CACHE_CAP = 512
_range_cache: dict[tuple[bytes, int, float], "NumericalRangeResult"] = {}


@dataclass(frozen=True)
class NumericalRangeResult:
    """Sandwich approximation of a numerical range on an angle grid.

    ``inner`` (hull of attained Rayleigh values) and ``outer`` (halfplane
    region from the support values) satisfy inner <= W(A) <= outer; ``gap``
    is their Hausdorff distance.  ``attained`` holds the per-direction
    boundary witnesses, aligned with the angle grid.
    """

    outer: ConvexRegion
    inner: ConvexRegion
    gap: float
    attained: np.ndarray

    @property
    def grid_size(self) -> int:
        return self.outer.grid_size


def numerical_range(
    a: ComplexMatrix,
    grid: int = DEFAULT_GRID,
    tol: float = DEFAULT_EIG_TOL,
    cache: bool = True,
) -> NumericalRangeResult:
    """Inner/outer approximation of W(A) on a ``grid``-direction angle grid."""
    key = (a.entries.tobytes(), grid, tol)
    if cache:
        hit = _range_cache.get(key)
        if hit is not None:
            return hit

    n = a.dim
    if n == 1:
        z = complex(a.entries[0, 0])
        pt = np.array([z])
        region = ConvexRegion._build(pt, grid)
        result = NumericalRangeResult(region, region, 0.0, np.full(grid, z))
    else:
        th = grid_angles(grid)
        phases = np.exp(-1j * th)
        rot = phases[:, None, None] * a.entries[None, :, :]
        hmats = (rot + rot.conj().transpose(0, 2, 1)) / 2.0
        lams, vecs, _ = max_eigenpairs_batch(hmats, tol)
        attained = np.einsum("ki,ij,kj->k", vecs.conj(), a.entries, vecs)
        outer = ConvexRegion.from_support(lams, grid)
        inner = ConvexRegion.from_points(attained, grid)
        result = NumericalRangeResult(outer, inner, hausdorff(inner, outer), attained)

    if cache:
        if len(_range_cache) >= _CACHE_CAP:
            _range_cache.pop(next(iter(_range_cache)))
        _range_cache[key] = result
    return result


def boundary_point(a: ComplexMatrix, theta: float, tol: float = DEFAULT_EIG_TOL):
    """Support value and attained boundary point of W(A) in one direction."""
    if a.dim == 1:
        z = complex(a.entries[0, 0])
        return float(np.real(z * np.exp(-1j * theta))), z
    phase = np.exp(-1j * theta)
    h = (phase * a.entries + (phase * a.entries).conj().T) / 2.0
    lams, xs, _ = max_eigenpairs_batch(h[None, :, :], tol)
    x = xs[0]
    return float(lams[0]), complex(np.vdot(x, a.entries @ x))


def block_numerical_range(
    blocks,
    grid: int = DEFAULT_GRID,
    tol: float = DEFAULT_EIG_TOL,
) -> ConvexRegion:
    """Numerical-range hull of a finite block diagonal: conv of the block ranges.

    Uses the attained (inner) polygons of the individual blocks, so the
    result is an inner approximation whose defect is bounded by the largest
    per-block sandwich gap.
    """
    blocks = list(blocks)
    if not blocks:
        raise EmptyInput("need at least one block")
    pts = []
    for blk in blocks:
        res = numerical_range(blk, grid, tol)
        pts.append(res.inner.vertices)
    return ConvexRegion.from_points(np.concatenate(pts), grid)


def clear_cache() -> None:
    _range_cache.clear()
