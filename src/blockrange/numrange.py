"""Numerical range of a single matrix via rotated-Hermitian support probing.

For each grid direction theta the largest eigenvalue of
H(theta) = (e^{-i theta} A + e^{i theta} A*) / 2 is the support value of
W(A) in that direction, and the Rayleigh quotient of its eigenvector is an
attained boundary point.  The outer region is carved from the support
values, the inner region is the hull of the attained points, and the gap
between them bounds the discretisation error.

Antipodal directions share one eigensolve: H(theta + pi) = -H(theta), so
the support at theta + pi is -lam_min(H(theta)) and the Rayleigh quotient
of the bottom eigenvector is its attained point.  On an even grid only the
first half of the directions is solved; the second half is read from the
smallest eigenpairs of the same matrices.  An odd grid has no antipodal
pairs, so all of its directions are solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex2d import DEFAULT_GRID, ConvexRegion, grid_angles, hausdorff
from .linalg import DEFAULT_EIG_TOL, ComplexMatrix, max_eigenpairs_batch


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


def numerical_range(
    a: ComplexMatrix,
    grid: int = DEFAULT_GRID,
    tol: float = DEFAULT_EIG_TOL,
) -> NumericalRangeResult:
    """Inner/outer approximation of W(A) on a ``grid``-direction angle grid.

    Pure: every call computes a fresh result.  Repeated block ranges of one
    operator are memoised by ``BlockOperatorSpec.range_of``.
    """
    if a.dim == 1:
        z = complex(a.entries[0, 0])
        region = ConvexRegion._build(np.array([z]), grid)
        return NumericalRangeResult(region, region, 0.0, np.full(grid, z))
    # grid / 2 solves on an even grid, whose rows m + j are the antipodes
    # j + grid / 2; all grid directions on an odd one
    solved = grid // (2 - grid % 2)
    phases = np.exp(-1j * grid_angles(grid)[:solved])
    rot = phases[:, None, None] * a.entries[None, :, :]
    hmats = (rot + rot.conj().transpose(0, 2, 1)) / 2.0
    lams, vecs, _ = max_eigenpairs_batch(hmats, tol)
    lams, vecs = lams[:grid], vecs[:grid]
    attained = np.einsum("ki,ij,kj->k", vecs.conj(), a.entries, vecs)
    outer = ConvexRegion.from_support(lams, grid)
    inner = ConvexRegion.from_points(attained, grid)
    return NumericalRangeResult(outer, inner, hausdorff(inner, outer), attained)
