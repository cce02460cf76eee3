"""Numerical ranges of matrices via rotated-Hermitian support probing.

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

A tail window asks for the ranges of many small blocks at once, so the
pipeline runs on stacks of equal-dimension blocks (``numerical_ranges``):
one eigensolve for the whole stack, then the support-line crossings, the
attained points, the ordered-hull certificate, the normal fans, the grid
supports and the sandwich gap as row-wise array passes.  A row whose
polygons do not certify as their own hulls is hulled on its own.  Each row
is computed exactly as a stack of that row alone computes it, and
``numerical_range`` is that one-row case.

Each block B is solved as B * 2^-k, with 2^k the power of two just above
its largest entry modulus, and every result is scaled back by 2^k.  Both
scalings are exact, so the squares in the eigensolve and the geometry
neither overflow nor underflow at any float scale, and W(cB) = c W(B)
holds to rounding for c from 1e-300 to 1e300.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex2d import (
    DEFAULT_GRID,
    ConvexRegion,
    _fan,
    _fan_hausdorff,
    _from_smallest,
    _ordered_rows,
    _support_vertices,
    _supports_of,
    grid_angles,
    hausdorff,
)
from .errors import ValidationError
from .linalg import ComplexMatrix, _pow2_scale, max_eigenpairs_batch

# Rotated Hermitian parts stacked into one eigensolve hold at most this many
# matrix entries (16 bytes each), so that a window of large blocks is solved
# in several stacks instead of one that would raise the peak memory.
_STACK_ENTRIES = 2**18


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


def numerical_range(a: ComplexMatrix, grid: int = DEFAULT_GRID) -> NumericalRangeResult:
    """Inner/outer approximation of W(A) on a ``grid``-direction angle grid.

    Pure: every call computes a fresh result.  Repeated block ranges of one
    operator are memoised by ``BlockOperatorSpec.ranges_of``.
    """
    return numerical_ranges([a], grid)[0]


def numerical_ranges(mats, grid: int = DEFAULT_GRID) -> list[NumericalRangeResult]:
    """``numerical_range`` of every matrix of a sequence of equal-dimension
    ``ComplexMatrix`` blocks, in order, computed as stacks.

    Each result is bit for bit the one ``numerical_range`` gives for its
    block alone.  The blocks are solved in stacks of at most
    ``_STACK_ENTRIES`` matrix entries.
    """
    th = grid_angles(grid)
    mats = list(mats)
    if not mats:
        return []
    n = mats[0].dim
    if any(m.dim != n for m in mats):
        raise ValidationError("numerical_ranges takes blocks of one dimension")
    entries = np.stack([m.entries for m in mats])
    step = max(1, _STACK_ENTRIES // (_solved(grid) * n * n))
    return [
        res
        for lo in range(0, len(mats), step)
        for res in _stack_ranges(entries[lo : lo + step], th)
    ]


def _solved(grid: int) -> int:
    """Directions solved per block: grid / 2 on an even grid, whose rows
    m + j of the eigensolve are the antipodes j + grid / 2; all grid
    directions on an odd one."""
    return grid // (2 - grid % 2)


def _stack_ranges(entries: np.ndarray, th: np.ndarray) -> list[NumericalRangeResult]:
    """Ranges of the (B, n, n) stack ``entries`` on the angle grid ``th``,
    one eigensolve for all."""
    grid = th.size
    count, n = entries.shape[:2]
    if n == 1:
        z = entries[:, 0, 0]
        # every grid direction of a point is supported by the point itself
        support = np.real(np.multiply(z[:, None], np.exp(1j * th).conj()))
        out = []
        for b in range(count):
            region = ConvexRegion(z[b : b + 1], support[b])
            out.append(NumericalRangeResult(region, region, 0.0, np.full(grid, z[b])))
        return out
    scale = _pow2_scale(np.abs(entries).max(axis=(1, 2)))
    entries = entries / scale[:, None, None]
    solved = _solved(grid)
    phases = np.exp(-1j * th[:solved])
    rot = phases[None, :, None, None] * entries[:, None, :, :]
    hmats = (rot + rot.conj().transpose(0, 1, 3, 2)) / 2.0
    del rot
    lams, vecs, _ = max_eigenpairs_batch(hmats.reshape(-1, n, n))
    del hmats
    m = count * solved
    lams = np.concatenate(
        (lams[:m].reshape(count, solved), lams[m:].reshape(count, solved)), axis=1
    )[:, :grid]
    vecs = np.concatenate(
        (vecs[:m].reshape(count, solved, n), vecs[m:].reshape(count, solved, n)), axis=1
    )[:, :grid]
    attained = np.einsum("bki,bij,bkj->bk", vecs.conj(), entries, vecs)
    support_pts = _support_vertices(lams, th)

    ok = _ordered_rows(support_pts) & _ordered_rows(attained)
    if ok.any():
        outer_v, inner_v = _from_smallest(support_pts[ok]), _from_smallest(attained[ok])
        outer_fan, inner_fan = _fan(outer_v), _fan(inner_v)
        outer_h = _supports_of(outer_v, grid, outer_fan)
        inner_h = _supports_of(inner_v, grid, inner_fan)
        gaps = _fan_hausdorff(inner_v, inner_fan, outer_v, outer_fan)
    out = []
    row = 0
    for b in range(count):
        s = float(scale[b])
        if ok[b]:
            outer = ConvexRegion(outer_v[row] * s, outer_h[row] * s)
            inner = ConvexRegion(inner_v[row] * s, inner_h[row] * s)
            gap = float(gaps[row])
            row += 1
        else:
            outer = ConvexRegion.from_support(lams[b])
            inner = ConvexRegion.from_points(attained[b], grid)
            gap = float(hausdorff(inner, outer))
            outer = ConvexRegion(outer.vertices * s, outer.support * s)
            inner = ConvexRegion(inner.vertices * s, inner.support * s)
        out.append(NumericalRangeResult(outer, inner, gap * s, attained[b] * s))
    return out
