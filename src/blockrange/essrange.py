"""Essential numerical range of a block diagonal operator.

Primary route: the essential numerical range equals the convex hull of the
closed limit superior of the block ranges.  A second route checks it, and
their disagreement is reported as ``crosscheck_gap``; a gap beyond ten times
the combined tolerance signals an implementation bug and raises.

For a limit-block tail (periodic, or vanishing to its limits) the limsup
is known exactly, the limit blocks L_k, so the support of W_e in direction
theta is max_k lambda_max(Re(e^{-i theta} L_k)), the top of the essential
spectrum of Re(e^{-i theta} T) (Fillmore, Stampfli and Williams 1972).  The
second route compares those eigenvalues with the region's support at the
grid directions, which checks the hull and the choice of blocks.  It also
checks the block generator on one round of tail blocks through the
Lipschitz law |h_{W(B_n)} - h_{W(L_n)}| <= decay(n) (Weyl); without decay
those blocks are the limits themselves, and cost only memo hits.

A builtin tail states its essential range in closed form.  The dense-angle
diagonal is normal and its entries are dense in the unit circle, so W_e is
the closed unit disc about -shift, whatever the prefix, with support
1 - Re(e^{-i theta} shift).  The second route compares that with the
region's support at the grid directions, both ways: the region lies in the
disc, so an excess is rounding, and a deficit is the sampling's covering
error.  It builds no window, no hull and intersects nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blockop import (
    DEFAULT_EPS,
    DEFAULT_K_CAP,
    BlockOperatorSpec,
    BuiltinTail,
    VanishingTail,
    limsup_ranges,
)
from .convex2d import DEFAULT_GRID, ConvexRegion, PointCloud, grid_angles
from .errors import InconsistentResult, NoConvergence

_GAP_FACTOR = 10.0


@dataclass(frozen=True)
class EssentialRangeResult:
    """Essential numerical range with its supporting evidence.

    ``region`` is the hull of the limsup cloud.  ``crosscheck_gap`` is its
    disagreement with the second route: for limit-block tails the largest
    grid-direction difference from the support function of the limit
    blocks (plus any excess of the tail blocks over the Lipschitz law), for
    builtin tails the largest grid-direction difference from the support of
    the family's closed-form essential range, shifted.
    ``tolerance`` combines the cloud resolution, the stabilisation
    threshold and a floating-point floor.
    """

    region: ConvexRegion
    limsup: PointCloud
    crosscheck_gap: float
    certificate: tuple[tuple[int, float], ...]
    tolerance: float
    converged_at: int


def _consistency_gate(gap: float, tolerance: float, what: str) -> None:
    if gap > _GAP_FACTOR * tolerance:
        raise InconsistentResult(
            f"{what}: routes disagree by {gap:.3e}, more than {_GAP_FACTOR} x "
            f"tolerance {tolerance:.3e}"
        )


def _check_reach(tail: VanishingTail, eps: float, k_cap: int) -> None:
    """Raise NoConvergence when the perturbations c * n^-p stay above
    ``eps`` beyond block ``k_cap``, before any tail block is built.  The
    test is made in log space, so a tiny decay power cannot overflow."""
    if tail.decay_scale == 0:
        return
    ratio = tail.decay_scale / eps
    # the decay evaluates float(n) ** -p, so a usable block index is also a
    # finite float; 2**1000 keeps ratio ** (1 / p) clear of overflow
    cap = min(k_cap, 2.0**1000)
    if ratio > 1 and math.log(ratio) / tail.decay_power > math.log(cap):
        raise NoConvergence(
            f"perturbations c * n^-p stay above eps {eps} beyond the window "
            f"start cap {k_cap}"
        )


def _limit_gap(spec: BlockOperatorSpec, region: ConvexRegion, grid: int) -> float:
    """The support route of a limit-block tail: the largest grid-direction
    difference between the support of ``region`` and the largest outer
    support (lambda_max) of the shifted limit blocks, raised by how far the
    tail blocks B_n, n = k0 .. k0 + len(limits) - 1, exceed the law
    |h_{W(B_n)} - h_{W(L_n)}| <= decay(n) + 1e-9 * norm_bound."""
    t = spec.tail
    k0 = spec.prefix_len + 1
    limits = spec.ranges_of([spec.apply_shift(m) for m in t.limits], grid)
    ns = range(k0, k0 + len(t.limits))
    blocks = spec.ranges_of([spec.cached_block(n) for n in ns], grid)
    floor = 1e-9 * spec.norm_bound
    excess = max(
        float(np.abs(b.outer.support - lim.outer.support).max()) - t.decay(n) - floor
        for n, b, lim in zip(ns, blocks, limits)
    )
    h = np.max([lim.outer.support for lim in limits], axis=0)
    return max(float(np.abs(h - region.support).max()), excess)


def essential_numerical_range(
    spec: BlockOperatorSpec,
    grid: int = DEFAULT_GRID,
    eps: float = DEFAULT_EPS,
    k_cap: int = DEFAULT_K_CAP,
) -> EssentialRangeResult:
    """Essential numerical range of the operator described by ``spec``."""
    lim = limsup_ranges(spec, eps, k_cap, grid)
    region = ConvexRegion.from_points(lim.cloud.points, grid)

    if isinstance(spec.tail, BuiltinTail):
        # W_e(T - s) = W_e(T) - s: the support drops by Re(e^{-i theta} s)
        th = grid_angles(grid)
        h = spec.tail.essential_support(th) - (np.exp(-1j * th) * spec.shift).real
        gap = float(np.abs(region.support - h).max())
    else:
        _check_reach(spec.tail, eps, k_cap)
        gap = _limit_gap(spec, region, grid)

    tolerance = lim.cloud.resolution + eps + 1e-9 * spec.norm_bound
    _consistency_gate(gap, tolerance, "essential range")
    return EssentialRangeResult(
        region, lim.cloud, gap, lim.certificate, tolerance, lim.converged_at
    )


def translate_spec(spec: BlockOperatorSpec, z: complex) -> BlockOperatorSpec:
    """Spec of the translated operator T - z: every block picks up -z * I."""
    return replace(spec, shift=spec.shift + complex(z))
