"""Essential numerical range of a block diagonal operator.

Primary route: the essential numerical range equals the convex hull of the
closed limit superior of the block ranges.  Independent route, used as a
crosscheck: it also equals the intersection over k of the convex hulls of
the whole-tail unions starting at k.  Both are computed and their Hausdorff
gap is reported; a gap beyond ten times the combined tolerance signals an
implementation bug and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .blockop import (
    DEFAULT_EPS,
    DEFAULT_K_CAP,
    BlockOperatorSpec,
    VanishingTail,
    limsup_ranges,
    tail_union,
)
from .convex2d import (
    DEFAULT_GRID,
    ConvexRegion,
    PointCloud,
    hausdorff,
    intersect_regions,
)
from .errors import InconsistentResult, NoConvergence
from .linalg import DEFAULT_EIG_TOL

_GAP_FACTOR = 10.0


@dataclass(frozen=True)
class EssentialRangeResult:
    """Essential numerical range with its supporting evidence.

    ``region`` is the hull of the sampled limsup cloud; ``crosscheck_gap``
    is the Hausdorff distance to the independently computed intersection of
    tail-union hulls; ``tolerance`` combines the cloud resolution, the
    stabilisation threshold and a floating-point floor.
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


def _start_schedule(
    spec: BlockOperatorSpec, converged_at: int, eps: float, k_cap: int
) -> list[int]:
    """Window starts for the intersection route: doubling up to convergence,
    plus (for vanishing tails) a start deep enough that the perturbations
    have shrunk below the stabilisation threshold.  That start raises
    NoConvergence beyond ``k_cap``; it is compared in log space, so a tiny
    decay power cannot overflow."""
    ks = {1, converged_at}
    k = 2
    while k < converged_at:
        ks.add(k)
        k *= 2
    t = spec.tail
    if isinstance(t, VanishingTail) and t.decay_scale > 0:
        ratio = t.decay_scale / eps
        # the decay evaluates float(n) ** -p, so a usable start is also a
        # finite float; 2**1000 keeps ratio ** (1 / p) clear of overflow
        cap = min(k_cap, 2.0**1000)
        if ratio > 1 and math.log(ratio) / t.decay_power > math.log(cap):
            raise NoConvergence(
                f"perturbations c * n^-p stay above eps {eps} beyond the window "
                f"start cap {k_cap}"
            )
        deep = math.ceil(ratio ** (1.0 / t.decay_power)) + 1
        ks.add(max(deep, converged_at))
    return sorted(ks)


def essential_numerical_range(
    spec: BlockOperatorSpec,
    grid: int = DEFAULT_GRID,
    eps: float = DEFAULT_EPS,
    k_cap: int = DEFAULT_K_CAP,
    horizon: int | None = None,
    tol: float = DEFAULT_EIG_TOL,
) -> EssentialRangeResult:
    """Essential numerical range of the operator described by ``spec``."""
    lim = limsup_ranges(spec, eps, k_cap, grid, horizon, tol)
    region = ConvexRegion.from_points(lim.cloud.points, grid)

    inter: ConvexRegion | None = None
    for start in _start_schedule(spec, lim.converged_at, eps, k_cap):
        window = tail_union(spec, start, horizon, grid, tol)
        hull = ConvexRegion.from_points(window.points, grid)
        inter = hull if inter is None else intersect_regions(inter, hull)
    assert inter is not None
    gap = float(hausdorff(region, inter))

    tolerance = lim.cloud.resolution + eps + 1e-9 * spec.norm_bound
    _consistency_gate(gap, tolerance, "essential range")
    return EssentialRangeResult(
        region, lim.cloud, gap, lim.certificate, tolerance, lim.converged_at
    )


def translate_spec(spec: BlockOperatorSpec, z: complex) -> BlockOperatorSpec:
    """Spec of the translated operator T - z: every block picks up -z * I."""
    return replace(spec, shift=spec.shift + complex(z))
