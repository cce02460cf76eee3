"""Independent inner witnesses for the essential numerical range.

Values of the quadratic form along vectors supported on far-out blocks
land in the essential numerical range: a convex combination of Rayleigh
values of finitely many distinct blocks beyond any start index is realised
by a unit vector supported arbitrarily deep in the tail.  Sampling such
combinations gives an inner approximation that shares no machinery with
the support-function pipeline, which is what makes it a useful crosscheck.

Three points per combination suffice: in the plane, any point of a convex
hull is already a combination of at most three of the generating points.
"""

from __future__ import annotations

import numpy as np

from .blockop import BlockOperatorSpec, VanishingTail
from .convex2d import PointCloud
from .errors import ValidationError
from .linalg import rayleigh

DEFAULT_SAMPLES = 2000
DEFAULT_WINDOW = 256


def inner_approximate(
    spec: BlockOperatorSpec,
    start: int | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    window: int = DEFAULT_WINDOW,
) -> PointCloud:
    """Cloud of sampled essential values beyond ``start``.

    Each sample combines three distinct blocks from the index window
    [start, start + window) with Dirichlet-like weights and random unit
    vectors.  For a vanishing tail the perturbations still present at the
    window contribute to the cloud's resolution; otherwise the samples are
    genuine members up to floating point.
    """
    if start is None:
        start = spec.prefix_len + 1
    if start < 1:
        raise ValidationError(f"start must be >= 1, got {start}")
    if samples < 1 or window < 3:
        raise ValidationError("need at least one sample and a window of >= 3 blocks")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)

    blocks = [spec.block(n) for n in range(start, start + window)]
    if start > spec.prefix_len and all(blk.dim == 1 for blk in blocks):
        vals = np.array([blk.entries[0, 0] for blk in blocks])
        kth = min(3, window - 1)
        idx = np.argpartition(rng.random((samples, window)), kth, axis=1)[:, :3]
        raw = rng.exponential(size=(samples, 3))
        wts = raw / raw.sum(axis=1, keepdims=True)
        pts = (wts * vals[idx]).sum(axis=1)
    else:
        pts = np.empty(samples, dtype=np.complex128)
        for s in range(samples):
            offs = rng.choice(window, size=3, replace=False)
            raw = rng.exponential(size=3)
            wts = raw / raw.sum()
            val = 0j
            for wi, off in zip(wts, offs):
                blk = blocks[int(off)]
                x = rng.standard_normal(blk.dim) + 1j * rng.standard_normal(blk.dim)
                x = x / np.linalg.norm(x)
                val += wi * rayleigh(blk, x)
            pts[s] = val

    resolution = 1e-12 * spec.norm_bound
    if isinstance(spec.tail, VanishingTail):
        resolution += spec.tail.decay(max(start, spec.prefix_len + 1))
    return PointCloud(pts, resolution)

