"""Regrouping consecutive blocks so no convex hull is needed.

The essential numerical range of a block diagonal operator is the hull of
the limsup of the block ranges.  After translating so that the origin lies
in the non-extreme part of the range, distinct extreme points have
distinct angles, and consecutive blocks can be merged into growing groups
whose own (automatically convex) numerical ranges converge to the
essential numerical range directly: level m splits the circle into m angle
buckets, picks one extreme point per bucket, and extends the current group
until it contains a block whose range passes close to every pick.  The
translation only places the buckets: W(B - z) = W(B) - z, so the scan and
the group ranges use the untranslated blocks, whose ranges the essential
range has already memoised on the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockop import BlockOperatorSpec, _attained_vertices, _remember
from .convex2d import DEFAULT_GRID, ConvexRegion, _diameter_pair, extreme_points, hausdorff
from .errors import DegenerateGeometry, ScanExhausted, ValidationError
from .essrange import EssentialRangeResult

DEFAULT_REGROUP_EPS = 1e-2
DEFAULT_DEPTH = 64
DEFAULT_SCAN_CAP = 10**6
# A scan of a scalar tail fetches its values in chunks that double from
# _FIRST_CHUNK up to _SCAN_CHUNK, so that an early hit builds few values.
_FIRST_CHUNK = 16
_SCAN_CHUNK = 4096
# A translation must leave the extreme points at least this far apart in
# angle, in radians.
_ANGULAR_TOL = 1e-7


# -- translation choice -------------------------------------------------


@dataclass(frozen=True)
class TranslationChoice:
    """Shift ``z`` to apply to the operator, with the certified angle margin.

    After the shift the origin lies in the non-extreme part of the range
    and the extreme points all have distinct angles; ``angular_margin`` is
    the smallest circular gap between those angles.
    """

    z: complex
    reason: str
    angular_margin: float


def _angle_margin(points: np.ndarray, scale: float) -> float | None:
    """Min circular angle gap of the points, or None if one sits at 0."""
    if np.min(np.abs(points)) <= 1e-9 * scale:
        return None
    ang = np.sort(np.mod(np.angle(points), 2.0 * np.pi))
    if ang.size == 1:
        return 2.0 * np.pi
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    return float(gaps.min())


def choose_translation(region: ConvexRegion) -> TranslationChoice:
    """Pick a translation putting 0 inside the region, away from extremes.

    Singletons translate onto themselves (or off the origin); otherwise the
    midpoint of a diameter-realising pair of extreme points is used, nudged
    along that diameter if it lands on the origin or too close to an
    extreme point.  Raises DegenerateGeometry when no candidate certifies
    an angular margin above ``_ANGULAR_TOL``.
    """
    ext = extreme_points(region).points
    diam = region.diameter
    if diam <= 1e-12 * np.abs(ext).max():
        if ext[0] != 0:
            return TranslationChoice(0.0, "identity", 2.0 * np.pi)
        return TranslationChoice(-1.0, "origin_singleton", 2.0 * np.pi)

    i, j = _diameter_pair(ext)
    w1, w2 = complex(ext[i]), complex(ext[j])
    if (w2.real, w2.imag) < (w1.real, w1.imag):
        w1, w2 = w2, w1
    mid = (w1 + w2) / 2.0
    step = (w2 - w1) / 4.0
    scale = max(diam, float(np.abs(ext).max()))

    for z in (mid, mid + step, mid - step, mid + step / 2.0, mid - step / 2.0):
        if abs(z) <= 1e-12 * scale:
            continue  # a no-op translation cannot move the origin inward
        shifted = ext - z
        if np.min(np.abs(shifted)) <= 1e-9 * scale:
            continue  # origin would sit on an extreme point
        margin = _angle_margin(shifted, scale)
        if margin is not None and margin > _ANGULAR_TOL:
            return TranslationChoice(z, "diameter_midpoint", margin)
    raise DegenerateGeometry(
        f"no translation candidate certified an angle margin above {_ANGULAR_TOL}"
    )


# -- decomposition ------------------------------------------------------


@dataclass(frozen=True)
class GroupSelection:
    """One bucket pick at one level: which extreme point was targeted and
    which block index first approached it, at what distance."""

    bucket: int
    target: complex
    block_index: int
    distance: float


@dataclass(frozen=True)
class Decomposition:
    """Group boundaries M_1 < M_2 < ...: group m covers blocks
    (M_{m-1}, M_m], with the per-level scan evidence."""

    boundaries: tuple[int, ...]
    selections: tuple[tuple[GroupSelection, ...], ...] = ()
    eps: float = 0.0

    def __post_init__(self):
        bs = tuple(int(b) for b in self.boundaries)
        if not bs:
            raise ValidationError("a decomposition needs at least one group")
        if bs[0] < 1 or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValidationError(f"group boundaries must strictly increase, got {bs}")
        object.__setattr__(self, "boundaries", bs)
        object.__setattr__(self, "selections", tuple(self.selections))

    @property
    def group_count(self) -> int:
        return len(self.boundaries)

    def group_range(self, m: int) -> tuple[int, int]:
        """1-based inclusive block range of group ``m`` (1-based)."""
        if not 1 <= m <= len(self.boundaries):
            raise ValueError(f"group index {m} out of range")
        lo = 1 if m == 1 else self.boundaries[m - 2] + 1
        return lo, self.boundaries[m - 1]


def identity_decomposition(count: int) -> Decomposition:
    """The trivial decomposition: every block is its own group."""
    return Decomposition(tuple(range(1, count + 1)))


def _bucket_targets(ext: np.ndarray, m: int) -> np.ndarray:
    """Index into ``ext`` of one target per bucket: the max-modulus extreme
    point whose angle falls in bucket j = floor(angle * m / 2 pi), the
    smallest angle (then the first point) among those within 1e-12
    relative of the maximum; empty buckets borrow from the cyclically
    nearest non-empty one (ties to the lower index).  One sort orders each
    bucket's candidates."""
    ang = np.mod(np.angle(ext), 2.0 * np.pi)
    buckets = np.minimum((ang * m / (2.0 * np.pi)).astype(int), m - 1)
    mod = np.abs(ext)
    best = np.zeros(m)
    np.maximum.at(best, buckets, mod)
    top = best[buckets]
    close = mod >= top - 1e-12 * top
    # per bucket: the close points first, by angle, then by position
    order = np.lexsort((ang, ~close, buckets))
    ranked = buckets[order]
    head = np.empty(ranked.size, dtype=bool)
    head[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    src = np.full(m, -1)
    src[ranked[head]] = order[head]
    empty = np.flatnonzero(src < 0)
    if empty.size:
        # the nearest occupied bucket is the next one either way round
        occupied = ranked[head]
        at = np.searchsorted(occupied, empty)
        after, before = occupied[at % occupied.size], occupied[at - 1]
        d_after, d_before = (np.minimum((empty - q) % m, (q - empty) % m) for q in (after, before))
        take_before = (d_before < d_after) | ((d_before == d_after) & (before < after))
        src[empty] = src[np.where(take_before, before, after)]
    return src


def _scan_window(spec: BlockOperatorSpec, points: np.ndarray, level: np.ndarray,
                 target: int, rows: dict[bytes, np.ndarray], threshold: float,
                 start: int, cap: int, grid: int):
    """First block index n >= start whose range passes within ``threshold``
    of ``points[target]``, or None after examining ``cap`` blocks.

    Uses the attained (inner) polygon of each block range, so a hit
    certifies a genuine numerical-range point near the target.  The scan
    goes block by block, so no range past the hit is computed.  ``rows``
    keeps one distance row over all of ``points`` per distinct block, keyed
    by the block's entries, with NaN where the block has not met a point
    yet.  A visit that needs one fills in the level's targets (the distinct
    indices ``level``) that the block has not met, in one distance call, so
    a block that recurs, as a periodic tail's do, meets each target once in
    the whole ``regroup`` call.
    """
    point = points[target]
    n = start
    budget = cap
    p = spec.prefix_len
    scalar_tail = spec.tail_is_scalar
    chunk = _FIRST_CHUNK
    while budget > 0:
        if n > p and scalar_tail:
            cnt = min(budget, chunk)
            chunk = min(2 * chunk, _SCAN_CHUNK)
            vals = spec.window_values(n, cnt)
            d = np.abs(vals - point)
            hits = np.flatnonzero(d < threshold)
            if hits.size:
                h = int(hits[0])
                return n + h, float(d[h])
            n += cnt
            budget -= cnt
        else:
            blk = spec.cached_block(n)
            key = blk.entries.tobytes()
            row = rows.get(key)
            if row is None:
                row = _remember(rows, key, np.full(points.size, np.nan))
            if np.isnan(row[target]):
                new = level[np.isnan(row[level])]
                row[new] = spec.range_of(blk, grid).inner.distance(points[new])
            d = float(row[target])
            if d < threshold:
                return n, d
            n += 1
            budget -= 1
    return None


def regroup(
    spec: BlockOperatorSpec,
    we: EssentialRangeResult,
    eps: float = DEFAULT_REGROUP_EPS,
    depth: int = DEFAULT_DEPTH,
    scan_cap: int = DEFAULT_SCAN_CAP,
    grid: int = DEFAULT_GRID,
    z: complex = 0j,
) -> Decomposition:
    """Build the group boundaries of the hull-free decomposition of T - z.

    ``we`` must be the essential range of ``spec``, the operator T, and
    ``z`` a translation that puts the origin inside W_e(T) - z, away from
    its extreme points, as ``choose_translation`` returns it.  Level m picks one
    extreme point of W_e(T) - z per angle bucket and extends the group
    until every pick has been approached within eps / m by some block
    range.  The blocks are those of T: W(B - zI) = W(B) - z, so the scan
    measures them against the picks moved by +z, and the block ranges that
    the essential range memoised on ``spec`` serve again.  Distances are
    translation invariant, and the decomposition is that of T as well.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    if depth < 1:
        raise ValidationError(f"depth must be at least 1, got {depth}")
    if scan_cap < 1:
        raise ValidationError(f"scan cap must be at least 1, got {scan_cap}")
    ext = extreme_points(we.region.translate(-z)).points
    scale = float(np.abs(ext).max())
    if float(np.min(np.abs(ext))) <= 1e-9 * scale:
        raise DegenerateGeometry(
            "an extreme point sits at the origin; translate the operator first"
        )
    # the targets in the coordinates of ``spec``, whose blocks are scanned
    points = ext + z
    rows: dict[bytes, np.ndarray] = {}
    boundaries: list[int] = []
    levels: list[tuple[GroupSelection, ...]] = []
    cursor = 0
    for m in range(1, depth + 1):
        threshold = eps / m
        picks: list[GroupSelection] = []
        targets = _bucket_targets(ext, m)
        level = np.unique(targets)
        for j, target in enumerate(targets.tolist()):
            hit = _scan_window(spec, points, level, target, rows, threshold, cursor + 1,
                               scan_cap, grid)
            if hit is None:
                raise ScanExhausted(m, j, complex(ext[target]), scan_cap)
            cursor, dist = hit
            picks.append(GroupSelection(j, complex(ext[target]), cursor, dist))
        boundaries.append(cursor)
        levels.append(tuple(picks))
    return Decomposition(tuple(boundaries), tuple(levels), eps)


# -- verification -------------------------------------------------------


def _group_parts(spec: BlockOperatorSpec, decomp: Decomposition, m: int):
    """The indices of the blocks of group ``m`` that are taken whole, and on
    a scalar tail the values of the rest (None when there are none)."""
    lo, hi = decomp.group_range(m)
    last = min(hi, spec.prefix_len) if spec.tail_is_scalar else hi
    indices = range(lo, last + 1)
    if last == hi:
        return indices, None
    start = max(lo, last + 1)
    return indices, spec.window_values(start, hi - start + 1)


def group_region(
    spec: BlockOperatorSpec,
    decomp: Decomposition,
    m: int,
    grid: int = DEFAULT_GRID,
) -> ConvexRegion:
    """Numerical range of group ``m`` viewed as one finite block diagonal:
    the hull of its blocks' ranges, each distinct block's inner polygon
    taken once, and a scalar tail's values."""
    indices, values = _group_parts(spec, decomp, m)
    pts, _ = _attained_vertices(spec, map(spec.cached_block, indices), grid)
    if values is not None:
        pts.append(values)
    return ConvexRegion.from_points(np.concatenate(pts), grid)


def _group_points_key(spec: BlockOperatorSpec, decomp: Decomposition, m: int):
    """What ``group_region`` hulls for group ``m``, up to order and repeats:
    its distinct blocks, by the first index that has each, and the bytes of
    its distinct tail values."""
    indices, values = _group_parts(spec, decomp, m)
    distinct = frozenset(map(spec._first_index, indices))
    if values is None:
        return distinct, b""
    return distinct, np.unique(values.view(np.dtype((np.void, values.itemsize)))).tobytes()


def late_group_regions(
    spec: BlockOperatorSpec,
    decomp: Decomposition,
    from_level: int,
    grid: int = DEFAULT_GRID,
) -> list[ConvexRegion]:
    """``group_region`` of groups ``from_level`` to the last, called once per
    distinct set of points: groups with the same distinct blocks (and tail
    values) share one region object.  On a periodic tail every late group
    holds whole cycles, so they all share one.  Sharing is exact because
    ``ConvexRegion.from_points`` puts its hull in a canonical order, so the
    same points met in another order give the same region."""
    regions: dict = {}
    out = []
    for m in range(from_level, decomp.group_count + 1):
        key = _group_points_key(spec, decomp, m)
        if key not in regions:
            regions[key] = group_region(spec, decomp, m, grid)
        out.append(regions[key])
    return out


def verify_conv_free(
    spec: BlockOperatorSpec,
    decomp: Decomposition,
    we: EssentialRangeResult,
    from_level: int | None = None,
    grid: int = DEFAULT_GRID,
    groups: list[ConvexRegion] | None = None,
) -> float:
    """Worst Hausdorff distance between late group ranges and the
    essential range ``we.region``.

    Both are convex polygons, so ``hausdorff`` gives each distance exactly,
    once per distinct region object.  ``from_level`` defaults to half the
    group count.  ``groups`` may pass in the ranges of groups
    ``from_level`` to the last, as ``late_group_regions`` builds them, so
    that a caller that also draws them hulls each once.
    """
    g = decomp.group_count
    k0 = from_level if from_level is not None else max(1, g // 2)
    if not 1 <= k0 <= g:
        raise ValueError(f"from_level {k0} out of range 1..{g}")
    if groups is None:
        groups = late_group_regions(spec, decomp, k0, grid)
    elif len(groups) != g - k0 + 1:
        raise ValueError(f"expected {g - k0 + 1} group ranges, got {len(groups)}")
    distinct = {id(r): r for r in groups}.values()
    return max(hausdorff(we.region, r) for r in distinct)
