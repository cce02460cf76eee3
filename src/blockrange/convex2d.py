"""Planar convex geometry on a shared angle grid.

Regions are stored canonically: a counterclockwise vertex polygon plus the
support values ``h[j] = max Re(x * conj(d_j))`` over the grid directions
``d_j = exp(2 pi i j / K)``.  The support vector is always recomputed from
the vertices, so the two views can never drift apart.

Support queries go through the polygon's normal fan: vertex i supports
exactly the directions between the outward normals of its two edges, so
the supporting vertex of any batch of directions is a ``searchsorted`` in
the normal angles.  The grid support vector, the diameter (over the fan
merged with itself turned by pi) and the region-region Hausdorff distance
(over the merged fans of both polygons, exact over all directions, not
only the grid) are built on that lookup.  Polygons that arrive already in
counterclockwise angular order (attained points, consecutive support
lines) are certified as their own hull in one vectorised pass.

The intersection of two polygons, which only the exchange law of
``nested_conv_exchange`` takes, is the hull of its candidate corners: the
vertices of each polygon in the other and the crossings of their edges.

The certificate, the fans, the support lookups and the region-region
Hausdorff distance also run on stacks of polygons with one polygon per
row (the block ranges of a tail window), and give each row exactly the
numbers that the polygon alone gives.  To that end they take complex
products with ``np.multiply`` rather than ``*``: numpy computes ``*`` on
a large temporary operand in place, and its in-place complex product
rounds differently, so the same row would round differently in a large
stack than alone.

Any other point set takes one vectorised hull.  The points near the
boundary survive a filter by the polygon of ten extreme points (Akl and
Toussaint 1978) and an angular scan about its centroid, in angular order,
and certify themselves when all are corners (as on a circle).  Otherwise
coincident survivors merge, and Graham's scan without the stack (Graham
1972), run on Andrew's lexicographic ring, deletes in each numpy pass the
vertices that do not turn strictly left.  The ring left certifies itself.

The module is numpy alone.  The distances between two point clouds
(``hausdorff`` of two clouds, and the nesting test of
``nested_conv_exchange``) search nearest neighbours by brute force, about
2^20 point pairs per numpy pass; no pipeline compares two clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, EmptyIntersection, NotNested, ValidationError

DEFAULT_GRID = 360
_CHUNK = 4096


def grid_angles(k: int) -> np.ndarray:
    """The shared angle grid theta_j = 2 pi j / k, j = 0..k-1."""
    if k < 3:
        raise ValidationError(f"angle grid needs at least 3 directions, got {k}")
    return 2.0 * np.pi * np.arange(k) / k


def _snap(pts: np.ndarray) -> np.ndarray:
    """Round onto a grid of 1e-14 times the largest modulus; equal snaps
    coincide.  The grid scales with the points, so W(cA) = c W(A) keeps its
    vertices at any c; points that are all zero come back as they are.
    Each row of a stack of point sets is snapped on its own grid."""
    eps = 1e-14 * np.abs(pts).max(axis=-1, keepdims=True)
    live = eps > 0.0
    every = live.all()
    if not every:
        eps = np.where(live, eps, 1.0)
    snapped = np.round(pts.real / eps) * eps + 1j * (np.round(pts.imag / eps) * eps)
    return snapped if every else np.where(live, snapped, pts)


def _merge_coincident(pts: np.ndarray) -> np.ndarray:
    """Collapse points that agree to ~1e-14 relative (keeps originals)."""
    _, idx = np.unique(_snap(pts), return_index=True)
    return np.unique(pts[idx])


def _turns(o: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of v - o and b - o: positive where o -> v -> b turns left."""
    return (v.real - o.real) * (b.imag - o.imag) - (v.imag - o.imag) * (b.real - o.real)


def _neighbours(ring: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's predecessor and successor on the closed ``ring`` (on
    each row of a stack of rings)."""
    return (np.concatenate((ring[..., -1:], ring[..., :-1]), axis=-1),
            np.concatenate((ring[..., 1:], ring[..., :1]), axis=-1))


def _ordered_hull(pts: np.ndarray) -> np.ndarray | None:
    """``pts`` itself, if it is already a strictly convex CCW polygon.

    Only consecutive exact repeats are dropped.  The order is accepted when
    every turn is strictly left by ``_turns``, with no tolerance, the turns
    add up to one full turn (a twice-wound polygon fails), and no two
    points would be merged as coincident; the polygon is then rotated to
    start at its lexicographically smallest point, the canonical order of
    every hull.  Returns None otherwise.
    """
    if pts.size < 3:
        return None
    v = pts[np.concatenate(([pts[0] != pts[-1]], pts[1:] != pts[:-1]))]
    if v.size < 3:
        return None
    return _from_smallest(v) if _ordered_rows(v) else None


def _ordered_rows(pts: np.ndarray) -> np.ndarray:
    """``_ordered_hull``'s test on every row of a stack of polygons at once:
    which rows are strictly convex CCW polygons.  A row with a repeated
    consecutive point fails, since its turn there is exactly zero."""
    rows = pts.reshape(-1, pts.shape[-1])
    o, b = _neighbours(rows)
    ok = np.all(_turns(o, rows, b) > 0.0, axis=1)
    # each test runs on the rows that passed the ones before it (on all of
    # them through a view, not a copy, when all passed)
    if ok.any():
        live = slice(None) if ok.all() else ok
        turn = np.multiply(b[live] - rows[live], (rows[live] - o[live]).conj())
        ok[live] = np.angle(turn).sum(axis=1) <= 3.0 * np.pi
    if ok.any():
        live = slice(None) if ok.all() else ok
        snapped = np.sort(_snap(rows[live]), axis=1)
        ok[live] = ~np.any(snapped[:, 1:] == snapped[:, :-1], axis=1)
    return ok.reshape(pts.shape[:-1])


def _from_smallest(rows: np.ndarray) -> np.ndarray:
    """The polygon, or each row of a stack of polygons, rotated to start at
    its lexicographically smallest point, the canonical order of every
    hull (numpy orders complex numbers lexicographically)."""
    k = np.argmin(rows, axis=-1)
    if rows.ndim == 1:
        return np.concatenate((rows[k:], rows[:k]))
    size = rows.shape[-1]
    return np.take_along_axis(rows, (k[:, None] + np.arange(size)) % size, axis=1)


def _drop_reflex(ring: np.ndarray, fixed: np.ndarray | None = None) -> np.ndarray:
    """Graham's scan without the stack: delete, in vectorised passes, the
    vertices of the closed ``ring`` that do not turn strictly left, except
    those marked ``fixed``, until every vertex turns left.  In an order
    that walks once around the hull (Andrew's lower then upper chain), an
    extreme point always turns strictly left, so no pass deletes one.

    A pass deletes every other vertex of each run of such vertices, so no
    two neighbours go together and each goes on the evidence of two that
    stay: of two nearly coincident corners, whose turns rounding decides,
    one is kept.  A pass that would leave fewer than three is not made.
    """
    fixed = np.zeros(ring.size, dtype=bool) if fixed is None else fixed
    while ring.size >= 3:
        prev, nxt = _neighbours(ring)
        bad = ~fixed & ~(_turns(prev, ring, nxt) > 0.0)
        if not bad.any():
            break
        # offset of each vertex from the start of its run of bad ones
        idx = np.arange(ring.size)
        first = bad & ~_neighbours(bad)[0]
        run = np.maximum.accumulate(np.where(first, idx, -1))
        if first.any():
            run[run < 0] = idx[first][-1] - ring.size  # the run that wraps
        keep = ~bad | ((idx - run) % 2 == 1)
        if np.count_nonzero(keep) < 3:
            break
        ring, fixed = ring[keep], fixed[keep]
    return ring


def _prune(pts: np.ndarray) -> np.ndarray:
    """The points near the hull's boundary, and a few more.

    Near means within a margin of eight cells of the coincidence grid.  The
    extremes in eight fixed directions, with the points farthest either
    side of the line through the extremes in directions 0 and pi (so that
    a thin cloud spans one too), span a polygon inside the hull; the
    points more than the margin inside all its edge lines go (Akl and
    Toussaint 1978).  The rest are sorted by angle about the polygon's
    vertex centroid c and scanned in passes like ``_drop_reflex``: a point
    goes when it lies more than the margin inside the triangle of c and
    its two neighbours.  The hull holds that triangle whatever the order,
    so no point near the boundary goes, and coincident points merge
    afterwards as they would in the whole set.
    """
    margin = 8e-14 * float(np.abs(pts).max())
    xy = np.stack((pts.real, pts.imag))
    t = 0.25 * np.pi * np.arange(8)
    ext = pts[np.argmax(np.stack((np.cos(t), np.sin(t)), axis=1) @ xy, axis=1)]
    side = _turns(ext[0], ext[4], pts)
    ext = np.unique(np.append(ext, pts[[np.argmin(side), np.argmax(side)]]))
    if ext.size < 3:
        return pts
    centre = ext.mean()
    ext = ext[np.argsort(np.angle(ext - centre))]
    nxt = _neighbours(ext)[1]
    length = np.abs(nxt - ext)
    # depth of every point inside every edge line, by the inward unit normals
    normal = np.stack(((ext.imag - nxt.imag) / length, (nxt.real - ext.real) / length), axis=1)
    depth = normal @ xy - (normal[:, 0] * ext.real + normal[:, 1] * ext.imag)[:, None]
    pts = pts[~np.all(depth > margin, axis=0)]
    ring = pts[np.argsort(np.angle(pts - centre), kind="stable")]
    while ring.size >= 3:
        prev, nxt = _neighbours(ring)
        # more than the margin inside all three edge lines of the triangle
        deep = (
            (_turns(centre, prev, ring) > margin * np.abs(prev - centre))
            & (_turns(prev, nxt, ring) > margin * np.abs(nxt - prev))
            & (_turns(nxt, centre, ring) > margin * np.abs(centre - nxt))
        )
        if not deep.any():
            break
        ring = ring[~deep]
    return ring


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Hull vertices, counterclockwise from the lexicographically smallest.

    Angle-ordered input certifies itself (``_ordered_hull``), and so do the
    points ``_prune`` keeps near the boundary, in angular order, when all
    are corners (as on a circle; the scan would return the same array).
    Else coincident survivors merge, and ``_drop_reflex`` scans Andrew's
    ring: the smallest point a, the points right of a -> b in increasing
    order, the largest point b, the points left of it in decreasing order.
    The ring needs no interior point, so thin and collinear input take the
    same path; exactly collinear input (every turn zero) comes out as the
    segment [a, b].  Points inside a straight edge are dropped, and the
    result certifies itself by ``_ordered_hull``.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    hull = _ordered_hull(pts)
    if hull is None:
        ring = _prune(pts)
        hull = _ordered_hull(ring)
    if hull is not None:
        return hull
    pts = _merge_coincident(np.unique(ring))
    if pts.size <= 2:
        return pts
    a, b = pts[0], pts[-1]
    side = _turns(a, b, pts)
    lower, upper = pts[side < 0], pts[side > 0][::-1]
    ring = np.concatenate(([a], lower, [b], upper))
    ends = np.isin(np.arange(ring.size), (0, lower.size + 1))
    # Andrew's two chains keep their ends; rounding can leave a sliver
    # that turns right at a or b, which the closed scan then drops
    ring = _drop_reflex(_drop_reflex(ring, fixed=ends))
    hull = _ordered_hull(ring)
    if hull is not None:
        return hull
    # Merging a vertex into a smaller one can lower the largest modulus,
    # and with it the coincidence grid: merge again on the ring's own grid.
    merged = _merge_coincident(np.unique(ring))
    return _hull_vertices(merged) if merged.size < ring.size else np.array([a, b])


# -- normal fans --------------------------------------------------------


def _fan(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal fan of a CCW convex polygon.

    Returns the indices j of the edges v[j] -> v[j+1] of nonzero length and
    the angles of their outward normals.  The angles start at the first
    edge's normal and add up the turns between consecutive edges, so they
    increase over one full turn even where rounding makes two edges look
    parallel.  Vertex ``edges[i]`` supports exactly the directions from
    normal i-1 to normal i.

    For a stack of polygons (the rows of ``v``), as ``_ordered_rows``
    certifies them, every edge must have nonzero length: the edge indices
    are then shared by all rows and the angles come one row per polygon.
    """
    e = np.concatenate((v[..., 1:], v[..., :1]), axis=-1) - v
    edges = np.flatnonzero(e) if e.ndim == 1 else np.arange(e.shape[-1])
    d = e[..., edges]
    turns = np.abs(np.angle(np.multiply(d[..., 1:], d[..., :-1].conj())))
    normals = np.angle(d[..., :1]) - 0.5 * np.pi
    return edges, np.concatenate((normals, normals + np.cumsum(turns, axis=-1)), axis=-1)


def _search_right(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, v, side="right")`` on every row of the sorted
    rows ``a`` with the queries of the same row of ``v``.  numpy has no
    row-wise search, and offsetting the rows to search them as one would
    round their values, so the rows are searched one by one."""
    if a.ndim == 1:
        return np.searchsorted(a, v, side="right")
    out = np.empty(v.shape, dtype=np.intp)
    for i, (row, queries) in enumerate(zip(a, v)):
        out[i] = np.searchsorted(row, queries, side="right")
    return out


def _supporting(fan: tuple[np.ndarray, np.ndarray], phi: np.ndarray) -> np.ndarray:
    """Index of the vertex that maximises Re(x e^{-i phi}) over the polygon
    with normal fan ``fan``, for each direction angle in ``phi`` (per row,
    for the fan of a stack of polygons)."""
    edges, normals = fan
    if edges.size == 0:
        return np.zeros(phi.shape, dtype=np.intp)
    first = normals[..., :1]
    t = np.mod(phi - first, 2.0 * np.pi)
    return edges[_search_right(normals - first, t) % edges.size]


def _arcs(*angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of the arcs that the given breakpoint angles, and 0,
    cut the circle into; the arcs cover one full turn (on each row)."""
    zero = np.zeros(angles[0].shape[:-1] + (1,))
    start = np.sort(np.mod(np.concatenate((zero, *angles), axis=-1), 2.0 * np.pi), axis=-1)
    return start, np.concatenate((start[..., 1:], start[..., :1] + 2.0 * np.pi), axis=-1)


def _supports_of(vertices: np.ndarray, k: int, fan=None) -> np.ndarray:
    """Grid support values of a polygon, or of each row of a stack of
    polygons, through its normal fan (computed when not given)."""
    th = grid_angles(k)
    idx = _supporting(_fan(vertices) if fan is None else fan, th)
    return np.real(np.multiply(np.take_along_axis(vertices, idx, axis=-1), np.exp(1j * th).conj()))


def _support_vertices(h: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Crossings of the supporting lines of consecutive grid directions
    ``th``, for the support values ``h`` (one row per region)."""
    th_next = np.append(th[1:], 2.0 * np.pi)
    h_next = np.concatenate((h[..., 1:], h[..., :1]), axis=-1)
    det = np.sin(th_next - th)
    vx = (h * np.sin(th_next) - h_next * np.sin(th)) / det
    vy = (h_next * np.cos(th) - h * np.cos(th_next)) / det
    return vx + 1j * vy


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a planar compact set, with a resolution radius.

    Every point of the represented set is within ``resolution`` of the
    sample (and the sample lies in the set up to the same slack).
    """

    points: np.ndarray
    resolution: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise EmptyInput("a point cloud must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValidationError("cloud points must be finite")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        res = float(self.resolution)
        if res < 0 or not np.isfinite(res):
            raise ValidationError(f"resolution must be a finite non-negative float, got {res}")
        object.__setattr__(self, "resolution", res)

    def __len__(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class ConvexRegion:
    """Compact convex region: CCW vertices plus grid support values."""

    vertices: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.complex128).ravel())
        h = np.ascontiguousarray(np.asarray(self.support, dtype=np.float64).ravel())
        if v.size == 0:
            raise EmptyInput("a convex region needs at least one vertex")
        v.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "support", h)

    # -- construction ----------------------------------------------------

    @classmethod
    def _build(cls, vertices: np.ndarray, grid: int) -> "ConvexRegion":
        return cls(vertices, _supports_of(vertices, grid))

    @classmethod
    def from_points(cls, points, grid: int = DEFAULT_GRID) -> "ConvexRegion":
        """Convex hull of a point set, canonicalised onto the angle grid."""
        pts = np.asarray(points, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise EmptyInput("cannot take the hull of an empty point set")
        if not np.isfinite(pts).all():
            raise ValidationError("hull points must be finite")
        return cls._build(_hull_vertices(pts), grid)

    @classmethod
    def from_support(cls, support, grid: int | None = None) -> "ConvexRegion":
        """Region carved out by supporting lines on the full angle grid.

        ``support`` must be a genuine support function sampled on the grid
        (as produced by eigenvalue probing).  For such input the vertices of
        the intersection of all halfplanes are exactly the intersections of
        angularly consecutive supporting lines, so no general halfplane
        machinery is needed.
        """
        h = np.asarray(support, dtype=np.float64).ravel()
        k = h.size if grid is None else grid
        if h.size != k:
            raise ValidationError(f"support has {h.size} entries, expected {k}")
        if not np.isfinite(h).all():
            raise ValidationError("support values must be finite")
        return cls._build(_hull_vertices(_support_vertices(h, grid_angles(k))), k)

    # -- basic geometry --------------------------------------------------

    @property
    def grid_size(self) -> int:
        return int(self.support.size)

    @property
    def diameter(self) -> float:
        """Largest vertex distance, over the antipodal pairs: the vertices
        supporting opposite directions, on the fan merged with itself
        turned by pi."""
        v = self.vertices
        fan = _fan(v)
        start, end = _arcs(fan[1], fan[1] + np.pi)
        mid = 0.5 * (start + end)
        return float(np.abs(v[_supporting(fan, mid)] - v[_supporting(fan, mid + np.pi)]).max())

    def translate(self, z: complex) -> "ConvexRegion":
        return ConvexRegion._build(self.vertices + z, self.grid_size)

    def distance(self, points) -> np.ndarray:
        """Exact Euclidean distance from each point to the region (0 inside)."""
        pts = np.asarray(points, dtype=np.complex128).ravel()
        v = self.vertices
        if v.size == 1:
            return np.abs(pts - v[0])
        a = v
        b = np.roll(v, -1)
        ab = b - a
        ab2 = np.maximum(np.abs(ab) ** 2, 1e-300)
        out = np.empty(pts.size, dtype=np.float64)
        for lo in range(0, pts.size, _CHUNK):
            hi = min(lo + _CHUNK, pts.size)
            p = pts[lo:hi]
            ap = p[:, None] - a[None, :]
            t = np.clip((ap * ab.conj()[None, :]).real / ab2[None, :], 0.0, 1.0)
            d_edge = np.abs(ap - t * ab[None, :]).min(axis=1)
            if v.size > 2:
                cross = ab.real[None, :] * ap.imag - ab.imag[None, :] * ap.real
                inside = np.all(cross >= 0.0, axis=1)
                d_edge = np.where(inside, 0.0, d_edge)
            out[lo:hi] = d_edge
        return out


# -- distances ----------------------------------------------------------


def _cloud_points(x) -> np.ndarray:
    return x.points if isinstance(x, PointCloud) else np.asarray(x, complex).ravel()


def _nearest(ref: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Distance from each point of ``query`` to the nearest point of ``ref``
    (complex arrays), by brute force over about 2^20 pairs at a time."""
    step = max(1, 2**20 // ref.size)
    out = np.empty(query.size)
    for lo in range(0, query.size, step):
        d = query[lo : lo + step, None] - ref[None, :]
        out[lo : lo + step] = np.sqrt((d.real * d.real + d.imag * d.imag).min(axis=1))
    return out


def _fan_hausdorff(va, fa, vb, fb):
    """Hausdorff distance of the polygons ``va`` and ``vb`` with normal fans
    ``fa`` and ``fb``, or of each pair of rows of two stacks of polygons."""
    start, end = _arcs(fa[1], fb[1])
    mid = 0.5 * (start + end)
    diff = (np.take_along_axis(va, _supporting(fa, mid), axis=-1)
            - np.take_along_axis(vb, _supporting(fb, mid), axis=-1))
    rot = np.exp(-1j * np.concatenate((start, end[..., -1:]), axis=-1))
    ends = np.maximum(np.abs(np.real(diff * rot[..., :-1])), np.abs(np.real(diff * rot[..., 1:])))
    # |Re(diff e^{-i phi})| peaks at |diff| where phi = arg(diff) mod pi
    peak = np.angle(diff)
    peak = peak + np.pi * np.ceil((start - peak) / np.pi)
    return np.where(peak <= end, np.abs(diff), ends).max(axis=-1)


def hausdorff(a, b) -> float:
    """Hausdorff distance between two regions or between two clouds.

    Region-region is exact over all directions.  For convex sets
    d_H(A, B) = sup_u |h_A(u) - h_B(u)| over unit directions u: the
    directed distance from A to B is the largest excess of h_A over h_B
    (and, the distance to a convex set being a convex function, it is
    attained at a vertex of A).  On each
    arc of the two merged normal fans the supporting vertices a and b are
    fixed, so the arc's maximum of |Re((a - b) e^{-i phi})| is |a - b| when
    the arc contains arg(a - b) mod pi, and its value at an arc end
    otherwise.  Cloud-cloud is exact (up to fp), by nearest neighbours.
    A region and a cloud raise TypeError: take the hull of the cloud.
    """
    a_region = isinstance(a, ConvexRegion)
    b_region = isinstance(b, ConvexRegion)
    if a_region and b_region:
        va, vb = a.vertices, b.vertices
        return float(_fan_hausdorff(va, _fan(va), vb, _fan(vb)))
    if a_region or b_region:
        raise TypeError("hausdorff takes two regions or two clouds, not one of each")
    pa = _cloud_points(a)
    pb = _cloud_points(b)
    return float(max(_nearest(pb, pa).max(), _nearest(pa, pb).max()))


# -- intersection --------------------------------------------------------


def _depth(x, s0, s1):
    """Signed distance of x to the left of the directed line s0 -> s1."""
    d, w = s1 - s0, x - s0
    return (d.real * w.imag - d.imag * w.real) / np.abs(d)


def _excess(region: ConvexRegion, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """How far each segment x0 -> x1 (a point where x0 == x1) lies wholly
    beyond a grid support line of ``region``, at most; 2^20 at a time."""
    th = grid_angles(region.grid_size)
    u = np.stack((np.cos(th), np.sin(th)))
    out = np.empty(x0.size)
    step = max(1, 2**20 // th.size)
    for lo in range(0, x0.size, step):
        e0, e1 = (np.stack((x.real, x.imag), axis=1) @ u
                  for x in (x0[lo : lo + step], x1[lo : lo + step]))
        out[lo : lo + step] = (np.minimum(e0, e1) - region.support).max(axis=1)
    return out


def intersect_regions(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Intersection of two regions sharing the same angle grid.

    The pointwise minimum of the two support vectors is generally *not* the
    support function of the intersection, so this is the hull of its
    corners: the vertices of each polygon within ``tol`` of the other, and
    the crossings of edges whose ends all lie more than ``tol`` either side
    of the other edge's line, so no corner is doubled by a crossing one ulp
    off it.  What lies wholly beyond a grid support line of the other
    region cannot meet it and goes first; the edge pairs left are tried
    2^20 at a time.  ``tol`` is 1e-12 times the largest vertex modulus.
    """
    k = a.grid_size
    if b.grid_size != k:
        raise ValidationError(f"grid mismatch: {k} vs {b.grid_size}")
    va, vb = a.vertices, b.vertices
    tol = 1e-12 * max(np.abs(va).max(), np.abs(vb).max())
    corners, edges = [], []
    for v, other in ((va, b), (vb, a)):
        near = v[_excess(other, v, v) <= tol]
        corners.append(near[other.distance(near) <= tol])
        # a segment has one edge and a point none
        s0, s1 = (v, np.roll(v, -1)) if v.size >= 3 else (v[:-1], v[1:])
        live = _excess(other, s0, s1) <= tol
        edges.append((s0[live], s1[live]))
    (p0, p1), (q0, q1) = edges
    step = max(1, 2**20 // max(q0.size, 1))
    for lo in range(0, p0.size, step):
        a0, a1 = p0[lo : lo + step, None], p1[lo : lo + step, None]
        f0, f1 = _depth(a0, q0, q1), _depth(a1, q0, q1)
        g0, g1 = _depth(q0, a0, a1), _depth(q1, a0, a1)
        cross = ((np.minimum(f0, f1) < -tol) & (np.maximum(f0, f1) > tol)
                 & (np.minimum(g0, g1) < -tol) & (np.maximum(g0, g1) > tol))
        i, j = np.nonzero(cross)
        a0, a1, f0 = a0[i, 0], a1[i, 0], f0[i, j]
        corners.append(a0 + f0 / (f0 - f1[i, j]) * (a1 - a0))
    corners = np.concatenate(corners)
    if corners.size == 0:
        raise EmptyIntersection("regions do not meet")
    return ConvexRegion._build(_hull_vertices(corners), k)


# -- extreme points and nesting ----------------------------------------


def extreme_points(region: ConvexRegion) -> PointCloud:
    """Vertices that are genuine corners (not interior to an edge)."""
    v = region.vertices
    if v.size <= 2:
        return PointCloud(v.copy(), 0.0)
    # distance of each vertex from the chord between its two neighbours
    keep = v[np.abs(_depth(v, *_neighbours(v))) > 1e-9 * region.diameter]
    return PointCloud(keep if keep.size else v[:1], 0.0)


def nested_conv_exchange(clouds, tol: float, grid: int = DEFAULT_GRID):
    """Check conv(intersection) against intersection(conv) for a nested family.

    ``clouds`` must be decreasing: every point of cloud ``k+1`` within
    ``tol`` of cloud ``k``.  Returns (lhs, rhs, gap) where lhs is the
    intersection of the hulls, rhs the hull of the (approximate) pointwise
    intersection, and gap their Hausdorff distance.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be a finite non-negative float, got {tol}")
    seq = [c if isinstance(c, PointCloud) else PointCloud(np.asarray(c, complex)) for c in clouds]
    if not seq:
        raise EmptyInput("need at least one cloud")
    for k in range(len(seq) - 1):
        d = _nearest(seq[k].points, seq[k + 1].points)
        slack = tol + seq[k].resolution + seq[k + 1].resolution
        if d.max() > slack:
            raise NotNested(
                f"cloud {k + 1} escapes cloud {k} by {float(d.max()):.3e} (allowed {slack:.3e})"
            )
    lhs = ConvexRegion.from_points(seq[0].points, grid)
    for c in seq[1:]:
        lhs = intersect_regions(lhs, ConvexRegion.from_points(c.points, grid))
    last = seq[-1].points
    keep = np.ones(last.size, dtype=bool)
    for c in seq[:-1]:
        keep &= _nearest(c.points, last) <= tol + c.resolution + seq[-1].resolution
    if not np.any(keep):
        raise EmptyIntersection("no common points within tolerance")
    rhs = ConvexRegion.from_points(last[keep], grid)
    return lhs, rhs, hausdorff(lhs, rhs)
