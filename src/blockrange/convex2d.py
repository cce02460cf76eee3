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

The intersection of two polygons is a linear clip: seen from the vertex
centroid of the other polygon, each edge sweeps a run of its wedges and is
clipped only against their edges, about |P| + |Q| pairs in one pass; the
pieces, in normal-angle order, form a ring that certifies itself too.

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


# -- intersection on the normal fans ------------------------------------


def _depth(x, s0, s1):
    """Signed distance of x to the left of the directed line s0 -> s1."""
    d, w = s1 - s0, x - s0
    return (d.real * w.imag - d.imag * w.real) / np.abs(d)


def _crossing(p0, p1, q0, q1):
    """Crossing point of the lines p0p1 and q0q1.  The two one-sided
    formulas are averaged, so the result is the same to the last bit when
    the segments are swapped, and both polygons emit the same point."""

    def along(x0, x1, y0, y1):
        dx, dy, w = x1 - x0, y1 - y0, y0 - x0
        t = (w.real * dy.imag - w.imag * dy.real) / (dx.real * dy.imag - dx.imag * dy.real)
        return x0 + t * dx

    return 0.5 * (along(p0, p1, q0, q1) + along(q0, q1, p0, p1))


def _clip_segment(s0: complex, s1: complex, w: np.ndarray, tol: float) -> np.ndarray:
    """Cyrus-Beck clip of the segment s0 -> s1 (a membership test when
    s0 == s1) to the region with vertices ``w``.  It is empty only when
    empty with every boundary line moved outward by ``tol``; its ends are
    on the lines themselves unless those ends cross over, as where the
    segment only touches the region.  A segment or point ``w`` is bounded
    by its line taken both ways and two end caps."""
    if w.size >= 3:
        l0, l1 = w, np.roll(w, -1)
    else:
        axis = w[-1] - w[0]
        axis = axis / abs(axis) if axis else 1.0
        l0 = np.array([w[0], w[-1], w[-1], w[0]])
        l1 = l0 + axis * np.array([1, -1, 1j, -1j])
    f0, f1 = _depth(s0, l0, l1), _depth(s1, l0, l1)

    def window(pad):
        g0, g1 = f0 + pad, f1 + pad
        t = g0 / np.where(g0 == g1, 1.0, g0 - g1)
        return max(0.0, t[g0 < 0].max(initial=0.0)), min(1.0, t[g1 < 0].min(initial=1.0))

    lo, hi = window(tol)
    if lo > hi or np.any((f0 < -tol) & (f1 < -tol)):
        raise EmptyIntersection("regions do not meet")
    exact = window(0.0)
    if exact[0] <= exact[1]:
        lo, hi = exact
    return np.array([s0 if lo == 0.0 else s0 + lo * (s1 - s0),
                     s1 if hi == 1.0 else s0 + hi * (s1 - s0)])


def _clip_edges(p, fan_p, q, fan_q, tol):
    """Normal angles, starts and ends of the pieces of P's edges in Q.

    Seen from Q's vertex centroid c, an edge of P sweeps Q's wedges (between
    the rays to consecutive vertices) from that of its start to that of its
    end, and in each wedge Q is cut by one edge line.  So the edge is
    clipped (Cyrus and Beck) only against those lines and the lines of the
    wedge either side (near a vertex the next line, moved, may cut deeper),
    or against all where its line passes within ``tol`` of c.  Q's lines
    are moved outward by ``tol``, so an edge Q shares with P bounds nothing.
    A piece ends exactly at a vertex within ``tol`` of the other polygon's
    line, and at ``_crossing`` otherwise.  Raises EmptyIntersection when Q
    lies beyond an edge line by more than ``tol``; when Q only touches one,
    the one piece is that edge clipped by ``_clip_segment``.
    """
    m = q.size
    edges, normals = fan_p
    succ = (edges + 1) % p.size
    a0, a1 = p[edges], p[succ]
    # the least and greatest depth of Q inside each edge line
    low, top = _depth(q[_supporting(fan_q, np.stack((normals, normals + np.pi)))], a0, a1)
    k = int(np.argmin(top))
    if top[k] < -tol:
        raise EmptyIntersection("regions do not meet")
    if top[k] <= tol:
        return (normals[k : k + 1], *np.split(_clip_segment(a0[k], a1[k], q, tol), 2))
    # the wedge of each vertex of P (the rays in angular order start at r);
    # an edge of Q is its own piece, and an edge line Q lies inside gives none
    c = q.mean()
    rays = np.angle(q - c)
    r = int(np.argmin(rays))
    wedge = (np.searchsorted(np.roll(rays, -r), np.angle(p - c), side="right") - 1 + r) % m
    q1 = _neighbours(q)[1]
    w0 = wedge[edges]
    own = (q[w0] == a0) & (q1[w0] == a1)
    clip = (low < tol) & ~own
    own = normals[own], a0[own], a1[own]
    normals, a0, a1, w0, w1 = normals[clip], a0[clip], a1[clip], w0[clip], wedge[succ[clip]]
    # one pair per wedge each edge sweeps counterclockwise from ``first``,
    # and per wedge either side, with the depths of its ends inside that
    # wedge's line moved out
    side = _depth(c, a0, a1)
    first = np.where(side > 0.0, w0, w1)
    span = np.where(np.abs(side) <= tol, m, np.minimum(np.mod(w0 + w1 - 2 * first, m) + 3, m))
    at = np.cumsum(span) - span
    edge = np.repeat(np.arange(span.size), span)
    j = (np.arange(edge.size) - np.repeat(at - first + 1, span)) % m
    g0, g1 = _depth(a0[edge], q[j], q1[j]) + tol, _depth(a1[edge], q[j], q1[j]) + tol
    # where the edge enters and leaves each moved line; a pair with both
    # ends outside enters at +inf and leaves at -inf
    t, pair = g0 / (g0 - g1), np.arange(edge.size)
    t_enter = np.where(g0 < 0.0, np.where(g1 < 0.0, np.inf, t), -np.inf)
    t_leave = np.where(g1 < 0.0, np.where(g0 < 0.0, -np.inf, t), np.inf)
    t_in, t_out = np.maximum.reduceat(t_enter, at), np.minimum.reduceat(t_leave, at)
    keep = t_in <= t_out
    start, end = np.where(t_in == -np.inf, a0, a1), np.where(t_out == np.inf, a1, a0)
    # an end more than tol inside the line of its first binding pair moves
    # to that edge of Q: to its vertex within tol of the edge line (its start
    # for a start, its end for an end, if both are), or else the crossing
    for ends, t_pair, t_edge, inside, late in ((start, t_enter, t_in, g1, 0),
                                               (end, t_leave, t_out, g0, 1)):
        binding = np.minimum.reduceat(np.where(t_pair == t_edge[edge], pair, pair[-1:]), at)
        i = np.flatnonzero(keep & (np.abs(t_edge) < np.inf) & (inside[binding] > 2.0 * tol))
        u = q[j[binding[i]]], q1[j[binding[i]]]
        near = [np.abs(_depth(x, a0[i], a1[i])) <= tol for x in u]
        ends[i] = np.where(near[late], u[late],
                           np.where(near[1 - late], u[1 - late], _crossing(a0[i], a1[i], *u)))
    return tuple(np.concatenate(x) for x in zip(own, (normals[keep], start[keep], end[keep])))


def intersect_regions(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Intersection of two regions sharing the same angle grid.

    The pointwise minimum of the two support vectors is generally *not* the
    support function of the intersection, so the polygons themselves are
    intersected, in time linear in their sizes up to a logarithm: each edge
    of either is clipped to the other by ``_clip_edges``, and the pieces
    ordered by normal angle walk the boundary counterclockwise.  Their ends
    are exact vertices or symmetric crossings, so of two equal pieces from
    a shared edge one is kept and the ring certifies itself.  A point or
    segment region is one ``_clip_segment`` call.  Boundary lines are moved
    by 1e-12 times the largest vertex modulus, so the result scales.
    """
    k = a.grid_size
    if b.grid_size != k:
        raise ValueError(f"grid mismatch: {k} vs {b.grid_size}")
    va, vb = a.vertices, b.vertices
    tol = 1e-12 * max(np.abs(va).max(), np.abs(vb).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        if min(va.size, vb.size) < 3:
            s, w = (va, vb) if va.size <= vb.size else (vb, va)
            ring = _clip_segment(s[0], s[-1], w, tol)
        else:
            fa, fb = _fan(va), _fan(vb)
            pieces = [_clip_edges(va, fa, vb, fb, tol), _clip_edges(vb, fb, va, fa, tol)]
            normals, start, end = (np.concatenate(x) for x in zip(*pieces))
            order = np.argsort(np.mod(normals, 2.0 * np.pi), kind="stable")
            start, end = start[order], end[order]
            twin = (start == np.roll(start, 1)) & (end == np.roll(end, 1))
            twin[0] &= not twin[1:].all()  # a lone piece is its own twin
            ring = np.column_stack((start[~twin], end[~twin])).ravel()
    return ConvexRegion._build(_hull_vertices(ring), k)


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
