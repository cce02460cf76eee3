"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: the hull
oracle is gift wrapping (the library deletes reflex vertices of an ordered
ring in vectorised passes), the support, diameter and Hausdorff oracles
scan every vertex, vertex pair and vertex-edge pair (the library walks
normal fans), the eigenvalue oracle bisects the sign of the characteristic
determinant (the library calls LAPACK through ``numpy.linalg.eigh``), and
range membership is checked by direct Monte-Carlo Rayleigh sampling,
against each supporting halfplane of the region in turn.  The
intersection oracle tries every vertex against every edge and every pair
of edges, as the library does in floats up to a tolerance; it stays
independent by deciding close calls and crossings in rational arithmetic
and by gift wrapping the candidates.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from blockrange import BlockOperatorSpec, BuiltinTail, ComplexMatrix, VanishingTail


# -- random objects -----------------------------------------------------


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> ComplexMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexMatrix(scale * g / np.sqrt(2.0))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


# -- independent oracles ------------------------------------------------


def gift_wrap_hull(points) -> np.ndarray:
    """Gift-wrapping convex hull, CCW, corners only.

    Each step wraps one corner, so a hull closes within ``len(points)``
    steps; on nearly collinear points rounding can keep the wrap from
    returning to its start, and after ``len(points) + 1`` steps it raises.
    """
    pts = np.unique(np.asarray(points, dtype=np.complex128).ravel())
    if pts.size <= 2:
        return pts

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    start = min(pts, key=lambda z: (z.imag, z.real))
    hull = [start]
    cur = start
    for _ in range(pts.size + 1):
        cand = pts[0] if pts[0] != cur else pts[1]
        for p in pts:
            if p == cur:
                continue
            c = cross(cur, cand, p)
            if c < 0 or (c == 0 and abs(p - cur) > abs(cand - cur)):
                cand = p
        if cand == start:
            break
        hull.append(cand)
        cur = cand
    else:
        raise RuntimeError(f"gift wrapping did not close within {pts.size + 1} steps")
    arr = np.array(hull)
    # rotate so the lexicographically smallest vertex comes first (matches
    # the library's canonical ordering)
    k = np.lexsort((arr.imag, arr.real))[0]
    return np.roll(arr, -k)


def brute_support(points, angles) -> np.ndarray:
    """max Re(x e^{-i theta}) over all the points, for each angle."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    return np.array([max((p * np.exp(-1j * t)).real for p in pts) for t in angles])


def support_excess(region, points) -> np.ndarray:
    """How far each point pokes outside the region's supporting halfplanes:
    non-positive (up to fp) exactly when the point lies in the region, and
    a lower bound for its distance to the region otherwise."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    k = region.support.size
    dirs = np.exp(-2j * np.pi * np.arange(k) / k)
    return np.concatenate([  # 4096 points at a time, to bound the memory
        np.max((pts[lo : lo + 4096, None] * dirs).real - region.support, axis=1)
        for lo in range(0, pts.size, 4096)
    ])


def brute_diameter(points) -> float:
    """Largest distance over all pairs of points."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    return max(float(np.abs(pts - p).max()) for p in pts)


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    t = 0.0 if ab == 0 else min(1.0, max(0.0, ((p - a) * ab.conjugate()).real / abs(ab) ** 2))
    return abs(p - (a + t * ab))


def _polygon_distance(p: complex, corners) -> float:
    """Distance from ``p`` to the convex polygon with CCW ``corners`` (0 inside)."""
    n = len(corners)
    if n == 1:
        return abs(p - corners[0])
    edges = [(corners[i], corners[(i + 1) % n]) for i in range(n)]
    if n > 2 and all(((b - a).conjugate() * (p - a)).imag >= 0 for a, b in edges):
        return 0.0
    return min(_segment_distance(p, a, b) for a, b in edges)


def brute_hausdorff(points_a, points_b) -> float:
    """Hausdorff distance between the convex hulls of two point sets.

    The distance to a convex set is a convex function, so each directed
    distance peaks at a corner: the answer is the largest corner-to-polygon
    distance either way, each found by scanning every edge.
    """
    ha = [complex(z) for z in gift_wrap_hull(points_a)]
    hb = [complex(z) for z in gift_wrap_hull(points_b)]
    a_to_b = max(_polygon_distance(p, hb) for p in ha)
    b_to_a = max(_polygon_distance(p, ha) for p in hb)
    return max(a_to_b, b_to_a)


def _boundary(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of the edges of a CCW polygon, a segment (one
    edge) or a point (none)."""
    if corners.size == 1:
        return corners[:0], corners[:0]
    if corners.size == 2:
        return corners[:1], corners[1:]
    return corners, np.roll(corners, -1)


def _cross_of(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u.real * v.imag - u.imag * v.real


def _rational(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def _rational_cross(o, a, b) -> Fraction:
    """(a - o) x (b - o) of the rational points ``o``, ``a`` and ``b``."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sides(p: complex, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Exact sign of (s1 - s0) x (p - s0) for each edge s0 -> s1.  Rounding
    moves the float product by a few ulps of |s1 - s0| |p - s0|, so only
    the products within 1e-9 of that of zero are redone in rationals."""
    d, w = s1 - s0, p - s0
    cross = _cross_of(d, w)
    side = np.sign(cross)
    for k in np.flatnonzero(np.abs(cross) <= 1e-9 * np.abs(d) * np.abs(w)):
        side[k] = np.sign(_rational_cross(_rational(s0[k]), _rational(s1[k]), _rational(p)))
    return side


def _inside(p: complex, corners: np.ndarray) -> bool:
    """Exact membership of ``p`` in the convex hull of the CCW ``corners``."""
    if corners.size == 1:
        return bool(p == corners[0])
    s0, s1 = _boundary(corners)
    side = _sides(p, s0, s1)
    if corners.size == 2:
        a, b = corners
        return bool(side[0] == 0
                    and min(a.real, b.real) <= p.real <= max(a.real, b.real)
                    and min(a.imag, b.imag) <= p.imag <= max(a.imag, b.imag))
    return bool(np.all(side >= 0))


def _crossing(a0: complex, a1: complex, b0: complex, b1: complex) -> complex | None:
    """The point where the segments a0a1 and b0b1 cross, found in rationals
    and rounded to the nearest float, or None where they do not cross or
    are parallel.  A crossing at a shared end is that end, to the bit."""
    a0, a1, b0, b1 = map(_rational, (a0, a1, b0, b1))
    origin = (Fraction(0), Fraction(0))
    da, db = (a1[0] - a0[0], a1[1] - a0[1]), (b1[0] - b0[0], b1[1] - b0[1])
    den = _rational_cross(origin, da, db)
    if den == 0:
        return None
    w = (b0[0] - a0[0], b0[1] - a0[1])
    t, s = _rational_cross(origin, w, db) / den, _rational_cross(origin, w, da) / den
    if not (0 <= t <= 1 and 0 <= s <= 1):
        return None
    return complex(float(a0[0] + t * da[0]), float(a0[1] + t * da[1]))


def brute_intersection(corners_a, corners_b) -> np.ndarray:
    """Corners of the intersection of two convex polygons given by their
    CCW corners, CCW; empty when they do not meet.

    The corners of the intersection are among the corners of each polygon
    that lie in the other and the crossings of an edge of one with an edge
    of the other; every vertex is tried against every edge and every pair
    of edges is tried, and the candidates are gift wrapped.  Signs and
    crossings that rounding could decide are decided in rational
    arithmetic, so a polygon meets its own copy in its own corners, not in
    crossings one ulp off them.  Points and segments are polygons with no
    edge or one.
    """
    ha = np.asarray(corners_a, dtype=np.complex128).ravel()
    hb = np.asarray(corners_b, dtype=np.complex128).ravel()
    cand = [p for p in ha if _inside(p, hb)] + [p for p in hb if _inside(p, ha)]
    b0, b1 = _boundary(hb)
    db = b1 - b0
    for a0, a1 in zip(*_boundary(ha)):
        da = a1 - a0
        den = _cross_of(da, db)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _cross_of(b0 - a0, db) / den
            s = _cross_of(b0 - a0, da) / den
        # float screening: near-parallel pairs and crossings near or inside
        # both segments go to the rational test
        pad = 1e-9
        maybe = ((np.abs(den) <= pad * np.abs(da) * np.abs(db))
                 | ((t >= -pad) & (t <= 1 + pad) & (s >= -pad) & (s <= 1 + pad)))
        for k in np.flatnonzero(maybe):
            hit = _crossing(a0, a1, b0[k], b1[k])
            if hit is not None:
                cand.append(hit)
    if not cand:
        return np.zeros(0, dtype=np.complex128)
    return gift_wrap_hull(np.array(cand))


def charpoly_lambda_max(h: np.ndarray, iters: int = 100) -> float:
    """Largest eigenvalue of a Hermitian matrix by determinant-sign bisection.

    det(H - t I) = prod(lam_i - t) has sign (-1)^n for t above the top
    eigenvalue; walk down from a Gershgorin bound until the sign differs,
    then bisect the bracket.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    d = np.diag(h).real
    radii = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    hi = float(np.max(d + radii)) + 1.0
    lo = float(np.min(d - radii)) - 1.0
    above = (-1.0) ** n

    def sgn(t):
        return np.sign(np.real(np.linalg.det(h - t * np.eye(n))))

    steps = 4000
    dt = (hi - lo) / steps
    a = b = hi
    for k in range(1, steps + 1):
        t = hi - k * dt
        s = sgn(t)
        if s == 0:
            return float(t)
        if s != above:
            a, b = t, hi - (k - 1) * dt
            break
    else:
        raise AssertionError("no sign change found below the Gershgorin bound")
    for _ in range(iters):
        mid = 0.5 * (a + b)
        s = sgn(mid)
        if s == 0:
            return float(mid)
        if s == above:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def rayleigh_samples(a: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    """Monte-Carlo quadratic-form values over random unit vectors."""
    rng = np.random.default_rng(seed)
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return np.einsum("ki,ij,kj->k", x.conj(), a, x)


def assemble_block_diagonal(blocks) -> np.ndarray:
    """Explicit dense direct sum of finitely many blocks."""
    mats = [np.asarray(b.entries if isinstance(b, ComplexMatrix) else b) for b in blocks]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=np.complex128)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at : at + k, at : at + k] = m
        at += k
    return out


# -- corpus specs -------------------------------------------------------


def mat(rows) -> ComplexMatrix:
    return ComplexMatrix(np.array(rows, dtype=np.complex128))


NILPOTENT = mat([[0, 1], [0, 0]])
DIAG23 = mat(np.diag([2.0, 3.0]))


def constant_spec(a: ComplexMatrix) -> BlockOperatorSpec:
    return BlockOperatorSpec((), VanishingTail((a,)))


def two_matrix_spec() -> BlockOperatorSpec:
    return BlockOperatorSpec((), VanishingTail((NILPOTENT, DIAG23)))


def scalar_periodic_spec(values, prefix=()) -> BlockOperatorSpec:
    cyc = tuple(mat([[v]]) for v in values)
    pre = tuple(mat([[v]]) for v in prefix)
    return BlockOperatorSpec(pre, VanishingTail(cyc))


def vanishing_spec(limits, c=0.0, p=1.0, seed=0, prefix=()) -> BlockOperatorSpec:
    lims = tuple(m if isinstance(m, ComplexMatrix) else mat(m) for m in limits)
    pre = tuple(m if isinstance(m, ComplexMatrix) else mat(m) for m in prefix)
    return BlockOperatorSpec(pre, VanishingTail(lims, c, p, seed))


def dense_spec(prefix=()) -> BlockOperatorSpec:
    return BlockOperatorSpec(tuple(prefix), BuiltinTail("dense_angle_diagonal"))


def certified_corpus() -> list[tuple[str, BlockOperatorSpec]]:
    """Named specs whose essential range the tests pin down independently."""
    rng = np.random.default_rng(2024)
    return [
        ("constant_nilpotent", constant_spec(NILPOTENT)),
        ("two_matrix_periodic", two_matrix_spec()),
        ("scalar_alternating", scalar_periodic_spec([-1.0, 1.0])),
        ("scalar_triangle", scalar_periodic_spec([0.0, 1.0, 1j], prefix=[5.0, -3.0 + 1j])),
        ("random_periodic", BlockOperatorSpec(
            (random_matrix(rng, 3),),
            VanishingTail((random_matrix(rng, 2), random_matrix(rng, 4))),
        )),
        ("vanishing_pair", vanishing_spec(
            [[[0.0, 1.0], [0.0, 0.0]], [[1.5]]], c=0.5, p=1.0, seed=11,
        )),
    ]


# -- operator documents ---------------------------------------------------


def _matrix_json(m: ComplexMatrix) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in m.entries]


def spec_to_dict(spec: BlockOperatorSpec) -> dict:
    """The JSON operator document of ``spec``: a tail without decay or seed
    is written in the ``"periodic"`` shorthand."""
    doc: dict = {}
    if spec.prefix:
        doc["prefix"] = [_matrix_json(m) for m in spec.prefix]
    t = spec.tail
    if isinstance(t, BuiltinTail):
        doc["tail"] = {"kind": "builtin", "name": t.name}
    elif not (t.decay_scale or t.seed):
        doc["tail"] = {"kind": "periodic", "cycle": [_matrix_json(m) for m in t.limits]}
    else:
        doc["tail"] = {"kind": "vanishing", "limits": [_matrix_json(m) for m in t.limits],
                       "decay": {"type": "power", "c": t.decay_scale, "p": t.decay_power},
                       "seed": t.seed}
    if spec.shift != 0:
        doc["shift"] = [spec.shift.real, spec.shift.imag]
    return doc


# -- reference loops of vectorised passes -----------------------------------


def bucket_targets_by_loop(ext, m: int) -> list[complex]:
    """The regroup targets by one mask per bucket and a search over the
    occupied buckets for each empty one: per bucket the max-modulus point,
    the smallest angle among those within 1e-12 relative of the maximum;
    an empty bucket borrows from the cyclically nearest occupied one,
    ties to the lower index."""
    ext = np.asarray(ext, dtype=np.complex128)
    ang = np.mod(np.angle(ext), 2.0 * np.pi)
    buckets = np.minimum((ang * m / (2.0 * np.pi)).astype(int), m - 1)
    reps: dict[int, complex] = {}
    for j in range(m):
        members = ext[buckets == j]
        if members.size == 0:
            continue
        mod = np.abs(members)
        best = mod.max()
        close = members[mod >= best - 1e-12 * best]
        reps[j] = complex(close[np.argmin(np.mod(np.angle(close), 2.0 * np.pi))])
    occupied = sorted(reps)
    out = []
    for j in range(m):
        src = j if j in reps else min(
            occupied, key=lambda q: (min((j - q) % m, (q - j) % m), q))
        out.append(reps[src])
    return out


def render_by_vertex(items) -> str:
    """The SVG document of ``Scene.render`` for ``items``, a list of
    ("polygon" | "points", complex array, style), with each vertex mapped
    and formatted on its own."""
    from blockrange.svgplot import _MARGIN, _PALETTE, _SIZE

    def fmt(x: float) -> str:
        return f"{x:.3f}"

    allpts = np.concatenate([p for _, p, _ in items])
    x0, x1 = float(allpts.real.min()), float(allpts.real.max())
    y0, y1 = float(allpts.imag.min()), float(allpts.imag.max())
    # the floor grows with the coordinates, so padding never vanishes in them
    span = max(x1 - x0, y1 - y0, 1e-9, 1e-12 * max(map(abs, (x0, x1, y0, y1))))
    pad = _MARGIN * span
    x0, x1 = x0 - pad, x1 + pad
    y0, y1 = y0 - pad, y1 + pad
    span_x, span_y = x1 - x0, y1 - y0
    scale = _SIZE / max(span_x, span_y)
    off_x = (_SIZE - scale * span_x) / 2.0
    off_y = (_SIZE - scale * span_y) / 2.0

    def to_px(z: complex) -> tuple[float, float]:
        return (off_x + (z.real - x0) * scale, _SIZE - off_y - (z.imag - y0) * scale)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]
    if x0 < 0 < x1:
        px = to_px(0j)[0]
        lines.append(f'<line x1="{fmt(px)}" y1="0" x2="{fmt(px)}" y2="{_SIZE}" '
                     'stroke="#dddddd" stroke-width="1"/>')
    if y0 < 0 < y1:
        py = to_px(0j)[1]
        lines.append(f'<line x1="0" y1="{fmt(py)}" x2="{_SIZE}" y2="{fmt(py)}" '
                     'stroke="#dddddd" stroke-width="1"/>')
    for kind, pts, style in items:
        stroke, fill = _PALETTE.get(style, _PALETTE["region"])
        if kind == "polygon":
            coords = " ".join(f"{fmt(px)},{fmt(py)}" for px, py in (to_px(z) for z in pts))
            lines.append(f'<polygon points="{coords}" stroke="{stroke}" fill="{fill}" '
                         'stroke-width="1.5"/>')
        else:
            for z in pts:
                px, py = to_px(z)
                lines.append(f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="2" '
                             f'fill="{fill}" stroke="none"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
