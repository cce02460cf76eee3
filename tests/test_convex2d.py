import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blockrange import (
    ComplexMatrix,
    ConvexRegion,
    EmptyInput,
    EmptyIntersection,
    NotNested,
    PointCloud,
    ValidationError,
    extreme_points,
    grid_angles,
    hausdorff,
    intersect_regions,
    nested_conv_exchange,
    numerical_range,
)
from blockrange.convex2d import _diameter_pair, _hull_vertices, _ordered_hull

from helpers import (
    brute_diameter,
    brute_hausdorff,
    brute_intersection,
    brute_support,
    gift_wrap_hull,
    support_excess,
)

# reasonable planar coordinates, no overflow surprises
coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
complex_points = st.lists(
    st.tuples(coord, coord).map(lambda t: complex(*t)), min_size=1, max_size=40
)


def square(lo=0.0, hi=1.0, grid=360):
    return ConvexRegion.from_points(
        [complex(lo, lo), complex(hi, lo), complex(hi, hi), complex(lo, hi)], grid
    )


def disc_points(center=0j, radius=1.0, count=720):
    th = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return center + radius * np.exp(1j * th)


def ellipse_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points in strictly convex position, counterclockwise on a
    random ellipse."""
    theta = 2 * np.pi * (np.arange(n) + 0.5 * rng.random(n)) / n
    ellipse = np.cos(theta) + 1j * rng.uniform(0.3, 1.0) * np.sin(theta)
    return complex(*rng.normal(0.0, 2.0, 2)) + np.exp(2j * np.pi * rng.random()) * ellipse


class TestHull:
    def test_square_with_interior_points(self):
        pts = [0j, 1 + 0j, 1 + 1j, 1j, 0.5 + 0.5j, 0.25 + 0.75j]
        region = ConvexRegion.from_points(pts)
        assert_allclose(
            np.sort_complex(region.vertices), np.sort_complex([0j, 1 + 0j, 1 + 1j, 1j])
        )

    def test_collinear_input_keeps_endpoints(self):
        region = ConvexRegion.from_points([0j, 1 + 1j, 2 + 2j, 3 + 3j])
        assert_allclose(np.sort_complex(region.vertices), [0j, 3 + 3j])

    def test_single_point(self):
        region = ConvexRegion.from_points([2 + 3j])
        assert region.vertices.size == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            ConvexRegion.from_points([])

    def test_matches_gift_wrapping_oracle(self, rng):
        for _ in range(30):
            pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            assert np.array_equal(_hull_vertices(pts), gift_wrap_hull(pts))

    def test_large_input_matches_gift_wrapping(self, rng):
        pts = rng.standard_normal(6000) + 1j * rng.standard_normal(6000)
        assert np.array_equal(_hull_vertices(pts), gift_wrap_hull(pts))

    def test_large_flat_input_falls_back(self, rng):
        t = rng.uniform(-1, 1, 5000)
        pts = t * (1 + 2j)  # all on one line
        verts = _hull_vertices(pts)
        assert np.array_equal(verts, [pts.min(), pts.max()])

    def test_ordered_input_against_gift_wrapping(self, rng):
        # each input is in an order the certificate must accept or refuse;
        # either way the vertices and their order are the oracle's
        ring = np.exp(2j * np.pi * np.arange(12) / 12) * (1.0 + 0.4j)
        corner = 2.0 + 1.0j
        cluster = corner + 1e-9 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        inputs = {
            "repeated corners": np.repeat(ring, 3),
            "closing repeat": np.append(ring, ring[0]),
            "jittered corner cluster": np.concatenate([[-1 - 1j, 1 - 1j], cluster, [-1 + 1j]]),
            "clockwise": ring[::-1],
            "collinear": np.linspace(0, 1, 9) * (2 + 1j),
            "twice wound": np.exp(4j * np.pi * np.arange(7) / 7),
        }
        for name, pts in inputs.items():
            want = gift_wrap_hull(pts)
            got = _hull_vertices(pts)
            assert got.size == want.size, name
            assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=name)

    def test_certified_order_matches_gift_wrapping(self, rng):
        # attained points of random blocks come in angular order; whenever
        # the fast path accepts them it returns the oracle's array, and
        # the scan returns the same array for the points shuffled
        certified = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pts = numerical_range(ComplexMatrix(g), grid=90).attained
            fast = _ordered_hull(pts)
            if fast is not None:
                certified += 1
                assert np.array_equal(fast, gift_wrap_hull(pts))
                assert np.array_equal(fast, _hull_vertices(rng.permutation(pts)))
        assert certified >= 30
        # a diamond thinner than the coincidence snap turns left at every
        # corner, but its two middle corners merge into the lower one
        diamond = np.array([-1, -1e-16j, 1, 1e-16j])
        assert _ordered_hull(diamond) is None
        assert np.array_equal(_hull_vertices(diamond), [-1, -1e-16j, 1])

    convex_sets = st.tuples(st.integers(3, 200), st.integers(0, 2**32 - 1), st.integers(-12, 12))

    @staticmethod
    def convex_position(case) -> tuple[np.random.Generator, np.ndarray]:
        """Points in strictly convex position, counterclockwise on a random
        ellipse at scale 10^e, and the generator that drew them."""
        n, seed, e = case
        rng = np.random.default_rng(seed)
        return rng, 10.0**e * ellipse_polygon(rng, n)

    @given(convex_sets)
    @settings(max_examples=30, deadline=None)
    def test_convex_position_in_any_order(self, case):
        # every point is a corner, so shuffled they certify their own hull
        # after the pruning scan, bit for bit the hull they give in order
        rng, pts = self.convex_position(case)
        ordered = _hull_vertices(pts)
        assert _hull_vertices(rng.permutation(pts)).tobytes() == ordered.tobytes()
        assert np.array_equal(ordered, gift_wrap_hull(pts))

    @given(convex_sets, st.sampled_from(["interior", "within the snap"]))
    @settings(max_examples=30, deadline=None)
    def test_convex_position_with_one_more_point(self, case, extra):
        # the ring no longer certifies itself: an interior point, or a point
        # 4e-15 x the set's size inside its leftmost corner (so within the
        # 1e-14 coincidence snap, and merged into that smaller corner)
        rng, pts = self.convex_position(case)
        if extra == "interior":
            point = rng.dirichlet(np.ones(3)) @ rng.choice(pts, 3, replace=False)
        else:
            corner = pts[np.argmin(pts.real)]
            inward = pts.mean() - corner
            point = corner + 4e-15 * np.abs(pts).max() * inward / abs(inward)
        more = rng.permutation(np.append(pts, point))
        assert np.array_equal(_hull_vertices(more), gift_wrap_hull(more))
        assert np.array_equal(_hull_vertices(more), _hull_vertices(pts))

    @given(complex_points)
    @settings(max_examples=60, deadline=None)
    def test_hull_idempotent(self, pts):
        region = ConvexRegion.from_points(pts, grid=90)
        again = ConvexRegion.from_points(region.vertices, grid=90)
        assert_allclose(np.sort_complex(again.vertices), np.sort_complex(region.vertices), atol=1e-9)

    @given(complex_points, complex_points)
    @settings(max_examples=60, deadline=None)
    def test_support_of_union_is_max(self, pts_a, pts_b):
        ra = ConvexRegion.from_points(pts_a, grid=90)
        rb = ConvexRegion.from_points(pts_b, grid=90)
        ru = ConvexRegion.from_points(np.concatenate([ra.vertices, rb.vertices]), grid=90)
        assert_allclose(ru.support, np.maximum(ra.support, rb.support), atol=1e-9)


def _hull_fuzz_cases():
    """(name, points at unit scale, well conditioned) for the hull fuzz."""
    rng = np.random.default_rng(77)

    def gauss(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def unit(n):
        return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))

    t = rng.uniform(-1.0, 1.0, 40)
    line = np.concatenate([t * (2 + 1j), t[:4] * (2 + 1j) + 1e-3j * gauss(4)])
    base = gauss(30)
    ring = np.concatenate([unit(300), 0.99 * np.sqrt(rng.uniform(0.0, 1.0, 200)) * unit(200)])
    theta = 2 * np.pi * np.arange(80) / 80
    ellipses = [c + r * np.exp(1j * phi) * (np.cos(theta + s) + 0.3j * np.sin(theta + s))
                for c, r, phi, s in zip(3 * gauss(60), rng.uniform(0.2, 1.0, 60),
                                        rng.uniform(0.0, np.pi, 60), rng.uniform(0.0, 1.0, 60))]
    lattice = rng.integers(-4, 5, 60) + 1j * rng.integers(-4, 5, 60)
    return [
        ("lattice", lattice, False),
        ("collinear run with off-line points", line, False),
        ("1e-15 near-duplicates", np.concatenate([base, base * (1 + 1e-15 * gauss(30))]), False),
        ("dense ring with interior points", ring, True),
        ("union of convex polygons", np.concatenate(ellipses), True),
    ]


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_hull_fuzz(scale):
    for name, unit, well_conditioned in _hull_fuzz_cases():
        pts = scale * unit
        size = np.abs(pts).max()
        v = _hull_vertices(pts)
        assert np.isin(v, pts).all(), name
        if v.size >= 3:
            assert np.array_equal(_ordered_hull(v), v), name
            # no input point lies outside any edge line, in any direction
            edge = np.roll(v, -1) - v
            rel = pts[:, None] - v[None, :]
            outside = (rel.real * edge.imag - rel.imag * edge.real) / np.abs(edge)
            assert outside.max() <= 1e-13 * size, name
        region = ConvexRegion.from_points(pts)
        assert support_excess(region, pts).max() <= 1e-13 * size, name
        if well_conditioned:
            assert np.array_equal(v, gift_wrap_hull(pts)), name
    assert _hull_fuzz_cases()[-1][1].size > 4096


@pytest.mark.parametrize("c", [1e-15, 1e-14, 1e-12, 1e12, 1e15])
def test_hull_and_range_scale_with_the_input(c):
    # the coincidence merge has no absolute floor: a tiny triangle keeps
    # its three corners, and W(cA) = c W(A) to rounding
    triangle = np.array([0, 1, 0.4 + 0.9j])
    assert ConvexRegion.from_points(c * triangle).vertices.size == 3
    g = np.random.default_rng(5).standard_normal((3, 3, 2)) @ np.array([1, 1j])
    base, scaled = numerical_range(ComplexMatrix(g)), numerical_range(ComplexMatrix(c * g))
    for want, got in ((base.inner, scaled.inner), (base.outer, scaled.outer)):
        assert got.vertices.size == want.vertices.size
        size = np.abs(want.support).max()
        assert_allclose(got.support / c, want.support, rtol=0, atol=1e-12 * size)


class TestCanonical:
    def test_support_recompute_is_fixed_point(self, rng):
        for _ in range(20):
            pts = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            region = ConvexRegion.from_points(pts, grid=180)
            dirs = np.exp(1j * grid_angles(180))
            again = np.max(np.real(region.vertices[:, None] * dirs[None, :].conj()), axis=0)
            assert_allclose(again, region.support, atol=1e-12)

    def test_vertices_satisfy_support_constraints(self, rng):
        pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        region = ConvexRegion.from_points(pts, grid=360)
        assert support_excess(region, region.vertices).max() <= 1e-10

    def test_from_support_round_trip(self, rng):
        pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        region = ConvexRegion.from_points(pts, grid=360)
        rebuilt = ConvexRegion.from_support(region.support)
        # the halfplane region circumscribes the polygon: between two grid
        # directions a long edge may poke out by about edge * d_theta / 2
        slack = region.diameter * np.pi / 360
        assert hausdorff(region, rebuilt) < slack
        # ... and it never cuts into the polygon
        assert support_excess(rebuilt, region.vertices).max() <= 1e-10

    def test_support_against_vertex_scan(self, rng):
        for k in (3, 7, 90, 360):
            for scale in (1e-8, 1.0, 1e8):
                pts = scale * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
                region = ConvexRegion.from_points(pts, grid=k)
                want = brute_support(pts, grid_angles(k))
                assert_allclose(region.support, want, rtol=0, atol=1e-14 * scale)
        for pts in ([0.3 - 2j], [1 + 1j, -2 + 0.5j]):
            region = ConvexRegion.from_points(pts, grid=12)
            assert_allclose(region.support, brute_support(pts, grid_angles(12)), atol=1e-14)

    def test_diameter_against_pair_scan(self, rng):
        for scale in (1e-8, 1.0, 1e8):
            for n in (1, 2, 3, 3, 4, 4, 5, 6, 8, 40) * 5:
                pts = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                region = ConvexRegion.from_points(pts)
                assert region.diameter == pytest.approx(brute_diameter(pts), rel=1e-14, abs=0)
        circle = ConvexRegion.from_points(np.exp(2j * np.pi * np.arange(4096) / 4096))
        assert circle.vertices.size == 4096
        assert circle.diameter == pytest.approx(2.0, abs=1e-15)

    @given(st.sampled_from(["cloud", "ellipse", "regular"]), st.integers(1, 300),
           st.integers(0, 2**32 - 1), st.integers(-12, 12))
    @settings(max_examples=60, deadline=None)
    def test_diameter_pair_reaches_the_pairwise_maximum(self, kind, n, seed, e):
        # the antipodal walk against the argmax over all vertex pairs; a
        # regular polygon has many pairs at the maximum, any one will do
        rng = np.random.default_rng(seed)
        pts = {"cloud": lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n),
               "ellipse": lambda: ellipse_polygon(rng, max(n, 3)),
               "regular": lambda: np.exp(2j * np.pi * np.arange(n) / n)}[kind]()
        v = ConvexRegion.from_points(10.0**e * pts).vertices
        i, j = _diameter_pair(v)
        brute = np.abs(v[:, None] - v[None, :]).max()
        assert abs(v[i] - v[j]) >= brute * (1 - 1e-15)

    def test_from_support_singleton(self):
        z = 0.7 - 0.2j
        dirs = np.exp(1j * grid_angles(64))
        h = np.real(z * dirs.conj())
        region = ConvexRegion.from_support(h)
        assert region.vertices.size <= 2
        assert abs(region.vertices[0] - z) < 1e-9


class TestHausdorff:
    def test_identical_regions(self):
        s = square()
        assert hausdorff(s, s) == 0.0

    def test_translation_distance(self):
        a = square()
        b = a.translate(0.3 + 0.4j)
        assert hausdorff(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_disc_in_square(self):
        # unit square [-1,1]^2 vs inscribed unit disc: farthest point is a corner
        sq = ConvexRegion.from_points([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
        disc = ConvexRegion.from_points(disc_points(0, 1.0, 2000))
        assert hausdorff(sq, disc) == pytest.approx(np.sqrt(2) - 1, abs=1e-3)

    def test_region_pairs_against_vertex_edge_scan(self, rng):
        def cloud(n, center=0j, size=1.0):
            return center + size * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

        square_pts = np.array([0, 1, 1 + 1j, 1j])
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            base = cloud(24)
            pairs = [
                (cloud(1), cloud(1)),                       # points
                (cloud(1), cloud(20)),                      # point, polygon
                (cloud(2), cloud(2, 0.5)),                  # segments
                (cloud(2), cloud(15)),                      # segment, polygon
                (base, 0.5 * (base[:12] + base[12:])),      # nested: midpoints
                (square_pts, square_pts + 1 + 0.5j),        # touching along an edge
                (square_pts, 2 * square_pts + 1),           # touching at a corner
                (cloud(20), cloud(20, 8 + 3j, 0.5)),        # disjoint
                (base, base + 0.3 - 0.1j),                  # translates
            ]
            for pa, pb in pairs:
                pa, pb = scale * np.asarray(pa), scale * np.asarray(pb)
                got = hausdorff(ConvexRegion.from_points(pa), ConvexRegion.from_points(pb))
                want = brute_hausdorff(pa, pb)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)

    def test_cloud_cloud(self):
        a = PointCloud(np.array([0j, 1 + 0j]))
        b = PointCloud(np.array([0j, 1 + 1j]))
        assert hausdorff(a, b) == pytest.approx(1.0)

    def test_mixed_cloud_region(self):
        # one exact distance: a region is compared with a region, so a
        # cloud must be hulled first
        sq = square(0, 1)
        cloud = PointCloud(np.array([0j, 1 + 0j, 1 + 1j, 1j, 0.5 + 0.5j]))
        for a, b in ((sq, cloud), (cloud, sq), (sq, cloud.points)):
            with pytest.raises(TypeError):
                hausdorff(a, b)
        assert hausdorff(sq, ConvexRegion.from_points(cloud.points)) == 0.0

    def test_symmetry_and_triangle_inequality(self, rng):
        clouds = [
            PointCloud(rng.standard_normal(20) + 1j * rng.standard_normal(20))
            for _ in range(3)
        ]
        a, b, c = clouds
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    def test_hull_is_nonexpansive(self, rng):
        for _ in range(50):
            pa = rng.standard_normal(25) + 1j * rng.standard_normal(25)
            pb = rng.standard_normal(25) + 1j * rng.standard_normal(25)
            d_cloud = hausdorff(PointCloud(pa), PointCloud(pb))
            d_hull = hausdorff(ConvexRegion.from_points(pa), ConvexRegion.from_points(pb))
            assert d_hull <= d_cloud + 1e-10


class TestDistance:
    def test_inside_is_zero(self):
        s = square()
        pts = np.array([0.5 + 0.5j, 0.1 + 0.9j, 0j])
        assert_allclose(s.distance(pts), 0.0, atol=1e-12)

    def test_outside_matches_geometry(self):
        s = square()
        assert s.distance([2 + 0.5j])[0] == pytest.approx(1.0)
        assert s.distance([2 + 2j])[0] == pytest.approx(np.sqrt(2))

    def test_segment_region(self):
        seg = ConvexRegion.from_points([0j, 2 + 0j])
        assert seg.distance([1 + 1j])[0] == pytest.approx(1.0)
        assert seg.distance([3 + 0j])[0] == pytest.approx(1.0)
        assert seg.distance([1 + 0j])[0] == pytest.approx(0.0, abs=1e-12)


class TestIntersect:
    def test_self_intersection(self):
        s = square()
        out = intersect_regions(s, s)
        assert hausdorff(out, s) < 1e-9

    def test_overlapping_squares(self):
        a = square(0, 2)
        b = square(1, 3)
        out = intersect_regions(a, b)
        want = square(1, 2)
        assert hausdorff(out, want) < 1e-9

    def test_disjoint_raises(self):
        a = square(0, 1)
        b = square(5, 6)
        with pytest.raises(EmptyIntersection):
            intersect_regions(a, b)

    def test_grid_mismatch_raises(self):
        with pytest.raises(ValueError):
            intersect_regions(square(grid=360), square(grid=180))

    def test_against_membership_filter_oracle(self, rng):
        for _ in range(10):
            pa = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            pb = 0.4 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
            a = ConvexRegion.from_points(pa, grid=720)
            b = ConvexRegion.from_points(pb, grid=720)
            try:
                got = intersect_regions(a, b)
            except EmptyIntersection:
                continue
            # oracle: every vertex inside the other polygon and every crossing
            # of two edges, by exhaustive scans
            want = brute_intersection(gift_wrap_hull(pa), gift_wrap_hull(pb))
            assert want.size > 0
            assert hausdorff(got, ConvexRegion.from_points(want, grid=720)) < 1e-12

    def test_min_support_overestimates_intersection(self, rng):
        # the pointwise min of supports is only an upper envelope
        a = square(0, 2)
        b = square(1, 3)
        out = intersect_regions(a, b)
        assert np.all(out.support <= np.minimum(a.support, b.support) + 1e-9)

    @staticmethod
    def assert_matches_brute(ca, cb, rel=1e-12, scale=1.0):
        """Both argument orders against the vertex/edge-scan oracle; ``ca``
        and ``cb`` are CCW corners.  The oracle runs on them, the library on
        them times ``scale``."""
        ca, cb = np.asarray(ca, dtype=complex), np.asarray(cb, dtype=complex)
        a, b = ConvexRegion.from_points(scale * ca), ConvexRegion.from_points(scale * cb)
        want = brute_intersection(ca, cb)
        for x, y in ((a, b), (b, a)):
            if want.size == 0:
                with pytest.raises(EmptyIntersection):
                    intersect_regions(x, y)
                continue
            got = intersect_regions(x, y)
            size = scale * max(np.abs(ca).max(), np.abs(cb).max())
            assert hausdorff(got, ConvexRegion.from_points(scale * want)) <= rel * size

    def test_dense_angle_subsets_against_brute(self, rng):
        # hulls of overlapping sets of rational angles, as the tail windows
        # of a dense diagonal: exactly shared vertices and collinear edges
        def window(q_lo, q_hi, shift=0.3 - 0.2j):
            fr = np.unique(np.concatenate([np.arange(q) / q for q in range(q_lo, q_hi + 1)]))
            return np.exp(2j * np.pi * fr) - shift

        for lo_a, hi_a, lo_b, hi_b in [(3, 30, 10, 40), (1, 25, 20, 45), (12, 45, 13, 44),
                                       (5, 20, 5, 20), (2, 9, 30, 45)]:
            self.assert_matches_brute(window(lo_a, hi_a), window(lo_b, hi_b))
        circle = np.exp(2j * np.pi * np.arange(512) / 512)
        for _ in range(4):
            self.assert_matches_brute(circle[rng.random(512) < 0.7],
                                      circle[rng.random(512) < 0.7])

    def test_nested_identical_and_touching_against_brute(self, rng):
        sq = np.array([0, 1, 1 + 1j, 1j])
        poly = gift_wrap_hull(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        cases = [
            (sq, 0.25 + 0.5 * sq),              # nested
            (poly, 0.5 * poly + 0.1),           # nested
            (poly, poly),                       # identical
            (sq, 2 * sq),                       # nested, sharing two edges
            (sq, sq + 1 + 1j),                  # touching at a vertex
            (sq, sq + 1),                       # touching along a whole edge
            (sq, sq + 1 + 0.5j),                # touching along half an edge
            (sq, [1 + 0.5j, 2, 2 + 1j]),        # a vertex touching an edge
        ]
        for ca, cb in cases:
            self.assert_matches_brute(ca, cb)

    @pytest.mark.parametrize("depth", [2e-12, 5e-12, 9e-12])
    def test_corner_within_tol_of_an_edge_is_not_doubled(self, depth):
        # a wedge whose apex lies inside the unit square, ``depth`` below its
        # top edge: within tol (1e-12 x the largest modulus, about 1.1e-11)
        # of that edge, but 10 to 100 snap cells (1.1e-14 at the apex) from
        # where the wedge's edges cross it.  Those crossings are not proper,
        # so the intersection is the apex alone, within tol of the true
        # sliver; crossings taken on bare sign changes would add two corners
        # that the hull keeps
        apex = 0.5 + (1.0 - depth) * 1j
        wedge = ConvexRegion.from_points([apex, -0.5 + 11j, 1.5 + 11j])
        for x, y in ((square(), wedge), (wedge, square())):
            out = intersect_regions(x, y)
            assert out.vertices.tolist() == [apex]

    def test_points_and_segments_against_brute(self):
        sq = np.array([0, 1, 1 + 1j, 1j])
        cases = [
            (sq, [0.25 + 0.5j]),                # point inside
            (sq, [0.5]),                        # point on an edge
            (sq, [1 + 1j]),                     # point at a vertex
            (sq, [2 + 2j]),                     # point outside
            (sq, [-1 + 0.5j, 2 + 0.5j]),        # segment across
            (sq, [0.25 + 0.25j, 0.5 + 0.75j]),  # segment inside
            (sq, [-1, 2]),                      # segment along an edge
            (sq, [1 + 1j, 2 + 3j]),             # segment touching a vertex
            (sq, [2, 3 + 1j]),                  # segment outside
            ([0, 2 + 2j], [2, 2j]),             # crossing segments
            ([0, 2], [1, 3]),                   # collinear, overlapping
            ([0, 2], [3, 4]),                   # collinear, apart
            ([0, 2 + 2j], [1 + 1j]),            # point on a segment
            ([0, 2 + 2j], [1 + 2j]),            # point off a segment
            ([1 + 1j], [1 + 1j]),               # equal points
            ([1 + 1j], [1 + 2j]),               # distinct points
        ]
        for ca, cb in cases:
            self.assert_matches_brute(ca, cb)

    def test_disjoint_pairs_raise(self, rng):
        poly = gift_wrap_hull(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        circle = np.exp(2j * np.pi * np.arange(300) / 300)
        for ca, cb in [(poly, poly + 20), (circle, circle + 2.001),
                       (circle, 1.01j * circle + 2.02)]:
            assert brute_intersection(ca, cb).size == 0
            self.assert_matches_brute(ca, cb)

    pair_kinds = ("random", "chord", "dense windows", "nested", "identical", "touching")

    @staticmethod
    def polygon_pair(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """CCW corners of two polygons at unit scale whose intersection the
        vertex/edge-scan oracle finds exactly: polygons of up to 60 corners
        apart or overlapping; a triangle whose long edge passes just beside
        the other polygon's vertex centroid, on the far side from the
        triangle, so that seen from there it sweeps many wedges; hulls of
        overlapping sets of rational angles (shared vertices and collinear
        edges); a polygon and a copy shrunk about an inner point; a polygon
        twice; or two lattice polygons that touch."""
        def gauss_polygon():
            return gift_wrap_hull(rng.standard_normal(30) + 1j * rng.standard_normal(30))

        if kind == "random":
            return tuple(ellipse_polygon(rng, int(n)) for n in rng.integers(3, 61, 2))
        if kind == "chord":
            poly = ellipse_polygon(rng, int(rng.integers(20, 61)))
            turn = np.exp(2j * np.pi * rng.random())
            offset = rng.uniform(0.02, 0.25) * 1j
            return poly.mean() + turn * (offset + np.array([-3, 3, 3j])), poly
        if kind == "dense windows":
            shift = complex(*rng.uniform(-0.5, 0.5, 2))
            fractions = [np.unique(np.concatenate([np.arange(q) / q for q in range(lo, hi + 1)]))
                         for lo, hi in np.sort(rng.integers(1, 26, (2, 2)), axis=1)]
            return tuple(gift_wrap_hull(np.exp(2j * np.pi * f) - shift) for f in fractions)
        poly = gauss_polygon()
        if kind == "nested":
            inner = rng.dirichlet(np.ones(poly.size)) @ poly
            return poly, inner + rng.uniform(0.2, 0.9) * (poly - inner)
        if kind == "identical":
            return poly, poly
        lattice = gift_wrap_hull(rng.integers(-4, 5, 12) + 1j * rng.integers(-4, 5, 12))
        # the largest corner of one on the smallest of the other, or the
        # two only on one vertical line: in a point, a segment or not at all
        shift = lattice.max() - lattice.min()
        return lattice, lattice + (shift if rng.random() < 0.5 else shift.real)

    @given(st.sampled_from(pair_kinds), st.integers(0, 2**32 - 1), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_pairs_against_brute_at_any_scale(self, kind, seed, e):
        ca, cb = self.polygon_pair(kind, np.random.default_rng(seed))
        rel = 1e-12
        if kind == "touching":
            # the lines are moved out by 1e-12 x the size, so off the exact
            # lattice two polygons whose edges meet at an angle theta can
            # share a sliver up to 1e-12 x size / sin(theta / 2) long
            da, db = np.roll(ca, -1) - ca, np.roll(cb, -1) - cb
            sines = np.abs(np.imag(da[:, None].conj() * db)) / np.abs(da[:, None] * db)
            rel *= 1.0 + 2.0 / np.min(sines[sines > 0], initial=1.0)
        self.assert_matches_brute(ca, cb, rel=rel, scale=10.0**e)

    def test_large_polygons_against_brute(self):
        circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
        self.assert_matches_brute(circle, np.exp(0.3j) * circle + 1.99)
        self.assert_matches_brute(circle, [0, 1.05, 0.5 + 0.5j])

    @pytest.mark.parametrize("delta", [1.6e-12, 1.75e-12])
    def test_corner_beyond_a_corner_is_clipped(self, delta):
        # b = (1 + delta) a: the corner 3 + 3i of b lies beyond a's line
        # y = x / 5 + 2.4 by less than the 1e-12 x size tolerance, but
        # beyond its line x = 3 by more, so the edge of b that starts there
        # is cut by that second line, and the intersection is a
        a = ConvexRegion.from_points(1e4 * np.array([-3 - 3j, 3 - 3j, 3 + 3j, -2 + 2j, -3]))
        b = ConvexRegion.from_points((1 + delta) * a.vertices)
        for x, y in ((a, b), (b, a)):
            assert hausdorff(intersect_regions(x, y), a) <= 1e-14 * np.abs(a.vertices).max()

    def test_an_edge_through_a_corner_ends_there(self):
        # a corner of the triangle lies on the square's bottom edge, to
        # rounding, and the edge enters the triangle there: the
        # intersection has that corner itself, not a crossing near it
        turn = np.exp(0.3j)
        square = turn * np.array([0, 1, 1 + 1j, 1j])
        corner = square[0] + 0.3 * (square[1] - square[0])
        triangle = corner + turn * np.array([0, 0.4 - 0.5j, -0.2 + 0.5j])
        assert corner in intersect_regions(ConvexRegion.from_points(square),
                                           ConvexRegion.from_points(triangle)).vertices

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1.0, 1e8])
    def test_tolerance_scales_with_the_regions(self, scale):
        tri = np.array([0, 1, 0.4 + 0.9j])

        def meet(shift, s):
            return intersect_regions(ConvexRegion.from_points(s * tri),
                                     ConvexRegion.from_points(s * (tri + shift)))

        unit = meet(0.5, 1.0)
        got = meet(0.5, scale)
        assert hausdorff(got, ConvexRegion.from_points(scale * unit.vertices)) <= 1e-12 * scale
        with pytest.raises(EmptyIntersection):
            meet(1.5, 1.0)
        with pytest.raises(EmptyIntersection):
            meet(1.5, scale)


class TestExtremePoints:
    def test_square_corners(self):
        ext = extreme_points(square())
        assert len(ext) == 4

    def test_segment_endpoints(self):
        ext = extreme_points(ConvexRegion.from_points([0j, 1 + 1j]))
        assert len(ext) == 2

    def test_polygon_keeps_all_corners(self):
        region = ConvexRegion.from_points(disc_points(0, 1.0, 64), grid=360)
        assert len(extreme_points(region)) == 64

    def test_edge_midpoints_dropped(self):
        pts = [0j, 0.5 + 0j, 1 + 0j, 1 + 0.5j, 1 + 1j, 0.5 + 1j, 1j, 0.5j]
        region = ConvexRegion.from_points(pts)
        assert len(extreme_points(region)) == 4

    def test_reconstructs_region(self, rng):
        pts = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        region = ConvexRegion.from_points(pts)
        again = ConvexRegion.from_points(extreme_points(region).points)
        assert hausdorff(region, again) < 1e-9


class TestNestedConvExchange:
    def test_constant_family(self, rng):
        pts = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        clouds = [PointCloud(pts)] * 4
        lhs, rhs, gap = nested_conv_exchange(clouds, tol=1e-9, grid=180)
        assert gap < 1e-9

    def test_two_segments(self):
        # [0,2] then [0,1] on the real axis: intersection is [0,1]
        seg1 = PointCloud(np.linspace(0, 2, 41).astype(complex))
        seg2 = PointCloud(np.linspace(0, 1, 21).astype(complex))
        lhs, rhs, gap = nested_conv_exchange([seg1, seg2], tol=1e-9, grid=180)
        assert gap < 1e-9
        assert lhs.support[0] == pytest.approx(1.0, abs=1e-9)

    def test_shrinking_random_family(self, rng):
        tol = 1e-9
        base = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        order = np.argsort(np.abs(base))
        sorted_pts = base[order]
        clouds = [PointCloud(sorted_pts[: 200 - 40 * k]) for k in range(4)]
        lhs, rhs, gap = nested_conv_exchange(clouds, tol=tol, grid=360)
        assert gap <= 3 * (tol + 1e-9)

    def test_not_nested_raises(self):
        a = PointCloud(np.array([0j, 1 + 0j]))
        b = PointCloud(np.array([5 + 5j]))
        with pytest.raises(NotNested):
            nested_conv_exchange([a, b], tol=1e-6)

    @pytest.mark.parametrize("call", [
        lambda: nested_conv_exchange([[0, 1, 1j], [0.25 + 0.25j]], tol=float("nan")),
        lambda: nested_conv_exchange([[0, 1, 1j], [0.25 + 0.25j]], tol=-1.0),
        lambda: nested_conv_exchange([[0, 1, 1j], [0.25 + 0.25j]], tol=float("inf")),
        lambda: intersect_regions(square(grid=360), square(grid=180)),
    ], ids=["tol_nan", "tol_negative", "tol_inf", "grid_mismatch"])
    def test_bad_knobs_raise_validation_error(self, call):
        with pytest.raises(ValidationError):
            call()

    @given(st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_gap_scales_with_the_family(self, seed, e):
        # the acceptance gate's families: each level keeps the points
        # nearest a centre, and most are then moved by 0.4 tol
        rng = np.random.default_rng(seed)
        tol = float(10 ** rng.uniform(-5.0, -2.5))
        m = int(rng.integers(40, 120))
        pts = (rng.normal(size=m) + 1j * rng.normal(size=m)) * rng.uniform(0.5, 3.0)
        pts = pts[np.argsort(np.abs(pts - complex(*rng.normal(size=2))))]
        jitter = 0.0 if rng.random() < 0.3 else 0.4 * tol
        clouds = []
        for _ in range(int(rng.integers(2, 4))):
            clouds.append(pts)
            pts = pts[: max(4, int(pts.size * rng.uniform(0.5, 0.9)))]
            bump = rng.normal(size=pts.size) + 1j * rng.normal(size=pts.size)
            pts = pts + jitter * bump / np.abs(bump)
        c = 10.0**e
        _, _, unit = nested_conv_exchange(clouds, tol)
        _, _, gap = nested_conv_exchange([c * x for x in clouds], c * tol)
        size = max(np.abs(x).max() for x in clouds)
        assert abs(gap - c * unit) <= 1e-12 * c * size


class TestPointCloud:
    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            PointCloud(np.array([]))

    def test_rejects_negative_resolution(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([0j]), resolution=-1.0)

    def test_len(self):
        assert len(PointCloud(np.array([0j, 1j]))) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConvexRegion.from_points([np.nan, 1, 1j]),
        lambda: ConvexRegion.from_points([np.inf, 1, 1j]),
        lambda: ConvexRegion.from_support(np.full(360, np.nan)),
        lambda: PointCloud(np.array([0j, complex(0.0, np.nan)])),
    ],
    ids=["hull-nan", "hull-inf", "support-nan", "cloud-nan"],
)
def test_non_finite_input_raises_validation_error(build):
    with pytest.raises(ValidationError):
        build()
