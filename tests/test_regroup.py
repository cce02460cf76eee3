"""Regrouping a block diagonal operator so no convex hull is needed.

Each refinement level m buckets the extreme points of the essential range
by angle, picks one representative per bucket, and extends the group until
every representative has been approached within eps/m.  The group ranges
are then convex sets converging to the essential range on their own.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrange import (
    BlockOperatorSpec,
    ConvexRegion,
    Decomposition,
    DegenerateGeometry,
    ScanExhausted,
    ValidationError,
    VanishingTail,
    choose_translation,
    essential_numerical_range,
    group_region,
    hausdorff,
    identity_decomposition,
    numerical_range,
    regroup,
    translate_spec,
    verify_conv_free,
)
from blockrange.regroup import _bucket_targets, late_group_regions

from helpers import (
    DIAG23,
    NILPOTENT,
    bucket_targets_by_loop,
    constant_spec,
    dense_spec,
    mat,
    random_matrix,
    scalar_periodic_spec,
    support_excess,
    two_matrix_spec,
    vanishing_spec,
)

# the package re-exports a function named ``regroup``, which shadows the
# submodule as a package attribute
regroup_module = importlib.import_module("blockrange.regroup")


def segment(a, b):
    return ConvexRegion.from_points(np.array([a, b], dtype=complex))


class TestChooseTranslation:
    def test_singleton_off_origin_needs_no_shift(self):
        c = choose_translation(ConvexRegion.from_points(np.array([3 + 1j])))
        assert c.z == 0.0
        assert c.reason == "identity"

    def test_singleton_at_origin_moves_away(self):
        c = choose_translation(ConvexRegion.from_points(np.array([0j])))
        assert c.z == -1.0
        assert c.reason == "origin_singleton"

    def test_segment_through_origin(self):
        c = choose_translation(segment(-1, 1))
        assert c.z == pytest.approx(0.5)
        assert c.angular_margin == pytest.approx(np.pi)

    def test_segment_with_endpoint_at_origin(self):
        c = choose_translation(segment(0, 1))
        assert abs(c.z) > 0
        # after the shift no extreme point may sit at the origin
        assert min(abs(0 - c.z), abs(1 - c.z)) > 1e-9

    def test_square_center_stays_inside(self):
        sq = ConvexRegion.from_points(np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]))
        c = choose_translation(sq)
        assert support_excess(sq, [c.z])[0] <= 1e-9
        assert c.angular_margin > 0.1

    def test_unsatisfiable_margin_raises(self):
        # every candidate leaves the apex within 2e-8 of an opposite corner's
        # angle, below the 1e-7 margin that a translation must certify
        flat = ConvexRegion.from_points(np.array([-1, 1, 1e-8j]))
        with pytest.raises(DegenerateGeometry):
            choose_translation(flat)


class TestDecomposition:
    def test_group_ranges_partition(self):
        d = Decomposition((2, 5, 9))
        assert d.group_count == 3
        assert d.group_range(1) == (1, 2)
        assert d.group_range(2) == (3, 5)
        assert d.group_range(3) == (6, 9)
        with pytest.raises(ValueError):
            d.group_range(4)

    def test_boundaries_must_increase(self):
        with pytest.raises(ValidationError):
            Decomposition((3, 3))
        with pytest.raises(ValidationError):
            Decomposition(())
        with pytest.raises(ValidationError):
            Decomposition((0, 2))

    def test_identity(self):
        d = identity_decomposition(4)
        assert d.boundaries == (1, 2, 3, 4)
        assert d.group_range(3) == (3, 3)


class TestRegroup:
    def test_constant_blocks_consume_one_per_pick(self):
        spec = constant_spec(DIAG23)
        we = essential_numerical_range(spec)
        d = regroup(spec, we, eps=0.5, depth=5)
        # every pick hits immediately, so level m consumes exactly m blocks
        assert d.boundaries == (1, 3, 6, 10, 15)
        assert all(len(d.selections[m - 1]) == m for m in range(1, 6))

    def test_thresholds_respected(self):
        spec = two_matrix_spec()
        we = essential_numerical_range(spec)
        d = regroup(spec, we, eps=0.5, depth=8)
        for m, picks in enumerate(d.selections, start=1):
            assert len(picks) == m
            for p in picks:
                assert p.distance < 0.5 / m
        assert all(b2 > b1 for b1, b2 in zip(d.boundaries, d.boundaries[1:]))

    def test_two_matrix_groups_recover_target_without_hull(self):
        spec = two_matrix_spec()
        we = essential_numerical_range(spec)
        d = regroup(spec, we, eps=0.5, depth=10)
        assert verify_conv_free(spec, d, we) < 1e-9

    def test_identity_groups_stay_far(self):
        spec = two_matrix_spec()
        we = essential_numerical_range(spec)
        gap = verify_conv_free(spec, identity_decomposition(12), we)
        assert gap > 2.0  # single blocks are either the disc or the segment

    def test_single_group_region_is_block_range(self):
        spec = two_matrix_spec()
        d = identity_decomposition(4)
        r = group_region(spec, d, 2)
        assert hausdorff(r, numerical_range(spec.block(2)).inner) < 1e-12

    def test_group_region_merges_consecutive_blocks(self):
        spec = two_matrix_spec()
        r = group_region(spec, Decomposition((2,)), 1)
        pts = np.concatenate([
            numerical_range(NILPOTENT).inner.vertices,
            numerical_range(DIAG23).inner.vertices,
        ])
        assert hausdorff(r, ConvexRegion.from_points(pts)) < 1e-12

    def test_group_region_is_hull_of_every_block(self):
        # a periodic group many cycles long, and a scalar tail behind a
        # 2x2 prefix: the hull of every block's inner polygon, repeats
        # included, is exactly the region built from the distinct blocks
        rng = np.random.default_rng(8)
        cycle = tuple(random_matrix(rng, n) for n in (2, 3, 1))
        periodic = BlockOperatorSpec((random_matrix(rng, 2),), VanishingTail(cycle))
        scalar = BlockOperatorSpec((random_matrix(rng, 2),),
                                   VanishingTail((mat([[1.0]]), mat([[1j]]))))
        for spec, decomp, m in ((periodic, Decomposition((1, 61)), 2),
                                (periodic, Decomposition((61,)), 1),
                                (scalar, Decomposition((40,)), 1),
                                (scalar, Decomposition((1, 40)), 2)):
            lo, hi = decomp.group_range(m)
            pts = np.concatenate([numerical_range(spec.block(n)).inner.vertices
                                  for n in range(lo, hi + 1)])
            want = ConvexRegion.from_points(pts)
            assert np.array_equal(group_region(spec, decomp, m).vertices, want.vertices)

    def test_verify_takes_the_group_ranges(self):
        spec = two_matrix_spec()
        we = essential_numerical_range(spec)
        d = regroup(spec, we, eps=0.5, depth=6)
        groups = [group_region(spec, d, m) for m in range(3, 7)]
        assert verify_conv_free(spec, d, we, 3, groups=groups) == verify_conv_free(spec, d, we, 3)
        with pytest.raises(ValueError):
            verify_conv_free(spec, d, we, 3, groups=groups[1:])

    def test_extreme_point_at_origin_rejected(self):
        spec = scalar_periodic_spec([0.0, 1.0])
        we = essential_numerical_range(spec)
        with pytest.raises(DegenerateGeometry):
            regroup(spec, we)

    def test_translation_repairs_degenerate_origin(self):
        spec = scalar_periodic_spec([0.0, 1.0])
        we = essential_numerical_range(spec)
        choice = choose_translation(we.region)
        moved = translate_spec(spec, choice.z)
        we2 = essential_numerical_range(moved)
        d = regroup(moved, we2, eps=0.25, depth=6)
        assert verify_conv_free(moved, d, we2) < 1e-9

    def test_decomposition_is_scale_covariant(self, rng):
        # decompose(c T) must be decompose(T) scaled: the same translation
        # rule, boundaries and picks for c from 1e-13 to 1e13, with eps
        # scaled by c (at c = 1e-13 an absolute floor once called a
        # 4-block cycle a singleton)
        blocks = [random_matrix(rng, n).entries for n in (2, 3, 2, 3)]
        runs = []
        for c in (1e-13, 1.0, 1e13):
            spec = BlockOperatorSpec((), VanishingTail(tuple(mat(c * b) for b in blocks)))
            choice = choose_translation(essential_numerical_range(spec).region)
            moved = translate_spec(spec, choice.z)
            d = regroup(moved, essential_numerical_range(moved), eps=c * 1e-2, depth=12)
            picks = [(p.bucket, p.block_index) for level in d.selections for p in level]
            runs.append((choice.reason, choice.angular_margin, d.boundaries, picks))
        for reason, margin, boundaries, picks in runs[::2]:
            assert reason == runs[1][0] == "diameter_midpoint"
            assert margin == pytest.approx(runs[1][1], rel=1e-9)
            assert boundaries == runs[1][2]
            assert picks == runs[1][3]

    def test_scan_cap_raises_with_context(self):
        spec = constant_spec(NILPOTENT)
        foreign = essential_numerical_range(constant_spec(DIAG23))
        with pytest.raises(ScanExhausted) as exc:
            regroup(spec, foreign, eps=0.5, depth=1, scan_cap=50)
        assert exc.value.level == 1
        assert exc.value.bucket == 0
        assert exc.value.cap == 50

    def test_bad_knobs(self):
        spec = constant_spec(DIAG23)
        we = essential_numerical_range(spec)
        with pytest.raises(ValueError):
            regroup(spec, we, eps=0.0)
        with pytest.raises(ValueError):
            regroup(spec, we, depth=0)


def _hexes(values) -> list[str]:
    return [x.hex() for z in np.asarray(values).tolist() for x in (z.real, z.imag)]


@st.composite
def _extreme_sets(draw):
    """Points on a few rays, so that buckets stay empty, angles repeat
    exactly (copies) or nearly (one ray, other moduli), and moduli tie
    within 1e-12 relative or just outside it."""
    slots = draw(st.integers(1, 96))
    base = draw(st.floats(1e-3, 1e3))
    rays = st.tuples(
        st.integers(0, slots - 1),
        st.sampled_from([0.0, 1e-15, 0.5]) | st.floats(0.0, 1.0),
        st.integers(-8, 8) | st.floats(0.5, 2.0),
    )
    pts = [
        base * (1.0 + tie * 2e-13 if isinstance(tie, int) else tie)
        * np.exp(2j * np.pi * (slot + frac) / slots)
        for slot, frac, tie in draw(st.lists(rays, min_size=1, max_size=40))
    ]
    copies = draw(st.lists(st.integers(0, len(pts) - 1), max_size=6))
    return np.array(pts + [pts[i] for i in copies])


def _translated(we, z):
    """The essential range of T - z as the CLI hands it to ``regroup``: the
    region of T moved by -z (the only field ``regroup`` reads)."""
    return dataclasses.replace(we, region=we.region.translate(-z))


@st.composite
def _tails(draw):
    """A small operator of one of three kinds: a periodic tail of 1x1 to
    3x3 blocks, a scalar periodic tail, or a tail decaying to its limits;
    each with a prefix of 0 to 2 blocks."""
    kind = draw(st.sampled_from(["periodic", "scalar", "decaying"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (lambda: 1) if kind == "scalar" else (lambda: int(rng.integers(1, 4)))
    cycle = [random_matrix(rng, dims()) for _ in range(draw(st.integers(1, 3)))]
    prefix = [random_matrix(rng, dims()) for _ in range(draw(st.integers(0, 2)))]
    c = draw(st.floats(0.05, 0.5)) if kind == "decaying" else 0.0
    return vanishing_spec(cycle, c=c, p=draw(st.floats(1.0, 2.0)), seed=draw(st.integers(0, 99)),
                          prefix=prefix)


class TestScanOnTheUntranslatedOperator:
    """``regroup(spec, we, z=z)`` scans the blocks of T against the picks of
    W_e(T) - z moved by +z.  It must give the decomposition that the scan
    of the translated operator T - z gives, and it must measure each
    distinct block against each distinct target once."""

    @settings(max_examples=40, deadline=None)
    @given(spec=_tails(), eps=st.floats(0.02, 0.2), depth=st.integers(2, 10))
    def test_matches_the_scan_of_the_translate(self, spec, eps, depth):
        we = essential_numerical_range(spec, grid=90)
        z = choose_translation(we.region).z
        eps *= spec.norm_bound
        got = regroup(spec, we, eps=eps, depth=depth, z=z)
        # the public form on a fresh memo: every block solved again, shifted
        want = regroup(translate_spec(spec, z), _translated(we, z), eps=eps, depth=depth)
        assert got.boundaries == want.boundaries
        for mine, theirs in zip(got.selections, want.selections):
            for a, b in zip(mine, theirs, strict=True):
                assert (a.bucket, a.target, a.block_index) == (b.bucket, b.target, b.block_index)
                assert abs(a.distance - b.distance) <= 1e-12 * spec.norm_bound

    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_each_block_meets_each_target_once(self, monkeypatch, rng, c):
        # a periodic tail's blocks recur every cycle and at every level; a
        # decaying tail's blocks are each seen once
        measured = []
        distance = ConvexRegion.distance

        def counting(region, points):
            pts = np.asarray(points, dtype=complex).ravel()
            measured.extend((region.vertices.tobytes(), p.tobytes()) for p in pts)
            return distance(region, points)

        cycle = [random_matrix(rng, n) for n in (2, 3, 1)]
        spec = vanishing_spec(cycle, c=c, seed=5, prefix=[random_matrix(rng, 2)])
        we = essential_numerical_range(spec)
        z = choose_translation(we.region).z
        monkeypatch.setattr(ConvexRegion, "distance", counting)
        d = regroup(spec, we, eps=0.3, depth=12, z=z)
        assert d.boundaries[-1] > 3 * (1 + len(cycle))
        assert measured and len(set(measured)) == len(measured)


class TestBucketTargets:
    @settings(max_examples=300, deadline=None)
    @given(ext=_extreme_sets(), m=st.integers(1, 64))
    def test_one_sort_matches_the_bucket_loop(self, ext, m):
        assert _hexes(ext[_bucket_targets(ext, m)]) == _hexes(bucket_targets_by_loop(ext, m))

    def test_empty_buckets_borrow_from_the_nearest(self):
        # points in buckets 1 and 5 of 8: buckets 3 and 7 lie two steps
        # from both, cyclically, and borrow from the lower one, 1
        ext = np.exp(2j * np.pi * np.array([1.5, 5.5]) / 8)
        assert _bucket_targets(ext, 8).tolist() == [0, 0, 0, 0, 1, 1, 1, 0]


class TestLateGroups:
    """``late_group_regions`` hulls each distinct set of late-group points
    once, and every region it hands out is bit for bit the one
    ``group_region`` builds for that group (``decompose``'s call counts
    are pinned in test_cli)."""

    @staticmethod
    def _blocks_of(spec, decomp, m) -> frozenset:
        lo, hi = decomp.group_range(m)
        return frozenset(spec.block(n).entries.tobytes() for n in range(lo, hi + 1))

    @staticmethod
    def _specs():
        rng = np.random.default_rng(17)
        cycle = tuple(random_matrix(rng, n) for n in (2, 3, 1))
        return {
            "periodic": BlockOperatorSpec((random_matrix(rng, 2),), VanishingTail(cycle)),
            "scalar": scalar_periodic_spec([1.0, 1j, -1.0, -1j, 0.5 + 0.5j], prefix=[2.0]),
        }

    @pytest.mark.parametrize("kind", ["periodic", "scalar"])
    def test_rotated_cycles_share_a_bit_identical_hull(self, kind):
        # groups of whole cycles that start at every cycle position, and
        # groups of partial cycles: equal block sets give equal regions,
        # whatever order the blocks come in
        spec = self._specs()[kind]
        decomp = Decomposition((1, 2, 7, 13, 14, 22, 27, 39, 44, 45, 58, 61, 62, 80))
        regions = late_group_regions(spec, decomp, 1, 90)
        by_key = {}
        for m, region in enumerate(regions, start=1):
            fresh = group_region(spec, decomp, m, 90)
            assert region.vertices.tobytes() == fresh.vertices.tobytes()
            by_key.setdefault(self._blocks_of(spec, decomp, m), set()).add(id(region))
        assert all(len(ids) == 1 for ids in by_key.values())
        assert len(by_key) < len(regions)

    def test_verify_measures_each_distinct_region_once(self, monkeypatch):
        spec = self._specs()["periodic"]
        we = essential_numerical_range(spec)
        decomp = Decomposition((1, 2, 7, 13, 14, 22, 27, 39))
        groups = late_group_regions(spec, decomp, 3)
        seen = []
        original = regroup_module.hausdorff

        def counting(a, b):
            seen.append(id(b))
            return original(a, b)

        monkeypatch.setattr(regroup_module, "hausdorff", counting)
        gap = verify_conv_free(spec, decomp, we, 3, groups=groups)
        assert sorted(seen) == sorted({id(r) for r in groups})
        assert gap == max(original(we.region, group_region(spec, decomp, m))
                          for m in range(3, 9))


class TestDenseFamily:
    def test_groups_fill_the_disc(self):
        spec = dense_spec()
        we = essential_numerical_range(spec, eps=0.1, k_cap=2**15)
        d = regroup(spec, we, eps=0.5, depth=8)
        # late groups hold a window of unimodular values dense enough in
        # angle that their hull fills most of the disc
        assert verify_conv_free(spec, d, we, from_level=8) < 0.35
        assert verify_conv_free(spec, d, we, from_level=4) < 0.6

    def test_early_levels_are_coarser(self):
        spec = dense_spec()
        we = essential_numerical_range(spec, eps=0.1, k_cap=2**15)
        d = regroup(spec, we, eps=0.5, depth=8)
        first = verify_conv_free(spec, d, we, from_level=1)
        last = verify_conv_free(spec, d, we, from_level=8)
        assert last < first
