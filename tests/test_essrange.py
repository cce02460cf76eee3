"""Essential numerical range of block diagonal operators.

The essential range is the hull of the limsup cloud; every test here pins it
against something computable by hand (cycles, explicit limits, translations)
or against the second route, whose gap is carried on the result as
``crosscheck_gap``: the support function of the limit blocks for limit-block
tails (periodic or vanishing), and for dense tails the closed-form support of
the unit disc about -shift, which bounds the gap both ways.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blockrange import (
    BlockOperatorSpec,
    ConvexRegion,
    InconsistentResult,
    PointCloud,
    VanishingTail,
    essential_numerical_range,
    hausdorff,
    numerical_range,
    translate_spec,
)
from blockrange import blockop, convex2d, essrange
from blockrange.essrange import _consistency_gate

from helpers import (
    DIAG23,
    NILPOTENT,
    constant_spec,
    dense_spec,
    mat,
    scalar_periodic_spec,
    two_matrix_spec,
    vanishing_spec,
)


class TestExactCases:
    def test_constant_blocks_give_plain_range(self):
        res = essential_numerical_range(constant_spec(NILPOTENT))
        nr = numerical_range(NILPOTENT)
        assert hausdorff(res.region, nr.inner) < 1e-12
        assert res.crosscheck_gap < 1e-12

    def test_alternating_signs_give_segment(self):
        res = essential_numerical_range(scalar_periodic_spec([1.0, -1.0]))
        assert_allclose(
            np.sort_complex(res.region.vertices), [-1 + 0j, 1 + 0j], atol=1e-12
        )

    def test_two_matrix_cycle(self):
        res = essential_numerical_range(two_matrix_spec())
        pts = np.concatenate([
            numerical_range(NILPOTENT).inner.vertices,
            numerical_range(DIAG23).inner.vertices,
        ])
        want = ConvexRegion.from_points(pts)
        assert hausdorff(res.region, want) < 1e-12

    def test_prefix_is_invisible(self):
        base = essential_numerical_range(scalar_periodic_spec([2j, 1.0]))
        noisy = essential_numerical_range(
            scalar_periodic_spec([2j, 1.0], prefix=[100.0, -50j, 3.0])
        )
        assert hausdorff(base.region, noisy.region) < 1e-12

    def test_vanishing_tail_hull_of_limits(self):
        spec = vanishing_spec([NILPOTENT.entries.tolist(), [[1.5]]], c=0.5, p=1.0)
        res = essential_numerical_range(spec)
        pts = np.concatenate(
            [numerical_range(NILPOTENT).inner.vertices, [1.5 + 0j]]
        )
        want = ConvexRegion.from_points(pts)
        assert hausdorff(res.region, want) <= res.tolerance

    @pytest.mark.parametrize(
        "spec, corners, exact",
        [
            (scalar_periodic_spec([1.0, 1j, -1.0]), [1, 1j, -1], True),
            (vanishing_spec([[[0.0]], [[1.0]], [[1j]]], c=0.3, p=1.0, seed=4), [0, 1, 1j], False),
            (vanishing_spec([[[0.0]]], c=1.0, p=1.0), [0], False),
        ],
        ids=["periodic_cycle_values", "vanishing_limits", "vanishing_to_origin"],
    )
    def test_scalar_tail_is_hull_of_closed_form(self, spec, corners, exact):
        # diagonal operators: the hull of the cycle values, or of the limits
        res = essential_numerical_range(spec)
        want = ConvexRegion.from_points(np.array(corners, dtype=np.complex128))
        assert hausdorff(res.region, want) <= (1e-12 if exact else res.tolerance)

    def test_certificate_and_tolerance_recorded(self):
        res = essential_numerical_range(two_matrix_spec())
        assert res.certificate == ((1, 0.0),)
        assert res.converged_at == 1
        assert res.crosscheck_gap <= res.tolerance


class TestScale:
    def test_tolerance_scales_with_the_operator(self):
        # eps is absolute, so scaling it along with the operator scales the
        # whole tolerance: its floating-point floor is relative, no unit floor
        c = 1e-13
        base = essential_numerical_range(two_matrix_spec(), eps=1e-3)
        cycle = tuple(mat(c * m.entries) for m in (NILPOTENT, DIAG23))
        tiny = essential_numerical_range(BlockOperatorSpec((), VanishingTail(cycle)), eps=c * 1e-3)
        assert tiny.tolerance == pytest.approx(c * base.tolerance, rel=1e-9, abs=0)
        scaled = ConvexRegion.from_points(c * base.region.vertices)
        assert hausdorff(tiny.region, scaled) <= c * 1e-12


class TestTranslation:
    @pytest.mark.parametrize("z", [1.0 + 0j, -2.5j, 0.75 - 0.25j])
    def test_shifting_spec_shifts_region(self, z):
        spec = two_matrix_spec()
        base = essential_numerical_range(spec)
        moved = essential_numerical_range(translate_spec(spec, z))
        assert hausdorff(moved.region, base.region.translate(-z)) < 1e-10

    def test_translate_composes(self):
        spec = translate_spec(translate_spec(constant_spec(DIAG23), 1.0), 1j)
        assert spec.shift == 1 + 1j
        assert_allclose(spec.block(5).entries, np.diag([2, 3]) - (1 + 1j) * np.eye(2))


class TestConsistencyGate:
    def test_within_budget_passes(self):
        _consistency_gate(0.5, 0.1, "probe")  # 0.5 <= 10 * 0.1

    def test_beyond_budget_raises(self):
        with pytest.raises(InconsistentResult):
            _consistency_gate(1.5, 0.1, "probe")

    def test_dual_route_agreement_on_random_periodic(self, rng):
        # the cycle blocks' largest eigenvalues must match the hull's support
        cycle = tuple(
            mat(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(3)
        )
        res = essential_numerical_range(BlockOperatorSpec((), VanishingTail(cycle)))
        assert res.crosscheck_gap <= res.tolerance


def _without_last(fn):
    """``fn`` with the last block's vertices left out of its result."""
    def dropped(*args):
        pts, gap = fn(*args)
        return pts[:-1], gap
    return dropped


class TestCrosscheckCatchesFaults:
    """One fault planted in the main route, per tail kind, must make the
    second route disagree and the gate raise.  Both limit-block cases drop
    the last limit from the blocks ``limsup_ranges`` hulls."""

    def test_periodic_block_dropped_from_the_hull(self, monkeypatch):
        monkeypatch.setattr(blockop, "_attained_vertices", _without_last(blockop._attained_vertices))
        with pytest.raises(InconsistentResult):
            essential_numerical_range(two_matrix_spec())

    def test_vanishing_limit_dropped_from_the_hull(self, monkeypatch):
        monkeypatch.setattr(blockop, "_attained_vertices", _without_last(blockop._attained_vertices))
        with pytest.raises(InconsistentResult):
            essential_numerical_range(vanishing_spec([NILPOTENT, [[1.5]]], c=0.5))

    def test_vanishing_generator_past_its_decay(self, monkeypatch):
        spec = vanishing_spec([NILPOTENT, [[1.5]]], c=0.05, seed=3)
        assert essential_numerical_range(spec).crosscheck_gap < 1e-12
        real = VanishingTail.perturbation
        monkeypatch.setattr(VanishingTail, "perturbation",
                            lambda self, n, dim: 100.0 * real(self, n, dim))
        spec = vanishing_spec([NILPOTENT, [[1.5]]], c=0.05, seed=3)
        with pytest.raises(InconsistentResult):
            essential_numerical_range(spec)

    def test_dense_hull_vertex_moved_outward(self, monkeypatch):
        real = essrange.limsup_ranges

        def pushed(*args):
            lim = real(*args)
            pts = lim.cloud.points.copy()
            pts[np.argmax(pts.real)] += 3.0
            return replace(lim, cloud=PointCloud(pts, lim.cloud.resolution))

        monkeypatch.setattr(essrange, "limsup_ranges", pushed)
        with pytest.raises(InconsistentResult):
            essential_numerical_range(dense_spec(), eps=0.05, k_cap=2**16)

    def test_dense_cloud_cut_to_a_quarter_arc(self, monkeypatch):
        # the region then falls short of the disc by about 1.7 towards -1,
        # and the gap counts a deficit as well as an excess
        real = essrange.limsup_ranges

        def cut(*args):
            lim = real(*args)
            pts = lim.cloud.points  # on the unit circle: dense_spec has no shift
            kept = pts[np.abs(np.angle(pts)) <= np.pi / 4]
            return replace(lim, cloud=PointCloud(kept, lim.cloud.resolution))

        monkeypatch.setattr(essrange, "limsup_ranges", cut)
        with pytest.raises(InconsistentResult):
            essential_numerical_range(dense_spec(), eps=0.05, k_cap=2**16)


@pytest.mark.parametrize("prefix, eps", [((), 0.05), ((2.0 - 1j,), 0.1), ((0.3j, -1.5, 4.0), 0.08)])
def test_dense_essential_range_hulls_once(monkeypatch, prefix, eps):
    # the region is the one hull: the doubling loop compares clouds on
    # their circle, and the crosscheck reads the disc's closed-form
    # support, so nothing is intersected
    real, real_intersect = ConvexRegion.from_points.__func__, convex2d.intersect_regions
    calls = {"hull": 0, "intersect": 0}

    def counted(cls, *args, **kwargs):
        calls["hull"] += 1
        return real(cls, *args, **kwargs)

    def intersect(*args):
        calls["intersect"] += 1
        return real_intersect(*args)

    monkeypatch.setattr(ConvexRegion, "from_points", classmethod(counted))
    for module in (convex2d, essrange, blockop):
        monkeypatch.setattr(module, "intersect_regions", intersect, raising=False)
    spec = dense_spec(prefix=[mat([[v]]) for v in prefix])
    res = essential_numerical_range(spec, eps=eps, k_cap=2**16)
    assert calls == {"hull": 1, "intersect": 0}
    # the doubling loop compared the windows at k0, 2 k0 and 4 k0 at least
    assert res.converged_at >= 4 * (spec.prefix_len + 1)


@given(
    st.lists(st.complex_numbers(max_magnitude=3.0), max_size=3),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0),
    st.sampled_from([0.05, 0.08, 0.1]),
)
@settings(max_examples=30, deadline=None)
def test_dense_gap_within_the_inscribed_polygon_bound(prefix, shift, eps):
    # a polygon inscribed in a circle with largest angular gap g falls
    # short of the circle's support by at most 1 - cos(g / 2), and never
    # exceeds it; a closed form about +shift instead of -shift breaks this
    spec = translate_spec(dense_spec(prefix=[mat([[v]]) for v in prefix]), shift)
    res = essential_numerical_range(spec, eps=eps, k_cap=2**16)
    ang = np.sort(np.angle(res.limsup.points + shift))
    g = max(np.diff(ang).max(), 2 * np.pi - (ang[-1] - ang[0]))
    assert res.crosscheck_gap <= 1 - np.cos(g / 2) + 1e-12
