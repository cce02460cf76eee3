import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockrange import (
    essential_numerical_range,
    inner_approximate,
    numerical_range,
    rayleigh,
)

from helpers import (
    NILPOTENT,
    assemble_block_diagonal,
    constant_spec,
    dense_spec,
    random_unit_vector,
    scalar_periodic_spec,
    support_excess,
    two_matrix_spec,
    vanishing_spec,
)


class TestSampleEssentialValue:
    """An essential value as ``inner_approximate`` samples it: a convex
    combination of Rayleigh values of distinct blocks."""

    def test_matches_direct_sum_quadratic_form(self, rng):
        # the combination of per-block Rayleigh values must equal the
        # quadratic form of one assembled vector on the finite direct sum
        spec = two_matrix_spec()
        picks = [(n, random_unit_vector(rng, 2)) for n in (3, 5, 8)]
        weights = np.array([0.5, 0.3, 0.2])
        value = sum(w * rayleigh(spec.block(n), x) for w, (n, x) in zip(weights, picks))

        blocks = [spec.block(n) for n in range(1, 9)]
        big = assemble_block_diagonal(blocks)
        v = np.zeros(big.shape[0], dtype=complex)
        for w, (n, x) in zip(weights, picks):
            v[2 * (n - 1) : 2 * n] = np.sqrt(w) * x
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert_allclose(np.vdot(v, big @ v), value, atol=1e-12)

    def test_duplicate_indices_rejected(self):
        # the three blocks of a sample are distinct: over a window of the
        # four corners of the unit square, three distinct corners with
        # positive weights give a point strictly inside the square, while a
        # repeated block would put it on an edge
        spec = scalar_periodic_spec([0.0, 1.0, 1 + 1j, 1j])
        pts = inner_approximate(spec, samples=2000, seed=4, window=4).points
        assert pts.real.min() > 0.0 and pts.real.max() < 1.0
        assert pts.imag.min() > 0.0 and pts.imag.max() < 1.0

    def test_index_below_start_rejected(self):
        # no sample uses a block below the start: far-off prefix blocks
        # leave no trace in the cloud
        spec = scalar_periodic_spec([1.0, -1.0], prefix=[50.0, 50j])
        for start in (3, 4):
            cloud = inner_approximate(spec, start=start, samples=500, seed=5)
            assert np.abs(cloud.points).max() <= 1.0 + 1e-12


class TestInnerApproximate:
    def test_constant_blocks_stay_inside_range(self):
        cloud = inner_approximate(constant_spec(NILPOTENT), samples=500)
        outer = numerical_range(NILPOTENT).outer
        assert float(support_excess(outer, cloud.points).max()) <= 1e-9

    def test_alternating_signs_fill_segment(self):
        cloud = inner_approximate(scalar_periodic_spec([1.0, -1.0]), samples=4000)
        assert_allclose(cloud.points.imag, 0.0, atol=1e-12)
        # triples of equal parity occur often, so both endpoints are hit exactly
        assert cloud.points.real.max() == pytest.approx(1.0, abs=1e-12)
        assert cloud.points.real.min() == pytest.approx(-1.0, abs=1e-12)
        assert cloud.points.real.min(initial=np.inf, where=cloud.points.real > -1) < 1.0

    def test_deterministic_for_fixed_seed(self):
        a = inner_approximate(two_matrix_spec(), samples=64, seed=9)
        b = inner_approximate(two_matrix_spec(), samples=64, seed=9)
        c = inner_approximate(two_matrix_spec(), samples=64, seed=10)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_samples_land_in_essential_range(self):
        spec = two_matrix_spec()
        we = essential_numerical_range(spec)
        cloud = inner_approximate(spec, samples=2000, seed=3)
        assert float(support_excess(we.region, cloud.points).max()) <= 1e-9

    def test_dense_family_samples_inside_disc(self):
        cloud = inner_approximate(dense_spec(), start=1024, samples=5000, seed=1)
        assert np.abs(cloud.points).max() <= 1.0 + 1e-12

    def test_vanishing_tail_resolution_covers_decay(self):
        spec = vanishing_spec([[[0.0]]], c=1.0, p=1.0, seed=8)
        cloud = inner_approximate(spec, start=100, samples=200, seed=2)
        assert cloud.resolution >= 1e-2  # decay at the window start
        assert np.abs(cloud.points).max() <= cloud.resolution + 1e-12

    def test_smallest_window_takes_all_three_blocks(self):
        # a window of three blocks leaves one choice of three distinct blocks,
        # so with positive weights every sample is strictly inside the triangle
        pts = inner_approximate(scalar_periodic_spec([0, 1, 1j]), samples=500, window=3).points
        assert pts.real.min() > 0 and pts.imag.min() > 0
        assert (pts.real + pts.imag).max() < 1

    def test_resolution_scales_with_the_operator(self):
        # the floating-point floor is relative to the norm bound: no unit floor
        values = np.array([0, 1, 1j])
        base = inner_approximate(scalar_periodic_spec(values), samples=10)
        tiny = inner_approximate(scalar_periodic_spec(1e-13 * values), samples=10)
        assert tiny.resolution == pytest.approx(1e-13 * base.resolution, rel=1e-12, abs=0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            inner_approximate(two_matrix_spec(), window=2)
        with pytest.raises(ValueError):
            inner_approximate(two_matrix_spec(), samples=0)
        with pytest.raises(ValueError):
            inner_approximate(two_matrix_spec(), start=0)


class TestMembership:
    """Membership in a region is a support test: ``support_excess`` <= tol."""

    def test_inside_and_outside(self):
        region = numerical_range(NILPOTENT).outer
        assert support_excess(region, [0j])[0] <= 1e-9
        assert support_excess(region, [0.5])[0] <= 1e-6
        assert not support_excess(region, [2.0])[0] <= 1e-9

    def test_tolerance_widens_test(self):
        region = numerical_range(NILPOTENT).outer
        assert not support_excess(region, [0.6])[0] <= 1e-9
        assert support_excess(region, [0.6])[0] <= 0.2
