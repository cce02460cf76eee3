import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockrange import (
    ComplexMatrix,
    EmptyInput,
    NonConvergence,
    block_numerical_range,
    boundary_point,
    hausdorff,
    numerical_range,
    rayleigh,
)

from helpers import (
    assemble_block_diagonal,
    charpoly_lambda_max,
    random_matrix,
    random_unit_vector,
    random_unitary,
    rayleigh_samples,
    NILPOTENT,
    DIAG23,
)


class TestBoundaryPoint:
    def test_scalar(self):
        val, pt = boundary_point(ComplexMatrix([[2 - 1j]]), 0.7)
        assert pt == 2 - 1j
        assert val == pytest.approx(np.real((2 - 1j) * np.exp(-0.7j)))

    def test_segment_right_end(self):
        val, pt = boundary_point(ComplexMatrix(np.diag([0.0, 1.0])), 0.0)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert pt == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_nilpotent_top(self):
        # at direction pi/2 the rotated Hermitian part has top eigenvalue 1/2
        # attained by (1, i)/sqrt(2), whose Rayleigh value is i/2
        val, pt = boundary_point(NILPOTENT, np.pi / 2)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert pt == pytest.approx(0.5j, abs=1e-10)

    def test_support_matches_charpoly_oracle(self, rng):
        a = random_matrix(rng, 5)
        for theta in (0.0, 0.9, 2.2, 4.4):
            w = np.exp(-1j * theta)
            h = (w * a.entries + (w * a.entries).conj().T) / 2
            val, _ = boundary_point(a, theta)
            assert val == pytest.approx(charpoly_lambda_max(h), abs=1e-8)


class TestNumericalRange:
    def test_diagonal_real_is_segment(self):
        res = numerical_range(ComplexMatrix(np.diag([0.0, 1.0])), grid=360)
        assert_allclose(np.sort_complex(res.inner.vertices), [0j, 1 + 0j], atol=1e-12)
        assert res.outer.support[0] == pytest.approx(1.0, abs=1e-10)
        assert res.outer.support[180] == pytest.approx(0.0, abs=1e-10)
        assert res.outer.support[90] == pytest.approx(0.0, abs=1e-10)

    def test_nilpotent_is_half_disc_support(self):
        res = numerical_range(NILPOTENT, grid=512)
        assert_allclose(res.outer.support, 0.5, atol=1e-10)

    def test_scalar_block(self):
        res = numerical_range(ComplexMatrix([[1 + 2j]]))
        assert res.inner.vertices.size == 1
        assert res.inner.vertices[0] == 1 + 2j
        assert res.gap == 0.0

    def test_monte_carlo_samples_inside_outer(self, rng):
        for n in (2, 3, 6):
            a = random_matrix(rng, n)
            res = numerical_range(a, grid=360)
            samples = rayleigh_samples(a.entries, 20000, seed=7)
            assert res.outer.support_excess(samples).max() <= 1e-9

    def test_monte_carlo_extremes_near_inner(self, rng):
        a = random_matrix(rng, 3)
        res = numerical_range(a, grid=720)
        samples = rayleigh_samples(a.entries, 200000, seed=3)
        # the sampled cloud should fill the inner region decently: its hull
        # must come within a few percent of the inner polygon
        from blockrange import convex_hull

        mc_hull = convex_hull(samples, grid=720)
        assert hausdorff(mc_hull, res.inner) < 0.05 * max(1.0, res.inner.diameter)

    def test_attained_points_are_rayleigh_values(self, rng):
        a = random_matrix(rng, 4)
        res = numerical_range(a, grid=90)
        # every attained point must lie inside the outer region (it is a
        # genuine quadratic-form value)
        assert res.outer.support_excess(res.attained).max() <= 1e-9

    def test_gap_shrinks_under_grid_refinement(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 4)
            gaps = [numerical_range(a, grid=k, cache=False).gap for k in (64, 128, 256)]
            assert gaps[0] >= gaps[1] - 1e-12
            assert gaps[1] >= gaps[2] - 1e-12

    def test_unitary_invariance(self, rng):
        a = random_matrix(rng, 5)
        u = random_unitary(rng, 5)
        b = ComplexMatrix(u.conj().T @ a.entries @ u)
        ra = numerical_range(a, grid=256)
        rb = numerical_range(b, grid=256)
        assert np.max(np.abs(ra.outer.support - rb.outer.support)) < 1e-9

    def test_translation_scaling_covariance(self, rng):
        a = random_matrix(rng, 4)
        z = 1.5 - 0.5j
        shifted = ComplexMatrix(a.entries + z * np.eye(4))
        ra = numerical_range(a, grid=256)
        rs = numerical_range(shifted, grid=256)
        assert hausdorff(ra.inner.translate(z), rs.inner) < 1e-9

    def test_rayleigh_of_random_vectors_inside(self, rng):
        a = random_matrix(rng, 6)
        res = numerical_range(a, grid=360)
        for _ in range(50):
            v = rayleigh(a, random_unit_vector(rng, 6))
            assert res.outer.support_excess([v])[0] <= 1e-9

    def test_cache_returns_same_object(self):
        a = ComplexMatrix([[0, 2], [0, 0]])
        r1 = numerical_range(a, grid=64)
        r2 = numerical_range(a, grid=64)
        assert r1 is r2

    def test_cache_respects_tolerance(self, rng):
        a = random_matrix(rng, 4)
        numerical_range(a, grid=64)
        with pytest.raises(NonConvergence):
            numerical_range(a, grid=64, tol=1e-30)

    def test_scale_covariance_at_extreme_scales(self, rng):
        # W(cA) = c W(A): the eigenpair certificate is relative to the scale
        a = random_matrix(rng, 4)
        base = numerical_range(a, grid=256, cache=False)
        for c in (1e-8, 1e4, 1e8, 1e150):
            res = numerical_range(ComplexMatrix(c * a.entries), grid=256, cache=False)
            assert np.max(np.abs(res.outer.support / c - base.outer.support)) < 1e-12
            assert np.max(np.abs(res.attained / c - base.attained)) < 1e-12
            assert res.gap / c == pytest.approx(base.gap, rel=1e-9)

    def test_hermitian_matrix_gives_real_segment(self, rng):
        h = ComplexMatrix(np.diag([1.0, 2.0, 4.0]))
        res = numerical_range(h, grid=360)
        assert np.max(np.abs(res.inner.vertices.imag)) < 1e-10
        lo = -res.outer.support[180]
        hi = res.outer.support[0]
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(4.0, abs=1e-10)


class TestBlockNumericalRange:
    def test_single_block_matches(self, rng):
        a = random_matrix(rng, 3)
        res = numerical_range(a, grid=180)
        blk = block_numerical_range([a], grid=180)
        assert hausdorff(blk, res.inner) < 1e-12

    def test_two_scalar_blocks_make_segment(self):
        blk = block_numerical_range(
            [ComplexMatrix([[0.0]]), ComplexMatrix([[1.0]])], grid=90
        )
        assert_allclose(np.sort_complex(blk.vertices), [0j, 1 + 0j], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            block_numerical_range([])

    def test_matches_direct_sum_samples(self, rng):
        # hull of the block ranges == range of the assembled block diagonal
        blocks = [NILPOTENT, DIAG23]
        hull = block_numerical_range(blocks, grid=360)
        big = assemble_block_diagonal(blocks)
        samples = rayleigh_samples(big, 50000, seed=5)
        # samples inside the hull
        assert hull.support_excess(samples).max() <= 1e-9
        # random unit vectors spread over all four coordinates, so the far
        # corners fill in slowly; keep this as a coarse shape check only
        from blockrange import PointCloud

        assert hausdorff(hull, PointCloud(samples)) < 0.2
        # exact witnesses: vectors supported on one block reproduce that
        # block's values inside the assembled operator
        e4 = np.zeros(4)
        e4[3] = 1.0
        assert np.vdot(e4, big @ e4) == pytest.approx(3.0)
        half = np.array([1.0, 1j, 0, 0]) / np.sqrt(2)
        assert np.vdot(half, big @ half) == pytest.approx(0.5j)  # top of the disc

    def test_direct_sum_of_block_with_itself_is_idempotent(self, rng):
        a = random_matrix(rng, 3)
        one = block_numerical_range([a], grid=180)
        two = block_numerical_range([a, a], grid=180)
        assert hausdorff(one, two) < 1e-12
