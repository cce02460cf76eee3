import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import blockrange.numrange

from blockrange import (
    ComplexMatrix,
    ConvexRegion,
    ValidationError,
    grid_angles,
    hausdorff,
    numerical_range,
    numerical_ranges,
    rayleigh,
)

from helpers import (
    assemble_block_diagonal,
    charpoly_lambda_max,
    random_matrix,
    random_unit_vector,
    random_unitary,
    rayleigh_samples,
    support_excess,
    NILPOTENT,
    DIAG23,
)


class TestBoundaryPoint:
    """Support value and attained boundary point of W(A) at one grid angle."""

    def test_scalar(self):
        z = 2 - 1j
        res = numerical_range(ComplexMatrix([[z]]), grid=360)
        theta = grid_angles(360)[40]
        assert res.attained[40] == z
        assert res.outer.support[40] == pytest.approx(np.real(z * np.exp(-1j * theta)))

    def test_segment_right_end(self):
        res = numerical_range(ComplexMatrix(np.diag([0.0, 1.0])), grid=360)
        assert res.outer.support[0] == pytest.approx(1.0, abs=1e-12)
        assert res.attained[0] == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_nilpotent_top(self):
        # at direction pi/2 (grid index 90 of 360) the rotated Hermitian part
        # has top eigenvalue 1/2 attained by (1, i)/sqrt(2), whose Rayleigh
        # value is i/2
        res = numerical_range(NILPOTENT, grid=360)
        assert grid_angles(360)[90] == pytest.approx(np.pi / 2)
        assert res.outer.support[90] == pytest.approx(0.5, abs=1e-12)
        assert res.attained[90] == pytest.approx(0.5j, abs=1e-10)

    def test_support_matches_charpoly_oracle(self, rng):
        a = random_matrix(rng, 5)
        res = numerical_range(a, grid=360)
        th = grid_angles(360)
        for j in (0, 52, 126, 252):
            w = np.exp(-1j * th[j])
            h = (w * a.entries + (w * a.entries).conj().T) / 2
            assert res.outer.support[j] == pytest.approx(charpoly_lambda_max(h), abs=1e-8)


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
            assert support_excess(res.outer, samples).max() <= 1e-9

    def test_monte_carlo_extremes_near_inner(self, rng):
        a = random_matrix(rng, 3)
        res = numerical_range(a, grid=720)
        samples = rayleigh_samples(a.entries, 200000, seed=3)
        # the sampled cloud should fill the inner region decently: its hull
        # must come within a few percent of the inner polygon
        mc_hull = ConvexRegion.from_points(samples, grid=720)
        assert hausdorff(mc_hull, res.inner) < 0.05 * max(1.0, res.inner.diameter)

    def test_attained_points_are_rayleigh_values(self, rng):
        a = random_matrix(rng, 4)
        res = numerical_range(a, grid=90)
        # every attained point must lie inside the outer region (it is a
        # genuine quadratic-form value)
        assert support_excess(res.outer, res.attained).max() <= 1e-9

    def test_gap_shrinks_under_grid_refinement(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 4)
            gaps = [numerical_range(a, grid=k).gap for k in (64, 128, 256)]
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
            assert support_excess(res.outer, [v])[0] <= 1e-9

    def test_repeated_call_is_fresh_and_equal(self, rng):
        # numerical_range keeps no state: memoising is the spec's job
        a = random_matrix(rng, 4)
        r1 = numerical_range(a, grid=64)
        r2 = numerical_range(a, grid=64)
        assert r1 is not r2
        assert np.array_equal(r1.outer.support, r2.outer.support)
        assert np.array_equal(r1.inner.vertices, r2.inner.vertices)
        assert np.array_equal(r1.attained, r2.attained)
        assert r1.gap == r2.gap

    def test_scale_covariance_at_extreme_scales(self, rng):
        # W(cA) = c W(A): the eigenpair certificate is relative to the scale
        a = random_matrix(rng, 4)
        base = numerical_range(a, grid=256)
        for c in (1e-8, 1e4, 1e8, 1e150):
            res = numerical_range(ComplexMatrix(c * a.entries), grid=256)
            assert np.max(np.abs(res.outer.support / c - base.outer.support)) < 1e-12
            assert np.max(np.abs(res.attained / c - base.attained)) < 1e-12
            assert res.gap / c == pytest.approx(base.gap, rel=1e-9)

    def test_covariance_beyond_squarable_scales(self, rng):
        # squares of entries past 1e154 overflow and below 1e-154 lose
        # precision; each block is solved at unit scale and scaled back
        a = random_matrix(rng, 4)
        base = numerical_range(a)
        for c in (1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300):
            m = ComplexMatrix(c * a.entries)
            res = numerical_range(m)
            top = np.abs(base.outer.support).max()
            for got, want in ((res.outer.support, base.outer.support),
                              (res.inner.support, base.inner.support),
                              (res.attained, base.attained)):
                assert np.abs(got / c - want).max() <= 1e-12 * top, c
            assert abs(res.gap / c - base.gap) <= 1e-12 * top
            assert m.norm_bound / c == pytest.approx(a.norm_bound, rel=1e-12)

    def test_hermitian_matrix_gives_real_segment(self, rng):
        h = ComplexMatrix(np.diag([1.0, 2.0, 4.0]))
        res = numerical_range(h, grid=360)
        assert np.max(np.abs(res.inner.vertices.imag)) < 1e-10
        lo = -res.outer.support[180]
        hi = res.outer.support[0]
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(4.0, abs=1e-10)


class TestAntipodalPairs:
    """H(theta + pi) = -H(theta): an even grid solves half its directions
    and reads the antipodal half from the bottom eigenpairs; an odd grid
    solves every direction."""

    @pytest.mark.parametrize("grid, solved", [(360, 180), (8, 4), (91, 91), (3, 3)])
    def test_eigensolve_sees_half_an_even_grid(self, rng, monkeypatch, grid, solved):
        seen = []
        solve = blockrange.numrange.max_eigenpairs_batch

        def counting(mats, tol):
            seen.append(len(mats))
            return solve(mats, tol)

        monkeypatch.setattr(blockrange.numrange, "max_eigenpairs_batch", counting)
        res = numerical_range(random_matrix(rng, 4), grid=grid)
        assert seen == [solved]
        assert res.outer.support.shape == res.attained.shape == (grid,)

    @pytest.mark.parametrize("grid", [3, 7, 91])
    def test_odd_grid_matches_charpoly_oracle(self, rng, grid):
        a = random_matrix(rng, 4)
        res = numerical_range(a, grid=grid)
        th = grid_angles(grid)
        for j in sorted({*range(0, grid, 13), grid // 2, grid // 2 + 1, grid - 1}):
            w = np.exp(-1j * th[j])
            h = (w * a.entries + (w * a.entries).conj().T) / 2
            assert res.outer.support[j] == pytest.approx(charpoly_lambda_max(h), abs=1e-8)
        # every attained point lies on its own supporting line
        on_line = np.real(res.attained * np.exp(-1j * th))
        assert np.max(np.abs(on_line - res.outer.support)) < 1e-12


class TestLaws:
    """Metamorphic laws of W, on random matrices at scales 1e-15 to 1e15:
    each holds within the gaps the two ranges report.  The scaling and
    translation laws draw c and z at 1e-15 to 1e15 as well."""

    matrices = st.tuples(
        st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(-15, 15),
        st.sampled_from([8, 91, 360]),
    )

    @staticmethod
    def draw(case) -> tuple[np.random.Generator, np.ndarray, int]:
        """The generator a case seeds, the matrix drawn from it, the grid."""
        n, seed, e, grid = case
        rng = np.random.default_rng(seed)
        return rng, random_matrix(rng, n, scale=10.0**e).entries, grid

    @staticmethod
    def check_law(a: np.ndarray, b: np.ndarray, image, grid: int) -> None:
        """W(B) = image(W(A)) for an affine ``image`` z -> c z + d, within
        the two reported gaps (W(A)'s stretched by |c|), and rounding at the
        larger of the two operator norms (that of A stretched by |c|)."""
        ra, rb = numerical_range(ComplexMatrix(a), grid), numerical_range(ComplexMatrix(b), grid)
        stretch = abs(complex(image(np.array([1.0 + 0j]))[0] - image(np.array([0j]))[0]))
        norms = stretch * np.linalg.norm(a, 2), np.linalg.norm(b, 2)
        slack = stretch * ra.gap + rb.gap + 1e-12 * max(norms)
        for got, want in ((rb.inner, ra.inner), (rb.outer, ra.outer)):
            moved = ConvexRegion.from_points(image(want.vertices), grid)
            assert hausdorff(got, moved) <= slack

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_negation_law(self, case):
        _, a, grid = self.draw(case)
        self.check_law(a, -a, np.negative, grid)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_adjoint_law(self, case):
        _, a, grid = self.draw(case)
        self.check_law(a, a.conj().T, np.conj, grid)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_transpose_law(self, case):
        _, a, grid = self.draw(case)
        self.check_law(a, a.T, np.asarray, grid)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_unitary_similarity_law(self, case):
        rng, a, grid = self.draw(case)
        u = random_unitary(rng, a.shape[0])
        self.check_law(a, u.conj().T @ a @ u, np.asarray, grid)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_direct_sum_with_itself_law(self, case):
        _, a, grid = self.draw(case)
        self.check_law(a, assemble_block_diagonal([a, a]), np.asarray, grid)

    @given(matrices, st.integers(-15, 15), st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=40, deadline=None)
    def test_scaling_law(self, case, k, phase):
        # W(cA) = c W(A) for c = 10^k e^{i phase}
        _, a, grid = self.draw(case)
        c = 10.0**k * np.exp(1j * phase)
        self.check_law(a, c * a, lambda z: c * z, grid)

    @given(matrices, st.integers(-15, 15), st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=40, deadline=None)
    def test_translation_law(self, case, k, phase):
        # W(A - zI) = W(A) - z for z = 10^k e^{i phase}
        _, a, grid = self.draw(case)
        z = 10.0**k * np.exp(1j * phase)
        self.check_law(a, a - z * np.eye(a.shape[0]), lambda w: w - z, grid)


def _hexes(res) -> list[list[str]]:
    """Every number of a range result, as float.hex strings."""
    arrays = (res.outer.vertices, res.outer.support, res.inner.vertices,
              res.inner.support, res.attained, np.array([res.gap]))
    return [[x.hex() for x in np.asarray(a).view(np.float64).tolist()] for a in arrays]


class TestStackedRanges:
    """``numerical_ranges`` computes a stack of blocks in array passes; each
    row must be bit for bit what ``numerical_range`` gives for that block
    alone, whether the row certifies its polygons as their own hulls or
    falls back to the general hull."""

    @staticmethod
    def block(kind: int, n: int, seed: int, scale: float) -> ComplexMatrix:
        rng = np.random.default_rng(seed)
        if kind == 0:
            return random_matrix(rng, n, scale=scale)
        # a diagonal or unitarily diagonal (normal) block: W is a polygon,
        # and attained points repeat at its corners
        d = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        u = random_unitary(rng, n) if kind == 2 else np.eye(n)
        return ComplexMatrix(u @ np.diag(d) @ u.conj().T)

    stacks = st.tuples(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1), st.integers(-15, 15)),
                 min_size=1, max_size=6),
        st.sampled_from([3, 8, 91, 360]),
    )

    @given(stacks)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_single_ranges(self, case):
        n, rows, grid = case
        mats = [self.block(kind, n, seed, 10.0**e) for kind, seed, e in rows]
        stacked = numerical_ranges(mats, grid)
        assert len(stacked) == len(mats)
        for m, res in zip(mats, stacked):
            assert _hexes(res) == _hexes(numerical_range(m, grid))

    def test_stack_mixes_certified_and_fallback_rows(self, rng, monkeypatch):
        # only rows whose polygons fail the ordered-hull certificate take the
        # one-row hausdorff; the diagonal rows here do, the random ones not
        fallback = []
        single = blockrange.numrange.hausdorff

        def counting(a, b):
            fallback.append(a.vertices)
            return single(a, b)

        monkeypatch.setattr(blockrange.numrange, "hausdorff", counting)
        mats = [random_matrix(rng, 3), ComplexMatrix(np.diag([1.0, 1j, -1.0])),
                random_matrix(rng, 3), ComplexMatrix(np.diag([2.0, -1j, 0.5]))]
        stacked = numerical_ranges(mats, 360)
        # a row is solved at the scale 2^k just above its largest entry
        scales = [2.0 ** np.frexp(np.abs(m.entries).max())[1] for m in mats]
        hulled = [i for i, (r, s) in enumerate(zip(stacked, scales))
                  if any(np.array_equal(r.inner.vertices, s * v) for v in fallback)]
        assert hulled == [1, 3] and len(fallback) == 2

    def test_large_stacks_are_split(self, rng, monkeypatch):
        # a stack is solved in pieces of at most _STACK_ENTRIES entries
        seen = []
        solve = blockrange.numrange.max_eigenpairs_batch

        def counting(mats, tol):
            seen.append(mats.size)
            return solve(mats, tol)

        monkeypatch.setattr(blockrange.numrange, "max_eigenpairs_batch", counting)
        monkeypatch.setattr(blockrange.numrange, "_STACK_ENTRIES", 3 * 180 * 16)
        mats = [random_matrix(rng, 4) for _ in range(7)]
        stacked = numerical_ranges(mats, 360)
        assert seen == [3 * 180 * 16, 3 * 180 * 16, 180 * 16]
        assert [_hexes(r) for r in stacked] == [_hexes(numerical_range(m, 360)) for m in mats]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        # a bad knob is bad input, not an eigensolve that ran out of budget
        with pytest.raises(ValidationError):
            numerical_range(NILPOTENT, 360, tol=tol)

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            numerical_ranges([NILPOTENT, ComplexMatrix([[1.0]])])
        for grid in (0, 2):
            with pytest.raises(ValidationError):
                numerical_ranges([NILPOTENT], grid)
        assert numerical_ranges([]) == []

    def test_mixed_dimensions_are_a_validation_error(self):
        with pytest.raises(ValidationError, match="one dimension"):
            numerical_ranges([ComplexMatrix([[1.0]]), NILPOTENT])


class TestBlockNumericalRange:
    """The finite law W(A + B) = conv(W(A) u W(B)) for a direct sum, checked
    against the range of the assembled block diagonal matrix."""

    @staticmethod
    def check_direct_sum_law(blocks, grid):
        parts = [numerical_range(b, grid) for b in blocks]
        big = numerical_range(ComplexMatrix(assemble_block_diagonal(blocks)), grid)
        # the top eigenvalue of a block diagonal Hermitian part is the largest
        # of the blocks' top eigenvalues, at every grid angle
        want = np.max([r.outer.support for r in parts], axis=0)
        assert np.max(np.abs(big.outer.support - want)) < 1e-9
        # both inner polygons lie within their sandwich gaps of the same set
        hull = ConvexRegion.from_points(
            np.concatenate([r.inner.vertices for r in parts]), grid
        )
        assert hausdorff(big.inner, hull) <= big.gap + max(r.gap for r in parts) + 1e-12
        return big

    def test_single_block_matches(self, rng):
        # adding a scalar block from inside W(A) leaves the range unchanged
        a = random_matrix(rng, 3)
        z = np.trace(a.entries) / 3
        big = self.check_direct_sum_law([a, ComplexMatrix([[z]])], grid=180)
        res = numerical_range(a, grid=180)
        assert hausdorff(big.inner, res.inner) <= big.gap + res.gap + 1e-12

    def test_two_scalar_blocks_make_segment(self):
        big = self.check_direct_sum_law(
            [ComplexMatrix([[0.0]]), ComplexMatrix([[1.0]])], grid=90
        )
        assert_allclose(np.sort_complex(big.inner.vertices), [0j, 1 + 0j], atol=1e-12)

    def test_matches_direct_sum_samples(self):
        blocks = [NILPOTENT, DIAG23]
        big = self.check_direct_sum_law(blocks, grid=360)
        dense = assemble_block_diagonal(blocks)
        samples = rayleigh_samples(dense, 50000, seed=5)
        assert support_excess(big.outer, samples).max() <= 1e-9
        # exact witnesses: vectors supported on one block reproduce that
        # block's values inside the assembled operator
        e4 = np.zeros(4)
        e4[3] = 1.0
        assert np.vdot(e4, dense @ e4) == pytest.approx(3.0)
        half = np.array([1.0, 1j, 0, 0]) / np.sqrt(2)
        assert np.vdot(half, dense @ half) == pytest.approx(0.5j)  # top of the disc

    def test_direct_sum_of_block_with_itself_is_idempotent(self, rng):
        a = random_matrix(rng, 3)
        big = self.check_direct_sum_law([a, a], grid=180)
        res = numerical_range(a, grid=180)
        assert np.max(np.abs(big.outer.support - res.outer.support)) < 1e-9
        assert hausdorff(big.inner, res.inner) <= big.gap + res.gap + 1e-12
