import numpy as np
import pytest

from blockrange import (
    ComplexMatrix,
    NonConvergence,
    NotUnit,
    ValidationError,
    numerical_range,
    rayleigh,
)
from blockrange.linalg import max_eigenpairs_batch

from helpers import NILPOTENT, charpoly_lambda_max, random_hermitian, random_matrix, random_unit_vector


def top_pair(h, tol=1e-10):
    """Largest eigenvalue and eigenvector of one matrix, through the batch."""
    lams, xs, _ = max_eigenpairs_batch(np.asarray(h, dtype=complex)[None], tol)
    return float(lams[0]), xs[0]


class TestComplexMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ComplexMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ComplexMatrix([[np.nan, 0], [0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_is_a_validation_error(self, bad):
        # bad input raises the package's error, which callers catching
        # ValueError still catch
        with pytest.raises(ValidationError, match="finite"):
            ComplexMatrix([[1, 0], [bad, 1]])
        assert issubclass(ValidationError, ValueError)

    def test_entries_read_only(self):
        m = ComplexMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5

    def test_default_norm_bound_is_frobenius(self):
        m = ComplexMatrix([[3, 0], [0, 4]])
        assert m.norm_bound == pytest.approx(5.0)

    def test_rejects_bound_below_column_norm(self):
        with pytest.raises(ValueError):
            ComplexMatrix([[3, 0], [0, 4]], norm_bound=1.0)

    def test_any_memory_layout(self, rng):
        e = random_matrix(rng, 4).entries
        for arr in (e.T, np.asfortranarray(e)):
            m = ComplexMatrix(arr)
            assert m == ComplexMatrix(np.ascontiguousarray(arr))
            assert hash(m) == hash(ComplexMatrix(np.ascontiguousarray(arr)))

    def test_bound_check_is_relative(self):
        # the slack scales with the matrix: no unit floor below unit scale
        with pytest.raises(ValueError):
            ComplexMatrix(1e-13 * np.eye(2), norm_bound=1e-20)
        with pytest.raises(ValueError):
            ComplexMatrix(1e-13 * np.eye(2), norm_bound=0.99e-13)
        assert ComplexMatrix(1e-13 * np.eye(2), norm_bound=1e-13).norm_bound == 1e-13

    def test_accepts_tighter_valid_bound(self):
        # spectral norm of this rank-1-ish matrix is below Frobenius
        m = ComplexMatrix([[1, 1], [1, 1]], norm_bound=2.0)
        assert m.norm_bound == 2.0


class TestHermitianPart:
    """The rotated Hermitian parts H(theta) = (e^{-i theta} A + adjoint) / 2
    that ``numerical_range`` builds, seen through its support values: the
    support of W(A) at grid angle theta is the top eigenvalue of H(theta)."""

    def test_hermitian_fixed_point_at_zero_angle(self, rng):
        # H(0) of a Hermitian matrix is the matrix itself
        h = random_hermitian(rng, 4)
        res = numerical_range(ComplexMatrix(h), grid=360)
        assert res.outer.support[0] == pytest.approx(charpoly_lambda_max(h), abs=1e-8)

    def test_nilpotent_example(self):
        # H(0) = [[0, 1/2], [1/2, 0]]: top eigenvalue 1/2 at (1, 1)/sqrt(2)
        res = numerical_range(NILPOTENT, grid=360)
        assert res.outer.support[0] == pytest.approx(0.5, abs=1e-12)
        assert res.attained[0] == pytest.approx(0.5 + 0j, abs=1e-10)

    def test_matches_entrywise_recompute(self, rng):
        # independent recomputation with scalar complex arithmetic
        import cmath

        a = random_matrix(rng, 4)
        j = 49
        theta = 2 * np.pi * j / 360
        w = cmath.exp(-1j * theta)
        h = np.empty((4, 4), dtype=complex)
        for r in range(4):
            for c in range(4):
                h[r, c] = (w * a.entries[r, c] + (w * a.entries[c, r]).conjugate()) / 2
        res = numerical_range(a, grid=360)
        assert res.outer.support[j] == pytest.approx(charpoly_lambda_max(h), abs=1e-8)

    def test_output_is_hermitian(self, rng):
        # x* H(theta) x = Re(e^{-i theta} x* A x) for Hermitian H(theta), so
        # every attained point lies on its supporting line
        for _ in range(5):
            a = random_matrix(rng, 5)
            res = numerical_range(a, grid=64)
            th = 2 * np.pi * np.arange(64) / 64
            on_line = np.real(res.attained * np.exp(-1j * th))
            assert np.max(np.abs(on_line - res.outer.support)) < 1e-12


class TestMaxEigenpair:
    def test_diagonal(self):
        lam, x = top_pair(np.diag([1.0, 3.0, 2.0]))
        assert lam == pytest.approx(3.0, abs=1e-12)
        assert abs(abs(x[1]) - 1.0) < 1e-10

    def test_pauli_x(self):
        lam, _ = top_pair([[0, 1], [1, 0]])
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        # eigh reads one triangle only; the residual against the whole
        # matrix is what rejects a non-Hermitian input
        with pytest.raises(NonConvergence):
            top_pair([[0, 1], [0, 0]])

    def test_against_charpoly_bisection(self, rng):
        for n in (2, 3, 5, 7):
            for _ in range(5):
                h = random_hermitian(rng, n)
                got, _ = top_pair(h)
                want = charpoly_lambda_max(h)
                assert got == pytest.approx(want, abs=1e-8)

    def test_residual_contract(self, rng):
        # rows m + i answer -H_i: both halves meet the same residual bound
        tol = 1e-10
        for n in (2, 4, 8, 10):
            batch = np.stack([random_hermitian(rng, n, scale=3.0) for _ in range(100)])
            lams, xs, res = max_eigenpairs_batch(batch, tol)
            assert lams.shape == res.shape == (200,) and xs.shape == (200, n)
            assert res.max() <= tol
            # eigen-equation residual recomputed independently, on H and -H
            signed = np.concatenate([batch, -batch])
            hx = np.einsum("mij,mj->mi", signed, xs)
            err = np.linalg.norm(hx - lams[:, None] * xs, axis=1)
            assert err.max() <= tol
            assert np.all(lams[:100] >= -lams[100:])

    def test_unreachable_tolerance_raises(self, rng):
        h = random_hermitian(rng, 4)
        with pytest.raises(NonConvergence):
            top_pair(h, tol=1e-30)

    def test_batch_matches_charpoly_bisection(self, rng):
        # top half: lam_max(H); bottom half: lam_max(-H) = -lam_min(H)
        batch = np.stack([random_hermitian(rng, 6) for _ in range(40)])
        lams, _, _ = max_eigenpairs_batch(batch)
        want = [charpoly_lambda_max(h) for h in batch] + [charpoly_lambda_max(-h) for h in batch]
        assert np.max(np.abs(lams - want)) < 1e-10

    def test_lapack_failure_raises(self, rng, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NonConvergence):
            max_eigenpairs_batch(random_hermitian(rng, 3)[None])

    def test_bottom_pairs_are_certified_too(self, rng, monkeypatch):
        # a NaN in the smallest eigenvector alone fails the certificate
        eigh = np.linalg.eigh

        def bad_bottom(h):
            vals, vecs = eigh(h)
            vecs[..., 0] = np.nan
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", bad_bottom)
        with pytest.raises(NonConvergence):
            max_eigenpairs_batch(random_hermitian(rng, 3)[None])

    def test_one_by_one(self):
        lam, _ = top_pair([[2.5]])
        assert lam == 2.5


class TestRayleigh:
    def test_identity(self, rng):
        x = random_unit_vector(rng, 5)
        assert rayleigh(ComplexMatrix(np.eye(5)), x) == pytest.approx(1.0, abs=1e-12)

    def test_basis_vector_reads_diagonal(self):
        a = ComplexMatrix(np.diag([0.0, 1.0]))
        assert rayleigh(a, np.array([1.0, 0.0])) == 0.0

    def test_scaling_and_shift_covariance(self, rng):
        a = random_matrix(rng, 4)
        x = random_unit_vector(rng, 4)
        base = rayleigh(a, x)
        c = 2.0 - 1.5j
        scaled = rayleigh(ComplexMatrix(c * a.entries), x)
        assert scaled == pytest.approx(c * base, abs=1e-12)
        shifted = rayleigh(ComplexMatrix(a.entries - c * np.eye(4)), x)
        assert shifted == pytest.approx(base - c, abs=1e-12)

    def test_rejects_short_vector(self, rng):
        a = random_matrix(rng, 3)
        with pytest.raises(NotUnit):
            rayleigh(a, np.array([0.5, 0.5, 0.5]))

    def test_rejects_wrong_length(self, rng):
        a = random_matrix(rng, 3)
        with pytest.raises(ValueError):
            rayleigh(a, random_unit_vector(rng, 4))
