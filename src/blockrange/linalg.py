"""Dense complex matrices and certified extreme eigenpairs of Hermitian batches.

The eigensolve runs LAPACK (``numpy.linalg.eigh``) once on a whole batch of
equally sized Hermitian matrices, which is what makes sweeping a few hundred
rotated Hermitian parts per matrix cheap.  Both ends of each spectrum are
kept: the largest eigenpair of H and the largest eigenpair of -H (the
negated smallest eigenvalue of H, with its eigenvector), so one solve
answers two antipodal support queries.  Every returned eigenpair is
certified a posteriori by its residual ||H x - lam x||, relative to the
largest entry modulus of H so that the check is invariant under scaling.
The residual bound is the ``tol`` of ``max_eigenpairs_batch`` alone; the
range pipelines built on it run at its default, ``DEFAULT_EIG_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, NotUnit, ValidationError

DEFAULT_EIG_TOL = 1e-10
UNIT_TOL = 1e-10


def _as_square_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"expected a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite")
    return arr


def _pow2_scale(moduli):
    """The power of two 2^k just above each of ``moduli``: dividing by it
    is exact and brings the modulus into [0.5, 1).  k is clipped to keep
    2^k and 2^-k finite, for subnormal and near-overflow moduli (by two
    ufuncs: ``np.clip`` costs twice as much on the scalar of every block)."""
    return np.ldexp(1.0, np.minimum(np.maximum(np.frexp(moduli)[1], -1021), 1023))


@dataclass(frozen=True)
class ComplexMatrix:
    """Immutable square complex matrix with a cached operator-norm bound.

    ``norm_bound`` is the Frobenius norm, an upper bound for the spectral
    norm, computed once from the entries.
    """

    entries: np.ndarray
    norm_bound: float = field(init=False)

    def __post_init__(self):
        arr = _as_square_array(self.entries)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        # the norm is taken at unit scale, so that no square over- or underflows
        s = float(_pow2_scale(np.abs(arr).max()))
        object.__setattr__(self, "norm_bound", float(np.linalg.norm(arr / s)) * s)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.array_equal(self.entries, other.entries)
        )

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())


def max_eigenpairs_batch(mats: np.ndarray, tol: float = DEFAULT_EIG_TOL):
    """Largest eigenpairs of every matrix of a Hermitian batch and of its
    negation, from one ``eigh``.

    For an (m, n, n) batch H returns (lams, vecs, residuals) with shapes
    (2m,), (2m, n), (2m,): row i < m is the largest eigenpair of H_i, and
    row m + i that of -H_i, i.e. (-lam_min(H_i), its eigenvector).  Raises
    NonConvergence if LAPACK fails, or if any residual ||H x - lam x||
    exceeds ``tol`` times the largest entry modulus of its matrix.
    """
    h = np.asarray(mats, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValidationError(f"expected a (m, n, n) batch, got shape {h.shape}")
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigh failed: {exc}") from exc
    # eigh returns eigenvalues in ascending order and reads only the lower
    # triangle; the residual against the full matrix certifies each pair.
    # Both ends are checked on H itself: ||(-H) x + lam x|| = ||H x - lam x||.
    ends = vals[:, [-1, 0]]
    xs = vecs[:, :, [-1, 0]]
    res = np.linalg.norm(h @ xs - xs * ends[:, None, :], axis=1)
    bound = tol * np.abs(h).max(axis=(1, 2))
    bad = np.argwhere(~(res <= bound[:, None]))  # a NaN residual fails too
    if bad.size:
        k = tuple(bad[0])
        raise NonConvergence(
            f"eigenpair residual {res[k]:.3e} exceeds tolerance {bound[k[0]]:.3e}"
        )
    lams = np.concatenate([ends[:, 0], -ends[:, 1]])
    return lams, np.concatenate([xs[:, :, 0], xs[:, :, 1]]), res.T.ravel()


def rayleigh(a: ComplexMatrix, x: np.ndarray) -> complex:
    """Rayleigh quotient <A x, x> for a unit vector ``x``."""
    vec = np.asarray(x, dtype=np.complex128).ravel()
    if vec.shape[0] != a.dim:
        raise ValidationError(f"vector length {vec.shape[0]} does not match dim {a.dim}")
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NotUnit(f"vector norm {nrm} differs from 1 by more than {UNIT_TOL}")
    return complex(np.vdot(vec, a.entries @ vec))
