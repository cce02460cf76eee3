"""Block diagonal operator specifications and tail window machinery.

An operator is described by finitely many explicit prefix blocks followed
by a structured tail, plus an optional uniform scalar shift: block n of the
operator is B_n - shift * I.  The tail either cycles through limit blocks
L_k under a perturbation that decays to zero (``VanishingTail``; with no
decay it is a periodic tail), or is a named builtin family
(``BuiltinTail``).  The limsup of a limit-block tail is exactly the union
of the W(L_k), and no window of it is ever built.  Tail windows belong to
the builtin tail alone: its 1x1 blocks are read as a vector of values
(``BlockOperatorSpec.window_values``, ``tail_union``), and its limsup is
sampled by windows whose stabilised union is a point cloud with explicit
resolution bookkeeping.

Blocks and block ranges are memoised per operator, in FIFO-bounded memos
that live on the spec: ``BlockOperatorSpec.cached_block`` keeps the blocks
already built, by the first index that has the same block (so a tail
without decay builds each cycle position once), and
``BlockOperatorSpec.ranges_of`` keeps block ranges, keyed by the block's
entries and the angle grid, which determine it: every range certifies its
eigenpairs at the one residual bound of ``max_eigenpairs_batch``.  Regroup
scans, group ranges and the crosscheck of one operator therefore build
each block once and compute each distinct block range once.  A translated
spec starts with empty memos, so ``regroup`` scans the operator itself and
moves its targets instead: after the essential range, a periodic tail's
decomposition solves only the prefix blocks.  ``numerical_range`` itself
is pure and keeps no state.

A set of blocks asks for all of its ranges in one request: the ranges not
yet memoised are computed by ``numerical_ranges``, one stack per block
dimension, so it costs one eigensolve per dimension rather than one per
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .convex2d import DEFAULT_GRID, PointCloud
from .errors import NoConvergence, ValidationError
from .linalg import ComplexMatrix
from .numrange import NumericalRangeResult, numerical_ranges

DEFAULT_EPS = 1e-3
DEFAULT_K_CAP = 2**20
# A regroup scan of a limit-block tail may visit up to scan_cap distinct
# blocks, at about 28 KB per grid-360 result, so the memos (and the scan's
# distance rows) are bounded.
_RANGE_MEMO_CAP = 512


class _DenseAngleTable:
    """Denominator-ordered enumeration of the rationals in [0, 1].

    Position m (1-based) holds the m-th fraction p/q in the ordering
    q = 1, 2, 3, ...; within each q the coprime numerators ascend.  Every
    rational in [0, 1] appears exactly once, and the first N positions
    exhaust all denominators up to about sqrt(N / 0.3), so the angle set
    {2 pi p / q} fills the circle with gaps shrinking like 1 / sqrt(N).
    """

    def __init__(self):
        self._fracs: list[float] = [0.0, 1.0]
        self._next_q = 2

    def fractions(self, start: int, count: int) -> np.ndarray:
        """Fractions at 1-based positions start .. start + count - 1."""
        while len(self._fracs) < start + count - 1:
            q = self._next_q
            self._next_q += 1
            p = np.arange(1, q)
            p = p[np.gcd(p, q) == 1]
            self._fracs.extend((p / q).tolist())
        return np.asarray(self._fracs[start - 1 : start - 1 + count], dtype=np.float64)


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key``, first evicting the oldest entry if the
    memo is full; returns ``value``."""
    if len(memo) >= _RANGE_MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = value
    return value


def _shifted(m: ComplexMatrix, shift: complex) -> ComplexMatrix:
    """The block ``m - shift * I``; ``m`` itself for a zero shift."""
    if shift == 0:
        return m
    return ComplexMatrix(m.entries - shift * np.eye(m.dim))


def _matrix_tuple(mats, what: str) -> tuple[ComplexMatrix, ...]:
    out = tuple(mats)
    for m in out:
        if not isinstance(m, ComplexMatrix):
            raise ValidationError(f"{what} must contain ComplexMatrix entries")
    return out


@dataclass(frozen=True)
class VanishingTail:
    """Round-robin limit blocks plus a perturbation that decays like c * n^-p.

    The perturbation of block n is a seeded Gaussian matrix of unit
    Frobenius norm scaled by the decay value, so each block is determined
    by (seed, n) alone.  With ``decay_scale`` 0, the default, there is no
    perturbation and the tail is periodic: it repeats the limits forever.
    """

    limits: tuple[ComplexMatrix, ...]
    decay_scale: float = 0.0
    decay_power: float = 1.0
    seed: int = 0
    kind: ClassVar[str] = "vanishing"

    def __post_init__(self):
        lims = _matrix_tuple(self.limits, "limits")
        if not lims:
            raise ValidationError("vanishing tail needs at least one limit block")
        if not (math.isfinite(self.decay_scale) and self.decay_scale >= 0):
            raise ValidationError("decay scale must be finite and non-negative")
        if not (math.isfinite(self.decay_power) and self.decay_power > 0):
            raise ValidationError("decay power must be finite and positive")
        object.__setattr__(self, "limits", lims)

    def decay(self, n: int) -> float:
        if self.decay_scale == 0.0:
            return 0.0
        return self.decay_scale * float(n) ** (-self.decay_power)

    def perturbation(self, n: int, dim: int) -> np.ndarray:
        amp = self.decay(n)
        if amp == 0.0:
            return np.zeros((dim, dim), dtype=np.complex128)
        rng = np.random.default_rng([self.seed & 0x7FFFFFFF, n])
        e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        nrm = float(np.linalg.norm(e))
        if nrm == 0.0:
            return np.zeros((dim, dim), dtype=np.complex128)
        return (amp / nrm) * e

    def block(self, pos: int, n: int, shift: complex) -> ComplexMatrix:
        """Block at 0-based tail position ``pos`` (1-based index ``n``),
        minus ``shift`` times the identity: the perturbed and shifted
        entries are validated once, as one matrix.  Without a perturbation
        it is the shifted limit block, bit for bit."""
        base = self.limits[pos % len(self.limits)]
        if self.decay(n) == 0.0:
            return _shifted(base, shift)
        entries = base.entries + self.perturbation(n, base.dim)
        if shift != 0:
            entries = entries - shift * np.eye(base.dim)
        return ComplexMatrix(entries)

    @property
    def norm_bound(self) -> float:
        return max(m.norm_bound for m in self.limits) + self.decay(1)


BUILTIN_TAILS = ("dense_angle_diagonal",)


@dataclass(frozen=True)
class BuiltinTail:
    """Named tail family.

    ``dense_angle_diagonal``: 1x1 blocks exp(2 pi i p/q) running through all
    rationals p/q in [0, 1] in denominator order, so every unimodular
    direction recurs infinitely often and the angles equidistribute.  Each
    tail grows its own table of those fractions.
    """

    name: str
    _angles: _DenseAngleTable = field(
        default_factory=_DenseAngleTable, init=False, repr=False, compare=False
    )
    kind: ClassVar[str] = "builtin"

    def __post_init__(self):
        if self.name not in BUILTIN_TAILS:
            raise ValidationError(
                f"unknown builtin tail {self.name!r}; known: {', '.join(BUILTIN_TAILS)}"
            )

    def values(self, pos: int, count: int) -> np.ndarray:
        """Diagonal entries at 0-based tail positions pos .. pos + count - 1."""
        fr = self._angles.fractions(pos + 1, count)
        return np.exp(2j * np.pi * fr)

    def essential_support(self, theta: np.ndarray) -> np.ndarray:
        """Support at the angles ``theta`` of the unshifted tail's essential
        numerical range, in closed form; every family states its own.  The
        dense-angle diagonal is normal with the whole unit circle as its
        essential spectrum, so its range is the closed unit disc
        (Fillmore, Stampfli and Williams 1972)."""
        if self.name != "dense_angle_diagonal":
            raise NotImplementedError(f"no closed-form essential range for {self.name!r}")
        return np.ones(np.shape(theta))

    @property
    def norm_bound(self) -> float:
        return 1.0


Tail = Union[VanishingTail, BuiltinTail]


@dataclass(frozen=True)
class BlockOperatorSpec:
    """Description of a block diagonal operator diag(B_1 - shift, B_2 - shift, ...)."""

    prefix: tuple[ComplexMatrix, ...]
    tail: Tail
    shift: complex = 0j
    _ranges: dict[tuple[bytes, int], NumericalRangeResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _blocks: dict[int, ComplexMatrix] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "prefix", _matrix_tuple(self.prefix, "prefix"))
        shift = complex(self.shift)
        if not (math.isfinite(shift.real) and math.isfinite(shift.imag)):
            raise ValidationError(f"shift must be finite, got {shift}")
        object.__setattr__(self, "shift", shift)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def norm_bound(self) -> float:
        bounds = [m.norm_bound for m in self.prefix]
        bounds.append(self.tail.norm_bound)
        return max(bounds) + abs(self.shift)

    def apply_shift(self, m: ComplexMatrix) -> ComplexMatrix:
        return _shifted(m, self.shift)

    def range_of(self, m: ComplexMatrix, grid: int) -> NumericalRangeResult:
        """``numerical_range(m, grid)`` of a block of this operator,
        memoised on the spec: a repeated request returns the same object."""
        return self.ranges_of((m,), grid)[0]

    def ranges_of(self, blocks, grid: int) -> list[NumericalRangeResult]:
        """``numerical_range(m, grid)`` of every block ``m`` of ``blocks``,
        in order, memoised on the spec by the block's entries and the grid.

        Memoised ranges are returned as they are; the others are computed
        by ``numerical_ranges``, one request per block dimension, and
        memoised in the order of their first appearance in ``blocks``.
        """
        blocks = list(blocks)
        keys = [(m.entries.tobytes(), grid) for m in blocks]
        found = {k: self._ranges[k] for k in keys if k in self._ranges}
        missing: dict = {}
        for k, m in zip(keys, blocks):
            if k not in found:
                missing.setdefault(k, m)
        by_dim: dict[int, list] = {}
        for k, m in missing.items():
            by_dim.setdefault(m.dim, []).append(k)
        for dim_keys in by_dim.values():
            results = numerical_ranges([missing[k] for k in dim_keys], grid)
            found.update(zip(dim_keys, results))
        for k in missing:
            _remember(self._ranges, k, found[k])
        return [found[k] for k in keys]

    def _first_index(self, n: int) -> int:
        """The first block index whose block is ``block(n)`` by
        construction: on a tail without decay, the index of ``n``'s cycle
        position in the first round of the tail; ``n`` itself otherwise."""
        p, t = len(self.prefix), self.tail
        if n > p and isinstance(t, VanishingTail) and t.decay_scale == 0:
            return p + 1 + (n - p - 1) % len(t.limits)
        return n

    def cached_block(self, n: int) -> ComplexMatrix:
        """``block(n)``, memoised on the spec by ``_first_index(n)``: a block
        already built is returned again instead of rebuilt, and a tail
        without decay builds each cycle position once."""
        n = self._first_index(n)
        hit = self._blocks.get(n)
        if hit is None:
            hit = _remember(self._blocks, n, self.block(n))
        return hit

    def block(self, n: int) -> ComplexMatrix:
        """Block at 1-based index ``n`` (shift already applied)."""
        if n < 1:
            raise ValidationError(f"block indices are 1-based, got {n}")
        if n <= len(self.prefix):
            return self.apply_shift(self.prefix[n - 1])
        pos, t = n - len(self.prefix) - 1, self.tail
        if isinstance(t, BuiltinTail):
            return _shifted(ComplexMatrix(t.values(pos, 1).reshape(1, 1)), self.shift)
        return t.block(pos, n, self.shift)

    def window_values(self, start: int, count: int) -> np.ndarray:
        """Diagonal entries of the builtin tail's blocks start .. start +
        count - 1, shift applied: ``block(n)`` for each n, as one vector.

        A ``start`` within the prefix raises ValidationError, and so does a
        limit-block tail, whose blocks are built one by one.
        """
        return _builtin_values(self, start, count) - self.shift


def _builtin_values(spec: BlockOperatorSpec, start: int, count: int) -> np.ndarray:
    """The unshifted values of ``spec``'s builtin tail at blocks start ..
    start + count - 1; the checks of ``window_values`` and ``tail_union``."""
    p = len(spec.prefix)
    if start <= p:
        raise ValidationError(f"window start must lie past the {p} prefix blocks, got {start}")
    t = spec.tail
    if not isinstance(t, BuiltinTail):
        raise ValidationError(
            "tail windows sample builtin tails; a limit-block tail's limsup is its limit blocks"
        )
    return t.values(start - p - 1, count)


def _attained_vertices(spec: BlockOperatorSpec, blocks, grid: int):
    """Attained-boundary vertices of the distinct blocks of ``blocks``, in
    the order of their first appearance, and their worst sandwich gap; the
    ranges are one request to the spec."""
    distinct: dict[bytes, ComplexMatrix] = {}
    for blk in blocks:
        distinct.setdefault(blk.entries.tobytes(), blk)
    results = spec.ranges_of(list(distinct.values()), grid)
    return [r.inner.vertices for r in results], max([0.0, *(r.gap for r in results)])


def _circle_covering_radius(values: np.ndarray) -> float:
    """Covering radius of a set of unimodular points along the unit circle."""
    ang = np.sort(np.mod(np.angle(values), 2.0 * np.pi))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    worst = min(float(gaps.max()), 2.0 * np.pi)
    # chord from a circle point to the nearest sample, worst case half a gap
    return float(2.0 * np.sin(worst / 4.0))


def _circle_hausdorff(a: PointCloud, b: PointCloud, centre: complex) -> float:
    """Hausdorff distance of two clouds on one circle about ``centre``.  The
    chord grows with the angle, so a point's nearest point in the other
    cloud is one of its two angular neighbours there: one sort and one
    ``searchsorted`` each way give the exact distance."""
    worst = 0.0
    for ref, query in ((a.points, b.points), (b.points, a.points)):
        ang = np.angle(ref - centre)
        order = np.argsort(ang)
        ring = ref[order]
        at = np.searchsorted(ang[order], np.angle(query - centre))
        ends = (query - ring[at - 1], query - ring[at % ring.size])
        sq = np.minimum(*(np.square(d.real) + np.square(d.imag) for d in ends))
        worst = max(worst, float(np.sqrt(sq.max())))
    return worst


def tail_union(spec: BlockOperatorSpec, start: int) -> PointCloud:
    """Union of the block ranges W(B_n) of an operator with a builtin tail,
    over the ``max(1024, start)`` tail blocks from ``start`` on: points of
    the unit circle about -shift, with their angular covering radius as
    resolution.

    A ``start`` within the prefix raises ValidationError, and so does a
    limit-block tail, whose limsup is exactly its limit blocks' ranges.
    """
    vals = _builtin_values(spec, start, max(1024, start))
    return PointCloud(vals - spec.shift, _circle_covering_radius(vals))


@dataclass(frozen=True)
class LimsupResult:
    """Sampled closed limit superior of the block ranges with its certificate.

    ``certificate`` lists (start, distance) pairs where distance is the
    Hausdorff distance between the window clouds at ``start`` and
    ``2 * start``; the final entry sits below the convergence threshold.
    """

    cloud: PointCloud
    converged_at: int
    certificate: tuple[tuple[int, float], ...]


def limsup_ranges(
    spec: BlockOperatorSpec,
    eps: float = DEFAULT_EPS,
    k_cap: int = DEFAULT_K_CAP,
    grid: int = DEFAULT_GRID,
) -> LimsupResult:
    """Closed limsup of the block range sequence, as a certified cloud.

    The limsup of a limit-block tail is exactly the union of its shifted
    limit blocks' ranges, certified at the first tail index; a builtin tail
    is driven by doubling the window start from the first tail index until
    consecutive unions, on one circle, agree within ``eps``.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    if k_cap < 1:
        raise ValidationError(f"k_cap must be at least 1, got {k_cap}")
    p = len(spec.prefix)
    t = spec.tail
    k0 = p + 1

    if isinstance(t, VanishingTail):
        limits = [spec.apply_shift(lim) for lim in t.limits]
        pts, gap = _attained_vertices(spec, limits, grid)
        return LimsupResult(PointCloud(np.concatenate(pts), gap), k0, ((k0, 0.0),))

    start = k0
    prev = tail_union(spec, start)
    cert: list[tuple[int, float]] = []
    while True:
        nxt_start = 2 * start
        if nxt_start > k_cap:
            raise NoConvergence(
                f"window start would exceed the cap {k_cap} before the unions "
                f"stabilised to {eps}"
            )
        nxt = tail_union(spec, nxt_start)
        # The window must both agree with its successor and resolve the set
        # it samples: agreement alone can hold between two equally coarse
        # windows.
        d = max(_circle_hausdorff(prev, nxt, -spec.shift), float(nxt.resolution))
        cert.append((start, d))
        if d <= eps:
            return LimsupResult(
                PointCloud(nxt.points, nxt.resolution + eps),
                nxt_start,
                tuple(cert),
            )
        start, prev = nxt_start, nxt
