from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockrange import (
    BlockOperatorSpec,
    BuiltinTail,
    ComplexMatrix,
    NoConvergence,
    PointCloud,
    ValidationError,
    VanishingTail,
    hausdorff,
    limsup_ranges,
    numerical_range,
    tail_union,
    translate_spec,
)
import blockrange.numrange
from blockrange.blockop import _RANGE_MEMO_CAP, _circle_hausdorff

from helpers import (
    DIAG23,
    NILPOTENT,
    dense_spec,
    mat,
    scalar_periodic_spec,
    two_matrix_spec,
    vanishing_spec,
)


class TestSpecBasics:
    def test_prefix_then_cycle(self):
        spec = BlockOperatorSpec((DIAG23,), VanishingTail((NILPOTENT, DIAG23)))
        assert spec.block(1) == DIAG23
        assert spec.block(2) == NILPOTENT
        assert spec.block(3) == DIAG23
        assert spec.block(4) == NILPOTENT

    def test_block_indices_one_based(self):
        with pytest.raises(ValueError):
            two_matrix_spec().block(0)

    def test_shift_applies_to_every_block(self):
        spec = BlockOperatorSpec((DIAG23,), VanishingTail((NILPOTENT,)), shift=1.0)
        assert_allclose(spec.block(1).entries, np.diag([1.0, 2.0]))
        assert_allclose(spec.block(2).entries, [[-1, 1], [0, -1]])

    @pytest.mark.parametrize("shift", [complex("nan"), complex(0, float("inf"))])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(ValidationError):
            BlockOperatorSpec((), VanishingTail((NILPOTENT,)), shift=shift)

    def test_norm_bound_dominates_blocks(self):
        spec = BlockOperatorSpec((DIAG23,), VanishingTail((NILPOTENT,)), shift=1j)
        for n in range(1, 6):
            assert spec.norm_bound >= np.linalg.norm(spec.block(n).entries, 2) - 1e-12

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValidationError):
            VanishingTail(())

    def test_window_values_match_blocks(self):
        spec = replace(dense_spec(prefix=[mat([[9.0]]), mat([[2j]])]), shift=0.3 - 0.7j)
        vals = spec.window_values(3, 40)
        want = np.array([spec.block(n).entries[0, 0] for n in range(3, 43)])
        assert vals.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "spec, start",
        [
            (scalar_periodic_spec([1.0, 2.0]), 1),
            (vanishing_spec([[[0.5]]], c=2.0, p=0.7, seed=3), 4),
            (dense_spec(prefix=[mat([[9.0]])]), 1),
            (dense_spec(), 0),
        ],
        ids=["periodic", "vanishing", "dense_in_prefix", "dense_at_zero"],
    )
    def test_window_values_sample_only_the_builtin_tail(self, spec, start):
        # a limit-block tail is built block by block, and a window holds
        # tail blocks only
        with pytest.raises(ValidationError):
            spec.window_values(start, 4)


class TestVanishingTail:
    def test_decay_values(self):
        t = VanishingTail((mat([[0.0]]),), 2.0, 1.0)
        assert t.decay(1) == 2.0
        assert t.decay(4) == 0.5

    def test_perturbation_norm_matches_decay(self):
        t = VanishingTail((mat([[0, 0], [0, 0]]),), 1.0, 0.5, seed=5)
        for n in (2, 9, 100):
            e = t.perturbation(n, 2)
            assert np.linalg.norm(e) == pytest.approx(t.decay(n), abs=1e-12)

    def test_deterministic_per_index(self):
        t = VanishingTail((mat([[0.0]]),), 1.0, 1.0, seed=5)
        assert t.perturbation(7, 1)[0, 0] == t.perturbation(7, 1)[0, 0]
        assert t.perturbation(7, 1)[0, 0] != t.perturbation(8, 1)[0, 0]

    def test_shifted_block_is_validated_once(self, monkeypatch):
        # the limit block plus its perturbation, minus the shift, is built
        # and validated as one matrix, with the same arithmetic as ever
        t = VanishingTail((NILPOTENT, DIAG23), 0.8, 1.0, seed=2)
        spec = BlockOperatorSpec((), t, shift=0.3 + 0.2j)
        built = []
        validate = ComplexMatrix.__post_init__

        def counting(m):
            built.append(m)
            validate(m)

        monkeypatch.setattr(ComplexMatrix, "__post_init__", counting)
        for n, lim in ((5, NILPOTENT), (6, DIAG23)):
            built.clear()
            blk = spec.block(n)
            assert built == [blk]
            want = (lim.entries + t.perturbation(n, 2)) - spec.shift * np.eye(2)
            assert np.array_equal(blk.entries, want)

    def test_perturbed_range_within_lipschitz_bound(self):
        # the numerical range moves by at most the operator-norm perturbation
        t = VanishingTail((NILPOTENT,), 0.8, 1.0, seed=2)
        spec = BlockOperatorSpec((), t)
        base = numerical_range(NILPOTENT, grid=180)
        for n in (3, 10, 40):
            moved = numerical_range(spec.block(n), grid=180)
            d = hausdorff(base.inner, moved.inner)
            assert d <= t.decay(n) + 2 * (base.gap + moved.gap) + 1e-9

    def test_rejects_bad_decay(self):
        with pytest.raises(ValidationError):
            VanishingTail((mat([[0.0]]),), -1.0, 1.0)
        with pytest.raises(ValidationError):
            VanishingTail((mat([[0.0]]),), 1.0, 0.0)
        for c, p in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValidationError):
                VanishingTail((mat([[0.0]]),), c, p)


class TestDenseAngles:
    def test_enumeration_against_fractions_oracle(self):
        # independent reconstruction of the ordering via the fractions module
        from fractions import Fraction
        from math import gcd

        want = [Fraction(0, 1), Fraction(1, 1)]
        q = 2
        while len(want) < 500:
            want.extend(Fraction(p, q) for p in range(1, q) if gcd(p, q) == 1)
            q += 1
        got = BuiltinTail("dense_angle_diagonal")._angles.fractions(1, 500)
        assert_allclose(got, [float(f) for f in want[:500]], atol=0)

    def test_every_rational_appears_once(self):
        fr = BuiltinTail("dense_angle_diagonal")._angles.fractions(1, 2000)
        assert len(np.unique(fr)) == 2000  # all fractions distinct in [0, 1]
        # ... though 0/1 and 1/1 collide once mapped to the circle
        vals = np.exp(2j * np.pi * fr)
        assert len(np.unique(np.round(vals, 12))) == 2000 - 1

    def test_each_tail_owns_its_table(self):
        a, b = BuiltinTail("dense_angle_diagonal"), BuiltinTail("dense_angle_diagonal")
        assert a._angles is not b._angles
        a.values(0, 3000)
        assert len(b._angles._fracs) < 3000
        # the table takes no part in equality, hashing or the repr
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "BuiltinTail(name='dense_angle_diagonal')"
        assert_allclose(b.values(2990, 10), a.values(2990, 10), atol=0)

    def test_first_values(self):
        t = BuiltinTail("dense_angle_diagonal")
        vals = t.values(0, 5)
        # fractions 0, 1, 1/2, 1/3, 2/3
        want = np.exp(2j * np.pi * np.array([0, 1, 0.5, 1 / 3, 2 / 3]))
        assert_allclose(vals, want, atol=1e-12)

    def test_angular_gap_shrinks(self):
        from blockrange.blockop import _circle_covering_radius

        r1 = _circle_covering_radius(BuiltinTail("dense_angle_diagonal").values(0, 500))
        r2 = _circle_covering_radius(BuiltinTail("dense_angle_diagonal").values(0, 8000))
        assert r2 < r1 / 2

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValidationError):
            BuiltinTail("no_such_family")


class TestTailUnion:
    def test_dense_window_approximates_circle(self):
        cloud = tail_union(dense_spec(), 2**13)
        th = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        circle = PointCloud(np.exp(1j * th))
        assert hausdorff(cloud, circle) < 0.05

    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_start_within_prefix_raises(self, start):
        # a window holds tail blocks only
        spec = dense_spec(prefix=[mat([[5.0]]), mat([[-2j]])])
        with pytest.raises(ValidationError):
            tail_union(spec, start)
        assert 5 + 0j not in tail_union(spec, 3).points.tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_circle_hausdorff_against_brute_force(self, seed):
        # random subsets of dense values about a random centre, one pair of
        # them within 0.3 rad of the angle +-pi, where the sort wraps
        rng = np.random.default_rng(seed)
        vals = BuiltinTail("dense_angle_diagonal").values(0, 3000)
        centre = complex(*rng.uniform(-2.0, 2.0, 2))
        near_pi = vals[np.abs(np.angle(vals)) > np.pi - 0.3]
        pairs = [[rng.choice(vals, int(rng.integers(1, 400)), replace=False) for _ in "ab"],
                 [rng.choice(near_pi, int(rng.integers(1, near_pi.size)), replace=False)
                  for _ in "ab"]]
        for a, b in pairs:
            pa, pb = a + centre, b + centre
            pair_d = np.abs(pa[:, None] - pb[None, :])
            want = max(pair_d.min(axis=1).max(), pair_d.min(axis=0).max())
            got = _circle_hausdorff(PointCloud(pa), PointCloud(pb), centre)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 1.0], ids=["periodic", "vanishing"])
    def test_limit_block_tail_rejected(self, c):
        # the limsup of a limit-block tail is its limit blocks; no window
        with pytest.raises(ValidationError):
            tail_union(vanishing_spec([NILPOTENT, [[1.5]]], c=c), 1)


class TestLimsup:
    def test_periodic_exact(self):
        res = limsup_ranges(two_matrix_spec())
        assert res.converged_at == 1
        assert res.certificate == ((1, 0.0),)
        both = np.concatenate([
            numerical_range(NILPOTENT).inner.vertices,
            numerical_range(DIAG23).inner.vertices,
        ])
        assert hausdorff(res.cloud, PointCloud(both)) < 1e-12

    def test_prefix_does_not_matter(self):
        plain = limsup_ranges(scalar_periodic_spec([1j, -1j]))
        with_prefix = limsup_ranges(scalar_periodic_spec([1j, -1j], prefix=[50.0, 7.0]))
        assert hausdorff(plain.cloud, with_prefix.cloud) < 1e-12

    def test_vanishing_collapses_to_limits(self):
        spec = vanishing_spec([[[2.0]], [[-1j]]], c=3.0, p=1.0, seed=9)
        res = limsup_ranges(spec)
        assert_allclose(
            np.sort_complex(np.unique(res.cloud.points)), [-1j, 2 + 0j], atol=1e-12
        )

    def test_dense_converges_to_circle(self):
        res = limsup_ranges(dense_spec(), eps=0.05, k_cap=2**16)
        th = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        assert hausdorff(res.cloud, PointCloud(np.exp(1j * th))) < 0.05
        assert res.certificate[-1][1] <= 0.05
        assert res.converged_at <= 2**16

    def test_dense_certificate_monotone_tail(self):
        res = limsup_ranges(dense_spec(), eps=0.05, k_cap=2**16)
        # the last certified distance must be below the threshold and the
        # certificate must record every doubling step
        ks = [k for k, _ in res.certificate]
        assert ks == [2**i for i in range(len(ks))]

    def test_tiny_cap_raises(self):
        with pytest.raises(NoConvergence):
            limsup_ranges(dense_spec(), eps=1e-4, k_cap=8)


class TestRangeMemo:
    """Block ranges are memoised on the spec; numerical_range itself is pure."""

    GRID = 64

    def test_period_shares_the_result_object(self):
        spec = BlockOperatorSpec((DIAG23,), VanishingTail((NILPOTENT, DIAG23)))
        for n in (2, 3, 6):
            first = spec.range_of(spec.block(n), self.GRID)
            assert spec.range_of(spec.block(n + 2), self.GRID) is first

    def test_new_and_translated_specs_start_empty(self):
        spec = two_matrix_spec()
        limsup_ranges(spec, grid=self.GRID)
        assert len(spec._ranges) == 2
        assert translate_spec(spec, 1.0)._ranges == {}
        assert two_matrix_spec()._ranges == {}

    def test_memo_stays_within_its_cap(self):
        # every block of a decaying non-scalar tail is distinct, and three
        # requests of 256 blocks ask for more ranges than the memo holds
        spec = vanishing_spec([NILPOTENT], c=0.5, p=1.0, seed=3)
        for start in (1, 257, 513):
            spec.ranges_of(map(spec.cached_block, range(start, start + 256)), 8)
            assert len(spec._ranges) <= _RANGE_MEMO_CAP
        assert len(spec._ranges) == _RANGE_MEMO_CAP

    def test_blocks_are_built_once_per_index(self, monkeypatch):
        # overlapping runs of a vanishing tail reuse the blocks already
        # built instead of rebuilding them from their seeded perturbations
        built = []
        build = BlockOperatorSpec.block

        def counting(spec, n):
            built.append(n)
            return build(spec, n)

        monkeypatch.setattr(BlockOperatorSpec, "block", counting)
        spec = vanishing_spec([NILPOTENT], c=0.5, p=1.0, seed=3)
        for start in (1, 129):
            for n in range(start, start + 256):
                spec.cached_block(n)
        assert sorted(built) == list(range(1, 385))
        assert spec.cached_block(200) is spec.cached_block(200)
        assert len(spec._blocks) <= _RANGE_MEMO_CAP
        assert translate_spec(spec, 1.0)._blocks == {}

    def test_periodic_blocks_are_built_once_per_cycle_position(self, monkeypatch):
        # without decay a block depends only on its position in the cycle,
        # whatever the seed, so the memo keys it by the first index that has
        # the same block, which is the shifted limit block bit for bit
        built = []
        build = BlockOperatorSpec.block

        def counting(spec, n):
            built.append(n)
            return build(spec, n)

        monkeypatch.setattr(BlockOperatorSpec, "block", counting)
        cycle = (NILPOTENT, DIAG23, mat([[1j]]))
        for seed in (0, 7):
            spec = BlockOperatorSpec((DIAG23,), VanishingTail(cycle, seed=seed), shift=0.5 - 1j)
            built.clear()
            for n in (2, 3, 4, 5, 17, 3000):
                assert spec.cached_block(n) is spec.cached_block(n + len(cycle))
                assert spec.cached_block(n) == build(spec, n)
                lim = spec.apply_shift(cycle[(n - 2) % len(cycle)])
                assert spec.cached_block(n).entries.tobytes() == lim.entries.tobytes()
            assert spec.cached_block(1) == build(spec, 1)
            assert sorted(built) == [1, 2, 3, 4]

    def test_decaying_blocks_are_not_folded(self):
        spec = vanishing_spec([NILPOTENT], c=0.5, seed=3)
        assert spec.cached_block(2) != spec.cached_block(3)

    def test_one_eigensolve_per_window(self, monkeypatch):
        # a vanishing tail of one 3x3 limit and two scalar limits: the limits
        # are one request, each run of tail blocks another, and a run
        # overlapping an earlier one solves only its new 3x3 blocks
        solved = []
        solve = blockrange.numrange.max_eigenpairs_batch

        def counting(mats):
            solved.append(len(mats))
            return solve(mats)

        monkeypatch.setattr(blockrange.numrange, "max_eigenpairs_batch", counting)
        upper = [[0.0, 1.0, 0.5], [0.0, 0.5j, 1.0], [0.0, 0.0, -0.5]]
        spec = vanishing_spec([upper, [[0.5]], [[1j]]], c=0.5, p=1.0, seed=3)
        limsup_ranges(spec, grid=8)
        assert solved == [4]  # one block, half of the 8 directions
        solved.clear()
        spec.ranges_of(map(spec.cached_block, range(1, 257)), 8)
        # blocks 1, 4, ..., 256 are the 3x3 ones
        assert solved == [4 * 86]
        solved.clear()
        spec.ranges_of(map(spec.cached_block, range(129, 385)), 8)
        # blocks 129 .. 384 overlap the first window up to 256
        assert solved == [4 * len(range(259, 385, 3))]

    def test_memo_is_invisible_to_equality_hash_and_repr(self):
        spec = two_matrix_spec()
        before = (hash(spec), repr(spec))
        limsup_ranges(spec, grid=self.GRID)
        assert spec._ranges
        assert (hash(spec), repr(spec)) == before
        assert spec == replace(spec) == two_matrix_spec()
