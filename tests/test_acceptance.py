"""End-to-end acceptance gate for the package.

Eight independent checks, each pinning one law the library is built on:
constant and diagonal operators reduce to elementary ranges, the dense
rational-angle family fills the unit disc, hull/intersection exchange holds
for nested families, essential ranges translate with the operator, the two
computation routes and the sampling oracle agree on the certified corpus,
regrouping really removes the convex hull, and the support-function kernel
is exact on a known matrix.

Every test prints one summary line (measured value, pinned limit, verdict)
through the capture so the full run log shows all eight results.
"""

import time

import numpy as np
import pytest

from blockrange import (
    BlockOperatorSpec,
    ConvexRegion,
    PointCloud,
    VanishingTail,
    choose_translation,
    essential_numerical_range,
    hausdorff,
    identity_decomposition,
    inner_approximate,
    nested_conv_exchange,
    numerical_range,
    regroup,
    translate_spec,
    verify_conv_free,
)

from helpers import (
    NILPOTENT,
    certified_corpus,
    constant_spec,
    dense_spec,
    gift_wrap_hull,
    random_matrix,
    scalar_periodic_spec,
    two_matrix_spec,
    vanishing_spec,
)


@pytest.fixture
def report(capsys):
    def _line(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[acceptance] {name}: {detail} -- {'PASS' if ok else 'FAIL'}",
                  flush=True)

    return _line


def test_constant_blocks_reduce_to_single_range(report):
    """Repeating one block leaves exactly that block's numerical range."""
    rng = np.random.default_rng(101)
    limit, budget = 1e-4, 10.0
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        a = random_matrix(rng, int(rng.integers(1, 7)))
        ess = essential_numerical_range(constant_spec(a), grid=720)
        nr = numerical_range(a, grid=720)
        worst = max(worst, float(hausdorff(ess.region, nr.inner)))
        # the true range sits between the attained hull and the support
        # region, so the reported sandwich width bounds the remaining error
        true_gap = float(hausdorff(ess.region, nr.outer))
        assert true_gap <= limit + nr.gap
    dt = time.perf_counter() - t0
    ok = worst <= limit and dt < budget
    report("constant blocks", ok,
           f"worst gap {worst:.3e} (limit {limit:.0e}), {dt:.2f}s (budget {budget:.0f}s)")
    assert worst <= limit
    assert dt < budget


def test_scalar_cycles_give_exact_hulls(report):
    """Eventually periodic diagonals: the range is the hull of the cycle."""
    rng = np.random.default_rng(202)
    limit, budget = 1e-6, 1.0
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        k = int(rng.integers(1, 7))
        values = rng.normal(size=k) * 2 + 2j * rng.normal(size=k)
        prefix = list(rng.normal(size=int(rng.integers(0, 4))) * 5)
        ess = essential_numerical_range(
            scalar_periodic_spec(list(values), prefix=prefix)
        )
        oracle = ConvexRegion.from_points(gift_wrap_hull(values))
        worst = max(worst, float(hausdorff(ess.region, oracle)))
    dt = time.perf_counter() - t0
    ok = worst <= limit and dt < budget
    report("scalar cycles", ok,
           f"worst gap {worst:.3e} (limit {limit:.0e}), {dt:.2f}s (budget {budget:.0f}s)")
    assert worst <= limit
    assert dt < budget


def test_dense_rational_angles_fill_disc(report):
    """Unimodular values at every rational angle accumulate on the circle,
    so the essential range is the closed unit disc."""
    limit, budget = 0.05, 60.0
    t0 = time.perf_counter()
    ess = essential_numerical_range(dense_spec(), eps=0.05, k_cap=2**16)
    dt = time.perf_counter() - t0

    th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    circle = np.exp(1j * th)
    disc_gap = float(hausdorff(ess.region, ConvexRegion.from_points(circle)))
    circle_gap = float(hausdorff(ess.limsup, PointCloud(circle)))
    ok = disc_gap <= limit and circle_gap <= limit and dt < budget
    report("dense angles", ok,
           f"disc gap {disc_gap:.3f}, circle gap {circle_gap:.3f} "
           f"(limit {limit}), {dt:.1f}s (budget {budget:.0f}s)")
    assert disc_gap <= limit
    assert circle_gap <= limit
    assert dt < budget


def test_hull_intersection_exchange_on_nested_families(report):
    """conv of the intersection equals the intersection of the hulls for
    decreasing families, within the declared sampling play."""
    rng = np.random.default_rng(303)
    worst_ratio = 0.0
    for _ in range(100):
        tol = float(10 ** rng.uniform(-5.0, -2.5))
        m = int(rng.integers(40, 120))
        base = (rng.normal(size=m) + 1j * rng.normal(size=m)) * rng.uniform(0.5, 3.0)
        center = complex(rng.normal(), rng.normal())
        order = np.argsort(np.abs(base - center))
        depth = int(rng.integers(2, 4))
        jitter = 0.0 if rng.random() < 0.3 else 0.4 * tol

        clouds = []
        pts = base[order]
        for _level in range(depth):
            clouds.append(pts.copy())
            keep = max(4, int(pts.size * rng.uniform(0.5, 0.9)))
            pts = pts[:keep]
            if jitter:
                bump = rng.normal(size=keep) + 1j * rng.normal(size=keep)
                pts = pts + bump / np.maximum(np.abs(bump), 1e-300) * jitter
        _, _, gap = nested_conv_exchange(clouds, tol)
        worst_ratio = max(worst_ratio, gap / (3.0 * tol))
    ok = worst_ratio <= 1.0
    report("hull/intersection exchange", ok,
           f"worst gap = {worst_ratio:.3f} x the 3*tol limit over 100 families")
    assert worst_ratio <= 1.0


def test_translation_covariance(report):
    """Shifting every block by -z shifts the essential range by -z."""
    rng = np.random.default_rng(404)
    limit = 1e-3
    worst = 0.0
    for trial in range(50):
        kind = trial % 5
        if kind in (0, 1):
            k = int(rng.integers(1, 5))
            spec = scalar_periodic_spec(
                list(rng.normal(size=k) + 1j * rng.normal(size=k))
            )
        elif kind in (2, 3):
            cyc = tuple(
                random_matrix(rng, int(rng.integers(1, 4)))
                for _ in range(int(rng.integers(1, 3)))
            )
            spec = BlockOperatorSpec((), VanishingTail(cyc))
        else:
            lims = [[[float(rng.normal())]], [[float(rng.normal())]]]
            spec = vanishing_spec(lims, c=float(rng.uniform(0.1, 1.0)),
                                  p=float(rng.uniform(0.7, 1.5)), seed=trial)
        z = complex(rng.normal(), rng.normal())
        base = essential_numerical_range(spec, grid=180)
        moved = essential_numerical_range(translate_spec(spec, z), grid=180)
        worst = max(worst, float(hausdorff(moved.region, base.region.translate(-z))))
    ok = worst <= limit
    report("translation covariance", ok,
           f"worst gap {worst:.3e} over 50 pairs (limit {limit:.0e})")
    assert worst <= limit


def test_dual_routes_and_oracle_agree_on_corpus(report):
    """Hull-of-limsup vs intersection-of-window-hulls, and a sampling oracle
    that never leaves the computed region by more than 0.02."""
    sample_limit = 0.02
    worst_gap_ratio = 0.0
    worst_excess = 0.0
    for name, spec in certified_corpus():
        ess = essential_numerical_range(spec)
        assert ess.crosscheck_gap <= 10.0 * ess.tolerance, name
        worst_gap_ratio = max(worst_gap_ratio, ess.crosscheck_gap / (10.0 * ess.tolerance))

        start = spec.prefix_len + 1
        tail = spec.tail
        if hasattr(tail, "decay"):
            while tail.decay(start) > 0.005:
                start *= 2
        cloud = inner_approximate(spec, start=start, samples=10**4, seed=7)
        excess = float(ess.region.distance(cloud.points).max())
        worst_excess = max(worst_excess, excess)
        assert excess <= sample_limit, name
    ok = worst_gap_ratio <= 1.0 and worst_excess <= sample_limit
    report("corpus crosscheck", ok,
           f"route gap at {worst_gap_ratio:.3f} x budget, "
           f"oracle excess {worst_excess:.3e} (limit {sample_limit})")
    assert worst_gap_ratio <= 1.0
    assert worst_excess <= sample_limit


def test_regrouping_removes_convex_hull(report):
    """Grouped blocks approach the essential range on their own; ungrouped
    single blocks do not."""
    grouped_limit, identity_floor, budget = 0.02, 0.1, 30.0
    t0 = time.perf_counter()
    spec = two_matrix_spec()
    ess = essential_numerical_range(spec)
    choice = choose_translation(ess.region)
    tspec = translate_spec(spec, choice.z)
    tess = essential_numerical_range(tspec)
    decomp = regroup(tspec, tess, eps=0.1, depth=12)
    grouped = verify_conv_free(tspec, decomp, tess)
    identity = verify_conv_free(tspec, identity_decomposition(12), tess)
    dt = time.perf_counter() - t0
    ok = grouped <= grouped_limit and identity > identity_floor and dt < budget
    report("conv-free regrouping", ok,
           f"grouped gap {grouped:.2e} (limit {grouped_limit}), "
           f"identity gap {identity:.2f} (floor {identity_floor}), "
           f"{dt:.2f}s (budget {budget:.0f}s)")
    assert grouped <= grouped_limit
    assert identity > identity_floor
    assert dt < budget


def test_support_kernel_exact_and_monotone(report):
    """The 2x2 nilpotent block has constant support 1/2; refining the angle
    grid never widens the sandwich between attained hull and support region."""
    limit = 1e-8
    res = numerical_range(NILPOTENT, grid=1024)
    support_err = float(np.abs(res.outer.support - 0.5).max())

    rng = np.random.default_rng(808)
    monotone = True
    worst_step = 0.0
    for _ in range(20):
        a = random_matrix(rng, int(rng.integers(2, 7)))
        gaps = [numerical_range(a, grid=k).gap for k in (90, 180, 360, 720)]
        steps = [g2 - g1 for g1, g2 in zip(gaps, gaps[1:])]
        worst_step = max(worst_step, max(steps))
        monotone = monotone and all(s <= 1e-12 for s in steps)
    ok = support_err <= limit and monotone
    report("support kernel", ok,
           f"nilpotent support error {support_err:.2e} (limit {limit:.0e}), "
           f"worst gap increase under refinement {worst_step:.2e}")
    assert support_err <= limit
    assert monotone
