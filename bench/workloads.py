"""The four benchmark workloads: seeded inputs, the timed call, and an
independent reference check of every result.

Every problem is a fresh input drawn from ``(seed, problem index)``, so no
result of one problem can serve a later one.  Problems come in cycles: each
cycle runs every input class of its workload once, in a seeded order, and a
run always ends on a cycle boundary.  The classes spread over the parameter
ranges in strata instead of drawing the parameters independently, so the
median and p90 of a run come from the same classes whatever the seed, and
the run-to-run spread measures the program rather than the luck of the draw.

Reference checks use only ``numpy.linalg.eigvalsh`` and closed forms.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

GRID = 360
THETA = 2.0 * np.pi * np.arange(GRID) / GRID


@dataclass
class Outcome:
    """A problem's reference check, with the error bars its result declared."""

    ok: bool
    gap: float = 0.0
    tolerance: float = 0.0
    note: str = ""
    artifact_bytes: int = 0


def _gaussian_block(rng, n: int) -> np.ndarray:
    """Complex Gaussian block scaled to operator norm about 2."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


# Limit-block templates of the vanishing tails, upper triangular with a
# strong nilpotent part so that their numerical ranges have no corners.
_TEMPLATES = {
    2: np.array([[0.0, 1.0], [0.0, 0.6]], dtype=complex),
    3: np.array([[0.0, 1.0, 0.5], [0.0, 0.5j, 1.0], [0.0, 0.0, -0.5]], dtype=complex),
}


def _unitary(rng, n: int) -> np.ndarray:
    """A random unitary, Haar distributed."""
    q, r = np.linalg.qr(_gaussian_block(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _similar_block(rng, m: np.ndarray) -> np.ndarray:
    """A fresh block with the numerical range of ``m``: U m U* for a random
    unitary U, or for a 1x1 block ``m`` moved by at most 1e-9."""
    if m.shape[0] == 1:
        return m + 1e-9 * complex(*rng.uniform(-1.0, 1.0, 2))
    u = _unitary(rng, m.shape[0])
    return u @ m @ u.conj().T


def _template_block(rng, n: int) -> np.ndarray:
    """A fresh dense block whose numerical range is a rotated copy of the
    size-n template's: W(e^{i phi} U T U*) = e^{i phi} W(T) for unitary U.
    A 1x1 block is a random point of the unit square."""
    if n == 1:
        return np.array([[complex(*rng.uniform(-1.0, 1.0, 2))]])
    block = _similar_block(rng, _TEMPLATES[n])
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * block


def _support(blocks, shift: complex = 0j) -> np.ndarray:
    """Support function of conv(W(B_1 - shift) u ...) on the grid, through
    the largest eigenvalue of each rotated Hermitian part."""
    phase = np.exp(-1j * THETA)
    best = np.full(GRID, -np.inf)
    for b in blocks:
        rot = phase[:, None, None] * np.asarray(b)[None, :, :]
        herm = (rot + rot.conj().transpose(0, 2, 1)) / 2.0
        best = np.maximum(best, np.linalg.eigvalsh(herm)[:, -1])
    return best - np.real(shift * phase)


def _vertex_support(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=np.complex128)
    return np.max(np.real(v[:, None] * np.exp(-1j * THETA)[None, :]), axis=0)


def _support_outcome(got, want, tol: float, gap: float, tolerance: float) -> Outcome:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    if err > tol:
        return Outcome(False, gap, tolerance, f"support off by {err:.3e} > {tol:.3e}")
    return Outcome(True, gap, tolerance)


class Workload:
    """One workload: ``classes`` lists the input classes of a cycle."""

    name = ""
    classes: tuple = ()

    def __init__(self, br, workdir: str):
        self.br = br
        self.workdir = workdir

    def slot_of(self, seed: int, index: int) -> int:
        """Position in ``classes`` of problem ``index``'s input class."""
        cycle, pos = divmod(index, len(self.classes))
        order = np.random.default_rng([seed, cycle, 1]).permutation(len(self.classes))
        return int(order[pos])

    def class_of(self, seed: int, index: int):
        return self.classes[self.slot_of(seed, index)]

    def make(self, seed: int, index: int):
        return self.build(np.random.default_rng([seed, index, 2]), self.class_of(seed, index))

    def build(self, rng, cls):
        raise NotImplementedError

    def solve(self, problem):
        raise NotImplementedError

    def check(self, problem, result) -> Outcome:
        raise NotImplementedError


class BlockRange(Workload):
    """``numerical_range`` of one dense block; the eigensolve dominates.

    Sizes repeat 12 twice per cycle so the median lies inside the n=12
    class and p90 inside the n=16 class.
    """

    name = "block_range"
    classes = (4, 8, 12, 12, 16)

    def build(self, rng, n):
        entries = _gaussian_block(rng, n)
        return entries, self.br.ComplexMatrix(entries)

    def solve(self, problem):
        return self.br.numerical_range(problem[1], grid=GRID)

    def check(self, problem, res) -> Outcome:
        entries = problem[0]
        tol = 1e-9 * max(1.0, float(np.linalg.norm(entries)))
        return _support_outcome(res.outer.support, _support([entries]), tol, res.gap, res.gap)


class VanishingTail(Workload):
    """``essential_numerical_range`` of a vanishing tail at default grid and eps.

    Non-scalar limits are random unitary similarities of fixed templates,
    so the certified tolerance, which grows with the sandwich gap of the
    limits, depends on the class and not on how round a random block came
    out.  A class fixes a point (c, p) of the decay c * n^-p, which the
    seed jitters by 2% in c and 0.02 in p; the points spread over c in
    [0.05, 0.5] and p in [1, 2].  A problem evaluates 256 + (c/eps)^(1/p)
    distinct blocks, and only those of the non-scalar limit are costly, so
    every class has three limits, one of them 2x2 or 3x3, and a decay
    point with (c/eps)^(1/p) between 20 and 50: the classes then cost the
    same to within a few percent and a run holds at least two cycles.
    """

    name = "vanishing_tail"
    classes = (
        ((2, 1, 1), 0.05, 1.0),
        ((3, 1, 1), 0.5, 2.0),
        ((2, 1, 1), 0.1, 1.4),
        ((3, 1, 1), 0.3, 1.7),
        ((2, 1, 1), 0.2, 1.55),
    )

    def build(self, rng, cls):
        dims, c, p = cls
        limits = [_template_block(rng, d) for d in rng.permutation(dims)]
        c *= float(rng.uniform(0.98, 1.02))
        p = min(2.0, max(1.0, p + float(rng.uniform(-0.02, 0.02))))
        shift = complex(*rng.uniform(-1.0, 1.0, 2))
        br = self.br
        tail = br.VanishingTail(
            tuple(br.ComplexMatrix(m) for m in limits), c, p, int(rng.integers(2**31))
        )
        return limits, shift, br.BlockOperatorSpec((), tail, shift)

    def solve(self, problem):
        return self.br.essential_numerical_range(problem[2])

    def check(self, problem, ess) -> Outcome:
        limits, shift, _ = problem
        return _support_outcome(ess.region.support, _support(limits, shift),
                                ess.tolerance, ess.crosscheck_gap, ess.tolerance)


class DenseDisc(Workload):
    """``essential_numerical_range`` of the dense-angle diagonal: every block
    is 1x1, so no eigensolve runs.  A class is (eps, prefix length): the
    prefix length moves the doubling starts and so the cost, while the
    prefix values and the shift do not."""

    name = "dense_disc"
    classes = tuple((eps, count) for eps in (0.05, 0.08, 0.1) for count in (1, 2, 3))
    K_CAP = 2**16

    def build(self, rng, cls):
        eps, count = cls
        br = self.br
        prefix = tuple(
            br.ComplexMatrix(np.array([[complex(*rng.uniform(-2.0, 2.0, 2))]]))
            for _ in range(count)
        )
        shift = complex(*rng.uniform(-0.5, 0.5, 2))
        spec = br.BlockOperatorSpec(prefix, br.BuiltinTail("dense_angle_diagonal"), shift)
        return eps, shift, spec

    def solve(self, problem):
        eps, _, spec = problem
        return self.br.essential_numerical_range(spec, eps=eps, k_cap=self.K_CAP)

    def check(self, problem, ess) -> Outcome:
        shift = problem[1]
        disc = 1.0 - np.real(shift * np.exp(-1j * THETA))
        return _support_outcome(ess.region.support, disc, ess.tolerance,
                                ess.crosscheck_gap, ess.tolerance)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class CliRegroup(Workload):
    """``blockrange decompose`` in process on a periodic tail, writing every
    artifact.  A class is (cycle length, group count) and fixes its input's
    template, drawn once from a fixed seed: the cycle's block sizes, a prefix
    of 0-2 blocks, and every block's numerical range.  A problem applies a
    fresh random unitary similarity to each block of the template (1x1
    blocks get a 1e-9 jitter instead), so each problem is a distinct matrix
    whose numerical ranges are the template's.  The scan lengths of the
    regrouping, and so the cost, then follow the class, not the draw: with
    freely drawn blocks one problem of a class took 0.2 s and the next 0.9 s.
    """

    name = "cli_regroup"
    # (2, 12) comes twice: it is the class of median cost, so with nine
    # classes per cycle the median lies inside its samples rather than on
    # the edge between two classes of different cost.
    classes = tuple((length, groups) for length in (1, 2, 3, 4) for groups in (12, 24))
    classes += ((2, 12),)
    EPS = 0.1

    def __init__(self, br, workdir: str):
        super().__init__(br, workdir)
        self.templates = {}
        for length, groups in self.classes:
            rng = np.random.default_rng([length, groups, 3])
            cycle = [_gaussian_block(rng, int(rng.integers(1, 5))) for _ in range(length)]
            prefix = [_gaussian_block(rng, int(rng.integers(1, 5)))
                      for _ in range(int(rng.integers(0, 3)))]
            self.templates[length, groups] = cycle, prefix

    def build(self, rng, cls):
        cycle, prefix = (
            [_similar_block(rng, m) for m in blocks] for blocks in self.templates[cls]
        )
        doc = {"prefix": [_matrix_json(m) for m in prefix],
               "tail": {"kind": "periodic", "cycle": [_matrix_json(m) for m in cycle]}}
        path = os.path.join(self.workdir, "operator.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = {k: os.path.join(self.workdir, f"out.{k}") for k in ("csv", "svg", "cert")}
        argv = ["decompose", path, "--groups", str(cls[1]), "--eps", str(self.EPS),
                "--csv", out["csv"], "--svg", out["svg"], "--cert", out["cert"]]
        return cycle, out, argv

    def solve(self, problem):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.br.cli.main(problem[2])
        return code, sink.getvalue()

    def check(self, problem, result) -> Outcome:
        cycle, out, _ = problem
        code, text = result
        if code != 0:
            return Outcome(False, note=f"exit {code}: {text.strip()[-200:]}")
        with open(out["cert"], encoding="utf-8") as fh:
            cert = json.load(fh)
        ess = cert["essential"]
        size = sum(os.path.getsize(p) for p in out.values())
        gap = max(cert["conv_free_gap"], ess["crosscheck_gap"])
        verts = [complex(x, y) for x, y in ess["vertices"]]
        outcome = _support_outcome(_vertex_support(verts), _support(cycle),
                                   ess["tolerance"], gap, ess["tolerance"])
        outcome.artifact_bytes = size
        if outcome.ok and cert["conv_free_gap"] > self.EPS:
            outcome.ok = False
            outcome.note = f"conv-free gap {cert['conv_free_gap']:.3e} > eps {self.EPS}"
        return outcome


WORKLOADS = {w.name: w for w in (BlockRange, VanishingTail, DenseDisc, CliRegroup)}
