"""Command line interface.

Reads a JSON operator description, runs the requested pipeline, prints a
short summary, and optionally writes CSV / SVG / certificate artifacts.

Exit codes: 0 success (including informational gaps), 2 validation or
parse failure, 3 a convergence or scan budget ran out, 4 internally
inconsistent results.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .blockop import (
    BlockOperatorSpec,
    BuiltinTail,
    VanishingTail,
)
from .errors import (
    BlockRangeError,
    DegenerateGeometry,
    InconsistentResult,
    NoConvergence,
    NonConvergence,
    ParseError,
    ScanExhausted,
    ValidationError,
)
from .essrange import EssentialRangeResult, essential_numerical_range
from .linalg import ComplexMatrix
from .numrange import numerical_range
from .oracle import inner_approximate
from .regroup import (
    choose_translation,
    identity_decomposition,
    late_group_regions,
    regroup,
    verify_conv_free,
)
from .svgplot import Scene

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


# -- spec parsing -------------------------------------------------------


def _number(obj, where: str) -> float:
    """A JSON number as a float; an integer too large for one is rejected."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ValidationError(f"{where}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _complex_from_pair(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValidationError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(_number(obj[0], where), _number(obj[1], where))


def _matrix_from_json(obj, where: str) -> ComplexMatrix:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where}: expected a non-empty list of rows")
    n = len(obj)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(
                f"{where}[{i}]: expected a row of {n} entries, got {row!r}"
            )
        rows.append([_complex_from_pair(e, f"{where}[{i}][{k}]") for k, e in enumerate(row)])
    try:
        return ComplexMatrix(np.array(rows, dtype=np.complex128))
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {obj!r}")
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(f"{where}: unknown keys {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")


def parse_spec_dict(doc) -> BlockOperatorSpec:
    """The operator of a JSON document.  A ``"periodic"`` tail is shorthand
    for a ``"vanishing"`` tail without decay: its cycle is the limits."""
    if not isinstance(doc, dict):
        raise ValidationError("operator document must be a JSON object")
    _require_keys(doc, {"prefix", "tail", "shift"}, {"tail"}, "document")
    prefix_doc = doc.get("prefix", [])
    if not isinstance(prefix_doc, list):
        raise ValidationError("prefix: expected a list of matrices")
    prefix = tuple(_matrix_from_json(m, f"prefix[{i}]") for i, m in enumerate(prefix_doc))
    tail_doc = doc["tail"]
    if not isinstance(tail_doc, dict) or "kind" not in tail_doc:
        raise ValidationError("tail: expected an object with a 'kind' key")
    kind = tail_doc["kind"]
    if kind in ("periodic", "vanishing"):
        key, extra = ("cycle", set()) if kind == "periodic" else ("limits", {"decay", "seed"})
        _require_keys(tail_doc, {"kind", key} | extra, {key}, "tail")
        blocks = tail_doc[key]
        if not isinstance(blocks, list) or not blocks:
            raise ValidationError(f"tail.{key}: expected a non-empty list of matrices")
        lims = tuple(_matrix_from_json(m, f"tail.{key}[{i}]") for i, m in enumerate(blocks))
        c, p = 0.0, 1.0
        decay = tail_doc.get("decay")
        if decay is not None:
            _require_keys(decay, {"type", "c", "p"}, {"type", "c", "p"}, "tail.decay")
            if decay["type"] != "power":
                raise ValidationError(
                    f"tail.decay.type: only 'power' is supported, got {decay['type']!r}"
                )
            c, p = _number(decay["c"], "tail.decay.c"), _number(decay["p"], "tail.decay.p")
        seed = tail_doc.get("seed", 0)
        if not isinstance(seed, int):
            raise ValidationError("tail.seed: expected an integer")
        tail = VanishingTail(lims, c, p, seed)
    elif kind == "builtin":
        _require_keys(tail_doc, {"kind", "name"}, {"name"}, "tail")
        tail = BuiltinTail(str(tail_doc["name"]))
    else:
        raise ValidationError(
            f"tail.kind: expected periodic, vanishing or builtin, got {kind!r}"
        )
    shift = 0j
    if "shift" in doc:
        shift = _complex_from_pair(doc["shift"], "shift")
    return BlockOperatorSpec(prefix, tail, shift)


def parse_spec(text: str) -> BlockOperatorSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_spec_dict(doc)


# -- artifact writers ---------------------------------------------------


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")


def _write_csv(path: str | None, header, rows) -> None:
    if not path:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def _write_cert(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def _essential_svg(ess: EssentialRangeResult) -> str:
    scene = Scene()
    scene.add_polygon(ess.region.vertices, "fill")
    scene.add_points(ess.limsup.points, "cloud")
    return scene.render()


# -- command implementations -------------------------------------------


def _load_spec(args) -> BlockOperatorSpec:
    path = Path(args.specfile)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return parse_spec(text)


def _compute_essential(spec: BlockOperatorSpec, args) -> EssentialRangeResult:
    return essential_numerical_range(spec, grid=args.angles, eps=args.eps, k_cap=args.k_cap)


def _cmd_range(args) -> int:
    spec = _load_spec(args)
    blk = spec.block(args.block)
    res = numerical_range(blk, args.angles)
    print(f"block {args.block}: dim {blk.dim}, angle grid {args.angles}")
    print(f"support min {res.outer.support.min():.6g} max {res.outer.support.max():.6g}")
    print(f"sandwich gap {res.gap:.3e}")
    from .convex2d import grid_angles

    th = grid_angles(args.angles)
    _write_csv(
        args.csv,
        ["theta", "support", "boundary_re", "boundary_im"],
        [
            (float(t), float(h), float(b.real), float(b.imag))
            for t, h, b in zip(th, res.outer.support, res.attained)
        ],
    )
    if args.svg:
        scene = Scene()
        scene.add_polygon(res.outer.vertices, "region")
        scene.add_polygon(res.inner.vertices, "fill")
        scene.add_points(res.attained, "cloud")
        _write_text(args.svg, scene.render())
    return EXIT_OK


def _essential_payload(ess: EssentialRangeResult) -> dict:
    return {
        "converged_at": ess.converged_at,
        "crosscheck_gap": ess.crosscheck_gap,
        "tolerance": ess.tolerance,
        "certificate": [[k, d] for k, d in ess.certificate],
        "vertices": [[v.real, v.imag] for v in ess.region.vertices],
    }


def _cmd_essential(args) -> int:
    spec = _load_spec(args)
    ess = _compute_essential(spec, args)
    print(f"essential range: {ess.region.vertices.size} vertices, "
          f"converged at window start {ess.converged_at}")
    print(f"crosscheck gap {ess.crosscheck_gap:.3e} (tolerance {ess.tolerance:.3e})")
    rows = [("vertex", float(v.real), float(v.imag)) for v in ess.region.vertices]
    rows += [("limsup", float(p.real), float(p.imag)) for p in ess.limsup.points]
    _write_csv(args.csv, ["kind", "re", "im"], rows)
    _write_cert(args.cert, _essential_payload(ess))
    if args.svg:
        _write_text(args.svg, _essential_svg(ess))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = _load_spec(args)
    cloud = inner_approximate(
        spec, start=args.tail_start, samples=args.samples, seed=args.seed
    )
    pts = cloud.points
    print(f"{pts.size} essential samples "
          f"(re {pts.real.min():.4g}..{pts.real.max():.4g}, "
          f"im {pts.imag.min():.4g}..{pts.imag.max():.4g})")
    _write_csv(
        args.csv,
        ["re", "im"],
        [(float(p.real), float(p.imag)) for p in pts],
    )
    if args.svg:
        scene = Scene()
        scene.add_points(pts, "cloud")
        _write_text(args.svg, scene.render())
    return EXIT_OK


def _run_decomposition(spec: BlockOperatorSpec, args):
    """The essential range, its translation and the regrouping of T - z,
    scanned on T itself, whose block ranges the essential range memoised."""
    ess = _compute_essential(spec, args)
    choice = choose_translation(ess.region)
    decomp = regroup(
        spec,
        ess,
        eps=args.eps,
        depth=args.groups,
        scan_cap=args.scan_cap,
        z=choice.z,
    )
    return ess, choice, decomp


def _cmd_decompose(args) -> int:
    spec = _load_spec(args)
    ess, choice, decomp = _run_decomposition(spec, args)
    # the late groups are hulled once per distinct set of blocks, for the
    # gap and for the SVG; Hausdorff distance is translation invariant, so
    # they are measured untranslated, and only the drawing moves by -z
    k0 = max(1, decomp.group_count // 2)
    groups = late_group_regions(spec, decomp, k0, args.angles)
    gap = verify_conv_free(spec, decomp, ess, k0, groups=groups)
    print(f"translation z = {choice.z.real:.6g}{choice.z.imag:+.6g}i "
          f"({choice.reason}, angle margin {choice.angular_margin:.3e})")
    print(f"{decomp.group_count} groups, last boundary {decomp.boundaries[-1]}")
    print(f"conv-free gap {gap:.3e}")
    rows = []
    for m, picks in enumerate(decomp.selections, start=1):
        worst = max(p.distance for p in picks)
        rows.append((m, decomp.boundaries[m - 1], float(worst)))
    _write_csv(args.csv, ["level", "boundary", "worst_distance"], rows)
    _write_cert(
        args.cert,
        {
            "translation": [choice.z.real, choice.z.imag],
            "translation_reason": choice.reason,
            "angular_margin": choice.angular_margin,
            "eps": decomp.eps,
            "boundaries": list(decomp.boundaries),
            "conv_free_gap": gap,
            "essential": _essential_payload(ess),
        },
    )
    if args.svg:
        scene = Scene()
        scene.add_polygon(ess.region.vertices - choice.z, "fill")
        for region in groups:
            scene.add_polygon(region.vertices - choice.z, "accent")
        _write_text(args.svg, scene.render())
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    if args.identity:
        ess = _compute_essential(spec, args)
        decomp = identity_decomposition(args.groups)
        mode = "identity"
    else:
        ess, _, decomp = _run_decomposition(spec, args)
        mode = "regrouped"
    gap = verify_conv_free(spec, decomp, ess)
    print(f"mode {mode}: conv-free gap {gap:.3e}, "
          f"crosscheck gap {ess.crosscheck_gap:.3e}")
    _write_cert(
        args.cert,
        {
            "mode": mode,
            "conv_free_gap": gap,
            "crosscheck_gap": ess.crosscheck_gap,
            "tolerance": ess.tolerance,
            "boundaries": list(decomp.boundaries),
        },
    )
    return EXIT_OK


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  Each subcommand declares only the
    flags it reads, from parent parsers that declare each shared flag once;
    any other flag is a usage error (exit 2)."""
    parser = argparse.ArgumentParser(
        prog="blockrange",
        description="Numerical ranges and essential numerical ranges of "
        "block diagonal operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spec, angles, limsup, plots, cert, scan = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    spec.add_argument("specfile", help="JSON operator description")
    angles.add_argument("--angles", type=int, default=360,
                        help="angle grid size (default 360)")
    limsup.add_argument("--eps", type=float, default=1e-3,
                        help="stabilisation / scan threshold, an absolute distance "
                        "in the operator's units, not scaled by its norm (default 1e-3)")
    limsup.add_argument("--k-cap", type=int, default=2**20, dest="k_cap",
                        help="window start cap for tail doubling (default 2^20)")
    plots.add_argument("--csv", default=None, help="write CSV artifact here")
    plots.add_argument("--svg", default=None, help="write SVG artifact here")
    cert.add_argument("--cert", default=None, help="write certificate JSON here")
    scan.add_argument("--groups", type=int, default=64,
                      help="number of groups (default 64)")
    scan.add_argument("--scan-cap", type=int, default=10**6, dest="scan_cap",
                      help="blocks examined per scan before giving up")

    p_range = sub.add_parser("range", parents=[spec, angles, plots],
                             help="numerical range of one block")
    p_range.add_argument("--block", type=int, default=1,
                         help="1-based block index (default 1)")
    p_range.set_defaults(func=_cmd_range)

    p_ess = sub.add_parser("essential", parents=[spec, angles, limsup, plots, cert],
                           help="essential numerical range of the operator")
    p_ess.set_defaults(func=_cmd_essential)

    p_dec = sub.add_parser("decompose", parents=[spec, angles, limsup, plots, cert, scan],
                           help="hull-free regrouping of the blocks")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser("verify", parents=[spec, angles, limsup, cert, scan],
                           help="conv-free and crosscheck gaps")
    p_ver.add_argument("--identity", action="store_true",
                       help="score the one-block-per-group baseline instead "
                            "of regrouping")
    p_ver.set_defaults(func=_cmd_verify)

    p_orc = sub.add_parser("oracle", parents=[spec, plots],
                           help="independent inner samples of the essential range")
    p_orc.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_orc.add_argument("--samples", type=int, default=2000,
                       help="number of sampled essential values (default 2000)")
    p_orc.add_argument("--tail-start", type=int, default=None, dest="tail_start",
                       help="first block index to sample from (default: past "
                            "the prefix)")
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, DegenerateGeometry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoConvergence, NonConvergence, ScanExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconsistentResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except BlockRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
