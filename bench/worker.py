"""One benchmark process: import blockrange from ``src/``, build the first
input, report ``ready`` on stdout, then run problems back to back.

    python3 bench/worker.py --workload NAME --seed N --seconds S --out FILE
                            [--problems N] [--trace-out FILE] [--setup-only]

The process is single-threaded (the runner pins the BLAS/OpenMP pools to
one thread) and handles one client in a closed loop: each problem starts
when the previous one, and its reference check, are done.  Without
``--problems`` it runs as many whole cycles of input classes as fit in
``--seconds`` (always at least one); with it, it runs exactly that many
problems.  The per-problem record goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from time import perf_counter


def _import_blockrange(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import blockrange
    import blockrange.cli  # noqa: F401  (not imported by the package itself)

    where = os.path.realpath(blockrange.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"blockrange was imported from {where}, not from {src}")
    return blockrange


def _environment() -> dict:
    import numpy
    import scipy

    from run import THREAD_VARS

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--problems", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    br = _import_blockrange(root)
    from workloads import WORKLOADS, Outcome

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        wl = WORKLOADS[args.workload](br, workdir)
        problem = wl.make(args.seed, 0)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace_out:
            from reduce import layer_metrics
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)

        cycle = len(wl.classes)
        records = []
        t0 = cycle_start = perf_counter()
        i = 0
        while True:
            if args.problems:
                if i >= args.problems:
                    break
            elif i and i % cycle == 0:
                # start another whole cycle only if one more, as long as the
                # last, still ends within the measured time
                now = perf_counter()
                if 2 * now - cycle_start - t0 > args.seconds:
                    break
                cycle_start = now
            if i:
                problem = wl.make(args.seed, i)
            if tracer is not None:
                tracer.begin_problem(i)
            start = perf_counter()
            try:
                result = wl.solve(problem)
            except Exception as exc:  # a failed problem is counted, not fatal
                wall = perf_counter() - start
                outcome = Outcome(False, note=f"{type(exc).__name__}: {exc}")
            else:
                wall = perf_counter() - start
                outcome = wl.check(problem, result)
            if tracer is not None and outcome.artifact_bytes:
                tracer.add("cli.artifact_bytes", outcome.artifact_bytes)
            records.append({"slot": wl.slot_of(args.seed, i), "wall_s": wall,
                            "ok": outcome.ok, "gap": outcome.gap,
                            "tolerance": outcome.tolerance, "note": outcome.note})
            i += 1

    report = {"problems": records, "env": _environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.dump(args.trace_out)
        report["layers"] = layer_metrics(tracer.spans, tracer.counters, len(records),
                                         sum(r["wall_s"] for r in records))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
