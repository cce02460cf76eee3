"""Benchmark of blockrange's certified-range pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
Workloads (see ``workloads.py``): block_range, vanishing_tail, dense_disc,
cli_regroup.  Each run starts fresh single-threaded worker processes:

* ``--trace 0``: a few set-up probes (import plus first input, the median
  is ``setup_s``), then one worker that runs whole cycles of problems for
  S seconds.  Prints the end-to-end metrics.
* ``--trace 1``: an untraced worker for S/2 seconds, then a traced worker
  on the same problems.  Prints the per-layer metrics, including the
  tracing overhead as the ratio of the two medians.

End-to-end metrics: ``setup_s`` (process start to first input ready,
median over fresh processes), ``problems_per_s`` (certified problems per
second of solving one cycle of input classes, each class timed by its
median problem), ``solve_p50_s`` (nearest-rank median of the
per-problem wall time), ``tolerance_p50`` (median declared error bar) and
``peak_rss_mb`` (of the measured worker).
Every line before the last is for people: the metrics with units,
``fail_ratio``, each failed problem, and the environment.  The last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  All workloads in one go:

    for w in block_range vanishing_tail dense_disc cli_regroup; do
        python3 bench/run.py --workload $w --seed 1 --seconds 28 --trace 0; done
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from reduce import LAYER_METRICS, cycle_throughput, percentile, percentile_supported
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
# every worker of a run must have ended this many seconds after the start
RUN_DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_METRICS = (
    ("setup_s", "s"),
    ("problems_per_s", "1/s"),
    ("solve_p50_s", "s"),
    ("tolerance_p50", "norm"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _spawn(root: str, args: list[str]):
    """Start a worker; return it and the seconds until it reported ready."""
    start = perf_counter()
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise BenchError(f"worker did not start: {' '.join(args)}")
    return proc, ready


def _finish(proc, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _work(root: str, base: list[str], deadline: float, out: str,
          extra: list[str]) -> tuple[dict, float]:
    proc, ready = _spawn(root, [*base, "--out", out, *extra])
    _finish(proc, deadline)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), ready


def _setup_probe(root: str, base: list[str], deadline: float) -> float:
    proc, ready = _spawn(root, [*base, "--setup-only"])
    _finish(proc, deadline)
    return ready


def _src_lines(root: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "blockrange", "*.py"))):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(root: str, args, worker_env: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **worker_env,
        "src_lines": _src_lines(root),
    }


def _end_to_end(report: dict, setups: list[float]) -> dict[str, float]:
    recs = report["problems"]
    walls = [r["wall_s"] for r in recs]
    ok = [r for r in recs if r["ok"]]
    return {
        "setup_s": statistics.median(setups),
        "problems_per_s": cycle_throughput(recs),
        "solve_p50_s": percentile(walls, 50),
        "tolerance_p50": percentile([r["tolerance"] for r in ok], 50) if ok else 0.0,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def run(args) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blockrange", "__init__.py")):
        raise BenchError("run from a checkout of the repository: src/blockrange is missing")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        out = os.path.join(tmp, "report.json")
        if not args.trace:
            setups = [_setup_probe(root, base, deadline) for _ in range(SETUP_PROBES)]
            report, ready = _work(root, base, deadline, out, ["--seconds", str(args.seconds)])
            setups.append(ready)
            recs = report["problems"]
            metrics = _end_to_end(report, setups)
            units = dict(E2E_METRICS)
        else:
            plain, _ = _work(root, base, deadline, out, ["--seconds", str(args.seconds / 2)])
            n = len(plain["problems"])
            spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
            report, _ = _work(root, base, deadline, out, ["--problems", str(n), "--trace-out", spans])
            recs = plain["problems"] + report["problems"]
            metrics = dict(report["layers"])
            traced = [r["wall_s"] for r in report["problems"]]
            untraced = [r["wall_s"] for r in plain["problems"]]
            metrics["trace.overhead_ratio"] = percentile(traced, 50) / percentile(untraced, 50)
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
            print(f"spans written to {os.path.relpath(spans, root)}")

    failed = sum(not r["ok"] for r in recs)
    n = len(report["problems"])
    print(f"{args.workload}: seed {args.seed}, {len(recs)} problems, "
          f"fail_ratio {failed / len(recs):.6g} ({failed} of {len(recs)})")
    if not args.trace:
        # Shown, not gated: p90 has ten samples beyond it only from 100
        # problems on, and follows bursts of machine load that hit a few
        # problems of a run; maxima follow the roughest input of the draw,
        # and the gaps are rounding noise on periodic tails.
        p90 = percentile([r["wall_s"] for r in recs], 90)
        support = "" if percentile_supported(n, 90) else f", {n} samples: fewer than 10 beyond"
        print(f"  {'solve_p90_s (not gated)':36s} {p90:<22.10g} s{support}")
        for name, key in (("gap_max", "gap"), ("tolerance_max", "tolerance")):
            worst = max((r[key] for r in recs if r["ok"]), default=0.0)
            print(f"  {name + ' (not gated)':36s} {worst:<22.10g} norm")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:<22.10g} {units[name]}")
    for i, r in enumerate(recs):
        if not r["ok"]:
            print(f"  FAILED problem {i}: {r['note']}")
    env = _environment(root, args, report["env"])
    print(json.dumps({"env": env}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
