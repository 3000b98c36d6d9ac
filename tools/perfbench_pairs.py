#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/perfbench_pairs.py --parent ../parent --change . \\
        --workload churn --pairs 10 --seconds 40

Each pair runs ``perfbench/run.py`` once in the parent checkout and once
in the change checkout, with the same arguments; even pairs run the
parent first, odd pairs the change.  For every metric the report gives
each side's median and quartiles, the pairs the change won and lost
(ties count for neither), and whether the medians differ by more than
the parent's interquartile range — the rule a claimed gain must pass.
It also prints each side's failed/attempted operation counts and the
environment the numbers were measured in: CPU model and count, Python,
NumPy, and the BLAS vendor, version and thread count (read with the
BLAS pin ``perfbench/run.py`` sets).  Metric directions come from the
change checkout's ``BENCHMARK.json``.  Nothing is written to disk.

The last line of stdout is the whole summary as one JSON object (see
:func:`record`), the form the ``BENCH_<workload>.json`` records at the
repository root keep.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: The BLAS pin ``perfbench/run.py`` applies before importing NumPy.
BLAS_PIN = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

#: Run in a child interpreter under the BLAS pin: prints the Python,
#: NumPy and BLAS figures as JSON.  The thread count is asked of the
#: loaded OpenBLAS library itself; other vendors report "unknown".
ENV_PROBE = r"""
import ctypes, json, platform
import numpy as np
try:  # numpy >= 1.25
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
threads = "unknown"
try:
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps
                if "openblas" in line.lower() and "/" in line}
except OSError:
    libs = set()
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for name in ("openblas_get_num_threads",
                 "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "blas_vendor": blas.get("name", "unknown"),
    "blas_version": blas.get("version", "unknown"),
    "blas_threads": threads,
}))
"""


def quartiles(values: Sequence[float]):
    """``(lower quartile, median, upper quartile)`` of ``values``."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(parent: List[Dict[str, float]],
              change: List[Dict[str, float]],
              better: Dict[str, str]) -> List[dict]:
    """Compare paired runs, metric by metric.

    ``parent[i]`` and ``change[i]`` are the metrics of pair ``i``;
    ``better`` maps each metric to ``"lower"`` or ``"higher"``.  A pair
    is a win when the change reads better than the parent, a loss when
    it reads worse; equal readings count for neither.  ``separated`` is
    whether the medians differ by more than the distance between the
    parent's quartiles.  Metrics missing from any run are skipped.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    rows = []
    for name, direction in better.items():
        if not parent or any(name not in run for run in parent + change):
            continue
        if direction not in ("lower", "higher"):
            raise ValueError(f"{name}: unknown direction {direction!r}")
        sign = 1.0 if direction == "higher" else -1.0
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        gains = [sign * (b - a) for a, b in zip(old, new)]
        p, c = quartiles(old), quartiles(new)
        rows.append({
            "metric": name,
            "better": direction,
            "parent": p,
            "change": c,
            "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "separated": abs(c[1] - p[1]) > p[2] - p[0],
        })
    return rows


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe_environment() -> dict:
    """The CPU model, the CPUs the runs may use, and the Python, NumPy
    and BLAS they run with."""
    env = dict(os.environ, **BLAS_PIN)
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"cpu": cpu_model(), "cpus": cpus, **json.loads(out.stdout)}


def record(args, env: dict, sides: Dict[str, List[dict]],
           rows: List[dict]) -> dict:
    """The summary as one JSON-ready object: the run arguments, each
    metric's :func:`summarize` row (keyed by metric), each side's failed
    and attempted operations and wrong runs, and the environment.

    With fewer than two pairs the parent has no spread to compare a
    change against, so ``separated`` is ``None`` there: a zero spread
    would separate any change, noise included.
    """
    spread = args.pairs >= 2
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "trace": args.trace,
        "metrics": {row["metric"]: {
            key: value if spread or key != "separated" else None
            for key, value in row.items() if key != "metric"
        } for row in rows},
        "operations": {
            side: {"failed": sum(r["failed"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "wrong_runs": sum(not r["correct"] for r in results)}
            for side, results in sides.items()
        },
        "env": env,
    }


def run_once(checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``; its final JSON line."""
    command = [sys.executable, "perfbench/run.py",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(command, cwd=checkout, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {checkout} (exit {out.returncode}):\n"
            f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def directions(checkout: Path) -> Dict[str, str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec[key]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    better = directions(args.change)
    env = probe_environment()
    print(f"env: {env['cpu']}, {env['cpus']} cpus, python "
          f"{env['python']}, numpy {env['numpy']}, BLAS "
          f"{env['blas_vendor']} {env['blas_version']} "
          f"with {env['blas_threads']} thread(s)")
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seed {args.seed}, trace {args.trace}")
    sides = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else (
            "change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args)
            sides[side].append(result)
            print(f"  pair {pair} {side}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
    metrics = {side: [{name: entry["value"]
                       for name, entry in r["metrics"].items()}
                      for r in results]
               for side, results in sides.items()}
    rows = summarize(metrics["parent"], metrics["change"], better)
    summary = record(args, env, sides, rows)
    for side, ops in summary["operations"].items():
        print(f"{side}: {ops['failed']} failed of {ops['attempted']} "
              f"attempted, {ops['wrong_runs']} run(s) with wrong outputs")
    print(f"{'metric':28} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'W-L-T':>8}  separated")
    for name, row in summary["metrics"].items():
        fmt = "/".join(f"{v:.4g}" for v in row["parent"])
        cfmt = "/".join(f"{v:.4g}" for v in row["change"])
        wlt = f"{row['wins']}-{row['losses']}-{row['ties']}"
        separated = {None: "n/a", True: "yes", False: "no"}[row["separated"]]
        print(f"{name:28} {fmt:>30} {cfmt:>30} {wlt:>8}  {separated}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
