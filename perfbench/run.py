#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the C4CAM stack.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload knn --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/workloads.py``):

* ``knn``   — 32-query Euclidean KNN batches on one programmed analog CAM
  (execute-bound; the fused plan is traced once and reused);
* ``churn`` — a 2-replica store behind the async serving engine, mutated
  every round and then answering 14 queued 8-query requests (serving-
  and mutation-bound; every mutation forces a fused-plan rebuild).

Every input comes from ``--seed``.  Every output is checked against a
NumPy reference, and the simulated accounting against an unfused
session of the same kernel.  Times are host wall clock, measured with one
BLAS thread.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run is ``SEGMENTS`` segments.  Each sets the workload up once, then
runs operations for ``--seconds / SEGMENTS`` seconds of operation time.
``--trace 0`` reports, each from the fastest segment:

* ``latency_ms``       — the lower quartile of the segment's operation
  latencies (a KNN batch, or a round's burst of requests from the first
  submit to the last answer);
* ``throughput_per_s`` — the upper quartile of the segment's operation
  rates (queries an operation answered per second of its time, a
  round's mutations included);
* ``setup_s``          — the segment's set-up (compile, program, first
  batch or warm-up burst).

Best-of-segments, like ``timeit``'s best-of-repeats: shared hosts switch
between a fast and a slow speed for seconds at a time (the same
pure-Python loop took 34 ms or 56 ms on the 2-CPU host this was tuned
on), which moves medians and quartiles over a whole run by how much of
it each speed covered, but rarely leaves no segment in the fast speed.
``--trace 1`` wraps each layer's entry points in spans
(``perfbench/tracing.py``) and reports the per-layer metrics instead.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: with a threaded
# BLAS the fused kernels' wall time is bimodal (thread oversubscription),
# so runs would not be comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
#: The keys of ``workloads.WORKLOADS``, named here so that the arguments
#: are checked before the sources are imported.
WORKLOAD_NAMES = ("knn", "churn")
#: A run is SEGMENTS segments of operations, each after one set-up: the
#: set-ups are spread over the run like the operations, and their number
#: does not depend on the host's speed.
SEGMENTS = 40
#: A run stops measuring past this much wall time, so that it always
#: ends well inside its time limit.
WALL_LIMIT_S = 120.0

#: Per-layer times: metric -> tracer span (median self time, ms).
SPAN_TIMES = {
    "frontend_ms": "frontend",
    "pass_torch_to_cim_ms": "pass:torch-to-cim",
    "pass_cim_fuse_ops_ms": "pass:cim-fuse-ops",
    "pass_similarity_match_ms": "pass:cim-similarity-match",
    "pass_partition_ms": "pass:cim-partition",
    "pass_cim_to_cam_ms": "pass:cim-to-cam",
    "program_ms": "program",
    "plan_build_ms": "plan_build",
    "execute_ms": "execute",
    "mutate_ms": "mutate",
}
#: Read from the workload (0 where the workload has no such layer):
#: serving phases, compactions per round, and the simulated cost of a
#: query, which a change of host speed alone must leave as it was.
WORKLOAD_LAYERS = {
    "serve_queue_ms": "ms",
    "serve_coalesce_ms": "ms",
    "serve_run_ms": "ms",
    "serve_merge_ms": "ms",
    "compactions_per_op": "1/op",
    "sim_latency_ns_per_query": "ns",
    "sim_energy_pj_per_query": "pJ",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, run: dict, began: float,
            untimed=contextlib.nullcontext) -> None:
    """Run ``workload.op()`` until ``seconds`` of op time have passed,
    adding the segment's figures to ``run``.

    Checking outputs is untimed (and runs inside ``untimed()``).
    """
    latencies, rates, busy = [], [], 0.0
    while busy < seconds:
        if time.perf_counter() - began > WALL_LIMIT_S:
            break
        start = time.perf_counter()
        try:
            outcome = workload.op()
        except Exception:
            traceback.print_exc()
            outcome = None
        elapsed = time.perf_counter() - start
        busy += elapsed
        run["ops"] += 1
        if outcome is None:
            run["attempted"] += 1
            run["failed"] += 1
        else:
            latencies += outcome.latencies
            run["attempted"] += outcome.attempted
            run["failed"] += outcome.failed
            rates.append(outcome.work / elapsed)
        with untimed():
            run["wrong"] += workload.check()
    run["busy"] += busy
    if latencies:
        run["latency"].append(quartile(latencies, 0))
    if rates:
        run["rate"].append(quartile(rates, 2))


def quartile(values: list, which: int) -> float:
    """The lower (``which=0``) or upper (``which=2``) quartile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[which]


def end_to_end(run: dict) -> dict:
    return {
        "latency_ms": (min(run["latency"]) * 1e3, "ms"),
        "throughput_per_s": (max(run["rate"]), "1/s"),
        "setup_s": (min(run["setup"]), "s"),
    }


def per_layer(tracer, run: dict, workload_layers: dict) -> dict:
    out = {name: (tracer.median_ms(span), "ms")
           for name, span in SPAN_TIMES.items()}
    # Counted over the operations only, per operation, so that a faster
    # host (more operations in a run) reads the same.
    fused = tracer.counts.get("fused_batches", 0)
    unfused = tracer.counts.get("unfused_batches", 0)
    out["plan_builds_per_op"] = (
        tracer.n("plan_build", measuring=True) / max(1, run["ops"]), "1/op")
    out["unfused_share"] = (unfused / max(1, fused + unfused), "ratio")
    out.update({name: (workload_layers.get(name, 0), unit)
                for name, unit in WORKLOAD_LAYERS.items()})
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    import workloads

    print(f"env: python {platform.python_version()}, numpy "
          f"{np.__version__}, {os.cpu_count()} cpus, 1 BLAS thread",
          file=sys.stderr)
    tracer, untimed = None, contextlib.nullcontext
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        untimed = tracer.paused
    span = tracer.span if tracer is not None else workloads.untraced
    with untimed():  # builds the inputs and the reference figures
        workload = workloads.WORKLOADS[args.workload](args.seed, span)
    run = dict(setup=[], latency=[], rate=[], ops=0, attempted=0,
               failed=0, wrong=0, busy=0.0)
    began = time.perf_counter()
    try:
        for _segment in range(SEGMENTS):
            workload.close()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            run["setup"].append(time.perf_counter() - start)
            with untimed():
                run["wrong"] += workload.check()
            gc.collect()
            if tracer is not None:
                tracer.measuring = True
            measure(workload, args.seconds / SEGMENTS, run, began, untimed)
            if tracer is not None:
                tracer.measuring = False
        layers = workload.layer_metrics() if tracer is not None else {}
    finally:
        workload.close()
        if tracer is not None:
            tracer.close()
    if not run["latency"] or not run["rate"]:
        print("error: every operation failed; nothing was measured",
              file=sys.stderr)
        return 1

    metrics = (per_layer(tracer, run, layers) if tracer is not None
               else end_to_end(run))
    print(f"{SEGMENTS} set-ups, {run['ops']} operations in "
          f"{run['busy']:.2f}s, {run['attempted']} attempted, "
          f"{run['failed']} failed, {run['wrong']} wrong outputs",
          file=sys.stderr)
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
