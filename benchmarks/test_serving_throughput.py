"""Replicated async serving throughput (2 replicas vs. 1 synchronous).

Before this layer the runtime served one synchronous batch at a time
from a single copy of the store: a client submitted a batch, waited for
the device, then submitted the next — the machine idled through every
round trip and there was exactly one machine.  The serving layer
replicates the store (``compile(num_replicas=R)``) and decouples issue
from completion (``kernel.serve()``), so queued work keeps every replica
busy back-to-back.

Device time is simulated; the engine's ``time_scale`` knob holds each
replica for its micro-batch's simulated latency (here ~8 ms wall per
batch), reproducing the fixed-latency-device economics the async-memory
papers exploit.  With service time dominating host overhead, 2 replicas
under an open-loop queued workload must clear **>= 2x** the wall-clock
throughput of the synchronous single-copy loop — the replication win
(2x machines) compounding with async pipelining (no idle round trips).

Asserted: the >= 2x wall-clock floor, a matching >= 2x *simulated*
aggregate-throughput ratio from the deployment report (deterministic),
and bitwise-identical results to a direct ``run_batch``.
"""

import time

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder

from harness import print_series

# Wall-clock-sensitive: excluded from the deterministic CI tier
# (`-m "not benchmark"`); the benchmarks-smoke job runs it with floors.
pytestmark = [pytest.mark.benchmark, pytest.mark.slow]

PATTERNS = 16
DIMS = 1024
ROWS_PER_REQUEST = 8     # one client request = one micro-batch
REQUESTS = 14
SERVICE_S = 0.005        # wall-clock hold per micro-batch (simulated)
ATTEMPTS = 3             # wall-clock measurement retries (CI jitter)


def _dot_model(stored, k=1):
    import repro.frontend.torch_api as torch

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            return torch.ops.aten.topk(matmul, 1, largest=True)

    return DotSimilarity()


@pytest.fixture(scope="module")
def serving_workload():
    rng = np.random.default_rng(7)
    stored = rng.choice([-1.0, 1.0], (PATTERNS, DIMS)).astype(np.float32)
    queries = rng.choice(
        [-1.0, 1.0], (REQUESTS * ROWS_PER_REQUEST, DIMS)
    ).astype(np.float32)
    compiler = C4CAMCompiler(paper_spec(rows=32, cols=32))
    single = compiler.compile(_dot_model(stored), [placeholder((1, DIMS))])
    duo = compiler.compile(
        _dot_model(stored), [placeholder((1, DIMS))], num_replicas=2
    )
    # Warm both deployments (programs the machines) and calibrate the
    # wall pace so one ROWS_PER_REQUEST micro-batch holds a replica for
    # SERVICE_S seconds.
    single.run_batch(queries[:ROWS_PER_REQUEST])
    per_batch_ns = single.last_report.query_latency_ns
    duo.run_batch(queries[:ROWS_PER_REQUEST])
    duo.session().reset()
    return dict(
        stored=stored,
        queries=queries,
        single=single,
        duo=duo,
        time_scale=SERVICE_S / per_batch_ns,
    )


def _requests(queries):
    return np.split(queries, REQUESTS)


def _closed_loop_sync(kernel, queries, time_scale) -> float:
    """The pre-serving model: one batch in flight, wait, repeat."""
    with kernel.serve(
        max_batch=ROWS_PER_REQUEST, max_wait=0.0, time_scale=time_scale
    ) as engine:
        t0 = time.perf_counter()
        for request in _requests(queries):
            engine.submit(request).result(timeout=60)
        return time.perf_counter() - t0


def _open_loop_async(kernel, queries, time_scale):
    """The serving model: queue everything, let the replicas drain it."""
    with kernel.serve(
        max_batch=ROWS_PER_REQUEST, max_wait=0.0, time_scale=time_scale
    ) as engine:
        t0 = time.perf_counter()
        futures = [engine.submit(r) for r in _requests(queries)]
        parts = [f.result(timeout=60) for f in futures]
        wall = time.perf_counter() - t0
    return wall, parts


def test_two_replicas_double_throughput(serving_workload):
    """2 paced replicas under queued load >= 2x the sync single copy."""
    single, duo = serving_workload["single"], serving_workload["duo"]
    queries = serving_workload["queries"]
    time_scale = serving_workload["time_scale"]
    total = len(queries)

    # Deterministic half: the deployment report's aggregate throughput.
    wall_async, parts = _open_loop_async(duo, queries, time_scale)
    deployment = duo.session().report()
    assert deployment.queries == total
    sim_ratio = (
        deployment.throughput_qps / single.last_report.throughput_qps
    )
    # Balanced lanes serve concurrently: the simulated aggregate rate is
    # exactly two machines' worth.
    assert sim_ratio >= 1.99, f"simulated ratio only {sim_ratio:.2f}x"

    # Functional half: serving returned exactly what run_batch returns.
    direct_v, direct_i = single.run_batch(queries)
    np.testing.assert_array_equal(np.vstack([p[0] for p in parts]), direct_v)
    np.testing.assert_array_equal(np.vstack([p[1] for p in parts]), direct_i)

    # Wall-clock half: retry a few times so a scheduler hiccup in one
    # run cannot fail the floor; the ratio is structural (14 serialized
    # round trips vs 7 paced batches per replica), not a lucky timing.
    speedup = 0.0
    for _ in range(ATTEMPTS):
        wall_sync = _closed_loop_sync(single, queries, time_scale)
        duo.session().reset()
        wall_async, _parts = _open_loop_async(duo, queries, time_scale)
        speedup = wall_sync / wall_async
        if speedup >= 2.0:
            break

    print_series(
        f"serving throughput ({REQUESTS} x {ROWS_PER_REQUEST}-row "
        f"requests, {SERVICE_S * 1e3:.0f} ms device service)",
        ["wall s", "queries/s"],
        [
            ("sync, 1 copy", [wall_sync, total / wall_sync]),
            ("async, 2 replicas", [wall_async, total / wall_async]),
            ("speedup", [speedup, speedup]),
        ],
    )
    print(
        f"simulated aggregate throughput: {deployment.throughput_qps:.3e} "
        f"q/s ({sim_ratio:.2f}x one machine)"
    )
    assert speedup >= 2.0, f"only {speedup:.2f}x over synchronous serving"


def test_replica_lanes_balance_under_load(serving_workload):
    """Lanes pulling from one queue split a queued workload evenly."""
    duo = serving_workload["duo"]
    queries = serving_workload["queries"]
    duo.session().reset()
    _wall, _parts = _open_loop_async(
        duo, queries, serving_workload["time_scale"]
    )
    lanes = duo.session().lane_reports()
    assert sorted(lane.queries for lane in lanes) == [
        len(queries) // 2, len(queries) // 2
    ]
