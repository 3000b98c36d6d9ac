"""Cluster dispatch under saturation: priority wins, autoscaler engages.

The cluster control plane dispatches with priority classes (higher
first) and EDF within a class, and grows per-tenant serving lanes when
queue depth outruns capacity.  Both behaviours only matter *under
saturation*, so this benchmark paces the simulated device (each
micro-batch holds its lane for a few wall milliseconds) and drives an
open-loop queue deep enough that requests genuinely wait:

* **mixed priorities** — a flood of low-priority requests saturates the
  lane; high-priority requests submitted into the standing queue must
  overtake it.  Asserted: the high-priority class's p50
  submit-to-resolve latency beats the low-priority class's by >= 2x
  (the structural gap is far larger: a high-priority request waits for
  at most the in-flight batch, a low one for the whole queue ahead).
* **queue-depth autoscaling** — the same pressure with autoscaling
  enabled must grow the tenant past one lane (a scale-up event
  recording the second live lane) and still return bitwise-correct
  results for every request.
"""

import time

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime import Cluster

from harness import print_series

# Wall-clock-sensitive: excluded from the deterministic CI tier
# (`-m "not benchmark"`); the benchmarks-smoke job runs it with floors.
pytestmark = [pytest.mark.benchmark, pytest.mark.slow]

PATTERNS = 16
DIMS = 512
LOW_REQUESTS = 36
HIGH_REQUESTS = 8
SERVICE_S = 0.004        # wall-clock hold per micro-batch (simulated)
MAX_BATCH = 4


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
def cluster_workload():
    rng = np.random.default_rng(11)
    stored = rng.choice([-1.0, 1.0], (PATTERNS, DIMS)).astype(np.float32)
    queries = rng.choice(
        [-1.0, 1.0], (LOW_REQUESTS + HIGH_REQUESTS, DIMS)
    ).astype(np.float32)
    spec = paper_spec(rows=32, cols=32)
    compiler = C4CAMCompiler(spec)
    kernel = compiler.compile(_dot_model(stored), [placeholder((1, DIMS))])
    # Calibrate the wall pace: one MAX_BATCH micro-batch holds a lane
    # for SERVICE_S seconds.
    kernel.run_batch(queries[:MAX_BATCH])
    per_batch_ns = kernel.last_report.query_latency_ns
    return dict(
        spec=spec,
        compiler=compiler,
        stored=stored,
        queries=queries,
        expected=kernel.run_batch(queries),
        time_scale=SERVICE_S / per_batch_ns,
    )


def test_high_priority_p50_beats_low_under_saturation(cluster_workload):
    """EDF-within-priority dispatch: the urgent class's p50 latency wins."""
    compiler = cluster_workload["compiler"]
    queries = cluster_workload["queries"]
    cluster = Cluster(
        cluster_workload["spec"],
        max_batch=MAX_BATCH,
        max_wait=0.0,
        time_scale=cluster_workload["time_scale"],
    )
    cluster.admit(
        compiler.compile(
            _dot_model(cluster_workload["stored"]),
            [placeholder((1, DIMS))],
        ),
        tenant_id="t",
    )
    latencies = {"low": [], "high": []}

    def track(future, klass, submitted):
        future.add_done_callback(
            lambda _f: latencies[klass].append(
                time.perf_counter() - submitted
            )
        )
        return future

    with cluster:
        # Saturate with the low-priority flood first...
        low = [
            track(
                cluster.submit(q, tenant="t", priority=0),
                "low", time.perf_counter(),
            )
            for q in queries[:LOW_REQUESTS]
        ]
        # ...then drop urgent requests into the standing queue.
        high = [
            track(
                cluster.submit(q, tenant="t", priority=5, deadline=0.01),
                "high", time.perf_counter(),
            )
            for q in queries[LOW_REQUESTS:]
        ]
        for future in high + low:
            future.result(timeout=120)

    p50_low = float(np.percentile(latencies["low"], 50))
    p50_high = float(np.percentile(latencies["high"], 50))
    ratio = p50_low / p50_high
    print_series(
        f"mixed-priority cluster dispatch ({LOW_REQUESTS} low + "
        f"{HIGH_REQUESTS} high, {SERVICE_S * 1e3:.0f} ms service)",
        ["p50 ms", "p90 ms"],
        [
            ("low priority", [
                p50_low * 1e3,
                float(np.percentile(latencies["low"], 90)) * 1e3,
            ]),
            ("high priority", [
                p50_high * 1e3,
                float(np.percentile(latencies["high"], 90)) * 1e3,
            ]),
            ("p50 ratio", [ratio, ratio]),
        ],
    )
    assert ratio >= 2.0, (
        f"high-priority p50 only {ratio:.2f}x better under saturation"
    )


def test_autoscaler_engages_under_queue_pressure(cluster_workload):
    """Queue depth past the backlog threshold must grow the tenant's
    lanes; every result stays bitwise identical to the solo kernel."""
    compiler = cluster_workload["compiler"]
    queries = cluster_workload["queries"]
    expected_v, expected_i = cluster_workload["expected"]
    cluster = Cluster(
        cluster_workload["spec"],
        max_batch=MAX_BATCH,
        max_wait=0.0,
        time_scale=cluster_workload["time_scale"],
        autoscale_max_lanes=3,
        autoscale_backlog_rows=2 * MAX_BATCH,
    )
    cluster.admit(
        compiler.compile(
            _dot_model(cluster_workload["stored"]),
            [placeholder((1, DIMS))],
        ),
        tenant_id="t",
    )
    with cluster:
        futures = [cluster.submit(q, tenant="t") for q in queries]
        values = np.vstack([f.result(timeout=120)[0] for f in futures])
        indices = np.vstack([f.result(timeout=120)[1] for f in futures])
        events = list(cluster.autoscale_events)
    # The event log, not a sampled lane count: a scaled lane can
    # attach, serve and retire between two samples.  A scale-up event
    # is appended only after its lane is attached to the engine.
    print(f"autoscaler: events {events}")
    scale_ups = [e for e in events if e["action"] == "scale-up"]
    assert scale_ups, "queue pressure never triggered scale-up"
    assert max(e["lanes"] for e in scale_ups) >= 2, (
        "no scale-up ever recorded a second live lane"
    )
    np.testing.assert_array_equal(values, expected_v)
    np.testing.assert_array_equal(indices, expected_i)
