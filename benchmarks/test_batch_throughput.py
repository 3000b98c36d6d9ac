"""Batched query-session throughput (program once, query many).

The CAM is a program-once / query-many device; the legacy execution
model re-programmed every stored pattern and re-walked the IR for every
single query.  :class:`repro.runtime.session.QuerySession` amortizes the
setup across a whole batch and vectorizes the match-line computation,
so serving a 64-query batch must beat 64 sequential legacy calls by a
wide margin in wall-clock throughput while returning bitwise-identical
results.

Asserted: >= 5x wall-clock throughput at batch 64, best of 5
interleaved repetitions per side (the acceptance floor — the vectorized
path typically lands far above it), setup energy charged once per
session, and bitwise output equality.  The
``test_bench_*`` entries extend the existing pytest-benchmark
trajectory.
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

BATCH = 64
PATTERNS = 16
DIMS = 1024
REPS = 5


def _dot_model(stored, k=1):
    import repro.frontend.torch_api as torch

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            return torch.ops.aten.topk(matmul, k, largest=True)

    return DotSimilarity()


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    stored = rng.choice([-1.0, 1.0], (PATTERNS, DIMS)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (BATCH, DIMS)).astype(np.float32)
    spec = paper_spec(rows=32, cols=32)
    compiler = C4CAMCompiler(spec)
    batched = compiler.compile(_dot_model(stored), [placeholder((1, DIMS))])
    legacy = compiler.compile(
        _dot_model(stored), [placeholder((1, DIMS))], cache_session=False
    )
    return dict(stored=stored, queries=queries, batched=batched,
                legacy=legacy)


def _run_sequential(kernel, queries):
    values, indices = [], []
    for q in queries:
        v, i = kernel(q[None, :])
        values.append(v)
        indices.append(i)
    return np.vstack(values), np.vstack(indices)


def test_batch_throughput_5x(workload):
    """One session batch beats 64 legacy per-call executions >= 5x —
    best of REPS interleaved repetitions each."""
    batched, legacy = workload["batched"], workload["legacy"]
    queries = workload["queries"]

    # Warm both paths (session setup walk, numpy/JIT caches) before
    # taking wall-clock measurements.
    batched.run_batch(queries)
    _run_sequential(legacy, queries[:2])

    batch_s = seq_s = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        bv, bi = batched.run_batch(queries)
        batch_s = min(batch_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        sv, si = _run_sequential(legacy, queries)
        seq_s = min(seq_s, time.perf_counter() - t0)
    batch_report = batched.last_report

    speedup = seq_s / batch_s
    print_series(
        f"batch throughput (B={BATCH}, {PATTERNS}x{DIMS})",
        ["wall s", "queries/s"],
        [
            ("sequential calls", [seq_s, BATCH / seq_s]),
            ("session batch", [batch_s, BATCH / batch_s]),
            ("speedup", [speedup, speedup]),
        ],
    )
    print(f"simulated throughput: {batch_report.throughput_qps:.3e} q/s")

    # Functional: bitwise identical to per-call execution (no noise).
    np.testing.assert_array_equal(bi, si)
    np.testing.assert_array_equal(bv, sv)
    # Accounting: setup charged once, true batch size reported.
    assert batch_report.queries == BATCH
    assert batch_report.energy.write == pytest.approx(
        legacy.last_report.energy.write
    )
    assert batch_report.query_latency_ns == pytest.approx(
        BATCH * legacy.last_report.query_latency_ns
    )
    assert batch_report.throughput_qps > 0
    # The acceptance floor.
    assert speedup >= 5.0, f"only {speedup:.1f}x over sequential calls"


def test_setup_amortizes_across_batches(workload):
    """Across many batches the machine is programmed exactly once."""
    batched = workload["batched"]
    queries = workload["queries"]
    session = batched.session()
    writes_before = session.machine.energy.write
    for _ in range(3):
        batched.run_batch(queries)
    assert session.machine.energy.write == writes_before
    assert session.batches_run >= 3


def test_bench_session_batch64(benchmark, workload):
    """BENCH trajectory: one 64-query batch on a live session."""
    batched, queries = workload["batched"], workload["queries"]
    batched.run_batch(queries)  # ensure the session is open
    benchmark.pedantic(
        lambda: batched.run_batch(queries),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_bench_sequential_calls64(benchmark, workload):
    """BENCH trajectory: the legacy 64x per-call baseline."""
    legacy, queries = workload["legacy"], workload["queries"]
    benchmark.pedantic(
        lambda: _run_sequential(legacy, queries),
        rounds=3, iterations=1, warmup_rounds=1,
    )
