"""Incremental mutation throughput (program the delta, not the store).

A live store absorbing churn has two options: re-program every pattern
from scratch (the program-once model's only verb) or program just the
touched rows through the mutable-store API
(:meth:`~repro.runtime.session.QuerySession.insert` /
:meth:`~repro.runtime.session.QuerySession.delete` /
:meth:`~repro.runtime.session.QuerySession.update`).  For a small delta
against a large store the incremental path must win by a wide margin in
wall clock while staying bitwise identical to the rebuilt deployment.

Asserted: >= 5x wall-clock for a 4-row insert vs. reset-and-reprogram
of the grown store, best of 5 interleaved repetitions per side (the
acceptance floor — the incremental path typically lands far above it),
fewer rows written than a full program, bitwise output equality, and
that tombstone density past ``compact_threshold`` actually triggers a
compaction.  The ``test_bench_*`` entry extends the pytest-benchmark
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

PATTERNS = 192
DELTA = 4
DIMS = 512
BATCH = 4
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


def _compile(stored):
    compiler = C4CAMCompiler(paper_spec(rows=32, cols=32))
    return compiler.compile(_dot_model(stored), [placeholder((1, DIMS))])


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(1234)
    stored = rng.choice([-1.0, 1.0], (PATTERNS, DIMS)).astype(np.float32)
    delta = rng.choice([-1.0, 1.0], (DELTA, DIMS)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (BATCH, DIMS)).astype(np.float32)
    return dict(stored=stored, delta=delta, queries=queries)


def test_incremental_insert_5x(workload):
    """A 4-row insert beats re-programming the grown store >= 5x —
    best of REPS interleaved repetitions each."""
    stored, delta = workload["stored"], workload["delta"]
    queries = workload["queries"]

    rebuilt = _compile(np.vstack([stored, delta]))
    rebuilt.run_batch(queries)   # warm: programs the grown store once

    # Timed: bringing the machine to the grown store — the incremental
    # path writes the 4 new rows, the baseline re-runs the full setup
    # walk.  Query serving afterwards is identical, so it stays untimed.
    # The insert mutates its store, so every repetition inserts into a
    # freshly compiled and warmed base kernel, built outside the timing.
    incr_s = full_s = float("inf")
    for _ in range(REPS):
        incremental = _compile(stored)
        incremental.run_batch(queries)   # warm: programs the base store
        t0 = time.perf_counter()
        ids = incremental.insert(delta)
        incr_s = min(incr_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        rebuilt.reset()      # drops the session ...
        rebuilt.session()    # ... full setup walk programs every row again
        full_s = min(full_s, time.perf_counter() - t0)

    iv, ii = incremental.run_batch(queries)
    rv, ri = rebuilt.run_batch(queries)

    speedup = full_s / incr_s
    print_series(
        f"mutation throughput ({DELTA}-row delta on {PATTERNS}x{DIMS})",
        ["wall s", "rows written"],
        [
            ("reset + reprogram", [full_s, rebuilt.session().rows_written]),
            ("incremental insert", [incr_s,
                                    incremental.session().rows_written]),
            ("speedup", [speedup, speedup]),
        ],
    )

    # Functional: the mutated store answers exactly like the rebuilt one.
    assert ids == list(range(PATTERNS, PATTERNS + DELTA))
    np.testing.assert_array_equal(ii, ri)
    np.testing.assert_array_equal(iv, rv)
    # Accounting: base program + delta stays under two full programs.
    assert (incremental.session().rows_written
            < 2 * rebuilt.session().rows_written)
    # The acceptance floor.
    assert speedup >= 5.0, f"only {speedup:.1f}x over reprogramming"


def test_compaction_triggers_past_threshold(workload):
    """Tombstone density > compact_threshold defragments the store."""
    stored = workload["stored"]
    queries = workload["queries"]
    kernel = _compile(stored)
    kernel.run_batch(queries)
    session = kernel.session()
    assert session.compactions == 0

    # Tombstone well past the default 0.5 density threshold.
    doomed = list(range(0, PATTERNS, 3)) + list(range(1, PATTERNS, 3))
    kernel.delete(doomed)
    assert session.compactions >= 1
    survivors = [i for i in range(PATTERNS) if i not in set(doomed)]
    assert kernel.row_ids() == survivors

    # Re-packed store still answers like a fresh deployment over the
    # survivors.
    want_v, want_i = _compile(stored[survivors]).run_batch(queries)
    got_v, got_i = kernel.run_batch(queries)
    np.testing.assert_array_equal(got_i, want_i)
    np.testing.assert_array_equal(got_v, want_v)


def test_bench_churn_round(benchmark, workload):
    """BENCH trajectory: one insert+delete churn round on a live store."""
    stored, delta = workload["stored"], workload["delta"]
    kernel = _compile(stored)
    kernel.run_batch(workload["queries"])  # ensure the session is open
    row = delta[:1]

    def churn():
        (new_id,) = kernel.insert(row)
        kernel.delete([new_id])

    benchmark.pedantic(churn, rounds=3, iterations=1, warmup_rounds=1)
