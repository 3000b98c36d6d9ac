"""Fused batch-kernel throughput (trace once, execute flat).

The unfused :class:`repro.runtime.session.QuerySession` walk dispatches
every batch through per-tile ``machine.search`` calls, latch-bank
writes, per-subarray reads and hierarchy merges — Python dispatch and
copies that dwarf the useful arithmetic once the store spans many
subarrays.  The traced :class:`repro.runtime.fused.FusedPlan` collapses
that walk into a flat sequence of preallocated NumPy ops (and, for
integer-exact metrics such as binary Hamming, into plain BLAS matmuls)
while charging identical energy/latency and returning bitwise-identical
results.

Asserted: >= 3x wall-clock over the unfused session path at batch 64 on
a single machine, best of 5 interleaved repetitions per side (the
acceptance floor — the exact-Hamming rewrite typically lands near 10x),
bitwise output equality, and identical energy accounting.  Stores that
fail the exact gate (every analog one, KNN included) score through the
plan's generic per-slice loop, so a second floor guards that path: the
blocked
:func:`~repro.simulator.cells.compute_scores` kernel >= 2x over the
textbook broadcast formula on the KNN slice shape, bitwise equal.  A
third guards the mutation path: refreshing the plan in place after a
small insert + delete >= 2x cheaper than a full re-trace, plans equal.
The ``test_bench_*`` entries extend the existing pytest-benchmark
trajectory.
"""

import time

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.fused import build_fused_plan
from repro.simulator.cells import compute_scores

from harness import print_series

# Wall-clock-sensitive: excluded from the deterministic CI tier
# (`-m "not benchmark"`); the benchmarks-smoke job runs it with floors.
pytestmark = [pytest.mark.benchmark, pytest.mark.slow]

BATCH = 64
PATTERNS = 256
DIMS = 256
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
    fused = C4CAMCompiler(spec).compile(
        _dot_model(stored), [placeholder((1, DIMS))]
    )
    unfused = C4CAMCompiler(spec).compile(
        _dot_model(stored), [placeholder((1, DIMS))], fused=False
    )
    return dict(queries=queries, fused=fused, unfused=unfused)


def test_fused_throughput_3x(workload):
    """The fused plan beats the unfused session walk >= 3x at batch 64 —
    best of REPS interleaved repetitions each."""
    fused, unfused = workload["fused"], workload["unfused"]
    queries = workload["queries"]

    # Warm both paths: session setup walk, plan trace, numpy caches.
    fv, fi = fused.run_batch(queries)
    uv, ui = unfused.run_batch(queries)
    assert fused.session().fused_runs > 0
    assert unfused.session().fused_runs == 0

    fused_s = unfused_s = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fused.run_batch(queries)
        fused_s = min(fused_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        unfused.run_batch(queries)
        unfused_s = min(unfused_s, time.perf_counter() - t0)

    speedup = unfused_s / fused_s
    print_series(
        f"fused batch kernel (B={BATCH}, {PATTERNS}x{DIMS})",
        ["wall s", "queries/s"],
        [
            ("unfused session walk", [unfused_s, BATCH / unfused_s]),
            ("fused plan", [fused_s, BATCH / fused_s]),
            ("speedup", [speedup, speedup]),
        ],
    )

    # Functional: bitwise identical to the unfused oracle.
    np.testing.assert_array_equal(fi, ui)
    np.testing.assert_array_equal(fv, uv)
    # Accounting: a fused run charges the identical energy/latency.
    fr = fused.session().last_report
    ur = unfused.session().last_report
    for field in ("search", "read", "merge", "host", "write"):
        assert getattr(fr.energy, field) == getattr(ur.energy, field)
    assert fr.query_latency_ns == ur.query_latency_ns
    assert fr.searches == ur.searches
    # The acceptance floor.
    assert speedup >= 3.0, f"only {speedup:.1f}x over the unfused walk"


def _textbook_euclidean(stored, queries):
    """The broadcast formula: one ``B×R×C`` temporary per step."""
    diff = stored.astype(np.float64) - queries.astype(np.float64)[:, None, :]
    diff = np.where(np.isnan(stored), 0.0, diff)
    return (diff * diff).sum(axis=-1)


def test_generic_scoring_2x():
    """The blocked Euclidean kernel beats the textbook broadcast formula
    >= 2x on the KNN slice shape (512x64 analog store, 32-query batch),
    bitwise equal — best of 7 interleaved repetitions each."""
    rng = np.random.default_rng(5)
    stored = rng.standard_normal((512, 64))
    queries = rng.standard_normal((32, 64))

    blocked_s = textbook_s = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        got = compute_scores("euclidean", stored, queries)
        blocked_s = min(blocked_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        want = _textbook_euclidean(stored, queries)
        textbook_s = min(textbook_s, time.perf_counter() - t0)

    speedup = textbook_s / blocked_s
    print_series(
        "generic Euclidean scoring (B=32, 512x64 store)",
        ["wall s", "queries/s"],
        [
            ("textbook broadcast", [textbook_s, 32 / textbook_s]),
            ("blocked kernel", [blocked_s, 32 / blocked_s]),
            ("speedup", [speedup, speedup]),
        ],
    )
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert speedup >= 2.0, f"only {speedup:.1f}x over the broadcast formula"


def _plan_arrays(plan):
    """Every array a fused plan serves from, stores first."""
    arrays = [store for _c0, _c1, store in plan.slices]
    if plan.exact is not None:
        arrays += [a for a in plan.exact[3:] if a is not None]
    return arrays


def _same_plan(got, want):
    """Byte-for-byte plan equality (``tests/test_mutation_differential.py``
    checks every field; this is the benchmark's cheap guard)."""
    assert (got.exact is None) == (want.exact is None)
    assert got.n_alive == want.n_alive
    assert got.host_energy == want.host_energy
    assert got.search_charges == want.search_charges
    assert got.read_charges == want.read_charges
    assert got.merge_charges == want.merge_charges
    np.testing.assert_array_equal(got.live, want.live)
    for g, w in zip(_plan_arrays(got), _plan_arrays(want), strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_fused_rebuild_cost_amortizes():
    """After a 4-row insert plus a 4-row delete, refreshing the fused
    plan in place is >= 2x cheaper than a full ``build_fused_plan``
    re-trace, and the refreshed plan equals the fresh one — best of 5
    interleaved repetitions, on the churn workload's store shape (192x512
    bipolar, 32x32 subarrays)."""
    rng = np.random.default_rng(7)

    def bipolar(rows):
        return rng.choice([-1.0, 1.0], (rows, 512)).astype(np.float32)

    kernel = C4CAMCompiler(paper_spec(rows=32, cols=32)).compile(
        _dot_model(bipolar(192)), [placeholder((1, 512))]
    )
    session = kernel.session()
    queries = bipolar(8)

    def mutate():
        session.insert(bipolar(4))
        session.delete(
            [int(i) for i in rng.choice(session.row_ids(), 4, replace=False)]
        )

    session.run_batch(queries)   # trace the plan
    mutate()                     # grow once: a capacity change re-traces
    session.run_batch(queries)
    plan = session._fused_plan
    refresh_s = build_s = float("inf")
    for _ in range(5):
        mutate()
        touched = set(session._touched_slots)
        t0 = time.perf_counter()
        assert plan.refresh(session, touched)
        refresh_s = min(refresh_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fresh = build_fused_plan(session)
        build_s = min(build_s, time.perf_counter() - t0)
        _same_plan(plan, fresh)
        session.run_batch(queries)
        assert session._fused_plan is plan
    assert session.compactions == 0, "a compaction moves most rows"
    assert plan.exact is not None   # the exact Hamming rewrite stays on

    speedup = build_s / refresh_s
    print_series(
        "fused-plan upkeep after a 4-row insert + 4-row delete "
        "(192x512 bipolar, 32x32 subarrays)",
        ["wall ms"],
        [
            ("full build_fused_plan", [build_s * 1e3]),
            ("in-place refresh", [refresh_s * 1e3]),
            ("speedup", [speedup]),
        ],
    )
    assert speedup >= 2.0, f"refresh only {speedup:.1f}x cheaper than a build"


def test_bench_fused_batch64(benchmark, workload):
    """BENCH trajectory: one fused 64-query batch."""
    fused, queries = workload["fused"], workload["queries"]
    fused.run_batch(queries)  # session open + plan traced
    benchmark.pedantic(
        lambda: fused.run_batch(queries),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_bench_unfused_batch64(benchmark, workload):
    """BENCH trajectory: the unfused session-walk baseline."""
    unfused, queries = workload["unfused"], workload["queries"]
    unfused.run_batch(queries)
    benchmark.pedantic(
        lambda: unfused.run_batch(queries),
        rounds=3, iterations=1, warmup_rounds=1,
    )
