"""Certified top-k pruning in the fused plan.

A Euclidean or dot batch that misses the exact gate is bounded through
the exact rewrite's matrix products, and only the (query, slot) pairs
that can reach the top-k are rescored (:mod:`repro.runtime.fused`).
These tests check the traffic — exactly ``k`` pairs per query on
distinct data, and no full per-slice loop — and that results,
``last_values`` and reports stay bitwise the unfused walk's on stores
built to break a loose bound: exact duplicate rows, 1-ulp perturbations,
magnitudes from 3e-163 to 1e150 and ``k`` up to the live rows less one.
While no live row holds a don't-care cell the plan forms the valid-mask
product ``q²·VT`` (Hamming ``qb·VT``) as one row sum per query: with
``VT`` replaced by a sentinel that raises on any matrix product, knn's
batches and an exact ±1 Hamming batch still serve bitwise, and a store
with a live don't-care row still forms it.  They hold for any BLAS
summation order; CI also runs this file under a four-thread OpenBLAS.
No wall clock is read.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import build_knn, synthetic_pneumonia
from repro.arch import FEFET_45NM, paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.fused import FusedPlan, build_fused_plan
from repro.simulator.cells import DONT_CARE, compute_scores, pair_scores

ACAM = paper_spec(rows=16, cols=16, cam_type="acam")


def _report(report):
    """Every simulated figure of an ``ExecutionReport``."""
    e = report.energy
    return (
        report.query_latency_ns, report.setup_latency_ns, report.queries,
        report.searches, report.search_cycles, report.rows_written,
        e.search, e.read, e.merge, e.host, e.write, e.standby,
    )


def _model(metric, stored, k):
    import repro.frontend.torch_api as torch

    class Euclidean(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, query):
            dist = torch.norm(torch.sub(query, self.weight), p=2, dim=-1)
            return torch.ops.aten.topk(dist, k, largest=False)

    class Dot(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, query):
            sim = torch.matmul(query, self.weight.transpose(-2, -1))
            return torch.ops.aten.topk(sim, k, largest=True)

    return Euclidean() if metric == "euclidean" else Dot()


def _pair(metric, stored, k, spec=ACAM, tech=FEFET_45NM):
    """``(fused, unfused)`` kernels over the same store."""
    example = [placeholder((1, stored.shape[1]))]
    return [
        C4CAMCompiler(spec, tech).compile(
            _model(metric, stored, k), example, fused=fused
        )
        for fused in (True, False)
    ]


def _same(fused, oracle, queries):
    """Serve ``queries`` on both sessions; the first difference, or
    ``None`` when results, ``last_values`` and reports agree bitwise."""
    rf, ro = fused.run_batch(queries), oracle.run_batch(queries)
    for name, got, want in (
        ("values", rf[0], ro[0]), ("indices", rf[1], ro[1]),
        ("last_values", fused.last_values, oracle.last_values),
    ):
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            return name
    if _report(fused.last_report) != _report(oracle.last_report):
        return "report"
    return None


def _plan_bytes(plan):
    """The exact gate's key and the bytes of every array ``plan``
    scores from: column stores, operands, then the per-slot density
    flags."""
    arrays = [store for _c0, _c1, store in plan._columns]
    arrays += [a for a in plan.operands if a is not None]
    arrays.append(plan._full)
    return plan.exact, [a.tobytes() for a in arrays]


def _knn():
    """``(fused, oracle, batches)``: the knn benchmark's store (512
    analog rows × 1024 features on 64×64 subarrays, k = 5) and its 16
    batches of 32 queries."""
    data = synthetic_pneumonia(n_train=512, n_test=512, seed=1)
    model, example = build_knn(
        data, k=5, feature_multiple=64, row_multiple=64
    ).kernel()
    spec = paper_spec(rows=64, cols=64, cam_type="acam")
    fused, oracle = (
        C4CAMCompiler(spec).compile(model, example, fused=flag).session()
        for flag in (True, False)
    )
    return fused, oracle, np.split(data.test_x.astype(np.float64), 16)


class _NoMaskProduct:
    """Stands in for a plan's ``VT``: any matrix product with it raises
    (``__array_ufunc__ = None`` makes NumPy defer ``q @ VT`` to
    :meth:`__rmatmul__`)."""

    __array_ufunc__ = None

    def __rmatmul__(self, other):
        raise AssertionError("a batch formed the valid-mask product")


def _refuse_mask_product(plan):
    base, _vt, at = plan.operands
    plan.operands = (base, _NoMaskProduct(), at)


# ------------------------------------------------------------- traffic
def test_knn_batches_rescore_k_pairs_per_query(scored, monkeypatch):
    """The knn benchmark's store and its 16 batches: with the full
    per-slice loop patched to raise, every batch rescores exactly k
    pairs per query and stays bitwise the unfused walk."""
    fused, oracle, batches = _knn()

    def refuse(plan, queries):
        raise AssertionError("the full per-slice loop ran")

    monkeypatch.setattr(FusedPlan, "_full_scores", refuse)
    for queries in batches:
        assert _same(fused, oracle, queries) is None
        report = fused.last_report
        assert report.query_latency_ns / report.queries == 17.194985000000003
    assert fused._fused_plan.exact is None
    assert scored == [32 * 5] * 16


def test_dense_knn_batches_skip_the_mask_product(scored):
    """knn's store holds no don't-care cell: once the first batch has
    traced the plan, its ``VT`` is replaced by a sentinel that raises on
    any product, and the 16 batches still serve bitwise, every one
    pruned to k pairs per query."""
    fused, oracle, batches = _knn()
    assert _same(fused, oracle, batches[0]) is None
    plan = fused._fused_plan
    assert plan.dense and plan.exact is None
    _refuse_mask_product(plan)
    for queries in batches:
        assert _same(fused, oracle, queries) is None
    assert scored == [32 * 5] * 17


def test_dense_hamming_batch_skips_the_mask_product(rng):
    """A ±1 store on a binary CAM (churn's kind) takes the exact Hamming
    rewrite; without a don't-care cell it never forms ``qb·VT``."""
    stored = rng.choice([-1.0, 1.0], (96, 256)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (9, 256))
    spec = paper_spec(rows=32, cols=32)
    fused, oracle = (
        kernel.session() for kernel in _pair("dot", stored, 1, spec=spec)
    )
    assert _same(fused, oracle, queries[:1]) is None
    plan = fused._fused_plan
    assert plan.metric == "hamming" and plan.exact is not None
    assert plan.dense
    _refuse_mask_product(plan)
    assert _same(fused, oracle, queries[1:]) is None


@pytest.mark.parametrize("metric", ["euclidean", "hamming"])
def test_dont_care_row_forms_the_mask_product(scored, metric, rng):
    """One don't-care cell in one live row: the batch (pruned Euclidean,
    exact Hamming) matches the unfused walk, and it does form the
    ``VT`` product."""
    if metric == "euclidean":
        stored = rng.standard_normal((24, 64)).astype(np.float32)
        queries = rng.standard_normal((4, 64))
        model, spec = "euclidean", ACAM
    else:   # ±1 dot similarity legalizes to Hamming on a binary CAM
        stored = rng.choice([-1.0, 1.0], (24, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (4, 64))
        model, spec = "dot", paper_spec(rows=16, cols=32)
    stored[5, 7] = DONT_CARE
    fused, oracle = (
        kernel.session() for kernel in _pair(model, stored, 3, spec=spec)
    )
    assert _same(fused, oracle, queries) is None
    plan = fused._fused_plan
    assert plan.metric == metric and not plan.dense
    assert scored == ([4 * 3] if metric == "euclidean" else [])
    _refuse_mask_product(plan)
    with pytest.raises(AssertionError, match="valid-mask product"):
        fused.run_batch(queries)


def test_pair_scores_match_compute_scores(rng):
    """Each pair is bitwise its entry of the batched kernel, don't-care
    cells included, on slice widths around the reduce's unrolling."""
    for width in (1, 7, 8, 16, 33, 64, 130):
        stored = rng.standard_normal((20, width)) * 1e3
        stored[rng.random(stored.shape) < 0.2] = DONT_CARE
        queries = rng.standard_normal((6, width)) * 1e3
        rows = rng.integers(0, 6, 40)
        slots = rng.integers(0, 20, 40)
        for metric in ("euclidean", "dot"):
            want = compute_scores(metric, stored, queries)[rows, slots]
            got = pair_scores(metric, stored[slots], queries[rows])
            assert got.tobytes() == want.tobytes(), (metric, width)
    with pytest.raises(ValueError):
        pair_scores("hamming", stored, queries)


def test_all_tie_batch_rescores_every_pair(scored, rng):
    """Zero queries tie every dot score, so every pair can win: more
    pairs than one scoring block holds, rescored chunk by chunk."""
    stored = rng.standard_normal((64, 128)).astype(np.float32)
    spec = paper_spec(rows=64, cols=64, cam_type="acam")
    fused, oracle = (
        kernel.session() for kernel in _pair("dot", stored, 3, spec=spec)
    )
    assert _same(fused, oracle, np.zeros((16, 128))) is None
    assert scored == [16 * 64]


# ------------------------------------------------------------ fallbacks
@pytest.mark.parametrize("metric", ["euclidean", "dot"])
def test_unbounded_batches_take_the_full_loop(scored, metric, rng):
    """A non-finite bound (an infinite query value) or k not below the
    live rows sends the batch through the full loop, still bitwise."""
    stored = rng.standard_normal((12, 48)).astype(np.float32)
    fused, oracle = (kernel.session() for kernel in _pair(metric, stored, 3))
    queries = rng.standard_normal((4, 48))
    queries[2, 5] = np.inf
    assert _same(fused, oracle, queries) is None
    assert scored == ["full"]
    for session in (fused, oracle):
        session.serve_k = 12
    assert _same(fused, oracle, queries[:2]) is None
    assert scored == ["full", "full"]
    for session in (fused, oracle):
        session.serve_k = 11
    assert _same(fused, oracle, queries[:2]) is None
    assert scored[-1] == 2 * 11       # all but each query's worst row


def test_multi_level_hamming_takes_the_full_loop(scored, rng):
    """A Hamming store of more than two levels has no BLAS operands."""
    stored = rng.integers(0, 3, (12, 64)).astype(np.float32)
    spec = paper_spec(rows=16, cols=32)
    fused, oracle = (
        kernel.session() for kernel in _pair("dot", stored, 2, spec=spec)
    )
    queries = rng.integers(0, 3, (3, 64)).astype(np.float64)
    assert _same(fused, oracle, queries) is None
    assert fused._fused_plan.metric == "hamming"
    assert fused._fused_plan.operands is None
    assert scored == ["full"]


# --------------------------------------------------------------- stress
ROWS, FEATURES, BATCH = 24, 48, 6


def _magnitude(rng) -> float:
    """A store's scale: where squares underflow, huge, or ordinary."""
    band = rng.choice([(-162.5, -160.5), (100, 150), (-4, 4)])
    return 10.0 ** rng.uniform(*band)


def _stress(metric, seed, cases, tech=FEFET_45NM, dont_care=False):
    """Run ``cases`` near-tie batches on one mutated store; returns the
    ``(case, difference)`` of every batch the fused plan got wrong, of
    every refreshed plan that differs from a fresh trace, and of every
    plan whose :attr:`~FusedPlan.dense` flag is wrong.

    Each case rewrites every live row as a copy of one of three rows
    (exact duplicates) of small integer levels, which tie distinct rows,
    or of Gaussian values, at a fresh magnitude; moves about one cell in
    twenty by one ulp; replaces one row (a tombstone and an insert); and
    queries copies of those rows, some moved by an ulp, and fresh rows,
    with k drawn up to the live rows less one.  The smallest magnitudes
    leave squares of a few subnormal quanta, where only the bound's
    absolute term covers the rounding.  With ``dont_care``, the row
    inserted in every case holds one don't-care cell, so the bound is
    taken over the valid-mask product instead of the row sum.
    """
    rng = np.random.default_rng(seed)
    stored = np.zeros((ROWS, FEATURES), dtype=np.float32)
    fused, oracle = (
        kernel.session() for kernel in _pair(metric, stored, 1, tech=tech)
    )
    wrong = []
    for case in range(cases):
        scale = _magnitude(rng)
        if rng.random() < 0.5:             # ties between distinct rows
            draw = lambda n: rng.integers(-3, 4, (n, FEATURES)) * scale
        else:
            draw = lambda n: rng.standard_normal((n, FEATURES)) * scale
        uniques = draw(3)
        rows = uniques[rng.integers(0, 3, ROWS)]
        moved = rng.random(rows.shape) < 0.05
        rows[moved] = np.nextafter(rows[moved], np.inf)
        if dont_care:
            rows[0, rng.integers(FEATURES)] = DONT_CARE
        live = fused.row_ids()
        gone = int(rng.choice(live))
        for session in (fused, oracle):
            for row_id, row in zip(live, rows):
                if row_id != gone:
                    session.update(row_id, row)
            session.delete(gone)
            session.insert(rows[:1])
        queries = np.concatenate([
            uniques[rng.integers(0, 3, BATCH - 2)],
            draw(2),
        ])
        moved = rng.random(queries.shape) < 0.05
        queries[moved] = np.nextafter(queries[moved], -np.inf)
        k = ROWS - 1 if rng.random() < 0.25 else int(rng.integers(1, ROWS))
        for session in (fused, oracle):
            session.serve_k = k
        difference = _same(fused, oracle, queries)
        if difference is not None:
            wrong.append((case, difference))
        if _plan_bytes(fused._fused_plan) != _plan_bytes(
            build_fused_plan(fused)
        ):
            wrong.append((case, "plan"))
        if fused._fused_plan.dense is dont_care:
            wrong.append((case, "dense"))
    return wrong


# Scores near 1e300 overflow the float32 values a kernel returns.
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("metric", ["euclidean", "dot"])
def test_near_tie_stress_matches_unfused(scored, metric, seed):
    """50 near-tie cases per seed on a mutated store: bitwise the
    unfused walk every time, and every case pruned."""
    assert _stress(metric, 900 + seed, 50) == []
    assert len(scored) == 50 and "full" not in scored


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("metric", ["euclidean", "dot"])
def test_near_tie_stress_with_wta_window(scored, metric):
    """The same stress with a winner-take-all window clamping values."""
    tech = replace(FEFET_45NM, wta_window=2)
    assert _stress(metric, 950, 25, tech=tech) == []
    assert "full" not in scored


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("seed", range(2))
def test_near_tie_stress_with_dont_cares(scored, seed):
    """The Euclidean stress with a live don't-care row in every case:
    the bound over ``q²·VT`` rather than the dense row sum."""
    assert _stress("euclidean", 970 + seed, 50, dont_care=True) == []
    assert len(scored) == 50 and "full" not in scored
