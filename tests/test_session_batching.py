"""Batched query sessions and the single-query-path fixes they exposed.

Covers the QuerySession subsystem (program-once / query-many, batched
vectorized execution, amortized reporting) plus regression tests for:

* exact-match false positives on similarity metrics;
* correlated device noise across repeated kernel calls;
* latched-score placement with holes in the valid-row mask;
* zero-query executions reporting a phantom query.
"""

import numpy as np
import pytest

from repro.arch import dse_spec, paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.session import SessionError
from repro.simulator import CamMachine, SubarrayState
from repro.simulator.cells import perfect_score
from repro.simulator.peripherals import best_match, best_match_batch, exact_match


def compile_dot(dot_kernel, stored, shape, k=1, largest=True, **kw):
    return C4CAMCompiler(kw.pop("spec", paper_spec())).compile(
        dot_kernel(stored, k=k, largest=largest), [placeholder(shape)], **kw
    )


# --------------------------------------------------------------------------
# Batch vs sequential functional equivalence
# --------------------------------------------------------------------------
class TestBatchEquivalence:
    @pytest.mark.parametrize("target", [
        "latency", "power", "density", "power+density",
    ])
    def test_dot_matches_sequential(self, dot_kernel, rng, target):
        """run_batch(Q) is bitwise == stacking run(q) for q in Q (HDC)."""
        stored = rng.choice([-1.0, 1.0], (10, 512)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (6, 512)).astype(np.float32)
        spec = dse_spec(32, target)
        batched = compile_dot(dot_kernel, stored, (1, 512), k=3, spec=spec)
        legacy = compile_dot(
            dot_kernel, stored, (1, 512), k=3, spec=spec,
            cache_session=False,
        )
        bv, bi = batched.run_batch(queries)
        sv, si = zip(*(legacy(q[None, :]) for q in queries))
        np.testing.assert_array_equal(bi, np.vstack(si))
        np.testing.assert_array_equal(bv, np.vstack(sv))

    def test_euclidean_knn_matches_sequential(self, euclidean_kernel, rng):
        """The 1-D-traced KNN kernel accepts query matrices via the
        session and matches per-query execution."""
        stored = rng.standard_normal((48, 64)).astype(np.float32)
        queries = rng.standard_normal((5, 64)).astype(np.float32)
        spec = paper_spec(rows=16, cols=32, cam_type="acam")
        kernel = C4CAMCompiler(spec).compile(
            euclidean_kernel(stored, k=5), [placeholder((64,))]
        )
        legacy = C4CAMCompiler(spec).compile(
            euclidean_kernel(stored, k=5), [placeholder((64,))],
            cache_session=False,
        )
        bv, bi = kernel.run_batch(queries)
        for row, q in enumerate(queries):
            v, i = legacy(q)
            np.testing.assert_array_equal(bi[row], i.reshape(-1))
            np.testing.assert_array_equal(bv[row], v.reshape(-1))

    def test_multi_row_tiles_and_partial_last_tile(self, dot_kernel, rng):
        """Vertical partitioning with a ragged last row tile stays
        correct under batching."""
        stored = rng.choice([-1.0, 1.0], (42, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
        spec = paper_spec(rows=16, cols=32)
        kernel = compile_dot(dot_kernel, stored, (1, 64), k=4, spec=spec)
        _v, idx = kernel.run_batch(queries)
        expected = np.argsort(
            -(queries.astype(np.float64) @ stored.T.astype(np.float64)),
            axis=1, kind="stable",
        )[:, :4]
        np.testing.assert_array_equal(idx, expected)

    def test_call_delegates_to_session(self, dot_kernel, rng):
        """__call__ streams through the cached session: the machine is
        programmed once and survives across calls."""
        stored = rng.choice([-1.0, 1.0], (8, 128)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (3, 128)).astype(np.float32)
        kernel = compile_dot(dot_kernel, stored, (3, 128))
        kernel(queries)
        first_machine = kernel.last_machine
        kernel(queries)
        assert kernel.last_machine is first_machine
        # Arbitrary batch sizes are accepted (not only the traced 3).
        _v, idx = kernel(queries[:2])
        assert idx.shape == (2, 1)

    def test_reset_reprograms(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (8, 128)).astype(np.float32)
        kernel = compile_dot(dot_kernel, stored, (1, 128))
        kernel(stored[:1])
        first_machine = kernel.last_machine
        kernel.reset()
        kernel(stored[:1])
        assert kernel.last_machine is not first_machine

    def test_reordered_outputs_fall_back_to_interpreter(self, rng):
        """A model returning (indices, values) must not be rerouted
        through the session's canonical (values, indices) program."""
        import repro.frontend.torch_api as torch

        stored = rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32)

        class Reordered(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, x):
                others = self.weight.transpose(-2, -1)
                values, indices = torch.ops.aten.topk(
                    torch.matmul(x, others), 1, largest=True
                )
                return indices, values

        queries = rng.choice([-1.0, 1.0], (2, 64)).astype(np.float32)
        cached = C4CAMCompiler(paper_spec()).compile(
            Reordered(), [placeholder((2, 64))]
        )
        legacy = C4CAMCompiler(paper_spec()).compile(
            Reordered(), [placeholder((2, 64))], cache_session=False
        )
        ci, cv = cached(queries)
        li, lv = legacy(queries)
        np.testing.assert_array_equal(ci, li)
        np.testing.assert_array_equal(cv, lv)
        assert ci.dtype == np.int64
        with pytest.raises(SessionError, match="values, indices"):
            cached.run_batch(queries)

    def test_session_requires_lowered_kernel(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        host = C4CAMCompiler(paper_spec()).compile(
            dot_kernel(stored), [placeholder((1, 64))], lower_to_cam=False
        )
        with pytest.raises(SessionError):
            host.run_batch(stored[:2])


# --------------------------------------------------------------------------
# Amortized timing / energy semantics
# --------------------------------------------------------------------------
class TestBatchReports:
    def test_setup_charged_once(self, dot_kernel, rng):
        """A 64-query batch charges write energy once and its query
        clock is 64x the structural per-query latency."""
        stored = rng.choice([-1.0, 1.0], (10, 256)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (64, 256)).astype(np.float32)
        kernel = compile_dot(dot_kernel, stored, (1, 256))
        kernel.run_batch(queries[:1])
        rep1 = kernel.last_report
        kernel.run_batch(queries)
        rep64 = kernel.last_report
        assert rep64.queries == 64
        assert rep64.energy.write == rep1.energy.write
        assert rep64.setup_latency_ns == rep1.setup_latency_ns
        assert rep64.query_latency_ns == pytest.approx(
            64 * rep1.query_latency_ns
        )
        assert rep64.energy.search == pytest.approx(64 * rep1.energy.search)
        assert rep64.throughput_qps == pytest.approx(rep1.throughput_qps)

    def test_report_matches_legacy_per_call(self, dot_kernel, rng):
        """Session per-batch accounting equals the legacy fresh-machine
        report for the same queries."""
        stored = rng.choice([-1.0, 1.0], (10, 256)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (4, 256)).astype(np.float32)
        session_k = compile_dot(dot_kernel, stored, (4, 256))
        legacy_k = compile_dot(
            dot_kernel, stored, (4, 256), cache_session=False
        )
        session_k(queries)
        legacy_k(queries)
        srep, lrep = session_k.last_report, legacy_k.last_report
        assert srep.queries == lrep.queries == 4
        assert srep.query_latency_ns == pytest.approx(lrep.query_latency_ns)
        assert srep.setup_latency_ns == pytest.approx(lrep.setup_latency_ns)
        assert srep.energy.query_total == pytest.approx(
            lrep.energy.query_total
        )
        assert srep.searches == lrep.searches
        assert srep.subarrays_used == lrep.subarrays_used

    def test_throughput_qps_guard(self):
        from repro.simulator.metrics import ExecutionReport

        assert ExecutionReport().throughput_qps == 0.0
        rep = ExecutionReport(query_latency_ns=100.0, queries=10)
        assert rep.throughput_qps == pytest.approx(10 / 100e-9)


# --------------------------------------------------------------------------
# Satellite regressions
# --------------------------------------------------------------------------
class TestExactMatchRegression:
    def test_no_false_positive_on_best_row(self):
        """The best-scoring row is not an 'exact' match unless it
        reaches the metric's perfect score."""
        query = np.array([1.0, -1.0, 1.0, 1.0])
        stored = np.array([
            [1.0, -1.0, 1.0, -1.0],   # 1 mismatch: dot = 2
            [-1.0, 1.0, -1.0, -1.0],  # all mismatch: dot = -4
        ])
        scores = stored @ query
        perfect = perfect_score("dot", query)
        assert perfect == pytest.approx(4.0)
        matches = exact_match(scores, prefers_larger=True,
                              perfect_score=perfect)
        assert matches.tolist() == [False, False]

    def test_true_positive_still_matches(self):
        query = np.array([1.0, -1.0])
        stored = np.vstack([query, -query])
        scores = stored @ query
        matches = exact_match(scores, prefers_larger=True,
                              perfect_score=perfect_score("dot", query))
        assert matches.tolist() == [True, False]

    def test_over_perfect_score_is_not_exact(self):
        """A larger-magnitude stored row can out-score the query's
        self-similarity on unnormalized dot — still not an exact match."""
        query = np.array([1.0, 1.0])
        stored = np.array([[2.0, 2.0], [1.0, 1.0]])
        scores = stored @ query          # [4.0, 2.0], perfect = 2.0
        matches = exact_match(scores, prefers_larger=True,
                              perfect_score=perfect_score("dot", query))
        assert matches.tolist() == [False, True]

    def test_distance_semantics_unchanged(self):
        scores = np.array([0.0, 3.0])
        assert exact_match(scores, prefers_larger=False).tolist() == \
            [True, False]


class TestNoiseDecorrelation:
    def _kernel(self, dot_kernel, stored, sigma=4.0, seed=7, **kw):
        return C4CAMCompiler(paper_spec()).compile(
            dot_kernel(stored, k=1, largest=True),
            [placeholder((1, stored.shape[1]))],
            noise_sigma=sigma, noise_seed=seed, **kw,
        )

    def test_calls_see_fresh_noise(self, dot_kernel, rng):
        """Repeated Monte-Carlo trials draw independent realizations."""
        stored = rng.choice([-1.0, 1.0], (6, 128)).astype(np.float32)
        q = stored[:1]
        kernel = self._kernel(dot_kernel, stored)
        v1, _ = kernel(q)
        v2, _ = kernel(q)
        assert not np.array_equal(v1, v2)

    def test_legacy_path_also_decorrelates(self, dot_kernel, rng):
        stored = rng.choice([-1.0, 1.0], (6, 128)).astype(np.float32)
        kernel = self._kernel(dot_kernel, stored, cache_session=False)
        v1, _ = kernel(stored[:1])
        v2, _ = kernel(stored[:1])
        assert not np.array_equal(v1, v2)

    def test_explicit_seed_reproducible(self, dot_kernel, rng):
        """Same noise_seed -> same call-by-call realizations."""
        stored = rng.choice([-1.0, 1.0], (6, 128)).astype(np.float32)
        q = stored[:1]
        runs = []
        for _ in range(2):
            kernel = self._kernel(dot_kernel, stored, seed=11)
            runs.append([kernel(q)[0], kernel(q)[0]])
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])


class TestSparseValidRows:
    def test_latched_placement_with_hole(self):
        """Scores land at their physical rows: a hole in the valid mask
        must not shift later rows' scores upward."""
        sub = SubarrayState(rows=8, cols=4, subarray_id=0)
        sub.write(np.array([[1.0, 1.0, 1.0, 1.0],
                            [1.0, 1.0, -1.0, -1.0]]), row_offset=0)
        sub.write(np.array([[-1.0, -1.0, -1.0, -1.0]]), row_offset=5)
        query = np.array([-1.0, -1.0, -1.0, -1.0])
        sub.search(query, "hamming", row_begin=0, row_count=8)
        values, indices = sub.read(8)
        # Row 5 holds the query itself: distance 0 at physical row 5.
        assert values[5] == 0.0
        assert values[0] == 4.0 and values[1] == 2.0
        # Unwritten rows cannot report a (spurious) best match.
        assert np.isinf(values[2]) and np.isinf(values[3])
        best = int(np.argmin(values))
        assert best == 5
        assert indices[best] == 5

    def test_machine_read_maps_to_stored_pattern(self):
        machine = CamMachine(paper_spec(rows=8, cols=4))
        sub = machine.alloc_subarray(
            machine.alloc_array(machine.alloc_mat(machine.alloc_bank()))
        )
        machine.write_value(sub, np.ones((2, 4)), row_offset=0)
        machine.write_value(sub, -np.ones((2, 4)), row_offset=4)
        machine.search(sub, -np.ones(4), metric="hamming")
        values, indices, _d = machine.read(sub, 6)
        assert values[4] == 0.0 and values[5] == 0.0
        assert int(np.argmin(values)) in (4, 5)

    def test_accumulate_slots_unchanged(self):
        """Stacked (density) accumulation still uses compact slots."""
        sub = SubarrayState(rows=8, cols=4, subarray_id=0)
        sub.write(np.ones((2, 4)), row_offset=0)
        sub.write(np.ones((2, 4)) * -1.0, row_offset=2)
        sub.search(np.ones(4), "hamming", row_begin=0, row_count=2,
                   accumulate=True)
        sub.search(np.ones(4), "hamming", row_begin=2, row_count=2,
                   accumulate=True)
        values, _ = sub.read(2)
        assert values.tolist() == [4.0, 4.0]


class TestZeroQueryReports:
    def test_setup_only_walk_reports_zero_queries(self):
        from repro.dialects import cam as cam_d
        from repro.dialects import func as func_d
        from repro.dialects import memref as memref_d
        from repro.dialects import arith as arith_d
        from repro.ir.builder import OpBuilder
        from repro.ir.module import ModuleOp
        from repro.ir.types import FunctionType, MemRefType, f32
        from repro.runtime.executor import Interpreter

        module = ModuleOp()
        fn = func_d.FuncOp("forward", FunctionType([], []))
        module.append(fn)
        fb = OpBuilder.at_end(fn.body)
        bank = fb.create(cam_d.AllocBankOp,
                         fb.create(arith_d.ConstantOp, 32).result,
                         fb.create(arith_d.ConstantOp, 32).result)
        arr = fb.create(cam_d.AllocArrayOp,
                        fb.create(cam_d.AllocMatOp, bank.result).result)
        sub = fb.create(cam_d.AllocSubarrayOp, arr.result)
        buf = fb.create(memref_d.AllocOp, MemRefType([4, 32], f32))
        fb.create(cam_d.WriteValueOp, sub.result, buf.result)
        fb.create(func_d.ReturnOp, [])
        machine = CamMachine(paper_spec())
        _out, report = Interpreter(module, machine).run_function(
            "forward", []
        )
        assert report.queries == 0
        assert report.per_query_latency_ns == 0.0
        assert report.per_query_energy_pj == 0.0
        assert report.throughput_qps == 0.0


class TestBatchedExecutorHandlers:
    @staticmethod
    def _batched_module(n_queries):
        """A hand-built cam-IR program whose buffers carry a query-batch
        axis: cam.search takes the whole B×C query block, cam.read
        returns a B×rows latch bank, cam.merge_partial, cam.sync and
        cam.select_topk operate per query — one interpreter walk answers
        the full batch."""
        from repro.dialects import arith as arith_d
        from repro.dialects import cam as cam_d
        from repro.dialects import func as func_d
        from repro.dialects import memref as memref_d
        from repro.ir.builder import OpBuilder
        from repro.ir.module import ModuleOp
        from repro.ir.types import (
            FunctionType, MemRefType, TensorType, f32, i64,
        )

        B = n_queries
        m = ModuleOp()
        fn = func_d.FuncOp("main", FunctionType(
            [TensorType([4, 16], f32), TensorType([B, 16], f32)],
            [TensorType([B, 2], f32), TensorType([B, 2], i64)],
        ))
        m.append(fn)
        b = OpBuilder.at_end(fn.body)
        stored_arg, query_arg = fn.body.arguments
        c32 = b.create(arith_d.ConstantOp, 32).result
        bank = b.create(cam_d.AllocBankOp, c32, c32).result
        arr = b.create(cam_d.AllocArrayOp,
                       b.create(cam_d.AllocMatOp, bank).result).result
        sub = b.create(cam_d.AllocSubarrayOp, arr).result
        stored_buf = b.create(memref_d.ToMemrefOp, stored_arg).result
        query_buf = b.create(memref_d.ToMemrefOp, query_arg).result
        b.create(cam_d.WriteValueOp, sub, stored_buf)
        b.create(cam_d.QueryStartOp)
        b.create(cam_d.SearchOp, sub, query_buf,
                 search_type="best", metric="hamming",
                 row_count=4)
        scores = b.create(memref_d.AllocOp, MemRefType([B, 4], f32)).result
        b.create(memref_d.FillOp, scores, 0.0)
        read = b.create(cam_d.ReadOp, sub, 4, f32)
        b.create(cam_d.MergePartialOp, scores, read.results[0],
                 direction="horizontal", row_offset=0)
        b.create(cam_d.SyncOp, "array", rows=4)
        vbuf = b.create(memref_d.AllocOp, MemRefType([B, 2], f32)).result
        ibuf = b.create(memref_d.AllocOp, MemRefType([B, 2], i64)).result
        b.create(cam_d.SelectTopkOp, scores, 2, False, vbuf, ibuf)
        values = b.create(memref_d.ToTensorOp, vbuf,
                          TensorType([B, 2], f32)).result
        indices = b.create(memref_d.ToTensorOp, ibuf,
                           TensorType([B, 2], i64)).result
        b.create(func_d.ReturnOp, [values, indices])
        return m

    def test_batched_cam_ir_walk(self, rng):
        from repro.runtime.executor import Interpreter

        patterns = rng.choice([0.0, 1.0], (4, 16))
        queries = rng.choice([0.0, 1.0], (3, 16))
        machine = CamMachine(paper_spec())
        out, report = Interpreter(
            self._batched_module(3), machine
        ).run_function("main", [patterns, queries])
        dist = (patterns[None, :, :] != queries[:, None, :]).sum(axis=-1)
        expected_idx = np.argsort(dist, axis=1, kind="stable")[:, :2]
        np.testing.assert_array_equal(out[1], expected_idx)
        np.testing.assert_array_equal(
            out[0], np.take_along_axis(dist.astype(np.float64),
                                       expected_idx, axis=1)
        )
        # One streamed batch: 3 queries through one search phase, and
        # the report counts the batch rows, not the query_start ops.
        assert report.searches == 3
        assert report.queries == 3
        assert report.per_query_latency_ns == pytest.approx(
            report.query_latency_ns / 3
        )

    def test_batched_walk_scales_like_single(self, rng):
        """Every device hop of the batched walk (search, read, merge,
        sync, top-k) streams B queries; only the front-end setup
        (cam.query_start) is paid once per batch — the amortization."""
        from repro.runtime.executor import Interpreter

        patterns = rng.choice([0.0, 1.0], (4, 16))
        queries = rng.choice([0.0, 1.0], (3, 16))
        reports = {}
        machine = None
        for n in (1, 3):
            machine = CamMachine(paper_spec())
            _out, reports[n] = Interpreter(
                self._batched_module(n), machine
            ).run_function("main", [patterns, queries[:n]])
        frontend = machine.frontend_latency()
        device_time = reports[1].query_latency_ns - frontend
        assert reports[3].query_latency_ns == pytest.approx(
            3 * device_time + frontend
        )
        # Dynamic energy is per streamed query (query_start costs no
        # energy); standby scales with the (shorter) batch makespan.
        for component in ("search", "read", "merge", "host"):
            assert getattr(reports[3].energy, component) == pytest.approx(
                3 * getattr(reports[1].energy, component)
            )


class TestBatchChunking:
    def test_chunked_scores_bitwise_equal(self, rng):
        """A batch spanning several scoring blocks (a ragged last one
        included, for every metric) equals per-row scoring bitwise."""
        from repro.simulator.cells import BLOCK_ELEMENTS, compute_scores

        stored = rng.standard_normal((8, 16))
        # Hamming's one-byte flags fit 8x the float terms per block, so
        # this spans 2 Hamming blocks and 9 Euclidean/dot blocks.
        n_queries = 8 * BLOCK_ELEMENTS // stored.size + 44
        queries = rng.standard_normal((n_queries, 16))
        for metric in ("hamming", "euclidean", "dot"):
            got = compute_scores(metric, stored, queries)
            assert got.shape == (n_queries, 8)
            rows = np.vstack([
                compute_scores(metric, stored, q) for q in queries
            ])
            np.testing.assert_array_equal(
                got.view(np.uint64), rows.view(np.uint64)
            )

    def test_large_batch_session(self, dot_kernel, rng):
        """A serving-scale batch (> 256 queries) runs end to end."""
        stored = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
        queries = rng.choice([-1.0, 1.0], (266, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, stored, (1, 64))
        _v, idx = kernel.run_batch(queries)
        expected = (
            queries.astype(np.float64) @ stored.T.astype(np.float64)
        ).argmax(axis=1)
        np.testing.assert_array_equal(idx.ravel(), expected)
        assert kernel.last_report.queries == 266


class TestBatchedPeripherals:
    def test_best_match_batch_rowwise_identical(self, rng):
        scores = rng.integers(-8, 8, (16, 40)).astype(np.float64)
        for wta in (0, 3):
            for largest in (True, False):
                bi, bv = best_match_batch(
                    scores, 5, prefers_larger=largest, wta_window=wta
                )
                for row in range(scores.shape[0]):
                    si, sv = best_match(
                        scores[row], 5, prefers_larger=largest,
                        wta_window=wta,
                    )
                    np.testing.assert_array_equal(bi[row], si)
                    np.testing.assert_array_equal(bv[row], sv)


class TestBatchedApps:
    def test_knn_classify_cam(self, rng):
        from repro.apps import build_knn, synthetic_pneumonia

        dataset = synthetic_pneumonia(n_train=56, n_test=6)
        knn = build_knn(dataset, k=3, feature_multiple=64, row_multiple=64)
        model, example = knn.kernel()
        kernel = C4CAMCompiler(
            paper_spec(rows=32, cols=32, cam_type="acam")
        ).compile(model, example)
        from repro.apps.datasets import pad_features

        queries = pad_features(dataset.test_x, 64)
        predicted = knn.classify_cam(kernel, queries)
        expected = knn.classify_reference(queries)
        np.testing.assert_array_equal(predicted, expected)

    def test_hdc_classify_cam(self, rng):
        from repro.apps import synthetic_mnist, train_hdc

        dataset = synthetic_mnist(n_train=64, n_test=8)
        model = train_hdc(dataset, dimensions=1024, bits=1)
        kernel_model, example = model.kernel(n_queries=1)
        kernel = C4CAMCompiler(paper_spec()).compile(kernel_model, example)
        predicted = model.classify_cam(kernel, dataset.test_x)
        expected = model.classify_reference(
            model.encode_queries(dataset.test_x)
        )
        np.testing.assert_array_equal(predicted, expected)

    def test_matcher_lookup_batch(self, rng):
        from repro.apps.matching import PatternMatcher

        patterns = rng.choice([0.0, 1.0], (9, 32))
        matcher = PatternMatcher(patterns, paper_spec(rows=16, cols=32))
        queries = np.vstack([patterns[4], 1.0 - patterns[4], patterns[7]])
        batch = matcher.lookup_batch(queries, threshold=0.0)
        assert len(batch) == 3
        singles = [
            PatternMatcher(patterns, paper_spec(rows=16, cols=32)).lookup(q)
            for q in queries
        ]
        for got, want in zip(batch, singles):
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.distances, want.distances)
        assert matcher.report().queries == 3
