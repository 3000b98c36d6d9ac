"""The replicated async serving layer: replicas, engine, concurrency.

Covers :class:`~repro.runtime.serving.ReplicatedSession` (cloning
without recompiling, least-loaded routing, concurrent lane reports) and
:class:`~repro.runtime.serving.ServingEngine` (micro-batch coalescing,
per-request futures, error delivery, clean shutdown) — including a
multi-producer soak test asserting that no result is ever cross-wired
between interleaved requests.
"""

import sys
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import replace

import numpy as np
import pytest

from repro.arch import dse_spec, paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime import Cluster
from repro.runtime.backend import ClusterShutdown
from repro.runtime.executor import Interpreter
from repro.runtime.serving import ReplicatedSession, ServingEngine
from repro.runtime.session import SessionError
from repro.runtime.sharding import ShardedSession
from repro.simulator.metrics import (
    EnergyBreakdown,
    ExecutionReport,
    combine_epoch_reports,
    combine_serial_reports,
    merge_concurrent_reports,
)


def compile_dot(dot_kernel, stored, shape, k=1, **kw):
    return C4CAMCompiler(kw.pop("spec", paper_spec())).compile(
        dot_kernel(stored, k=k), [placeholder(shape)], **kw
    )


@pytest.fixture()
def bipolar_store(rng):
    """Distinct bipolar rows: query == row i finds top-1 index i."""
    return rng.choice([-1.0, 1.0], (32, 64)).astype(np.float32)


# --------------------------------------------------------------------------
# ReplicatedSession: cloning, routing, honest concurrent reports
# --------------------------------------------------------------------------
class TestReplicatedSession:
    def test_clone_shares_compiled_artifacts(self, dot_kernel, bipolar_store):
        kernel = compile_dot(
            dot_kernel, bipolar_store, (1, 64), spec=dse_spec(16),
            num_replicas=3,
        )
        session = kernel.session()
        assert isinstance(session, ReplicatedSession)
        assert session.num_replicas == 3
        base, *clones = session.replicas
        for clone in clones:
            # Same lowered module and query program — nothing recompiled.
            assert clone.module is base.module
            assert clone.program is base.program
            # But an independently programmed machine.
            assert clone.machine is not base.machine
            assert clone.machine.energy.write == base.machine.energy.write

    def test_sharded_clone_shares_shard_set(self, dot_kernel, bipolar_store):
        kernel = compile_dot(
            dot_kernel, bipolar_store, (1, 64), spec=dse_spec(16),
            num_shards=2, num_replicas=2,
        )
        session = kernel.session()
        assert isinstance(session, ReplicatedSession)
        base, clone = session.replicas
        assert isinstance(base, ShardedSession)
        assert clone.shard_set is base.shard_set
        assert len(session.machines) == 4  # 2 replicas x 2 shards

    def test_results_match_unreplicated(self, dot_kernel, bipolar_store, rng):
        queries = rng.choice([-1.0, 1.0], (7, 64)).astype(np.float32)
        plain = compile_dot(dot_kernel, bipolar_store, (1, 64), k=3,
                            spec=dse_spec(16))
        replicated = compile_dot(dot_kernel, bipolar_store, (1, 64), k=3,
                                 spec=dse_spec(16), num_replicas=2)
        pv, pi = plain.run_batch(queries)
        for _ in range(3):  # every routed replica answers identically
            rv, ri = replicated.run_batch(queries)
            np.testing.assert_array_equal(pv, rv)
            np.testing.assert_array_equal(pi, ri)

    def test_least_loaded_routing_balances(self, dot_kernel, bipolar_store,
                                           rng):
        queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=3)
        session = kernel.session()
        for _ in range(6):
            session.run_batch(queries)
        lanes = session.lane_reports()
        assert [lane.queries for lane in lanes] == [8, 8, 8]

    def test_report_scales_with_replicas(self, dot_kernel, bipolar_store,
                                         rng):
        queries = rng.choice([-1.0, 1.0], (5, 64)).astype(np.float32)
        plain = compile_dot(dot_kernel, bipolar_store, (1, 64),
                            spec=dse_spec(16))
        plain.run_batch(queries)
        single = plain.last_report

        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=2)
        session = kernel.session()
        for _ in range(4):  # 2 batches per lane
            session.run_batch(queries)
        report = session.report()
        # Lanes ran concurrently: wall time is one lane (2 batches), but
        # all 20 queries count -> throughput reflects the concurrency.
        assert report.queries == 20
        assert report.query_latency_ns == pytest.approx(
            2 * single.query_latency_ns
        )
        assert report.throughput_qps == pytest.approx(
            2 * single.throughput_qps
        )
        # Energy and silicon scale with R: 2 machines, 2x write energy.
        assert report.energy.write == pytest.approx(2 * single.energy.write)
        assert report.banks_used == 2 * single.banks_used
        assert session.chip_area_mm2() == pytest.approx(
            2 * session.replicas[0].machine.chip_area_mm2()
        )
        # Setup programs in parallel across replicas.
        assert report.setup_latency_ns == pytest.approx(
            single.setup_latency_ns
        )

    def test_reset_clears_lanes(self, dot_kernel, bipolar_store, rng):
        queries = rng.choice([-1.0, 1.0], (3, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=2)
        session = kernel.session()
        session.run_batch(queries)
        session.reset()
        assert session.report().queries == 0
        assert session.batches_run == 0
        # Patterns survive: serving still works without re-programming.
        writes = [m.energy.write for m in session.machines]
        session.run_batch(queries)
        assert [m.energy.write for m in session.machines] == writes

    def test_invalid_replication_rejected(self, dot_kernel, bipolar_store):
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        with pytest.raises(SessionError, match="replica"):
            ReplicatedSession(kernel.session(), 0)
        with pytest.raises(SessionError, match="clone"):
            ReplicatedSession(object(), 2)
        with pytest.raises(ValueError, match="num_replicas"):
            compile_dot(dot_kernel, bipolar_store, (1, 64),
                        spec=dse_spec(16), num_replicas=0)
        with pytest.raises(ValueError, match="lower_to_cam"):
            compile_dot(dot_kernel, bipolar_store, (1, 64),
                        spec=dse_spec(16), num_replicas=2,
                        lower_to_cam=False)

    def test_no_clone_path_walks_the_module(self, dot_kernel, bipolar_store,
                                            rng, monkeypatch):
        """A replica replays its source's recorded programming: the
        interpreter walks a module once, for the session first
        programmed from it, and never inside a clone."""
        walks = []
        run_function = Interpreter.run_function

        def counted(interpreter, *args, **kwargs):
            walks.append(interpreter.module)
            return run_function(interpreter, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run_function", counted)

        def rows(n):
            return rng.choice([-1.0, 1.0], (n, 64)).astype(np.float32)

        def clone_walks(source):
            walks.clear()
            replica = source.clone()
            assert replica.pattern_count == source.pattern_count
            return len(walks)

        spec = dse_spec(16)
        private = compile_dot(dot_kernel, bipolar_store, (1, 64),
                              spec=spec).session()
        assert clone_walks(private) == 0

        cluster = Cluster(spec)
        try:
            for tid, n in (("a", 8), ("b", 12)):
                cluster.admit(compile_dot(dot_kernel, rows(n), (1, 64),
                                          spec=spec), tenant_id=tid)
            colocated = cluster._tenants["b"].lanes[0].backend
            assert colocated.subarray_base > 0
            assert clone_walks(colocated) == 0
            walks.clear()
            cluster._scale_up("b")
            assert not walks and cluster.tenant_lanes("b") == 2
        finally:
            cluster.shutdown()

        while private.growth_groups == 0:
            private.insert(rows(4))
        private.delete(private.row_ids()[:5])
        assert clone_walks(private) == 0

        sharded = compile_dot(
            dot_kernel, bipolar_store, (1, 64),
            spec=replace(spec, banks=1), num_shards=2,
        ).session()
        while sharded.num_shards == 2:
            sharded.insert(rows(1))
        assert clone_walks(sharded) == 0

        walks.clear()
        compile_dot(dot_kernel, bipolar_store, (1, 64), spec=spec,
                    num_replicas=3).session()
        assert len(walks) == 1


# --------------------------------------------------------------------------
# ServingEngine: coalescing, futures, shutdown
# --------------------------------------------------------------------------
class TestServingEngine:
    def test_single_query_futures_match_run_batch(self, dot_kernel,
                                                  bipolar_store, rng):
        queries = rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64), k=2,
                             spec=dse_spec(16), num_replicas=2)
        direct_v, direct_i = kernel.run_batch(queries)
        with kernel.serve(max_batch=4, max_wait=0.001) as engine:
            futures = [engine.submit(q) for q in queries]
            for row, future in enumerate(futures):
                values, indices = future.result(timeout=30)
                assert values.shape == (1, 2) and indices.shape == (1, 2)
                np.testing.assert_array_equal(values[0], direct_v[row])
                np.testing.assert_array_equal(indices[0], direct_i[row])

    def test_batch_requests_and_map(self, dot_kernel, bipolar_store, rng):
        queries = rng.choice([-1.0, 1.0], (9, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64), k=1,
                             spec=dse_spec(16))
        direct_v, direct_i = kernel.run_batch(queries)
        with kernel.serve(max_batch=4) as engine:
            chunk = engine.submit(queries[:3])         # one 3-row request
            singles = engine.map(queries[3:])          # six 1-row requests
            cv, ci = chunk.result(timeout=30)
            np.testing.assert_array_equal(cv, direct_v[:3])
            np.testing.assert_array_equal(ci, direct_i[:3])
            for offset, future in enumerate(singles, start=3):
                _v, indices = future.result(timeout=30)
                np.testing.assert_array_equal(indices[0], direct_i[offset])

    def test_micro_batches_respect_max_batch(self, dot_kernel, bipolar_store,
                                             rng):
        queries = rng.choice([-1.0, 1.0], (10, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        engine = kernel.serve(max_batch=4, max_wait=0.05)
        futures = [engine.submit(q) for q in queries]
        for future in futures:
            future.result(timeout=30)
        engine.shutdown()
        stats = engine.stats()
        assert stats["requests_submitted"] == 10
        # 10 single-row requests coalesce into ceil(10/4)..10 batches
        # (timing-dependent), never fewer than the cap allows.
        assert 3 <= stats["batches_dispatched"] <= 10
        assert sum(stats["rows_dispatched"]) == 10
        assert engine.pending_rows() == 0

    def test_max_wait_flushes_partial_batches(self, dot_kernel,
                                              bipolar_store):
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        # max_batch is far larger than the workload: only the max_wait
        # timer can close the batch.
        with kernel.serve(max_batch=1024, max_wait=0.01) as engine:
            future = engine.submit(bipolar_store[5])
            _values, indices = future.result(timeout=30)
            assert indices[0, 0] == 5

    def test_mismatched_width_rejected_at_submit(self, dot_kernel,
                                                 bipolar_store):
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        with kernel.serve() as engine:
            with pytest.raises(ValueError, match="width"):
                engine.submit(np.ones(32))
            with pytest.raises(ValueError, match="1-D"):
                engine.submit(np.ones((0, 64)))

    @pytest.mark.parametrize("option, value", [
        ("max_batch", 0), ("max_batch", -1), ("max_batch", float("nan")),
        ("max_wait", -1.0), ("max_wait", float("nan")),
    ])
    def test_invalid_batching_bound_rejected(self, option, value):
        """A NaN passes a ``<`` check: with ``max_wait`` NaN a lane
        never closes its batch, and a NaN ``max_batch`` lifts the cap."""
        class Echo:
            def run_batch(self, queries):
                return queries

        with pytest.raises(ValueError, match=option):
            ServingEngine([Echo()], **{option: value})

    def test_backend_failure_delivered_to_futures(self):
        class Exploding:
            def run_batch(self, queries):
                raise RuntimeError("device on fire")

        with ServingEngine([Exploding()], max_batch=2) as engine:
            future = engine.submit(np.ones(8))
            with pytest.raises(RuntimeError, match="on fire"):
                future.result(timeout=30)
            # The lane survives a failed batch: later requests still fail
            # loudly rather than hanging.
            again = engine.submit(np.ones(8))
            with pytest.raises(RuntimeError, match="on fire"):
                again.result(timeout=30)

    def test_unsplittable_result_delivered_not_stranded(self):
        """A result the splitter cannot slice must fail the batch's
        futures (with the advice to pass split=), not kill the worker
        and strand every later future on that lane."""
        class DictResult:
            def run_batch(self, queries):
                return {"values": queries}  # _default_split can't slice

        with ServingEngine([DictResult()], max_batch=2) as engine:
            first = engine.submit(np.ones(4))
            with pytest.raises(TypeError, match="split"):
                first.result(timeout=30)
            # The lane survived: the next request is served (and fails
            # the same way), not left pending forever.
            second = engine.submit(np.ones(4))
            with pytest.raises(TypeError, match="split"):
                second.result(timeout=30)

    def test_shutdown_drains_in_flight(self, dot_kernel, bipolar_store, rng):
        queries = rng.choice([-1.0, 1.0], (20, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=2)
        direct_v, direct_i = kernel.run_batch(queries)
        engine = kernel.serve(max_batch=3, max_wait=0.001)
        futures = [engine.submit(q) for q in queries]
        engine.shutdown(wait=True)  # must resolve everything first
        for row, future in enumerate(futures):
            assert future.done() and not future.cancelled()
            _v, indices = future.result(timeout=0)
            np.testing.assert_array_equal(indices[0], direct_i[row])
        with pytest.raises(SessionError, match="shut down"):
            engine.submit(queries[0])
        engine.shutdown()  # idempotent

    def test_shutdown_abort_true_delivers_cluster_shutdown(
            self, dot_kernel, bipolar_store):
        """shutdown(abort=True): still-pending futures raise the typed
        ClusterShutdown (a control-plane decision), not a bare cancel —
        so clients can tell an eviction/teardown from a lost request."""
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        engine = kernel.serve(max_batch=1, max_wait=0.0, time_scale=1e-3)
        futures = [engine.submit(q) for q in bipolar_store[:6]]
        engine.shutdown(abort=True)
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.append("served")
            except ClusterShutdown as exc:
                assert "shut down" in str(exc)
                outcomes.append("aborted")
            except CancelledError:  # pragma: no cover - the old behaviour
                outcomes.append("cancelled")
        assert "aborted" in outcomes
        assert "cancelled" not in outcomes
        served = outcomes.count("served")
        assert outcomes == ["served"] * served + \
            ["aborted"] * (6 - served)

    def test_abort_cancels_pending(self, dot_kernel, bipolar_store):
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        # Pace each micro-batch to a tens-of-ms simulated hold so queued
        # requests are still pending when the abort lands.
        engine = kernel.serve(max_batch=1, max_wait=0.0, time_scale=1e-3)
        futures = [engine.submit(q) for q in bipolar_store[:6]]
        engine.shutdown(wait=False)
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.append("served")
            except CancelledError:
                outcomes.append("cancelled")
        assert "cancelled" in outcomes
        # Served requests were served correctly, in FIFO prefix order.
        served = outcomes.count("served")
        assert outcomes == ["served"] * served + \
            ["cancelled"] * (6 - served)


# --------------------------------------------------------------------------
# Scheduling contract: lanes pull from one priority intake (no wall clock)
# --------------------------------------------------------------------------
class _GatedBackend:
    """Blocks inside ``run_batch`` until ``gate`` opens and records the
    request ids it served (each query row is filled with its id).
    ``entered`` is released once per batch that reaches the backend, so
    a test can wait for busy lanes without sleeping."""

    def __init__(self, gate, entered, served):
        self.gate, self.entered, self.served = gate, entered, served

    def run_batch(self, queries):
        self.served.extend(int(row[0]) for row in queries)
        self.entered.release()
        self.gate.wait()
        return np.array(queries, copy=True)


def _query(request_id):
    return np.full(4, float(request_id))


class TestSchedulingContract:
    """A lane holds at most one micro-batch; everything not being
    served stays in the one priority/EDF intake; a retired lane
    finishes its batch and takes no other."""

    def test_busy_lanes_leave_the_backlog_queued(self):
        gate, entered, served = threading.Event(), threading.Semaphore(0), []
        engine = ServingEngine(
            [_GatedBackend(gate, entered, served) for _ in range(2)],
            max_batch=1, max_wait=0.0,
        )
        try:
            futures = [engine.submit(_query(i)) for i in range(10)]
            for _ in range(2):
                assert entered.acquire(timeout=30), "a lane never started"
            # Each lane holds its one batch; the other 8 rows stay in
            # the intake, where priority and EDF still order them.
            assert engine.pending_rows() == 8
        finally:
            gate.set()
            engine.shutdown()
        for request_id, future in enumerate(futures):
            assert future.result(timeout=0)[0, 0] == request_id
        assert sorted(served) == list(range(10))

    def test_urgent_requests_overtake_the_backlog(self):
        gate, entered, served = threading.Event(), threading.Semaphore(0), []
        engine = ServingEngine(
            [_GatedBackend(gate, entered, served)], max_batch=1, max_wait=0.0
        )
        try:
            low = [engine.submit(_query(i)) for i in range(6)]
            assert entered.acquire(timeout=30)  # the lane serves low 0
            high = [
                engine.submit(_query(100 + i), priority=5) for i in range(3)
            ]
        finally:
            gate.set()
            engine.shutdown()
        for future in low + high:
            future.result(timeout=0)
        assert served == [0, 100, 101, 102, 1, 2, 3, 4, 5]

    def test_retired_lane_finishes_its_batch_and_takes_no_other(self):
        gate, entered = threading.Event(), threading.Semaphore(0)
        first_served, second_served = [], []
        engine = ServingEngine(
            [_GatedBackend(gate, entered, first_served)],
            max_batch=1, max_wait=0.0,
        )
        try:
            futures = [engine.submit(_query(0))]
            assert entered.acquire(timeout=30)  # the lane serves 0
            futures += [engine.submit(_query(i)) for i in (1, 2, 3)]
            (retired,) = engine.lanes()
            engine.remove_lane(retired)
            engine.add_lane(_GatedBackend(gate, entered, second_served))
        finally:
            gate.set()
            engine.shutdown()
        for request_id, future in enumerate(futures):
            assert future.result(timeout=0)[0, 0] == request_id
        assert first_served == [0]
        assert second_served == [1, 2, 3]
        assert not retired.thread.is_alive()


# --------------------------------------------------------------------------
# Request tracing and the zero-copy batch path
# --------------------------------------------------------------------------
class _CapturingBackend:
    """Records exactly the array object each micro-batch handed over."""

    def __init__(self):
        self.batches = []

    def run_batch(self, queries):
        self.batches.append(queries)
        return np.array(np.atleast_2d(queries), copy=True)


class TestTracingAndZeroCopy:
    def test_trace_summary_phases(self, dot_kernel, bipolar_store, rng):
        queries = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16))
        with kernel.serve(max_batch=4, max_wait=0.001) as engine:
            for future in [engine.submit(q) for q in queries]:
                future.result(timeout=30)
            summary = engine.trace_summary()
        assert summary["requests"] == 8
        assert set(summary["phases"]) == {
            "queue", "coalesce", "run", "merge", "total"
        }
        for stats in summary["phases"].values():
            assert 0.0 <= stats["p50"] <= stats["p99"]
            assert stats["mean"] >= 0.0
        # total covers the inner phases for any single request.
        assert summary["phases"]["total"]["p99"] >= (
            summary["phases"]["run"]["p50"]
        )

    def test_single_request_batch_is_zero_copy(self):
        backend = _CapturingBackend()
        batch = np.arange(32.0).reshape(4, 8)
        with ServingEngine([backend], max_batch=8) as engine:
            result = engine.submit(batch).result(timeout=30)
            np.testing.assert_array_equal(result, batch)
            stats = engine.stats()
        assert len(backend.batches) == 1
        assert np.shares_memory(backend.batches[0], batch)
        assert stats["zero_copy_batches"] == 1
        assert stats["batches_dispatched"] == 1

    def test_row_aligned_map_coalesces_without_copy(self):
        """map() rows are consecutive views of one buffer; the lane
        must stitch them back into a view of that buffer —
        and the view must carry every row, not the first row repeated
        (regression: a (1, N) row view is C-contiguous with a zero
        leading stride, which naive stride extension replicates)."""
        backend = _CapturingBackend()
        batch = np.arange(48.0).reshape(6, 8)  # float64: map() won't copy
        with ServingEngine([backend], max_batch=6, max_wait=0.5) as engine:
            futures = engine.map(batch)
            for row, future in enumerate(futures):
                values = future.result(timeout=30)
                np.testing.assert_array_equal(values[0], batch[row])
            stats = engine.stats()
        assert stats["batches_dispatched"] == 1
        (seen,) = backend.batches
        np.testing.assert_array_equal(seen, batch)
        assert np.shares_memory(seen, batch)
        assert stats["zero_copy_batches"] == 1

    def test_scattered_requests_pay_the_copy(self):
        """Requests from unrelated buffers cannot alias — the engine
        concatenates and the zero-copy counter stays put."""
        backend = _CapturingBackend()
        rows = [np.full(8, float(i)) for i in range(4)]  # separate buffers
        with ServingEngine([backend], max_batch=4, max_wait=0.5) as engine:
            futures = [engine.submit(row) for row in rows]
            for row, future in zip(rows, futures):
                values = future.result(timeout=30)
                np.testing.assert_array_equal(values[0], row)
            stats = engine.stats()
        assert stats["batches_dispatched"] == 1
        assert stats["zero_copy_batches"] == 0
        for row in rows:
            assert not np.shares_memory(backend.batches[0], row)


# --------------------------------------------------------------------------
# Concurrency soak: interleaved producers, zero cross-wiring
# --------------------------------------------------------------------------
class TestConcurrencySoak:
    N_PRODUCERS = 6
    PER_PRODUCER = 25

    def test_interleaved_producers_never_cross_wire(self, dot_kernel,
                                                    bipolar_store):
        """Each query is a stored row; its future must resolve to that
        row's index no matter how requests interleave, coalesce, or
        which replica serves them."""
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=3)
        engine = kernel.serve(max_batch=4, max_wait=0.0005)
        results = [None] * self.N_PRODUCERS
        start = threading.Barrier(self.N_PRODUCERS)

        def producer(worker: int) -> None:
            prng = np.random.default_rng(1000 + worker)
            rows = prng.integers(0, len(bipolar_store), self.PER_PRODUCER)
            start.wait()
            handles = []
            for row in rows:
                handles.append((row, engine.submit(bipolar_store[row])))
                if row % 3 == 0:
                    time.sleep(0)  # encourage interleaving
            # Resolve in a worker-specific order: future resolution must
            # not depend on result() call order.
            if worker % 2:
                handles = handles[::-1]
            results[worker] = [
                (row, future.result(timeout=60)) for row, future in handles
            ]

        threads = [
            threading.Thread(target=producer, args=(i,))
            for i in range(self.N_PRODUCERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "producer deadlocked"
        engine.shutdown()

        total = 0
        for produced in results:
            assert produced is not None
            for row, (values, indices) in produced:
                assert indices.shape == (1, 1)
                assert indices[0, 0] == row, "result cross-wired!"
                total += 1
        assert total == self.N_PRODUCERS * self.PER_PRODUCER
        stats = engine.stats()
        assert stats["requests_submitted"] == total
        assert sum(stats["rows_dispatched"]) == total
        # The deployment report saw every query exactly once.
        assert engine.report().queries == total

    def test_pinned_lanes_take_each_request_once(self):
        """Six tenant-pinned lanes pull from the one intake while four
        producers submit, with a shortened switch interval: every
        request is served exactly once, by a lane of its own tenant."""
        tenants, per_producer, producers = ("a", "b", "c"), 40, 4
        served = []

        class Recording:
            def __init__(self, tenant):
                self.tenant = tenant

            def run_batch(self, queries):
                served.extend((self.tenant, int(row[0])) for row in queries)
                return np.array(queries, copy=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            engine = ServingEngine(None, max_batch=3, max_wait=0.0005)
            for tenant in tenants:
                engine.register_tenant(tenant, 4)
                for _ in range(2):
                    engine.add_lane(Recording(tenant), tenant=tenant)
            futures = []

            def producer(worker: int) -> None:
                for n in range(per_producer):
                    request_id = worker * per_producer + n
                    futures.append((request_id, engine.submit(
                        _query(request_id),
                        tenant=tenants[request_id % len(tenants)],
                    )))

            threads = [
                threading.Thread(target=producer, args=(i,))
                for i in range(producers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "producer deadlocked"
            for request_id, future in futures:
                assert future.result(timeout=60)[0, 0] == request_id
            engine.shutdown()
        finally:
            sys.setswitchinterval(interval)
        expected = [
            (tenants[i % len(tenants)], i)
            for i in range(producers * per_producer)
        ]
        assert sorted(served) == sorted(expected)

    def test_shutdown_races_with_producers(self, dot_kernel, bipolar_store):
        """shutdown(wait=True) concurrent with the last submissions:
        every accepted request resolves, every refused one raises."""
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=2)
        engine = kernel.serve(max_batch=2, max_wait=0.0005)
        accepted, refused = [], []

        def producer() -> None:
            for row in range(40):
                try:
                    accepted.append(
                        (row % 32, engine.submit(bipolar_store[row % 32]))
                    )
                except SessionError:
                    refused.append(row)
                time.sleep(0.0002)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.003)
        engine.shutdown(wait=True)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert accepted, "shutdown raced ahead of every submission"
        for row, future in accepted:
            assert future.done() and not future.cancelled()
            _v, indices = future.result(timeout=0)
            assert indices[0, 0] == row


# --------------------------------------------------------------------------
# Mutations interleaved with live serving
# --------------------------------------------------------------------------
class TestMutateDuringServe:
    """``ServingEngine.mutate`` against concurrent producers: mutations
    apply under the per-lane serve locks, so every request sees a whole
    store (old or new, never torn), and the barrier (the call
    returning) guarantees later requests see the mutated store."""

    N_PRODUCERS = 4
    PER_PRODUCER = 15
    PROTECTED = 24  # rows the mutator never deletes

    def _engine(self, dot_kernel, bipolar_store):
        kernel = compile_dot(dot_kernel, bipolar_store, (1, 64),
                             spec=dse_spec(16), num_replicas=2)
        return kernel.serve(max_batch=4, max_wait=0.0005)

    def test_producers_race_mutator_without_cross_wiring(
        self, dot_kernel, bipolar_store, rng
    ):
        """Producers query rows the mutator never touches while it
        churns inserts/deletes.  A self-query of a ±1 row scores the
        unique best value 0.0 (zero mismatching cells) regardless of
        what else is in the store — any torn write, cross-wired future,
        or half-applied replica shows up as a different top value."""
        engine = self._engine(dot_kernel, bipolar_store)
        errors = []
        start = threading.Barrier(self.N_PRODUCERS + 1)
        stop = threading.Event()

        def producer(worker: int) -> None:
            prng = np.random.default_rng(500 + worker)
            start.wait()
            try:
                for _ in range(self.PER_PRODUCER):
                    row = int(prng.integers(0, self.PROTECTED))
                    values, _indices = engine.submit(
                        bipolar_store[row]
                    ).result(timeout=60)
                    assert values.shape == (1, 1)
                    assert values[0, 0] == 0.0, (
                        f"self-query of row {row} lost its best score"
                    )
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        def mutator() -> None:
            mrng = np.random.default_rng(77)
            start.wait()
            try:
                doomed = list(range(self.PROTECTED, 32))
                for _ in range(10):
                    results = engine.mutate(
                        lambda b, ids=tuple(doomed): b.delete(list(ids))
                    )
                    rows = mrng.choice([-1.0, 1.0], (2, 64)).astype(
                        np.float32
                    )
                    results = engine.mutate(
                        lambda b, r=rows: b.insert(r)
                    )
                    # Replica id spaces must stay identical.
                    assert all(r == results[0] for r in results)
                    doomed = results[0]
            except Exception as exc:
                errors.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=producer, args=(i,))
            for i in range(self.N_PRODUCERS)
        ] + [threading.Thread(target=mutator)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "serve/mutate deadlocked"
        assert not errors, errors
        engine.shutdown()

    def test_no_stale_reads_after_mutation_barrier(
        self, dot_kernel, bipolar_store, rng
    ):
        """Once ``mutate`` returns, every subsequent request must see
        the new store — a probe pattern inserted through the barrier is
        immediately its own best match on whichever replica serves."""
        engine = self._engine(dot_kernel, bipolar_store)
        probe = rng.choice([-1.0, 1.0], 64).astype(np.float32)
        values, _ = engine.submit(probe).result(timeout=60)
        assert values[0, 0] > 0.0, "probe accidentally equals a stored row"
        engine.mutate(lambda backend: backend.insert(probe))
        # Hit every replica: each request must see the inserted probe.
        for _ in range(8):
            values, _ = engine.submit(probe).result(timeout=60)
            assert values[0, 0] == 0.0, "stale read after mutation barrier"
        engine.shutdown()

    def test_shutdown_abort_with_mutations_pending(
        self, dot_kernel, bipolar_store, rng
    ):
        """shutdown(abort=True) while a mutator thread is mid-churn:
        everything terminates cleanly — pending futures resolve or
        raise the typed shutdown error, the mutator either completes or
        gets a clean SessionError, nothing deadlocks."""
        engine = self._engine(dot_kernel, bipolar_store)
        futures = [
            engine.submit(bipolar_store[i % 32]) for i in range(12)
        ]
        outcome = []

        def mutator() -> None:
            mrng = np.random.default_rng(11)
            try:
                for _ in range(50):
                    rows = mrng.choice([-1.0, 1.0], (1, 64)).astype(
                        np.float32
                    )
                    engine.mutate(lambda b, r=rows: b.insert(r))
                outcome.append("completed")
            except SessionError:
                outcome.append("refused")

        thread = threading.Thread(target=mutator)
        thread.start()
        time.sleep(0.002)
        engine.shutdown(abort=True)
        thread.join(timeout=60)
        assert not thread.is_alive(), "mutator deadlocked across shutdown"
        assert outcome in (["completed"], ["refused"])
        for future in futures:
            assert future.done()
            if not future.cancelled():
                try:
                    values, _ = future.result(timeout=0)
                except ClusterShutdown:
                    continue
                assert values.shape == (1, 1)
        engine.shutdown(abort=True)  # idempotent


# --------------------------------------------------------------------------
# Concurrent-report merging
# --------------------------------------------------------------------------
class TestMergeConcurrentReports:
    def test_requires_reports(self):
        with pytest.raises(ValueError):
            merge_concurrent_reports([])

    def test_latency_maxes_queries_sum(self):
        a = ExecutionReport(query_latency_ns=100.0, queries=10)
        b = ExecutionReport(query_latency_ns=60.0, queries=10)
        merged = merge_concurrent_reports([a, b])
        assert merged.query_latency_ns == 100.0
        assert merged.queries == 20
        assert merged.throughput_qps == pytest.approx(20 / 100e-9)

    def test_mismatched_specs_rejected(self):
        a = ExecutionReport(queries=1, spec=dse_spec(16))
        b = ExecutionReport(queries=1, spec=paper_spec(rows=64, cols=64))
        with pytest.raises(ValueError, match="ArchSpec"):
            merge_concurrent_reports([a, b])


class TestZeroQueryReports:
    """Zero-query tenant reports (admitted, never queried) must flow
    through every combiner without dividing by zero — the regression
    surface of the cluster's dynamic-membership accounting."""

    @staticmethod
    def _idle_lane():
        """An idle tenant lane: programming cost, silicon, no traffic."""
        return ExecutionReport(
            setup_latency_ns=120.0,
            energy=EnergyBreakdown(write=500.0),
            banks_used=1, mats_used=4, arrays_used=16, subarrays_used=32,
            queries=0,
        )

    @staticmethod
    def _busy_lane():
        return ExecutionReport(
            query_latency_ns=200.0,
            setup_latency_ns=80.0,
            energy=EnergyBreakdown(search=40.0, write=300.0),
            banks_used=1, mats_used=4, arrays_used=16, subarrays_used=32,
            searches=64, queries=10,
        )

    def test_idle_report_helpers_guarded(self):
        idle = self._idle_lane()
        assert idle.throughput_qps == 0.0
        assert idle.per_query_latency_ns == 0.0
        assert idle.per_query_energy_pj == 0.0
        assert idle.power_mw == 0.0
        assert idle.edp == 0.0

    def test_serial_combination_with_idle_tenant(self):
        combined = combine_serial_reports([self._busy_lane(),
                                           self._idle_lane()])
        assert combined.queries == 10
        assert combined.query_latency_ns == 200.0
        assert combined.throughput_qps == pytest.approx(10 / 200e-9)
        assert combined.energy.write == 800.0
        # The all-idle machine stays finite everywhere.
        idle_only = combine_serial_reports([self._idle_lane(),
                                            self._idle_lane()])
        assert idle_only.throughput_qps == 0.0
        assert idle_only.per_query_latency_ns == 0.0
        assert idle_only.power_mw == 0.0

    def test_concurrent_merge_with_idle_lane(self):
        merged = merge_concurrent_reports([self._busy_lane(),
                                           self._idle_lane()])
        assert merged.queries == 10
        assert merged.throughput_qps == pytest.approx(10 / 200e-9)
        idle_only = merge_concurrent_reports([self._idle_lane()])
        assert idle_only.throughput_qps == 0.0
        assert idle_only.per_query_energy_pj == 0.0

    def test_epoch_combination_with_zero_query_epoch(self):
        """An admit-then-evict epoch (zero queries) sums with a busy
        one: time and writes add, allocation takes the peak, and no
        per-query figure divides by zero."""
        combined = combine_epoch_reports([self._idle_lane(),
                                          self._busy_lane()])
        assert combined.queries == 10
        assert combined.query_latency_ns == 200.0
        assert combined.setup_latency_ns == 200.0  # both epochs program
        assert combined.energy.write == 800.0
        assert combined.banks_used == 1  # peak, not sum: same fabric
        assert combined.throughput_qps == pytest.approx(10 / 200e-9)
        idle_only = combine_epoch_reports([self._idle_lane()])
        assert idle_only.throughput_qps == 0.0
        with pytest.raises(ValueError):
            combine_epoch_reports([])

    def test_epoch_combination_rejects_mixed_specs(self):
        a = ExecutionReport(queries=1, spec=dse_spec(16))
        b = ExecutionReport(queries=1, spec=paper_spec(rows=64, cols=64))
        with pytest.raises(ValueError, match="ArchSpec"):
            combine_epoch_reports([a, b])
