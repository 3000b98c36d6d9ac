"""The cluster control plane: lifecycle, dispatch, autoscaling, reports.

Covers :class:`~repro.runtime.cluster.Cluster` — runtime
``admit``/``evict`` with defragmenting re-placement, the admission
contract (one single-machine kernel per tenant), the priority/deadline
intake (:class:`~repro.runtime.serving.PriorityIntake`), queue-depth
autoscaling and epoch-aware accounting
(:func:`~repro.simulator.metrics.combine_epoch_reports`), including
the batches an evicted tenant's lanes were serving.
"""

import threading
import time
from concurrent.futures import CancelledError
from dataclasses import replace

import numpy as np
import pytest

from repro.arch import ArchSpec, dse_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime import Cluster, ClusterShutdown
from repro.runtime import serving as serving_mod
from repro.runtime.backend import SessionError
from repro.runtime.placement import PlacementError
from repro.runtime.serving import PriorityIntake

#: A tiny machine: one bank of 64 rows at 32 features, so modest stores
#: exercise multi-machine placement (and auto-sharding) cheaply.
TINY = ArchSpec(rows=16, cols=32, subarrays_per_array=2, arrays_per_mat=2,
                mats_per_bank=1, banks=1)


def compile_dot(dot_kernel, stored, k=1, spec=None, **kw):
    spec = spec or replace(dse_spec(16), banks=2)
    return C4CAMCompiler(spec).compile(
        dot_kernel(stored, k=k), [placeholder((1, stored.shape[1]))], **kw
    )


@pytest.fixture()
def stores(rng):
    """Three distinct bipolar stores (distinct rows -> exact top-1)."""
    return [
        rng.choice([-1.0, 1.0], (rows, 64)).astype(np.float32)
        for rows in (8, 12, 10)
    ]


# --------------------------------------------------------------------------
# Admission and placement
# --------------------------------------------------------------------------
class TestAdmission:
    def test_admit_places_and_serves(self, dot_kernel, stores, rng):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        solo = {}
        for index, stored in enumerate(stores):
            kernel = compile_dot(dot_kernel, stored, k=2, spec=spec)
            queries = rng.standard_normal((3, 64)).astype(np.float32)
            solo[f"t{index}"] = (queries, kernel.run_batch(queries))
            assert cluster.admit(kernel, tenant_id=f"t{index}") == f"t{index}"
        assert cluster.tenant_ids == ["t0", "t1", "t2"]
        for tid, (queries, expected) in solo.items():
            values, indices = cluster.run_batch(queries, tenant=tid)
            np.testing.assert_array_equal(values, expected[0])
            np.testing.assert_array_equal(indices, expected[1])
        cluster.shutdown()

    def test_auto_ids_and_duplicates(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        tid = cluster.admit(compile_dot(dot_kernel, stores[0], spec=spec))
        assert tid == "tenant0"
        with pytest.raises(SessionError, match="duplicate"):
            cluster.admit(
                compile_dot(dot_kernel, stores[1], spec=spec),
                tenant_id="tenant0",
            )

    def test_bank_spans_never_overlap(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        for index, stored in enumerate(stores):
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=spec),
                tenant_id=f"t{index}",
            )
        _assert_no_overlap(cluster)

    def test_refused_admit_keeps_the_id_sequence(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        other = compile_dot(dot_kernel, stores[0],
                            spec=replace(dse_spec(32), banks=2))
        with pytest.raises(SessionError, match="ArchSpec"):
            cluster.admit(other)
        tid = cluster.admit(compile_dot(dot_kernel, stores[0], spec=spec))
        assert tid == "tenant0"

    def test_spec_mismatch_rejected(self, dot_kernel, stores):
        kernel = compile_dot(dot_kernel, stores[0],
                             spec=replace(dse_spec(16), banks=2))
        cluster = Cluster(replace(dse_spec(32), banks=2))
        with pytest.raises(SessionError, match="ArchSpec"):
            cluster.admit(kernel)

    def test_oversized_unsharded_tenant_names_fix(self, dot_kernel, rng):
        """A kernel too big for one machine auto-shards at compile time;
        admit refuses it with the tenant named and the single-machine
        fix, before anything is placed."""
        big = rng.choice([-1.0, 1.0], (100, 32)).astype(np.float32)
        kernel = compile_dot(dot_kernel, big, spec=TINY)
        assert kernel.num_shards > 1  # compile() auto-sharded it
        cluster = Cluster(TINY)
        with pytest.raises(SessionError, match="'big' is not placeable") as err:
            cluster.admit(kernel, tenant_id="big")
        assert "num_shards=1" in str(err.value)
        assert cluster.tenant_ids == [] and cluster.num_machines == 0

    def test_post_processing_kernel_refused(self):
        """Regression: admit checked only the program count, so a model
        that post-processes its similarity outputs was served its raw
        match-line values.  The cluster now refuses it, as compile_many
        does."""
        import repro.frontend.torch_api as torch

        rng = np.random.default_rng(0)
        stored = rng.choice([-1.0, 1.0], (6, 32)).astype(np.float32)
        query = rng.choice([-1.0, 1.0], (1, 32)).astype(np.float32)

        class PostProcessed(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, input):
                others = self.weight.transpose(-2, -1)
                matmul = torch.matmul(input, others)
                values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
                return torch.sub(values, values), indices

        spec = replace(dse_spec(16), banks=2)
        kernel = C4CAMCompiler(spec).compile(
            PostProcessed(), [placeholder((1, 32))]
        )
        values, _indices = kernel(query)
        np.testing.assert_array_equal(values, [[0.0]])
        cluster = Cluster(spec)
        with pytest.raises(SessionError, match="not placeable"):
            cluster.admit(kernel, tenant_id="post")
        assert cluster.tenant_ids == [] and cluster.num_machines == 0

    @pytest.mark.parametrize("lanes", [0, -2])
    def test_nonpositive_lanes_rejected(self, dot_kernel, stores, lanes):
        """Regression: ``lanes`` below 1 silently served one lane."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        with pytest.raises(ValueError, match="lanes must be >= 1"):
            cluster.admit(
                compile_dot(dot_kernel, stores[0], spec=spec), lanes=lanes
            )
        assert cluster.tenant_ids == [] and cluster.num_machines == 0

    def test_machine_cap_enforced(self, dot_kernel, rng):
        spec = TINY
        cluster = Cluster(spec, max_machines=1)
        a = rng.choice([-1.0, 1.0], (40, 32)).astype(np.float32)
        b = rng.choice([-1.0, 1.0], (40, 32)).astype(np.float32)
        cluster.admit(compile_dot(dot_kernel, a, spec=spec), tenant_id="a")
        with pytest.raises(PlacementError) as err:
            cluster.admit(
                compile_dot(dot_kernel, b, spec=spec), tenant_id="b"
            )
        assert err.value.tenant_id == "b"

    def test_admit_defragments_fragmented_fleet(self, dot_kernel, rng):
        """First-fit fails on a fragmented fleet but a re-pack holds
        everyone: admit defragments instead of refusing."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, max_machines=2)
        stores = {
            tid: rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
            for tid in ("a", "b", "c", "d")
        }
        for tid in ("a", "b", "c"):
            cluster.admit(
                compile_dot(dot_kernel, stores[tid], spec=spec),
                tenant_id=tid,
            )
        # Fleet: machine0 [a,b], machine1 [c].  Evict 'b' WITHOUT
        # defragmenting: machine0 keeps a dead bank.
        cluster.evict("b", defragment=False)
        # 'd' does not first-fit (m0 full with a+dead bank? m0 has 2
        # banks: a + dead -> 0 free; m1: c -> 1 free) — actually d fits
        # m1.  Fill m1 too, then admit one more to force the defrag.
        cluster.admit(
            compile_dot(dot_kernel, stores["d"], spec=spec), tenant_id="d"
        )
        # Now m0=[a, dead], m1=[c, d]: no free bank anywhere, but a
        # re-pack (a, c, d) needs only 3 banks of the 4.
        extra = rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32)
        queries = rng.standard_normal((2, 64)).astype(np.float32)
        before = cluster.run_batch(queries, tenant="a")
        cluster.admit(
            compile_dot(dot_kernel, extra, spec=spec), tenant_id="e"
        )
        assert cluster.defrag_count >= 1
        _assert_no_overlap(cluster)
        after = cluster.run_batch(queries, tenant="a")
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)


def _assert_no_overlap(cluster):
    """Placed tenants must occupy disjoint bank spans, machine by
    machine, and conserve the machines' allocated bank totals."""
    spans = cluster.bank_spans()
    by_machine = {}
    for tid, (machine, offset, banks) in spans.items():
        assert banks >= 1, f"tenant {tid} occupies no banks"
        by_machine.setdefault(machine, []).append((offset, offset + banks))
    for machine, intervals in by_machine.items():
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end <= start, f"bank overlap on machine {machine}"
    # Conservation: the per-tenant spans sum to the machines' fill.
    totals = {}
    for machine, intervals in by_machine.items():
        totals[machine] = sum(end - start for start, end in intervals)
    for machine, total in totals.items():
        assert cluster._shared_machines[machine].banks_used == total


# --------------------------------------------------------------------------
# Eviction and defragmentation
# --------------------------------------------------------------------------
class TestEviction:
    def test_evict_unknown_raises(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        cluster.admit(compile_dot(dot_kernel, stores[0], spec=spec))
        with pytest.raises(SessionError, match="no tenant"):
            cluster.evict("nobody")

    def test_evict_reclaims_banks(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        for index, stored in enumerate(stores):
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=spec),
                tenant_id=f"t{index}",
            )
        banks_before = sum(
            m.banks_used for m in cluster._shared_machines
        )
        evicted_banks = cluster.bank_spans()["t0"][2]
        cluster.evict("t0")
        assert "t0" not in cluster.tenant_ids
        banks_after = sum(m.banks_used for m in cluster._shared_machines)
        assert banks_after == banks_before - evicted_banks
        _assert_no_overlap(cluster)
        with pytest.raises(SessionError, match="no tenant"):
            cluster.run_batch(np.zeros(64), tenant="t0")

    def test_pending_futures_fail_with_cluster_shutdown(
            self, dot_kernel, stores, rng):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, max_batch=1, max_wait=0.0, time_scale=2e-6)
        for index, stored in enumerate(stores[:2]):
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=spec),
                tenant_id=f"t{index}",
            )
        queries = rng.standard_normal((30, 64)).astype(np.float32)
        futures = [cluster.submit(q, tenant="t0") for q in queries]
        cluster.evict("t0")
        outcomes = set()
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.add("served")
            except ClusterShutdown as exc:
                assert "t0" in str(exc) and "evicted" in str(exc)
                outcomes.add("evicted")
        assert "evicted" in outcomes  # the paced queue could not drain
        # The surviving tenant is unaffected.
        v, i = cluster.run_batch(queries[:2], tenant="t1")
        assert v.shape[0] == 2
        with pytest.raises(SessionError):
            cluster.submit(queries[0], tenant="t0")
        cluster.shutdown()

    def test_lifetime_report_keeps_evicted_traffic(self, dot_kernel,
                                                   stores, rng):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        for index, stored in enumerate(stores[:2]):
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=spec),
                tenant_id=f"t{index}",
            )
        q0 = rng.standard_normal((4, 64)).astype(np.float32)
        q1 = rng.standard_normal((3, 64)).astype(np.float32)
        cluster.run_batch(q0, tenant="t0")
        cluster.run_batch(q1, tenant="t1")
        cluster.evict("t0")
        cluster.run_batch(q1, tenant="t1")
        report = cluster.report()
        assert report.queries == 4 + 3 + 3  # evicted traffic still counted
        # The defrag re-programmed t1: two epochs of setup in the sum,
        # each charged exactly once.
        t1 = cluster.tenant_report("t1")
        assert t1.queries == 6
        assert t1.energy.write > 0

    def test_evicted_lane_batch_is_charged_or_refused(
            self, dot_kernel, stores, monkeypatch):
        """A batch that a lane took before its tenant's eviction either
        shows up in the lifetime report or fails with ClusterShutdown:
        no future resolves with rows the report does not count.  The
        lane is parked after it takes its batch, so the eviction lands
        between the take and the serve."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, max_batch=4, max_wait=0.0)
        took, release = threading.Event(), threading.Event()
        next_batch = PriorityIntake.next_batch

        def parked(intake, *args, **kwargs):
            item = next_batch(intake, *args, **kwargs)
            if item is not None and item[0][0].tenant == "a":
                took.set()
                release.wait(timeout=30)
            return item

        monkeypatch.setattr(PriorityIntake, "next_batch", parked)
        try:
            for tid, stored in zip(("a", "b"), stores):
                cluster.admit(
                    compile_dot(dot_kernel, stored, spec=spec), tenant_id=tid
                )
            futures = [cluster.submit(np.ones((4, 64)), tenant="a")]
            assert took.wait(timeout=30)
            futures.append(cluster.submit(np.ones(64), tenant="a"))
            cluster.evict("a")
            release.set()
            served = 0
            for future in futures:
                try:
                    served += future.result(timeout=30)[0].shape[0]
                except ClusterShutdown:
                    pass
            assert cluster.report().queries == served
        finally:
            release.set()
            cluster.shutdown()

    def test_zero_query_tenant_through_lifecycle(self, dot_kernel, stores):
        """A tenant admitted and evicted without ever serving a query
        flows through every combiner without dividing by zero."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        for index, stored in enumerate(stores[:2]):
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=spec),
                tenant_id=f"t{index}",
            )
        idle = cluster.tenant_report("t0")
        assert idle.queries == 0
        assert idle.throughput_qps == 0.0
        assert idle.per_query_latency_ns == 0.0
        assert idle.per_query_energy_pj == 0.0
        cluster.evict("t0")
        report = cluster.report()
        assert report.queries == 0
        assert report.throughput_qps == 0.0
        assert report.energy.write > 0  # programming cost still real


# --------------------------------------------------------------------------
# Priority / deadline dispatch
# --------------------------------------------------------------------------
class TestPriorityDispatch:
    def test_intake_orders_priority_then_deadline_then_fifo(self):
        intake = PriorityIntake()
        low = serving_mod._Request(np.zeros((1, 4)), tenant="t", priority=0)
        urgent = serving_mod._Request(np.zeros((1, 4)), tenant="t", priority=2)
        soon = serving_mod._Request(np.zeros((1, 4)), tenant="t", priority=1,
                        deadline=0.001)
        later = serving_mod._Request(np.zeros((1, 4)), tenant="t", priority=1,
                         deadline=10.0)
        for request in (low, later, soon, urgent):
            intake.put(request)
        order = []
        while intake.pending_rows() > 0:
            batch, _rows = intake.next_batch(max_batch=1, max_wait=0.0)
            order.extend(batch)
        assert order == [urgent, soon, later, low]

    def test_intake_coalesces_same_tenant_only(self):
        intake = PriorityIntake()
        a1 = serving_mod._Request(np.zeros((2, 4)), tenant="a", priority=1)
        b1 = serving_mod._Request(np.zeros((2, 4)), tenant="b", priority=1)
        a2 = serving_mod._Request(np.zeros((2, 4)), tenant="a", priority=0)
        for request in (a1, b1, a2):
            intake.put(request)
        batch, rows = intake.next_batch(max_batch=8, max_wait=0.0)
        assert batch == [a1, a2] and rows == 4  # b1 never mixes in
        batch, rows = intake.next_batch(max_batch=8, max_wait=0.0)
        assert batch == [b1] and rows == 2

    def test_intake_skips_oversized_keeps_queued(self):
        intake = PriorityIntake()
        first = serving_mod._Request(np.zeros((3, 4)), tenant="t", priority=1)
        huge = serving_mod._Request(np.zeros((6, 4)), tenant="t", priority=1)
        small = serving_mod._Request(np.zeros((1, 4)), tenant="t", priority=0)
        for request in (first, huge, small):
            intake.put(request)
        batch, rows = intake.next_batch(max_batch=4, max_wait=0.0)
        assert batch == [first, small] and rows == 4
        batch, rows = intake.next_batch(max_batch=8, max_wait=0.0)
        assert batch == [huge]

    def test_high_priority_overtakes_queued_low(self, dot_kernel, stores,
                                                rng):
        """Under a paced, saturated lane, a late high-priority request
        finishes before queued earlier low-priority ones."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, max_batch=1, max_wait=0.0, time_scale=1e-6)
        cluster.admit(
            compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="t"
        )
        queries = rng.standard_normal((12, 64)).astype(np.float32)
        done = []
        low = [cluster.submit(q, tenant="t", priority=0) for q in queries]
        for index, future in enumerate(low):
            future.add_done_callback(
                lambda _f, i=index: done.append(("low", i))
            )
        urgent = cluster.submit(
            queries[0], tenant="t", priority=5, deadline=0.001
        )
        urgent.add_done_callback(lambda _f: done.append(("high", 0)))
        urgent.result(timeout=30)
        for future in low:
            future.result(timeout=30)
        cluster.shutdown()
        position = done.index(("high", 0))
        assert position < len(done) - 1, (
            "the high-priority request finished last despite the queue"
        )

    def test_deadline_validation(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        cluster.admit(
            compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="t"
        )
        for deadline in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="deadline"):
                cluster.submit(np.zeros(64), tenant="t", deadline=deadline)
        cluster.shutdown()


# --------------------------------------------------------------------------
# Autoscaling
# --------------------------------------------------------------------------
class TestAutoscaler:
    def test_scale_up_then_down_on_queue_depth(self, dot_kernel, stores,
                                               rng):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(
            spec, max_batch=4, max_wait=0.0, time_scale=2e-7,
            autoscale_max_lanes=3, autoscale_backlog_rows=8,
        )
        cluster.admit(
            compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="t"
        )
        assert cluster.tenant_lanes("t") == 1
        queries = rng.standard_normal((120, 64)).astype(np.float32)
        futures = [cluster.submit(q, tenant="t") for q in queries]
        for future in futures:
            future.result(timeout=60)
        # The scaled lane attaches from a worker thread (it programs a
        # fresh machine), so the event can land after the queue drains.
        deadline = time.monotonic() + 10
        events = []
        while "scale-up" not in events and time.monotonic() < deadline:
            events = [e["action"] for e in cluster.autoscale_events]
            time.sleep(0.01)
        assert "scale-up" in events, "queue pressure never scaled up"
        # Drain: completions with an empty queue shrink back to 1 lane.
        deadline = time.monotonic() + 10
        while cluster.tenant_lanes("t") > 1 and time.monotonic() < deadline:
            cluster.submit(queries[0], tenant="t").result(timeout=30)
        assert cluster.tenant_lanes("t") == 1
        # Scaled lanes' traffic stays in the tenant's accounting.
        assert cluster.tenant_report("t").queries >= len(queries)
        cluster.shutdown()

    def test_autoscale_results_stay_bitwise(self, dot_kernel, stores, rng):
        spec = replace(dse_spec(16), banks=2)
        kernel = compile_dot(dot_kernel, stores[1], k=2, spec=spec)
        queries = rng.standard_normal((60, 64)).astype(np.float32)
        expected = kernel.run_batch(queries)
        cluster = Cluster(
            spec, max_batch=2, max_wait=0.0, time_scale=2e-7,
            autoscale_max_lanes=4, autoscale_backlog_rows=4,
        )
        cluster.admit(
            compile_dot(dot_kernel, stores[1], k=2, spec=spec),
            tenant_id="t",
        )
        futures = [cluster.submit(q, tenant="t") for q in queries]
        values = np.vstack([f.result(timeout=60)[0] for f in futures])
        indices = np.vstack([f.result(timeout=60)[1] for f in futures])
        np.testing.assert_array_equal(values, expected[0])
        np.testing.assert_array_equal(indices, expected[1])
        cluster.shutdown()

    def test_scaled_lane_adopts_mutation_landing_mid_clone(
            self, dot_kernel, stores, rng):
        """A mutation racing a scale-up reaches the scaled lane.  The
        clone copies the primary's store under the primary lane's lock,
        so a mutation cannot land halfway through it, and the new lane
        adopts the tenant's latest store when it attaches, so one that
        returned between the clone and the attach is not lost."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, autoscale_max_lanes=2)
        cloned, release = threading.Event(), threading.Event()
        try:
            cluster.admit(
                compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="t"
            )
            primary = cluster._tenants["t"].lanes[0].backend
            clone = primary.clone

            def paused_clone(*args, **kwargs):
                replica = clone(*args, **kwargs)
                cloned.set()
                release.wait(timeout=30)
                return replica

            primary.clone = paused_clone
            scaler = threading.Thread(target=cluster._scale_up, args=("t",))
            scaler.start()
            assert cloned.wait(timeout=30)
            rows = rng.choice([-1.0, 1.0], (2, 64)).astype(np.float32)
            inserter = threading.Thread(
                target=cluster.insert, args=(rows, "t")
            )
            inserter.start()
            # Without the primary lane's lock the insert returns here,
            # before the paused clone does.
            inserter.join(timeout=0.5)
            release.set()
            scaler.join(timeout=30)
            inserter.join(timeout=30)
            assert not scaler.is_alive() and not inserter.is_alive()
            lanes = [lane.backend for lane in cluster._tenants["t"].lanes]
            assert [lane.pattern_count for lane in lanes] == [10, 10]
            queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
            want = lanes[0].run_batch(queries)
            got = lanes[1].run_batch(queries)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        finally:
            release.set()
            cluster.shutdown()

    def test_admit_with_initial_lanes(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, autoscale_max_lanes=4)
        cluster.admit(
            compile_dot(dot_kernel, stores[0], spec=spec),
            tenant_id="t", lanes=2,
        )
        assert cluster.tenant_lanes("t") == 2


# --------------------------------------------------------------------------
# The serving trace
# --------------------------------------------------------------------------
class TestServingTrace:
    SPEC = replace(dse_spec(16), banks=2)

    def _stores(self, rng):
        return {
            f"t{i}": rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
            for i in range(4)
        }

    def _admit_all(self, cluster, dot_kernel, stores):
        for tid, stored in stores.items():
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=self.SPEC),
                tenant_id=tid,
            )

    def test_trace_summary_delegates_to_engine(self, dot_kernel, rng):
        stores = self._stores(rng)
        with Cluster(self.SPEC, max_batch=4, max_wait=0.001) as cluster:
            self._admit_all(cluster, dot_kernel, stores)
            queries = rng.standard_normal((6, 64)).astype(np.float32)
            futures = [cluster.submit(q, tenant="t0") for q in queries]
            for future in futures:
                future.result(timeout=30)
            summary = cluster.trace_summary()
            assert summary["requests"] >= 6
            assert "total" in summary["phases"]
            mine = cluster.trace_summary(tenant="t0")
            assert mine["requests"] >= 6
            assert cluster.trace_summary(tenant="ghost")["requests"] == 0


# --------------------------------------------------------------------------
# Lifecycle: shutdown, context manager, reports
# --------------------------------------------------------------------------
class TestLifecycle:
    def test_shutdown_abort_delivers_cluster_shutdown(self, dot_kernel,
                                                      stores, rng):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec, max_batch=1, max_wait=0.0, time_scale=2e-6)
        cluster.admit(
            compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="t"
        )
        queries = rng.standard_normal((30, 64)).astype(np.float32)
        futures = [cluster.submit(q, tenant="t") for q in queries]
        cluster.shutdown(abort=True)
        outcomes = set()
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.add("served")
            except ClusterShutdown:
                outcomes.add("aborted")
            except CancelledError:
                outcomes.add("cancelled")
        assert "aborted" in outcomes
        assert "cancelled" not in outcomes  # the typed error, not cancel
        with pytest.raises(SessionError, match="shut down"):
            cluster.submit(queries[0], tenant="t")
        with pytest.raises(SessionError, match="shut down"):
            cluster.admit(
                compile_dot(dot_kernel, stores[1], spec=spec)
            )

    def test_closed_cluster_refuses_batches(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        with Cluster(spec) as cluster:
            cluster.admit(
                compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="t"
            )
            cluster.run_batch(stores[0][:2], tenant="t")
            assert not cluster.closed
        assert cluster.closed
        with pytest.raises(SessionError, match="shut down"):
            cluster.run_batch(stores[0][:2], tenant="t")

    def test_context_manager_drains(self, dot_kernel, stores, rng):
        spec = replace(dse_spec(16), banks=2)
        queries = rng.standard_normal((5, 64)).astype(np.float32)
        with Cluster(spec) as cluster:
            cluster.admit(
                compile_dot(dot_kernel, stores[0], spec=spec),
                tenant_id="t",
            )
            futures = [cluster.submit(q, tenant="t") for q in queries]
        for future in futures:
            assert future.done() and not future.cancelled()

    def test_protocol_surface(self, dot_kernel, stores):
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        cluster.admit(
            compile_dot(dot_kernel, stores[0], spec=spec), tenant_id="a"
        )
        cluster.admit(
            compile_dot(dot_kernel, stores[1], spec=spec), tenant_id="b"
        )
        assert cluster.banks_used == 2
        assert cluster.num_machines == 1
        with pytest.raises(SessionError, match="several tenants"):
            cluster.run_batch(np.zeros(64))
        setup = cluster.setup_report()
        assert setup.queries == 0 and setup.energy.write > 0

    def test_fresh_setup_report_matches_report(self, dot_kernel, stores):
        """Regression: setup_report() merged every lane concurrently, so
        two tenants sharing a machine read half the programming latency
        report() charges (the machine programs them one at a time)."""
        spec = replace(dse_spec(16), banks=2)
        cluster = Cluster(spec)
        for tid, stored in zip(("a", "b", "c"), stores):
            cluster.admit(
                compile_dot(dot_kernel, stored, spec=spec), tenant_id=tid,
                lanes=2 if tid == "c" else 1,
            )
        spans = cluster.bank_spans()
        assert spans["a"][0] == spans["b"][0] != spans["c"][0]
        setup, report = cluster.setup_report(), cluster.report()
        for field in (
            "setup_latency_ns", "rows_written", "banks_used", "mats_used",
            "arrays_used", "subarrays_used",
        ):
            assert getattr(setup, field) == getattr(report, field), field
        assert setup.energy.write == report.energy.write
        shared = sum(
            cluster.tenant_report(tid).setup_latency_ns for tid in ("a", "b")
        )
        assert setup.setup_latency_ns == shared

