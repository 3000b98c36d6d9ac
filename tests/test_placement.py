"""Multi-tenant bank placement: allocator, shared fleets, accounting.

Covers the placement planner (first-fit-decreasing packing, overflow
diagnostics), the ``compile_many`` cluster (planned spans, disjoint
fabric, bitwise isolation), per-tenant vs. fleet accounting, extra
lanes and async serving over a multi-tenant fleet, the ``TenantPool``
app and the CLI ``--tenants``/``--cluster`` demos.  The randomized
bitwise-isolation guarantee itself lives in ``test_differential.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import dse_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime import Cluster
from repro.runtime.placement import (
    PlacementError,
    TenantDemand,
    plan_placement,
    tenant_demand,
)
from repro.runtime.session import SessionError
from repro.transforms import CapacityError
from repro.transforms.partitioning import compute_partition_plan


def _demand(tenant_id, banks, spec):
    """A TenantDemand with an explicit bank count (plan is cosmetic)."""
    plan = compute_partition_plan(4, 16, 1, spec, use_density=False)
    return TenantDemand(tenant_id=tenant_id, plan=plan, banks=banks)


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


def _compile_tenants(compiler, stores, ks=None, **kwargs):
    ks = ks or [1] * len(stores)
    return compiler.compile_many(
        [_dot_model(s, k) for s, k in zip(stores, ks)],
        [[placeholder((1, s.shape[1]))] for s in stores],
        **kwargs,
    )


# ------------------------------------------------------------ the planner
class TestPlanPlacement:
    def test_first_fit_decreasing_packs_tightly(self):
        spec = replace(dse_spec(16), banks=4)
        demands = [
            _demand("small1", 1, spec),
            _demand("big", 3, spec),
            _demand("small2", 1, spec),
            _demand("medium", 2, spec),
        ]
        plan = plan_placement(demands, spec)
        # FFD: big(3)+small1(1) fill machine 0; medium(2)+small2(1) fit
        # machine 1 — two machines for 7 banks of demand.
        assert plan.num_machines == 2
        big = plan.for_tenant("big")
        assert (big.machine_index, big.bank_offset) == (0, 0)
        assert plan.for_tenant("small1").machine_index == 0
        assert plan.for_tenant("medium") == plan.machine_tenants(1)[0]
        # Programming order is ascending (machine, offset) and offsets
        # tile each machine without gaps.
        for index in range(plan.num_machines):
            cursor = 0
            for assignment in plan.machine_tenants(index):
                assert assignment.bank_offset == cursor
                cursor += assignment.banks
            assert cursor <= 4

    def test_equal_demands_keep_submission_order(self):
        spec = replace(dse_spec(16), banks=4)
        plan = plan_placement(
            [_demand(f"t{i}", 2, spec) for i in range(4)], spec
        )
        assert plan.tenant_ids == ["t0", "t1", "t2", "t3"]
        assert [a.machine_index for a in plan.assignments] == [0, 0, 1, 1]

    def test_unbounded_spec_is_one_machine(self):
        spec = dse_spec(16)  # banks=None
        plan = plan_placement(
            [_demand("a", 5, spec), _demand("b", 2, spec)], spec
        )
        assert plan.num_machines == 1
        assert plan.banks_per_machine is None
        assert plan.for_tenant("b").bank_offset == 5

    def test_fleet_grows_on_demand_without_cap(self):
        spec = replace(dse_spec(16), banks=2)
        plan = plan_placement(
            [_demand(f"t{i}", 2, spec) for i in range(5)], spec
        )
        assert plan.num_machines == 5

    def test_overpacking_capped_fleet_raises_with_breakdown(self):
        spec = replace(dse_spec(16), banks=2)
        demands = [_demand(f"t{i}", 2, spec) for i in range(3)]
        with pytest.raises(PlacementError) as err:
            plan_placement(demands, spec, max_machines=2)
        assert isinstance(err.value, CapacityError)
        assert err.value.tenant_id in {"t0", "t1", "t2"}
        message = str(err.value)
        assert "3 tenants demand 6 bank(s)" in message
        for demand in demands:
            assert repr(demand.tenant_id) in message

    def test_single_oversize_tenant_named(self):
        spec = replace(dse_spec(16), banks=2)
        with pytest.raises(PlacementError) as err:
            plan_placement(
                [_demand("ok", 1, spec), _demand("oversize", 3, spec)], spec
            )
        assert err.value.tenant_id == "oversize"
        assert "3 bank(s)" in str(err.value)

    def test_duplicate_ids_rejected(self):
        spec = replace(dse_spec(16), banks=2)
        with pytest.raises(ValueError, match="duplicate"):
            plan_placement(
                [_demand("x", 1, spec), _demand("x", 1, spec)], spec
            )

    def test_demand_matches_lowered_allocation(self):
        """The planner's bank math is the lowering's bank math."""
        spec = replace(dse_spec(16), banks=4)
        plan = compute_partition_plan(40, 128, 1, spec, use_density=False)
        demand = tenant_demand("t", plan, spec)
        assert demand.banks == spec.banks_needed(plan.subarrays)


# -------------------------------------------- cost-guided packing policy
def _hot_cold_cost_model(tenant_ids, hot):
    """A PlacementCost where ``hot`` tenants dominate the traffic."""
    from repro.runtime.costmodel import PlacementCost, TenantProfile, TrafficHint

    profiles = [
        TenantProfile(tenant_id=tid, per_query_latency_ns=100.0)
        for tid in tenant_ids
    ]
    hints = [
        TrafficHint(
            tid,
            rate_qps=50_000.0 if tid in hot else 10.0,
            batch_rows=4 if tid in hot else 1,
        )
        for tid in tenant_ids
    ]
    return PlacementCost(profiles, hints=hints)


class TestCostPolicy:
    """Handed a cost model, the packer packs for predicted latency,
    never for more machines than FFD, and falls back to FFD when it has
    nothing to optimize for — deterministically regardless of
    submission order."""

    SPEC = replace(dse_spec(16), banks=4)

    def _demands(self, order):
        return [_demand(tid, 2, self.SPEC) for tid in order]

    def test_cost_spreads_hot_tenants_at_equal_fleet(self):
        ids = ["hot1", "hot2", "cold1", "cold2"]
        model = _hot_cold_cost_model(ids, hot={"hot1", "hot2"})
        ffd = plan_placement(self._demands(ids), self.SPEC)
        cost = plan_placement(
            self._demands(ids), self.SPEC, cost_model=model
        )
        # Equal demands: FFD co-packs hot1+hot2 in submission order.
        assert (
            ffd.for_tenant("hot1").machine_index
            == ffd.for_tenant("hot2").machine_index
        )
        # The cost packer pays the same fleet but splits the hot pair.
        assert cost.num_machines == ffd.num_machines
        assert (
            cost.for_tenant("hot1").machine_index
            != cost.for_tenant("hot2").machine_index
        )
        assert model.score(cost).total < model.score(ffd).total

    @pytest.mark.parametrize("policy", ["ffd", "cost"])
    def test_submission_order_does_not_change_layout(self, policy):
        """Regression: packing used to leak dict/submission order for
        equal-bank demands; the layout must be a pure function of the
        demand set."""
        ids = ["hot1", "hot2", "cold1", "cold2"]
        model = _hot_cold_cost_model(ids, hot={"hot1", "hot2"})
        kwargs = {"cost_model": model} if policy == "cost" else {}
        baseline = plan_placement(self._demands(ids), self.SPEC, **kwargs)
        layout = {
            a.tenant_id: (a.machine_index, a.bank_offset, a.banks)
            for a in baseline.assignments
        }
        for order in (
            ["cold2", "hot2", "cold1", "hot1"],
            ["hot2", "cold1", "hot1", "cold2"],
            ["cold1", "cold2", "hot1", "hot2"],
        ):
            shuffled = plan_placement(
                self._demands(order), self.SPEC, **kwargs
            )
            assert {
                a.tenant_id: (a.machine_index, a.bank_offset, a.banks)
                for a in shuffled.assignments
            } == layout

    def test_cost_without_traffic_matches_ffd(self):
        """No rates -> nothing to optimize -> byte-identical FFD plan."""
        from repro.runtime.costmodel import PlacementCost, TenantProfile

        ids = ["a", "b", "c"]
        silent = PlacementCost([
            TenantProfile(tenant_id=tid, per_query_latency_ns=10.0)
            for tid in ids
        ])
        assert not silent.has_traffic
        ffd = plan_placement(self._demands(ids), self.SPEC)
        cost = plan_placement(
            self._demands(ids), self.SPEC, cost_model=silent
        )
        assert cost.assignments == ffd.assignments

    def test_cost_without_model_matches_ffd(self):
        """A model with traffic that profiles only part of the tenant
        set cannot price a packing: the plan is FFD's."""
        ids = ["hot1", "hot2", "cold1", "cold2"]
        hot = {"hot1", "hot2"}
        partial = _hot_cold_cost_model(["hot1", "hot2"], hot=hot)
        assert partial.has_traffic
        ffd = plan_placement(self._demands(ids), self.SPEC)
        cost = plan_placement(
            self._demands(ids), self.SPEC, cost_model=partial
        )
        assert cost.assignments == ffd.assignments
        # Profiling every tenant would have split the hot pair.
        full = plan_placement(
            self._demands(ids), self.SPEC,
            cost_model=_hot_cold_cost_model(ids, hot=hot),
        )
        assert full.assignments != ffd.assignments

    def test_cost_never_exceeds_ffd_fleet(self):
        """The cost packer optimizes *within* the FFD machine budget so
        equal-fleet comparisons stay honest."""
        ids = [f"t{i}" for i in range(6)]
        model = _hot_cold_cost_model(ids, hot={"t0", "t1", "t2"})
        for cap in (None, 3):
            ffd = plan_placement(
                self._demands(ids), self.SPEC, max_machines=cap,
            )
            cost = plan_placement(
                self._demands(ids), self.SPEC, max_machines=cap,
                cost_model=model,
            )
            assert cost.num_machines <= ffd.num_machines


# ------------------------------------------------- shared-machine tenants
def _tenant_session(cluster, tenant_id):
    """The session serving a placed tenant's primary lane."""
    return cluster._tenants[tenant_id].lanes[0].backend


class TestColocatedTenants:
    @pytest.fixture()
    def fleet(self, rng):
        spec = replace(dse_spec(16), banks=2)
        compiler = C4CAMCompiler(spec)
        stores = [
            rng.choice([-1.0, 1.0], (12, 64)).astype(np.float32),
            rng.choice([-1.0, 1.0], (8, 32)).astype(np.float32),
            rng.choice([-1.0, 1.0], (16, 128)).astype(np.float32),
        ]
        cluster = _compile_tenants(
            compiler, stores, ks=[2, 1, 3], tenant_ids=["a", "b", "c"]
        )
        yield compiler, stores, cluster
        cluster.shutdown()

    def test_tenants_occupy_disjoint_banks(self, fleet):
        _compiler, _stores, cluster = fleet
        sessions = [
            _tenant_session(cluster, tid) for tid in cluster.tenant_ids
        ]
        offsets = {}
        for tenant_session in sessions:
            base = tenant_session.subarray_base
            span = tenant_session.subarrays_used
            machine = tenant_session.machine
            key = id(machine)
            for lin in range(base, base + span):
                assert (key, lin) not in offsets
                offsets[(key, lin)] = True
        # Fleet-wide counts equal the sum over tenants.
        assert cluster.banks_used == sum(s.banks_used for s in sessions)
        assert cluster.defrag_count == 0

    def test_interleaved_batches_stay_isolated(self, fleet, rng):
        compiler, stores, cluster = fleet
        batches = {
            tid: rng.choice([-1.0, 1.0], (3, s.shape[1])).astype(np.float32)
            for tid, s in zip(["a", "b", "c"], stores)
        }
        solo = {}
        for tid, s, k in zip(["a", "b", "c"], stores, [2, 1, 3]):
            kernel_solo = compiler.compile(
                _dot_model(s, k), [placeholder((1, s.shape[1]))]
            )
            solo[tid] = tuple(kernel_solo.run_batch(batches[tid]))
        # Interleave tenants, twice around: later batches of one tenant
        # must be unaffected by the other tenants' traffic in between.
        for _round in range(2):
            for tid in ("a", "c", "b"):
                values, indices = cluster.run_batch(batches[tid], tenant=tid)
                np.testing.assert_array_equal(values, solo[tid][0])
                np.testing.assert_array_equal(indices, solo[tid][1])

    def test_per_tenant_report_matches_private_machine(self, fleet, rng):
        compiler, stores, cluster = fleet
        queries = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        cluster.run_batch(queries, tenant="a")
        solo = compiler.compile(
            _dot_model(stores[0], 2), [placeholder((1, 64))]
        )
        solo.run_batch(queries)
        colocated, private = cluster.last_report, solo.last_report
        assert colocated.banks_used == private.banks_used
        assert colocated.subarrays_used == private.subarrays_used
        assert colocated.query_latency_ns == private.query_latency_ns
        np.testing.assert_allclose(
            colocated.energy.total, private.energy.total, rtol=1e-12
        )

    def test_power_target_standby_scoped_to_tenant_occupancy(self, rng):
        """On power targets the standby duty derives from per-array
        occupancy; a colocated tenant must be charged by *its own*
        occupancy, not a denser co-tenant's (regression: the duty used
        to be machine-global)."""
        spec = replace(
            dse_spec(16).with_target("power"), banks=4
        )
        compiler = C4CAMCompiler(spec)
        small = rng.choice([-1.0, 1.0], (8, 32)).astype(np.float32)
        large = rng.choice([-1.0, 1.0], (200, 32)).astype(np.float32)
        cluster = _compile_tenants(
            compiler, [small, large], tenant_ids=["small", "large"]
        )
        queries = rng.choice([-1.0, 1.0], (3, 32)).astype(np.float32)
        cluster.run_batch(queries, tenant="small")
        colocated = cluster.last_report
        solo = compiler.compile(_dot_model(small), [placeholder((1, 32))])
        solo.run_batch(queries)
        np.testing.assert_allclose(
            colocated.energy.standby,
            solo.last_report.energy.standby,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            colocated.energy.total, solo.last_report.energy.total,
            rtol=1e-12,
        )

    def test_unknown_tenant_rejected(self, fleet):
        _compiler, _stores, cluster = fleet
        with pytest.raises(SessionError, match="no tenant 'zz'"):
            cluster.run_batch(np.zeros((1, 64)), tenant="zz")

    def test_fleet_latency_is_busiest_machine(self, fleet, rng):
        _compiler, stores, cluster = fleet
        for tid, s in zip(["a", "b", "c"], stores):
            cluster.run_batch(
                rng.choice([-1.0, 1.0], (2, s.shape[1])).astype(np.float32),
                tenant=tid,
            )
        # A machine's latency is its tenants' latencies summed (the
        # fabric serves one batch at a time); the fleet's is the
        # busiest machine's.
        per_machine = {}
        for tid, (machine, _offset, _banks) in cluster.bank_spans().items():
            per_machine[machine] = (
                per_machine.get(machine, 0.0)
                + cluster.tenant_report(tid).query_latency_ns
            )
        assert len(per_machine) == 2
        assert cluster.report().query_latency_ns == max(per_machine.values())


# ------------------------------------------------------ lanes over a fleet
class TestReplicatedMultiTenant:
    def test_replicated_fleet_results_and_accounting(self, rng):
        spec = replace(dse_spec(16), banks=4)
        compiler = C4CAMCompiler(spec)
        stores = [
            rng.choice([-1.0, 1.0], (10, 64)).astype(np.float32),
            rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32),
        ]
        cluster = _compile_tenants(
            compiler, stores, tenant_ids=["x", "y"], num_replicas=2
        )
        solo = compiler.compile(_dot_model(stores[0]), [placeholder((1, 64))])
        queries = rng.choice([-1.0, 1.0], (3, 64)).astype(np.float32)
        expected = solo.run_batch(queries)
        assert cluster.tenant_lanes("x") == cluster.tenant_lanes("y") == 2
        for _ in range(3):  # synchronous batches: the primary lane
            got = cluster.run_batch(queries, tenant="x")
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
        # Silicon doubles with the lane count (every tenant's second
        # lane is a private clone of its banks), and tenant reports
        # span both of its lanes.
        shared_banks = sum(
            banks for _m, _o, banks in cluster.bank_spans().values()
        )
        assert cluster.report().banks_used == 2 * shared_banks
        assert cluster.tenant_report("x").queries == 9
        with cluster:  # the async path routes across both lanes
            futures = [cluster.submit(q, tenant="x") for q in queries]
            for row, future in enumerate(futures):
                values, indices = future.result(timeout=30)
                np.testing.assert_array_equal(values[0], expected[0][row])
                np.testing.assert_array_equal(indices[0], expected[1][row])

    def test_engine_never_mixes_tenants_in_a_micro_batch(self, rng):
        spec = replace(dse_spec(16), banks=4)
        compiler = C4CAMCompiler(spec)
        stores = [
            rng.choice([-1.0, 1.0], (9, 64)).astype(np.float32),
            rng.choice([-1.0, 1.0], (5, 64)).astype(np.float32),
        ]
        refs = {
            tid: compiler.compile(
                _dot_model(s), [placeholder((1, 64))]
            )
            for tid, s in zip(["x", "y"], stores)
        }
        with _compile_tenants(
            compiler, stores, tenant_ids=["x", "y"],
            max_batch=64, max_wait=0.02,
        ) as cluster:
            futures = []
            for i in range(12):  # strictly alternating tenants
                tid = "x" if i % 2 == 0 else "y"
                q = rng.choice([-1.0, 1.0], 64).astype(np.float32)
                futures.append((tid, q, cluster.submit(q, tenant=tid)))
            for tid, q, future in futures:
                values, indices = future.result(timeout=30)
                ev, ei = refs[tid].run_batch(q[None, :])
                np.testing.assert_array_equal(values, ev)
                np.testing.assert_array_equal(indices, ei)
        # A huge max_batch still cannot merge different tenants, so the
        # alternating stream needs more than one micro-batch.
        assert cluster.stats()["batches_dispatched"] >= 2

    def test_engine_tenant_validation(self, rng):
        spec = replace(dse_spec(16), banks=4)
        compiler = C4CAMCompiler(spec)
        stores = [rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32)]
        plain = compiler.compile(_dot_model(stores[0]), [placeholder((1, 64))])
        with _compile_tenants(compiler, stores, tenant_ids=["only"]) as cluster:
            # A one-tenant cluster resolves an unnamed request to its
            # only tenant.
            query = stores[0][3]
            _values, indices = cluster.submit(query).result(timeout=30)
            np.testing.assert_array_equal(
                indices, plain.run_batch(query[None, :])[1]
            )
            with pytest.raises(SessionError, match="no tenant"):
                cluster.submit(np.zeros(64), tenant="ghost")
            with pytest.raises(ValueError, match="width"):
                cluster.submit(np.zeros(32), tenant="only")
        # Single-tenant backends reject tenant ids outright.
        with plain.serve() as engine:
            with pytest.raises(SessionError, match="single-tenant"):
                engine.submit(np.zeros(64), tenant="only")


# ------------------------------------------------------------ compile_many
class TestCompileMany:
    def test_structural_contract_enforced(self, rng):
        import repro.frontend.torch_api as torch

        stored = rng.choice([-1.0, 1.0], (6, 32)).astype(np.float32)

        class PostProcessed(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, input):
                others = self.weight.transpose(-2, -1)
                matmul = torch.matmul(input, others)
                values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
                return torch.sub(values, values), indices

        compiler = C4CAMCompiler(dse_spec(16))
        with pytest.raises(SessionError, match="not placeable"):
            compiler.compile_many(
                [PostProcessed()], [[placeholder((1, 32))]],
                tenant_ids=["post"],
            )

    def test_argument_validation(self, rng):
        compiler = C4CAMCompiler(dse_spec(16))
        stored = rng.choice([-1.0, 1.0], (4, 32)).astype(np.float32)
        with pytest.raises(ValueError, match="at least one"):
            compiler.compile_many([], [])
        with pytest.raises(ValueError, match="tenant ids"):
            compiler.compile_many(
                [_dot_model(stored)], [[placeholder((1, 32))]],
                tenant_ids=["a", "b"],
            )
        with pytest.raises(ValueError, match="example"):
            compiler.compile_many([_dot_model(stored)], [])

    def test_default_tenant_ids_and_placement_exposed(self, rng):
        compiler = C4CAMCompiler(replace(dse_spec(16), banks=2))
        stores = [
            rng.choice([-1.0, 1.0], (4, 32)).astype(np.float32)
            for _ in range(2)
        ]
        cluster = _compile_tenants(compiler, stores)
        assert cluster.tenant_ids == ["tenant0", "tenant1"]
        assert cluster.num_machines >= 1
        assert "tenant0" in cluster.describe()

    def test_admits_in_ffd_order_where_first_fit_disagrees(self, rng):
        """Demands 1,1,3,3 banks on 4-bank machines: first fit in
        submission order needs 3 machines, FFD needs 2.  compile_many
        admits in the plan's programming order, so the cluster holds
        FFD's spans without a defragmentation."""
        spec = replace(
            dse_spec(16), subarrays_per_array=2, arrays_per_mat=1,
            mats_per_bank=1, banks=4,
        )
        compiler = C4CAMCompiler(spec)
        stores = [
            rng.choice([-1.0, 1.0], (rows, 32)).astype(np.float32)
            for rows in (16, 16, 48, 48)
        ]
        ids = ["t0", "t1", "t2", "t3"]
        demands = [
            tenant_demand(
                tid,
                compute_partition_plan(
                    s.shape[0], 32, 1, spec, use_density=False
                ),
                spec,
            )
            for tid, s in zip(ids, stores)
        ]
        assert [d.banks for d in demands] == [1, 1, 3, 3]
        plan = plan_placement(demands, spec)
        models = [_dot_model(s) for s in stores]
        examples = [[placeholder((1, 32))] for _ in stores]

        cluster = compiler.compile_many(models, examples, tenant_ids=ids)
        assert cluster.bank_spans() == {
            a.tenant_id: (a.machine_index, a.bank_offset, a.banks)
            for a in plan.assignments
        }
        assert cluster.bank_spans() == {
            "t2": (0, 0, 3), "t0": (0, 3, 1),
            "t3": (1, 0, 3), "t1": (1, 3, 1),
        }
        assert cluster.tenant_ids == ["t2", "t0", "t3", "t1"]
        assert cluster.num_machines == 2
        assert cluster.defrag_count == 0
        for tid, stored in zip(ids, stores):
            queries = rng.choice([-1.0, 1.0], (3, 32)).astype(np.float32)
            alone = compiler.compile(
                _dot_model(stored), [placeholder((1, 32))]
            ).run_batch(queries)
            got = cluster.run_batch(queries, tenant=tid)
            np.testing.assert_array_equal(got[0], alone[0])
            np.testing.assert_array_equal(got[1], alone[1])

        # The same kernels admitted one by one in submission order
        # first-fit onto three machines.
        submitted = Cluster(spec)
        for tid, model, example in zip(ids, models, examples):
            submitted.admit(
                compiler.compile(model, example, num_shards=1), tenant_id=tid
            )
        assert submitted.num_machines == 3
        assert submitted.defrag_count == 0


# ------------------------------------------------------------- TenantPool
class TestTenantPool:
    def test_pool_round_trip(self, rng):
        from repro.apps import TenantPool

        spec = replace(dse_spec(16), banks=2)
        pool = TenantPool(spec)
        faces = rng.choice([-1.0, 1.0], (10, 64)).astype(np.float32)
        spam = rng.choice([-1.0, 1.0], (6, 32)).astype(np.float32)
        pool.add("faces", faces, k=2).add("spam", spam)
        values, indices = pool.run("faces", faces[4])
        assert indices[0, 0] == 4
        _values, spam_idx = pool.run("spam", spam[[1, 5]])
        np.testing.assert_array_equal(spam_idx[:, 0], [1, 5])
        assert pool.report("faces").queries == 1
        assert pool.report().queries == 3
        assert pool.num_tenants == 2 and pool.is_open

    def test_pool_guards(self, rng):
        from repro.apps import TenantPool

        pool = TenantPool(dse_spec(16))
        with pytest.raises(RuntimeError, match="no tenants"):
            pool.open()
        stored = rng.choice([-1.0, 1.0], (4, 32)).astype(np.float32)
        pool.add("a", stored)
        with pytest.raises(ValueError, match="duplicate"):
            pool.add("a", stored)
        with pytest.raises(ValueError, match="k=9"):
            pool.add("b", stored, k=9)
        pool.open()
        with pytest.raises(RuntimeError, match="already open"):
            pool.add("c", stored)
        with pytest.raises(RuntimeError, match="already open"):
            pool.open(max_batch=4)
        pool.reset()
        pool.add("c", stored)  # legal again after reset
        assert set(pool.open().tenant_ids) == {"a", "c"}

    def test_reset_shuts_down_the_dropped_cluster(self, rng):
        from repro.apps import TenantPool

        pool = TenantPool(dse_spec(16))
        stored = rng.choice([-1.0, 1.0], (4, 32)).astype(np.float32)
        pool.add("a", stored)
        cluster = pool.open(max_batch=4)
        assert cluster.submit(stored[2], tenant="a").result(
            timeout=30
        )[1][0, 0] == 2
        engine = cluster._engine
        threads = [lane.thread for lane in engine._lanes]
        assert all(thread.is_alive() for thread in threads)
        pool.reset()
        assert not pool.is_open
        assert not any(thread.is_alive() for thread in threads)
        with pytest.raises(SessionError, match="shut down"):
            cluster.submit(stored[0], tenant="a")

    def test_closed_cluster_closes_the_pool(self, rng):
        """Leaving ``with pool.open() as cluster:`` shuts the cluster
        down: the pool reads closed, and ``open()`` and ``run()`` serve
        from a freshly placed cluster instead of the closed one."""
        from repro.apps import TenantPool

        pool = TenantPool(dse_spec(16))
        stored = rng.choice([-1.0, 1.0], (4, 32)).astype(np.float32)
        pool.add("a", stored)
        with pool.open() as closed:
            assert pool.is_open
        assert not pool.is_open and closed.closed
        pool.add("b", stored)             # legal again, as after reset
        assert pool.run("a", stored[3])[1][0, 0] == 3
        assert pool.is_open and pool.open() is not closed
        assert pool.open().tenant_ids == ["a", "b"]


def test_cli_tenants_demo(capsys):
    from repro.cli import main

    assert main([
        "--tenants", "3", "--banks", "2", "--patterns", "6",
        "--dims", "128", "--queries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "tenant0" in out and "tenant2" in out
    assert "machine 0" in out
    assert "fleet:" in out


def test_cli_tenants_overflow_is_friendly(capsys):
    """A store beyond one machine is refused by both fleet demos, with
    the tenant and its bank demand named (tenants are never sharded)."""
    from repro.cli import main

    for mode in ("--tenants", "--cluster"):
        assert main([
            mode, "2", "--banks", "1", "--patterns", "400",
            "--dims", "1024", "--queries", "1",
        ]) == 1, mode
        err = capsys.readouterr().err
        assert "error:" in err and "bank" in err
        assert "tenant 'tenant0' alone needs 4 bank(s)" in err
