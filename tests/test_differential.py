"""Randomized differential testing across all four execution paths.

The runtime now serves one similarity kernel four ways:

1. **per-call interpreter** — ``cache_session=False``, a fresh machine
   and a full IR walk per query (the legacy reference semantics);
2. **batched query session** — ``QuerySession.run_batch`` on one live
   machine (PR 1);
3. **sharded session** — the store split across machines and re-merged
   (PR 2);
4. **replicated + async serving** — R cloned copies behind the
   micro-batching :class:`~repro.runtime.serving.ServingEngine` (this
   PR), with requests chopped into arbitrary chunks.

Every path promises *bitwise identical* top-k output (noise disabled).
This suite generates random stores/queries/geometries — plus adversarial
tie-heavy and all-zero-score inputs, where only the stable lowest-index
tie-break keeps the paths aligned — and asserts the promise holds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import dse_spec, paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.simulator.cells import DONT_CARE


def _dot_model(stored, k):
    import repro.frontend.torch_api as torch

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            return torch.ops.aten.topk(matmul, k, largest=True)

    return DotSimilarity()


def _random_case(rng):
    """One random workload: store, queries, k and a machine geometry."""
    patterns = int(rng.integers(6, 48))
    features = int(rng.choice([32, 64, 128]))
    batch = int(rng.integers(1, 10))
    k = int(rng.integers(1, min(patterns, 5) + 1))
    spec = dse_spec(int(rng.choice([16, 32])))
    kind = rng.choice(["gaussian", "bipolar", "ties", "zeros"])
    if kind == "gaussian":
        stored = rng.standard_normal((patterns, features))
        queries = rng.standard_normal((batch, features))
    elif kind == "bipolar":
        stored = rng.choice([-1.0, 1.0], (patterns, features))
        queries = rng.choice([-1.0, 1.0], (batch, features))
    elif kind == "ties":
        # A handful of unique rows duplicated many times: nearly every
        # score ties, so ranking is decided purely by the tie-break.
        uniques = rng.choice([-1.0, 1.0], (3, features))
        stored = uniques[rng.integers(0, 3, patterns)]
        queries = uniques[rng.integers(0, 3, batch)]
    else:  # zeros: every match-line score is 0 for every stored row
        stored = rng.choice([-1.0, 1.0], (patterns, features))
        queries = np.zeros((batch, features))
    return (
        stored.astype(np.float32),
        queries.astype(np.float32),
        k,
        spec,
        kind,
    )


def _four_paths(stored, queries, k, spec, rng):
    """Run the same workload through all four paths; return the results."""
    features = stored.shape[1]
    example = [placeholder((1, features))]
    compiler = C4CAMCompiler(spec)

    # 1. per-call interpreter (fresh machine + full IR walk per query).
    percall = compiler.compile(
        _dot_model(stored, k), example, cache_session=False
    )
    values, indices = zip(*(percall(q[None, :]) for q in queries))
    interpreter = (np.vstack(values), np.vstack(indices))

    # 2. one batched query session.
    session = compiler.compile(_dot_model(stored, k), example)
    batched = tuple(session.run_batch(queries))

    # 3. sharded across machines.
    num_shards = min(int(rng.integers(2, 4)), stored.shape[0])
    sharded_kernel = compiler.compile(
        _dot_model(stored, k), example, num_shards=num_shards
    )
    sharded = tuple(sharded_kernel.run_batch(queries))

    # 4. replicated + async: random request chunking through the engine.
    replicated = compiler.compile(
        _dot_model(stored, k), example, num_replicas=2
    )
    with replicated.serve(
        max_batch=int(rng.integers(1, len(queries) + 2)),
        max_wait=float(rng.choice([0.0, 0.001])),
    ) as engine:
        futures, cursor = [], 0
        while cursor < len(queries):
            take = min(int(rng.integers(1, 4)), len(queries) - cursor)
            futures.append(engine.submit(queries[cursor : cursor + take]))
            cursor += take
        parts = [future.result(timeout=30) for future in futures]
    served = (
        np.vstack([p[0] for p in parts]),
        np.vstack([p[1] for p in parts]),
    )
    return interpreter, batched, sharded, served


@pytest.mark.parametrize("seed", range(8))
def test_random_workloads_agree_bitwise(seed):
    rng = np.random.default_rng(987_000 + seed)
    stored, queries, k, spec, kind = _random_case(rng)
    interpreter, batched, sharded, served = _four_paths(
        stored, queries, k, spec, rng
    )
    for name, (values, indices) in {
        "session": batched, "sharded": sharded, "served": served,
    }.items():
        np.testing.assert_array_equal(
            indices, interpreter[1],
            err_msg=f"{name} indices diverge on {kind!r} case (seed {seed})",
        )
        np.testing.assert_array_equal(
            values, interpreter[0],
            err_msg=f"{name} values diverge on {kind!r} case (seed {seed})",
        )
        assert values.dtype == np.float32 and indices.dtype == np.int64


def test_tie_heavy_store_resolves_identically():
    """Every stored row identical: all scores tie for every query, so
    agreement is purely the stable lowest-index tie-break on all paths."""
    rng = np.random.default_rng(5)
    row = rng.choice([-1.0, 1.0], 64)
    stored = np.tile(row, (18, 1)).astype(np.float32)
    queries = np.vstack([row, -row, rng.choice([-1.0, 1.0], 64)]).astype(
        np.float32
    )
    interpreter, batched, sharded, served = _four_paths(
        stored, queries, 4, dse_spec(16), rng
    )
    expected = np.tile(np.arange(4, dtype=np.int64), (3, 1))
    np.testing.assert_array_equal(interpreter[1], expected)
    for path in (batched, sharded, served):
        np.testing.assert_array_equal(path[1], expected)
        np.testing.assert_array_equal(path[0], interpreter[0])


def _random_tenants(rng, count):
    """Independent random workloads (distinct shapes, k and kinds)."""
    tenants = []
    for _ in range(count):
        patterns = int(rng.integers(4, 28))
        features = int(rng.choice([32, 64, 128]))
        k = int(rng.integers(1, min(patterns, 4) + 1))
        kind = rng.choice(["gaussian", "bipolar", "ties"])
        if kind == "gaussian":
            stored = rng.standard_normal((patterns, features))
        elif kind == "bipolar":
            stored = rng.choice([-1.0, 1.0], (patterns, features))
        else:
            uniques = rng.choice([-1.0, 1.0], (2, features))
            stored = uniques[rng.integers(0, 2, patterns)]
        queries = rng.standard_normal((int(rng.integers(1, 7)), features))
        tenants.append(
            (stored.astype(np.float32), queries.astype(np.float32), k)
        )
    return tenants


@pytest.mark.parametrize("seed", range(4))
def test_tenant_isolation_differential(seed):
    """K colocated tenants vs. each compiled alone: bitwise-equal top-k
    per tenant, and per-tenant energy summing to the fleet report.

    The colocated paths exercised are the ``compile_many`` cluster's
    synchronous ``run_batch(Q, tenant=tenant_id)`` and its tenant-aware
    async ``submit`` with randomized request chunking and extra lanes —
    neither may leak any influence of the co-resident stores into a
    tenant's results.
    """
    rng = np.random.default_rng(441_000 + seed)
    spec = replace(dse_spec(int(rng.choice([16, 32]))), banks=2)
    compiler = C4CAMCompiler(spec)
    tenants = _random_tenants(rng, int(rng.integers(2, 5)))
    ids = [f"t{i}" for i in range(len(tenants))]

    # Each tenant compiled and served alone on a private machine.
    solo = {}
    for tid, (stored, queries, k) in zip(ids, tenants):
        kernel = compiler.compile(
            _dot_model(stored, k), [placeholder((1, stored.shape[1]))]
        )
        solo[tid] = tuple(kernel.run_batch(queries))

    # The same kernels colocated on one shared fleet.
    colocated = compiler.compile_many(
        [_dot_model(stored, k) for stored, _q, k in tenants],
        [[placeholder((1, stored.shape[1]))] for stored, _q, _k in tenants],
        tenant_ids=ids,
    )
    assert colocated.defrag_count == 0
    for tid, (_stored, queries, _k) in zip(ids, tenants):
        values, indices = colocated.run_batch(queries, tenant=tid)
        np.testing.assert_array_equal(
            indices, solo[tid][1],
            err_msg=f"colocated tenant {tid} indices diverge (seed {seed})",
        )
        np.testing.assert_array_equal(
            values, solo[tid][0],
            err_msg=f"colocated tenant {tid} values diverge (seed {seed})",
        )

    # Per-tenant accounting must sum exactly to the fleet report: the
    # fabric is partitioned bank-granularly, so there is no residual
    # shared term and every energy component adds up.
    fleet = colocated.report()
    for key, value in fleet.energy.as_dict().items():
        tenant_sum = sum(
            colocated.tenant_report(tid).energy.as_dict()[key] for tid in ids
        )
        np.testing.assert_allclose(
            tenant_sum, value, rtol=1e-12, err_msg=f"energy[{key}]"
        )
    assert fleet.queries == sum(
        colocated.tenant_report(tid).queries for tid in ids
    )
    assert fleet.banks_used == sum(
        colocated.tenant_report(tid).banks_used for tid in ids
    )

    # Tenant-aware async serving with random chunking: same results.
    with compiler.compile_many(
        [_dot_model(stored, k) for stored, _q, k in tenants],
        [[placeholder((1, stored.shape[1]))] for stored, _q, _k in tenants],
        tenant_ids=ids,
        num_replicas=int(rng.integers(1, 3)),
        max_batch=int(rng.integers(1, 6)),
        max_wait=float(rng.choice([0.0, 0.001])),
    ) as served:
        futures = {}
        for tid, (_stored, queries, _k) in zip(ids, tenants):
            futures[tid], cursor = [], 0
            while cursor < len(queries):
                take = min(int(rng.integers(1, 3)), len(queries) - cursor)
                futures[tid].append(
                    served.submit(queries[cursor : cursor + take], tenant=tid)
                )
                cursor += take
        for tid in ids:
            parts = [f.result(timeout=30) for f in futures[tid]]
            values = np.vstack([p[0] for p in parts])
            indices = np.vstack([p[1] for p in parts])
            np.testing.assert_array_equal(indices, solo[tid][1])
            np.testing.assert_array_equal(values, solo[tid][0])


def test_multi_tenant_overpack_names_tenant_and_demand():
    """Over-packing fails at compile time with the tenant named and its
    bank demand spelled out (plus the per-tenant breakdown)."""
    from repro.runtime.placement import PlacementError
    from repro.transforms import CapacityError

    rng = np.random.default_rng(7)
    spec = replace(dse_spec(16), banks=1)
    compiler = C4CAMCompiler(spec)
    small = rng.choice([-1.0, 1.0], (8, 64)).astype(np.float32)
    huge = rng.choice([-1.0, 1.0], (400, 256)).astype(np.float32)
    with pytest.raises(CapacityError) as err:
        compiler.compile_many(
            [_dot_model(small, 1), _dot_model(huge, 1)],
            [[placeholder((1, 64))], [placeholder((1, 256))]],
            tenant_ids=["small", "huge"],
            max_machines=1,
        )
    assert isinstance(err.value, PlacementError)
    assert err.value.tenant_id == "huge"
    message = str(err.value)
    assert "'huge'" in message and "bank" in message
    assert "'small'" in message  # the per-tenant breakdown lists everyone


@pytest.mark.parametrize("seed", range(4))
def test_cluster_lifecycle_differential(seed):
    """The cluster path against each tenant compiled alone — bitwise
    identical through the whole dynamic lifecycle:

    1. every admitted tenant matches its solo kernel;
    2. admitting an *unrelated* tenant changes nobody's results;
    3. evicting a tenant (defragmenting re-placement: banks reclaimed,
       survivors re-packed and re-programmed) changes nobody's results;
    4. property-style placement invariants hold at every step — no
       bank overlap between tenants and bank totals conserved.
    """
    from repro.runtime import Cluster

    rng = np.random.default_rng(771_000 + seed)
    spec = replace(dse_spec(int(rng.choice([16, 32]))), banks=2)
    compiler = C4CAMCompiler(spec)
    tenants = _random_tenants(rng, int(rng.integers(3, 6)))
    ids = [f"t{i}" for i in range(len(tenants))]

    solo = {}
    for tid, (stored, queries, k) in zip(ids, tenants):
        kernel = compiler.compile(
            _dot_model(stored, k), [placeholder((1, stored.shape[1]))]
        )
        solo[tid] = tuple(kernel.run_batch(queries))

    def check_all(cluster, live):
        _assert_placement_invariants(cluster)
        for tid in live:
            stored, queries, k = tenants[ids.index(tid)]
            values, indices = cluster.run_batch(queries, tenant=tid)
            np.testing.assert_array_equal(
                indices, solo[tid][1],
                err_msg=f"cluster tenant {tid} indices diverge "
                        f"(seed {seed})",
            )
            np.testing.assert_array_equal(
                values, solo[tid][0],
                err_msg=f"cluster tenant {tid} values diverge "
                        f"(seed {seed})",
            )

    cluster = Cluster(spec)
    live = []
    # 1+2: grow the tenant set one admit at a time; after every admit,
    # every already-resident tenant must still answer bitwise alike.
    for tid, (stored, _queries, k) in zip(ids, tenants):
        cluster.admit(
            compiler.compile(
                _dot_model(stored, k), [placeholder((1, stored.shape[1]))]
            ),
            tenant_id=tid,
        )
        live.append(tid)
        check_all(cluster, live)
    # 3: evict in a random order; every surviving tenant must answer
    # bitwise alike after each defragmenting re-placement.
    order = list(ids)
    rng.shuffle(order)
    for tid in order[:-1]:
        banks_before = sum(span[2] for span in cluster.bank_spans().values())
        evicted = cluster.bank_spans()[tid][2]
        cluster.evict(tid)
        live.remove(tid)
        banks_after = sum(span[2] for span in cluster.bank_spans().values())
        assert banks_after == banks_before - evicted  # banks conserved
        check_all(cluster, live)
    cluster.shutdown()


def _assert_placement_invariants(cluster):
    """No bank overlap between tenants; machine fill equals the sum of
    the tenant spans (total banks conserved)."""
    by_machine = {}
    for tid, (machine, offset, banks) in cluster.bank_spans().items():
        assert banks >= 1
        by_machine.setdefault(machine, []).append((offset, offset + banks))
    for machine, intervals in by_machine.items():
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end <= start, f"bank overlap on machine {machine}"
        assert cluster._shared_machines[machine].banks_used == sum(
            end - start for start, end in intervals
        )


def test_cluster_async_priority_differential():
    """Randomly chunked, mixed-priority async submission through the
    cluster's serving path returns exactly the solo kernels' results."""
    from repro.runtime import Cluster

    rng = np.random.default_rng(88)
    spec = replace(dse_spec(16), banks=2)
    compiler = C4CAMCompiler(spec)
    tenants = _random_tenants(rng, 3)
    ids = [f"t{i}" for i in range(len(tenants))]
    solo = {}
    cluster = Cluster(spec, max_batch=4, max_wait=0.001)
    for tid, (stored, queries, k) in zip(ids, tenants):
        kernel = compiler.compile(
            _dot_model(stored, k), [placeholder((1, stored.shape[1]))]
        )
        solo[tid] = tuple(kernel.run_batch(queries))
        cluster.admit(
            compiler.compile(
                _dot_model(stored, k), [placeholder((1, stored.shape[1]))]
            ),
            tenant_id=tid,
        )
    futures = {}
    for tid, (_stored, queries, _k) in zip(ids, tenants):
        futures[tid], cursor = [], 0
        while cursor < len(queries):
            take = min(int(rng.integers(1, 3)), len(queries) - cursor)
            futures[tid].append(
                cluster.submit(
                    queries[cursor : cursor + take],
                    tenant=tid,
                    priority=int(rng.integers(0, 3)),
                    deadline=float(rng.choice([0.001, 1.0])),
                )
            )
            cursor += take
    for tid in ids:
        parts = [f.result(timeout=30) for f in futures[tid]]
        np.testing.assert_array_equal(
            np.vstack([p[1] for p in parts]), solo[tid][1]
        )
        np.testing.assert_array_equal(
            np.vstack([p[0] for p in parts]), solo[tid][0]
        )
    cluster.shutdown()


def test_all_zero_scores_resolve_identically():
    """A zero query gives every stored row the same score (whatever
    constant the CAM-level metric legalizes it to) — the top-k is then
    decided purely by the tie-break and must still agree on every path."""
    rng = np.random.default_rng(6)
    stored = rng.choice([-1.0, 1.0], (20, 64)).astype(np.float32)
    queries = np.zeros((4, 64), dtype=np.float32)
    interpreter, batched, sharded, served = _four_paths(
        stored, queries, 3, paper_spec(rows=16, cols=32), rng
    )
    # All-tie: the winners are the first k row indices and every
    # returned value is the same constant.
    np.testing.assert_array_equal(
        interpreter[1], np.tile(np.arange(3, dtype=np.int64), (4, 1))
    )
    assert np.unique(interpreter[0]).size == 1
    for path in (batched, sharded, served):
        np.testing.assert_array_equal(path[1], interpreter[1])
        np.testing.assert_array_equal(path[0], interpreter[0])


# ----------------------------------------------------- fused vs unfused
def _report_tuple(report):
    """The accounting surface a fused run must reproduce exactly."""
    e = report.energy
    return (
        report.query_latency_ns, report.setup_latency_ns,
        report.searches, report.search_cycles, report.rows_written,
        e.search, e.read, e.merge, e.host, e.write, e.standby,
    )


@pytest.mark.parametrize("seed", range(4))
def test_fused_matches_unfused_oracle_all_paths(seed):
    """`fused=True` (default) must be bitwise identical to the retained
    unfused session walk — results AND energy/latency accounting — on
    every execution backend: plain session, sharded, replicated+served,
    and the multi-tenant fleet."""
    _fused_matches_oracle_all_paths(seed, analog=False)


def _fused_matches_oracle_all_paths(seed, analog):
    """The fused-vs-unfused differential on every backend.  ``analog``
    moves the case onto an analog CAM with every store and query scaled
    by √2, off the integers, so that no batch passes the exact gate."""
    rng = np.random.default_rng(321_000 + seed)
    stored, queries, k, spec, kind = _random_case(rng)
    root2 = np.sqrt(2.0)
    if analog:
        spec = replace(spec, cam_type="acam")
        stored = stored * np.float32(root2)
        queries = queries * root2
    features = stored.shape[1]
    example = [placeholder((1, features))]

    def pair(store=stored, **kwargs):
        fused = C4CAMCompiler(spec).compile(
            _dot_model(store, k), example, **kwargs
        )
        oracle = C4CAMCompiler(spec).compile(
            _dot_model(store, k), example, fused=False, **kwargs
        )
        return fused, oracle

    # 1. plain session.
    kf, ko = pair()
    rf, ro = kf.run_batch(queries), ko.run_batch(queries)
    sf, so = kf.session(), ko.session()
    assert sf.fused_runs == 1 and so.fused_runs == 0
    np.testing.assert_array_equal(rf[0], ro[0])
    np.testing.assert_array_equal(rf[1], ro[1])
    np.testing.assert_array_equal(sf.last_values, so.last_values)
    assert _report_tuple(sf.last_report) == _report_tuple(so.last_report)

    # 2. sharded: per-shard fusion must keep the merged tie-break.
    num_shards = min(2, stored.shape[0])
    kf, ko = pair(num_shards=num_shards)
    rf, ro = kf.run_batch(queries), ko.run_batch(queries)
    np.testing.assert_array_equal(rf[0], ro[0])
    np.testing.assert_array_equal(rf[1], ro[1])
    assert _report_tuple(kf.session().last_report) == _report_tuple(
        ko.session().last_report
    )
    assert all(s.fused_runs == 1 for s in kf.session().sessions)

    # 3. replicated + async serving lanes run the fused kernels.
    kf, ko = pair(num_replicas=2)
    with kf.serve(max_batch=4) as engine:
        got_f = engine.submit(queries).result(timeout=30)
    with ko.serve(max_batch=4) as engine:
        got_o = engine.submit(queries).result(timeout=30)
    np.testing.assert_array_equal(got_f[0], got_o[0])
    np.testing.assert_array_equal(got_f[1], got_o[1])

    # 4. multi-tenant fleet: fused per tenant over shared machines.
    mf = C4CAMCompiler(spec).compile_many(
        [_dot_model(stored, k)], [example], tenant_ids=["t0"]
    )
    mo = C4CAMCompiler(spec).compile_many(
        [_dot_model(stored, k)], [example], tenant_ids=["t0"],
        fused=False,
    )
    rf = mf.run_batch(queries, tenant="t0")
    ro = mo.run_batch(queries, tenant="t0")
    np.testing.assert_array_equal(rf[0], ro[0])
    np.testing.assert_array_equal(rf[1], ro[1])
    assert _report_tuple(mf.last_report) == _report_tuple(mo.last_report)
    assert mf.fused and not mo.fused
    assert mf._tenants["t0"].lanes[0].backend.fused_runs == 1

    # 5. a TCAM store with don't-care (NaN) cells, on one machine and
    #    sharded: the fused plan's exact Hamming rewrite masks them out.
    #    Drawn last, so each seed's case above is unchanged.
    wild = rng.choice([0.0, 1.0], stored.shape)
    wild[rng.random(stored.shape) < 0.2] = DONT_CARE
    bits = rng.choice([0.0, 1.0], queries.shape)
    if analog:
        wild, bits = wild * root2, bits * root2
    for shards in (1, num_shards):
        kf, ko = pair(wild.astype(np.float32), num_shards=shards)
        rf, ro = kf.run_batch(bits), ko.run_batch(bits)
        np.testing.assert_array_equal(rf[0], ro[0])
        np.testing.assert_array_equal(rf[1], ro[1])
        assert _report_tuple(kf.session().last_report) == _report_tuple(
            ko.session().last_report
        )
        if shards == 1:
            assert (kf.session()._fused_plan.exact is None) == analog


@pytest.mark.parametrize("seed", range(4))
def test_fused_split_matches_unfused_oracle_all_paths(scored, seed):
    """The differential above on an analog CAM, every value scaled by
    √2: the bipolar, tie and all-zero cases become heavy ties for the
    pruning bound, and every batch whose k is below the live rows is
    pruned."""
    _fused_matches_oracle_all_paths(seed, analog=True)
    assert scored and all(n != "full" for n in scored), scored


def _generic_stores(rng, euclidean_kernel):
    """``(name, model, spec, num_shards, 9 queries)`` for each kind of
    store whose batches miss the exact gate: pruned (Euclidean and dot),
    or scored through the full per-slice loop (a Hamming store queried
    off its alphabet)."""
    acam = paper_spec(rows=16, cols=16, cam_type="acam")
    wild = rng.standard_normal((40, 48))
    wild[rng.random(wild.shape) < 0.2] = DONT_CARE
    gaussian = rng.standard_normal((40, 48)).astype(np.float32)
    bipolar = rng.choice([-1.0, 1.0], (40, 64)).astype(np.float32)
    queries = rng.standard_normal((9, 48))
    return [
        ("euclidean_dont_care",
         euclidean_kernel(wild.astype(np.float32), k=3), acam, 1, queries),
        ("dot", _dot_model(gaussian, 3), acam, 1, queries),
        # ±1 rows on a binary CAM, queried off the ±1 alphabet: the
        # exact Hamming rewrite refuses the batch.
        ("binary_off_alphabet", _dot_model(bipolar, 3),
         paper_spec(rows=16, cols=32), 1, rng.standard_normal((9, 64))),
        # 8 rows stack twice per 16-row subarray: three column tiles on
        # two subarrays, the second holding one.
        ("density_stacked", _dot_model(gaussian[:8], 3),
         replace(dse_spec(16, "density"), cam_type="acam"), 1, queries),
        ("two_shards", _dot_model(gaussian, 3), acam, 2, queries),
    ]


@pytest.mark.parametrize("rows, shares", [
    (0, [0]), (1, [1]),
    (3, [1, 1, 1]),
    (7, [1, 2, 2, 2]), (9, [2, 2, 2, 3]),  # ragged shares
])
def test_fused_split_matches_unfused_oracle(
    scored, euclidean_kernel, rows, shares
):
    """Every kind of store whose batches miss the exact gate: the fused
    run of a ``rows`` batch is bitwise the unfused walk in results,
    every session's ``last_values`` and every report, and serving the
    batch cut into consecutive row ``shares``, each its own batch,
    returns the same rows — a pruned query's answer does not depend on
    the queries it shares matrix products with."""
    rng = np.random.default_rng(23)
    for name, model, spec, num_shards, queries in _generic_stores(
        rng, euclidean_kernel
    ):
        example = [placeholder((1, queries.shape[1]))]
        kf, ko = (
            C4CAMCompiler(spec).compile(
                model, example, fused=fused, num_shards=num_shards
            )
            for fused in (True, False)
        )
        batch = queries[:rows]
        del scored[:]
        rf, ro = kf.run_batch(batch), ko.run_batch(batch)
        np.testing.assert_array_equal(rf[0], ro[0], err_msg=name)
        np.testing.assert_array_equal(rf[1], ro[1], err_msg=name)
        sessions = [
            getattr(kernel.session(), "sessions", [kernel.session()])
            for kernel in (kf, ko)
        ]
        for sf, so in zip(*sessions):
            assert sf.fused_runs == 1, name
            np.testing.assert_array_equal(sf.last_values, so.last_values)
            assert _report_tuple(sf.last_report) == _report_tuple(
                so.last_report
            ), name
        assert _report_tuple(kf.last_report) == _report_tuple(
            ko.last_report
        ), name
        if name == "binary_off_alphabet":
            # An empty batch lies inside any alphabet: the exact rewrite
            # takes it; any other misses it and takes the full loop.
            assert scored == ([] if rows == 0 else ["full"] * num_shards)
        else:
            assert len(scored) == num_shards, name
            assert "full" not in scored, name
        if name == "density_stacked":
            assert kf.session()._fused_plan.stacked
        cuts = np.cumsum([0] + shares)
        pieces = [kf.run_batch(batch[a:b]) for a, b in zip(cuts, cuts[1:])]
        for got, want in zip(zip(*pieces), rf):
            np.testing.assert_array_equal(
                np.concatenate(got), want, err_msg=name
            )


def test_fused_cluster_matches_unfused_oracle():
    """A cluster built with fused=False is the oracle for the default
    fused control plane."""
    rng = np.random.default_rng(77)
    stored = rng.choice([-1.0, 1.0], (24, 64)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (6, 64)).astype(np.float32)
    spec = paper_spec(rows=16, cols=32)
    example = [placeholder((1, 64))]

    results = {}
    for fused in (True, False):
        compiler = C4CAMCompiler(spec)
        cluster = compiler.compile_many(
            [_dot_model(stored, 3)], [example], tenant_ids=["t0"],
            fused=fused,
        )
        assert cluster.fused is fused
        results[fused] = cluster.run_batch(queries, tenant="t0")
        cluster.shutdown()
    np.testing.assert_array_equal(results[True][0], results[False][0])
    np.testing.assert_array_equal(results[True][1], results[False][1])


def test_analog_euclidean_plan_skips_exact_rewrite(euclidean_kernel):
    """An analog-float Euclidean store fails the exact-BLAS gate, so its
    plan carries no rewrite and scores through the generic per-slice
    loop — still bitwise the unfused walk, results and accounting.  The
    same kernel over integer codes passes the gate."""
    rng = np.random.default_rng(31)
    analog = rng.standard_normal((40, 96)).astype(np.float32)
    queries = rng.standard_normal((7, 96)).astype(np.float32)
    spec = paper_spec(rows=16, cols=32, cam_type="acam")
    example = [placeholder((96,))]

    def compile_pair(stored):
        return [
            C4CAMCompiler(spec).compile(
                euclidean_kernel(stored, k=3), example, fused=fused
            )
            for fused in (True, False)
        ]

    kf, ko = compile_pair(analog)
    rf, ro = kf.run_batch(queries), ko.run_batch(queries)
    sf, so = kf.session(), ko.session()
    assert sf._fused_plan and sf._fused_plan.exact is None
    assert sf.fused_runs == 1 and so.fused_runs == 0
    for got, want in zip(rf, ro):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert sf.last_values.tobytes() == so.last_values.tobytes()
    assert _report_tuple(sf.last_report) == _report_tuple(so.last_report)

    kf, _ = compile_pair(np.rint(4 * analog))
    kf.run_batch(np.rint(4 * queries))
    assert kf.session()._fused_plan.exact is not None


@pytest.mark.parametrize("top, exact", [(1 << 20, False), (1 << 19, True)])
def test_exact_gate_keeps_euclidean_sums_below_2_53(
    euclidean_kernel, top, exact
):
    """Integer stores near the exact gate's edge, 4096 features, queried
    from the opposite sign: at ``2**20`` a squared difference reaches
    ``2**42`` and a row sum ``2**54``, past the float64 integer horizon,
    so the gate must decline (the batch is pruned instead); at ``2**19``
    the sums stay below ``2**53`` and the exact rewrite serves.  Either
    way the scores are the unfused walk's bit for bit."""
    rng = np.random.default_rng(53)
    stored = (top - rng.integers(0, 3000, (8, 4096))).astype(np.float32)
    queries = -(top - rng.integers(0, 3000, (3, 4096))).astype(np.float64)
    spec = paper_spec(rows=64, cols=64, cam_type="acam")
    sf, so = (
        C4CAMCompiler(spec).compile(
            euclidean_kernel(stored, k=3), [placeholder((1, 4096))],
            fused=fused,
        ).session()
        for fused in (True, False)
    )
    for got, want in zip(sf.run_batch(queries), so.run_batch(queries)):
        assert got.tobytes() == want.tobytes()
    assert sf.last_values.tobytes() == so.last_values.tobytes()
    assert _report_tuple(sf.last_report) == _report_tuple(so.last_report)
    assert (sf._fused_plan.exact is not None) is exact


def test_noise_bypasses_fusion():
    """Device noise keeps the unfused walk (draws are per-machine-call):
    a noisy fused-flag session must produce the identical realization."""
    rng = np.random.default_rng(9)
    stored = rng.choice([-1.0, 1.0], (12, 64)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (5, 64)).astype(np.float32)
    spec = paper_spec(rows=16, cols=32)
    example = [placeholder((1, 64))]
    kf = C4CAMCompiler(spec).compile(
        _dot_model(stored, 2), example, noise_sigma=0.3, noise_seed=11
    )
    ko = C4CAMCompiler(spec).compile(
        _dot_model(stored, 2), example, noise_sigma=0.3, noise_seed=11,
        fused=False,
    )
    rf, ro = kf.run_batch(queries), ko.run_batch(queries)
    assert kf.session().fused_runs == 0
    np.testing.assert_array_equal(rf[0], ro[0])
    np.testing.assert_array_equal(rf[1], ro[1])
