"""Randomized mutation-sequence differential testing.

The mutable-store layer promises that a session which has lived through
an arbitrary interleaving of ``insert`` / ``delete`` / ``update`` /
``compact`` and queries is *bitwise identical*, on every query, to a
fresh session rebuilt from the surviving patterns (noise disabled).
Tombstones, slot reuse, growth banks, shard splits and cluster
re-placements must all be invisible in the results.

This suite drives randomized mutation schedules against a shadow store
(a plain dict of id -> row) and checks the promise on every query, for
all four execution paths:

1. **per-call interpreter** — the rebuilt-survivors kernel with
   ``cache_session=False`` (fresh machine + full IR walk per query);
2. **query session** — ``CompiledKernel`` mutations on one live machine;
3. **sharded session** — mutations across shard machines, including
   splits when the tail shard overflows a bank-capped spec;
4. **cluster** — mutations through the multi-tenant control plane,
   including growth re-placements.

Adversarial schedules ride along: tie-heavy ±1 stores where ranking is
decided purely by the id-order tie-break, all-tombstone stores (every
row deleted -> empty results, then refilled), and mutate-during-serve
schedules where mutations interleave with in-flight micro-batches.
"""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.arch import paper_spec
from repro.arch.technology import FEFET_45NM
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.cluster import Cluster
from repro.runtime.fused import build_fused_plan
from repro.runtime.session import QuerySession
from repro.runtime.sharding import ShardedSession, build_shard_set
from repro.simulator.cells import DONT_CARE
from repro.simulator.machine import CamMachine

FEATURES = 8
BATCH = 3


def _spec(banks=None):
    """An analog-CAM geometry, so dot scores are true dot products
    (binary TCAM cells would collapse float data to match counts and
    make every differential assertion vacuous)."""
    spec = paper_spec(rows=8, cols=8, cam_type="acam")
    return spec if banks is None else replace(spec, banks=banks)


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


def _compile(stored, k, spec, **kw):
    stored = np.asarray(stored, dtype=np.float32)
    return C4CAMCompiler(spec).compile(
        _dot_model(stored, k), [placeholder((1, FEATURES))], **kw
    )


def _make_sharded(stored, k, spec, num_shards=None):
    shard_set = build_shard_set(
        np.asarray(stored, dtype=np.float32), 1, "dot", k, True, spec,
        num_shards=num_shards,
    )
    return ShardedSession(shard_set, spec, FEFET_45NM)


def _survivors(live):
    """The oracle store: surviving rows in ascending-id order."""
    return np.array([live[g] for g in sorted(live)], dtype=np.float32)


def _rows(rng, n, tie_heavy=False):
    if tie_heavy:
        return rng.choice([-1.0, 1.0], (n, FEATURES)).astype(np.float32)
    return rng.standard_normal((n, FEATURES)).astype(np.float32)


def _queries(rng, tie_heavy=False):
    return _rows(rng, BATCH, tie_heavy)


def _mutate_randomly(rng, store, live, n_ops, k, check, tie_heavy=False,
                     max_live=20):
    """Drive ``n_ops`` random mutations against ``store`` and the shadow
    ``live`` dict, calling ``check()`` on every query op and once at the
    end.  Deletes never drop the store below ``k`` rows (the oracle
    kernel needs k <= patterns); the all-tombstone schedule exercises
    that separately."""
    ops = ["insert", "delete", "update", "compact", "query"]
    weights = [0.3, 0.2, 0.15, 0.1, 0.25]
    for _ in range(n_ops):
        op = rng.choice(ops, p=weights)
        if op == "insert":
            if len(live) >= max_live:
                continue
            rows = _rows(rng, int(rng.integers(1, 3)), tie_heavy)
            ids = store.insert(rows)
            assert len(set(ids)) == len(rows)
            assert not set(ids) & set(live), "ids must never be reused"
            for gid, row in zip(ids, rows):
                live[gid] = row
        elif op == "delete":
            deletable = len(live) - k
            if deletable <= 0:
                continue
            count = int(rng.integers(1, deletable + 1))
            victims = list(
                rng.choice(sorted(live), size=count, replace=False)
            )
            store.delete(victims)
            for gid in victims:
                del live[int(gid)]
        elif op == "update":
            gid = int(rng.choice(sorted(live)))
            row = _rows(rng, 1, tie_heavy)[0]
            store.update(gid, row)
            live[gid] = row
        elif op == "compact":
            store.compact()
        else:
            check()
        assert store.pattern_count == len(live)
        assert store.row_ids() == sorted(live)
    check()


# --------------------------------------------------------------------------
# Path 2: query session (via the kernel mutation API)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(80))
def test_query_session_matches_rebuilt(seed):
    """Mutated single-machine session == fresh session over survivors."""
    rng = np.random.default_rng(10_000 + seed)
    spec = _spec()
    n0 = int(rng.integers(6, 14))
    k = int(rng.integers(1, 4))
    stored = _rows(rng, n0)
    kernel = _compile(stored, k, spec)
    live = {i: stored[i] for i in range(n0)}

    def check():
        queries = _queries(rng)
        got = kernel.run_batch(queries)
        want = _compile(_survivors(live), k, spec).run_batch(queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    _mutate_randomly(rng, kernel, live, n_ops=8, k=k, check=check)


@pytest.mark.parametrize("seed", range(20))
def test_query_session_matches_interpreter(seed):
    """Path 1 x path 2: the mutated session must equal the per-call
    interpreter walk over the surviving patterns."""
    rng = np.random.default_rng(20_000 + seed)
    spec = _spec()
    n0 = int(rng.integers(6, 12))
    k = int(rng.integers(1, 4))
    stored = _rows(rng, n0)
    kernel = _compile(stored, k, spec)
    live = {i: stored[i] for i in range(n0)}

    def check():
        queries = _queries(rng)
        got = kernel.run_batch(queries)
        percall = _compile(_survivors(live), k, spec, cache_session=False)
        values, indices = zip(*(percall(q[None, :]) for q in queries))
        assert np.array_equal(got[0], np.vstack(values))
        assert np.array_equal(got[1], np.vstack(indices))

    _mutate_randomly(rng, kernel, live, n_ops=6, k=k, check=check)


@pytest.mark.parametrize("seed", range(25))
def test_tie_heavy_schedules(seed):
    """±1 stores: nearly every score ties, so any slot-order leak in the
    mutation layer breaks the lowest-id tie-break instantly."""
    rng = np.random.default_rng(30_000 + seed)
    spec = _spec()
    n0 = int(rng.integers(6, 14))
    k = int(rng.integers(1, 4))
    uniques = _rows(rng, 3, tie_heavy=True)
    stored = uniques[rng.integers(0, 3, n0)]
    kernel = _compile(stored, k, spec)
    live = {i: stored[i] for i in range(n0)}

    def check():
        queries = uniques[rng.integers(0, 3, BATCH)]
        got = kernel.run_batch(queries)
        want = _compile(_survivors(live), k, spec).run_batch(queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    _mutate_randomly(rng, kernel, live, n_ops=8, k=k, check=check,
                     tie_heavy=True)


@pytest.mark.parametrize("seed", range(10))
def test_all_tombstone_then_refill(seed):
    """Deleting every pattern yields (B, 0) results on both the plain
    and the sharded path; refilling restores full identity."""
    rng = np.random.default_rng(40_000 + seed)
    spec = _spec()
    n0 = int(rng.integers(4, 8))
    k = 2
    stored = _rows(rng, n0)
    kernel = _compile(stored, k, spec)
    sharded = _make_sharded(stored, k, spec, num_shards=2)
    queries = _queries(rng)

    for store in (kernel, sharded):
        store.delete(list(range(n0)))
        assert store.pattern_count == 0
        values, indices = store.run_batch(queries)
        assert values.shape == (BATCH, 0)
        assert indices.shape == (BATCH, 0)

    refill = _rows(rng, n0)
    live = {}
    ids = kernel.insert(refill)
    sharded_ids = sharded.insert(refill)
    assert ids == sharded_ids, "refill ids must match across paths"
    for gid, row in zip(ids, refill):
        live[gid] = row
    want = _compile(_survivors(live), k, spec).run_batch(queries)
    for store in (kernel, sharded):
        got = store.run_batch(queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# --------------------------------------------------------------------------
# Path 3: sharded session (splits included)
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed, wide_k",
    [(seed, False) for seed in range(40)]
    + [(seed, True) for seed in range(20)],
    ids=[str(seed) for seed in range(40)]
    + [f"wide_k-{seed}" for seed in range(20)],
)
def test_sharded_matches_rebuilt(seed, wide_k):
    """Mutated shard group == freshly sharded survivors.  The spec caps
    banks, so insert-heavy schedules overflow the tail shard and split
    — the rebuilt oracle auto-shards, proving results are independent of
    the shard layout the mutations happened to produce.  ``wide_k``
    draws a ``k`` above a shard's compiled row count, which each shard
    only ranks when the group hands it the group's ``serve_k``."""
    rng = np.random.default_rng(50_000 + seed)
    spec = _spec(banks=2)
    n0 = int(rng.integers(6, 10))
    k = int(rng.integers(4, n0) if wide_k else rng.integers(1, 4))
    stored = _rows(rng, n0)
    session = _make_sharded(stored, k, spec, num_shards=2)
    live = {i: stored[i] for i in range(n0)}

    def check():
        queries = _queries(rng)
        got = session.run_batch(queries)
        want = _make_sharded(_survivors(live), k, spec).run_batch(queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    _mutate_randomly(rng, session, live, n_ops=8, k=k, check=check,
                     max_live=28)


def test_sharded_split_preserves_identity():
    """Deterministic split coverage: insert until the shard count grows,
    then compare against the auto-sharded rebuild."""
    rng = np.random.default_rng(99)
    spec = _spec(banks=2)
    stored = _rows(rng, 8)
    session = _make_sharded(stored, 3, spec, num_shards=2)
    live = {i: stored[i] for i in range(8)}
    before = session.num_shards
    for _ in range(300):
        row = _rows(rng, 1)[0]
        live[session.insert(row)[0]] = row
        if session.num_shards > before:
            break
    assert session.num_shards > before, "insert flood never split a shard"
    queries = _queries(rng)
    got = session.run_batch(queries)
    want = _make_sharded(_survivors(live), 3, spec).run_batch(queries)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# --------------------------------------------------------------------------
# Path 4: cluster (growth re-placement included)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_cluster_matches_rebuilt(seed):
    """Mutations through the cluster control plane: per-tenant identity
    against solo rebuilds, and the untouched tenant never drifts."""
    rng = np.random.default_rng(60_000 + seed)
    spec = _spec(banks=4)
    k = int(rng.integers(1, 4))
    stored_a = _rows(rng, int(rng.integers(6, 12)))
    stored_b = _rows(rng, int(rng.integers(6, 12)))
    compiler = C4CAMCompiler(spec)
    kernel_a = _compile(stored_a, k, spec)
    kernel_b = _compile(stored_b, k, spec)
    cluster = Cluster(spec, max_machines=4)
    try:
        cluster.admit(kernel_a, tenant_id="a")
        cluster.admit(kernel_b, tenant_id="b")
        live = {i: stored_a[i] for i in range(stored_a.shape[0])}
        queries = _queries(rng)
        want_b = _compile(stored_b, k, spec).run_batch(queries)

        class _TenantStore:
            """Adapts the tenant-addressed cluster API to the generic
            mutation driver."""

            def insert(self, rows):
                return cluster.insert(rows, tenant="a")

            def delete(self, ids):
                cluster.delete(ids, tenant="a")

            def update(self, gid, row):
                cluster.update(gid, row, tenant="a")

            def compact(self):
                return cluster.compact(tenant="a")

            @property
            def pattern_count(self):
                return cluster.pattern_count(tenant="a")

            def row_ids(self):
                return cluster.row_ids(tenant="a")

        def check():
            batch = _queries(rng)
            got = cluster.run_batch(batch, tenant="a")
            want = _compile(_survivors(live), k, spec).run_batch(batch)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            got_b = cluster.run_batch(queries, tenant="b")
            assert np.array_equal(got_b[0], want_b[0])
            assert np.array_equal(got_b[1], want_b[1])

        _mutate_randomly(rng, _TenantStore(), live, n_ops=6, k=k,
                         check=check)
    finally:
        cluster.shutdown()


def test_cluster_growth_replaces_not_evicts():
    """Deterministic growth coverage: flood one tenant with inserts
    until its banks overflow — the cluster must re-place (defragment),
    keep both tenants admitted, and stay bitwise identical."""
    rng = np.random.default_rng(7)
    spec = _spec(banks=4)
    k = 3
    stored_a = _rows(rng, 10)
    stored_b = _rows(rng, 8)
    cluster = Cluster(spec, max_machines=4)
    try:
        cluster.admit(_compile(stored_a, k, spec), tenant_id="a")
        cluster.admit(_compile(stored_b, k, spec), tenant_id="b")
        live = {i: stored_a[i] for i in range(10)}
        defrags = cluster.defrag_count
        for _ in range(200):
            row = _rows(rng, 1)[0]
            live[cluster.insert(row, tenant="a")[0]] = row
            if cluster.defrag_count > defrags:
                break
        assert cluster.defrag_count > defrags, \
            "insert flood never triggered a growth re-placement"
        assert set(cluster.tenant_ids) == {"a", "b"}
        queries = _queries(rng)
        got = cluster.run_batch(queries, tenant="a")
        want = _compile(_survivors(live), k, spec).run_batch(queries)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        got_b = cluster.run_batch(queries, tenant="b")
        want_b = _compile(stored_b, k, spec).run_batch(queries)
        assert np.array_equal(got_b[0], want_b[0])
        assert np.array_equal(got_b[1], want_b[1])
    finally:
        cluster.shutdown()


# --------------------------------------------------------------------------
# Mutate-during-serve schedules
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_mutate_during_serve(seed):
    """Mutations interleaved with in-flight micro-batches: a request
    submitted before the mutation barrier sees the old or the new store
    (never a torn mix); every request after the barrier sees exactly
    the new store."""
    rng = np.random.default_rng(70_000 + seed)
    spec = _spec()
    k = 2
    n0 = 8
    stored = _rows(rng, n0)
    kernel = _compile(stored, k, spec, num_replicas=2)
    live = {i: stored[i] for i in range(n0)}
    queries = _queries(rng)
    want_old = _compile(_survivors(live), k, spec).run_batch(queries)

    with kernel.serve(max_batch=2, max_wait=0.0) as engine:
        in_flight = [engine.submit(queries) for _ in range(4)]
        new_rows = _rows(rng, 2)

        def mutate(backend):
            ids = backend.insert(new_rows)
            backend.delete([0])
            return ids

        results = engine.mutate(mutate)
        # Deterministic id assignment keeps every replica's id space
        # identical — the barrier returns one id list per backend.
        assert all(r == results[0] for r in results)
        for gid, row in zip(results[0], new_rows):
            live[gid] = row
        del live[0]
        want_new = _compile(_survivors(live), k, spec).run_batch(queries)

        # Post-barrier requests see exactly the mutated store.
        after = engine.submit(queries).result(timeout=30)
        assert np.array_equal(after[0], want_new[0])
        assert np.array_equal(after[1], want_new[1])

        # Pre-barrier requests were served whole, before or after.
        for future in in_flight:
            values, indices = future.result(timeout=30)
            old = np.array_equal(values, want_old[0]) and np.array_equal(
                indices, want_old[1]
            )
            new = np.array_equal(values, want_new[0]) and np.array_equal(
                indices, want_new[1]
            )
            assert old or new, "in-flight request saw a torn store"


# --------------------------------------------------------------------------
# FusedPlan refresh: mutations interleaved with fused batches
# --------------------------------------------------------------------------


def _assert_same_plan(got, want):
    """``got`` (a session's refreshed plan) equals ``want`` (a fresh
    trace of the same session) byte for byte: stores, the exact gate's
    key, the BLAS operands (tombstoned columns included), the per-slot
    density flags and ``dense``, charge lists (the same subarray
    objects), ``n_alive``, ``host_energy`` and the live-slot set.  A
    store that cannot fuse is ``False`` on the session, ``None``
    fresh."""
    if not want:
        assert got is False
        return
    for name in ("stacked", "capacity", "features", "n_alive",
                 "host_energy", "search_charges", "read_charges",
                 "merge_charges", "dense"):
        assert getattr(got, name) == getattr(want, name), name
    assert got._full.tobytes() == want._full.tobytes()
    assert (got.live is None) == (want.live is None)
    if want.live is not None:
        np.testing.assert_array_equal(got.live, want.live)

    def stores(plan):
        slices = plan.slices
        return [t for sub in slices for t in sub] if plan.stacked else slices

    assert len(stores(got)) == len(stores(want))
    for (g0, g1, g), (w0, w1, w) in zip(stores(got), stores(want)):
        assert (g0, g1) == (w0, w1)
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert got.exact == want.exact
    assert (got.operands is None) == (want.operands is None)
    if want.operands is not None:
        for g, w in zip(got.operands, want.operands, strict=True):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_fused_invalidation_matches_unfused_oracle(seed):
    """Random mutation schedules interleaved with fused ``run_batch``:
    every mutation must keep the session's :class:`FusedPlan` object
    (the next batch refreshes it in place, equal to a fresh trace), and
    every refreshed plan must stay bitwise identical — results,
    candidate values and the full energy/latency accounting — to the
    retained unfused session walk driven through the same schedule."""
    rng = np.random.default_rng(654_000 + seed)
    k = int(rng.integers(1, 4))
    stored = _rows(rng, int(rng.integers(k + 2, 10)))
    fused_kernel = _compile(stored, k, _spec())
    oracle_kernel = _compile(stored, k, _spec(), fused=False)
    fused, oracle = fused_kernel.session(), oracle_kernel.session()
    live = {gid: row for gid, row in zip(fused.row_ids(), stored)}
    mutations = 0

    def check():
        queries = _queries(rng)
        rf = fused.run_batch(queries)
        ro = oracle.run_batch(queries)
        np.testing.assert_array_equal(rf[0], ro[0])
        np.testing.assert_array_equal(rf[1], ro[1])
        np.testing.assert_array_equal(fused.last_values, oracle.last_values)
        ef, eo = fused.last_report.energy, oracle.last_report.energy
        for field in ("search", "read", "merge", "host", "write"):
            assert getattr(ef, field) == getattr(eo, field), field
        assert (
            fused.last_report.query_latency_ns
            == oracle.last_report.query_latency_ns
        )
        assert fused.last_report.searches == oracle.last_report.searches
        _assert_same_plan(fused._fused_plan, build_fused_plan(fused))

    class _Tandem:
        """Apply every mutation to both sessions, keeping them in step."""

        def insert(self, rows):
            plan = fused._fused_plan
            ids = fused.insert(rows)
            assert oracle.insert(rows) == ids
            # A mutation keeps the plan; the next batch refreshes it.
            assert fused._fused_plan is plan
            return ids

        def delete(self, ids):
            plan = fused._fused_plan
            fused.delete(ids)
            oracle.delete(ids)
            assert fused._fused_plan is plan

        def update(self, gid, row):
            plan = fused._fused_plan
            fused.update(gid, row)
            oracle.update(gid, row)
            assert fused._fused_plan is plan

        def compact(self):
            plan = fused._fused_plan
            fused.compact()
            oracle.compact()
            assert fused._fused_plan is plan

        @property
        def pattern_count(self):
            assert fused.pattern_count == oracle.pattern_count
            return fused.pattern_count

        def row_ids(self):
            assert fused.row_ids() == oracle.row_ids()
            return fused.row_ids()

    _mutate_randomly(rng, _Tandem(), live, 30, k, check)
    assert fused.fused_runs == fused.batches_run > 0
    assert oracle.fused_runs == 0


def test_store_state_snapshots_survive_fusion():
    """``store_state()`` of a fused session restores onto a fresh
    session (fused or not) with bitwise-identical serving."""
    rng = np.random.default_rng(13)
    stored = _rows(rng, 8)
    kernel = _compile(stored, 2, _spec())
    session = kernel.session()
    queries = _queries(rng)
    session.run_batch(queries)          # build + use the plan
    session.insert(_rows(rng, 2))
    session.delete([0, 3])
    expected = session.run_batch(queries)
    state = session.store_state()
    for fused in (True, False):
        fresh = _compile(stored, 2, _spec(), fused=fused).session()
        fresh.restore(state)
        got = fresh.run_batch(queries)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])


def _report_tuple(report):
    """The accounting surface a fused run must reproduce exactly."""
    e = report.energy
    return (
        report.query_latency_ns, report.setup_latency_ns,
        report.searches, report.search_cycles, report.rows_written,
        e.search, e.read, e.merge, e.host, e.write, e.standby,
    )


def _query_sessions(store):
    """The query sessions (one fused plan each) behind ``store``."""
    for attr in ("replicas", "sessions"):
        inner = getattr(store, attr, None)
        if inner is not None:
            return [leaf for s in inner for leaf in _query_sessions(s)]
    return [store]


def _serve(store, queries):
    """Serve ``queries`` once on every replica (once on any other store):
    ``[values, indices, last_values..., report tuple]`` per serving copy,
    with one ``last_values`` per query session."""
    replicas = getattr(store, "replicas", [store])
    served = []
    for i, replica in enumerate(replicas):
        if replica is store:
            outputs = store.run_batch(queries)
        else:
            outputs = store.run_on(i, queries)
        outputs += [s.last_values for s in _query_sessions(replica)]
        served.append(outputs + [_report_tuple(replica.last_report)])
    return served


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g[:-1], w[:-1]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert g[-1] == w[-1]


def _refresh_pair(kind, stored, k):
    """``(fused, oracle)`` stores of ``kind`` over ``stored``.

    Every kind but ``analog`` is a binary TCAM, where ±1 dot similarity
    legalizes to Hamming: the kernel whose exact rewrite is gated on a
    two-value stored alphabet."""
    tcam = paper_spec(rows=8, cols=8)
    if kind == "sharded":
        spec = replace(tcam, banks=2)
        return tuple(
            ShardedSession(
                build_shard_set(
                    np.asarray(stored, dtype=np.float32), 1, "dot", k, True,
                    spec, num_shards=2,
                ),
                spec, FEFET_45NM, fused=fused,
            )
            for fused in (True, False)
        )
    spec, options = {
        "analog": (_spec(), {}),
        "replicated": (tcam, {"num_replicas": 2}),
        "stacked": (
            paper_spec(rows=32, cols=4, optimization_target="density"), {}
        ),
    }.get(kind, (tcam, {}))
    return tuple(
        _compile(stored, k, spec, fused=fused, **options).session()
        for fused in (True, False)
    )


@pytest.mark.parametrize("exact", [False, True])
def test_dense_flag_follows_a_dont_care_row(euclidean_kernel, exact):
    """A dense Euclidean store (analog, or integer codes that pass the
    exact gate): updating a live row to hold one don't-care cell clears
    the plan's ``dense`` flag, and deleting that row sets it again.
    Every batch serves bitwise like the unfused walk, and every
    refreshed plan equals a fresh trace."""
    rng = np.random.default_rng(4_100 + exact)

    def draw(n):
        rows = _rows(rng, n)
        return np.rint(4 * rows) if exact else rows

    stored = draw(10)
    fused, oracle = (
        C4CAMCompiler(_spec()).compile(
            euclidean_kernel(stored, k=3), [placeholder((1, FEATURES))],
            fused=flag,
        ).session()
        for flag in (True, False)
    )

    def serve(dense):
        queries = draw(BATCH)
        _assert_bitwise(_serve(fused, queries), _serve(oracle, queries))
        plan = fused._fused_plan
        assert plan.dense is dense
        assert (plan.exact is not None) is exact
        _assert_same_plan(plan, build_fused_plan(fused))

    serve(True)
    gid = fused.row_ids()[4]
    row = stored[4].copy()
    row[2] = DONT_CARE
    for session in (fused, oracle):
        session.update(gid, row)
    serve(False)
    for session in (fused, oracle):
        session.delete([gid])
    serve(True)


@pytest.mark.parametrize("kind", ["bipolar", "analog", "replicated",
                                  "sharded", "stacked"])
@pytest.mark.parametrize("seed", range(20))
def test_refreshed_plan_equals_fresh_trace(seed, kind):
    """After every mutation and batch, every session's refreshed
    :class:`FusedPlan` equals a fresh trace of it and serves bitwise like
    the unfused oracle (values, indices, ``last_values``, report).

    Random schedules of insert (growth included), delete, update,
    compact and ``restore``, plus three scripted steps: every row
    tombstoned then refilled; an explicit ``compact()`` of a store whose
    only tombstones are at the tail, which moves no row but lowers the
    high-water slot and with it the subarray merge charges; and a
    touched row whose valid bit is set behind the session's back, which
    must disengage the plan.  On ±1 stores the exact rewrite must stay
    engaged whenever the *live* rows hold two values: tombstoned slots
    hold zeros, which the alphabet gate must not count.
    """
    rng = np.random.default_rng(88_000 + seed)
    bipolar = kind != "analog"
    k = int(rng.integers(1, 4))
    n0 = int(rng.integers(k + 3, 12))
    stored = _rows(rng, n0, tie_heavy=bipolar)
    fused, oracle = _refresh_pair(kind, stored, k)
    if kind == "stacked":
        assert fused.program.plan.batches > 1
    live = {gid: row for gid, row in zip(fused.row_ids(), stored)}
    room = n0 if kind == "stacked" else 28
    snapshot = fused.store_state()

    def both(op, *args):
        got = getattr(fused, op)(*args)
        assert getattr(oracle, op)(*args) == got
        return got

    def serve():
        queries = _queries(rng, tie_heavy=bipolar)
        _assert_bitwise(_serve(fused, queries), _serve(oracle, queries))
        for session in _query_sessions(fused):
            plan = session._fused_plan
            _assert_same_plan(plan, build_fused_plan(session))
            rows = [session.pattern(i) for i in session.row_ids()]
            if bipolar and np.unique(rows).size == 2:
                assert plan.exact is not None, "alphabet gate disengaged"
        assert fused.row_ids() == oracle.row_ids() == sorted(live)

    def insert(count):
        rows = _rows(rng, min(count, room - len(live)), tie_heavy=bipolar)
        if len(rows):
            live.update(zip(both("insert", rows), rows))

    def delete(victims):
        both("delete", [int(g) for g in victims])
        for gid in victims:
            del live[int(gid)]

    serve()
    steps = list(rng.choice(
        ["insert", "delete", "update", "compact", "restore", "snapshot"],
        12, p=[0.3, 0.25, 0.15, 0.1, 0.1, 0.1],
    )) + ["refill", "tail"]
    for step in rng.permutation(steps):
        if step == "insert":
            insert(int(rng.integers(1, 4)))
        elif step == "delete" and live:
            count = int(rng.integers(1, len(live) + 1))
            delete(rng.choice(sorted(live), size=count, replace=False))
        elif step == "update" and live:
            gid = int(rng.choice(sorted(live)))
            row = _rows(rng, 1, tie_heavy=bipolar)[0]
            both("update", gid, row)
            live[gid] = row
        elif step == "compact":
            both("compact")
        elif step == "snapshot":
            snapshot = fused.store_state()
        elif step == "restore":
            both("restore", snapshot)
            live = {gid: row for gid, row in snapshot.rows}
        elif step == "refill":
            delete(sorted(live))
            serve()
            insert(n0)
        elif step == "tail":
            # Pack, then tombstone only the highest slots: compact()
            # moves nothing but lowers the high-water slot.
            while len(live) < 4:
                insert(4)
            both("compact")
            serve()
            delete(sorted(live)[-int(rng.integers(1, 3)):])
            serve()
            assert both("compact") == 0
        serve()

    # A touched slot whose valid bit disagrees with the slot directory
    # disengages the plan: the batch takes the unfused walk, bitwise the
    # oracle's walk over the same tampered machine, and a fresh trace
    # refuses the store too.
    leaves = [_query_sessions(store)[0] for store in (fused, oracle)]
    refill = _rows(rng, 1, tie_heavy=bipolar)
    for session in leaves:
        if not session.row_ids():
            session.insert(refill)
        session.delete(session.row_ids()[:1])
    slot = max(s for s in leaves[0]._touched_slots
               if not leaves[0]._alive[s])
    for session in leaves:
        sub, row, c0, c1 = next(session._slot_tiles(slot))
        session.machine.write_value(sub, np.ones(c1 - c0), row_offset=row)
    queries = _queries(rng, tie_heavy=bipolar)
    _assert_bitwise(_serve(leaves[0], queries), _serve(leaves[1], queries))
    assert leaves[0]._fused_plan is False
    assert build_fused_plan(leaves[0]) is None


# --------------------------------------------------------------------------
# Replicas: a replayed clone against a walked clone
# --------------------------------------------------------------------------


@pytest.fixture()
def traced_machines(monkeypatch):
    """Turn on every new machine's event trace, so that the order and
    setup-clock stamps of the programming writes can be compared."""
    init = CamMachine.__init__

    def traced(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.trace.enabled = True

    monkeypatch.setattr(CamMachine, "__init__", traced)


def _walked_clone(source, noise_seed):
    """The reference replica: a session built, and so walked, from
    ``source``'s compiled artifacts on a fresh machine, then restored to
    ``source``'s live store."""
    mutated = source.mutations or source.compactions
    if isinstance(source, ShardedSession):
        walked = ShardedSession(
            source.shard_set, source.spec, source.tech,
            func_name=source.func_name, noise_sigma=source.noise_sigma,
            noise_seed=noise_seed, fused=source.fused,
        )
        if mutated:
            walked.restore(source.store_state())
        return walked
    walked = QuerySession(
        source.module, source.spec, source.tech, source.parameters,
        source.program, func_name=source.func_name,
        noise_sigma=source.noise_sigma, noise_seed=noise_seed,
        fused=source.fused,
    )
    if mutated:
        walked.restore(source.store_state())
    return walked


def _assert_same_machine(got, want):
    """Hierarchy, counters, the order and stamps of every write and
    erase, and each subarray's cells, valid bits, writes and latches."""
    assert (got._banks, got._mats, got._arrays, got._sub_parent) == (
        want._banks, want._mats, want._arrays, want._sub_parent)
    assert got.energy.as_dict() == want.energy.as_dict()
    assert (got.total_searches, got.rows_written) == (
        want.total_searches, want.rows_written)
    for op in ("write", "erase"):
        assert got.trace.by_op(op) == want.trace.by_op(op), op
    for sub_id in range(want.subarrays_used):
        g, w = got.subarray(sub_id), want.subarray(sub_id)
        for name in ("_data", "_valid", "_scores"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert (g.writes, g.searches, g._scored_rows) == (
            w.writes, w.searches, w._scored_rows)


#: A session's programming figures, slot directory and counters.
_SESSION_STATE = (
    "setup_latency_ns", "per_query_latency_ns", "setup_energy_pj",
    "rows_written", "banks_used", "mats_used", "arrays_used",
    "subarrays_used", "array_base", "subarray_base", "_capacity",
    "_next_slot", "_next_id", "_dead", "_growth_groups", "_slot_ids",
    "_id_to_slot", "_sub_ids", "_row_groups", "mutations", "compactions",
    "serve_k", "batches_run", "fused_runs", "_time",
)


def _assert_same_replica(got, want):
    """``got`` and ``want`` hold bitwise the same machines and stores."""
    assert got.setup_report() == want.setup_report()
    if isinstance(want, ShardedSession):
        assert [(s.row_offset, s.stored.tobytes())
                for s in got.shard_set.shards] == [
            (s.row_offset, s.stored.tobytes())
            for s in want.shard_set.shards]
        assert (got._gid_map, got._next_gid) == (
            want._gid_map, want._next_gid)
        assert (got.mutations, got.compactions) == (
            want.mutations, want.compactions)
        assert len(got.sessions) == len(want.sessions)
        for g, w in zip(got.sessions, want.sessions):
            _assert_same_replica(g, w)
        return
    for name in _SESSION_STATE:
        assert getattr(got, name) == getattr(want, name), name
    assert got._alive.tobytes() == want._alive.tobytes()
    assert got._rows.keys() == want._rows.keys()
    for i, row in want._rows.items():
        assert got._rows[i].tobytes() == row.tobytes()
    _assert_same_machine(got.machine, want.machine)


def _assert_nothing_shared(replica, source):
    """No array of the replica's machines is one of the source's, or a
    tile of the recorded programming they share."""
    theirs = []
    for session in _query_sessions(source):
        machine = session.machine
        for sub_id in range(machine.subarrays_used):
            sub = machine.subarray(sub_id)
            theirs += [sub._data, sub._valid, sub._scores]
        theirs += [args[2] for args in session._programming.calls
                   if args[0] == "write_value"]
    for session in _query_sessions(replica):
        machine = session.machine
        for sub_id in range(machine.subarrays_used):
            sub = machine.subarray(sub_id)
            for mine in (sub._data, sub._valid, sub._scores):
                assert not any(np.shares_memory(mine, t) for t in theirs)


class _Both:
    """Applies each mutation to two stores, requiring equal returns."""

    def __init__(self, got, want):
        self.got, self.want = got, want

    def __getattr__(self, name):
        def both(*args):
            result = getattr(self.got, name)(*args)
            assert getattr(self.want, name)(*args) == result
            return result
        return both

    @property
    def pattern_count(self):
        assert self.got.pattern_count == self.want.pattern_count
        return self.got.pattern_count


def _replica_source(kind, stacked, noise, fused, rng):
    """``(source, k, room)``: a session of ``kind`` to clone, its top-k
    and the most live rows its mutations may reach.

    ``colocated`` programs the source after another tenant on a shared
    machine, so its slice starts past machine id 0 at every level; the
    density-stacked mapping cannot grow in place, so ``room`` keeps it
    within its compiled rows (a sharded one splits instead)."""
    k = int(rng.integers(1, 4))
    n0 = int(rng.integers(k + 3, 12))
    stored = _rows(rng, n0, tie_heavy=stacked)
    options = dict(noise_sigma=0.05 if noise else 0.0, noise_seed=7,
                   fused=fused)
    # Four-column subarrays: every row spans two tiles, so the walk
    # writes several tiles whose order the replay must keep.
    if stacked:
        spec = paper_spec(rows=32, cols=4, optimization_target="density")
    else:
        spec = replace(_spec(), cols=4)
    if kind == "sharded":
        # Two subarrays per machine, so a few inserts split a shard.
        spec = replace(spec, banks=1, mats_per_bank=1, arrays_per_mat=1,
                       subarrays_per_array=2)
        shard_set = build_shard_set(
            stored, 1, "dot", k, True, spec, num_shards=2,
        )
        source = ShardedSession(shard_set, spec, FEFET_45NM, **options)
        return source, k, n0 + 6 if stacked else 40
    kernel = _compile(stored, k, spec)
    machine = None
    if kind == "colocated":
        machine = CamMachine(spec, FEFET_45NM)
        neighbour = _compile(_rows(rng, 5, tie_heavy=stacked), 2, spec)
        QuerySession(neighbour.module, spec, FEFET_45NM,
                     neighbour.parameters, neighbour.query_programs[0],
                     machine=machine)
    source = QuerySession(
        kernel.module, spec, FEFET_45NM, kernel.parameters,
        kernel.query_programs[0], machine=machine, **options,
    )
    if kind == "colocated":
        assert source.subarray_base > 0 and source.array_base > 0
    return source, k, n0 - 1 if stacked else 28


@pytest.mark.usefixtures("traced_machines")
@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("mutated", [False, True],
                         ids=["compiled", "mutated"])
@pytest.mark.parametrize("stacked", [False, True], ids=["tiled", "stacked"])
@pytest.mark.parametrize("kind", ["private", "colocated", "sharded"])
def test_replayed_clone_equals_walked_clone(kind, stacked, mutated, fused,
                                            noise, request):
    """``clone()`` replays the source's recorded programming instead of
    walking the module.  The replica must equal a walked clone bitwise:
    machine hierarchy, every subarray's cells, valid bits, writes and
    latches, the order and stamps of every write, ``setup_report()``,
    ``per_query_latency_ns``, the slot directory and the fused plan it
    traced before returning (against a fresh trace).  It shares no array
    with its source, so mutating the source afterwards changes nothing.
    Then the same random batches and mutations give bitwise-equal
    results, ``last_values`` and reports on both."""
    rng = np.random.default_rng(
        [71_000, zlib.crc32(request.node.callspec.id.encode())]
    )
    source, k, room = _replica_source(kind, stacked, noise, fused, rng)
    live = {int(i): row for i, row in source.store_state().rows}

    def source_batch():
        source.run_batch(_queries(rng, tie_heavy=stacked))

    if mutated:
        _mutate_randomly(rng, source, live, n_ops=10, k=k,
                         check=source_batch, max_live=room)
        # Grow past the compiled footprint (split a shard off, when
        # sharded) — the replica replays the compiled programming only.
        width = lambda: (source.num_shards if kind == "sharded"
                         else source.growth_groups)
        before = width()
        while width() == before and len(live) < room:
            row = _rows(rng, 1, tie_heavy=stacked)
            live[source.insert(row)[0]] = row[0]
        if not stacked or kind == "sharded":
            assert width() > before
    replica = source.clone(noise_seed=11)
    walked = _walked_clone(source, noise_seed=11)
    for session in _query_sessions(replica):
        if fused and not noise:
            assert session._fused_plan is not None, "plan not traced"
            _assert_same_plan(session._fused_plan, build_fused_plan(session))
        else:
            assert session._fused_plan is None
    for got, origin in zip(_query_sessions(replica),
                           _query_sessions(source)):
        assert got._programming is origin._programming
    _assert_same_replica(replica, walked)
    _assert_nothing_shared(replica, source)

    source_live = dict(live)
    _mutate_randomly(rng, source, source_live, n_ops=4, k=k,
                     check=source_batch, max_live=room)

    def check():
        queries = _queries(rng, tie_heavy=stacked)
        _assert_bitwise(_serve(replica, queries), _serve(walked, queries))

    _mutate_randomly(rng, _Both(replica, walked), live, n_ops=10, k=k,
                     check=check, max_live=room)
    _assert_same_replica(replica, walked)
