"""``python -m repro.cli`` — the c4cam command-line driver.

Mirrors an ``mlir-opt``-style workflow on the built-in HDC workload:

    python -m repro.cli --arch arch.json --dump-ir cam --stats
    python -m repro.cli --rows 64 --cols 64 --target density
    python -m repro.cli --pipeline torch-to-cim,cim-fuse-ops --dump-ir cim
    python -m repro.cli --batch 64 --stats   # one session, 64 queries
    python -m repro.cli --banks 1 --patterns 512 --shards 4  # multi-machine
    python -m repro.cli --replicas 2 --serve --batch 16  # async serving
    python -m repro.cli --tenants 3 --banks 2  # multi-tenant placement
    python -m repro.cli --mutate --patterns 12  # live insert/delete/update

The driver traces the paper's Fig. 4a kernel on synthetic data, runs the
requested pipeline, optionally prints the IR, executes on the simulated
CAM and reports the metrics.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.arch import ArchSpec, paper_spec
from repro.compiler import C4CAMCompiler, build_pipeline
from repro.frontend import placeholder
from repro.ir.printer import print_module
from repro.passes.pass_manager import PassError
from repro.passes.pipeline import PipelineError, build_pipeline_from_spec
from repro.simulator.analysis import format_report
from repro.transforms import CapacityError


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="c4cam",
        description="Compile and simulate a similarity kernel on a CAM.",
    )
    p.add_argument("--arch", help="architecture JSON file")
    p.add_argument("--rows", type=int, default=32, help="subarray rows")
    p.add_argument("--cols", type=int, default=32, help="subarray columns")
    p.add_argument(
        "--cam-type", default="tcam", choices=("bcam", "tcam", "mcam", "acam")
    )
    p.add_argument("--bits", type=int, default=1, help="bits per cell")
    p.add_argument(
        "--target", default="latency",
        choices=("latency", "power", "density", "power+density"),
        help="optimization target",
    )
    p.add_argument("--patterns", type=int, default=10)
    p.add_argument("--dims", type=int, default=1024)
    p.add_argument("--queries", type=int, default=4)
    p.add_argument(
        "--batch", type=int, metavar="N",
        help="serve N queries through one batched query session "
        "(patterns programmed once; reports amortized throughput)",
    )
    p.add_argument(
        "--banks", type=int, metavar="B",
        help="cap the machine at B banks (default: allocate on demand); "
        "a stored set overflowing the cap auto-shards across machines",
    )
    p.add_argument(
        "--shards", type=int, metavar="N",
        help="shard the stored patterns across N machines "
        "(default: auto — shard only when the store overflows one "
        "machine; 1 forces single-machine and fails on overflow)",
    )
    p.add_argument(
        "--replicas", type=int, metavar="R",
        help="program R independent replicas of the (possibly sharded) "
        "store and route batches to the least-loaded one (throughput, "
        "not capacity)",
    )
    p.add_argument(
        "--tenants", type=int, metavar="K",
        help="colocate K independent kernels (varying store sizes) on "
        "one shared machine fleet via multi-tenant bank placement and "
        "run a per-tenant batch each; reports per-tenant and fleet "
        "metrics (honours --banks for the machine cap and --replicas)",
    )
    p.add_argument(
        "--cluster", type=int, metavar="K",
        help="demo the dynamic cluster control plane: place K kernels "
        "on one shared fleet, serve a mixed-priority workload (odd tenants "
        "submit at --priority, even at 0), evict the first tenant "
        "(defragmenting re-placement) and re-serve the survivors; "
        "honours --banks and --batch",
    )
    p.add_argument(
        "--priority", type=int, default=1, metavar="P",
        help="priority class the --cluster demo's urgent tenants "
        "submit at (higher dispatches first; default 1)",
    )
    p.add_argument(
        "--mutate", action="store_true",
        help="demo the mutable store: query, then delete the best "
        "match, insert fresh patterns and update one in place — "
        "re-querying on the live machine with per-row write energy "
        "instead of a re-program (honours --banks and --shards)",
    )
    p.add_argument(
        "--serve", action="store_true",
        help="demo the async serving engine: submit the workload as "
        "individual queries through the micro-batching queue and report "
        "the aggregate deployment metrics (honours --batch as the "
        "request count and --replicas)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--dump-ir", choices=("torch", "cim", "cam"),
        help="print the IR after the given stage and exit",
    )
    p.add_argument(
        "--pipeline",
        help="comma-separated custom pass pipeline (overrides --dump-ir)",
    )
    p.add_argument(
        "--stats", action="store_true", help="print detailed metrics"
    )
    return p


def load_spec(args) -> ArchSpec:
    if args.arch:
        spec = ArchSpec.from_json(args.arch)
    else:
        spec = paper_spec(
            rows=args.rows,
            cols=args.cols,
            cam_type=args.cam_type,
            bits_per_cell=args.bits,
            optimization_target=args.target,
        )
    if args.banks is not None:
        from dataclasses import replace

        spec = replace(spec, banks=args.banks)
    return spec


def build_kernel(args):
    import repro.frontend.torch_api as torch

    rng = np.random.default_rng(args.seed)
    stored = rng.choice([-1.0, 1.0], (args.patterns, args.dims)).astype(
        np.float32
    )
    queries = rng.choice([-1.0, 1.0], (args.queries, args.dims)).astype(
        np.float32
    )

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
            return values, indices

    example = [placeholder((args.queries, args.dims))]
    return DotSimilarity(), example, queries


def _demo_pool(args, spec: ArchSpec, count: int, rng, num_replicas=1):
    """A :class:`~repro.apps.TenantPool` of ``count`` top-1 stores:
    tenant ``i`` stores ``patterns + i*patterns//2`` rows (so demands
    differ and the first-fit-decreasing packing is visible), all at
    ``--dims`` features."""
    from repro.apps import TenantPool

    pool = TenantPool(spec, num_replicas=num_replicas)
    for i in range(count):
        patterns = args.patterns + i * (args.patterns // 2)
        stored = rng.choice([-1.0, 1.0], (patterns, args.dims)).astype(
            np.float32
        )
        pool.add(f"tenant{i}", stored, k=1)
    return pool


def run_tenants_demo(args, spec: ArchSpec) -> int:
    """``--tenants K``: pack K kernels onto one fleet and query each.

    Serves ``--batch`` (default ``--queries``) queries per tenant of
    :func:`_demo_pool` — through the cluster's tenant-aware async path
    with ``--serve``, synchronously otherwise — then prints each
    tenant's own accounting and the fleet report.
    """
    rng = np.random.default_rng(args.seed)
    pool = _demo_pool(args, spec, args.tenants, rng, args.replicas or 1)
    n_queries = args.batch or args.queries
    try:
        cluster = pool.open(max_batch=max(1, n_queries // 2))
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"placed {cluster.describe()}")
    workloads = {
        tid: rng.choice([-1.0, 1.0], (n_queries, args.dims)).astype(
            np.float32
        )
        for tid in pool.tenant_ids
    }
    if args.serve:
        futures = {
            tid: [cluster.submit(q, tenant=tid) for q in queries]
            for tid, queries in workloads.items()
        }
        results = {
            tid: np.vstack([f.result()[1] for f in fs])
            for tid, fs in futures.items()
        }
        stats = cluster.stats()
        print(
            f"served {stats['requests_submitted']} requests in "
            f"{stats['batches_dispatched']} micro-batches "
            f"(tenants never coalesce together)"
        )
    else:
        results = {
            tid: pool.run(tid, queries)[1]
            for tid, queries in workloads.items()
        }
    for tid in pool.tenant_ids:
        report = pool.report(tid)
        print(
            f"{tid}: indices {results[tid].ravel().tolist()} | "
            f"{report.queries} queries on {report.banks_used} bank(s), "
            f"{report.energy.total:.2f} pJ, "
            f"{report.throughput_qps:.3e} queries/s"
        )
    fleet = pool.report()
    # Total energy (writes included) so the printed per-tenant figures
    # visibly sum to the fleet figure; summary() below shows the
    # query-only split.
    print(
        f"fleet: {fleet.queries} queries across {fleet.banks_used} "
        f"bank(s) on {cluster.num_machines} machine(s), "
        f"{fleet.energy.total:.2f} pJ total"
    )
    if args.stats:
        print(format_report(fleet, cluster))
    else:
        print(fleet.summary())
    pool.reset()
    return 0


def run_cluster_demo(args, spec: ArchSpec) -> int:
    """``--cluster K``: a living fleet — admit, prioritise, evict.

    Places the K tenants of :func:`_demo_pool` on one
    :class:`~repro.runtime.cluster.Cluster` (through
    :meth:`~repro.apps.TenantPool.open`, as ``--tenants`` does), serves
    every tenant a ``--batch`` (default ``--queries``) workload through
    the priority/deadline intake (odd tenants submit at ``--priority``,
    even at 0), then evicts the first tenant — its banks are reclaimed
    by a defragmenting re-placement — and re-serves a survivor to show
    the results did not move.
    """
    rng = np.random.default_rng(args.seed)
    pool = _demo_pool(args, spec, args.cluster, rng)
    ids = pool.tenant_ids
    try:
        cluster = pool.open()
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with cluster:
        print(cluster.describe())
        n_queries = args.batch or args.queries
        workloads = {
            tid: rng.choice([-1.0, 1.0], (n_queries, args.dims)).astype(
                np.float32
            )
            for tid in ids
        }
        futures = {
            tid: [
                cluster.submit(
                    q, tenant=tid,
                    priority=args.priority if i % 2 else 0,
                    deadline=0.005 if i % 2 else None,
                )
                for q in workloads[tid]
            ]
            for i, tid in enumerate(ids)
        }
        results = {
            tid: np.vstack([f.result(timeout=60)[1] for f in fs])
            for tid, fs in futures.items()
        }
        for i, tid in enumerate(ids):
            report = cluster.tenant_report(tid)
            print(
                f"{tid} (priority {args.priority if i % 2 else 0}): "
                f"indices {results[tid].ravel().tolist()} | "
                f"{report.queries} queries, "
                f"{report.energy.total:.2f} pJ"
            )
        survivor = ids[-1] if len(ids) > 1 else ids[0]
        before = cluster.run_batch(workloads[survivor], tenant=survivor)
        cluster.evict(ids[0])
        print(f"evicted {ids[0]!r}; defragmented fleet:")
        print(cluster.describe())
        if survivor != ids[0]:
            after = cluster.run_batch(workloads[survivor], tenant=survivor)
            identical = all(
                np.array_equal(x, y) for x, y in zip(before, after)
            )
            print(
                f"{survivor} results after defragmentation: "
                f"{'bitwise identical' if identical else 'DIVERGED'}"
            )
        fleet = cluster.report()
        print(
            f"fleet lifetime: {fleet.queries} queries, "
            f"{fleet.energy.total:.2f} pJ, "
            f"{cluster.defrag_count} defrag(s)"
        )
        if args.stats:
            print(format_report(fleet))
        else:
            print(fleet.summary())
    return 0


def run_mutate_demo(args, kernel, queries) -> int:
    """``--mutate``: exercise insert/delete/update on the live store.

    Queries, tombstones the first query's best match, inserts two fresh
    patterns, rewrites one survivor in place, and re-queries — all on
    the machine programmed by the first call.  Prints the incremental
    rows written by the mutations next to the store size so the
    delta-vs-reprogram saving is visible.
    """
    rng = np.random.default_rng(args.seed + 2)
    _values, indices = kernel.run_batch(queries)
    print(f"before: indices {indices.ravel().tolist()} "
          f"({kernel.pattern_count} stored patterns)")
    session = kernel.session()
    written0 = getattr(session, "rows_written", None)
    victim = int(indices[0, 0])
    kernel.delete([victim])
    new_ids = kernel.insert(
        rng.choice([-1.0, 1.0], (2, args.dims)).astype(np.float32)
    )
    survivor = kernel.row_ids()[0]
    kernel.update(
        survivor, rng.choice([-1.0, 1.0], args.dims).astype(np.float32)
    )
    print(f"deleted pattern {victim}, inserted {new_ids}, "
          f"updated {survivor} in place")
    _values, indices = kernel.run_batch(queries)
    print(f"after:  indices {indices.ravel().tolist()} "
          f"({kernel.pattern_count} stored patterns)")
    if written0 is not None:
        delta = session.rows_written - written0
        print(
            f"mutations wrote {delta} subarray row(s) incrementally — "
            f"a re-program would rewrite the full store"
        )
    moved = kernel.compact()
    print(f"compaction reclaimed the tombstone ({moved} row(s) moved)")
    if args.stats:
        print(format_report(kernel.last_report, kernel.last_machine))
    else:
        print(kernel.last_report.summary())
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.batch is not None and args.batch < 1:
        parser.error(f"--batch must be a positive query count, got {args.batch}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be a positive machine count, got {args.shards}")
    if args.replicas is not None and args.replicas < 1:
        parser.error(
            f"--replicas must be a positive replica count, got {args.replicas}"
        )
    if args.banks is not None and args.banks < 1:
        parser.error(f"--banks must be a positive bank count, got {args.banks}")
    if args.tenants is not None and args.tenants < 1:
        parser.error(
            f"--tenants must be a positive tenant count, got {args.tenants}"
        )
    if args.tenants is not None and args.shards is not None:
        parser.error("--tenants cannot be combined with --shards "
                     "(sharded tenants are not placeable)")
    if args.tenants is not None and (args.dump_ir or args.pipeline):
        parser.error("--tenants cannot be combined with --dump-ir or "
                     "--pipeline (the demo compiles several kernels)")
    if args.cluster is not None and args.cluster < 1:
        parser.error(
            f"--cluster must be a positive tenant count, got {args.cluster}"
        )
    if args.cluster is not None and (
        args.tenants is not None or args.shards is not None
        or args.dump_ir or args.pipeline
    ):
        parser.error("--cluster cannot be combined with --tenants, "
                     "--shards, --dump-ir or --pipeline (the demo "
                     "drives its own compilation)")
    if args.mutate and (
        args.serve or args.tenants is not None or args.cluster is not None
        or args.dump_ir or args.pipeline
    ):
        parser.error("--mutate cannot be combined with --serve, "
                     "--tenants, --cluster, --dump-ir or --pipeline "
                     "(it drives the synchronous kernel API)")
    spec = load_spec(args)
    compiler = C4CAMCompiler(spec)
    if args.cluster is not None:
        return run_cluster_demo(args, spec)
    if args.tenants is not None:
        return run_tenants_demo(args, spec)
    model, example, queries = build_kernel(args)

    def run_pipeline(pm, module) -> bool:
        """Run ``pm``; prints a friendly message on capacity overflow."""
        try:
            pm.run(module)
        except PassError as exc:
            if isinstance(exc.__cause__, CapacityError):
                print(f"error: {exc.__cause__}", file=sys.stderr)
                return False
            raise
        return True

    if args.pipeline:
        try:
            pm = build_pipeline_from_spec(args.pipeline, spec)
        except PipelineError as exc:
            parser.error(f"--pipeline: {exc}")
        module, _params = compiler.import_torchscript(model, example)
        if not run_pipeline(pm, module):
            return 1
        print(print_module(module))
        return 0

    if args.dump_ir:
        if args.dump_ir == "cam" and args.shards not in (None, 1):
            # Sharded kernels lower one module per machine; dump each.
            try:
                kernel = compiler.compile(
                    model, example, num_shards=args.shards
                )
            except (CapacityError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            for i, shard in enumerate(kernel.shard_set.shards):
                print(f"// shard {i} (rows {shard.row_offset}.."
                      f"{shard.row_offset + shard.rows - 1})")
                print(print_module(shard.module))
            return 0
        module, _params = compiler.import_torchscript(model, example)
        if args.dump_ir != "torch":
            pm = build_pipeline(spec, lower_to_cam=args.dump_ir == "cam")
            if not run_pipeline(pm, module):
                return 1
        print(print_module(module))
        return 0

    try:
        kernel = compiler.compile(
            model, example, num_shards=args.shards,
            num_replicas=args.replicas or 1,
        )
    except (CapacityError, ValueError) as exc:
        # CapacityError: the store overflows and sharding was refused;
        # ValueError: an unusable shard request (e.g. more shards than
        # stored patterns).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if kernel.num_shards > 1:
        print(f"sharded across {kernel.num_shards} machines")
    if kernel.num_replicas > 1:
        print(f"replicated across {kernel.num_replicas} copies")
    if args.mutate:
        return run_mutate_demo(args, kernel, queries)
    if args.serve:
        rng = np.random.default_rng(args.seed + 1)
        n_requests = args.batch or args.queries
        requests = rng.choice([-1.0, 1.0], (n_requests, args.dims)).astype(
            np.float32
        )
        # Size micro-batches so the demo visibly spreads work across
        # the replicas (two dispatch rounds each) instead of coalescing
        # the whole workload into one batch.
        max_batch = max(1, min(32, -(-n_requests // (2 * kernel.num_replicas))))
        with kernel.serve(max_batch=max_batch) as engine:
            futures = [engine.submit(q) for q in requests]
            indices = np.vstack([f.result()[1] for f in futures])
        stats = engine.stats()
        report = engine.report()
        print(f"predicted indices: {indices.ravel().tolist()}")
        print(
            f"served {stats['requests_submitted']} requests in "
            f"{stats['batches_dispatched']} micro-batches across "
            f"{engine.num_replicas} replica(s): "
            f"{report.throughput_qps:.3e} queries/s aggregate"
        )
        if args.stats:
            print(format_report(report, engine.session.machine))
        else:
            print(report.summary())
        return 0
    if args.batch:
        rng = np.random.default_rng(args.seed + 1)
        batch = rng.choice([-1.0, 1.0], (args.batch, args.dims)).astype(
            np.float32
        )
        _values, indices = kernel.run_batch(batch)
        report = kernel.last_report
        print(f"predicted indices: {indices.ravel().tolist()}")
        print(
            f"batch of {report.queries} queries: "
            f"{report.throughput_qps:.3e} queries/s "
            f"(setup {report.setup_latency_ns:.1f} ns charged once)"
        )
    else:
        _values, indices = kernel(queries)
        report = kernel.last_report
        print(f"predicted indices: {indices.ravel().tolist()}")
    if args.stats:
        print(format_report(report, kernel.last_machine))
    else:
        print(report.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
