"""C4CAM end-to-end compiler driver.

Glues the whole flow of paper Fig. 3 together::

    TorchScript (mini-torch trace)
      └─ import_graph                 (PyTorch MLIR converter)
         └─ torch-to-cim              (per-op execute blocks)
            └─ cim-fuse-ops           (merge execute blocks)
               └─ cim-similarity-match (Algorithm 1)
                  └─ cim-partition    (compulsory partitioning plan)
                     └─ cim-to-cam    (bufferize + hierarchy mapping)
                        └─ Interpreter over a CamMachine (simulator)

Typical usage::

    from repro.compiler import C4CAMCompiler
    from repro.arch import paper_spec

    compiler = C4CAMCompiler(paper_spec(rows=32, cols=64))
    kernel = compiler.compile(model, example_inputs=[...])
    outputs = kernel(queries)
    print(kernel.last_report.summary())

Execution model — program once, query many.  The CAM is a
program-once / query-many device: the first execution of a kernel opens
a cached :class:`~repro.runtime.session.QuerySession` that allocates the
hierarchy and programs every stored-pattern tile; subsequent calls
stream their queries against the live machine without re-programming.
``kernel(queries)`` therefore accepts *any* batch size (not only the
traced one), ``kernel.run_batch(Q)`` makes the batched entry point
explicit, and ``kernel.reset()`` drops the session for a from-scratch
machine.  Per-batch reports charge the one-time setup (write)
energy/latency separately from the query clock and expose
``throughput_qps``; see :mod:`repro.runtime.session` for the amortized
timing semantics.  Construct with ``cache_session=False`` to restore the
legacy fresh-machine-per-call behaviour (used as the baseline in
``benchmarks/test_batch_throughput.py``).

Capacity and sharding.  A bank-capped :class:`~repro.arch.spec.ArchSpec`
bounds what one machine stores; a kernel that overflows it raises
:class:`~repro.transforms.partitioning.CapacityError` (required vs.
available rows, never silent truncation).  ``compile(num_shards=...)``
instead splits the stored rows across N independently programmed
machines served by a :class:`~repro.runtime.sharding.ShardedSession`:
``num_shards=None`` (the default) auto-shards exactly when the store
overflows, an explicit count forces the split, and ``num_shards=1``
forces single-machine compilation (raising on overflow).  Sharded
results are bitwise identical to one unbounded machine; reports sum
energy/area across shards and take max-over-shards latency plus the
cross-shard merge (see :mod:`repro.runtime.sharding`).

Replication and serving.  ``compile(num_replicas=R)`` programs R
independent copies of the whole (possibly sharded) store — replicas
clone the compiled session without recompiling — and routes every batch
to the least-loaded copy
(:class:`~repro.runtime.serving.ReplicatedSession`); ``kernel.serve()``
opens the asynchronous micro-batching front door
(:class:`~repro.runtime.serving.ServingEngine`): submit single queries
or small batches, receive futures whose results are bitwise identical
to a direct ``run_batch`` on the same rows.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.arch.spec import ArchSpec
from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.dialects import cim as cim_d
from repro.frontend import import_graph, trace
from repro.frontend.torch_api import Graph, Tensor
from repro.ir.module import ModuleOp
from repro.ir.printer import print_module
from repro.ir.value import BlockArgument
from repro.passes.pass_manager import PassManager
from repro.runtime.cluster import Cluster, _check_tenant
from repro.runtime.executor import Interpreter
from repro.runtime.placement import plan_placement, tenant_demand
from repro.runtime.serving import ReplicatedSession, ServingEngine
from repro.runtime.session import QueryProgram, QuerySession, SessionError
from repro.runtime.sharding import (
    ShardedSession,
    ShardSet,
    build_shard_set,
    plan_shard_count,
)
from repro.simulator.machine import CamMachine
from repro.simulator.metrics import ExecutionReport
from repro.transforms import (
    CapacityError,
    CimFuseOpsPass,
    CimPartitionPass,
    CimToCamPass,
    SimilarityMatchingPass,
    TorchToCimPass,
    check_plan_capacity,
    plan_of,
    resolve_optimization,
)


def build_pipeline(spec: ArchSpec, lower_to_cam: bool = True) -> PassManager:
    """The standard C4CAM pass pipeline for ``spec``."""
    config = resolve_optimization(spec)
    pm = PassManager()
    pm.add(TorchToCimPass())
    pm.add(CimFuseOpsPass())
    pm.add(SimilarityMatchingPass())
    pm.add(CimPartitionPass(spec, use_density=config.use_density))
    if lower_to_cam:
        pm.add(CimToCamPass(spec, config))
    return pm


def _find_shardable_similarity(
    module: ModuleOp,
    parameters: Sequence[np.ndarray],
    func_name: str = "forward",
) -> Optional[dict]:
    """The single row-shardable similarity kernel of ``func_name``.

    Sharding slices the stored parameter by rows and recompiles each
    slice, so the traced function must *be* the similarity kernel: one
    ``cim.execute { cim.similarity }`` block whose results the function
    returns directly, whose stored operand is a captured parameter and
    whose query operand is the *only* traced input (sharded kernels are
    called with exactly one query batch).  Returns the kernel facts
    (stored array, cim-level metric/k/largest, shapes) or ``None`` when
    the model has any other structure.
    """
    func = module.lookup_symbol(func_name)
    if func is None:
        return None
    candidates = []
    for op in func.body.operations:
        if isinstance(op, cim_d.ExecuteOp):
            body = list(op.body.operations)
            if len(body) == 2 and isinstance(body[0], cim_d.SimilarityOp):
                candidates.append((op, body[0]))
    if len(candidates) != 1:
        return None
    execute, sim = candidates[0]
    terminator = next(
        (op for op in func.body.operations if op.name == "func.return"), None
    )
    if terminator is None:
        return None
    if list(terminator.operands) != list(execute.results):
        return None
    if not isinstance(sim.stored, BlockArgument) or not isinstance(
        sim.query, BlockArgument
    ):
        return None
    stored_outer = execute.inputs[sim.stored.index]
    query_outer = execute.inputs[sim.query.index]
    args = list(func.body.arguments)
    n_inputs = len(args) - len(parameters)
    if n_inputs != 1:
        return None
    if not (
        isinstance(stored_outer, BlockArgument)
        and any(stored_outer is arg for arg in args)
        and stored_outer.index >= n_inputs
    ):
        return None
    if not (
        isinstance(query_outer, BlockArgument)
        and any(query_outer is arg for arg in args)
        and query_outer.index < n_inputs
    ):
        return None
    stored = parameters[stored_outer.index - n_inputs]
    if tuple(stored.shape) != tuple(sim.stored.type.shape):
        return None
    query_type = sim.query.type
    return {
        "stored": stored,
        "metric": sim.metric,
        "k": sim.k,
        "largest": sim.largest,
        "patterns": sim.stored.type.shape[0],
        "features": sim.stored.type.shape[-1],
        "queries": query_type.shape[0] if query_type.rank == 2 else 1,
    }


class CompiledKernel:
    """A compiled, executable kernel bound to an architecture.

    Machine-lowered kernels execute through a cached
    :class:`~repro.runtime.session.QuerySession` (program once, query
    many); ``cache_session=False`` forces the legacy behaviour of a
    fresh machine and a full interpreter walk per call.  A kernel
    compiled with a :class:`~repro.runtime.sharding.ShardSet` keeps its
    ``module`` at the cim level and executes through a
    :class:`~repro.runtime.sharding.ShardedSession` instead — one
    programmed machine per stored-row shard, merged transparently.
    """

    def __init__(
        self,
        module: ModuleOp,
        spec: ArchSpec,
        tech: TechnologyModel,
        parameters: Sequence[np.ndarray],
        func_name: str = "forward",
        uses_machine: bool = True,
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
        query_programs: Sequence[QueryProgram] = (),
        cache_session: bool = True,
        shard_set: Optional[ShardSet] = None,
        num_replicas: int = 1,
        fused: bool = True,
    ):
        self.module = module
        self.spec = spec
        self.tech = tech
        self.parameters = list(parameters)
        self.func_name = func_name
        self.uses_machine = uses_machine
        self.noise_sigma = noise_sigma
        self.noise_seed = noise_seed
        self.query_programs = list(query_programs)
        self.cache_session = cache_session
        #: The compiled row layout (``None`` unsharded) that every opened
        #: session, ``reset()``'s included, starts from.  An insert that
        #: splits a shard changes the open session's layout, not this
        #: one; :attr:`num_shards` reads the live count.
        self.shard_set = shard_set
        self.num_replicas = num_replicas
        #: Serve batches through the traced FusedPlan fast path (the
        #: unfused per-stage walk stays available as the differential
        #: oracle via ``fused=False``).
        self.fused = bool(fused)
        self.last_report: Optional[ExecutionReport] = None
        self.last_machine: Optional[CamMachine] = None
        self._session: Optional[QuerySession] = None
        self._program_serves_function: Optional[bool] = None
        # Device noise decorrelates across calls: every execution draws a
        # fresh child seed from one deterministic SeedSequence, so equal
        # noise_seed still reproduces the same call-by-call realizations.
        self._noise_seq = np.random.SeedSequence(noise_seed)

    @property
    def num_shards(self) -> int:
        """Machines holding the store: the open session's count, which
        grows when an insert splits a shard, else the compiled layout's
        (1 unless compiled sharded)."""
        if self._session is not None:
            return self._session.num_shards
        return self.shard_set.num_shards if self.shard_set else 1

    @property
    def _serves_program(self) -> bool:
        """True when the kernel is machine-lowered with exactly one
        similarity program and its traced function returns exactly that
        program's (values, indices) — a model that reorders or
        post-processes the similarity outputs takes the full interpreter
        walk, which reproduces its dataflow."""
        if self._program_serves_function is None:
            func = self.module.lookup_symbol(self.func_name)
            self._program_serves_function = (
                self.uses_machine
                and len(self.query_programs) == 1
                and func is not None
                and self.query_programs[0].matches_function(func)
            )
        return self._program_serves_function

    @property
    def _sessionable(self) -> bool:
        """True when calls can stream through a cached QuerySession.

        Sharded kernels are always session-served: their shard modules
        are built to return the program results directly.
        """
        if self.shard_set is not None:
            return self.uses_machine
        return self.cache_session and self._serves_program

    def _open_session(self) -> QuerySession:
        if self.shard_set is not None:
            base = ShardedSession(
                self.shard_set,
                self.spec,
                self.tech,
                func_name=self.func_name,
                noise_sigma=self.noise_sigma,
                noise_seed=self._noise_seq.spawn(1)[0],
                fused=self.fused,
            )
            return self._replicate(base)
        if not self.uses_machine or len(self.query_programs) != 1:
            raise SessionError(
                "batched sessions need a machine-lowered kernel with "
                "exactly one similarity program"
            )
        if not self._serves_program:
            raise SessionError(
                "the traced function does not return the similarity "
                "program's (values, indices) directly; run it through "
                "__call__ so the interpreter reproduces its dataflow"
            )
        base = QuerySession(
            self.module,
            self.spec,
            self.tech,
            self.parameters,
            self.query_programs[0],
            func_name=self.func_name,
            noise_sigma=self.noise_sigma,
            noise_seed=self._noise_seq.spawn(1)[0],
            fused=self.fused,
        )
        return self._replicate(base)

    def _replicate(self, base):
        """Wrap the base session in R programmed replicas when asked."""
        if self.num_replicas <= 1:
            return base
        return ReplicatedSession(base, self.num_replicas)

    def session(self) -> QuerySession:
        """The cached query session, opened (machine programmed) lazily.

        With ``cache_session=False`` a *fresh* session is returned per
        call — the kernel keeps no machine state between executions."""
        if not self.cache_session:
            return self._open_session()
        if self._session is None:
            self._session = self._open_session()
        return self._session

    def reset(self) -> None:
        """Return the kernel to its compiled state: drop the cached
        session, so the next call allocates and programs a fresh machine
        from the compiled layout (shards an insert split are gone too)
        and restarts the noise sequence."""
        self._session = None
        self.last_report = None
        self.last_machine = None
        self._noise_seq = np.random.SeedSequence(self.noise_seed)

    # ------------------------------------------------------------ mutations
    # Live-store mutations (see repro.runtime.session): they require the
    # cached session path, so interpreter-only kernels and
    # cache_session=False kernels raise SessionError on first use.
    def _mutable_session(self):
        if not self.cache_session:
            raise SessionError(
                "store mutations need the cached session "
                "(cache_session=True): a fresh-machine-per-call kernel "
                "forgets every mutation on the next call"
            )
        return self.session()

    @property
    def pattern_count(self) -> int:
        """Live stored patterns on the kernel's session."""
        return self._mutable_session().pattern_count

    def row_ids(self) -> List[int]:
        """Ids of the live patterns in rank order."""
        return self._mutable_session().row_ids()

    def insert(self, patterns) -> List[int]:
        """Append patterns to the live store; returns their stable ids.

        Incremental: only the new rows are written (per-row write
        energy), never a full re-program.  While a :meth:`serve` engine
        is running, mutate through ``engine.mutate(...)`` instead so the
        write serializes against in-flight batches.
        """
        return self._mutable_session().insert(patterns)

    def delete(self, ids) -> None:
        """Tombstone stored patterns by id (masked out of every query
        until compaction reclaims their rows)."""
        self._mutable_session().delete(ids)

    def update(self, pattern_id: int, pattern) -> None:
        """Rewrite one stored pattern in place."""
        self._mutable_session().update(pattern_id, pattern)

    def compact(self) -> int:
        """Defragment the live store; returns rows moved."""
        return self._mutable_session().compact()

    def run_batch(self, queries: np.ndarray) -> List[np.ndarray]:
        """Answer a ``B×D`` query batch on the live session machine(s).

        Setup (pattern programming) is charged once per session; the
        batch report (``last_report``) accounts ``B ×`` the structural
        per-query latency and exposes ``throughput_qps``.  Sharded
        kernels fan the batch out to every shard machine and merge —
        their report sums energy over shards and takes max-over-shards
        latency plus the cross-shard merge.
        """
        session = self.session()
        outputs = session.run_batch(queries)
        self.last_report = session.last_report
        self.last_machine = session.machine
        return outputs

    def serve(
        self,
        max_batch: int = 32,
        max_wait: float = 0.002,
        time_scale: float = 0.0,
    ) -> ServingEngine:
        """An async serving engine over this kernel's live session(s).

        Opens (or reuses) the cached session — replicated across
        ``num_replicas`` machines when compiled with
        ``compile(num_replicas=...)`` — and returns a
        :class:`~repro.runtime.serving.ServingEngine`: ``submit()``
        single queries or small batches, get per-request futures whose
        results are bitwise identical to :meth:`run_batch` on the same
        rows.  Shut the engine down (or use it as a context manager)
        when done; the kernel's session stays programmed afterwards.
        """
        if not self._sessionable:
            raise SessionError(
                "serving requires a session-served kernel (a machine-"
                "lowered model returning its similarity results directly)"
            )
        return ServingEngine(
            self.session(),
            max_batch=max_batch,
            max_wait=max_wait,
            time_scale=time_scale,
        )

    def __call__(self, *inputs: np.ndarray) -> List[np.ndarray]:
        """Execute the kernel; returns the kernel outputs.

        Captured module parameters (e.g. the stored patterns) are
        appended automatically, matching the traced signature.  With a
        cached session (the default for machine-lowered kernels) the
        stored patterns are programmed on the first call only and any
        query-batch size is accepted; otherwise the machine is rebuilt
        and re-programmed per call and inputs must match the traced
        shapes.
        """
        if self.shard_set is not None:
            # Sharded kernels keep their module at the cim level; the
            # interpreter walk cannot reproduce the machine path, so
            # every execution goes through the shard sessions.
            if len(inputs) != 1:
                raise SessionError(
                    "a sharded kernel takes exactly one query batch"
                )
            return self.run_batch(inputs[0])
        if self._sessionable and len(inputs) == 1:
            return self.run_batch(inputs[0])
        machine = None
        if self.uses_machine:
            machine = CamMachine(
                self.spec,
                self.tech,
                noise_sigma=self.noise_sigma,
                noise_seed=self._noise_seq.spawn(1)[0],
            )
        interpreter = Interpreter(self.module, machine)
        all_inputs = list(inputs) + self.parameters
        outputs, report = interpreter.run_function(self.func_name, all_inputs)
        self.last_report = report
        self.last_machine = machine
        return outputs

    def mlir(self) -> str:
        """The compiled module as textual IR."""
        return print_module(self.module)


class C4CAMCompiler:
    """The user-facing compiler: trace, lower, and execute on a CAM."""

    def __init__(self, spec: ArchSpec, tech: TechnologyModel = FEFET_45NM):
        self.spec = spec
        self.tech = tech

    def import_torchscript(self, fn: Callable, example_inputs) -> tuple:
        """Trace ``fn`` and import it to torch-dialect IR.

        Returns ``(module, parameter_arrays)``.
        """
        graph = fn if isinstance(fn, Graph) else trace(fn, example_inputs)
        imported = import_graph(graph)
        return imported.module, imported.parameter_arrays

    def compile(
        self,
        fn: Callable,
        example_inputs: Sequence[Tensor],
        lower_to_cam: bool = True,
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
        cache_session: bool = True,
        num_shards: Optional[int] = None,
        num_replicas: int = 1,
        fused: bool = True,
    ) -> CompiledKernel:
        """Full pipeline: trace → torch IR → cim → cam.

        With ``lower_to_cam=False`` the kernel stays at the cim level and
        executes on the host reference path (useful for validation).
        ``noise_sigma`` enables device-variation modeling: Gaussian
        sensing noise on every match-line score (accuracy studies); the
        realization decorrelates across calls while staying reproducible
        for a fixed ``noise_seed``.  ``cache_session=False`` disables the
        program-once query session and re-programs the machine per call.

        ``num_shards`` controls multi-machine sharding of the stored
        rows: ``None`` (default) auto-shards exactly when the store
        overflows a bank-capped spec, an explicit count ``> 1`` forces
        that many machines, and ``1`` forces single-machine compilation —
        overflowing it raises
        :class:`~repro.transforms.partitioning.CapacityError`.

        ``num_replicas`` adds the throughput axis: R independently
        programmed copies of the whole (possibly sharded) store served
        through a :class:`~repro.runtime.serving.ReplicatedSession` —
        batches route to the least-loaded replica, results stay bitwise
        identical, and reports aggregate the concurrent deployment
        (``kernel.session().report()``).  Combine with
        :meth:`CompiledKernel.serve` for the async micro-batching front
        door.  Replication compiles *once* and walks the module once:
        replicas clone the session's artifacts and replay its recorded
        programming onto their own machines.

        ``fused`` (default on) serves batches through the traced
        :class:`~repro.runtime.fused.FusedPlan` — bitwise identical to
        the per-stage session walk, which ``fused=False`` retains as
        the differential oracle.
        """
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1 (or None for auto)")
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if not lower_to_cam and num_shards not in (None, 1):
            raise ValueError(
                "num_shards requires lower_to_cam=True: the host "
                "reference path has no machines to shard across"
            )
        if not lower_to_cam and num_replicas != 1:
            raise ValueError(
                "num_replicas requires lower_to_cam=True: the host "
                "reference path has no machines to replicate"
            )
        module, params = self.import_torchscript(fn, example_inputs)
        # Stage 1: lower to the cim level (fused similarity + plan).
        build_pipeline(self.spec, lower_to_cam=False).run(module)
        if not lower_to_cam:
            return CompiledKernel(
                module,
                self.spec,
                self.tech,
                params,
                uses_machine=False,
                noise_sigma=noise_sigma,
                noise_seed=noise_seed,
                cache_session=cache_session,
            )
        # Stage 2: decide the machine count, then lower to cam.
        config = resolve_optimization(self.spec)
        shard_set = None
        if num_shards != 1:
            kernel_info = _find_shardable_similarity(module, params)
            if kernel_info is not None:
                count = plan_shard_count(
                    kernel_info["patterns"],
                    kernel_info["features"],
                    kernel_info["queries"],
                    self.spec,
                    config.use_density,
                    num_shards,
                )
                if count > 1:
                    shard_set = build_shard_set(
                        kernel_info["stored"],
                        kernel_info["queries"],
                        kernel_info["metric"],
                        kernel_info["k"],
                        kernel_info["largest"],
                        self.spec,
                        config,
                        num_shards=count,
                    )
            elif num_shards is not None:
                raise SessionError(
                    "num_shards > 1 requires a model that is exactly one "
                    "similarity kernel returning its (values, indices) "
                    "directly"
                )
        programs: List[QueryProgram] = []
        if shard_set is None:
            # Surface overflows as CapacityError here (PassManager wraps
            # in-pass exceptions into PassError).
            for func in module.functions():
                for op in func.walk():
                    if isinstance(op, cim_d.SimilarityOp):
                        check_plan_capacity(
                            plan_of(op), self.spec, config.use_density
                        )
            cam = CimToCamPass(self.spec, config)
            PassManager([cam]).run(module)
            programs = list(cam.programs)
        kernel = CompiledKernel(
            module,
            self.spec,
            self.tech,
            params,
            uses_machine=True,
            noise_sigma=noise_sigma,
            noise_seed=noise_seed,
            query_programs=programs,
            cache_session=cache_session,
            shard_set=shard_set,
            num_replicas=num_replicas,
            fused=fused,
        )
        if num_replicas > 1 and not kernel._sessionable:
            raise SessionError(
                "num_replicas > 1 requires a session-served kernel: the "
                "traced function must return its similarity (values, "
                "indices) directly (and cache_session must stay enabled)"
            )
        return kernel

    def compile_many(
        self,
        models: Sequence[Callable],
        example_inputs: Sequence[Sequence[Tensor]],
        tenant_ids: Optional[Sequence[str]] = None,
        max_machines: Optional[int] = None,
        num_replicas: int = 1,
        **cluster_kwargs,
    ) -> Cluster:
        """Compile several kernels for co-residency on one machine fleet.

        Each model goes through :meth:`compile` for one machine
        (``num_shards=1``) and must be exactly one similarity kernel
        returning its ``(values, indices)`` directly — the same
        structural contract sharding and replication demand, since every
        tenant is served through the shared-machine session path.  The
        tenants' bank demands are then packed onto shared machines by
        :func:`~repro.runtime.placement.plan_placement`
        (first-fit-decreasing; ``max_machines=None`` grows the fleet on
        demand) — over-packing raises
        :class:`~repro.runtime.placement.PlacementError` (a
        :class:`~repro.transforms.partitioning.CapacityError`) at
        *compile time*, naming the tenant and its bank demand, and a
        tenant too large for one machine is refused rather than sharded.

        Returns a :class:`~repro.runtime.cluster.Cluster` that admitted
        the tenants in the plan's programming order — first fit over
        that order lands every tenant on its planned bank span, so
        ``tenant_ids`` lists the tenants in programming order, not
        submission order.  ``num_replicas`` gives every tenant that
        many serving lanes (``admit(lanes=)``); the remaining keyword
        arguments (``fused``, ``noise_sigma``, ``max_batch``, …)
        configure the :class:`~repro.runtime.cluster.Cluster`.
        """
        if len(models) != len(example_inputs):
            raise ValueError(
                f"{len(models)} models but {len(example_inputs)} example "
                f"input sets"
            )
        if not models:
            raise ValueError("compile_many needs at least one model")
        if tenant_ids is None:
            tenant_ids = [f"tenant{i}" for i in range(len(models))]
        elif len(tenant_ids) != len(models):
            raise ValueError(
                f"{len(models)} models but {len(tenant_ids)} tenant ids"
            )
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        # Plan before programming anything: an oversized tenant's
        # CapacityError carries its plan, so placement names it with
        # every tenant's demand instead of a bare kernel overflow.
        kernels, demands = {}, []
        for tenant_id, fn, example in zip(tenant_ids, models, example_inputs):
            try:
                kernel = self.compile(fn, example, num_shards=1)
            except CapacityError as exc:
                plan = exc.plan
            else:
                _check_tenant(kernel, self.spec, tenant_id)
                kernels[tenant_id] = kernel
                plan = kernel.query_programs[0].plan
            demands.append(tenant_demand(tenant_id, plan, self.spec))
        placement = plan_placement(demands, self.spec, max_machines)
        cluster = Cluster(
            self.spec, self.tech, max_machines=max_machines, **cluster_kwargs
        )
        for assignment in placement.assignments:
            cluster.admit(
                kernels[assignment.tenant_id],
                tenant_id=assignment.tenant_id,
                lanes=num_replicas,
            )
        return cluster

    def reference(
        self, fn: Callable, example_inputs: Sequence[Tensor]
    ) -> CompiledKernel:
        """The un-lowered torch-IR kernel (numpy golden model)."""
        module, params = self.import_torchscript(fn, example_inputs)
        return CompiledKernel(
            module, self.spec, self.tech, params, uses_machine=False
        )
