"""The :class:`Cluster` control plane: one fleet, a living tenant set.

The Cluster is the runtime's one multi-tenant engine.  A tenant set
known up front (:meth:`~repro.compiler.C4CAMCompiler.compile_many`,
:class:`~repro.apps.TenantPool`) is planned at compile time and admitted
in the plan's programming order, so first fit reproduces the planned
bank spans.  But serving fleets are not static: kernels arrive, depart,
burst and starve, and priority/deadline dispatch, defragmenting
re-placement and queue-depth autoscaling all need one place to land.
This module is that place, and the one owner of tenancy in the
runtime: it places single-tenant sessions on shared machines and
serves each of a tenant's lanes through the
:class:`~repro.runtime.serving.ServingEngine`, which keeps only the
tenant affinity and tenant-pure batches those lanes need:

* **dynamic lifecycle** — :meth:`Cluster.admit` programs a compiled
  kernel onto the shared fleet at runtime (first-fit into free banks,
  opening machines up to ``max_machines``).  A tenant is one
  single-machine kernel: a store sharded across machines is refused,
  not placed.  :meth:`Cluster.evict` retires one, failing its
  still-pending futures with
  :class:`~repro.runtime.backend.ClusterShutdown` and **defragmenting**
  the survivors — banks are reclaimed by re-packing the remaining
  placed tenants onto fresh machines (:func:`plan_placement`), and
  because results depend only on a tenant's own compiled artifacts,
  every surviving tenant's ``run_batch`` stays **bitwise identical**
  across the re-placement.  When first-fit fails but a re-pack would
  make room, :meth:`admit` defragments instead of refusing.  Placement
  packs by bank demand alone (first fit on admit, first-fit-decreasing
  on a re-pack); a traffic-aware layout is planned offline, by
  :func:`plan_placement` with a
  :class:`~repro.runtime.costmodel.PlacementCost`.
* **priority/deadline dispatch** — :meth:`Cluster.submit` takes
  ``priority=`` (higher first) and ``deadline=`` (earliest-deadline-
  first within a priority class); the engine's
  :class:`~repro.runtime.serving.PriorityIntake` holds every request
  no lane is serving in that order, and never mixes tenants in a
  micro-batch.
* **queue-depth autoscaling** — when a tenant's queued rows exceed
  ``autoscale_backlog_rows`` per serving lane, the cluster clones the
  tenant's session onto a fresh private machine (a new lane, up to
  ``autoscale_max_lanes``); when the tenant's queue drains, scaled
  lanes retire.  Scaled machines are burst capacity and are not
  counted against ``max_machines``.

Accounting follows the fleet through every membership change: each
evict or defragmenting admit closes an **epoch** (the fleet report so
far is archived), surviving unrebuilt lanes roll over without
re-charging their programming cost, and :meth:`Cluster.report` sums the
epochs (:func:`~repro.simulator.metrics.combine_epoch_reports`) — so
writes are charged exactly once per actual programming pass, and a
tenant admitted then evicted still shows up in the lifetime energy.
A lane charges each batch while it still holds the machine lock, and
eviction retires the lane under that lock, so every batch an evicted
tenant's future received is in the lifetime report.

Tenant sessions are **fused** by default (``fused=True`` on the
cluster, threaded into every placed and autoscaled lane):
each tenant's batches replay its traced
:class:`~repro.runtime.fused.FusedPlan` instead of the per-stage
session walk.  The bitwise-identity guarantee is unchanged — results
*and* energy/latency accounting match the unfused oracle exactly, and
per-tenant mutations invalidate only that tenant's plan — so every
control-plane invariant above (isolation, re-placement identity,
epoch accounting) holds identically with fusion on or off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arch.spec import ArchSpec
from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.simulator.machine import CamMachine
from repro.simulator.metrics import (
    ExecutionReport,
    combine_epoch_reports,
    combine_serial_reports,
    merge_concurrent_reports,
)

from .backend import ClusterShutdown, LaneStats, SessionError
from .machineview import MachineGroupView
from .placement import plan_placement, tenant_demand
from .serving import ServingEngine, _Lane
from .session import QuerySession, StoreOverflow

__all__ = ["Cluster", "ClusterShutdown"]


class _LaneRecord(_Lane):
    """One of a tenant's serving lanes: the engine's lane and the
    control plane's record of it, one object.

    ``backend`` is the live session (a
    :class:`~repro.runtime.session.QuerySession` colocated on a shared
    machine for the primary lane, a private clone for a scaled lane),
    ``lock`` the mutual exclusion unit it shares with other lanes of
    the same physical machine, ``stats`` the current epoch's traffic.  ``generation``
    bumps whenever a defragmentation swaps the backend, so an in-flight
    serve that raced the swap retries against the fresh session.
    ``retired`` is set under the lane's lock when its tenant is evicted.
    """

    __slots__ = (
        "cluster", "stats", "scaled", "machine_index", "bank_offset",
        "banks", "generation", "retired",
    )

    def __init__(self, cluster, tenant, backend, lock, scaled=False,
                 machine_index=None, bank_offset=0, banks=0):
        super().__init__(backend, tenant=tenant, lock=lock)
        self.cluster = cluster
        self.stats = LaneStats(backend)
        self.scaled = scaled
        #: Shared-fleet machine index for a placed lane; None = private.
        self.machine_index = machine_index
        self.bank_offset = bank_offset
        self.banks = banks
        self.generation = 0
        self.retired = False

    @contextlib.contextmanager
    def bound(self):
        """Hold the lane's machine lock and yield the session the lane
        holds once it has the lock: a re-placement may swap both while
        the caller waits, and then the caller waits on the new lock."""
        while True:
            generation = self.generation
            backend, lock = self.backend, self.lock
            with lock:
                if self.generation == generation:
                    yield backend
                    return

    def serve(self, queries: np.ndarray):
        """Serve one batch on the lane's current session and charge it
        to the current epoch before the machine lock is released — so
        an eviction, which retires the lane under the same lock, either
        counts the batch in the tenant's final report or fails it with
        :class:`~repro.runtime.backend.ClusterShutdown` unserved."""
        with self.bound() as backend:
            if self.retired:
                raise ClusterShutdown(
                    f"tenant {self.tenant!r} was evicted before this "
                    "request ran"
                )
            outputs = backend.run_batch(queries)
            self.cluster._charge(self, backend.last_report)
            return outputs


class _Tenant:
    """One live tenant: its compiled kernel, lanes and accounting."""

    __slots__ = (
        "tenant_id", "kernel", "program", "width",
        "lanes", "retired_lanes", "epoch_reports", "scaling",
        "store_state", "extra_groups",
    )

    def __init__(self, tenant_id, kernel):
        self.tenant_id = tenant_id
        self.kernel = kernel
        #: The kernel's one similarity program, replayed on every lane.
        self.program = kernel.query_programs[0]
        self.width = self.program.plan.features
        self.lanes: List[_LaneRecord] = []
        #: Final reports of lanes retired mid-epoch (autoscale-down).
        self.retired_lanes: List[ExecutionReport] = []
        #: This tenant's closed accounting epochs.
        self.epoch_reports: List[ExecutionReport] = []
        self.scaling = False
        #: Live-store snapshot after the last mutation (None = the
        #: store still equals the compiled parameters); a defrag rebuild
        #: replays it onto the fresh machine.
        self.store_state = None
        #: Growth groups (whole-bank units) the store has claimed past
        #: its compiled footprint — inflates the placement demand so a
        #: re-pack reserves room instead of evicting.
        self.extra_groups = 0


def _check_tenant(kernel, spec: ArchSpec, tenant_id: str) -> None:
    """Refuse a kernel the fleet cannot serve as one tenant.

    A tenant is one single-machine kernel compiled for the fleet's spec
    whose traced function returns its one similarity program's
    ``(values, indices)`` — exactly what a placed session replays.
    Raises :class:`~repro.runtime.backend.SessionError` naming the
    tenant otherwise.
    """
    if kernel.spec != spec:
        raise SessionError(
            f"tenant {tenant_id!r} was compiled for a different ArchSpec "
            f"than the cluster's ({kernel.spec!r} vs {spec!r})"
        )
    if kernel.shard_set is not None:
        raise SessionError(
            f"tenant {tenant_id!r} is not placeable: its store spans "
            f"{kernel.shard_set.num_shards} machines, and a tenant lives "
            "on one (compile it with num_shards=1)"
        )
    if not kernel._serves_program:
        raise SessionError(
            f"tenant {tenant_id!r} is not placeable: cluster tenants must "
            "be machine-lowered kernels with exactly one similarity "
            "program returning its (values, indices) directly"
        )


class Cluster(MachineGroupView):
    """A shared CAM fleet with a dynamic tenant set and one request intake.

    Usage::

        cluster = Cluster(spec)
        cluster.admit(kernel_a, tenant_id="a")
        cluster.admit(kernel_b, tenant_id="b")
        cluster.run_batch(queries, tenant="a")          # synchronous
        future = cluster.submit(q, tenant="b",          # async, urgent
                                priority=1, deadline=0.005)
        cluster.evict("a")        # defragments; "b" results unchanged
        cluster.shutdown()

    ``admit`` accepts a single-machine
    :class:`~repro.compiler.CompiledKernel` (from
    :meth:`~repro.compiler.C4CAMCompiler.compile`) whose traced
    function returns its one similarity program's ``(values,
    indices)``.  The cluster is a context manager (clean exit drains,
    exceptional exit aborts).  It owns tenancy: the sessions it places
    are single-tenant, and each of a tenant's serving lanes is one
    :class:`_LaneRecord`.
    """

    _group_noun = "cluster"

    def __init__(
        self,
        spec: ArchSpec,
        tech: TechnologyModel = FEFET_45NM,
        max_machines: Optional[int] = None,
        max_batch: int = 32,
        max_wait: float = 0.002,
        time_scale: float = 0.0,
        autoscale_max_lanes: int = 1,
        autoscale_backlog_rows: Optional[int] = None,
        noise_sigma: float = 0.0,
        noise_seed=0,
        fused: bool = True,
    ):
        if max_machines is not None and max_machines < 1:
            raise ValueError("max_machines must be >= 1 (or None for auto)")
        if autoscale_max_lanes < 1:
            raise ValueError("autoscale_max_lanes must be >= 1")
        self.spec = spec
        self.tech = tech
        self.max_machines = max_machines
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.time_scale = time_scale
        self.autoscale_max_lanes = autoscale_max_lanes
        self.autoscale_backlog_rows = (
            2 * max_batch if autoscale_backlog_rows is None
            else autoscale_backlog_rows
        )
        self.noise_sigma = float(noise_sigma)
        self.fused = bool(fused)
        self._noise_seq = (
            noise_seed
            if isinstance(noise_seed, np.random.SeedSequence)
            else np.random.SeedSequence(noise_seed)
        )
        #: Re-entrant: admission can trigger a defragmentation which
        #: re-enters placement helpers.
        self._admit_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._shared_machines: List[CamMachine] = []
        self._shared_locks: List[threading.Lock] = []
        self._tenants: Dict[str, _Tenant] = {}
        self._admit_order: List[str] = []
        self._closed_epochs: List[ExecutionReport] = []
        self._engine: Optional[ServingEngine] = None
        self._closed = False
        self._admit_counter = 0
        self.defrag_count = 0
        self.autoscale_events: List[dict] = []
        self.last_report: Optional[ExecutionReport] = None
        self.batches_run = 0

    # ------------------------------------------------------------ topology
    @property
    def machines(self) -> List[CamMachine]:
        """Every physical machine: the shared fleet, then each scaled
        lane's private machine in admission order."""
        with self._admit_lock:
            return list(self._shared_machines) + [
                record.backend.machine
                for tid in self._admit_order
                for record in self._tenants[tid].lanes
                if record.machine_index is None
            ]

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def tenant_ids(self) -> List[str]:
        with self._admit_lock:
            return list(self._admit_order)

    @property
    def num_tenants(self) -> int:
        return len(self.tenant_ids)

    def tenant_lanes(self, tenant_id: str) -> int:
        """The tenant's live serving lane count (autoscaler observable)."""
        with self._admit_lock:
            return len(self._require(tenant_id).lanes)

    def bank_spans(self) -> Dict[str, tuple]:
        """Tenants' ``(machine_index, first_bank, banks)`` spans — the
        invariant surface the defragmentation tests check."""
        with self._admit_lock:
            return {
                tid: (primary.machine_index, primary.bank_offset,
                      primary.banks)
                for tid in self._admit_order
                for primary in [self._tenants[tid].lanes[0]]
            }

    def describe(self) -> str:
        """A human-readable map of the fleet (one line per tenant)."""
        with self._admit_lock:
            cap = (
                "unbounded" if self.spec.banks is None
                else f"{self.spec.banks} banks"
            )
            lines = [
                f"{len(self._admit_order)} tenant(s) on "
                f"{len(self._shared_machines)} shared machine(s) "
                f"({cap} each), {self.defrag_count} defrag(s):"
            ]
            for tid in self._admit_order:
                lanes = self._tenants[tid].lanes
                primary = lanes[0]
                lines.append(
                    f"  {tid!r}: machine {primary.machine_index} banks "
                    f"[{primary.bank_offset},"
                    f"{primary.bank_offset + primary.banks}), "
                    f"{len(lanes)} lane(s)"
                )
            return "\n".join(lines)

    # ------------------------------------------------------------ admission
    def admit(self, kernel, tenant_id: Optional[str] = None,
              lanes: Optional[int] = None) -> str:
        """Place and program one compiled kernel at runtime.

        ``kernel`` is a single-machine
        :class:`~repro.compiler.CompiledKernel` compiled for this
        cluster's spec (a sharded or post-processing kernel raises
        :class:`~repro.runtime.backend.SessionError`).  ``lanes``
        requests that many initial serving lanes (defaults to the
        kernel's ``num_replicas``; extra lanes are private clones).
        Returns the tenant id (auto-generated when not given).  Raises
        :class:`~repro.runtime.placement.PlacementError` when the fleet
        cannot hold the tenant even after defragmentation.
        """
        if lanes is None:
            lanes = kernel.num_replicas
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        with self._admit_lock:
            if self._closed:
                raise SessionError("the cluster is shut down; no admits")
            tid = tenant_id
            if tid is None:
                while True:
                    tid = f"tenant{self._admit_counter}"
                    self._admit_counter += 1
                    if tid not in self._tenants:
                        break
            if tid in self._tenants:
                raise SessionError(f"duplicate tenant id {tid!r}")
            _check_tenant(kernel, self.spec, tid)
            tenant = _Tenant(tid, kernel)
            self._admit_placed(tenant)
            self._tenants[tid] = tenant
            self._admit_order.append(tid)
            engine = self._engine
            if engine is not None:
                engine.register_tenant(tid, tenant.width)
                for record in tenant.lanes:
                    engine.add_lane(record)
        # Extra initial lanes clone outside the control-plane lock, like
        # autoscaled ones (see _add_scaled_lane).
        for _ in range(lanes - 1):
            self._add_scaled_lane(tid, reason="admit")
        return tid

    def _tenant_demand(self, tenant: _Tenant):
        """The tenant's bank demand, inflated by its store growth so a
        re-pack reserves the banks its grown store needs."""
        demand = tenant_demand(tenant.tenant_id, tenant.program.plan,
                               self.spec)
        if tenant.extra_groups:
            unit = max(
                1, self.spec.banks_needed(tenant.program.plan.col_tiles)
            )
            demand = dataclasses.replace(
                demand, banks=demand.banks + tenant.extra_groups * unit
            )
        return demand

    def _live_demands(self, extra: Optional[_Tenant] = None):
        demands = [
            self._tenant_demand(self._tenants[tid])
            for tid in self._admit_order
        ]
        if extra is not None:
            demands.append(self._tenant_demand(extra))
        return demands

    def _admit_placed(self, tenant: _Tenant) -> None:
        index = self._first_fit(self._tenant_demand(tenant).banks)
        if index is None and self._may_open_shared():
            self._shared_machines.append(self._fresh_machine())
            self._shared_locks.append(threading.Lock())
            index = len(self._shared_machines) - 1
        if index is not None:
            tenant.lanes.append(
                self._program_placed(tenant, index)
            )
            return
        # First fit failed on the fragmented fleet: a re-pack including
        # the newcomer may still hold everyone (raises PlacementError —
        # with the full per-tenant breakdown — when it cannot).
        self._defragment(newcomer=tenant)

    def _fresh_machine(self) -> CamMachine:
        return CamMachine(
            self.spec, self.tech, noise_sigma=self.noise_sigma,
            noise_seed=self._noise_seq.spawn(1)[0],
        )

    def _first_fit(self, banks: int) -> Optional[int]:
        if self.spec.banks is None:
            return 0 if self._shared_machines else None
        for index, machine in enumerate(self._shared_machines):
            if self.spec.banks - machine.banks_used >= banks:
                return index
        return None

    def _may_open_shared(self) -> bool:
        if self.spec.banks is None:
            return not self._shared_machines
        if self.max_machines is None:
            return True
        return len(self._shared_machines) < self.max_machines

    def _program_placed(
        self, tenant: _Tenant, index: int,
        expect_offset: Optional[int] = None,
    ) -> _LaneRecord:
        """Program one placed tenant at machine ``index``'s fill level."""
        machine = self._shared_machines[index]
        offset = machine.banks_used
        if expect_offset is not None and offset != expect_offset:
            raise SessionError(
                f"placement drift: tenant {tenant.tenant_id!r} planned "
                f"at bank {expect_offset} of machine {index} but the "
                f"machine holds {offset} banks"
            )
        session = QuerySession(
            tenant.kernel.module,
            self.spec,
            self.tech,
            tenant.kernel.parameters,
            tenant.program,
            func_name=tenant.kernel.func_name,
            noise_sigma=self.noise_sigma,
            noise_seed=self._noise_seq.spawn(1)[0],
            machine=machine,
            fused=self.fused,
        )
        # Pre-grow to the recorded growth footprint (deterministic bank
        # usage, matching the inflated placement demand), then replay
        # the live store onto the fresh machine with incremental
        # mutations.
        while session.growth_groups < tenant.extra_groups:
            session.grow()
        if tenant.store_state is not None:
            session.restore(tenant.store_state)
        return _LaneRecord(
            self, tenant.tenant_id, session, self._shared_locks[index],
            machine_index=index, bank_offset=offset,
            banks=machine.banks_used - offset,
        )

    # -------------------------------------------------------- defragmenting
    def _defragment(self, newcomer: Optional[_Tenant] = None,
                    extra_reports=()) -> None:
        """Close the accounting epoch and re-pack the placed tenants.

        Runs with every shared-machine lock held, so in-flight batches
        drain first.  Surviving placed tenants are re-programmed onto
        fresh machines per a fresh :func:`plan_placement` over the live
        set (raising :class:`~repro.runtime.placement.PlacementError`
        before anything moves when it does not fit) — their compiled
        artifacts are untouched, so results stay bitwise identical —
        and ``newcomer``, when given, is placed alongside them.
        Scaled lanes keep their private machines and roll their
        accounting over without re-charging setup.
        ``extra_reports`` (an evicted tenant's final lane reports) are
        folded into the closing epoch.
        """
        demands = self._live_demands(extra=newcomer)
        plan = (
            plan_placement(demands, self.spec, self.max_machines)
            if demands else None
        )
        locks = list(self._shared_locks)
        for lock in locks:
            lock.acquire()
        try:
            self._close_epoch(extra_reports)
            if plan is not None:
                self._shared_machines = [
                    self._fresh_machine() for _ in range(plan.num_machines)
                ]
                self._shared_locks = [
                    threading.Lock() for _ in self._shared_machines
                ]
                for assignment in plan.assignments:
                    if (newcomer is not None
                            and assignment.tenant_id == newcomer.tenant_id):
                        tenant = newcomer
                    else:
                        tenant = self._tenants[assignment.tenant_id]
                    record = self._program_placed(
                        tenant, assignment.machine_index,
                        expect_offset=assignment.bank_offset,
                    )
                    if tenant is newcomer and not tenant.lanes:
                        tenant.lanes.append(record)
                    else:
                        primary = tenant.lanes[0]
                        with self._stats_lock:
                            primary.backend = record.backend
                            primary.lock = record.lock
                            primary.stats = record.stats
                            primary.machine_index = record.machine_index
                            primary.bank_offset = record.bank_offset
                            primary.banks = record.banks
                            primary.generation += 1
            else:
                self._shared_machines, self._shared_locks = [], []
            self.defrag_count += 1
        finally:
            for lock in reversed(locks):
                lock.release()

    def _close_epoch(self, extra_reports=()) -> None:
        """Archive the fleet-so-far and restart every lane's accounting.

        ``extra_reports`` carries lanes that are leaving the fleet with
        this epoch (an evicted tenant's traffic) so the lifetime report
        keeps counting them.  Private lanes that survive keep their
        machines, so their fresh stats do not re-charge setup; placed
        lanes are about to be re-programmed and get fully-charged stats
        from the rebuild.
        """
        with self._stats_lock:
            epoch = self._epoch_report_unlocked(list(extra_reports))
            if epoch is not None:
                self._closed_epochs.append(epoch)
            for tid in self._admit_order:
                tenant = self._tenants[tid]
                parts = [
                    record.stats.report() for record in tenant.lanes
                ] + tenant.retired_lanes
                if parts:
                    tenant.epoch_reports.append(
                        merge_concurrent_reports(parts)
                    )
                tenant.retired_lanes = []
                for record in tenant.lanes:
                    # Surviving machines don't re-program, so the fresh
                    # epoch charges no setup; a defrag rebuild replaces
                    # the placed lanes' stats with fully-charged ones.
                    record.stats = LaneStats(
                        record.backend, charge_setup=False
                    )

    def _lane_groups(
        self, lane_report: Callable[[_LaneRecord], ExecutionReport]
    ) -> Tuple[List[ExecutionReport], List[ExecutionReport]]:
        """``(per-machine reports, private lane reports)`` over the live
        lanes: lanes sharing a shared machine combine serially (the
        fabric serves one batch, and programs one tenant, at a time);
        private lanes stand alone.  ``lane_report`` picks each lane's
        report.  Caller holds ``_admit_lock``."""
        by_machine: Dict[int, List[ExecutionReport]] = {}
        privates: List[ExecutionReport] = []
        for tid in self._admit_order:
            for record in self._tenants[tid].lanes:
                if record.machine_index is None:
                    privates.append(lane_report(record))
                else:
                    by_machine.setdefault(record.machine_index, []).append(
                        lane_report(record)
                    )
        machines = [
            combine_serial_reports(group) for group in by_machine.values()
        ]
        return machines, privates

    def _epoch_report_unlocked(
        self, extra_reports: Optional[List[ExecutionReport]] = None
    ) -> Optional[ExecutionReport]:
        """The current epoch's fleet report; caller holds _stats_lock."""
        machines, privates = self._lane_groups(
            lambda record: record.stats.report()
        )
        retired = [
            report
            for tid in self._admit_order
            for report in self._tenants[tid].retired_lanes
        ]
        parts = machines + list(extra_reports or []) + privates + retired
        if not parts:
            return None
        return merge_concurrent_reports(parts)

    # -------------------------------------------------------------- evict
    def evict(self, tenant_id: str, defragment: bool = True) -> None:
        """Retire one tenant at runtime.

        The tenant's queued requests fail with
        :class:`~repro.runtime.backend.ClusterShutdown` naming the
        tenant; batches its lanes are already serving finish normally
        and stay counted in the lifetime report.  A batch a lane took
        but had not started serving fails the same way.
        With ``defragment=True`` (default) the surviving tenants
        are re-packed onto fresh machines, reclaiming the evicted banks
        — their results stay bitwise identical.  ``defragment=False``
        leaves the survivors in place (the evicted banks stay dead
        until the next defragmentation).
        """
        with self._admit_lock:
            tenant = self._require(tenant_id)
            engine = self._engine
            error = ClusterShutdown(
                f"tenant {tenant_id!r} was evicted before this request ran"
            )
            if engine is not None:
                engine.drop_tenant(tenant_id)
                for record in tenant.lanes:
                    engine.remove_lane(record)
                engine.drain_tenant(tenant_id, error)
            # Retire each lane under its machine lock: a batch being
            # served finishes (and is charged) first, and a batch the
            # lane took but has not started fails unserved.  So the
            # final traffic captured next is every batch it served.
            for record in tenant.lanes:
                with record.lock:
                    record.retired = True
            with self._stats_lock:
                final = [
                    record.stats.report() for record in tenant.lanes
                ] + tenant.retired_lanes
            self._del_tenant(tenant_id)
            if defragment:
                self._defragment(extra_reports=final)
            else:
                self._close_epoch(extra_reports=final)

    def _del_tenant(self, tenant_id: str) -> None:
        del self._tenants[tenant_id]
        self._admit_order.remove(tenant_id)

    def _require(self, tenant_id: str) -> _Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise SessionError(
                f"no tenant {tenant_id!r} on this cluster; tenants: "
                f"{sorted(self._tenants)}"
            )
        return tenant

    def _resolve_tenant(self, tenant: Optional[str]) -> str:
        if tenant is not None:
            return tenant
        with self._admit_lock:
            if len(self._admit_order) == 1:
                return self._admit_order[0]
        raise SessionError(
            "this cluster serves several tenants; name one (tenants: "
            f"{sorted(self._tenants)})"
        )

    # ------------------------------------------------------------- serving
    def _charge(self, record: _LaneRecord, report: ExecutionReport) -> None:
        """Fold one served batch into the lane's current epoch."""
        with self._stats_lock:
            record.stats.add(report)
            self.last_report = report
            self.batches_run += 1

    def run_batch(self, queries, tenant: Optional[str] = None):
        """Serve one ``B×D`` batch synchronously on the tenant's
        primary lane; bitwise identical (noise disabled) to the
        tenant's kernel compiled and served alone.

        The primary lane is the one lane the autoscaler never retires,
        so a synchronous batch can never race a scale-down into
        orphaned accounting; scaled lanes serve the async path only.
        """
        tid = self._resolve_tenant(tenant)
        with self._admit_lock:
            record = self._require(tid).lanes[0]
        return record.serve(np.asarray(queries, dtype=np.float64))

    # ------------------------------------------------------------ mutations
    def insert(self, patterns, tenant: Optional[str] = None) -> List[int]:
        """Append patterns to a tenant's live store; returns stable ids.

        The mutation lands on the tenant's primary lane under its
        machine lock (in-flight batches finish first) and mirrors onto
        every scaled lane before returning — the completion barrier
        after which no lane serves the old store.  A tenant that
        outgrows its banks triggers a defragmenting **re-placement**
        with its demand inflated by the growth (not an eviction).
        """
        return self._mutate(tenant, lambda backend: backend.insert(patterns))

    def delete(self, ids, tenant: Optional[str] = None) -> None:
        """Tombstone stored patterns of a tenant by id."""
        self._mutate(tenant, lambda backend: backend.delete(ids))

    def update(self, pattern_id: int, pattern,
               tenant: Optional[str] = None) -> None:
        """Rewrite one stored pattern of a tenant in place."""
        self._mutate(
            tenant, lambda backend: backend.update(pattern_id, pattern)
        )

    def compact(self, tenant: Optional[str] = None) -> int:
        """Defragment a tenant's store; returns rows moved."""
        return self._mutate(tenant, lambda backend: backend.compact())

    def pattern_count(self, tenant: Optional[str] = None) -> int:
        """A tenant's live stored-pattern count."""
        with self._admit_lock:
            record = self._require(self._resolve_tenant(tenant)).lanes[0]
        return record.backend.pattern_count

    def row_ids(self, tenant: Optional[str] = None) -> List[int]:
        """A tenant's live pattern ids in rank order."""
        with self._admit_lock:
            record = self._require(self._resolve_tenant(tenant)).lanes[0]
        return record.backend.row_ids()

    def _mutate(self, tenant: Optional[str], op: Callable):
        """Run ``op`` on the tenant's primary backend, growing the
        placement on overflow, then mirror the store to scaled lanes."""
        tid = self._resolve_tenant(tenant)
        while True:
            with self._admit_lock:
                if self._closed:
                    raise SessionError(
                        "the cluster is shut down; no mutations"
                    )
                tenant_rec = self._require(tid)
                record = tenant_rec.lanes[0]
            grow = False
            with record.bound() as backend:
                try:
                    result = op(backend)
                except StoreOverflow:
                    grow = True
                else:
                    state = backend.store_state()
                    groups = backend.growth_groups
                    banks = backend.banks_used
            if not grow:
                break
            self._grow_tenant(tid)
        with self._admit_lock:
            tenant_rec = self._tenants.get(tid)
            scaled: List[_LaneRecord] = []
            if tenant_rec is not None:
                tenant_rec.store_state = state
                tenant_rec.extra_groups = groups
                record.banks = banks
                scaled = list(tenant_rec.lanes[1:])
        # Completion barrier: every scaled lane adopts the new store
        # (under its own lock, so an in-flight batch drains first)
        # before the mutation returns to the caller.
        for rec in scaled:
            with rec.lock:
                rec.backend.restore(state)
        return result

    def _grow_tenant(self, tenant_id: str) -> None:
        """A tenant's store outgrew its machine's free banks:
        reserve one more growth group and re-pack the fleet around it
        (re-placement, not eviction).  Raises
        :class:`~repro.runtime.placement.PlacementError` when even a
        re-pack cannot hold the grown tenant."""
        with self._admit_lock:
            tenant = self._require(tenant_id)
            tenant.extra_groups += 1
            try:
                self._defragment()
            except Exception:
                tenant.extra_groups -= 1
                raise

    def _ensure_engine(self) -> ServingEngine:
        with self._admit_lock:
            if self._closed:
                raise SessionError(
                    "the cluster is shut down; no new requests"
                )
            if self._engine is None:
                engine = ServingEngine(
                    None,
                    max_batch=self.max_batch,
                    max_wait=self.max_wait,
                    time_scale=self.time_scale,
                )
                engine.on_batch_done = self._on_batch_done
                for tid in self._admit_order:
                    tenant = self._tenants[tid]
                    engine.register_tenant(tid, tenant.width)
                    for record in tenant.lanes:
                        engine.add_lane(record)
                self._engine = engine
            return self._engine

    def submit(
        self,
        queries: np.ndarray,
        tenant: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ):
        """Enqueue one request; returns its future immediately.

        ``priority`` (higher = more urgent) picks the dispatch class;
        ``deadline`` (seconds from now) orders within the class —
        earliest deadline first.  Micro-batches coalesce same-tenant
        requests only.  The future fails with
        :class:`~repro.runtime.backend.ClusterShutdown` if the tenant
        is evicted (or the cluster shut down) before it is served.
        """
        tid = self._resolve_tenant(tenant)
        future = self._ensure_engine().submit(
            queries, tenant=tid, priority=priority, deadline=deadline
        )
        self._maybe_scale_up(tid)
        return future

    def pending_rows(self, tenant: Optional[str] = None) -> int:
        """Queued rows no lane has taken yet (the autoscaler's signal)."""
        engine = self._engine
        return 0 if engine is None else engine.pending_rows(tenant)

    # ---------------------------------------------------------- autoscaler
    def _scale_eligible(self, tenant_id: str, engine) -> bool:
        """Queue-depth eligibility: backlog beyond the per-lane
        threshold, headroom under ``autoscale_max_lanes``, not already
        scaling.  Caller holds the admit lock."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None or tenant.scaling:
            return False
        if len(tenant.lanes) >= self.autoscale_max_lanes:
            return False
        backlog = engine.pending_rows(tenant_id)
        return backlog > self.autoscale_backlog_rows * len(tenant.lanes)

    def _maybe_scale_up(self, tenant_id: str) -> None:
        with self._admit_lock:
            engine = self._engine
            if engine is None or not self._scale_eligible(tenant_id, engine):
                return
            self._tenants[tenant_id].scaling = True
        worker = threading.Thread(
            target=self._scale_up, args=(tenant_id,), daemon=True,
            name=f"cluster-scale-{tenant_id}",
        )
        worker.start()

    def _scale_up(self, tenant_id: str) -> None:
        try:
            self._add_scaled_lane(tenant_id, reason="queue-depth")
        finally:
            with self._admit_lock:
                tenant = self._tenants.get(tenant_id)
                if tenant is not None:
                    tenant.scaling = False

    def _add_scaled_lane(self, tenant_id: str, reason: str) -> None:
        """Clone the tenant's primary session onto a private machine and
        attach it as a new serving lane."""
        with self._admit_lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                return
            primary = tenant.lanes[0]
        # Under the primary lane's lock, so the clone copies a store no
        # mutation is midway through; outside the control-plane lock, so
        # admits/evicts/submits keep flowing meanwhile.
        with primary.bound() as source:
            backend = source.clone()
        with self._admit_lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None or self._closed:
                return  # evicted while the clone programmed: discard
            # A mutation that returned between the clone and here was
            # mirrored to the lanes attached then, not to this one.
            if tenant.store_state is not None:
                backend.restore(tenant.store_state)
            record = _LaneRecord(
                self, tenant_id, backend, threading.Lock(), scaled=True
            )
            tenant.lanes.append(record)
            if self._engine is not None:
                self._engine.add_lane(record)
            self.autoscale_events.append({
                "tenant": tenant_id,
                "action": "scale-up",
                "reason": reason,
                "lanes": len(tenant.lanes),
            })

    def _on_batch_done(self, record: _LaneRecord) -> None:
        """Engine completion hook, on the lane's own thread between two
        of its batches: retire the lane when it is a scaled lane and its
        tenant's queue is empty.  The lane holds no batch here, so the
        accounting it leaves behind is final."""
        tenant_id = record.tenant
        with self._admit_lock:
            tenant = self._tenants.get(tenant_id)
            engine = self._engine
            if tenant is None or engine is None:
                return
            if not record.scaled or record not in tenant.lanes:
                return
            if engine.pending_rows(tenant_id) > 0:
                return
            engine.remove_lane(record)
            tenant.lanes.remove(record)
            with self._stats_lock:
                tenant.retired_lanes.append(record.stats.report())
            self.autoscale_events.append({
                "tenant": tenant_id,
                "action": "scale-down",
                "lanes": len(tenant.lanes),
            })

    def trace_summary(self, tenant: Optional[str] = None) -> dict:
        """Per-phase (queue/coalesce/run/merge) p50/p99 spans of the
        async serving path — :meth:`ServingEngine.trace_summary`."""
        engine = self._engine
        if engine is None:
            return {"requests": 0, "phases": {}}
        return engine.trace_summary(tenant)

    # -------------------------------------------------------------- report
    def tenant_report(self, tenant_id: str) -> ExecutionReport:
        """One tenant's lifetime accounting: its live lanes (merged
        concurrently) plus its closed epochs (summed sequentially)."""
        with self._admit_lock:
            tenant = self._require(tenant_id)
            with self._stats_lock:
                parts = [
                    record.stats.report() for record in tenant.lanes
                ] + tenant.retired_lanes
                epochs = list(tenant.epoch_reports)
        if parts:
            epochs.append(merge_concurrent_reports(parts))
        if not epochs:
            return ExecutionReport(queries=0, spec=self.spec)
        return combine_epoch_reports(epochs)

    def report(self) -> ExecutionReport:
        """The fleet's lifetime report across every membership epoch.

        Within an epoch, tenants of one shared machine combine serially
        and machines concurrently (exactly the PR 4 fleet semantics);
        epochs then sum (:func:`combine_epoch_reports`) — writes are
        charged once per actual programming pass, evicted tenants'
        traffic stays counted, and allocation reflects the peak fleet.
        """
        with self._admit_lock:
            with self._stats_lock:
                current = self._epoch_report_unlocked()
            epochs = list(self._closed_epochs)
        if current is not None:
            epochs.append(current)
        if not epochs:
            return ExecutionReport(queries=0, spec=self.spec)
        return combine_epoch_reports(epochs)

    def setup_report(self) -> ExecutionReport:
        """Zero-query baseline of the current fleet (live lanes only),
        combined per machine exactly like :meth:`report`."""
        with self._admit_lock:
            machines, privates = self._lane_groups(
                lambda record: record.backend.setup_report()
            )
        if not machines and not privates:
            return ExecutionReport(queries=0, spec=self.spec)
        return merge_concurrent_reports(machines + privates)

    # ------------------------------------------------------------ lifecycle
    def shutdown(self, wait: bool = True, abort: bool = False) -> None:
        """Stop serving.  ``wait=True`` drains every submitted future;
        ``abort=True`` fails still-pending futures with
        :class:`~repro.runtime.backend.ClusterShutdown`.  Idempotent;
        the cluster refuses admits and submits afterwards."""
        with self._admit_lock:
            self._closed = True
            engine = self._engine
        if engine is not None:
            engine.shutdown(wait=wait, abort=abort)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None, abort=exc_type is not None)

    def stats(self) -> dict:
        """Control-plane counters: engine routing plus lifecycle."""
        engine = self._engine
        base = engine.stats() if engine is not None else {
            "requests_submitted": 0,
            "batches_dispatched": 0,
            "rows_dispatched": [],
        }
        with self._admit_lock:
            base.update({
                "tenants": list(self._admit_order),
                "lanes": {
                    tid: len(self._tenants[tid].lanes)
                    for tid in self._admit_order
                },
                "defrag_count": self.defrag_count,
                "autoscale_events": list(self.autoscale_events),
                "batches_run": self.batches_run,
            })
        return base

