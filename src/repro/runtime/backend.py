"""The :class:`ExecutionBackend` protocol: one contract, every mode.

The execution layers — batched sessions
(:class:`~repro.runtime.session.QuerySession`), sharded capacity
(:class:`~repro.runtime.sharding.ShardedSession`), replicated throughput
(:class:`~repro.runtime.serving.ReplicatedSession`) and the multi-tenant
fleet (:class:`~repro.runtime.cluster.Cluster`) — share width
validation, setup accounting, lane bookkeeping and lifecycle hooks.
This module is the shared floor they all stand on:

* :class:`ExecutionBackend` — the protocol every execution mode
  implements.  ``run_batch(queries, tenant=None)`` is the one query
  entry point (single-tenant backends require ``tenant=None``;
  multi-tenant backends require a tenant id), ``report()`` the
  accumulated deployment accounting, ``clone()`` an independently
  programmed copy, ``query_width(tenant)`` the feature dimension a
  submit must match, ``capacity_hints()`` the silicon footprint a
  control plane sizes placement decisions with, and ``setup_report()``
  the zero-query baseline a lane charges once.
* :class:`LaneStats` — serialized per-lane traffic totals, shared by
  replica lanes and cluster lanes.
* The serving error taxonomy: :class:`SessionError` (the module-level
  base every layer raises) and :class:`ClusterShutdown` (delivered to
  futures stranded by an evicted tenant or an aborting engine, so
  clients can tell a control-plane decision from a device failure).

Anything that implements this protocol can be served by the
:class:`~repro.runtime.serving.ServingEngine`, replicated by
:class:`~repro.runtime.serving.ReplicatedSession`, and placed, scaled
and evicted by the :class:`~repro.runtime.cluster.Cluster` control
plane — the per-request path choice mirroring hybrid data-plane designs
("A Tale of Two Paths") where the system picks a path per request, not
per deployment.

The protocol's load-bearing contract is **bitwise identity**: with
noise disabled, ``run_batch`` must return the same bits for the same
queries no matter which backend serves them — batched vs. sequential,
sharded vs. one oversized machine, replicated vs. direct, colocated
vs. private, before vs. after a cluster re-placement, and (since PR 9)
fused vs. the per-stage session walk.  Every backend serves through a
traced :class:`~repro.runtime.fused.FusedPlan` by default
(``fused=True``), and the identity extends to accounting: a fused
batch charges the identical energy/latency the unfused walk would.
The differential suites under ``tests/`` assert all of it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.simulator.metrics import EnergyBreakdown, ExecutionReport

__all__ = [
    "ClusterShutdown",
    "ExecutionBackend",
    "LaneStats",
    "SessionError",
]


class SessionError(RuntimeError):
    """The request cannot be served by this execution backend."""


class ClusterShutdown(SessionError):
    """The control plane retired the backend before serving the request.

    Delivered to still-pending futures when a tenant is evicted from a
    :class:`~repro.runtime.cluster.Cluster` or a
    :class:`~repro.runtime.serving.ServingEngine` shuts down with
    ``abort=True`` — a deliberate lifecycle decision, not a device
    failure, so clients can resubmit elsewhere instead of treating the
    store as broken.
    """


class ExecutionBackend:
    """The protocol every execution mode implements.

    Subclasses provide:

    * :meth:`run_batch` — answer one ``B×D`` query batch, returning
      ``[values, indices]`` and recording a per-batch
      :attr:`last_report`.  Single-tenant backends require
      ``tenant=None``; multi-tenant backends require a tenant id.
    * :meth:`report` — the accumulated deployment report.
    * :meth:`clone` — an independent copy sharing every compiled
      artifact but programming fresh machines.
    * :meth:`reset` — drop query-side state; patterns survive.
    * :meth:`query_width` — the feature dimension queries must match.
    * :meth:`setup_report` — the zero-query programming baseline.

    The base class supplies the tenant-validation helpers and the
    generic :meth:`capacity_hints` so control planes (the serving
    engine, the cluster) never introspect concrete session types.
    """

    #: Per-batch report of the most recent :meth:`run_batch`.
    last_report: Optional[ExecutionReport] = None

    # ------------------------------------------------------------- queries
    def run_batch(
        self, queries: np.ndarray, tenant: Optional[str] = None
    ) -> List[np.ndarray]:
        raise NotImplementedError

    # ------------------------------------------------------------ lifecycle
    def clone(self, noise_seed=None) -> "ExecutionBackend":
        raise NotImplementedError(
            f"{type(self).__name__} does not support clone()"
        )

    def reset(self) -> None:
        raise NotImplementedError

    # -------------------------------------------------------------- widths
    def query_width(self, tenant: Optional[str] = None) -> Optional[int]:
        """The feature dimension ``tenant``'s queries must have.

        ``None`` means the backend cannot tell (the first request pins
        it).  Single-tenant backends ignore ``tenant=None`` and raise on
        an explicit tenant id; multi-tenant backends require one.
        """
        self._require_no_tenant(tenant)
        return None

    def tenant_widths(self) -> Optional[Dict[str, int]]:
        """Per-tenant query widths, or ``None`` for single-tenant
        backends (the discriminator control planes branch on)."""
        return None

    @property
    def is_multi_tenant(self) -> bool:
        return self.tenant_widths() is not None

    def _require_no_tenant(self, tenant: Optional[str]) -> None:
        if tenant is not None:
            raise SessionError(
                f"{type(self).__name__} is single-tenant; do not pass a "
                f"tenant id (got {tenant!r})"
            )

    # -------------------------------------------------------------- report
    def report(self) -> ExecutionReport:
        raise NotImplementedError

    def setup_report(self) -> ExecutionReport:
        """A zero-query report of the backend's programming cost and
        silicon — the baseline a lane charges exactly once."""
        raise NotImplementedError

    def capacity_hints(self) -> Dict[str, int]:
        """The backend's silicon footprint, for placement decisions.

        ``machines`` is the physical machine count, the ``*_used``
        fields the allocated hierarchy (tenant-scoped for a colocated
        backend), ``replicas`` the concurrent serving lanes.
        """
        machines = getattr(self, "machines", None)
        return {
            "machines": len(machines) if machines is not None else 1,
            "replicas": getattr(self, "num_replicas", 1),
            "banks_used": getattr(self, "banks_used", 0),
            "mats_used": getattr(self, "mats_used", 0),
            "arrays_used": getattr(self, "arrays_used", 0),
            "subarrays_used": getattr(self, "subarrays_used", 0),
        }


class LaneStats:
    """Serialized totals of one backend's traffic (its "lane").

    The accumulation shape shared by replica lanes (one per copy in a
    :class:`~repro.runtime.serving.ReplicatedSession`) and cluster
    lanes (one per tenant replica in a
    :class:`~repro.runtime.cluster.Cluster`): query work folds in per
    batch, the one-time setup baseline is charged once via the
    backend's :meth:`ExecutionBackend.setup_report`.

    ``charge_setup=False`` starts a lane whose backend *survived* an
    accounting-epoch boundary without re-programming (a cluster
    defragmentation that only rebuilt other machines): the lane keeps
    its silicon footprint but re-charges neither write energy nor setup
    latency — summing epoch reports then counts each programming pass
    exactly once.

    The setup baseline is *live*, not a snapshot: mutable stores keep
    writing after the lane opens (incremental inserts, deletes and
    compaction moves), and those per-row charges must show up in the
    lane's report.  The lane therefore re-reads
    :meth:`ExecutionBackend.setup_report` on every :meth:`report` and,
    for a ``charge_setup=False`` lane, subtracts the programming already
    billed to earlier epochs.
    """

    def __init__(self, backend, charge_setup: bool = True):
        self._backend = backend
        if charge_setup:
            self._setup_offset_ns = 0.0
            self._write_offset_pj = 0.0
            self._rows_offset = 0
        else:
            snapshot = backend.setup_report()
            self._setup_offset_ns = snapshot.setup_latency_ns
            self._write_offset_pj = snapshot.energy.write
            self._rows_offset = snapshot.rows_written
        self.latency_ns = 0.0
        self.queries = 0
        self.searches = 0
        self.cycles = 0
        self.energy = EnergyBreakdown()

    @property
    def base(self) -> ExecutionReport:
        """The lane's current setup baseline (live, offsets deducted)."""
        base = self._backend.setup_report()
        if self._setup_offset_ns or self._write_offset_pj or self._rows_offset:
            energy = EnergyBreakdown(**base.energy.as_dict())
            energy.write = max(0.0, energy.write - self._write_offset_pj)
            base = replace(
                base,
                setup_latency_ns=max(
                    0.0, base.setup_latency_ns - self._setup_offset_ns
                ),
                energy=energy,
                rows_written=max(0, base.rows_written - self._rows_offset),
            )
        return base

    def add(self, report: ExecutionReport) -> None:
        """Fold one batch report into the lane.

        Batch reports each re-state the session's one-time setup (write)
        cost; the lane charges it once via :attr:`base` instead.
        """
        self.latency_ns += report.query_latency_ns
        self.queries += report.queries
        self.searches += report.searches
        self.cycles += report.search_cycles
        for key, value in report.energy.as_dict().items():
            if key != "write":
                setattr(self.energy, key, getattr(self.energy, key) + value)

    def report(self) -> ExecutionReport:
        base = self.base
        energy = EnergyBreakdown(**self.energy.as_dict())
        energy.write = base.energy.write
        return ExecutionReport(
            query_latency_ns=self.latency_ns,
            setup_latency_ns=base.setup_latency_ns,
            energy=energy,
            banks_used=base.banks_used,
            mats_used=base.mats_used,
            arrays_used=base.arrays_used,
            subarrays_used=base.subarrays_used,
            searches=self.searches,
            search_cycles=self.cycles,
            rows_written=base.rows_written,
            queries=self.queries,
            spec=base.spec,
        )
