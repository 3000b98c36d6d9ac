"""What every execution mode shares: lane accounting and serving errors.

The execution layers — batched sessions
(:class:`~repro.runtime.session.QuerySession`), sharded capacity
(:class:`~repro.runtime.sharding.ShardedSession`), replicated throughput
(:class:`~repro.runtime.serving.ReplicatedSession`) and the multi-tenant
fleet (:class:`~repro.runtime.cluster.Cluster`) — all account traffic
per lane and fail requests with one error taxonomy:

* :class:`LaneStats` — serialized per-lane traffic totals, shared by
  replica lanes and cluster lanes.
* :class:`SessionError` (the module-level base every layer raises) and
  :class:`ClusterShutdown` (delivered to futures stranded by an evicted
  tenant or an aborting engine, so clients can tell a control-plane
  decision from a device failure).
"""

from __future__ import annotations

from dataclasses import replace

from repro.simulator.metrics import EnergyBreakdown, ExecutionReport

__all__ = [
    "ClusterShutdown",
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
    ``abort=True``, or when an evicted tenant's lane finds that the
    batch it took has no tenant left to serve — a deliberate lifecycle
    decision, not a device failure, so clients can resubmit elsewhere
    instead of treating the store as broken.
    """


class LaneStats:
    """Serialized totals of one backend's traffic (its "lane").

    The accumulation shape shared by replica lanes (one per copy in a
    :class:`~repro.runtime.serving.ReplicatedSession`), cluster lanes
    (one per tenant replica in a
    :class:`~repro.runtime.cluster.Cluster`) and a
    :class:`~repro.apps.matching.PatternMatcher`'s lookups: query work
    folds in per batch, the one-time setup baseline is charged once via
    the backend's ``setup_report()``.

    ``charge_setup=False`` starts a lane whose backend *survived* an
    accounting-epoch boundary without re-programming (a cluster
    defragmentation that only rebuilt other machines): the lane keeps
    its silicon footprint but re-charges neither write energy nor setup
    latency — summing epoch reports then counts each programming pass
    exactly once.

    The setup baseline is *live*, not a snapshot: mutable stores keep
    writing after the lane opens (incremental inserts, deletes and
    compaction moves), and those per-row charges must show up in the
    lane's report.  The lane therefore re-reads the backend's
    ``setup_report()`` on every :meth:`report` and,
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
