"""Execution metrics: latency, energy, power, EDP.

Latency is tracked by the executor's timing model (ns); the machine
accumulates dynamic energy (pJ) per component and computes standby energy
from the powered-instance counts when an execution finishes.

Multi-machine executions combine per-machine reports two ways:

* :func:`aggregate_reports` — **shards** of one logical store answering
  the *same* batch in parallel: latencies take the max over shards (plus
  an explicit cross-shard merge cost) while energy, allocation and work
  counts sum — N machines burn N machines' worth of energy and silicon.
* :func:`merge_concurrent_reports` — **replicas** serving *disjoint*
  traffic concurrently: latency is the longest lane, but ``queries``
  sum, so ``throughput_qps`` reflects the concurrency replication buys.
* :func:`combine_serial_reports` — **tenants** time-multiplexing one
  machine (multi-tenant bank placement): latency sums (the shared
  fabric serves one tenant at a time) and the per-tenant allocation
  counts sum to the machine's — the fabric is counted once, since
  bank-granular tenants partition it exactly.
* :func:`combine_epoch_reports` — **epochs** of one deployment whose
  membership changes over time (a cluster admitting and evicting
  tenants, defragmenting between epochs): time and work sum across
  epochs, but the allocation counts take the peak — the fleet re-uses
  the same silicon across epochs rather than occupying new fabric.

Zero-query reports are first-class citizens of every combiner: a tenant
admitted but never queried contributes a lane report with ``queries=0``
and ``query_latency_ns=0.0``, and the per-query helpers
(:attr:`ExecutionReport.throughput_qps`,
:attr:`~ExecutionReport.per_query_latency_ns`,
:attr:`~ExecutionReport.per_query_energy_pj`,
:attr:`~ExecutionReport.power_mw`) return ``0.0`` instead of dividing
by zero, both on the idle lane and on any combination that stays at
zero queries or zero latency.

All combiners require every report to come from the same architecture
(:attr:`ExecutionReport.spec`): summing energies or maxing latencies
across different machine models is meaningless, so a mismatch raises
instead of silently producing a chimera report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


@dataclass
class EnergyBreakdown:
    """Dynamic energy per component, in pJ."""

    search: float = 0.0
    read: float = 0.0
    merge: float = 0.0
    host: float = 0.0
    write: float = 0.0
    standby: float = 0.0

    @property
    def query_total(self) -> float:
        """Energy attributable to query execution (excludes writes)."""
        return self.search + self.read + self.merge + self.host + self.standby

    @property
    def total(self) -> float:
        return self.query_total + self.write

    def as_dict(self) -> Dict[str, float]:
        return {
            "search": self.search,
            "read": self.read,
            "merge": self.merge,
            "host": self.host,
            "write": self.write,
            "standby": self.standby,
        }


@dataclass
class ExecutionReport:
    """Metrics of one compiled-kernel execution (one query batch).

    Latencies in ns, energies in pJ; helpers convert to derived units.
    """

    query_latency_ns: float = 0.0
    setup_latency_ns: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    banks_used: int = 0
    mats_used: int = 0
    arrays_used: int = 0
    subarrays_used: int = 0
    searches: int = 0
    search_cycles: int = 0
    #: Physical rows touched by the write port (initial programming plus
    #: incremental inserts/updates/erases) — the unit the amortized-setup
    #: model charges mutation energy in.
    rows_written: int = 0
    queries: int = 1
    #: The architecture this report was measured on (``None`` for legacy
    #: or host-path reports).  The multi-machine combiners refuse to mix
    #: reports from different specs.
    spec: Optional[object] = None

    @property
    def query_energy_pj(self) -> float:
        """Per-execution query energy (pJ), excluding data loading."""
        return self.energy.query_total

    @property
    def power_mw(self) -> float:
        """Average power during query execution (mW).

        pJ/ns = mW, so the ratio is direct.
        """
        if self.query_latency_ns <= 0:
            return 0.0
        return self.energy.query_total / self.query_latency_ns

    @property
    def edp(self) -> float:
        """Energy-delay product in nJ·s per query batch."""
        return (self.energy.query_total * 1e-3) * (self.query_latency_ns * 1e-9)

    @property
    def per_query_latency_ns(self) -> float:
        """Mean latency per query; 0.0 for a zero-query execution."""
        if self.queries <= 0:
            return 0.0
        return self.query_latency_ns / self.queries

    @property
    def per_query_energy_pj(self) -> float:
        """Mean query energy per query; 0.0 for a zero-query execution."""
        if self.queries <= 0:
            return 0.0
        return self.energy.query_total / self.queries

    @property
    def throughput_qps(self) -> float:
        """Steady-state queries per second over the query clock.

        Setup (pattern programming) is excluded: it is charged once per
        session, amortized away by batching (`QuerySession.run_batch`).
        """
        if self.query_latency_ns <= 0 or self.queries <= 0:
            return 0.0
        return self.queries / (self.query_latency_ns * 1e-9)

    def scaled(self, n_queries: int) -> "ExecutionReport":
        """Extrapolate a single-query report to ``n_queries`` sequential
        queries (writes are not repeated)."""
        e = self.energy
        return ExecutionReport(
            query_latency_ns=self.query_latency_ns * n_queries,
            setup_latency_ns=self.setup_latency_ns,
            energy=EnergyBreakdown(
                search=e.search * n_queries,
                read=e.read * n_queries,
                merge=e.merge * n_queries,
                host=e.host * n_queries,
                write=e.write,
                standby=e.standby * n_queries,
            ),
            banks_used=self.banks_used,
            mats_used=self.mats_used,
            arrays_used=self.arrays_used,
            subarrays_used=self.subarrays_used,
            searches=self.searches * n_queries,
            search_cycles=self.search_cycles,
            rows_written=self.rows_written,
            queries=self.queries * n_queries,
            spec=self.spec,
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"latency={self.query_latency_ns:.2f}ns "
            f"energy={self.energy.query_total:.2f}pJ "
            f"power={self.power_mw:.3f}mW "
            f"subarrays={self.subarrays_used} banks={self.banks_used}"
        )


def _common_spec(reports: Sequence[ExecutionReport], combiner: str):
    """The single arch spec behind ``reports``; raises on a mix.

    Reports without a recorded spec (legacy / host-path) are permissive:
    they combine with anything.  Two *different* recorded specs cannot be
    combined — maxing latencies or summing energies across machine
    models would silently fabricate a system that does not exist.
    """
    spec = None
    for report in reports:
        if report.spec is None:
            continue
        if spec is None:
            spec = report.spec
        elif report.spec != spec:
            raise ValueError(
                f"{combiner} cannot combine reports from different "
                f"architectures: all machines must share one ArchSpec "
                f"(got {spec!r} and {report.spec!r})"
            )
    return spec


def _combined_fields(reports: Sequence[ExecutionReport], combiner: str) -> dict:
    """The multi-machine field combinations both combiners share.

    Machines exist side by side whether they shard or replicate, so
    energies, allocation and work counts **sum**, ``search_cycles``
    stays a max (the busiest subarray anywhere) and setup latency is a
    max (machines program in parallel).  Only the latency/queries policy
    differs between the combiners.
    """
    energy = EnergyBreakdown()
    for report in reports:
        for key, value in report.energy.as_dict().items():
            setattr(energy, key, getattr(energy, key) + value)
    return dict(
        setup_latency_ns=max(r.setup_latency_ns for r in reports),
        energy=energy,
        banks_used=sum(r.banks_used for r in reports),
        mats_used=sum(r.mats_used for r in reports),
        arrays_used=sum(r.arrays_used for r in reports),
        subarrays_used=sum(r.subarrays_used for r in reports),
        searches=sum(r.searches for r in reports),
        search_cycles=max(r.search_cycles for r in reports),
        rows_written=sum(r.rows_written for r in reports),
        spec=_common_spec(reports, combiner),
    )


def aggregate_reports(
    reports: Sequence[ExecutionReport],
    merge_latency_ns: float = 0.0,
    merge_energy_pj: float = 0.0,
    queries: Optional[int] = None,
) -> ExecutionReport:
    """Combine per-shard reports into one honest multi-machine report.

    Shards run on separate machines in parallel, so latencies take the
    **max** over shards (plus the cross-shard merge cost, charged to
    latency and host energy) and energies, allocation counts and search
    totals **sum**; ``search_cycles`` stays a max (the busiest subarray
    anywhere).  ``queries`` defaults to the first shard's count (every
    shard sees the same batch).  All reports must come from the same
    :class:`~repro.arch.spec.ArchSpec` (``ValueError`` otherwise).  Used
    by :class:`repro.runtime.sharding.ShardedSession` and the sharded
    pattern matcher.
    """
    if not reports:
        raise ValueError("aggregate_reports needs at least one shard report")
    fields = _combined_fields(reports, "aggregate_reports")
    fields["energy"].host += merge_energy_pj
    return ExecutionReport(
        query_latency_ns=max(r.query_latency_ns for r in reports)
        + merge_latency_ns,
        queries=queries if queries is not None else reports[0].queries,
        **fields,
    )


def combine_serial_reports(
    reports: Sequence[ExecutionReport],
) -> ExecutionReport:
    """Combine per-tenant reports of kernels **time-multiplexing one
    machine** (multi-tenant bank placement).

    Colocated tenants occupy *disjoint* banks of the same fabric but the
    machine serves their batches one at a time, so query latency **sums**
    (the fabric is busy for the union of the tenants' batches) and so
    does setup latency (pattern programming shares the write path).
    Energy, queries, searches and the allocation counts sum as well —
    with bank-granular placement the tenants partition the fabric
    exactly, so the sum of per-tenant allocation *is* the machine's
    allocation, counted once.  ``search_cycles`` stays a max (the
    busiest subarray anywhere).  All reports must come from the same
    :class:`~repro.arch.spec.ArchSpec` (``ValueError`` otherwise).  Used
    by :class:`repro.runtime.cluster.Cluster` for each shared machine's
    view; machines of a fleet then merge via
    :func:`merge_concurrent_reports`.
    """
    if not reports:
        raise ValueError(
            "combine_serial_reports needs at least one tenant report"
        )
    fields = _combined_fields(reports, "combine_serial_reports")
    fields["setup_latency_ns"] = sum(r.setup_latency_ns for r in reports)
    return ExecutionReport(
        query_latency_ns=sum(r.query_latency_ns for r in reports),
        queries=sum(r.queries for r in reports),
        **fields,
    )


def merge_concurrent_reports(
    reports: Sequence[ExecutionReport],
) -> ExecutionReport:
    """Combine per-replica lane reports of a *replicated* deployment.

    Replicas are independent machines serving **disjoint** slices of the
    traffic at the same time, so the combined wall time is the longest
    lane (latency **max**) while ``queries``, energies, allocation and
    work counts **sum** — ``throughput_qps`` on the result therefore
    reflects the concurrency replication buys (R balanced replicas
    approach R× one machine's rate), and energy/area honestly scale with
    the replica count.  Setup latency is a max: replicas program in
    parallel.  All reports must come from the same
    :class:`~repro.arch.spec.ArchSpec` (``ValueError`` otherwise).  Used
    by :class:`repro.runtime.serving.ReplicatedSession`.
    """
    if not reports:
        raise ValueError(
            "merge_concurrent_reports needs at least one lane report"
        )
    return ExecutionReport(
        query_latency_ns=max(r.query_latency_ns for r in reports),
        queries=sum(r.queries for r in reports),
        **_combined_fields(reports, "merge_concurrent_reports"),
    )


def combine_epoch_reports(
    reports: Sequence[ExecutionReport],
) -> ExecutionReport:
    """Combine sequential *epochs* of one deployment over its lifetime.

    A fleet whose membership changes over time — a
    :class:`~repro.runtime.cluster.Cluster` admitting tenants, evicting
    them and defragmenting in between — closes an accounting epoch at
    every re-placement: the fleet report up to that moment is archived
    and fresh machines start a new one.  Epochs are strictly sequential
    on the wall clock, so query latency, setup latency (each epoch
    re-programs its machines), energy (writes genuinely re-paid),
    queries, searches and search cycles all **sum**; the allocation
    counts take the **max** over epochs — the deployment's peak
    footprint, since a rebuilt fleet reoccupies fabric rather than
    adding to it.  Zero-query epochs (an admit immediately followed by
    an evict) combine without disturbing any per-query figure.  All
    reports must come from the same :class:`~repro.arch.spec.ArchSpec`
    (``ValueError`` otherwise).
    """
    if not reports:
        raise ValueError(
            "combine_epoch_reports needs at least one epoch report"
        )
    fields = _combined_fields(reports, "combine_epoch_reports")
    fields["setup_latency_ns"] = sum(r.setup_latency_ns for r in reports)
    fields["search_cycles"] = sum(r.search_cycles for r in reports)
    fields["banks_used"] = max(r.banks_used for r in reports)
    fields["mats_used"] = max(r.mats_used for r in reports)
    fields["arrays_used"] = max(r.arrays_used for r in reports)
    fields["subarrays_used"] = max(r.subarrays_used for r in reports)
    return ExecutionReport(
        query_latency_ns=sum(r.query_latency_ns for r in reports),
        queries=sum(r.queries for r in reports),
        **fields,
    )
