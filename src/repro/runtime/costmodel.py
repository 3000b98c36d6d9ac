"""Predictive placement cost model: score a packing before paying for it.

Placement so far (PR 4/5) is pure bank-count first-fit-decreasing and
the autoscaler a queue-depth threshold — both blind to *traffic*.  Two
hot tenants packed onto one machine serialize
(:func:`~repro.simulator.metrics.combine_serial_reports`: the shared
fabric serves one batch at a time), while two cold tenants on separate
machines waste silicon.  This module is the missing judgement: a
:class:`PlacementCost` model that predicts, per tenant, what a
candidate packing will *cost* — latency, energy, interference — before
any machine is programmed, so the packer
(:func:`~repro.runtime.placement.plan_placement` with
``policy="cost"``), the :class:`~repro.runtime.cluster.Cluster`
re-pack and its cost-burdened autoscaler can all rank alternatives
against one yardstick.

The model is **calibrated**, not guessed.  A :class:`TenantProfile`
carries a tenant's measured per-query latency/energy (from any
:class:`~repro.simulator.metrics.ExecutionReport` the sim produced —
a probe batch, a serving lane's accumulated
:class:`~repro.runtime.backend.LaneStats`), and the composition rules
mirror the simulator's accounting exactly:

* **co-residency** — tenants of one machine serialize, so the machine's
  busy time for a traffic mix is the *sum* of the tenants' own batch
  latencies (:meth:`PlacementCost.predict_serial_latency_ns` ==
  ``combine_serial_reports``);
* **sharding** — shards answer in parallel and pay one host-side merge
  hop, so a sharded batch costs ``max(shard latencies) + B *
  host_topk_latency(candidates)``
  (:meth:`PlacementCost.predict_sharded_latency_ns` ==
  :func:`~repro.simulator.metrics.aggregate_reports` with the
  :class:`~repro.runtime.sharding.ShardedSession` hop);
* **setup amortization** — programming is charged once per session and
  amortized over the traffic it serves (the PR 1 model behind
  :attr:`ExecutionReport.throughput_qps` excluding setup), so a
  tenant's amortized setup share shrinks with its expected query count.

``tests/test_costmodel.py`` asserts these predictions against measured
sim numbers within tolerance across acam/tcam presets and
single/co-resident/sharded tenants.

On top of the calibrated composition sits the *scheduling* estimate:
given per-tenant :class:`TrafficHint` s (arrival rate, batch rows,
priority, deadline), a machine's offered load is ``sum(rate *
request_latency)`` and a tenant's predicted response inflates its own
service time by the co-residents' load with an M/G/1-flavoured
congestion factor — deterministic, monotone in foreign load, and
diverging as the machine saturates.  :meth:`PlacementCost.score`
reduces a whole packing to one comparable total (rate- and
priority-weighted response, with deadline violations surfaced and
penalized), which is the objective the cost
packer's local search minimizes.  A :class:`TrafficTrace` bundles one
hint per tenant and unrolls them into a deterministic arrival timeline
for replaying a packing on the sim clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.simulator.metrics import ExecutionReport

__all__ = [
    "CostBreakdown",
    "PlacementCost",
    "TenantProfile",
    "TrafficHint",
    "TrafficTrace",
]


# ---------------------------------------------------------------- profiles
@dataclass(frozen=True)
class TenantProfile:
    """One tenant's measured unit costs, the model's calibration input.

    ``per_query_latency_ns`` / ``per_query_energy_pj`` are the tenant's
    *own* marginal costs (its batches running alone on its banks — which
    colocation does not change: match-line scores are row-local, the
    fabric just serializes whole batches).  ``setup_latency_ns`` /
    ``setup_energy_pj`` are the one-time programming charge the
    amortization model spreads over the tenant's traffic.  ``banks`` is
    the placement footprint, ``queries_observed`` how much traffic the
    calibration saw (0 = structural estimate, no measurement).
    """

    tenant_id: str
    per_query_latency_ns: float
    per_query_energy_pj: float = 0.0
    setup_latency_ns: float = 0.0
    setup_energy_pj: float = 0.0
    banks: int = 1
    queries_observed: int = 0

    @classmethod
    def from_report(
        cls,
        tenant_id: str,
        report: ExecutionReport,
        banks: Optional[int] = None,
    ) -> "TenantProfile":
        """Calibrate a profile from any measured sim report (a probe
        batch's ``last_report``, a lane's accumulated report)."""
        return cls(
            tenant_id=tenant_id,
            per_query_latency_ns=report.per_query_latency_ns,
            per_query_energy_pj=report.per_query_energy_pj,
            setup_latency_ns=report.setup_latency_ns,
            setup_energy_pj=report.energy.write,
            banks=banks if banks is not None else max(1, report.banks_used),
            queries_observed=report.queries,
        )


# ----------------------------------------------------------------- traffic
@dataclass(frozen=True)
class TrafficHint:
    """One tenant's offered traffic, the scheduling input.

    ``rate_qps`` is the arrival rate in requests per second of *sim*
    time (only ratios matter for ranking placements, so any consistent
    unit works — the cluster feeds observed per-epoch query counts),
    ``batch_rows`` the typical rows per request, ``priority`` the
    dispatch class weight (higher = more urgent), ``deadline_s`` an
    optional per-request latency SLO in seconds of sim time.  Rates
    must be finite and deadlines finite and positive: an infinite rate
    has no arrival period, and a NaN poisons every score it touches.
    """

    tenant_id: str
    rate_qps: float = 1.0
    batch_rows: int = 1
    priority: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.rate_qps < math.inf:
            raise ValueError(
                f"rate_qps must be finite and >= 0, got {self.rate_qps}"
            )
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        deadline = self.deadline_s
        if deadline is not None and not 0.0 < deadline < math.inf:
            raise ValueError(
                f"deadline_s must be finite and > 0, got {deadline}"
            )


@dataclass(frozen=True)
class TrafficTrace:
    """The offered load: one traffic hint per tenant.

    :meth:`arrivals` unrolls the trace into a deterministic request
    timeline (evenly spaced per-tenant streams, phase-shifted so tenants
    interleave instead of stampeding), so replays are reproducible
    without an RNG — the soak benchmark replays one against each
    candidate packing.
    """

    hints: Tuple[TrafficHint, ...]

    def __post_init__(self):
        if not self.hints:
            raise ValueError("a TrafficTrace needs at least one hint")
        seen = set()
        for hint in self.hints:
            if hint.tenant_id in seen:
                raise ValueError(
                    f"duplicate tenant {hint.tenant_id!r} in trace"
                )
            seen.add(hint.tenant_id)

    def hint(self, tenant_id: str) -> TrafficHint:
        for hint in self.hints:
            if hint.tenant_id == tenant_id:
                return hint
        raise KeyError(f"no tenant {tenant_id!r} in this trace")

    def as_dict(self) -> Dict[str, TrafficHint]:
        return {hint.tenant_id: hint for hint in self.hints}

    def arrivals(self, horizon_s: float) -> List[Tuple[float, str]]:
        """The trace unrolled to ``(time_s, tenant_id)`` request
        arrivals over ``[0, horizon_s)``.

        Each tenant sends requests of ``batch_rows`` rows at a uniform
        period (``batch_rows / rate_qps``), phase-offset by its trace
        position — deterministic, so two replays see byte-identical
        timelines.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        out: List[Tuple[float, str]] = []
        count = len(self.hints)
        for index, hint in enumerate(self.hints):
            if hint.rate_qps <= 0:
                continue
            period = hint.batch_rows / hint.rate_qps
            phase = period * (index + 1) / (count + 1)
            t = phase
            while t < horizon_s:
                out.append((t, hint.tenant_id))
                t += period
        out.sort(key=lambda item: (item[0], item[1]))
        return out


# -------------------------------------------------------------- breakdown
@dataclass(frozen=True)
class CostBreakdown:
    """What a candidate packing is predicted to cost, per tenant.

    ``total`` is the single comparable objective (lower is better);
    the per-tenant maps explain it: predicted response latency per
    request, interference share of that response (the part co-residents
    add), predicted energy per request, and the per-machine offered
    load / utilization behind the congestion estimate.
    ``slo_violations`` names tenants whose predicted response exceeds
    their hinted deadline — the packer treats those as heavily
    penalized, not silently acceptable.
    """

    total: float
    latency_ns: Dict[str, float] = field(default_factory=dict)
    interference_ns: Dict[str, float] = field(default_factory=dict)
    energy_pj: Dict[str, float] = field(default_factory=dict)
    machine_load_ns: Tuple[float, ...] = ()
    utilization: Tuple[float, ...] = ()
    slo_violations: Tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [f"predicted cost {self.total:.3f} "
                 f"({len(self.machine_load_ns)} machine(s))"]
        for index, (load, rho) in enumerate(
            zip(self.machine_load_ns, self.utilization)
        ):
            lines.append(
                f"  machine {index}: load {load:.0f} ns/s "
                f"(utilization {rho:.3f})"
            )
        for tid in sorted(self.latency_ns):
            extra = ""
            if tid in self.slo_violations:
                extra = "  ** SLO VIOLATION **"
            lines.append(
                f"  {tid!r}: response {self.latency_ns[tid]:.1f} ns "
                f"(+{self.interference_ns[tid]:.1f} ns interference), "
                f"{self.energy_pj[tid]:.1f} pJ/request{extra}"
            )
        return "\n".join(lines)


# -------------------------------------------------------------- the model
class PlacementCost:
    """Predicted latency/energy/interference of candidate packings.

    ``profiles`` carries the calibrated per-tenant unit costs,
    ``hints`` the offered traffic (tenants without a hint default to a
    neutral 1-request/s single-row stream, so the model still ranks
    packings when only some tenants have traffic).  :meth:`score`
    weighs predicted response only; predicted energy is reported per
    tenant but does not enter the total.
    """

    #: Penalty multiplier applied to a tenant's weighted response when
    #: its predicted response misses its hinted deadline.
    slo_penalty = 1e3
    #: The traffic horizon (seconds) setup charges amortize over.
    amortize_window_s = 1.0
    #: Floor of the congestion factor's denominator, so an overloaded
    #: machine scores terribly instead of dividing by zero.
    saturation_floor = 0.05

    def __init__(
        self,
        profiles: Mapping[str, TenantProfile] | Iterable[TenantProfile],
        hints: Optional[
            Mapping[str, TrafficHint] | Iterable[TrafficHint]
        ] = None,
        tech: TechnologyModel = FEFET_45NM,
    ):
        if not isinstance(profiles, Mapping):
            profiles = {p.tenant_id: p for p in profiles}
        self.profiles: Dict[str, TenantProfile] = dict(profiles)
        if not self.profiles:
            raise ValueError("PlacementCost needs at least one profile")
        if hints is None:
            hints = {}
        elif not isinstance(hints, Mapping):
            hints = {h.tenant_id: h for h in hints}
        unknown = set(hints) - set(self.profiles)
        if unknown:
            raise ValueError(
                f"traffic hints name unprofiled tenants: {sorted(unknown)}"
            )
        self.hints: Dict[str, TrafficHint] = dict(hints)
        self.tech = tech

    # ------------------------------------------------------------- lookups
    def profile(self, tenant_id: str) -> TenantProfile:
        try:
            return self.profiles[tenant_id]
        except KeyError:
            raise KeyError(
                f"no profile for tenant {tenant_id!r}; profiled: "
                f"{sorted(self.profiles)}"
            ) from None

    def hint(self, tenant_id: str) -> TrafficHint:
        """The tenant's traffic hint (neutral default when absent)."""
        hint = self.hints.get(tenant_id)
        return hint if hint is not None else TrafficHint(tenant_id)

    @property
    def has_traffic(self) -> bool:
        """Whether any real traffic signal exists (the cost packer's
        precondition; without one FFD is the honest choice)."""
        return any(h.rate_qps > 0 for h in self.hints.values())

    # ------------------------------------------- calibrated composition
    def predict_query_latency_ns(
        self, tenant_id: str, queries: int = 1
    ) -> float:
        """A tenant's own batch latency for ``queries`` rows (solo)."""
        return queries * self.profile(tenant_id).per_query_latency_ns

    def predict_serial_latency_ns(
        self, served: Mapping[str, int]
    ) -> float:
        """One machine's busy time serving ``{tenant: queries}``.

        Co-resident tenants time-multiplex the fabric, so the machine
        is busy for the *sum* of their batch latencies — exactly
        :func:`~repro.simulator.metrics.combine_serial_reports`.
        """
        return sum(
            self.predict_query_latency_ns(tid, queries)
            for tid, queries in served.items()
        )

    def predict_energy_pj(self, tenant_id: str, queries: int = 1) -> float:
        """A tenant's dynamic query energy for ``queries`` rows."""
        return queries * self.profile(tenant_id).per_query_energy_pj

    def predict_sharded_latency_ns(
        self,
        shard_latencies_ns: Sequence[float],
        queries: int = 1,
        candidates: int = 1,
    ) -> float:
        """A sharded batch: parallel shards plus the host merge hop.

        ``shard_latencies_ns`` are the per-shard batch latencies for
        this batch size, ``candidates`` the merged top-k column count
        (``sum(min(k, shard_rows))``) — the
        :class:`~repro.runtime.sharding.ShardedSession` accounting:
        ``max(shards) + B * host_topk_latency(candidates)``.
        """
        if not shard_latencies_ns:
            raise ValueError("need at least one shard latency")
        hop = queries * self.tech.host_topk_latency(candidates)
        return max(shard_latencies_ns) + hop

    def amortized_setup_ns(self, tenant_id: str) -> float:
        """Per-request setup share under the PR 1 amortization model:
        programming is charged once and spread over the traffic the
        session serves inside the amortization window."""
        profile = self.profile(tenant_id)
        hint = self.hint(tenant_id)
        expected = max(
            1.0, hint.rate_qps * self.amortize_window_s * hint.batch_rows
        )
        return profile.setup_latency_ns / expected

    # ------------------------------------------------ scheduling estimate
    def request_latency_ns(self, tenant_id: str) -> float:
        """One typical request's own service time (batch_rows x unit)."""
        hint = self.hint(tenant_id)
        return self.predict_query_latency_ns(tenant_id, hint.batch_rows)

    def burden_ns(self, tenant_id: str) -> float:
        """Offered work: ns of machine busy time per second of traffic.

        The autoscaler's "most cost-burdened" signal and the packer's
        heat metric — rate x service, so a rare heavy tenant and a
        frequent light one compare honestly.
        """
        return self.hint(tenant_id).rate_qps * self.request_latency_ns(
            tenant_id
        )

    def machine_load_ns(self, tenant_ids: Iterable[str]) -> float:
        """A machine's offered load: the co-residents' summed burden.

        Summed in sorted tenant order: a float sum's last bits depend on
        its order, and callers pass sets, whose string order changes
        with each process's hash seed."""
        return sum(self.burden_ns(tid) for tid in sorted(tenant_ids))

    def response_ns(
        self, tenant_id: str, co_resident: Iterable[str]
    ) -> float:
        """Predicted per-request response on a machine shared with
        ``co_resident`` (tenant included or not — it is deduplicated).

        Own service + amortized setup, inflated by the foreign load's
        congestion: ``service * foreign_utilization / (1 - utilization)``
        — the deterministic M/G/1-flavoured estimate.  Monotone in
        foreign load and diverging toward saturation, which is all the
        packer's ranking needs; the calibrated composition rules above
        are what the tolerance tests pin to the simulator.
        """
        tids = set(co_resident) | {tenant_id}
        service = self.request_latency_ns(tenant_id)
        load = self.machine_load_ns(tids)
        foreign = load - self.burden_ns(tenant_id)
        rho = load * 1e-9
        rho_foreign = foreign * 1e-9
        congestion = rho_foreign / max(1.0 - rho, self.saturation_floor)
        return service * (1.0 + congestion) + self.amortized_setup_ns(
            tenant_id
        )

    def interference_ns(
        self, tenant_id: str, co_resident: Iterable[str]
    ) -> float:
        """The share of predicted response the co-residents add."""
        return self.response_ns(tenant_id, co_resident) - self.response_ns(
            tenant_id, ()
        )

    # ---------------------------------------------------------- the score
    def score_groups(
        self, groups: Sequence[Sequence[str]]
    ) -> CostBreakdown:
        """Score a packing given as per-machine tenant groups."""
        latency: Dict[str, float] = {}
        interference: Dict[str, float] = {}
        energy: Dict[str, float] = {}
        violations: List[str] = []
        loads: List[float] = []
        total = 0.0
        for group in groups:
            loads.append(self.machine_load_ns(group))
            for tid in group:
                hint = self.hint(tid)
                response = self.response_ns(tid, group)
                latency[tid] = response
                interference[tid] = self.interference_ns(tid, group)
                energy[tid] = self.predict_energy_pj(
                    tid, hint.batch_rows
                )
                weight = hint.rate_qps * (1.0 + max(0, hint.priority))
                if (
                    hint.deadline_s is not None
                    and response > hint.deadline_s * 1e9
                ):
                    violations.append(tid)
                    weight *= self.slo_penalty
                total += weight * response * 1e-9
        return CostBreakdown(
            total=total,
            latency_ns=latency,
            interference_ns=interference,
            energy_pj=energy,
            machine_load_ns=tuple(loads),
            utilization=tuple(load * 1e-9 for load in loads),
            slo_violations=tuple(sorted(violations)),
        )

    def score(self, plan) -> CostBreakdown:
        """Score a :class:`~repro.runtime.placement.PlacementPlan`."""
        groups = [
            [a.tenant_id for a in plan.machine_tenants(index)]
            for index in range(plan.num_machines)
        ]
        return self.score_groups(groups)

    # ----------------------------------------------------------- utilities
    def calibration_error(
        self, tenant_id: str, report: ExecutionReport
    ) -> float:
        """Relative error of the model's latency prediction against a
        measured report (the calibration check the tests assert on)."""
        predicted = self.predict_query_latency_ns(
            tenant_id, max(1, report.queries)
        )
        measured = report.query_latency_ns
        if measured <= 0:
            return 0.0 if predicted <= 0 else float("inf")
        return abs(predicted - measured) / measured
