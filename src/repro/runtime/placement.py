"""Multi-tenant bank placement: several kernels sharing one machine fleet.

PR 1–3 gave one compiled kernel a program-once session, capacity
(sharding) and throughput (replication) — but every kernel still
monopolized its own machines.  The C4CAM value proposition is mapping
*many* application kernels onto the same CAM fabric, so this module adds
the co-residency axis, the way far-memory data planes pack independent
applications onto one shared runtime with honest per-app accounting:

* **bank-granular placement** — each compiled tenant (a lowered store of
  N rows) demands ``banks_needed(plan.subarrays)`` whole banks;
  :func:`plan_placement` packs the tenants into the banks of a shared
  machine fleet with first-fit-decreasing by bank count, or — when the
  caller hands it a calibrated
  :class:`~repro.runtime.costmodel.PlacementCost` — by predicted
  cost on the same number of machines.  Over-packing raises
  :class:`PlacementError` (a :class:`CapacityError`) naming the tenant
  and its bank demand, with a per-tenant breakdown — never a silent
  spill.
* **shared programming** — the
  :class:`~repro.runtime.cluster.Cluster` programs each tenant, one
  single-machine :class:`~repro.compiler.CompiledKernel`, onto its
  planned banks of a shared machine (each tenant's setup walk allocates
  its own fresh banks, so tenants occupy disjoint fabric) and serves
  per-tenant ``run_batch(Q, tenant=...)`` whose results are **bitwise
  identical** to the tenant running alone on a private machine:
  match-line scores are row-local and each tenant searches and reads
  only its own subarray range.
* **honest accounting** — per-tenant reports charge each tenant's own
  banks (dynamic energy by counter deltas, standby scoped to the
  tenant's slice); the fleet report combines tenants of one machine
  serially (:func:`~repro.simulator.metrics.combine_serial_reports` —
  the fabric serves one tenant at a time, and the shared fabric is
  counted once) and machines of the fleet concurrently
  (:func:`~repro.simulator.metrics.merge_concurrent_reports`).  Tenant
  energies therefore sum exactly to the fleet energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.arch.spec import ArchSpec
from repro.transforms.partitioning import CapacityError, PartitionPlan

__all__ = [
    "PlacementError",
    "PlacementPlan",
    "TenantAssignment",
    "TenantDemand",
    "plan_placement",
    "tenant_demand",
]


# ---------------------------------------------------------------- demands
@dataclass(frozen=True)
class TenantDemand:
    """One tenant's resource ask: whole banks on some fleet machine."""

    tenant_id: str
    plan: PartitionPlan
    banks: int

    @property
    def patterns(self) -> int:
        return self.plan.patterns

    @property
    def features(self) -> int:
        return self.plan.features

    def describe(self) -> str:
        return (
            f"tenant {self.tenant_id!r}: {self.banks} bank(s) "
            f"({self.patterns} rows x {self.features} features, "
            f"{self.plan.subarrays} subarrays)"
        )


def tenant_demand(
    tenant_id: str, plan: PartitionPlan, spec: ArchSpec
) -> TenantDemand:
    """The bank demand of one compiled tenant on ``spec`` machines.

    Placement is bank-granular: a tenant occupies whole banks (the next
    tenant starts in a fresh bank), so the demand is
    ``spec.banks_needed(plan.subarrays)`` — exactly the banks the
    tenant's lowered module allocates during its setup walk.
    """
    return TenantDemand(
        tenant_id=tenant_id,
        plan=plan,
        banks=max(1, spec.banks_needed(plan.subarrays)),
    )


class PlacementError(CapacityError):
    """The tenant set does not fit the machine fleet.

    A :class:`~repro.transforms.partitioning.CapacityError` (existing
    overflow handlers keep working) whose message names the tenant that
    failed to place and its bank demand, followed by the per-tenant
    breakdown of the whole set.  ``demands`` carries the structured
    view for programmatic sizing.
    """

    def __init__(
        self,
        message: str,
        demands: Sequence[TenantDemand],
        spec: ArchSpec,
        tenant_id: Optional[str] = None,
    ):
        # CapacityError.__init__ builds a single-kernel message; this is
        # a fleet-level overflow, so bypass it and keep only the
        # exception identity (callers catch CapacityError).
        self.demands = tuple(demands)
        self.spec = spec
        self.tenant_id = tenant_id
        breakdown = "".join(
            f"\n  - {demand.describe()}" for demand in self.demands
        )
        RuntimeError.__init__(
            self, message + "; per-tenant demand:" + breakdown
        )


# -------------------------------------------------------------- placement
@dataclass(frozen=True)
class TenantAssignment:
    """Where one tenant lives: a bank range on one fleet machine."""

    tenant_id: str
    machine_index: int
    bank_offset: int
    banks: int


@dataclass(frozen=True)
class PlacementPlan:
    """A bank-granular packing of tenants onto a machine fleet.

    ``assignments`` are in *programming order*: ascending
    ``(machine_index, bank_offset)`` — machines allocate banks
    append-only, so programming tenants in this order reproduces the
    planned bank offsets exactly.
    """

    assignments: Tuple[TenantAssignment, ...]
    num_machines: int
    banks_per_machine: Optional[int]  # None = unbounded machine

    def for_tenant(self, tenant_id: str) -> TenantAssignment:
        for assignment in self.assignments:
            if assignment.tenant_id == tenant_id:
                return assignment
        raise KeyError(f"no tenant {tenant_id!r} in this placement")

    def machine_tenants(self, machine_index: int) -> List[TenantAssignment]:
        """The machine's tenants in ascending bank-offset order."""
        return [
            assignment
            for assignment in self.assignments
            if assignment.machine_index == machine_index
        ]

    @property
    def tenant_ids(self) -> List[str]:
        return [assignment.tenant_id for assignment in self.assignments]


def plan_placement(
    demands: Sequence[TenantDemand],
    spec: ArchSpec,
    max_machines: Optional[int] = None,
    cost_model=None,
) -> PlacementPlan:
    """Pack tenant bank demands onto a fleet of ``spec`` machines.

    The packing is first-fit-decreasing by bank count: tenants are
    considered from the largest demand down (ties break on
    ``tenant_id``, so the plan is independent of submission order) and
    each lands in the first machine with enough free banks; a new
    machine opens when none fits, up to ``max_machines`` (``None``
    grows the fleet on demand, mirroring ``banks=None`` machines
    growing banks on demand).  An unbounded spec (``spec.banks is
    None``) places every tenant on one machine.

    Handed a calibrated :class:`~repro.runtime.costmodel.PlacementCost`
    (``cost_model``) that profiles every tenant and carries a traffic
    signal (:attr:`PlacementCost.has_traffic`), the packer packs for
    *speed*, not just fit: a greedy seed places tenants hottest-first
    at the position of least predicted cost, then a local search
    improves the packing with single-tenant moves and pairwise swaps —
    spreading hot tenants across machines (co-residents serialize) and
    co-packing cold ones.  It never uses more machines than
    first-fit-decreasing would for the same demands: it reshuffles the
    same fleet for latency, so the two layouts compare at equal
    silicon.  Any other ``cost_model`` (``None`` included) leaves the
    first-fit-decreasing plan.

    Raises :class:`PlacementError` — naming the offending tenant and its
    bank demand, with the full per-tenant breakdown — when a single
    tenant exceeds one machine's banks, or when the capped fleet cannot
    hold the set.
    """
    if not demands:
        raise ValueError("plan_placement needs at least one tenant demand")
    seen = set()
    for demand in demands:
        if demand.tenant_id in seen:
            raise ValueError(f"duplicate tenant id {demand.tenant_id!r}")
        seen.add(demand.tenant_id)
    if max_machines is not None and max_machines < 1:
        raise ValueError("max_machines must be >= 1 (or None for auto)")

    if spec.banks is None:
        # One unbounded machine either way; deterministic order.
        ordered = sorted(demands, key=lambda d: (-d.banks, d.tenant_id))
        offsets, cursor = [], 0
        for demand in ordered:
            offsets.append(cursor)
            cursor += demand.banks
        return PlacementPlan(
            assignments=tuple(
                TenantAssignment(d.tenant_id, 0, offset, d.banks)
                for d, offset in zip(ordered, offsets)
            ),
            num_machines=1,
            banks_per_machine=None,
        )

    capacity = spec.banks
    for demand in demands:
        if demand.banks > capacity:
            raise PlacementError(
                f"tenant {demand.tenant_id!r} alone needs {demand.banks} "
                f"bank(s) but one machine caps at {capacity}; enlarge the "
                f"spec or shrink the tenant (sharded tenants are not "
                f"placeable)",
                demands,
                spec,
                tenant_id=demand.tenant_id,
            )

    ffd_groups = _pack_ffd(demands, capacity, max_machines, spec)
    if _cost_model_usable(cost_model, demands):
        groups = _pack_cost(demands, capacity, cost_model, ffd_groups)
    else:
        groups = ffd_groups
    return _realize_plan(groups, capacity)


def _cost_model_usable(cost_model, demands: Sequence[TenantDemand]) -> bool:
    """Whether the cost packer has what it needs; FFD otherwise."""
    if cost_model is None or not getattr(cost_model, "has_traffic", False):
        return False
    profiles = getattr(cost_model, "profiles", {})
    return all(d.tenant_id in profiles for d in demands)


def _pack_ffd(
    demands: Sequence[TenantDemand],
    capacity: int,
    max_machines: Optional[int],
    spec: ArchSpec,
) -> List[List[TenantDemand]]:
    """First-fit-decreasing core: per-machine demand groups."""
    order = sorted(demands, key=lambda d: (-d.banks, d.tenant_id))
    groups: List[List[TenantDemand]] = []
    fill: List[int] = []
    for demand in order:
        target = next(
            (m for m, used in enumerate(fill)
             if used + demand.banks <= capacity),
            None,
        )
        if target is None:
            if max_machines is not None and len(fill) >= max_machines:
                total = sum(d.banks for d in demands)
                raise PlacementError(
                    f"tenant {demand.tenant_id!r} needs {demand.banks} "
                    f"bank(s) but no machine of the fleet has room: "
                    f"{len(demands)} tenants demand {total} bank(s) "
                    f"against {max_machines} machine(s) x {capacity} "
                    f"banks = {max_machines * capacity}",
                    demands,
                    spec,
                    tenant_id=demand.tenant_id,
                )
            groups.append([])
            fill.append(0)
            target = len(fill) - 1
        groups[target].append(demand)
        fill[target] += demand.banks
    return groups


def _pack_cost(
    demands: Sequence[TenantDemand],
    capacity: int,
    cost_model,
    ffd_groups: List[List[TenantDemand]],
) -> List[List[TenantDemand]]:
    """Cost-guided packing at FFD-equal fleet size.

    Greedy seed: tenants hottest-first (offered work, then banks, then
    id — fully deterministic), each placed where the predicted total
    cost grows least.  The greedy order can paint itself into a corner
    FFD would not (bin packing), in which case the FFD groups seed the
    search instead.  Local search then applies the best single-tenant
    move or pairwise swap per round until no strict improvement exists.
    """
    budget = len(ffd_groups)
    order = sorted(
        demands,
        key=lambda d: (
            -cost_model.burden_ns(d.tenant_id), -d.banks, d.tenant_id
        ),
    )
    groups: List[List[TenantDemand]] = [[] for _ in range(budget)]
    fill = [0] * budget
    for demand in order:
        best, best_total = None, None
        for m in range(budget):
            if fill[m] + demand.banks > capacity:
                continue
            groups[m].append(demand)
            total = _groups_cost(groups, cost_model)
            groups[m].pop()
            if best is None or total < best_total - 1e-12:
                best, best_total = m, total
        if best is None:
            groups = [list(group) for group in ffd_groups]
            fill = [sum(d.banks for d in group) for group in groups]
            break
        groups[best].append(demand)
        fill[best] += demand.banks
    _improve_groups(groups, fill, capacity, cost_model)
    return [group for group in groups if group]


def _groups_cost(groups: Sequence[Sequence[TenantDemand]], cost_model):
    return cost_model.score_groups(
        [[d.tenant_id for d in group] for group in groups]
    ).total


def _improve_groups(
    groups: List[List[TenantDemand]],
    fill: List[int],
    capacity: int,
    cost_model,
) -> None:
    """Best-improvement local search: moves and swaps, in place.

    Each round enumerates every feasible single-tenant move and every
    feasible pairwise swap in deterministic order, applies the strictly
    best one, and stops when no candidate improves the predicted total
    (or after a generous round cap — the search is monotone, the cap
    only bounds pathological plateaus).
    """
    n_tenants = sum(len(group) for group in groups)
    current = _groups_cost(groups, cost_model)
    for _round in range(2 * n_tenants + 8):
        best = None  # (total, kind, a, i, b, j)
        for a in range(len(groups)):
            for i, demand in enumerate(groups[a]):
                for b in range(len(groups)):
                    if b == a:
                        continue
                    if fill[b] + demand.banks <= capacity:
                        groups[a].pop(i)
                        groups[b].append(demand)
                        total = _groups_cost(groups, cost_model)
                        groups[b].pop()
                        groups[a].insert(i, demand)
                        if total < current - 1e-12 and (
                            best is None or total < best[0] - 1e-12
                        ):
                            best = (total, "move", a, i, b, None)
                    for j, other in enumerate(groups[b]):
                        if a > b:
                            continue  # each pair once
                        if (
                            fill[a] - demand.banks + other.banks > capacity
                            or fill[b] - other.banks + demand.banks
                            > capacity
                        ):
                            continue
                        groups[a][i], groups[b][j] = other, demand
                        total = _groups_cost(groups, cost_model)
                        groups[a][i], groups[b][j] = demand, other
                        if total < current - 1e-12 and (
                            best is None or total < best[0] - 1e-12
                        ):
                            best = (total, "swap", a, i, b, j)
        if best is None:
            return
        total, kind, a, i, b, j = best
        if kind == "move":
            demand = groups[a].pop(i)
            groups[b].append(demand)
            fill[a] -= demand.banks
            fill[b] += demand.banks
        else:
            demand, other = groups[a][i], groups[b][j]
            groups[a][i], groups[b][j] = other, demand
            fill[a] += other.banks - demand.banks
            fill[b] += demand.banks - other.banks
        current = total


def _realize_plan(
    groups: Sequence[Sequence[TenantDemand]], capacity: Optional[int]
) -> PlacementPlan:
    """Deterministic assignments from per-machine groups: within each
    machine, tenants program largest-first (ties on ``tenant_id``) at
    cumulative offsets."""
    assignments: List[TenantAssignment] = []
    for index, group in enumerate(groups):
        cursor = 0
        for demand in sorted(
            group, key=lambda d: (-d.banks, d.tenant_id)
        ):
            assignments.append(
                TenantAssignment(demand.tenant_id, index, cursor,
                                 demand.banks)
            )
            cursor += demand.banks
    return PlacementPlan(
        assignments=tuple(assignments),
        num_machines=len(groups),
        banks_per_machine=capacity,
    )
