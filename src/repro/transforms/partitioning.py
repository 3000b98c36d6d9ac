"""Compulsory partitioning (paper §III-D1, Fig. 5d).

Kernels usually exceed one subarray, so the similarity operation is tiled
to the subarray granularity: the feature dimension splits into column
tiles of ``cols`` and the pattern set into row tiles of at most ``rows``.
Partial scores from column tiles are accumulated *horizontally*; disjoint
row tiles concatenate *vertically* (``cim.merge_partial`` directions).

With the **density** optimization (selective search [27]), several column
tiles stack at different row offsets of one subarray — ``batches`` per
subarray — reproducing the capacity gains of paper Table I.

The pass records the plan as attributes on each ``cim.similarity`` op;
the ``cim-to-cam`` mapping consumes the plan when it rebuilds the loop
nest against the concrete hierarchy (paper: "the original program
underwent partitioning at the CIM dialect without considering the
hierarchy... To map an application onto the CAM abstraction, the cam-map
pass ... transforms the application into a nested loop structure").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.arch.spec import ArchSpec
from repro.dialects import cim as cim_d
from repro.ir.operation import Operation
from repro.passes.pass_manager import FunctionPass


class CapacityError(RuntimeError):
    """The stored-pattern matrix does not fit one machine.

    Raised wherever a kernel would overflow a bank-capped machine —
    when it is compiled for one machine, at lowering (``cim-to-cam``)
    and at shard planning, so also when a
    :class:`~repro.apps.matching.PatternMatcher` compiles its rules —
    instead of failing deep inside allocation or silently truncating
    the store.  Carries
    ``required_rows`` and ``available_rows`` so callers can size a shard
    set; the hint in the message points at ``num_shards``
    (:meth:`repro.compiler.C4CAMCompiler.compile`) which splits the rows
    across machines via :class:`repro.runtime.sharding.ShardedSession`.
    """

    def __init__(
        self,
        plan: "PartitionPlan",
        spec: ArchSpec,
        use_density: bool = False,
    ):
        self.plan = plan
        self.spec = spec
        self.required_rows = plan.patterns
        self.available_rows = machine_row_capacity(
            spec, plan.features, use_density
        )
        banks = spec.banks_needed(plan.subarrays)
        prefix = (
            f"stored matrix of {plan.patterns} rows x {plan.features} "
            f"features needs {plan.subarrays} subarrays ({banks} banks) "
            f"but the machine caps at {spec.banks} banks "
            f"({self.available_rows} rows at this feature width); "
        )
        if self.available_rows:
            min_shards = math.ceil(self.required_rows / self.available_rows)
            hint = (
                f"shard the kernel across >= {min_shards} machines "
                f"(compile(num_shards=...) / --shards; requires a model "
                f"that is exactly one similarity kernel) or enlarge the "
                f"spec"
            )
        else:
            hint = (
                "not even a single stored row fits at this feature "
                "width, so sharding cannot help; enlarge the spec"
            )
        super().__init__(prefix + hint)


def machine_row_capacity(
    spec: ArchSpec, features: int, use_density: bool = False
) -> Optional[int]:
    """Stored-pattern rows one bank-capped machine holds at ``features``.

    ``None`` means unbounded (``spec.banks is None``): the machine grows
    banks on demand and every store fits.  The plain placement gives
    each row tile ``col_tiles`` subarrays; with the density optimization
    (and a device supporting selective search) up to ``rows`` patterns
    can additionally stack several column tiles per subarray, which can
    fit stores the plain placement cannot — the bound is the max over
    both regimes, consistent with
    :func:`compute_partition_plan`'s ``subarrays``.
    """
    if spec.banks is None:
        return None
    col_tile = min(spec.cols, features)
    col_tiles = math.ceil(features / col_tile)
    max_subarrays = spec.banks * spec.subarrays_per_bank
    plain = (max_subarrays // col_tiles) * spec.rows
    if not (use_density and spec.selective_search) or plain >= spec.rows:
        # Density stacking only applies to stores of <= `rows` patterns;
        # when the plain capacity already covers that range it dominates.
        return plain
    # Density regime: R <= rows patterns stack rows//R column tiles per
    # subarray, needing ceil(col_tiles / (rows // R)) subarrays — a
    # monotone function of R, so binary-search the largest fitting R.
    best, lo, hi = plain, 1, spec.rows
    while lo <= hi:
        mid = (lo + hi) // 2
        if math.ceil(col_tiles / (spec.rows // mid)) <= max_subarrays:
            best = max(best, mid)
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def check_plan_capacity(
    plan: "PartitionPlan", spec: ArchSpec, use_density: bool = False
) -> None:
    """Raise :class:`CapacityError` when ``plan`` overflows ``spec``.

    ``use_density`` only shapes the error's available-row figure and
    sharding hint; the overflow test itself reads the plan's own
    subarray count.
    """
    if spec.banks is None:
        return
    if spec.banks_needed(plan.subarrays) > spec.banks:
        raise CapacityError(plan, spec, use_density)


@dataclass(frozen=True)
class PartitionPlan:
    """How one similarity kernel tiles onto subarrays.

    ``patterns``/``features`` describe the stored matrix (``P×D``);
    ``queries`` the number of query rows.  ``row_tile × col_tile`` is the
    per-subarray tile, ``batches`` the column tiles stacked per subarray
    (1 without the density optimization).
    """

    patterns: int
    features: int
    queries: int
    rows: int
    cols: int
    row_tile: int
    col_tile: int
    row_tiles: int
    col_tiles: int
    batches: int

    @property
    def total_tiles(self) -> int:
        """Number of ``row_tile × col_tile`` tiles to place."""
        return self.row_tiles * self.col_tiles

    @property
    def subarrays(self) -> int:
        """Subarrays needed once batches are stacked (Table I)."""
        per_sub = self.batches
        return self.row_tiles * math.ceil(self.col_tiles / per_sub)

    def tile_of(self, linear: int, batch: int) -> tuple:
        """Map (subarray linear index, batch) -> (row part, col part).

        Returns ``None`` when the slot is beyond the tile count.
        With batches, subarray ``i`` holds column tiles
        ``i*batches .. i*batches+batches-1`` (row_tiles == 1 then).
        """
        if self.batches > 1:
            cp = linear * self.batches + batch
            if cp >= self.col_tiles:
                return None
            return (0, cp)
        cols_per_row = self.col_tiles
        tile = linear
        if batch != 0 or tile >= self.total_tiles:
            return None
        return (tile // cols_per_row, tile % cols_per_row)


def compute_partition_plan(
    patterns: int,
    features: int,
    queries: int,
    spec: ArchSpec,
    use_density: bool = False,
) -> PartitionPlan:
    """Tile a ``patterns × features`` store onto ``spec``'s subarrays."""
    if patterns <= 0 or features <= 0:
        raise ValueError("similarity kernel must have patterns and features")
    col_tile = min(spec.cols, features)
    col_tiles = math.ceil(features / col_tile)
    row_tile = min(spec.rows, patterns)
    row_tiles = math.ceil(patterns / row_tile)
    batches = 1
    if (
        use_density
        and spec.selective_search
        and row_tiles == 1
        and patterns <= spec.rows
    ):
        batches = max(1, spec.rows // patterns)
    return PartitionPlan(
        patterns=patterns,
        features=features,
        queries=queries,
        rows=spec.rows,
        cols=spec.cols,
        row_tile=row_tile,
        col_tile=col_tile,
        row_tiles=row_tiles,
        col_tiles=col_tiles,
        batches=batches,
    )


#: Attribute names used to annotate similarity ops with their plan.
PLAN_ATTRS = (
    "patterns", "features", "queries", "rows", "cols",
    "row_tile", "col_tile", "row_tiles", "col_tiles", "batches",
)


def annotate(op: Operation, plan: PartitionPlan) -> None:
    """Attach ``plan`` to ``op`` as ``plan.*`` integer attributes."""
    from repro.ir.attributes import IntegerAttr

    for name in PLAN_ATTRS:
        op.attributes[f"plan.{name}"] = IntegerAttr(getattr(plan, name))


def plan_of(op: Operation) -> PartitionPlan:
    """Read a :class:`PartitionPlan` back from ``plan.*`` attributes."""
    values = {}
    for name in PLAN_ATTRS:
        attr = op.attributes.get(f"plan.{name}")
        if attr is None:
            raise ValueError(f"{op.name} has no partition plan annotation")
        values[name] = attr.value
    return PartitionPlan(**values)


class CimPartitionPass(FunctionPass):
    """Annotate every ``cim.similarity`` with its partition plan."""

    NAME = "cim-partition"

    def __init__(self, spec: ArchSpec, use_density: bool = False):
        self.spec = spec
        self.use_density = use_density

    def run_on_function(self, func: Operation) -> None:
        for op in func.walk():
            if isinstance(op, cim_d.SimilarityOp):
                stored_t = op.stored.type
                query_t = op.query.type
                patterns, features = stored_t.shape[0], stored_t.shape[-1]
                queries = query_t.shape[0] if query_t.rank == 2 else 1
                plan = compute_partition_plan(
                    patterns, features, queries, self.spec, self.use_density
                )
                annotate(op, plan)
