"""Batched query sessions: program the CAM once, stream many queries.

The paper's CAMs are program-once / query-many devices: pattern
programming is orders of magnitude slower than a search, so a serving
deployment writes the stored set once and answers queries from then on.
:class:`QuerySession` realises that usage mode for compiled kernels:

* **setup walk** — the lowered module is interpreted once, which
  allocates the hierarchy, programs every stored-pattern tile (charged to
  the setup clock) and measures the structural per-query latency from
  the IR's loop nest.  The session keeps the walk's recorded programming
  (:class:`Programming`), and :meth:`QuerySession.clone` replays it
  onto the replica's fresh machine instead of walking the module again
  — program once, copy many;
* **batched streaming** — :meth:`QuerySession.run_batch` answers a whole
  ``B×D`` query matrix against the *live* machine: match-line scores for
  the entire batch are computed in one vectorized step per subarray
  (2-D :func:`repro.simulator.cells.compute_scores`), partials are merged
  into a ``B×P`` score matrix and the per-query top-k is selected in one
  pass.

Timing follows the paper's model: a batch occupies the machine for
``B ×`` the structural per-query latency (queries stream through the
match lines serially), while the setup cost is charged once per session —
the amortization that related batching designs (AMU, batched far-memory
data planes) exploit.  Functionally the batched path is bitwise identical
to ``B`` sequential interpreter walks with noise disabled.

Stores are **mutable**: CAMs are write-in-place devices, so
:meth:`QuerySession.insert`, :meth:`~QuerySession.delete` and
:meth:`~QuerySession.update` program only the touched rows (charged per
row through the amortized-setup model, never a full re-program).
Deleted rows become *tombstones* — their valid bits are cleared so the
latch path reads them as the metric's no-match value — and a background
compaction re-packs survivors into the low slots once tombstone density
crosses :attr:`~QuerySession.compact_threshold`.  Surviving rows always
rank in insertion (id) order, which keeps every mutated session
bitwise identical to a session rebuilt from scratch over the surviving
patterns.

Batches are served **fused** by default (``fused=True``): the fixed
post-programming pipeline is traced once into a
:class:`~repro.runtime.fused.FusedPlan` (built lazily at the first
:meth:`~QuerySession.run_batch`) and replayed as one flat NumPy kernel —
bitwise identical to the per-stage walk in results and in energy/latency
accounting.  A mutation marks the plan stale and records the slots it
wrote or erased; the next batch refreshes just those slots of the plan in
place (a ``grow`` re-traces it in full).
``fused=False`` retains the unfused walk as the differential oracle,
and ``noise_sigma > 0`` bypasses the plan automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulator.machine import CamMachine
from repro.simulator.metrics import EnergyBreakdown, ExecutionReport
from repro.transforms.partitioning import PartitionPlan

from .backend import SessionError
from .executor import Interpreter
from .fused import build_fused_plan

__all__ = [
    "QueryProgram",
    "QuerySession",
    "SessionError",
    "StoreOverflow",
    "StoreState",
]


class StoreOverflow(SessionError):
    """The mutable store cannot grow on its current machine.

    Raised by :meth:`QuerySession.insert` when every slot is live and the
    machine cannot allocate another growth bank (the spec caps banks, or
    the mapping is density-stacked).  Higher layers recover instead of
    failing: a :class:`~repro.runtime.sharding.ShardedSession` splits off
    a new shard, a :class:`~repro.runtime.cluster.Cluster` re-places the
    tenant on a roomier machine.
    """


@dataclass(frozen=True)
class StoreState:
    """A portable snapshot of a mutable store: the surviving
    ``(id, pattern)`` rows in ascending-id order plus the id allocator
    position — everything :meth:`QuerySession.restore` needs to replay a
    mutated store onto a freshly programmed machine."""

    rows: Tuple[Tuple[int, np.ndarray], ...]
    next_id: int


@dataclass
class _RowGroup:
    """One row-tile's physical placement: the subarrays holding its
    column slices (ascending ``cp``), the first logical slot it backs
    and its row window."""

    subs: Tuple[int, ...]
    base_slot: int
    window: int


@dataclass(frozen=True)
class Programming:
    """One setup walk's machine programming, recorded for replicas.

    ``calls`` are the walk's ``alloc_*`` and ``write_value`` calls on
    the machine, in order, as ``(method, *args)``; ids are relative to
    the session's own slice of the machine, so on a fresh private
    machine they are the machine's ids.  Replaying them there, then
    taking the walk's two latencies, leaves the machine, its charges and
    the session's setup figures bitwise as the walk would — also for a
    walk that ran colocated on a shared machine.  A session never
    changes its record, so clones share it.
    """

    calls: Tuple[tuple, ...]
    setup_latency_ns: float
    per_query_latency_ns: float


#: The allocation level each recorded call's first argument (a parent
#: or target id) counts at: banks, mats, arrays, subarrays.
_CALL_LEVEL = {
    "alloc_mat": 0, "alloc_array": 1, "alloc_subarray": 2, "write_value": 3,
}


@dataclass(frozen=True)
class QueryProgram:
    """The query-phase structure of one lowered similarity kernel.

    Captured by the ``cim-to-cam`` pass when it emits the query nest;
    :class:`QuerySession` replays this structure directly against the
    machine for whole query batches instead of re-walking the IR per
    query.
    """

    plan: PartitionPlan
    metric: str        # cam-level metric (after CAM-type legalisation)
    k: int
    largest: bool      # post-legalisation sort direction
    #: The SSA values (values tensor, indices tensor) the lowering
    #: substituted for the similarity op's results.
    results: tuple = ()

    def matches_function(self, func) -> bool:
        """True when ``func`` returns exactly this program's (values,
        indices) — i.e. replaying the program reproduces the function.

        A model that reorders, post-processes or drops the similarity
        outputs must take the full interpreter walk instead.
        """
        if len(self.results) != 2:
            return False
        terminator = next(
            (op for op in func.body.operations if op.name == "func.return"),
            None,
        )
        if terminator is None:
            return False
        return list(terminator.operands) == list(self.results)

    def tiles(self) -> List[Tuple[int, int, Tuple[int, int]]]:
        """All placed tiles as ``(linear subarray, batch, (rp, cp))``."""
        out = []
        for lin in range(self.plan.subarrays):
            for batch in range(self.plan.batches):
                tile = self.plan.tile_of(lin, batch)
                if tile is not None:
                    out.append((lin, batch, tile))
        return out


class QuerySession:
    """A live, programmed machine answering query batches.

    Owns a :class:`CamMachine` that is programmed exactly once (during
    construction) and kept alive across :meth:`run_batch` calls.  Device
    noise, when enabled, is decorrelated across batches by spawning a
    fresh child seed per call from one :class:`numpy.random.SeedSequence`
    — reproducible for an explicit ``noise_seed``, independent across
    calls.

    Passing an existing ``machine`` instead colocates this session on a
    *shared* machine (multi-tenant bank placement,
    :mod:`repro.runtime.placement`): the session programs its patterns
    into freshly allocated banks of that machine, remembers its subarray
    range (:attr:`subarray_base`) and from then on searches/reads only
    its own fabric.  Reports stay tenant-scoped — allocation counts,
    energy and standby cover this session's banks only, so a colocated
    tenant is charged exactly what it would be on a private machine.
    """

    #: Tombstone density past which a delete compacts the store.
    compact_threshold = 0.5
    #: Machines holding the store (a ShardedSession counts its shards).
    num_shards = 1

    def __init__(
        self,
        module,
        spec,
        tech,
        parameters: Sequence[np.ndarray],
        program: QueryProgram,
        func_name: str = "forward",
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
        machine: Optional[CamMachine] = None,
        fused: bool = True,
    ):
        self._bind(
            module, spec, tech, parameters, program, func_name,
            noise_sigma, noise_seed, machine, fused,
        )
        self._program_machine()
        self._init_mutable_store()

    def _bind(
        self, module, spec, tech, parameters, program, func_name,
        noise_sigma, noise_seed, machine, fused,
    ) -> None:
        """Set the compiled artifacts and open the (unprogrammed)
        machine: everything a session holds before programming."""
        self.module = module
        self.spec = spec
        self.tech = tech
        self.parameters = list(parameters)
        self.program = program
        self.func_name = func_name
        self.noise_sigma = float(noise_sigma)
        # noise_seed: an int, or a SeedSequence child handed down by the
        # owning kernel (keeps per-call decorrelation deterministic).
        self._noise_seq = (
            noise_seed
            if isinstance(noise_seed, np.random.SeedSequence)
            else np.random.SeedSequence(noise_seed)
        )
        self._owns_machine = machine is None
        if machine is None:
            machine = CamMachine(
                spec, tech, noise_sigma=noise_sigma,
                noise_seed=self._noise_seq.spawn(1)[0],
            )
        self.machine = machine
        #: First machine subarray belonging to this session (0 on a
        #: private machine; the shared-machine fill level when colocated).
        self.subarray_base = machine.subarrays_used
        self.last_report: Optional[ExecutionReport] = None
        # Full-precision (float64) *unclamped* scores of the last
        # batch's top-k rows (no WTA-window clamp, no float32 cast) — a
        # ShardedSession re-ranks shards on these and applies the WTA
        # clamp once against the global winner, so the merge matches a
        # single big machine bitwise.
        self.last_values: Optional[np.ndarray] = None
        self.last_indices: Optional[np.ndarray] = None
        self.batches_run = 0
        # Session-relative query clock: batches are stamped back-to-back
        # on the machine trace (coarse within-batch structure: searches,
        # then reads/merges, then the top-k).
        self._time = 0.0
        #: Serve batches through the fused plan when possible (see
        #: :mod:`repro.runtime.fused`); toggle off for the unfused
        #: oracle walk.  Results are bitwise identical either way.
        self.fused = bool(fused)
        #: Batches answered by the fused plan (vs. the unfused walk).
        self.fused_runs = 0
        # None = trace on the next batch; False = this store cannot fuse.
        self._fused_plan = None
        # Set by every mutation: the plan must be refreshed before the
        # next fused batch, re-reading the slots written or erased since.
        self._plan_stale = False
        self._touched_slots: set = set()

    def _init_mutable_store(self) -> None:
        """Set up the slot directory over the freshly programmed tiles.

        Logical *slots* index rows across the session's row groups; each
        stored pattern gets a stable monotonically-increasing *id*.  The
        invariant every mutation preserves is that surviving slots in
        ascending order hold ascending ids — so the rank a top-k reports
        for a survivor equals its index in a store rebuilt from scratch.
        """
        plan = self.program.plan
        #: When set, :meth:`run_batch` selects this many candidates
        #: instead of the compiled ``program.k`` — a
        #: :class:`~repro.runtime.sharding.ShardedSession` hands every
        #: shard its own ``serve_k`` (the *global* k) so a shard that
        #: grew past its compiled row count still surfaces enough
        #: candidates for the merge.
        self.serve_k: Optional[int] = None
        self.mutations = 0
        self.compactions = 0
        self._dead = 0
        self._growth_groups = 0
        #: Machine subarray ids of this session's tiles, in the linear
        #: (``rt``-major, ``cp``-minor) plan order.  Growth appends; on a
        #: shared machine the grown tail is not contiguous with the base.
        self._sub_ids = list(
            range(self.subarray_base, self.subarray_base + self.subarrays_used)
        )
        if plan.batches > 1:
            # Density stacking packs the whole pattern set into every
            # subarray's row space; the accumulator geometry is fixed, so
            # capacity is exactly the compiled pattern count.
            self._row_groups: List[_RowGroup] = []
            self._capacity = plan.patterns
        else:
            groups = []
            base_slot = 0
            for rt in range(plan.row_tiles):
                subs = tuple(
                    self._sub_ids[rt * plan.col_tiles + cp]
                    for cp in range(plan.col_tiles)
                )
                groups.append(_RowGroup(subs, base_slot, plan.row_tile))
                base_slot += plan.row_tile
            self._row_groups = groups
            self._capacity = base_slot
        self._alive = np.zeros(self._capacity, dtype=bool)
        self._alive[: plan.patterns] = True
        self._slot_ids: List[int] = [-1] * self._capacity
        for slot in range(plan.patterns):
            self._slot_ids[slot] = slot
        self._id_to_slot = {i: i for i in range(plan.patterns)}
        self._next_slot = plan.patterns
        self._next_id = plan.patterns
        # The stored-pattern matrix among the kernel parameters (host
        # copy of every live row, for compaction moves and replay).
        self._store_index = next(
            (
                i
                for i, p in enumerate(self.parameters)
                if getattr(p, "shape", None) == (plan.patterns, plan.features)
            ),
            None,
        )
        if self._store_index is not None:
            store = np.asarray(
                self.parameters[self._store_index], dtype=np.float64
            )
            self._rows = {i: store[i].copy() for i in range(plan.patterns)}
        else:
            self._rows = {}

    # ------------------------------------------------------------ lifecycle
    def _alloc_counts(self) -> Tuple[int, int, int, int]:
        machine = self.machine
        return (
            machine.banks_used,
            machine.mats_used,
            machine.arrays_used,
            machine.subarrays_used,
        )

    def _program_machine(
        self, programming: Optional[Programming] = None
    ) -> None:
        """Allocate and program this session's slice of the machine.

        Without ``programming`` this is the setup walk: the interpreter
        runs the traced batch of zero queries through the full lowered
        module, programming the machine (the point) and measuring the
        structural per-query latency, and the session keeps the walk's
        recorded programming.  With a record (a replica), its calls are
        replayed instead.  Query-side counters are then reset so batch
        reports account only their own work.
        """
        machine = self.machine
        write_before = machine.energy.write
        rows_before = machine.rows_written
        counts_before = self._alloc_counts()
        if programming is None:
            programming = self._walk(counts_before)
        else:
            for method, *args in programming.calls:
                getattr(machine, method)(*args)
        self._programming = programming
        self.setup_latency_ns = programming.setup_latency_ns
        self.per_query_latency_ns = programming.per_query_latency_ns
        # Setup cost and allocation are *this session's* share: on a
        # shared machine the deltas scope reports to the tenant's banks;
        # on a private machine they equal the machine totals.
        self.setup_energy_pj = machine.energy.write - write_before
        self.rows_written = machine.rows_written - rows_before
        counts = self._alloc_counts()
        self.banks_used = counts[0] - counts_before[0]
        self.mats_used = counts[1] - counts_before[1]
        self.arrays_used = counts[2] - counts_before[2]
        self.subarrays_used = counts[3] - counts_before[3]
        #: First machine array belonging to this session (scopes the
        #: standby duty to the tenant's own occupancy).
        self.array_base = counts_before[2]
        machine.reset_query_state()

    def _walk(self, counts_before) -> Programming:
        """The setup walk: interpret the module once on the machine."""
        func = self.module.lookup_symbol(self.func_name)
        if func is None:
            raise SessionError(f"no function named {self.func_name!r}")
        args = func.body.arguments
        n_inputs = len(args) - len(self.parameters)
        if n_inputs < 0:
            raise SessionError("module has fewer arguments than parameters")
        dummies = [
            np.zeros(arg.type.shape, dtype=np.float64)
            for arg in args[:n_inputs]
        ]
        interpreter = Interpreter(
            self.module, self.machine, subarray_base=self.subarray_base
        )
        _outputs, report = interpreter.run_function(
            self.func_name, dummies + self.parameters
        )
        calls = []
        for method, *call_args in interpreter.programming:
            level = _CALL_LEVEL.get(method)
            if level is not None:
                call_args[0] -= counts_before[level]
            calls.append((method, *call_args))
        return Programming(
            tuple(calls), report.setup_latency_ns,
            report.per_query_latency_ns,
        )

    def _replica(self, noise_seed) -> "QuerySession":
        """A session on a fresh private machine, programmed by replaying
        this session's recorded walk: the compiled store, before any
        mutation."""
        replica = QuerySession.__new__(QuerySession)
        replica._bind(
            self.module, self.spec, self.tech, self.parameters,
            self.program, self.func_name, self.noise_sigma, noise_seed,
            None, self.fused,
        )
        replica._program_machine(self._programming)
        replica._init_mutable_store()
        return replica

    def clone(self, noise_seed=None) -> "QuerySession":
        """An independent replica of this session: same compiled module,
        fresh machine.

        Reuses every compiled artifact (lowered module, partition plan,
        query program, stored parameters) and does not walk the module:
        the fresh machine is programmed by replaying this session's
        recorded setup walk, the same allocations and tile writes in the
        same order, so the replica's machine and setup report are
        bitwise those of a walk — the sim clock still charges the
        programming a hardware replica genuinely needs.  A mutated store
        is then replayed onto the clone (incremental writes over the
        programmed base), and the clone traces its own fused plan before
        it returns, so its first batch serves at once.  Device noise on
        the clone decorrelates from the parent by default (a fresh child
        of the parent's seed sequence); pass ``noise_seed`` for an
        explicit stream.
        """
        session = self._replica(
            self._noise_seq.spawn(1)[0] if noise_seed is None
            else noise_seed
        )
        if self.mutations or self.compactions:
            session.restore(self.store_state())
        session._ready_plan()
        return session

    def reset(self) -> None:
        """Clear query-side state (latches, counters); patterns survive.

        On a shared (multi-tenant) machine only this session's
        bookkeeping is dropped — the machine's counters belong to every
        colocated tenant and are managed by the owning
        :class:`~repro.runtime.cluster.Cluster`."""
        if self._owns_machine:
            self.machine.reset_query_state()
        self.last_report = None
        self.last_values = None
        self.last_indices = None
        self.batches_run = 0
        self._time = 0.0

    # ------------------------------------------------------------ mutation
    @property
    def pattern_count(self) -> int:
        """Number of live (non-tombstoned) stored patterns."""
        return len(self._id_to_slot)

    def row_ids(self) -> List[int]:
        """Ids of the live patterns in rank order (ascending, by the
        slot-order invariant) — maps a top-k index back to a stable id."""
        return [
            self._slot_ids[int(s)]
            for s in np.flatnonzero(self._alive[: self._next_slot])
        ]

    def pattern(self, pattern_id: int) -> np.ndarray:
        """The live pattern stored under ``pattern_id`` (a copy)."""
        self._require_store()
        pattern_id = int(pattern_id)
        if pattern_id not in self._rows:
            raise SessionError(f"no stored pattern with id {pattern_id}")
        return self._rows[pattern_id].copy()

    @property
    def growth_groups(self) -> int:
        """Row groups added beyond the compiled plan (bank growth)."""
        return self._growth_groups

    @property
    def growth_bank_unit(self) -> int:
        """Banks one growth step allocates (whole banks, so colocated
        tenants keep bank-granular isolation)."""
        return max(
            1, self.spec.banks_needed(self.program.plan.col_tiles)
        )

    def _require_store(self) -> None:
        if self._store_index is None:
            raise SessionError(
                "this kernel's stored-pattern matrix could not be "
                "identified among its parameters; the store is immutable"
            )

    def _begin_mutation(self) -> Tuple[float, int]:
        machine = self.machine
        return machine.energy.write, machine.rows_written

    def _end_mutation(self, snapshot: Tuple[float, int], duration: float):
        """Fold one mutation's machine charges into the amortized-setup
        model: per-row write energy, serialized write-port latency."""
        machine = self.machine
        self.setup_energy_pj += machine.energy.write - snapshot[0]
        self.rows_written += machine.rows_written - snapshot[1]
        self.setup_latency_ns += duration
        # The mutation changed rows or the slot directory the fused plan
        # traced; the next batch refreshes it.
        self._plan_stale = True

    def _slot_group(self, slot: int) -> _RowGroup:
        for group in self._row_groups:
            if group.base_slot <= slot < group.base_slot + group.window:
                return group
        raise SessionError(f"slot {slot} is outside the store's row groups")

    def _slot_tiles(self, slot: int):
        """Physical tiles backing ``slot``: ``(sub_id, row, c0, c1)`` for
        every column slice (and, density-stacked, every batch copy)."""
        plan = self.program.plan
        features = plan.features
        if plan.batches > 1:
            for lin, batch, (_rp, cp) in self.program.tiles():
                c0 = cp * plan.col_tile
                yield (
                    self._sub_ids[lin],
                    batch * plan.patterns + slot,
                    c0,
                    min(c0 + plan.col_tile, features),
                )
        else:
            group = self._slot_group(slot)
            row = slot - group.base_slot
            for cp, sub in enumerate(group.subs):
                c0 = cp * plan.col_tile
                yield sub, row, c0, min(c0 + plan.col_tile, features)

    def _write_slot(self, slot: int, row: np.ndarray) -> float:
        self._touched_slots.add(slot)
        duration = 0.0
        for sub, r, c0, c1 in self._slot_tiles(slot):
            duration += self.machine.write_value(
                sub, row[c0:c1], row_offset=r, at=self._time
            )
        return duration

    def _erase_slot(self, slot: int) -> float:
        self._touched_slots.add(slot)
        duration = 0.0
        for sub, r, _c0, _c1 in self._slot_tiles(slot):
            duration += self.machine.erase(
                sub, row_offset=r, row_count=1, at=self._time
            )
        return duration

    def grow(self) -> None:
        """Add one growth row group: ``col_tiles`` fresh subarrays in
        whole fresh banks (bank granularity preserves tenant isolation on
        shared machines).  Raises :class:`StoreOverflow` when the machine
        is bank-capped or the mapping is density-stacked — nothing is
        allocated on failure."""
        plan = self.program.plan
        if plan.batches > 1:
            raise StoreOverflow(
                "density-stacked store is at capacity: the accumulator "
                "geometry packs the full pattern set, so the store cannot "
                "grow in place"
            )
        spec, machine = self.spec, self.machine
        subs_needed = plan.col_tiles
        banks_needed = spec.banks_needed(subs_needed)
        if (
            spec.banks is not None
            and machine.banks_used + banks_needed > spec.banks
        ):
            raise StoreOverflow(
                f"store is at capacity: growing needs {banks_needed} more "
                f"bank(s) but the machine is capped at {spec.banks} "
                f"({machine.banks_used} in use)"
            )
        counts_before = self._alloc_counts()
        per_array = spec.subarrays_per_array
        per_mat = spec.subarrays_per_mat
        per_bank = spec.subarrays_per_bank
        bank = mat = array = None
        new_subs = []
        for i in range(subs_needed):
            if i % per_bank == 0:
                bank = machine.alloc_bank()
            if i % per_mat == 0:
                mat = machine.alloc_mat(bank)
            if i % per_array == 0:
                array = machine.alloc_array(mat)
            new_subs.append(machine.alloc_subarray(array))
        self.banks_used += machine.banks_used - counts_before[0]
        self.mats_used += machine.mats_used - counts_before[1]
        self.arrays_used += machine.arrays_used - counts_before[2]
        self.subarrays_used += machine.subarrays_used - counts_before[3]
        self._sub_ids.extend(new_subs)
        self._row_groups.append(
            _RowGroup(tuple(new_subs), self._capacity, spec.rows)
        )
        self._alive = np.concatenate(
            [self._alive, np.zeros(spec.rows, dtype=bool)]
        )
        self._slot_ids.extend([-1] * spec.rows)
        self._capacity += spec.rows
        self._growth_groups += 1
        self._plan_stale = True

    def _free_slot(self) -> int:
        if self._next_slot >= self._capacity and self._dead:
            self.compact()
        if self._next_slot >= self._capacity:
            self.grow()
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def _insert_row(self, row: np.ndarray, forced_id: Optional[int] = None):
        snapshot = self._begin_mutation()
        slot = self._free_slot()
        duration = self._write_slot(slot, row)
        self._end_mutation(snapshot, duration)
        new_id = self._next_id if forced_id is None else int(forced_id)
        self._next_id = max(self._next_id, new_id + 1)
        self._slot_ids[slot] = new_id
        self._alive[slot] = True
        self._id_to_slot[new_id] = slot
        self._rows[new_id] = row.copy()
        return new_id

    def insert(self, patterns) -> List[int]:
        """Append patterns to the live store; returns their stable ids.

        Only the inserted rows are programmed (write energy charged per
        touched row through the amortized-setup model).  Capacity is
        secured up front — compaction reclaims tombstones, then whole
        growth banks are allocated — so either every row is inserted or
        :class:`StoreOverflow` is raised with nothing written.
        """
        self._require_store()
        rows = np.asarray(patterns, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[1] != self.program.plan.features:
            raise SessionError(
                f"inserted patterns must be rows of width "
                f"{self.program.plan.features}"
            )
        free = (self._capacity - self._next_slot) + self._dead
        while free < rows.shape[0]:
            self.grow()
            free += self.spec.rows
        ids = [self._insert_row(row) for row in rows]
        self.mutations += 1
        return ids

    def delete(
        self, ids: Union[int, Iterable[int]], _compact: bool = True
    ) -> None:
        """Tombstone patterns by id.

        Each covering tile row is erased (valid bit cleared, charged like
        a write), so the rows vanish from every subsequent top-k without
        re-programming anything else.  Crossing
        :attr:`compact_threshold` tombstone density triggers a
        defragmenting re-pack.
        """
        self._require_store()
        if isinstance(ids, (int, np.integer)):
            ids = [ids]
        ids = list(dict.fromkeys(int(i) for i in ids))
        unknown = [i for i in ids if i not in self._id_to_slot]
        if unknown:
            raise SessionError(f"no stored pattern(s) with id(s) {unknown}")
        snapshot = self._begin_mutation()
        duration = 0.0
        for row_id in ids:
            slot = self._id_to_slot.pop(row_id)
            duration += self._erase_slot(slot)
            self._alive[slot] = False
            self._slot_ids[slot] = -1
            del self._rows[row_id]
            self._dead += 1
        self._end_mutation(snapshot, duration)
        self.mutations += 1
        if _compact:
            self._maybe_compact()

    def update(self, pattern_id: int, pattern) -> None:
        """Overwrite one live pattern in place (per-row write charge)."""
        self._require_store()
        row = np.asarray(pattern, dtype=np.float64).reshape(-1)
        if row.shape[0] != self.program.plan.features:
            raise SessionError(
                f"updated pattern must have width "
                f"{self.program.plan.features}"
            )
        pattern_id = int(pattern_id)
        slot = self._id_to_slot.get(pattern_id)
        if slot is None:
            raise SessionError(f"no stored pattern with id {pattern_id}")
        snapshot = self._begin_mutation()
        duration = self._write_slot(slot, row)
        self._end_mutation(snapshot, duration)
        self._rows[pattern_id] = row.copy()
        self.mutations += 1

    def _maybe_compact(self) -> None:
        if (
            self._dead
            and self._next_slot
            and self._dead / self._next_slot > self.compact_threshold
        ):
            self.compact()

    def compact(self) -> int:
        """Re-pack survivors into the lowest slots; returns rows moved.

        Reuses the defragmenting re-pack discipline: survivors move in
        ascending slot order (targets are always already-free slots), so
        id order — and therefore every query result — is preserved.
        Only moved rows pay write/erase charges; an already-packed store
        compacts for free.
        """
        self._require_store()
        alive = np.flatnonzero(self._alive[: self._next_slot])
        snapshot = self._begin_mutation()
        duration = 0.0
        moved = 0
        slot_ids = [-1] * self._capacity
        for rank, old in enumerate(alive):
            old = int(old)
            row_id = self._slot_ids[old]
            slot_ids[rank] = row_id
            self._id_to_slot[row_id] = rank
            if old != rank:
                duration += self._write_slot(rank, self._rows[row_id])
                duration += self._erase_slot(old)
                moved += 1
        self._slot_ids = slot_ids
        self._alive[:] = False
        self._alive[: len(alive)] = True
        self._next_slot = int(len(alive))
        self._dead = 0
        self._end_mutation(snapshot, duration)
        self.compactions += 1
        return moved

    def store_state(self) -> StoreState:
        """Snapshot the surviving rows (ascending id) for replay."""
        self._require_store()
        return StoreState(
            rows=tuple(
                (i, self._rows[i].copy()) for i in sorted(self._id_to_slot)
            ),
            next_id=self._next_id,
        )

    def restore(self, state: StoreState) -> None:
        """Replay this store to ``state`` with the minimal mutation set.

        Ids present here but absent from ``state`` are deleted, changed
        rows are updated in place, missing ids are inserted in ascending
        order; an unchanged store is a no-op charging zero rows.  After a
        delete phase the store compacts once, so the bank footprint of a
        replay is deterministic (what cluster re-placement sizes for).
        """
        self._require_store()
        target = {int(i): np.asarray(row, dtype=np.float64)
                  for i, row in state.rows}
        current = sorted(self._id_to_slot)
        doomed = [i for i in current if i not in target]
        kept = [i for i in current if i in target]
        new = sorted(i for i in target if i not in self._id_to_slot)
        if kept and new and min(new) < max(kept):
            # Interleaved ids cannot be appended in rank order; rebuild.
            doomed, kept, new = current, [], sorted(target)
        if doomed:
            self.delete(doomed, _compact=False)
            self.compact()
        for i in kept:
            if not np.array_equal(self._rows[i], target[i]):
                self.update(i, target[i])
        inserted = False
        for i in new:
            self._insert_row(target[i], forced_id=i)
            inserted = True
        if inserted:
            self.mutations += 1
        self._next_id = max(self._next_id, int(state.next_id))

    # ------------------------------------------------------------- widths
    def query_width(self) -> int:
        """The kernel's feature dimension."""
        return self.program.plan.features

    def setup_report(self) -> ExecutionReport:
        """Zero-query baseline: this session's programming cost and its
        own (tenant-scoped, when colocated) hierarchy slice."""
        return ExecutionReport(
            setup_latency_ns=self.setup_latency_ns,
            energy=EnergyBreakdown(write=self.setup_energy_pj),
            banks_used=self.banks_used,
            mats_used=self.mats_used,
            arrays_used=self.arrays_used,
            subarrays_used=self.subarrays_used,
            rows_written=self.rows_written,
            queries=0,
            spec=self.spec,
        )

    def report(self) -> ExecutionReport:
        """The most recent batch report, or the setup baseline before
        any batch ran (sessions don't accumulate traffic themselves —
        a :class:`~repro.runtime.backend.LaneStats` lane does)."""
        return self.last_report or self.setup_report()

    # ------------------------------------------------------------- queries
    def run_batch(self, queries: np.ndarray) -> List[np.ndarray]:
        """Answer a ``B×D`` query batch; returns ``[values, indices]``.

        ``values`` is ``B×k`` float32, ``indices`` ``B×k`` int64 —
        bitwise identical (noise disabled) to stacking ``B`` sequential
        single-query executions.  The resulting
        :attr:`last_report` charges this batch's query latency/energy
        plus the session's one-time setup cost.
        """
        plan, machine = self.program.plan, self.machine
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.ndim != 2:
            raise SessionError("query batch must be a 1-D or 2-D array")
        if queries.shape[1] != plan.features:
            raise SessionError(
                f"query width {queries.shape[1]} does not match the "
                f"kernel's feature dimension {plan.features}"
            )
        fused_plan = self._ready_plan()
        if fused_plan:
            return self._run_batch_fused(fused_plan, queries)
        n_queries = queries.shape[0]
        if self.noise_sigma > 0.0:
            machine.reseed_noise(self._noise_seq.spawn(1)[0])
        before = self._counters()
        machine.begin_query()

        stacked = plan.batches > 1
        t0 = self._time
        alive_slots = np.flatnonzero(self._alive[: self._next_slot])
        n_alive = int(alive_slots.size)
        # --- search: one vectorized machine call per placed tile -------
        search_end = t0
        if stacked:
            window = plan.patterns
            for lin, batch, (_rp, cp) in self.program.tiles():
                qslice = queries[
                    :, cp * plan.col_tile : (cp + 1) * plan.col_tile
                ]
                dur = machine.search(
                    self._sub_ids[lin], qslice,
                    search_type="best", metric=self.program.metric,
                    row_begin=batch * plan.patterns,
                    row_count=window, accumulate=True, at=t0,
                )
                search_end = max(search_end, t0 + dur)
        else:
            for group in self._row_groups:
                for cp, sub in enumerate(group.subs):
                    qslice = queries[
                        :, cp * plan.col_tile : (cp + 1) * plan.col_tile
                    ]
                    dur = machine.search(
                        sub, qslice,
                        search_type="best", metric=self.program.metric,
                        row_begin=0, row_count=group.window,
                        accumulate=False, at=t0,
                    )
                    search_end = max(search_end, t0 + dur)
        # --- read + merge: B×slots score matrix ------------------------
        width = plan.patterns if stacked else self._capacity
        scores = np.zeros((n_queries, width), dtype=np.float64)
        merge_end = search_end
        if stacked:
            for lin in range(plan.subarrays):
                values, _idx, rdur = machine.read_batch(
                    self._sub_ids[lin], window, at=search_end
                )
                n = min(values.shape[-1], plan.patterns)
                if n > 0:
                    scores[:, :n] += values[:, :n]
                mdur = machine.merge(
                    "subarray", max(n, 0), at=search_end + rdur,
                    n_queries=n_queries,
                )
                merge_end = max(merge_end, search_end + rdur + mdur)
        else:
            for group in self._row_groups:
                used = max(
                    0, min(group.window, self._next_slot - group.base_slot)
                )
                for sub in group.subs:
                    values, _idx, rdur = machine.read_batch(
                        sub, group.window, at=search_end
                    )
                    if used > 0:
                        scores[
                            :, group.base_slot : group.base_slot + used
                        ] += values[:, :used]
                    mdur = machine.merge(
                        "subarray", used, at=search_end + rdur,
                        n_queries=n_queries,
                    )
                    merge_end = max(merge_end, search_end + rdur + mdur)
        for level in ("array", "mat", "bank"):
            merge_end += machine.merge(
                level, plan.patterns, at=merge_end, n_queries=n_queries
            )
        # --- per-query top-k over surviving rows only ------------------
        # Tombstones never reach the selector: the accumulate path packs
        # live rows into slots 0..n-1, the latch path leaves them at the
        # no-match value and the alive-slot gather drops them.  Survivor
        # columns appear in slot order == id order, so the reported
        # indices are exactly the ranks a rebuilt store would report.
        if stacked:
            scores_alive = scores[:, :n_alive]
        elif n_alive == self._capacity:
            scores_alive = scores
        else:
            scores_alive = scores[:, alive_slots]
        k = self.program.k if self.serve_k is None else self.serve_k
        if n_alive > 0:
            values, indices, _dur = machine.select_topk_batch(
                scores_alive, k, self.program.largest, at=merge_end,
            )
        else:
            values = np.zeros((n_queries, 0), dtype=np.float64)
            indices = np.zeros((n_queries, 0), dtype=np.int64)
        # The authoritative batch latency is structural (B x the
        # interpreter-measured per-query walk); advance the session
        # trace clock by it so successive batches land back-to-back.
        self._time = t0 + n_queries * self.per_query_latency_ns
        # Raw scores of the selected rows (selection ignores the WTA
        # clamp, so indices are exact; values may be clamped).
        self.last_values = np.take_along_axis(scores_alive, indices, axis=1)
        self.last_indices = indices
        self.last_report = self._report(before, n_queries)
        self.batches_run += 1
        return [values.astype(np.float32), indices.astype(np.int64)]

    def _ready_plan(self):
        """The fused plan the next batch runs on, or a false value when
        it takes the unfused walk.

        Fused fast path: trace once, refresh the touched slots after
        mutations, execute flat.  Noise keeps the unfused walk (draws
        are per-machine-call); a store the tracer cannot validate falls
        back to it (False) until the next mutation.
        """
        if not self.fused or self.noise_sigma != 0.0:
            return None
        fused_plan = self._fused_plan
        if fused_plan and self._plan_stale:
            if not fused_plan.refresh(self, self._touched_slots):
                fused_plan = False
        elif fused_plan is None or self._plan_stale:
            fused_plan = build_fused_plan(self) or False
        self._fused_plan = fused_plan
        self._plan_stale = False
        self._touched_slots.clear()
        return fused_plan

    def _run_batch_fused(self, fused_plan, queries) -> List[np.ndarray]:
        """Answer one batch through the traced :class:`FusedPlan`.

        Bitwise identical to the unfused walk in results, ``last_*``
        state and the batch report — the plan replays the walk's exact
        float accumulation order and charge schedule.
        """
        n_queries = queries.shape[0]
        before = self._counters()
        k = self.program.k if self.serve_k is None else self.serve_k
        values, indices, self.last_values = fused_plan.execute(queries, k)
        self._time += n_queries * self.per_query_latency_ns
        self.last_indices = indices
        self.last_report = self._report(before, n_queries)
        self.batches_run += 1
        self.fused_runs += 1
        return [values.astype(np.float32), indices.astype(np.int64)]

    # -------------------------------------------------------------- report
    def _counters(self):
        machine = self.machine
        return (
            dict(machine.energy.as_dict()),
            machine.total_searches,
            [machine.subarray(sub).searches for sub in self._sub_ids],
        )

    def _standby_energy(self, latency_ns: float) -> float:
        """Standby energy over this session's *own* hierarchy slice.

        Mirrors :meth:`CamMachine.standby_energy` but with tenant-scoped
        instance counts, so a colocated session is charged standby for
        exactly the banks it occupies — identical to the machine-wide
        figure when the session owns the whole machine.
        """
        if self.spec.optimization_target in ("power", "power+density"):
            powered = self.arrays_used
        else:
            powered = self.subarrays_used
        standby_mw = self.tech.standby_power(
            self.spec,
            subarrays=powered,
            arrays=self.arrays_used,
            mats=self.mats_used,
            banks=self.banks_used,
        )
        duty = self.machine.standby_duty(self.array_base, self.arrays_used)
        return standby_mw * latency_ns * duty

    def _report(self, before, n_queries: int) -> ExecutionReport:
        """Batch report: this batch's query work + one-time setup cost.

        Counter *deltas* attribute the work: on a shared machine only
        this session touched the machine between the snapshots (batches
        are serialized per machine), so the report charges exactly this
        tenant's searches/energy, and the allocation fields cover its
        own banks rather than the whole fabric.
        """
        machine = self.machine
        energy_before, searches_before, sub_before = before
        energy_now = machine.energy.as_dict()
        energy = EnergyBreakdown(**{
            key: energy_now[key] - energy_before[key] for key in energy_now
        })
        energy.write = self.setup_energy_pj
        latency = n_queries * self.per_query_latency_ns
        energy.standby += self._standby_energy(latency)
        cycles = max(
            (machine.subarray(self._sub_ids[i]).searches - sub_before[i]
             for i in range(len(sub_before))),
            default=0,
        )
        return ExecutionReport(
            query_latency_ns=latency,
            setup_latency_ns=self.setup_latency_ns,
            energy=energy,
            banks_used=self.banks_used,
            mats_used=self.mats_used,
            arrays_used=self.arrays_used,
            subarrays_used=self.subarrays_used,
            searches=machine.total_searches - searches_before,
            search_cycles=cycles,
            rows_written=self.rows_written,
            queries=n_queries,
            spec=self.spec,
        )
