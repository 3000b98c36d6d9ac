"""Sharded multi-machine sessions: one stored set, N programmed machines.

A single CAM machine caps out when the stored-pattern matrix needs more
banks than the :class:`~repro.arch.spec.ArchSpec` provides.  The paper's
answer to capacity is tiling — banks/mats/subarrays inside one machine —
and this module extends the same idea *across* machines, the way
far-memory serving systems (AMU's accessibility graphs, Atlas' hybrid
data plane) scale a fast single-device path into a serving deployment:

* **row sharding** — the ``P×D`` stored matrix splits into contiguous
  row ranges, one per shard.  Each shard is an independently compiled
  and programmed machine: its own lowered module, partition plan and
  :class:`~repro.runtime.session.QuerySession`;
* **fan-out** — a query batch is broadcast to every shard and streamed
  through PR 1's vectorized ``run_batch`` on each;
* **merge** — per-shard top-k candidates (local indices shifted by the
  shard's row offset) are re-ranked by a host-side selection into the
  global top-k.

Functionally the merge is *bitwise identical* to one oversized machine:
match-line scores are row-local (a row's score never depends on other
stored rows), each shard keeps its ``min(k, rows)`` best with the same
stable lowest-index tie-break the single-machine peripheral uses
(:func:`~repro.simulator.peripherals.best_match_batch`), and candidates
are concatenated in row-offset order — so equal scores still resolve to
the lowest global row index.  The re-rank runs on the shards' full-
precision *unclamped* (float64) scores, not the float32 outputs; a
winner-take-all sensing window (``tech.wta_window``) is applied once at
the merge against the candidate-set winner — the global winner, since
every shard keeps its own best — matching the single-machine clamp.

Timing follows the deployment model: shards are separate machines, so
programming and querying proceed in parallel — batch latency is the
**max over shards** plus the host merge hop (a top-k over ``Σ min(k,
rows_i)`` candidates); setup latency is the max over shards.  Energy,
allocation counts and chip area are **summed** across shards (N machines
really do burn N machines' worth of energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.spec import ArchSpec
from repro.arch.technology import TechnologyModel
from repro.dialects import arith as arith_d
from repro.dialects import cim as cim_d
from repro.dialects import func as func_d
from repro.ir.builder import OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.types import FunctionType, TensorType, f32, i64, index
from repro.passes.pass_manager import PassManager
from repro.simulator.metrics import (
    EnergyBreakdown,
    ExecutionReport,
    aggregate_reports,
)
from repro.simulator.peripherals import best_match_batch
from repro.transforms.cim_to_cam import CimToCamPass
from repro.transforms.optimizations import MappingConfig, resolve_optimization
from repro.transforms.partitioning import (
    CapacityError,
    CimPartitionPass,
    compute_partition_plan,
    machine_row_capacity,
)

from .backend import SessionError
from .machineview import MachineGroupView
from .session import QuerySession, StoreOverflow, StoreState


# --------------------------------------------------------------- planning
def shard_sizes(patterns: int, num_shards: int) -> List[int]:
    """Balanced contiguous row counts: ``ceil`` rows first, never empty."""
    if not 1 <= num_shards <= patterns:
        raise ValueError(
            f"cannot split {patterns} stored rows into {num_shards} shards"
        )
    base, extra = divmod(patterns, num_shards)
    return [base + 1] * extra + [base] * (num_shards - extra)


def plan_shard_count(
    patterns: int,
    features: int,
    queries: int,
    spec: ArchSpec,
    use_density: bool,
    num_shards: Optional[int] = None,
) -> int:
    """Shard count for a ``patterns×features`` store on ``spec`` machines.

    ``num_shards=None`` auto-sizes: 1 when the store fits one machine,
    otherwise the smallest count whose largest shard fits.  An explicit
    ``num_shards`` is honoured as-is and validated — in particular
    ``num_shards=1`` on an overflowing store raises
    :class:`~repro.transforms.partitioning.CapacityError` (the
    no-silent-truncation guarantee).
    """

    def overflow() -> CapacityError:
        # Always report the *full* store: required_rows/available_rows
        # and the suggested minimum shard count describe the workload,
        # not whichever shard size happened to trip the check.
        return CapacityError(
            compute_partition_plan(
                patterns, features, queries, spec, use_density
            ),
            spec,
            use_density,
        )

    capacity = machine_row_capacity(spec, features, use_density)
    if num_shards is not None:
        if (
            capacity is not None
            and max(shard_sizes(patterns, num_shards)) > capacity
        ):
            raise overflow()
        return num_shards
    if capacity is None or patterns <= capacity:
        return 1
    if capacity == 0:
        # Even one-row shards overflow at this feature width; sharding
        # cannot help.
        raise overflow()
    # The largest balanced shard is ceil(patterns / count), so the
    # smallest fitting count is ceil(patterns / capacity).
    return math.ceil(patterns / capacity)


@dataclass(frozen=True)
class Shard:
    """One machine's slice of the stored set, compiled and ready.

    ``module`` is the shard's fully lowered (cam-dialect) module whose
    single parameter is ``stored`` (the ``rows×features`` row slice);
    ``program`` the query-phase structure its
    :class:`~repro.runtime.session.QuerySession` replays; ``row_offset``
    is the global id of the shard's first stored row, and its other
    compiled rows follow consecutively.  A shard split off at runtime
    holds one row, so its offset is that row's id.
    """

    module: ModuleOp
    stored: np.ndarray
    program: object  # QueryProgram
    row_offset: int

    @property
    def rows(self) -> int:
        return self.stored.shape[0]


@dataclass(frozen=True)
class ShardSet:
    """A compiled shard partition of one similarity kernel."""

    shards: Tuple[Shard, ...]
    k: int          # the kernel's global top-k
    patterns: int
    features: int
    #: Mutation metadata — the *cim-level* similarity semantics and
    #: mapping config the shards were compiled with, kept so an
    #: overflowing insert can compile a brand-new shard through the
    #: identical pipeline.  ``None`` on hand-built shard sets, which
    #: therefore cannot split on overflow.
    metric: Optional[str] = None
    sim_largest: Optional[bool] = None
    n_queries: int = 1
    config: Optional[MappingConfig] = None

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def row_offsets(self) -> List[int]:
        return [shard.row_offset for shard in self.shards]


def _build_shard_module(
    n_queries: int,
    rows: int,
    features: int,
    metric: str,
    k: int,
    largest: bool,
) -> ModuleOp:
    """A minimal cim-level similarity module over one row slice.

    ``forward(queries: Q×D, stored: rows×D) -> (values, indices)`` with a
    single ``cim.execute { cim.similarity }`` block — exactly the shape
    the ``cim-partition`` / ``cim-to-cam`` passes expect, so each shard
    lowers through the standard pipeline and its session measures honest
    structural timing from the loop nest.
    """
    k_eff = min(k, rows)
    query_t = TensorType([n_queries, features], f32)
    stored_t = TensorType([rows, features], f32)
    values_t = TensorType([n_queries, k_eff], f32)
    indices_t = TensorType([n_queries, k_eff], i64)

    module = ModuleOp()
    fn = func_d.FuncOp(
        "forward", FunctionType([query_t, stored_t], [values_t, indices_t])
    )
    module.append(fn)
    b = OpBuilder.at_end(fn.body)
    device = b.create(cim_d.AcquireOp).result
    k_const = b.create(arith_d.ConstantOp, k_eff, index).result
    execute = b.create(
        cim_d.ExecuteOp,
        device,
        [fn.arguments[1], fn.arguments[0], k_const],
        [values_t, indices_t],
    )
    body = OpBuilder.at_end(execute.body)
    sim = body.create(
        cim_d.SimilarityOp,
        metric,
        execute.body.arguments[0],
        execute.body.arguments[1],
        execute.body.arguments[2],
        k_static=k_eff,
        largest=largest,
    )
    body.create(cim_d.YieldOp, list(sim.results))
    b.create(cim_d.ReleaseOp, device)
    b.create(func_d.ReturnOp, list(execute.results))
    return module


def build_shard_set(
    stored: np.ndarray,
    n_queries: int,
    metric: str,
    k: int,
    largest: bool,
    spec: ArchSpec,
    config: Optional[MappingConfig] = None,
    num_shards: Optional[int] = None,
) -> ShardSet:
    """Partition ``stored`` into shards and compile each one.

    ``metric``/``largest`` are the *cim-level* similarity semantics (the
    per-shard pipeline re-applies CAM-type legalisation identically for
    every shard).  Raises
    :class:`~repro.transforms.partitioning.CapacityError` when the
    requested shard count still overflows a machine.
    """
    stored = np.atleast_2d(np.asarray(stored))
    patterns, features = stored.shape
    config = config or resolve_optimization(spec)
    count = plan_shard_count(
        patterns, features, n_queries, spec, config.use_density, num_shards
    )
    shards = []
    offset = 0
    for rows in shard_sizes(patterns, count):
        module = _build_shard_module(
            n_queries, rows, features, metric, k, largest
        )
        cam = CimToCamPass(spec, config)
        pm = PassManager()
        pm.add(CimPartitionPass(spec, use_density=config.use_density))
        pm.add(cam)
        pm.run(module)
        shards.append(
            Shard(
                module=module,
                stored=np.ascontiguousarray(stored[offset : offset + rows]),
                program=cam.programs[0],
                row_offset=offset,
            )
        )
        offset += rows
    return ShardSet(
        shards=tuple(shards), k=k, patterns=patterns, features=features,
        metric=metric, sim_largest=largest, n_queries=n_queries,
        config=config,
    )


# ---------------------------------------------------------------- sessions
class ShardedSession(MachineGroupView):
    """N live machines serving one similarity kernel's query stream.

    Owns one :class:`~repro.runtime.session.QuerySession` per shard —
    each machine is programmed exactly once with its row slice — and
    merges per-shard top-k results into global rows on
    :meth:`run_batch`.  Device noise decorrelates per shard and per
    batch via one :class:`numpy.random.SeedSequence`, reproducible for a
    fixed seed.

    The object also acts as the *aggregate machine view* consumed by
    :func:`repro.simulator.analysis.utilization` /
    ``format_report`` — ``subarrays_used``/``subarray(i)`` span all
    shard machines and :meth:`chip_area_mm2` sums their silicon.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        spec: ArchSpec,
        tech: TechnologyModel,
        func_name: str = "forward",
        noise_sigma: float = 0.0,
        noise_seed=0,
        fused: bool = True,
    ):
        if not shard_set.shards:
            raise SessionError("a sharded session needs at least one shard")
        children = self._bind(
            shard_set, spec, tech, func_name, noise_sigma, noise_seed, fused
        )
        self._adopt([
            QuerySession(
                shard.module,
                spec,
                tech,
                [shard.stored],
                shard.program,
                func_name=func_name,
                noise_sigma=noise_sigma,
                noise_seed=child,
                fused=fused,
            )
            for shard, child in zip(shard_set.shards, children)
        ])

    def _bind(
        self, shard_set, spec, tech, func_name, noise_sigma, noise_seed,
        fused,
    ) -> list:
        """Set the shard set and configuration; returns one noise seed
        per shard session."""
        self.shard_set = shard_set
        self.spec = spec
        self.tech = tech
        self.func_name = func_name
        self.fused = bool(fused)
        self.noise_sigma = float(noise_sigma)
        self._noise_seq = (
            noise_seed
            if isinstance(noise_seed, np.random.SeedSequence)
            else np.random.SeedSequence(noise_seed)
        )
        return self._noise_seq.spawn(len(shard_set.shards))

    def _adopt(self, sessions: List[QuerySession]) -> None:
        """Take the programmed per-shard sessions, with the compiled
        store's id directory."""
        shard_set = self.shard_set
        self.sessions = sessions
        #: Candidates each batch selects: the kernel's global k unless
        #: the caller sets it; :meth:`run_batch` hands it to every shard.
        self.serve_k = shard_set.k
        # Post-legalisation sort direction — identical across shards by
        # construction (same spec, same pipeline).
        self.largest = shard_set.shards[0].program.largest
        self.last_report: Optional[ExecutionReport] = None
        self.batches_run = 0
        # ---- mutable-store directory: global id -> (shard, local id).
        self._gid_map: Dict[int, Tuple[int, int]] = {
            shard.row_offset + local: (si, local)
            for si, shard in enumerate(shard_set.shards)
            for local in range(shard.rows)
        }
        self._next_gid = max(
            shard.row_offset + shard.rows for shard in shard_set.shards
        )
        self.mutations = 0
        self.compactions = 0

    # ------------------------------------------------------------ topology
    #: Aggregate machine view (:class:`MachineGroupView`): counters and
    #: silicon span every shard machine.
    _group_noun = "shard set"

    @property
    def num_shards(self) -> int:
        """Shard machines now, splits included."""
        return len(self.sessions)

    @property
    def machines(self) -> List:
        """The per-shard :class:`~repro.simulator.machine.CamMachine`\\ s."""
        return [session.machine for session in self.sessions]

    @property
    def row_offsets(self) -> List[int]:
        return self.shard_set.row_offsets

    # ------------------------------------------------------------- widths
    def query_width(self) -> int:
        """The kernel's feature dimension."""
        return self.shard_set.features

    def setup_report(self) -> ExecutionReport:
        """Zero-query baseline: shards program in parallel (setup is a
        max over machines) but every machine's write energy is paid."""
        return ExecutionReport(
            setup_latency_ns=max(
                s.setup_latency_ns for s in self.sessions
            ),
            energy=EnergyBreakdown(
                write=sum(s.setup_energy_pj for s in self.sessions)
            ),
            banks_used=self.banks_used,
            mats_used=self.mats_used,
            arrays_used=self.arrays_used,
            subarrays_used=self.subarrays_used,
            rows_written=sum(s.rows_written for s in self.sessions),
            queries=0,
            spec=self.spec,
        )

    def report(self) -> ExecutionReport:
        """The most recent merged batch report, or the setup baseline
        before any batch ran."""
        return self.last_report or self.setup_report()

    # ------------------------------------------------------------ lifecycle
    def clone(self, noise_seed=None) -> "ShardedSession":
        """An independent replica of the whole shard group.

        Reuses the compiled :class:`ShardSet` (per-shard modules, plans
        and programs) untouched — no recompilation — and walks no
        module: each shard's fresh machine is programmed by replaying
        the recorded setup walk of this group's session for that shard
        (shards split off at runtime included), which charges exactly
        what a second hardware copy of the deployment costs.  A mutated
        store is then replayed onto the fresh machines via
        :meth:`restore`, so the clone serves the *live* store, not the
        compile-time snapshot, and every shard traces its fused plan
        before the clone returns.  Noise decorrelates from the parent
        unless an explicit ``noise_seed`` is given.
        """
        session = ShardedSession.__new__(ShardedSession)
        children = session._bind(
            self.shard_set,
            self.spec,
            self.tech,
            self.func_name,
            self.noise_sigma,
            (
                self._noise_seq.spawn(1)[0] if noise_seed is None
                else noise_seed
            ),
            self.fused,
        )
        session._adopt([
            source._replica(child)
            for source, child in zip(self.sessions, children)
        ])
        if self.mutations or self.compactions:
            session.restore(self.store_state())
        for shard in session.sessions:
            shard._ready_plan()
        return session

    def reset(self) -> None:
        """Clear query-side state on every shard; patterns survive."""
        for session in self.sessions:
            session.reset()
        self.last_report = None
        self.batches_run = 0

    # ------------------------------------------------------------ mutations
    @property
    def pattern_count(self) -> int:
        """Live stored patterns across every shard."""
        return sum(session.pattern_count for session in self.sessions)

    @property
    def rows_written(self) -> int:
        return sum(session.rows_written for session in self.sessions)

    def _require_mutable(self) -> None:
        if self.shard_set.metric is None:
            raise SessionError(
                "this shard set carries no mutation metadata (hand-built "
                "via ShardSet(...)?); rebuild it with build_shard_set() "
                "to mutate the store"
            )

    def row_ids(self) -> List[int]:
        """Global ids of the live patterns in merge rank order."""
        local_to_gid: List[Dict[int, int]] = [
            {} for _ in range(len(self.sessions))
        ]
        for gid, (si, local) in self._gid_map.items():
            local_to_gid[si][local] = gid
        out: List[int] = []
        for si, session in enumerate(self.sessions):
            out.extend(local_to_gid[si][l] for l in session.row_ids())
        return out

    def insert(
        self, patterns: Union[np.ndarray, Sequence[Sequence[float]]]
    ) -> List[int]:
        """Append patterns to the store, splitting a new shard on
        overflow.

        Rows land in the *tail* shard (its machine grows whole banks in
        place) until that machine hits its bank cap; the overflowing row
        then becomes the seed of a brand-new shard compiled through the
        standard pipeline — a shard split, not a global re-shard: no
        existing machine is re-programmed.  Returns the new global ids.
        """
        self._require_mutable()
        rows = np.asarray(patterns, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[1] != self.shard_set.features:
            raise SessionError(
                f"insert expects rows of width {self.shard_set.features}, "
                f"got array of shape {rows.shape}"
            )
        gids = [self._insert_row(row) for row in rows]
        self.mutations += 1
        return gids

    def _insert_row(
        self, row: np.ndarray, forced_gid: Optional[int] = None
    ) -> int:
        gid = self._next_gid if forced_gid is None else int(forced_gid)
        si = len(self.sessions) - 1
        try:
            local = self.sessions[si].insert(row)[0]
        except StoreOverflow:
            si, local = self._append_shard(row, gid)
        self._next_gid = max(self._next_gid, gid + 1)
        self._gid_map[gid] = (si, local)
        return gid

    def _append_shard(self, row: np.ndarray, gid: int) -> Tuple[int, int]:
        """Compile and program a new single-row shard seeded with ``row``,
        whose global id ``gid`` becomes the shard's row offset."""
        ss = self.shard_set
        config = ss.config or resolve_optimization(self.spec)
        module = _build_shard_module(
            ss.n_queries, 1, ss.features, ss.metric, ss.k, ss.sim_largest
        )
        cam = CimToCamPass(self.spec, config)
        pm = PassManager()
        pm.add(CimPartitionPass(self.spec, use_density=config.use_density))
        pm.add(cam)
        pm.run(module)
        dtype = ss.shards[0].stored.dtype
        stored = np.ascontiguousarray(row[None, :].astype(dtype))
        shard = Shard(
            module=module,
            stored=stored,
            program=cam.programs[0],
            row_offset=gid,
        )
        self.shard_set = replace(ss, shards=ss.shards + (shard,))
        session = QuerySession(
            shard.module,
            self.spec,
            self.tech,
            [shard.stored],
            shard.program,
            func_name=self.func_name,
            noise_sigma=self.noise_sigma,
            noise_seed=self._noise_seq.spawn(1)[0],
            fused=self.fused,
        )
        self.sessions.append(session)
        return len(self.sessions) - 1, 0

    def delete(self, ids: Union[int, Sequence[int]]) -> None:
        """Tombstone stored patterns by global id (grouped per shard)."""
        self._require_mutable()
        if isinstance(ids, (int, np.integer)):
            ids = [int(ids)]
        ids = list(dict.fromkeys(int(i) for i in ids))
        unknown = [i for i in ids if i not in self._gid_map]
        if unknown:
            raise SessionError(f"no stored pattern with id {unknown[0]}")
        by_shard: Dict[int, List[Tuple[int, int]]] = {}
        for gid in ids:
            si, local = self._gid_map[gid]
            by_shard.setdefault(si, []).append((gid, local))
        for si, pairs in sorted(by_shard.items()):
            self.sessions[si].delete([local for _gid, local in pairs])
            for gid, _local in pairs:
                del self._gid_map[gid]
        self.mutations += 1

    def update(self, pattern_id: int, pattern: np.ndarray) -> None:
        """Rewrite one stored pattern in place on its shard."""
        self._require_mutable()
        gid = int(pattern_id)
        if gid not in self._gid_map:
            raise SessionError(f"no stored pattern with id {gid}")
        si, local = self._gid_map[gid]
        self.sessions[si].update(local, pattern)
        self.mutations += 1

    def compact(self) -> int:
        """Defragment every shard; returns total rows moved."""
        self._require_mutable()
        moved = sum(session.compact() for session in self.sessions)
        self.compactions += 1
        return moved

    def store_state(self) -> StoreState:
        """Snapshot of the live store: global ids and their rows."""
        self._require_mutable()
        rows = []
        for gid in sorted(self._gid_map):
            si, local = self._gid_map[gid]
            rows.append((gid, self.sessions[si].pattern(local)))
        return StoreState(rows=tuple(rows), next_id=self._next_gid)

    def restore(self, state: StoreState) -> None:
        """Drive the live store to ``state`` with incremental mutations.

        Same cheap-diff contract as
        :meth:`~repro.runtime.session.QuerySession.restore`: deletes,
        in-place updates and tail inserts when the target id order
        allows it, otherwise a delete-all + insert-all replay.
        """
        self._require_mutable()
        target = {
            int(i): np.asarray(row, dtype=np.float64) for i, row in state.rows
        }
        current = sorted(self._gid_map)
        doomed = [g for g in current if g not in target]
        kept = [g for g in current if g in target]
        new = sorted(g for g in target if g not in self._gid_map)
        if kept and new and min(new) < max(kept):
            doomed, kept, new = current, [], sorted(target)
        if doomed:
            self.delete(doomed)
        for gid in kept:
            si, local = self._gid_map[gid]
            if not np.array_equal(self.sessions[si].pattern(local), target[gid]):
                self.update(gid, target[gid])
        for gid in new:
            self._insert_row(target[gid], forced_gid=gid)
        if new:
            self.mutations += 1
        self._next_gid = max(self._next_gid, int(state.next_id))

    # ------------------------------------------------------------- queries
    def run_batch(self, queries: np.ndarray) -> List[np.ndarray]:
        """Fan a ``B×D`` batch out to every shard and merge the top-k.

        Returns ``[values, indices]`` (``B×k`` float32 / int64) with
        *global* row indices — bitwise identical (noise disabled) to one
        unbounded machine holding the whole stored matrix.  The merge
        re-ranks the shards' float64 candidate scores with the same
        stable tie-break as the single-machine top-k peripheral.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        # Every shard selects the global k: a shard that grew past its
        # compiled row count must still surface enough candidates.
        for session in self.sessions:
            session.serve_k = self.serve_k
        outputs = [session.run_batch(queries) for session in self.sessions]
        n_queries = queries.shape[0]
        # Candidates concatenate in row-offset order, so the stable
        # argsort's positional tie-break equals the global-row tie-break.
        # Offsets are the *live* pattern counts (mutations shrink and
        # grow shards independently), which reduce to the static row
        # offsets on an unmutated store.
        values = np.concatenate(
            [session.last_values for session in self.sessions], axis=1
        )
        offsets = np.concatenate(
            ([0], np.cumsum([s.pattern_count for s in self.sessions])[:-1])
        )
        indices = np.concatenate(
            [
                output[1].astype(np.int64) + int(offset)
                for output, offset in zip(outputs, offsets)
            ],
            axis=1,
        )
        # Candidates are *unclamped* shard scores; ranking matches the
        # raw-score argsort a single machine performs, and the WTA
        # clamp (when the tech models one) applies once here — the
        # candidate-set winner is the global winner, since every shard
        # keeps its own best.
        k = min(self.serve_k, values.shape[1])
        selection, top_values = best_match_batch(
            values, k, prefers_larger=self.largest,
            wta_window=self.tech.wta_window,
        )
        top_indices = np.take_along_axis(indices, selection, axis=1)
        n_candidates = values.shape[1]
        merge_latency = n_queries * self.tech.host_topk_latency(n_candidates)
        merge_energy = n_queries * self.tech.host_topk_energy(n_candidates)
        self.last_report = aggregate_reports(
            [session.last_report for session in self.sessions],
            merge_latency_ns=merge_latency,
            merge_energy_pj=merge_energy,
            queries=n_queries,
        )
        self.batches_run += 1
        return [
            top_values.astype(np.float32),
            top_indices.astype(np.int64),
        ]
