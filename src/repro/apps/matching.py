"""Exact and threshold pattern matching on CAM.

The paper's introduction motivates CAMs with *exact matching* workloads
(network security, data mining) and *approximate/threshold search*
(bioinformatics, genome analysis): a stored pattern "matches" when its
distance to the query is within a threshold.  This module provides a
pattern-matching store built directly on the simulator machine — the
runtime-library usage mode of a CAM (akin to DT2CAM's mapping tool, but
generic over patterns), complementing the compiler-driven similarity path.

Patterns may contain TCAM don't-care positions
(:data:`repro.simulator.cells.DONT_CARE`), enabling wildcard rules such as
packet classifiers.

A rule store larger than one bank-capped machine raises
:class:`~repro.transforms.partitioning.CapacityError`;
:class:`ShardedPatternMatcher` splits the rows across several machines
instead (same fan-out/merge model as
:class:`repro.runtime.sharding.ShardedSession`) and returns global
pattern ids.  Both matchers also serve asynchronously:
:meth:`PatternMatcher.serve` puts the replicated micro-batching engine
(:class:`repro.runtime.serving.ServingEngine`) in front of the store —
submit queries, receive futures of :class:`MatchResult` lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arch.spec import ArchSpec
from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.runtime.sharding import aggregate_reports, plan_shard_count, shard_sizes
from repro.simulator.machine import CamMachine
from repro.simulator.metrics import ExecutionReport
from repro.simulator.peripherals import threshold_match
from repro.runtime.session import StoreOverflow
from repro.transforms.partitioning import (
    check_plan_capacity,
    compute_partition_plan,
)


@dataclass
class MatchResult:
    """One query's outcome: matching pattern ids and their distances."""

    indices: np.ndarray
    distances: np.ndarray

    @property
    def matched(self) -> bool:
        return self.indices.size > 0

    @property
    def first(self) -> int:
        """Priority-encoded first match (lowest pattern id), or -1."""
        return int(self.indices.min()) if self.matched else -1


class PatternMatcher:
    """A CAM-resident pattern store with exact/threshold lookup.

    Patterns are tiled over the hierarchy exactly like the compiler's
    partitioning (column tiles × row tiles); per-subarray Hamming partials
    are merged and thresholded — distance 0 is an exact match.
    """

    def __init__(
        self,
        patterns: np.ndarray,
        spec: ArchSpec,
        tech: TechnologyModel = FEFET_45NM,
    ):
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
        self.patterns = patterns
        self.spec = spec
        self.tech = tech
        n, d = patterns.shape
        if d % min(spec.cols, d) != 0 and d > spec.cols:
            raise ValueError(
                f"pattern width {d} must be a multiple of the subarray "
                f"width {spec.cols} (pad with don't-cares)"
            )
        self.plan = compute_partition_plan(n, d, 1, spec, use_density=False)
        # Overflowing a bank-capped machine fails loudly (CapacityError
        # with required vs. available rows) before any allocation.
        check_plan_capacity(self.plan, spec)
        self.machine = CamMachine(spec, tech)
        self.setup_time = 0.0
        self._sub_ids: List[int] = []
        self._place()
        self._time = 0.0
        self._queries = 0
        # Live-store bookkeeping: pattern ids are stable across
        # insert/delete — a deleted slot is masked out of every lookup
        # and reused by later inserts, so the store mutates with per-row
        # write energy instead of a re-program.
        self._capacity = self.plan.row_tiles * self.plan.row_tile
        self._window = self.plan.patterns   # scored row prefix
        self._alive = np.zeros(self._capacity, dtype=bool)
        self._alive[: n] = True
        self._slot_ids = np.full(self._capacity, -1, dtype=np.int64)
        self._slot_ids[: n] = np.arange(n)
        self._slot_of = {i: i for i in range(n)}
        self._rows = {i: patterns[i].copy() for i in range(n)}
        self._next_id = n
        self._free: List[int] = []
        self._mutated = False

    def _place(self) -> None:
        plan, spec, m = self.plan, self.spec, self.machine
        for lin in range(plan.subarrays):
            if lin % spec.subarrays_per_bank == 0:
                bank = m.alloc_bank()
            if lin % spec.subarrays_per_mat == 0:
                mat = m.alloc_mat(bank)
            if lin % spec.subarrays_per_array == 0:
                array = m.alloc_array(mat)
            sub = m.alloc_subarray(array)
            self._sub_ids.append(sub)
            rp, cp = lin // plan.col_tiles, lin % plan.col_tiles
            tile = self.patterns[
                rp * plan.row_tile : (rp + 1) * plan.row_tile,
                cp * plan.col_tile : (cp + 1) * plan.col_tile,
            ]
            if tile.size:
                self.setup_time += m.write_value(sub, tile, at=self.setup_time)

    # ----------------------------------------------------------- mutations
    @property
    def pattern_count(self) -> int:
        """Live (non-deleted) patterns in the store."""
        return len(self._rows)

    def row_ids(self) -> List[int]:
        """Live pattern ids, ascending."""
        return sorted(self._rows)

    def _slot_tiles(self, slot: int):
        plan = self.plan
        rp, r = divmod(slot, plan.row_tile)
        d = self.patterns.shape[1]
        for cp in range(plan.col_tiles):
            c0 = cp * plan.col_tile
            yield self._sub_ids[rp * plan.col_tiles + cp], r, c0, \
                min(c0 + plan.col_tile, d)

    def insert(self, patterns: np.ndarray) -> List[int]:
        """Add rules to the live store; returns their stable ids.

        Deleted slots are reused first; past those, inserts extend into
        the machine's padded row capacity.  A full store raises
        :class:`~repro.runtime.session.StoreOverflow` — nothing is
        written.  Each insert charges one row write per column tile, not
        a re-program.
        """
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
        if patterns.shape[1] != self.patterns.shape[1]:
            raise ValueError(
                f"pattern width {patterns.shape[1]} does not match store "
                f"width {self.patterns.shape[1]}"
            )
        ids: List[int] = []
        for row in patterns:
            if self._free:
                slot = self._free.pop(0)
            elif self._window < self._capacity:
                slot = self._window
                self._window += 1
            else:
                raise StoreOverflow(
                    f"pattern store is full: {self._capacity} rows in use "
                    "and the machine cannot grow"
                )
            for sub, r, c0, c1 in self._slot_tiles(slot):
                self.setup_time += self.machine.write_value(
                    sub, row[c0:c1], row_offset=r, at=self.setup_time
                )
            pid = self._next_id
            self._next_id += 1
            self._alive[slot] = True
            self._slot_ids[slot] = pid
            self._slot_of[pid] = slot
            self._rows[pid] = row.copy()
            ids.append(pid)
        self._mutated = True
        return ids

    def delete(self, ids) -> None:
        """Tombstone rules by id; their slots are masked from every
        lookup and reused by later inserts."""
        ids = [int(i) for i in dict.fromkeys(np.atleast_1d(ids).tolist())]
        missing = [i for i in ids if i not in self._slot_of]
        if missing:
            raise KeyError(f"no stored pattern(s) with id(s) {missing}")
        for pid in ids:
            slot = self._slot_of.pop(pid)
            del self._rows[pid]
            self._alive[slot] = False
            self._slot_ids[slot] = -1
            for sub, r, _c0, _c1 in self._slot_tiles(slot):
                self.setup_time += self.machine.erase(
                    sub, row_offset=r, row_count=1, at=self.setup_time
                )
            self._free.append(slot)
        self._free.sort()
        self._mutated = True

    def update(self, pattern_id: int, pattern: np.ndarray) -> None:
        """Rewrite one rule in place (same id, per-row write energy)."""
        pattern_id = int(pattern_id)
        if pattern_id not in self._slot_of:
            raise KeyError(f"no stored pattern with id {pattern_id}")
        row = np.asarray(pattern, dtype=np.float64).reshape(-1)
        if row.shape[0] != self.patterns.shape[1]:
            raise ValueError(
                f"pattern width {row.shape[0]} does not match store "
                f"width {self.patterns.shape[1]}"
            )
        slot = self._slot_of[pattern_id]
        for sub, r, c0, c1 in self._slot_tiles(slot):
            self.setup_time += self.machine.write_value(
                sub, row[c0:c1], row_offset=r, at=self.setup_time
            )
        self._rows[pattern_id] = row.copy()
        self._mutated = True

    # ------------------------------------------------------------- queries
    def lookup(self, query: np.ndarray, threshold: float = 0.0) -> MatchResult:
        """Find stored patterns within ``threshold`` Hamming distance.

        ``threshold=0`` is exact match (EX); larger thresholds give the
        TH scheme of paper §II-B.  Don't-care cells never mismatch.
        """
        return self.lookup_batch(
            np.asarray(query, dtype=np.float64).reshape(1, -1), threshold
        )[0]

    def lookup_batch(
        self, queries: np.ndarray, threshold: float = 0.0
    ) -> List[MatchResult]:
        """Vectorized :meth:`lookup` over a ``B×D`` query matrix.

        The whole batch streams through each subarray in one machine
        call (batched match-line computation); results come back per
        query.  Timing follows the program-once model: the batch
        occupies the machine for ``B ×`` the single-lookup latency.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.patterns.shape[1]:
            raise ValueError(
                f"query width {queries.shape[1]} does not match pattern "
                f"width {self.patterns.shape[1]}"
            )
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        plan, m = self.plan, self.machine
        m.begin_query()
        self._queries += n_queries
        t0 = self._time + self.tech.frontend_latency(self.spec)
        window = self._window
        scores = np.zeros((n_queries, window))
        phase = 0.0
        search_type = "exact" if threshold == 0.0 else "threshold"
        for lin, sub in enumerate(self._sub_ids):
            rp, cp = lin // plan.col_tiles, lin % plan.col_tiles
            row0 = rp * plan.row_tile
            if row0 >= window:
                continue   # tiles past the live row prefix hold no rules
            qslice = queries[:, cp * plan.col_tile : (cp + 1) * plan.col_tile]
            dur = m.search(
                sub, qslice, search_type=search_type, metric="hamming",
                row_count=plan.row_tile, at=t0,
            ) / n_queries
            phase = max(phase, dur)
            vals, _idx, rdur = m.read_batch(sub, plan.row_tile, at=t0 + dur)
            phase = max(phase, dur + rdur / n_queries)
            n = min(vals.shape[-1], window - row0)
            scores[:, row0 : row0 + n] += vals[:, :n]
            m.merge("subarray", n, at=t0 + phase, n_queries=n_queries)
        per_query = (
            self.tech.frontend_latency(self.spec) + phase
            + 3 * self.tech.merge_latency("array")
            + self.tech.host_topk_latency(window)
        )
        self._time += n_queries * per_query
        mask = threshold_match(scores, threshold, prefers_larger=False)
        mask &= self._alive[None, :window]
        results = []
        for i, row in enumerate(mask):
            hits = np.flatnonzero(row)
            ids = self._slot_ids[hits]
            order = np.argsort(ids)   # stable ids, ascending-id contract
            results.append(
                MatchResult(
                    indices=ids[order].astype(np.int64),
                    distances=scores[i][hits][order],
                )
            )
        return results

    def report(self) -> ExecutionReport:
        """Metrics over every lookup performed so far.

        ``queries`` is the true lookup count (possibly 0 — use the
        report's ``per_query_*`` helpers for guarded averages).
        """
        rep = self.machine.finish(self._time, self.setup_time)
        rep.queries = self._queries
        return rep

    def serve(
        self,
        threshold: float = 0.0,
        num_replicas: int = 1,
        max_batch: int = 32,
        max_wait: float = 0.002,
    ):
        """An async lookup engine over this rule store.

        Returns a :class:`~repro.runtime.serving.ServingEngine` whose
        ``submit(query)`` futures resolve to the request's list of
        :class:`MatchResult`\\ s (one per submitted row) — identical to
        :meth:`lookup_batch` on the same rows at the fixed
        ``threshold``.  ``num_replicas > 1`` programs additional
        matchers over the same patterns (this matcher is replica 0;
        don't run synchronous lookups on it while the engine is live)
        and load-balances micro-batches across them.
        """
        if num_replicas > 1 and self._mutated:
            raise ValueError(
                "cannot replicate a mutated matcher: fresh replicas would "
                "renumber pattern ids; serve with num_replicas=1 or "
                "replicate before mutating"
            )
        matchers = [self] + [
            type(self)(self.patterns, self.spec, self.tech)
            for _ in range(num_replicas - 1)
        ]
        return _serve_matchers(matchers, threshold, max_batch, max_wait)


class _MatcherReplica:
    """Adapts a pattern matcher to the serving engine's replica contract:
    ``run_batch`` at a fixed threshold, per-matcher ``report()``."""

    def __init__(self, matcher, threshold: float):
        self.matcher = matcher
        self.threshold = threshold

    def query_width(self) -> int:
        """The rule width, so the engine rejects misfits at submit()."""
        return self.matcher.patterns.shape[1]

    def run_batch(self, queries: np.ndarray) -> List[MatchResult]:
        return self.matcher.lookup_batch(queries, self.threshold)

    def report(self) -> ExecutionReport:
        return self.matcher.report()


def _serve_matchers(matchers, threshold, max_batch, max_wait):
    from repro.runtime.serving import ServingEngine

    return ServingEngine(
        [_MatcherReplica(m, threshold) for m in matchers],
        max_batch=max_batch,
        max_wait=max_wait,
        # lookup_batch returns one MatchResult per query row; a
        # request's slice is just the sub-list.
        split=lambda results, lo, hi: results[lo:hi],
    )


class ShardedPatternMatcher:
    """A pattern store spanning several machines (row sharding).

    When a rule set exceeds one bank-capped machine, the rows split into
    contiguous shards — one :class:`PatternMatcher` (own machine) each.
    Lookups fan out to every shard and merge: threshold matching is
    row-local, so the union of per-shard hits (local ids shifted by the
    shard row offset) is exactly the single-machine match set, in
    ascending global-id order.  ``num_shards=None`` auto-sizes to the
    smallest count that fits; machines run in parallel, so
    :meth:`report` takes max-over-shards latency plus one cross-machine
    combine hop per query, and sums energy/allocation.
    """

    def __init__(
        self,
        patterns: np.ndarray,
        spec: ArchSpec,
        tech: TechnologyModel = FEFET_45NM,
        num_shards: Optional[int] = None,
    ):
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
        self.patterns = patterns
        self.spec = spec
        self.tech = tech
        n, d = patterns.shape
        count = plan_shard_count(
            n, d, 1, spec, use_density=False, num_shards=num_shards
        )
        self.row_offsets: List[int] = []
        self.shards: List[PatternMatcher] = []
        offset = 0
        for rows in shard_sizes(n, count):
            self.row_offsets.append(offset)
            self.shards.append(
                PatternMatcher(patterns[offset : offset + rows], spec, tech)
            )
            offset += rows
        self._queries = 0
        self._merge_time = 0.0
        self._merge_energy = 0.0
        # Per-shard local id -> global id.  Initially gid = offset +
        # local; inserts keep ids globally unique and stable while slots
        # are reused inside whichever shard had room.
        self._gid_of: List[dict] = [
            {local: offset + local for local in range(s.patterns.shape[0])}
            for s, offset in zip(self.shards, self.row_offsets)
        ]
        self._next_gid = n
        self._mutated = False

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ----------------------------------------------------------- mutations
    @property
    def pattern_count(self) -> int:
        """Live patterns across all shards."""
        return sum(shard.pattern_count for shard in self.shards)

    def row_ids(self) -> List[int]:
        """Live global pattern ids, ascending."""
        out: List[int] = []
        for mapping in self._gid_of:
            out.extend(mapping.values())
        return sorted(out)

    def insert(self, patterns: np.ndarray) -> List[int]:
        """Add rules; returns stable global ids.

        Each row lands in the first shard with a free or padded slot;
        when every shard is full a fresh one-row shard (its own machine)
        is appended — the store grows, it never re-shards.
        """
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
        gids: List[int] = []
        for row in patterns:
            local = None
            for j, shard in enumerate(self.shards):
                try:
                    local = shard.insert(row)[0]
                    break
                except StoreOverflow:
                    continue
            else:
                shard = PatternMatcher(row[None, :], self.spec, self.tech)
                self.shards.append(shard)
                self.row_offsets.append(self._next_gid)
                self._gid_of.append({})
                j, local = len(self.shards) - 1, 0
            gid = self._next_gid
            self._next_gid += 1
            self._gid_of[j][local] = gid
            gids.append(gid)
        self._mutated = True
        return gids

    def delete(self, ids) -> None:
        """Tombstone rules by global id across shards."""
        ids = [int(i) for i in dict.fromkeys(np.atleast_1d(ids).tolist())]
        where = {}
        for j, mapping in enumerate(self._gid_of):
            for local, gid in mapping.items():
                where[gid] = (j, local)
        missing = [g for g in ids if g not in where]
        if missing:
            raise KeyError(f"no stored pattern(s) with id(s) {missing}")
        by_shard: dict = {}
        for gid in ids:
            j, local = where[gid]
            by_shard.setdefault(j, []).append(local)
            del self._gid_of[j][local]
        for j, locals_ in by_shard.items():
            self.shards[j].delete(locals_)
        self._mutated = True

    # ------------------------------------------------------------- queries
    def lookup(self, query: np.ndarray, threshold: float = 0.0) -> MatchResult:
        """Single-query :meth:`PatternMatcher.lookup` across all shards."""
        return self.lookup_batch(
            np.asarray(query, dtype=np.float64).reshape(1, -1), threshold
        )[0]

    def lookup_batch(
        self, queries: np.ndarray, threshold: float = 0.0
    ) -> List[MatchResult]:
        """Fan a ``B×D`` batch out to every shard; merge per query.

        Matches come back with *global* pattern ids; shard results
        concatenate in row-offset order, so ids stay ascending and
        :attr:`MatchResult.first` is still the priority-encoded lowest
        id.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        per_shard = [
            shard.lookup_batch(queries, threshold) for shard in self.shards
        ]
        self._queries += n_queries
        # One combine hop per query: the host ORs the shard match vectors
        # (a bank-level reduction across machines).
        self._merge_time += n_queries * self.tech.merge_latency("bank")
        self._merge_energy += n_queries * self.tech.merge_energy(
            "bank", self.patterns.shape[0]
        )
        merged = []
        for q in range(n_queries):
            indices = np.concatenate(
                [
                    np.array(
                        [mapping[int(l)] for l in results[q].indices],
                        dtype=np.int64,
                    )
                    for results, mapping in zip(per_shard, self._gid_of)
                ]
            )
            distances = np.concatenate(
                [results[q].distances for results in per_shard]
            )
            order = np.argsort(indices)   # ascending-global-id contract
            merged.append(
                MatchResult(
                    indices=indices[order].astype(np.int64),
                    distances=distances[order],
                )
            )
        return merged

    # -------------------------------------------------------------- report
    def report(self) -> ExecutionReport:
        """Aggregate metrics: parallel shards, honest multi-machine sums.

        Latency is the slowest shard plus the cross-machine combine;
        energy, hierarchy counts and searches sum over shards.
        """
        rep = aggregate_reports(
            [shard.report() for shard in self.shards],
            merge_latency_ns=self._merge_time,
            merge_energy_pj=self._merge_energy,
            queries=self._queries,
        )
        return rep

    def serve(
        self,
        threshold: float = 0.0,
        num_replicas: int = 1,
        max_batch: int = 32,
        max_wait: float = 0.002,
    ):
        """Async lookups over the sharded store; see
        :meth:`PatternMatcher.serve`.  Each replica is a full shard
        group (every replica holds all rows across its own machines)."""
        if num_replicas > 1 and self._mutated:
            raise ValueError(
                "cannot replicate a mutated matcher: fresh replicas would "
                "renumber pattern ids; serve with num_replicas=1 or "
                "replicate before mutating"
            )
        matchers = [self] + [
            ShardedPatternMatcher(
                self.patterns, self.spec, self.tech,
                num_shards=self.num_shards,
            )
            for _ in range(num_replicas - 1)
        ]
        return _serve_matchers(matchers, threshold, max_batch, max_wait)
