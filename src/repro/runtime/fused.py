"""Fused batch execution: the session's query pipeline as one flat kernel.

A :class:`~repro.runtime.session.QuerySession` answers every batch by
walking the same fixed post-programming pipeline — per-tile
``machine.search`` (mask-gather the stored rows, score, latch), per-tile
``read_batch``/``merge``, three hierarchy merge hops, then the host
top-k.  The *structure* of that walk is fixed by the tile placement and
the slot directory: the per-operation energy charges, the live-row set
and the metric follow from them.  This module traces that structure into
a :class:`FusedPlan` — a preallocated batch kernel that executes the
whole pipeline as one flat sequence of vectorized NumPy ops with no
per-stage Python dispatch:

* **trace** — :func:`build_fused_plan` allocates the plan's
  slot-indexed arrays for the session's slot capacity and refreshes
  every slot: it reads the *machine's* stored tiles (the same
  ``SubarrayState`` rows a search would gather) into one contiguous
  matrix per column slice, row ``s`` holding slot ``s``, and precomputes
  every per-query energy charge the unfused walk would make, in the same
  order;
* **plan** — per-column-slice stores, the per-tile charge schedule, the
  live-slot set, the top-k configuration;
* **execute** — :meth:`FusedPlan.execute` scores a whole ``B×D`` batch
  against every slot with one
  :func:`~repro.simulator.cells.store_scorer` per column slice,
  gathers the live slots, applies the charge schedule (scalar
  multiply-adds into the live machine counters), and selects the
  per-query top-k directly through
  :func:`~repro.simulator.peripherals.best_match_batch`.

**Multi-core scoring.**  A generic-path batch (one that the exact
rewrite does not take) large enough that every share carries at least
:data:`_SPLIT_TERMS` per-cell terms is cut into near-equal contiguous
row shares, one per CPU the process may use, two at most
(:data:`_CPUS`).  Each slice's store is prepared once per batch, so a
share costs only its own rows.  The caller scores the first share; each
other share goes to an idle thread of a process-wide pool, or stays
with the caller when none is idle (or when the interpreter is exiting
and the pool takes no new work), so a batch never waits behind another
session's share.  Every share writes its own rows of one score matrix,
and the gather, charges, top-k and trace record run on the caller after
the join.  Every metric scores each query row on its own, through the
same per-slice float order, so a split batch is bitwise the unsplit
one.

**Bitwise-identity guarantee.**  A fused run returns the same
``[values, indices]`` bit for bit as the unfused session walk, and its
:class:`~repro.simulator.metrics.ExecutionReport` charges identical
energy and latency: every slot's score is the unfused per-column-slice
(and, density-stacked, per-subarray) float sum in the same order, and
the live-slot gather keeps the walk's slot order; the top-k is the same
stable argsort with the same WTA clamp; every energy counter receives
the same sequence of ``+=`` operands.  The unfused path stays in the
tree as the differential oracle (``tests/test_differential.py``,
``tests/test_mutation_differential.py``).

**Refresh.**  A mutation (insert/delete/update/compact) programs only
the rows it touches, and the plan follows the machine the same way: the
owning session records the slots it writes or erases and marks its plan
stale, and the next ``run_batch`` calls :meth:`FusedPlan.refresh`.  The
refresh re-reads only the touched rows, checks their valid bits against
the session's slot directory, rewrites their exact-rewrite operand
columns, and recomputes the charge schedule, live-slot set and top-k
charge.  A full trace is a refresh of every slot, so a refreshed plan
equals a fresh trace byte for byte; a capacity change (``grow``)
re-allocates and refreshes every slot.  Fusion is bypassed when device
noise is enabled (noise draws are per-machine-call, which only the
unfused walk reproduces) or when a row's valid bits disagree with the
slot directory (defensive: never serve rows the hardware would not).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.simulator.cells import (
    BLOCK_ELEMENTS,
    METRIC_FUNCTIONS,
    store_scorer,
)
from repro.simulator.peripherals import best_match_batch

__all__ = ["FusedPlan", "build_fused_plan"]

#: Largest |value| the exact-integer fast paths accept.  Bounded so
#: every intermediate stays an exact float64 integer: with features
#: capped at :data:`_EXACT_MAX_FEATURES`, products reach ``2**40`` and
#: row sums ``2**52 < 2**53`` — below the float64 integer horizon, so
#: BLAS may reorder (or fuse) the additions freely without changing a
#: single bit.
_EXACT_MAX = float(1 << 20)
_EXACT_MAX_FEATURES = 1 << 12
_EXACT_METRICS = ("hamming", "euclidean", "dot")

#: The most row shares a generic batch is cut into: one per CPU this
#: process may run on, but at most two, the most the split has been
#: measured on (every further share adds a thread wake-up and more
#: hand-offs of the GIL, which more CPUs need not repay).
_CPUS = min(2, (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
))
#: Per-cell terms (rows × slots × features) each row share must carry:
#: 64 scoring blocks, about four milliseconds of generic scoring on a
#: 2-CPU Xeon host.  A split pays a pool thread's wake-up and the GIL
#: hand-offs between the two threads' NumPy calls; on that host, shares
#: of 16 or 32 blocks at times lost to the unsplit batch while a
#: knn-sized one won, and shares of 64 did not.
_SPLIT_TERMS = 64 * BLOCK_ELEMENTS
#: ``(executor, idle)``: the scoring pool of ``_CPUS - 1`` threads and
#: a semaphore counting its idle ones, made on the first split.  One
#: pool serves every plan in the process, so however many sessions score
#: at once, splitting adds at most ``_CPUS - 1`` threads.
_pool = None
_pool_lock = threading.Lock()


def _scoring_pool():
    """The process-wide scoring pool, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = (
                ThreadPoolExecutor(
                    _CPUS - 1, thread_name_prefix="fused-scoring"
                ),
                threading.Semaphore(_CPUS - 1),
            )
        return _pool


def _forget_pool() -> None:
    """Fork handler: a forked child inherits the pool object but none of
    its threads, so a share handed to it would never run."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_share(plan, scorers, queries, out, idle) -> None:
    """Pool task: score one row share, then mark its thread idle —
    before the future's result is set, so that the caller's next batch
    already finds the thread free."""
    try:
        plan._score_rows(scorers, queries, out)
    finally:
        idle.release()


class FusedPlan:
    """One session's traced pipeline, ready to execute batches.

    Built by :func:`build_fused_plan` and kept current by
    :meth:`refresh`; owned by a
    :class:`~repro.runtime.session.QuerySession`, which refreshes it
    after every mutation.  Every per-slot array is sized to the
    session's slot capacity and indexed by slot: tombstoned and unused
    slots are scored like live ones and dropped by the live-slot gather
    before the top-k.
    """

    __slots__ = (
        "machine",
        "metric",
        "stacked",
        "largest",
        "wta_window",
        "capacity",
        "features",
        "slices",
        "live",
        "n_alive",
        "search_charges",
        "read_charges",
        "merge_charges",
        "host_energy",
        "exact",
        "_units",
        "_columns",
        "_ok",
        "_lo",
        "_hi",
    )

    def __init__(self, session):
        program = session.program
        self.machine = session.machine
        self.metric = program.metric
        self.stacked = program.plan.batches > 1
        self.largest = program.largest
        self.wta_window = session.tech.wta_window
        self._allocate(session)

    def _allocate(self, session) -> None:
        """Lay out zeroed slot-indexed arrays for the session's capacity."""
        program, machine = session.program, session.machine
        plan = program.plan
        capacity = session._capacity
        features = plan.features

        def store(cp):
            c0 = cp * plan.col_tile
            c1 = min(c0 + plan.col_tile, features)
            return c0, c1, np.zeros((capacity, c1 - c0), dtype=np.float64)

        #: ``(first slot, end slot, row of the first slot, tiles)`` per
        #: run of tiles that back the same slots; ``tiles`` pairs each
        #: ``SubarrayState`` with the plan store its rows land in.
        units = []
        if self.stacked:
            # Every tile holds every slot: batch ``b`` of the stacked
            # pattern set starts at row ``b * patterns``.
            per_sub: dict = {}
            for lin, batch, (_rp, cp) in program.tiles():
                tile = store(cp)
                per_sub.setdefault(lin, []).append(tile)
                sub = machine.subarray(session._sub_ids[lin])
                units.append(
                    (0, capacity, batch * plan.patterns, [(sub, tile[2])])
                )
            #: Stacked: one ``[(c0, c1, store), ...]`` list per subarray,
            #: one entry per stacked pattern batch.
            self.slices = list(per_sub.values())
            columns = [tile for tiles in self.slices for tile in tiles]
        else:
            #: Non-stacked: ``(c0, c1, store)`` per column slice.
            self.slices = [store(cp) for cp in range(plan.col_tiles)]
            for group in session._row_groups:
                tiles = [
                    (machine.subarray(sub_id), self.slices[cp][2])
                    for cp, sub_id in enumerate(group.subs)
                ]
                units.append(
                    (group.base_slot, group.base_slot + group.window, 0,
                     tiles)
                )
            columns = self.slices
        self.capacity = capacity
        self.features = features
        self._units = units
        #: Exact-arithmetic matmul rewrite of the metric, or ``None``
        #: (see :meth:`_refresh_exact`); gated per batch on the query
        #: values, with the per-slice loop as the always-correct
        #: fallback.
        self.exact = None
        self._columns = None
        if self.metric in _EXACT_METRICS and features <= _EXACT_MAX_FEATURES:
            # The column spans cover [0, features) exactly once (one
            # tile per column slice), so whole rows assemble from them.
            # Per-slot gate state: whether the row passes the gate on its
            # own, and (Hamming) its smallest and largest stored value.
            # Dead slots are neutral (True, NaN, NaN): the gate counts
            # live rows only.
            self._columns = columns
            self._ok = np.ones(capacity, dtype=bool)
            self._lo = np.full(capacity, np.nan)
            self._hi = np.full(capacity, np.nan)

    # ------------------------------------------------------------ refresh
    def refresh(self, session, slots: Iterable[int]) -> bool:
        """Bring the plan up to date with ``session``'s store, in place.

        ``slots`` are the slots written or erased since the last
        refresh.  Only their rows are re-read from the machine; the
        charge schedule, the live-slot set and the top-k charge are
        recomputed from the slot directory every time, because a
        compaction can lower the high-water slot without touching a row.
        Returns ``False`` — the plan is then unusable — when a re-read
        row's valid bits disagree with the slot directory.
        """
        if self.capacity != session._capacity:
            self._allocate(session)
            slots = range(self.capacity)
        slots = np.unique(np.fromiter(slots, dtype=np.intp))
        alive = session._alive
        for s0, s1, row0, tiles in self._units:
            lo, hi = np.searchsorted(slots, (s0, s1))
            if lo == hi:
                continue
            sel = slots[lo:hi]
            rows = sel - s0 + row0
            valid = np.empty((len(tiles), sel.size), dtype=bool)
            for j, (sub, store) in enumerate(tiles):
                store[sel], valid[j] = sub.row_contents(rows, store.shape[1])
            if not (valid == alive[sel]).all():
                return False
        if self._columns is not None and slots.size:
            self._refresh_exact(slots, alive[slots])
        self._schedule(session)
        return True

    def _rows(self, slots: np.ndarray) -> np.ndarray:
        """Whole stored rows of ``slots``, assembled from the slices."""
        rows = np.empty((slots.size, self.features), dtype=np.float64)
        for c0, c1, store in self._columns:
            rows[:, c0:c1] = store[slots]
        return rows

    def _refresh_exact(self, slots: np.ndarray, alive: np.ndarray) -> None:
        """Re-gate the exact rewrite and rewrite ``slots``' operands.

        CAM match scores are sums of per-cell terms.  Whenever every term
        is an exact float64 integer, addition is associative *bit for
        bit*, so the per-tile accumulation order the generic path
        preserves stops mattering and the whole score matrix collapses
        into BLAS matmuls:

        * ``hamming`` over a two-value stored alphabet ``{a, b}``:
          per-cell mismatch is ``sb XOR qb = sb + qb - 2·sb·qb`` on the
          ``== b`` indicators, so ``counts = base + qb@V - 2·(qb@A)``;
        * ``euclidean`` over integer codes: ``(s-q)² = s² - 2sq + q²``,
          so ``dist = base + q²@V - 2·(q@A)``;
        * ``dot`` over integer codes: ``sim = q@A``.

        Don't-care cells drop out through the valid mask ``V``.  The
        gate runs over the live rows only and before any operand is
        built, so a store that fails it (every analog one) costs only
        the check; ``exact`` is then ``None``.  Otherwise it is
        ``(metric, a, b, base, VT, AT)``, one column per slot.  A store
        that newly passes the gate, or whose Hamming alphabet changed,
        rewrites every column; otherwise only ``slots``' columns change.
        """
        rows = self._rows(slots)
        valid = rows == rows           # False exactly at NaN (don't-care)
        if self.metric == "hamming":
            # fmin/fmax skip NaN, so an all-don't-care row is NaN: neutral.
            lo = np.fmin.reduce(rows, axis=1)
            hi = np.fmax.reduce(rows, axis=1)
            ok = (
                (rows == lo[:, None]) | (rows == hi[:, None]) | ~valid
            ).all(axis=1)
            lo[~alive] = np.nan
            hi[~alive] = np.nan
            self._lo[slots] = lo
            self._hi[slots] = hi
        else:
            ok = (
                ~valid
                | ((rows == np.rint(rows)) & (np.abs(rows) <= _EXACT_MAX))
            ).all(axis=1)
        ok[~alive] = True
        self._ok[slots] = ok
        key = self._gate()
        if key is None:
            self.exact = None
            return
        if self.exact is None or self.exact[1:3] != key:
            # The gate just engaged, or the Hamming alphabet changed:
            # every column is rewritten.
            if slots.size < self.capacity:
                rows = self._rows(np.arange(self.capacity))
                valid = rows == rows
            slots = slice(None)
            shape = (self.features, self.capacity)
            plain = self.metric == "dot"
            base = None if plain else np.empty(self.capacity)
            vt = None if plain else np.empty(shape)
            at = np.empty(shape)
        else:
            base, vt, at = self.exact[3:]
        a, b = key
        if self.metric == "hamming":
            sb = ((rows == b) & valid).astype(np.float64)
            base[slots] = sb.sum(axis=1)
            vt[:, slots] = valid.T
            at[:, slots] = sb.T
        else:
            cleaned = np.where(valid, rows, 0.0)
            at[:, slots] = cleaned.T
            if self.metric == "euclidean":
                base[slots] = (cleaned * cleaned).sum(axis=1)
                vt[:, slots] = valid.T
        self.exact = (self.metric, a, b, base, vt, at)

    def _gate(self) -> Optional[Tuple[float, float]]:
        """``(a, b)`` when the live rows pass the exact gate, else ``None``
        (``a``/``b`` are the Hamming alphabet, zeros otherwise)."""
        if not self._ok.all():
            return None
        if self.metric != "hamming":
            return 0.0, 0.0
        # Each row that passes holds at most the two values lo and hi;
        # the store's alphabet is the union over the live rows (NaN
        # marks a row without any).
        has = self._lo == self._lo
        values = np.unique(np.concatenate((self._lo[has], self._hi[has])))
        if values.size != 2:
            return None
        return float(values[0]), float(values[1])

    def _schedule(self, session) -> None:
        """Recompute the per-query charges and the live-slot set."""
        spec, tech = session.spec, session.tech
        plan = session.program.plan
        alive = session._alive[: self.capacity]
        search_charges: List[Tuple[object, float]] = []
        read_charges: List[float] = []
        merge_charges: List[float] = []
        for s0, s1, _row0, tiles in self._units:
            pj = tech.search_energy(
                spec, int(np.count_nonzero(alive[s0:s1])), self.stacked
            )
            search_charges.extend((sub, pj) for sub, _store in tiles)
            if not self.stacked:
                window = s1 - s0
                used = max(0, min(window, session._next_slot - s0))
                read_charges.extend(
                    [tech.read_energy(spec, window)] * len(tiles)
                )
                merge_charges.extend(
                    [tech.merge_energy("subarray", used)] * len(tiles)
                )
        if self.stacked:
            # The unfused walk reads and merges *every* allocated
            # subarray of the plan, tiles or not.
            read_charges = [
                tech.read_energy(spec, plan.patterns)
            ] * plan.subarrays
            merge_charges = [
                tech.merge_energy("subarray", plan.patterns)
            ] * plan.subarrays
        for level in ("array", "mat", "bank"):
            merge_charges.append(tech.merge_energy(level, plan.patterns))
        #: ``(SubarrayState, energy_pj_per_query)`` per searched tile,
        #: in the unfused walk's tile order.
        self.search_charges = search_charges
        self.read_charges = read_charges
        self.merge_charges = merge_charges
        n_alive = int(np.count_nonzero(alive))
        self.n_alive = n_alive
        #: Live slots in slot order, or ``None`` when every slot is live
        #: (the gather is then skipped).
        self.live = None if n_alive == self.capacity else np.flatnonzero(alive)
        self.host_energy = tech.host_topk_energy(n_alive) if n_alive else 0.0

    # ------------------------------------------------------------ execute
    def execute(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run one ``B×D`` batch through the fused pipeline.

        Returns ``(values, indices, scores)`` — the (possibly
        WTA-clamped) float64 top-k values, their int64 slot indices and
        the full ``B×n_alive`` merged score matrix (the unclamped
        candidates a :class:`~repro.runtime.sharding.ShardedSession`
        re-ranks).  Charges land on the live machine counters in the
        unfused walk's order.
        """
        n_queries = queries.shape[0]
        n_alive = self.n_alive
        # --- score every slot: exact matmul rewrite when the batch
        #     qualifies, else the per-slice loop in row shares ----------
        scores = self._exact_scores(queries) if self.exact else None
        if scores is None:
            scores = self._generic_scores(queries)
        # --- gather: the live slots, in slot (== id) order -------------
        if self.live is not None:
            scores = scores[:, self.live]
        # --- charge: the traced per-query schedule ---------------------
        machine = self.machine
        energy = machine.energy
        for sub, pj in self.search_charges:
            energy.search += n_queries * pj
            sub.searches += n_queries
        machine.total_searches += n_queries * len(self.search_charges)
        for pj in self.read_charges:
            energy.read += n_queries * pj
        for pj in self.merge_charges:
            energy.merge += n_queries * pj
        # --- select: per-query top-k over the live rows ----------------
        if n_alive > 0:
            indices, values = best_match_batch(
                scores, k, prefers_larger=self.largest,
                wta_window=self.wta_window,
            )
            energy.host += n_queries * self.host_energy
        else:
            values = np.zeros((n_queries, 0), dtype=np.float64)
            indices = np.zeros((n_queries, 0), dtype=np.int64)
        machine.trace.record(
            "fused_batch", "host", 0.0, 0.0, 0.0,
            f"queries={n_queries} rows={n_alive} k={k}",
        )
        return values, indices, scores

    def _generic_scores(self, queries: np.ndarray) -> np.ndarray:
        """Score every slot through the per-slice loop, the batch cut
        into row shares when it is large enough (see the module notes).
        """
        n_queries = queries.shape[0]
        scores = np.zeros((n_queries, self.capacity), dtype=np.float64)
        scorers = [
            [(c0, c1, store_scorer(self.metric, store))
             for c0, c1, store in group]
            for group in (self.slices if self.stacked else [self.slices])
        ]
        shares = min(
            _CPUS, n_queries,
            n_queries * self.capacity * self.features // _SPLIT_TERMS,
        )
        if shares <= 1:
            self._score_rows(scorers, queries, scores)
            return scores
        bounds = [n_queries * i // shares for i in range(shares + 1)]
        executor, idle = _scoring_pool()
        handed, mine = [], [(0, bounds[1])]
        for r0, r1 in zip(bounds[1:-1], bounds[2:]):
            if idle.acquire(blocking=False):
                try:
                    handed.append(executor.submit(
                        _pool_share, self, scorers, queries[r0:r1],
                        scores[r0:r1], idle,
                    ))
                    continue
                except RuntimeError:
                    # The interpreter is exiting: its pools take no new
                    # work, so the caller scores the share.
                    idle.release()
            mine.append((r0, r1))
        for r0, r1 in mine:
            self._score_rows(scorers, queries[r0:r1], scores[r0:r1])
        for share in handed:
            share.result()
        return scores

    def _score_rows(
        self, scorers, queries: np.ndarray, out: np.ndarray
    ) -> None:
        """Add the per-slice scores of ``queries`` into ``out``, their
        zeroed rows of the batch's score matrix.  ``scorers`` groups the
        :attr:`slices`, each store prepared by
        :func:`~repro.simulator.cells.store_scorer`: one group per
        subarray when density-stacked, else a single group."""
        # Two-level accumulation mirrors the machine: each stacked
        # subarray's digital accumulator sums its own pattern batches
        # first, then partials merge across subarrays.  A single
        # group's partial is never -0.0 (it starts at +0.0), so adding
        # it to the zeroed rows keeps every bit.
        for group in scorers:
            partial = np.zeros_like(out)
            for c0, c1, score in group:
                partial += score(queries[:, c0:c1])
            out += partial

    def _exact_scores(self, queries: np.ndarray):
        """Score every slot via the exact-arithmetic rewrite, or ``None``.

        The stored side passed the gate at refresh time; here the query
        batch must too — every value in the alphabet (hamming) or an
        exact small integer (euclidean/dot).  A batch that fails scores
        through the generic per-slice loop instead, bit-identically.
        """
        metric, a, b, base, vt, at = self.exact
        if metric == "hamming":
            qb = queries == b
            if not np.all(qb | (queries == a)):
                return None
            qb = qb.astype(np.float64)
            return base + qb @ vt - 2.0 * (qb @ at)
        if not (np.all(np.abs(queries) <= _EXACT_MAX)
                and np.all(queries == np.rint(queries))):
            return None
        if metric == "dot":
            return queries @ at
        return base + (queries * queries) @ vt - 2.0 * (queries @ at)


def build_fused_plan(session) -> Optional[FusedPlan]:
    """Trace ``session``'s query pipeline into a :class:`FusedPlan`:
    allocate the plan, then refresh every slot.

    Returns ``None`` when the session cannot be fused — unknown metric,
    or the machine's valid rows disagree with the session's slot
    directory (the caller then keeps the unfused walk, which is always
    correct).  Device noise is the *caller's* bypass: noise draws are
    per-machine-call and only the unfused walk reproduces them.
    """
    if session.program.metric not in METRIC_FUNCTIONS:
        return None
    plan = FusedPlan(session)
    return plan if plan.refresh(session, range(session._capacity)) else None
