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
  matrix per column slice, row ``s`` holding slot ``s``, writes the
  slots' BLAS operands (one column slice at a time for Euclidean and
  dot), and precomputes every per-query energy charge the unfused walk
  would make, in the same order;
* **plan** — per-column-slice stores, the BLAS operands, the per-tile
  charge schedule, the live-slot set, the top-k configuration;
* **execute** — :meth:`FusedPlan.execute` scores a whole ``B×D`` batch
  against the live slots (exactly, pruned, or through the full
  per-slice loop; see below), applies the charge schedule (scalar
  multiply-adds into the live machine counters), and selects the
  per-query top-k directly through
  :func:`~repro.simulator.peripherals.best_match_batch`.

**Three ways to score.**  Every way yields the live slots' scores that
can reach the top-k bit for bit as the full per-slice loop computes
them, so the top-k, its raw values and every charge are unchanged:

* *exact* — when every stored and query value passes the exact gate
  (see :meth:`FusedPlan._refresh_operands`), the scores are BLAS matrix
  products, exact in any summation order;
* *pruned* — otherwise a Euclidean or dot batch is bounded first.  The
  same products give every live slot's ``approx`` within ``err =
  (n+8)·(2⁻⁵⁰·scale + 2⁻¹⁰⁷⁰)`` of the loop's score, ``n`` being the
  feature count and ``scale`` = Σs² + Σq² over the valid cells (dot:
  Σs² + ‖q‖²), whatever order the BLAS sums in.  Per query, ``τ`` is
  the k-th best pessimistic bound (distance: the k-th smallest
  ``approx + err``; dot: the k-th largest ``approx − err``); only the
  slots whose optimistic bound reaches ``τ`` can win, and only those
  (query, slot) pairs are rescored through
  :func:`~repro.simulator.cells.pair_scores`, in the loop's two-level
  order.  Every other slot scores ``±inf``, which sorts after every
  winner.  ``docs/performance.md`` derives the bound;
* *full* — the per-slice loop over every slot serves the batch when a
  bound is not finite, when ``k`` is not below the live-slot count, or
  when a Hamming batch misses the exact gate.

**One product while dense.**  The exact Euclidean and Hamming rewrites
and the bound add to each slot's ``base`` the query's terms over the
slot's valid cells, ``q²·VT`` (Hamming ``qb·VT``).  While no live row
holds a don't-care cell (:attr:`FusedPlan.dense`, kept per slot at
refresh beside the gate's flag) that is one row sum per query, so the
batch forms one matrix product instead of two.  Inside the exact gate
the row sum is an exact integer, and the bound holds for any summation
order, so no result moves.

**Bitwise-identity guarantee.**  A fused run returns the same
``[values, indices]`` bit for bit as the unfused session walk, and its
:class:`~repro.simulator.metrics.ExecutionReport` charges identical
energy and latency: every slot's score that reaches the top-k is the
unfused per-column-slice (and, density-stacked, per-subarray) float sum
in the same order, and the live-slot gather keeps the walk's slot order;
the top-k is the same stable argsort with the same WTA clamp; every
energy counter receives the same sequence of ``+=`` operands.  The
unfused path stays in the tree as the differential oracle
(``tests/test_differential.py``, ``tests/test_mutation_differential.py``).

**Refresh.**  A mutation (insert/delete/update/compact) programs only
the rows it touches, and the plan follows the machine the same way: the
owning session records the slots it writes or erases and marks its plan
stale, and the next ``run_batch`` calls :meth:`FusedPlan.refresh`.  The
refresh re-reads only the touched rows, checks their valid bits against
the session's slot directory, rewrites their operand columns, and
recomputes the charge schedule, live-slot set and top-k charge.  A full
trace is a refresh of every slot, so a refreshed plan equals a fresh
trace byte for byte; a capacity change (``grow``) re-allocates and
refreshes every slot.  Fusion is bypassed when device noise is enabled
(noise draws are per-machine-call, which only the unfused walk
reproduces) or when a row's valid bits disagree with the slot directory
(defensive: never serve rows the hardware would not).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.simulator.cells import (
    BLOCK_ELEMENTS,
    METRIC_FUNCTIONS,
    pair_scores,
    store_scorer,
)
from repro.simulator.peripherals import best_match_batch

__all__ = ["FusedPlan", "build_fused_plan"]

#: Largest |value| the exact-integer fast paths accept.  Bounded so
#: every intermediate stays an exact float64 integer: a difference
#: ``s - q`` reaches ``2**20``, its square ``2**40`` and, with features
#: capped at :data:`_EXACT_MAX_FEATURES`, a row sum ``2**52 < 2**53`` —
#: below the float64 integer horizon, so BLAS may reorder (or fuse) the
#: additions freely without changing a single bit.
_EXACT_MAX = float(1 << 19)
_EXACT_MAX_FEATURES = 1 << 12
#: The pruning bound's relative and absolute (underflow) terms, per
#: feature plus eight: twice what the rounding of both scores can add
#: up to (``docs/performance.md``).
_BOUND_REL = 2.0 ** -50
_BOUND_ABS = 2.0 ** -1070


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
        "dense",
        "operands",
        "_units",
        "_columns",
        "_ok",
        "_full",
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
        #: Whole stores, one per column span: the spans cover
        #: [0, features) exactly once (one tile per column slice).
        self._columns = columns
        #: The exact gate's key (see :meth:`_refresh_operands`): ``(a,
        #: b)`` while the live store passes it (``a``/``b`` the Hamming
        #: alphabet, zeros otherwise), else ``None``.
        self.exact = None
        #: ``(base, VT, AT)``, one entry or column per slot: the BLAS
        #: operands of the exact rewrite and of the pruning bound.  Kept
        #: for every Euclidean and dot plan (``VT`` is ``None`` for dot);
        #: for Hamming they depend on the alphabet and exist only while
        #: the gate holds.
        self.operands = None
        # Per-slot gate state: whether the row passes the gate on its
        # own, and (Hamming) its smallest and largest stored value.
        # Dead slots are neutral (True, NaN, NaN): the gate counts live
        # rows only.
        self._ok = np.ones(capacity, dtype=bool)
        # Per-slot: whether the row holds no don't-care cell.  Dead
        # slots are full: tombstoning clears a row's cells to zeros.
        self._full = np.ones(capacity, dtype=bool)
        #: Every live row is full: ``VT`` is all ones over the live
        #: slots, and :meth:`_masked` takes row sums in its place.
        self.dense = True
        self._lo = self._hi = None
        if self.metric == "hamming":
            self._lo = np.full(capacity, np.nan)
            self._hi = np.full(capacity, np.nan)
        else:
            shape = (features, capacity)
            self.operands = (
                np.zeros(capacity),
                np.zeros(shape) if self.metric == "euclidean" else None,
                np.zeros(shape),
            )

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
        if slots.size:
            self._refresh_operands(slots, alive[slots])
        self._schedule(session)
        return True

    def _refresh_operands(self, slots: np.ndarray, alive: np.ndarray) -> None:
        """Re-gate the exact rewrite and rewrite ``slots``' operands.

        CAM match scores are sums of per-cell terms, and each metric
        rewrites into BLAS matrix products over per-slot operands:

        * ``hamming`` over a two-value stored alphabet ``{a, b}``:
          per-cell mismatch is ``sb XOR qb = sb + qb - 2·sb·qb`` on the
          ``== b`` indicators, so ``counts = base + qb@VT - 2·(qb@AT)``;
        * ``euclidean``: ``(s-q)² = s² - 2sq + q²``, so ``dist = base +
          q²@VT - 2·(q@AT)``;
        * ``dot``: ``sim = q@AT`` (``base`` = Σs² scales its bound).

        Don't-care cells are zeroed in ``AT`` and ``base``, and drop out
        of the query's side through the valid mask ``VT``.  While no
        live row holds one (:attr:`dense`), ``VT`` is all ones over the
        live slots, so a batch sums its query terms along each row
        instead and forms one matrix product, not two.  ``VT`` is still
        written at every refresh, ready for the first batch after a
        don't-care row lands.

        Whenever every term is an exact float64 integer, addition is
        associative *bit for bit*, so the products equal the per-slice
        loop's scores: that is the exact gate, two values per row for
        Hamming and small integers for the others, checked over the
        live rows.  Euclidean and dot operands are kept whether or not
        the store passes, because they bound every score (see the module
        notes); they are written one column slice at a time, so each
        slice's block stays in cache.
        """
        if self.metric == "hamming":
            self._refresh_hamming(slots, alive)
            return
        cols = slice(None) if slots.size == self.capacity else slots
        base, vt, at = self.operands
        ok = np.ones(slots.size, dtype=bool)
        full = np.ones(slots.size, dtype=bool)
        squares = np.zeros(slots.size)
        for c0, c1, store in self._columns:
            block = store[cols]
            valid = block == block         # False exactly at NaN
            if valid.all():
                cleaned = block
            else:
                cleaned = np.where(valid, block, 0.0)
                full &= valid.all(axis=1)
            if ok.any():                   # an analog store fails at once
                ok &= (
                    (cleaned == np.rint(cleaned))
                    & (np.abs(cleaned) <= _EXACT_MAX)
                ).all(axis=1)
            at[c0:c1, cols] = cleaned.T
            if vt is not None:
                vt[c0:c1, cols] = valid.T
            squares += (cleaned * cleaned).sum(axis=1)
        base[cols] = squares
        self._mark(slots, alive, ok, full)
        self.exact = self._gate()

    def _rows(self, slots: np.ndarray) -> np.ndarray:
        """Whole stored rows of ``slots``, assembled from the slices."""
        rows = np.empty((slots.size, self.features), dtype=np.float64)
        for c0, c1, store in self._columns:
            rows[:, c0:c1] = store[slots]
        return rows

    def _refresh_hamming(self, slots: np.ndarray, alive: np.ndarray) -> None:
        """The Hamming half of :meth:`_refresh_operands`.  Its operands
        depend on the alphabet, so a store that newly passes the gate,
        or whose alphabet changed, rewrites every column, and one that
        fails drops them."""
        rows = self._rows(slots)
        valid = rows == rows               # False exactly at NaN
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
        self._mark(slots, alive, ok, valid.all(axis=1))
        key = self._gate()
        if key is None:
            self.exact = self.operands = None
            return
        if key != self.exact:
            # The gate just engaged, or the alphabet changed: every
            # column is rewritten.
            if slots.size < self.capacity:
                rows = self._rows(np.arange(self.capacity))
                valid = rows == rows
            shape = (self.features, self.capacity)
            self.operands = (
                np.empty(self.capacity), np.empty(shape), np.empty(shape)
            )
            slots = slice(None)
        base, vt, at = self.operands
        sb = (rows == key[1]).astype(np.float64)
        base[slots] = sb.sum(axis=1)
        vt[:, slots] = valid.T
        at[:, slots] = sb.T
        self.exact = key

    def _mark(self, slots, alive, ok, full) -> None:
        """Record ``slots``' gate flags (dead slots neutral) and density
        flags, and whether every live row is now full."""
        ok[~alive] = True
        self._ok[slots] = ok
        self._full[slots] = full
        self.dense = bool(self._full.all())

    def _gate(self) -> Optional[Tuple[float, float]]:
        """``(a, b)`` when the live rows pass the exact gate, else ``None``
        (``a``/``b`` are the Hamming alphabet, zeros otherwise)."""
        if self.features > _EXACT_MAX_FEATURES or not self._ok.all():
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

        Returns ``(values, indices, raw)`` — the (possibly WTA-clamped)
        float64 top-k values, their int64 slot indices and the unclamped
        top-k scores (what a
        :class:`~repro.runtime.sharding.ShardedSession` re-ranks).
        Charges land on the live machine counters in the unfused walk's
        order.
        """
        n_queries = queries.shape[0]
        n_alive = self.n_alive
        scores = self._live_scores(queries, k)
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
            raw = np.take_along_axis(scores, indices, axis=1)
            energy.host += n_queries * self.host_energy
        else:
            values = raw = np.zeros((n_queries, 0), dtype=np.float64)
            indices = np.zeros((n_queries, 0), dtype=np.int64)
        machine.trace.record(
            "fused_batch", "host", 0.0, 0.0, 0.0,
            f"queries={n_queries} rows={n_alive} k={k}",
        )
        return values, indices, raw

    def _live_scores(self, queries: np.ndarray, k: int) -> np.ndarray:
        """The ``B×n_alive`` live score matrix, in slot (== id) order:
        exact, pruned or full (see the module notes)."""
        exact = self._exact_scores(queries) if self.exact else None
        if exact is not None:
            return self._live(exact)
        if self.metric != "hamming" and 0 < k < self.n_alive:
            pruned = self._pruned_scores(queries, k)
            if pruned is not None:
                return pruned
        return self._live(self._full_scores(queries))

    def _live(self, scores: np.ndarray) -> np.ndarray:
        """``scores``' live-slot columns (all of them when every slot
        is live)."""
        return scores if self.live is None else scores[:, self.live]

    def _exact_scores(self, queries: np.ndarray):
        """Every slot's score through the exact rewrite, or ``None``.

        The stored side passed the gate at refresh time; here the query
        batch must too — every value in the alphabet (Hamming) or an
        exact small integer (Euclidean, dot).
        """
        if self.metric != "hamming":
            if not (np.all(np.abs(queries) <= _EXACT_MAX)
                    and np.all(queries == np.rint(queries))):
                return None
            return self._products(queries)[0]
        a, b = self.exact
        qb = queries == b
        if not np.all(qb | (queries == a)):
            return None
        qb = qb.astype(np.float64)
        return self._masked(qb) - 2.0 * (qb @ self.operands[2])

    def _masked(self, terms: np.ndarray) -> np.ndarray:
        """``base + terms@VT``: each slot's ``base`` plus the sum of the
        query-side ``terms`` over its valid cells (dot, without ``VT``:
        over every cell) — one row sum per query while the store is
        :attr:`dense`."""
        base, vt, _at = self.operands
        if vt is None or self.dense:
            return base + terms.sum(axis=1, keepdims=True)
        return base + terms @ vt

    def _products(self, queries: np.ndarray):
        """``(approx, scale)`` over every slot: the Euclidean or dot
        rewrite, and the magnitude its rounding error scales with."""
        _base, vt, at = self.operands
        scale = self._masked(queries * queries)
        if vt is None:
            return queries @ at, scale
        return scale - 2.0 * (queries @ at), scale

    def _pruned_scores(self, queries: np.ndarray, k: int):
        """The live score matrix with only the pairs that can reach a
        top-k rescored, or ``None`` when a bound is not finite.

        Each pair is rescored bitwise as the full loop scores it; every
        other live slot is ``+inf`` (distance) or ``-inf`` (dot).  A
        slot whose optimistic bound misses the k-th best pessimistic
        bound ``τ`` scores worse than ``k`` others, so it cannot win,
        and every slot tied at the k-th best score is rescored.
        """
        # An infinite or huge value makes a bound inf or NaN: refused
        # below, so its arithmetic warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            approx, scale = (self._live(a) for a in self._products(queries))
            err = (self.features + 8) * (_BOUND_REL * scale + _BOUND_ABS)
            upper, lower = approx + err, approx - err
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            return None
        n = self.n_alive
        if self.largest:
            tau = np.partition(lower, n - k, axis=1)[:, n - k, None]
            rows, cols = np.nonzero(upper >= tau)
        else:
            tau = np.partition(upper, k - 1, axis=1)[:, k - 1, None]
            rows, cols = np.nonzero(lower <= tau)
        scores = np.full(approx.shape, -np.inf if self.largest else np.inf)
        slots = cols if self.live is None else self.live[cols]
        scores[rows, cols] = self._pair_scores(queries, rows, slots)
        return scores

    def _full_scores(self, queries: np.ndarray) -> np.ndarray:
        """Every slot's score through the per-slice loop, ``B×capacity``."""
        return self._accumulate(
            (queries.shape[0], self.capacity),
            lambda c0, c1, store: store_scorer(self.metric, store)(
                queries[:, c0:c1]
            ),
        )

    def _pair_scores(self, queries, rows, slots) -> np.ndarray:
        """The scores of query ``rows[p]`` against slot ``slots[p]``,
        each bitwise its entry of :meth:`_full_scores`, in chunks whose
        per-slice terms fit one scoring block (a batch of ties can make
        every pair a candidate)."""
        width = max(c1 - c0 for c0, c1, _store in self._columns)
        step = max(1, BLOCK_ELEMENTS // width)
        out = np.empty(rows.size)
        for p in range(0, rows.size, step):
            r, s = rows[p : p + step], slots[p : p + step]
            out[p : p + step] = self._accumulate(
                r.shape,
                lambda c0, c1, store: pair_scores(
                    self.metric, store[s], queries[r, c0:c1]
                ),
            )
        return out

    def _accumulate(self, shape, score) -> np.ndarray:
        """Sum ``score(c0, c1, store)`` over the :attr:`slices`.

        Two-level accumulation mirrors the machine: each stacked
        subarray's digital accumulator sums its own pattern batches
        first, then partials merge across subarrays (one group when not
        stacked).  A group's partial starts at +0.0, and so does the
        total, as in the unfused walk's latch and merge.
        """
        out = np.zeros(shape)
        for group in self.slices if self.stacked else [self.slices]:
            partial = np.zeros(shape)
            for c0, c1, store in group:
                partial += score(c0, c1, store)
            out += partial
        return out


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
