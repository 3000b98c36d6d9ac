"""Fused batch execution: the session's query pipeline as one flat kernel.

A :class:`~repro.runtime.session.QuerySession` answers every batch by
walking the same fixed post-programming pipeline — per-tile
``machine.search`` (mask-gather the stored rows, score, latch), per-tile
``read_batch``/``merge``, three hierarchy merge hops, then the host
top-k.  The *structure* of that walk never changes between mutations:
the tile placement, the live-row sets, the per-operation energy charges
and the metric are all fixed once the store is programmed.  This module
traces that structure exactly once and emits a :class:`FusedPlan` — a
preallocated batch kernel that executes the whole pipeline as one flat
sequence of vectorized NumPy ops with no per-stage Python dispatch:

* **trace** — :func:`build_fused_plan` reads the *machine's* stored
  tiles (the same ``SubarrayState`` windows a search would gather),
  concatenates each column slice's live rows into one contiguous
  matrix in slot order, and precomputes every per-query energy charge
  the unfused walk would make, in the same order;
* **plan** — the result is immutable: per-column-slice stores, the
  per-tile charge schedule, the top-k configuration;
* **execute** — :meth:`FusedPlan.execute` scores a whole ``B×D`` batch
  with one :func:`~repro.simulator.cells.compute_scores` call per
  column slice, applies the charge schedule (scalar multiply-adds into
  the live machine counters), and selects the per-query top-k directly
  through :func:`~repro.simulator.peripherals.best_match_batch`.

**Bitwise-identity guarantee.**  A fused run returns the same
``[values, indices]`` bit for bit as the unfused session walk, and its
:class:`~repro.simulator.metrics.ExecutionReport` charges identical
energy and latency: score accumulation preserves the unfused
per-column-slice (and, density-stacked, per-subarray) float addition
order; the top-k is the same stable argsort with the same WTA clamp;
every energy counter receives the same sequence of ``+=`` operands.
The unfused path stays in the tree as the differential oracle
(``tests/test_differential.py``, ``tests/test_mutation_differential.py``).

**Invalidation.**  Mutations (insert/delete/update/compact/grow) change
the live-row sets the trace snapshotted, so the owning session drops its
plan on every mutation and rebuilds lazily on the next ``run_batch`` —
the compiled-artifact idiom of AOT module export (build once, cache,
invalidate on source change).  Fusion is transparently bypassed when
device noise is enabled (noise draws are per-machine-call, which only
the unfused walk reproduces) or when the machine's valid rows disagree
with the session's slot directory (defensive: never serve rows the
hardware would not).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.simulator.cells import METRIC_FUNCTIONS, compute_scores
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


def _assemble_store(slices, stacked: bool, n_alive: int, features: int):
    """Concatenate the traced tiles into one live-store matrix.

    Returns ``None`` unless the tiles' column spans partition
    ``[0, features)`` exactly once — the precondition for collapsing the
    per-tile accumulation into a single whole-row reduction.
    """
    tiles: List[Tuple[int, int, np.ndarray]] = []
    if stacked:
        for sub_slices in slices:
            tiles.extend(sub_slices)
    else:
        tiles = list(slices)
    edge = 0
    for c0, c1 in sorted((c0, c1) for c0, c1, _ in tiles):
        if c0 != edge:
            return None
        edge = c1
    if edge != features:
        return None
    full = np.empty((n_alive, features), dtype=np.float64)
    for c0, c1, store in tiles:
        full[:, c0:c1] = store
    return full


def _exact_kernel(metric: str, full: Optional[np.ndarray]):
    """Build the exact-arithmetic rewrite of ``metric`` over ``full``.

    CAM match scores are sums of per-cell terms.  Whenever every term is
    an exact float64 integer, addition is associative *bit for bit*, so
    the per-tile accumulation order the generic path preserves stops
    mattering and the whole score matrix collapses into BLAS matmuls:

    * ``hamming`` over a two-value stored alphabet ``{a, b}``:
      per-cell mismatch is ``sb XOR qb = sb + qb - 2·sb·qb`` on the
      ``== b`` indicators, so ``counts = base + qb@V - 2·(qb@A)``;
    * ``euclidean`` over integer codes: ``(s-q)² = s² - 2sq + q²``,
      so ``dist = base + q²@V - 2·(q@A)``;
    * ``dot`` over integer codes: ``sim = q@A``.

    Don't-care cells drop out through the valid mask ``V``.  Returns
    ``(metric, a, b, base, VT, AT)`` or ``None`` when the stored data
    fails the gate (the query side is gated per batch at execute time).
    The gate is checked before any BLAS operand is built, so a store
    that fails it (every analog one) costs only the check.
    """
    if full is None or full.size == 0:
        return None
    if full.shape[1] > _EXACT_MAX_FEATURES:
        return None
    valid = ~np.isnan(full)
    finite = full[valid]
    if metric == "hamming":
        vals = np.unique(finite)
        if vals.size != 2:
            return None
        a, b = float(vals[0]), float(vals[1])
        sb = ((full == b) & valid).astype(np.float64)
        vt = np.ascontiguousarray(valid.T.astype(np.float64))
        return ("hamming", a, b, sb.sum(axis=1),
                vt, np.ascontiguousarray(sb.T))
    if metric not in ("dot", "euclidean") or not (
        np.all(finite == np.rint(finite))
        and np.all(np.abs(finite) <= _EXACT_MAX)
    ):
        return None
    cleaned = np.where(valid, full, 0.0)
    at = np.ascontiguousarray(cleaned.T)
    if metric == "dot":
        return ("dot", 0.0, 0.0, None, None, at)
    vt = np.ascontiguousarray(valid.T.astype(np.float64))
    return ("euclidean", 0.0, 0.0, (cleaned * cleaned).sum(axis=1), vt, at)


class FusedPlan:
    """One session's traced pipeline, ready to execute batches.

    Built by :func:`build_fused_plan`; owned (and invalidated) by a
    :class:`~repro.runtime.session.QuerySession`.  The plan holds
    snapshots of the machine's stored tiles, so it must be rebuilt
    whenever the store mutates — the session does this automatically.
    """

    __slots__ = (
        "machine",
        "metric",
        "stacked",
        "slices",
        "n_alive",
        "largest",
        "wta_window",
        "search_charges",
        "read_charges",
        "merge_charges",
        "host_energy",
        "exact",
    )

    def __init__(
        self,
        machine,
        metric: str,
        stacked: bool,
        slices,
        features: int,
        n_alive: int,
        largest: bool,
        wta_window: int,
        search_charges: List[Tuple[object, float]],
        read_charges: List[float],
        merge_charges: List[float],
        host_energy: float,
    ):
        self.machine = machine
        self.metric = metric
        self.stacked = stacked
        #: Non-stacked: ``[(c0, c1, store)]`` per column slice, each
        #: ``store`` the live rows of that slice concatenated in slot
        #: order.  Stacked: ``[[(c0, c1, store), ...]]`` — one inner
        #: list per subarray, one entry per stacked pattern batch.
        self.slices = slices
        self.n_alive = n_alive
        self.largest = largest
        self.wta_window = wta_window
        #: ``(SubarrayState, energy_pj_per_query)`` per searched tile,
        #: in the unfused walk's tile order.
        self.search_charges = search_charges
        self.read_charges = read_charges
        self.merge_charges = merge_charges
        self.host_energy = host_energy
        #: Exact-arithmetic matmul rewrite of the metric, or ``None``
        #: (see :func:`_exact_kernel`); gated per batch on the query
        #: values, with the per-slice loop as the always-correct
        #: fallback.
        self.exact = _exact_kernel(
            metric, _assemble_store(slices, stacked, n_alive, features)
        )

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
        # --- score: exact matmul rewrite when the batch qualifies,
        #     else one vectorized metric call per column slice ----------
        scores = self._exact_scores(queries) if self.exact else None
        if scores is None:
            scores = np.zeros((n_queries, n_alive), dtype=np.float64)
            metric = self.metric
            if self.stacked:
                # Two-level accumulation mirrors the machine: each
                # subarray's digital accumulator sums its own pattern
                # batches first, then partials merge across subarrays.
                for sub_slices in self.slices:
                    partial = np.zeros(
                        (n_queries, n_alive), dtype=np.float64
                    )
                    for c0, c1, store in sub_slices:
                        partial += compute_scores(
                            metric, store, queries[:, c0:c1]
                        )
                    scores += partial
            else:
                for c0, c1, store in self.slices:
                    scores += compute_scores(
                        metric, store, queries[:, c0:c1]
                    )
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

    def _exact_scores(self, queries: np.ndarray):
        """Score via the exact-arithmetic rewrite, or ``None``.

        The stored side passed the gate at trace time; here the query
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


def _stacked_plan(session) -> Optional[FusedPlan]:
    """Trace a density-stacked (accumulator) store."""
    program = session.program
    plan = program.plan
    machine, spec, tech = session.machine, session.spec, session.tech
    features = plan.features
    window = plan.patterns
    alive = session._alive[: session._capacity]
    n_alive = int(alive.sum())
    search_charges: List[Tuple[object, float]] = []
    per_sub: dict = {}
    order: List[int] = []
    for lin, batch, (_rp, cp) in program.tiles():
        sub = machine.subarray(session._sub_ids[lin])
        row_begin = batch * window
        if not np.array_equal(sub.valid_mask(row_begin, window), alive):
            return None
        c0 = cp * plan.col_tile
        c1 = min(c0 + plan.col_tile, features)
        store = np.ascontiguousarray(
            sub.stored(row_begin, window)[:, : c1 - c0]
        )
        if lin not in per_sub:
            per_sub[lin] = []
            order.append(lin)
        per_sub[lin].append((c0, c1, store))
        search_charges.append(
            (sub, tech.search_energy(spec, store.shape[0], True))
        )
    # The unfused walk reads and merges *every* allocated subarray of
    # the plan, tiles or not.
    read_pj = tech.read_energy(spec, window)
    merge_pj = tech.merge_energy("subarray", min(window, plan.patterns))
    read_charges = [read_pj] * plan.subarrays
    merge_charges = [merge_pj] * plan.subarrays
    for level in ("array", "mat", "bank"):
        merge_charges.append(tech.merge_energy(level, plan.patterns))
    return FusedPlan(
        machine=machine,
        metric=program.metric,
        stacked=True,
        slices=[per_sub[lin] for lin in order],
        features=features,
        n_alive=n_alive,
        largest=program.largest,
        wta_window=tech.wta_window,
        search_charges=search_charges,
        read_charges=read_charges,
        merge_charges=merge_charges,
        host_energy=tech.host_topk_energy(n_alive) if n_alive else 0.0,
    )


def _tiled_plan(session) -> Optional[FusedPlan]:
    """Trace a row-group (latch-path) store, growth groups included."""
    program = session.program
    plan = program.plan
    machine, spec, tech = session.machine, session.spec, session.tech
    features = plan.features
    col_tiles = plan.col_tiles
    n_alive = int(session._alive[: session._next_slot].sum())
    parts: List[List[np.ndarray]] = [[] for _ in range(col_tiles)]
    search_charges: List[Tuple[object, float]] = []
    read_charges: List[float] = []
    merge_charges: List[float] = []
    for group in session._row_groups:
        window = group.window
        group_alive = session._alive[
            group.base_slot : group.base_slot + window
        ]
        live = None
        for cp, sub_id in enumerate(group.subs):
            sub = machine.subarray(sub_id)
            if not np.array_equal(sub.valid_mask(0, window), group_alive):
                return None
            c0 = cp * plan.col_tile
            c1 = min(c0 + plan.col_tile, features)
            store = sub.stored(0, window)[:, : c1 - c0]
            live = store.shape[0]
            parts[cp].append(store)
            search_charges.append(
                (sub, tech.search_energy(spec, live, False))
            )
        used = max(
            0, min(window, session._next_slot - group.base_slot)
        )
        read_pj = tech.read_energy(spec, window)
        merge_pj = tech.merge_energy("subarray", used)
        for _ in group.subs:
            read_charges.append(read_pj)
            merge_charges.append(merge_pj)
    slices = []
    for cp in range(col_tiles):
        c0 = cp * plan.col_tile
        c1 = min(c0 + plan.col_tile, features)
        store = (
            np.ascontiguousarray(np.vstack(parts[cp]))
            if parts[cp]
            else np.zeros((0, c1 - c0), dtype=np.float64)
        )
        if store.shape[0] != n_alive:
            return None
        slices.append((c0, c1, store))
    for level in ("array", "mat", "bank"):
        merge_charges.append(tech.merge_energy(level, plan.patterns))
    return FusedPlan(
        machine=machine,
        metric=program.metric,
        stacked=False,
        slices=slices,
        features=features,
        n_alive=n_alive,
        largest=program.largest,
        wta_window=tech.wta_window,
        search_charges=search_charges,
        read_charges=read_charges,
        merge_charges=merge_charges,
        host_energy=tech.host_topk_energy(n_alive) if n_alive else 0.0,
    )


def build_fused_plan(session) -> Optional[FusedPlan]:
    """Trace ``session``'s query pipeline into a :class:`FusedPlan`.

    Returns ``None`` when the session cannot be fused — unknown metric,
    or the machine's valid rows disagree with the session's slot
    directory (the caller then keeps the unfused walk, which is always
    correct).  Device noise is the *caller's* bypass: noise draws are
    per-machine-call and only the unfused walk reproduces them.
    """
    if session.program.metric not in METRIC_FUNCTIONS:
        return None
    if session.program.plan.batches > 1:
        return _stacked_plan(session)
    return _tiled_plan(session)
