"""Replicated sessions and the async micro-batching serving engine.

PR 1 made the CAM a program-once / query-many device
(:class:`~repro.runtime.session.QuerySession`) and PR 2 scaled stored
*capacity* past one machine
(:class:`~repro.runtime.sharding.ShardedSession`) — but the runtime
still served one synchronous batch at a time from a single copy of the
store.  This module adds the *throughput* axis, the way asynchronous
memory-access designs (AMU) decouple request issue from completion on
fixed-latency hardware and hybrid data planes route each request to the
best path:

* :class:`ReplicatedSession` — R independently programmed **replicas**
  of one (possibly sharded) store.  Replicas are cloned from the
  compiled session (``clone()``: same lowered modules, plans and query
  programs — nothing recompiles; only the per-copy machine programming
  that real replicated hardware genuinely pays).  Each batch routes to
  the least-loaded replica; per-replica "lane" accounting merges into an
  honest concurrent report
  (:func:`~repro.simulator.metrics.merge_concurrent_reports`): energy
  and silicon scale with R, wall time is the longest lane, and
  ``throughput_qps`` reflects the concurrency replication buys.
* :class:`ServingEngine` — an asynchronous front door.  Clients
  ``submit()`` single queries or small batches and get a
  :class:`~concurrent.futures.Future` back immediately; a dispatcher
  thread coalesces queued requests into micro-batches (up to
  ``max_batch`` rows, waiting at most ``max_wait`` seconds to fill one)
  and hands each micro-batch to the least-loaded lane's worker.

The engine is built from two replaceable parts so higher control planes
(:class:`~repro.runtime.cluster.Cluster`) can reuse its worker/future
plumbing wholesale:

* a **request intake** forms micro-batches.  :class:`FifoIntake` (the
  default) coalesces in arrival order; :class:`PriorityIntake` orders
  by ``priority`` (higher first) then earliest ``deadline``
  (EDF-within-priority) then submission order.  Either way a
  micro-batch only ever holds requests of **one** tenant.
* **serving lanes** (one backend copy + one worker thread each) can be
  added and retired at runtime (``add_lane`` / ``remove_lane``) — the
  mechanism a queue-depth autoscaler grows and shrinks per-tenant
  capacity with.  A lane may carry a tenant affinity (it serves only
  that tenant's batches) and a machine lock (colocated backends of one
  physical machine serialize, like the hardware).

**Identity guarantee** — with device noise disabled, the values/indices
a future resolves to are *bitwise identical* to calling the underlying
session's ``run_batch`` directly on that request's rows, regardless of
how requests were coalesced, prioritised or which lane served them:
every lane of a store is programmed with the same patterns, and
match-line scores are row-local, so grouping cannot change any
per-query result.  (With ``noise_sigma > 0`` replicas draw decorrelated
noise streams and the guarantee intentionally does not hold.)

Scheduling is wall-clock-real but device time is simulated; the optional
``time_scale`` knob (wall seconds per simulated nanosecond) makes each
worker *hold* its lane for the micro-batch's simulated latency, so
wall-clock experiments (e.g. ``benchmarks/test_serving_throughput.py``)
see the fixed-latency-device behaviour the paper's hardware would have.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.metrics import (
    ExecutionReport,
    merge_concurrent_reports,
)

from .backend import ClusterShutdown, ExecutionBackend, LaneStats, SessionError
from .machineview import MachineGroupView

__all__ = [
    "FifoIntake",
    "LaneStats",
    "PriorityIntake",
    "ReplicatedSession",
    "ServingEngine",
]


# ----------------------------------------------------------- replication
class ReplicatedSession(ExecutionBackend, MachineGroupView):
    """R independently programmed copies of one store, for throughput.

    Wraps a compiled :class:`~repro.runtime.session.QuerySession` or
    :class:`~repro.runtime.sharding.ShardedSession` and clones it
    ``num_replicas - 1`` times — sharing every compiled artifact,
    programming a fresh machine (or machine group) per copy.  Unlike
    sharding, every replica holds the *whole* store: replication buys
    concurrent serving capacity, not rows.

    :meth:`run_batch` keeps the synchronous session contract (identical
    results, per-batch ``last_report``) while routing each batch to the
    replica with the least accumulated simulated busy time;
    :meth:`run_on` pins a batch to an explicit replica (the
    :class:`ServingEngine` routes by queue depth and calls this).
    :meth:`report` merges the per-replica lanes into one concurrent
    deployment report — energy/area scale with R, latency is the longest
    lane, ``throughput_qps`` reflects the added concurrency.

    The object is also the aggregate machine view over every replica
    machine (for :func:`repro.simulator.analysis.utilization` /
    ``format_report``), mirroring ``ShardedSession``.
    """

    def __init__(self, base, num_replicas: int):
        if num_replicas < 1:
            raise SessionError("a replicated session needs >= 1 replica")
        if not hasattr(base, "clone"):
            raise SessionError(
                "the base session cannot be replicated: it does not "
                "support clone() (need a QuerySession or ShardedSession)"
            )
        self.replicas = [base]
        for _ in range(num_replicas - 1):
            self.replicas.append(base.clone())
        self.spec = base.spec
        self.tech = base.tech
        self._lock = threading.Lock()
        self._lanes = [LaneStats(replica) for replica in self.replicas]
        self.last_report: Optional[ExecutionReport] = None
        self.batches_run = 0

    # ------------------------------------------------------------ topology
    #: Aggregate machine view (:class:`MachineGroupView`): counters and
    #: silicon span every replica — R copies really occupy R machines.
    _group_noun = "replica set"

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def machines(self) -> List:
        """Every physical machine across all replicas (shards included)."""
        out = []
        for replica in self.replicas:
            group = getattr(replica, "machines", None)
            if group is not None:
                out.extend(group)
            else:
                out.append(replica.machine)
        return out

    # ------------------------------------------------------- protocol bits
    def query_width(self, tenant: Optional[str] = None) -> Optional[int]:
        """Delegates to the base replica (every copy serves the same
        store, so they all share one width map)."""
        return self.replicas[0].query_width(tenant)

    def tenant_widths(self) -> Optional[Dict[str, int]]:
        return self.replicas[0].tenant_widths()

    def setup_report(self) -> ExecutionReport:
        """Zero-query baseline: replicas program in parallel, every
        copy's write energy and silicon is paid."""
        return merge_concurrent_reports(
            [replica.setup_report() for replica in self.replicas]
        )

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Clear query-side state on every replica; patterns survive."""
        for replica in self.replicas:
            replica.reset()
        with self._lock:
            self._lanes = [LaneStats(r) for r in self.replicas]
            self.last_report = None
            self.batches_run = 0

    # ------------------------------------------------------------- queries
    def run_on(
        self, index: int, queries: np.ndarray, tenant: Optional[str] = None
    ) -> List[np.ndarray]:
        """Serve one batch on replica ``index``; records its lane.

        Concurrent calls are safe for *distinct* indices (the engine
        runs one worker per replica); a single replica must serve its
        batches serially, like the hardware it models.  ``tenant``
        routes the batch to that tenant's store when the replicas are
        multi-tenant backends (:class:`~repro.runtime.cluster.Cluster`).
        """
        replica = self.replicas[index]
        outputs = replica.run_batch(queries, tenant=tenant)
        report = replica.last_report
        with self._lock:
            self._lanes[index].add(report)
            self.last_report = report
            self.batches_run += 1
        return outputs

    def run_batch(
        self, queries: np.ndarray, tenant: Optional[str] = None
    ) -> List[np.ndarray]:
        """Serve one batch on the least-loaded replica (synchronous).

        Load is the lane's accumulated simulated busy time, so a stream
        of equal batches round-robins and unequal batches rebalance;
        ties break to the lowest replica index.  Results and the
        per-batch ``last_report`` are exactly what the base session
        would produce.
        """
        with self._lock:
            index = min(
                range(len(self.replicas)),
                key=lambda i: (self._lanes[i].latency_ns, i),
            )
        return self.run_on(index, queries, tenant=tenant)

    # ------------------------------------------------------------ mutations
    # Store mutations apply to *every* replica: clones share the initial
    # store and id assignment is deterministic (ids are handed out in
    # call order), so the same mutation sequence keeps all copies — and
    # their id spaces — identical.
    @property
    def pattern_count(self) -> int:
        return self.replicas[0].pattern_count

    def row_ids(self) -> List[int]:
        return self.replicas[0].row_ids()

    def insert(self, patterns) -> List[int]:
        """Append patterns on every replica; one id list (identical
        across copies) comes back."""
        ids = [replica.insert(patterns) for replica in self.replicas]
        return ids[0]

    def delete(self, ids) -> None:
        for replica in self.replicas:
            replica.delete(ids)

    def update(self, pattern_id: int, pattern) -> None:
        for replica in self.replicas:
            replica.update(pattern_id, pattern)

    def compact(self) -> int:
        return max(replica.compact() for replica in self.replicas)

    def store_state(self):
        return self.replicas[0].store_state()

    def restore(self, state) -> None:
        for replica in self.replicas:
            replica.restore(state)

    # -------------------------------------------------------------- report
    def lane_reports(self) -> List[ExecutionReport]:
        """One serialized report per replica lane (setup charged once)."""
        with self._lock:
            return [lane.report() for lane in self._lanes]

    def report(self) -> ExecutionReport:
        """The concurrent deployment report across all replica lanes."""
        return merge_concurrent_reports(self.lane_reports())


# --------------------------------------------------------------- requests
class _Request:
    """One queued client request: rows, tenant, urgency and its future.

    The ``t_*`` fields are wall-clock tracing stamps
    (``time.perf_counter``) the serving path fills in as the request
    flows through it: submitted -> pulled into a forming micro-batch
    (``t_coalesce``) -> batch closed and dispatched to a lane
    (``t_dispatch``) -> served by the backend (``t_serve_end``) ->
    result slice resolved into the future (``t_done``).  They feed
    :meth:`ServingEngine.trace_summary`'s per-phase percentiles — the
    queue-vs-service split the placement cost model calibrates against.
    """

    __slots__ = (
        "queries", "rows", "future", "tenant", "priority", "deadline", "seq",
        "t_submit", "t_coalesce", "t_dispatch", "t_serve_start",
        "t_serve_end", "t_done",
    )
    _seq = itertools.count()

    def __init__(
        self,
        queries: np.ndarray,
        tenant: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ):
        self.queries = queries
        self.rows = queries.shape[0]
        self.future: Future = Future()
        self.tenant = tenant
        self.priority = int(priority)
        #: Absolute monotonic-clock deadline (None = none).
        self.deadline = (
            None if deadline is None else time.monotonic() + float(deadline)
        )
        self.seq = next(self._seq)
        self.t_submit = time.perf_counter()
        self.t_coalesce: Optional[float] = None
        self.t_dispatch: Optional[float] = None
        self.t_serve_start: Optional[float] = None
        self.t_serve_end: Optional[float] = None
        self.t_done: Optional[float] = None

    @property
    def sort_key(self) -> Tuple[float, float, int]:
        """Higher priority first, then EDF, then submission order."""
        return (
            -self.priority,
            float("inf") if self.deadline is None else self.deadline,
            self.seq,
        )

    def spans(self) -> Dict[str, float]:
        """Per-phase durations in seconds (only the stamped ones):
        ``queue`` (waiting in the intake), ``coalesce`` (riding a
        forming micro-batch), ``run`` (lane inbox + backend service),
        ``merge`` (splitting the batch result and resolving)."""
        out: Dict[str, float] = {}
        if self.t_coalesce is not None:
            out["queue"] = self.t_coalesce - self.t_submit
            if self.t_dispatch is not None:
                out["coalesce"] = self.t_dispatch - self.t_coalesce
                if self.t_serve_end is not None:
                    out["run"] = self.t_serve_end - self.t_dispatch
                    if self.t_done is not None:
                        out["merge"] = self.t_done - self.t_serve_end
                        out["total"] = self.t_done - self.t_submit
        return out


_SHUTDOWN = object()


# ---------------------------------------------------------------- intakes
class FifoIntake:
    """The default request source: arrival order, tenant-pure batches.

    A micro-batch closes when it holds ``max_batch`` query rows or
    ``max_wait`` seconds passed since its first request; a request that
    would overflow the cap — or that belongs to a different tenant than
    the batch — is held over and seeds the next micro-batch instead.
    ``priority``/``deadline`` on requests are carried but not honoured
    (use :class:`PriorityIntake` for that).
    """

    def __init__(self):
        self._queue: queue.Queue = queue.Queue()
        self._holdover: Optional[_Request] = None
        self._stopped = False

    def put(self, request: _Request) -> None:
        self._queue.put(request)

    def close(self) -> None:
        self._queue.put(_SHUTDOWN)

    def drain(self) -> List[_Request]:
        """Remove and return every still-queued request (shutdown)."""
        drained = []
        if self._holdover is not None:
            drained.append(self._holdover)
            self._holdover = None
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return drained
            if item is not _SHUTDOWN:
                drained.append(item)

    def next_batch(self, max_batch: int, max_wait: float):
        """The next micro-batch ``(requests, rows)``; None at shutdown."""
        if self._stopped:
            return None
        first = (
            self._holdover if self._holdover is not None
            else self._queue.get()
        )
        self._holdover = None
        if first is _SHUTDOWN:
            self._stopped = True
            return None
        first.t_coalesce = time.perf_counter()
        batch = [first]
        rows = first.rows
        deadline = time.monotonic() + max_wait
        while rows < max_batch:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                break
            try:
                nxt = self._queue.get(timeout=timeout)
            except queue.Empty:
                break
            if nxt is _SHUTDOWN:
                self._stopped = True
                break
            if nxt.tenant != first.tenant:
                # Never mix tenants in one micro-batch: the next
                # request seeds its own batch instead.
                self._holdover = nxt
                break
            if rows + nxt.rows > max_batch:
                self._holdover = nxt  # seeds the next micro-batch
                break
            nxt.t_coalesce = time.perf_counter()
            batch.append(nxt)
            rows += nxt.rows
        return batch, rows


class PriorityIntake:
    """Priority/deadline-ordered request source (cluster dispatch).

    The most urgent pending request — highest ``priority``, then
    earliest ``deadline`` (EDF within a priority class), then earliest
    submission — seeds each micro-batch; coalescing then pulls further
    pending requests of the *same tenant* in the same urgency order
    (skipping any that would overflow ``max_batch``; they stay queued),
    waiting up to ``max_wait`` seconds for the batch to fill.  Batches
    never mix tenants, so one control plane multiplexes every colocated
    kernel without a query of one store ever riding another's search.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._entries: List[Tuple[tuple, _Request]] = []
        # Per-tenant queued-row totals, kept in lockstep with the heap:
        # pending_rows() runs on every submit (the autoscaler's signal)
        # and must not rescan a deep backlog each time.
        self._rows: Dict[Optional[str], int] = {}
        self._closed = False

    def _account(self, request: _Request, delta: int) -> None:
        total = self._rows.get(request.tenant, 0) + delta * request.rows
        if total > 0:
            self._rows[request.tenant] = total
        else:
            self._rows.pop(request.tenant, None)

    def put(self, request: _Request) -> None:
        with self._cond:
            if self._closed:
                raise SessionError("the request intake is closed")
            heapq.heappush(self._entries, (request.sort_key, request))
            self._account(request, +1)
            self._cond.notify()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def pending_rows(self, tenant: Optional[str] = None) -> int:
        """Queued (not yet dispatched) rows, optionally one tenant's —
        the queue-depth signal the cluster autoscaler watches."""
        with self._cond:
            if tenant is None:
                return sum(self._rows.values())
            return self._rows.get(tenant, 0)

    def drain(self) -> List[_Request]:
        """Remove and return every still-queued request (shutdown)."""
        with self._cond:
            drained = [request for _key, request in self._entries]
            self._entries = []
            self._rows = {}
            return drained

    def drain_tenant(self, tenant: str) -> List[_Request]:
        """Remove and return one tenant's queued requests (eviction)."""
        with self._cond:
            keep, gone = [], []
            for entry in self._entries:
                (gone if entry[1].tenant == tenant else keep).append(entry)
            self._entries = keep
            heapq.heapify(self._entries)
            self._rows.pop(tenant, None)
            return [request for _key, request in gone]

    def next_batch(self, max_batch: int, max_wait: float):
        """The next micro-batch ``(requests, rows)``; None at shutdown."""
        with self._cond:
            while not self._entries:
                if self._closed:
                    return None
                self._cond.wait()
            _key, first = heapq.heappop(self._entries)
            self._account(first, -1)
            first.t_coalesce = time.perf_counter()
            batch = [first]
            rows = first.rows
            deadline = time.monotonic() + max_wait
            while rows < max_batch:
                rows = self._take_same_tenant(batch, rows, max_batch)
                if rows >= max_batch or self._closed:
                    break
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    break
                self._cond.wait(timeout=timeout)
            return batch, rows

    def _take_same_tenant(
        self, batch: List[_Request], rows: int, max_batch: int
    ) -> int:
        """Move fitting same-tenant entries into ``batch``, most urgent
        first.  Caller holds the condition lock."""
        tenant = batch[0].tenant
        chosen = []
        for entry in sorted(
            (e for e in self._entries if e[1].tenant == tenant),
            key=lambda e: e[0],
        ):
            if rows + entry[1].rows <= max_batch:
                chosen.append(entry)
                entry[1].t_coalesce = time.perf_counter()
                batch.append(entry[1])
                rows += entry[1].rows
                if rows >= max_batch:
                    break
        if chosen:
            taken = {id(entry) for entry in chosen}
            self._entries = [
                entry for entry in self._entries if id(entry) not in taken
            ]
            heapq.heapify(self._entries)
            for entry in chosen:
                self._account(entry[1], -1)
        return rows


# ------------------------------------------------------------------ lanes
class _Lane:
    """One serving lane: a backend copy, its worker thread and queue."""

    __slots__ = (
        "backend", "serve", "tenant", "lock", "inbox", "thread",
        "outstanding", "busy_until", "rows_dispatched", "alive",
        "retire_error",
    )

    def __init__(self, backend, serve, tenant, lock):
        self.backend = backend
        self.serve = serve            # (queries, tenant) -> result
        self.tenant = tenant          # affinity: None serves any tenant
        # Machine lock for colocated backends; a private lock otherwise.
        # Every lane serves under its lock so store mutations
        # (ServingEngine.mutate) serialize against in-flight batches.
        self.lock = lock if lock is not None else threading.Lock()
        self.inbox: queue.Queue = queue.Queue()
        self.thread: Optional[threading.Thread] = None
        self.outstanding = 0          # dispatched, unfinished rows
        self.busy_until = 0.0         # wall-clock pacing book
        self.rows_dispatched = 0
        self.alive = True
        self.retire_error: Optional[BaseException] = None


def _percentile(ordered: List[float], pct: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _array_root(array: np.ndarray) -> np.ndarray:
    """The owning array at the bottom of a view's ``base`` chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _rowaligned_view(arrays: List[np.ndarray]) -> Optional[np.ndarray]:
    """One view spanning ``arrays`` when they are adjacent row slices.

    Requests produced by slicing one buffer (``engine.map`` submitting
    consecutive rows) arrive as views whose row data sits back-to-back
    in a single owning array.  When every piece is a C-contiguous 2-D
    view of the *same* root buffer, same dtype and width, and their
    data pointers tile without gaps, the coalesced batch is just a
    longer view starting at the first piece — no copy.  Anything else
    returns ``None`` (the caller concatenates).  The returned view's
    ``base`` chain keeps the root alive, and staying inside one root
    buffer is what makes the strided extension memory-safe.
    """
    first = arrays[0]
    if first.ndim != 2 or not first.flags["C_CONTIGUOUS"]:
        return None
    root = _array_root(first)
    rows, cols = first.shape
    end = first.__array_interface__["data"][0] + first.nbytes
    for array in arrays[1:]:
        if (
            array.ndim != 2
            or array.shape[1] != cols
            or array.dtype != first.dtype
            or not array.flags["C_CONTIGUOUS"]
            or _array_root(array) is not root
            or array.__array_interface__["data"][0] != end
        ):
            return None
        end += array.nbytes
        rows += array.shape[0]
    # Explicit dense strides: a single-row view can carry a 0 stride on
    # its leading axis (np.atleast_2d's new axis) while still being
    # flagged C-contiguous, and extending that stride would repeat one
    # row instead of walking the buffer.
    itemsize = first.itemsize
    return np.lib.stride_tricks.as_strided(
        first, shape=(rows, cols), strides=(cols * itemsize, itemsize)
    )


def _default_split(result, lo: int, hi: int):
    """Slice a ``run_batch``-shaped result (arrays over the batch dim)."""
    if isinstance(result, np.ndarray):
        return result[lo:hi]
    if isinstance(result, (list, tuple)):
        return type(result)(part[lo:hi] for part in result)
    raise TypeError(
        f"cannot split a {type(result).__name__} result across requests; "
        "pass an explicit split= function to the ServingEngine"
    )


def _probe_widths(backend):
    """(tenant-width map, single width) via the protocol, duck-typed.

    Raw list backends (e.g. the pattern-matcher adapters) predate the
    protocol; they fall back to a ``features`` attribute or simply let
    the first request pin the width.
    """
    tenant_widths = getattr(backend, "tenant_widths", None)
    if callable(tenant_widths):
        tenants = tenant_widths()
        if tenants is not None:
            return dict(tenants), None
    query_width = getattr(backend, "query_width", None)
    if callable(query_width):
        return None, query_width()
    features = getattr(backend, "features", None)
    return None, features if isinstance(features, int) else None


# -------------------------------------------------------------- the engine
class ServingEngine:
    """Async front door: queue in, micro-batches out, futures back.

    ``session`` is what to serve on: a :class:`ReplicatedSession` (the
    usual case), a bare ``QuerySession``/``ShardedSession`` (wrapped
    into a single-replica deployment), or an explicit list of replica
    backends — any objects with ``run_batch(queries)`` (used by
    :meth:`repro.apps.matching.PatternMatcher.serve`, whose results are
    per-query lists rather than stacked arrays; such backends pass a
    matching ``split``).

    Three kinds of thread cooperate:

    * **clients** call :meth:`submit` (thread-safe, non-blocking) and
      hold the returned future;
    * one **dispatcher** pulls micro-batches from the intake
      (:class:`FifoIntake` by default; pass ``intake=PriorityIntake()``
      for priority/deadline dispatch) and assigns each batch to the
      eligible lane with the fewest outstanding rows;
    * one **worker per lane** serves its queue in order, optionally
      holds the lane for the batch's simulated latency (``time_scale``
      wall-seconds per simulated ns), then resolves each request's
      future with its slice of the batch result.

    :meth:`shutdown` drains in-flight work (``wait=True``, the default —
    every already-submitted future resolves), aborts it (``wait=False``
    — unserved futures are cancelled), or aborts with an explicit error
    (``abort=True`` — unserved futures raise
    :class:`~repro.runtime.backend.ClusterShutdown`, so clients can
    tell a control-plane decision from a cancellation); either way the
    engine refuses new submissions afterwards.  The engine is a context
    manager: a clean ``with`` exit drains, an exceptional one aborts.
    """

    def __init__(
        self,
        session,
        max_batch: int = 32,
        max_wait: float = 0.002,
        time_scale: float = 0.0,
        split: Optional[Callable] = None,
        intake=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be a positive row count")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0 seconds")
        self.session = None
        backends: List = []
        if session is None:
            # A control plane (the cluster) attaches lanes itself via
            # add_lane() and registers tenant widths explicitly.
            self._tenants: Optional[Dict[str, int]] = {}
            self._features: Optional[int] = None
        elif isinstance(session, (list, tuple)):
            if not session:
                raise SessionError("the engine needs at least one replica")
            backends = list(session)
        else:
            if not hasattr(session, "run_on"):
                session = ReplicatedSession(session, 1)
            self.session = session
            backends = list(session.replicas)
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.time_scale = time_scale
        self._split = split or _default_split

        if backends:
            # Feature width every request must share (requests coalesce).
            # Seeded from the backend when it knows; otherwise the first
            # request pins it.  Multi-tenant backends instead carry one
            # width per tenant, and every submit must name its tenant.
            self._tenants, self._features = _probe_widths(backends[0])

        self._intake = intake if intake is not None else FifoIntake()
        self._lock = threading.Lock()
        self._closed = False
        self._abort = False
        self._abort_error: Optional[BaseException] = None
        self._lanes: List[_Lane] = []
        self.requests_submitted = 0
        self.batches_dispatched = 0
        #: Micro-batches handed to a lane as an array view (single
        #: request, or row-aligned requests) instead of a copy.
        self.zero_copy_batches = 0
        #: Completed requests' tracing spans, newest last (bounded).
        self._trace: deque = deque(maxlen=4096)
        #: Called (with the batch's tenant) after every served batch —
        #: the completion signal a cluster autoscaler shrinks on.
        self.on_batch_done: Optional[Callable[[Optional[str]], None]] = None

        if self.session is not None:
            for index, replica in enumerate(backends):
                self._start_lane(self._session_lane(index, replica))
        else:
            for replica in backends:
                self._start_lane(self._backend_lane(replica))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="serving-dispatch"
        )
        self._dispatcher.start()

    # -------------------------------------------------------- lane plumbing
    def _session_lane(self, index: int, replica) -> _Lane:
        """A lane pinned to ``session.run_on(index, ...)`` so the
        replicated session keeps its own lane accounting."""
        def serve(queries, tenant, _index=index):
            return self.session.run_on(_index, queries, tenant=tenant)

        return _Lane(replica, serve, tenant=None, lock=None)

    def _backend_lane(self, backend, tenant=None, lock=None) -> _Lane:
        """A lane serving ``backend.run_batch`` directly."""
        def serve(queries, request_tenant):
            if request_tenant is not None and tenant is None:
                # a tenant-routed request on a shared backend
                return backend.run_batch(queries, tenant=request_tenant)
            return backend.run_batch(queries)

        return _Lane(backend, serve, tenant=tenant, lock=lock)

    def _start_lane(self, lane: _Lane) -> _Lane:
        with self._lock:
            if self._closed:
                raise SessionError(
                    "the serving engine is shut down; no new lanes"
                )
            self._lanes.append(lane)
            index = len(self._lanes) - 1
        lane.thread = threading.Thread(
            target=self._worker_loop, args=(lane,), daemon=True,
            name=f"serving-lane-{index}",
        )
        lane.thread.start()
        return lane

    def add_lane(self, backend, tenant: Optional[str] = None,
                 lock: Optional[threading.Lock] = None,
                 serve: Optional[Callable] = None) -> _Lane:
        """Attach a new serving lane at runtime (autoscale-up).

        ``tenant`` pins the lane to one tenant's batches; ``lock``
        serializes the lane with other lanes colocated on the same
        physical machine; ``serve`` overrides the ``(queries, tenant)``
        callable (defaults to the backend's protocol ``run_batch``).
        """
        lane = (
            self._backend_lane(backend, tenant=tenant, lock=lock)
            if serve is None
            else _Lane(backend, serve, tenant=tenant, lock=lock)
        )
        return self._start_lane(lane)

    def remove_lane(
        self, lane: _Lane, error: Optional[BaseException] = None
    ) -> None:
        """Retire a lane at runtime (autoscale-down / tenant eviction).

        Already-queued batches on the lane fail with ``error`` (default
        :class:`~repro.runtime.backend.ClusterShutdown`) rather than
        being served by a backend the control plane has retired.  The
        worker thread winds down asynchronously (it may be the caller).
        """
        with self._lock:
            if not lane.alive:
                return
            lane.alive = False
            lane.retire_error = error or ClusterShutdown(
                "the serving lane was retired before this request ran"
            )
        lane.inbox.put(_SHUTDOWN)

    def lanes(self, tenant: Optional[str] = None) -> List[_Lane]:
        """The live lanes, optionally only those serving ``tenant``."""
        with self._lock:
            return [
                lane for lane in self._lanes
                if lane.alive and (tenant is None or lane.tenant == tenant)
            ]

    # ------------------------------------------------------------- clients
    @property
    def num_replicas(self) -> int:
        return len(self.lanes())

    def register_tenant(self, tenant: str, width: int) -> None:
        """Declare a tenant's query width (cluster admit)."""
        with self._lock:
            if self._tenants is None:
                self._tenants = {}
            self._tenants[tenant] = int(width)

    def drop_tenant(self, tenant: str) -> None:
        """Forget a tenant's width (cluster evict); later submits for
        it are refused at the caller."""
        with self._lock:
            if self._tenants is not None:
                self._tenants.pop(tenant, None)

    def drain_tenant(self, tenant: str, error: BaseException) -> int:
        """Fail a tenant's queued (undispatched) requests with ``error``
        (eviction); returns how many were failed.  Requires an intake
        that supports per-tenant draining (:class:`PriorityIntake`)."""
        drain = getattr(self._intake, "drain_tenant", None)
        if drain is None:
            return 0
        requests = drain(tenant)
        for request in requests:
            self._resolve(request.future.set_exception, error)
        return len(requests)

    def pending_rows(self, tenant: Optional[str] = None) -> int:
        """Queued (undispatched) rows, optionally one tenant's; 0 when
        the intake cannot tell (plain FIFO)."""
        pending = getattr(self._intake, "pending_rows", None)
        return 0 if pending is None else pending(tenant)

    def mutate(self, fn: Callable, tenant: Optional[str] = None) -> List:
        """Apply a store mutation to every serving lane, safely
        interleaved with in-flight query batches.

        ``fn(backend)`` runs once per distinct lane backend (replica),
        under that lane's lock — a batch being served on the lane
        finishes first, and the lane's next batch sees the mutated
        store.  ``tenant`` restricts the mutation to lanes serving that
        tenant (its pinned lanes plus shared lanes); ``fn`` must then
        route to the tenant's store itself.  The call returning is the
        completion barrier: every lane has applied the mutation, so no
        later-submitted request can observe the old store.  Returns the
        per-backend results of ``fn``.
        """
        with self._lock:
            if self._closed:
                raise SessionError(
                    "the serving engine is shut down; no mutations"
                )
            lanes = [
                lane for lane in self._lanes
                if lane.alive
                and (tenant is None or lane.tenant in (None, tenant))
            ]
        results, seen = [], set()
        for lane in lanes:
            if id(lane.backend) in seen:
                continue
            seen.add(id(lane.backend))
            with lane.lock:
                results.append(fn(lane.backend))
        if not results:
            raise SessionError(
                f"no serving lane accepts tenant {tenant!r}; "
                "nothing to mutate"
            )
        return results

    def submit(
        self,
        queries: np.ndarray,
        tenant: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> Future:
        """Enqueue one request (a single ``D`` query or a small ``B×D``
        batch); returns its future immediately.

        The future resolves to the request's own rows of the batch
        result — for session backends, ``[values, indices]`` arrays with
        leading dimension ``B`` (1 for a single query) — bitwise what
        ``run_batch`` on exactly these rows returns.  It raises the
        serving error if the backend failed, and is cancelled if the
        engine shuts down with ``wait=False`` before serving it.

        ``priority`` (higher = more urgent, default 0) and ``deadline``
        (seconds from now; requests with earlier deadlines dispatch
        first within a priority class) order dispatch when the engine
        runs a :class:`PriorityIntake`; the default FIFO intake carries
        them but serves in arrival order.

        Over a multi-tenant fleet every request names its ``tenant``;
        the dispatcher only coalesces requests of the same tenant into a
        micro-batch, so one serving fleet multiplexes all the colocated
        kernels without ever mixing their queries.
        """
        batch = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ValueError(
                "submit() takes one 1-D query or a non-empty 2-D batch"
            )
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds from now")
        request = _Request(
            batch, tenant=tenant, priority=priority, deadline=deadline
        )
        with self._lock:
            if self._closed:
                raise SessionError(
                    "the serving engine is shut down; no new requests"
                )
            if self._tenants is not None:
                # Multi-tenant backend: the tenant picks the store (and
                # its feature width).
                if tenant is None:
                    raise SessionError(
                        "this engine serves a multi-tenant fleet; pass "
                        "submit(queries, tenant=...) with one of "
                        f"{sorted(self._tenants)}"
                    )
                if tenant not in self._tenants:
                    raise SessionError(
                        f"no tenant {tenant!r} on this fleet; tenants: "
                        f"{sorted(self._tenants)}"
                    )
                if batch.shape[1] != self._tenants[tenant]:
                    raise ValueError(
                        f"query width {batch.shape[1]} does not match "
                        f"tenant {tenant!r}'s feature dimension "
                        f"{self._tenants[tenant]}"
                    )
            elif tenant is not None:
                raise SessionError(
                    "this engine's backend is single-tenant; submit "
                    "without a tenant id"
                )
            # All coalescable requests must share one feature width —
            # reject misfits here, at the caller, instead of poisoning a
            # whole micro-batch later.
            elif self._features is None:
                self._features = batch.shape[1]
            elif batch.shape[1] != self._features:
                raise ValueError(
                    f"query width {batch.shape[1]} does not match this "
                    f"engine's feature dimension {self._features}"
                )
            self.requests_submitted += 1
            self._intake.put(request)
        return request.future

    def map(
        self, queries: np.ndarray, tenant: Optional[str] = None
    ) -> List[Future]:
        """Submit every row of ``queries`` as its own request."""
        batch = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return [self.submit(row, tenant=tenant) for row in batch]

    # ---------------------------------------------------------- dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            item = self._intake.next_batch(self.max_batch, self.max_wait)
            if item is None:
                break
            self._dispatch(*item)

    def _dispatch(self, batch: List[_Request], rows: int) -> None:
        tenant = batch[0].tenant
        # Zero-copy handoff: a single-request batch passes its array
        # straight through, and row-aligned requests (consecutive
        # slices of one buffer) coalesce into a view; only genuinely
        # scattered requests pay the concatenation copy.
        zero_copy = True
        if len(batch) == 1:
            queries = batch[0].queries
        else:
            queries = _rowaligned_view([r.queries for r in batch])
            if queries is None:
                zero_copy = False
                queries = np.concatenate(
                    [r.queries for r in batch], axis=0
                )
        dispatched = time.perf_counter()
        for request in batch:
            request.t_dispatch = dispatched
        # The alive-check and the inbox put are atomic under the engine
        # lock: remove_lane flips `alive` under the same lock before it
        # enqueues the shutdown sentinel, so a dispatched batch always
        # precedes the sentinel (the worker fails it with the lane's
        # retire error) and can never be stranded behind it.
        with self._lock:
            eligible = [
                lane for lane in self._lanes
                if lane.alive and lane.tenant in (None, tenant)
            ]
            if eligible:
                lane = min(eligible, key=lambda x: x.outstanding)
                lane.outstanding += rows
                lane.rows_dispatched += rows
                self.batches_dispatched += 1
                if zero_copy:
                    self.zero_copy_batches += 1
                lane.inbox.put((batch, queries, tenant, dispatched))
                return
            # A control-plane decision (eviction, teardown) removed the
            # last lane between queueing and dispatch.
            error = self._abort_error or ClusterShutdown(
                f"no serving lane accepts tenant {tenant!r} (it was "
                "evicted while the request was queued)"
            )
        for request in batch:
            self._resolve(request.future.set_exception, error)

    # ------------------------------------------------------------- workers
    def _pace(self, lane: _Lane, dispatched: float) -> None:
        """Book the lane's simulated batch latency on the wall clock.

        Occupancy is booked back-to-back from the *dispatch* time: a
        micro-batch that arrives while the device is still busy starts
        when it frees, so a queued lane drains at exactly its service
        rate (absolute deadlines — host scheduling jitter does not
        accumulate), while an idle lane charges the full service time
        from arrival.  This is the fixed-latency-device behaviour the
        async-serving benchmarks measure.
        """
        if self.time_scale <= 0.0:
            return
        report = getattr(lane.backend, "last_report", None)
        if report is None:
            return
        busy_s = report.query_latency_ns * self.time_scale
        target = max(dispatched, lane.busy_until) + busy_s
        lane.busy_until = target
        remaining = target - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)

    def _fail_batch(self, batch: List[_Request],
                    error: Optional[BaseException]) -> None:
        for request in batch:
            if error is None:
                request.future.cancel()
            else:
                self._resolve(request.future.set_exception, error)

    def _worker_loop(self, lane: _Lane) -> None:
        while True:
            item = lane.inbox.get()
            if item is _SHUTDOWN:
                break
            batch, queries, tenant, dispatched = item
            try:
                if self._abort:
                    self._fail_batch(batch, self._abort_error)
                    continue
                if not lane.alive:
                    # The control plane retired this lane with work
                    # still queued (eviction): fail, don't serve.
                    self._fail_batch(batch, lane.retire_error)
                    continue
                # Any failure — the backend, the pacing, or splitting
                # the result — is delivered to the batch's futures; the
                # lane itself must survive to serve later batches.
                try:
                    with lane.lock:
                        started = time.perf_counter()
                        result = lane.serve(queries, tenant)
                    self._pace(lane, dispatched)
                    served = time.perf_counter()
                    offset = 0
                    for request in batch:
                        request.t_serve_start = started
                        request.t_serve_end = served
                        piece = self._split(
                            result, offset, offset + request.rows
                        )
                        offset += request.rows
                        self._resolve(request.future.set_result, piece)
                        request.t_done = time.perf_counter()
                    self._record_trace(batch)
                except BaseException as exc:
                    for request in batch:
                        self._resolve(request.future.set_exception, exc)
            finally:
                with self._lock:
                    lane.outstanding -= sum(r.rows for r in batch)
                callback = self.on_batch_done
                if callback is not None:
                    try:
                        callback(tenant)
                    except Exception:
                        pass  # a scaling hiccup must not kill the lane

    @staticmethod
    def _resolve(setter, payload) -> None:
        try:
            setter(payload)
        except InvalidStateError:
            pass  # the client cancelled this future; nothing to deliver

    # ------------------------------------------------------------ lifecycle
    def shutdown(self, wait: bool = True, abort: bool = False) -> None:
        """Stop the engine.  Idempotent.

        ``wait=True`` (default) drains: every request submitted before
        the call is served and its future resolved before this returns.
        ``wait=False`` aborts: queued and not-yet-served requests get
        their futures cancelled; only the batches already inside a
        backend finish.  ``abort=True`` aborts like ``wait=False`` but
        delivers a :class:`~repro.runtime.backend.ClusterShutdown` to
        every still-pending future instead of a bare cancellation —
        the control-plane teardown signal (cluster shutdown, tenant
        eviction) clients can distinguish and retry elsewhere.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        if abort:
            self._abort_error = ClusterShutdown(
                "the serving engine shut down before this request ran"
            )
            wait = False
        if not wait:
            self._abort = True
        if already:
            # A later, stricter shutdown still propagates the abort;
            # the threads are already winding down.
            self._join_workers()
            return
        self._intake.close()
        self._dispatcher.join()
        if not wait:
            # Requests still sitting in the intake never reached a
            # lane: fail them the same way the workers fail theirs.
            drain = getattr(self._intake, "drain", None)
            if drain is not None:
                self._fail_batch(drain(), self._abort_error)
        with self._lock:
            lanes = list(self._lanes)
        for lane in lanes:
            lane.inbox.put(_SHUTDOWN)
        self._join_workers()

    def _join_workers(self) -> None:
        with self._lock:
            lanes = list(self._lanes)
        me = threading.current_thread()
        for lane in lanes:
            if lane.thread is not None and lane.thread is not me:
                lane.thread.join()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # -------------------------------------------------------------- report
    def report(self) -> ExecutionReport:
        """The concurrent deployment report over every serving lane."""
        if self.session is not None:
            return self.session.report()
        seen, reports = set(), []
        with self._lock:
            backends = [lane.backend for lane in self._lanes]
        for backend in backends:
            if id(backend) in seen or not hasattr(backend, "report"):
                continue
            seen.add(id(backend))
            reports.append(backend.report())
        if not reports:
            raise SessionError(
                "these replica backends expose no report(); read their "
                "own accounting directly"
            )
        return merge_concurrent_reports(reports)

    def stats(self) -> dict:
        """Scheduler counters: what was submitted and how it was routed."""
        with self._lock:
            return {
                "requests_submitted": self.requests_submitted,
                "batches_dispatched": self.batches_dispatched,
                "zero_copy_batches": self.zero_copy_batches,
                "rows_dispatched": [
                    lane.rows_dispatched for lane in self._lanes
                ],
                "outstanding_rows": sum(
                    lane.outstanding for lane in self._lanes
                ),
            }

    # ------------------------------------------------------------- tracing
    def _record_trace(self, batch: List[_Request]) -> None:
        with self._lock:
            for request in batch:
                self._trace.append((request.tenant, request.spans()))

    def trace_summary(self, tenant: Optional[str] = None) -> dict:
        """Per-phase latency percentiles over recently served requests.

        Phases follow one request through the serving path:
        ``queue`` (submit -> pulled into a forming micro-batch),
        ``coalesce`` (riding the batch until it closes and dispatches),
        ``run`` (lane inbox wait + backend service + pacing),
        ``merge`` (splitting the batch result and resolving the
        future), plus ``total`` (submit -> resolved).  Values are
        wall-clock seconds; ``tenant`` restricts the summary to one
        tenant's requests.  Returns ``{"requests": N, "phases":
        {phase: {"p50": ..., "p99": ..., "mean": ...}}}`` over the most
        recent completed requests (bounded history) — the measured
        queue-vs-service split the placement cost model's congestion
        estimate is sanity-checked against.
        """
        with self._lock:
            spans = [
                span for tid, span in self._trace
                if tenant is None or tid == tenant
            ]
        phases: Dict[str, dict] = {}
        for phase in ("queue", "coalesce", "run", "merge", "total"):
            values = [span[phase] for span in spans if phase in span]
            if not values:
                continue
            ordered = sorted(values)
            phases[phase] = {
                "p50": _percentile(ordered, 50.0),
                "p99": _percentile(ordered, 99.0),
                "mean": sum(ordered) / len(ordered),
            }
        return {"requests": len(spans), "phases": phases}
