"""Replicated sessions and the async micro-batching serving engine.

PR 1 made the CAM a program-once / query-many device
(:class:`~repro.runtime.session.QuerySession`) and PR 2 scaled stored
*capacity* past one machine
(:class:`~repro.runtime.sharding.ShardedSession`) — but the runtime
still served one synchronous batch at a time from a single copy of the
store.  This module adds the *throughput* axis, the way asynchronous
memory-access designs (AMU) decouple request issue from completion on
fixed-latency hardware:

* :class:`ReplicatedSession` — R independently programmed **replicas**
  of one (possibly sharded) store.  Replicas are cloned from the
  compiled session (``clone()``: same lowered modules, plans and query
  programs — nothing recompiles, and the module is not walked again: a
  replica replays the compiled session's recorded programming onto its
  own machine, the per-copy programming real replicated hardware
  genuinely pays, charged bitwise as a walk would).  Each batch routes to
  the least-loaded replica; per-replica "lane" accounting merges into an
  honest concurrent report
  (:func:`~repro.simulator.metrics.merge_concurrent_reports`): energy
  and silicon scale with R, wall time is the longest lane, and
  ``throughput_qps`` reflects the concurrency replication buys.
* :class:`ServingEngine` — an asynchronous front door.  Clients
  ``submit()`` single queries or small batches and get a
  :class:`~concurrent.futures.Future` back immediately; whenever a
  serving lane is free, its worker pulls the next micro-batch (up to
  ``max_batch`` rows, waiting at most ``max_wait`` seconds to fill one)
  from the engine's one request intake.

The engine is built from two parts so the multi-tenant control plane
(:class:`~repro.runtime.cluster.Cluster`) can reuse its worker/future
plumbing wholesale:

* the **request intake** (:class:`PriorityIntake`) orders requests by
  ``priority`` (higher first), then earliest ``deadline``
  (EDF-within-priority), then submission order — plain arrival order
  when no request sets either.  A micro-batch only ever holds requests
  of **one** tenant.  A lane holds at most one micro-batch, so
  everything not being served stays in the intake, where that order
  still applies: an urgent request never queues behind batches already
  handed out.
* **serving lanes** (one backend copy + one worker thread each) can be
  added and retired at runtime (``add_lane`` / ``remove_lane``) — the
  mechanism a queue-depth autoscaler grows and shrinks per-tenant
  capacity with.  A lane may carry a tenant affinity (it serves only
  that tenant's batches) and a machine lock (colocated backends of one
  physical machine serialize, like the hardware); it serves each batch
  under that lock.  The cluster's lanes are a subclass whose ``serve``
  follows the tenant's session across re-placements and charges the
  batch to the tenant's accounting.

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

import bisect
import functools
import itertools
import math
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

from .backend import ClusterShutdown, LaneStats, SessionError
from .machineview import MachineGroupView

__all__ = [
    "LaneStats",
    "PriorityIntake",
    "ReplicatedSession",
    "ServingEngine",
]


# ----------------------------------------------------------- replication
class ReplicatedSession(MachineGroupView):
    """R independently programmed copies of one store, for throughput.

    Wraps a compiled :class:`~repro.runtime.session.QuerySession` or
    :class:`~repro.runtime.sharding.ShardedSession` and clones it
    ``num_replicas - 1`` times — sharing every compiled artifact and
    the base's recorded programming, which each copy replays onto a
    fresh machine (or machine group) instead of walking the module, and
    tracing each copy's fused plan up front.  Unlike
    sharding, every replica holds the *whole* store: replication buys
    concurrent serving capacity, not rows.

    :meth:`run_batch` keeps the synchronous session contract (identical
    results, per-batch ``last_report``) while routing each batch to the
    replica with the least accumulated simulated busy time;
    :meth:`run_on` pins a batch to an explicit replica (each
    :class:`ServingEngine` lane serves its own replica through it).
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
    def num_shards(self) -> int:
        """Machines per replica: every copy holds the same layout."""
        return self.replicas[0].num_shards

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

    # ------------------------------------------------------------- widths
    def query_width(self) -> int:
        """The base replica's feature dimension (every copy serves the
        same store)."""
        return self.replicas[0].query_width()

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
    def run_on(self, index: int, queries: np.ndarray) -> List[np.ndarray]:
        """Serve one batch on replica ``index``; records its lane.

        Concurrent calls are safe for *distinct* indices (the engine
        runs one worker per replica); a single replica must serve its
        batches serially, like the hardware it models.
        """
        replica = self.replicas[index]
        outputs = replica.run_batch(queries)
        report = replica.last_report
        with self._lock:
            self._lanes[index].add(report)
            self.last_report = report
            self.batches_run += 1
        return outputs

    def run_batch(self, queries: np.ndarray) -> List[np.ndarray]:
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
        return self.run_on(index, queries)

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
    flows through it: submitted -> a free lane starts forming the
    micro-batch that takes it (``t_coalesce``) -> the lane takes the
    closed batch (``t_dispatch``) -> served by the backend
    (``t_serve_end``) -> result slice resolved into the future
    (``t_done``).  They feed
    :meth:`ServingEngine.trace_summary`'s per-phase percentiles — the
    queue-vs-service split the placement cost model calibrates against.
    """

    __slots__ = (
        "queries", "rows", "future", "tenant", "priority", "deadline", "seq",
        "t_submit", "t_coalesce", "t_dispatch", "t_serve_end", "t_done",
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
        ``queue`` (waiting in the intake, for a free lane too),
        ``coalesce`` (riding a forming micro-batch), ``run`` (backend
        service + pacing), ``merge`` (splitting the batch result and
        resolving)."""
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


# ----------------------------------------------------------------- intake
class PriorityIntake:
    """The engine's one request queue: urgency order, tenant-pure batches.

    Requests wait in order of ``priority`` (higher first), then
    ``deadline`` (earliest first — EDF within a priority class), then
    submission; with equal priorities and no deadlines that is arrival
    order.  A free lane takes its next micro-batch with
    :meth:`next_batch`: the most urgent request the lane may serve seeds
    the batch, and further pending requests of the *same tenant* join it
    in urgency order (skipping any that would overflow ``max_batch``;
    they stay queued).  Batches never mix tenants, so one control plane
    multiplexes every colocated kernel without a query of one store ever
    riding another's search.
    """

    def __init__(self):
        self._cond = threading.Condition()
        # (sort_key, request) pairs, most urgent first.
        self._entries: List[Tuple[tuple, _Request]] = []
        # Per-tenant queued-row totals, kept in lockstep with the queue:
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
            bisect.insort(self._entries, (request.sort_key, request))
            self._account(request, +1)
            # Wake every lane: a single notify() may wake a lane pinned
            # to another tenant while the one that can serve this sleeps.
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def retire(self, lane: "_Lane") -> None:
        """Stop ``lane`` taking batches; one it is serving finishes."""
        with self._cond:
            lane.alive = False
            self._cond.notify_all()

    def pending_rows(self, tenant: Optional[str] = None) -> int:
        """Queued rows no lane has taken yet, optionally one tenant's —
        the queue-depth signal the cluster autoscaler watches."""
        with self._cond:
            if tenant is None:
                return sum(self._rows.values())
            return self._rows.get(tenant, 0)

    def drain(
        self, match: Optional[Callable[[_Request], bool]] = None
    ) -> List[_Request]:
        """Remove and return the queued requests ``match`` selects
        (every one by default): shutdown and eviction."""
        with self._cond:
            gone = [
                request for _key, request in self._entries
                if match is None or match(request)
            ]
            self._remove(gone)
            return gone

    def next_batch(self, max_batch: int, max_wait: float, lane=None):
        """The next micro-batch ``(requests, rows)`` for ``lane``.

        ``lane`` applies its tenant affinity (``None``, or a lane
        without one, takes any tenant).  Until the batch is full the
        lane waits up to ``max_wait`` seconds for it to fill, with its
        requests still queued: until a lane takes them they stay
        reorderable, drainable and counted by :meth:`pending_rows`.
        Returns ``None`` to a retired lane, or when the intake is closed
        and holds nothing for the lane.
        """
        with self._cond:
            opened = None  # when the lane started forming this batch
            while True:
                # Checked under the lock retire() clears it under, so a
                # retired lane never takes another batch.
                if lane is not None and not lane.alive:
                    return None
                batch, rows = self._select(lane, max_batch)
                if not batch:
                    if self._closed:
                        return None
                    opened = None
                    self._cond.wait()
                    continue
                if opened is None:
                    opened = time.perf_counter()
                remaining = opened + max_wait - time.perf_counter()
                if rows >= max_batch or self._closed or remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            self._remove(batch)
            for request in batch:
                request.t_coalesce = max(opened, request.t_submit)
            return batch, rows

    def _select(self, lane, max_batch: int) -> Tuple[List[_Request], int]:
        """The micro-batch ``lane`` would take now, without taking it:
        its most urgent request, then fitting same-tenant requests in
        urgency order.  Caller holds the lock."""
        affinity = None if lane is None else lane.tenant
        batch: List[_Request] = []
        rows = 0
        for _key, request in self._entries:
            if batch:
                if (request.tenant != batch[0].tenant
                        or rows + request.rows > max_batch):
                    continue
            elif affinity is not None and request.tenant != affinity:
                continue
            batch.append(request)
            rows += request.rows
            if rows >= max_batch:
                break
        return batch, rows

    def _remove(self, requests: List[_Request]) -> None:
        """Take ``requests`` out of the queue.  Caller holds the lock."""
        taken = {id(request) for request in requests}
        self._entries = [
            entry for entry in self._entries if id(entry[1]) not in taken
        ]
        for request in requests:
            self._account(request, -1)


# ------------------------------------------------------------------ lanes
class _Lane:
    """One serving lane: a backend copy and the worker thread that
    pulls its micro-batches from the engine's intake, one at a time.

    ``run`` is what :meth:`serve` calls: the backend's ``run_batch`` by
    default, or a replicated session's ``run_on`` for this lane's
    replica, so the session keeps its own lane accounting.
    """

    __slots__ = (
        "backend", "run", "tenant", "lock", "thread", "rows_dispatched",
        "alive", "busy_until",
    )

    def __init__(self, backend, tenant=None, lock=None, run=None):
        self.backend = backend
        self.run = backend.run_batch if run is None else run
        self.tenant = tenant          # affinity: None serves any tenant
        # Machine lock for colocated backends; a private lock otherwise.
        self.lock = lock if lock is not None else threading.Lock()
        self.thread: Optional[threading.Thread] = None
        self.rows_dispatched = 0
        self.alive = True             # cleared by PriorityIntake.retire
        self.busy_until = 0.0         # when the last paced hold ends

    def serve(self, queries: np.ndarray):
        """Serve one micro-batch under the lane's lock, so store
        mutations (:meth:`ServingEngine.mutate`) serialize against it."""
        with self.lock:
            return self.run(queries)


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


def _split_rows(result, lo: int, hi: int):
    """Slice a ``run_batch``-shaped result (arrays over the batch dim)."""
    if isinstance(result, np.ndarray):
        return result[lo:hi]
    if isinstance(result, (list, tuple)):
        return type(result)(part[lo:hi] for part in result)
    raise TypeError(
        f"cannot split a {type(result).__name__} result across requests; "
        "run_batch must return an array or a list/tuple of arrays over "
        "the batch rows"
    )


def _probe_width(backend) -> Optional[int]:
    """The backend's ``query_width()``, or ``None`` when it has none
    (the first request then pins the width)."""
    query_width = getattr(backend, "query_width", None)
    return query_width() if callable(query_width) else None


# -------------------------------------------------------------- the engine
class ServingEngine:
    """Async front door: queue in, micro-batches out, futures back.

    ``session`` is what to serve on: a :class:`ReplicatedSession` (the
    usual case), a bare ``QuerySession``/``ShardedSession`` (wrapped
    into a single-replica deployment), or an explicit list of replica
    backends — any objects whose ``run_batch(queries)`` returns an
    array, or a list/tuple of arrays, over the batch rows (the tests'
    stub backends).  Each request's future resolves to its rows' slice.

    Two kinds of thread cooperate:

    * **clients** call :meth:`submit` (thread-safe, non-blocking) and
      hold the returned future; the request waits in the engine's one
      :class:`PriorityIntake` (arrival order unless requests set
      ``priority``/``deadline``);
    * one **worker per lane**, whenever the lane is free, pulls the next
      micro-batch it may serve from the intake, serves it, optionally
      holds the lane for the batch's simulated latency (``time_scale``
      wall-seconds per simulated ns), then resolves each request's
      future with its slice of the batch result.  A lane holds at most
      one micro-batch, so everything not being served stays in the
      intake, in urgency order.

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
    ):
        if not max_batch >= 1:
            raise ValueError("max_batch must be a positive row count")
        if not max_wait >= 0:
            raise ValueError("max_wait must be >= 0 seconds")
        if not 0.0 <= time_scale < math.inf:
            raise ValueError(
                "time_scale must be a finite number of wall seconds per "
                "simulated ns, >= 0"
            )
        self.session = None
        backends: List = []
        #: Per-tenant query widths when a control plane serves several
        #: tenants; ``None`` when every request shares one width.
        self._tenants: Optional[Dict[str, int]] = None
        if session is None:
            # A control plane (the cluster) attaches lanes itself via
            # add_lane() and registers tenant widths explicitly.
            self._tenants = {}
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

        # Feature width every request must share (requests coalesce).
        # Seeded from the backend when it knows; otherwise the first
        # request pins it.
        self._features = _probe_width(backends[0]) if backends else None

        self._intake = PriorityIntake()
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
        #: Called with the lane after each batch it served, on the
        #: lane's own thread before it takes another — where a cluster
        #: autoscaler can retire the lane with its accounting final.
        self.on_batch_done: Optional[Callable[[_Lane], None]] = None

        for index, backend in enumerate(backends):
            run = (
                None if self.session is None
                else functools.partial(self.session.run_on, index)
            )
            self._start_lane(_Lane(backend, run=run))

    # -------------------------------------------------------- lane plumbing
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
                 lock: Optional[threading.Lock] = None) -> _Lane:
        """Attach a new serving lane at runtime (autoscale-up).

        The lane serves ``backend.run_batch``; ``tenant`` pins it to one
        tenant's batches; ``lock`` serializes it with other lanes
        colocated on the same physical machine.  ``backend`` may instead
        be a ready lane (the cluster's lane records), which carries its
        own tenant and lock.
        """
        lane = (
            backend if isinstance(backend, _Lane)
            else _Lane(backend, tenant=tenant, lock=lock)
        )
        return self._start_lane(lane)

    def remove_lane(self, lane: _Lane) -> None:
        """Retire a lane at runtime (autoscale-down / tenant eviction).

        The lane finishes the batch it is serving, if any, and takes no
        other; its worker thread exits on its own (it may be the
        caller).
        """
        self._intake.retire(lane)

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
        """Fail a tenant's queued requests with ``error`` (eviction);
        returns how many were failed."""
        requests = self._intake.drain(lambda request: request.tenant == tenant)
        self._fail_batch(requests, error)
        return len(requests)

    def pending_rows(self, tenant: Optional[str] = None) -> int:
        """Queued rows no lane has taken yet, optionally one tenant's."""
        return self._intake.pending_rows(tenant)

    def mutate(self, fn: Callable) -> List:
        """Apply a store mutation to every serving lane, safely
        interleaved with in-flight query batches.

        ``fn(backend)`` runs once per distinct lane backend (replica),
        under that lane's lock — a batch being served on the lane
        finishes first, and the lane's next batch sees the mutated
        store.  The call returning is the completion barrier: every
        lane has applied the mutation, so no later-submitted request
        can observe the old store.  Returns the per-backend results of
        ``fn``.
        """
        with self._lock:
            if self._closed:
                raise SessionError(
                    "the serving engine is shut down; no mutations"
                )
            lanes = [lane for lane in self._lanes if lane.alive]
        results, seen = [], set()
        for lane in lanes:
            if id(lane.backend) in seen:
                continue
            seen.add(id(lane.backend))
            with lane.lock:
                results.append(fn(lane.backend))
        if not results:
            raise SessionError("no live serving lane; nothing to mutate")
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
        (seconds from now; earlier deadlines are served first within a
        priority class) order the intake; with neither set, requests are
        served in arrival order.

        Over a multi-tenant fleet every request names its ``tenant``;
        a micro-batch only ever holds requests of one tenant, so one
        serving fleet multiplexes all the colocated kernels without ever
        mixing their queries.
        """
        batch = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ValueError(
                "submit() takes one 1-D query or a non-empty 2-D batch"
            )
        # NaN fails every comparison, so it would pass a plain < 0 test
        # and then break the EDF order of the whole intake.
        if deadline is not None and not deadline >= 0:
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

    # ------------------------------------------------------------- workers
    def _pace(self, lane: _Lane, batch: List[_Request],
              dispatched: float) -> None:
        """Hold the lane for the batch's simulated latency on the wall
        clock; the lane takes its next batch only after the hold ends.

        The hold starts when the device could first have started the
        batch: when its last request arrived, or when the lane's
        previous hold ended, if that is later.  So a backlogged lane
        drains at exactly its service rate, and host time between holds
        (lanes waiting for the interpreter lock, a late worker thread)
        does not accumulate.  It starts at most one hold before the lane
        took the batch, though: a lane whose thread stalled catches up
        one batch, not a burst that would take other lanes' share of
        the queue.
        """
        if self.time_scale <= 0.0:
            return
        report = getattr(lane.backend, "last_report", None)
        if report is None:
            return
        hold = report.query_latency_ns * self.time_scale
        arrived = max(request.t_submit for request in batch)
        start = max(arrived, lane.busy_until, dispatched - hold)
        lane.busy_until = start + hold
        remaining = lane.busy_until - time.perf_counter()
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
            item = self._intake.next_batch(
                self.max_batch, self.max_wait, lane
            )
            if item is None:
                return
            batch, rows = item
            if self._abort:
                self._fail_batch(batch, self._abort_error)
                continue
            self._serve_batch(lane, batch, rows)
            callback = self.on_batch_done
            if callback is not None:
                try:
                    callback(lane)
                except Exception:
                    pass  # a scaling hiccup must not kill the lane

    def _serve_batch(self, lane: _Lane, batch: List[_Request],
                     rows: int) -> None:
        # Any failure — assembling the batch, the backend, the pacing,
        # or splitting the result — is delivered to the batch's
        # futures; the lane itself must survive to serve later batches.
        try:
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
            with self._lock:
                lane.rows_dispatched += rows
                self.batches_dispatched += 1
                if zero_copy:
                    self.zero_copy_batches += 1
            result = lane.serve(queries)
            self._pace(lane, batch, dispatched)
            served = time.perf_counter()
            offset = 0
            for request in batch:
                request.t_serve_end = served
                piece = _split_rows(result, offset, offset + request.rows)
                offset += request.rows
                self._resolve(request.future.set_result, piece)
                request.t_done = time.perf_counter()
            self._record_trace(batch)
        except BaseException as exc:
            for request in batch:
                self._resolve(request.future.set_exception, exc)

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
        the call is served and its future resolved before this returns
        (one whose tenant has no live lane left fails with
        :class:`~repro.runtime.backend.ClusterShutdown`).
        ``wait=False`` aborts: queued and not-yet-served requests get
        their futures cancelled; only the batches already inside a
        backend finish.  ``abort=True`` aborts like ``wait=False`` but
        delivers a :class:`~repro.runtime.backend.ClusterShutdown` to
        every still-pending future instead of a bare cancellation —
        the control-plane teardown signal (cluster shutdown, tenant
        eviction) clients can distinguish and retry elsewhere.
        """
        with self._lock:
            self._closed = True
        if abort:
            self._abort_error = ClusterShutdown(
                "the serving engine shut down before this request ran"
            )
            wait = False
        if not wait:
            self._abort = True
        self._intake.close()
        if not wait:
            # Requests still in the intake never reached a lane: fail
            # them the way a worker fails a batch it takes after this.
            self._fail_batch(self._intake.drain(), self._abort_error)
        with self._lock:
            lanes = list(self._lanes)
        me = threading.current_thread()
        for lane in lanes:
            if lane.thread is not None and lane.thread is not me:
                lane.thread.join()
        # Each joined worker left nothing it could serve, so what is
        # still queued belongs to tenants with no live lane (when a
        # done-callback shuts down, its own lane serves its share after
        # this returns): fail it rather than strand it.
        live = [lane for lane in lanes if lane.alive]
        self._fail_batch(
            self._intake.drain(
                lambda request: not any(
                    lane.tenant in (None, request.tenant) for lane in live
                )
            ),
            ClusterShutdown(
                "the serving engine shut down with no lane left to serve "
                "this request"
            ),
        )

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
        """Scheduler counters: what was submitted and which lanes took
        it."""
        with self._lock:
            return {
                "requests_submitted": self.requests_submitted,
                "batches_dispatched": self.batches_dispatched,
                "zero_copy_batches": self.zero_copy_batches,
                "rows_dispatched": [
                    lane.rows_dispatched for lane in self._lanes
                ],
            }

    # ------------------------------------------------------------- tracing
    def _record_trace(self, batch: List[_Request]) -> None:
        with self._lock:
            for request in batch:
                self._trace.append((request.tenant, request.spans()))

    def trace_summary(self, tenant: Optional[str] = None) -> dict:
        """Per-phase latency percentiles over recently served requests.

        Phases follow one request through the serving path:
        ``queue`` (submit -> a free lane starts forming its micro-batch;
        includes waiting for a free lane), ``coalesce`` (riding the
        batch until the lane takes it), ``run`` (backend service +
        pacing),
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
