"""The benchmark's workloads: batched KNN and served churn.

Each workload draws every input from its seed and keeps its own copy of
them, so :meth:`check` verifies the program's outputs against a NumPy
reference that never goes through the compiler or the simulator.  The
simulated accounting (latency, energy, searches, rows written) is checked
too, against an unfused (``fused=False``) session of the same kernel: a
host-speed change must leave every simulated figure as it was.

A workload has

* ``setup()``  — what a user pays before the first answer: compile,
  program the machine(s), trace the fused plan (timed as ``setup_s``);
  it resets the workload's inputs, so the measured operations see the
  same inputs however many set-ups ran before them;
* ``op()``     — one timed operation, returning an :class:`Outcome`;
* ``check()``  — verifies the outputs queued since the last call and
  returns how many were wrong (untimed);
* ``layer_metrics()`` — per-layer figures only the workload can read;
* ``close()``  — stops every thread the workload started.

The frontend, the pass pipeline and machine programming run in every
set-up, so their per-layer spans come from the repeated set-ups.  A
workload made of compiles alone (the Fig. 8 design sweep) was left out:
its pure-Python time followed the shared host's speed swings by up to
50% between runs, more than any usable regression bound.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import repro.frontend.torch_api as torch
from repro.apps import build_knn, synthetic_pneumonia
from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder

#: Seconds to wait for one served request before counting it failed.
REQUEST_TIMEOUT_S = 30.0
#: Relative tolerance for simulated figures: float sums may round
#: differently when the same charges are added in another grouping.
SIM_RTOL = 1e-9
#: Churn replays every round's mutations on its oracle, but runs the
#: oracle's (slow, unfused) query batch for one round in this many.
ORACLE_EVERY = 16


@dataclass
class Outcome:
    """What one operation did."""

    latencies: List[float]  # seconds: one per op, if it did not fail
    attempted: int
    failed: int
    work: int               # units of throughput_per_s


def untraced(_name: str, fn: Callable, *args, **kwargs):
    """The span hook when tracing is off: just call ``fn``."""
    return fn(*args, **kwargs)


def bipolar(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], (rows, cols)).astype(np.float32)


def dot_topk_model(stored: np.ndarray, k: int):
    """``topk(query @ stored^T)``: the HDC similarity kernel (paper Fig. 4a)."""

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            scores = torch.matmul(input, self.weight.transpose(-2, -1))
            return torch.ops.aten.topk(scores, k, largest=True)

    return DotSimilarity()


def topk_errors(scores: np.ndarray, values, indices, k: int,
                rtol: float = 0.0) -> int:
    """Rows whose ``(values, indices)`` are not a top-k of ``scores``.

    Larger scores win.  Robust to ties: a row is right when its ``k``
    distinct indices carry the ``k`` best reference scores, in whatever
    order ties come back, and each returned value is the reference score
    of its index.  ``rtol`` allows for float rounding in the program.
    """
    indices = np.asarray(indices).reshape(len(scores), -1).astype(np.int64)
    if indices.shape[1] != k:
        return len(scores)
    values = np.asarray(values, dtype=np.float64).reshape(indices.shape)
    inside = ((indices >= 0) & (indices < scores.shape[1])).all(axis=1)
    distinct = (np.diff(np.sort(indices, axis=1), axis=1) != 0).all(axis=1)
    got = np.take_along_axis(
        scores, np.clip(indices, 0, scores.shape[1] - 1), axis=1)
    want = -np.sort(-scores, axis=1)[:, :k]
    best = np.isclose(-np.sort(-got, axis=1), want, rtol=rtol, atol=0.0)
    exact = np.isclose(values, got, rtol=rtol, atol=0.0)
    right = inside & distinct & best.all(axis=1) & exact.all(axis=1)
    return int(len(scores) - right.sum())


def accounting(report) -> np.ndarray:
    """Every simulated figure of an ``ExecutionReport``."""
    return np.array([
        report.query_latency_ns, report.setup_latency_ns,
        *report.energy.as_dict().values(), report.searches,
        report.search_cycles, report.rows_written, report.queries,
    ], dtype=np.float64)


def same_accounting(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=SIM_RTOL, atol=0.0))


class Knn:
    """Batched KNN (paper §IV-A3, Table II): a Pneumonia-shaped training
    set on an analog CAM, the 5 nearest (Euclidean) neighbours of each
    query in 32-query batches through one programmed session.
    Execute-bound: the fused plan is traced once and reused."""

    PATTERNS, BATCH, POOL, K = 512, 32, 16, 5

    def __init__(self, seed: int, span: Callable = untraced):
        data = synthetic_pneumonia(
            n_train=self.PATTERNS, n_test=self.BATCH * self.POOL, seed=seed,
        )
        self.model = build_knn(data, k=self.K, feature_multiple=64,
                               row_multiple=64)
        stored = self.model.train_x.astype(np.float64)
        self.batches = np.split(data.test_x.astype(np.float64), self.POOL)
        # Negated squared distances, so that larger is nearer.
        self.reference = [
            2.0 * (q @ stored.T) - (q * q).sum(axis=1, keepdims=True)
            - (stored * stored).sum(axis=1)
            for q in self.batches
        ]
        # The simulated accounting of each batch, from the unfused walk.
        oracle = self._compile(fused=False)
        self.expected = []
        for q in self.batches:
            oracle.run_batch(q)
            self.expected.append(accounting(oracle.last_report))
        self.kernel = None
        self._next = 0
        self._pending: List[tuple] = []
        self._reports: List[np.ndarray] = []

    def _compile(self, fused: bool = True):
        model, example = self.model.kernel()
        spec = paper_spec(rows=64, cols=64, cam_type="acam")
        return C4CAMCompiler(spec).compile(model, example, fused=fused)

    def setup(self) -> None:
        self.kernel = self._compile()
        self._next = 0
        self._pending = []
        self.op()

    def op(self) -> Outcome:
        i = self._next % self.POOL
        self._next += 1
        start = time.perf_counter()
        values, indices = self.kernel.run_batch(self.batches[i])
        elapsed = time.perf_counter() - start
        self._pending.append(
            (i, values, indices, accounting(self.kernel.last_report)))
        return Outcome([elapsed], 1, 0, self.BATCH)

    def check(self) -> int:
        wrong = 0
        for i, values, indices, report in self._pending:
            # The kernel returns squared distances, nearest first.
            wrong += topk_errors(self.reference[i], -np.asarray(values),
                                 indices, self.K, rtol=1e-5)
            wrong += not same_accounting(report, self.expected[i])
            self._reports.append(report)
        self._pending = []
        return wrong

    def layer_metrics(self) -> Dict[str, float]:
        # accounting(): [0] is query latency, [2:8] the energy parts,
        # and the query count comes last.
        return {
            "sim_latency_ns_per_query": statistics.median(
                r[0] / r[-1] for r in self._reports),
            "sim_energy_pj_per_query": statistics.median(
                (r[2:8].sum() - r[6]) / r[-1] for r in self._reports),
        }

    def close(self) -> None:
        self.kernel = None
        self._pending = []


class Churn:
    """Served churn: a mutable HDC store behind the async serving engine.

    The shapes come from the repository's own benchmarks: the store,
    subarray size and 4-row delta from ``test_mutation_throughput.py``;
    2 replicas, 8-query requests, ``max_batch=8`` and ``max_wait=0``
    (one request per micro-batch) and 14 requests queued at once from
    ``test_serving_throughput.py`` (its device pacing is left out: the
    replicas run at host speed).  Each round inserts 4 rows and deletes
    4 live ones behind the engine's mutation barrier, then queues the 14
    requests and waits for all of them: a closed loop of 14 concurrent
    requests.  Every mutation invalidates the replicas' fused plans.
    """

    PATTERNS, DIMS, K, DELTA = 192, 512, 1, 4
    REPLICAS, REQUESTS, ROWS = 2, 14, 8

    def __init__(self, seed: int, span: Callable = untraced):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.initial = bipolar(rng, self.PATTERNS, self.DIMS)
        self.warm = bipolar(rng, self.REQUESTS * self.ROWS, self.DIMS)
        self.span = span
        self.engine = None
        self.kernel = None
        self.oracle = None
        self.live: Dict[int, np.ndarray] = {}
        self.rounds = self.compacted = self.bursts = 0
        self._pending: List[tuple] = []
        self._served: List[np.ndarray] = []

    def _compile(self, **options):
        return C4CAMCompiler(paper_spec(rows=32, cols=32)).compile(
            dot_topk_model(self.initial, self.K),
            [placeholder((1, self.DIMS))], **options,
        )

    def setup(self) -> None:
        self.kernel = self._compile(num_replicas=self.REPLICAS)
        self.engine = self.kernel.serve(max_batch=self.ROWS, max_wait=0.0)
        self.oracle = None  # rebuilt, untimed, by the next check()
        self.live = {i: row.astype(np.float64)
                     for i, row in enumerate(self.initial)}
        # A warm burst, so that every replica has traced its plan.
        if self._burst(self.warm).failed:
            raise RuntimeError("the warm-up burst of requests failed")
        self.rng = np.random.default_rng([self.seed, 1])

    def _lanes_served(self) -> np.ndarray:
        """Simulated query work summed over the replica lanes so far."""
        reports = self.kernel.session().lane_reports()
        return np.sum([accounting(r) for r in reports], axis=0)

    def _burst(self, queries: np.ndarray) -> Outcome:
        requests = np.split(queries, self.REQUESTS)
        done = [0.0] * self.REQUESTS
        # Released by each future's done-callback, which runs after the
        # future wakes its waiters: waiting on the futures alone could
        # read a completion stamp before it is written.
        stamped = threading.Semaphore(0)

        def stamp(i):
            def callback(_future):
                done[i] = time.perf_counter()
                stamped.release()
            return callback

        before = self._lanes_served()
        submitted, futures = [], []
        for i, request in enumerate(requests):
            submitted.append(time.perf_counter())
            future = self.engine.submit(request)
            future.add_done_callback(stamp(i))
            futures.append(future)
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        for _ in futures:
            stamped.acquire(timeout=max(0.0, deadline - time.monotonic()))
        results, latencies, failed = [], [], 0
        for i, future in enumerate(futures):
            if (not future.done() or future.cancelled()
                    or future.exception(timeout=0) is not None):
                results.append(None)
                failed += 1
                continue
            results.append(future.result())
            latencies.append(done[i] - submitted[i])
        served = self._lanes_served() - before
        self._pending.append(("burst", queries, results, served))
        # One latency per round: from the first submit until the last
        # answer is in.  A request's own latency depends on its turn on
        # the replicas, which thread scheduling reorders from round to
        # round; the whole burst's does not.
        makespan = [max(done) - submitted[0]] if latencies else []
        return Outcome(makespan, self.REQUESTS, failed,
                       (self.REQUESTS - failed) * self.ROWS)

    def op(self) -> Outcome:
        replicas = self.kernel.session().replicas
        compactions = replicas[0].compactions
        rows = bipolar(self.rng, self.DELTA, self.DIMS)
        doomed = [int(i) for i in self.rng.choice(
            sorted(self.live), self.DELTA, replace=False)]
        new_ids = self.span("mutate", self.engine.mutate,
                            lambda backend: backend.insert(rows))
        self.span("mutate", self.engine.mutate,
                  lambda backend: backend.delete(doomed))
        for new_id, row in zip(new_ids[0], rows):
            self.live[int(new_id)] = row.astype(np.float64)
        for old_id in doomed:
            del self.live[old_id]
        # Every replica compacts alike; count the first one's.
        self.compacted += replicas[0].compactions - compactions
        self.rounds += 1
        stores = [accounting(replica.setup_report()) for replica in replicas]
        self._pending.append(("mutate", rows, doomed, new_ids, stores))
        return self._burst(bipolar(self.rng, self.REQUESTS * self.ROWS,
                                   self.DIMS))

    def check(self) -> int:
        """Replay the queued rounds on the unfused oracle session."""
        if self.oracle is None:
            self.oracle = self._compile(fused=False).session()
            self.oracle_live = {i: row.astype(np.float64)
                                for i, row in enumerate(self.initial)}
        wrong = 0
        for entry in self._pending:
            if entry[0] == "mutate":
                _kind, rows, doomed, new_ids, stores = entry
                ids = self.oracle.insert(rows)
                self.oracle.delete(doomed)
                for new_id, row in zip(ids, rows):
                    self.oracle_live[int(new_id)] = row.astype(np.float64)
                for old_id in doomed:
                    del self.oracle_live[old_id]
                wrong += any(list(got) != list(ids) for got in new_ids)
                want = accounting(self.oracle.setup_report())
                wrong += sum(not same_accounting(got, want)
                             for got in stores)
                continue
            _kind, queries, results, served = entry
            ids = sorted(self.oracle_live)
            scores = queries.astype(np.float64) @ np.stack(
                [self.oracle_live[i] for i in ids]).T
            for r, result in enumerate(results):
                if result is None:  # a failed request is counted apart
                    continue
                # An index is a rank among the live patterns, which
                # are kept in ascending id order.  The binary CAM returns
                # Hamming distances: dot = DIMS - 2 * distance on ±1 rows.
                lo = r * self.ROWS
                values, indices = result
                dots = self.DIMS - 2.0 * np.asarray(values, np.float64)
                wrong += topk_errors(scores[lo:lo + self.ROWS], dots,
                                     indices, self.K)
            self.bursts += 1
            if ((self.bursts - 1) % ORACLE_EVERY
                    or any(result is None for result in results)):
                continue
            # One oracle batch of the whole burst costs what the replicas
            # charged for its micro-batches together (query work adds up).
            self.oracle.run_batch(queries)
            want = accounting(self.oracle.last_report)
            # Compare the query side only: latency, query energy,
            # searches, cycles and queries (setup is checked above).
            query_side = [0, 2, 3, 4, 5, 7, 8, 9, 11]
            wrong += not same_accounting(served[query_side],
                                         want[query_side])
            self._served.append(served)
        self._pending = []
        return wrong

    def layer_metrics(self) -> Dict[str, float]:
        phases = self.engine.trace_summary().get("phases", {})
        out = {
            f"serve_{phase}_ms": phases.get(phase, {}).get("p50", 0.0) * 1e3
            for phase in ("queue", "coalesce", "run", "merge")
        }
        out["sim_latency_ns_per_query"] = statistics.median(
            s[0] / s[-1] for s in self._served)
        out["sim_energy_pj_per_query"] = statistics.median(
            (s[2:8].sum() - s[6]) / s[-1] for s in self._served)
        out["compactions_per_op"] = self.compacted / max(1, self.rounds)
        return out

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown(wait=True)
        self.engine = None
        self.kernel = None
        self._pending = []


WORKLOADS = {"knn": Knn, "churn": Churn}
