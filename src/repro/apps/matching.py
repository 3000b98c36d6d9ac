"""Exact and threshold pattern matching on CAM.

The paper's introduction motivates CAMs with *exact matching* workloads
(network security, data mining) and *approximate/threshold search*
(bioinformatics, genome analysis): a stored pattern "matches" when its
distance to the query is within a threshold.

:class:`PatternMatcher` is a threshold lookup over a compiled kernel.
The rules compile as a dot-product top-k over every stored row, which a
binary or ternary CAM lowers to a nearest-first Hamming search
(:func:`~repro.transforms.optimizations.cam_search_metric`).  A lookup
asks the live store for every row's distance and keeps the rows within
the threshold.  The store is the kernel's session
(:attr:`PatternMatcher.store`): a
:class:`~repro.runtime.session.QuerySession` on one machine, or a
:class:`~repro.runtime.sharding.ShardedSession` when ``num_shards``
splits the rules across several.  Mutate the rules through it
(``insert``/``delete``/``update``); it brings compaction, bank growth
and shard split, and keeps pattern ids stable.

Patterns may contain TCAM don't-care positions
(:data:`repro.simulator.cells.DONT_CARE`), enabling wildcard rules such as
packet classifiers.  A rule store larger than one bank-capped machine
raises :class:`~repro.transforms.partitioning.CapacityError` unless
``num_shards`` splits it (``None`` picks the smallest count that fits).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

import repro.frontend.torch_api as torch
from repro.arch.spec import ArchSpec
from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime.backend import LaneStats
from repro.simulator.metrics import ExecutionReport
from repro.simulator.peripherals import threshold_match


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

    Pattern ids start as row numbers; ids given out by
    ``store.insert`` follow on and survive deletes and compaction.
    """

    def __init__(
        self,
        patterns: np.ndarray,
        spec: ArchSpec,
        tech: TechnologyModel = FEFET_45NM,
        num_shards: Optional[int] = 1,
    ):
        if spec.cam_type not in ("bcam", "tcam"):
            raise ValueError(
                f"pattern matching needs a bcam or tcam spec, not "
                f"{spec.cam_type!r}: that CAM would score dot products or "
                "Euclidean distances instead of Hamming distances"
            )
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float32))
        n, d = patterns.shape

        class Rules(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(patterns)

            def forward(self, query):
                scores = torch.matmul(query, self.weight.transpose(-2, -1))
                return torch.ops.aten.topk(scores, n, largest=True)

        # Threshold sensing reads every row's distance: no winner-take-all
        # window may clamp the far ones.
        compiler = C4CAMCompiler(spec, replace(tech, wta_window=0))
        kernel = compiler.compile(
            Rules(), [placeholder((1, d))], num_shards=num_shards
        )
        self.store = kernel.session()
        self._lane = LaneStats(self.store)

    @property
    def num_shards(self) -> int:
        """Machines holding the rules (grows when an insert splits one)."""
        return self.store.num_shards

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

        One ``run_batch`` on the store ranks every live row for every
        query; matches come back in ascending pattern-id order.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        store = self.store
        if queries.shape[1] != store.query_width():
            raise ValueError(
                f"query width {queries.shape[1]} does not match pattern "
                f"width {store.query_width()}"
            )
        if not len(queries):
            return []
        store.serve_k = store.pattern_count
        distances, ranks = store.run_batch(queries)
        self._lane.add(store.last_report)
        ids = np.asarray(store.row_ids(), dtype=np.int64)
        results = []
        for dist, rank in zip(distances.astype(np.float64), ranks):
            hit = threshold_match(dist, threshold, prefers_larger=False)
            found = ids[rank[hit]]
            order = np.argsort(found)
            results.append(MatchResult(found[order], dist[hit][order]))
        return results

    def report(self) -> ExecutionReport:
        """Metrics over every lookup performed so far.

        ``queries`` is the true lookup count (possibly 0 — use the
        report's ``per_query_*`` helpers for guarded averages).
        """
        return self._lane.report()
