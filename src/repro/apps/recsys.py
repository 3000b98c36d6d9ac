"""Recommender system on CAM — the iMARS-style two-stage pipeline.

Paper §II-C motivates the bank-level hierarchy with recommender systems:
"RecSys can profit from CAMs in both filtering and ranking stages, where
each stage executes different tasks on different banks in parallel".

This module composes the two primitives this repository provides:

* **filtering** — threshold Hamming match of the user's context tags
  against per-item filter signatures (a :class:`PatternMatcher` on its own
  banks);
* **ranking** — dot-product similarity of the user embedding against the
  *filtered* item embeddings (a compiled C4CAM kernel on separate banks).

Because the stages occupy disjoint banks, a stream of requests pipelines:
steady-state throughput is set by the slower stage, while a single
request's latency is the sum.

The pipeline is *heterogeneous* (paper conclusion: "the architecture
specification ... also enables the specification of heterogeneous
systems"): filtering runs on binary TCAM banks, ranking on multi-bit MCAM
banks whose native dot-product search handles real-valued embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

import repro.frontend.torch_api as torch
from repro.arch.spec import ArchSpec
from repro.arch.technology import FEFET_45NM, TechnologyModel
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder

from .matching import PatternMatcher


@dataclass
class Recommendation:
    """Result of one request."""

    item_ids: np.ndarray       # top-k ranked item ids (global)
    scores: np.ndarray
    candidates: int            # how many items survived filtering
    latency_ns: float          # end-to-end (filter + rank)
    throughput_interval_ns: float  # pipelined steady-state interval


class RecSysPipeline:
    """Two-stage CAM recommender: filter on one machine, rank on another."""

    def __init__(
        self,
        item_filters: np.ndarray,     # items × tag-bits (binary)
        item_embeddings: np.ndarray,  # items × dims
        spec: ArchSpec,
        tech: TechnologyModel = FEFET_45NM,
        top_k: int = 4,
    ):
        if len(item_filters) != len(item_embeddings):
            raise ValueError("filters and embeddings must align per item")
        self.item_filters = np.asarray(item_filters, dtype=np.float64)
        self.item_embeddings = np.asarray(item_embeddings, dtype=np.float32)
        from dataclasses import replace

        self.spec = spec
        self.tech = tech
        self.top_k = top_k
        # Stage 1 (TCAM banks): exact/threshold tag matching.
        filter_spec = replace(spec, cam_type="tcam", bits_per_cell=1)
        self.matcher = PatternMatcher(self.item_filters, filter_spec, tech)
        # Stage 2 (MCAM banks): native dot product on real embeddings.
        self.rank_spec = replace(spec, cam_type="mcam", bits_per_cell=2)
        # Stage 2: compiled similarity kernel (bank set B); its cached
        # QuerySession programs the embeddings once and serves every
        # recommend() call from the live machine.
        self._rank_kernel = None

    @property
    def n_items(self) -> int:
        return self.item_filters.shape[0]

    def _ranking_kernel(self):
        if self._rank_kernel is not None:
            return self._rank_kernel
        embeddings = self.item_embeddings
        k = min(self.top_k, len(embeddings))

        class Ranker(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(embeddings)

            def forward(self, user):
                others = self.weight.transpose(-2, -1)
                scores = torch.matmul(user, others)
                values, indices = torch.ops.aten.topk(scores, k, largest=True)
                return values, indices

        compiler = C4CAMCompiler(self.rank_spec, self.tech)
        self._rank_kernel = compiler.compile(
            Ranker(), [placeholder((1, embeddings.shape[1]))]
        )
        return self._rank_kernel

    def recommend(
        self, context_tags: np.ndarray, user_embedding: np.ndarray,
        filter_threshold: float = 0.0,
    ) -> Recommendation:
        """Run one request through filter → rank.

        Items whose filter signature is farther than ``filter_threshold``
        from the context are excluded from the ranking result.
        """
        match = self.matcher.lookup(context_tags, filter_threshold)
        filter_report = self.matcher.report()
        filter_lat = filter_report.per_query_latency_ns

        kernel = self._ranking_kernel()
        user = np.asarray(user_embedding, dtype=np.float32).reshape(1, -1)
        values, indices = kernel(user)
        rank_report = kernel.last_report
        rank_lat = rank_report.per_query_latency_ns

        allowed = set(int(i) for i in match.indices)
        ranked = [
            (int(i), float(v))
            for i, v in zip(indices.ravel(), values.ravel())
            if int(i) in allowed
        ]
        ids = np.array([i for i, _v in ranked], dtype=np.int64)
        scores = np.array([v for _i, v in ranked])
        return Recommendation(
            item_ids=ids,
            scores=scores,
            candidates=len(allowed),
            latency_ns=filter_lat + rank_lat,
            throughput_interval_ns=max(filter_lat, rank_lat),
        )

    def banks_used(self) -> Tuple[int, int]:
        """(filter banks, ranking banks) — disjoint by construction."""
        rank_banks = 0
        if self._rank_kernel is not None and self._rank_kernel.last_report:
            rank_banks = self._rank_kernel.last_report.banks_used
        return self.matcher.store.banks_used, rank_banks
