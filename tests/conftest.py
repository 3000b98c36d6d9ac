"""Shared fixtures: small reusable kernels."""

import numpy as np
import pytest


@pytest.fixture()
def rng():
    """A fresh generator per test, always seeded alike: adding or
    deleting a test cannot shift another test's data."""
    return np.random.default_rng(12345)


@pytest.fixture()
def dot_kernel():
    """A factory for the paper's Fig. 4a dot-similarity kernel."""
    import repro.frontend.torch_api as torch

    def make(prototypes, k=1, largest=True):
        class DotSimilarity(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(prototypes)

            def forward(self, input):
                others = self.weight.transpose(-2, -1)
                matmul = torch.matmul(input, others)
                values, indices = torch.ops.aten.topk(
                    matmul, k, largest=largest
                )
                return values, indices

        return DotSimilarity()

    return make


@pytest.fixture()
def euclidean_kernel():
    """A factory for the Euclidean (sub→norm→topk) kernel."""
    import repro.frontend.torch_api as torch

    def make(stored, k=1):
        class EuclideanKNN(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, query):
                diff = torch.sub(query, self.weight)
                dist = torch.norm(diff, p=2, dim=-1)
                values, indices = torch.ops.aten.topk(dist, k, largest=False)
                return values, indices

        return EuclideanKNN()

    return make


@pytest.fixture()
def scored(monkeypatch):
    """Record how every fused batch that missed the exact gate was
    scored: the number of (query, slot) pairs the pruned path rescored,
    or ``"full"`` for the per-slice loop over every slot."""
    from repro.runtime.fused import FusedPlan

    seen = []
    pair_scores, full_scores = FusedPlan._pair_scores, FusedPlan._full_scores

    def pairs(plan, queries, rows, slots):
        seen.append(rows.size)
        return pair_scores(plan, queries, rows, slots)

    def full(plan, queries):
        seen.append("full")
        return full_scores(plan, queries)

    monkeypatch.setattr(FusedPlan, "_pair_scores", pairs)
    monkeypatch.setattr(FusedPlan, "_full_scores", full)
    return seen
