"""Shared fixtures: dialect registration and small reusable kernels."""

import numpy as np
import pytest

from repro.ir.context import load_all_dialects

load_all_dialects()


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


#: CPUs the ``split_batches`` fixture pretends the process may use.
SPLIT_CPUS = 4


@pytest.fixture()
def split_batches(monkeypatch):
    """Split every generic-path fused batch of two or more rows into up
    to :data:`SPLIT_CPUS` row shares, on a fresh scoring pool.
    :mod:`repro.runtime.fused` itself splits only batches of about four
    milliseconds of scoring per share, and into two shares at most;
    four shares also put more than one thread in the pool.  Yields the
    row count of every share scored, in the order they started."""
    from repro.runtime import fused

    monkeypatch.setattr(fused, "_CPUS", SPLIT_CPUS)
    monkeypatch.setattr(fused, "_SPLIT_TERMS", 1)
    monkeypatch.setattr(fused, "_pool", None)
    seen = []
    score_rows = fused.FusedPlan._score_rows

    def recording(plan, scorers, queries, out):
        seen.append(len(queries))
        score_rows(plan, scorers, queries, out)

    monkeypatch.setattr(fused.FusedPlan, "_score_rows", recording)
    yield seen
    if fused._pool is not None:
        fused._pool[0].shutdown()
