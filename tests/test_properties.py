"""Property-based tests (hypothesis) on core invariants.

* random IR modules survive a deep copy and run to the value Python
  computes;
* partition-plan invariants (full coverage, no tile overlap, Table-I
  consistency);
* CAM search results always equal the numpy reference, for arbitrary
  shapes, metrics and architectures;
* merge-of-partials equals the unpartitioned computation.
"""


import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import dse_spec, paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.simulator.cells import (
    dot_similarity,
    euclidean_sq_distance,
    hamming_distance,
    quantize,
)
from repro.transforms import compute_partition_plan


# --------------------------------------------------------------------- cells
@given(
    st.integers(1, 20),  # rows
    st.integers(1, 40),  # cols
    st.integers(0, 2**32 - 1),  # seed
)
@settings(max_examples=40, deadline=None)
def test_hamming_bounds_and_reference(rows, cols, seed):
    rng = np.random.default_rng(seed)
    stored = rng.choice([-1.0, 1.0], (rows, cols))
    q = rng.choice([-1.0, 1.0], cols)
    h = hamming_distance(stored, q)
    assert h.shape == (rows,)
    assert (0 <= h).all() and (h <= cols).all()
    np.testing.assert_array_equal(h, (stored != q[None, :]).sum(axis=1))


@given(st.integers(1, 10), st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dot_euclid_consistent_for_bipolar(rows, cols, seed):
    """For bipolar data: dot = C - 2*H and ||a-b||^2 = 4*H."""
    rng = np.random.default_rng(seed)
    stored = rng.choice([-1.0, 1.0], (rows, cols))
    q = rng.choice([-1.0, 1.0], cols)
    h = hamming_distance(stored, q)
    np.testing.assert_allclose(dot_similarity(stored, q), cols - 2 * h)
    np.testing.assert_allclose(euclidean_sq_distance(stored, q), 4 * h)


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=64),
    st.integers(1, 3),
)
@settings(max_examples=50, deadline=None)
def test_quantize_within_levels_and_monotone(values, bits):
    x = np.array(values)
    q = quantize(x, bits)
    assert q.min() >= 0 and q.max() <= (1 << bits) - 1
    # Monotone: larger inputs never get smaller codes.
    order = np.argsort(x, kind="stable")
    sorted_codes = q[order]
    assert all(
        sorted_codes[i] <= sorted_codes[i + 1]
        for i in range(len(sorted_codes) - 1)
    )


# ----------------------------------------------------------- partition plans
plan_strategy = st.tuples(
    st.integers(1, 300),                    # patterns
    st.sampled_from([64, 128, 256, 512, 1024, 8192]),  # features
    st.sampled_from([16, 32, 64, 128, 256]),  # subarray N
    st.booleans(),                          # density
)


@given(plan_strategy)
@settings(max_examples=80, deadline=None)
def test_partition_plan_invariants(params):
    patterns, features, n, density = params
    plan = compute_partition_plan(patterns, features, 1, dse_spec(n), density)
    # Tiles cover everything.
    assert plan.row_tiles * plan.row_tile >= patterns
    assert plan.col_tiles * plan.col_tile >= features
    # Batches never exceed physical rows.
    assert plan.batches * plan.patterns <= max(plan.rows, plan.patterns)
    # Subarray count covers all tiles.
    assert plan.subarrays * plan.batches >= plan.total_tiles
    # Density never uses more subarrays than base.
    base = compute_partition_plan(patterns, features, 1, dse_spec(n), False)
    assert plan.subarrays <= base.subarrays


@given(plan_strategy)
@settings(max_examples=60, deadline=None)
def test_tile_enumeration_complete_and_disjoint(params):
    patterns, features, n, density = params
    plan = compute_partition_plan(patterns, features, 1, dse_spec(n), density)
    seen = set()
    for lin in range(plan.subarrays):
        for b in range(plan.batches):
            tile = plan.tile_of(lin, b)
            if tile is not None:
                assert tile not in seen, "tile assigned twice"
                seen.add(tile)
    assert len(seen) == plan.total_tiles, "tiles missing from placement"


# ------------------------------------------------------------ e2e functional
@given(
    st.integers(2, 24),            # patterns
    st.sampled_from([32, 64, 128]),  # features
    st.integers(1, 4),             # queries
    st.integers(1, 2),             # k
    st.integers(0, 2**32 - 1),     # seed
)
@settings(max_examples=15, deadline=None)
def test_compiled_kernel_always_matches_reference(p, d, q, k, seed):
    import repro.frontend.torch_api as torch

    rng = np.random.default_rng(seed)
    stored = rng.choice([-1.0, 1.0], (p, d)).astype(np.float32)
    queries = rng.choice([-1.0, 1.0], (q, d)).astype(np.float32)
    k = min(k, p)

    class M(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, x):
            others = self.weight.transpose(-2, -1)
            mm = torch.matmul(x, others)
            return torch.ops.aten.topk(mm, k, largest=True)

    kernel = C4CAMCompiler(paper_spec(rows=16, cols=32)).compile(
        M(), [placeholder((q, d))]
    )
    _v, idx = kernel(queries)
    scores = queries @ stored.T
    expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(idx, expected)


@given(st.integers(0, 2**32 - 1), st.sampled_from([32, 64]))
@settings(max_examples=10, deadline=None)
def test_merge_of_partials_equals_unpartitioned(seed, n):
    """Column-partitioned CAM scores must sum to the full-width scores."""
    import repro.frontend.torch_api as torch

    rng = np.random.default_rng(seed)
    d = 4 * n
    stored = rng.choice([-1.0, 1.0], (8, d)).astype(np.float32)
    query = rng.choice([-1.0, 1.0], (1, d)).astype(np.float32)

    class M(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, x):
            others = self.weight.transpose(-2, -1)
            mm = torch.matmul(x, others)
            return torch.ops.aten.topk(mm, 8, largest=False)

    kernel = C4CAMCompiler(paper_spec(rows=16, cols=n)).compile(
        M(), [placeholder((1, d))]
    )
    values, idx = kernel(query)
    # The merged Hamming scores, reordered by index, must equal the
    # reference Hamming distance of the full-width vectors.
    full_h = (stored != query).sum(axis=1).astype(np.float64)
    got = np.empty(8)
    got[idx.ravel()] = values.ravel()
    np.testing.assert_array_equal(got, full_h)


# ------------------------------------------------------------- IR roundtrip
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_ir_roundtrip_random_modules(n_consts, n_adds, seed):
    """Random straight-line modules survive clone -> print and run to
    the sum Python computes."""
    from repro.dialects import arith as arith_d
    from repro.dialects import func as func_d
    from repro.ir import ModuleOp, OpBuilder, print_module, verify
    from repro.ir.types import FunctionType, index
    from repro.runtime.executor import Interpreter

    rng = np.random.default_rng(seed)
    m = ModuleOp()
    f = func_d.FuncOp("r", FunctionType([], [index]))
    m.append(f)
    b = OpBuilder.at_end(f.body)
    values, expected = [], []
    for _ in range(n_consts):
        v = int(rng.integers(-100, 100))
        values.append(b.create(arith_d.ConstantOp, v).result)
        expected.append(v)
    for _ in range(n_adds):
        a, c = rng.choice(len(values), 2)
        values.append(b.create(arith_d.AddIOp, values[a], values[c]).result)
        expected.append(expected[a] + expected[c])
    b.create(func_d.ReturnOp, [values[-1]])
    verify(m)
    copy = m.clone()
    verify(copy)
    assert print_module(copy) == print_module(m)
    out, _ = Interpreter(copy).run_function("r", [])
    assert out == [expected[-1]]
