"""Bitwise contract of the CAM scoring kernel.

:func:`repro.simulator.cells.compute_scores` scores query batches in
cache-sized blocks, in place in one scratch buffer.  Its contract is
that every score is bit for bit the textbook broadcast formula below —
the same values reduced by the same contiguous row ``sum`` — whatever
the store shape, batch size, block boundaries, don't-cares or dtypes.
Equality is checked on the raw float64 bits (``view(np.uint64)``), so
signed zeros and NaN payloads count.
"""

import sys
import threading

import numpy as np
import pytest

from repro.simulator.cells import BLOCK_ELEMENTS, DONT_CARE, compute_scores


# --------------------------------------------------------------------------
# Reference: the textbook broadcast formulas, one B×R×C temporary each.
# --------------------------------------------------------------------------
def _reference_hamming(stored, query):
    query = np.asarray(query)
    mism = stored != query[..., None, :]
    mism &= ~np.isnan(stored)
    return mism.sum(axis=-1).astype(np.float64)


def _reference_euclidean(stored, query):
    query = np.asarray(query).astype(np.float64)
    diff = stored.astype(np.float64) - query[..., None, :]
    diff = np.where(np.isnan(stored), 0.0, diff)
    return (diff * diff).sum(axis=-1)


def _reference_dot(stored, query):
    s = np.where(np.isnan(stored), 0.0, stored.astype(np.float64))
    query = np.asarray(query).astype(np.float64)
    return (s * query[..., None, :]).sum(axis=-1)


REFERENCE = {
    "hamming": _reference_hamming,
    "euclidean": _reference_euclidean,
    "dot": _reference_dot,
}
METRICS = sorted(REFERENCE)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def block_queries(metric, rows, cols):
    """Queries per scoring block: the budget is ``BLOCK_ELEMENTS``
    float64 terms, or eight times as many one-byte Hamming flags."""
    budget = BLOCK_ELEMENTS * (8 if metric == "hamming" else 1)
    return max(1, budget // max(1, rows * cols))


def make_store(rng, kind, rows, cols):
    if kind == "int":
        return rng.integers(-3, 4, (rows, cols))
    if kind == "bipolar":
        return rng.choice([-1.0, 1.0], (rows, cols))
    store = rng.standard_normal((rows, cols))
    if kind == "dont_care":
        store[rng.random((rows, cols)) < 0.2] = DONT_CARE
    if kind == "float32":
        store = store.astype(np.float32)
    return store


def make_queries(rng, kind, n, cols):
    """Queries matching the store's kind, with ``±0.0`` sprinkled in."""
    if kind == "int":
        return rng.integers(-3, 4, (n, cols))
    if kind == "bipolar":
        queries = rng.choice([-1.0, 1.0], (n, cols))
    else:
        queries = rng.standard_normal((n, cols))
    zeros = rng.random((n, cols))
    queries[zeros < 0.05] = 0.0
    queries[zeros > 0.95] = -0.0
    return queries.astype(np.float32) if kind == "float32" else queries


#: ``R×C`` below, exactly at and above :data:`BLOCK_ELEMENTS`; the
#: last one sits at Hamming's budget too.
SHAPES = [(32, 32), (512, 64), (256, 256), (1024, 256)]
STORE_KINDS = ["float64", "dont_care", "float32", "int", "bipolar"]


@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("metric", METRICS)
def test_batches_match_reference(metric, shape, kind):
    """One query, exactly one block, and several blocks with a ragged
    last block all score bitwise like the broadcast formula."""
    rows, cols = shape
    rng = np.random.default_rng([rows, cols, STORE_KINDS.index(kind)])
    stored = make_store(rng, kind, rows, cols)
    per_block = block_queries(metric, rows, cols)
    ragged = 2 * per_block + max(1, per_block // 2)
    for n in sorted({1, per_block, ragged}):
        queries = make_queries(rng, kind, n, cols)
        got = compute_scores(metric, stored, queries)
        assert_bitwise(got, REFERENCE[metric](stored, queries))


@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("metric", METRICS)
def test_single_query_vector(metric, kind):
    """A 1-D query returns ``R`` scores, bitwise the batched row."""
    rng = np.random.default_rng(STORE_KINDS.index(kind))
    stored = make_store(rng, kind, 48, 24)
    queries = make_queries(rng, kind, 3, 24)
    for q in queries:
        got = compute_scores(metric, stored, q)
        assert_bitwise(got, REFERENCE[metric](stored, q))
    batched = compute_scores(metric, stored, queries)
    assert_bitwise(compute_scores(metric, stored, queries[1]), batched[1])


@pytest.mark.parametrize("metric", METRICS)
def test_zero_stored_rows(metric):
    """An empty store scores every query against nothing."""
    rng = np.random.default_rng(0)
    stored = np.zeros((0, 16))
    queries = rng.standard_normal((5, 16))
    assert_bitwise(
        compute_scores(metric, stored, queries),
        REFERENCE[metric](stored, queries),
    )
    assert compute_scores(metric, stored, queries[0]).shape == (0,)


@pytest.mark.parametrize("metric", METRICS)
def test_empty_batch(metric):
    """A batch of no queries scores to a ``0×R`` array."""
    stored = np.random.default_rng(0).standard_normal((512, 64))
    queries = np.zeros((0, 64))
    got = compute_scores(metric, stored, queries)
    assert got.shape == (0, 512)
    assert_bitwise(got, REFERENCE[metric](stored, queries))


@pytest.mark.parametrize("metric", METRICS)
def test_signed_zeros_and_dont_cares(metric):
    """``±0.0`` cells, and don't-care cells against NaN or inf query
    values, reduce exactly as the formula does."""
    stored = np.array([
        [1.0, 2.0, -1.0],
        [DONT_CARE, DONT_CARE, DONT_CARE],
        [0.0, -0.0, DONT_CARE],
        [3.0, DONT_CARE, -0.0],
    ])
    queries = np.array([
        [-0.0, -0.0, -0.0],
        [0.0, 0.0, 0.0],
        [np.nan, np.inf, -0.0],
        [-0.0, 1.5, np.inf],
    ])
    with np.errstate(invalid="ignore"):  # dot: 0 * inf is NaN
        got = compute_scores(metric, stored, queries)
        assert_bitwise(got, REFERENCE[metric](stored, queries))
    if metric != "dot":
        # A distance metric zeroes a don't-care cell's term after the
        # query meets it: the all-don't-care row is +0.0 against any
        # query, NaN and inf included.
        assert_bitwise(got[:, 1], np.zeros(4))


def test_concurrent_callers_do_not_share_scratch():
    """Serving lanes score from several threads at once.  Each call owns
    its scratch buffer, so interleaved multi-block calls on different
    stores still return their own bits."""
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(6):
        metric = METRICS[i % len(METRICS)]
        stored = make_store(rng, "dont_care", 96, 64)
        # 3 Hamming blocks, or 20 Euclidean/dot blocks, per call.
        queries = make_queries(rng, "float64", 100, 64)
        want = REFERENCE[metric](stored, queries)
        jobs.append((metric, stored, queries, want))
    errors = []

    def worker(metric, stored, queries, want):
        try:
            for _ in range(20):
                assert_bitwise(compute_scores(metric, stored, queries), want)
        except AssertionError as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
