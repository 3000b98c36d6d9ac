"""Shard capacity scaling: stores that cannot fit one machine now run.

A bank-capped machine bounds the stored-pattern rows a kernel may
program; before sharding, such workloads simply failed
(``CapacityError``).  :class:`repro.runtime.sharding.ShardedSession`
splits the rows across N independently programmed machines, fans every
query batch out, and merges per-shard top-k results — so a KNN training
set 4x beyond one machine's capacity serves traffic, bitwise identical
to an (oversized) single-machine reference.

Asserted: the capped single-machine compile raises CapacityError with
honest required/available row counts; the auto-sharded kernel runs,
matches the unbounded reference bitwise and classifies like the numpy
golden model; the shard report sums energy/banks over shards while
latency stays max-over-shards + merge (capacity scaling costs machines,
not serial time).
"""

import numpy as np
import pytest

from repro.apps import build_knn, pad_features, synthetic_pneumonia
from repro.arch import ArchSpec
from repro.compiler import C4CAMCompiler
from repro.transforms import CapacityError, machine_row_capacity

from harness import print_series

FEATURES = 1024      # 32x32 X-ray crops
TRAIN_ROWS = 480     # stored patterns (padded to the row multiple)
QUERIES = 16

#: One bank of 32x32 analog-CAM subarrays (native Euclidean): 128
#: subarrays / 32 col tiles = 4 row tiles -> 128-row capacity.  The
#: training set is ~4x past it.
CAPPED = ArchSpec(rows=32, cols=32, cam_type="acam", banks=1)
UNBOUNDED = ArchSpec(rows=32, cols=32, cam_type="acam", banks=None)


@pytest.fixture(scope="module")
def workload():
    dataset = synthetic_pneumonia(n_train=TRAIN_ROWS, n_test=QUERIES)
    knn = build_knn(dataset, k=5, feature_multiple=FEATURES, row_multiple=32)
    queries = pad_features(dataset.test_x, FEATURES)
    return dict(knn=knn, queries=queries, test_y=dataset.test_y)


def test_capped_machine_rejects_oversized_store(workload):
    """Without sharding the store fails loudly, with honest numbers."""
    knn = workload["knn"]
    model, example = knn.kernel()
    with pytest.raises(CapacityError) as exc_info:
        C4CAMCompiler(CAPPED).compile(model, example, num_shards=1)
    err = exc_info.value
    assert err.required_rows == knn.patterns
    assert err.available_rows == machine_row_capacity(CAPPED, knn.features)
    assert err.required_rows > err.available_rows


def test_oversized_store_serves_via_shards(workload):
    """The same store auto-shards on the capped spec and matches the
    oversized single-machine reference bitwise."""
    knn, queries = workload["knn"], workload["queries"]
    model, example = knn.kernel()

    reference = C4CAMCompiler(UNBOUNDED).compile(model, example)
    sharded = C4CAMCompiler(CAPPED).compile(model, example)
    assert sharded.num_shards >= 2

    rv, ri = reference.run_batch(queries)
    hv, hi = sharded.run_batch(queries)
    np.testing.assert_array_equal(ri, hi)
    np.testing.assert_array_equal(rv, hv)

    # Every shard machine respects the 1-bank cap.
    session = sharded.session()
    for machine in session.machines:
        assert machine.banks_used <= CAPPED.banks

    # End-to-end classification matches the numpy golden model.
    predicted = np.array([knn.vote(row) for row in hi], dtype=np.int64)
    expected = knn.classify_reference(queries)
    np.testing.assert_array_equal(predicted, expected)

    ref_report, shard_report = reference.last_report, sharded.last_report
    shard_latencies = [s.last_report.query_latency_ns for s in session.sessions]
    print_series(
        f"shard capacity ({knn.patterns}x{FEATURES} store, "
        f"{sharded.num_shards} machines, B={QUERIES})",
        ["latency ns", "energy pJ", "banks", "qps"],
        [
            ("1 machine (uncapped)", [
                ref_report.query_latency_ns,
                ref_report.energy.query_total,
                ref_report.banks_used,
                ref_report.throughput_qps,
            ]),
            ("sharded (1-bank cap)", [
                shard_report.query_latency_ns,
                shard_report.energy.query_total,
                shard_report.banks_used,
                shard_report.throughput_qps,
            ]),
        ],
    )

    # Honest multi-machine accounting: energy and banks sum over
    # shards; latency is the slowest shard plus the merge hop, far from
    # the serial sum.
    assert shard_report.banks_used == sharded.num_shards * CAPPED.banks
    assert shard_report.query_latency_ns >= max(shard_latencies)
    assert shard_report.query_latency_ns < sum(shard_latencies)
    assert shard_report.energy.query_total >= max(
        s.last_report.energy.query_total for s in session.sessions
    )
    assert shard_report.throughput_qps > 0
