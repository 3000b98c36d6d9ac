"""The fused plan's scoring pool: concurrency, ``fork`` and one CPU.

A large generic-path batch is scored in contiguous row shares on a
process-wide thread pool (:mod:`repro.runtime.fused`).  The
``split_batches`` fixture forces the split on small batches; these
tests check the pool itself: sessions scoring at once on their own
threads, a child forked after the pool exists, and a one-CPU process,
which must make no pool.  Bitwise identity with the unfused walk is
checked in ``tests/test_differential.py``.  No wall clock is read.
"""

import concurrent.futures.thread
import multiprocessing
import sys
import threading

import numpy as np

from repro.arch import paper_spec
from repro.compiler import C4CAMCompiler
from repro.frontend import placeholder
from repro.runtime import fused


def _analog_kernel(dot_kernel, seed, fused_=True):
    stored = np.random.default_rng(seed).standard_normal((64, 64))
    return C4CAMCompiler(paper_spec(rows=16, cols=16, cam_type="acam")) \
        .compile(dot_kernel(stored.astype(np.float32), k=4),
                 [placeholder((1, 64))], fused=fused_)


def test_concurrent_sessions_split_alike(split_batches, dot_kernel):
    """Two threads serve split batches on separate sessions at once,
    with the interpreter switching threads every 10 µs: each result is
    bitwise its serial run."""
    kernels = [_analog_kernel(dot_kernel, seed) for seed in range(2)]
    batches = [np.random.default_rng(10 + i).standard_normal((11, 64))
               for i in range(6)]
    serial = [[kernel.run_batch(q) for q in batches] for kernel in kernels]
    got = [[], []]
    start = threading.Barrier(2)

    def serve(i):
        start.wait()
        for _ in range(5):
            got[i].extend(kernels[i].run_batch(q) for q in batches)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=serve, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(2):
        assert len(got[i]) == 5 * len(batches)
        for (values, indices), (want_v, want_i) in zip(got[i], serial[i] * 5):
            np.testing.assert_array_equal(values, want_v)
            np.testing.assert_array_equal(indices, want_i)
    assert max(split_batches) < 11  # every batch was split


def test_forked_child_splits(split_batches, dot_kernel, monkeypatch):
    """A child forked after the pool exists makes a fresh pool, and its
    first split batch completes.  The inherited pool has no threads, and
    with two CPUs it already counts its one thread as made, so a share
    handed to it would never run."""
    monkeypatch.setattr(fused, "_CPUS", 2)
    queries = np.random.default_rng(9).standard_normal((8, 64))
    want = _analog_kernel(dot_kernel, 8).run_batch(queries)
    assert fused._pool is not None
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def child():
        send.send(_analog_kernel(dot_kernel, 8).run_batch(queries))
        send.close()

    process = context.Process(target=child)
    process.start()
    send.close()
    try:
        assert receive.poll(30), "the forked child's split batch hung"
        values, indices = receive.recv()
        process.join(30)
        assert process.exitcode == 0
    finally:
        if process.is_alive():
            process.kill()
            process.join()
    np.testing.assert_array_equal(values, want[0])
    np.testing.assert_array_equal(indices, want[1])


def test_split_after_interpreter_exit_began(split_batches, dot_kernel,
                                            monkeypatch):
    """Once the interpreter has begun to exit, its thread pools refuse
    new work.  A split batch then scores every share on the caller,
    equals the unfused walk, and leaves every pool thread counted idle."""
    queries = np.random.default_rng(5).standard_normal((9, 64))
    want = _analog_kernel(dot_kernel, 5, fused_=False).run_batch(queries)
    kernel = _analog_kernel(dot_kernel, 5)
    kernel.run_batch(queries)  # makes the pool
    monkeypatch.setattr(concurrent.futures.thread, "_shutdown", True)
    got = kernel.run_batch(queries)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert fused._CPUS == 4 and split_batches[-4:] == [2, 2, 2, 3]
    idle = fused._pool[1]
    assert all(idle.acquire(blocking=False) for _ in range(3))


def test_one_cpu_makes_no_pool(split_batches, dot_kernel, monkeypatch):
    """With one CPU every batch is scored whole, on the caller."""
    monkeypatch.setattr(fused, "_CPUS", 1)
    queries = np.random.default_rng(3).standard_normal((12, 64))
    got = _analog_kernel(dot_kernel, 3).run_batch(queries)
    want = _analog_kernel(dot_kernel, 3, fused_=False).run_batch(queries)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert split_batches == [12]
    assert fused._pool is None
