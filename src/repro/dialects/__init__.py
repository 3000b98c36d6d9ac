"""MLIR-style dialects used by the C4CAM lowering pipeline.

* :mod:`repro.dialects.func` / :mod:`~repro.dialects.arith` /
  :mod:`~repro.dialects.tensor` / :mod:`~repro.dialects.memref` /
  :mod:`~repro.dialects.scf` — standard structural dialects.
* :mod:`repro.dialects.torch` — the subset of ATen the frontend emits,
  including the paper's frontend extension (``norm``/``topk``).
* :mod:`repro.dialects.cim` — the generic compute-in-memory abstraction
  (acquire/execute/release + compute ops + similarity + merge_partial).
* :mod:`repro.dialects.cam` — the CAM device abstraction
  (alloc_bank/mat/array/subarray, write_value, search, read, merges).

Each op is a :class:`~repro.ir.operation.Operation` subclass; import the
dialect module whose ops you build.
"""
