"""Repository-wide pytest setup: one BLAS thread for the whole run.

Pytest loads this file before it collects ``tests/`` or ``benchmarks/``,
so the pin is in place before anything imports NumPy (its bundled
OpenBLAS reads the variables once, at load).  Under a threaded BLAS the
fused kernels' wall time is bimodal (thread oversubscription), which
flips the benchmark floors.  ``setdefault`` keeps a value the caller set
explicitly.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
