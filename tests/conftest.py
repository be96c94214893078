"""Pin BLAS to one thread for the whole suite, as ``perfbench`` and
``scripts/fingerprint.py`` do: a threaded gemm splits its sums differently, so
the bits of a result (a teacher dataset at n = 513, say) depend on the thread
count. The variables must be set before numpy is first imported, and pytest
imports this file before any test module."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
