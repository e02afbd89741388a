"""churnforge: churn scoring from call detail records on synthetic data."""

import os

# One BLAS/OpenMP thread, set before any module imports numpy: a BLAS
# product splits its sums by thread, so the thread count would change
# the last bits of the R squared ranking and of every linear model
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
