import os

# one BLAS/OpenMP thread, set before numpy is first imported: OpenBLAS sizes
# its pool at load time, and a threaded pool makes the wall-clock gates flake
# on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
