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


@pytest.fixture
def superlu_stage_solves(monkeypatch):
    """Call it to have SuperLU (``linalg.direct_solve``) take every later stage
    solve of ``prkflow.integrators``, recorded with 0 iterations."""
    import prkflow.integrators as integrators
    from prkflow.linalg import direct_solve

    def direct(A, rhs, cfg=None, x0=None, M=None):
        x, resid = direct_solve(A, rhs, cfg)
        return x, 0, resid

    return lambda: monkeypatch.setattr(integrators, "solve", direct)
