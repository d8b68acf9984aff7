"""Matrix-free stage operators and verified sparse linear solves.

Stage systems have the form (I - coeff * P * D_h) over the 3N-dimensional
stacked field, where P is a per-node 3x3 block operator and D_h the scalar
Laplacian applied blockwise.  The operator is nonsymmetric (tangential
projector and cross term) and is never assembled for the Krylov solvers: a
matvec is three scalar Laplacian matvecs plus one blockwise product, and the
Jacobi diagonal is 1 - coeff * P_ll * D_ii.  The assembled 3N x 3N matrix
(``StageOperator.tocsr``) serves the sparse direct factorization and the tests.
The matvec order is deterministic, so repeated runs are bit-identical.

Solvers: Jacobi-preconditioned BiCGStab (default), restarted GMRES, and a
sparse direct factorization.  Every successful solve is verified against the
true residual ||A x - b||_2 <= max(rel_tol ||b||_2, abs_tol); iterative
solvers restart from the current iterate when the recursively updated
residual has drifted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

__all__ = [
    "SolverConfig",
    "NonConvergenceError",
    "BreakdownError",
    "StageOperator",
    "solve",
]

_GMRES_RESTART = 60      # gmres restart length; bicgstab is always Jacobi-preconditioned


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best iterate and its residual."""

    def __init__(self, best, residual, iterations):
        super().__init__(f"linear solver did not converge: residual {residual:.3e} "
                         f"after {iterations} iterations")
        self.best = best
        self.residual = residual
        self.iterations = iterations


class BreakdownError(RuntimeError):
    """Krylov recurrence broke down (scipy reported an illegal state)."""


@dataclass(frozen=True)
class SolverConfig:
    method: str = "bicgstab"          # bicgstab | gmres | direct
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14
    max_iters: int = 0                # 0 -> 10 * sqrt(N)

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method not in ("bicgstab", "gmres", "direct"):
            raise ValueError(f"unknown method {self.method!r}")

    def iteration_budget(self, n):
        return self.max_iters if self.max_iters > 0 else max(100, int(10 * np.sqrt(n)))


class StageOperator(spla.LinearOperator):
    """I - coeff * blocks * D over the stacked field (3N x 3N), applied matrix-free.

    ``lap`` is a DiscreteLaplacian (only its matrix D is used: boundary
    forcing belongs in the right-hand side), ``blocks`` the per-node 3x3
    blocks (3, 3, N).
    """

    def __init__(self, lap, blocks, coeff):
        n = lap.matrix.shape[0]
        super().__init__(np.float64, (3 * n, 3 * n))
        self.lap = lap
        self.blocks = blocks
        self.coeff = coeff

    def _matvec(self, x):
        x = x.reshape(3, -1)
        dx = self.lap.apply_homogeneous(x)
        return (x - self.coeff * np.einsum("lmn,mn->ln", self.blocks, dx)).reshape(-1)

    def diagonal(self):
        p_diag = np.einsum("lln->ln", self.blocks)
        return (1.0 - self.coeff * p_diag * self.lap.matrix.diagonal()).reshape(-1)

    def tocsr(self):
        """The assembled matrix, for sparse direct factorization and as a reference."""
        d = self.lap.matrix
        coupled = sparse.bmat([[sparse.diags(self.blocks[l, m]) @ d for m in range(3)]
                               for l in range(3)], format="csr")
        return (sparse.identity(self.shape[0], format="csr") - self.coeff * coupled).tocsr()

    def tocsc(self):
        return self.tocsr().tocsc()


def _true_residual(A, x, rhs):
    return float(np.linalg.norm(A @ x - rhs))


def solve(A, rhs, cfg=None):
    """Solve A x = rhs; returns (x, iterations, residual).

    The returned residual is the true 2-norm residual, checked against
    max(rel_tol * ||rhs||, abs_tol).  Raises NonConvergenceError (with best
    iterate) or BreakdownError.
    """
    if cfg is None:
        cfg = SolverConfig()
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if A.shape != (n, n):
        raise ValueError("system must be square and match the rhs")
    target = max(cfg.rel_tol * np.linalg.norm(rhs), cfg.abs_tol)

    if cfg.method == "direct":
        lu = spla.splu(A.tocsc())
        x = lu.solve(rhs)
        return x, 1, _true_residual(A, x, rhs)

    budget = cfg.iteration_budget(n)
    precond = None
    if cfg.method == "bicgstab":
        diag = A.diagonal()
        if np.abs(diag).min() == 0.0:
            raise BreakdownError("zero diagonal entry; Jacobi preconditioner unusable")
        inv_diag = 1.0 / diag
        precond = spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v)

    x = None
    total_iters = 0
    for _ in range(4):
        iters = [0]

        if cfg.method == "bicgstab":
            def cb(_xk):
                iters[0] += 1
            x, info = spla.bicgstab(A, rhs, x0=x, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                                    maxiter=budget, M=precond, callback=cb)
        else:
            def cb(_rk):
                iters[0] += 1
            outer = max(1, budget // _GMRES_RESTART)
            x, info = spla.gmres(A, rhs, x0=x, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                                 restart=_GMRES_RESTART, maxiter=outer,
                                 callback=cb, callback_type="pr_norm")
        total_iters += iters[0]
        if info < 0:
            raise BreakdownError(f"solver breakdown (scipy info={info})")
        resid = _true_residual(A, x, rhs)
        if resid <= target:
            return x, total_iters, resid
    raise NonConvergenceError(x, resid, total_iters)
