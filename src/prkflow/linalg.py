"""Matrix-free stage operators and verified sparse linear solves.

Stage systems have the form (I - coeff * P * D_h) over the 3N-dimensional
stacked field, where P is a per-node 3x3 block operator and D_h the scalar
Laplacian applied blockwise.  The operator is nonsymmetric (tangential
projector and cross term) and is never assembled for the Krylov solvers: a
matvec is three scalar Laplacian matvecs plus one blockwise product, and the
Jacobi diagonal is 1 - coeff * P_ll * D_ii.  The assembled 3N x 3N matrix
(``StageOperator.tocsr``) serves the sparse direct factorization and the tests.
The matvec order is deterministic, so repeated runs are bit-identical.

Solvers: preconditioned BiCGStab (default), restarted GMRES, and a sparse
direct factorization.  The iterative solvers start from the caller's guess
x0 (the stage solves pass the previous stage value, an O(tau) guess).
BiCGStab is an in-place loop with scipy's ``bicgstab`` arithmetic, bit for
bit (van der Vorst, SIAM J. Sci. Stat. Comput. 13, 1992): the same
convergence test, breakdown codes and iteration count, preallocated work
vectors, and the stage operator's and the preconditioner's kernels called
directly, with no ``LinearOperator.matvec`` dispatch per application.
BiCGStab takes the tangent-space spectral
preconditioner when the stage operator carries its blocks as a tangent
projector alpha P_t(mh) = alpha (I - mh mh^T) (beta = 0) and is stiff,
coeff alpha 4 dim / h^2 >= 1.5:

    M^-1 v = mh (mh.v) + P_t S^-1 P_t v,    S = I - coeff alpha D_h,

with S^-1 exact on the free nodes (``grid.shifted_laplacian_inverse``, the
same inverse LM2's predictor applies).  Every other operator takes Jacobi.
Every successful solve is verified against the true residual
||A x - b||_2 <= max(rel_tol ||b||_2, abs_tol); iterative solvers restart
from the current iterate when the recursively updated residual has drifted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .grid import shifted_laplacian_inverse

__all__ = [
    "SolverConfig",
    "NonConvergenceError",
    "BreakdownError",
    "StageOperator",
    "TangentBlocks",
    "TangentPreconditioner",
    "solve",
]

_GMRES_RESTART = 60      # gmres restart length; gmres runs unpreconditioned
# The tangent-space preconditioner is taken from this stiffness coeff alpha rho
# (see _stiffness) on.  Below it Jacobi needs at most about ten iterations, and
# one spectral application, which costs a few matvecs, does not pay for the
# iterations it saves: per-step break-even is near 1 on 2-D and 3-D grids
# with 9 to 65 nodes per axis.
_TANGENT_MIN_STIFFNESS = 1.5


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
    max_iters: int = 0                # 0 -> max(100, 10 sqrt(n)), n the system size 3N

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method not in ("bicgstab", "gmres", "direct"):
            raise ValueError(f"unknown method {self.method!r}")

    def iteration_budget(self, n):
        return self.max_iters if self.max_iters > 0 else max(100, int(10 * np.sqrt(n)))


@dataclass(frozen=True)
class TangentBlocks:
    """Blocks that are alpha (I - mh mh^T) at every node, mh the directions of ``field``."""

    field: object
    alpha: float


class StageOperator(spla.LinearOperator):
    """I - coeff * blocks * D over the stacked field (3N x 3N), applied matrix-free.

    ``lap`` is a DiscreteLaplacian (only its matrix D is used: boundary
    forcing belongs in the right-hand side), ``blocks`` the per-node 3x3
    blocks (3, 3, N).  ``tangent`` is a TangentBlocks when the blocks are a
    tangent projector; BiCGStab then takes the tangent-space spectral
    preconditioner if the operator is stiff (``_stiffness``).
    """

    def __init__(self, lap, blocks, coeff, tangent=None):
        n = lap.matrix.shape[0]
        super().__init__(np.float64, (3 * n, 3 * n))
        self.lap = lap
        self.blocks = blocks
        self.coeff = coeff
        self.tangent = tangent

    def _matvec(self, x):
        x = x.reshape(3, -1)
        out = np.einsum("lmn,mn->ln", self.blocks, self.lap.apply_homogeneous(x))
        # in place, and bit-identical to x - coeff * out
        out *= -self.coeff
        out += x
        return out.reshape(-1)

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


class TangentPreconditioner(spla.LinearOperator):
    """M^-1 v = mh (mh.v) + P_t S^-1 P_t v for a StageOperator with TangentBlocks.

    S = I - coeff alpha D_h acts per component; ``shifted_solve`` is its
    exact inverse on the free nodes, ``grid.shifted_laplacian_inverse``.
    Nodes on Dirichlet faces pass through (A is the identity there).  mh is
    not stored: mh (mh.v) = m (m.v) / |m|^2 with m the field of the blocks.
    """

    def __init__(self, A):
        tangent = A.tangent
        super().__init__(np.float64, A.shape)
        self.m = tangent.field.components
        self.inv_len2 = 1.0 / np.einsum("ln,ln->n", self.m, self.m)
        self.shifted_solve = shifted_laplacian_inverse(tangent.field.grid,
                                                       A.coeff * tangent.alpha)

    def _matvec(self, v):
        v = v.reshape(3, -1)
        m = self.m
        normal = np.einsum("ln,ln->n", m, v)
        normal *= self.inv_len2
        out = np.empty_like(v)
        # component by component, so that no (3, N) temporary is allocated
        for l in range(3):
            np.multiply(m[l], normal, out=out[l])
            np.subtract(v[l], out[l], out=out[l])
        self.shifted_solve(out)
        tangential = np.einsum("ln,ln->n", m, out)
        tangential *= self.inv_len2
        normal -= tangential
        for l in range(3):
            out[l] += m[l] * normal
        return out.reshape(-1)


def _stiffness(A):
    """coeff alpha rho of a StageOperator with TangentBlocks, rho = 4 dim / h^2 >= |lambda(D_h)|."""
    grid = A.tangent.field.grid
    return A.coeff * A.tangent.alpha * 4.0 * grid.dim / grid.h ** 2


def _preconditioner(A):
    """TangentPreconditioner when A carries TangentBlocks and is stiff enough, Jacobi otherwise."""
    if getattr(A, "tangent", None) is not None and _stiffness(A) >= _TANGENT_MIN_STIFFNESS:
        return TangentPreconditioner(A)
    diag = A.diagonal()
    if np.abs(diag).min() == 0.0:
        raise BreakdownError("zero diagonal entry; Jacobi preconditioner unusable")
    inv_diag = 1.0 / diag
    return spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v)


def _matvec_kernel(A):
    """x -> A x: a StageOperator's kernel itself, any other input through aslinearoperator."""
    return A._matvec if isinstance(A, StageOperator) else spla.aslinearoperator(A).matvec


def _true_residual(matvec, x, rhs):
    return float(np.linalg.norm(matvec(x) - rhs))


# scipy's rho and omega breakdown floors (its comment: "These values make no
# sense but coming from original Fortran code")
_BREAKDOWN_TOL = np.finfo(np.float64).eps ** 2


def _bicgstab(matvec, psolve, b, x, atol, maxiter):
    """Preconditioned BiCGStab on A x = b from x, updating x in place; returns (info, iterations).

    The arithmetic of ``scipy.sparse.linalg.bicgstab`` step for step, so x
    is bit-identical to it: stop when ||r|| < atol, info -10 (rho) and -11
    (omega or rtilde.v) on breakdown, maxiter when the budget runs out, and
    iterations counted as its callback counts them (full iterations only).
    ``matvec`` and ``psolve`` must return new arrays; they are scaled in place.
    """
    if np.linalg.norm(b) == 0:
        x.fill(0.0)
        return 0, 0
    r = b - matvec(x) if x.any() else b.copy()
    rtilde = r.copy()
    p = np.empty_like(r)
    alpha_v = np.empty_like(r)
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return 0, iteration
        rho = np.dot(rtilde, r)
        if np.abs(rho) < _BREAKDOWN_TOL:
            return -10, iteration
        if iteration > 0:
            if np.abs(omega) < _BREAKDOWN_TOL:
                return -11, iteration
            beta = (rho / rho_prev) * (alpha / omega)
            v *= omega
            p -= v
            p *= beta
            p += r
        else:
            p[:] = r
        phat = psolve(p)
        v = matvec(phat)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return -11, iteration
        alpha = rho / rv
        np.multiply(v, alpha, out=alpha_v)
        r -= alpha_v
        # scipy copies r into s here; r is not written again until s is used up
        phat *= alpha
        if np.linalg.norm(r) < atol:
            x += phat
            return 0, iteration
        shat = psolve(r)
        t = matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        x += phat
        shat *= omega
        x += shat
        t *= omega
        r -= t
        rho_prev = rho
    return maxiter, maxiter


def solve(A, rhs, cfg=None, x0=None):
    """Solve A x = rhs from the start guess x0; returns (x, iterations, residual).

    BiCGStab and GMRES start from x0 (zero when None); the direct solver
    ignores it, and the caller's array is never written to.  The returned
    residual is the true 2-norm residual, checked against
    max(rel_tol * ||rhs||, abs_tol); an iterative solver whose recursive
    residual has drifted restarts from its iterate, up to four rounds.
    Raises NonConvergenceError (with best iterate) or BreakdownError.
    """
    if cfg is None:
        cfg = SolverConfig()
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if A.shape != (n, n):
        raise ValueError("system must be square and match the rhs")
    target = max(cfg.rel_tol * np.linalg.norm(rhs), cfg.abs_tol)
    matvec = _matvec_kernel(A)

    if cfg.method == "direct":
        lu = spla.splu(A.tocsc())
        x = lu.solve(rhs)
        return x, 1, _true_residual(matvec, x, rhs)

    budget = cfg.iteration_budget(n)
    if cfg.method == "bicgstab":
        psolve = _preconditioner(A)._matvec
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=float).reshape(n)
    else:
        x = x0

    total_iters = 0
    for _ in range(4):
        if cfg.method == "bicgstab":
            info, iters = _bicgstab(matvec, psolve, rhs, x, target, budget)
        else:
            counter = [0]

            def cb(_rk):
                counter[0] += 1
            outer = max(1, budget // _GMRES_RESTART)
            x, info = spla.gmres(A, rhs, x0=x, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                                 restart=_GMRES_RESTART, maxiter=outer,
                                 callback=cb, callback_type="pr_norm")
            iters = counter[0]
        total_iters += iters
        if info < 0:
            raise BreakdownError(f"solver breakdown (scipy info={info})")
        resid = _true_residual(matvec, x, rhs)
        if resid <= target:
            return x, total_iters, resid
    raise NonConvergenceError(x, resid, total_iters)
