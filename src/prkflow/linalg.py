"""Matrix-free stage operators and verified sparse linear solves.

Stage systems have the form (I - coeff * P * D_h) over the 3N-dimensional
stacked field, where P is a per-node 3x3 block operator and D_h the scalar
Laplacian applied blockwise.  The operator is nonsymmetric (tangential
projector and cross term) and is never assembled for BiCGStab: a matvec is
one banded product of the grid's stacked Laplacian diag(D_h, D_h, D_h) on
the flattened field plus one blockwise product, and the Jacobi diagonal is
1 - coeff * P_ll * D_ii, with D_ii the main diagonal of the stacked
Laplacian.  The assembled 3N x 3N matrix (``StageOperator.tocsr``) serves
the sparse direct factorization and the tests.
The matvec order is deterministic, so repeated runs are bit-identical.

Solvers: preconditioned BiCGStab (default) from the caller's guess x0 (the
stage solves pass an O(tau) guess, see ``integrators._StageHistory``), and
a sparse direct factorization.  BiCGStab is an in-place loop with scipy's
``bicgstab`` arithmetic, bit for bit (van der Vorst, SIAM J. Sci. Stat.
Comput. 13, 1992): the same convergence test, breakdown codes and iteration
count, preallocated work vectors, and the stage operator's and the
preconditioner's own kernels called directly (neither is a ``LinearOperator``).
It takes the tangent-space spectral preconditioner when the stage operator's
blocks are the mobility P = alpha P_t + beta J of one field, P_t = I - mh mh^T
and J = mh x, and the stage is stiff, coeff |alpha + i beta| 4 dim / h^2 >= 1.5.
Freezing mh, J^2 = -1 on the tangent plane, so for each eigenvalue lambda of
D_h (1 - coeff lambda (alpha + beta J))^-1 = f + g J with
f + i g = 1 / (1 - coeff (alpha + i beta) lambda), and

    M^-1 v = mh (mh.v) + P_t Re(S^-1 P_t v) + mh x Im(S^-1 P_t v),
    S = I - coeff (alpha + i beta) D_h,

with S^-1 exact on the free nodes (``grid.shifted_laplacian_inverse``; with
beta = 0 the shift is real and so is the arithmetic).  Every other operator
takes Jacobi.  Both solvers verify their result against the true residual,
||A x - b||_2 <= max(rel_tol ||b||_2, abs_tol), and raise a typed error
(NonConvergenceError or BreakdownError) when they fail.
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
    "direct_solve",
]

# The tangent-space preconditioner is taken from this stiffness coeff |alpha + i beta| rho
# (see _stiffness) on.  Below it Jacobi needs at most about ten iterations, and
# one spectral application, which costs a few matvecs, does not pay for the
# iterations it saves: per-step break-even is near 1 at beta = 0 on 2-D and
# 3-D grids with 9 to 65 nodes per axis, and between 1.3 and 3.3 at beta = 1,
# where the application is complex, on 2-D grids with 25 and 65 nodes per axis.
_TANGENT_MIN_STIFFNESS = 1.5


class NonConvergenceError(RuntimeError):
    """The true residual misses the target; carries the best iterate, its
    residual and the iterations spent (0 for SuperLU)."""

    def __init__(self, best, residual, iterations):
        super().__init__(f"linear solve missed its target: residual {residual:.3e} "
                         f"after {iterations} iterations")
        self.best = best
        self.residual = residual
        self.iterations = iterations


class BreakdownError(RuntimeError):
    """BiCGStab's recurrence broke down, Jacobi met a zero diagonal entry or
    SuperLU a singular factor; carries the iterations spent."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")

    @staticmethod
    def iteration_budget(n):
        """BiCGStab's budget for a system of size n (3N): max(100, 10 sqrt(n))."""
        return max(100, int(10 * np.sqrt(n)))


@dataclass(frozen=True)
class TangentBlocks:
    """Blocks that are the mobility P(mh) = alpha P_t + beta J of ``field`` at
    every node: ``projector_blocks(field, projection)``."""

    field: object
    projection: object


class StageOperator:
    """I - coeff * blocks * D over the stacked field (3N x 3N), applied matrix-free.

    ``lap`` is a DiscreteLaplacian (only D_h is used: boundary forcing
    belongs in the right-hand side), ``blocks`` the per-node 3x3
    blocks (3, 3, N).  ``tangent`` is a TangentBlocks when the blocks are the
    mobility of one field; BiCGStab then takes the tangent-space spectral
    preconditioner if the operator is stiff (``_stiffness``).  ``solve``
    uses what it shares with a sparse matrix: shape, dot, diagonal, tocsr.
    """

    def __init__(self, lap, blocks, coeff, tangent=None):
        self.shape = lap.stacked.shape
        self.lap = lap
        self.blocks = blocks
        self.coeff = coeff
        self.tangent = tangent

    def dot(self, x):
        x = x.reshape(3, -1)
        out = np.einsum("lmn,mn->ln", self.blocks, self.lap.apply_homogeneous(x))
        # in place, and bit-identical to x - coeff * out
        out *= -self.coeff
        out += x
        return out.reshape(-1)

    def diagonal(self):
        p_diag = np.einsum("lln->ln", self.blocks)
        d_diag = self.lap.stacked.diagonal().reshape(p_diag.shape)
        return (1.0 - self.coeff * p_diag * d_diag).reshape(-1)

    def tocsr(self):
        """The assembled matrix, for sparse direct factorization and as a reference."""
        d = self.lap.matrix
        coupled = sparse.bmat([[sparse.diags(self.blocks[l, m]) @ d for m in range(3)]
                               for l in range(3)], format="csr")
        return (sparse.identity(self.shape[0], format="csr") - self.coeff * coupled).tocsr()


class TangentPreconditioner:
    """v -> M^-1 v (module docstring) for a StageOperator with TangentBlocks.

    S = I - coeff (alpha + i beta) D_h acts per component; ``shifted_solve``
    is its exact inverse on the free nodes, on ``work``, the real and
    imaginary parts (2, 3, N) of the field, when beta != 0.  Nodes on
    Dirichlet faces pass through (A is the identity there).  mh is not
    stored: mh (mh.v) = m (m.v) / |m|^2 and mh x w = (m x w) / |m| with m
    the field of the blocks.
    """

    def __init__(self, A):
        tangent = A.tangent
        alpha, beta = tangent.projection.alpha, tangent.projection.beta
        self.m = tangent.field.components
        self.inv_len2 = 1.0 / np.einsum("ln,ln->n", self.m, self.m)
        if beta == 0.0:
            self.work = None
            shift = A.coeff * alpha
        else:
            self.work = np.empty((2,) + self.m.shape)
            self.inv_len = np.sqrt(self.inv_len2)
            shift = A.coeff * complex(alpha, beta)
        self.shifted_solve = shifted_laplacian_inverse(tangent.field.grid, shift)

    def __call__(self, v):
        v = v.reshape(3, -1)
        m = self.m
        normal = np.einsum("ln,ln->n", m, v)
        normal *= self.inv_len2
        out = np.empty_like(v)
        # component by component, so that no (3, N) temporary is allocated
        for l in range(3):
            np.multiply(m[l], normal, out=out[l])
            np.subtract(v[l], out[l], out=out[l])
        if self.work is None:
            self.shifted_solve(out)
        else:
            real, imag = self.work
            np.copyto(real, out)
            imag.fill(0.0)
            self.shifted_solve(self.work)
            np.copyto(out, real)
            # mh x Im(S^-1 P_t v) is tangent; the projection below keeps it
            out += np.cross(m, imag, axis=0) * self.inv_len
        tangential = np.einsum("ln,ln->n", m, out)
        tangential *= self.inv_len2
        normal -= tangential
        for l in range(3):
            out[l] += m[l] * normal
        return out.reshape(-1)


def _stiffness(A):
    """coeff |alpha + i beta| rho of a StageOperator with TangentBlocks,
    rho = 4 dim / h^2 >= |lambda(D_h)|."""
    grid = A.tangent.field.grid
    projection = A.tangent.projection
    return (A.coeff * abs(complex(projection.alpha, projection.beta))
            * 4.0 * grid.dim / grid.h ** 2)


def _preconditioner(A):
    """v -> M^-1 v: TangentPreconditioner if A has TangentBlocks and is stiff, else Jacobi."""
    if getattr(A, "tangent", None) is not None and _stiffness(A) >= _TANGENT_MIN_STIFFNESS:
        return TangentPreconditioner(A)
    diag = A.diagonal()
    if np.abs(diag).min() == 0.0:
        raise BreakdownError("zero diagonal entry; Jacobi preconditioner unusable")
    inv_diag = 1.0 / diag
    return lambda v: inv_diag * v


def _true_residual(A, x, rhs):
    return float(np.linalg.norm(A.dot(x) - rhs))


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


def _system(A, rhs, cfg):
    """rhs as a float vector and the residual target max(rel_tol ||rhs||, abs_tol)."""
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if A.shape != (n, n):
        raise ValueError("system must be square and match the rhs")
    return rhs, max(cfg.rel_tol * np.linalg.norm(rhs), cfg.abs_tol)


def solve(A, rhs, cfg=None, x0=None):
    """Solve A x = rhs by preconditioned BiCGStab from x0; returns (x, iterations, residual).

    ``A`` is a StageOperator or a sparse matrix.  BiCGStab starts from x0
    (zero when None; the caller's array is never written to) and runs once,
    within ``SolverConfig.iteration_budget``.  The returned residual is the
    true 2-norm residual, checked against max(rel_tol * ||rhs||, abs_tol).
    Raises NonConvergenceError (with the last iterate) when it misses that
    target, and BreakdownError when the recurrence or Jacobi breaks down;
    both carry the iterations spent.
    """
    cfg = cfg or SolverConfig()
    rhs, target = _system(A, rhs, cfg)
    psolve = _preconditioner(A)
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float).reshape(rhs.shape)
    info, iters = _bicgstab(A.dot, psolve, rhs, x, target, cfg.iteration_budget(rhs.size))
    if info < 0:
        raise BreakdownError(f"solver breakdown (scipy info={info})", iters)
    resid = _true_residual(A, x, rhs)
    if not resid <= target:
        raise NonConvergenceError(x, resid, iters)
    return x, iters, resid


def direct_solve(A, rhs, cfg=None):
    """Solve A x = rhs by SuperLU on the assembled matrix (``tocsr``); returns (x, residual).

    Verified as ``solve`` is: raises BreakdownError on a singular factor and
    NonConvergenceError (with x) when the true residual misses the target.
    """
    cfg = cfg or SolverConfig()
    rhs, target = _system(A, rhs, cfg)
    try:
        x = spla.splu(A.tocsr().tocsc()).solve(rhs)
    except RuntimeError as exc:       # "Factor is exactly singular"
        raise BreakdownError(f"SuperLU: {exc}") from exc
    resid = _true_residual(A, x, rhs)
    if not resid <= target:
        raise NonConvergenceError(x, resid, 0)
    return x, resid
