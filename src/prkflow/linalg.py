"""Matrix-free stage operators and verified sparse linear solves.

Stage systems have the form (I - coeff * P * D_h) over the 3N-dimensional
stacked field, where P is a per-node 3x3 block operator and D_h the scalar
Laplacian applied blockwise.  The operator is nonsymmetric (tangential
projector and cross term) and is never assembled for BiCGStab: a matvec is
one banded product of the grid's stacked Laplacian diag(D_h, D_h, D_h) on
the flattened field plus one blockwise product.  The assembled 3N x 3N
matrix (``StageOperator.tocsr``) serves the sparse direct factorization and
the tests.
The matvec order is deterministic, so repeated runs are bit-identical.

Solvers: BiCGStab (default) from the caller's guess x0 (the stage solves
pass an O(tau) guess, see ``integrators._StageHistory``; a preconditioned
solve moves it onto the normal component of the right-hand side, see
``solve``), and a sparse direct factorization.  BiCGStab is an in-place
loop with scipy's ``bicgstab`` arithmetic, bit for bit (van der Vorst,
SIAM J. Sci. Stat. Comput. 13, 1992): the same convergence test, breakdown
codes and iteration count, preallocated work vectors, and the stage
operator's and the preconditioner's own kernels called directly (neither
is a ``LinearOperator``).
It runs with the preconditioner M its caller passes, and unpreconditioned
without one.  The stage solve (``integrators._stage_solve``) passes the
tangent-space spectral preconditioner (``TangentPreconditioner``) of a
field mh when its blocks are, or are within O(tau) of, the mobility
P = alpha P_t + beta J of mh, P_t = I - mh mh^T and J = mh x, and the stage
is stiff, coeff |alpha + i beta| 4 dim / h^2 >= 1.5
(``_takes_tangent_preconditioner``).
Freezing mh, J^2 = -1 on the tangent plane, so for each eigenvalue lambda of
D_h (1 - coeff lambda (alpha + beta J))^-1 = f + g J with
f + i g = 1 / (1 - coeff (alpha + i beta) lambda), and

    M^-1 v = mh (mh.v) + P_t Re(S^-1 P_t v) + mh x Im(S^-1 P_t v),
    S = I - coeff (alpha + i beta) D_h,

with S^-1 exact on the vectors that vanish on the Dirichlet nodes, where
the stage solves' residuals lie (``grid.shifted_laplacian_inverse``; with
beta = 0 the shift is real and so is the arithmetic).
That S holds where neighbouring tangent planes are parallel.  For a rough
field the preconditioner keeps D_h's exact diagonal and scales its
neighbour couplings by the alignment kappa:

    S = d I - kappa coeff (alpha + i beta) D_h,
    d = 1 + (1 - kappa) coeff (alpha + i beta) 2 dim / h^2,
    kappa = sqrt((1 + c) / 2) for c < 1/2, kappa = 1 for c >= 1/2,

c = 1 - E / (2 h^(dim-2) sum_e w_e) the weighted mean neighbour cosine of
the step's on-sphere start field, read from its discrete energy E
(``_tangent_alignment``).  kappa is the RMS gain with which P_t(m_i) passes
a tangent vector of a neighbour's plane, ||P_t(m_i) P_t(m_j)||_F^2 =
1 + c_ij^2, with c standing in for the mean of c_ij^2; for c >= 1/2 the
preconditioner is that of kappa = 1, bit for bit.  Both solvers verify
their result against the true residual,
||A x - b||_2 <= max(rel_tol ||b||_2, abs_tol), and raise a typed error
(NonConvergenceError or BreakdownError) when they fail.  That check is the
last product of the stage operator, and the operator keeps its D_h x
(``StageOperator.dx``): the stage solves take D_h U^i from it instead of
applying the Laplacian again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sparse

from .field import apply_blocks, cross
from .grid import shifted_laplacian_inverse

__all__ = [
    "SolverConfig",
    "NonConvergenceError",
    "BreakdownError",
    "StageOperator",
    "TangentPreconditioner",
    "solve",
    "direct_solve",
]

# The stage solves take the tangent-space preconditioner from this stiffness
# coeff |alpha + i beta| rho (see _takes_tangent_preconditioner) on; below it
# BiCGStab runs unpreconditioned.  Per-step break-even of the two (prk, best
# of 3 over 40 steps, one BLAS thread, 2-core Xeon): at beta = 1 on the 2-D
# llg_blowup42 grid with 25 nodes per axis, where the application is
# complex, unpreconditioned is cheaper up to stiffness 2 (1.07 against
# 1.40 ms) and spectral from 3 on (1.50 against 1.62 ms); at beta = 0 on the
# 3-D twisted_nematic44 grid with 25 nodes per axis spectral is cheaper from
# 1 on (17.1 against 19.0 ms).  One threshold serves both, between the two
# break-evens.
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
    """BiCGStab's recurrence broke down or SuperLU met a singular factor;
    carries the iterations spent."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    rel_tol: float = 1e-11
    abs_tol: ClassVar[float] = 1e-14

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")

    @staticmethod
    def iteration_budget(n):
        """BiCGStab's budget for a system of size n (3N): max(100, 10 sqrt(n))."""
        return max(100, int(10 * np.sqrt(n)))


class StageOperator:
    """I - coeff * blocks * D over the stacked field (3N x 3N), applied matrix-free.

    ``lap`` is a DiscreteLaplacian, ``blocks`` the per-node 3x3 blocks
    (3, 3, N); the rows at Dirichlet nodes are the identity, so x holds the
    boundary values of the right-hand side there.  ``solve`` uses what it
    shares with a sparse matrix: shape, dot, tocsr.
    ``dx`` holds D_h x (3, N) of the last x given to ``dot``: after
    ``solve`` or ``direct_solve``, which end on the true residual of the
    solution they return, that is D_h of the solution.
    """

    def __init__(self, lap, blocks, coeff):
        self.shape = lap.stacked.shape
        self.lap = lap
        self.blocks = blocks
        self.coeff = coeff
        self.dx = None

    def dot(self, x):
        x = x.reshape(3, -1)
        self.dx = self.lap.apply(x)
        out = apply_blocks(self.blocks, self.dx)
        # in place, and bit-identical to x - coeff * out
        out *= -self.coeff
        out += x
        return out.reshape(-1)

    def tocsr(self):
        """The assembled matrix, for sparse direct factorization and as a reference."""
        d = self.lap.matrix
        coupled = sparse.bmat([[sparse.diags(self.blocks[l, m]) @ d for m in range(3)]
                               for l in range(3)], format="csr")
        return (sparse.identity(self.shape[0], format="csr") - self.coeff * coupled).tocsr()


class TangentPreconditioner:
    """v -> M^-1 v (module docstring) for a stage (I - coeff P D_h) whose blocks
    are, or are within O(tau) of, the mobility P of ``field`` under ``projection``.

    S = d I - kappa coeff (alpha + i beta) D_h acts per component, with
    d = 1 + (1 - kappa) coeff (alpha + i beta) 2 dim / h^2, which keeps the
    diagonal of I - coeff (alpha + i beta) D_h.  kappa in [0, 1] is the gain
    of D_h's neighbour couplings (``_tangent_alignment``); kappa = 1 models
    parallel neighbouring tangent planes, the smooth field's S.
    ``shifted_solve`` is the exact inverse of S on vectors that vanish on
    the Dirichlet nodes.
    When beta != 0 it reads the real field from ``work[0]`` and writes the
    real and imaginary parts of its image to ``work`` (2, 3, N).  Nodes on
    Dirichlet faces pass through (A is the identity there).  mh is not
    stored: mh (mh.v) = m (m.v) / |m|^2 and mh x w = (m x w) / |m| with m
    the field's components.
    """

    def __init__(self, field, projection, coeff, kappa):
        grid, alpha, beta = field.grid, projection.alpha, projection.beta
        self.m = field.components
        self.inv_len2 = 1.0 / np.einsum("ln,ln->n", self.m, self.m)
        if beta == 0.0:
            self.work = None
            shift = coeff * alpha
        else:
            self.work = np.empty((2,) + self.m.shape)
            self.inv_len = np.sqrt(self.inv_len2)
            shift = coeff * complex(alpha, beta)
        # D_h's diagonal is -2 dim / h^2 at every free node; kappa = 1 gives
        # d = 1 and the smooth field's S = I - coeff (alpha + i beta) D_h
        diagonal = 1.0 + (1.0 - kappa) * shift * (2.0 * grid.dim / grid.h ** 2)
        self.shifted_solve = shifted_laplacian_inverse(grid, kappa * shift, diagonal)

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
            self.shifted_solve(self.work)
            np.copyto(out, real)
            # mh x Im(S^-1 P_t v) is tangent; the projection below keeps it
            out += cross(m, imag) * self.inv_len
        tangential = np.einsum("ln,ln->n", m, out)
        tangential *= self.inv_len2
        normal -= tangential
        for l in range(3):
            out[l] += m[l] * normal
        return out.reshape(-1)


def _takes_tangent_preconditioner(grid, projection, coeff):
    """Whether a stage (I - coeff P D_h) whose blocks are a mobility P of
    ``projection`` on ``grid`` is stiff enough for the tangent preconditioner:
    coeff |alpha + i beta| rho >= 1.5, rho = 4 dim / h^2 >= |lambda(D_h)|."""
    stiffness = (coeff * abs(complex(projection.alpha, projection.beta))
                 * 4.0 * grid.dim / grid.h ** 2)
    return stiffness >= _TANGENT_MIN_STIFFNESS


def _tangent_alignment(energy, grid):
    """``TangentPreconditioner``'s kappa for a unit field of discrete energy E
    (module docstring): sqrt((1 + c) / 2) from the weighted mean neighbour
    cosine c = 1 - E / (2 h^(dim-2) sum_e w_e) (``Grid.edge_weight_sum``),
    and 1 for c >= 1/2.  c is cut at -1 (kappa = 0, S its diagonal alone): a
    field off the sphere can have more energy than any unit field."""
    cosine = max(1.0 - energy / (2.0 * grid.h ** (grid.dim - 2) * grid.edge_weight_sum), -1.0)
    return 1.0 if cosine >= 0.5 else math.sqrt((1.0 + cosine) / 2.0)


def _norm(v):
    """||v||_2 of a real vector, as ``np.linalg.norm`` computes it: sqrt(v.v)."""
    return math.sqrt(np.dot(v, v))


def _true_residual(A, x, rhs):
    return _norm(A.dot(x) - rhs)


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
    if _norm(b) == 0:
        x.fill(0.0)
        return 0, 0
    r = b - matvec(x) if x.any() else b.copy()
    rtilde = r.copy()
    p = np.empty_like(r)
    alpha_v = np.empty_like(r)
    for iteration in range(maxiter):
        if _norm(r) < atol:
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
        if _norm(r) < atol:
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
    return rhs, max(cfg.rel_tol * _norm(rhs), cfg.abs_tol)


def solve(A, rhs, cfg=None, x0=None, M=None):
    """Solve A x = rhs by BiCGStab from x0; returns (x, iterations, residual).

    ``A`` is a StageOperator or a sparse matrix, ``M`` None (unpreconditioned)
    or the TangentPreconditioner of A's blocks.  BiCGStab starts from x0
    (zero when None; the caller's array is never written to) and runs
    within ``SolverConfig.iteration_budget``, with one restart: when it stops
    on its recursive residual but the true residual misses the target, it
    runs again from its iterate on the rest of the budget, and the
    iterations add up.  With M of a field m, the start first takes the
    normal component of rhs,
    x += m (m.(rhs - x)) / |m|^2: the solution's own when the blocks are
    P(m), since m.(P(m) v) = 0 (alpha P_t + beta J maps into the tangent
    plane), and within O(tau) of it for prk_alt's averaged blocks.  The
    returned residual is the true 2-norm residual, checked against
    max(rel_tol * ||rhs||, abs_tol).  Raises NonConvergenceError (with the
    last iterate) when it misses that target, and BreakdownError when the
    recurrence breaks down; both carry the iterations spent.
    """
    cfg = cfg or SolverConfig()
    rhs, target = _system(A, rhs, cfg)
    # the identity as a new array: _bicgstab scales what psolve returns in place
    psolve = np.copy if M is None else M
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float).reshape(rhs.shape)
    if M is not None:
        # blocks P(m) leave m.x = m.rhs (prk_alt's within O(tau)): start on it
        m, xv = M.m, x.reshape(3, -1)
        normal = np.einsum("ln,ln->n", m, rhs.reshape(3, -1) - xv)
        normal *= M.inv_len2
        xv += m * normal
    budget, iters = cfg.iteration_budget(rhs.size), 0
    for _ in range(2):
        info, spent = _bicgstab(A.dot, psolve, rhs, x, target, budget - iters)
        iters += spent
        if info < 0:
            raise BreakdownError(f"solver breakdown (scipy info={info})", iters)
        resid = _true_residual(A, x, rhs)
        # a recursive residual under the target can leave the true one over it:
        # restart once from x, within what is left of the budget
        if resid <= target or info != 0:
            break
    if not resid <= target:
        raise NonConvergenceError(x, resid, iters)
    return x, iters, resid


def direct_solve(A, rhs, cfg=None):
    """Solve A x = rhs by SuperLU on the assembled matrix (``tocsr``); returns (x, residual).

    Verified as ``solve`` is: raises BreakdownError on a singular factor and
    NonConvergenceError (with x) when the true residual misses the target.
    The first call in a process imports ``scipy.sparse.linalg`` (about 0.1 s,
    counted in the ``wall_ms`` of the step that falls back).
    """
    # imported on first use: a run that never falls back never loads it (9 MB)
    from scipy.sparse.linalg import splu

    cfg = cfg or SolverConfig()
    rhs, target = _system(A, rhs, cfg)
    try:
        x = splu(A.tocsr().tocsc()).solve(rhs)
    except RuntimeError as exc:       # "Factor is exactly singular"
        raise BreakdownError(f"SuperLU: {exc}") from exc
    resid = _true_residual(A, x, rhs)
    if not resid <= target:
        raise NonConvergenceError(x, resid, 0)
    return x, resid
