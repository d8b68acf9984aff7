"""Absolute stability of product IMEX-RK tableaux via the additive embedding.

On the three-parameter test equation u' = (lambda0 + lambda1 + lambda2) u,
with lambda0 stiff (implicit) and lambda1, lambda2 non-stiff (explicit), the
product scheme reduces to an (s+1)-stage additive IMEX-RK method.  The
amplification factor

    R(z0, z1, z2) = 1 + (z0 bh + z1 b1 + z2 b2)^T (I - z0 Ah - z1 A1 - z2 A2)^{-1} 1

defines the stability function; the explicit-part region S_alpha collects the
(z1, z2) for which |R| <= 1 whenever z0 lies in the wedge A_alpha, reduced to
its boundary rays z0 = -|y|/tan(alpha) + iy by the maximum-modulus principle.

The embedded stage matrix of a diagonally implicit tableau is lower
triangular, so R has one evaluator: a forward substitution vectorized over
explicit-plane points, used for a single point by ``stability_function`` and
for a window of the z1 plane (z2 = 0) by ``sample_region``.  A tableau whose
embedded stage matrices are not lower triangular (one that
``tableau.validate`` rejects) is refused with ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdditiveEmbedding",
    "RegionWindow",
    "RegionSample",
    "SingularSystemError",
    "embed",
    "stability_function",
    "default_y_samples",
    "default_z0_samples",
    "sample_region",
]


class SingularSystemError(ArithmeticError):
    """Stage matrix singular (by diagonal magnitude) at the given (z0, z1, z2)."""

    def __init__(self, z0, z1, z2):
        super().__init__(f"singular stage matrix at z0={z0}, z1={z1}, z2={z2}")
        self.z_triple = (z0, z1, z2)


@dataclass(frozen=True)
class AdditiveEmbedding:
    """(s+1)-stage additive tableaux of the embedded IMEX-RK scheme.

    a_hat carries the stiff coupling A*D2 acting on current stages
    (zero first row and first column); a1, a2 carry A*D1, A*D2 acting on
    lagged stages (zero first row and last column).
    """

    a_hat: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b_hat: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


def embed(t):
    """Additive IMEX embedding of a product tableau (stiff averaging = D2)."""
    s = t.s
    n = s + 1
    a_hat = np.zeros((n, n))
    a_hat[1:, 1:] = t.A @ t.D2
    a1 = np.zeros((n, n))
    a1[1:, :s] = t.A @ t.D1
    a2 = np.zeros((n, n))
    a2[1:, :s] = t.A @ t.D2
    b_hat = np.concatenate([[0.0], t.D2.T @ t.b])
    b1 = np.concatenate([t.D1.T @ t.b, [0.0]])
    b2 = np.concatenate([t.D2.T @ t.b, [0.0]])
    return AdditiveEmbedding(a_hat, a1, a2, b_hat, b1, b2)


def _embedding_of(t):
    e = embed(t)
    if any(np.triu(m, k=1).any() for m in (e.a_hat, e.a1, e.a2)):
        raise ValueError("embedded stage matrices are not lower triangular; "
                         "the tableau must be diagonally implicit")
    return e


def stability_function(t, z0, z1=0.0, z2=0.0):
    """Evaluate R(z0, z1, z2); SingularSystemError at a vanishing stage diagonal."""
    R, singular = _sweep_lower_triangular(_embedding_of(t), z0, np.array([z1], dtype=complex),
                                          np.array([z2], dtype=complex))
    if singular[0]:
        raise SingularSystemError(z0, z1, z2)
    return complex(R[0])


_Y_MIN, _Y_MAX = 1e-3, 1e3
_STIFF_LIMIT = 1e6


def default_y_samples(n=129):
    """n logarithmically spaced boundary-ray ordinates in [_Y_MIN, _Y_MAX], both signs."""
    mags = np.logspace(math.log10(_Y_MIN), math.log10(_Y_MAX), n)
    return np.concatenate([-mags[::-1], mags])


def default_z0_samples(alpha, y_samples):
    """Stiff samples on the wedge boundary rays plus the z0 -> -inf limit (-_STIFF_LIMIT).

    The wedge A_alpha is defined for 0 < alpha <= pi/2; other values raise ValueError.
    """
    if not 0.0 < alpha <= math.pi / 2:
        raise ValueError(f"alpha must lie in (0, pi/2], got {alpha!r}")
    y = np.asarray(y_samples, dtype=float)
    if y.size == 0:
        raise ValueError("y_samples must be nonempty")
    if abs(alpha - math.pi / 2) < 1e-14:
        z0 = 1j * y
    else:
        z0 = -np.abs(y) / math.tan(alpha) + 1j * y
    return np.concatenate([z0, [complex(-_STIFF_LIMIT)]])


@dataclass(frozen=True)
class RegionWindow:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"window bounds must be finite, got {bounds!r}")
        if not (self.nx >= 1 and self.ny >= 1):
            raise ValueError(f"window resolution must be at least 1 x 1, "
                             f"got {self.nx!r} x {self.ny!r}")

    def grid(self):
        re = np.linspace(self.re_min, self.re_max, self.nx)
        im = np.linspace(self.im_min, self.im_max, self.ny)
        return re, im


@dataclass(frozen=True)
class RegionSample:
    window: RegionWindow
    alpha: float
    y_samples: np.ndarray
    mask: np.ndarray        # (nx, ny) bool, True = inside S_alpha
    max_abs_r: np.ndarray   # (nx, ny) max |R| over the sampled z0 rays
    flagged: np.ndarray     # (nx, ny) bool, singular solve encountered


_SINGULAR_TOL = 1e-14
_INSIDE_TOL = 1e-12


def _sweep_lower_triangular(e, z0, Z1, Z2):
    """R for one stiff sample over flattened explicit-plane points.

    Forward substitution on the lower-triangular embedded stage matrix,
    vectorized over the points.  A stage diagonal within _SINGULAR_TOL
    max(1, |z0 a_hat_ii|) of zero is singular.  Returns (R, singular_mask);
    R is not meaningful where the mask is set.
    """
    n = e.a_hat.shape[0]
    npts = Z1.shape[0]
    w = np.empty((n, npts), dtype=complex)
    singular = np.zeros(npts, dtype=bool)
    for i in range(n):
        rhs = np.ones(npts, dtype=complex)
        for j in range(i):
            mij = -(z0 * e.a_hat[i, j] + Z1 * e.a1[i, j] + Z2 * e.a2[i, j])
            rhs -= mij * w[j]
        mii = 1.0 - (z0 * e.a_hat[i, i] + Z1 * e.a1[i, i] + Z2 * e.a2[i, i])
        scale = max(1.0, abs(z0) * abs(e.a_hat[i, i]))
        bad = np.abs(mii) <= _SINGULAR_TOL * scale
        singular |= bad
        w[i] = np.where(bad, 0.0, rhs / np.where(bad, 1.0, mii))
    R = 1.0 + z0 * (e.b_hat @ w) + Z1 * (e.b1 @ w) + Z2 * (e.b2 @ w)
    return R, singular


def sample_region(t, window, alpha=math.pi / 2, y_samples=None):
    """Sample the explicit-part stability region over a rectangular window.

    Each grid point z is inside iff |R(z0, z, 0)| <= 1 + _INSIDE_TOL for every
    stiff boundary sample z0 of the wedge A_alpha, 0 < alpha <= pi/2.
    Singular solves mark the point outside and flagged.
    """
    if y_samples is None:
        y_samples = default_y_samples()
    y_samples = np.asarray(y_samples, dtype=float)
    z0s = default_z0_samples(alpha, y_samples)
    e = _embedding_of(t)
    re, im = window.grid()
    Z = (re[:, None] + 1j * im[None, :]).reshape(-1)
    Z2 = np.zeros_like(Z)

    max_abs = np.zeros(Z.shape[0])
    flagged = np.zeros(Z.shape[0], dtype=bool)
    for z0 in z0s:
        R, singular = _sweep_lower_triangular(e, z0, Z, Z2)
        flagged |= singular
        np.maximum(max_abs, np.where(singular, np.inf, np.abs(R)), out=max_abs)

    inside = (max_abs <= 1.0 + _INSIDE_TOL) & ~flagged
    shape = (window.nx, window.ny)
    return RegionSample(window, alpha, y_samples, inside.reshape(shape),
                        max_abs.reshape(shape), flagged.reshape(shape))
