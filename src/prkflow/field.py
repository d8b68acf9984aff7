"""Three-component node fields, sphere projection, and the mobility operator P.

P(m) v = alpha (v - (m.v) m) + beta (m x v) per node, with m the normalized
direction.  Both terms use the normalized direction, which makes m.P(m)v = 0
hold pointwise by construction even when P is evaluated at intermediate
stage fields whose lengths deviate at solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VectorField",
    "ProjectionParams",
    "FieldDiagnostics",
    "ZeroLengthError",
    "normalize",
    "diagnostics",
    "projector_blocks",
    "apply_blocks",
]

ZERO_LENGTH_THRESHOLD = 1e-300


class ZeroLengthError(ArithmeticError):
    """A node has (numerically) zero length; carries the first offending index."""

    def __init__(self, node_index):
        super().__init__(f"zero-length vector at node {node_index}")
        self.node_index = node_index


class VectorField:
    """Three scalar components flattened over grid nodes (shape (3, N))."""

    def __init__(self, components, grid, on_sphere=False):
        components = np.ascontiguousarray(components, dtype=float)
        if components.shape != (3, grid.n_nodes):
            raise ValueError(
                f"components must have shape (3, {grid.n_nodes}), got {components.shape}")
        self.components = components
        self.grid = grid
        self.on_sphere = on_sphere

    def copy(self):
        return VectorField(self.components.copy(), self.grid, self.on_sphere)

    def lengths(self):
        return np.sqrt(np.einsum("ln,ln->n", self.components, self.components))


@dataclass(frozen=True)
class ProjectionParams:
    """Dissipative strength alpha > 0 and precession strength beta."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class FieldDiagnostics:
    min_length: float
    max_length: float
    max_unit_deviation: float


def _checked_lengths(M):
    lengths = M.lengths()
    if lengths.size == 0:
        raise ValueError("empty field")
    bad = lengths < ZERO_LENGTH_THRESHOLD
    if bad.any():
        raise ZeroLengthError(int(np.argmax(bad)))
    return lengths

def normalize(M):
    """Pointwise projection onto the unit sphere; output carries the on-sphere flag."""
    lengths = _checked_lengths(M)
    return VectorField(M.components / lengths, M.grid, on_sphere=True)


def diagnostics(M):
    """(min length, max length, max | |m| - 1 |) over nodes."""
    lengths = M.lengths()
    if lengths.size == 0:
        raise ValueError("empty field")
    return FieldDiagnostics(float(lengths.min()), float(lengths.max()),
                            float(np.abs(lengths - 1.0).max()))


def projector_blocks(Mdir, params):
    """Per-node 3x3 blocks of P(Mdir) as an array of shape (3, 3, N).

    Mdir is a VectorField; its directions mh are normalized pointwise.
    Block (l, m) holds the diagonal of the (l, m) sub-block of the 3N x 3N
    operator; the tangential part is alpha (I - mh mh^T), the precession part
    the cross-product matrix of beta*mh.
    """
    mh = Mdir.components / _checked_lengths(Mdir)
    alpha, beta = params.alpha, params.beta
    # (-alpha mh_l) mh_m, multiplied in the order of -alpha * mh[l] * mh[m]
    p = (-alpha * mh)[:, None, :] * mh[None, :, :]
    for l in range(3):
        p[l, l] += alpha
    if beta != 0.0:
        p[0, 1] -= beta * mh[2]
        p[0, 2] += beta * mh[1]
        p[1, 0] += beta * mh[2]
        p[1, 2] -= beta * mh[0]
        p[2, 0] -= beta * mh[1]
        p[2, 1] += beta * mh[0]
    return p


def apply_blocks(blocks, components):
    """Apply per-node 3x3 blocks to a (3, N) component array."""
    return np.einsum("lmn,mn->ln", blocks, components)
