"""Uniform tensor meshes, discrete Laplacians, trapezoidal inner products.

Nodes include the boundary: K+1 per axis, spacing h = length/K, flattened
with the x index fastest.  Each face carries its own boundary condition:
homogeneous Neumann uses the ghost-free one-sided stencil rows (-2, 2), and
the rows of D_h at Dirichlet-fixed nodes are zero while the free rows keep
their couplings into them, so that D_h u is the full stencil action at the
free nodes of a field u that holds its boundary values.  Every field the
library builds does, and every stepper keeps them: its stage operators are
the identity on the zero rows.  A grid stores D_h once, as the diagonals
(DIA format) of the block-diagonal diag(D_h, D_h, D_h) over the stacked
(3, N) field, so that one banded product applies it to all three
components (``DiscreteLaplacian``).  ``laplacian`` fills those 2 dim + 1
diagonals one by one from the per-axis stencil.

Every Dirichlet face is a whole face, so the free nodes form a tensor
product and D_h on them is the Kronecker sum of the 1-D stencils restricted
to each axis's free indices.  Each such 1-D stencil is diagonalised exactly
(``_laplacian_eigenbasis``), so that ``shifted_laplacian_inverse`` applies
(d I - c D_h)^-1 to a field that vanishes on the Dirichlet nodes as a
transform per axis, a division and the inverse transforms.  It is the one
solver of this shifted system: the tangent-space preconditioner and the LM2
predictor both call it.

The discrete Dirichlet energy is the transverse-weighted sum of squared
nodal differences scaled by h^(dim-2); on Neumann grids it equals
(M, -D_h M)_h under the trapezoidal inner product (summation by parts).
Note this energy carries twice the scaling of the continuum functional
int 1/2 |grad m|^2; monotonicity statements are unaffected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

__all__ = [
    "NEUMANN",
    "Grid",
    "DiscreteLaplacian",
    "laplacian",
    "shifted_laplacian_inverse",
    "inner_product",
    "discrete_energy",
]

NEUMANN = "neumann"


class Grid:
    """Uniform tensor mesh on an axis-aligned box.

    faces: one entry per face in axis order (x_low, x_high, y_low, y_high,
    z_low, z_high), each either ``NEUMANN`` or a callable mapping the
    coordinates (n, dim) of the face's n nodes to their Dirichlet values
    (n, 3).  A node on several Dirichlet faces takes the value of the last of
    them in that order.  Dirichlet values are evaluated once at construction
    and reused bit-identically.
    """

    def __init__(self, dim, n_per_axis, h, origin=None, faces=None):
        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if n_per_axis < 2:
            raise ValueError("need at least two nodes per axis")
        if h <= 0:
            raise ValueError("spacing must be positive")
        self.dim = dim
        self.n_per_axis = int(n_per_axis)
        self.h = float(h)
        self.origin = tuple(origin) if origin is not None else (0.0,) * dim
        if faces is None:
            faces = (NEUMANN,) * (2 * dim)
        faces = tuple(faces)
        if len(faces) != 2 * dim:
            raise ValueError(f"faces must have {2 * dim} entries")
        self.faces = faces
        self.n_nodes = self.n_per_axis ** dim

        n = self.n_per_axis
        # per-axis node index, x fastest in the flattened order
        self._axis_index = np.indices(self.shape()).reshape(dim, -1)[::-1]
        self.coords = np.stack([self.origin[a] + self.h * self._axis_index[a]
                                for a in range(dim)], axis=1)

        fixed = np.zeros(self.n_nodes, dtype=bool)
        values = np.zeros((3, self.n_nodes))
        # face f is the low (f even) or high end of axis f // 2; a later face
        # overwrites the values of the nodes it shares with an earlier one
        for f, provider in enumerate(faces):
            if callable(provider):
                sel = self._axis_index[f // 2] == (n - 1) * (f % 2)
                fixed |= sel
                face_values = np.asarray(provider(self.coords[sel]), dtype=float)
                if face_values.shape != (sel.sum(), 3):
                    raise ValueError(f"the provider of face {f} must return (n, 3) values "
                                     f"for (n, dim) coordinates, got {face_values.shape}")
                values[:, sel] = face_values.T
        self.dirichlet_mask = fixed
        self.dirichlet_values = values

        w1 = np.ones(n)
        w1[0] = w1[-1] = 0.5
        # discrete_energy's terms along each axis of shape(): the slices of the
        # upper and lower nodes of a (3,) + shape() array and the weight, the
        # product of the other axes' trapezoid weights (1/2 or 1, so exact)
        self._energy_axes = []
        for a in range(dim):
            wt = np.ones((1,) * dim)
            for other in range(dim):
                if other != a:
                    wt = wt * w1.reshape([n if b == other else 1 for b in range(dim)])
            hi = tuple(slice(1, None) if b == a else slice(None) for b in range(dim))
            lo = tuple(slice(None, -1) if b == a else slice(None) for b in range(dim))
            self._energy_axes.append(((slice(None),) + hi, (slice(None),) + lo, wt))
        # sum_e w_e over discrete_energy's edges (n - 1 along each axis): for unit
        # vectors E = h^(dim-2) sum_e w_e (2 - 2 cos), so it sets the mean cosine
        self.edge_weight_sum = sum(float(wt.sum()) * (n - 1) for *_, wt in self._energy_axes)
        w = np.ones(self.n_nodes)
        for a in range(dim):
            w *= w1[self._axis_index[a]]
        self.trapezoid_weights = w
        self._laplacian = None
        self._eigenbasis = None
        self._shifted = None          # (key, function) of the last shifted_laplacian_inverse

    @property
    def k(self):
        return self.n_per_axis - 1

    def axis_stride(self, a):
        return self.n_per_axis ** a

    def node_index(self, multi):
        flat = 0
        for a in reversed(range(self.dim)):
            flat = flat * self.n_per_axis + multi[a]
        return flat

    def center_index(self):
        return self.node_index((self.k // 2,) * self.dim)

    def shape(self):
        """Reshape target (slowest axis first): (nz, ny, nx)."""
        return (self.n_per_axis,) * self.dim


@dataclass
class DiscreteLaplacian:
    """D_h with the boundary handling folded in, stored once for the stacked field.

    ``stacked`` is the block-diagonal 3N x 3N operator diag(D_h, D_h, D_h)
    as a DIA matrix, for a (3, N) field flattened to 3N: offsets ascending,
    each diagonal indexed by column and N wide per block, zero where it
    leaves its block.  D_h is the integer stencil scaled by 1/h^2; its rows
    at Dirichlet-fixed nodes are zero, and its columns there hold the free
    rows' couplings into them.

    scipy's DIA product adds each row up over the diagonals in their stored
    order, which with ascending offsets is the sorted-column order of a CSR
    product, and the padding adds exact zeros: one product of ``stacked`` is
    bit-identical to three CSR products of ``matrix``.
    """

    stacked: sparse.dia_matrix

    @property
    def matrix(self):
        """D_h as an N x N CSR matrix (sorted indices, no stored zeros), built on each access."""
        n = self.stacked.shape[0] // 3
        block = sparse.dia_matrix((self.stacked.data[:, :n], self.stacked.offsets), shape=(n, n))
        return block.tocsr()

    def apply(self, components):
        """D_h applied to each of the three components."""
        components = np.asarray(components)
        return (self.stacked @ components.reshape(-1)).reshape(components.shape)


def laplacian(grid):
    """Discrete Laplacian of the grid (memoized on the grid instance).

    The 2 dim + 1 diagonals of D_h are filled straight from the per-axis
    stencil: -2 dim on the main diagonal at the free nodes and, along each
    axis, a free node's couplings to its neighbours at -stride and +stride,
    fixed or free, weight 1 inside and 2 from a Neumann end (the one-sided
    row (-2, 2)).  Only diagonals with an entry are kept.
    """
    if grid._laplacian is not None:
        return grid._laplacian
    n, fixed = grid.n_per_axis, grid.dirichlet_mask
    diagonals = {} if fixed.all() else {0: np.where(fixed, 0.0, -2.0 * grid.dim)}
    for a, sign in [(a, -1) for a in reversed(range(grid.dim))] + [(a, 1) for a in range(grid.dim)]:
        offset = sign * grid.axis_stride(a)
        ai = grid._axis_index[a]
        # every free node but those on the end the offset points out of has a
        # neighbour there; the one-sided row on the other end weighs it 2
        one_sided, outer = (0, n - 1) if sign > 0 else (n - 1, 0)
        rows = np.flatnonzero(~fixed & (ai != outer))
        if rows.size:
            diagonals[offset] = np.zeros(grid.n_nodes)
            diagonals[offset][rows + offset] = np.where(ai[rows] == one_sided, 2.0, 1.0)
    offsets = sorted(diagonals)
    data = np.array([diagonals[o] for o in offsets]).reshape(len(offsets), grid.n_nodes)
    size = 3 * grid.n_nodes
    lap = DiscreteLaplacian(
        sparse.dia_matrix((np.tile(data, 3) * (1.0 / grid.h ** 2), offsets), shape=(size, size)))
    grid._laplacian = lap
    return lap


def _axis_eigenbasis(n, h, low_fixed, high_fixed):
    """(free slice, lambda, V, V^-1) of the scaled 1-D stencil on an axis's free indices.

    With m = n - 1, the eigenvectors are cosines (Neumann low end) or sines
    (Dirichlet low end) of theta j over the free indices j, with
    theta = pi k / m when both ends are alike and pi (k - 1/2) / m when they
    differ, and lambda = -4 sin^2(theta / 2) / h^2 (Strang, "The Discrete
    Cosine Transform", 1999).  The stencil is symmetric under the trapezoid
    weights W (1/2 at a Neumann end), so V^T W V is diagonal and
    V^-1 = (V^T W V)^-1 V^T W.
    """
    m = n - 1
    lo = 1 if low_fixed else 0
    hi = m - 1 if high_fixed else m
    j = np.arange(lo, hi + 1)
    if low_fixed == high_fixed:
        theta = np.pi * j / m
    else:
        theta = np.pi * (np.arange(1, m + 1) - 0.5) / m
    vecs = (np.sin if low_fixed else np.cos)(np.outer(j, theta))
    w = np.ones(j.size)
    if not low_fixed:
        w[0] = 0.5
    if not high_fixed:
        w[-1] = 0.5
    wv = w[:, None] * vecs
    inv = wv.T / np.einsum("jk,jk->k", wv, vecs)[:, None]
    return slice(lo, hi + 1), -4.0 * np.sin(theta / 2) ** 2 / h ** 2, vecs, inv


def _laplacian_eigenbasis(grid):
    """D_h on the free nodes as the Kronecker sum of per-axis eigendecompositions.

    Returns (free, mats, eigenvalues), memoized on the grid and built on
    first use.  Per axis, slowest first as in ``Grid.shape()``, ``free``
    holds the slice of the axis's free indices; with (1-D stencil) =
    V diag(lambda) V^-1 on them, ``mats`` holds every axis's V^-1 and then
    every axis's V.  ``eigenvalues`` holds the sums of the per-axis lambdas
    over the free-node shape, so that
    D_h = (V_z x V_y x V_x) diag(eigenvalues) (V_z x V_y x V_x)^-1 there.
    """
    if grid._eigenbasis is None:
        free, lams, vecs, inv = zip(*(
            _axis_eigenbasis(grid.n_per_axis, grid.h,
                             callable(grid.faces[2 * a]), callable(grid.faces[2 * a + 1]))
            for a in reversed(range(grid.dim))))
        grid._eigenbasis = (free, inv + vecs, functools.reduce(np.add.outer, lams))
    return grid._eigenbasis


def shifted_laplacian_inverse(grid, c, d=1.0):
    """(d I - c D_h)^-1 as a function that overwrites each row of a (n_comp, N) array.

    Exact on the free nodes: one V^-1 product per axis, a division by
    d - c (sum of the axis eigenvalues), one V product per axis.  With the
    default d = 1 the arithmetic is that of (I - c D_h)^-1 alone.  Nodes on
    Dirichlet faces are left as they are, since D_h has zero rows there, and
    their values are not read: this is (d I - c D_h)^-1 on rows that vanish
    there.  To solve (I - c D_h) x = u for rows u that hold boundary values
    u_b, add the couplings into them first: apply the function to
    u + c D_h u_b, with u_b zero on the free nodes
    (``lap.apply(np.where(fixed, u, 0.0))``).
    The rows must be C-contiguous; the function returns its argument.
    A complex c or d takes a real (2, n_comp, N) array instead, whose first
    part holds the real rows u; the second part is not read.  On return the
    two parts hold the real and imaginary parts of (d I - c D_h)^-1 u, with a
    zero imaginary part on Dirichlet nodes.  The V^-1 products run on the
    real rows alone, the division writes both parts, and each V product runs
    over both at once in real arithmetic.
    The grid keeps the function of the last (c, d) and returns it again for
    the same pair: the two stages of a PRK2 step share theirs.  Its callers
    then share its work buffers, so one grid's solves run one at a time.
    """
    key = (np.iscomplexobj(c) or np.iscomplexobj(d), c, d)
    if grid._shifted is not None and grid._shifted[0] == key:
        return grid._shifted[1]
    grid._shifted = None          # frees the last function's buffers before these are made
    free_nodes, mats, eigenvalues = _laplacian_eigenbasis(grid)
    dim, shape = grid.dim, grid.shape()
    inv_denom = 1.0 / (d - c * eigenvalues)
    complex_shift = np.iscomplexobj(inv_denom)
    # one component at a time, the dim V^-1 products alternate between two
    # free-node buffers from a into b first, and leave their result in scaled;
    # the dim V products alternate between two buffers from first into second
    a = np.empty(eigenvalues.shape)
    b = np.empty_like(a)
    forward = _transforms(mats[:dim], dim, a, b)
    scaled, spare = (b, a) if dim % 2 else (a, b)
    if complex_shift:
        re, im = np.ascontiguousarray(inv_denom.real), np.ascontiguousarray(inv_denom.imag)
        first = np.empty((2,) + eigenvalues.shape)
        second = np.empty_like(first)

        def divide():
            # x (re + i im) = x re + i x im
            np.multiply(scaled, re, out=first[0])
            np.multiply(scaled, im, out=first[1])
    else:
        first, second = scaled, spare

        def divide():
            np.multiply(scaled, inv_denom, out=scaled)
    backward = _transforms(mats[dim:], dim, first, second)
    result = second if dim % 2 else first
    lead = (2,) if complex_shift else ()
    real_free = (0,) * len(lead) + free_nodes
    out_free = (slice(None),) * len(lead) + free_nodes
    fixed = grid.dirichlet_mask if complex_shift and grid.dirichlet_mask.any() else None

    def solve(u):
        for l in range(u.shape[-2]):
            rows = u[..., l, :].reshape(lead + shape)
            np.copyto(a, rows[real_free])
            for x, y, out in forward:
                np.matmul(x, y, out=out)
            divide()
            for x, y, out in backward:
                np.matmul(x, y, out=out)
            np.copyto(rows[out_free], result)
        if fixed is not None:
            u[1][:, fixed] = 0.0
        return u

    grid._shifted = (key, solve)
    return solve


def _transforms(mats, dim, a, b):
    """np.matmul arguments (x, y, out) applying mats[i] along grid axis i % dim.

    a and b are C-contiguous and of the same shape, the dim grid axes last;
    a leading axis is batched through each product.  The products go from a
    into b, then from b into a, and so on.  The last (fastest) axis is
    multiplied from the right, by a C-ordered transpose.
    """
    shape = a.shape
    steps = []
    for i, mat in enumerate(mats):
        p = len(shape) - dim + i % dim
        lead, trail = math.prod(shape[:p]), math.prod(shape[p + 1:])
        if p == len(shape) - 1:
            rows = (lead, shape[p])
            steps.append((a.reshape(rows), np.ascontiguousarray(mat.T), b.reshape(rows)))
        else:
            batch = (lead, shape[p], trail)
            steps.append((mat, a.reshape(batch), b.reshape(batch)))
        a, b = b, a
    return tuple(steps)


def inner_product(u, v, grid):
    """Trapezoidal-rule inner product of two scalar node vectors, or of two
    (n, N) stacks of them: the n row products, each summed as a vector alone, in order."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim not in (1, 2) or u.shape[-1] != grid.n_nodes:
        raise ValueError(f"node vectors of shapes {u.shape} and {v.shape} do not match "
                         f"each other and the grid's {grid.n_nodes} nodes")
    rows = (grid.trapezoid_weights * u * v).reshape(-1, grid.n_nodes).sum(axis=1)
    return sum((grid.h ** grid.dim * rows).tolist())


def discrete_energy(field, grid=None):
    """Discrete Dirichlet energy: transverse-weighted squared differences.

    Accepts a vector field object (components, grid) or a (3, N) array plus
    the grid.
    """
    if grid is None:
        grid = field.grid
    comps = np.asarray(getattr(field, "components", field))
    n_comp = comps.shape[0]
    u = comps.reshape((n_comp,) + grid.shape())
    totals = np.zeros(n_comp)
    for hi, lo, weight in grid._energy_axes:
        d = np.subtract(u[hi], u[lo])
        np.multiply(d, d, out=d)
        np.multiply(d, weight, out=d)
        # a row sum adds each component's terms in the order of summing it alone
        totals += d.reshape(n_comp, -1).sum(axis=1)
    return grid.h ** (grid.dim - 2) * sum(totals.tolist())
