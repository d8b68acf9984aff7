"""Uniform tensor meshes, discrete Laplacians, trapezoidal inner products.

Nodes include the boundary: K+1 per axis, spacing h = length/K, flattened
with the x index fastest.  Each face carries its own boundary condition:
homogeneous Neumann uses the ghost-free one-sided stencil rows (-2, 2), and
Dirichlet faces are eliminated from the operator (zero rows and columns) with
the known boundary values folded into a forcing vector, so that
``D_h u_l + bc_contribution[l]`` reproduces the full stencil action at the
remaining nodes.  A grid stores D_h once, as the diagonals (DIA format) of
the block-diagonal diag(D_h, D_h, D_h) over the stacked (3, N) field, so
that one banded product applies it to all three components
(``DiscreteLaplacian``).

Every Dirichlet face is a whole face, so the free nodes form a tensor
product and D_h on them is the Kronecker sum of the 1-D stencils restricted
to each axis's free indices.  Each such 1-D stencil is diagonalised exactly
(``_laplacian_eigenbasis``), so that ``shifted_laplacian_inverse`` applies
(I - c D_h)^-1 as a transform per axis, a division and the inverse
transforms.  It is the one solver of this shifted system: the tangent-space
preconditioner and the LM2 predictor both call it.

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
        axes = [self.origin[a] + self.h * np.arange(n) for a in range(dim)]
        # multi-index arrays, x fastest in the flattened order
        grids = np.meshgrid(*axes[::-1], indexing="ij")  # (z, y, x) order
        self.coords = np.stack([g.reshape(-1) for g in grids[::-1]], axis=1)

        idx = [np.arange(n)] * dim
        mesh = np.meshgrid(*idx[::-1], indexing="ij")
        self._axis_index = [m.reshape(-1) for m in mesh[::-1]]  # per-axis node index

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
        w = np.ones(self.n_nodes)
        for a in range(dim):
            w *= w1[self._axis_index[a]]
        self.trapezoid_weights = w
        self._laplacian = None
        self._eigenbasis = None

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
    and columns at Dirichlet-fixed nodes are zero, and ``bc_contribution``
    (3, N) carries the couplings into the fixed nodes times their boundary
    values, so applying the operator to a vector field u is
    D_h u_l + bc_contribution[l] for each component l.

    scipy's DIA product adds each row up over the diagonals in their stored
    order, which with ascending offsets is the sorted-column order of a CSR
    product, and the padding adds exact zeros: one product of ``stacked`` is
    bit-identical to three CSR products of ``matrix``.
    """

    stacked: sparse.dia_matrix
    bc_contribution: np.ndarray

    @property
    def matrix(self):
        """D_h as an N x N CSR matrix (sorted indices, no stored zeros), built on each access."""
        n = self.stacked.shape[0] // 3
        block = sparse.dia_matrix((self.stacked.data[:, :n], self.stacked.offsets), shape=(n, n))
        return block.tocsr()

    def apply_homogeneous(self, components):
        """D_h applied to each of the three components, without the boundary forcing."""
        components = np.asarray(components)
        return (self.stacked @ components.reshape(-1)).reshape(components.shape)

    def apply(self, components):
        out = self.apply_homogeneous(components)
        out += self.bc_contribution
        return out


def _assemble_stencil(grid):
    """Nodewise integer-stencil assembly, for any mix of face conditions.

    Returns (stencil, coupling): the (rows, cols, vals) couplings among free
    nodes, unscaled and with one diagonal entry per axis, and the couplings
    into Dirichlet-fixed nodes as an unscaled CSR matrix; without a
    Dirichlet face the coupling is empty.
    """
    n = grid.n_per_axis
    fixed = grid.dirichlet_mask
    rows, cols, vals = [], [], []

    nodes = np.arange(grid.n_nodes)
    free = nodes[~fixed]
    for a in range(grid.dim):
        stride = grid.axis_stride(a)
        ai = grid._axis_index[a][free]
        at_low = ai == 0
        at_high = ai == n - 1
        interior = ~(at_low | at_high)
        # one-sided Neumann rows (Dirichlet ends cannot occur on free nodes)
        for mask, sgn in ((at_low, +1), (at_high, -1)):
            r = free[mask]
            rows.extend([r, r])
            cols.extend([r, r + sgn * stride])
            vals.extend([np.full(r.size, -2.0), np.full(r.size, 2.0)])
        r = free[interior]
        rows.extend([r, r, r])
        cols.extend([r - stride, r, r + stride])
        vals.extend([np.ones(r.size), np.full(r.size, -2.0), np.ones(r.size)])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    into_fixed = fixed[cols]
    coupling = sparse.csr_matrix(
        (vals[into_fixed], (rows[into_fixed], cols[into_fixed])),
        shape=(grid.n_nodes, grid.n_nodes))
    keep = ~into_fixed
    return (rows[keep], cols[keep], vals[keep]), coupling


def _stacked_diagonals(n, rows, cols, vals):
    """(offsets, data) of diag(S, S, S) in DIA form, S the n x n sum of the (rows, cols, vals) entries.

    Filled straight from the entries, N wide per block: a COO or CSR
    ``todia()`` sizes the data to the last non-empty column, which misaligns
    the tiled blocks when the last nodes are fixed.  The entries are small
    integers, so the order in which duplicates are summed does not matter.
    """
    offsets, diagonal = np.unique(cols - rows, return_inverse=True)
    data = np.bincount(diagonal * n + cols, weights=vals, minlength=offsets.size * n)
    return offsets, np.tile(data.reshape(offsets.size, n), 3)


def laplacian(grid):
    """Discrete Laplacian of the grid (memoized on the grid instance)."""
    if grid._laplacian is not None:
        return grid._laplacian
    scaling = 1.0 / grid.h ** 2
    (rows, cols, vals), coupling = _assemble_stencil(grid)
    scaled_coupling = (coupling * scaling).tocsr()
    bc = np.vstack([scaled_coupling @ grid.dirichlet_values[l] for l in range(3)])
    offsets, data = _stacked_diagonals(grid.n_nodes, rows, cols, vals)
    size = 3 * grid.n_nodes
    lap = DiscreteLaplacian(sparse.dia_matrix((data * scaling, offsets), shape=(size, size)), bc)
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


def shifted_laplacian_inverse(grid, c):
    """(I - c D_h)^-1 as a function that overwrites each row of a (n_comp, N) array.

    Exact on the free nodes: one V^-1 product per axis, a division by
    1 - c (sum of the axis eigenvalues), one V product per axis.  Nodes on
    Dirichlet faces are left as they are, since D_h has zero rows and columns
    there.  The rows must be C-contiguous; the function returns its argument.
    A complex c takes a real (2, n_comp, N) array instead, the real and
    imaginary parts of the rows: each product then runs over both parts at
    once in real arithmetic, and only the division is complex.
    """
    free_nodes, mats, eigenvalues = _laplacian_eigenbasis(grid)
    shape = grid.shape()
    inv_denom = 1.0 / (1.0 - c * eigenvalues)
    complex_shift = np.iscomplexobj(inv_denom)
    lead = (2,) if complex_shift else ()
    free_index = (slice(None),) * len(lead) + free_nodes
    # one component at a time, the 2 dim products alternate between two
    # free-node buffers (with a leading real/imaginary axis for a complex c),
    # from a into b first and, an even count, into a last
    a = np.empty(lead + eigenvalues.shape)
    b = np.empty_like(a)
    steps = _transforms(mats, grid.dim, a, b)
    forward, backward = steps[:grid.dim], steps[grid.dim:]
    scaled = b if grid.dim % 2 else a
    if complex_shift:
        re, im = np.ascontiguousarray(inv_denom.real), np.ascontiguousarray(inv_denom.imag)
        swapped = np.empty_like(scaled)

        def divide():
            # (x + i y)(re + i im) = (x re - y im) + i (y re + x im)
            np.multiply(scaled[::-1], im, out=swapped)
            np.multiply(scaled, re, out=scaled)
            scaled[0] -= swapped[0]
            scaled[1] += swapped[1]
    else:
        def divide():
            np.multiply(scaled, inv_denom, out=scaled)

    def solve(u):
        for l in range(u.shape[-2]):
            free = u[..., l, :].reshape(lead + shape)[free_index]
            np.copyto(a, free)
            for x, y, out in forward:
                np.matmul(x, y, out=out)
            divide()
            for x, y, out in backward:
                np.matmul(x, y, out=out)
            np.copyto(free, a)
        return u

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
    """Trapezoidal-rule inner product of two scalar node vectors."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (grid.n_nodes,) or v.shape != (grid.n_nodes,):
        raise ValueError("node vector length does not match the grid")
    return grid.h ** grid.dim * float(np.sum(grid.trapezoid_weights * u * v))


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
