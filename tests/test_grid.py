"""Stencils, boundary handling, inner products, and the energy identity."""

import numpy as np
import pytest
import scipy.sparse as sparse

from prkflow.field import VectorField
from prkflow.grid import Grid, NEUMANN, discrete_energy, inner_product, laplacian
from prkflow.harness import build_grid, build_initial, preset


def _neumann_grid(dim, k, length=1.0, origin=None):
    return Grid(dim, k + 1, length / k, origin=origin or (0.0,) * dim)


def _neumann_1d_stencil(n):
    """Reference 1-D Neumann stencil: rows (-2, 2) at both ends, (1, -2, 1) inside."""
    main = np.full(n, -2.0)
    lower = np.ones(n - 1)
    lower[-1] = 2.0
    upper = np.ones(n - 1)
    upper[0] = 2.0
    return sparse.diags([lower, main, upper], [-1, 0, 1], format="csr")


def _energy_per_component(comps, grid):
    """Reference energy: one component at a time, weights multiplied in axis order."""
    n = grid.n_per_axis
    w1 = np.ones(n)
    w1[0] = w1[-1] = 0.5
    grand = 0
    for l in range(comps.shape[0]):
        u = comps[l].reshape(grid.shape())
        total = 0.0
        for axis in range(grid.dim):
            d = np.diff(u, axis=axis)
            d = d * d
            for other in range(grid.dim):
                if other == axis:
                    continue
                shape = [1] * grid.dim
                shape[other] = n
                d = d * w1.reshape(shape)
            total += float(d.sum())
        grand += total
    return grid.h ** (grid.dim - 2) * grand


def energy_operator_form(field):
    """Reference energy (M, -D_h M)_h; equals the difference form on Neumann grids."""
    comps = field.components
    lap_m = laplacian(field.grid).apply(comps)
    return sum(inner_product(comps[l], -lap_m[l], field.grid) for l in range(3))


def test_neumann_1d_rows():
    g = laplacian(Grid(1, 3, 1.0)).matrix.toarray()
    assert np.array_equal(g, np.array([[-2.0, 2.0, 0.0],
                                       [1.0, -2.0, 1.0],
                                       [0.0, 2.0, -2.0]]))


def test_annihilates_constants_exactly():
    # with unit spacing the matrix is the integer stencil: exact on the ones vector
    for dim, k in ((1, 8), (2, 8), (3, 4), (2, 24), (2, 48)):
        grid = Grid(dim, k + 1, 1.0)
        lap = laplacian(grid)
        assert np.abs(lap.matrix @ np.ones(grid.n_nodes)).max() == 0.0
    # with dyadic spacing the scaled matrix is exact as well
    for dim, k in ((1, 8), (2, 8), (3, 4)):
        grid = _neumann_grid(dim, k)
        lap = laplacian(grid)
        assert np.abs(lap.matrix @ np.ones(grid.n_nodes)).max() == 0.0


def test_cosine_eigenfunction_accuracy():
    k = 128
    g = laplacian(Grid(1, k + 1, 1.0 / k)).matrix
    x = np.arange(k + 1) / k
    u = np.cos(np.pi * x)
    err = np.abs((g @ u) + np.pi ** 2 * u)[1:-1].max()
    assert err <= 5e-3


def test_kronecker_nonzero_count():
    k = 4
    grid = _neumann_grid(2, k)
    n = k + 1
    expected = 2 * n * (3 * n - 2) - n * n   # two kron terms overlapping on the diagonal
    lap = laplacian(grid)
    assert lap.matrix.nnz == expected
    assert np.diff(lap.matrix.indptr).max() <= 5


def test_neumann_stencil_is_kronecker_sum():
    # the nodewise assembly reproduces the Kronecker sum of 1-D stencils exactly
    for dim in (1, 2, 3):
        for n in (2, 5):
            g1 = _neumann_1d_stencil(n)
            expected = g1
            for _ in range(dim - 1):
                expected = sparse.kronsum(expected, g1)
            lap = laplacian(Grid(dim, n, 1.0))   # unit spacing: matrix == stencil
            assert np.array_equal(lap.matrix.toarray(), expected.toarray())
            assert not lap.bc_contribution.any()


def _anchor(x):
    # different values at each node and in each component, so that a
    # misplaced coupling into a fixed node shows in the forcing
    t = x.sum(axis=1)
    return np.stack([np.sin(t), np.cos(t), x[:, 0]], axis=1)


def _faces(kind, dim):
    if kind == "neumann":
        return (NEUMANN,) * (2 * dim)
    if kind == "dirichlet":
        return (_anchor,) * (2 * dim)
    if kind == "high-face":
        return (NEUMANN,) * (2 * dim - 1) + (_anchor,)
    # twisted_nematic44: Neumann sides, both ends of the last axis anchored
    return (NEUMANN,) * (2 * dim - 2) + (_anchor, _anchor)


@pytest.mark.parametrize("kind", ["neumann", "dirichlet", "high-face", "twisted-nematic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_apply_matches_per_component_csr(dim, kind, rng):
    # one banded product over the stacked field gives the bits of three CSR
    # products; a high Dirichlet face leaves the last columns of D_h empty,
    # and diagonals sized to the last non-empty column misalign the blocks
    grid = Grid(dim, 5, 0.3, faces=_faces(kind, dim))
    lap = laplacian(grid)
    u = rng.standard_normal((3, grid.n_nodes))
    d = lap.matrix
    expected = np.vstack([d @ u[l] for l in range(3)])
    assert np.array_equal(lap.apply_homogeneous(u), expected)
    assert np.array_equal(lap.apply(u), expected + lap.bc_contribution)


@pytest.mark.parametrize("kind", ["neumann", "high-face", "twisted-nematic"])
def test_laplacian_stores_one_stacked_dia_matrix(kind):
    grid = Grid(3, 4, 0.5, faces=_faces(kind, 3))
    lap = laplacian(grid)
    stored = [v for v in vars(lap).values() if sparse.issparse(v)]
    assert len(stored) == 1 and stored[0] is lap.stacked
    n = grid.n_nodes
    assert lap.stacked.format == "dia" and lap.stacked.shape == (3 * n, 3 * n)
    offsets = lap.stacked.offsets
    assert np.all(np.diff(offsets) > 0)
    assert lap.stacked.data.shape == (offsets.size, 3 * n)
    blocks = lap.stacked.data.reshape(offsets.size, 3, n)
    assert np.array_equal(blocks[:, 1], blocks[:, 0]) and np.array_equal(blocks[:, 2], blocks[:, 0])
    assert np.array_equal(lap.stacked.toarray(),
                          sparse.block_diag([lap.matrix] * 3).toarray())
    # the derived N x N matrix is canonical CSR without stored zeros
    d = lap.matrix
    assert d.format == "csr" and d.has_sorted_indices and np.all(d.data != 0.0)


def test_dirichlet_quadratic_exactness():
    # central differences are exact on quadratics; dyadic h keeps it exact in fp
    k = 4
    grid = Grid(3, k + 1, 1.0 / k, origin=(0.0, 0.0, 0.0),
                faces=tuple(lambda x: np.repeat((x ** 2).sum(axis=1)[:, None], 3, axis=1)
                            for _ in range(6)))
    lap = laplacian(grid)
    q = (grid.coords ** 2).sum(axis=1)
    out = lap.matrix @ q + lap.bc_contribution[0]
    interior = ~grid.dirichlet_mask
    assert np.array_equal(out[interior], np.full(interior.sum(), 6.0))
    assert np.abs(out[~interior]).max() == 0.0


def test_dirichlet_consistency_exact():
    # folded boundary action equals the full stencil action, bit for bit,
    # on dyadic-rational data (all arithmetic exact in double precision)
    rng = np.random.default_rng(7)
    k = 4
    vals = rng.integers(-8, 8, size=(3, (k + 1) ** 3)) * 0.125

    def provider(x):
        i, j, l = np.rint(x * k).astype(int).T
        return vals[:, i + (k + 1) * (j + (k + 1) * l)].T

    grid = Grid(3, k + 1, 1.0 / k, origin=(0.0, 0.0, 0.0), faces=(provider,) * 6)
    lap = laplacian(grid)
    u = vals.copy()

    # full stencil action computed independently on the reshaped array
    n = k + 1
    inv_h2 = float(k * k)
    for l in range(3):
        v = u[l].reshape(n, n, n)
        full = np.zeros_like(v)
        for axis in range(3):
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_in = [slice(None)] * 3
            sl_lo[axis] = slice(0, n - 2)
            sl_hi[axis] = slice(2, n)
            sl_in[axis] = slice(1, n - 1)
            contrib = np.zeros_like(v)
            contrib[tuple(sl_in)] = (v[tuple(sl_lo)] - 2.0 * v[tuple(sl_in)]
                                     + v[tuple(sl_hi)])
            full += contrib
        full *= inv_h2
        folded = lap.matrix @ u[l] + lap.bc_contribution[l]
        interior = ~grid.dirichlet_mask
        assert np.array_equal(folded[interior], full.reshape(-1)[interior])


def test_mixed_faces_neumann_and_dirichlet():
    # z faces Dirichlet, sides Neumann: constants with matching boundary data
    # are in the Laplacian's null space
    k = 4
    anchor = lambda x: np.tile([0.25, 0.5, -0.125], (len(x), 1))
    grid = Grid(3, k + 1, 1.0 / k, faces=(NEUMANN,) * 4 + (anchor, anchor))
    lap = laplacian(grid)
    comps = np.tile(np.array([0.25, 0.5, -0.125])[:, None], (1, grid.n_nodes))
    out = lap.apply(comps)
    assert np.abs(out).max() == 0.0
    # Dirichlet-fixed rows stay identically zero
    assert np.abs(out[:, grid.dirichlet_mask]).max() == 0.0


def test_later_face_owns_a_shared_node():
    # the corner (x_high, y_low) takes y_low's value, the later face in axis order
    k = 4
    x_high = lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1))
    y_low = lambda x: np.tile([0.0, 1.0, 0.0], (len(x), 1))
    grid = Grid(2, k + 1, 1.0 / k, faces=(NEUMANN, x_high, y_low, NEUMANN))
    corner = grid.node_index((k, 0))
    assert grid.dirichlet_mask[corner]
    assert np.array_equal(grid.dirichlet_values[:, corner], [0.0, 1.0, 0.0])
    side = grid.node_index((k, 2))
    assert np.array_equal(grid.dirichlet_values[:, side], [1.0, 0.0, 0.0])
    assert grid.dirichlet_mask.sum() == 2 * (k + 1) - 1


def test_provider_must_return_one_row_per_node():
    with pytest.raises(ValueError):
        Grid(2, 5, 0.25, faces=(lambda x: np.array([1.0, 0.0, 0.0]),) + (NEUMANN,) * 3)


def test_inner_product_constants_measure_domain():
    grid = _neumann_grid(2, 10)
    one = np.ones(grid.n_nodes)
    assert inner_product(one, one, grid) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_linear_exact():
    grid = _neumann_grid(1, 10)
    x = grid.coords[:, 0]
    assert inner_product(x, np.ones_like(x), grid) == pytest.approx(0.5, abs=1e-15)


def test_inner_product_bilinear(rng):
    grid = _neumann_grid(2, 6)
    u, w, v = rng.standard_normal((3, grid.n_nodes))
    a, b = 1.7, -0.3
    lhs = inner_product(a * u + b * w, v, grid)
    rhs = a * inner_product(u, v, grid) + b * inner_product(w, v, grid)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_inner_product_length_mismatch():
    grid = _neumann_grid(2, 4)
    with pytest.raises(ValueError):
        inner_product(np.ones(3), np.ones(3), grid)


def test_energy_constant_field_zero():
    grid = _neumann_grid(2, 8)
    comps = np.zeros((3, grid.n_nodes))
    comps[2] = 1.0
    assert discrete_energy(VectorField(comps, grid)) == 0.0


def test_energy_single_difference():
    grid = Grid(1, 2, 1.0)   # two nodes, h = 1
    comps = np.zeros((3, 2))
    comps[0] = [0.0, 1.0]
    assert discrete_energy(VectorField(comps, grid)) == 1.0


def test_energy_matches_per_component_reference(rng):
    # the vectorised energy keeps the per-component arithmetic order exactly
    for dim in (1, 2, 3):
        for n in (2, 3, 5):
            grid = Grid(dim, n, 1.0 / (n - 1))
            for _ in range(10):
                comps = rng.standard_normal((3, grid.n_nodes))
                assert discrete_energy(comps, grid) == _energy_per_component(comps, grid)
    cfg = preset("twisted_nematic44", k=6)
    m0 = build_initial(cfg, build_grid(cfg))
    assert discrete_energy(m0) == _energy_per_component(m0.components, m0.grid)


def test_summation_by_parts_identity(rng):
    for dim, k in ((2, 8), (3, 4)):
        grid = _neumann_grid(dim, k)
        comps = rng.standard_normal((3, grid.n_nodes))
        f = VectorField(comps, grid)
        a = discrete_energy(f)
        b = energy_operator_form(f)
        assert a == pytest.approx(b, rel=1e-12)


def test_weighted_self_adjointness(rng):
    for dim, k in ((2, 8), (3, 4)):
        grid = _neumann_grid(dim, k)
        lap = laplacian(grid)
        u, v = rng.standard_normal((2, grid.n_nodes))
        lhs = inner_product(lap.matrix @ u, v, grid)
        rhs = inner_product(u, lap.matrix @ v, grid)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 5, 0.1)
    with pytest.raises(ValueError):
        Grid(2, 1, 0.1)
    with pytest.raises(ValueError):
        Grid(2, 5, -0.1)
    with pytest.raises(ValueError):
        Grid(2, 5, 0.1, faces=(NEUMANN,) * 3)


def test_coordinates_and_center():
    grid = Grid(2, 5, 0.25, origin=(-0.5, -0.5))
    assert grid.coords[0] == pytest.approx([-0.5, -0.5])
    assert grid.coords[-1] == pytest.approx([0.5, 0.5])
    c = grid.center_index()
    assert grid.coords[c] == pytest.approx([0.0, 0.0])
