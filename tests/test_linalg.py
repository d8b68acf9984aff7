"""Matrix-free stage operator against its assembled form and a composition oracle,
and solver contracts, among them the in-place BiCGStab against scipy's, the
start guess and the verified SuperLU solve."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import prkflow.linalg as linalg
from prkflow.field import ProjectionParams, VectorField, normalize, projector_blocks
from prkflow.grid import Grid, laplacian
from prkflow.harness import build_grid, build_initial, preset, scheme_params
from prkflow.linalg import (BreakdownError, NonConvergenceError, SolverConfig,
                            StageOperator, TangentPreconditioner, direct_solve, solve)
from prkflow.tableau import prk2_tableau

from test_field import pointwise_p


def _setup(k, dim=2, seed=3):
    grid = Grid(dim, k + 1, 1.0 / k, origin=(-0.5,) * dim)
    rng = np.random.default_rng(seed)
    mdir = normalize(VectorField(rng.standard_normal((3, grid.n_nodes)), grid))
    return grid, mdir, rng


def _stage_matrix(grid, mdir, coeff, params):
    """I - coeff * P(mdir) * D_h, assembled (3N x 3N, CSR)."""
    return StageOperator(laplacian(grid), projector_blocks(mdir, params), coeff).tocsr()


def test_zero_coefficient_gives_identity():
    grid, mdir, _ = _setup(4)
    a = _stage_matrix(grid, mdir, 0.0, ProjectionParams(alpha=1.0, beta=1.0))
    eye = sparse.identity(3 * grid.n_nodes, format="csr")
    assert (a != eye).nnz == 0


def test_nonzero_count_matches_band_structure():
    # 2-D stage matrices: about 45 (K+1)^2 entries across 15 diagonals
    k = 24
    grid, mdir, _ = _setup(k)
    a = _stage_matrix(grid, mdir, 1e-4, ProjectionParams(alpha=1.0, beta=1.0))
    target = 45 * (k + 1) ** 2
    assert abs(a.nnz - target) <= 0.10 * target
    # every row touches the 3 component blocks with <= 5 stencil entries each
    assert np.diff(a.indptr).max() == 15


PARAMS = ProjectionParams(alpha=1.2, beta=-0.7)


def _neumann_2d(rng):
    grid, mdir, _ = _setup(8)
    return grid, projector_blocks(mdir, PARAMS), lambda dv: pointwise_p(mdir.components, dv, PARAMS)


def _twisted_nematic_faces(rng):
    # Neumann sides, Dirichlet anchoring at z = 0 and z = 1: the fixed rows of D are zero
    grid = build_grid(preset("twisted_nematic44", k=4))
    mdir = normalize(VectorField(rng.standard_normal((3, grid.n_nodes)), grid))
    return grid, projector_blocks(mdir, PARAMS), lambda dv: pointwise_p(mdir.components, dv, PARAMS)


def _prk_alt_projector_sum(rng):
    # the G-weighted average of two stage projectors that prk_alt solves with;
    # the sum is not itself a projector
    grid, m1, _ = _setup(8)
    m2 = normalize(VectorField(rng.standard_normal((3, grid.n_nodes)), grid))
    g = np.linalg.inv(prk2_tableau().D2)[1]
    blocks = g[0] * projector_blocks(m1, PARAMS) + g[1] * projector_blocks(m2, PARAMS)

    def apply(dv):
        return (g[0] * pointwise_p(m1.components, dv, PARAMS)
                + g[1] * pointwise_p(m2.components, dv, PARAMS))

    return grid, blocks, apply


@pytest.mark.parametrize("case", [_neumann_2d, _twisted_nematic_faces, _prk_alt_projector_sum],
                         ids=["neumann-2d", "twisted-nematic-faces-3d", "prk-alt-projector-sum"])
def test_matches_matrix_free_composition(case, rng):
    grid, blocks, apply_blocks_oracle = case(rng)
    coeff = 3.7e-4
    lap = laplacian(grid)
    op = StageOperator(lap, blocks, coeff)
    a = op.tocsr()
    v = rng.standard_normal((3, grid.n_nodes))
    dv = np.vstack([lap.matrix @ v[l] for l in range(3)])
    expected = v - coeff * apply_blocks_oracle(dv)
    got = (a @ v.reshape(-1)).reshape(3, -1)
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-13 * scale
    free = op.dot(v.reshape(-1))
    assert np.abs(free - a @ v.reshape(-1)).max() <= 1e-13 * scale
    # fixed nodes: identity rows in the assembled matrix, x passed through by the matvec
    fixed = np.tile(grid.dirichlet_mask, 3)
    if fixed.any():
        assert np.array_equal(free[fixed], v.reshape(-1)[fixed])
        assert np.array_equal(a[fixed].toarray(), np.eye(a.shape[0])[fixed])


@pytest.mark.parametrize("case", [_neumann_2d, _twisted_nematic_faces],
                         ids=["neumann-2d", "twisted-nematic-faces-3d"])
@pytest.mark.parametrize("solver", ["bicgstab", "superlu"])
def test_operator_keeps_the_laplacian_of_the_solution(case, solver, rng):
    # both solvers verify the solution last, so the operator's dx is D_h x,
    # bit for bit, and the norms are np.linalg.norm's
    grid, blocks, _ = case(rng)
    lap = laplacian(grid)
    op = StageOperator(lap, blocks, 3.7e-3)
    rhs = rng.standard_normal(op.shape[0])
    if solver == "bicgstab":
        x, _, resid = solve(op, rhs, x0=rhs)
    else:
        x, resid = direct_solve(op, rhs)
    assert np.array_equal(op.dx, lap.apply(x.reshape(3, -1)))
    assert resid == np.linalg.norm(op.dot(x) - rhs)


def test_identity_solve_immediate():
    n = 50
    eye = sparse.identity(n, format="csr")
    rhs = np.linspace(-1, 1, n)
    x, iters, resid = solve(eye, rhs)
    assert np.array_equal(x, rhs)
    assert iters <= 1
    assert resid == 0.0


def test_zero_rhs_solves_to_zero_without_iterating(rng):
    # whatever the start guess, as scipy's bicgstab returns for b = 0
    grid, mdir, _ = _setup(8)
    op = StageOperator(laplacian(grid), projector_blocks(mdir, ProjectionParams(1.0)), 0.1)
    rhs = np.zeros(op.shape[0])
    x, iters, resid = solve(op, rhs, x0=rng.standard_normal(op.shape[0]))
    assert np.array_equal(x, rhs) and iters == 0 and resid == 0.0


def test_stage_solve_meets_residual_contract(rng):
    grid, mdir, _ = _setup(16)
    a = _stage_matrix(grid, mdir, 3.2e-4, ProjectionParams(alpha=1.0, beta=1.0))
    rhs = rng.standard_normal(a.shape[0])
    rhs /= np.linalg.norm(rhs)
    cfg = SolverConfig(rel_tol=1e-10)
    x, _iters, resid = solve(a, rhs, cfg)
    true_resid = np.linalg.norm(a @ x - rhs)
    target = max(1e-10 * np.linalg.norm(rhs), cfg.abs_tol)
    assert resid <= target
    assert true_resid <= target


def test_against_dense_lu_oracle(rng):
    grid, mdir, _ = _setup(6)
    a = _stage_matrix(grid, mdir, 1e-3, ProjectionParams(alpha=1.0, beta=1.0))
    rhs = rng.standard_normal(a.shape[0])
    x_sparse, _, _ = solve(a, rhs)
    x_dense = np.linalg.solve(a.toarray(), rhs)
    assert np.abs(x_sparse - x_dense).max() <= 1e-9


def test_direct_path(rng):
    grid, mdir, _ = _setup(8)
    a = _stage_matrix(grid, mdir, 1e-3, ProjectionParams(alpha=1.0, beta=0.5))
    rhs = rng.standard_normal(a.shape[0])
    x, resid = direct_solve(a, rhs)
    assert np.linalg.norm(a @ x - rhs) <= max(1e-11 * np.linalg.norm(rhs), 1e-13)


def test_singular_factor_is_a_breakdown():
    a = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(BreakdownError, match="singular") as err:
        direct_solve(a, np.ones(2))
    assert err.value.iterations == 0


def test_superlu_residual_over_the_target_is_nonconvergence():
    # SuperLU on the 10 x 10 Hilbert matrix leaves a residual of about 1.7e-10,
    # over the target 1e-11 ||b|| = 3.2e-11
    n = 10
    i = np.arange(n)
    a = sparse.csr_matrix(1.0 / (i[:, None] + i[None, :] + 1.0))
    rhs = np.ones(n)
    with pytest.raises(NonConvergenceError) as err:
        direct_solve(a, rhs)
    target = 1e-11 * np.linalg.norm(rhs)
    assert err.value.residual > target and err.value.iterations == 0
    assert err.value.residual == np.linalg.norm(a @ err.value.best - rhs)


def test_bicgstab_breakdown_carries_its_iterations():
    # a nonsingular system whose BiCGStab recurrence breaks down (rho = 0) in
    # its second iteration; SuperLU solves it
    a = sparse.csr_matrix(np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1.0], [-2.0, -2.0, 1.0]]))
    rhs = np.array([-1.0, 0.0, 0.0])
    with pytest.raises(BreakdownError, match="info=-10") as err:
        solve(a, rhs)
    assert err.value.iterations == 1
    x, resid = direct_solve(a, rhs)
    assert resid <= 1e-11 * np.linalg.norm(rhs)


def test_solve_deterministic(rng):
    grid, mdir, _ = _setup(10)
    a = _stage_matrix(grid, mdir, 2e-4, ProjectionParams(alpha=1.0, beta=1.0))
    rhs = rng.standard_normal(a.shape[0])
    x1, i1, r1 = solve(a, rhs)
    x2, i2, r2 = solve(a, rhs)
    assert np.array_equal(x1, x2) and i1 == i2 and r1 == r2


def test_nonconvergence_carries_best_iterate():
    # the 1-D Dirichlet Laplacian on 2,000 nodes (condition number about 1.6e6)
    # takes unpreconditioned BiCGStab beyond its budget of 447 iterations
    n = 2000
    a = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                     format="csr")
    rhs = np.ones(n)
    with pytest.raises(NonConvergenceError) as err:
        solve(a, rhs)
    assert err.value.iterations == SolverConfig.iteration_budget(n) == 447
    assert err.value.residual == np.linalg.norm(a @ err.value.best - rhs)
    assert err.value.residual > 1e-11 * np.linalg.norm(rhs)


@pytest.mark.parametrize("second_round_meets", [True, False], ids=["meets", "misses"])
def test_solve_restarts_once_when_the_true_residual_misses(second_round_meets, monkeypatch):
    # a round that stops on its recursive residual (info 0) while the true
    # residual misses the target runs once more from its iterate, on the rest
    # of the budget; the iterations add up, and a second miss raises
    a = sparse.diags([2.0, 4.0]).tocsr()
    rhs = np.ones(2)
    budgets = []

    def early_stop(matvec, psolve, b, x, atol, maxiter):
        budgets.append(maxiter)
        if len(budgets) == 1 or not second_round_meets:
            return 0, 3          # x untouched: its true residual misses
        x[:] = [0.5, 0.25]
        return 0, 2

    monkeypatch.setattr(linalg, "_bicgstab", early_stop)
    budget = SolverConfig.iteration_budget(2)
    if second_round_meets:
        x, iters, resid = solve(a, rhs)
        assert np.array_equal(x, [0.5, 0.25]) and iters == 5 and resid == 0.0
    else:
        with pytest.raises(NonConvergenceError) as err:
            solve(a, rhs)
        assert err.value.iterations == 6
    assert budgets == [budget, budget - 3]


def test_zero_diagonal_solves_unpreconditioned():
    # a zero diagonal entry stops no solve: only stiff stages are preconditioned
    a = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x, _iters, resid = solve(a, np.ones(2), SolverConfig())
    assert np.array_equal(x, [1.0, 1.0]) and resid == 0.0


def test_solver_config_validation():
    # the relative tolerance is the only knob; the absolute floor is fixed
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["rel_tol"]
    assert SolverConfig().abs_tol == 1e-14
    for rel_tol in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            SolverConfig(rel_tol=rel_tol)


def test_rectangular_rejected():
    a = sparse.csr_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        solve(a, np.ones(3))


def _first_stage(preset_name, k, **overrides):
    """The first PRK2 stage operator of a preset's initial field, the field (3N)
    and the preconditioner the stage solve picks for it: the field's
    TangentPreconditioner at alignment 1 when the stage is stiff, else None."""
    cfg = preset(preset_name, k=k, **overrides)
    grid = build_grid(cfg)
    m = normalize(build_initial(cfg, grid))
    p = scheme_params(cfg, scheme="prk")
    tab = p.tableau
    coeff = p.tau * tab.A[0, 0] * tab.D2[0, 0]
    op = StageOperator(laplacian(grid), projector_blocks(m, p.projection), coeff)
    M = None
    if linalg._takes_tangent_preconditioner(grid, p.projection, coeff):
        M = TangentPreconditioner(m, p.projection, coeff, 1.0)
    return op, m.components.reshape(-1), M


@pytest.mark.parametrize("start", ["zero", "field"])
@pytest.mark.parametrize("preset_name, overrides, precond", [
    ("llg_blowup42", {}, "none"),
    ("twisted_nematic44", {}, "tangent"),
    ("llg_blowup42", {"tau": 2e-2}, "tangent"),       # beta = 1, stiff
], ids=["llg_blowup42-none", "twisted_nematic44-tangent", "llg_blowup42-beta1-tangent"])
def test_bicgstab_loop_is_scipys_bit_for_bit(preset_name, overrides, precond, start, rng):
    op, m, M = _first_stage(preset_name, 12, **overrides)
    assert isinstance(M, TangentPreconditioner) is (precond == "tangent")
    assert (M is None) is (precond == "none")
    rhs = m + 1e-2 * rng.standard_normal(m.shape)
    x0 = None if start == "zero" else m.copy()
    cfg = SolverConfig()
    budget = cfg.iteration_budget(rhs.shape[0])
    calls = [0]

    def count(_xk):
        calls[0] += 1
    # scipy gets the same kernels through LinearOperators, and no M for none
    A_ref = spla.LinearOperator(op.shape, matvec=op.dot, dtype=float)
    M_ref = (spla.LinearOperator(op.shape, matvec=M, dtype=float)
             if precond == "tangent" else None)
    ref, ref_info = spla.bicgstab(A_ref, rhs, x0=x0, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                                  maxiter=budget, M=M_ref, callback=count)
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    target = max(cfg.rel_tol * np.linalg.norm(rhs), cfg.abs_tol)
    info, iters = linalg._bicgstab(op.dot, np.copy if M is None else M, rhs, x, target, budget)
    assert np.array_equal(x, ref)
    assert info == ref_info == 0
    assert iters == calls[0] > 0


def test_start_guess_meeting_the_target_takes_no_iteration(rng):
    op, m, _M = _first_stage("llg_blowup42", 12)
    rhs = m + 1e-2 * rng.standard_normal(m.shape)
    x, iters, resid = solve(op, rhs)
    assert iters > 0
    x0 = x.copy()
    again, iters, resid_again = solve(op, rhs, x0=x0)
    assert iters == 0
    assert np.array_equal(again, x) and resid_again == resid
    assert np.array_equal(x0, x)
    again[:] = 0.0
    assert np.array_equal(x0, x)


@pytest.mark.parametrize("preset_name, k, stiff", [
    ("twisted_nematic44", 8, True),
    ("llg_blowup42", 12, False),
], ids=["twisted_nematic44-tangent", "llg_blowup42-none"])
def test_tangent_start_takes_the_normal_component(preset_name, k, stiff, monkeypatch, rng):
    # blocks P(m) leave m.x = m.rhs, so a tangent-preconditioned solve starts
    # on rhs's normal component; an unpreconditioned one starts from x0 itself
    op, m, M = _first_stage(preset_name, k)
    assert isinstance(M, TangentPreconditioner) is stiff
    starts = []
    bicgstab = linalg._bicgstab

    def capture(matvec, psolve, b, x, atol, maxiter):
        starts.append(x.copy())
        return bicgstab(matvec, psolve, b, x, atol, maxiter)

    monkeypatch.setattr(linalg, "_bicgstab", capture)
    rhs = m
    x0 = rhs + 1e-2 * rng.standard_normal(rhs.shape)
    solve(op, rhs, x0=x0, M=M)
    (start,) = starts
    if stiff:
        field = m.reshape(3, -1)
        normal = np.einsum("ln,ln->n", field, (start - rhs).reshape(3, -1))
        assert np.abs(normal).max() <= 1e-13 * np.abs(rhs).max()
    else:
        assert np.array_equal(start, x0)
