"""Tangent-space spectral preconditioner of the single-field stage solves.

Its scalar S^-1 = (I - coeff alpha D_h)^-1 (``grid.shifted_laplacian_inverse``)
against a sparse direct solve, the whole M^-1 against the stage operator on
a uniform field, where it is exact, where BiCGStab selects it (stages of
prk, sip1 and bdf4_ref from the stiffness coeff |alpha + i beta| 4 dim / h^2
= 1.5 on), how many iterations it saves, and the structure theorem and the
SuperLU oracle (``linalg.direct_solve``) on the runs that use it.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import prkflow.integrators as integrators
import prkflow.linalg as linalg
from prkflow.field import ProjectionParams, VectorField, normalize, projector_blocks
from prkflow.grid import NEUMANN, Grid, discrete_energy, laplacian, shifted_laplacian_inverse
from prkflow.harness import build_grid, build_initial, preset, scheme_params
from prkflow.integrators import run
from prkflow.linalg import StageOperator, TangentBlocks, TangentPreconditioner, solve


def _anchor(x):
    return np.tile([0.0, 0.6, 0.8], (len(x), 1))


def _faces(kind, dim):
    if kind == "neumann":
        return (NEUMANN,) * (2 * dim)
    if kind == "dirichlet":
        return (_anchor,) * (2 * dim)
    if kind == "twisted-nematic":
        # Neumann sides, both ends of the last axis anchored
        return (NEUMANN,) * (2 * dim - 2) + (_anchor, _anchor)
    # the first axis anchored at its low end only
    return (_anchor, NEUMANN) + (NEUMANN,) * (2 * dim - 2)


@pytest.mark.parametrize("kind", ["neumann", "dirichlet", "twisted-nematic",
                                  "dirichlet-low-neumann-high"])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shifted_solve_is_exact(dim, n, kind, rng):
    grid = Grid(dim, n, 1.0 / (n - 1), faces=_faces(kind, dim))
    lap = laplacian(grid)
    alpha, coeff = 1.3, 0.7
    u = rng.standard_normal((3, grid.n_nodes))
    got = shifted_laplacian_inverse(grid, coeff * alpha)(u.copy())

    free = ~grid.dirichlet_mask
    if n == 2 and kind == "dirichlet":
        assert not free.any()
    s = sparse.identity(grid.n_nodes, format="csr") - coeff * alpha * lap.matrix
    s_free = s[free][:, free].tocsc()
    for l in range(3):
        assert np.array_equal(got[l, ~free], u[l, ~free])
        if free.any():
            ref = np.atleast_1d(spla.spsolve(s_free, u[l, free]))
            assert np.abs(got[l, free] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["neumann", "dirichlet", "twisted-nematic",
                                  "dirichlet-low-neumann-high"])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_complex_shifted_solve_is_exact(dim, n, kind, rng):
    # a complex shift takes the real and imaginary parts as a (2, 3, N) array
    grid = Grid(dim, n, 1.0 / (n - 1), faces=_faces(kind, dim))
    lap = laplacian(grid)
    c = 0.7 * complex(1.3, -0.9)
    parts = rng.standard_normal((2, 3, grid.n_nodes))
    solved = shifted_laplacian_inverse(grid, c)(parts.copy())
    u, got = parts[0] + 1j * parts[1], solved[0] + 1j * solved[1]

    free = ~grid.dirichlet_mask
    s = sparse.identity(grid.n_nodes, format="csr", dtype=complex) - c * lap.matrix
    s_free = s[free][:, free].tocsc()
    for l in range(3):
        assert np.array_equal(got[l, ~free], u[l, ~free])
        if free.any():
            ref = np.atleast_1d(spla.spsolve(s_free, u[l, free]))
            assert np.abs(got[l, free] - ref).max() <= 1e-12 * np.abs(ref).max()


def _count_builds(monkeypatch):
    """Counters of preconditioner builds, of the steppers' solve calls and of
    those among them whose operator is stiff enough for the preconditioner."""
    counts = {"builds": 0, "solves": 0, "stiff": 0}

    class Counting(TangentPreconditioner):
        def __init__(self, A):
            counts["builds"] += 1
            super().__init__(A)

    def counting_solve(A, rhs, cfg=None, x0=None):
        counts["solves"] += 1
        if A.tangent is not None and linalg._stiffness(A) >= linalg._TANGENT_MIN_STIFFNESS:
            counts["stiff"] += 1
        return solve(A, rhs, cfg, x0)

    monkeypatch.setattr(linalg, "TangentPreconditioner", Counting)
    monkeypatch.setattr(integrators, "solve", counting_solve)
    return counts


def _steps(preset_name, scheme, n_steps, **overrides):
    cfg = preset(preset_name, **overrides)
    grid = build_grid(cfg)
    p = scheme_params(cfg, scheme=scheme)
    final, trace = run(build_initial(cfg, grid), p, n_steps * p.tau)
    assert trace.failure is None and len(trace) == n_steps
    return final, trace


def _prk_stiffness(cfg):
    """coeff alpha 4 dim / h^2 of the PRK2 stages (coeff = tau in both)."""
    return cfg.tau * cfg.alpha * 4.0 * cfg.dim / cfg.h ** 2


@pytest.mark.parametrize("beta", [0.0, 0.8])
@pytest.mark.parametrize("kind", ["neumann", "twisted-nematic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_uniform_field_preconditioner_is_the_exact_inverse(dim, kind, beta, rng):
    # with mh constant, P commutes with D_h and M^-1 A = I
    grid = Grid(dim, 5, 0.25, faces=_faces(kind, dim))
    mdir = normalize(VectorField(np.tile([[0.3], [-0.5], [0.8]], grid.n_nodes), grid))
    projection = ProjectionParams(1.3, beta)
    op = StageOperator(laplacian(grid), projector_blocks(mdir, projection), 0.7,
                       TangentBlocks(mdir, projection))
    x = rng.standard_normal(op.shape[0])
    got = TangentPreconditioner(op)(op.dot(x))
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


def test_selection_threshold():
    grid = Grid(3, 5, 0.25)
    mdir = normalize(VectorField(np.ones((3, grid.n_nodes)), grid))
    for projection in (ProjectionParams(1.0), ProjectionParams(0.6, 0.8)):
        blocks = projector_blocks(mdir, projection)
        # |alpha + i beta| = 1 in both
        edge = linalg._TANGENT_MIN_STIFFNESS / (4.0 * 3 / 0.25 ** 2)
        for coeff, spectral in ((edge, True), (edge * (1 - 1e-9), False)):
            op = StageOperator(laplacian(grid), blocks, coeff, TangentBlocks(mdir, projection))
            assert isinstance(linalg._preconditioner(op), TangentPreconditioner) is spectral
        plain = StageOperator(laplacian(grid), blocks, 10 * edge)
        assert not isinstance(linalg._preconditioner(plain), TangentPreconditioner)


@pytest.mark.parametrize("scheme", ["prk", "sip1", "bdf4_ref"])
def test_stiff_beta0_stages_build_one_preconditioner_per_solve(scheme, monkeypatch):
    counts = _count_builds(monkeypatch)
    # k = 8: stiffness 3.84 at tau; bdf4_ref's three start-up steps of ten PRK
    # sub-steps at tau/10 (0.38) keep Jacobi, its two BDF4 steps (1.84) do not
    _steps("twisted_nematic44", scheme, 5, k=8)
    assert counts["stiff"] > 0
    assert counts["builds"] == counts["stiff"]
    if scheme == "bdf4_ref":
        assert counts["solves"] > counts["stiff"]


@pytest.mark.parametrize("preset_name, scheme, overrides, builds_per_solve", [
    ("twisted_nematic44", "prk_alt", {}, 0),
    ("llg_blowup42", "prk", {"tau": 2e-2}, 1),
    ("llg_blowup42", "sip1", {"tau": 2e-2}, 1),
    ("point_defect43", "lm2", {"tau": 4e-3}, 0),
], ids=["prk_alt", "beta1-prk", "beta1-sip1", "lm2"])
def test_other_stages_keep_their_solver(preset_name, scheme, overrides, builds_per_solve,
                                        monkeypatch):
    # every case is stiff enough that a beta = 0 PRK stage would take the
    # preconditioner; beta = 1 stages of prk and sip1 take it as well
    assert _prk_stiffness(preset(preset_name, k=8, **overrides)) >= 2 * linalg._TANGENT_MIN_STIFFNESS
    counts = _count_builds(monkeypatch)
    _steps(preset_name, scheme, 3, k=8, **overrides)
    assert counts["builds"] == builds_per_solve * counts["solves"]
    if builds_per_solve:
        assert counts["solves"] > 0


@pytest.mark.parametrize("preset_name, k, tau", [
    ("llg_blowup42", 24, 5e-5),          # the LM2 reference trajectory of the sweeps
    ("twisted_nematic44", 8, 5e-4),
    ("point_defect43", 8, 1e-3),
])
def test_mild_beta0_stages_keep_jacobi_bit_identically(preset_name, k, tau, monkeypatch):
    cfg = preset(preset_name, k=k, tau=tau, beta=0.0)
    assert _prk_stiffness(cfg) < linalg._TANGENT_MIN_STIFFNESS
    counts = _count_builds(monkeypatch)
    final, trace = _steps(preset_name, "prk", 4, k=k, tau=tau, beta=0.0)
    assert counts["solves"] > 0 and counts["builds"] == 0
    # the same run with no TangentBlocks at all
    monkeypatch.setattr(integrators, "TangentBlocks", lambda field, projection: None)
    plain, plain_trace = _steps(preset_name, "prk", 4, k=k, tau=tau, beta=0.0)
    assert np.array_equal(final.components, plain.components)
    assert [r.solver_iters for r in trace.records] == [r.solver_iters for r in plain_trace.records]


@pytest.mark.parametrize("preset_name", ["twisted_nematic44", "point_defect43"])
def test_preconditioned_iterations_at_most_half_of_jacobi(preset_name, monkeypatch):
    # every stage operator of the first three PRK steps is also solved with
    # the Jacobi preconditioner, which an operator without TangentBlocks takes
    counts = _count_builds(monkeypatch)
    iters = {"tangent": 0, "jacobi": 0}
    counting_solve = integrators.solve

    def both(A, rhs, cfg=None, x0=None):
        x, nit, res = counting_solve(A, rhs, cfg, x0)
        iters["tangent"] += nit
        iters["jacobi"] += solve(StageOperator(A.lap, A.blocks, A.coeff), rhs, cfg, x0)[1]
        return x, nit, res

    monkeypatch.setattr(integrators, "solve", both)
    _steps(preset_name, "prk", 3, k=12)
    assert counts["builds"] == counts["solves"] == 6
    assert 0 < iters["tangent"] <= iters["jacobi"] / 2, iters


@pytest.mark.parametrize("scheme", ["prk", "sip1"])
@pytest.mark.parametrize("preset_name, tau", [("twisted_nematic44", 5e-3),
                                              ("point_defect43", 4e-3),
                                              ("llg_blowup42", 2e-2)])     # beta = 1
def test_preconditioned_runs_keep_the_theorem_and_match_direct(preset_name, tau, scheme,
                                                               monkeypatch,
                                                               superlu_stage_solves):
    counts = _count_builds(monkeypatch)
    final, trace = _steps(preset_name, scheme, 5, k=8, tau=tau)
    assert counts["builds"] == counts["solves"] > 0
    cfg = preset(preset_name, k=8, tau=tau)
    e0 = discrete_energy(build_initial(cfg))
    e = np.concatenate([[e0], trace.energies()])
    assert np.all(np.diff(e) <= 1e-12 * e[:-1])
    assert max(r.max_unit_dev for r in trace.records) <= 1e-12
    assert min(r.min_len_pre for r in trace.records) >= 1.0 - 1e-9
    superlu_stage_solves()
    direct, _ = _steps(preset_name, scheme, 5, k=8, tau=tau)
    assert np.abs(final.components - direct.components).max() <= 1e-9


@pytest.mark.parametrize("scheme", ["prk", "sip1"])
def test_stages_started_from_the_history_build_one_preconditioner_per_solve(scheme,
                                                                            monkeypatch):
    # from step 4 on, run starts every stage from the three-step extrapolation
    counts = _count_builds(monkeypatch)
    _final, trace = _steps("twisted_nematic44", scheme, 8, k=8)
    n_solves = sum(len(r.solver_iters) for r in trace.records)
    assert counts["builds"] == counts["stiff"] == counts["solves"] == n_solves
