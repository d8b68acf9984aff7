"""Tangent-space spectral preconditioner of the single-field stage solves.

Its scalar S^-1 = (I - coeff alpha D_h)^-1 (``grid.shifted_laplacian_inverse``)
against a sparse direct solve, the whole M^-1 against the stage operator on
a uniform field, where it is exact, where BiCGStab selects it (stages of
prk, prk_alt, sip1 and bdf4_ref from the stiffness coeff |alpha + i beta|
4 dim / h^2 = 1.5 on), how many iterations it saves, and the structure
theorem and the SuperLU oracle (``linalg.direct_solve``) on the runs that
use it.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import prkflow.grid as grid_module
import prkflow.integrators as integrators
import prkflow.linalg as linalg
from prkflow.field import ProjectionParams, VectorField, normalize, projector_blocks
from prkflow.grid import NEUMANN, Grid, discrete_energy, laplacian, shifted_laplacian_inverse
from prkflow.harness import build_grid, build_initial, preset, scheme_params
from prkflow.integrators import run
from prkflow.linalg import StageOperator, TangentPreconditioner, solve


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
    # (d I - c D_h)^-1, with the default d = 1 and with the diagonal the
    # preconditioner of a rough field adds
    grid = Grid(dim, n, 1.0 / (n - 1), faces=_faces(kind, dim))
    lap = laplacian(grid)
    alpha, coeff = 1.3, 0.7
    free = ~grid.dirichlet_mask
    if n == 2 and kind == "dirichlet":
        assert not free.any()
    for d in (None, 1.9):
        u = rng.standard_normal((3, grid.n_nodes))
        if d is None:
            got = shifted_laplacian_inverse(grid, coeff * alpha)(u.copy())
        else:
            got = shifted_laplacian_inverse(grid, coeff * alpha, d)(u.copy())
        s = ((1.0 if d is None else d) * sparse.identity(grid.n_nodes, format="csr")
             - coeff * alpha * lap.matrix)
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
    # a complex shift reads a real (3, N) field from the first part of a
    # (2, 3, N) array, ignores the second, and writes both parts of the image;
    # with the default d = 1 and with a complex d, as the preconditioner of a
    # rough field has at beta != 0
    grid = Grid(dim, n, 1.0 / (n - 1), faces=_faces(kind, dim))
    lap = laplacian(grid)
    c = 0.7 * complex(1.3, -0.9)
    free = ~grid.dirichlet_mask
    for d in (None, complex(1.9, -0.6)):
        parts = rng.standard_normal((2, 3, grid.n_nodes))
        if d is None:
            solved = shifted_laplacian_inverse(grid, c)(parts.copy())
        else:
            solved = shifted_laplacian_inverse(grid, c, d)(parts.copy())
        u, got = parts[0], solved[0] + 1j * solved[1]
        s = ((1.0 if d is None else d) * sparse.identity(grid.n_nodes, format="csr",
                                                         dtype=complex)
             - c * lap.matrix)
        s_free = s[free][:, free].tocsc()
        for l in range(3):
            assert np.array_equal(got[l, ~free], u[l, ~free])
            if free.any():
                ref = np.atleast_1d(spla.spsolve(s_free, u[l, free]))
                assert np.abs(got[l, free] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_shifted_solve_is_kept_for_the_last_shift():
    grid = Grid(2, 5, 0.25)
    solve = shifted_laplacian_inverse(grid, 0.5)
    assert shifted_laplacian_inverse(grid, 0.5) is solve
    # a complex c with zero imaginary part takes the two-part array
    assert shifted_laplacian_inverse(grid, complex(0.5, 0.0)) is not solve
    other = shifted_laplacian_inverse(grid, 0.25)
    assert other is not solve and shifted_laplacian_inverse(grid, 0.25) is other
    assert shifted_laplacian_inverse(Grid(2, 5, 0.25), 0.25) is not other


def _two_part_shifted_solve(grid, c):
    """(I - c D_h)^-1 for a complex c as it was before only the real part was
    transformed: every product runs over both parts, the imaginary part of
    the input set to zero, and the division is complex in full."""
    free_nodes, mats, eigenvalues = grid_module._laplacian_eigenbasis(grid)
    inv_denom = 1.0 / (1.0 - c * eigenvalues)
    re, im = inv_denom.real.copy(), inv_denom.imag.copy()
    a = np.empty((2,) + eigenvalues.shape)
    b = np.empty_like(a)
    steps = grid_module._transforms(mats, grid.dim, a, b)
    scaled = b if grid.dim % 2 else a

    def solve(u):
        u[1] = 0.0
        for l in range(u.shape[1]):
            free = u[:, l, :].reshape((2,) + grid.shape())[(slice(None),) + free_nodes]
            np.copyto(a, free)
            for x, y, out in steps[:grid.dim]:
                np.matmul(x, y, out=out)
            swapped = scaled[::-1] * im
            np.multiply(scaled, re, out=scaled)
            scaled[0] -= swapped[0]
            scaled[1] += swapped[1]
            for x, y, out in steps[grid.dim:]:
                np.matmul(x, y, out=out)
            np.copyto(free, a)
        return u

    return solve


@pytest.mark.parametrize("preset_name, overrides", [
    ("llg_blowup42", {"k": 24}),
    ("convergence41", {"k": 64}),
    ("point_defect43", {"k": 8, "beta": 0.8}),      # 3-D, every face Dirichlet
], ids=["llg_blowup42", "convergence41", "point_defect43"])
def test_complex_shift_transforms_the_real_part_alone(preset_name, overrides, rng):
    # the same M^-1 v as the two-part path, up to the blocking of the BLAS
    # products (one unit in the last place of the largest entry measured)
    cfg = preset(preset_name, **overrides)
    grid = build_grid(cfg)
    mdir = normalize(build_initial(cfg, grid))
    projection = ProjectionParams(cfg.alpha, cfg.beta)
    op = StageOperator(laplacian(grid), projector_blocks(mdir, projection), cfg.tau)
    precond = TangentPreconditioner(mdir, projection, op.coeff, 1.0)
    assert precond.work is not None
    v = rng.standard_normal(op.shape[0])
    got = precond(v)
    precond.shifted_solve = _two_part_shifted_solve(grid, op.coeff * complex(cfg.alpha, cfg.beta))
    ref = precond(v)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _count_builds(monkeypatch):
    """Counters of preconditioner builds, of the steppers' solve calls and of
    those among them whose stage is stiff enough for the preconditioner, as
    ``linalg._takes_tangent_preconditioner``, asked once before each stage
    solve, decides.  A stiff stage's solve must be given the preconditioner
    built last, any other none."""
    counts = {"builds": 0, "solves": 0, "stiff": 0}
    last = {"built": None}
    takes = linalg._takes_tangent_preconditioner

    def deciding(grid, projection, coeff):
        last["stiff"] = takes(grid, projection, coeff)
        return last["stiff"]

    class Counting(TangentPreconditioner):
        def __init__(self, field, projection, coeff, kappa):
            counts["builds"] += 1
            last["built"] = self
            super().__init__(field, projection, coeff, kappa)

    def counting_solve(A, rhs, cfg=None, x0=None, M=None):
        counts["solves"] += 1
        stiff = last.pop("stiff")
        counts["stiff"] += stiff
        assert M is (last["built"] if stiff else None)
        return solve(A, rhs, cfg, x0, M)

    monkeypatch.setattr(linalg, "_takes_tangent_preconditioner", deciding)
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
    # with mh constant, P commutes with D_h and M^-1 A = I on the vectors
    # that vanish on the Dirichlet nodes, where BiCGStab's residuals and
    # search directions lie
    grid = Grid(dim, 5, 0.25, faces=_faces(kind, dim))
    mdir = normalize(VectorField(np.tile([[0.3], [-0.5], [0.8]], grid.n_nodes), grid))
    projection = ProjectionParams(1.3, beta)
    op = StageOperator(laplacian(grid), projector_blocks(mdir, projection), 0.7)
    x = rng.standard_normal(op.shape[0])
    x.reshape(3, -1)[:, grid.dirichlet_mask] = 0.0
    got = TangentPreconditioner(mdir, projection, op.coeff, 1.0)(op.dot(x))
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


def test_selection_threshold(monkeypatch):
    # the stage solve builds the preconditioner and hands it to solve from the
    # stiffness 1.5 on, and below it solves unpreconditioned
    grid = Grid(3, 5, 0.25)
    mdir = normalize(VectorField(np.ones((3, grid.n_nodes)), grid))
    given = []

    def recording(A, rhs, cfg=None, x0=None, M=None):
        given.append(M)
        return solve(A, rhs, cfg, x0, M)

    monkeypatch.setattr(integrators, "solve", recording)
    for projection in (ProjectionParams(1.0), ProjectionParams(0.6, 0.8)):
        p = integrators.SchemeParams("prk", 1e-3, projection)
        blocks = projector_blocks(mdir, projection)
        # |alpha + i beta| = 1 in both
        edge = linalg._TANGENT_MIN_STIFFNESS / (4.0 * 3 / 0.25 ** 2)
        for coeff, spectral in ((edge, True), (edge * (1 - 1e-9), False)):
            assert linalg._takes_tangent_preconditioner(grid, projection, coeff) is spectral
            integrators._stage_solve(integrators._Solves(), laplacian(grid), blocks, coeff,
                                     mdir.components, mdir.components, p, mdir, 1.0)
            M = given.pop()
            assert isinstance(M, TangentPreconditioner) is spectral
            assert (M is None) is not spectral


@pytest.mark.parametrize("scheme", ["prk", "prk_alt", "sip1", "bdf4_ref"])
def test_stiff_beta0_stages_build_one_preconditioner_per_solve(scheme, monkeypatch):
    counts = _count_builds(monkeypatch)
    # k = 8: stiffness 3.84 at tau; bdf4_ref's three start-up steps of ten PRK
    # sub-steps at tau/10 (0.38) run unpreconditioned, its two BDF4 steps
    # (1.84) do not; prk_alt's averaged projectors take the preconditioner of
    # the newest stage field
    _steps("twisted_nematic44", scheme, 5, k=8)
    assert counts["stiff"] > 0
    assert counts["builds"] == counts["stiff"]
    if scheme == "bdf4_ref":
        assert counts["solves"] > counts["stiff"]


@pytest.mark.parametrize("preset_name, scheme, overrides, builds_per_solve", [
    ("llg_blowup42", "prk", {"tau": 2e-2}, 1),
    ("llg_blowup42", "sip1", {"tau": 2e-2}, 1),
    ("point_defect43", "lm2", {"tau": 4e-3}, 0),
], ids=["beta1-prk", "beta1-sip1", "lm2"])
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
def test_mild_beta0_stages_run_unpreconditioned_bit_identically(preset_name, k, tau, monkeypatch):
    cfg = preset(preset_name, k=k, tau=tau, beta=0.0)
    assert _prk_stiffness(cfg) < linalg._TANGENT_MIN_STIFFNESS
    counts = _count_builds(monkeypatch)
    final, trace = _steps(preset_name, "prk", 4, k=k, tau=tau, beta=0.0)
    assert counts["solves"] > 0 and counts["builds"] == counts["stiff"] == 0
    # the same run with every solve called without a preconditioner argument
    monkeypatch.setattr(integrators, "solve",
                        lambda A, rhs, cfg=None, x0=None, M=None: solve(A, rhs, cfg, x0))
    plain, plain_trace = _steps(preset_name, "prk", 4, k=k, tau=tau, beta=0.0)
    assert np.array_equal(final.components, plain.components)
    assert [r.solver_iters for r in trace.records] == [r.solver_iters for r in plain_trace.records]


@pytest.mark.parametrize("preset_name", ["twisted_nematic44", "point_defect43"])
def test_preconditioned_iterations_at_most_half_of_unpreconditioned(preset_name, monkeypatch):
    # every stage operator of the first three PRK steps is also solved
    # unpreconditioned, from the same start guess, as a copy that leaves the
    # stage's operator its D_h x
    counts = _count_builds(monkeypatch)
    iters = {"tangent": 0, "none": 0}
    counting_solve = integrators.solve

    def both(A, rhs, cfg=None, x0=None, M=None):
        x, nit, res = counting_solve(A, rhs, cfg, x0, M)
        iters["tangent"] += nit
        iters["none"] += solve(StageOperator(A.lap, A.blocks, A.coeff), rhs, cfg, x0)[1]
        return x, nit, res

    monkeypatch.setattr(integrators, "solve", both)
    _steps(preset_name, "prk", 3, k=12)
    assert counts["builds"] == counts["solves"] == 6
    assert 0 < iters["tangent"] <= iters["none"] / 2, iters


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
    # from step 2 on, run starts every stage from the history's extrapolation,
    # the quartic of five steps from step 6 on
    counts = _count_builds(monkeypatch)
    _final, trace = _steps("twisted_nematic44", scheme, 8, k=8)
    n_solves = sum(len(r.solver_iters) for r in trace.records)
    assert counts["builds"] == counts["stiff"] == counts["solves"] == n_solves


def _mean_cosine(m, grid):
    """The mean cosine of neighbouring unit vectors, each edge weighted by the
    trapezoid weights (1/2 at an end, 1 inside) of the axes across it."""
    n, dim = grid.n_per_axis, grid.dim
    u = m.components.reshape((3,) + grid.shape())
    w1 = np.ones(n)
    w1[[0, -1]] = 0.5
    total = weight = 0.0
    for axis in range(dim):
        cos = np.einsum("l...,l...->...", np.take(u, range(1, n), axis=axis + 1),
                        np.take(u, range(n - 1), axis=axis + 1))
        w = np.ones(cos.shape)
        for other in range(dim):
            if other != axis:
                w = w * w1.reshape([n if b == other else 1 for b in range(dim)])
        total += (w * cos).sum()
        weight += w.sum()
    return total / weight


@pytest.mark.parametrize("preset_name, overrides, cosine", [
    ("twisted_nematic44", {}, 0.032),
    ("point_defect43", {}, 0.849),
    ("point_defect43", {"k": 8}, 0.627),
    ("llg_blowup42", {}, 0.981),
    ("llg_blowup42", {"k": 8}, 0.862),
    ("llg_blowup42", {"k": 8, "initial": "random_unit"}, -0.016),
], ids=["random-3d", "point-defect", "point-defect-k8", "bubble", "bubble-k8", "random-2d"])
def test_alignment_reads_the_mean_neighbour_cosine(preset_name, overrides, cosine):
    cfg = preset(preset_name, **overrides)
    grid = build_grid(cfg)
    m = normalize(build_initial(cfg, grid))
    mean = _mean_cosine(m, grid)
    assert mean == pytest.approx(cosine, abs=5e-4)
    energy = discrete_energy(m)
    assert 1.0 - energy / (2 * grid.h ** (grid.dim - 2) * grid.edge_weight_sum) == \
        pytest.approx(mean, abs=1e-12)
    kappa = linalg._tangent_alignment(energy, grid)
    assert kappa == (1.0 if mean >= 0.5 else pytest.approx(np.sqrt((1.0 + mean) / 2.0)))


@pytest.mark.parametrize("preset_name, tau", [("point_defect43", 1e-2),
                                              ("llg_blowup42", 2e-2)])     # beta = 1
def test_aligned_start_keeps_the_smooth_preconditioner_bit_for_bit(preset_name, tau,
                                                                   monkeypatch):
    # mean neighbour cosines 0.627 and 0.862 at k = 8, above the cut at 1/2: the
    # preconditioner keeps D_h's couplings at full strength, so the run is the
    # one with the alignment forced to 1
    counts = _count_builds(monkeypatch)
    final, trace = _steps(preset_name, "prk", 5, k=8, tau=tau)
    assert counts["builds"] == counts["solves"] > 0
    monkeypatch.setattr(linalg, "_tangent_alignment", lambda energy, grid: 1.0)
    forced, forced_trace = _steps(preset_name, "prk", 5, k=8, tau=tau)
    assert np.array_equal(final.components, forced.components)
    assert [r.solver_iters for r in trace.records] == \
        [r.solver_iters for r in forced_trace.records]


@pytest.mark.parametrize("preset_name, overrides", [
    ("point_defect43", {"k": 8, "beta": 0.0}),
    ("point_defect43", {"k": 8, "beta": 0.8}),
    ("llg_blowup42", {"k": 12}),
], ids=["real-shift", "complex-shift", "llg_blowup42"])
def test_unit_alignment_is_the_plain_shifted_inverse_bit_for_bit(preset_name, overrides, rng):
    # kappa = 1 gives the diagonal d = 1 and the shift coeff (alpha + i beta):
    # the same M^-1 v as S^-1 = (I - coeff (alpha + i beta) D_h)^-1 built
    # without a diagonal
    cfg = preset(preset_name, **overrides)
    grid = build_grid(cfg)
    mdir = normalize(build_initial(cfg, grid))
    projection = ProjectionParams(cfg.alpha, cfg.beta)
    op = StageOperator(laplacian(grid), projector_blocks(mdir, projection), cfg.tau)
    precond = TangentPreconditioner(mdir, projection, op.coeff, 1.0)
    v = rng.standard_normal(op.shape[0])
    got = precond(v)
    grid._shifted = None          # a new function, not the one kept for (c, d)
    precond.shifted_solve = shifted_laplacian_inverse(grid, op.coeff * (
        cfg.alpha if cfg.beta == 0.0 else complex(cfg.alpha, cfg.beta)))
    assert np.array_equal(got, precond(v))


def test_field_off_the_sphere_takes_alignment_zero():
    # a random field of length about 2 has more energy than any unit field:
    # its mean neighbour cosine reads below -1, which is cut to -1 (kappa = 0,
    # S its diagonal alone), and a direct step from it still runs
    cfg = preset("llg_blowup42", k=8, tau=2e-2)
    grid = build_grid(cfg)
    rng = np.random.default_rng(28)
    m = VectorField(2.0 * rng.standard_normal((3, grid.n_nodes)), grid)
    energy = discrete_energy(m)
    assert 1.0 - energy / (2 * grid.h ** (grid.dim - 2) * grid.edge_weight_sum) < -1.0
    assert linalg._tangent_alignment(energy, grid) == 0.0
    p = scheme_params(cfg, scheme="prk")
    assert _prk_stiffness(cfg) >= linalg._TANGENT_MIN_STIFFNESS
    _out, rec = integrators.prk_step(m, p)
    assert len(rec.solver_iters) == 2 and rec.max_unit_dev <= 1e-12


@pytest.mark.parametrize("preset_name, overrides, scheme, n_steps, n_sums", [
    # pre and post per step, E(m^0) once
    pytest.param("twisted_nematic44", {"k": 8, "tau": 5e-2}, "prk", 5, 2 * 5 + 1,
                 id="prk-5-11"),
    # ten start-up sub-steps, their start field once
    pytest.param("twisted_nematic44", {"k": 8, "tau": 5e-2}, "bdf4_ref", 1, 2 * 10 + 1,
                 id="bdf4_ref-1-21"),
    # no stiff stage, and E(m^0) once all the same
    pytest.param("llg_blowup42", {"k": 8}, "prk", 5, 2 * 5 + 1, id="llg_blowup42-prk-5-11"),
])
def test_stage_alignment_sums_no_energy_twice(preset_name, overrides, scheme, n_steps, n_sums,
                                              monkeypatch):
    # every PRK stepper (a prk run's, a BDF4 start-up step's) sums the energy
    # of its start field once, when its stage history is built; its later
    # steps read E(m^n) from the previous step's record, and no field is
    # summed twice
    summed = []

    def recording(comps, grid=None):
        summed.append(np.asarray(getattr(comps, "components", comps)).tobytes())
        return discrete_energy(comps, grid)

    cfg = preset(preset_name, **overrides)
    stiffness = _prk_stiffness(cfg) * abs(complex(cfg.alpha, cfg.beta)) / cfg.alpha
    if preset_name == "twisted_nematic44":       # stiff at the start-up's tau / 10 too
        assert stiffness / 10.0 >= linalg._TANGENT_MIN_STIFFNESS
    else:
        assert stiffness < linalg._TANGENT_MIN_STIFFNESS
    monkeypatch.setattr(integrators, "discrete_energy", recording)
    _steps(preset_name, scheme, n_steps, **overrides)
    assert len(summed) == n_sums and len(set(summed)) == n_sums


def test_random_start_first_step_models_the_rough_field():
    # twisted_nematic44 at k = 24 and the preset seed, the first step of the
    # nematic3d-prk benchmark run: mean neighbour cosine 0.032, kappa 0.718;
    # 18 BiCGStab iterations (9 + 9), 34 (18 + 16) with kappa = 1
    _final, trace = _steps("twisted_nematic44", "prk", 1)
    assert trace.records[0].solver_iters_total <= 20, trace.records[0].solver_iters
