"""Stepper contracts: fixed points, dense oracle, structure records, LM2, BDF4."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from prkflow.field import ProjectionParams, VectorField, normalize, diagnostics
from prkflow.grid import Grid, discrete_energy, laplacian
from prkflow.harness import build_grid, build_initial, l2_error, preset, scheme_params
from prkflow.integrators import SchemeParams, lm2_init, lm2_step, prk_step, run
from prkflow.linalg import SolverConfig
from prkflow.tableau import PRKTableau, implicit_euler_tableau, prk2_tableau, tableau_to_dict


def _params(scheme, tau, alpha=1.0, beta=1.0, **kw):
    return SchemeParams(scheme=scheme, tau=tau,
                        projection=ProjectionParams(alpha=alpha, beta=beta), **kw)


def _constant_field(grid, vec=(0.0, 0.0, 1.0)):
    comps = np.tile(np.asarray(vec, dtype=float)[:, None], (1, grid.n_nodes))
    return VectorField(comps, grid, on_sphere=True)


def test_constant_field_fixed_points():
    grid = Grid(2, 9, 0.125, origin=(-0.5, -0.5))
    m = _constant_field(grid)
    for scheme in ("prk", "prk_alt", "sip1"):
        p = _params(scheme, 1e-3)
        out, rec = prk_step(m, p)
        assert np.abs(out.components - m.components).max() <= 1e-9
        assert rec.energy == 0.0


def test_lm2_constant_field_fixed_point():
    grid = Grid(2, 9, 0.125, origin=(-0.5, -0.5))
    m = _constant_field(grid)
    p = _params("lm2", 1e-3, beta=0.0)
    aux = lm2_init(m, p)
    assert np.abs(aux.lam).max() == 0.0
    out, aux2, rec = lm2_step(m, aux, p)
    assert np.abs(out.components - m.components).max() <= 1e-12
    assert rec.lm2_eta == 0.0


def test_prk_step_against_dense_oracle(superlu_stage_solves):
    # 1-D three-node instance, alpha = 1, beta = 0: both stages solved densely
    grid = Grid(1, 3, 1.0)
    m = normalize(VectorField(np.array([[0.6, 0.0, -0.8],
                                        [0.8, 1.0, 0.0],
                                        [0.0, 0.2, 0.6]]), grid))
    tau = 0.05
    superlu_stage_solves()
    out, _rec = prk_step(m, _params("prk", tau, beta=0.0))

    # independent dense computation (numpy only)
    g = np.array([[-2.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]])
    A = np.array([[1.0, 0.0], [0.0, 0.5]])
    D = np.array([[1.0, 0.0], [-1.0, 2.0]])
    b = np.array([0.5, 0.5])

    def proj_mat(mm):
        n = mm.shape[1]
        big = np.zeros((3 * n, 3 * n))
        for i in range(n):
            v = mm[:, i] / np.linalg.norm(mm[:, i])
            big[i::n, i::n] = np.eye(3) - np.outer(v, v)
        return big

    d3 = np.kron(np.eye(3), g)
    u0 = m.components.reshape(-1)
    p1 = proj_mat(m.components)
    s1 = np.eye(9) - tau * A[0, 0] * D[0, 0] * p1 @ d3
    u1 = np.linalg.solve(s1, u0)
    p2 = proj_mat(u1.reshape(3, 3))
    mu2 = A[1, 1] * p2 @ (D[1, 0] * d3 @ u1)
    s2 = np.eye(9) - tau * A[1, 1] * D[1, 1] * p2 @ d3
    u2 = np.linalg.solve(s2, u0 + tau * mu2)
    mt = u0 + tau * (b[0] * p1 @ (D[0, 0] * d3 @ u1)
                     + b[1] * p2 @ (D[1, 0] * d3 @ u1 + D[1, 1] * d3 @ u2))
    mt = mt.reshape(3, 3)
    expected = mt / np.sqrt((mt ** 2).sum(axis=0))
    assert np.abs(out.components - expected).max() <= 1e-12


def test_prk_step_structure_quantities():
    cfg = preset("convergence41")
    grid = build_grid(cfg)
    m = build_initial(cfg, grid)
    p = scheme_params(cfg, scheme="prk", tau=3.2e-4)
    e0 = discrete_energy(m)
    out, rec = prk_step(m, p)
    assert rec.min_len_pre >= 1.0 - 1e-8
    assert rec.energy_pre_projection <= e0 * (1.0 + 1e-10)
    assert rec.energy <= e0 * (1.0 + 1e-10)
    assert diagnostics(out).max_unit_deviation <= 1e-12


def test_prk_alt_transform_matrices():
    # G = D^{-1} for the second-order tableau
    t = prk2_tableau()
    ginv = np.linalg.inv(t.D2)
    assert ginv == pytest.approx(np.array([[1.0, 0.0], [0.5, 0.5]]), abs=1e-15)
    assert t.A @ t.D2 == pytest.approx(np.array([[1.0, 0.0], [-0.5, 1.0]]), abs=1e-15)


def test_sip1_predictor_orthogonal_increment():
    # exact-solve form: increment pointwise orthogonal to m^n, length >= 1
    cfg = preset("llg_blowup42", k=16)
    grid = build_grid(cfg)
    m = normalize(build_initial(cfg, grid))
    lap = laplacian(grid)
    p = scheme_params(cfg, scheme="sip1", tau=1e-4)
    # the semi-implicit predictor (I - tau P(m) D_h) m~ = m, solved directly
    from prkflow.field import projector_blocks
    from prkflow.linalg import StageOperator, direct_solve
    blocks = projector_blocks(m, p.projection)
    system = StageOperator(lap, blocks, p.tau)
    x, _ = direct_solve(system, m.components.reshape(-1))
    m_tilde = x.reshape(3, -1)
    incr = m_tilde - m.components
    dots = np.abs(np.einsum("ln,ln->n", incr, m.components))
    assert dots.max() <= 1e-13
    lengths = np.sqrt(np.einsum("ln,ln->n", m_tilde, m_tilde))
    assert lengths.min() >= 1.0 - 1e-10
    # the implicit-Euler PRK step lands on the normalised predictor
    out, rec = prk_step(m, p)
    assert np.abs(out.components - m_tilde / lengths).max() <= 1e-9
    assert rec.min_len_pre >= 1.0 - 1e-12


def test_sip1_is_the_implicit_euler_tableau():
    p = _params("sip1", 1e-3)
    assert tableau_to_dict(p.tableau) == tableau_to_dict(implicit_euler_tableau())
    assert replace(p, tau=2e-3).tableau.s == 1
    with pytest.raises(ValueError, match="implicit-Euler"):
        _params("sip1", 1e-3, tableau=prk2_tableau())


@pytest.mark.parametrize("scheme", ["prk", "prk_alt"])
def test_tableaux_the_steppers_cannot_take_are_rejected(scheme):
    # every stepper takes the mobility at the lagged stage (D1 = I), and its
    # stage solves and prk_alt's G = D2^-1 need positive diagonals on A and D2
    t = prk2_tableau()
    cases = [
        ("D1", dict(D1=[[1.0, 0.0], [0.5, 0.5]])),
        ("D2_diagonal_positive", dict(D2=[[1.0, 0.0], [1.0, 0.0]])),
        ("A_diagonal_positive", dict(A=[[1.0, 0.0], [0.5, -0.5]])),
    ]
    for name, change in cases:
        bad = PRKTableau(**{"A": t.A, "D1": t.D1, "D2": t.D2, "b": t.b, **change})
        with pytest.raises(ValueError, match=name):
            _params(scheme, 1e-3, tableau=bad)
    assert _params(scheme, 1e-3, tableau=t).tableau.s == 2


@pytest.mark.parametrize("tau", [0.0, -1e-3, np.inf, np.nan])
def test_scheme_params_rejects_a_step_that_is_not_finite_and_positive(tau):
    with pytest.raises(ValueError, match="tau"):
        _params("prk", tau)


def test_lm2_requires_beta_zero():
    # SchemeParams refuses the params themselves, so no run starts on them
    with pytest.raises(ValueError, match="lm2 implements the beta = 0 flow, got beta 1.0"):
        _params("lm2", 1e-3, beta=1.0)


def test_lm2_second_order_on_convergence_preset():
    cfg = preset("convergence41", k=16, reference="bdf4", ref_tau=1e-5)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    ref_params = SchemeParams(scheme="bdf4_ref", tau=1e-5,
                              projection=ProjectionParams(alpha=1.0, beta=0.0))
    ref, ref_trace = run(m0, ref_params, cfg.T)
    assert ref_trace.failure is None
    errs = []
    for j in range(3):
        tau = 3.2e-4 / 2 ** j
        p = SchemeParams(scheme="lm2", tau=tau,
                         projection=ProjectionParams(alpha=1.0, beta=0.0))
        final, trace = run(m0, p, cfg.T)
        assert trace.failure is None
        errs.append(l2_error(final, ref, grid))
    slopes = [np.log2(errs[i - 1] / errs[i]) for i in range(1, 3)]
    assert all(abs(s - 2.0) <= 0.15 for s in slopes)


def test_lm2_records_multiplier_extremes():
    cfg = preset("convergence41", k=12)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = SchemeParams(scheme="lm2", tau=1e-4,
                     projection=ProjectionParams(alpha=1.0, beta=0.0))
    _final, trace = run(m0, p, 1e-3)
    rec = trace.records[-1]
    assert np.isfinite(rec.lm2_lambda_min) and np.isfinite(rec.lm2_lambda_max)
    assert rec.lm2_lambda_min <= rec.lm2_lambda_max
    assert np.isfinite(rec.lm2_eta)


def _lm2_blowup12():
    cfg = preset("llg_blowup42", k=12)
    grid = build_grid(cfg)
    return build_initial(cfg, grid), scheme_params(cfg, scheme="lm2")


def test_lm2_sums_each_energy_once(monkeypatch):
    # a step sums the pre-projection energy and one energy per eta the root
    # search tries: F(0), F(0.0025) and Brent's 3 or 4 interior points.  The
    # start energy comes from the state and the post-projection energy from
    # the root's, so no field is summed twice in the run
    import prkflow.integrators as integrators
    summed = []

    def recording(comps, grid=None):
        summed.append(np.asarray(getattr(comps, "components", comps)).tobytes())
        return discrete_energy(comps, grid)

    monkeypatch.setattr(integrators, "discrete_energy", recording)
    m, p = _lm2_blowup12()
    aux = lm2_init(m, p)
    counts = []
    for _ in range(20):
        before = len(summed)
        m, aux, _rec = lm2_step(m, aux, p)
        counts.append(len(summed) - before)
    assert max(counts) <= 7, counts
    assert len(set(summed)) == len(summed)


def test_brent_search_is_scipys_bit_for_bit():
    # scipy's brentq on the same brackets, tolerances and functions: the same
    # root to the last bit, and the same brackets given up (scipy raises
    # RuntimeError after 100 iterations)
    from scipy.optimize import brentq
    from prkflow.integrators import _brentq
    rng = np.random.default_rng(27)
    brackets = gave_up = 0
    while brackets < 1200:
        b = float(rng.uniform(-2.0, 2.0))
        if brackets % 2:
            k = 2 * int(rng.integers(0, 6)) + 1
            F = lambda x, b=b, k=k: (x - b) ** k
        else:
            a, c = 10.0 ** rng.uniform(-2.0, 3.0), float(rng.uniform(0.0, 5.0))
            F = lambda x, a=a, b=b, c=c: math.tanh(a * (x - b)) + c * (x - b) ** 3
        lo, hi = b - 10.0 ** rng.uniform(-6.0, 1.0), b + 10.0 ** rng.uniform(-6.0, 1.0)
        if rng.random() < 0.5:
            lo, hi = hi, lo
        f_lo, f_hi = F(lo), F(hi)
        if not f_lo * f_hi < 0:
            continue
        brackets += 1
        for xtol in (1e-12, 2e-12, 1e-6):
            try:
                expected = brentq(F, lo, hi, xtol=xtol)
            except RuntimeError:
                expected = None
                gave_up += 1
            assert _brentq(F, lo, hi, f_lo, f_hi, xtol) == expected, (brackets, xtol)
    assert gave_up > 0


@pytest.mark.parametrize("inside", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_root_search_keeps_the_trace(inside, monkeypatch):
    # F is x - 0.001 but non-finite on (0.0005, 0.002): the scan brackets
    # [0, 0.0025] and the first Brent iterate, 0.001, falls inside, so the
    # search finds no root (scipy's brentq raised ValueError for NaN and
    # returned 0.0005 for inf)
    import prkflow.integrators as integrators
    from prkflow.integrators import NoRealRootError

    def F(x):
        return inside if 0.0005 < x < 0.002 else x - 0.001

    assert integrators._lm2_scalar_root(F) is None
    # the third step's search meets it: that step raises NoRealRootError and
    # the run keeps the first two records
    searches = []
    scalar_root = integrators._lm2_scalar_root

    def third_search_non_finite(F_step):
        searches.append(F_step)
        return scalar_root(F if len(searches) == 3 else F_step)

    monkeypatch.setattr(integrators, "_lm2_scalar_root", third_search_non_finite)
    m, p = _lm2_blowup12()
    _, trace = run(m, p, 5 * p.tau)
    assert len(trace) == 2 and len(searches) == 3
    t, err = trace.failure
    assert t == pytest.approx(3 * p.tau) and isinstance(err, NoRealRootError)


def test_lm2_carries_the_energy_it_records():
    m, p = _lm2_blowup12()
    aux = lm2_init(m, p)
    assert aux.energy == discrete_energy(m)
    for _ in range(5):
        m, aux, rec = lm2_step(m, aux, p)
        assert rec.energy == discrete_energy(m)
        assert aux.energy == discrete_energy(m)


def test_lm2_final_energy_is_pinned():
    # the energies LM2 keeps are the arithmetic of summing them afresh, so the
    # trajectory is pinned to the last bit
    m, p = _lm2_blowup12()
    _final, trace = run(m, p, 20 * p.tau)
    assert len(trace) == 20
    assert float.hex(trace.records[-1].energy) == "0x1.12c3535e0ff4cp+5"


@pytest.mark.parametrize("preset_name, k, tau", [("llg_blowup42", 12, 1e-3),
                                                 ("point_defect43", 8, 4e-3)],
                         ids=["neumann", "dirichlet"])
def test_lm2_predictor_matches_sparse_direct_solve(preset_name, k, tau):
    # (I - tau alpha/2 D_h) m~ = rhs on the whole grid: D_h has zero rows at
    # Dirichlet nodes, so the matrix is the identity there, and its columns
    # there hold the free rows' couplings into the boundary values
    cfg = preset(preset_name, k=k, tau=tau)
    grid = build_grid(cfg)
    p = scheme_params(cfg, scheme="lm2")
    lap = laplacian(grid)
    c = p.tau * p.projection.alpha / 2.0
    s = (sparse.identity(grid.n_nodes, format="csr") - c * lap.matrix).tocsc()
    m = normalize(build_initial(cfg, grid))
    aux = lm2_init(m, p)
    for _ in range(2):
        m0 = m.components
        rhs = m0 + c * lap.apply(aux.predictor) + 2.0 * c * aux.lam * m0
        ref = np.vstack([spla.spsolve(s, r) for r in rhs])
        m, aux, _rec = lm2_step(m, aux, p)
        assert np.abs(aux.predictor - ref).max() <= 1e-12 * np.abs(ref).max()


def _reference_params(tau):
    return SchemeParams(scheme="bdf4_ref", tau=tau,
                        projection=ProjectionParams(alpha=1.0, beta=1.0),
                        solver=SolverConfig(rel_tol=1e-12))


def test_bdf4_richardson_self_consistency():
    # halving the reference step changes the solution below 1e-9 (reduced grid)
    cfg = preset("convergence41", k=32)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    r1, trace1 = run(m0, _reference_params(1e-5), cfg.T)
    r2, trace2 = run(m0, _reference_params(2e-5), cfg.T)
    assert trace1.failure is None and trace2.failure is None
    assert l2_error(r1, r2, grid) <= 1e-9


@pytest.mark.slow
def test_bdf4_richardson_self_consistency_full_grid():
    cfg = preset("convergence41")   # h = 1/64
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    r1, trace1 = run(m0, _reference_params(1e-5), cfg.T)
    r2, trace2 = run(m0, _reference_params(2e-5), cfg.T)
    assert trace1.failure is None and trace2.failure is None
    assert l2_error(r1, r2, grid) <= 1e-9


def test_bdf4_startup_steps_through_the_prk_stepper():
    # each start-up step is ten PRK2 sub-steps of one make_stepper stepper:
    # from the second on they start from the stage history's extrapolation
    # and take the alignment of E(m^n), 19 BiCGStab iterations over the
    # three steps where ten sub-steps each from U^{i-1} at alignment 1 took 90
    cfg = preset("convergence41", k=32, tau=1e-4)
    p = scheme_params(cfg, scheme="bdf4_ref")
    _final, trace = run(build_initial(cfg, build_grid(cfg)), p, 3 * p.tau)
    assert trace.failure is None
    assert [len(r.solver_iters) for r in trace.records] == [20, 20, 20]
    assert sum(r.solver_iters_total for r in trace.records) <= 30


def test_bdf4_constant_fixed_point():
    grid = Grid(2, 9, 0.125)
    m = _constant_field(grid)
    p = _params("bdf4_ref", 1e-4)
    out, trace = run(m, p, 10 * 1e-4)
    assert trace.failure is None
    assert np.abs(out.components - m.components).max() <= 1e-9


def test_run_zero_time():
    grid = Grid(2, 5, 0.25)
    m = _constant_field(grid)
    final, trace = run(m, _params("prk", 1e-3), 0.0)
    assert len(trace) == 0
    assert np.array_equal(final.components, m.components)


def test_run_rejects_partial_final_step():
    grid = Grid(2, 5, 0.25)
    m = _constant_field(grid)
    with pytest.raises(ValueError):
        run(m, _params("prk", 3e-4), 1e-3)


def test_run_rejects_negative_time():
    grid = Grid(2, 5, 0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        run(_constant_field(grid), _params("prk", 1e-3), -1.0)


def test_run_monotone_energy_and_unit_length():
    cfg = preset("llg_blowup42")    # h = 1/24
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = scheme_params(cfg, scheme="prk", tau=1e-4)
    _final, trace = run(m0, p, 5e-3)
    assert trace.failure is None
    e = trace.energies()
    assert np.all(np.diff(e) <= 1e-9 * e[:-1])
    assert max(r.max_unit_dev for r in trace.records) <= 1e-12
    assert min(r.min_len_pre for r in trace.records) >= 1.0 - 1e-8


def test_run_deterministic():
    cfg = preset("llg_blowup42", k=12)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = scheme_params(cfg, scheme="prk", tau=1e-3)
    f1, t1 = run(m0, p, 1e-2)
    f2, t2 = run(m0, p, 1e-2)
    assert np.array_equal(f1.components, f2.components)
    assert np.array_equal(t1.energies(), t2.energies())
    assert [r.solver_iters for r in t1.records] == [r.solver_iters for r in t2.records]


def test_run_observers_called_in_order():
    grid = Grid(2, 5, 0.25)
    m = _constant_field(grid)
    seen = []
    run(m, _params("prk", 1e-3), 5e-3, observers=[lambda i, t, f: seen.append((i, t))])
    assert [i for i, _ in seen] == [1, 2, 3, 4, 5]
    assert seen[-1][1] == pytest.approx(5e-3)


def test_trace_time_order_enforced():
    from prkflow.integrators import RunTrace, StepRecord
    tr = RunTrace()
    rec = StepRecord(1, 0.1, 0.0, 0.0, 1.0, 0.0, (1,), (0.0,), 0.0)
    tr.append(rec)
    with pytest.raises(ValueError):
        tr.append(StepRecord(2, 0.1, 0.0, 0.0, 1.0, 0.0, (1,), (0.0,), 0.0))


def test_run_records_failure_and_partial_trace(monkeypatch):
    import prkflow.integrators as integ
    calls = {"n": 0}
    original = integ.prk_step

    def failing(state, p, step_index=0, t0=0.0, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise integ.StepFailureError(1, "synthetic failure")
        return original(state, p, step_index, t0, **kwargs)

    monkeypatch.setattr(integ, "prk_step", failing)
    grid = Grid(2, 5, 0.25)
    m = _constant_field(grid)
    _final, trace = run(m, _params("prk", 1e-3), 1e-2)
    assert trace.failure is not None
    assert len(trace) == 3
    assert trace.failure[0] == pytest.approx(4e-3)


def test_warm_started_stage_solves_take_fewer_iterations(monkeypatch):
    import prkflow.integrators as integ
    import prkflow.linalg as linalg
    cfg = preset("llg_blowup42", k=12)
    grid = build_grid(cfg)
    p = scheme_params(cfg, scheme="prk")
    warm, warm_trace = run(build_initial(cfg, grid), p, 20 * p.tau)
    # the same run with every stage solve started from zero
    monkeypatch.setattr(integ, "solve",
                        lambda A, rhs, cfg=None, x0=None, M=None: linalg.solve(A, rhs, cfg, M=M))
    cold, cold_trace = run(build_initial(cfg, grid), p, 20 * p.tau)
    assert warm_trace.failure is None and cold_trace.failure is None
    warm_iters = sum(r.solver_iters_total for r in warm_trace.records)
    cold_iters = sum(r.solver_iters_total for r in cold_trace.records)
    assert 0 < warm_iters < cold_iters, (warm_iters, cold_iters)
    assert np.abs(warm.components - cold.components).max() <= 1e-9


def test_lm2_vanishing_field_raises_no_warning(monkeypatch):
    # a domain wall parallel to e on the 2 x 2 grid, whose eigenbasis has the
    # entries +-1 and 1/2, so no sum depends on the BLAS: m_hat is +-e at
    # every node, and the energy-enforcement scan meets eta = 1 and -1, where
    # m_hat + eta e vanishes at the nodes of one sign; F is NaN there, with
    # no warning, and the step finds no root
    import math
    import warnings
    import prkflow.integrators as integrators
    from prkflow.integrators import NoRealRootError
    undefined = []
    scalar_root = integrators._lm2_scalar_root

    def watching(F):
        def watched(eta):
            f = F(eta)
            if math.isnan(f):
                undefined.append(eta)
            return f
        return scalar_root(watched)

    monkeypatch.setattr(integrators, "_lm2_scalar_root", watching)
    grid = Grid(2, 2, 1.0)
    wall = np.where(grid.coords[:, 0] < 0.5, 1.0, -1.0) * np.ones((3, 1)) / np.sqrt(3.0)
    p = _params("lm2", 0.256, beta=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = run(VectorField(wall, grid), p, 5 * p.tau)
    assert len(trace) == 0 and isinstance(trace.failure[1], NoRealRootError)
    assert sorted(undefined) == [-1.0, 1.0]

    # point_defect43's corner boundary values are +-e; e moves the free
    # nodes only, so v never vanishes there and the run completes
    cfg = preset("point_defect43", k=8, tau=4e-3)
    grid = build_grid(cfg)
    p = scheme_params(cfg, scheme="lm2")
    undefined.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = run(build_initial(cfg, grid), p, 10 * p.tau)
    assert trace.failure is None and len(trace) == 10
    assert not undefined


def test_lm2_keeps_the_dirichlet_values_and_follows_prk():
    # point_defect43 at k = 8 to T = 0.3: LM2 adds e on the free nodes only
    # and its predictor takes D_h's couplings into the boundary values in
    # both halves, so the Dirichlet nodes keep their values (1.1e-16), the
    # energy falls every step, and LM2 ends 8.5e-4 from PRK (PRK's own
    # tau against tau/2 difference is 4.3e-4).  An LM2 that moves the
    # boundary nodes drifts off them by 0.077; one that leaves out the
    # implicit half's couplings finds no multiplier at t = 0.007
    cfg = preset("point_defect43", k=8, tau=1e-3)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    fixed = grid.dirichlet_mask
    drift = []

    def boundary_drift(_i, _t, m):
        drift.append(np.abs(m.components[:, fixed] - grid.dirichlet_values[:, fixed]).max())

    lm2, trace = run(m0, scheme_params(cfg, scheme="lm2"), 0.3, observers=[boundary_drift])
    assert trace.failure is None and len(trace) == 300
    assert max(drift) <= 1e-15
    energies = np.concatenate([[discrete_energy(m0)], trace.energies()])
    assert np.all(np.diff(energies) <= 0.0)
    prk, prk_trace = run(m0, scheme_params(cfg, scheme="prk"), 0.3)
    assert l2_error(lm2, prk, grid) <= 1.5e-3
    assert abs(energies[-1] - prk_trace.energies()[-1]) <= 1e-4 * energies[-1]


@pytest.mark.parametrize("scheme", ["prk", "prk_alt", "sip1"])
def test_run_starts_the_stage_solves_from_the_stage_history(scheme):
    # run starts every stage solve from the extrapolated stage increments of
    # the last five steps; a loop of direct step calls keeps no history
    cfg = preset("llg_blowup42", k=12)
    grid = build_grid(cfg)
    p = scheme_params(cfg, scheme=scheme)
    initial = build_initial(cfg, grid)
    fields = []
    final, trace = run(initial, p, 40 * p.tau, observers=[lambda i, t, m: fields.append(m)])
    assert trace.failure is None and len(trace) == 40
    again, _ = run(initial, p, 40 * p.tau)
    assert np.array_equal(final.components, again.components)

    m, t, direct = normalize(initial), 0.0, []
    start = m
    for i in range(1, 41):
        m, rec = prk_step(m, p, i, t)
        t = rec.t
        direct.append(rec)
        if i == 1:       # no history yet: bit for bit the direct call
            assert np.array_equal(m.components, fields[0].components)
            assert rec.solver_iters == trace.records[0].solver_iters
    assert np.abs(final.components - m.components).max() <= 1e-9
    with_history = sum(r.solver_iters_total for r in trace.records)
    without = sum(r.solver_iters_total for r in direct)
    # 1 against 4 iterations per stage once five steps are stored (prk and
    # prk_alt 98 over the run, sip1 49); the first five steps take 4, 3, 3, 2, 2
    assert with_history <= 0.55 * without, (with_history, without)

    energies = np.concatenate([[discrete_energy(start)], trace.energies()])
    assert np.all(np.diff(energies) <= 0.0)
    # prk_alt averages the projector and has no length floor of its own: its
    # first step, which has no history, reaches 1 - 3.2e-8 here
    floor = min(1.0 - 1e-9, min(r.min_len_pre for r in direct))
    assert min(r.min_len_pre for r in trace.records) >= floor


def test_llg2d_prk_iteration_gate():
    # 201 prk steps of llg_blowup42 at k = 24 (the llg2d-prk benchmark run),
    # all below the stiffness of the spectral preconditioner: 546
    # unpreconditioned BiCGStab iterations with every stage started from the
    # quartic extrapolation of five steps; deterministic, unlike a wall clock
    cfg = preset("llg_blowup42", k=24)
    p = scheme_params(cfg, scheme="prk")
    _, trace = run(build_initial(cfg, build_grid(cfg)), p, 201 * p.tau)
    assert trace.failure is None and len(trace) == 201
    total = sum(r.solver_iters_total for r in trace.records)
    assert total <= 650, total


def test_llg2d_prk_alt_iteration_gate():
    # 10 prk_alt steps of llg_blowup42 at k = 24, tau = 1e-2: 184 BiCGStab
    # iterations with the tangent-space preconditioner of the newest stage
    # field, 4,574 unpreconditioned
    cfg = preset("llg_blowup42", k=24, tau=1e-2)
    p = scheme_params(cfg, scheme="prk_alt")
    _, trace = run(build_initial(cfg, build_grid(cfg)), p, 10 * p.tau)
    assert trace.failure is None and len(trace) == 10
    total = sum(r.solver_iters_total for r in trace.records)
    assert total <= 300, total


def test_nematic3d_prk_iteration_gate():
    # 101 prk steps of twisted_nematic44 at k = 24 and the preset seed (the
    # nematic3d-prk benchmark run), all above the stiffness of the spectral
    # preconditioner: 454 BiCGStab iterations, 478 with D_h's neighbour
    # couplings at full strength in the preconditioner of the random start
    # (alignment 1), 557 without the start on the normal component of the
    # right-hand side; deterministic, unlike a wall clock
    cfg = preset("twisted_nematic44")
    p = scheme_params(cfg, scheme="prk")
    _, trace = run(build_initial(cfg, build_grid(cfg)), p, 101 * p.tau)
    assert trace.failure is None and len(trace) == 101
    total = sum(r.solver_iters_total for r in trace.records)
    assert total <= 454, total


def test_nematic3d_mild_prk_iteration_gate():
    # 40 prk steps of twisted_nematic44 at k = 12, tau = 8e-4 (stiffness 1.38,
    # just below the spectral preconditioner's): 572 unpreconditioned BiCGStab
    # iterations, 626 with the Jacobi preconditioner, which scales the three
    # components of a node by different amounts
    cfg = preset("twisted_nematic44", k=12, tau=8e-4)
    p = scheme_params(cfg, scheme="prk")
    _, trace = run(build_initial(cfg, build_grid(cfg)), p, 40 * p.tau)
    assert trace.failure is None and len(trace) == 40
    total = sum(r.solver_iters_total for r in trace.records)
    assert total <= 600, total


def _polynomial_increments(rng, degree, n_stages, n_nodes):
    """dU(n), a polynomial of the given degree in the step index n per entry."""
    coef = rng.standard_normal((degree + 1, n_stages, 3, n_nodes))
    return lambda n: sum(c * (0.1 * n) ** d for d, c in enumerate(coef))


def test_stage_history_extrapolates_polynomials_exactly():
    # with q steps stored, the guess is exact for increments of degree q - 1,
    # up to the quartic of five steps, and not for degree q
    from prkflow.integrators import _StageHistory
    rng = np.random.default_rng(7)
    n_stages, n_nodes = 2, 11
    U0 = rng.standard_normal((3, n_nodes))
    start = VectorField(U0, Grid(1, n_nodes, 0.1))
    for degree in range(6):
        dU = _polynomial_increments(rng, degree, n_stages, n_nodes)
        history = _StageHistory(start, n_stages)
        storage = history._dU
        assert storage.shape == (5, n_stages, 3, n_nodes)
        assert history.guess(0, U0, U0) is U0
        for n in range(1, 9):
            history.push([U0 + dU(n - 1)[i] for i in range(n_stages)], U0)
            assert history._dU is storage
            order = min(n, 5) - 1
            for i in range(n_stages):
                want = dU(n)[i]
                err = np.abs(history.guess(i, U0, None) - U0 - want).max()
                if degree <= order:
                    assert err <= 1e-12 * np.abs(want).max(), (degree, n, err)
                else:
                    assert err > 1e-6 * np.abs(want).max(), (degree, n, err)


@pytest.mark.parametrize("preset_name", ["llg_blowup42", "point_defect43"])
@pytest.mark.parametrize("scheme", ["prk", "prk_alt"])
def test_stage_laplacian_comes_from_the_verified_residual(scheme, preset_name, monkeypatch):
    # D_h U^i of a stage is the product its true residual formed: a step
    # applies the Laplacian once per stage-operator product, with or without
    # history, on a Neumann grid and on a Dirichlet one
    from prkflow.grid import DiscreteLaplacian
    from prkflow.integrators import _StageHistory
    from prkflow.linalg import StageOperator
    cfg = preset(preset_name, k=8)
    grid = build_grid(cfg)
    p = scheme_params(cfg, scheme=scheme)
    m = normalize(build_initial(cfg, grid))
    counts = {"laplacian": 0, "dot": 0}
    apply, dot = DiscreteLaplacian.apply, StageOperator.dot

    def counting_apply(self, components):
        counts["laplacian"] += 1
        return apply(self, components)

    def counting_dot(self, x):
        counts["dot"] += 1
        return dot(self, x)

    monkeypatch.setattr(DiscreteLaplacian, "apply", counting_apply)
    monkeypatch.setattr(StageOperator, "dot", counting_dot)
    history, t = _StageHistory(m, p.tableau.s), 0.0
    for i in range(1, 4):
        m, rec = prk_step(m, p, i, t, history=history if i > 1 else None)
        t = rec.t
        assert counts["dot"] > 0 and counts["laplacian"] == counts["dot"], counts


def _watch_bicgstab(monkeypatch):
    """Wrap the stage solves' BiCGStab; returns, per call in order, the
    iterations it spent when it failed, or None when it succeeded."""
    import prkflow.integrators as integ
    import prkflow.linalg as linalg
    failures = []
    original = integ.solve

    def watching(A, rhs, cfg=None, x0=None, M=None):
        try:
            out = original(A, rhs, cfg, x0, M)
        except (linalg.NonConvergenceError, linalg.BreakdownError) as exc:
            failures.append(exc.iterations)
            raise
        failures.append(None)
        return out

    monkeypatch.setattr(integ, "solve", watching)
    return failures


@pytest.mark.parametrize("tau, n_steps, falls_back", [(0.1, 10, False), (1.0, 3, True)],
                         ids=["0.1-10", "1.0-3"])
def test_failed_bicgstab_stages_fall_back_to_superlu(tau, n_steps, falls_back, monkeypatch):
    # prk_alt on llg_blowup42 at k = 24.  At tau = 0.1 preconditioned BiCGStab
    # solves every stage (unpreconditioned it fails 11 of them); at tau = 1.0 it
    # misses its target within the budget on stage 2 of every step, which
    # then only SuperLU solves; with no fallback that run stops at step 1
    failures = _watch_bicgstab(monkeypatch)
    cfg = preset("llg_blowup42", tau=tau)
    m0 = build_initial(cfg, build_grid(cfg))
    _, trace = run(m0, scheme_params(cfg, scheme="prk_alt"), n_steps * tau)
    assert trace.failure is None and len(trace) == n_steps
    for r in trace.records:
        spent = failures[2 * (r.step - 1):2 * r.step]      # two stage solves per step
        failed = [i for i, n in enumerate(spent) if n is not None]
        assert bool(failed) is falls_back
        assert r.fallback_stages == tuple(i + 1 for i in failed)
        assert all(r.solver_iters[i] == spent[i] > 0 for i in failed)
    e = np.concatenate([[discrete_energy(m0)], trace.energies()])
    pre = np.array([r.energy_pre_projection for r in trace.records])
    assert np.all(pre - e[:-1] <= 1e-12 * e[:-1])
    assert np.all(np.diff(e) <= 1e-12 * e[:-1])


def test_fallback_solves_reach_the_trace_csv(tmp_path, monkeypatch):
    import prkflow.integrators as integ
    import prkflow.linalg as linalg
    from prkflow.harness import emit_trace_csv
    calls = [0]
    original = integ.solve

    def breaks_down(A, rhs, cfg=None, x0=None, M=None):
        calls[0] += 1
        if calls[0] in (3, 4, 5):      # both stages of step 2, stage 1 of step 3
            raise linalg.BreakdownError("synthetic breakdown", 7)
        return original(A, rhs, cfg, x0, M)

    monkeypatch.setattr(integ, "solve", breaks_down)
    cfg = preset("llg_blowup42", k=8)
    p = scheme_params(cfg, scheme="prk")
    _, trace = run(build_initial(cfg, build_grid(cfg)), p, 4 * p.tau)
    assert trace.failure is None
    assert [r.fallback_stages for r in trace.records] == [(), (1, 2), (1,), ()]
    path = tmp_path / "trace.csv"
    emit_trace_csv(trace, str(path))
    header, *rows = path.read_text().splitlines()
    column = header.split(",").index("fallback_solves")
    assert [int(row.split(",")[column]) for row in rows] == [0, 2, 1, 0]


def test_step_fails_only_when_superlu_fails_too(monkeypatch):
    import prkflow.integrators as integ
    import prkflow.linalg as linalg
    calls = [0]
    original = integ.solve

    def fifth_breaks_down(A, rhs, cfg=None, x0=None, M=None):
        calls[0] += 1
        if calls[0] == 5:          # step 3, stage 1
            raise linalg.BreakdownError("synthetic breakdown", 7)
        return original(A, rhs, cfg, x0, M)

    def failing_direct(A, rhs, cfg=None):
        raise linalg.NonConvergenceError(np.zeros_like(rhs), 1.0, 0)

    monkeypatch.setattr(integ, "solve", fifth_breaks_down)
    monkeypatch.setattr(integ, "direct_solve", failing_direct)
    cfg = preset("llg_blowup42", k=8)
    p = scheme_params(cfg, scheme="prk")
    _, trace = run(build_initial(cfg, build_grid(cfg)), p, 10 * p.tau)
    assert len(trace) == 2
    assert all(r.fallback_stages == () for r in trace.records)
    t, err = trace.failure
    assert t == pytest.approx(3 * p.tau)
    assert isinstance(err, integ.StepFailureError) and err.stage == 1
    assert isinstance(err.cause, linalg.NonConvergenceError) and err.__cause__ is err.cause
    bicgstab_error = err.cause.__context__
    assert isinstance(bicgstab_error, linalg.BreakdownError) and bicgstab_error.iterations == 7
