"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long experiment
reproductions (full Table-1 sweep at h = 1/64 and the two 3-D runs) carry the
``slow`` marker.  The default selection runs them too; ``-m "not slow"``
leaves them out and ``-m slow`` runs only them.

Known red: test_table3_lm2_failure_onset.  The Lagrange-multiplier scheme
implemented here (three-step form with the fixed-direction parametrization
of the energy-enforcement step) is more robust than the benchmark breakdown
behavior this criterion encodes: its scalar multiplier equation admits a
real root far beyond the expected breakdown times.  The criterion is
asserted as stated and fails honestly; a variant study (initializations,
multiplier groupings, root-search semantics) established that the windows
are unattainable for this formulation.
"""

import math
import time

import numpy as np
import pytest

from prkflow.field import ProjectionParams, VectorField
from prkflow.grid import Grid, discrete_energy, inner_product, laplacian
from prkflow.harness import (build_grid, build_initial, l2_error, preset,
                             reference_snapshots, scheme_params)
from prkflow.integrators import NoRealRootError, SchemeParams, run
from prkflow.linalg import SolverConfig
from prkflow.stability import RegionWindow, embed, sample_region, stability_function
from prkflow.tableau import (certify, measure_scalar_order,
                             order_condition_residuals, prk2_tableau, q_matrix,
                             r_matrix, third_order_nonexistence_certificate)

from test_grid import energy_operator_form
from test_tableau import _three_stage_candidate, _feasible
from test_stability import _oracle_one_step


def _report(name, checks):
    """checks: list of (label, ok) or (label, ok, detail)."""
    failed = [c for c in checks if not c[1]]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    for c in checks:
        mark = "ok" if c[1] else "FAILED"
        detail = f"  {c[2]}" if len(c) > 2 else ""
        print(f"    [{mark}] {c[0]}{detail}")
    assert not failed, f"{name}: {[c[0] for c in failed]}"


def test_tableau_algebra_exact():
    t = prk2_tableau()
    q = q_matrix(t)
    r = r_matrix(t)
    rep = certify(t)
    res2 = order_condition_residuals(t, 2)
    res3 = order_condition_residuals(t, 3)
    checks = [
        ("Q golden", np.abs(q - [[0.75, -0.75], [-0.75, 0.75]]).max() <= 1e-14),
        ("R golden", np.abs(r - [[0.25, -0.25], [-0.25, 0.25]]).max() <= 1e-14),
        ("Q eigenvalues {0, 3/2}", np.allclose(rep.q_eigenvalues, [0.0, 1.5], atol=1e-14)),
        ("R eigenvalues {0, 1/2}", np.allclose(rep.r_eigenvalues, [0.0, 0.5], atol=1e-14)),
        ("b nonnegative", rep.b_nonnegative and rep.satisfies_theorem),
        ("order-1/2 residuals <= 1e-13", max(abs(x) for _, x in res2) <= 1e-13),
        ("an order-3 residual >= 0.1", max(abs(x) for _, x in res3) >= 0.1),
    ]
    _report("tableau-algebra", checks)


def test_nonexistence_certificate():
    coeffs, disc = third_order_nonexistence_certificate()
    b3_grid = np.concatenate([np.arange(-2.0, 3.0001, 0.05), [1.0 / 3.0, 0.25]])
    scan_clear = all(not _feasible(_three_stage_candidate(b3)) for b3 in b3_grid)
    checks = [
        ("quadratic coefficients (12, -6, 1)", coeffs == (12.0, -6.0, 1.0)),
        ("discriminant -12", disc == -12.0),
        ("grid scan finds no feasible tableau", scan_clear),
    ]
    _report("nonexistence-certificate", checks)


def test_scalar_ode_order():
    t = prk2_tableau()
    result = measure_scalar_order(t, np.cos, lambda u: u, u0=1.0, T=1.0,
                                  tau_list=[0.1 / 2 ** j for j in range(6)])
    _report("scalar-ode-order",
            [("slope 2.0 +/- 0.15", abs(result.slope - 2.0) <= 0.15,
              f"slope = {result.slope:.4f}")])


def test_stability_function_and_region(rng):
    t = prk2_tableau()
    e = embed(t)
    origin_ok = stability_function(t, 0.0, 0.0, 0.0) == 1.0 + 0.0j
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-2, 2, size=(3, 2))
        z0, z1, z2 = (complex(a, b) for a, b in z)
        r = stability_function(t, z0, z1, z2)
        r_direct = _oracle_one_step(e, z0, z1, z2)
        worst = max(worst, abs(r - r_direct) / max(1.0, abs(r_direct)))
    t0 = time.perf_counter()
    window = RegionWindow(-6.0, 2.0, -4.0, 4.0, 400, 400)
    sample = sample_region(t, window, alpha=math.pi / 2)
    elapsed = time.perf_counter() - t0
    inside = sample.mask
    bounded = (not inside[0].any() and not inside[-1].any()
               and not inside[:, 0].any() and not inside[:, -1].any())
    checks = [
        ("R(0,0,0) = 1 exactly", origin_ok),
        ("direct-simulation oracle to 1e-13 (100 triples)", worst <= 1e-13,
         f"worst rel diff = {worst:.2e}"),
        ("figure preset mask nonempty", bool(inside.any())),
        ("complement nonempty", bool((~inside).any())),
        ("mask bounded inside window", bounded),
        ("runtime < 30 s at 400x400", elapsed < 30.0, f"{elapsed:.1f} s"),
    ]
    _report("stability-function", checks)


def test_discrete_operator_identities(rng):
    checks = []
    for dim, k in ((2, 8), (3, 4)):
        grid = Grid(dim, k + 1, 1.0 / k)
        f = VectorField(rng.standard_normal((3, grid.n_nodes)), grid)
        a = discrete_energy(f)
        b = energy_operator_form(f)
        checks.append((f"summation-by-parts {dim}-D", abs(a - b) <= 1e-12 * abs(a),
                       f"rel diff = {abs(a - b) / abs(a):.2e}"))
        lap = laplacian(grid)
        u, v = rng.standard_normal((2, grid.n_nodes))
        lhs = inner_product(lap.matrix @ u, v, grid)
        rhs = inner_product(u, lap.matrix @ v, grid)
        checks.append((f"weighted self-adjointness {dim}-D",
                       abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))))
        unit = Grid(dim, k + 1, 1.0)   # unit spacing: the matrix is the integer stencil
        checks.append((f"constants annihilated exactly {dim}-D",
                       np.abs(laplacian(unit).matrix @ np.ones(unit.n_nodes)).max() == 0.0))
    k = 4
    grid = Grid(3, k + 1, 1.0 / k,
                faces=tuple(lambda x: np.repeat((x ** 2).sum(axis=1)[:, None], 3, axis=1)
                            for _ in range(6)))
    lap = laplacian(grid)
    q = (grid.coords ** 2).sum(axis=1)
    out = lap.matrix @ q + lap.bc_contribution[0]
    interior = ~grid.dirichlet_mask
    checks.append(("Dirichlet quadratic exactness: Laplacian(x^2+y^2+z^2) = 6",
                   np.array_equal(out[interior], np.full(interior.sum(), 6.0))))
    _report("discrete-operator-identities", checks)


def test_structure_preservation_at_scale():
    # the headline claim: 1000 steps of the certified scheme on the blowup
    # problem keep unit length and dissipate the discrete energy every step
    cfg = preset("llg_blowup42")     # h = 1/24, tau = 1e-4
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = scheme_params(cfg, scheme="prk")
    e_prev = discrete_energy(m0)
    final, trace = run(m0, p, 0.1)
    assert trace.failure is None
    assert len(trace) == 1000
    worst_dev = max(r.max_unit_dev for r in trace.records)
    worst_len = min(r.min_len_pre for r in trace.records)
    pre_ok = True
    post_ok = True
    for rec in trace.records:
        pre_ok = pre_ok and rec.energy_pre_projection <= e_prev * (1 + 1e-9)
        post_ok = post_ok and rec.energy <= e_prev * (1 + 1e-9)
        e_prev = rec.energy
    checks = [
        ("max unit deviation <= 1e-12", worst_dev <= 1e-12, f"{worst_dev:.2e}"),
        ("min pre-projection length >= 1 - 1e-8", worst_len >= 1 - 1e-8,
         f"min = 1 {worst_len - 1.0:+.2e}"),
        ("pre-projection energy dissipates", pre_ok),
        ("post-projection energy dissipates", post_ok),
    ]
    _report("structure-preservation-at-scale", checks)


def _table1_checks(cfg, n_halvings):
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    ref, ref_trace = run(m0, SchemeParams(
        scheme="bdf4_ref", tau=cfg.ref_tau,
        projection=ProjectionParams(alpha=1.0, beta=1.0),
        solver=SolverConfig(rel_tol=1e-12)), cfg.T)
    assert ref_trace.failure is None

    def sweep(scheme):
        errs = []
        for j in range(n_halvings + 1):
            p = scheme_params(cfg, scheme=scheme, tau=3.2e-4 / 2 ** j)
            final, trace = run(m0, p, cfg.T)
            assert trace.failure is None
            errs.append(l2_error(final, ref, grid))
        orders = [np.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
        return errs, orders

    prk_errs, prk_orders = sweep("prk")
    alt_errs, _alt_orders = sweep("prk_alt")
    sip_errs, sip_orders = sweep("sip1")
    checks = [
        ("PRK2 error at tau=3.2e-4 within 3x of 2.67e-5",
         2.67e-5 / 3 <= prk_errs[0] <= 3 * 2.67e-5, f"err = {prk_errs[0]:.3e}"),
        ("PRK2 consecutive orders in [1.85, 2.1]",
         all(1.85 <= o <= 2.1 for o in prk_orders),
         f"orders = {[f'{o:.2f}' for o in prk_orders]}"),
        ("SIP1 error at tau=3.2e-4 within 3x of 1.77e-3",
         1.77e-3 / 3 <= sip_errs[0] <= 3 * 1.77e-3, f"err = {sip_errs[0]:.3e}"),
        ("SIP1 orders in [0.9, 1.1]",
         all(0.9 <= o <= 1.1 for o in sip_orders),
         f"orders = {[f'{o:.2f}' for o in sip_orders]}"),
        ("variant scheme within 1.5x of PRK2 at every tau",
         all(e2 <= 1.5 * e1 and e1 <= 1.5 * e2
             for e1, e2 in zip(prk_errs, alt_errs))),
    ]
    return checks


def test_table1_reduced_ci_gate():
    t0 = time.perf_counter()
    cfg = preset("convergence41", k=32)
    checks = _table1_checks(cfg, n_halvings=3)
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 3 min", elapsed < 180.0, f"{elapsed:.0f} s"))
    _report("table1-reduced-ci-gate", checks)


@pytest.mark.slow
def test_table1_full_desk_scale():
    cfg = preset("convergence41")    # h = 1/64, BDF4 reference at tau = 1e-6
    checks = _table1_checks(cfg, n_halvings=5)
    _report("table1-full-desk-scale", checks)


@pytest.mark.slow
def test_table1_lm2_column():
    # LM2 integrates the beta = 0 flow; its finest-step error is compared
    # one-sidedly against the reported 2.94e-7 (this implementation's
    # multiplier enforcement is measurably more accurate; see the ledger)
    cfg = preset("convergence41")
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    ref, ref_trace = run(m0, SchemeParams(
        scheme="bdf4_ref", tau=1e-6,
        projection=ProjectionParams(alpha=1.0, beta=0.0),
        solver=SolverConfig(rel_tol=1e-12)), cfg.T)
    assert ref_trace.failure is None
    errs = []
    for j in (3, 4, 5):
        p = SchemeParams(scheme="lm2", tau=3.2e-4 / 2 ** j,
                         projection=ProjectionParams(alpha=1.0, beta=0.0))
        final, trace = run(m0, p, cfg.T)
        assert trace.failure is None
        errs.append(l2_error(final, ref, grid))
    orders = [np.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
    checks = [
        ("LM2 error at tau=1e-5 at most 3x of 2.94e-7", errs[-1] <= 3 * 2.94e-7,
         f"err = {errs[-1]:.3e}"),
        ("LM2 orders within 0.15 of 2",
         all(abs(o - 2.0) <= 0.15 for o in orders),
         f"orders = {[f'{o:.2f}' for o in orders]}"),
    ]
    _report("table1-lm2-column", checks)


@pytest.fixture(scope="module")
def table3_cfg():
    return preset("llg_blowup42", k=48, reference="self", ref_tau=5e-5)


def test_table3_prk_schemes_complete(table3_cfg):
    cfg = table3_cfg
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    checkpoints = (0.002, 0.004, 0.006, 0.008, 0.12, 0.2)
    refs = reference_snapshots(cfg, build_initial(cfg), checkpoints)
    checks = []
    for scheme in ("prk", "prk_alt"):
        for tau in (1e-3, 2e-4):
            p = scheme_params(cfg, scheme=scheme, tau=tau)
            snaps = {}

            def observe(_i, t, m, _s=snaps):
                for want in checkpoints:
                    if abs(t - want) <= 1e-9:
                        _s[want] = m.copy()

            _final, trace = run(m0, p, 0.2, observers=[observe])
            errs = [l2_error(snaps[T], refs[T], grid) for T in checkpoints]
            ok = trace.failure is None and all(np.isfinite(e) for e in errs)
            checks.append((f"{scheme} tau={tau:g} completes with finite errors",
                           ok, f"err(T=0.2) = {errs[-1]:.3e}"))
    _report("table3-prk-completes", checks)


def test_table3_lm2_failure_onset(table3_cfg):
    # asserted exactly as specified; see the module docstring for why this
    # criterion is expected to fail for the written-form LM2 scheme
    cfg = table3_cfg
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    onsets = {}
    for tau in (1e-3, 2e-4):
        p = scheme_params(cfg, scheme="lm2", tau=tau)
        _final, trace = run(m0, p, 0.2)
        if trace.failure is not None:
            t_fail, exc = trace.failure
            onsets[tau] = (t_fail, isinstance(exc, NoRealRootError))
        else:
            onsets[tau] = (None, False)
    checks = [
        ("LM2 tau=1e-3 raises NoRealRoot at or before T=0.008",
         onsets[1e-3][0] is not None and onsets[1e-3][0] <= 0.008 and onsets[1e-3][1],
         f"onset = {onsets[1e-3][0]}"),
        ("LM2 tau=2e-4 fails at or before T=0.12",
         onsets[2e-4][0] is not None and onsets[2e-4][0] <= 0.12,
         f"onset = {onsets[2e-4][0]}"),
    ]
    _report("table3-lm2-onset", checks)


def test_blowup_transition():
    cfg = preset("llg_blowup42")     # h = 1/24, tau = 1e-4
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    center = grid.center_index()
    p = scheme_params(cfg, scheme="prk")
    crossing = []

    def observe(_i, t, m):
        if not crossing and m.components[2, center] < 0.0:
            crossing.append(t)

    run(m0, p, 0.06, observers=[observe])
    t_cross = crossing[0] if crossing else None
    _report("blowup-transition",
            [("center third component crosses zero in [0.045, 0.055]",
              t_cross is not None and 0.045 <= t_cross <= 0.055,
              f"t = {t_cross}")])


@pytest.mark.slow
def test_example43_point_defect_3d():
    cfg = preset("point_defect43")   # h = 1/24, tau = 1e-3, T = 0.6
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = scheme_params(cfg, scheme="prk")
    _final, trace = run(m0, p, cfg.T)
    e = trace.energies()
    checks = [
        ("completes to T = 0.6", trace.failure is None and len(trace) == 600),
        ("energy monotone", bool(np.all(np.diff(e) <= 1e-9 * e[:-1]))),
        ("unit length preserved",
         max(r.max_unit_dev for r in trace.records) <= 1e-12),
    ]
    _report("example43-point-defect", checks)


@pytest.mark.slow
def test_example44_twisted_nematic_3d():
    cfg = preset("twisted_nematic44")  # h = 1/24, tau = 5e-3, T = 0.5
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = scheme_params(cfg, scheme="prk")
    final, trace = run(m0, p, cfg.T)
    e = trace.energies()
    n = grid.n_per_axis
    mid = n // 2
    line = [grid.node_index((mid, mid, kz)) for kz in range(n)]
    angles = np.arctan2(final.components[1, line], final.components[0, line])
    monotone_twist = bool(np.all(np.diff(angles) >= -1e-6))
    checks = [
        ("completes to T = 0.5", trace.failure is None and len(trace) == 100),
        ("energy monotone", bool(np.all(np.diff(e) <= 1e-9 * e[:-1]))),
        ("mid-line director rotates monotonically from x- to y-anchor",
         monotone_twist and abs(angles[0]) <= 1e-9
         and abs(angles[-1] - np.pi / 2) <= 1e-9,
         f"angle range [{angles[0]:.3f}, {angles[-1]:.3f}]"),
    ]
    _report("example44-twisted-nematic", checks)
