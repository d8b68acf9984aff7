"""Tableau structure, order conditions, certificates, and the nonexistence scan.

Golden values for the two-stage tableau were computed once in exact rational
arithmetic; the Fraction-based oracle below re-derives them inside the tests.
"""

from fractions import Fraction

import numpy as np
import pytest

from prkflow.tableau import (PRKTableau, TableauStructureError, certify,
                             implicit_euler_tableau, measure_scalar_order,
                             order_condition_residuals, prk2_tableau, q_matrix, r_matrix, satisfies_order,
                             shift_matrix, tableau_from_dict, tableau_to_dict,
                             third_order_nonexistence_certificate, validate,
                             _scalar_prk_step)
from prkflow.stability import stability_function


# ---------------------------------------------------------------------------
# exact rational oracle

def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _frac_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][p] * b[p][j] for p in range(k)) for j in range(m)] for i in range(n)]


def _frac_matvec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def _frac_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


PRK2_A = _frac_matrix([[1, 0], [0, Fraction(1, 2)]])
PRK2_D = _frac_matrix([[1, 0], [-1, 2]])
PRK2_B = [Fraction(1, 2), Fraction(1, 2)]
PRK2_C = [Fraction(1), Fraction(1, 2)]
FRAC_J = _frac_matrix([[0, 0], [1, 0]])


def _frac_q():
    bda = _frac_matmul([[PRK2_B[0], 0], [0, PRK2_B[1]]], _frac_matmul(PRK2_D, PRK2_A))
    return [[bda[i][j] + bda[j][i] - PRK2_B[i] * PRK2_B[j] for j in range(2)] for i in range(2)]


def _frac_r():
    bja = _frac_matmul([[PRK2_B[0], 0], [0, PRK2_B[1]]], _frac_matmul(FRAC_J, PRK2_A))
    return [[PRK2_B[i] * PRK2_B[j] - bja[i][j] - bja[j][i] for j in range(2)] for i in range(2)]


# ---------------------------------------------------------------------------
# structure

def test_prk2_validates_clean():
    assert validate(prk2_tableau()) == []


def test_dimension_mismatch_raises():
    with pytest.raises(TableauStructureError):
        PRKTableau(A=np.eye(2), D1=np.eye(2), D2=np.eye(2), b=[1.0, 0.0, 0.0])


@pytest.mark.parametrize("name", ["A", "D1", "D2", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises(name, value):
    # a NaN passes every comparison-based check of validate, so it is refused here
    arrays = {"A": [[1.0, 0.0], [0.0, 0.5]], "D1": [[1.0, 0.0], [0.0, 1.0]],
              "D2": [[1.0, 0.0], [-1.0, 2.0]], "b": [0.5, 0.5]}
    entry = arrays[name][1] if name != "b" else arrays[name]
    entry[0] = value
    with pytest.raises(TableauStructureError, match=f"^{name} has an entry that is not finite"):
        PRKTableau(**arrays)


def test_row_sum_violation_reported():
    t = PRKTableau(A=[[1.0, 0.0], [0.0, 0.5]], D1=np.eye(2),
                   D2=[[1.0, 0.0], [-1.0, 1.5]], b=[0.5, 0.5])
    bad = validate(t)
    assert len(bad) == 1
    name, idx, residual = bad[0]
    assert name == "D2_row_sum" and idx == (1,)
    assert residual == pytest.approx(0.5, abs=1e-15)


def test_upper_triangle_violation_reported():
    t = PRKTableau(A=[[1.0, 0.25], [0.0, 0.5]], D1=np.eye(2),
                   D2=[[1.0, 0.0], [-1.0, 2.0]], b=[0.5, 0.5])
    assert any(name == "A_upper_triangle" for name, _, _ in validate(t))


def test_nonpositive_diagonal_flagged_for_implicit_use():
    t = PRKTableau(A=[[1.0, 0.0], [0.0, -0.5]], D1=np.eye(2),
                   D2=[[1.0, 0.0], [0.0, 1.0]], b=[0.5, 0.5])
    assert any(name == "A_diagonal_positive" for name, _, _ in validate(t))


def test_json_round_trip():
    t = prk2_tableau()
    t2 = tableau_from_dict(tableau_to_dict(t))
    assert np.array_equal(t.A, t2.A) and np.array_equal(t.D2, t2.D2)
    assert np.array_equal(t.b, t2.b)


# ---------------------------------------------------------------------------
# order conditions

def test_prk2_order_two_against_rational_oracle():
    t = prk2_tableau()
    jc = _frac_matvec(FRAC_J, PRK2_C)
    dc = _frac_matvec(PRK2_D, PRK2_C)
    assert _frac_dot(PRK2_B, [1, 1]) == 1
    assert _frac_dot(PRK2_B, jc) == Fraction(1, 2)
    assert _frac_dot(PRK2_B, dc) == Fraction(1, 2)
    for _, residual in order_condition_residuals(t, 2):
        assert residual == 0.0
    assert satisfies_order(t, 2)


def test_prk2_third_order_residual_matches_oracle():
    t = prk2_tableau()
    dc = _frac_matvec(PRK2_D, PRK2_C)
    exact = _frac_dot(PRK2_B, [x * x for x in dc]) - Fraction(1, 3)
    assert exact == Fraction(1, 6)
    res = dict(order_condition_residuals(t, 3))
    assert res["order3 b.(D2c)^2"] == pytest.approx(float(exact), abs=1e-15)
    assert not satisfies_order(t, 3)


def test_first_order_only_depends_on_b():
    t = PRKTableau(A=[[0.3, 0.0], [0.1, 0.7]], D1=np.eye(2),
                   D2=[[1.0, 0.0], [0.25, 0.75]], b=[1.0, 0.0])
    res = dict(order_condition_residuals(t, 1))
    assert res["order1 b.1"] == 0.0


def test_residuals_bitwise_reproducible():
    t = prk2_tableau()
    a = order_condition_residuals(t, 3)
    b = order_condition_residuals(t, 3)
    assert all(x[1] == y[1] for x, y in zip(a, b))


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        order_condition_residuals(prk2_tableau(), 4)


# ---------------------------------------------------------------------------
# certificates

def test_q_matrix_golden():
    q = q_matrix(prk2_tableau())
    exact = np.array([[float(x) for x in row] for row in _frac_q()])
    assert np.array_equal(q, exact)
    assert np.array_equal(exact, np.array([[0.75, -0.75], [-0.75, 0.75]]))


def test_r_matrix_golden():
    r = r_matrix(prk2_tableau())
    exact = np.array([[float(x) for x in row] for row in _frac_r()])
    assert np.array_equal(r, exact)
    assert np.array_equal(exact, np.array([[0.25, -0.25], [-0.25, 0.25]]))


def test_q_identity_substitution():
    t = PRKTableau(A=np.eye(3), D1=np.eye(3), D2=np.eye(3), b=[1.0, 0.0, 0.0])
    assert np.array_equal(q_matrix(t), np.diag([1.0, 0.0, 0.0]))


def test_single_stage_r_is_psd():
    # the implicit-Euler tableau, which scheme sip1 steps with
    t = implicit_euler_tableau()
    for name in ("A", "D1", "D2"):
        assert np.array_equal(getattr(t, name), [[1.0]])
    assert np.array_equal(t.b, [1.0])
    assert validate(t) == []
    rep = certify(t)
    assert np.array_equal(rep.q_matrix, [[1.0]])
    assert np.array_equal(rep.r_matrix, [[1.0]])
    assert rep.satisfies_theorem
    assert satisfies_order(t, 1) and not satisfies_order(t, 2)


def test_q_r_symmetric_exactly():
    t = prk2_tableau()
    assert np.array_equal(q_matrix(t), q_matrix(t).T)
    assert np.array_equal(r_matrix(t), r_matrix(t).T)


def test_second_order_tableaux_annihilate_ones():
    # Q 1 = R 1 = 0 is forced by the second-order conditions (PSD + zero sum)
    t = prk2_tableau()
    one = np.ones(t.s)
    assert np.abs(q_matrix(t) @ one).max() <= 1e-12
    assert np.abs(r_matrix(t) @ one).max() <= 1e-12


def test_certify_prk2():
    rep = certify(prk2_tableau())
    assert rep.b_nonnegative and rep.satisfies_theorem
    assert rep.q_eigenvalues == pytest.approx([0.0, 1.5], abs=1e-14)
    assert rep.r_eigenvalues == pytest.approx([0.0, 0.5], abs=1e-14)
    assert rep.q_eigenvalues.min() >= -1e-13 and rep.r_eigenvalues.min() >= -1e-13


def test_certify_negative_weight_fails():
    t = PRKTableau(A=[[1.0, 0.0], [0.0, 0.5]], D1=np.eye(2),
                   D2=[[1.0, 0.0], [-1.0, 2.0]], b=[-0.5, 1.5])
    rep = certify(t)
    assert not rep.b_nonnegative and not rep.satisfies_theorem


def test_variant_form_shares_certificate():
    # the averaged-projector variant is driven by the same underlying (A, D2)
    # pair, so its structure certificate coincides with the base tableau's
    a = certify(prk2_tableau())
    b = certify(PRKTableau(A=[[1.0, 0.0], [0.0, 0.5]], D1=np.eye(2),
                           D2=[[1.0, 0.0], [-1.0, 2.0]], b=[0.5, 0.5]))
    assert np.array_equal(a.q_matrix, b.q_matrix)
    assert np.array_equal(a.r_matrix, b.r_matrix)
    assert a.satisfies_theorem == b.satisfies_theorem


# ---------------------------------------------------------------------------
# scalar-order measurement

def test_scalar_order_prk2_product_ode():
    t = prk2_tableau()
    result = measure_scalar_order(t, np.cos, lambda u: u, u0=1.0, T=1.0,
                                  tau_list=[0.1 / 2 ** j for j in range(6)])
    assert 1.9 <= result.slope <= 2.1


def test_scalar_order_implicit_euler():
    # u' = 1 * (-u^2); with the factors the other way round, u * (-u), the
    # step u / (1 + tau u) is exact and shows no order
    result = measure_scalar_order(implicit_euler_tableau(), lambda u: 1.0, lambda u: -u * u,
                                  u0=1.0, T=1.0, tau_list=[0.1 / 2 ** j for j in range(6)])
    assert 0.9 <= result.slope <= 1.1


def test_single_linear_step_matches_stability_function():
    t = prk2_tableau()
    tau = 0.3
    u1 = _scalar_prk_step(t, lambda u: 1.0, lambda u: -u, 1.0, tau)
    r = stability_function(t, -tau, 0.0, 0.0)
    assert abs(r.imag) < 1e-15
    assert u1 == pytest.approx(r.real, rel=1e-13)


def test_scalar_order_needs_two_points():
    with pytest.raises(ValueError):
        measure_scalar_order(prk2_tableau(), np.cos, lambda u: u, 1.0, 1.0, [0.1])


def test_stage_newton_failure_reports_stage():
    # x = 1 + 10 x^2 has no real solution: the first stage cannot converge
    from prkflow.tableau import StageSolveError
    with pytest.raises(StageSolveError) as err:
        _scalar_prk_step(prk2_tableau(), lambda u: 1.0, lambda u: u * u, 1.0, 10.0)
    assert err.value.stage == 1


# ---------------------------------------------------------------------------
# three-stage nonexistence

def test_nonexistence_quadratic():
    coeffs, disc = third_order_nonexistence_certificate()
    assert coeffs == (12.0, -6.0, 1.0)
    assert disc == -12.0
    roots = np.roots(coeffs)
    assert np.iscomplex(roots).all()
    assert roots.real == pytest.approx([0.25, 0.25])


def _three_stage_candidate(b3, a32=0.3, d33=0.7):
    """Unique completion of the three-stage system given the last weight b3.

    Derived once by exact elimination of the order conditions together with
    Q1 = 0 and R1 = 0 (both forced by positive semi-definiteness and the
    second-order conditions); a32 and d33 stay free, and the two leftover
    third-order residuals are +/- (3 b3 - 1)^2 (4 b3 - 1) / (9 b3 (2 b3 - 1)^2)
    independent of them.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = (1.0 / 3.0 - b3) / (0.5 - b3)
        b2 = (0.5 - b3) / c1
        b1 = 1.0 - b2 - b3
        a11 = c1
        a22 = 1.0 / (6.0 * b3 * c1)
        a21 = 1.0 - a22
        d22 = 2.0 * (12.0 * b3 ** 2 - 7.0 * b3 + 1.0) / (2.0 * b3 - 1.0)
        a33 = (3.0 * b3 - 1.0) * (4.0 * b3 - 1.0) / (3.0 * b3 * d33 * (2.0 * b3 - 1.0))
        a31 = (-48 * a32 * b3 ** 3 * d33 + 32 * a32 * b3 ** 2 * d33
               - 6 * a32 * b3 * d33 + 24 * b3 ** 3 * d33 - 96 * b3 ** 3
               - 20 * b3 ** 2 * d33 + 72 * b3 ** 2 + 4 * b3 * d33
               - 16 * b3 + 1) / (6 * b3 * d33 * (2 * b3 - 1) ** 2)
        d32 = (-24 * a32 * b3 ** 3 * d33 + 8 * a32 * b3 ** 2 * d33
               - 28 * b3 ** 2 + 18 * b3 - 3) / (2 * b3 * (2 * b3 - 1))
    A = [[a11, 0.0, 0.0], [a21, a22, 0.0], [a31, a32, a33]]
    D2 = [[1.0, 0.0, 0.0], [1.0 - d22, d22, 0.0], [1.0 - d32 - d33, d32, d33]]
    b = [b1, b2, b3]
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(D2)) or not np.all(np.isfinite(b)):
        return None
    return PRKTableau(A=A, D1=np.eye(3), D2=D2, b=b)


def _feasible(t, order_tol=1e-9):
    """Theorem constraints + third-order conditions, checked numerically."""
    if t is None:
        return False
    worst = max(abs(r) for _, r in order_condition_residuals(t, 3))
    if worst > order_tol:
        return False
    if not (np.diag(t.A) > 0).all() or not (np.diag(t.D2) > 0).all():
        return False
    return certify(t).satisfies_theorem


def test_three_stage_grid_scan_finds_no_feasible_tableau():
    # coarse 0.05 grid over the remaining degree of freedom plus the two
    # exact roots of the leftover residual, with several (a32, d33) choices
    b3_grid = np.concatenate([np.arange(-2.0, 3.0001, 0.05), [1.0 / 3.0, 0.25]])
    free_choices = [(0.3, 0.7), (1.0, 1.0), (-0.5, 0.4)]
    for b3 in b3_grid:
        for a32, d33 in free_choices:
            assert not _feasible(_three_stage_candidate(b3, a32, d33)), b3


def test_three_stage_scan_root_fails_structurally():
    # at b3 = 1/4 every order condition holds but a33 = 0 and R is indefinite
    t = _three_stage_candidate(0.25)
    worst = max(abs(r) for _, r in order_condition_residuals(t, 3))
    assert worst <= 1e-12
    assert t.A[2, 2] == pytest.approx(0.0, abs=1e-15)
    rep = certify(t)
    assert rep.r_eigenvalues.min() < -0.05
    assert not rep.satisfies_theorem
