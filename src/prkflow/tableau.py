"""Product IMEX Runge-Kutta tableaux: structure checks, order conditions, certificates.

A product-type IMEX-RK method advances u' = f1(u) f2(u) by evaluating the
non-stiff factor f1 at D1-averaged lagged stages and the stiff factor f2 at
D2-averaged current stages, with outer weights (A, b).  The structure
certificates Q and R are symmetric matrices whose positive semi-definiteness
guarantees, for the constrained-flow scheme, energy decrease and length
increase of the pre-projection update.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PRKTableau",
    "TableauStructureError",
    "StageSolveError",
    "CertificateReport",
    "ScalarOrderResult",
    "validate",
    "order_condition_residuals",
    "satisfies_order",
    "shift_matrix",
    "q_matrix",
    "r_matrix",
    "certify",
    "prk2_tableau",
    "implicit_euler_tableau",
    "measure_scalar_order",
    "third_order_nonexistence_certificate",
    "tableau_to_dict",
    "tableau_from_dict",
]


class TableauStructureError(ValueError):
    """Raised when tableau arrays have inconsistent shapes or non-finite entries."""


class StageSolveError(RuntimeError):
    """Newton failed to converge at a stage of the scalar integration."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def _as_matrix(a, name, s):
    a = np.asarray(a, dtype=float)
    if a.shape != (s, s):
        raise TableauStructureError(f"{name} must be {s}x{s}, got {a.shape}")
    return a


@dataclass(frozen=True)
class PRKTableau:
    """Coefficient bundle (A, D1, D2, b); c is derived as the row sums of A."""

    A: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).reshape(-1)
        s = b.shape[0]
        if s == 0:
            raise TableauStructureError("b must be non-empty")
        object.__setattr__(self, "b", b)
        for name in ("A", "D1", "D2"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name, s))
        for name in ("A", "D1", "D2", "b"):
            if not np.isfinite(getattr(self, name)).all():
                raise TableauStructureError(f"{name} has an entry that is not finite")

    @property
    def s(self):
        return self.b.shape[0]

    @property
    def c(self):
        return self.A @ np.ones(self.s)


def shift_matrix(s):
    """Sub-diagonal shift J: (J v)_i = v_{i-1}, first entry zero."""
    return np.eye(s, k=-1)


_ROW_SUM_TOL = 1e-12


def validate(t):
    """Check structural invariants; returns a list of (name, index, residual).

    Besides lower-triangular A, D1, D2 and unit row sums of D1 and D2 (within
    ``_ROW_SUM_TOL``), the diagonals of A and D2 must be positive: each stage
    is an implicit solve.
    An empty list means the tableau is structurally valid.  Residuals are
    signed: row-sum entries report (1 - actual row sum).
    """
    violations = []
    s = t.s
    for name, mat in (("A", t.A), ("D1", t.D1), ("D2", t.D2)):
        for i in range(s):
            for j in range(i + 1, s):
                if mat[i, j] != 0.0:
                    violations.append((f"{name}_upper_triangle", (i, j), mat[i, j]))
    for name, mat in (("D1", t.D1), ("D2", t.D2)):
        for i in range(s):
            r = 1.0 - mat[i, : i + 1].sum()
            if abs(r) > _ROW_SUM_TOL:
                violations.append((f"{name}_row_sum", (i,), r))
    for i in range(s):
        if not t.A[i, i] > 0.0:
            violations.append(("A_diagonal_positive", (i,), t.A[i, i]))
        if not t.D2[i, i] > 0.0:
            violations.append(("D2_diagonal_positive", (i,), t.D2[i, i]))
    return violations


def _condition_terms(t):
    s = t.s
    J = shift_matrix(s)
    c = t.c
    d1jc = t.D1 @ (J @ c)
    d2c = t.D2 @ c
    return J, c, d1jc, d2c


def order_condition_residuals(t, up_to_order):
    """Signed residuals (lhs - rhs) of the order conditions through the given order.

    A tableau attains order p when every residual through order p vanishes
    (within ``_ORDER_TOL``, see ``satisfies_order``).  Orders 1..3 are supported.
    """
    if up_to_order not in (1, 2, 3):
        raise ValueError("up_to_order must be 1, 2 or 3")
    b = t.b
    J, c, d1jc, d2c = _condition_terms(t)
    out = [("order1 b.1", b.sum() - 1.0)]
    if up_to_order >= 2:
        out.append(("order2 b.D1Jc", b @ d1jc - 0.5))
        out.append(("order2 b.D2c", b @ d2c - 0.5))
    if up_to_order >= 3:
        A = t.A
        sixth = 1.0 / 6.0
        third = 1.0 / 3.0
        out.append(("order3 b.D1JAD1Jc", b @ (t.D1 @ (J @ (A @ d1jc))) - sixth))
        out.append(("order3 b.D1JAD2c", b @ (t.D1 @ (J @ (A @ d2c))) - sixth))
        out.append(("order3 b.D2AD1Jc", b @ (t.D2 @ (A @ d1jc)) - sixth))
        out.append(("order3 b.D2AD2c", b @ (t.D2 @ (A @ d2c)) - sixth))
        out.append(("order3 b.(D1Jc)^2", b @ (d1jc * d1jc) - third))
        out.append(("order3 b.(D1Jc.D2c)", b @ (d1jc * d2c) - third))
        out.append(("order3 b.(D2c)^2", b @ (d2c * d2c) - third))
    return out


_ORDER_TOL = 1e-13


def satisfies_order(t, order):
    return all(abs(r) <= _ORDER_TOL for _, r in order_condition_residuals(t, order))


def q_matrix(t):
    """Q = B D2 A + (B D2 A)^T - b b^T with B = diag(b)."""
    bda = np.diag(t.b) @ t.D2 @ t.A
    return bda + bda.T - np.outer(t.b, t.b)


def r_matrix(t):
    """R = b b^T - B D1 J A - (B D1 J A)^T, J the sub-diagonal shift: with stage
    i's mobility at sum_k D1[i,k] U^{k-1}, the pre-projection length bound."""
    bja = np.diag(t.b) @ t.D1 @ shift_matrix(t.s) @ t.A
    return np.outer(t.b, t.b) - bja - bja.T


@dataclass(frozen=True)
class CertificateReport:
    q_matrix: np.ndarray
    r_matrix: np.ndarray
    q_eigenvalues: np.ndarray
    r_eigenvalues: np.ndarray
    b_nonnegative: bool
    satisfies_theorem: bool
    indeterminate: bool = False


_PSD_TOL = 1e-12


def certify(t):
    """Eigenvalue-based positive-semidefiniteness certificate for Q and R.

    The PSD floor is scaled per matrix: min eigenvalue >= -_PSD_TOL * max(1, ||M||_inf).
    ``satisfies_theorem`` additionally requires b >= -_PSD_TOL.
    """
    Q = q_matrix(t)
    R = r_matrix(t)
    try:
        q_eigs = np.linalg.eigvalsh(Q)
        r_eigs = np.linalg.eigvalsh(R)
    except np.linalg.LinAlgError:
        return CertificateReport(Q, R, np.full(t.s, np.nan), np.full(t.s, np.nan),
                                 bool(np.all(t.b >= -_PSD_TOL)), False, indeterminate=True)
    b_ok = bool(np.all(t.b >= -_PSD_TOL))
    q_ok = q_eigs.min() >= -_PSD_TOL * max(1.0, np.abs(Q).sum(axis=1).max())
    r_ok = r_eigs.min() >= -_PSD_TOL * max(1.0, np.abs(R).sum(axis=1).max())
    return CertificateReport(Q, R, q_eigs, r_eigs, b_ok, bool(b_ok and q_ok and r_ok))


def prk2_tableau():
    """The two-stage second-order tableau with certified energy decrease.

    A = [[1, 0], [0, 1/2]], b = (1/2, 1/2), D2 = [[1, 0], [-1, 2]]; the
    mobility factor is evaluated at the single lagged stage, i.e. D1 = I.
    """
    A = np.array([[1.0, 0.0], [0.0, 0.5]])
    D2 = np.array([[1.0, 0.0], [-1.0, 2.0]])
    D1 = np.eye(2)
    b = np.array([0.5, 0.5])
    return PRKTableau(A=A, D1=D1, D2=D2, b=b)


def implicit_euler_tableau():
    """One stage, A = D1 = D2 = [[1]], b = (1): first order, Q = R = [[1]] (certified).

    The product step with it is SIP1: (I - tau P(m) D_h) U = m, m~ = m + tau P(m) D_h U.
    """
    return PRKTableau(A=[[1.0]], D1=[[1.0]], D2=[[1.0]], b=[1.0])


def _numeric_derivative(f, x):
    d = 1e-7 * (1.0 + abs(x))
    return (f(x + d) - f(x - d)) / (2.0 * d)


def _newton_stage(g, x0, tol=1e-13, max_iter=50):
    x = x0
    fx = g(x)
    for _ in range(max_iter):
        if abs(fx) <= tol * max(1.0, abs(x)):
            return x
        fp = _numeric_derivative(g, x)
        if fp == 0.0:
            break
        step = -fx / fp
        damping = 1.0
        while damping > 1e-4:
            xn = x + damping * step
            fxn = g(xn)
            if abs(fxn) < abs(fx):
                x, fx = xn, fxn
                break
            damping *= 0.5
        else:
            break
    if abs(fx) <= tol * max(1.0, abs(x)):
        return x
    return None


def _scalar_prk_step(t, f1, f2, u0, tau):
    """One step of the generic product scheme on a scalar ODE u' = f1(u) f2(u)."""
    s = t.s
    u = [u0]          # u[k] = stage value u_k, u[0] = u^n
    F = []            # F[j] = f1(x1_j) f2(x2_j)
    for i in range(1, s + 1):
        x1 = sum(t.D1[i - 1, k - 1] * u[k - 1] for k in range(1, i + 1))
        w = sum(t.D2[i - 1, k - 1] * u[k] for k in range(1, i))
        acc = sum(t.A[i - 1, j - 1] * F[j - 1] for j in range(1, i))
        aii = t.A[i - 1, i - 1]
        dii = t.D2[i - 1, i - 1]
        f1x = f1(x1)

        def g(x):
            return x - u0 - tau * acc - tau * aii * f1x * f2(w + dii * x)

        ui = _newton_stage(g, u[i - 1])
        if ui is None:
            raise StageSolveError(i, f"stage {i} Newton iteration failed to converge")
        u.append(ui)
        F.append(f1x * f2(w + dii * ui))
    return u0 + tau * sum(t.b[j] * F[j] for j in range(s))


def _rk4_reference(f1, f2, u0, T, step):
    def rhs(u):
        return f1(u) * f2(u)

    n = max(1, int(round(T / step)))
    hh = T / n
    u = u0
    for _ in range(n):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * hh * k1)
        k3 = rhs(u + 0.5 * hh * k2)
        k4 = rhs(u + hh * k3)
        u = u + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


@dataclass(frozen=True)
class ScalarOrderResult:
    slope: float
    taus: np.ndarray
    errors: np.ndarray
    u_reference: float


def measure_scalar_order(t, f1, f2, u0, T, tau_list):
    """Empirical convergence order of the product scheme on u' = f1(u) f2(u).

    Integrates to T for each step size, measures errors against a classical
    RK4 reference (step min(tau_list)/100) and returns the least-squares
    slope of log(error) against log(tau).
    """
    taus = np.asarray(tau_list, dtype=float)
    if taus.size < 2:
        raise ValueError("need at least two step sizes to estimate a slope")
    u_ref = _rk4_reference(f1, f2, u0, T, taus.min() / 100.0)
    errors = []
    for tau in taus:
        n = int(round(T / tau))
        u = u0
        for _ in range(n):
            u = _scalar_prk_step(t, f1, f2, u, tau)
        errors.append(abs(u - u_ref))
    errors = np.array(errors)
    slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    return ScalarOrderResult(float(slope), taus, errors, u_ref)


def third_order_nonexistence_certificate():
    """Quadratic obstruction to a three-stage third-order scheme.

    The order conditions force 12 b3^2 - 6 b3 + 1 = 0 for the last weight;
    its discriminant is 36 - 48 = -12 < 0, so no real b3 exists.  Returns
    ((12, -6, 1), -12).
    """
    coeffs = (12.0, -6.0, 1.0)
    disc = coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2]
    return coeffs, disc


def tableau_to_dict(t):
    return {
        "s": t.s,
        "A": t.A.tolist(),
        "D1": t.D1.tolist(),
        "D2": t.D2.tolist(),
        "b": t.b.tolist(),
    }


def _numbers_only(value):
    """Whether value is a number that is not a bool, or a nested list of them."""
    if isinstance(value, (list, tuple)):
        return all(_numbers_only(item) for item in value)
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def tableau_from_dict(doc):
    """The tableau of a document with an integer ``s`` and nested lists A, D1, D2, b.

    Nothing is cast: a value that only a cast makes a number raises
    TableauStructureError naming its key.
    """
    missing = [key for key in ("s", "A", "D1", "D2", "b") if key not in doc]
    if missing:
        raise TableauStructureError(f"tableau lacks keys {missing}")
    s = doc["s"]
    if not (_numbers_only(s) and isinstance(s, numbers.Integral)):
        raise TableauStructureError(f"s must be an integer, got {s!r}")
    for key in ("A", "D1", "D2", "b"):
        if not _numbers_only(doc[key]):
            raise TableauStructureError(f"{key} has an entry that is not a number")
    t = PRKTableau(A=doc["A"], D1=doc["D1"], D2=doc["D2"], b=doc["b"])
    if t.s != s:
        raise TableauStructureError(f"declared s={s} but b has length {t.s}")
    return t
