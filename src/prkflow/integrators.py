"""Time-stepping schemes for the constrained gradient flow m_t = -P(m) mu.

Every step produces an on-sphere field via pointwise projection of the
predictor m-tilde, plus a record of the quantities the structure theory
controls: the pre-projection energy and minimum length, the post-projection
energy, and the unit-length deviation.

Schemes:
  * prk_step       -- the product IMEX-RK scheme: stage systems
                      (I - tau a_ii d_ii P(U^{i-1}) D_h) U^i = U^0 + tau mu_i
  * prk_alt_step   -- the variant that averages the projector instead of the
                      Laplacian, with transformed tableau Ahat = A D, G = D^{-1}
  * sip1_step      -- first-order semi-implicit predictor + projection
  * lm2_step       -- second-order Lagrange-multiplier scheme (beta = 0)
  * bdf4_step      -- fourth-order semi-implicit BDF reference scheme

``run`` is the only time loop: ``make_stepper`` binds each scheme, with the
auxiliary state of the multistep schemes (LM2, BDF4), to one per-step form.
LM2's predictor system (I - tau alpha/2 D_h) m~ = rhs is solved exactly by
``grid.shifted_laplacian_inverse``, the inverse the tangent-space
preconditioner of the beta = 0 stage solves applies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
import scipy.optimize

from . import linalg
from .field import (ZERO_LENGTH_THRESHOLD, VectorField, ProjectionParams, normalize,
                    diagnostics, projector_blocks, apply_blocks)
from .grid import laplacian, discrete_energy, inner_product, shifted_laplacian_inverse
from .linalg import SolverConfig, StageOperator, TangentBlocks, solve
from .tableau import PRKTableau, prk2_tableau, validate

__all__ = [
    "SchemeParams",
    "StepRecord",
    "RunTrace",
    "LM2State",
    "StepFailureError",
    "NoRealRootError",
    "prk_step",
    "prk_alt_step",
    "sip1_step",
    "lm2_step",
    "lm2_init",
    "bdf4_step",
    "run",
    "make_stepper",
]

TRACE_COLUMNS = ("step", "t", "energy", "energy_pre_projection", "min_len_pre",
                 "max_unit_dev", "solver_iters_total", "wall_ms")

# LM2: the energy-enforcement direction (1, 1, 1)/sqrt(3) and the half-width
# of the bracket searched for its scalar multiplier
_LM2_DIRECTION = np.ones(3) / np.linalg.norm(np.ones(3))
_LM2_BRACKET = 10.0


class StepFailureError(RuntimeError):
    """A step failed; carries the stage index (or None) and the underlying cause."""

    def __init__(self, stage, cause):
        super().__init__(f"step failed at stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


class NoRealRootError(RuntimeError):
    """The scalar multiplier equation has no real solution in the search bracket."""


@dataclass(frozen=True)
class SchemeParams:
    """Scheme selector plus the numerical parameters shared by all schemes."""

    scheme: str                      # prk | prk_alt | sip1 | lm2 | bdf4_ref
    tau: float
    projection: ProjectionParams
    tableau: PRKTableau = None
    theta: float = 1.0               # sip1 implicitness, 1/2 <= theta <= 1
    solver: SolverConfig = dataclass_field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.scheme not in ("prk", "prk_alt", "sip1", "lm2", "bdf4_ref"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "sip1" and not 0.5 <= self.theta <= 1.0:
            raise ValueError("sip1 requires 1/2 <= theta <= 1")
        if self.scheme in ("prk", "prk_alt"):
            tab = self.tableau if self.tableau is not None else prk2_tableau()
            object.__setattr__(self, "tableau", tab)
            bad = validate(tab)
            if bad:
                raise ValueError(f"tableau fails validation: {bad}")


@dataclass
class StepRecord:
    step: int
    t: float
    energy: float
    energy_pre_projection: float
    min_len_pre: float
    max_unit_dev: float
    solver_iters: tuple
    solver_residuals: tuple
    wall_ms: float
    lm2_lambda_min: float = np.nan
    lm2_lambda_max: float = np.nan
    lm2_eta: float = np.nan

    @property
    def solver_iters_total(self):
        return int(sum(self.solver_iters))


class RunTrace:
    """Per-step records in time order, with CSV-friendly row access."""

    def __init__(self):
        self.records = []
        self.failure = None          # (time, exception) when a run aborted

    def append(self, record):
        if self.records and record.t <= self.records[-1].t:
            raise ValueError("records must be appended in time order")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def rows(self):
        for r in self.records:
            yield tuple(getattr(r, name) for name in TRACE_COLUMNS)

    def energies(self):
        return np.array([r.energy for r in self.records])


def _tangent(field, projection):
    """TangentBlocks of projector_blocks(field, projection) when beta = 0, else None."""
    if projection.beta != 0.0:
        return None
    return TangentBlocks(field, projection.alpha)


def _stage_solve(lap, blocks, coeff, rhs, solver, stage, x0, tangent=None):
    """Solve (I - coeff P D_h) U = rhs + coeff P bc for U (3, N); returns (U, iters, residual).

    The boundary forcing of the Laplacian enters the right-hand side here.
    The iterative solvers start from ``x0`` (3, N), an O(tau) guess of U:
    the previous stage value, or an extrapolation of the history.
    ``tangent`` (see ``_tangent``) marks blocks that are alpha P_t of one
    field; BiCGStab then takes the tangent-space spectral preconditioner if
    the stage is stiff (see ``linalg``).
    Solver failures become StepFailureError(stage, ...).
    """
    rhs = rhs + coeff * apply_blocks(blocks, lap.bc_contribution)
    try:
        x, nit, res = solve(StageOperator(lap, blocks, coeff, tangent), rhs.reshape(-1), solver,
                            x0=x0.reshape(-1))
    except (linalg.NonConvergenceError, linalg.BreakdownError) as exc:
        raise StepFailureError(stage, exc) from exc
    return x.reshape(3, -1), nit, res


def _finish_step(grid, m_tilde, step_index, t_next, iters, resids, t_wall0, extra=None):
    pre = VectorField(m_tilde, grid)
    e_pre = discrete_energy(pre)
    d_pre = diagnostics(pre)
    out = normalize(pre)
    d_post = diagnostics(out)
    e_post = discrete_energy(out)
    rec = StepRecord(step=step_index, t=t_next, energy=e_post,
                     energy_pre_projection=e_pre, min_len_pre=d_pre.min_length,
                     max_unit_dev=d_post.max_unit_deviation,
                     solver_iters=tuple(iters), solver_residuals=tuple(resids),
                     wall_ms=(time.perf_counter() - t_wall0) * 1e3)
    if extra:
        for k, v in extra.items():
            setattr(rec, k, v)
    return out, rec


def prk_step(state, p, step_index=0, t0=0.0):
    """One step of the product scheme (mobility at the lagged stage, D2-averaged Laplacian).

    The averaged Laplacian Y_j = sum_{k<=j} D2[j,k] D_h U^k and its image
    P_j Y_j are formed once, right after stage j is solved, and reused by the
    later stages and the final update.
    """
    grid = state.grid
    lap = laplacian(grid)
    tab = p.tableau
    Atab, Dtab, btab, s = tab.A, tab.D2, tab.b, tab.s
    tau = p.tau
    t_wall = time.perf_counter()

    U0 = state.components
    U = U0
    DU, PY = [], []
    iters, resids = [], []
    for i in range(s):
        mobility = VectorField(U, grid)
        blocks = projector_blocks(mobility, p.projection)
        y_partial = np.zeros_like(U0)
        for k in range(i):
            y_partial += Dtab[i, k] * DU[k]
        mu = np.zeros_like(U0)
        for j in range(i):
            mu += Atab[i, j] * PY[j]
        mu += Atab[i, i] * apply_blocks(blocks, y_partial)

        coeff = tau * Atab[i, i] * Dtab[i, i]
        # stage i starts from U^{i-1}, stage 1 from U^0
        U, nit, res = _stage_solve(lap, blocks, coeff, U0 + tau * mu, p.solver, i + 1, U,
                                   _tangent(mobility, p.projection))
        iters.append(nit)
        resids.append(res)
        DU.append(lap.apply(U))
        PY.append(apply_blocks(blocks, y_partial + Dtab[i, i] * DU[i]))

    m_tilde = U0.copy()
    for j in range(s):
        m_tilde += tau * btab[j] * PY[j]
    return _finish_step(grid, m_tilde, step_index, t0 + tau, iters, resids, t_wall)


def prk_alt_step(state, p, step_index=0, t0=0.0):
    """Variant form: averaged projector times the un-averaged stage Laplacian.

    Uses Ahat = A D2, bhat = D2^T b and averaging weights G = D2^{-1}.
    """
    grid = state.grid
    lap = laplacian(grid)
    tab = p.tableau
    try:
        G = np.linalg.inv(tab.D2)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(None, f"singular D2: {exc}") from exc
    Ahat = tab.A @ tab.D2
    bhat = tab.D2.T @ tab.b
    s = tab.s
    tau = p.tau
    t_wall = time.perf_counter()

    U0 = state.components
    U = U0
    P_single = []
    PD = []          # P_avg[j] D_h U^j, formed once per stage
    iters, resids = [], []
    for i in range(s):
        P_single.append(projector_blocks(VectorField(U, grid), p.projection))
        p_avg = np.zeros_like(P_single[0])
        for k in range(i + 1):
            p_avg += G[i, k] * P_single[k]

        rhs = U0.copy()
        for j in range(i):
            rhs += tau * Ahat[i, j] * PD[j]
        U, nit, res = _stage_solve(lap, p_avg, tau * Ahat[i, i], rhs, p.solver, i + 1, U)
        iters.append(nit)
        resids.append(res)
        PD.append(apply_blocks(p_avg, lap.apply(U)))

    m_tilde = U0.copy()
    for j in range(s):
        m_tilde += tau * bhat[j] * PD[j]
    return _finish_step(grid, m_tilde, step_index, t0 + tau, iters, resids, t_wall)


def sip1_step(state, p, step_index=0, t0=0.0):
    """Semi-implicit predictor (I - tau theta P D_h) m~ = m + tau (1-theta) P D_h m."""
    grid = state.grid
    lap = laplacian(grid)
    tau, theta = p.tau, p.theta
    t_wall = time.perf_counter()

    blocks = projector_blocks(state, p.projection)
    rhs = state.components + tau * (1.0 - theta) * apply_blocks(blocks, lap.apply(state.components))
    m_tilde, nit, res = _stage_solve(lap, blocks, tau * theta, rhs, p.solver, 1,
                                     state.components, _tangent(state, p.projection))
    return _finish_step(grid, m_tilde, step_index, t0 + tau, [nit], [res], t_wall)


@dataclass
class LM2State:
    """Auxiliary history of the Lagrange-multiplier scheme."""

    lam: np.ndarray          # pointwise multiplier field
    predictor: np.ndarray    # previous unprojected predictor (3, N)
    solve: object            # in-place (I - tau*alpha/2 * D_h)^-1 (shifted_laplacian_inverse)


def lm2_init(state, p):
    """m~^0 = m^0; lambda^0 = -m.D_h m pointwise."""
    grid = state.grid
    dm = laplacian(grid).apply(state.components)
    lam = -np.einsum("ln,ln->n", state.components, dm)
    return LM2State(lam=lam, predictor=state.components.copy(),
                    solve=shifted_laplacian_inverse(grid, p.tau * p.projection.alpha / 2.0))


def _lm2_energy(comps, grid):
    # the Lagrange-multiplier energy balance is written for int 1/2 |grad m|^2,
    # which is half the module's discrete energy
    return 0.5 * discrete_energy(comps, grid)


def _lm2_scalar_root(F, bracket, xtol=1e-12, scan_step=0.0025):
    """Root of F nearest zero inside [-bracket, bracket]; None when no sign change.

    A non-finite F (LM2's: the field vanishes at a node) is no sign change.
    """
    f0 = F(0.0)
    if f0 == 0.0:
        return 0.0

    def changes_sign(eta):
        f = F(eta)
        return math.isfinite(f) and f0 * f < 0

    for d in np.arange(scan_step, bracket + 0.5 * scan_step, scan_step):
        if changes_sign(d):
            return scipy.optimize.brentq(F, 0.0, d, xtol=xtol)
        if changes_sign(-d):
            return scipy.optimize.brentq(F, -d, 0.0, xtol=xtol)
    return None


def lm2_step(state, aux, p, step_index=0, t0=0.0):
    """Predictor / corrector / energy-enforcement step (beta = 0 flow).

    Returns (field, updated aux, record).  Raises NoRealRootError when the
    scalar multiplier equation has no real solution in the bracket.
    """
    if p.projection.beta != 0.0:
        raise ValueError("lm2 implements the beta = 0 flow")
    grid = state.grid
    lap = laplacian(grid)
    tau, alpha = p.tau, p.projection.alpha
    t_wall = time.perf_counter()

    m = state.components
    d_pred = lap.apply(aux.predictor)
    rhs = m + (tau * alpha / 2.0) * d_pred + (tau * alpha) * aux.lam * m
    m_tilde = aux.solve(rhs)

    w = m_tilde - (tau * alpha / 2.0) * aux.lam * m
    wn = np.sqrt(np.einsum("ln,ln->n", w, w))
    if (wn < 1e-300).any():
        raise StepFailureError(2, "zero-length corrector direction")
    lam_new = 2.0 * (1.0 - wn) / (tau * alpha)
    m_hat = w / wn

    g = 0.5 * (m_hat + m)
    dg = lap.apply(g)
    cr = np.cross(g, dg, axis=0)
    dissipation = sum(inner_product(cr[l], cr[l], grid) for l in range(3))
    target = _lm2_energy(m, grid) - tau * alpha * dissipation

    e_dir = _LM2_DIRECTION[:, None]

    def F(eta):
        v = m_hat + eta * e_dir
        vn = np.sqrt(np.einsum("ln,ln->n", v, v))
        if vn.min() < ZERO_LENGTH_THRESHOLD:
            return np.nan      # v / |v| is undefined where v vanishes
        return _lm2_energy(v / vn, grid) - target

    eta = _lm2_scalar_root(F, _LM2_BRACKET)
    if eta is None:
        raise NoRealRootError(
            f"no real multiplier in [-{_LM2_BRACKET}, {_LM2_BRACKET}] at t={t0 + tau:.6g}")
    v = m_hat + eta * e_dir
    m_tilde_post = v  # the field entering the final projection
    aux_new = LM2State(lam=lam_new, predictor=m_tilde, solve=aux.solve)
    out, rec = _finish_step(grid, m_tilde_post, step_index, t0 + tau, [1], [0.0], t_wall,
                            extra={"lm2_lambda_min": float(lam_new.min()),
                                   "lm2_lambda_max": float(lam_new.max()),
                                   "lm2_eta": float(eta)})
    return out, aux_new, rec


def bdf4_step(state, hist, p, step_index=0, t0=0.0):
    """One step of the fourth-order semi-implicit BDF reference scheme.

    The Laplacian is implicit; the mobility is evaluated at the fourth-order
    extrapolation of the history.  hist holds the last (up to) four on-sphere
    levels, oldest first, starting from the normalized initial field; while it
    has fewer than four, the step is ten product sub-steps at tau/10 whose
    record carries every sub-step's solves.  Returns (field, hist, record).
    """
    grid = state.grid
    tau = p.tau
    t_wall = time.perf_counter()
    if len(hist) < 4:
        startup = replace(p, scheme="prk", tau=tau / 10.0, tableau=prk2_tableau())
        m = hist[-1]
        iters, resids = [], []
        for _ in range(10):
            m, rec = prk_step(m, startup)
            iters.extend(rec.solver_iters)
            resids.extend(rec.solver_residuals)
        rec = replace(rec, step=step_index, t=t0 + tau, solver_iters=tuple(iters),
                      solver_residuals=tuple(resids),
                      wall_ms=(time.perf_counter() - t_wall) * 1e3)
        return m, hist + (m,), rec

    h0, h1, h2, h3 = (h.components for h in hist)
    m_star = 4.0 * h3 - 6.0 * h2 + 4.0 * h1 - h0
    mobility = VectorField(m_star, grid)
    blocks = projector_blocks(mobility, p.projection)
    rhs = (48.0 * h3 - 36.0 * h2 + 16.0 * h1 - 3.0 * h0) / 25.0
    x, nit, res = _stage_solve(laplacian(grid), blocks, tau * 12.0 / 25.0, rhs, p.solver, 1,
                               m_star, _tangent(mobility, p.projection))
    out, rec = _finish_step(grid, x, step_index, t0 + tau, [nit], [res], t_wall)
    return out, hist[1:] + (out,), rec


def _step_count(T, tau):
    if T < 0:
        raise ValueError("T must be nonnegative")
    n = int(round(T / tau))
    if abs(n * tau - T) > 1e-8 * max(tau, T):
        raise ValueError(f"T={T} is not an integer multiple of tau={tau}")
    return n


def make_stepper(initial, p):
    """Bind scheme state and return step(field, i, t) -> (field, record).

    The multistep schemes keep their auxiliary state in this closure.  Step
    functions are looked up by name at every call, so that wrappers put on
    the module's names take effect.
    """
    if p.scheme == "prk":
        return lambda m, i, t: prk_step(m, p, i, t)
    if p.scheme == "prk_alt":
        return lambda m, i, t: prk_alt_step(m, p, i, t)
    if p.scheme == "sip1":
        return lambda m, i, t: sip1_step(m, p, i, t)
    aux = lm2_init(initial, p) if p.scheme == "lm2" else (normalize(initial),)

    def step(m, i, t):
        nonlocal aux
        advance = lm2_step if p.scheme == "lm2" else bdf4_step
        out, aux, rec = advance(m, aux, p, i, t)
        return out, rec

    return step


def run(initial, p, T, observers=None):
    """Iterate the selected scheme to time T = n tau; returns (field, trace).

    Observers are callables (step_index, t, field) invoked after every step.
    A step failure stops the run; the trace keeps the records up to the
    failure and the exception in ``trace.failure``.
    """
    n_steps = _step_count(T, p.tau)
    trace = RunTrace()
    m = initial if initial.on_sphere else normalize(initial)
    stepper = make_stepper(m, p)
    t = 0.0
    for i in range(1, n_steps + 1):
        try:
            m, rec = stepper(m, i, t)
        except (StepFailureError, NoRealRootError) as exc:
            trace.failure = (t + p.tau, exc)
            return m, trace
        t = rec.t
        trace.append(rec)
        if observers:
            for obs in observers:
                obs(i, t, m)
    return m, trace
