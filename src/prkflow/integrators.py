"""Time-stepping schemes for the constrained gradient flow m_t = -P(m) mu.

Every step produces an on-sphere field via pointwise projection of the
predictor m-tilde, plus a record of the quantities the structure theory
controls: the pre-projection energy and minimum length, the post-projection
energy, and the unit-length deviation.

Schemes:
  * prk_step       -- the product IMEX-RK scheme: stage systems
                      (I - tau a_ii d_ii P(U^{i-1}) D_h) U^i = U^0 + tau mu_i;
                      scheme "sip1" is its one-stage implicit-Euler tableau
  * prk_alt_step   -- the variant that averages the projector instead of the
                      Laplacian, with transformed tableau Ahat = A D, G = D^{-1}
  * lm2_step       -- second-order Lagrange-multiplier scheme (beta = 0)
  * bdf4_step      -- fourth-order semi-implicit BDF reference scheme

``run`` is the only time loop: ``make_stepper`` binds each scheme, with the
auxiliary state of the multistep schemes (LM2, BDF4), to one per-step form.
For prk, sip1 and prk_alt it keeps the stage increments U^i - U^n of the
last three steps (``_StageHistory``), and stage i starts its solve from U^n
plus their quadratic extrapolation in time; a direct step call keeps none
and starts stage i from U^{i-1} (stage 1 from U^n).
A stage solve that BiCGStab fails is taken over by SuperLU and named in
the step record's ``fallback_stages`` (``_stage_solve``).
LM2's predictor system (I - tau alpha/2 D_h) m~ = rhs is solved exactly by
``grid.shifted_laplacian_inverse``, the inverse the tangent-space
preconditioner of the stage solves applies with the shift
coeff (alpha + i beta).
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
from .linalg import SolverConfig, StageOperator, TangentBlocks, direct_solve, solve
from .tableau import PRKTableau, implicit_euler_tableau, prk2_tableau, tableau_to_dict, validate

__all__ = [
    "SchemeParams",
    "StepRecord",
    "RunTrace",
    "LM2State",
    "StepFailureError",
    "NoRealRootError",
    "prk_step",
    "prk_alt_step",
    "lm2_step",
    "lm2_init",
    "bdf4_step",
    "run",
    "make_stepper",
]

TRACE_COLUMNS = ("step", "t", "energy", "energy_pre_projection", "min_len_pre",
                 "max_unit_dev", "solver_iters_total", "fallback_solves", "wall_ms")

# LM2: the energy-enforcement direction e = (1, 1, 1)/sqrt(3) and the
# half-width of the bracket searched for its scalar multiplier
_LM2_DIRECTION = np.ones(3) / np.linalg.norm(np.ones(3))
_LM2_BRACKET = 10.0
# below this max |m_hat . e| every |m_hat + eta e| is at least 1e-3
_LM2_PARALLEL = 1.0 - 1e-6


class StepFailureError(RuntimeError):
    """A step failed; carries the 1-based index of the failing solve in the
    step (or None) and the underlying cause."""

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
    tableau: PRKTableau = None       # prk, prk_alt: default PRK2; sip1: implicit Euler only
    solver: SolverConfig = dataclass_field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.scheme not in ("prk", "prk_alt", "sip1", "lm2", "bdf4_ref"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme in ("prk", "prk_alt", "sip1"):
            default = implicit_euler_tableau() if self.scheme == "sip1" else prk2_tableau()
            tab = self.tableau if self.tableau is not None else default
            if self.scheme == "sip1" and tableau_to_dict(tab) != tableau_to_dict(default):
                raise ValueError("sip1 is the implicit-Euler tableau; step with scheme 'prk' "
                                 "for another")
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
    fallback_stages: tuple = ()      # 1-based solves (see solver_iters) that SuperLU solved
    lm2_lambda_min: float = np.nan
    lm2_lambda_max: float = np.nan
    lm2_eta: float = np.nan

    @property
    def solver_iters_total(self):
        return int(sum(self.solver_iters))

    @property
    def fallback_solves(self):
        return len(self.fallback_stages)


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


class _Solves:
    """The solves of one step, in order: iterations, true residuals and the
    1-based indices of those that fell back to SuperLU."""

    def __init__(self, iters=(), resids=()):
        self.iters, self.resids, self.fallbacks = list(iters), list(resids), []


def _stage_solve(solves, lap, blocks, coeff, rhs, solver, x0, tangent=None):
    """Solve (I - coeff P D_h) U = rhs + coeff P bc for U (3, N), recorded in ``solves``.

    The boundary forcing of the Laplacian enters the right-hand side here.
    BiCGStab starts from ``x0`` (3, N), an O(tau) guess of U:
    the previous stage value, or an extrapolation of the history.
    ``tangent``, a TangentBlocks, marks blocks that are the mobility of one
    field; BiCGStab then takes the tangent-space spectral preconditioner if
    the stage is stiff (see ``linalg``).  When BiCGStab fails, SuperLU solves
    the same operator; the solve records BiCGStab's iterations, SuperLU's
    residual and its index in ``solves.fallbacks``.  When SuperLU fails too,
    the step raises StepFailureError(index, SuperLU's error), whose context
    is BiCGStab's.
    """
    stage = len(solves.iters) + 1
    A = StageOperator(lap, blocks, coeff, tangent)
    rhs = (rhs + coeff * apply_blocks(blocks, lap.bc_contribution)).reshape(-1)
    try:
        x, nit, res = solve(A, rhs, solver, x0=x0.reshape(-1))
    except (linalg.NonConvergenceError, linalg.BreakdownError) as exc:
        try:
            x, res = direct_solve(A, rhs, solver)
        except (linalg.NonConvergenceError, linalg.BreakdownError) as direct_exc:
            raise StepFailureError(stage, direct_exc) from direct_exc
        nit = exc.iterations
        solves.fallbacks.append(stage)
    solves.iters.append(nit)
    solves.resids.append(res)
    return x.reshape(3, -1)


class _StageHistory:
    """Stage increments dU^i = U^i - U^n of the last three steps, for start guesses.

    Preallocated as (3 steps, s stages, 3, N) and written in place.  Stage i
    of step n starts from U^n plus the extrapolation of its increments in
    time: 3 dU^i_{n-1} - 3 dU^i_{n-2} + dU^i_{n-3} (quadratic), with fewer
    stored steps 2 dU^i_{n-1} - dU^i_{n-2}, then dU^i_{n-1}.
    """

    _WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))

    def __init__(self, n_stages, n_nodes):
        self._dU = np.empty((3, n_stages, 3, n_nodes))
        self._count = 0           # steps stored, at most 3
        self._newest = 2          # slot of the newest step

    def guess(self, i, U0, fallback):
        """Start guess of stage i (0-based) of the step from U0; fallback with no history."""
        if not self._count:
            return fallback
        x = U0.copy()
        for back, w in enumerate(self._WEIGHTS[self._count - 1]):
            x += w * self._dU[(self._newest - back) % 3, i]
        return x

    def push(self, stages, U0):
        """Store the increments of one step's stage values over U0 as the newest."""
        self._newest = (self._newest + 1) % 3
        for dU, U in zip(self._dU[self._newest], stages):
            np.subtract(U, U0, out=dU)
        self._count = min(self._count + 1, 3)


def _finish_step(grid, m_tilde, step_index, t_next, solves, t_wall0, extra=None):
    pre = VectorField(m_tilde, grid)
    e_pre = discrete_energy(pre)
    d_pre = diagnostics(pre)
    out = normalize(pre)
    d_post = diagnostics(out)
    e_post = discrete_energy(out)
    rec = StepRecord(step=step_index, t=t_next, energy=e_post,
                     energy_pre_projection=e_pre, min_len_pre=d_pre.min_length,
                     max_unit_dev=d_post.max_unit_deviation,
                     solver_iters=tuple(solves.iters), solver_residuals=tuple(solves.resids),
                     fallback_stages=tuple(solves.fallbacks),
                     wall_ms=(time.perf_counter() - t_wall0) * 1e3)
    if extra:
        for k, v in extra.items():
            setattr(rec, k, v)
    return out, rec


def prk_step(state, p, step_index=0, t0=0.0, *, history=None, solves=None):
    """One step of the product scheme (mobility at the lagged stage, D2-averaged Laplacian).

    The averaged Laplacian Y_j = sum_{k<=j} D2[j,k] D_h U^k and its image
    P_j Y_j are formed once, right after stage j is solved, and reused by the
    later stages and the final update.  Stage i starts from the previous stage
    value or, given the ``history`` that ``make_stepper`` keeps, from the
    extrapolation of the past steps' stage increments; the step then stores
    its own increments there.  The record's solves are those of ``solves``
    (a ``_Solves`` shared by several steps, which BDF4's start-up passes)
    followed by the step's own.
    """
    grid = state.grid
    lap = laplacian(grid)
    tab = p.tableau
    Atab, Dtab, btab, s = tab.A, tab.D2, tab.b, tab.s
    tau = p.tau
    t_wall = time.perf_counter()

    U0 = state.components
    U = U0
    stages, DU, PY = [], [], []
    solves = _Solves() if solves is None else solves
    for i in range(s):
        mobility = VectorField(U, grid)
        blocks = projector_blocks(mobility, p.projection)
        y_partial = np.zeros_like(U0)
        for k in range(i):
            y_partial += Dtab[i, k] * DU[k]
        mu = np.zeros_like(U0)
        for j in range(i):
            mu += Atab[i, j] * PY[j]
        if i:        # the first stage has no lagged Laplacian: y_partial = 0
            mu += Atab[i, i] * apply_blocks(blocks, y_partial)

        coeff = tau * Atab[i, i] * Dtab[i, i]
        # without history stage i starts from U^{i-1}, stage 1 from U^0
        x0 = U if history is None else history.guess(i, U0, U)
        U = _stage_solve(solves, lap, blocks, coeff, U0 + tau * mu, p.solver, x0,
                         TangentBlocks(mobility, p.projection))
        stages.append(U)
        DU.append(lap.apply(U))
        PY.append(apply_blocks(blocks, y_partial + Dtab[i, i] * DU[i]))

    if history is not None:
        history.push(stages, U0)
    m_tilde = U0.copy()
    for j in range(s):
        m_tilde += tau * btab[j] * PY[j]
    return _finish_step(grid, m_tilde, step_index, t0 + tau, solves, t_wall)


def prk_alt_step(state, p, step_index=0, t0=0.0, *, history=None):
    """Variant form: averaged projector times the un-averaged stage Laplacian.

    Uses Ahat = A D2, bhat = D2^T b and averaging weights G = D2^{-1}.  The
    stage solves start as in ``prk_step``.  The variant keeps the energy
    decrease but not the pre-projection length bound of the structure
    theorem: its length can fall below 1.
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
    stages = []
    P_single = []
    PD = []          # P_avg[j] D_h U^j, formed once per stage
    solves = _Solves()
    for i in range(s):
        P_single.append(projector_blocks(VectorField(U, grid), p.projection))
        p_avg = np.zeros_like(P_single[0])
        for k in range(i + 1):
            p_avg += G[i, k] * P_single[k]

        rhs = U0.copy()
        for j in range(i):
            rhs += tau * Ahat[i, j] * PD[j]
        x0 = U if history is None else history.guess(i, U0, U)
        U = _stage_solve(solves, lap, p_avg, tau * Ahat[i, i], rhs, p.solver, x0)
        stages.append(U)
        PD.append(apply_blocks(p_avg, lap.apply(U)))

    if history is not None:
        history.push(stages, U0)
    m_tilde = U0.copy()
    for j in range(s):
        m_tilde += tau * bhat[j] * PD[j]
    return _finish_step(grid, m_tilde, step_index, t0 + tau, solves, t_wall)


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
    # |m_hat + eta e| >= (1 - (m_hat.e)^2)^(1/2) at every node, so v can vanish
    # only where m_hat is parallel to e; elsewhere F needs no length check
    near_parallel = np.abs(_LM2_DIRECTION @ m_hat).max() > _LM2_PARALLEL

    def F(eta):
        v = m_hat + eta * e_dir
        vn = np.sqrt(np.einsum("ln,ln->n", v, v))
        if near_parallel and vn.min() < ZERO_LENGTH_THRESHOLD:
            return np.nan      # v / |v| is undefined where v vanishes
        return _lm2_energy(v / vn, grid) - target

    eta = _lm2_scalar_root(F, _LM2_BRACKET)
    if eta is None:
        raise NoRealRootError(
            f"no real multiplier in [-{_LM2_BRACKET}, {_LM2_BRACKET}] at t={t0 + tau:.6g}")
    v = m_hat + eta * e_dir
    m_tilde_post = v  # the field entering the final projection
    aux_new = LM2State(lam=lam_new, predictor=m_tilde, solve=aux.solve)
    out, rec = _finish_step(grid, m_tilde_post, step_index, t0 + tau, _Solves([1], [0.0]), t_wall,
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
        m, solves = hist[-1], _Solves()
        for _ in range(10):
            m, rec = prk_step(m, startup, solves=solves)
        rec = replace(rec, step=step_index, t=t0 + tau,
                      wall_ms=(time.perf_counter() - t_wall) * 1e3)
        return m, hist + (m,), rec

    h0, h1, h2, h3 = (h.components for h in hist)
    m_star = 4.0 * h3 - 6.0 * h2 + 4.0 * h1 - h0
    mobility = VectorField(m_star, grid)
    blocks = projector_blocks(mobility, p.projection)
    rhs = (48.0 * h3 - 36.0 * h2 + 16.0 * h1 - 3.0 * h0) / 25.0
    solves = _Solves()
    x = _stage_solve(solves, laplacian(grid), blocks, tau * 12.0 / 25.0, rhs, p.solver, m_star,
                     TangentBlocks(mobility, p.projection))
    out, rec = _finish_step(grid, x, step_index, t0 + tau, solves, t_wall)
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

    The closure keeps the auxiliary state of the multistep schemes (LM2,
    BDF4) and, for prk, sip1 and prk_alt, a fresh stage-increment history
    that starts their stage solves.  Step functions are looked up by name at
    every call, so that wrappers put on the module's names take effect.
    """
    if p.scheme in ("prk", "sip1", "prk_alt"):
        history = _StageHistory(p.tableau.s, initial.grid.n_nodes)
    if p.scheme in ("prk", "sip1"):
        return lambda m, i, t: prk_step(m, p, i, t, history=history)
    if p.scheme == "prk_alt":
        return lambda m, i, t: prk_alt_step(m, p, i, t, history=history)
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
