"""Time-stepping schemes for the constrained gradient flow m_t = -P(m) mu.

Every step produces an on-sphere field via pointwise projection of the
predictor m-tilde, plus a record of the quantities the structure theory
controls: the pre-projection energy and minimum length, the post-projection
energy, and the unit-length deviation.

Schemes:
  * prk_step       -- the product IMEX-RK scheme: stage systems
                      (I - tau a_ii d_ii P(U^{i-1}) D_h) U^i = U^0 + tau mu_i;
                      scheme "sip1" is its one-stage implicit-Euler tableau,
                      scheme "prk_alt" the variant that averages the projector
                      instead of the Laplacian, with the transformed tableau
                      Ahat = A D2, bhat = D2^T b and G = D2^{-1}
  * lm2_step       -- second-order Lagrange-multiplier scheme (beta = 0)
  * bdf4_step      -- fourth-order semi-implicit BDF reference scheme

``run`` is the only time loop: ``make_stepper`` binds each scheme, with the
auxiliary state of the multistep schemes (LM2, BDF4), to one per-step form.
For prk, sip1 and prk_alt it keeps the stage increments U^i - U^n of the
last five steps (``_StageHistory``), and stage i starts its solve from U^n
plus their quartic extrapolation in time; a direct step call keeps none
and starts stage i from U^{i-1} (stage 1 from U^n).  The history also keeps
the energy of the field the next step starts from, which sets the
alignment of the stage solves' preconditioner (``linalg._tangent_alignment``).
A stage solve that BiCGStab fails is taken over by SuperLU and named in
the step record's ``fallback_stages`` (``_stage_solve``).  Either solver
verifies the stage value U^i last, and the Laplacian D_h U^i of that
product is the one the later stages and the update use: a step applies
D_h once per stage-operator product.
LM2's predictor system (I - tau alpha/2 D_h) m~ = rhs is solved exactly by
``grid.shifted_laplacian_inverse``, the inverse the tangent-space
preconditioner of the stage solves applies with the shift
coeff (alpha + i beta); on a Dirichlet grid rhs first takes the couplings
into the boundary values, which that inverse does not read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import linalg
from .field import (ZERO_LENGTH_THRESHOLD, VectorField, ProjectionParams, normalize,
                    diagnostics, projector_blocks, apply_blocks, cross)
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
    "lm2_step",
    "lm2_init",
    "bdf4_step",
    "run",
    "make_stepper",
]

TRACE_COLUMNS = ("step", "t", "energy", "energy_pre_projection", "min_len_pre",
                 "max_unit_dev", "solver_iters_total", "fallback_solves", "wall_ms")

# LM2: the energy-enforcement direction e = (1, 1, 1)/sqrt(3), the
# half-width of the bracket searched for its scalar multiplier, the step of
# the scan out from zero and Brent's absolute tolerance
_LM2_DIRECTION = np.ones(3) / np.linalg.norm(np.ones(3))
_LM2_BRACKET = 10.0
_LM2_SCAN_STEP = 0.0025
_LM2_XTOL = 1e-12
# below this max |m_hat . e| every |m_hat + eta e| is at least 1e-3
_LM2_PARALLEL = 1.0 - 1e-6
# the relative tolerance and iteration limit of scipy's brentq, which ``_brentq`` ports
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


class StepFailureError(RuntimeError):
    """A step failed; carries the 1-based index of the failing solve in the
    step and the underlying cause."""

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
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
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
            if not np.array_equal(tab.D1, np.eye(tab.s)):
                raise ValueError("tableau D1 must be the identity: every stepper takes the "
                                 "mobility at the lagged stage")


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


def _stage_solve(solves, lap, blocks, coeff, rhs, solver, x0, tangent):
    """Solve (I - coeff P D_h) U = rhs for U (3, N), recorded in ``solves``.

    Returns U and its Laplacian D_h U, taken from the product that verified
    U's true residual (``StageOperator.dx``), so no further Laplacian
    product is needed.  The operator is the identity on Dirichlet-fixed
    nodes, so U holds there the boundary values rhs holds.
    BiCGStab starts from ``x0`` (3, N), an O(tau) guess of U:
    the previous stage value, or an extrapolation of the history.
    ``tangent``, a TangentBlocks, names the field whose mobility the blocks
    are, or are within O(tau) of; BiCGStab takes the tangent-space spectral
    preconditioner of that mobility if the stage is stiff (see ``linalg``).
    When BiCGStab fails, SuperLU solves the same operator; the solve records
    BiCGStab's iterations, SuperLU's residual and its index in
    ``solves.fallbacks``.  When SuperLU fails too, the step raises
    StepFailureError(index, SuperLU's error), whose context is BiCGStab's.
    """
    stage = len(solves.iters) + 1
    A = StageOperator(lap, blocks, coeff, tangent)
    rhs = rhs.reshape(-1)
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
    return x.reshape(3, -1), A.dx


class _StageHistory:
    """Stage increments dU^i = U^i - U^n of the last five steps, for start guesses,
    and the discrete energy of the field the next step starts from.

    Preallocated as (5 steps, s stages, 3, N) and written in place.  Stage i
    of step n starts from U^n plus the extrapolation of its increments in
    time by the polynomial through the stored steps: with five stored, the
    quartic 5 dU^i_{n-1} - 10 dU^i_{n-2} + 10 dU^i_{n-3} - 5 dU^i_{n-4}
    + dU^i_{n-5}; with q < 5 stored, the row of degree q - 1 of
    ``_WEIGHTS``, down to dU^i_{n-1} alone.  The quartic is exact for
    increments that are polynomials of degree <= 4 in the step index.  On
    the 201 steps of ``llg_blowup42`` at k = 24 the stage solves take 546
    BiCGStab iterations from it, 677 from the quadratic of three steps.
    ``energy``, which ``prk_step`` sets, is the newest step's post-projection
    energy (None before the first): E(m^n) of the next step, as
    ``LM2State.energy`` is for LM2.
    """

    # row q - 1: (-1)^k binomial(q, k + 1), k = 0 .. q - 1, the newest step first
    _WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0),
                (5.0, -10.0, 10.0, -5.0, 1.0))

    def __init__(self, n_stages, n_nodes):
        self._depth = len(self._WEIGHTS)
        self._dU = np.empty((self._depth, n_stages, 3, n_nodes))
        self._term = np.empty((3, n_nodes))
        self._count = 0                   # steps stored, at most the depth
        self._newest = self._depth - 1    # slot of the newest step
        self.energy = None

    def guess(self, i, U0, fallback):
        """Start guess of stage i (0-based) of the step from U0; fallback with no history."""
        if not self._count:
            return fallback
        x = U0.copy()
        for back, w in enumerate(self._WEIGHTS[self._count - 1]):
            x += np.multiply(w, self._dU[(self._newest - back) % self._depth, i],
                             out=self._term)
        return x

    def push(self, stages, U0):
        """Store the increments of one step's stage values over U0 as the newest."""
        self._newest = (self._newest + 1) % self._depth
        for dU, U in zip(self._dU[self._newest], stages):
            np.subtract(U, U0, out=dU)
        self._count = min(self._count + 1, self._depth)


def _average(weights, terms):
    """sum_k weights[k] terms[k] over the nonzero weights, added in order into a new
    array; a lone weight 1 returns its term itself, and no nonzero weight None.
    The term of a zero weight is not read."""
    picked = [(w, term) for w, term in zip(weights, terms) if w != 0.0]
    if not picked:
        return None
    (w, term), rest = picked[0], picked[1:]
    if w == 1.0 and not rest:
        return term
    out = w * term
    for w, term in rest:
        out += w * term
    return out


def _stage_weights(p):
    """The four matrices of the stage loop: the outer weights, the Laplacian
    averaging W, the output weights and the projector averaging G.

    prk (and sip1) averages the Laplacian, (A, D2, b, I); prk_alt averages the
    projector, (A D2, I, D2^T b, D2^{-1}).  ``SchemeParams`` keeps D2's
    diagonal positive, so D2 is invertible.  They are returned as nested lists
    of Python floats, which the stage loop indexes and tests more cheaply.
    """
    tab = p.tableau
    if p.scheme == "prk_alt":
        weights = tab.A @ tab.D2, np.eye(tab.s), tab.D2.T @ tab.b, np.linalg.inv(tab.D2)
    else:
        weights = tab.A, tab.D2, tab.b, np.eye(tab.s)
    return [w.tolist() for w in weights]


def _finish_step(grid, m_tilde, step_index, t_next, solves, t_wall0, e_post=None, **lm2):
    """Project m_tilde onto the sphere and record the step.

    ``e_post``, when given, is the discrete energy of the projected field,
    which a caller has formed already; ``lm2`` holds LM2's record fields.
    """
    pre = VectorField(m_tilde, grid)
    e_pre = discrete_energy(pre)
    lengths = pre.lengths()
    out = normalize(pre, lengths)
    d_post = diagnostics(out)
    if e_post is None:
        e_post = discrete_energy(out)
    rec = StepRecord(step=step_index, t=t_next, energy=e_post,
                     energy_pre_projection=e_pre, min_len_pre=float(lengths.min()),
                     max_unit_dev=d_post.max_unit_deviation,
                     solver_iters=tuple(solves.iters), solver_residuals=tuple(solves.resids),
                     fallback_stages=tuple(solves.fallbacks),
                     wall_ms=(time.perf_counter() - t_wall0) * 1e3, **lm2)
    return out, rec


def prk_step(state, p, step_index=0, t0=0.0, *, history=None, solves=None, alignment=None):
    """One step of the product scheme, or of its variant prk_alt (``_stage_weights``).

    Stage i takes the projector average B_i = sum_k G[i,k] P(U^{k-1}) and the
    Laplacian average Y_i = sum_{k<=i} W[i,k] D_h U^k; with prk's G = I, B_i
    is the mobility P(U^{i-1}) itself.  Y_i over the solved stages and its
    image B_i Y_i are formed once, right after stage i is solved, and reused
    by the later stages and the final update.  Every stage solve takes the
    preconditioner of the mobility of U^{i-1}, with ``alignment`` or else
    the ``linalg._tangent_alignment`` of E(m^n).  E(m^n) is the
    ``history``'s; with none (the first step of a run, a direct call) it is
    summed afresh when a stage is stiff enough for the preconditioner.
    prk_alt keeps the energy decrease but not the pre-projection length
    bound of the structure theorem: its length can fall below 1.  Stage i
    starts from the previous stage value or, given the ``history`` that
    ``make_stepper`` keeps, from the extrapolation of the past steps' stage
    increments; the step then stores its own increments there.  The
    record's solves are those of ``solves`` (a ``_Solves`` shared by several
    steps, which BDF4's start-up passes) followed by the step's own.
    """
    grid = state.grid
    lap = laplacian(grid)
    A, W, b, G = _stage_weights(p)
    tau = p.tau
    t_wall = time.perf_counter()

    U0 = state.components
    U = U0
    coeffs = [tau * A[i][i] * W[i][i] for i in range(len(b))]
    if alignment is None:
        energy = None if history is None else history.energy
        if energy is None and any(linalg._takes_tangent_preconditioner(grid, p.projection, c)
                                  for c in coeffs):
            energy = discrete_energy(state)
        alignment = 1.0 if energy is None else linalg._tangent_alignment(energy, grid)
    stages, P, DU, PY = [], [], [], []
    solves = _Solves() if solves is None else solves
    for i in range(len(b)):
        mobility = VectorField(U, grid)
        P.append(projector_blocks(mobility, p.projection))
        blocks = _average(G[i][:i + 1], P)
        if not any(row[i] for row in G[i + 1:]):
            P[i] = None          # no later stage averages this mobility
        y_partial = _average(W[i][:i], DU)
        mu = _average(A[i][:i], PY)
        if y_partial is not None:
            lagged = A[i][i] * apply_blocks(blocks, y_partial)
            mu = lagged if mu is None else mu + lagged
        rhs = U0 if mu is None else U0 + tau * mu

        # without history stage i starts from U^{i-1}, stage 1 from U^0
        x0 = U if history is None else history.guess(i, U0, U)
        U, DUi = _stage_solve(solves, lap, blocks, coeffs[i], rhs, p.solver, x0,
                              TangentBlocks(mobility, p.projection, alignment))
        stages.append(U)
        DU.append(DUi)
        y = DUi if W[i][i] == 1.0 else W[i][i] * DUi
        PY.append(apply_blocks(blocks, y if y_partial is None else y_partial + y))

    if history is not None:
        history.push(stages, U0)
    m_tilde = U0.copy()
    for j, PYj in enumerate(PY):
        m_tilde += tau * b[j] * PYj
    out, rec = _finish_step(grid, m_tilde, step_index, t0 + tau, solves, t_wall)
    if history is not None:
        history.energy = rec.energy
    return out, rec


@dataclass
class LM2State:
    """Auxiliary history of the Lagrange-multiplier scheme, whose energy balance
    E(m^{n+1}) = E(m^n) - 2 tau alpha ||g x D_h g||_h^2 is in ``discrete_energy``."""

    lam: np.ndarray          # pointwise multiplier field
    predictor: np.ndarray    # previous unprojected predictor (3, N)
    energy: float            # E(m^n) of the field the next step starts from


def lm2_init(state, p):
    """m~^0 = m^0; lambda^0 = -m.D_h m pointwise."""
    m = state.components
    lam = -np.einsum("ln,ln->n", m, laplacian(state.grid).apply(m))
    return LM2State(lam=lam, predictor=m.copy(), energy=discrete_energy(state))


def _brentq(F, xa, xb, fa, fb, xtol):
    """Root of F in [xa, xb], given F's values fa and fb there, nonzero and of
    opposite sign; None when F is not finite at an iterate or 100 iterations
    do not converge.

    A port of scipy's C ``brentq`` (Brent's method) to Python floats, which
    returns its root bit for bit, with its defaults rtol = 4 eps and 100
    iterations; F is not evaluated at xa and xb again.
    """
    xpre, xcur, fpre, fcur = float(xa), float(xb), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf          # bisect unless the interpolation step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass             # C's inf or nan step, which bisects too
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(F(xcur))
        if not math.isfinite(fcur):
            return None
    return None


def _lm2_scalar_root(F):
    """Root of F nearest zero inside [-_LM2_BRACKET, _LM2_BRACKET]; None when there is none.

    The scan steps out from zero both ways by ``_LM2_SCAN_STEP`` until F
    changes sign, and ``_brentq`` finds the root in that step to
    ``_LM2_XTOL``.  A non-finite F (LM2's: the field vanishes at a node) is
    no sign change in the scan; at a Brent iterate it ends the search, with
    None.
    """
    f0 = F(0.0)
    if f0 == 0.0:
        return 0.0
    step = _LM2_SCAN_STEP
    for i in range(round(_LM2_BRACKET / step)):
        # the floats of np.arange(step, _LM2_BRACKET + step / 2, step)
        d = step + i * step
        f = F(d)
        if math.isfinite(f) and f0 * f < 0:
            return _brentq(F, 0.0, d, f0, f, _LM2_XTOL)
        f = F(-d)
        if math.isfinite(f) and f0 * f < 0:
            return _brentq(F, -d, 0.0, f, f0, _LM2_XTOL)
    return None


def lm2_step(state, aux, p, step_index=0, t0=0.0):
    """Predictor / corrector / energy-enforcement step (beta = 0 flow).

    Returns (field, updated aux, record).  With g = (m_hat + m^n)/2, the
    multiplier eta of e, (1, 1, 1)/sqrt(3) at the free nodes and zero at the
    Dirichlet nodes, is the root nearest zero of
    F(eta) = E(v/|v|) - E(m^n) + 2 tau alpha ||g x D_h g||_h^2, v = m_hat + eta e,
    E the ``discrete_energy``, ||.||_h the ``inner_product`` norm; raises
    NoRealRootError when F has none in the bracket.
    Each energy is summed once: the start energy comes from ``aux``, the
    root search keeps the energy of every eta it tries, and the root's,
    which the search has tried, is the recorded post-projection energy.
    """
    if p.projection.beta != 0.0:
        raise ValueError("lm2 implements the beta = 0 flow")
    grid = state.grid
    lap = laplacian(grid)
    tau, alpha = p.tau, p.projection.alpha
    t_wall = time.perf_counter()

    m, fixed, c = state.components, grid.dirichlet_mask, tau * alpha / 2.0
    rhs = m + c * lap.apply(aux.predictor) + (tau * alpha) * aux.lam * m
    if fixed.any():
        # the implicit half's couplings into the boundary values, which the
        # shifted inverse does not read
        rhs += c * lap.apply(np.where(fixed, rhs, 0.0))
    m_tilde = shifted_laplacian_inverse(grid, c)(rhs)

    w = m_tilde - c * aux.lam * m
    wn = np.sqrt(np.einsum("ln,ln->n", w, w))
    if (wn < ZERO_LENGTH_THRESHOLD).any():
        raise StepFailureError(2, "zero-length corrector direction")
    lam_new = 2.0 * (1.0 - wn) / (tau * alpha)
    m_hat = w / wn

    g = 0.5 * (m_hat + m)
    cr = cross(g, lap.apply(g))
    target = aux.energy - 2.0 * tau * alpha * inner_product(cr, cr, grid)

    # |m_hat + eta e| >= (1 - (m_hat.e)^2)^(1/2) at every free node, so v can vanish
    # only where m_hat is parallel to e; elsewhere F needs no length check
    alignment = np.abs(_LM2_DIRECTION @ m_hat)
    e_dir = _LM2_DIRECTION[:, None]
    if fixed.any():
        # e moves the free nodes only: the Dirichlet nodes keep their values
        e_dir = np.where(fixed, 0.0, e_dir)
        alignment[fixed] = 0.0
    near_parallel = alignment.max() > _LM2_PARALLEL

    energies = {}          # eta -> discrete_energy(v / |v|), v = m_hat + eta e

    def F(eta):
        if eta not in energies:
            v = m_hat + eta * e_dir
            vn = np.sqrt(np.einsum("ln,ln->n", v, v))
            # v / |v| is undefined where v vanishes
            undefined = near_parallel and vn.min() < ZERO_LENGTH_THRESHOLD
            energies[eta] = np.nan if undefined else discrete_energy(v / vn, grid)
        return energies[eta] - target

    eta = _lm2_scalar_root(F)
    if eta is None:
        raise NoRealRootError(
            f"no real multiplier in [-{_LM2_BRACKET}, {_LM2_BRACKET}] at t={t0 + tau:.6g}")
    # the field entering the final projection; F(eta) normalized it the same way
    m_tilde_post = m_hat + eta * e_dir
    out, rec = _finish_step(grid, m_tilde_post, step_index, t0 + tau, _Solves([1], [0.0]), t_wall,
                            e_post=energies.get(eta), lm2_lambda_min=float(lam_new.min()),
                            lm2_lambda_max=float(lam_new.max()), lm2_eta=float(eta))
    aux_new = LM2State(lam=lam_new, predictor=m_tilde, energy=rec.energy)
    return out, aux_new, rec


def bdf4_step(state, hist, p, step_index=0, t0=0.0):
    """One step of the fourth-order semi-implicit BDF reference scheme.

    The Laplacian is implicit; the mobility is evaluated at the fourth-order
    extrapolation of the history.  hist holds the last (up to) four on-sphere
    levels, oldest first, starting from the normalized initial field; while it
    has fewer than four, the step is ten product sub-steps at tau/10 whose
    record carries every sub-step's solves.  Its stage solves, start-up
    included, take the preconditioner with alignment 1.  Returns (field,
    hist, record).
    """
    grid = state.grid
    tau = p.tau
    t_wall = time.perf_counter()
    if len(hist) < 4:
        startup = replace(p, scheme="prk", tau=tau / 10.0, tableau=prk2_tableau())
        m, solves = hist[-1], _Solves()
        for _ in range(10):
            m, rec = prk_step(m, startup, solves=solves, alignment=1.0)
        rec = replace(rec, step=step_index, t=t0 + tau,
                      wall_ms=(time.perf_counter() - t_wall) * 1e3)
        return m, hist + (m,), rec

    h0, h1, h2, h3 = (h.components for h in hist)
    m_star = 4.0 * h3 - 6.0 * h2 + 4.0 * h1 - h0
    mobility = VectorField(m_star, grid)
    blocks = projector_blocks(mobility, p.projection)
    rhs = (48.0 * h3 - 36.0 * h2 + 16.0 * h1 - 3.0 * h0) / 25.0
    solves = _Solves()
    x, _ = _stage_solve(solves, laplacian(grid), blocks, tau * 12.0 / 25.0, rhs, p.solver,
                        m_star, TangentBlocks(mobility, p.projection))
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
    BDF4) and, for prk, sip1 and prk_alt, which all run ``prk_step``, a
    fresh stage-increment history that starts their stage solves.  Step
    functions are looked up by name at every call, so that wrappers put on
    the module's names take effect.
    """
    if p.scheme in ("prk", "sip1", "prk_alt"):
        history = _StageHistory(p.tableau.s, initial.grid.n_nodes)
        return lambda m, i, t: prk_step(m, p, i, t, history=history)
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
