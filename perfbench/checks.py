"""Output checks: the structure theorem's properties, applied to every step.

For a tableau with b >= 0 and PSD certificates, each PRK step keeps the
pre-projection length >= 1 and does not increase the discrete energy, up to
solver tolerance.  The checks read only what a user of the library sees: the
``StepRecord`` list of a run, its failure, and the final field.
"""

from __future__ import annotations

import math

ENERGY_REL_TOL = 1e-9      # allowed relative energy increase per step
UNIT_DEV_MAX = 1e-12       # max | |m| - 1 | after projection
LENGTH_TOL = 1e-9          # allowed shortfall of min_len_pre below 1 (PRK only)


def check_steps(records, e0, residual_bound, structure, failure=None):
    """Violations as (step, message) pairs; an empty list means all checks pass.

    records: StepRecord-like objects in step order; e0: energy of the initial
    field; residual_bound: largest admissible entry of ``solver_residuals``;
    structure: also check the theorem's PRK-only properties (pre-projection
    length and pre-projection energy).
    """
    out = []
    prev = e0
    for rec in records:
        if rec.energy > prev + ENERGY_REL_TOL * abs(prev):
            out.append((rec.step, f"energy rose {prev!r} -> {rec.energy!r}"))
        if structure and rec.energy_pre_projection > prev + ENERGY_REL_TOL * abs(prev):
            out.append((rec.step, f"pre-projection energy rose {prev!r} -> "
                                  f"{rec.energy_pre_projection!r}"))
        if not rec.max_unit_dev <= UNIT_DEV_MAX:
            out.append((rec.step, f"max_unit_dev {rec.max_unit_dev!r} > {UNIT_DEV_MAX}"))
        for r in rec.solver_residuals:
            if not (math.isfinite(r) and r <= residual_bound):
                out.append((rec.step, f"solver residual {r!r} > {residual_bound:.3e}"))
        if structure and not rec.min_len_pre >= 1.0 - LENGTH_TOL:
            out.append((rec.step, f"min_len_pre {rec.min_len_pre!r} < 1"))
        prev = rec.energy
    if failure is not None:
        _t, exc = failure
        out.append((len(records) + 1, f"step raised {type(exc).__name__}: {exc}"))
    return out


def residual_bound(p, grid):
    """Upper bound on the solver's verified target max(rel_tol ||rhs||, abs_tol).

    The untraced run does not see the right-hand side, so it bounds
    ||rhs|| = ||A x|| <= ||A|| ||x|| with ||x|| <= 2 sqrt(N) (stage node
    lengths at most 2) and ||A|| <= 1 + c (alpha + |beta|) ||D_h||, where
    ||D_h||_2 <= 5 dim / h^2 (largest column sum of the stencil, which bounds
    the row sums too) and c = tau max_i |a_ii d_ii|.  The traced run checks
    each solve against its exact target.
    """
    tab = getattr(p, "tableau", None)
    diag = 1.0
    if tab is not None:
        diag = max(abs(tab.A[i, i] * tab.D2[i, i]) for i in range(tab.s))
    proj = p.projection
    op_norm = 1.0 + p.tau * diag * (proj.alpha + abs(proj.beta)) * 5.0 * grid.dim / grid.h ** 2
    rhs_norm = op_norm * 2.0 * math.sqrt(grid.n_nodes)
    return max(p.solver.rel_tol * rhs_norm, p.solver.abs_tol)


def check_final_energy(energy, reference, rel_tol):
    """Message when the final energy is off the stored reference, else None."""
    if abs(energy - reference) <= rel_tol * abs(reference):
        return None
    return f"final energy {energy!r} differs from reference {reference!r} by more than {rel_tol:g}"
