"""The structure theorem as a property of random certified tableaux.

For any diagonally implicit tableau with b >= 0 and positive semi-definite Q
and R, one product step keeps the pre-projection length >= 1 and does not
increase the discrete energy, up to solver tolerance.  Beside the one-stage
implicit-Euler tableau of sip1, tableaux with s = 2 and s = 3 are drawn by a
seeded sampler and kept when they pass ``validate`` and ``certify``; each takes one PRK step (warm-started stage solves through
every stage) from a random on-sphere field, with and without precession and
at a mild, a stiff and a very large step size.  At every step size
BiCGStab solves every stage within its iteration budget, with no SuperLU
fallback.

``prk_alt``, which averages the projector, is outside the length theorem; it
is held to energy decrease only.
"""

from dataclasses import replace

import numpy as np
import pytest

from prkflow.field import ProjectionParams, VectorField, normalize
from prkflow.grid import discrete_energy
from prkflow.harness import build_grid, build_initial, preset, scheme_params
from prkflow.integrators import prk_step, run
from prkflow.tableau import PRKTableau, certify, implicit_euler_tableau, validate


def _lower_stochastic(rng, s):
    """Lower-triangular, nonnegative, positive diagonal, rows summing to 1."""
    d = np.tril(rng.uniform(0.0, 1.0, (s, s)))
    d[np.diag_indices(s)] += 0.05
    return d / d.sum(axis=1, keepdims=True)


def _draw(rng, s):
    A = np.tril(rng.uniform(-1.0, 1.0, (s, s)))
    A[np.diag_indices(s)] = rng.uniform(0.05, 1.0, s)
    # D1 is drawn and dropped, so the sequence of draws stays as it was: the
    # steppers take the mobility at the lagged stage, D1 = I
    _lower_stochastic(rng, s)
    return PRKTableau(A, np.eye(s), _lower_stochastic(rng, s), rng.dirichlet(np.ones(s)))


def _certified_tableaux():
    """8 certified tableaux with s = 2 and 3 with s = 3 (about 400 draws)."""
    rng = np.random.default_rng(20240817)
    out = []
    for s, wanted in ((2, 8), (3, 3)):
        found = 0
        for _ in range(5000):
            tab = _draw(rng, s)
            if not validate(tab) and certify(tab).satisfies_theorem:
                out.append(tab)
                found += 1
                if found == wanted:
                    break
        assert found == wanted, f"sampler found {found} certified tableaux with s={s}"
    return out


TABLEAUX = [("implicit Euler", implicit_euler_tableau())] + [
    (f"drawn {i}", tab) for i, tab in enumerate(_certified_tableaux())]


@pytest.fixture(scope="module")
def start():
    cfg = preset("llg_blowup42", k=12)
    grid = build_grid(cfg)
    rng = np.random.default_rng(5)
    m0 = normalize(VectorField(rng.standard_normal((3, grid.n_nodes)), grid))
    return cfg, m0, discrete_energy(m0)


@pytest.mark.parametrize("tau", [1e-3, 0.1, 10.0])
@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_certified_tableaux_keep_length_and_energy(beta, tau, start):
    cfg, m0, e0 = start
    for name, tab in TABLEAUX:
        p = replace(scheme_params(cfg, scheme="prk"), tau=tau, tableau=tab,
                    projection=ProjectionParams(cfg.alpha, beta))
        _, rec = prk_step(m0, p)
        where = f"tableau {name} (s={tab.s}): {rec}"
        assert len(rec.solver_iters) == tab.s, where
        # the random start's mean neighbour cosine is 0.018, so the
        # preconditioner weakens D_h's couplings (alignment 0.714): at tau = 10
        # the 13 tableaux take 662 (beta = 1) and 428 (beta = 0) iterations,
        # where with the couplings at full strength they took 3,072 and
        # 1,265 and 5 of the 26 beta = 1 solves fell back to SuperLU
        assert rec.fallback_stages == (), where
        assert rec.min_len_pre >= 1.0 - 1e-9, where
        assert rec.energy_pre_projection <= e0 * (1.0 + 1e-9), where
        assert rec.max_unit_dev <= 1e-12, where


@pytest.mark.parametrize("preset_name, k, tau", [("llg_blowup42", 12, 1e-4),
                                                 ("llg_blowup42", 12, 1e-3),
                                                 ("llg_blowup42", 12, 1e-2),
                                                 ("twisted_nematic44", 8, 0.1)])
def test_prk_alt_keeps_energy_decrease(preset_name, k, tau):
    # no length bound: min_len_pre falls to 1 - 3.2e-8, 1 - 8.6e-6, 0.978 and
    # 0.365 in these runs
    cfg = preset(preset_name, k=k, tau=tau)
    m0 = build_initial(cfg, build_grid(cfg))
    _, trace = run(m0, scheme_params(cfg, scheme="prk_alt"), 20 * tau)
    assert trace.failure is None and len(trace) == 20
    e = np.concatenate([[discrete_energy(m0)], trace.energies()])
    pre = np.array([r.energy_pre_projection for r in trace.records])
    assert np.all(pre - e[:-1] <= 1e-12 * e[:-1])
    assert np.all(np.diff(e) <= 1e-12 * e[:-1])
