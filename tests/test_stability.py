"""Additive embedding, stability function against a direct step oracle, regions."""

import math

import numpy as np
import pytest

from prkflow.stability import (RegionWindow, SingularSystemError, default_y_samples,
                               default_z0_samples, embed, sample_region, stability_function)
from prkflow.tableau import PRKTableau, prk2_tableau, validate


def _oracle_one_step(e, z0, z1, z2):
    """Directly iterate the embedded additive scheme on u' = (l0+l1+l2) u, u0 = 1."""
    n = e.a_hat.shape[0]
    u = np.zeros(n, dtype=complex)
    for i in range(n):
        rhs = 1.0 + 0.0j
        for j in range(i):
            rhs += (z0 * e.a_hat[i, j] + z1 * e.a1[i, j] + z2 * e.a2[i, j]) * u[j]
        u[i] = rhs / (1.0 - (z0 * e.a_hat[i, i] + z1 * e.a1[i, i] + z2 * e.a2[i, i]))
    out = 1.0 + 0.0j
    for i in range(n):
        out += (z0 * e.b_hat[i] + z1 * e.b1[i] + z2 * e.b2[i]) * u[i]
    return out


def test_embedding_blocks_prk2():
    t = prk2_tableau()
    e = embed(t)
    ad = np.array([[1.0, 0.0], [-0.5, 1.0]])   # A @ D2
    assert np.array_equal(e.a_hat[1:, 1:], ad)
    assert np.array_equal(e.a_hat[0], np.zeros(3))
    assert np.array_equal(e.a_hat[:, 0], np.zeros(3))
    assert np.array_equal(e.b_hat, np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(e.a1[1:, :2], t.A)    # D1 = I
    assert np.array_equal(e.a2[1:, :2], ad)
    assert np.array_equal(e.a1[:, 2], np.zeros(3))
    assert np.array_equal(e.b1, np.array([0.5, 0.5, 0.0]))
    assert np.array_equal(e.b2, np.array([0.0, 1.0, 0.0]))


def test_embedding_single_stage():
    t = PRKTableau(A=[[1.0]], D1=[[1.0]], D2=[[1.0]], b=[1.0])
    e = embed(t)
    assert np.array_equal(e.a_hat, [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(e.b_hat, [0.0, 1.0])


def test_embedding_row_sums_equal_c():
    t = prk2_tableau()
    e = embed(t)
    assert e.a_hat[1:].sum(axis=1) == pytest.approx(t.c, abs=1e-15)


def test_r_at_origin_is_one():
    for t in (prk2_tableau(),
              PRKTableau(A=[[0.7]], D1=[[1.0]], D2=[[1.0]], b=[1.0])):
        assert stability_function(t, 0.0, 0.0, 0.0) == 1.0 + 0.0j


def _three_stage_tableau():
    # structurally valid, not certified: only the lower-triangular shape matters here
    return PRKTableau(A=[[0.5, 0.0, 0.0], [0.25, 0.5, 0.0], [0.2, 0.3, 0.5]],
                      D1=[[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]],
                      D2=[[1.0, 0.0, 0.0], [-0.5, 1.5, 0.0], [0.25, 0.25, 0.5]],
                      b=[0.3, 0.3, 0.4])


@pytest.mark.parametrize("make_tableau", [prk2_tableau, _three_stage_tableau],
                         ids=["prk2", "three-stage"])
def test_stability_function_matches_direct_simulation(rng, make_tableau):
    t = make_tableau()
    assert validate(t) == []
    e = embed(t)
    for _ in range(100):
        z = rng.uniform(-2, 2, size=(3, 2))
        z0, z1, z2 = (complex(a, b) for a, b in z)
        r = stability_function(t, z0, z1, z2)
        r_direct = _oracle_one_step(e, z0, z1, z2)
        assert abs(r - r_direct) <= 1e-13 * max(1.0, abs(r_direct))


def test_non_lower_triangular_tableau_rejected():
    # an upper-triangle entry in A makes the embedded stage matrix full
    t = PRKTableau(A=[[1.0, 0.5], [-0.5, 1.0]], D1=[[1.0, 0.0], [0.0, 1.0]],
                   D2=[[1.0, 0.0], [-0.5, 1.5]], b=[0.5, 0.5])
    assert validate(t)
    with pytest.raises(ValueError, match="lower triangular"):
        stability_function(t, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="lower triangular"):
        sample_region(t, RegionWindow(-1.0, 1.0, -1.0, 1.0, 5, 5))


def test_stiff_limit_finite_and_reproducible():
    t = prk2_tableau()
    r6 = stability_function(t, -1e6, 0.0, 0.0)
    r6_again = stability_function(t, -1e6, 0.0, 0.0)
    r7 = stability_function(t, -1e7, 0.0, 0.0)
    assert np.isfinite(r6.real) and np.isfinite(r6.imag)
    assert r6 == r6_again
    assert abs(r6) > 1e-3          # the limit is away from zero: not L-stable
    assert abs(r6 - r7) <= 1e-4 * max(1.0, abs(r7))


def test_singular_system_reported():
    t = prk2_tableau()
    # stage matrix diagonal 1 - z0 * (A D2)_11 vanishes at z0 = 1
    with pytest.raises(SingularSystemError):
        stability_function(t, 1.0 + 0.0j, 0.0, 0.0)


def test_region_origin_inside():
    t = prk2_tableau()
    window = RegionWindow(-1.0, 1.0, -1.0, 1.0, 11, 11)
    sample = sample_region(t, window, y_samples=default_y_samples(33))
    assert sample.mask[5, 5]       # the origin reduces to the stiff-only sweep


def test_region_nonempty_bounded_with_complement():
    t = prk2_tableau()
    window = RegionWindow(-6.0, 2.0, -4.0, 4.0, 60, 60)
    sample = sample_region(t, window, y_samples=default_y_samples(33))
    inside = sample.mask
    assert inside.any() and (~inside).any()
    # bounded within the window: no inside point on the window border
    assert not inside[0].any() and not inside[-1].any()
    assert not inside[:, 0].any() and not inside[:, -1].any()


def test_region_monotone_under_sample_refinement():
    t = prk2_tableau()
    window = RegionWindow(-4.0, 1.0, -3.0, 3.0, 40, 40)
    coarse = np.logspace(-2, 2, 17)
    fine = np.logspace(-2, 2, 33)   # superset of the coarse magnitudes
    m_coarse = sample_region(t, window, y_samples=np.concatenate([-coarse[::-1], coarse]))
    m_fine = sample_region(t, window, y_samples=np.concatenate([-fine[::-1], fine]))
    assert not np.any(m_fine.mask & ~m_coarse.mask)


def test_region_conjugation_symmetry():
    t = prk2_tableau()
    window = RegionWindow(-4.0, 1.0, -3.0, 3.0, 31, 31)
    sample = sample_region(t, window, y_samples=default_y_samples(33))
    assert np.array_equal(sample.mask, sample.mask[:, ::-1])


@pytest.mark.parametrize("alpha", [math.pi / 3, 0.2])
def test_z0_samples_lie_on_the_wedge_rays(alpha):
    # below pi/2 the samples lie on the boundary rays Re z0 = -|Im z0| / tan(alpha),
    # followed by the stiff limit on the negative real axis
    y = default_y_samples(9)
    z0 = default_z0_samples(alpha, y)
    assert z0.shape == (y.size + 1,)
    assert np.array_equal(z0[:-1].imag, y)
    assert np.array_equal(z0[:-1].real, -np.abs(y) / math.tan(alpha))
    assert np.all(z0[:-1].real < 0.0)
    assert z0[-1] == complex(-1e6)


def test_empty_y_samples_rejected():
    t = prk2_tableau()
    window = RegionWindow(-1.0, 1.0, -1.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        sample_region(t, window, y_samples=np.array([]))


@pytest.mark.parametrize("bounds, res", [
    ((-1.0, 1.0, -1.0, 1.0), (0, 5)),
    ((-1.0, 1.0, -1.0, 1.0), (5, 0)),
    ((-1.0, math.nan, -1.0, 1.0), (5, 5)),
    ((-math.inf, 1.0, -1.0, 1.0), (5, 5)),
    ((-1.0, 1.0, -1.0, math.inf), (5, 5)),
], ids=["no-columns", "no-rows", "nan-bound", "infinite-re-min", "infinite-im-max"])
def test_window_that_cannot_be_sampled_rejected(bounds, res):
    with pytest.raises(ValueError, match="window"):
        RegionWindow(*bounds, *res)


@pytest.mark.parametrize("alpha", [math.nan, 0.0, -0.5, 5.0, math.pi / 2 + 1e-9],
                         ids=["nan", "zero", "negative", "five", "just-past-pi-over-2"])
def test_alpha_outside_the_wedge_definition_rejected(alpha):
    # A_alpha is defined for 0 < alpha <= pi/2
    window = RegionWindow(-1.0, 1.0, -1.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="alpha"):
        sample_region(prk2_tableau(), window, alpha=alpha)
