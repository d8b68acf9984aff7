"""Normalization, the mobility operator P, and field diagnostics.

P is applied through the library path, projector_blocks + apply_blocks.
"""

import numpy as np
import pytest

from prkflow.field import (FieldDiagnostics, ProjectionParams, VectorField,
                           ZeroLengthError, apply_blocks, diagnostics,
                           normalize, projector_blocks)
from prkflow.grid import Grid


def _grid(n_nodes_per_axis=3):
    return Grid(1, n_nodes_per_axis, 1.0)


def _field(rows, grid=None):
    rows = np.asarray(rows, dtype=float)
    grid = grid or _grid(rows.shape[1])
    return VectorField(rows, grid)


def pointwise_p(m, v, params):
    """Reference P(m) v = alpha (v - (mh.v) mh) + beta (mh x v) per node, mh = m / |m|.

    Written pointwise, independent of the library's 3x3 blocks.
    """
    mh = m / np.sqrt(np.einsum("ln,ln->n", m, m))
    dot = np.einsum("ln,ln->n", mh, v)
    out = params.alpha * (v - dot * mh)
    if params.beta != 0.0:
        out = out + params.beta * np.cross(mh, v, axis=0)
    return out


def _apply_p(m, v, params):
    """P(m) applied to the field v through the library's blocks, as a (3, N) array."""
    return apply_blocks(projector_blocks(m, params), v.components)


def test_normalize_example():
    f = _field([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    out = normalize(f)
    assert out.on_sphere
    assert out.components[:, 0] == pytest.approx([1 / 3, 2 / 3, 2 / 3], abs=1e-15)


def test_normalize_idempotent(rng):
    comps = rng.standard_normal((3, 11))
    g = Grid(1, 11, 1.0)
    once = normalize(VectorField(comps, g))
    twice = normalize(once)
    assert np.abs(once.components - twice.components).max() <= 1e-15


def test_normalize_zero_node_reports_index():
    f = _field([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ZeroLengthError) as err:
        normalize(f)
    assert err.value.node_index == 1


def test_apply_p_annihilates_parallel():
    g = _grid()
    m = _field([[0.0] * 3, [0.0] * 3, [1.0] * 3], g)
    v = _field([[0.0] * 3, [0.0] * 3, [5.0] * 3], g)
    out = _apply_p(m, v, ProjectionParams(alpha=1.0, beta=1.0))
    assert np.abs(out).max() == 0.0


def test_apply_p_tangential_fixed():
    g = _grid()
    m = _field([[0.0] * 3, [0.0] * 3, [1.0] * 3], g)
    v = _field([[1.0] * 3, [0.0] * 3, [0.0] * 3], g)
    out = _apply_p(m, v, ProjectionParams(alpha=1.0, beta=0.0))
    assert out == pytest.approx(v.components, abs=1e-15)


def test_apply_p_cross_term():
    g = _grid()
    m = _field([[0.0] * 3, [0.0] * 3, [1.0] * 3], g)
    v = _field([[1.0] * 3, [0.0] * 3, [0.0] * 3], g)
    out = _apply_p(m, v, ProjectionParams(alpha=1e-300, beta=1.0))
    assert out[1] == pytest.approx(np.ones(3), abs=1e-15)
    assert np.abs(out[[0, 2]]).max() <= 1e-15


def test_apply_p_pointwise_orthogonality(rng):
    g = Grid(1, 50, 1.0)
    alpha, beta = 1.3, -0.8
    m = VectorField(rng.standard_normal((3, 50)), g)
    v = VectorField(rng.standard_normal((3, 50)), g)
    out = _apply_p(m, v, ProjectionParams(alpha=alpha, beta=beta))
    mh = m.components / m.lengths()
    dots = np.abs(np.einsum("ln,ln->n", mh, out))
    bound = 1e-13 * (alpha + abs(beta)) * np.abs(v.components).max()
    assert dots.max() <= bound


def test_apply_p_linear_in_v(rng):
    g = Grid(1, 20, 1.0)
    p = ProjectionParams(alpha=0.9, beta=0.4)
    m = VectorField(rng.standard_normal((3, 20)), g)
    v = VectorField(rng.standard_normal((3, 20)), g)
    w = VectorField(rng.standard_normal((3, 20)), g)
    a, b = -1.4, 0.6
    combo = VectorField(a * v.components + b * w.components, g)
    lhs = _apply_p(m, combo, p)
    rhs = a * _apply_p(m, v, p) + b * _apply_p(m, w, p)
    assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, np.abs(rhs).max())


def test_apply_p_tangential_identity(rng):
    # alpha = 1, beta = 0 and v orthogonal to m: P v = v
    g = Grid(1, 30, 1.0)
    m = normalize(VectorField(rng.standard_normal((3, 30)), g))
    raw = rng.standard_normal((3, 30))
    dots = np.einsum("ln,ln->n", m.components, raw)
    v = VectorField(raw - dots * m.components, g)
    out = _apply_p(m, v, ProjectionParams(alpha=1.0, beta=0.0))
    assert np.abs(out - v.components).max() <= 1e-15


def test_diagnostics_on_sphere():
    g = _grid()
    m = normalize(_field([[3.0, 0.0, 1.0], [0.0, 4.0, 2.0], [4.0, 3.0, 2.0]], g))
    d = diagnostics(m)
    assert d == FieldDiagnostics(pytest.approx(1.0, abs=1e-15),
                                 pytest.approx(1.0, abs=1e-15),
                                 pytest.approx(0.0, abs=1e-15))


def test_diagnostics_mixed_lengths():
    d = diagnostics(_field([[2.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert d.min_length == 1.0 and d.max_length == 2.0 and d.max_unit_deviation == 1.0


def test_diagnostics_empty_rejected():
    class Stub:
        def lengths(self):
            return np.array([])

    with pytest.raises(ValueError):
        diagnostics(Stub())


def test_projection_params_validation():
    with pytest.raises(ValueError):
        ProjectionParams(alpha=0.0, beta=1.0)


def test_blocks_match_pointwise_reference(rng):
    g = Grid(1, 40, 1.0)
    p = ProjectionParams(alpha=1.1, beta=0.7)
    m = VectorField(rng.standard_normal((3, 40)), g)
    v = rng.standard_normal((3, 40))
    direct = pointwise_p(m.components, v, p)
    via_blocks = apply_blocks(projector_blocks(m, p), v)
    assert np.abs(direct - via_blocks).max() <= 1e-14


def _projector_blocks_loops(m, alpha, beta):
    """Reference blocks: the entrywise formula, one (l, m) block at a time."""
    mh = m.components / m.lengths()
    p = np.empty((3, 3, mh.shape[1]))
    for l in range(3):
        for k in range(3):
            p[l, k] = -alpha * mh[l] * mh[k]
        p[l, l] += alpha
    if beta != 0.0:
        p[0, 1] -= beta * mh[2]
        p[0, 2] += beta * mh[1]
        p[1, 0] += beta * mh[2]
        p[1, 2] -= beta * mh[0]
        p[2, 0] -= beta * mh[1]
        p[2, 1] += beta * mh[0]
    return p


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_projector_blocks_match_the_entrywise_loops(beta, rng):
    m = VectorField(rng.standard_normal((3, 50)), Grid(1, 50, 0.1))
    got = projector_blocks(m, ProjectionParams(0.7, beta))
    assert np.array_equal(got, _projector_blocks_loops(m, 0.7, beta))
