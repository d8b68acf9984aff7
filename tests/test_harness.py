"""Presets, drivers, and CSV/VTK emitters."""

import dataclasses
import json

import numpy as np
import pytest

import prkflow.harness as harness
import prkflow.integrators as integ
from prkflow.field import ProjectionParams, diagnostics, normalize
from prkflow.grid import NEUMANN
from prkflow.harness import (build_grid, build_initial, config_from_json,
                             config_to_json, convergence_driver, emit_field_vtk,
                             emit_trace_csv, l2_error, preset, reference_snapshots,
                             robustness_driver, scheme_params, work_precision_driver)
from prkflow.integrators import NoRealRootError, SchemeParams, run
from prkflow.linalg import SolverConfig


def test_preset_convergence41_parameters():
    cfg = preset("convergence41")
    assert cfg.dim == 2 and cfg.k == 64
    assert cfg.h == pytest.approx(1.0 / 64)
    assert cfg.origin == (-0.5, -0.5)
    assert cfg.alpha == 1.0 and cfg.beta == 1.0
    assert cfg.T == 0.01024
    assert cfg.faces == (NEUMANN,) * 4
    assert cfg.reference == "bdf4" and cfg.ref_tau == 1e-6


def test_preset_unknown_rejected():
    with pytest.raises(ValueError):
        preset("unknown")


def test_blowup_initial_on_sphere_by_construction():
    cfg = preset("llg_blowup42")
    grid = build_grid(cfg)
    m = build_initial(cfg, grid)
    # |(2xA, 2yA, A^2 - r^2)| = A^2 + r^2 pointwise
    assert diagnostics(normalize(m)).max_unit_deviation <= 1e-12
    raw, _ = __import__("prkflow.harness", fromlist=["INITIAL_PROVIDERS"]) \
        .INITIAL_PROVIDERS["llg_bubble42"](grid.coords, cfg.seed)
    lengths = np.sqrt((np.asarray(raw) ** 2).sum(axis=0))
    assert np.abs(lengths - 1.0).max() <= 1e-12
    # center node starts at the north pole
    assert m.components[2, grid.center_index()] == pytest.approx(1.0, abs=1e-12)


def test_point_defect_boundary_values_unit():
    cfg = preset("point_defect43")
    grid = build_grid(cfg)
    fixed = grid.dirichlet_mask
    assert fixed.any()
    lengths = np.sqrt((grid.dirichlet_values[:, fixed] ** 2).sum(axis=0))
    assert np.abs(lengths - 1.0).max() <= 1e-14
    # the defect center never lies on the boundary
    assert np.abs(grid.coords[fixed] - 0.5).max(axis=1).min() > 0.1


def test_twisted_nematic_anchors_and_seeded_init():
    cfg = preset("twisted_nematic44", k=8)
    grid = build_grid(cfg)
    m1 = build_initial(cfg, grid)
    m2 = build_initial(cfg, grid)
    assert np.array_equal(m1.components, m2.components)   # seed-reproducible
    n = grid.n_per_axis
    lo = [grid.node_index((i, j, 0)) for i in range(n) for j in range(n)]
    hi = [grid.node_index((i, j, n - 1)) for i in range(n) for j in range(n)]
    assert np.allclose(m1.components[:, lo].T, [1.0, 0.0, 0.0])
    assert np.allclose(m1.components[:, hi].T, [0.0, 1.0, 0.0])
    assert diagnostics(m1).max_unit_deviation <= 1e-12


def test_vtk_emission_parseable(tmp_path):
    cfg = preset("custom", k=2, dim=2)
    grid = build_grid(cfg)
    m = build_initial(cfg, grid)
    path = tmp_path / "field.vtk"
    emit_field_vtk(m, grid, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in lines
    dims = [l for l in lines if l.startswith("DIMENSIONS")][0].split()[1:]
    assert [int(d) for d in dims] == [3, 3, 1]
    start = lines.index("VECTORS m double") + 1
    vectors = [tuple(float(x) for x in l.split()) for l in lines[start:start + 9]]
    assert len(vectors) == 9
    assert vectors[0] == (0.0, 0.0, 1.0)


def test_trace_csv_round_trip(tmp_path):
    cfg = preset("llg_blowup42", k=8)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    _f, trace = run(m0, scheme_params(cfg, tau=1e-3), 5e-3)
    path = tmp_path / "trace.csv"
    emit_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,t,energy,energy_pre_projection,min_len_pre,"
                        "max_unit_dev,solver_iters_total,fallback_solves,wall_ms")
    for line, rec in zip(lines[1:], trace.records):
        parts = line.split(",")
        assert int(parts[0]) == rec.step
        assert float(parts[1]) == rec.t                      # 17 digits round-trip
        assert float(parts[2]) == rec.energy
        assert float(parts[3]) == rec.energy_pre_projection
        assert float(parts[4]) == rec.min_len_pre
        assert float(parts[5]) == rec.max_unit_dev
        assert int(parts[6]) == rec.solver_iters_total
        assert int(parts[7]) == rec.fallback_solves == 0


def test_convergence_driver_structure_and_consistency(tmp_path):
    cfg = preset("convergence41", k=8, reference="self", ref_tau=2e-5,
                 T=1.28e-3)
    rows = convergence_driver(cfg, ("prk", "sip1"), tau0=3.2e-4, n_halvings=2,
                              out_csv=str(tmp_path / "conv.csv"))
    assert len(rows) == 6
    by_scheme = {}
    for scheme, tau, err, order in rows:
        by_scheme.setdefault(scheme, []).append((tau, err, order))
    for scheme, cells in by_scheme.items():
        taus = [c[0] for c in cells]
        assert taus == [3.2e-4, 1.6e-4, 8e-5]
        # orders recomputed from the table match the stored column exactly
        for i in range(1, len(cells)):
            expected = np.log2(cells[i - 1][1] / cells[i][1])
            assert cells[i][2] == expected
    text = (tmp_path / "conv.csv").read_text()
    assert text.splitlines()[0] == "scheme,tau,l2_error,observed_order"


def test_convergence_driver_deterministic(tmp_path):
    cfg = preset("convergence41", k=8, reference="self", ref_tau=2e-5, T=1.28e-3)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    convergence_driver(cfg, ("prk",), tau0=3.2e-4, n_halvings=1, out_csv=str(a))
    convergence_driver(cfg, ("prk",), tau0=3.2e-4, n_halvings=1, out_csv=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_convergence_driver_records_nan_rows(monkeypatch, tmp_path):
    # a scheme failing at every tau yields NAN cells without raising; the
    # self reference runs prk through the same step function
    original = integ.prk_step

    def failing_prk_alt(state, p, step_index=0, t0=0.0, **kwargs):
        if p.scheme == "prk_alt":
            raise integ.StepFailureError(1, "synthetic")
        return original(state, p, step_index, t0, **kwargs)

    monkeypatch.setattr(integ, "prk_step", failing_prk_alt)
    cfg = preset("convergence41", k=8, reference="self", ref_tau=2e-5, T=1.28e-3)
    rows = convergence_driver(cfg, ("prk_alt",), tau0=3.2e-4, n_halvings=1,
                              out_csv=str(tmp_path / "nan.csv"))
    assert len(rows) == 2
    assert all(np.isnan(err) for _s, _t, err, _o in rows)
    text = (tmp_path / "nan.csv").read_text()
    assert "nan" in text.lower()


def test_robustness_driver_staircase(monkeypatch, tmp_path):
    # a synthetic failure checks the NAN / -- table contract independent of
    # any scheme's physics
    original = integ.lm2_step

    def failing(state, aux, p, step_index=0, t0=0.0):
        if t0 >= 3e-3 - 1e-12:
            raise NoRealRootError("synthetic")
        return original(state, aux, p, step_index, t0)

    monkeypatch.setattr(integ, "lm2_step", failing)
    cfg = preset("llg_blowup42", k=8, reference="self", ref_tau=5e-4)
    table = robustness_driver(cfg, ("prk", "lm2"), (1e-3,),
                              (1e-3, 2e-3, 3e-3, 4e-3, 5e-3),
                              out_csv=str(tmp_path / "rob.csv"))
    prk_cells = table[("prk", 1e-3)]
    assert all(val not in ("NAN", "--") for _t, val in prk_cells)
    lm2_cells = dict(table[("lm2", 1e-3)])
    assert lm2_cells[1e-3] not in ("NAN", "--")
    assert lm2_cells[2e-3] not in ("NAN", "--")
    assert lm2_cells[3e-3] not in ("NAN", "--")
    assert lm2_cells[4e-3] == "NAN"
    assert lm2_cells[5e-3] == "--"


def test_sweep_builds_its_grid_once(monkeypatch):
    # the runs and both references (prk: beta = 1, lm2: beta = 0) share one grid
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return build_grid(cfg)

    monkeypatch.setattr(harness, "build_grid", counting)
    cfg = preset("llg_blowup42", k=8, reference="self", ref_tau=5e-4)
    robustness_driver(cfg, ("prk", "lm2"), (1e-3,), (1e-3, 2e-3))
    assert len(calls) == 1


@pytest.mark.parametrize("driver", [
    pytest.param(lambda cfg: robustness_driver(cfg, ("prk",), (1e-3,), (1e-3, 1.5e-3)),
                 id="robustness"),
    pytest.param(lambda cfg: convergence_driver(dataclasses.replace(cfg, T=1.5e-3), ("prk",),
                                                tau0=1e-3, n_halvings=1),
                 id="convergence"),
    pytest.param(lambda cfg: work_precision_driver(cfg, ("prk",), (5e-4, 1e-3), (1e-3, 1.5e-3)),
                 id="work-precision"),
])
def test_off_grid_checkpoint_rejected_before_any_step(monkeypatch, driver):
    def no_step(*_args, **_kwargs):
        raise AssertionError("a step ran before the checkpoints were checked")

    monkeypatch.setattr(integ, "prk_step", no_step)
    cfg = preset("llg_blowup42", k=8, reference="self", ref_tau=5e-4)
    with pytest.raises(ValueError, match="not an integer multiple of tau"):
        driver(cfg)


def test_bdf4_reference_snapshots_match_separate_runs():
    # one BDF4 trajectory gives, at every checkpoint, the field of a run to
    # that time alone: at the start, inside the three start-up steps (1 and 3)
    # and after them
    cfg = preset("convergence41", k=8, reference="bdf4", ref_tau=1e-5)
    grid = build_grid(cfg)
    m0 = build_initial(cfg, grid)
    p = SchemeParams(scheme="bdf4_ref", tau=1e-5,
                     projection=ProjectionParams(alpha=1.0, beta=1.0),
                     solver=SolverConfig(rel_tol=1e-12))
    times = (0.0, 1e-5, 3e-5, 4e-5, 6e-5)
    snaps = reference_snapshots(cfg, build_initial(cfg), times)
    for T, n_steps in zip(times, (0, 1, 3, 4, 6)):
        final, trace = run(m0, p, T)
        assert trace.failure is None and len(trace) == n_steps
        assert np.array_equal(snaps[T].components, final.components)
        assert all(r.max_unit_dev <= 1e-12 for r in trace.records)
        # a start-up step is ten two-stage product sub-steps
        assert [len(r.solver_iters) for r in trace.records] == \
            [20] * min(n_steps, 3) + [1] * max(n_steps - 3, 0)


def test_failed_bdf4_reference_raises(monkeypatch):
    def failing(*_args, **_kwargs):
        raise integ.StepFailureError(1, "synthetic")

    monkeypatch.setattr(integ, "bdf4_step", failing)
    cfg = preset("convergence41", k=8, reference="bdf4", ref_tau=1e-5)
    with pytest.raises(RuntimeError, match="reference run failed"):
        reference_snapshots(cfg, build_initial(cfg), (2e-5,))


def test_work_precision_driver_rows(tmp_path):
    cfg = preset("llg_blowup42", k=8, reference="self", ref_tau=2.5e-5)
    out = work_precision_driver(cfg, ("prk",), (4e-4, 2e-4, 1e-4), (2e-3, 4e-3),
                                out_dir=str(tmp_path))
    for T, rows in out.items():
        assert len(rows) == 3
        for scheme, tau, wall, err in rows:
            assert wall > 0
            assert np.isfinite(err)
        # structural: errors decrease with tau in the asymptotic range
        errs = [err for _s, _t, _w, err in rows]
        assert errs[0] > errs[1] > errs[2]
    files = list(tmp_path.glob("work_precision_T*.csv"))
    assert len(files) == 2


def test_work_precision_one_run_per_cell(monkeypatch):
    # every terminal time comes from one run per (scheme, tau), so each cell
    # costs max(T) / tau steps, and a later time has taken at least as long
    calls = {}
    original = integ.prk_step

    def counting(state, p, step_index=0, t0=0.0, **kwargs):
        calls[p.tau] = calls.get(p.tau, 0) + 1
        return original(state, p, step_index, t0, **kwargs)

    monkeypatch.setattr(integ, "prk_step", counting)
    cfg = preset("llg_blowup42", k=8, reference="self", ref_tau=2.5e-4)
    times = (2e-3, 1e-3, 4e-3)
    out = work_precision_driver(cfg, ("prk",), (1e-3, 5e-4), times)
    assert calls == {2.5e-4: 16, 1e-3: 4, 5e-4: 8}
    for T in times:
        assert [row[:2] for row in out[T]] == [("prk", 1e-3), ("prk", 5e-4)]
    for j in range(2):
        walls = [out[T][j][2] for T in sorted(times)]
        assert 0 < walls[0] <= walls[1] <= walls[2]


def test_config_json_round_trip():
    cfg = preset("twisted_nematic44")
    text = config_to_json(cfg)
    doc = json.loads(text)
    assert doc["preset"] == "twisted_nematic44"
    cfg2 = config_from_json(text)
    assert cfg2 == cfg


def test_l2_error_zero_for_identical_fields():
    cfg = preset("custom")
    grid = build_grid(cfg)
    m = build_initial(cfg, grid)
    assert l2_error(m, m, grid) == 0.0
