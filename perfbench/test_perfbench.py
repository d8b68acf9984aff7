"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import speed  # noqa: E402
from prkflow import integrators, linalg  # noqa: E402
from prkflow.integrators import StepRecord  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload on a 7-node-per-axis grid with five steps per integration."""
    return dataclasses.replace(bench.WORKLOADS[name], n_steps=5, setup_reps=2,
                               overrides=(("k", 6),))


def test_spec_names_the_benchmark_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: bench.E2E_UNITS[k] for k in bench.E2E_REPORTED}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: unit for k, (unit, _spans) in bench.LAYERS.items()}


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name):
    untraced = bench.measure(tiny(name), seed=3, seconds=0.0, trace=0)
    assert untraced.correct, untraced.messages()
    e2e = bench.end_to_end(untraced)
    for spec in SPEC["end_to_end"]:
        value, unit, n = e2e[spec["name"]]
        assert unit == spec["unit"] and value > 0 and n >= 1

    traced = bench.measure(tiny(name), seed=3, seconds=0.0, trace=1)
    assert traced.correct, traced.messages()
    layers, absent = bench.per_layer(traced)
    assert absent == []
    for spec in SPEC["per_layer"]:
        value, unit, _n = layers[spec["name"]]
        assert unit == spec["unit"] and value == value


def test_counts_repeat_and_match_the_step_records():
    first = bench.measure(tiny("llg2d-prk"), seed=0, seconds=0.5, trace=1)
    assert len(first.runs) > 1 and first.correct, first.messages()
    again = bench.measure(tiny("llg2d-prk"), seed=0, seconds=0.0, trace=1)
    a, b = bench.per_layer(first)[0], bench.per_layer(again)[0]
    for name in ("linalg.iters_per_solve", "linalg.solve_calls_per_step",
                 "linalg.assemble_calls_per_step", "field.apply_blocks_calls_per_step",
                 "grid.energy_calls_per_step"):
        assert a[name][0] == b[name][0] > 0


def _records(energies, min_len=1.0):
    return [StepRecord(step=i + 1, t=(i + 1) * 1e-3, energy=e, energy_pre_projection=e,
                       min_len_pre=min_len, max_unit_dev=1e-16, solver_iters=(8, 8),
                       solver_residuals=(1e-13, 1e-13), wall_ms=1.0)
            for i, e in enumerate(energies)]


def test_checks_pass_a_dissipative_trace():
    assert checks.check_steps(_records([9.0, 8.0, 7.5]), 10.0, 1e-10, structure=True) == []


def test_checks_flag_an_energy_increase():
    out = checks.check_steps(_records([9.0, 9.5, 7.5]), 10.0, 1e-10, structure=False)
    assert [step for step, _ in out] == [2]


def test_checks_flag_a_shortened_pre_projection_length():
    recs = _records([9.0, 8.0, 7.5])
    recs[1] = dataclasses.replace(recs[1], min_len_pre=0.9983)
    assert [step for step, _ in checks.check_steps(recs, 10.0, 1e-10, structure=True)] == [2]
    # LM2 is outside the theorem: its lengths are not checked
    assert checks.check_steps(recs, 10.0, 1e-10, structure=False) == []


def test_checks_flag_a_residual_above_target_and_a_failure():
    recs = _records([9.0])
    recs[0] = dataclasses.replace(recs[0], solver_residuals=(1e-13, 1e-6))
    failure = (2e-3, integrators.StepFailureError(1, "no convergence"))
    out = checks.check_steps(recs, 10.0, 1e-10, structure=True, failure=failure)
    assert [step for step, _ in out] == [1, 2]


def test_missing_target_is_reported_absent(monkeypatch):
    renamed = tuple(dataclasses.replace(t, attr="StageOperatorTemplate.fill")
                    if t.span == "linalg.assemble" else t for t in bench.TARGETS)
    monkeypatch.setattr(bench, "TARGETS", renamed)
    m = bench.measure(tiny("llg2d-prk"), seed=0, seconds=0.0, trace=1)
    assert m.correct and m.absent == ["prkflow.linalg.StageOperatorTemplate.fill"]
    layers, absent = bench.per_layer(m)
    assert absent == ["linalg.assemble_calls_per_step", "linalg.assemble_ms_per_step"]
    assert layers["linalg.assemble_ms_per_step"][0] == 0.0
    assert layers["linalg.solve_calls_per_step"][0] == 2.0


def test_tracer_restores_the_library():
    original = linalg.solve
    tracer = Tracer(bench.TARGETS, bench.NAMESPACES)
    tracer.install()
    assert integrators.solve is not original and linalg.solve is not original
    tracer.uninstall()
    assert integrators.solve is original and linalg.solve is original
    assert "assemble" in vars(linalg.StageOperatorTemplate)
    assert Tracer([Target("x.gone", "prkflow.linalg", "gone")], bench.NAMESPACES).absent == \
        ["prkflow.linalg.gone"]


def test_speed_adjustment_takes_out_the_host_and_the_probes():
    def probe(dt):
        p = speed.SpeedProbe()
        for k in range(200):          # one probe every 10 ms over 2 s
            p.starts.append(k * 0.01)
            p.times.append(dt)
        return p
    ref = speed.REF_S
    # 0.5 s at reference speed holds 50 probes; at half speed it takes twice as long
    fast = probe(ref).adjust(0.505, 1.005)
    slow = probe(2 * ref).adjust(0.505, 1.005)
    assert fast == pytest.approx(0.5 - 50 * ref)
    assert slow == pytest.approx((0.5 - 50 * 2 * ref) / 2)
    # an interval with no probe inside takes its speed from the probes around it
    assert probe(2 * ref).adjust(0.1001, 0.1051) == pytest.approx(0.005 / 2)
    assert speed.SpeedProbe().adjust(0.0, 1.0) == 1.0


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "llg2d-prk",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
