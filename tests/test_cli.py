"""Command-line interface: exit codes and artifact emission."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prkflow.cli import main
from prkflow.tableau import prk2_tableau, tableau_to_dict


@pytest.fixture
def prk2_json(tmp_path):
    path = tmp_path / "prk2.json"
    path.write_text(json.dumps(tableau_to_dict(prk2_tableau())))
    return str(path)


@pytest.fixture
def bad_tableau_json(tmp_path):
    doc = tableau_to_dict(prk2_tableau())
    doc["D2"] = [[1.0, 0.0], [-1.0, 1.5]]   # row sum broken
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def upper_tableau_json(tmp_path):
    doc = tableau_to_dict(prk2_tableau())
    doc["A"] = [[1.0, 0.5], [-0.5, 1.0]]    # upper-triangle entry: not diagonally implicit
    path = tmp_path / "upper.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_tableau_ok(prk2_json, capsys):
    assert main(["check-tableau", prk2_json, "--order", "2", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "structure: OK" in out
    assert "certificate: OK" in out


def test_check_tableau_third_order_fails(prk2_json):
    assert main(["check-tableau", prk2_json, "--order", "3"]) == 2


def test_check_tableau_structural_failure(bad_tableau_json):
    assert main(["check-tableau", bad_tableau_json]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["check-tableau"])
    assert err.value.code == 1


def test_run_without_preset_or_config_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run"])
    assert err.value.code == 1
    assert "either --preset or --config is required" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path):
    assert main(["check-tableau", str(tmp_path / "nope.json")]) == 1


def test_stability_region_csv(prk2_json, tmp_path):
    out = tmp_path / "mask.csv"
    code = main(["stability-region", prk2_json, "--window=-4,1,-3,3",
                 "--res", "24,24", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,inside,max_abs_R"
    assert len(lines) == 1 + 24 * 24
    first = lines[1].split(",")
    assert float(first[0]) == -4.0 and float(first[1]) == -3.0


def test_stability_region_rejects_non_lower_triangular(upper_tableau_json, tmp_path, capsys):
    out = tmp_path / "mask.csv"
    code = main(["stability-region", upper_tableau_json, "--res", "8,8", "--out", str(out)])
    assert code == 1
    assert "lower triangular" in capsys.readouterr().err
    assert not out.exists()


def test_dump_config_parses(capsys):
    assert main(["dump-config", "--preset", "llg_blowup42"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 24 and doc["tau"] == 1e-4
    assert "solver_method" not in doc and "theta" not in doc


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.update(grid_size=8), "grid_size"),
    (lambda doc: doc.pop("tau"), "tau"),
    # configurations dumped while the solver was a setting carry this key
    (lambda doc: doc.update(solver_method="bicgstab"), "solver_method"),
    # and those dumped while sip1 had its own implicitness setting this one
    (lambda doc: doc.update(theta=1.0), "theta"),
    # and those dumped while the solver tolerances were settings this one
    (lambda doc: doc.update(solver_rel_tol=1e-11), "solver_rel_tol"),
    (lambda doc: doc.update(scheme="rk4"), "rk4"),
    (lambda doc: doc["faces"].__setitem__(1, "bogus"), "bogus"),
    (lambda doc: doc.update(initial="vortex"), "vortex"),
    (lambda doc: doc.update(k=0), "k"),
    (lambda doc: doc.update(dim=4), "dim"),
    (lambda doc: doc["faces"].pop(), "faces"),
    (lambda doc: doc.update(dim=3), "faces"),
    # numbers that pass the type but not the run: each is named by its key
    (lambda doc: doc.update(beta=math.nan), "beta"),
    (lambda doc: doc.update(tau=math.inf), "tau"),
    (lambda doc: doc.update(origin=[0.0]), "origin"),
    (lambda doc: doc.update(length=-1.0), "length"),
    (lambda doc: doc.update(T=math.nan), "T"),
    (lambda doc: doc.update(ref_tau=math.nan), "ref_tau"),
    (lambda doc: doc.update(origin=[math.nan, 0.0]), "origin"),
    (lambda doc: doc.update(alpha=math.inf), "alpha"),
    (lambda doc: doc.update(T=-1.0), "T"),
    # counts and seeds must be integers, and JSON's true is not one
    (lambda doc: doc.update(k=2.5), "k"),
    (lambda doc: doc.update(dim=2.0), "dim"),
    (lambda doc: doc.update(seed=1.5), "seed"),
    (lambda doc: doc.update(k=True), "k"),
    (lambda doc: doc.update(snapshot_times=[math.nan]), "snapshot_times"),
    (lambda doc: doc.update(snapshot_times=[-1.0]), "snapshot_times"),
    (lambda doc: doc.update(reference="bogus"), "reference"),
    (lambda doc: doc.update(output_dir=5), "output_dir"),
    # sequences must be JSON lists
    (lambda doc: doc.update(snapshot_times=5), "snapshot_times"),
    (lambda doc: doc.update(faces=5), "faces"),
    (lambda doc: doc.update(origin=5), "origin"),
    # and JSON's true is not a number either
    (lambda doc: doc.update(tau=True), "tau"),
    (lambda doc: doc.update(alpha=True), "alpha"),
    (lambda doc: doc.update(origin=[True, 0.0]), "origin"),
], ids=["unknown-key", "missing-key", "solver-method", "theta", "solver-rel-tol",
        "unknown-scheme", "unknown-face", "unknown-initial", "zero-cells", "dim-4",
        "three-faces-at-dim-2", "four-faces-at-dim-3", "nan-beta", "infinite-tau",
        "short-origin", "negative-length", "nan-T", "nan-ref-tau", "nan-origin",
        "infinite-alpha", "negative-T", "fractional-k", "float-dim", "fractional-seed",
        "boolean-k", "nan-snapshot-time", "negative-snapshot-time", "unknown-reference",
        "numeric-output-dir", "numeric-snapshot-times", "numeric-faces", "numeric-origin",
        "boolean-tau", "boolean-alpha", "boolean-origin"])
def test_dump_config_malformed_json_is_usage_error(edit, key, tmp_path, capsys):
    from prkflow.harness import preset, config_to_json
    doc = json.loads(config_to_json(preset("custom")))
    edit(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for command in ("dump-config", "run"):
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err


def test_run_with_infinite_tau_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "custom", "--tau", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'tau'" in err and "got inf" in err
    assert not list(tmp_path.iterdir())


def test_run_with_zero_cells_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "custom", "--k", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'k'" in err and "got 0" in err
    assert not list(tmp_path.iterdir())


def test_check_tableau_without_s_is_usage_error(tmp_path, capsys):
    doc = tableau_to_dict(prk2_tableau())
    del doc["s"]
    path = tmp_path / "no_s.json"
    path.write_text(json.dumps(doc))
    assert main(["check-tableau", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'s'" in err


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.__setitem__("s", 2.7), "s"),
    (lambda doc: doc.__setitem__("s", "2"), "s"),
    (lambda doc: doc.__setitem__("s", True), "s"),
    (lambda doc: doc["b"].__setitem__(0, True), "b"),
    (lambda doc: doc["A"][1].__setitem__(0, "0.5"), "A"),
], ids=["fractional-s", "string-s", "bool-s", "bool-in-b", "string-in-A"])
def test_check_tableau_casts_nothing(edit, key, tmp_path, capsys):
    # a value that only a cast makes a number is a usage error naming its key
    doc = tableau_to_dict(prk2_tableau())
    edit(doc)
    path = tmp_path / "cast.json"
    path.write_text(json.dumps(doc))
    assert main(["check-tableau", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} ")


@pytest.mark.parametrize("edit, args, name", [
    (lambda doc: doc["D2"][1].__setitem__(0, math.nan), [], "D2"),
    (lambda doc: doc["D2"][1].__setitem__(0, math.nan), ["--order", "2"], "D2"),
    (lambda doc: doc["A"][1].__setitem__(0, math.inf), ["--certify"], "A"),
], ids=["nan-D2", "nan-D2-order-2", "infinite-A-certify"])
def test_check_tableau_with_non_finite_entry_is_usage_error(edit, args, name, tmp_path, capsys):
    doc = tableau_to_dict(prk2_tableau())
    edit(doc)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    assert main(["check-tableau", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} has an entry that is not finite")


@pytest.mark.parametrize("args, what", [
    (["--res", "0,5"], "resolution"),
    (["--window=-4,nan,-3,3"], "bounds"),
    (["--alpha", "nan"], "alpha"),
    (["--alpha", "0"], "alpha"),
    (["--alpha", "5"], "alpha"),
], ids=["no-columns", "nan-bound", "nan-alpha", "zero-alpha", "alpha-past-pi-over-2"])
def test_stability_region_unsampleable_input_is_usage_error(args, what, prk2_json, tmp_path,
                                                            capsys):
    out = tmp_path / "mask.csv"
    assert main(["stability-region", prk2_json, "--res", "5,5", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and what in err
    assert not out.exists()


def test_run_custom_emits_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--preset", "custom", "--k", "6", "--tau", "1e-3",
                 "--T", "5e-3", "--scheme", "prk"])
    assert code == 0
    assert (tmp_path / "custom_prk_trace.csv").exists()
    assert (tmp_path / "custom_prk_final.vtk").exists()


def test_run_summary_totals_solver_iterations_and_fallbacks(tmp_path, capsys, monkeypatch):
    # the summary line adds up the trace's solver_iters_total and fallback_solves
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "llg_blowup42", "--k", "8", "--tau", "1e-3",
                 "--T", "5e-3", "--scheme", "prk"]) == 0
    out = capsys.readouterr().out
    header, *rows = (tmp_path / "llg_blowup42_prk_trace.csv").read_text().splitlines()
    columns = header.split(",")
    iters, fallbacks = (sum(int(row.split(",")[columns.index(name)]) for row in rows)
                        for name in ("solver_iters_total", "fallback_solves"))
    assert len(rows) == 5 and iters > 0
    assert (f"steps completed: 5; solver iterations: {iters}; "
            f"fallback solves: {fallbacks}; trace: ") in out


def test_aborted_run_exits_2_and_keeps_its_trace(tmp_path, capsys, monkeypatch):
    # LM2 finds no multiplier on the twisted nematic's random start: the run
    # stops, says when, and the trace CSV holds one row per completed step
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--preset", "twisted_nematic44", "--k", "8", "--scheme", "lm2",
                 "--tau", "1e-3", "--T", "0.01"])
    assert code == 2
    out = capsys.readouterr().out
    assert "run aborted at t =" in out
    completed = int(out.split("steps completed: ")[1].split(";")[0])
    rows = (tmp_path / "twisted_nematic44_lm2_trace.csv").read_text().splitlines()
    assert rows[0].startswith("step,t,energy,")
    assert len(rows) == 1 + completed
    assert (tmp_path / "twisted_nematic44_lm2_final.vtk").exists()


@pytest.mark.parametrize("command", ["convergence", "robustness", "work-precision"])
def test_unknown_scheme_is_usage_error(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--preset", "custom", "--schemes", "prk,rk4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scheme 'rk4'")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, named", [
    (["convergence", "--tau0", "0"], "got 0.0"),
    (["convergence", "--tau0=-1e-3"], "got -0.001"),
    (["convergence", "--halvings", "-1"], "got -1"),
    (["convergence", "--schemes", ","], "got schemes []"),
    (["robustness", "--taus", "0"], "got 0.0"),
    (["robustness", "--taus", "1e-3,nan"], "got nan"),
    (["robustness", "--schemes", ","], "got schemes []"),
    (["work-precision", "--taus", "0"], "got 0.0"),
    (["work-precision", "--taus=-1e-3"], "got -0.001"),
    (["work-precision", "--taus", "0", "--out-dir", "wpdir"], "got 0.0"),
    (["robustness", "--checkpoints", "inf"], "got inf"),
    (["robustness", "--checkpoints", "nan"], "got nan"),
    (["work-precision", "--times", "inf"], "got inf"),
], ids=["convergence-tau0-zero", "convergence-tau0-negative", "convergence-halvings-negative",
        "convergence-no-scheme", "robustness-tau-zero", "robustness-tau-nan",
        "robustness-no-scheme", "work-precision-tau-zero", "work-precision-tau-negative",
        "work-precision-out-dir", "robustness-checkpoint-inf", "robustness-checkpoint-nan",
        "work-precision-time-inf"])
def test_sweep_rejects_its_step_sizes_before_any_run(args, named, tmp_path, capsys, monkeypatch):
    # every (scheme, tau) is checked before the reference trajectory runs:
    # a usage error that names the value, no traceback and no output
    import prkflow.harness as harness

    def no_reference(*_args, **_kwargs):
        raise AssertionError("the reference ran")

    monkeypatch.setattr(harness, "reference_snapshots", no_reference)
    monkeypatch.chdir(tmp_path)
    assert main([args[0], "--preset", "custom", *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_run_takes_the_bdf4_reference_scheme(tmp_path, capsys, monkeypatch):
    # every scheme SchemeParams takes, the reference scheme included
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "custom", "--scheme", "bdf4_ref"]) == 0
    assert "steps completed: 10;" in capsys.readouterr().out
    rows = (tmp_path / "custom_bdf4_ref_trace.csv").read_text().splitlines()
    assert len(rows) == 11


def test_run_scheme_choices_are_the_integrators_schemes():
    # one list of scheme names: the one SchemeParams checks against
    import argparse
    from prkflow.cli import build_parser
    from prkflow.integrators import SCHEMES
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    scheme = next(a for a in subparsers.choices["run"]._actions if a.dest == "scheme")
    assert scheme.choices is SCHEMES


def test_run_from_config_file(tmp_path, capsys):
    from prkflow.harness import preset, config_to_json
    cfg = preset("custom", k=6, tau=1e-3, T=3e-3, output_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "custom_prk_trace.csv").exists()


def test_config_file_takes_overrides(tmp_path, capsys):
    # --k, --tau, --T and --seed override a --config file as they do a preset
    from prkflow.harness import preset, config_to_json
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(preset("custom", output_dir=str(tmp_path))))
    assert main(["run", "--config", str(path), "--T", "2e-3"]) == 0
    assert "steps completed: 2;" in capsys.readouterr().out
    assert main(["dump-config", "--config", str(path), "--k", "4"]) == 0
    assert '"k": 4,' in capsys.readouterr().out


@pytest.mark.parametrize("snapshot_times, extra_args, written", [
    pytest.param(None, [], (0.02, 0.04, 0.048, 0.049, 0.1), id="preset-times"),
    pytest.param((0.0, 0.02, 0.049, 0.1), ["--T", "0.05"], (0.0, 0.02, 0.049),
                 id="initial-and-past-T"),
])
def test_run_emits_requested_snapshots(tmp_path, capsys, snapshot_times, extra_args, written):
    # the blowup preset requests a snapshot at t = 0.049 among others; t = 0
    # writes the initial field and a time past T writes nothing
    from prkflow.harness import preset, config_to_json
    overrides = {} if snapshot_times is None else {"snapshot_times": snapshot_times}
    cfg = preset("llg_blowup42", k=8, output_dir=str(tmp_path), **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    assert main(["run", "--config", str(path), *extra_args]) == 0
    snapshots = [f"llg_blowup42_prk_t{t:g}.vtk" for t in written]
    emitted = sorted(p.name for p in tmp_path.glob("llg_blowup42_prk_*"))
    assert emitted == sorted(snapshots + ["llg_blowup42_prk_final.vtk",
                                          "llg_blowup42_prk_trace.csv"])
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("snapshot: ")]
    assert printed == [f"snapshot: {tmp_path / name}" for name in snapshots]


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--preset", "convergence41", "--k", "8",
                 "--schemes", "prk", "--tau0", "6.4e-4", "--halvings", "1",
                 "--T", "2.56e-3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "l2_error" in printed


def test_robustness_command(tmp_path, capsys):
    out = tmp_path / "rob.csv"
    code = main(["robustness", "--preset", "llg_blowup42", "--k", "8",
                 "--schemes", "prk", "--taus", "1e-3",
                 "--checkpoints", "1e-3,2e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,tau,T,l2_error"
    assert len(lines) == 3


def test_work_precision_command(tmp_path, capsys):
    code = main(["work-precision", "--preset", "llg_blowup42", "--k", "8",
                 "--schemes", "prk", "--taus", "1e-3,5e-4",
                 "--times", "2e-3", "--out-dir", str(tmp_path / "wp")])
    assert code == 0
    files = list((tmp_path / "wp").glob("work_precision_T*.csv"))
    assert len(files) == 1
    assert "wall=" in capsys.readouterr().out


def test_console_script_installed():
    # the package as the tests import it, installed or not
    import prkflow
    root = str(Path(prkflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "prkflow.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "stability-region" in proc.stdout
