"""Command-line interface: exit codes and artifact emission."""

import json
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
    (lambda doc: doc.update(scheme="rk4"), "rk4"),
    (lambda doc: doc["faces"].__setitem__(1, "bogus"), "bogus"),
    (lambda doc: doc.update(initial="vortex"), "vortex"),
    (lambda doc: doc.update(k=0), "k"),
], ids=["unknown-key", "missing-key", "solver-method", "theta", "unknown-scheme",
        "unknown-face", "unknown-initial", "zero-cells"])
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


def test_run_custom_emits_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--preset", "custom", "--k", "6", "--tau", "1e-3",
                 "--T", "5e-3", "--scheme", "prk"])
    assert code == 0
    assert (tmp_path / "custom_prk_trace.csv").exists()
    assert (tmp_path / "custom_prk_final.vtk").exists()


def test_run_from_config_file(tmp_path, capsys):
    from prkflow.harness import preset, config_to_json
    cfg = preset("custom", k=6, tau=1e-3, T=3e-3, output_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "custom_prk_trace.csv").exists()


def test_run_emits_requested_snapshots(tmp_path):
    # the blowup preset requests a snapshot at t = 0.049 among others
    from prkflow.harness import preset, config_to_json
    cfg = preset("llg_blowup42", k=8, output_dir=str(tmp_path))
    assert 0.049 in cfg.snapshot_times
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "llg_blowup42_prk_t0.049.vtk").exists()


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
                 "--times", "2e-3", "--out-dir", str(tmp_path)])
    assert code == 0
    files = list(tmp_path.glob("work_precision_T*.csv"))
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
