"""Every public name a module exports exists, and a run of any scheme loads
numpy and scipy.sparse only."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import prkflow


def test_all_names_resolve():
    for info in pkgutil.iter_modules(prkflow.__path__):
        name = f"prkflow.{info.name}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
        exec(f"from {name} import *", {})


_FOOTPRINT = """
import json, sys
import numpy as np
import scipy.sparse as sparse
from prkflow.harness import build_grid, build_initial, preset, scheme_params
from prkflow.integrators import run
from prkflow.linalg import direct_solve

lazy = ("scipy.optimize", "scipy.sparse.linalg", "scipy.linalg")
cfg = preset("llg_blowup42", k=8)
initial = build_initial(cfg, build_grid(cfg))
out = {}
for scheme in ("prk", "sip1", "prk_alt", "bdf4_ref", "lm2"):
    p = scheme_params(cfg, scheme=scheme)
    _, trace = run(initial, p, 3 * p.tau)
    out[scheme] = [len(trace), trace.failure is None, [m for m in lazy if m in sys.modules]]
x, _ = direct_solve(sparse.diags([2.0, 4.0]).tocsr(), np.ones(2))
out["direct"] = [x.tolist(), [m for m in lazy if m in sys.modules]]
print(json.dumps(out))
"""


def test_prk_run_loads_neither_root_finder_nor_factorization():
    # a fresh process: a run of any scheme needs numpy and scipy.sparse only;
    # LM2's root search is the library's own, and the SuperLU fallback
    # imports scipy.sparse.linalg (and with it scipy.linalg) on first use
    root = str(Path(prkflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for scheme in ("prk", "sip1", "prk_alt", "bdf4_ref", "lm2"):
        assert out[scheme] == [3, True, []], scheme
    assert out["direct"] == [[0.5, 0.25], ["scipy.sparse.linalg", "scipy.linalg"]]
