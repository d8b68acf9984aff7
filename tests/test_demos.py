"""The quick demos run to completion and write the files they announce.

Each demo runs as its own process in an empty directory, so that renaming a
library name a demo uses fails here.  ``convergence_table.py`` is left out:
it takes about a minute, and its reduced sweep is
``test_table1_reduced_ci_gate``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# files each demo must announce with a "wrote ..." line (it may announce more,
# e.g. stability_region.png when matplotlib is installed)
WRITES = {
    "tableau_certificates": [],
    "scalar_order_check": [],
    "stability_region": ["stability_region.csv"],
    "llg_blowup": ["blowup_trace.csv", "blowup_t0.1.vtk"],
    "twisted_nematic": ["twisted_final.vtk"],
    "robustness_table": ["robustness.csv"],
}


@pytest.mark.parametrize("name", list(WRITES))
def test_demo_runs_and_writes_what_it_announces(name, tmp_path):
    env = dict(os.environ, MPLBACKEND="Agg", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    announced = [path for line in proc.stdout.splitlines() if line.startswith("wrote ")
                 for path in re.split(r", | and ", line[len("wrote "):])]
    assert set(WRITES[name]) <= set(announced)
    for path in announced:
        assert (tmp_path / path).is_file(), path
