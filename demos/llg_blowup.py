#!/usr/bin/env python3
"""Magnetization reversal through a defect: the blowup benchmark.

The initial bubble unwinds and the spin at the origin flips from the north
to the south pole near t = 0.05.  Every step keeps |m| = 1 to rounding and
dissipates the discrete energy; the pre-projection length never drops below
one, which is the mechanism the Q/R certificates guarantee.
Emits the energy trace and VTK snapshots for visualization.
"""

import numpy as np

from prkflow.grid import discrete_energy
from prkflow.harness import (build_grid, build_initial, checkpoint_steps, emit_field_vtk,
                             emit_trace_csv, preset, scheme_params)
from prkflow.integrators import run

cfg = preset("llg_blowup42")        # h = 1/24, tau = 1e-4, alpha = beta = 1
grid = build_grid(cfg)
m0 = build_initial(cfg, grid)
center = grid.center_index()
print(f"grid {grid.n_per_axis}x{grid.n_per_axis}, tau = {cfg.tau:g}, "
      f"E(0) = {discrete_energy(m0):.4f}, m3(center) = {m0.components[2, center]:+.3f}")

snapshots = []
crossing = []
at_step = {i: t for t, i in checkpoint_steps(cfg.snapshot_times, cfg.tau).items()}


def observe(i, t, m):
    if not crossing and m.components[2, center] < 0.0:
        crossing.append(t)
    if i in at_step:
        path = f"blowup_t{at_step[i]:g}.vtk"
        emit_field_vtk(m, grid, path)
        snapshots.append(path)


final, trace = run(m0, scheme_params(cfg, scheme="prk"), cfg.T, observers=[observe])
emit_trace_csv(trace, "blowup_trace.csv")

e = trace.energies()
print(f"energy {e[0]:.4f} -> {e[-1]:.4f}, monotone: "
      f"{bool(np.all(np.diff(e) <= 1e-9 * e[:-1]))}")
print(f"max | |m| - 1 | over the run: {max(r.max_unit_dev for r in trace.records):.2e}")
print(f"min pre-projection length - 1: "
      f"{min(r.min_len_pre for r in trace.records) - 1.0:+.2e}")
print(f"center spin crosses the equator at t = {crossing[0]:g}" if crossing
      else "no crossing observed")
print("wrote blowup_trace.csv and", ", ".join(snapshots))
