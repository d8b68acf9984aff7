"""Structure-preserving product IMEX-RK integration of unit-vector gradient flows.

Subpackages:
  tableau     -- product Runge-Kutta tableaux, order conditions, Q/R certificates
  stability   -- additive embedding, stability function, region sampling
  grid        -- tensor meshes, discrete Laplacians, trapezoidal inner products
  field       -- three-component node fields, sphere projection, mobility operator
  linalg      -- matrix-free stage operator and verified sparse solves
  integrators -- PRK (SIP1 = its implicit-Euler tableau, the PRK variant = its
                 transformed tableau) / LM2 / BDF4-reference steppers, one run loop
  harness     -- experiment presets, drivers, CSV/VTK emitters
"""

from .tableau import (PRKTableau, prk2_tableau, implicit_euler_tableau, validate,
                      order_condition_residuals, q_matrix, r_matrix, certify,
                      measure_scalar_order, third_order_nonexistence_certificate)
from .stability import embed, stability_function, sample_region, RegionWindow
from .grid import Grid, NEUMANN, laplacian, inner_product, discrete_energy
from .field import VectorField, ProjectionParams, normalize, diagnostics
from .linalg import SolverConfig, solve
from .integrators import (SchemeParams, prk_step, lm2_step, lm2_init, bdf4_step, run,
                          RunTrace, NoRealRootError)
from .harness import (preset, build_grid, build_initial, scheme_params, l2_error,
                      convergence_driver, robustness_driver, work_precision_driver,
                      emit_field_vtk, emit_trace_csv)

__version__ = "0.1.0"
