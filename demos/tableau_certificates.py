#!/usr/bin/env python3
"""Walk through the tableau algebra that certifies structure preservation.

The two-stage second-order tableau drives a product IMEX-RK step in which
the stiff Laplacian factor is averaged with weights D2 and the mobility is
evaluated at the lagged stage.  Its certificates,

    Q = B D2 A + (B D2 A)^T - b b^T     (energy decrease of the predictor)
    R = b b^T - B D1 J A - (B D1 J A)^T (length increase of the predictor)

must be positive semi-definite with b >= 0; then the pointwise projection
keeps the solution on the sphere while the discrete energy dissipates.
"""

import numpy as np

from prkflow.tableau import (certify, order_condition_residuals, prk2_tableau,
                             q_matrix, r_matrix,
                             third_order_nonexistence_certificate)

t = prk2_tableau()
print("A =\n", t.A)
print("D2 =\n", t.D2)
print("b =", t.b, " c =", t.c)

print("\norder-condition residuals (through order 3):")
for name, residual in order_condition_residuals(t, 3):
    print(f"  {name:25s} {residual:+.3e}")
print("-> second order exactly; the order-3 residual 1/6 shows the barrier.")

print("\nQ =\n", q_matrix(t))
print("R =\n", r_matrix(t))
report = certify(t)
print("Q eigenvalues:", report.q_eigenvalues)
print("R eigenvalues:", report.r_eigenvalues)
print("certificate satisfied:", report.satisfies_theorem)

coeffs, disc = third_order_nonexistence_certificate()
roots = np.roots(coeffs)
print("\nthree-stage third-order obstruction:")
print(f"  12 b3^2 - 6 b3 + 1 = 0 has discriminant {disc:g} < 0")
print(f"  complex roots {roots[0]:.4f}, {roots[1]:.4f} -> no real tableau exists")
