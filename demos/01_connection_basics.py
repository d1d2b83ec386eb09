"""Tour of the chart-local connection machinery.

Builds the catalog connections, shows the projector algebra at a point,
lifts a base vector horizontally, and differentiates a section both
naturally and covariantly.

Run:  python demos/01_connection_basics.py
"""

import math

import numpy as np

from fibrum import (BaseVectorField, SectionMap, covariant_derivative,
                    horizontal_lift, horizontal_projector, lift_rank_check,
                    make_nonlinear_demo, make_sphere, natural_derivative,
                    vertical_projector)

conn = make_sphere()
bundle = conn.bundle
print(f"bundle '{bundle.name}': base_dim={bundle.base_dim}, "
      f"fibre_dim={bundle.fibre_dim}")
print(f"base box: {bundle.base_box.lower} .. {bundle.base_box.upper}")

# --- projectors at a point ---------------------------------------------------
e = bundle.total_point([math.pi / 4, 0.0, 1.0, 0.0])
pv = vertical_projector(conn, e)
ph = horizontal_projector(conn, e)
print("\nvertical projector at (pi/4, 0, 1, 0):")
print(np.array_str(pv, precision=6, suppress_small=True))
print("idempotency |P_V^2 - P_V| =", np.max(np.abs(pv @ pv - pv)))
print("complementarity |P_V + P_H - I| =",
      np.max(np.abs(pv + ph - np.eye(4))))
print("annihilation |P_V P_H| =", np.max(np.abs(pv @ ph)))

# --- horizontal lift ----------------------------------------------------------
lift = horizontal_lift(conn, e, [0.0, 1.0])
lift_fibre = np.asarray(lift.fibre_part)
print("\nhorizontal lift of d_phi at that point:")
print("  base part :", np.asarray(lift.base_part))
print("  fibre part:", lift_fibre, "(the cot(pi/4) = 1 coefficient)")

# --- natural and covariant derivative of a section ---------------------------
s = SectionMap(bundle, lambda x: [1.0, 0.0])      # constant section of TS^2
v = BaseVectorField(bundle, lambda x: [0.0, 1.0])  # d_phi
x = bundle.base_point([math.pi / 4, 0.0])
nat = natural_derivative(s, v, x)
nat_base, nat_fibre = np.asarray(nat.base_part), np.asarray(nat.fibre_part)
cov = np.asarray(covariant_derivative(conn, s, v, x))
print("\nconstant section y = (1, 0), differentiated along d_phi at "
      "theta = pi/4:")
print("  natural derivative (base, fibre):", nat_base, nat_fibre)
print("  covariant derivative            :", cov)
print("  split: natural = covariant (vertical) + horizontal lift of d_phi")
print("         fibre of lift:", lift_fibre, " cov + lift =",
      cov + lift_fibre, "= fibre of natural", nat_fibre)

# --- the lift is fibrewise injective (full rank) ------------------------------
print("\nlift rank at the graph point:", lift_rank_check(conn, s, x),
      "(base dimension is", bundle.base_dim, ")")

# --- the same machinery runs on a genuinely nonlinear coefficient -------------
nl = make_nonlinear_demo()
e2 = nl.bundle.total_point([0.3, -0.2, 0.5])
print(f"\nnonlinear-demo bundle: gamma((0.3,-0.2), 0.5) applied to (1, 0) =",
      np.array(nl.gamma([0.3, -0.2], [0.5], [1.0, 0.0]), dtype=float),
      "(scales like y + y^3, not linearly)")
pv2 = vertical_projector(nl, e2)
print("projector algebra still exact: |P_V^2 - P_V| =",
      np.max(np.abs(pv2 @ pv2 - pv2)))
