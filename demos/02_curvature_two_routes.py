"""Curvature four ways, and the exact anatomy of one disagreement.

Route A (lifts):     CURV_s(u,v) = (H_[u,v] - [H_u, H_v]) o s
Route B (projector): -P_V [H_u, H_v] o s
Route C (commutator of the extended covariant-derivative fields):
                     [nabla_u, nabla_v] o s - nabla_[u,v] s
Route D (covariant derivatives composed along s):
                     nabla_u nabla_v s - nabla_v nabla_u s - nabla_[u,v] s

A, B and D agree identically, and on the sphere reproduce the classical
tensor contraction R^a_bcd y^b u^c v^d.  Route C does NOT reproduce them:
expanding [T_u, T_v] = T_[u,v] with T = nabla + H shows that

    routeC - routeA = ([H_v, nabla_u] + [nabla_v, H_u]) o s

exactly, and that cross-bracket sum is generally nonzero (for a flat
coefficient and s(x) = x it is already -[u, v]).  The script prints all
four routes plus the cross-bracket sum so the bookkeeping is visible.

Run:  python demos/02_curvature_two_routes.py
"""

import math

import numpy as np

from fibrum import (BaseVectorField, SectionMap, cross_bracket_sum,
                    curv_via_covariant, curv_via_covariant_composition,
                    curv_via_lifts,
                    curv_via_vertical_projection, make_flat, make_sphere,
                    random_base_field, random_base_point, random_section)

sphere = make_sphere()
bundle = sphere.bundle

# --- the worked sphere point --------------------------------------------------
s = SectionMap(bundle, lambda x: [1.0, 0.0])
u = BaseVectorField(bundle, lambda x: [1.0, 0.0])   # d_theta
v = BaseVectorField(bundle, lambda x: [0.0, 1.0])   # d_phi
theta = math.pi / 3
x = bundle.base_point([theta, 0.0])

A = np.asarray(curv_via_lifts(sphere, s, u, v, x).fibre_part)
B = np.asarray(curv_via_vertical_projection(sphere, s, u, v, x).fibre_part)
C = np.asarray(curv_via_covariant(sphere, s, u, v, x).fibre_part)
D = np.asarray(curv_via_covariant_composition(sphere, s, u, v, x).fibre_part)
cross = np.asarray(cross_bracket_sum(sphere, s, u, v, x))

print("sphere, constant section y=(1,0), coordinate fields, theta = pi/3:")
print("  route A (lift difference)   :", A)
print("  route B (projected bracket) :", B, "   |A - B| =",
      np.max(np.abs(A - B)))
print("  classical tensor prediction : [0, -1]   (R^phi_th,th,ph = -1)")
print("  route C (commutator)        :", C,
      f"  (= [0, -cot^2(pi/3)] = [0, {-1/math.tan(theta)**2:.6f}])")
print("  route D (composition)       :", D, "   |A - D| =",
      np.max(np.abs(A - D)))
print("  cross-bracket sum (fibre)   :", cross[2:])
print("  C - A                       :", C - A,
      "  -> equals the cross-bracket sum to machine precision:",
      np.max(np.abs((C - A) - cross[2:])))

# --- flat chart: curvature is zero, route C still is not ----------------------
flat = make_flat()
fb = flat.bundle
s2 = SectionMap(fb, lambda x: [x[0], x[1]])          # s(x) = x
u2 = BaseVectorField(fb, lambda x: [1.0, 0.0])
v2 = BaseVectorField(fb, lambda x: [x[0], 0.0])      # [u2, v2] = (1, 0)
x2 = fb.base_point([0.5, -0.3])
A2 = np.asarray(curv_via_lifts(flat, s2, u2, v2, x2).fibre_part)
C2 = np.asarray(curv_via_covariant(flat, s2, u2, v2, x2).fibre_part)
D2 = np.asarray(curv_via_covariant_composition(flat, s2, u2, v2, x2)
                .fibre_part)
print("\nflat chart, s(x) = x, u = d1, v = x1 d1 (so [u,v] = d1):")
print("  route A:", A2, "(flat: no curvature)")
print("  route C:", C2, "= -Ds [u,v] = -(1, 0); the commutator of the")
print("  vertical extensions cannot see base variation, so the")
print("  nabla_[u,v] term survives unpaired")
print("  route D:", D2, "= nabla_u nabla_v s - nabla_[u,v] s = (1, 0) - (1, 0)")

# --- statistics over random data ----------------------------------------------
rng = np.random.default_rng(0)
worst_ab = worst_ad = worst_expansion = worst_ac = 0.0
for _ in range(40):
    s3 = random_section(bundle, rng)
    u3 = random_base_field(bundle, rng)
    v3 = random_base_field(bundle, rng)
    x3 = random_base_point(bundle, rng)
    a = np.asarray(curv_via_lifts(sphere, s3, u3, v3, x3).fibre_part)
    b = np.asarray(curv_via_vertical_projection(sphere, s3, u3, v3, x3)
                   .fibre_part)
    c = np.asarray(curv_via_covariant(sphere, s3, u3, v3, x3).fibre_part)
    d = np.asarray(curv_via_covariant_composition(sphere, s3, u3, v3, x3)
                   .fibre_part)
    cr = np.asarray(cross_bracket_sum(sphere, s3, u3, v3, x3))
    worst_ab = max(worst_ab, float(np.max(np.abs(a - b))))
    worst_ad = max(worst_ad, float(np.max(np.abs(a - d))))
    worst_ac = max(worst_ac, float(np.max(np.abs(c - a))))
    worst_expansion = max(worst_expansion,
                          float(np.max(np.abs(c - a - cr[2:]))))

print("\n40 random (section, field pair, point) draws on the sphere:")
print(f"  |A - B|                      max = {worst_ab:.3e}   (identity)")
print(f"  |A - D|                      max = {worst_ad:.3e}   (the formula)")
print(f"  |C - A|                      max = {worst_ac:.3e}   (the defect)")
print(f"  |C - A - cross-bracket sum|  max = {worst_expansion:.3e}   "
      "(exact bilinear expansion)")
