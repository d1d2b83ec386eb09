"""Geodesics, the spray of a connection, and the flow/algebra bridge.

A geodesic keeps its velocity covariantly constant.  The same trajectory
can be produced two ways: the dedicated geodesic integrator on (x, v), or
the generic flow of the spray field S(x, v) = (v, -gamma(x, v) v).  The
script runs both on the sphere, confirms they coincide, and finishes with
the convergence of the flow-based covariant derivative to the algebraic
one.

Run:  python demos/04_geodesics_and_sprays.py
"""

import math

import numpy as np

from fibrum import (IntegratorConfig, covariant_derivative, flow, geodesic,
                    lie_derivative_covariant, make_sphere, random_base_field,
                    random_section, spray_from_connection, sphere_metric)

conn = make_sphere()
bundle = conn.bundle
cfg = IntegratorConfig(step=1e-3)

# --- the equator is a geodesic ------------------------------------------------
samples = geodesic(conn, [math.pi / 2, 0.0], [0.0, 1.0], 1.0, cfg)
t, x, v = samples[-1]
print("equatorial start (theta = pi/2, velocity d_phi):")
print(f"  after t = 1: theta = {x[0]:.12f} (stays pi/2 = {math.pi/2:.12f}),"
      f" phi = {x[1]:.12f}")

# --- a tilted geodesic, against the spray flow --------------------------------
x0, v0 = [1.0, 0.3], [0.3, 0.4]
samples = geodesic(conn, x0, v0, 1.0, cfg)
spray = spray_from_connection(conn)
end = flow(spray, bundle.total_point(x0 + v0), 1.0, cfg)
t, xf, vf = samples[-1]
print("\ntilted geodesic from (1.0, 0.3) with velocity (0.3, 0.4):")
print(f"  geodesic integrator end: x = {np.round(xf, 10)}, "
      f"v = {np.round(vf, 10)}")
print(f"  spray flow end         : {np.round(end.coords, 10)}")
print(f"  max difference         : "
      f"{np.max(np.abs(np.array(end.coords) - np.concatenate([xf, vf]))):.3e}")

# geodesics preserve speed in the round metric
speeds = []
for t, x, v in samples[:: len(samples) // 6]:
    v, g = np.asarray(v), np.asarray(sphere_metric(x))
    speeds.append(float(v @ g @ v))
print("  g(v, v) along the trajectory:", np.round(speeds, 12))

# --- flow/algebra bridge -------------------------------------------------------
rng = np.random.default_rng(3)
s = random_section(bundle, rng)
w = random_base_field(bundle, rng)
x = bundle.base_point([1.2, 0.4])
alg = np.asarray(covariant_derivative(conn, s, w, x))
print("\ncovariant derivative via flows vs algebra:")
print(f"  algebraic value: {np.round(alg, 12)}")
print("  lambda      flow-composition value        error     ")
prev = None
for lam in (1e-2, 1e-3, 1e-4):
    fd = np.asarray(lie_derivative_covariant(conn, s, w, x,
                                             IntegratorConfig(step=lam)))
    err = float(np.max(np.abs(fd - alg)))
    order = "" if prev is None else f"   order {math.log10(prev / err):.3f}"
    prev = err
    print(f"  {lam:8.0e}  {np.round(fd, 10)}  {err:.3e}{order}")
print("second-order convergence in the flow parameter, as the central "
      "difference predicts.")
