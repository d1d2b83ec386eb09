"""Parallel transport around latitude circles and the holonomy it leaves.

Transporting a tangent vector once around the latitude theta = theta0 of
the unit sphere rotates it by 2*pi*(1 - cos theta0).  The script transports
with the RK4 integrator, measures the rotation in the round metric, and
cross-checks against the boundary-integral form of the area theorem
computed from the connection itself.

Run:  python demos/03_sphere_holonomy.py
"""

import math

import numpy as np

from fibrum import (IntegratorConfig, holonomy_loop, latitude_loop,
                    make_sphere, parallel_transport_path,
                    sphere_angle_between, sphere_latitude_gb_angle,
                    sphere_metric)

conn = make_sphere()
bundle = conn.bundle
cfg = IntegratorConfig(step=1e-3)
y0 = [1.0, 0.0]

print("latitude   closed form    measured       gauss-bonnet   |err|")
for theta0 in (math.pi / 3, 1.0, 1.4, 2.0):
    loop = latitude_loop(bundle, theta0)
    y1, disp = holonomy_loop(conn, loop, y0, cfg)
    angle = sphere_angle_between([theta0, 0.0], y0, y1)
    exact = 2.0 * math.pi * (1.0 - math.cos(theta0))
    folded = abs(math.remainder(exact, 2.0 * math.pi))
    gb = sphere_latitude_gb_angle(conn, theta0)
    print(f"{theta0:8.4f}   {folded:.9f}   {angle:.9f}   "
          f"{abs(math.remainder(gb, 2*math.pi)):.9f}   "
          f"{abs(angle - folded):.2e}")

theta0 = math.pi / 3
loop = latitude_loop(bundle, theta0)
y1, disp = holonomy_loop(conn, loop, y0, cfg)
print(f"\nat theta0 = pi/3 the rotation is exactly pi: the vector returns "
      f"negated:\n  y0 = {y0}, transported = {np.round(y1, 10)}, "
      f"displacement = {disp:.6f}")

# the round-metric length is conserved along the whole transport
_, path = parallel_transport_path(conn, loop, y0, cfg)
norms = []
for t, y in path[:: len(path) // 8]:
    y, g = np.asarray(y), np.asarray(sphere_metric(loop.fn(t)))
    norms.append(float(y @ g @ y))
print("\nround-metric norm g(y, y) along the loop (Levi-Civita transport "
      "is an isometry):")
print("  ", np.round(norms, 12))

# a degenerate loop does nothing
still = latitude_loop(bundle, theta0, t0=0.0, t1=2.0 * math.pi)
print("\nflat comparison: transport around a circle with the zero "
      "coefficient leaves the vector bitwise unchanged (see demo 01 and "
      "the transport checks).")
