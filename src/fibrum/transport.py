"""Flows, parallel transport, geodesics, sprays and loop holonomy.

All integration is fixed-step classical RK4: deterministic, with a
testable fourth-order convergence rate.  Identities that are exact for the
continuous flows are asserted elsewhere with step-order-aware tolerances.
Trajectories must stay inside the chart box; leaving it raises
:class:`~fibrum.errors.ChartExitError` with the exit time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bundle import (BaseVectorField, Point, SectionMap, SpaceTag,
                     TotalVectorField, TrivializedBundle)
from .calculus import Scalar, as_float_array, derivative, float_value
from .connection import ConnectionField, horizontal_lift_field
from .errors import (ChartExitError, DomainError, StepBudgetError,
                     TangentBundleRequiredError)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration."""

    step: float = 1e-3
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.step <= 0.0:
            raise DomainError("integrator step must be positive")
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")

    def n_steps(self, interval: float) -> int:
        n = max(1, int(math.ceil(abs(interval) / self.step - 1e-12)))
        if n > self.max_steps:
            raise StepBudgetError(
                f"interval {interval!r} needs {n} steps of {self.step}, "
                f"budget is {self.max_steps}")
        return n


@dataclass(frozen=True)
class CurveOnBase:
    """Parameterized curve t -> base coordinates, closed under DScalar
    inputs so its velocity is available by differentiation.

    ``velocity_fn`` is an optional closed-form velocity t -> c'(t), a list
    of floats.  When given it must be bit-equal to the DScalar derivative
    ``derivative(fn, t)``, up to the sign of a zero component: it has to
    repeat the operation order of that pass, so that transport results do
    not change with its presence.  Without it the velocity is
    differentiated.
    """

    bundle: TrivializedBundle
    fn: Callable[[Scalar], Sequence[Scalar]]
    t0: float
    t1: float
    velocity_fn: Optional[Callable[[float], Sequence[float]]] = None

    def point_at(self, t: float) -> np.ndarray:
        return as_float_array(self.fn(t))

    def velocity(self, t: float) -> np.ndarray:
        if self.velocity_fn is not None:
            return as_float_array(self.velocity_fn(float(t)))
        return as_float_array(derivative(self.fn, float(t)))


@dataclass(frozen=True)
class SprayField:
    """Second-order field on the tangent-bundle configuration:
    (x, v) -> (v, a(x, v)).  The spray law - base part equal to the fibre
    point - holds by construction and stays re-checkable."""

    bundle: TrivializedBundle
    fn: Callable[[Sequence[Scalar]], Sequence[Scalar]]

    def __call__(self, coords) -> list:
        if isinstance(coords, Point):
            coords = list(coords.coords)
        return list(self.fn(coords))

    def as_total_field(self) -> TotalVectorField:
        return TotalVectorField(self.bundle, self.fn)


def _rk4(rhs, z0: np.ndarray, span: float, cfg: IntegratorConfig,
         inside, what: str, t_base: float = 0.0,
         collect: bool = False):
    """Fixed-step RK4 driver for ``rhs(t, z)``; the state is checked per node.

    The state is a plain list of floats and ``rhs`` returns one; the final
    state and the collected (t, z) path entries come back as ndarrays.
    """
    z = [float(c) for c in z0]
    path = [(t_base, np.array(z))] if collect else None
    if span == 0.0:
        return (np.array(z), path) if collect else np.array(z)
    n = cfg.n_steps(span)
    h = span / n
    hh = 0.5 * h
    h6 = h / 6.0
    t = t_base
    for k in range(n):
        k1 = rhs(t, z)
        k2 = rhs(t + hh, [zi + hh * a for zi, a in zip(z, k1)])
        k3 = rhs(t + hh, [zi + hh * b for zi, b in zip(z, k2)])
        k4 = rhs(t + h, [zi + h * c for zi, c in zip(z, k3)])
        z = [zi + h6 * (((a + 2.0 * b) + 2.0 * c) + d)
             for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]
        t = t_base + (k + 1) * h
        if not inside(z):
            raise ChartExitError(f"{what} left the chart box", t)
        if collect:
            path.append((t, np.array(z)))
    return (np.array(z), path) if collect else np.array(z)


def flow(X: TotalVectorField, e0: Point, lam: float,
         cfg: IntegratorConfig) -> Point:
    """RK4 approximation of the flow of X for parameter lam from e0."""
    if e0.space is not SpaceTag.TOTAL or e0.bundle is not X.bundle:
        raise DomainError("flow needs a total-space start point on X's chart")
    bundle = X.bundle

    def rhs(t, z):
        return [float_value(c) for c in X.fn(list(z))]

    z = _rk4(rhs, np.array(e0.coords), float(lam), cfg,
             bundle.contains_total, "flow")
    return bundle.total_point(z)


def flow_base(v: BaseVectorField, x0: Point, lam: float,
              cfg: IntegratorConfig) -> Point:
    """RK4 flow of a base vector field."""
    if x0.space is not SpaceTag.BASE or x0.bundle is not v.bundle:
        raise DomainError("flow_base needs a base point on v's chart")
    bundle = v.bundle

    def rhs(t, z):
        return [float_value(c) for c in v.fn(list(z))]

    z = _rk4(rhs, np.array(x0.coords), float(lam), cfg,
             bundle.contains_base, "base flow")
    return bundle.base_point(z)


def _transport_rhs(conn: ConnectionField, curve: CurveOnBase):
    """Right-hand side -gamma(c(t), y) c'(t) of the transport equation.

    A one-entry cache keyed on t computes the curve point and velocity once
    per distinct stage time; RK4 stages k2 and k3 share the midpoint.  The
    curve point is checked against the base box there, so every stage time
    (t, t + h/2, t + h) is checked, and an exit reports that stage time.
    """
    gamma = conn.gamma
    fn = curve.fn
    velocity = curve.velocity_fn or functools.partial(derivative, fn)
    in_base = conn.bundle.base_box.contains
    node = [None, None, None]  # t, c(t), c'(t)

    def rhs(t, y):
        if t != node[0]:
            x = list(fn(t))
            if not in_base(x):
                raise ChartExitError("curve left the base box", t)
            node[:] = t, x, list(velocity(t))
        return [-c for c in gamma(node[1], y, node[2])]

    return rhs


def _transport(conn: ConnectionField, curve: CurveOnBase,
               y0: Sequence[float], cfg: IntegratorConfig, collect: bool):
    """Integrate the transport equation; the path is built only on request."""
    bundle = conn.bundle
    start = curve.point_at(curve.t0)
    if not bundle.contains_base(start):
        raise DomainError("curve start lies outside the base box")
    y0 = np.asarray(y0, dtype=float)
    if not bundle.fibre_box.contains(y0):
        raise DomainError("initial fibre element lies outside the fibre box")
    span = curve.t1 - curve.t0
    return _rk4(_transport_rhs(conn, curve), y0, span, cfg,
                bundle.fibre_box.contains, "parallel transport", curve.t0,
                collect)


def parallel_transport_vector(conn: ConnectionField, curve: CurveOnBase,
                              y0: Sequence[float],
                              cfg: IntegratorConfig) -> np.ndarray:
    """Transport a fibre element along a base curve by integrating the
    horizontal-lift equation dy/dt = -gamma(c(t), y) c'(t)."""
    return _transport(conn, curve, y0, cfg, False)


def parallel_transport_path(conn: ConnectionField, curve: CurveOnBase,
                            y0: Sequence[float], cfg: IntegratorConfig
                            ) -> tuple[np.ndarray, list]:
    """Like :func:`parallel_transport_vector` but also returns the sampled
    path as a list of (t, y) pairs."""
    return _transport(conn, curve, y0, cfg, True)


def covariant_derivative_along_curve(conn: ConnectionField, curve: CurveOnBase,
                                     y_of_t: Callable[[Scalar], Sequence[Scalar]],
                                     t: float) -> np.ndarray:
    """Covariant derivative of a fibre element field given along the curve:
    y'(t) + gamma(c(t), y(t)) c'(t), in closed form.

    This is the derivative of the transport pull-back; no integration is
    needed.
    """
    x = curve.point_at(t)
    y = as_float_array(y_of_t(t))
    if not conn.bundle.contains_base(x) or not conn.bundle.fibre_box.contains(y):
        raise DomainError("curve/fibre data leave the chart box at t")
    ydot = as_float_array(derivative(y_of_t, float(t)))
    cdot = curve.velocity(t)
    g = as_float_array(conn.gamma(list(x), list(y), list(cdot)))
    return ydot + g


def spray_from_connection(conn: ConnectionField) -> SprayField:
    """Spray S(x, v) = (v, -gamma(x, v) v) of a tangent-bundle connection;
    compatible with the connection's horizontal lift by construction."""
    bundle = conn.bundle
    if bundle.fibre_dim != bundle.base_dim:
        raise TangentBundleRequiredError(
            "sprays need the tangent-bundle configuration (f = m)")
    m = bundle.base_dim

    def ev(coords):
        x, v = coords[:m], coords[m:]
        a = conn.gamma(list(x), list(v), list(v))
        return list(v) + [-c for c in a]

    return SprayField(bundle, ev)


def geodesic(conn: ConnectionField, x0: Sequence[float], v0: Sequence[float],
             T: float, cfg: IntegratorConfig) -> list:
    """Integrate the geodesic system dx/dt = v, dv/dt = -gamma(x, v) v.

    Returns the sampled trajectory as (t, x, v) triples at every node.
    The returned velocity is covariantly constant along the returned curve
    up to the integrator's accuracy.
    """
    bundle = conn.bundle
    if bundle.fibre_dim != bundle.base_dim:
        raise TangentBundleRequiredError(
            "geodesics need the tangent-bundle configuration (f = m)")
    m = bundle.base_dim
    z0 = np.concatenate([np.asarray(x0, dtype=float),
                         np.asarray(v0, dtype=float)])
    if not bundle.contains_total(z0):
        raise DomainError("geodesic initial data outside the chart box")

    def rhs(t, z):
        v = z[m:]
        return v + [-c for c in conn.gamma(z[:m], v, v)]

    _, path = _rk4(rhs, z0, float(T), cfg, bundle.contains_total,
                   "geodesic", collect=True)
    return [(t, z[:m].copy(), z[m:].copy()) for t, z in path]


def lie_derivative_covariant(conn: ConnectionField, s: SectionMap,
                             v: BaseVectorField, x: Point,
                             cfg: IntegratorConfig) -> np.ndarray:
    """Flow definition of the covariant derivative: central difference in
    the flow parameter of (backward horizontal flow) o s o (forward base
    flow), at parameter cfg.step.

    Converges to the algebraic covariant derivative at second order in the
    parameter; this bridges the flow picture and the algebra.
    """
    lam = cfg.step
    hv = horizontal_lift_field(conn, v)
    m = conn.bundle.base_dim

    def composed(sign: float) -> np.ndarray:
        x1 = flow_base(v, x, sign * lam, cfg)
        e1 = s.graph(x1)
        e2 = flow(hv, e1, -sign * lam, cfg)
        return np.array(e2.coords)

    diff = composed(+1.0) - composed(-1.0)
    return diff[m:] / (2.0 * lam)


def _loop_is_closed(bundle: TrivializedBundle, start: np.ndarray,
                    end: np.ndarray, tol: float = 1e-9) -> bool:
    periods = bundle.base_periods or (None,) * bundle.base_dim
    for d, period in zip(end - start, periods):
        if period is None:
            if abs(d) > tol:
                return False
        else:
            r = abs(d) % period
            if min(r, period - r) > tol:
                return False
    return True


def holonomy_loop(conn: ConnectionField, loop: CurveOnBase,
                  y0: Sequence[float], cfg: IntegratorConfig
                  ) -> tuple[np.ndarray, float]:
    """Transport y0 once around a closed base loop; returns the transported
    element and the displacement norm |y1 - y0|.

    Closure may be modulo a declared base period (e.g. the polar angle of
    the sphere chart); the net displacement is the integrated obstruction
    to integrability of the horizontal distribution.
    """
    start = loop.point_at(loop.t0)
    end = loop.point_at(loop.t1)
    if not _loop_is_closed(conn.bundle, start, end):
        raise DomainError("holonomy_loop needs a closed curve "
                          "(up to declared base periods)")
    y1 = parallel_transport_vector(conn, loop, y0, cfg)
    return y1, float(np.linalg.norm(y1 - np.asarray(y0, dtype=float)))
