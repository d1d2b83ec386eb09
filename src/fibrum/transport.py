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

from .bundle import (BaseVectorField, Point, SectionMap, SpaceTag,
                     TotalVectorField, TrivializedBundle)
from .calculus import (Scalar, _define, derivative, float_value, vec_add,
                       vec_sub)
from .connection import ConnectionField, horizontal_lift_field
from .errors import (ChartExitError, DomainError, StepBudgetError,
                     TangentBundleRequiredError)


def step_count(interval: float, step: float) -> int:
    """The number of equal RK4 steps, each at most ``step`` long, that
    cover ``interval``; a number too large to count is a StepBudgetError."""
    n = abs(interval) / step
    if not math.isfinite(n):
        raise StepBudgetError(f"interval {interval!r} in steps of {step!r} "
                              "needs too many steps to count")
    return max(1, int(math.ceil(n - 1e-12)))


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
        n = step_count(interval, self.step)
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
    differentiated.  It may return one list at every call; its callers
    do not change it.
    """

    bundle: TrivializedBundle
    fn: Callable[[Scalar], Sequence[Scalar]]
    t0: float
    t1: float
    velocity_fn: Optional[Callable[[float], Sequence[float]]] = None

    def point_at(self, t: float) -> list:
        return [float_value(c) for c in self.fn(t)]

    def velocity(self, t: float) -> list:
        if self.velocity_fn is not None:
            return [float(c) for c in self.velocity_fn(float(t))]
        return derivative(self.fn, float(t))


def _rk4(rhs, z0: Sequence[float], span: float, cfg: IntegratorConfig,
         inside, what: str, t_base: float = 0.0,
         collect: bool = False, negate_from: Optional[int] = None):
    """Fixed-step RK4 driver for ``rhs(t, z)`` with its components from
    index ``negate_from`` on negated (none when it is None); the state is
    checked per node.

    The state is a list of floats and ``rhs`` returns one.  The final state
    comes back as such a list, and with ``collect`` also the path: a list
    of (t, z) entries, one per node, whose states are never changed later.
    """
    z = [float(c) for c in z0]
    path = [(t_base, z)] if collect else None
    if span != 0.0:
        n = cfg.n_steps(span)
        h = span / n
        d = len(z)
        loop = _rk4_loop(d, d if negate_from is None else negate_from)
        z = loop(rhs, z, n, h, 0.5 * h, h / 6.0, t_base, inside, what, path)
    return (z, path) if collect else z


@functools.lru_cache(maxsize=None)
def _rk4_loop(d: int, negate_from: int):
    """The step loop of :func:`_rk4` for states of length ``d`` whose
    right-hand side is negated from component ``negate_from`` on, written
    out per component as straight-line code and compiled on first use.

    Component i of a stage is ``z_i + hh * k1[i]`` and of a step
    ``z_i + h6 * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i])``: the
    float operations of a per-component list comprehension, in its order,
    without a comprehension frame per stage.

    A negated component integrates ``-rhs`` with the bits of integrating
    ``-c`` for each entry c of ``rhs(t, z)`` as a list, without building
    that list.  IEEE negation is exact and rounding is sign-symmetric, and
    ``a - b`` is ``a + -b``, so a stage is ``z_i - hh * k1[i]`` and a step
    sums ``((-k1[i] - 2.0 * k2[i]) - 2.0 * k3[i]) - k4[i]``.  Subtracting
    the positive sum from ``z_i`` instead could flip the sign of a zero: a
    sum that cancels to zero is +0.0 whichever sign its terms carry.
    """
    # per component, the sign of its stage terms and of its leading k1
    signs = [("-", "-") if i >= negate_from else ("+", "") for i in range(d)]

    def stage(fmt):
        return "[" + ", ".join(fmt.format(i, signs[i][0])
                               for i in range(d)) + "]"

    lines = ["def loop(rhs, z, n, h, hh, h6, t_base, inside, what, path):"]
    lines += [f"    z{i} = z[{i}]" for i in range(d)]
    lines += [
        "    t = t_base",
        "    for k in range(n):",
        "        k1 = rhs(t, z)",
        "        k2 = rhs(t + hh, " + stage("z{0} {1} hh * k1[{0}]") + ")",
        "        k3 = rhs(t + hh, " + stage("z{0} {1} hh * k2[{0}]") + ")",
        "        k4 = rhs(t + h, " + stage("z{0} {1} h * k3[{0}]") + ")",
    ]
    lines += [f"        z{i} = z{i} + h6 * ((({lead}k1[{i}] {op} 2.0 * k2[{i}])"
              f" {op} 2.0 * k3[{i}]) {op} k4[{i}])"
              for i, (op, lead) in enumerate(signs)]
    lines += [
        "        z = " + stage("z{0}"),
        "        t = t_base + (k + 1) * h",
        "        if not inside(z):",
        "            raise ChartExitError(f'{what} left the chart box', t)",
        "        if path is not None:",
        "            path.append((t, z))",
        "    return z",
    ]
    return _define(lines, f"<rk4 loop, d={d}, negated from {negate_from}>",
                   {"ChartExitError": ChartExitError})


def flow(X: TotalVectorField, e0: Point, lam: float,
         cfg: IntegratorConfig) -> Point:
    """RK4 approximation of the flow of X for parameter lam from e0."""
    if e0.space is not SpaceTag.TOTAL or e0.bundle is not X.bundle:
        raise DomainError("flow needs a total-space start point on X's chart")
    bundle = X.bundle
    rhs = _float_rhs(len(e0.coords))(X.fn)
    z = _rk4(rhs, e0.coords, float(lam), cfg, bundle.contains_total, "flow")
    return bundle.total_point(z)


@functools.lru_cache(maxsize=None)
def _float_rhs(d: int):
    """The maker of :func:`flow`'s right-hand side for states of length
    ``d``, written out per component and compiled on first use of ``d``.

    ``make(fn)`` returns ``rhs(t, z)``, which unpacks ``fn(z)`` into
    ``c0, ..., c{d-1}`` and returns ``[c0 if type(c0) is float else
    float_value(c0), ...]``: a float component as it is, any other through
    ``float_value``.
    """
    cs = [f"c{i}" for i in range(d)]
    lines = ["def make(fn):",
             "    def rhs(t, z):",
             f"        {', '.join(cs)}, = fn(z)",
             "        return [" + ", ".join(
                 f"{c} if type({c}) is float else float_value({c})"
                 for c in cs) + "]",
             "    return rhs"]
    return _define(lines, f"<flow rhs, d={d}>", {"float_value": float_value})


def flow_base(v: BaseVectorField, x0: Point, lam: float,
              cfg: IntegratorConfig) -> Point:
    """RK4 flow of a base vector field."""
    if x0.space is not SpaceTag.BASE or x0.bundle is not v.bundle:
        raise DomainError("flow_base needs a base point on v's chart")
    bundle = v.bundle

    def rhs(t, z):
        return [float_value(c) for c in v.fn(z)]

    z = _rk4(rhs, x0.coords, float(lam), cfg, bundle.contains_base,
             "base flow")
    return bundle.base_point(z)


def _transport_rhs(conn: ConnectionField, curve: CurveOnBase):
    """gamma(c(t), y) c'(t), the transport equation's right-hand side
    without its sign; :func:`_rk4`, negating from component 0, supplies
    the sign.

    A one-entry cache keyed on t computes the curve point and velocity once
    per distinct stage time; RK4 stages k2 and k3 share the midpoint.  The
    curve point is checked against the base box there, so every stage time
    (t, t + h/2, t + h) is checked, and an exit reports that stage time.  A
    node is copied into a list only where ``fn`` or the velocity did not
    return one.
    """
    gamma = conn.gamma
    fn = curve.fn
    velocity = curve.velocity_fn or functools.partial(derivative, fn)
    in_base = conn.bundle.base_box.contains
    node_t = node_x = node_v = None  # t, c(t), c'(t)

    def rhs(t, y):
        nonlocal node_t, node_x, node_v
        if t != node_t:
            x = fn(t)
            if type(x) is not list:
                x = list(x)
            if not in_base(x):
                raise ChartExitError("curve left the base box", t)
            v = velocity(t)
            node_t, node_x, node_v = t, x, v if type(v) is list else list(v)
        return gamma(node_x, y, node_v)

    return rhs


def _transport(conn: ConnectionField, curve: CurveOnBase,
               y0: Sequence[float], cfg: IntegratorConfig, collect: bool):
    """Integrate the transport equation; the path is built only on request."""
    bundle = conn.bundle
    start = curve.point_at(curve.t0)
    if not bundle.contains_base(start):
        raise DomainError("curve start lies outside the base box")
    y0 = [float(c) for c in y0]
    if not bundle.fibre_box.contains(y0):
        raise DomainError("initial fibre element lies outside the fibre box")
    span = curve.t1 - curve.t0
    return _rk4(_transport_rhs(conn, curve), y0, span, cfg,
                bundle.fibre_box.contains, "parallel transport", curve.t0,
                collect, 0)


def parallel_transport_vector(conn: ConnectionField, curve: CurveOnBase,
                              y0: Sequence[float],
                              cfg: IntegratorConfig) -> list:
    """Transport a fibre element along a base curve by integrating the
    horizontal-lift equation dy/dt = -gamma(c(t), y) c'(t)."""
    return _transport(conn, curve, y0, cfg, False)


def parallel_transport_path(conn: ConnectionField, curve: CurveOnBase,
                            y0: Sequence[float], cfg: IntegratorConfig
                            ) -> tuple[list, list]:
    """Like :func:`parallel_transport_vector` but also returns the sampled
    path as a list of (t, y) pairs."""
    return _transport(conn, curve, y0, cfg, True)


def covariant_derivative_along_curve(conn: ConnectionField, curve: CurveOnBase,
                                     y_of_t: Callable[[Scalar], Sequence[Scalar]],
                                     t: float) -> list:
    """Covariant derivative of a fibre element field given along the curve:
    y'(t) + gamma(c(t), y(t)) c'(t), in closed form.

    This is the derivative of the transport pull-back; no integration is
    needed.
    """
    x = curve.point_at(t)
    y = [float_value(c) for c in y_of_t(t)]
    if not conn.bundle.contains_base(x) or not conn.bundle.fibre_box.contains(y):
        raise DomainError("curve/fibre data leave the chart box at t")
    ydot = derivative(y_of_t, float(t))
    return vec_add(ydot, conn.gamma(x, y, curve.velocity(t)))


def spray_from_connection(conn: ConnectionField) -> TotalVectorField:
    """Spray S(x, v) = (v, -gamma(x, v) v) of a tangent-bundle connection:
    a second-order field on the total space, compatible with the
    connection's horizontal lift by construction.  The spray law - base part
    equal to the fibre point - holds by construction and stays
    re-checkable."""
    bundle = conn.bundle
    if bundle.fibre_dim != bundle.base_dim:
        raise TangentBundleRequiredError(
            "sprays need the tangent-bundle configuration (f = m)")
    m = bundle.base_dim

    def ev(coords):
        x, v = coords[:m], coords[m:]
        a = conn.gamma(list(x), list(v), list(v))
        return list(v) + [-c for c in a]

    return TotalVectorField(bundle, ev)


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
    z0 = [float(c) for c in x0] + [float(c) for c in v0]
    if not bundle.contains_total(z0):
        raise DomainError("geodesic initial data outside the chart box")

    def rhs(t, z):  # (v, gamma(x, v) v); _rk4 negates from component m
        v = z[m:]
        return [*v, *conn.gamma(z[:m], v, v)]

    _, path = _rk4(rhs, z0, float(T), cfg, bundle.contains_total,
                   "geodesic", collect=True, negate_from=m)
    return [(t, z[:m], z[m:]) for t, z in path]


def lie_derivative_covariant(conn: ConnectionField, s: SectionMap,
                             v: BaseVectorField, x: Point,
                             cfg: IntegratorConfig) -> list:
    """Flow definition of the covariant derivative: central difference in
    the flow parameter of (backward horizontal flow) o s o (forward base
    flow), at parameter cfg.step.

    Converges to the algebraic covariant derivative at second order in the
    parameter; this bridges the flow picture and the algebra.
    """
    lam = cfg.step
    hv = horizontal_lift_field(conn, v)
    m = conn.bundle.base_dim

    def composed(sign: float) -> list:
        x1 = flow_base(v, x, sign * lam, cfg)
        e1 = s.graph(x1)
        return flow(hv, e1, -sign * lam, cfg).coords[m:]

    return [d / (2.0 * lam) for d in vec_sub(composed(+1.0), composed(-1.0))]


def _loop_is_closed(bundle: TrivializedBundle, start: Sequence[float],
                    end: Sequence[float], tol: float = 1e-9) -> bool:
    periods = bundle.base_periods or (None,) * bundle.base_dim
    for d, period in zip(vec_sub(end, start), periods):
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
                  ) -> tuple[list, float]:
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
    return y1, math.hypot(*vec_sub(y1, [float(c) for c in y0]))
