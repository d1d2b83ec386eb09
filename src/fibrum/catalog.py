"""Built-in bundles/connections and seeded random test data.

Catalog contents:

* ``flat``          -- gamma = 0 on any dimensions; everything trivial.
* ``sphere``        -- tangent bundle of the unit round sphere in polar
                       coordinates, Levi-Civita Christoffels, with a polar
                       collar excluded (cot(theta) blows up at the poles).
* ``nonlinear-demo``-- f = 1 coefficient genuinely nonlinear in the fibre
                       coordinate, exercising the general (non-vector-bundle)
                       machinery.
* ``tm-custom-christoffel`` -- tangent-bundle configuration with user-given
                       constant or degree-one polynomial Christoffels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bundle import (BaseVectorField, Box, Point, SectionMap,
                     TotalTangent, TrivializedBundle, uniform,
                     uniform_parts)
from .calculus import cos, dot, float_value, mat_vec, sin
from .connection import ConnectionField, ConnectionKind
from .errors import ConfigError, DomainError

SPHERE_COLLAR = 0.2
SPHERE_PHI_SLACK = 0.2  # widen past one period so closed loops stay inside


def make_flat(m: int = 2, f: int = 2, base_half: float = 2.0,
              fibre_half: float = 2.0) -> ConnectionField:
    bundle = TrivializedBundle(
        name="flat",
        base_box=Box((-base_half,) * m, (base_half,) * m),
        fibre_box=Box((-fibre_half,) * f, (fibre_half,) * f),
    )
    return ConnectionField(bundle, lambda x, y, v: [0.0] * f,
                           ConnectionKind.LINEAR)


def make_sphere(fibre_half: float = 4.0) -> ConnectionField:
    lo = SPHERE_COLLAR
    hi = math.pi - SPHERE_COLLAR
    phi_half = math.pi + SPHERE_PHI_SLACK
    bundle = TrivializedBundle(
        name="sphere",
        base_box=Box((lo, -phi_half), (hi, phi_half)),
        fibre_box=Box((-fibre_half, -fibre_half), (fibre_half, fibre_half)),
        base_periods=(None, 2.0 * math.pi),
    )

    last_th = last = None  # the last float theta, and its (sin, cos, cot)

    def gamma(x, y, v):
        # G^theta_phiphi = -sin cos, G^phi_thetaphi = G^phi_phitheta = cot,
        # summed in index order; the leading 0.0 fixes the sign of zero.
        # The memo is keyed on the float object: one object has one bit
        # pattern, where == would take -0.0 for 0.0.  A latitude loop hands
        # every call the same theta object; a DScalar theta is not stored.
        nonlocal last_th, last
        th = x[0]
        if th is last_th:
            s, c, cot = last
        else:
            s = sin(th)
            c = cos(th)
            cot = c / s
            if type(th) is float:
                last_th, last = th, (s, c, cot)
        return [0.0 + -s * c * v[1] * y[1],
                (0.0 + cot * v[0] * y[1]) + cot * v[1] * y[0]]

    return ConnectionField(bundle, gamma, ConnectionKind.LINEAR)


def make_nonlinear_demo(base_half: float = 1.0,
                        fibre_half: float = 1.5) -> ConnectionField:
    bundle = TrivializedBundle(
        name="nonlinear-demo",
        base_box=Box((-base_half, -base_half), (base_half, base_half)),
        fibre_box=Box((-fibre_half,), (fibre_half,)),
    )

    def gamma(x, y, v):
        yy = y[0]
        return [(yy + yy ** 3) * v[0] + x[0] * yy * v[1]]

    return ConnectionField(bundle, gamma, ConnectionKind.NONLINEAR)


def _parse_christoffel_key(key: str, m: int):
    """Parse 'G_a_bc' or 'G_a_bc_xk' (1-based indices) into tensor slots."""
    parts = key.split("_")
    ok = (len(parts) in (3, 4) and parts[0] == "G" and len(parts[1]) == 1
          and len(parts[2]) == 2)
    if not ok:
        raise ConfigError(f"malformed Christoffel coefficient '{key}'", field=key)
    try:
        a = int(parts[1]) - 1
        b = int(parts[2][0]) - 1
        c = int(parts[2][1]) - 1
        k = None
        if len(parts) == 4:
            if not parts[3].startswith("x"):
                raise ValueError
            k = int(parts[3][1:]) - 1
    except ValueError:
        raise ConfigError(f"malformed Christoffel coefficient '{key}'", field=key)
    for idx in (a, b, c) + ((k,) if k is not None else ()):
        if not 0 <= idx < m:
            raise ConfigError(f"index out of range in '{key}' for m={m}", field=key)
    return a, b, c, k


def make_custom_christoffel(coeffs: dict[str, float], m: int = 2,
                            base_half: float = 2.0,
                            fibre_half: float = 2.0) -> ConnectionField:
    """Tangent-bundle connection with Christoffels
    G^a_bc(x) = const + sum_k slope_k * x_k, all read from ``coeffs``."""
    const: dict[tuple[int, int, int], float] = {}
    slope: dict[tuple[int, int, int, int], float] = {}
    for key, val in coeffs.items():
        a, b, c, k = _parse_christoffel_key(key, m)
        if k is None:
            const[(a, b, c)] = float(val)
        else:
            slope[(a, b, c, k)] = float(val)

    # Per output a, the terms G^a_bc v^b y^c in summation order as
    # (b, c, constant, [(k, slope), ...]), leaving out those that are 0.
    terms = [[] for _ in range(m)]
    for a, b, c in itertools.product(range(m), repeat=3):
        g0 = const.get((a, b, c), 0.0)
        slopes = [(k, slope[a, b, c, k]) for k in range(m)
                  if slope.get((a, b, c, k), 0.0) != 0.0]
        if g0 != 0.0 or slopes:
            terms[a].append((b, c, g0, slopes))

    bundle = TrivializedBundle(
        name="tm-custom-christoffel",
        base_box=Box((-base_half,) * m, (base_half,) * m),
        fibre_box=Box((-fibre_half,) * m, (fibre_half,) * m),
    )

    def gamma(x, y, v):
        out = []
        for row in terms:
            acc = 0.0
            for b, c, g, slopes in row:
                for k, sl in slopes:
                    g = g + sl * x[k]
                if not (isinstance(g, float) and g == 0.0):
                    acc = acc + g * v[b] * y[c]
            out.append(acc)
        return out

    return ConnectionField(bundle, gamma, ConnectionKind.LINEAR)


@dataclass(frozen=True)
class Capabilities:
    """What a catalog entry declares about its connection beyond what the
    connection shows itself (its kind and dimensions).  The scenario layer
    decides which checks apply from these and from the connection."""

    zero_curvature: bool = False
    symmetric_christoffels: bool = False
    # default (theta0, y0) of the round-sphere latitude loop, whose holonomy
    # angle has a closed form and a boundary-integral oracle
    latitude_holonomy: Optional[tuple] = None
    # fixed geodesic start (x0, v0); without one, checks draw a start
    geodesic_start: Optional[tuple] = None


# Stands for every Christoffel coefficient key, G_a_bc or G_a_bc_xk.
CHRISTOFFELS = "G_a_bc[_xk]..."

# Each entry's ``params`` maps every accepted bundle parameter to the type
# its builder takes; ``_param`` says which values each type accepts.
CATALOG: dict[str, dict] = {
    "flat": {
        "builder": make_flat,
        "params": {"m": int, "f": int, "base_half": float,
                   "fibre_half": float},
        "capabilities": Capabilities(zero_curvature=True),
        "description": "zero coefficient on an (m+f)-dimensional chart",
    },
    "sphere": {
        "builder": make_sphere,
        "params": {"fibre_half": float},
        "capabilities": Capabilities(
            symmetric_christoffels=True,
            latitude_holonomy=(math.pi / 3.0, (1.0, 0.0)),
            geodesic_start=((1.0, 0.3), (0.3, 0.4))),
        "description": "tangent bundle of the unit round sphere, polar chart "
                       f"with collar {SPHERE_COLLAR} excluded at both poles",
    },
    "nonlinear-demo": {
        "builder": make_nonlinear_demo,
        "params": {"base_half": float, "fibre_half": float},
        "capabilities": Capabilities(),
        "description": "scalar-fibre coefficient (y + y^3, x1*y), nonlinear "
                       "in the fibre coordinate",
    },
    "tm-custom-christoffel": {
        "builder": make_custom_christoffel,
        "params": {"m": int, "base_half": float, "fibre_half": float,
                   CHRISTOFFELS: float},
        "capabilities": Capabilities(),
        "description": "tangent-bundle chart with user-supplied constant or "
                       "degree-one Christoffel coefficients",
    },
}


def _param(name: str, kind: type, value):
    """Bundle parameter ``name`` as its schema type ``kind``, else a
    ConfigError: an int is a whole number >= 1, a float a finite real, and
    a half-width (``*_half``) a finite real > 0."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a real, or an int past float
        finite = False
    if kind is int:
        ok = finite and value == int(value) and value >= 1
        what = "a whole number >= 1"
    elif name.endswith("_half"):
        ok, what = finite and value > 0, "a finite real > 0"
    else:
        ok, what = finite, "a finite real"
    if not ok:
        raise ConfigError(f"bundle_params.{name} must be {what}, got "
                          f"{value!r}", field=f"bundle_params.{name}")
    return kind(value)


def build_connection(name: str, params: dict | None = None) -> ConnectionField:
    if name not in CATALOG:
        raise ConfigError(f"unknown bundle '{name}'; catalog has "
                          f"{sorted(CATALOG)}", field="bundle_name")
    schema = CATALOG[name]["params"]
    kwargs, coeffs, unknown = {}, {}, []
    for key, value in (params or {}).items():
        if CHRISTOFFELS in schema and key.startswith("G_"):
            coeffs[key] = _param(key, schema[CHRISTOFFELS], value)
        elif key in schema:
            kwargs[key] = _param(key, schema[key], value)
        else:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown bundle_params {sorted(unknown)} for "
                          f"'{name}'", field="bundle_params")
    if CHRISTOFFELS in schema:
        kwargs["coeffs"] = coeffs
    return CATALOG[name]["builder"](**kwargs)


# -- seeded random test data -------------------------------------------------
# Each draw takes all its numbers from one generator call.  The count and
# order of a draw's doubles fix every later draw on its stream, so every
# report, and they are those of numpy's per-part ``uniform`` calls.

def _cube(n: int, half: float) -> tuple[tuple, tuple]:
    """Bounds of ``n`` draws from (-half, half)."""
    return (-half,) * n, (half,) * n


def _total_bounds(bundle: TrivializedBundle) -> tuple[tuple, tuple]:
    """Bounds of ``random_total_point``: the base box, then the fibre box,
    each shrunk by the default margin."""
    (blo, bhi), (flo, fhi) = (bundle.base_box.bounds(),
                              bundle.fibre_box.bounds())
    return blo + flo, bhi + fhi


def random_base_point(bundle: TrivializedBundle,
                      rng: np.random.Generator) -> Point:
    return bundle.base_point(uniform(rng, *bundle.base_box.bounds()))


def random_total_point(bundle: TrivializedBundle,
                       rng: np.random.Generator) -> Point:
    return bundle.total_point(uniform(rng, *_total_bounds(bundle)))


@functools.cache
def _sin_bounds(n_inputs: int, constant_scale: float,
                wave_scale: float) -> tuple[tuple, tuple]:
    """Bounds of a ``_sin_fn``'s coefficients: the constant, then the
    amplitudes, frequencies and phases."""
    n = n_inputs
    return ((-constant_scale,) + (-wave_scale,) * n + (0.5,) * n + (0.0,) * n,
            (constant_scale,) + (wave_scale,) * n + (1.5,) * n
            + (2.0 * math.pi,) * n)


def _sin_fn(coeffs: list, n_inputs: int):
    """c0 + sum_j amps[j] sin(freqs[j] x_j + phases[j]) from its drawn
    coefficients, in Python floats so that float points give float
    arithmetic and results."""
    c0 = coeffs[0]
    amps = coeffs[1:n_inputs + 1]
    freqs = coeffs[n_inputs + 1:2 * n_inputs + 1]
    phases = coeffs[2 * n_inputs + 1:]

    def fn(coords):
        acc = c0
        for j in range(n_inputs):
            acc = acc + amps[j] * sin(freqs[j] * coords[j] + phases[j])
        return acc

    return fn


def _sin_fns(rng: np.random.Generator, n_inputs: int, scales) -> list:
    """One ``_sin_fn`` per (constant_scale, wave_scale) of ``scales``, all
    drawn by one call."""
    parts = [_sin_bounds(n_inputs, c, w) for c, w in scales]
    return [_sin_fn(coeffs, n_inputs)
            for coeffs in uniform_parts(rng, *parts)]


def _sin_combination(rng: np.random.Generator, n_inputs: int,
                     constant_scale: float, wave_scale: float):
    return _sin_fns(rng, n_inputs, [(constant_scale, wave_scale)])[0]


@functools.cache
def _section_shape(fibre_box: Box) -> tuple[tuple, tuple]:
    """(centre, scales) of ``random_section`` on a fibre box: its centre,
    and per component the constant and wave scales of its combination."""
    lower, upper = fibre_box.lower, fibre_box.upper
    half = [0.5 * (hi - lo) for lo, hi in zip(lower, upper)]
    return (tuple(0.5 * (hi + lo) for lo, hi in zip(lower, upper)),
            tuple((0.45 * h, 0.15 * h) for h in half))


def random_section(bundle: TrivializedBundle,
                   rng: np.random.Generator) -> SectionMap:
    """Random smooth section whose graph stays well inside the fibre box."""
    centre, scales = _section_shape(bundle.fibre_box)
    comps = _sin_fns(rng, bundle.base_dim, scales)

    def fn(x):
        return [centre[i] + comps[i](x) for i in range(len(comps))]

    return SectionMap(bundle, fn)


def random_base_field(bundle: TrivializedBundle,
                      rng: np.random.Generator) -> BaseVectorField:
    comps = _sin_fns(rng, bundle.base_dim, [(0.8, 0.5)] * bundle.base_dim)
    return BaseVectorField(bundle, lambda x: [c(x) for c in comps])


def random_total_scalar_field(bundle: TrivializedBundle,
                              rng: np.random.Generator):
    """Random smooth scalar evaluator on the total space."""
    return _sin_combination(rng, bundle.total_dim, 1.0, 0.6)


def _tangent(e: Point, coords: Sequence[float]) -> TotalTangent:
    """The tangent at ``e`` with total-space components ``coords``."""
    m = e.bundle.base_dim
    return TotalTangent(e, coords[:m], coords[m:])


def random_tangent(conn: ConnectionField, e: Point,
                   rng: np.random.Generator) -> TotalTangent:
    return _tangent(e, uniform(rng, *_cube(conn.bundle.total_dim, 1.0)))


# -- standard curves ----------------------------------------------------------
# Each curve carries a closed-form velocity that repeats the operation order
# of the DScalar pass through ``fn``, so it is bit-equal to
# ``derivative(fn, t)``.  Reversal negates exactly, since IEEE rounding is
# sign-symmetric; only a coordinate constant in t (the latitude's theta)
# comes out -0.0 where the DScalar pass gives 0.0.

def segment_curve(bundle: TrivializedBundle, p: Sequence[float],
                  q: Sequence[float], t0: float = 0.0,
                  t1: float = 1.0):
    """Straight coordinate segment from p to q."""
    from .transport import CurveOnBase
    p = [float(c) for c in p]
    q = [float(c) for c in q]

    def fn(t):
        lam = (t - t0) / (t1 - t0)
        return [pi + lam * (qi - pi) for pi, qi in zip(p, q)]

    def velocity(t):
        rate = 1.0 / float(t1 - t0)
        return [rate * (qi - pi) for pi, qi in zip(p, q)]

    return CurveOnBase(bundle, fn, t0, t1, velocity)


def reversed_curve(curve):
    """The same image traversed backwards."""
    from .transport import CurveOnBase
    t0, t1 = curve.t0, curve.t1
    inner = curve.velocity_fn
    velocity = None if inner is None else (
        lambda t: [-c for c in inner(t0 + t1 - t)])
    return CurveOnBase(curve.bundle,
                       lambda t: curve.fn(t0 + t1 - t), t0, t1, velocity)


def latitude_loop(bundle: TrivializedBundle, theta0: float,
                  t0: float = 0.0, t1: float = 2.0 * math.pi):
    """One full traversal of the latitude circle theta = theta0 on the
    sphere chart, at unit coordinate speed in phi; closed modulo the
    declared polar-angle period."""
    from .transport import CurveOnBase
    theta0 = float(theta0)

    def fn(t):
        lam = (t - t0) / (t1 - t0)
        return [theta0, -math.pi + 2.0 * math.pi * lam]

    def velocity(t):
        return [0.0, (1.0 / float(t1 - t0)) * (2.0 * math.pi)]

    return CurveOnBase(bundle, fn, t0, t1, velocity)


def circle_loop(bundle: TrivializedBundle, center: Sequence[float],
                radius: float, t0: float = 0.0, t1: float = 1.0):
    """Closed circle around ``center`` (one entry per base coordinate) in
    the plane of the first two base coordinates; the others stay at the
    centre's."""
    from .transport import CurveOnBase
    if bundle.base_dim < 2 or len(center) != bundle.base_dim:
        raise DomainError("circle_loop needs a base of dimension >= 2 and a "
                          "centre with one entry per base coordinate")
    cx, cy, *rest = [float(c) for c in center]
    still = [0.0] * len(rest)
    r = float(radius)

    def fn(t):
        ang = 2.0 * math.pi * (t - t0) / (t1 - t0)
        return [cx + r * cos(ang), cy + r * sin(ang)] + rest

    def velocity(t):
        ang = 2.0 * math.pi * (t - t0) / (t1 - t0)
        rate = 2.0 * math.pi / float(t1 - t0)
        return [-math.sin(ang) * rate * r, math.cos(ang) * rate * r] + still

    return CurveOnBase(bundle, fn, t0, t1, velocity)


# -- sphere-specific helpers (round metric) ----------------------------------

def sphere_metric(x: Sequence[float]) -> np.ndarray:
    """Round metric in polar coordinates: diag(1, sin^2 theta)."""
    th = float_value(x[0])
    return np.diag([1.0, math.sin(th) ** 2])


def sphere_angle_between(x: Sequence[float], a: Sequence[float],
                         b: Sequence[float]) -> float:
    """Unsigned angle between tangent vectors w.r.t. the round metric.

    atan2 of the metric's cross and dot products keeps full relative
    precision at every angle, where acos of the cosine loses half the digits
    near 0 and pi (the default latitude's holonomy is pi)."""
    g = sphere_metric(x)
    cross = math.sqrt(g[0, 0] * g[1, 1]) * (a[0] * b[1] - a[1] * b[0])
    return abs(math.atan2(cross, dot(mat_vec(g, a), b)))


# Simpson nodes of the latitude's boundary integral; Simpson's rule needs
# an odd count.
GB_NODES = 801


def sphere_latitude_gb_angle(conn: ConnectionField, theta0: float) -> float:
    """Holonomy angle of a latitude loop via the boundary form of the
    area theorem: 2*pi minus the total geodesic-curvature turning.

    Cap-area quadrature of the curvature itself would need the excluded
    polar collar, so the equivalent boundary line integral is used; the
    geodesic curvature comes from ``covariant_derivative_along_curve`` and
    the round metric, a code path independent of the transport integrator.
    """
    from .transport import covariant_derivative_along_curve
    loop = latitude_loop(conn.bundle, theta0)

    def velocity(t):
        from .calculus import derivative
        return derivative(loop.fn, t)

    def integrand(t: float) -> float:
        x = loop.point_at(t)
        tvec = loop.velocity(t)
        nab = covariant_derivative_along_curve(conn, loop, velocity, t)
        g = sphere_metric(x)
        speed = math.sqrt(dot(mat_vec(g, tvec), tvec))
        # inward unit normal for a latitude traversed with increasing phi:
        # minus the theta direction (unit length in the round metric)
        n_hat = [-1.0, 0.0]
        return float(dot(mat_vec(g, nab), n_hat)) / speed

    ts = np.linspace(loop.t0, loop.t1, GB_NODES)
    vals = np.array([integrand(t) for t in ts])
    h = (loop.t1 - loop.t0) / (GB_NODES - 1)
    simpson = (h / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                           + 2.0 * vals[2:-1:2].sum())
    return 2.0 * math.pi - simpson
