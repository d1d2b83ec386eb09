"""Named verification scenarios over the catalog bundles.

Every check produces one row {check_name, samples, max_residual, tolerance,
pass}; chart-exit and domain errors become failed rows with reason strings
instead of crashes.  All sampling is seeded and draw order is fixed, so a
given config yields a byte-identical report.

The checks form one ordered table, ``CHECKS``, the only place a row is
declared.  An entry names its row, which is also the name of its random
stream, states its sample count and its default tolerance once, says when
it applies to a connection, and computes (residual, note).  A tolerance is
a float, or a function of the subject for the rows whose bound is derived
from the run's step and inputs; a config's ``tolerances`` entry overrides
either.  ``verify-all`` runs every applicable entry in table order; every
other scenario starts with the ``gamma_linearity`` row, and the
``transport``, ``geodesic`` and ``holonomy`` scenarios then run entries by
name on the inputs their parameters fix.  Applicability reads the connection
(linear, tangent configuration, base dimension) and the catalog entry's
declared :class:`~fibrum.catalog.Capabilities`.
"""

from __future__ import annotations

import functools
import math
import sys
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .bundle import (BaseVectorField, TotalVectorField, _spans,
                     base_lie_bracket, lie_bracket, uniform_parts)
from .calculus import (_max_abs, dot, float_value, mat_vec, vec_add,
                       vec_scale, vec_sub)
from .catalog import (CATALOG, GB_NODES, Capabilities, _cube, _tangent,
                      _total_bounds, build_connection, circle_loop,
                      latitude_loop, random_base_field, random_base_point,
                      random_section, random_suvx, random_tangent,
                      random_total_point, random_total_scalar_field,
                      reversed_curve, segment_curve, sphere_angle_between,
                      sphere_latitude_gb_angle, sphere_metric)
from .connection import (ConnectionKind, covariant_derivative,
                         horizontal_lift, horizontal_lift_field,
                         horizontal_projector, lift_rank_check,
                         natural_derivative, section_jet,
                         vertical_projector)
from .curvature import (_RouteJets, _curvature_pairs, composition_commutator,
                        curv_via_covariant, curv_via_lifts, curvature_routes,
                        second_covariant_derivative,
                        tensoriality_check_curvature, torsion, leibniz_check)
from .errors import ConfigError, FibrumError, TooFewSamplesError
from .transport import (IntegratorConfig, flow, geodesic,
                        holonomy_loop, lie_derivative_covariant,
                        parallel_transport_path, parallel_transport_vector,
                        step_count)

if TYPE_CHECKING:  # config checks tolerance names against CHECKS
    from .config import ScenarioConfig

SIGN_CONVENTION = (
    "curvature reported as (H_[u,v] - [H_u, H_v]) composed with the section; "
    "for Christoffel coefficients this equals the classical contraction "
    "R^a_bcd y^b u^c v^d with "
    "R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb")

EXPANSION_NOTE = ("exact bilinear expansion of [T_u, T_v] = T_[u,v]; "
                  "this is what the bracketing machinery must satisfy")

ROUTES_NOTE = (
    "bracketing the foliation-extended covariant-derivative fields does not "
    "reproduce the lift-route curvature: the exact defect is the "
    "cross-bracket sum [H_v, nabla_u] + [nabla_v, H_u] on the graph (see the "
    "bracket_expansion_identity row, README, and demos/02)")

# Default fibre element of the holonomy scenario's circle loop, as a
# fraction of the fibre box width above its centre.  Around the default
# loop, nonlinear-demo's cubic coefficient carries y0 >= 0.4 out of its
# fibre box; 0.05 gives y0 = 0.15, whose path peaks at 0.33.
HOLONOMY_Y0_OFFSET = 0.05


@dataclass(frozen=True)
class CheckRow:
    check_name: str
    samples: int
    max_residual: float
    tolerance: Optional[float]
    passed: bool
    note: str = ""

    def to_tree(self) -> dict:
        return {
            "check_name": self.check_name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    scenario: dict
    environment: dict
    sign_convention: str
    checks: list[CheckRow] = field(default_factory=list)
    results: Optional[dict] = None
    table: Optional[list] = None

    @property
    def overall_pass(self) -> bool:
        return all(row.passed for row in self.checks)

    def to_tree(self) -> dict:
        tree = {
            "scenario": self.scenario,
            "environment": self.environment,
            "sign_convention": self.sign_convention,
            "checks": [row.to_tree() for row in self.checks],
        }
        if self.results is not None:
            tree["results"] = self.results
        if self.table is not None:
            tree["table"] = self.table
        tree["overall_pass"] = self.overall_pass
        return tree


@dataclass
class Subject:
    """The configured connection, its catalog capabilities, and the inputs
    its scenario fixes.

    ``transport`` (curve, y0) and ``geodesic`` (x0, v0, T), when set,
    replace the draws of the checks that read them.  ``record`` holds what
    the running check computed, for the scenario's ``results``.
    """

    cfg: ScenarioConfig
    transport: Optional[tuple] = None
    geodesic: Optional[tuple] = None
    record: dict = field(default_factory=dict)

    def __post_init__(self):
        self.conn = build_connection(self.cfg.bundle_name,
                                     self.cfg.bundle_params)
        self.caps: Capabilities = CATALOG[self.cfg.bundle_name]["capabilities"]
        self.bundle = self.conn.bundle
        self.m, self.f = self.bundle.base_dim, self.bundle.fibre_dim
        self.linear = self.conn.kind is ConnectionKind.LINEAR
        self.tm = self.f == self.m
        self.icfg = IntegratorConfig(step=self.cfg.step,
                                     max_steps=self.cfg.max_steps)
        self._check_params()

    @functools.cached_property
    def latitude_path(self) -> list:
        """The (t, y) path of the latitude loop's y0 at the configured step,
        integrated on first use and read by every row that needs it.  An
        error is not stored: each row that asks again meets its own."""
        theta0, y0 = _latitude(self)
        _, path = parallel_transport_path(
            self.conn, latitude_loop(self.bundle, theta0), y0, self.icfg)
        return path

    def _check_params(self) -> None:
        """What the config schema cannot know without the bundle: vector
        lengths, a latitude inside the polar-angle range of the chart, a
        base with a plane for the holonomy scenario's circle loop, and a
        radius only where that circle loop runs."""
        params = self.cfg.scenario_params
        if self.cfg.scenario == "holonomy" and self.m < 2:
            raise ConfigError(
                f"scenario 'holonomy' needs a base of dimension >= 2 for its "
                f"circle loop; '{self.bundle.name}' has {self.m}",
                field="scenario")
        for key, dim in (("x0", self.m), ("v0", self.m), ("y0", self.f)):
            if key in params and len(params[key]) != dim:
                raise ConfigError(
                    f"scenario_params.{key} must have {dim} components on "
                    f"'{self.bundle.name}', got {len(params[key])}",
                    field=f"scenario_params.{key}")
        if "latitude" in params:
            if self.caps.latitude_holonomy is None:
                raise ConfigError(
                    f"scenario_params.latitude needs a bundle with a latitude "
                    f"loop; '{self.bundle.name}' has none",
                    field="scenario_params.latitude")
            box = self.bundle.base_box
            lo, hi = box.lower[0], box.upper[0]
            if not lo < params["latitude"] < hi:
                raise ConfigError(
                    f"scenario_params.latitude must lie in ({lo:.6g}, "
                    f"{hi:.6g}), got {params['latitude']!r}",
                    field="scenario_params.latitude")
        if "radius" in params and self.caps.latitude_holonomy is not None:
            raise ConfigError(
                f"scenario_params.radius sets the circle loop of a bundle "
                f"without a latitude loop; '{self.bundle.name}' runs its "
                f"latitude loop", field="scenario_params.radius")


Tolerance = Union[float, Callable[[Subject], float]]


@dataclass(frozen=True)
class Check:
    """One entry of the check table; ``run(subject, rng, samples)``
    returns (residual, note).  ``tolerance`` is the row's default bound, or
    a function that derives it from the subject's step and inputs.
    Order-style checks encode "residual = required order - observed
    order", hence tolerance 0."""

    name: str
    samples: int
    tolerance: Tolerance
    applies: Callable[[Subject], bool]
    run: Callable[[Subject, np.random.Generator, int], tuple]


# The check table; insertion order is the row order of verify-all.
CHECKS: dict[str, Check] = {}


def _always(sub: Subject) -> bool:
    return True


def _check(name: str, samples: int, tolerance: Tolerance,
           applies: Callable[[Subject], bool] = _always):
    def register(run):
        CHECKS[name] = Check(name, samples, tolerance, applies, run)
        return run
    return register


def _sampled(name: str, samples: int, tolerance: Tolerance,
             applies: Callable[[Subject], bool] = _always, note: str = ""):
    """A check whose residual is the largest of ``residual(sub, rng)`` over
    its samples, each drawing its own data from the check's stream."""
    def register(residual):
        def run(sub, rng, n):
            worst = 0.0
            for _ in range(n):
                worst = max(worst, residual(sub, rng))
            return worst, note
        return _check(name, samples, tolerance, applies)(run)
    return register


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _tolerance(sub: Subject, check: Check) -> float:
    """The config's ``tolerances`` entry for ``check``, else the check's own
    tolerance, derived from the subject where it is a function."""
    tol = sub.cfg.tolerances.get(check.name, check.tolerance)
    return float(tol(sub) if callable(tol) else tol)


def _row(check: Check, samples: int, residual: float,
         tol: Optional[float], note: str = "") -> CheckRow:
    """The row of ``check`` held to ``tol``; with no tolerance (None) it
    fails."""
    ok = tol is not None and math.isfinite(residual) and residual <= tol
    return CheckRow(check.name, samples, float(residual), tol, ok, note)


def _run(sub: Subject, check: Check,
         samples: Optional[int] = None) -> CheckRow:
    """The row of ``check`` over its own random stream.  A scenario passes
    ``samples=1``: it runs the check once, on the input it fixes.  An error
    in deriving the tolerance or in the run fails the row with its note;
    a tolerance that could not be derived is None."""
    n = check.samples if samples is None else samples
    rng = _rng_for(sub.cfg.seed, check.name)
    sub.record = {}
    tol = None
    try:
        tol = _tolerance(sub, check)
        residual, note = check.run(sub, rng, n)
    except (FibrumError, ArithmeticError) as exc:
        residual, note = math.inf, f"{type(exc).__name__}: {exc}"
    return _row(check, n, residual, tol, note)


def _vec(values) -> list:
    return [float(c) for c in values]


# --------------------------------------------------------------------------
# connection-module checks
# --------------------------------------------------------------------------

@_sampled("projector_algebra", 200, 1e-12)
def _projector_algebra(sub, rng):
    e = random_total_point(sub.bundle, rng)
    pv = vertical_projector(sub.conn, e)
    ph = horizontal_projector(sub.conn, e)
    worst = max(np.max(np.abs(pv @ pv - pv)),
                np.max(np.abs(ph @ ph - ph)),
                np.max(np.abs(pv @ ph)),
                np.max(np.abs(ph @ pv)),
                np.max(np.abs(pv + ph - np.eye(sub.m + sub.f))))
    ranks_ok = (np.linalg.matrix_rank(pv, tol=1e-8) == sub.f
                and np.linalg.matrix_rank(ph, tol=1e-8) == sub.m)
    return float(worst) if ranks_ok else max(float(worst), 1.0)


@_sampled("gamma_linearity", 100, 1e-12)
def _gamma_linearity(sub, rng):
    conn = sub.conn
    ec, (a, b), u, v = uniform_parts(
        rng, _total_bounds(sub.bundle), _cube(2, 2.0), _cube(sub.m, 1.0),
        _cube(sub.m, 1.0))
    x, y = sub.bundle.split(ec)
    lhs = conn.gamma(x, y, _combination(a, u, b, v))
    rhs = _combination(a, conn.gamma(x, y, u), b, conn.gamma(x, y, v))
    return _max_abs(vec_sub(lhs, rhs))


def _combination(a: float, p, b: float, q) -> list:
    """a p + b q, per component."""
    return vec_add(vec_scale(a, p), vec_scale(b, q))


@_sampled("gamma_fibre_linearity", 100, 1e-10, lambda sub: sub.linear)
def _gamma_fibre_linearity(sub, rng):
    conn, bundle = sub.conn, sub.bundle
    x, y1, y2, (a, b), v = uniform_parts(
        rng, bundle.base_box.bounds(), bundle.fibre_box.bounds(0.3),
        bundle.fibre_box.bounds(0.3), _cube(2, 0.7), _cube(sub.m, 1.0))
    lhs = conn.gamma(x, _combination(a, y1, b, y2), v)
    rhs = _combination(a, conn.gamma(x, y1, v), b, conn.gamma(x, y2, v))
    return _max_abs(vec_sub(lhs, rhs))


@_sampled("lift_right_inverse", 100, 1e-12)
def _lift_right_inverse(sub, rng):
    ec, v = uniform_parts(rng, _total_bounds(sub.bundle), _cube(sub.m, 1.0))
    e = sub.bundle.total_point(ec)
    tangent = horizontal_lift(sub.conn, e, v)
    pv = vertical_projector(sub.conn, e).tolist()
    return max(_max_abs(vec_sub(tangent.base_part, v)),
               _max_abs(mat_vec(pv, tangent.as_vector())))


@_sampled("split_law", 100, 1e-12)
def _split_law(sub, rng):
    s = random_section(sub.bundle, rng)
    v = random_base_field(sub.bundle, rng)
    x = random_base_point(sub.bundle, rng)
    jet = section_jet(s, x)
    nat = natural_derivative(s, v, x, jet)
    cov = covariant_derivative(sub.conn, s, v, x, jet)
    lift = horizontal_lift(sub.conn, s.graph(x), v(x))
    return max(_max_abs(vec_sub(nat.base_part, lift.base_part)),
               _max_abs(vec_sub(nat.fibre_part,
                                vec_add(cov, lift.fibre_part))))


@_sampled("lift_rank", 50, 1e-9)
def _lift_rank(sub, rng):
    s = random_section(sub.bundle, rng)
    x = random_base_point(sub.bundle, rng)
    return float(abs(lift_rank_check(sub.conn, s, x) - sub.m))


@_sampled("covariant_tensoriality_in_v", 100, 1e-10)
def _covariant_tensoriality_in_v(sub, rng):
    bundle, f = sub.bundle, sub.f
    s = random_section(bundle, rng)
    v = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    scale_fn = random_total_scalar_field(bundle, rng)

    def scaled(coords):
        c = scale_fn(list(coords) + [0.0] * f)
        return [c * comp for comp in v.fn(coords)]

    jet = section_jet(s, x)
    lhs = covariant_derivative(sub.conn, s, BaseVectorField(bundle, scaled),
                               x, jet)
    fx = float_value(scale_fn(list(x.coords) + [0.0] * f))
    rhs = vec_scale(fx, covariant_derivative(sub.conn, s, v, x, jet))
    return _max_abs(vec_sub(lhs, rhs))


# --------------------------------------------------------------------------
# curvature-module checks
# --------------------------------------------------------------------------

@_sampled("bracket_projectability", 100, 1e-9)
def _bracket_projectability(sub, rng):
    u = random_base_field(sub.bundle, rng)
    v = random_base_field(sub.bundle, rng)
    e = random_total_point(sub.bundle, rng)
    br = lie_bracket(horizontal_lift_field(sub.conn, u),
                     horizontal_lift_field(sub.conn, v))
    uv = base_lie_bracket(u, v)
    return _max_abs(vec_sub(br(e)[:sub.m], uv(list(e.base_coords))))


@_sampled("lift_route_internal_identity", 100, 1e-9)
def _lift_route_internal_identity(sub, rng):
    jets = _RouteJets(sub.conn, *random_suvx(sub.bundle, rng),
                      covariant=False)
    return _max_abs(vec_sub(jets.lifts(), jets.vertical_projection()))


@_sampled("curvature_verticality", 100, 1e-10)
def _curvature_verticality(sub, rng):
    conn = sub.conn
    s, u, v, x = random_suvx(sub.bundle, rng)
    e = s.graph(x)
    hu = horizontal_lift_field(conn, u)
    hv = horizontal_lift_field(conn, v)
    hw = horizontal_lift_field(conn, base_lie_bracket(u, v))
    return _max_abs(vec_sub(hw(e)[:sub.m], lie_bracket(hu, hv)(e)[:sub.m]))


@_sampled("curvature_antisymmetry", 100, 1e-10)
def _curvature_antisymmetry(sub, rng):
    conn, n = sub.conn, sub.m + sub.f
    ec, xc, yc, zc, (a, b) = uniform_parts(
        rng, _total_bounds(sub.bundle), _cube(n, 1.0), _cube(n, 1.0),
        _cube(n, 1.0), _cube(2, 2.0))
    e = sub.bundle.total_point(ec)
    X, Y, Z = _tangent(e, xc), _tangent(e, yc), _tangent(e, zc)
    mix = _combination(a, X.base_part, b, Z.base_part)
    # R(X, Y), R(Y, X), R(a X + b Z, Y) and R(Z, Y) from one pass
    rxy, ryx, rmix, rxz = _curvature_pairs(
        conn, e, [X.base_part, Y.base_part, Z.base_part, mix],
        [(0, 1), (1, 0), (3, 1), (2, 1)])
    # rmix - a rxy - b rxz, subtracted left to right
    return max(_max_abs(vec_add(rxy, ryx)),
               _max_abs(vec_sub(vec_sub(rmix, vec_scale(a, rxy)),
                                vec_scale(b, rxz))))


@_check("curvature_tensoriality", 100, 1e-9)
def _curvature_tensoriality(sub, rng, n):
    m = sub.m
    worst = 0.0
    fields = []
    for _ in range(3):
        fields.append(random_total_scalar_field(sub.bundle, rng))

    def poly_field(coords):
        return coords[0] + coords[m] * coords[m]

    fields.append(poly_field)
    for scalar in fields:
        for _ in range(n // len(fields)):
            e = random_total_point(sub.bundle, rng)
            X = random_tangent(sub.conn, e, rng)
            Y = random_tangent(sub.conn, e, rng)
            worst = max(worst, tensoriality_check_curvature(
                sub.conn, e, X, Y, scalar))
    return worst, "includes x1 + y1^2 alongside 3 random smooth fields"


@_sampled("curvature_routes_equality", 100, 1e-8, note=ROUTES_NOTE)
def _curvature_routes_equality(sub, rng):
    jets = _RouteJets(sub.conn, *random_suvx(sub.bundle, rng))
    return _max_abs(vec_sub(jets.covariant(), jets.lifts()))


def _expansion_residual(m: int, lifts, cov, cross) -> float:
    """Residual of via_covariant - via_lifts = cross-bracket sum, whose
    base part must vanish, at one draw of ``curvature_routes``."""
    return max(_max_abs(vec_sub(vec_sub(cov, lifts), cross[m:])),
               _max_abs(cross[:m]))


@_sampled("bracket_expansion_identity", 100, 1e-8, note=EXPANSION_NOTE)
def _bracket_expansion_identity(sub, rng):
    return _expansion_residual(sub.m, *curvature_routes(
        sub.conn, *random_suvx(sub.bundle, rng)))


@_sampled("flatness_via_lifts", 100, 1e-12,
          lambda sub: sub.caps.zero_curvature)
def _flatness_via_lifts(sub, rng):
    s, u, v, x = random_suvx(sub.bundle, rng)
    return _max_abs(curv_via_lifts(sub.conn, s, u, v, x).fibre_part)


@_sampled("flatness_via_covariant", 100, 1e-12,
          lambda sub: sub.caps.zero_curvature, note=ROUTES_NOTE)
def _flatness_via_covariant(sub, rng):
    s, u, v, x = random_suvx(sub.bundle, rng)
    return _max_abs(curv_via_covariant(sub.conn, s, u, v, x).fibre_part)


@_sampled("leibniz_rule", 50, 1e-10, lambda sub: sub.linear)
def _leibniz_rule(sub, rng):
    s = random_section(sub.bundle, rng)
    v = random_base_field(sub.bundle, rng)
    x = random_base_point(sub.bundle, rng)
    scalar = random_total_scalar_field(sub.bundle, rng)

    def f_on_base(coords):
        return scalar(list(coords) + [0.0] * sub.f)

    return leibniz_check(sub.conn, s, f_on_base, v, x)


@_sampled("composition_commutator_curvature", 50, 1e-8,
          lambda sub: sub.linear,
          note="operator compositions, not field brackets")
def _composition_commutator_curvature(sub, rng):
    s, u, v, x = random_suvx(sub.bundle, rng)
    comp = composition_commutator(sub.conn, s, u, v, x)
    lifts = curv_via_lifts(sub.conn, s, u, v, x).fibre_part
    return _max_abs(vec_sub(comp, lifts))


@_sampled("second_derivative_torsion_form", 50, 1e-8,
          lambda sub: sub.linear and sub.tm)
def _second_derivative_torsion_form(sub, rng):
    conn = sub.conn
    s, u, v, x = random_suvx(sub.bundle, rng)
    d2uv = second_covariant_derivative(conn, s, u, v, x)
    d2vu = second_covariant_derivative(conn, s, v, u, x)
    tors = torsion(conn, u, v, x)
    w = BaseVectorField(sub.bundle, lambda c: list(tors))
    nt = covariant_derivative(conn, s, w, x)
    lifts = curv_via_lifts(conn, s, u, v, x).fibre_part
    return _max_abs(vec_sub(vec_add(vec_sub(d2uv, d2vu), nt), lifts))


@_sampled("torsion_symmetric", 50, 1e-12,
          lambda sub: sub.caps.symmetric_christoffels,
          note="round-metric coefficients are symmetric")
def _torsion_symmetric(sub, rng):
    u = random_base_field(sub.bundle, rng)
    v = random_base_field(sub.bundle, rng)
    x = random_base_point(sub.bundle, rng)
    return _max_abs(torsion(sub.conn, u, v, x))


# --------------------------------------------------------------------------
# transport-module checks
# --------------------------------------------------------------------------

def _five_point_residual(ts, ys, coeff) -> float:
    """Max |y'(t_k) + coeff(k)| over interior path nodes, with the time
    derivative from a fourth-order stencil on the samples.

    A path of fewer than five nodes has no interior node to measure, so it
    raises instead of passing on nothing.
    """
    n = len(ts)
    if n < 5:
        raise TooFewSamplesError(
            f"path has {n} nodes; the five-point stencil needs at least 5")
    h = ts[1] - ts[0]
    worst = 0.0
    for k in range(2, n - 2, max(1, n // 40)):
        ydot = [(-a + 8.0 * b - 8.0 * c + d) / (12.0 * h)
                for a, b, c, d in zip(ys[k + 2], ys[k + 1], ys[k - 1],
                                      ys[k - 2])]
        worst = max(worst, _max_abs(vec_add(ydot, coeff(k))))
    return worst


def _transport_data(sub: Subject, rng: np.random.Generator) -> tuple:
    """(curve, y0): the scenario's fixed input, else a safe in-box segment
    drawn from ``rng``, with the scenario's ``y0`` parameter or a start
    element drawn with it."""
    if sub.transport is not None:
        return sub.transport
    bundle = sub.bundle
    p, q, w = uniform_parts(rng, bundle.base_box.bounds(0.25),
                            bundle.base_box.bounds(0.25),
                            _cube(bundle.fibre_dim, 1.0))
    y0 = _vector_param(sub, "y0", ()) or _fibre_offset(bundle, 0.2, w)
    return segment_curve(bundle, p, q), y0


def _fibre_offset(bundle, scale: float, w) -> list:
    """The fibre box's centre plus ``scale`` times its width times ``w``,
    per component; the widths pass ``bundle._spans``' guards, so one too
    large for a float is an OverflowError, not an infinite start."""
    lo, hi = bundle.fibre_box.lower, bundle.fibre_box.upper
    return [0.5 * (l + h) + scale * width * c
            for l, h, width, c in zip(lo, hi, _spans(lo, hi), w)]


def _geodesic_start(sub: Subject, rng: np.random.Generator) -> tuple:
    """(x0, v0): the catalog's fixed geodesic start, else drawn from
    ``rng``."""
    if sub.caps.geodesic_start is not None:
        return tuple(list(c) for c in sub.caps.geodesic_start)
    x0, w = uniform_parts(rng, sub.bundle.base_box.bounds(0.3),
                          _cube(sub.m, 1.0))
    return x0, [0.3 * c for c in w]


def _vector_param(sub: Subject, key: str, default) -> list:
    return [float(c) for c in sub.cfg.scenario_params.get(key, default)]


def _latitude(sub: Subject) -> tuple:
    """(theta0, y0) of the latitude loop: the catalog's default, overridden
    by the scenario's ``latitude`` and ``y0`` parameters."""
    theta0, y0 = sub.caps.latitude_holonomy
    return (float(sub.cfg.scenario_params.get("latitude", theta0)),
            _vector_param(sub, "y0", y0))


def _latitude_angle(sub: Subject, y1) -> float:
    """The angle, in the round metric, that y0 turned by on its way once
    around the latitude loop to ``y1``."""
    theta0, y0 = _latitude(sub)
    return sphere_angle_between([theta0, 0.0], y0, y1)


@_check("rk4_order", 3, 0.0)
def _rk4_order(sub, rng, n):
    # linear-field oracle: a rotation field keeps the trajectory inside
    # the box and has a clean nonzero fifth-order error term; the three
    # samples are the step sizes lam/10, lam/20, lam/40
    bundle = sub.bundle
    d = bundle.total_dim
    # the (d, d) draw fills ``raw`` in row-major order
    raw, x0, y0 = uniform_parts(rng, _cube(d * d, 1.0),
                                bundle.base_box.bounds(0.45),
                                bundle.fibre_box.bounds(0.45))
    mat = [[raw[i * d + j] - raw[j * d + i] for j in range(d)]
           for i in range(d)]
    lo = bundle.base_box.lower + bundle.fibre_box.lower
    hi = bundle.base_box.upper + bundle.fibre_box.upper
    centre = [0.5 * (l + h) for l, h in zip(lo, hi)]

    def linear_fn(coords):
        rel = [c - ci for c, ci in zip(coords, centre)]
        return [sum(mat[i][j] * rel[j] for j in range(d)) for i in range(d)]

    field = TotalVectorField(bundle, linear_fn)
    e0 = bundle.graph_point(x0, y0)
    lam = 0.5
    vals = []
    for divisor in (10, 20, 40):
        c = IntegratorConfig(step=lam / divisor, max_steps=sub.cfg.max_steps)
        vals.append(flow(field, e0, lam, c).coords)
    e1 = _max_abs(vec_sub(vals[0], vals[1]))
    e2 = _max_abs(vec_sub(vals[1], vals[2]))
    if e2 < 1e-15:
        return -1.0, f"step-halving errors below round-off ({e1:.3g})"
    order = math.log2(e1 / e2)
    return 3.9 - order, f"observed order {order:.3f}"


@_sampled("flow_group_law", 5, 1e-9)
def _flow_group_law(sub, rng):
    icfg = sub.icfg
    v = random_base_field(sub.bundle, rng)
    hv = horizontal_lift_field(sub.conn, v)
    e0 = random_total_point(sub.bundle, rng)
    lam, mu = 0.08, 0.05
    once = flow(hv, e0, lam + mu, icfg)
    twice = flow(hv, flow(hv, e0, mu, icfg), lam, icfg)
    return _max_abs(vec_sub(once.coords, twice.coords))


@_sampled("transport_roundtrip", 3, 1e-8)
def _transport_roundtrip(sub, rng):
    curve, y0 = _transport_data(sub, rng)
    if sub.transport is not None and _latitude_oracle(sub):
        # on a latitude bundle the fixed input is the transport scenario's
        # latitude loop and y0: the forward leg is the shared path
        y1 = sub.latitude_path[-1][1]
    else:
        y1 = parallel_transport_vector(sub.conn, curve, y0, sub.icfg)
    y2 = parallel_transport_vector(sub.conn, reversed_curve(curve), y1,
                                   sub.icfg)
    residual = _max_abs(vec_sub(y2, y0))
    sub.record = {"transported": y1, "roundtrip_residual": residual}
    return residual


@_sampled("transport_covariantly_constant", 3, 1e-8)
def _transport_covariantly_constant(sub, rng):
    """Stencil residual of y' + gamma(c(t), y) c'(t) along the path."""
    curve, y0 = _transport_data(sub, rng)
    _, path = parallel_transport_path(sub.conn, curve, y0, sub.icfg)
    ts = [t for t, _ in path]
    ys = [y for _, y in path]
    return _five_point_residual(ts, ys, lambda k: sub.conn.gamma(
        list(curve.fn(ts[k])), ys[k], curve.velocity(ts[k])))


@_check("flow_algebra_bridge_order", 3, 0.0)
def _flow_algebra_bridge_order(sub, rng, n):
    best = None
    for _ in range(n):
        s, v, x = (random_section(sub.bundle, rng),
                   random_base_field(sub.bundle, rng),
                   random_base_point(sub.bundle, rng))
        alg = covariant_derivative(sub.conn, s, v, x)
        errs = []
        for lam in (1e-2, 1e-3, 1e-4):
            c = IntegratorConfig(step=lam, max_steps=sub.cfg.max_steps)
            flows = lie_derivative_covariant(sub.conn, s, v, x, c)
            errs.append(_max_abs(vec_sub(flows, alg)))
        if best is None or errs[0] > best[0]:
            best = errs
    errs = best
    if errs[1] < 1e-14 or errs[2] < 1e-14:
        return -1.0, "errors at round-off floor"
    orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    return 1.9 - min(orders), (
        f"errors {errs[0]:.3g}/{errs[1]:.3g}/{errs[2]:.3g}, "
        f"orders {orders[0]:.3f}, {orders[1]:.3f}")


@_check("geodesic_covariant_residual", 1, 1e-8, lambda sub: sub.tm)
def _geodesic_covariant_residual(sub, rng, n):
    """Stencil residual of v' + gamma(x, v) v along the geodesic."""
    x0, v0, T = sub.geodesic or (*_geodesic_start(sub, rng), 1.0)
    samples = geodesic(sub.conn, x0, v0, T, sub.icfg)
    ts, xs, vs = zip(*samples)
    sub.record = {"x_final": xs[-1], "v_final": vs[-1]}
    return _five_point_residual(ts, vs, lambda k: sub.conn.gamma(
        xs[k], vs[k], vs[k])), ""


@_check("holonomy_flat_loop", 1, 1e-10,
        lambda sub: sub.caps.zero_curvature and sub.m >= 2)
def _holonomy_flat_loop(sub, rng, n):
    loop, y0 = sub.transport or (
        circle_loop(sub.bundle, [0.0] * sub.m, 0.8), [0.5] * sub.f)
    y1, disp = holonomy_loop(sub.conn, loop, y0, sub.icfg)
    sub.record = {"transported": y1}
    return disp, ""


def _latitude_oracle(sub: Subject) -> bool:
    return sub.caps.latitude_holonomy is not None


def _latitude_steps(sub: Subject) -> tuple:
    """(N, h omega): the RK4 steps around the latitude loop, and the angle
    one of them turns through at rate omega = |cos(theta0)|."""
    n = step_count(2.0 * math.pi, sub.cfg.step)
    return n, 2.0 * math.pi / n * abs(math.cos(_latitude(sub)[0]))


def _latitude_bound(sub: Subject) -> float:
    """Default tolerance of the two latitude angle rows.  Along the loop
    transport is a rotation at rate omega = cos(theta0), and RK4 misses
    (h omega)^5 / 120 of its phase per step; the bound is twice that over
    the N steps taken, plus one eps of round-off per step and per node of
    the boundary integral (README, "Parallel transport")."""
    n, hw = _latitude_steps(sub)
    return (2.0 * n * hw ** 5 / 120.0
            + (n + GB_NODES) * sys.float_info.epsilon)


def _metric_bound(sub: Subject) -> float:
    """Default tolerance of ``metric_compatibility``.  One RK4 step of the
    rotation scales the squared norm by 1 - (h omega)^6/72 + (h omega)^8/576,
    so over N steps |y0|_g^2 loses at most 2 N (h omega)^6 / 144 of itself:
    RK4's modulus error, doubled by the square.  Round-off adds one eps per
    step to the modulus, doubled too (README, "Parallel transport")."""
    theta0, y0 = _latitude(sub)
    n, hw = _latitude_steps(sub)
    norm0 = float(dot(mat_vec(sphere_metric([theta0, 0.0]), y0), y0))
    return norm0 * 2.0 * (n * hw ** 6 / 144.0
                          + (n + 1) * sys.float_info.epsilon)


@_check("holonomy_latitude_angle", 1, _latitude_bound, _latitude_oracle)
def _holonomy_latitude_angle(sub, rng, n):
    theta0, _ = _latitude(sub)
    expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
    folded = abs(math.remainder(expected, 2.0 * math.pi))
    y1 = sub.latitude_path[-1][1]
    ang = _latitude_angle(sub, y1)
    sub.record = {"transported": y1, "rotation_angle": ang,
                  "closed_form_angle": folded}
    return abs(ang - folded), f"measured {ang:.9f}, closed form {folded:.9f}"


@_check("holonomy_oracle_agreement", 1, _latitude_bound, _latitude_oracle)
def _holonomy_oracle_agreement(sub, rng, n):
    ang = _latitude_angle(sub, sub.latitude_path[-1][1])
    gb = sphere_latitude_gb_angle(sub.conn, _latitude(sub)[0])
    gb_folded = abs(math.remainder(gb, 2.0 * math.pi))
    return abs(ang - gb_folded), (
        f"transport {ang:.10f}, boundary-integral {gb_folded:.10f}")


@_check("metric_compatibility", 1, _metric_bound, _latitude_oracle)
def _metric_compatibility(sub, rng, n):
    loop = latitude_loop(sub.bundle, _latitude(sub)[0])
    path = sub.latitude_path
    g0 = None
    worst = 0.0
    # the end node too: RK4's modulus loss, which the bound sizes, is
    # largest there
    for t, y in path[:: max(1, len(path) // 200)] + path[-1:]:
        g = sphere_metric(loop.fn(t))
        norm = float(dot(mat_vec(g, y), y))
        if g0 is None:
            g0 = norm
        worst = max(worst, abs(norm - g0))
    return worst, "round-metric norm conserved along transport"


# --------------------------------------------------------------------------
# scenario dispatch
# --------------------------------------------------------------------------

def _theorem41_rows(sub: Subject, n_samples: int):
    rng = _rng_for(sub.cfg.seed, "theorem41")
    conn, bundle = sub.conn, sub.bundle
    table = []
    worst_eq = 0.0
    worst_cross = 0.0
    m = bundle.base_dim
    for _ in range(n_samples):
        s, u, v, x = random_suvx(bundle, rng)
        lifts, cov, cross = curvature_routes(conn, s, u, v, x)
        residual = _max_abs(vec_sub(cov, lifts))
        worst_eq = max(worst_eq, residual)
        worst_cross = max(worst_cross,
                          _expansion_residual(m, lifts, cov, cross))
        table.append({
            "point": _vec(x.coords),
            "via_lifts": _vec(lifts),
            "via_covariant": _vec(cov),
            "residual": residual,
            "cross_residual": _max_abs(cross),
        })
    rows = ((CHECKS["curvature_routes_equality"], worst_eq, ROUTES_NOTE),
            (CHECKS["bracket_expansion_identity"], worst_cross,
             EXPANSION_NOTE))
    return [_row(check, n_samples, worst, _tolerance(sub, check), note)
            for check, worst, note in rows], table


def run_scenario(cfg: ScenarioConfig) -> VerificationReport:
    """Build the configured bundle, run the scenario, return the report."""
    sub = Subject(cfg)
    report = VerificationReport(
        scenario=cfg.echo(),
        environment={"seed": cfg.seed, "step": cfg.step,
                     "max_steps": cfg.max_steps},
        sign_convention=SIGN_CONVENTION,
    )
    if cfg.scenario == "verify-all":
        report.checks.extend(_run(sub, check) for check in CHECKS.values()
                             if check.applies(sub))
        return report

    # the head row compares gamma at a combination of velocities with the
    # combination of its values, two computations that a defect in gamma
    # can split, so no report is left with no row or a vacuous pass
    report.checks.append(_run(sub, CHECKS["gamma_linearity"]))
    if cfg.scenario == "theorem41":
        n = cfg.scenario_params.get("samples", 100)
        checks, report.table = _theorem41_rows(sub, n)
        report.checks.extend(checks)
    elif cfg.scenario == "curvature-table":
        n = cfg.scenario_params.get("samples", 12)
        _, report.table = _theorem41_rows(sub, n)
    elif cfg.scenario == "transport":
        _transport_scenario(sub, report)
    elif cfg.scenario == "geodesic":
        _geodesic_scenario(sub, report)
    elif cfg.scenario == "holonomy":
        _holonomy_scenario(sub, report)
    return report


def _run_named(sub: Subject, report: VerificationReport, *names: str) -> dict:
    """Append the rows of ``names`` run on the scenario's fixed inputs;
    returns the record of the first."""
    report.checks.append(_run(sub, CHECKS[names[0]], 1))
    record = sub.record
    report.checks.extend(_run(sub, CHECKS[name], 1) for name in names[1:])
    return record


def _transport_scenario(sub: Subject, report: VerificationReport) -> None:
    names = ["transport_roundtrip"]
    if sub.caps.latitude_holonomy is not None:
        theta0, y0 = _latitude(sub)
        curve = latitude_loop(sub.bundle, theta0)
        names += ["holonomy_latitude_angle", "holonomy_oracle_agreement",
                  "metric_compatibility"]
    else:
        curve, y0 = _transport_data(
            sub, _rng_for(sub.cfg.seed, "transport_scenario"))
    sub.transport = (curve, y0)
    record = _run_named(sub, report, *names)
    if record:
        report.results = {
            "start": _vec(curve.point_at(curve.t0)),
            "end": _vec(curve.point_at(curve.t1)),
            "y0": _vec(y0),
            "transported": _vec(record["transported"]),
            "roundtrip_residual": record["roundtrip_residual"],
        }


def _geodesic_scenario(sub: Subject, report: VerificationReport) -> None:
    x0, v0 = _geodesic_start(sub, _rng_for(sub.cfg.seed, "geodesic_scenario"))
    x0, v0 = _vector_param(sub, "x0", x0), _vector_param(sub, "v0", v0)
    T = float(sub.cfg.scenario_params.get("T", 1.0))
    sub.geodesic = (x0, v0, T)
    record = _run_named(sub, report, "geodesic_covariant_residual")
    if record:
        report.results = {
            "x0": _vec(x0), "v0": _vec(v0), "T": T,
            "x_final": _vec(record["x_final"]),
            "v_final": _vec(record["v_final"]),
        }


def _holonomy_scenario(sub: Subject, report: VerificationReport) -> None:
    """Sphere: the latitude rows.  Elsewhere a circle loop, whose holonomy
    must vanish on a zero-curvature bundle; on any other bundle it is only
    reported, and the loop transport is checked by its round trip."""
    if sub.caps.latitude_holonomy is not None:
        theta0, y0 = _latitude(sub)
        head = {"latitude": theta0}
        names = ["holonomy_latitude_angle", "holonomy_oracle_agreement"]
    else:
        radius = float(sub.cfg.scenario_params.get("radius", 0.6))
        y0 = _vector_param(sub, "y0", ()) or _fibre_offset(
            sub.bundle, HOLONOMY_Y0_OFFSET, [1.0] * sub.f)
        sub.transport = (circle_loop(sub.bundle, [0.0] * sub.m, radius), y0)
        head = {"radius": radius}
        names = ["holonomy_flat_loop" if sub.caps.zero_curvature
                 else "transport_roundtrip"]
    record = _run_named(sub, report, *names)
    if record:
        y1 = record["transported"]
        report.results = {
            **head, "y0": _vec(y0), "transported": _vec(y1),
            "displacement": math.hypot(*vec_sub(y1, y0)),
            **{key: record[key] for key in ("rotation_angle",
                                            "closed_form_angle")
               if key in record}}
