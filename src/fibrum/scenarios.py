"""Named verification scenarios over the catalog bundles.

Every check produces one row {check_name, samples, max_residual, tolerance,
pass}; chart-exit and domain errors become failed rows with reason strings
instead of crashes.  All sampling is seeded and draw order is fixed, so a
given config yields a byte-identical report.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bundle import (BaseVectorField, SectionMap, TotalTangent,
                     TotalVectorField, base_lie_bracket, check_p_related,
                     lie_bracket)
from .calculus import as_float_array, float_value, sin
from .catalog import (build_connection, circle_loop, latitude_loop,
                      random_base_field, random_base_point, random_section,
                      random_tangent, random_total_point,
                      random_total_scalar_field, reversed_curve, segment_curve,
                      sphere_angle_between, sphere_latitude_gb_angle,
                      sphere_metric)
from .config import ScenarioConfig
from .connection import (ConnectionField, ConnectionKind, covariant_derivative,
                         extend_covariant_derivative, extend_natural_derivative,
                         horizontal_lift, horizontal_lift_field,
                         horizontal_projector, lift_rank_check,
                         natural_derivative, vertical_projector)
from .curvature import (compare_curvature_routes, composition_commutator,
                        cocurvature, cross_bracket_sum, curv_via_covariant,
                        curv_via_lifts, curv_via_vertical_projection,
                        curvature, second_covariant_derivative,
                        tensoriality_check_curvature, torsion, leibniz_check)
from .errors import FibrumError, TooFewSamplesError
from .transport import (CurveOnBase, IntegratorConfig, flow, geodesic,
                        holonomy_loop, lie_derivative_covariant,
                        parallel_transport_path, parallel_transport_vector,
                        spray_from_connection)

SIGN_CONVENTION = (
    "curvature reported as (H_[u,v] - [H_u, H_v]) composed with the section; "
    "for Christoffel coefficients this equals the classical contraction "
    "R^a_bcd y^b u^c v^d with "
    "R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb")

ROUTES_NOTE = (
    "bracketing the foliation-extended covariant-derivative fields does not "
    "reproduce the lift-route curvature: the exact defect is the "
    "cross-bracket sum [H_v, nabla_u] + [nabla_v, H_u] on the graph (see the "
    "bracket_expansion_identity row, README, and demos/02)")


@dataclass(frozen=True)
class CheckRow:
    check_name: str
    samples: int
    max_residual: float
    tolerance: float
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


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _row(cfg: ScenarioConfig, name: str, samples: int, residual: float,
         note: str = "") -> CheckRow:
    tol = cfg.tolerance(name)
    ok = math.isfinite(residual) and residual <= tol
    return CheckRow(name, samples, float(residual), float(tol), ok, note)


def _guarded(cfg: ScenarioConfig, name: str, samples: int, fn,
             note: str = "") -> CheckRow:
    try:
        residual, extra = fn()
    except FibrumError as exc:
        return CheckRow(name, samples, float("inf"), cfg.tolerance(name),
                        False, f"{type(exc).__name__}: {exc}")
    text = note if not extra else (f"{note}; {extra}" if note else extra)
    return _row(cfg, name, samples, residual, text)


def _is_tm_config(conn: ConnectionField) -> bool:
    return conn.bundle.fibre_dim == conn.bundle.base_dim


def _vec(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float)]


# --------------------------------------------------------------------------
# connection-module checks
# --------------------------------------------------------------------------

def connection_checks(conn: ConnectionField, cfg: ScenarioConfig) -> list[CheckRow]:
    bundle = conn.bundle
    m, f = bundle.base_dim, bundle.fibre_dim
    rows: list[CheckRow] = []

    def projector_algebra():
        rng = _rng_for(cfg.seed, "projector_algebra")
        worst = 0.0
        eye = np.eye(m + f)
        for _ in range(200):
            e = random_total_point(bundle, rng)
            pv = vertical_projector(conn, e).matrix
            ph = horizontal_projector(conn, e).matrix
            worst = max(worst,
                        np.max(np.abs(pv @ pv - pv)),
                        np.max(np.abs(ph @ ph - ph)),
                        np.max(np.abs(pv @ ph)),
                        np.max(np.abs(ph @ pv)),
                        np.max(np.abs(pv + ph - eye)))
            ranks_ok = (np.linalg.matrix_rank(pv, tol=1e-8) == f
                        and np.linalg.matrix_rank(ph, tol=1e-8) == m)
            if not ranks_ok:
                worst = max(worst, 1.0)
        return float(worst), ""

    rows.append(_guarded(cfg, "projector_algebra", 200, projector_algebra))

    def gamma_linearity():
        rng = _rng_for(cfg.seed, "gamma_linearity")
        worst = 0.0
        for _ in range(100):
            e = random_total_point(bundle, rng)
            x, y = bundle.split(list(e.coords))
            a, b = rng.uniform(-2, 2, size=2)
            u = rng.uniform(-1, 1, size=m)
            v = rng.uniform(-1, 1, size=m)
            lhs = as_float_array(conn.gamma(x, y, list(a * u + b * v)))
            rhs = a * as_float_array(conn.gamma(x, y, list(u))) \
                + b * as_float_array(conn.gamma(x, y, list(v)))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst, ""

    rows.append(_guarded(cfg, "gamma_linearity", 100, gamma_linearity))

    if conn.kind is ConnectionKind.LINEAR:
        def fibre_linearity():
            rng = _rng_for(cfg.seed, "gamma_fibre_linearity")
            worst = 0.0
            for _ in range(100):
                x = list(bundle.base_box.sample(rng))
                y1 = list(bundle.fibre_box.sample(rng, margin=0.3))
                y2 = list(bundle.fibre_box.sample(rng, margin=0.3))
                a, b = rng.uniform(-0.7, 0.7, size=2)
                v = list(rng.uniform(-1, 1, size=m))
                mix = [a * c1 + b * c2 for c1, c2 in zip(y1, y2)]
                lhs = as_float_array(conn.gamma(x, mix, v))
                rhs = a * as_float_array(conn.gamma(x, y1, v)) \
                    + b * as_float_array(conn.gamma(x, y2, v))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            return worst, ""

        rows.append(_guarded(cfg, "gamma_fibre_linearity", 100, fibre_linearity))

    def right_inverse():
        rng = _rng_for(cfg.seed, "lift_right_inverse")
        worst = 0.0
        for _ in range(100):
            e = random_total_point(bundle, rng)
            v = rng.uniform(-1, 1, size=m)
            tangent = horizontal_lift(conn, e, v)
            worst = max(worst, float(np.max(np.abs(tangent.base_part - v))))
            pv = vertical_projector(conn, e).matrix
            worst = max(worst,
                        float(np.max(np.abs(pv @ tangent.as_vector()))))
        return worst, ""

    rows.append(_guarded(cfg, "lift_right_inverse", 100, right_inverse))

    def split_law():
        rng = _rng_for(cfg.seed, "split_law")
        worst = 0.0
        for _ in range(100):
            s = random_section(bundle, rng)
            v = random_base_field(bundle, rng)
            x = random_base_point(bundle, rng)
            nat = natural_derivative(s, v, x)
            e = s.graph(x)
            cov = covariant_derivative(conn, s, v, x)
            lift = horizontal_lift(conn, e, as_float_array(v(x)))
            worst = max(worst,
                        float(np.max(np.abs(nat.base_part - lift.base_part))),
                        float(np.max(np.abs(nat.fibre_part
                                            - (cov + lift.fibre_part)))))
        return worst, ""

    rows.append(_guarded(cfg, "split_law", 100, split_law))

    def nat_related():
        rng = _rng_for(cfg.seed, "natural_derivative_relatedness")
        s = random_section(bundle, rng)
        v = random_base_field(bundle, rng)
        ext = extend_natural_derivative(s, v)
        samples = [random_total_point(bundle, rng) for _ in range(100)]
        return check_p_related(ext, v, samples), ""

    rows.append(_guarded(cfg, "natural_derivative_relatedness", 100, nat_related))

    def lift_related():
        rng = _rng_for(cfg.seed, "lift_field_relatedness")
        v = random_base_field(bundle, rng)
        hv = horizontal_lift_field(conn, v)
        samples = [random_total_point(bundle, rng) for _ in range(100)]
        return check_p_related(hv, v, samples), ""

    rows.append(_guarded(cfg, "lift_field_relatedness", 100, lift_related))

    def translation_invariance():
        rng = _rng_for(cfg.seed, "extension_translation_invariance")
        worst = 0.0
        for _ in range(100):
            s = random_section(bundle, rng)
            v = random_base_field(bundle, rng)
            ext = extend_natural_derivative(s, v)
            shift = rng.uniform(-0.2, 0.2, size=f)
            ext_shift = extend_natural_derivative(s, v, offset_shift=shift)
            x = bundle.base_box.sample(rng)
            y1 = bundle.fibre_box.sample(rng, margin=0.3)
            y2 = bundle.fibre_box.sample(rng, margin=0.3)
            e1 = bundle.graph_point(x, y1)
            e2 = bundle.graph_point(x, y2)
            v1 = as_float_array(ext(e1))
            worst = max(worst,
                        float(np.max(np.abs(v1 - as_float_array(ext(e2))))),
                        float(np.max(np.abs(v1 - as_float_array(ext_shift(e1))))))
        return worst, ""

    rows.append(_guarded(cfg, "extension_translation_invariance", 100,
                         translation_invariance))

    def rank_check():
        rng = _rng_for(cfg.seed, "lift_rank")
        worst = 0
        for _ in range(50):
            s = random_section(bundle, rng)
            x = random_base_point(bundle, rng)
            worst = max(worst, abs(lift_rank_check(conn, s, x) - m))
        return float(worst), ""

    rows.append(_guarded(cfg, "lift_rank", 50, rank_check))

    def section_tensoriality():
        rng = _rng_for(cfg.seed, "lift_tensoriality_in_section")
        worst = 0.0
        for _ in range(20):
            s1 = random_section(bundle, rng)
            x = random_base_point(bundle, rng)
            x0 = np.array(x.coords)
            amps = rng.uniform(-0.05, 0.05, size=f)

            def bumped(coords, _s=s1, _amps=amps, _x0=x0):
                base = _s.fn(coords)
                bump = 1.0
                for j in range(m):
                    bump = bump * sin(coords[j] - _x0[j])
                return [b + a * bump for b, a in zip(base, _amps)]

            s2 = SectionMap(bundle, bumped)
            for j in range(m):
                basis = [1.0 if k == j else 0.0 for k in range(m)]
                e = s1.graph(x)
                l1 = horizontal_lift(conn, e, basis).as_vector()
                l2 = horizontal_lift(conn, s2.graph(x), basis).as_vector()
                worst = max(worst, float(np.max(np.abs(l1 - l2))))
        return worst, "same point-value sections give bitwise-equal lifts"

    rows.append(_guarded(cfg, "lift_tensoriality_in_section", 20,
                         section_tensoriality))

    def tensorial_in_v():
        rng = _rng_for(cfg.seed, "covariant_tensoriality_in_v")
        worst = 0.0
        for _ in range(100):
            s = random_section(bundle, rng)
            v = random_base_field(bundle, rng)
            x = random_base_point(bundle, rng)
            scale_fn = random_total_scalar_field(bundle, rng)

            def scaled(coords, _v=v, _sf=scale_fn):
                c = _sf(list(coords) + [0.0] * f)
                return [c * comp for comp in _v.fn(coords)]

            fv = BaseVectorField(bundle, scaled)
            lhs = covariant_derivative(conn, s, fv, x)
            fx = float_value(scale_fn(list(x.coords) + [0.0] * f))
            rhs = fx * covariant_derivative(conn, s, v, x)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst, ""

    rows.append(_guarded(cfg, "covariant_tensoriality_in_v", 100, tensorial_in_v))
    return rows


# --------------------------------------------------------------------------
# curvature-module checks
# --------------------------------------------------------------------------

def curvature_checks(conn: ConnectionField, cfg: ScenarioConfig) -> list[CheckRow]:
    bundle = conn.bundle
    m, f = bundle.base_dim, bundle.fibre_dim
    rows: list[CheckRow] = []

    def draw(rng):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        return s, u, v, x

    def projectability():
        rng = _rng_for(cfg.seed, "bracket_projectability")
        worst = 0.0
        for _ in range(100):
            u = random_base_field(bundle, rng)
            v = random_base_field(bundle, rng)
            e = random_total_point(bundle, rng)
            br = lie_bracket(horizontal_lift_field(conn, u),
                             horizontal_lift_field(conn, v))
            uv = base_lie_bracket(u, v)
            base = as_float_array(br(e))[:m]
            worst = max(worst, float(np.max(np.abs(
                base - as_float_array(uv(list(e.base_coords)))))))
        return worst, ""

    rows.append(_guarded(cfg, "bracket_projectability", 100, projectability))

    def internal_identity():
        rng = _rng_for(cfg.seed, "lift_route_internal_identity")
        worst = 0.0
        for _ in range(100):
            s, u, v, x = draw(rng)
            a = curv_via_lifts(conn, s, u, v, x).fibre_part
            b = curv_via_vertical_projection(conn, s, u, v, x).fibre_part
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst, ""

    rows.append(_guarded(cfg, "lift_route_internal_identity", 100,
                         internal_identity))

    def verticality():
        rng = _rng_for(cfg.seed, "curvature_verticality")
        worst = 0.0
        for _ in range(100):
            s, u, v, x = draw(rng)
            e = s.graph(x)
            hu = horizontal_lift_field(conn, u)
            hv = horizontal_lift_field(conn, v)
            hw = horizontal_lift_field(conn, base_lie_bracket(u, v))
            diff = as_float_array(hw(e)) - as_float_array(lie_bracket(hu, hv)(e))
            worst = max(worst, float(np.max(np.abs(diff[:m]))))
        return worst, ""

    rows.append(_guarded(cfg, "curvature_verticality", 100, verticality))

    def horizontality():
        rng = _rng_for(cfg.seed, "curvature_horizontality")
        worst = 0.0
        for _ in range(100):
            e = random_total_point(bundle, rng)
            vert = TotalTangent(e, np.zeros(m), rng.uniform(-1, 1, size=f))
            other = random_tangent(conn, e, rng)
            worst = max(worst,
                        float(np.max(np.abs(curvature(conn, e, vert, other)
                                            .fibre_part))),
                        float(np.max(np.abs(curvature(conn, e, other, vert)
                                            .fibre_part))))
        return worst, ""

    rows.append(_guarded(cfg, "curvature_horizontality", 100, horizontality))

    def antisymmetry():
        rng = _rng_for(cfg.seed, "curvature_antisymmetry")
        worst = 0.0
        for _ in range(100):
            e = random_total_point(bundle, rng)
            X = random_tangent(conn, e, rng)
            Y = random_tangent(conn, e, rng)
            Z = random_tangent(conn, e, rng)
            a, b = rng.uniform(-2, 2, size=2)
            rxy = curvature(conn, e, X, Y).fibre_part
            ryx = curvature(conn, e, Y, X).fibre_part
            worst = max(worst, float(np.max(np.abs(rxy + ryx))))
            mix = TotalTangent(e, a * X.base_part + b * Z.base_part,
                               a * X.fibre_part + b * Z.fibre_part)
            rmix = curvature(conn, e, mix, Y).fibre_part
            rxz = curvature(conn, e, Z, Y).fibre_part
            worst = max(worst, float(np.max(np.abs(rmix - a * rxy - b * rxz))))
        return worst, ""

    rows.append(_guarded(cfg, "curvature_antisymmetry", 100, antisymmetry))

    def cocurv():
        rng = _rng_for(cfg.seed, "cocurvature")
        worst = 0.0
        for _ in range(200):
            e = random_total_point(bundle, rng)
            X = random_tangent(conn, e, rng)
            Y = random_tangent(conn, e, rng)
            val = cocurvature(conn, e, X, Y)
            worst = max(worst, float(np.max(np.abs(val.as_vector()))))
            # stronger form: arbitrary smooth vertical fields still bracket
            # to vertical fields (the fibres foliate the total space)
            f1 = random_total_scalar_field(bundle, rng)
            f2 = random_total_scalar_field(bundle, rng)
            w1 = rng.uniform(-1, 1, size=f)
            w2 = rng.uniform(-1, 1, size=f)

            def vfield(scalar, w):
                def ev(coords):
                    c = scalar(coords)
                    return [0.0] * m + [c * wi for wi in w]
                return TotalVectorField(bundle, ev)

            br = lie_bracket(vfield(f1, w1), vfield(f2, w2))(e)
            worst = max(worst, float(np.max(np.abs(as_float_array(br)[:m]))))
        return worst, ""

    rows.append(_guarded(cfg, "cocurvature", 200, cocurv))

    def tensoriality():
        rng = _rng_for(cfg.seed, "curvature_tensoriality")
        worst = 0.0
        fields = []
        for _ in range(3):
            fields.append(random_total_scalar_field(bundle, rng))

        def poly_field(coords):
            return coords[0] + coords[m] * coords[m]

        fields.append(poly_field)
        for scalar in fields:
            for _ in range(25):
                e = random_total_point(bundle, rng)
                X = random_tangent(conn, e, rng)
                Y = random_tangent(conn, e, rng)
                worst = max(worst, tensoriality_check_curvature(
                    conn, e, X, Y, scalar))
        return worst, "includes x1 + y1^2 alongside 3 random smooth fields"

    rows.append(_guarded(cfg, "curvature_tensoriality", 100, tensoriality))

    def routes_equality():
        rng = _rng_for(cfg.seed, "curvature_routes_equality")
        worst = 0.0
        for _ in range(100):
            s, u, v, x = draw(rng)
            row = compare_curvature_routes(conn, s, u, v, [x])[0]
            worst = max(worst, row.residual)
        return worst, ROUTES_NOTE

    rows.append(_guarded(cfg, "curvature_routes_equality", 100, routes_equality))

    def expansion_identity():
        rng = _rng_for(cfg.seed, "bracket_expansion_identity")
        worst = 0.0
        for _ in range(100):
            s, u, v, x = draw(rng)
            lifts = curv_via_lifts(conn, s, u, v, x).fibre_part
            cov = curv_via_covariant(conn, s, u, v, x).fibre_part
            cross = cross_bracket_sum(conn, s, u, v, x)
            worst = max(worst,
                        float(np.max(np.abs(cov - lifts - cross[m:]))),
                        float(np.max(np.abs(cross[:m]))))
        return worst, ("exact bilinear expansion of [T_u, T_v] = T_[u,v]; "
                       "this is what the bracketing machinery must satisfy")

    rows.append(_guarded(cfg, "bracket_expansion_identity", 100,
                         expansion_identity))

    def extension_independence():
        rng = _rng_for(cfg.seed, "extension_independence")
        worst = 0.0
        for _ in range(50):
            s, u, v, x = draw(rng)
            base = curv_via_covariant(conn, s, u, v, x).fibre_part
            shift = rng.uniform(-0.2, 0.2, size=f)
            pert = curv_via_covariant(conn, s, u, v, x,
                                      offset_shift=shift).fibre_part
            worst = max(worst, float(np.max(np.abs(base - pert))))
        return worst, "translation-leaf offset shifted by a random amount"

    rows.append(_guarded(cfg, "extension_independence", 50,
                         extension_independence))

    if conn.bundle.name == "flat":
        def flat_lifts():
            rng = _rng_for(cfg.seed, "flatness_via_lifts")
            worst = 0.0
            for _ in range(100):
                s, u, v, x = draw(rng)
                worst = max(worst, float(np.max(np.abs(
                    curv_via_lifts(conn, s, u, v, x).fibre_part))))
            return worst, ""

        rows.append(_guarded(cfg, "flatness_via_lifts", 100, flat_lifts))

        def flat_cov():
            rng = _rng_for(cfg.seed, "flatness_via_covariant")
            worst = 0.0
            for _ in range(100):
                s, u, v, x = draw(rng)
                worst = max(worst, float(np.max(np.abs(
                    curv_via_covariant(conn, s, u, v, x).fibre_part))))
            return worst, ROUTES_NOTE

        rows.append(_guarded(cfg, "flatness_via_covariant", 100, flat_cov))

    if conn.kind is ConnectionKind.LINEAR:
        def leibniz():
            rng = _rng_for(cfg.seed, "leibniz_rule")
            worst = 0.0
            for _ in range(50):
                s = random_section(bundle, rng)
                v = random_base_field(bundle, rng)
                x = random_base_point(bundle, rng)
                scalar = random_total_scalar_field(bundle, rng)

                def f_on_base(coords, _s=scalar):
                    return _s(list(coords) + [0.0] * f)

                worst = max(worst, leibniz_check(conn, s, f_on_base, v, x))
            return worst, ""

        rows.append(_guarded(cfg, "leibniz_rule", 50, leibniz))

        def composition_curvature():
            rng = _rng_for(cfg.seed, "composition_commutator_curvature")
            worst = 0.0
            for _ in range(50):
                s, u, v, x = draw(rng)
                comp = composition_commutator(conn, s, u, v, x)
                lifts = curv_via_lifts(conn, s, u, v, x).fibre_part
                worst = max(worst, float(np.max(np.abs(comp - lifts))))
            return worst, "operator compositions, not field brackets"

        rows.append(_guarded(cfg, "composition_commutator_curvature", 50,
                             composition_curvature))

        if _is_tm_config(conn):
            def torsion_form():
                rng = _rng_for(cfg.seed, "second_derivative_torsion_form")
                worst = 0.0
                for _ in range(50):
                    s, u, v, x = draw(rng)
                    d2uv = second_covariant_derivative(conn, s, u, v, x)
                    d2vu = second_covariant_derivative(conn, s, v, u, x)
                    tors = torsion(conn, u, v, x)
                    w = BaseVectorField(bundle,
                                        lambda c, _t=tors: list(_t))
                    nt = covariant_derivative(conn, s, w, x)
                    lifts = curv_via_lifts(conn, s, u, v, x).fibre_part
                    worst = max(worst, float(np.max(np.abs(
                        d2uv - d2vu + nt - lifts))))
                return worst, ""

            rows.append(_guarded(cfg, "second_derivative_torsion_form", 50,
                                 torsion_form))

    if conn.bundle.name == "sphere":
        def torsion_sym():
            rng = _rng_for(cfg.seed, "torsion_symmetric")
            worst = 0.0
            for _ in range(50):
                u = random_base_field(bundle, rng)
                v = random_base_field(bundle, rng)
                x = random_base_point(bundle, rng)
                worst = max(worst, float(np.max(np.abs(torsion(conn, u, v, x)))))
            return worst, "round-metric coefficients are symmetric"

        rows.append(_guarded(cfg, "torsion_symmetric", 50, torsion_sym))

    return rows


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
        ydot = (-ys[k + 2] + 8.0 * ys[k + 1] - 8.0 * ys[k - 1] + ys[k - 2]) \
            / (12.0 * h)
        worst = max(worst, float(np.max(np.abs(ydot + coeff(k)))))
    return worst


def _transport_residual(conn: ConnectionField, curve: CurveOnBase,
                        path) -> float:
    """Stencil residual of y' + gamma(c(t), y) c'(t) along a transport path."""
    ts = [t for t, _ in path]
    ys = [y for _, y in path]
    return _five_point_residual(ts, ys, lambda k: as_float_array(conn.gamma(
        list(curve.fn(ts[k])), list(ys[k]), list(curve.velocity(ts[k])))))


def _geodesic_residual(conn: ConnectionField, samples) -> float:
    """Stencil residual of v' + gamma(x, v) v along geodesic samples."""
    ts = [t for t, _, _ in samples]
    xs = [x for _, x, _ in samples]
    vs = [v for _, _, v in samples]
    return _five_point_residual(ts, vs, lambda k: as_float_array(conn.gamma(
        list(xs[k]), list(vs[k]), list(vs[k]))))


def _default_transport_data(conn: ConnectionField,
                            rng: np.random.Generator):
    """A safe in-box curve and start element for any catalog bundle."""
    bundle = conn.bundle
    p = bundle.base_box.sample(rng, margin=0.25)
    q = bundle.base_box.sample(rng, margin=0.25)
    curve = segment_curve(bundle, p, q)
    lo = np.asarray(bundle.fibre_box.lower)
    hi = np.asarray(bundle.fibre_box.upper)
    y0 = 0.5 * (lo + hi) + 0.2 * (hi - lo) * rng.uniform(-1, 1,
                                                         size=bundle.fibre_dim)
    return curve, y0


def transport_checks(conn: ConnectionField, cfg: ScenarioConfig) -> list[CheckRow]:
    bundle = conn.bundle
    m = bundle.base_dim
    icfg = IntegratorConfig(step=cfg.step, max_steps=cfg.max_steps)
    rows: list[CheckRow] = []

    def rk4_order():
        # linear-field oracle: a rotation field keeps the trajectory inside
        # the box and has a clean nonzero fifth-order error term
        rng = _rng_for(cfg.seed, "rk4_order")
        d = bundle.total_dim
        raw = rng.uniform(-1.0, 1.0, size=(d, d))
        mat = raw - raw.T
        lo = np.concatenate([bundle.base_box.lower, bundle.fibre_box.lower])
        hi = np.concatenate([bundle.base_box.upper, bundle.fibre_box.upper])
        centre = 0.5 * (lo + hi)

        def linear_fn(coords):
            rel = [c - ci for c, ci in zip(coords, centre)]
            return [sum(mat[i, j] * rel[j] for j in range(d)) for i in range(d)]

        field = TotalVectorField(bundle, linear_fn)
        x0 = bundle.base_box.sample(rng, margin=0.45)
        y0 = bundle.fibre_box.sample(rng, margin=0.45)
        e0 = bundle.graph_point(x0, y0)
        lam = 0.5
        vals = []
        for divisor in (10, 20, 40):
            c = IntegratorConfig(step=lam / divisor, max_steps=cfg.max_steps)
            vals.append(np.array(flow(field, e0, lam, c).coords))
        e1 = float(np.max(np.abs(vals[0] - vals[1])))
        e2 = float(np.max(np.abs(vals[1] - vals[2])))
        if e2 < 1e-15:
            return -1.0, f"step-halving errors below round-off ({e1:.3g})"
        order = math.log2(e1 / e2)
        return 3.9 - order, f"observed order {order:.3f}"

    rows.append(_guarded(cfg, "rk4_order", 3, rk4_order))

    def group_law():
        rng = _rng_for(cfg.seed, "flow_group_law")
        worst = 0.0
        for _ in range(5):
            v = random_base_field(bundle, rng)
            hv = horizontal_lift_field(conn, v)
            e0 = random_total_point(bundle, rng)
            lam, mu = 0.08, 0.05
            once = flow(hv, e0, lam + mu, icfg)
            twice = flow(hv, flow(hv, e0, mu, icfg), lam, icfg)
            worst = max(worst, float(np.max(np.abs(
                np.array(once.coords) - np.array(twice.coords)))))
        return worst, ""

    rows.append(_guarded(cfg, "flow_group_law", 5, group_law))

    def roundtrip():
        rng = _rng_for(cfg.seed, "transport_roundtrip")
        worst = 0.0
        for _ in range(3):
            curve, y0 = _default_transport_data(conn, rng)
            y1 = parallel_transport_vector(conn, curve, y0, icfg)
            back = reversed_curve(curve)
            y2 = parallel_transport_vector(conn, back, y1, icfg)
            worst = max(worst, float(np.max(np.abs(y2 - y0))))
        return worst, ""

    rows.append(_guarded(cfg, "transport_roundtrip", 3, roundtrip))

    def covariantly_constant():
        rng = _rng_for(cfg.seed, "transport_covariantly_constant")
        worst = 0.0
        for _ in range(3):
            curve, y0 = _default_transport_data(conn, rng)
            _, path = parallel_transport_path(conn, curve, y0, icfg)
            worst = max(worst, _transport_residual(conn, curve, path))
        return worst, ""

    rows.append(_guarded(cfg, "transport_covariantly_constant", 3,
                         covariantly_constant))

    def bridge_order():
        rng = _rng_for(cfg.seed, "flow_algebra_bridge_order")
        best = None
        for _ in range(3):
            s = random_section(bundle, rng)
            v = random_base_field(bundle, rng)
            x = random_base_point(bundle, rng)
            alg = covariant_derivative(conn, s, v, x)
            errs = []
            for lam in (1e-2, 1e-3, 1e-4):
                c = IntegratorConfig(step=lam, max_steps=cfg.max_steps)
                fd = lie_derivative_covariant(conn, s, v, x, c)
                errs.append(float(np.max(np.abs(fd - alg))))
            if best is None or errs[0] > best[0]:
                best = (errs[0], errs)
        errs = best[1]
        if errs[1] < 1e-14 or errs[2] < 1e-14:
            return -1.0, "errors at round-off floor"
        orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
        return 1.9 - min(orders), (
            f"errors {errs[0]:.3g}/{errs[1]:.3g}/{errs[2]:.3g}, "
            f"orders {orders[0]:.3f}, {orders[1]:.3f}")

    rows.append(_guarded(cfg, "flow_algebra_bridge_order", 3, bridge_order))

    if _is_tm_config(conn):
        def spray_agreement():
            rng = _rng_for(cfg.seed, "geodesic_spray_agreement")
            if bundle.name == "sphere":
                x0, v0 = [1.0, 0.3], [0.3, 0.4]
            else:
                x0 = list(bundle.base_box.sample(rng, margin=0.3))
                v0 = list(0.3 * rng.uniform(-1, 1, size=m))
            T = 1.0
            samples = geodesic(conn, x0, v0, T, icfg)
            spray = spray_from_connection(conn)
            e0 = bundle.total_point(list(x0) + list(v0))
            end = flow(spray.as_total_field(), e0, T, icfg)
            t, xf, vf = samples[-1]
            resid = float(np.max(np.abs(np.array(end.coords)
                                        - np.concatenate([xf, vf]))))
            lift_at = horizontal_lift(conn, e0, v0)
            spray_val = as_float_array(spray(list(e0.coords)))
            compat = float(np.max(np.abs(lift_at.as_vector() - spray_val)))
            return max(resid, compat), "includes lift/spray compatibility"

        rows.append(_guarded(cfg, "geodesic_spray_agreement", 1,
                             spray_agreement))

        def geodesic_residual():
            rng = _rng_for(cfg.seed, "geodesic_covariant_residual")
            if bundle.name == "sphere":
                x0, v0 = [1.0, 0.3], [0.3, 0.4]
            else:
                x0 = list(bundle.base_box.sample(rng, margin=0.3))
                v0 = list(0.3 * rng.uniform(-1, 1, size=m))
            samples = geodesic(conn, x0, v0, 1.0, icfg)
            return _geodesic_residual(conn, samples), ""

        rows.append(_guarded(cfg, "geodesic_covariant_residual", 1,
                             geodesic_residual))

    if bundle.name == "flat" and m == 2:
        def flat_loop():
            loop = circle_loop(bundle, [0.0, 0.0], 0.8)
            y0 = np.full(bundle.fibre_dim, 0.5)
            _, disp = holonomy_loop(conn, loop, y0, icfg)
            return disp, ""

        rows.append(_guarded(cfg, "holonomy_flat_loop", 1, flat_loop))

    if bundle.name == "sphere":
        theta0 = float(cfg.scenario_params.get("latitude", math.pi / 3.0))
        rows.extend(sphere_holonomy_checks(conn, cfg, icfg, theta0))

    return rows


def sphere_holonomy_checks(conn: ConnectionField, cfg: ScenarioConfig,
                           icfg: IntegratorConfig, theta0: float,
                           y0=(1.0, 0.0)) -> list[CheckRow]:
    bundle = conn.bundle
    expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
    folded = abs(math.remainder(expected, 2.0 * math.pi))

    def angle_of(step: float) -> float:
        c = IntegratorConfig(step=step, max_steps=cfg.max_steps)
        loop = latitude_loop(bundle, theta0)
        y1, _ = holonomy_loop(conn, loop, list(y0), c)
        x = [theta0, 0.0]
        return sphere_angle_between(x, list(y0), y1)

    state: dict = {}

    def latitude_angle():
        ang = angle_of(cfg.step)
        state["angle"] = ang
        return abs(ang - folded), (
            f"measured {ang:.9f}, closed form {folded:.9f}")

    def oracle_agreement():
        fine = angle_of(cfg.step / 16.0)
        gb = sphere_latitude_gb_angle(conn, theta0)
        gb_folded = abs(math.remainder(gb, 2.0 * math.pi))
        return abs(fine - gb_folded), (
            f"fine transport {fine:.10f}, boundary-integral {gb_folded:.10f}")

    def metric_compat():
        loop = latitude_loop(bundle, theta0)
        _, path = parallel_transport_path(conn, loop, list(y0), icfg)
        g0 = None
        worst = 0.0
        for t, y in path[:: max(1, len(path) // 200)]:
            g = sphere_metric(loop.fn(t))
            norm = float(y @ g @ y)
            if g0 is None:
                g0 = norm
            worst = max(worst, abs(norm - g0))
        return worst, "round-metric norm conserved along transport"

    return [
        _guarded(cfg, "holonomy_latitude_angle", 1, latitude_angle),
        _guarded(cfg, "holonomy_oracle_agreement", 1, oracle_agreement),
        _guarded(cfg, "metric_compatibility", 1, metric_compat),
    ]


# --------------------------------------------------------------------------
# scenario dispatch
# --------------------------------------------------------------------------

def catalog_integrity_row(conn: ConnectionField, cfg: ScenarioConfig) -> CheckRow:
    def integrity():
        rng = _rng_for(cfg.seed, "catalog_integrity")
        worst = 0.0
        eye = np.eye(conn.bundle.total_dim)
        for _ in range(25):
            e = random_total_point(conn.bundle, rng)
            pv = vertical_projector(conn, e).matrix
            ph = horizontal_projector(conn, e).matrix
            worst = max(worst,
                        np.max(np.abs(pv @ pv - pv)),
                        np.max(np.abs(pv + ph - eye)),
                        np.max(np.abs(pv @ ph)))
            X = random_tangent(conn, e, rng)
            Y = random_tangent(conn, e, rng)
            worst = max(worst, float(np.max(np.abs(
                cocurvature(conn, e, X, Y).as_vector()))))
        return float(worst), ""

    return _guarded(cfg, "catalog_integrity", 25, integrity)


def _theorem41_rows(conn: ConnectionField, cfg: ScenarioConfig,
                    n_samples: int):
    rng = _rng_for(cfg.seed, "theorem41")
    bundle = conn.bundle
    table = []
    worst_eq = 0.0
    worst_cross = 0.0
    m = bundle.base_dim
    for _ in range(n_samples):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        row = compare_curvature_routes(conn, s, u, v, [x])[0]
        cross = cross_bracket_sum(conn, s, u, v, x)
        eq_resid = float(np.max(np.abs(
            row.via_covariant - row.via_lifts - cross[m:])))
        worst_eq = max(worst_eq, row.residual)
        worst_cross = max(worst_cross, eq_resid)
        table.append({
            "point": _vec(row.point.coords),
            "via_lifts": _vec(row.via_lifts),
            "via_covariant": _vec(row.via_covariant),
            "residual": row.residual,
            "cross_residual": row.cross_residual,
        })
    checks = [
        _row(cfg, "curvature_routes_equality", n_samples, worst_eq,
             ROUTES_NOTE),
        _row(cfg, "bracket_expansion_identity", n_samples, worst_cross,
             "exact bilinear expansion; validates the bracketing machinery"),
    ]
    return checks, table


def run_scenario(cfg: ScenarioConfig) -> VerificationReport:
    """Build the configured bundle, run the scenario, return the report."""
    conn = build_connection(cfg.bundle_name, cfg.bundle_params)
    icfg = IntegratorConfig(step=cfg.step, max_steps=cfg.max_steps)
    report = VerificationReport(
        scenario=cfg.echo(),
        environment={"seed": cfg.seed, "step": cfg.step,
                     "max_steps": cfg.max_steps},
        sign_convention=SIGN_CONVENTION,
    )
    report.checks.append(catalog_integrity_row(conn, cfg))

    if cfg.scenario == "verify-all":
        report.checks.extend(connection_checks(conn, cfg))
        report.checks.extend(curvature_checks(conn, cfg))
        report.checks.extend(transport_checks(conn, cfg))

    elif cfg.scenario == "theorem41":
        n = int(cfg.scenario_params.get("samples", 100))
        checks, table = _theorem41_rows(conn, cfg, n)
        report.checks.extend(checks)
        report.table = table

    elif cfg.scenario == "transport":
        report.checks.extend(_transport_scenario(conn, cfg, icfg, report))

    elif cfg.scenario == "geodesic":
        report.checks.extend(_geodesic_scenario(conn, cfg, icfg, report))

    elif cfg.scenario == "holonomy":
        report.checks.extend(_holonomy_scenario(conn, cfg, icfg, report))

    elif cfg.scenario == "curvature-table":
        n = int(cfg.scenario_params.get("samples", 12))
        _, table = _theorem41_rows(conn, cfg, n)
        report.table = table

    return report


def _transport_scenario(conn, cfg, icfg, report) -> list[CheckRow]:
    bundle = conn.bundle
    rows = []
    rng = _rng_for(cfg.seed, "transport_scenario")
    if bundle.name == "sphere":
        theta0 = float(cfg.scenario_params.get("latitude", math.pi / 3.0))
        y0 = [float(c) for c in cfg.scenario_params.get("y0", [1.0, 0.0])]
        curve = latitude_loop(bundle, theta0)
    else:
        curve, y0 = _default_transport_data(conn, rng)
        if "y0" in cfg.scenario_params:
            y0 = [float(c) for c in cfg.scenario_params["y0"]]

    def run():
        y1 = parallel_transport_vector(conn, curve, y0, icfg)
        back = reversed_curve(curve)
        y2 = parallel_transport_vector(conn, back, y1, icfg)
        report.results = {
            "start": _vec(curve.point_at(curve.t0)),
            "end": _vec(curve.point_at(curve.t1)),
            "y0": _vec(y0),
            "transported": _vec(y1),
            "roundtrip_residual": float(np.max(np.abs(y2 - np.asarray(y0)))),
        }
        return report.results["roundtrip_residual"], ""

    rows.append(_guarded(cfg, "transport_roundtrip", 1, run))
    if bundle.name == "sphere":
        theta0 = float(cfg.scenario_params.get("latitude", math.pi / 3.0))
        rows.extend(sphere_holonomy_checks(conn, cfg, icfg, theta0,
                                           tuple(y0)))
    return rows


def _geodesic_scenario(conn, cfg, icfg, report) -> list[CheckRow]:
    bundle = conn.bundle
    rng = _rng_for(cfg.seed, "geodesic_scenario")
    if bundle.name == "sphere":
        x0_default, v0_default = [1.0, 0.3], [0.3, 0.4]
    else:
        x0_default = list(bundle.base_box.sample(rng, margin=0.3))
        v0_default = list(0.3 * rng.uniform(-1, 1, size=bundle.base_dim))
    x0 = [float(c) for c in cfg.scenario_params.get("x0", x0_default)]
    v0 = [float(c) for c in cfg.scenario_params.get("v0", v0_default)]
    T = float(cfg.scenario_params.get("T", 1.0))

    def run():
        samples = geodesic(conn, x0, v0, T, icfg)
        t, xf, vf = samples[-1]
        report.results = {
            "x0": _vec(x0), "v0": _vec(v0), "T": T,
            "x_final": _vec(xf), "v_final": _vec(vf),
        }
        return _geodesic_residual(conn, samples), ""

    return [_guarded(cfg, "geodesic_covariant_residual", 1, run)]


def _holonomy_scenario(conn, cfg, icfg, report) -> list[CheckRow]:
    bundle = conn.bundle
    rows = []
    if bundle.name == "sphere":
        theta0 = float(cfg.scenario_params.get("latitude", math.pi / 3.0))
        y0 = [float(c) for c in cfg.scenario_params.get("y0", [1.0, 0.0])]
        loop = latitude_loop(bundle, theta0)

        def run():
            y1, disp = holonomy_loop(conn, loop, y0, icfg)
            ang = sphere_angle_between([theta0, 0.0], y0, y1)
            expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
            folded = abs(math.remainder(expected, 2.0 * math.pi))
            report.results = {
                "latitude": theta0, "y0": _vec(y0),
                "transported": _vec(y1), "displacement": disp,
                "rotation_angle": ang, "closed_form_angle": folded,
            }
            return abs(ang - folded), ""

        rows.append(_guarded(cfg, "holonomy_latitude_angle", 1, run))
        rows.extend(sphere_holonomy_checks(conn, cfg, icfg, theta0,
                                           tuple(y0))[1:2])
    else:
        radius = float(cfg.scenario_params.get("radius", 0.6))
        y0 = cfg.scenario_params.get("y0")
        if y0 is None:
            lo = np.asarray(bundle.fibre_box.lower)
            hi = np.asarray(bundle.fibre_box.upper)
            y0 = list(0.5 * (lo + hi) + 0.15 * (hi - lo))
        y0 = [float(c) for c in y0]
        loop = circle_loop(bundle, [0.0, 0.0], radius)

        def run():
            y1, disp = holonomy_loop(conn, loop, y0, icfg)
            report.results = {
                "radius": radius, "y0": _vec(y0),
                "transported": _vec(y1), "displacement": disp,
            }
            return disp, "flat coefficients transport trivially"

        if bundle.name == "flat":
            rows.append(_guarded(cfg, "holonomy_flat_loop", 1, run))
        else:
            def run_open():
                y1, disp = holonomy_loop(conn, loop, y0, icfg)
                report.results = {
                    "radius": radius, "y0": _vec(y0),
                    "transported": _vec(y1), "displacement": disp,
                }
                return 0.0, f"loop displacement {disp:.12g} (reported only)"

            rows.append(_guarded(cfg, "transport_roundtrip", 1, run_open))
    return rows
