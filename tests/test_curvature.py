"""Curvature by independent routes, cocurvature, and the linear case.

The curvature oracle is the classical coordinate tensor

    R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb

hand-coded for the round sphere with analytic Christoffel derivatives; the
lift-route operations must reproduce its contraction R^a_bcd y^b u^c v^d.

The covariant-derivative formula nabla_u nabla_v s - nabla_v nabla_u s
- nabla_[u,v] s must reproduce it for every connection and reduce to the
operator composition for linear ones; hand-derived values pin it on the
flat, sphere and nonlinear-demo charts.

The commutator route (bracketing the foliation-extended covariant
derivative fields) provably does NOT equal the lift route in general; the
exact relationship is the bilinear expansion

    via_covariant - via_lifts = ([H_v, nabla_u] + [nabla_v, H_u]) o s

which is asserted here to machine precision, together with frozen values
of the defect in cases worked out by hand.
"""

import math

import numpy as np
import pytest

from fibrum import (BaseVectorField, SectionMap, TotalTangent,
                    base_covariant_derivative,
                    base_lie_bracket, build_connection, cocurvature,
                    composition_commutator, covariant_derivative,
                    cross_bracket_sum,
                    curv_via_covariant, curv_via_covariant_composition,
                    curv_via_lifts, curv_via_vertical_projection, curvature,
                    curvature_routes, extend_covariant_derivative,
                    horizontal_lift, horizontal_lift_field, leibniz_check,
                    lie_bracket, lift_rank_check, make_custom_christoffel,
                    make_flat, make_sphere, random_base_field,
                    random_base_point, random_section, random_tangent,
                    random_total_point, second_covariant_derivative, sin,
                    tensoriality_check_curvature, torsion, vec_add, vec_sub)
from fibrum.bundle import TotalVectorField, jet_bracket
from fibrum.catalog import random_total_scalar_field
from fibrum.calculus import (DScalar, derivative, mat_vec, seed_scalars,
                             value_and_jacobian, vec_scale)
from fibrum.connection import _cov_value
from fibrum.curvature import (VerticalValue, _const_lift_field,
                              _curvature_pairs, _float_section_jet,
                              _nested_section_jet, _pv_apply)
from fibrum.errors import (DomainError, LinearityRequiredError,
                           NonFiniteOutputError, SecondOrderUnavailableError,
                           TangentBundleRequiredError)

from conftest import (as_array, assert_all_bit_equal, list_form_jet_bracket,
                      scalar_layers)


# -- independent oracle: classical tensor on the round sphere ---------------

def sphere_R(theta):
    """R[a][b][c][d] with analytic Christoffel derivatives."""
    st, ct = math.sin(theta), math.cos(theta)
    cot = ct / st
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -st * ct
    G[1, 0, 1] = cot
    G[1, 1, 0] = cot
    dG = np.zeros((2, 2, 2))  # d/dtheta of G^a_bc (no phi dependence)
    dG[0, 1, 1] = -math.cos(2.0 * theta)
    dG[1, 0, 1] = -1.0 / st ** 2
    dG[1, 1, 0] = -1.0 / st ** 2
    R = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    val = (dG[a, d, b] if c == 0 else 0.0) \
                        - (dG[a, c, b] if d == 0 else 0.0)
                    for e in range(2):
                        val += G[a, c, e] * G[e, d, b] \
                            - G[a, d, e] * G[e, c, b]
                    R[a, b, c, d] = val
    return R


def test_sphere_R_known_components():
    R = sphere_R(1.1)
    assert abs(R[0, 1, 0, 1] - math.sin(1.1) ** 2) < 1e-14  # R^th_ph,th,ph
    assert abs(R[1, 0, 0, 1] - (-1.0)) < 1e-14              # R^ph_th,th,ph


def test_curv_via_lifts_matches_classical_tensor(sphere_conn, rng):
    bundle = sphere_conn.bundle
    for _ in range(25):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        got = curv_via_lifts(sphere_conn, s, u, v, x).fibre_part
        R = sphere_R(x.coords[0])
        y = np.array(s(x), dtype=float)
        uu = np.array(u(list(x.coords)), dtype=float)
        vv = np.array(v(list(x.coords)), dtype=float)
        expect = np.einsum("abcd,b,c,d->a", R, y, uu, vv)
        assert np.max(np.abs(got - expect)) < 1e-11


def test_pointwise_curvature_hand_value(sphere_conn):
    # lifts of the coordinate fields at (pi/3, 0), y = (1, 0)
    e = sphere_conn.bundle.total_point([math.pi / 3, 0.0, 1.0, 0.0])
    X = horizontal_lift(sphere_conn, e, [1.0, 0.0])
    Y = horizontal_lift(sphere_conn, e, [0.0, 1.0])
    val = curvature(sphere_conn, e, X, Y)
    # classical contraction R^a_b,th,ph y^b = (0, -1) at any theta
    assert np.max(np.abs(val.fibre_part - np.array([0.0, -1.0]))) < 1e-12


def test_curvature_flat_vanishes(flat_conn, rng):
    for _ in range(20):
        e = random_total_point(flat_conn.bundle, rng)
        X = random_tangent(flat_conn, e, rng)
        Y = random_tangent(flat_conn, e, rng)
        assert np.max(np.abs(curvature(flat_conn, e, X, Y).fibre_part)) == 0.0


def test_curvature_kills_vertical_argument(any_conn, rng):
    m = any_conn.bundle.base_dim
    f = any_conn.bundle.fibre_dim
    for _ in range(10):
        e = random_total_point(any_conn.bundle, rng)
        vert = TotalTangent(e, np.zeros(m), rng.uniform(-1, 1, f))
        other = random_tangent(any_conn, e, rng)
        assert np.max(np.abs(
            curvature(any_conn, e, vert, other).fibre_part)) < 1e-10
        assert np.max(np.abs(
            curvature(any_conn, e, other, vert).fibre_part)) < 1e-10


def test_curvature_antisymmetric(any_conn, rng):
    for _ in range(10):
        e = random_total_point(any_conn.bundle, rng)
        X = random_tangent(any_conn, e, rng)
        Y = random_tangent(any_conn, e, rng)
        a = as_array(curvature(any_conn, e, X, Y).fibre_part)
        b = as_array(curvature(any_conn, e, Y, X).fibre_part)
        assert np.max(np.abs(a + b)) < 1e-10


def test_thm31_internal_identity(any_conn, rng):
    # (H_[u,v] - [H_u, H_v]) o s  vs  -P_V [H_u, H_v] o s
    for _ in range(20):
        s = random_section(any_conn.bundle, rng)
        u = random_base_field(any_conn.bundle, rng)
        v = random_base_field(any_conn.bundle, rng)
        x = random_base_point(any_conn.bundle, rng)
        a = as_array(curv_via_lifts(any_conn, s, u, v, x).fibre_part)
        b = as_array(curv_via_vertical_projection(any_conn, s, u, v, x)
                     .fibre_part)
        assert np.max(np.abs(a - b)) < 1e-9


def test_curv_via_lifts_antisymmetry_and_equal_fields(any_conn, rng):
    s = random_section(any_conn.bundle, rng)
    u = random_base_field(any_conn.bundle, rng)
    v = random_base_field(any_conn.bundle, rng)
    x = random_base_point(any_conn.bundle, rng)
    auv = as_array(curv_via_lifts(any_conn, s, u, v, x).fibre_part)
    avu = as_array(curv_via_lifts(any_conn, s, v, u, x).fibre_part)
    assert np.max(np.abs(auv + avu)) < 1e-10
    assert np.max(np.abs(
        curv_via_lifts(any_conn, s, u, u, x).fibre_part)) < 1e-12


def test_curv_via_lifts_tensorial_in_section(any_conn, rng):
    bundle = any_conn.bundle
    u = random_base_field(bundle, rng)
    v = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    s1 = random_section(bundle, rng)
    sx = [float(c) for c in np.asarray(s1(x), dtype=float)]
    s2 = SectionMap(bundle, lambda c: sx)
    a = as_array(curv_via_lifts(any_conn, s1, u, v, x).fibre_part)
    b = as_array(curv_via_lifts(any_conn, s2, u, v, x).fibre_part)
    assert np.max(np.abs(a - b)) < 1e-11


def test_cocurvature_vanishes(any_conn, rng):
    for _ in range(50):
        e = random_total_point(any_conn.bundle, rng)
        X = random_tangent(any_conn, e, rng)
        Y = random_tangent(any_conn, e, rng)
        val = cocurvature(any_conn, e, X, Y)
        assert np.max(np.abs(val.as_vector())) < 1e-10


def test_tensoriality_explicit_extensions(any_conn, rng):
    def poly(coords):
        m = any_conn.bundle.base_dim
        return coords[0] + coords[m] * coords[m]

    for _ in range(10):
        e = random_total_point(any_conn.bundle, rng)
        X = random_tangent(any_conn, e, rng)
        Y = random_tangent(any_conn, e, rng)
        assert tensoriality_check_curvature(any_conn, e, X, Y, poly) < 1e-9
        const = lambda coords: 1.0
        assert tensoriality_check_curvature(any_conn, e, X, Y, const) < 1e-12
        zero = lambda coords: 0.0
        assert tensoriality_check_curvature(any_conn, e, X, Y, zero) < 1e-15


# -- the covariant-derivative formula -----------------------------------------

def test_covariant_composition_hand_values(flat_conn, sphere_conn,
                                           nonlinear_conn):
    # flat, s(x) = x, u = d1, v = x1 d1: nabla_u nabla_v s = (1, 0) cancels
    # nabla_[u,v] s = (1, 0), where the commutator route leaves (-1, 0)
    fb = flat_conn.bundle
    got = curv_via_covariant_composition(
        flat_conn, SectionMap(fb, lambda x: [x[0], x[1]]),
        BaseVectorField(fb, lambda x: [1.0, 0.0]),
        BaseVectorField(fb, lambda x: [x[0], 0.0]),
        fb.base_point([0.5, -0.3])).fibre_part
    assert np.max(np.abs(got)) < 1e-15
    # sphere, constant section y = (1, 0), coordinate fields: the classical
    # tensor value (0, -1) at every latitude
    sb = sphere_conn.bundle
    for theta in (0.7, math.pi / 3, 2.1):
        got = curv_via_covariant_composition(
            sphere_conn, SectionMap(sb, lambda x: [1.0, 0.0]),
            BaseVectorField(sb, lambda x: [1.0, 0.0]),
            BaseVectorField(sb, lambda x: [0.0, 1.0]),
            sb.base_point([theta, 0.2])).fibre_part
        assert np.max(np.abs(got - np.array([0.0, -1.0]))) < 1e-12
    # nonlinear-demo, constant section y = c, coordinate fields:
    # nabla_u nabla_v s = c + (1 + 3c^2) x1 c, nabla_v nabla_u s = x1 (c + c^3)
    nb = nonlinear_conn.bundle
    c, x1 = 0.5, 0.3
    got = curv_via_covariant_composition(
        nonlinear_conn, SectionMap(nb, lambda x: [c]),
        BaseVectorField(nb, lambda x: [1.0, 0.0]),
        BaseVectorField(nb, lambda x: [0.0, 1.0]),
        nb.base_point([x1, -0.4])).fibre_part
    assert abs(got[0] - (c + 2.0 * x1 * c ** 3)) < 1e-14


def test_covariant_composition_reduces_to_linear_formula(sphere_conn, rng):
    custom = make_custom_christoffel({"G_1_12": 0.3, "G_2_11_x1": -0.2,
                                         "G_1_22": 0.1})
    for conn in (sphere_conn, custom):
        bundle = conn.bundle
        for _ in range(10):
            s = random_section(bundle, rng)
            u = random_base_field(bundle, rng)
            v = random_base_field(bundle, rng)
            x = random_base_point(bundle, rng)
            got = curv_via_covariant_composition(conn, s, u, v, x).fibre_part
            comp = composition_commutator(conn, s, u, v, x)
            assert np.max(np.abs(as_array(got) - as_array(comp))) < 1e-12


# -- the two routes and their exact relationship ------------------------------

def test_routes_agree_when_cross_terms_vanish(flat_conn, rng):
    # flat coefficients + constant section: both routes are identically zero
    bundle = flat_conn.bundle
    s = SectionMap(bundle, lambda x: [0.3, -0.2])
    for _ in range(10):
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        assert np.max(np.abs(
            curv_via_lifts(flat_conn, s, u, v, x).fibre_part)) == 0.0
        assert np.max(np.abs(
            curv_via_covariant(flat_conn, s, u, v, x).fibre_part)) < 1e-15
        assert np.max(np.abs(cross_bracket_sum(flat_conn, s, u, v, x))) < 1e-15


def test_bracket_expansion_identity(any_conn, rng):
    # via_covariant - via_lifts = cross-bracket sum, exactly (bilinearity)
    m = any_conn.bundle.base_dim
    for _ in range(20):
        s = random_section(any_conn.bundle, rng)
        u = random_base_field(any_conn.bundle, rng)
        v = random_base_field(any_conn.bundle, rng)
        x = random_base_point(any_conn.bundle, rng)
        lifts = as_array(curv_via_lifts(any_conn, s, u, v, x).fibre_part)
        cov = as_array(curv_via_covariant(any_conn, s, u, v, x).fibre_part)
        cross = as_array(cross_bracket_sum(any_conn, s, u, v, x))
        assert np.max(np.abs(cross[:m])) < 1e-12
        assert np.max(np.abs(cov - lifts - cross[m:])) < 1e-12


def test_commutator_route_defect_flat_closed_form(flat_conn, rng):
    # with zero coefficients the commutator route evaluates to
    # -Ds(x) [u, v](x): frozen closed form of the defect
    bundle = flat_conn.bundle
    s = SectionMap(bundle, lambda x: [0.25 * x[0] * x[0], x[0] * x[1]])
    u = BaseVectorField(bundle, lambda x: [1.0, 0.0])
    v = BaseVectorField(bundle, lambda x: [x[0], 0.0])  # [u,v] = (1, 0)
    x = bundle.base_point([0.6, -0.3])
    got = curv_via_covariant(flat_conn, s, u, v, x).fibre_part
    ds = np.array([[0.5 * 0.6, 0.0], [-0.3, 0.6]])
    expect = -ds @ np.array([1.0, 0.0])
    assert np.max(np.abs(got - expect)) < 1e-14


def test_commutator_route_defect_sphere_closed_form(sphere_conn):
    # constant section y=(1,0), coordinate fields: the commutator route
    # gives (0, -cot^2 theta) while the curvature is (0, -1)
    bundle = sphere_conn.bundle
    s = SectionMap(bundle, lambda x: [1.0, 0.0])
    u = BaseVectorField(bundle, lambda x: [1.0, 0.0])
    v = BaseVectorField(bundle, lambda x: [0.0, 1.0])
    for theta in (0.7, math.pi / 3, 2.1):
        x = bundle.base_point([theta, 0.2])
        cov = curv_via_covariant(sphere_conn, s, u, v, x).fibre_part
        cot2 = (math.cos(theta) / math.sin(theta)) ** 2
        assert np.max(np.abs(cov - np.array([0.0, -cot2]))) < 1e-12
        lifts = curv_via_lifts(sphere_conn, s, u, v, x).fibre_part
        assert np.max(np.abs(lifts - np.array([0.0, -1.0]))) < 1e-12


def test_theorem41_table_rows():
    # each table row carries both routes, their residual and the size of
    # the cross-bracket sum at the same draw; the defect is that sum
    import zlib
    from fibrum import load_config, run_scenario
    seed = 3
    report = run_scenario(load_config({
        "bundle_name": "sphere", "scenario": "theorem41",
        "scenario_params": {"seed": seed, "samples": 4}}))
    assert len(report.table) == 4
    conn = make_sphere()
    bundle = conn.bundle
    rng = np.random.default_rng([seed, zlib.crc32(b"theorem41")])
    m = bundle.base_dim
    for row in report.table:
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        assert row["point"] == list(x.coords)
        lifts = np.array(row["via_lifts"])
        cov = np.array(row["via_covariant"])
        assert row["residual"] == float(np.max(np.abs(cov - lifts)))
        cross = as_array(cross_bracket_sum(conn, s, u, v, x))
        assert row["cross_residual"] == float(np.max(np.abs(cross)))
        assert np.max(np.abs(cov - lifts - cross[m:])) < 1e-12


# -- one set of jets per draw ------------------------------------------------

def _two_pass_fn(fx, fy):
    """The coordinate bracket as it was before its jets were stacked: one
    ``value_and_jacobian`` pass per field, the body copied verbatim."""
    def ev(coords):
        return jet_bracket(*value_and_jacobian(fx, coords),
                           *value_and_jacobian(fy, coords))
    return ev


def _two_pass_bracket(X, Y):
    """[X, Y] of two total or two base fields, one pass per field."""
    return type(X)(X.bundle, _two_pass_fn(X.fn, Y.fn))


def _routes_from_public_pieces(conn, s, u, v, x):
    """Each route as its own bracket of freshly built fields, sharing
    nothing: (lifts, vertical projection, commutator route, cross sum).
    Every bracket takes one pass per field."""
    e = s.graph(x)
    m = conn.bundle.base_dim
    hu = horizontal_lift_field(conn, u)
    hv = horizontal_lift_field(conn, v)
    nu = extend_covariant_derivative(conn, s, u)
    nv = extend_covariant_derivative(conn, s, v)
    w = _two_pass_bracket(u, v)
    br = _two_pass_bracket(hu, hv)(e)
    lifts = as_array(vec_sub(horizontal_lift_field(conn, w)(e), br)[m:])
    xs, ys = conn.bundle.split(list(e.coords))
    vert = -as_array(vec_add(br[m:], conn.gamma(xs, ys, br[:m])))
    cov = (as_array(_two_pass_bracket(nu, nv)(e)[m:])
           - covariant_derivative(conn, s, w, x))
    cross = as_array(vec_add(_two_pass_bracket(hv, nu)(e),
                                   _two_pass_bracket(nv, hu)(e)))
    return lifts, vert, cov, cross


def _bits(a):
    return [(float(c), math.copysign(1.0, c)) for c in a]


_CONNECTIONS = [
    ("flat", {}),
    ("flat", {"m": 3, "f": 1}),
    ("sphere", {}),
    ("nonlinear-demo", {}),
    ("tm-custom-christoffel", {"G_1_11": 0.2, "G_1_12": -0.15,
                               "G_1_12_x2": 0.08, "G_2_11_x1": -0.06,
                               "G_2_21": 0.11, "G_2_21_x1": 0.04,
                               "G_2_22_x2": -0.09, "G_1_22": 0.05}),
]


def _dividing_section(bundle, rng):
    """A section that divides by a varying quantity, which a pass rounds
    as a product with its reciprocal: its value at x differs from a pass's
    in the last bit."""
    centre = [0.5 * (lo + hi) for lo, hi in zip(bundle.fibre_box.lower,
                                                bundle.fibre_box.upper)]
    a = rng.uniform(0.05, 0.2, len(centre)).tolist()
    return SectionMap(bundle, lambda c: [y + ai / (3.0 + c[0] * c[-1])
                                         for y, ai in zip(centre, a)])


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_shared_jets_bit_equal_to_separate_brackets(name, params):
    conn = build_connection(name, params)
    bundle = conn.bundle
    rng = np.random.default_rng(20261017)
    for k in range(9):
        # the last three draws take a section that divides by a varying
        # quantity: nabla_[u,v] s(x) reads the float layer of the nested
        # pass, where the reference makes a float pass
        s = (random_section(bundle, rng) if k < 6
             else _dividing_section(bundle, rng))
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        lifts, vert, cov, cross = _routes_from_public_pieces(conn, s, u, v, x)
        got = curvature_routes(conn, s, u, v, x)
        for a, b in zip(got, (lifts, cov, cross)):
            assert _bits(a) == _bits(b)
        assert _bits(curv_via_lifts(conn, s, u, v, x).fibre_part) \
            == _bits(lifts)
        assert _bits(curv_via_vertical_projection(conn, s, u, v, x)
                     .fibre_part) == _bits(vert)
        assert _bits(curv_via_covariant(conn, s, u, v, x).fibre_part) \
            == _bits(cov)
        assert _bits(cross_bracket_sum(conn, s, u, v, x)) == _bits(cross)


def _composition_one_pass_per_jet(conn, s, u, v, x):
    """``curv_via_covariant_composition`` as it was before its jets were
    stacked: one pass per jet at x, the body copied verbatim."""
    e = s.graph(x)
    coords = list(x.coords)

    def nabla(w: BaseVectorField):
        return lambda c: _cov_value(conn, s.fn, w.fn, c)

    def nabla_along_s(w_fn, along: BaseVectorField):
        ax = along.fn(coords)
        sx = s.fn(coords)
        wx, jw = value_and_jacobian(w_fn, coords)
        dw = mat_vec(jw, ax)
        dg = derivative(
            lambda t: conn.gamma(coords, vec_add(sx, vec_scale(t, wx)), ax),
            0.0)
        return as_array(vec_add(dw, dg))

    try:
        uv = nabla_along_s(nabla(v), u)
        vu = nabla_along_s(nabla(u), v)
    except (TypeError, AttributeError) as exc:
        raise SecondOrderUnavailableError(
            "differentiating covariant derivatives needs evaluators closed "
            "under nested derivative-carrying scalars") from exc
    w = as_array(nabla(base_lie_bracket(u, v))(coords))
    return VerticalValue(e, uv - vu - w)


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_composition_bit_equal_to_one_pass_per_jet(name, params):
    conn = build_connection(name, params)
    bundle = conn.bundle
    m = bundle.base_dim
    rng = np.random.default_rng(20261019)
    draws = [(random_section(bundle, rng), random_base_field(bundle, rng),
              random_base_field(bundle, rng), random_base_point(bundle, rng))
             for _ in range(6)]
    # divisions by varying quantities, which a pass rounds as products
    # with reciprocals: u, v and s must still enter undifferentiated as
    # their plain float values
    x = random_base_point(bundle, rng)
    centre = [0.5 * (lo + hi) for lo, hi in zip(bundle.fibre_box.lower,
                                                bundle.fibre_box.upper)]
    draws.append((
        SectionMap(bundle, lambda c: [y + 0.1 / (3.0 + c[0]) for y in centre]),
        BaseVectorField(bundle, lambda c: [1.0 / (5.0 + c[-1])] * m),
        BaseVectorField(bundle, lambda c: [c[0] / (4.0 - c[0])] * m), x))
    for s, u, v, x in draws:
        got = curv_via_covariant_composition(conn, s, u, v, x).fibre_part
        ref = _composition_one_pass_per_jet(conn, s, u, v, x).fibre_part
        assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_float_layer_of_nested_section_pass_is_the_float_pass(name, params):
    # the section's jet at x read from its pass nested in a pass at x (or
    # at e = (x, s(x))) has the bits, types and tags of its own float pass
    bundle = build_connection(name, params).bundle
    m = bundle.base_dim
    rng = np.random.default_rng(20261021)
    c = DScalar(0.25, (1.0,))  # a user scalar, tag 0
    sections = [random_section(bundle, rng) for _ in range(4)]
    sections += [_dividing_section(bundle, rng) for _ in range(2)]
    sections.append(SectionMap(bundle, lambda x: [c * x[0] + y for y in
                                                  sections[0].fn(x)]))
    sections.append(SectionMap(bundle, lambda x: [0.5] * bundle.fibre_dim))
    for s in sections:
        x = random_base_point(bundle, rng)
        for point in (list(x.coords), list(s.graph(x).coords)):
            outer = seed_scalars(point)
            got = _float_section_jet(_nested_section_jet(s.fn, outer[:m]),
                                     outer[0].tag)
            want = value_and_jacobian(s.fn, list(x.coords))
            assert_all_bit_equal(got[0], want[0])
            assert len(got[1]) == len(want[1])
            for grow, wrow in zip(*(jet[1] for jet in (got, want))):
                assert type(grow) is list
                assert_all_bit_equal(grow, wrow)


def test_routes_non_finite_section_jacobian_still_raises():
    # a finite s(x) whose Jacobian is NaN at x: every route that takes
    # nabla s raises as the section's own float pass does
    conn = make_flat()
    bundle = conn.bundle
    s = SectionMap(bundle, lambda c: [c[0] * 1e308 * 10.0
                                      - c[0] * 1e308 * 10.0 + 0.1, c[1]])
    u = BaseVectorField(bundle, lambda c: [1.0, c[0]])
    v = BaseVectorField(bundle, lambda c: [c[1], 1.0])
    x = bundle.base_point([1e-3, 0.2])
    assert s(x) == [0.1, 0.2]
    with pytest.raises(NonFiniteOutputError):
        value_and_jacobian(s.fn, list(x.coords))
    for route in (curvature_routes, curv_via_covariant,
                  curv_via_covariant_composition):
        with pytest.raises(NonFiniteOutputError):
            route(conn, s, u, v, x)
    # the float layer of the nested pass is checked as that pass checks it
    outer = seed_scalars(list(x.coords))
    nested = _nested_section_jet(s.fn, outer)
    with pytest.raises(NonFiniteOutputError):
        _float_section_jet(nested, outer[0].tag)


@pytest.mark.parametrize("n", range(1, 7))
def test_compiled_jet_bracket_bit_equal_to_list_form(n):
    # floats, one pass's scalars, nested ones, and each entry drawn from
    # those three (mixed tags), with signed zeros among them
    rng = np.random.default_rng(20261021 + n)
    count = 2 * n + 2 * n * n
    values = rng.uniform(-2.0, 2.0, count).tolist()
    for k in rng.choice(count, size=min(count, 4), replace=False).tolist():
        values[k] = 0.0 if k % 2 else -0.0
    layers = scalar_layers(values)
    picks = rng.integers(0, 3, count).tolist()
    layers.append([layers[p][i] for i, p in enumerate(picks)])
    for entries in layers:
        it = iter(entries)
        xe, ye = ([next(it) for _ in range(n)] for _ in range(2))
        jx, jy = ([[next(it) for _ in range(n)] for _ in range(n)]
                  for _ in range(2))
        assert_all_bit_equal(jet_bracket(xe, jx, ye, jy),
                             list_form_jet_bracket(xe, jx, ye, jy))


def _evaluation_counter():
    """(counter, counted): ``counted(name, fn)`` wraps fn so that each call
    adds one to ``counter[name]``."""
    import collections
    evals = collections.Counter()

    def counted(name, fn):
        def ev(*args):
            evals[name] += 1
            return fn(*args)
        return ev

    return evals, counted


def _counted_connection(conn, counted):
    from fibrum import ConnectionField
    return ConnectionField(conn.bundle, counted("gamma", conn.gamma),
                           conn.kind)


def _float_passes(monkeypatch) -> list:
    """Route ``value_and_jacobian`` through a recorder in every module that
    binds it; each pass at a point of plain floats appends (fn, coords)."""
    import importlib
    from fibrum.calculus import DScalar
    calls = []

    def counting(fn, coords):
        coords = list(coords)
        if not any(isinstance(c, DScalar) for c in coords):
            calls.append((fn, tuple(coords)))
        return value_and_jacobian(fn, coords)

    for name in ("bundle", "calculus", "connection", "curvature",
                 "transport", "catalog", "scenarios"):
        module = importlib.import_module(f"fibrum.{name}")
        if hasattr(module, "value_and_jacobian"):
            monkeypatch.setattr(module, "value_and_jacobian", counting)
    return calls


def test_curvature_routes_take_each_jet_once(nonlinear_conn, monkeypatch):
    # one draw makes one pass at e over the stacked H_u, H_v, N_u and N_v,
    # in which u(x), v(x), gamma(x, y, u(x)), gamma(x, y, v(x)) and the
    # nested Ds(x) are each evaluated once, and reads [u, v](x) from it; the
    # section's jet at x, for nabla_[u,v] s, is the float layer of the
    # nested pass, so there is no other pass at a float point.  The lift
    # routes make one pass at e and none at x
    bundle = nonlinear_conn.bundle
    rng = np.random.default_rng(5)
    evals, counted = _evaluation_counter()
    conn = _counted_connection(nonlinear_conn, counted)
    s = SectionMap(bundle, counted("s", random_section(bundle, rng).fn))
    u, v = (BaseVectorField(bundle, counted(name,
                                            random_base_field(bundle, rng).fn))
            for name in "uv")
    x = random_base_point(bundle, rng)
    e = tuple(s.graph(x).coords)
    calls = _float_passes(monkeypatch)
    evals.clear()
    curvature_routes(conn, s, u, v, x)
    assert [c for _, c in calls] == [e]
    # s: the graph point and the nested Ds; gamma: two in the pass,
    # H_[u,v](e) and nabla_[u,v] s(x)
    assert evals == {"u": 1, "v": 1, "s": 2, "gamma": 4}
    for route in (curv_via_lifts, curv_via_vertical_projection):
        calls.clear()
        evals.clear()
        route(conn, s, u, v, x)
        assert [c for _, c in calls] == [e]
        assert evals["u"] == 1 and evals["v"] == 1 and evals["s"] == 1
    # the composition route: one pass at x over u, v, nabla_v s and
    # nabla_u s, then one pass in t for each of the two d_y gamma terms;
    # nabla_[u,v] s(x) reads the nested pass's float layer too
    calls.clear()
    evals.clear()
    curv_via_covariant_composition(conn, s, u, v, x)
    assert [c for _, c in calls] == [x.coords, (0.0,), (0.0,)]
    # s: the graph point and the nested Ds; u and v: in the pass and as
    # the direction of one d_y gamma term; gamma: two in the pass, one in
    # each d_y gamma pass and nabla_[u,v] s(x)
    assert evals == {"u": 2, "v": 2, "s": 2, "gamma": 5}


# -- one pass per bracket draw ------------------------------------------------
# ``lie_bracket``, ``base_lie_bracket``, ``curvature`` and
# ``tensoriality_check_curvature`` read every jet of a draw from one stacked
# pass; each must keep the bits, the types and the errors of one pass per
# field.

def _curvature_two_passes(conn, e, X, Y):
    """``curvature`` before its jets were stacked, the body copied verbatim
    with ``lie_bracket`` replaced by the two-pass bracket."""
    if X.anchor is not e or Y.anchor is not e:
        if X.anchor.coords != e.coords or Y.anchor.coords != e.coords:
            raise DomainError("curvature arguments must be anchored at e")
    hx = _const_lift_field(conn, X.base_part)
    hy = _const_lift_field(conn, Y.base_part)
    br = _two_pass_bracket(hx, hy)(e)
    return VerticalValue(e, -as_array(_pv_apply(conn, e, br)))


def _tensoriality_two_passes(conn, e, X, Y, scalar_field):
    """``tensoriality_check_curvature`` before its jets were stacked, the
    body copied verbatim with ``lie_bracket`` replaced by the two-pass
    bracket."""
    hx = _const_lift_field(conn, X.base_part)
    hy = _const_lift_field(conn, Y.base_part)

    def scaled(field):
        def ev(coords):
            f = scalar_field(coords)
            return vec_scale(f, field.fn(coords))
        return TotalVectorField(conn.bundle, ev)

    fe = float(scalar_field([float(c) for c in e.coords]))
    base_val = -as_array(_pv_apply(conn, e,
                                         _two_pass_bracket(hx, hy)(e)))
    worst = 0.0
    for bracket in (_two_pass_bracket(scaled(hx), hy),
                    _two_pass_bracket(hx, scaled(hy))):
        val = -as_array(_pv_apply(conn, e, bracket(e)))
        worst = max(worst, float(np.max(np.abs(val - fe * base_val))))
    return worst


def _same_entries(got, want):
    """Equal lists entry by entry: the same type and the same bits, signed
    zeros included; DScalar entries compared layer by layer (their tags
    number the passes of one run, so they are not compared)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(g, DScalar):
            _same_entries([g.value], [w.value])
            _same_entries(g.grad, w.grad)
        else:
            assert float(g).hex() == float(w).hex()


def _same_bracket(got, want):
    """A public bracket's value against the two-pass reference's: where the
    reference, contracting float ndarray Jacobians, holds a numpy float64,
    the package's own passes, which contract lists of float rows, hold a
    Python float with the same bits."""
    want = list(want)
    for i, (g, w) in enumerate(zip(got, want)):
        if type(w) is np.float64:
            assert type(g) is float
            want[i] = float(w)
    _same_entries(got, want)


def _same_jet(got, want):
    (gv, gj), (wv, wj) = got, want
    _same_entries(gv, wv)
    assert type(gj) is type(wj)
    for grow, wrow in zip(gj, wj):
        _same_entries(list(grow), list(wrow))


def _reciprocal_fields(bundle):
    """A total and a base field that divide by varying quantities, which a
    pass rounds as products with reciprocals."""
    m, n = bundle.base_dim, bundle.total_dim
    X = TotalVectorField(bundle, lambda c: [c[(i + 1) % n] / (3.0 + c[i])
                                            for i in range(n)])
    u = BaseVectorField(bundle, lambda c: [1.0 / (4.0 - c[i] * c[0])
                                           for i in range(m)])
    return X, u


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_brackets_bit_equal_to_two_passes(name, params):
    conn = build_connection(name, params)
    bundle = conn.bundle
    rng = np.random.default_rng(20261021)
    for _ in range(4):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        e = random_total_point(bundle, rng)
        hu = horizontal_lift_field(conn, u)
        hv = horizontal_lift_field(conn, v)
        nu = extend_covariant_derivative(conn, s, u)
        nv = extend_covariant_derivative(conn, s, v)
        X, w = _reciprocal_fields(bundle)
        for A, B in ((hu, hv), (hv, nu), (nu, nv), (X, hu), (nv, X)):
            _same_bracket(lie_bracket(A, B)(e), _two_pass_bracket(A, B)(e))
        for a, b in ((u, v), (w, u), (v, w)):
            _same_bracket(base_lie_bracket(a, b)(x),
                          _two_pass_bracket(a, b)(x))
        # a bracket of a bracket: the outer pass's scalars reach the inner
        # pass as coordinates
        _same_bracket(
            lie_bracket(lie_bracket(hu, hv), nu)(e),
            _two_pass_bracket(_two_pass_bracket(hu, hv), nu)(e))
        _same_bracket(
            base_lie_bracket(u, base_lie_bracket(v, w))(x),
            _two_pass_bracket(u, _two_pass_bracket(v, w))(x))


def test_bracket_over_captured_scalars_bit_equal_to_two_passes():
    # inside an enclosing pass, X captures its scalars and Y does not: the
    # stacked pass at q is nested through X's values only
    bundle = make_flat().bundle
    q = [0.3, -0.4, 0.2, 0.5]
    inner = {}

    def outer(bracket):
        def fn(c):
            X = TotalVectorField(bundle, lambda e: [
                c[0] * sin(e[1]), e[0] / (2.0 + c[1] * e[2]), 0.5, e[3] * e[0]])
            Y = TotalVectorField(bundle, lambda e: [
                e[2], sin(e[0]) * e[3], e[1] / (3.0 + e[0]), -e[0]])
            inner[bracket] = (bracket(X, Y)(q), bracket(Y, X)(c))
            return bracket(X, Y)(q) + bracket(Y, X)(c) + bracket(X, X)(c)
        return fn

    p = [0.7, -0.2, 0.4, 0.1]
    got = value_and_jacobian(outer(lie_bracket), p)
    want = value_and_jacobian(outer(_two_pass_bracket), p)
    _same_jet(got, want)
    for g, w in zip(inner[lie_bracket], inner[_two_pass_bracket]):
        _same_bracket(g, w)


def test_bracket_non_finite_jacobian_still_raises():
    from fibrum.errors import NonFiniteOutputError
    bundle = make_flat().bundle
    e = [1e-3, 0.2, 0.1, 0.3]
    # finite value 1e306, derivative 1e308 * 10 = inf
    big = TotalVectorField(bundle, lambda q: [q[0] * 1e308 * 10.0, q[1],
                                              0.0, 1.0])
    tame = TotalVectorField(bundle, lambda q: [q[1], q[0], 1.0, 0.0])
    for X, Y in ((big, tame), (tame, big)):
        for bracket in (lie_bracket, _two_pass_bracket):
            with pytest.raises(NonFiniteOutputError):
                bracket(X, Y)(e)
    u = BaseVectorField(bundle, lambda x: [x[0] * 1e308 * 10.0, 1.0])
    v = BaseVectorField(bundle, lambda x: [x[1], x[0]])
    for bracket in (base_lie_bracket, _two_pass_bracket):
        with pytest.raises(NonFiniteOutputError):
            bracket(u, v)(e[:2])
    # a field that captures a user scalar makes the stacked pass nested;
    # the other field's Jacobian is still checked as its own pass checks it
    c = DScalar(0.5, (1.0,))
    captures = TotalVectorField(bundle, lambda q: [c * q[1], q[0], 0.0, 1.0])
    for bracket in (lie_bracket, _two_pass_bracket):
        with pytest.raises(NonFiniteOutputError):
            bracket(captures, big)(e)


def _tangents(conn, e, rng, k):
    return [random_tangent(conn, e, rng) for _ in range(k)]


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_curvature_bit_equal_to_two_passes(name, params):
    conn = build_connection(name, params)
    rng = np.random.default_rng(20261022)
    for _ in range(6):
        e = random_total_point(conn.bundle, rng)
        X, Y, Z = _tangents(conn, e, rng, 3)
        a, b = rng.uniform(-2.0, 2.0, 2).tolist()
        assert _bits(curvature(conn, e, X, Y).fibre_part) \
            == _bits(_curvature_two_passes(conn, e, X, Y).fibre_part)
        # the antisymmetry row's four values from one pass, against four
        # separate calls as the row once made them
        mix = TotalTangent(
            e, [a * p + b * q for p, q in zip(X.base_part, Z.base_part)],
            [a * p + b * q for p, q in zip(X.fibre_part, Z.fibre_part)])
        got = _curvature_pairs(
            conn, e, [X.base_part, Y.base_part, Z.base_part, mix.base_part],
            [(0, 1), (1, 0), (3, 1), (2, 1)])
        want = [_curvature_two_passes(conn, e, P, Q).fibre_part
                for P, Q in ((X, Y), (Y, X), (mix, Y), (Z, Y))]
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w)


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_tensoriality_bit_equal_to_two_passes(name, params):
    conn = build_connection(name, params)
    bundle = conn.bundle
    m = bundle.base_dim
    rng = np.random.default_rng(20261023)
    scalars = [random_total_scalar_field(bundle, rng) for _ in range(2)]
    scalars += [lambda c: c[0] + c[m] * c[m],
                lambda c: 1.0 / (3.0 + c[0] * c[m]),
                lambda c: 1.0]
    for scalar in scalars:
        for _ in range(3):
            e = random_total_point(bundle, rng)
            X, Y = _tangents(conn, e, rng, 2)
            got = tensoriality_check_curvature(conn, e, X, Y, scalar)
            want = _tensoriality_two_passes(conn, e, X, Y, scalar)
            assert _bits([got]) == _bits([want])


def test_lie_bracket_takes_one_pass(nonlinear_conn, rng, monkeypatch):
    bundle = nonlinear_conn.bundle
    s = random_section(bundle, rng)
    u = random_base_field(bundle, rng)
    v = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    e = random_total_point(bundle, rng)
    hu = horizontal_lift_field(nonlinear_conn, u)
    nv = extend_covariant_derivative(nonlinear_conn, s, v)
    calls = _float_passes(monkeypatch)
    lie_bracket(hu, nv)(e)
    assert [c for _, c in calls] == [e.coords]
    calls.clear()
    # the inner bracket's pass runs at the outer pass's scalars
    lie_bracket(lie_bracket(hu, nv), hu)(e)
    assert [c for _, c in calls] == [e.coords]
    calls.clear()
    base_lie_bracket(u, v)(x)
    assert [c for _, c in calls] == [x.coords]


def test_curvature_takes_one_pass(nonlinear_conn, rng, monkeypatch):
    evals, counted = _evaluation_counter()
    conn = _counted_connection(nonlinear_conn, counted)
    e = random_total_point(conn.bundle, rng)
    X, Y = _tangents(conn, e, rng, 2)
    calls = _float_passes(monkeypatch)
    curvature(conn, e, X, Y)
    assert [c for _, c in calls] == [e.coords]
    # gamma: H_X and H_Y in the pass, then P_V at e
    assert evals == {"gamma": 3}


def test_curvature_antisymmetry_draw_takes_one_pass(nonlinear_conn,
                                                    monkeypatch):
    from fibrum.config import load_config
    from fibrum.scenarios import CHECKS, Subject
    evals, counted = _evaluation_counter()
    sub = Subject(load_config({"bundle_name": "nonlinear-demo",
                               "scenario": "verify-all"}))
    sub.conn = _counted_connection(sub.conn, counted)
    calls = _float_passes(monkeypatch)
    CHECKS["curvature_antisymmetry"].run(sub, np.random.default_rng(3), 1)
    # R(X, Y), R(Y, X), R(mix, Y) and R(Z, Y) from one pass over the four
    # lifts at the drawn total point, then P_V at it once per value
    assert len(calls) == 1 and len(calls[0][1]) == sub.bundle.total_dim
    assert evals == {"gamma": 8}


def test_tensoriality_takes_one_pass(nonlinear_conn, rng, monkeypatch):
    evals, counted = _evaluation_counter()
    conn = _counted_connection(nonlinear_conn, counted)
    e = random_total_point(conn.bundle, rng)
    X, Y = _tangents(conn, e, rng, 2)
    scalar = counted("f", random_total_scalar_field(conn.bundle, rng))
    calls = _float_passes(monkeypatch)
    tensoriality_check_curvature(conn, e, X, Y, scalar)
    assert [c for _, c in calls] == [e.coords]
    # f: once in the pass, once for f(e); gamma: H_X and H_Y in the pass,
    # then P_V at e for each of the three brackets
    assert evals == {"f": 2, "gamma": 5}


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_route_and_bracket_dots_take_python_floats(name, params,
                                                   monkeypatch):
    # the scalar products of a curvature_routes draw and of a bracket
    # evaluation multiply Python floats (or derivative-carrying scalars),
    # never numpy arrays or numpy float64 scalars: the compiled kernel of
    # jet_bracket and mat_vec's dot take none
    import fibrum.bundle
    import fibrum.calculus
    conn = build_connection(name, params)
    bundle = conn.bundle
    rng = np.random.default_rng(20261022)
    seen = set()

    def check(vectors):
        for vec in vectors:
            assert type(vec) is not np.ndarray
            assert not any(type(c) is np.float64 for c in vec)

    dot = fibrum.calculus.dot

    def checked_dot(a, b):
        check((a, b))
        seen.add("fibrum.calculus")
        return dot(a, b)

    bracket_kernel = fibrum.bundle._bracket_kernel

    def checked_kernel(n):
        kernel = bracket_kernel(n)

        def fn(xe, jx, ye, jy):
            check((jx, jy))
            check((xe, ye, *jx, *jy))
            seen.add("fibrum.bundle")
            return kernel(xe, jx, ye, jy)
        return fn

    monkeypatch.setattr(fibrum.calculus, "dot", checked_dot)  # mat_vec
    monkeypatch.setattr(fibrum.bundle, "_bracket_kernel", checked_kernel)
    for _ in range(3):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        e = random_total_point(bundle, rng)
        curvature_routes(conn, s, u, v, x)
        lie_bracket(horizontal_lift_field(conn, u),
                    extend_covariant_derivative(conn, s, v))(e)
        base_lie_bracket(u, v)(x)
    assert seen == {"fibrum.bundle", "fibrum.calculus"}


def test_second_order_required_error(flat_conn):
    # an evaluator that breaks under derivative-carrying input surfaces as
    # the dedicated second-order error when a covariant-derivative route
    # needs it, and only then: the lift routes never differentiate the
    # section's derivative
    import math as pymath
    bundle = flat_conn.bundle
    bad = SectionMap(bundle, lambda x: [pymath.sin(x[0]), 0.0])  # not closed
    u = BaseVectorField(bundle, lambda x: [1.0, 0.0])
    v = BaseVectorField(bundle, lambda x: [0.0, 1.0])
    x = bundle.base_point([0.1, 0.2])
    for route in (curv_via_covariant, curv_via_covariant_composition,
                  cross_bracket_sum, curvature_routes):
        with pytest.raises(SecondOrderUnavailableError):
            route(flat_conn, bad, u, v, x)
    for route in (curv_via_lifts, curv_via_vertical_projection):
        assert np.all(as_array(route(flat_conn, bad, u, v, x).fibre_part)
                      == 0.0)
    # a base field that breaks under a first-order pass is no second-order
    # failure: the error it raises passes through unchanged
    bad_u = BaseVectorField(bundle, lambda x: [pymath.sin(x[0]), 0.0])
    s = SectionMap(bundle, lambda x: [x[0], x[1]])
    for route in (curv_via_lifts, curvature_routes):
        with pytest.raises(TypeError):
            route(flat_conn, s, bad_u, v, x)


# -- linear specialization (compositions, torsion, Leibniz) -------------------

def test_composition_commutator_equals_curvature(sphere_conn, rng):
    bundle = sphere_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        comp = as_array(composition_commutator(sphere_conn, s, u, v, x))
        lifts = as_array(curv_via_lifts(sphere_conn, s, u, v, x).fibre_part)
        assert np.max(np.abs(comp - lifts)) < 1e-8


def test_second_covariant_torsion_form(sphere_conn, rng):
    bundle = sphere_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        d2uv = as_array(second_covariant_derivative(sphere_conn, s, u, v, x))
        d2vu = as_array(second_covariant_derivative(sphere_conn, s, v, u, x))
        tors = torsion(sphere_conn, u, v, x)
        w = BaseVectorField(bundle, lambda c, _t=tors: list(_t))
        nt = as_array(covariant_derivative(sphere_conn, s, w, x))
        lifts = as_array(curv_via_lifts(sphere_conn, s, u, v, x).fibre_part)
        assert np.max(np.abs(d2uv - d2vu + nt - lifts)) < 1e-8


def test_second_covariant_symmetric_slot(sphere_conn, rng):
    # u = v: the curvature contribution cancels and the two orders agree
    bundle = sphere_conn.bundle
    s = random_section(bundle, rng)
    u = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    d2 = second_covariant_derivative(sphere_conn, s, u, u, x)
    assert np.max(np.abs(
        curv_via_lifts(sphere_conn, s, u, u, x).fibre_part)) < 1e-12
    assert np.all(np.isfinite(d2))


def test_sphere_torsion_free(sphere_conn, rng):
    for _ in range(10):
        u = random_base_field(sphere_conn.bundle, rng)
        v = random_base_field(sphere_conn.bundle, rng)
        x = random_base_point(sphere_conn.bundle, rng)
        assert np.max(np.abs(torsion(sphere_conn, u, v, x))) < 1e-12


def test_torsion_asymmetric_hand_value():
    # G^1_12 = 1, all others zero; constant coordinate fields:
    # T^a = G^a_bc u^b v^c - G^a_cb u^b v^c -> T = (1, 0)
    conn = make_custom_christoffel({"G_1_12": 1.0})
    bundle = conn.bundle
    u = BaseVectorField(bundle, lambda x: [1.0, 0.0])
    v = BaseVectorField(bundle, lambda x: [0.0, 1.0])
    x = bundle.base_point([0.3, -0.4])
    t = as_array(torsion(conn, u, v, x))
    assert np.max(np.abs(t - np.array([1.0, 0.0]))) < 1e-14
    assert np.max(np.abs(as_array(torsion(conn, v, u, x)) + t)) < 1e-14
    assert np.max(np.abs(torsion(conn, u, u, x))) == 0.0


def test_torsion_requires_tangent_configuration(nonlinear_conn, rng):
    u = random_base_field(nonlinear_conn.bundle, rng)
    x = random_base_point(nonlinear_conn.bundle, rng)
    with pytest.raises(TangentBundleRequiredError):
        torsion(nonlinear_conn, u, u, x)


def test_second_covariant_derivative_requires_tangent_configuration(rng):
    conn = make_flat(m=2, f=3)
    bundle = conn.bundle
    s = random_section(bundle, rng)
    u = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    with pytest.raises(TangentBundleRequiredError):
        second_covariant_derivative(conn, s, u, u, x)


def test_linear_gates_reject_nonlinear(nonlinear_conn, rng):
    bundle = nonlinear_conn.bundle
    s = random_section(bundle, rng)
    u = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    with pytest.raises(LinearityRequiredError):
        second_covariant_derivative(nonlinear_conn, s, u, u, x)
    with pytest.raises(LinearityRequiredError):
        leibniz_check(nonlinear_conn, s, lambda c: 1.0, u, x)


def test_leibniz_rule(sphere_conn, rng):
    bundle = sphere_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        assert leibniz_check(sphere_conn, s, lambda c: sin(c[0]), v, x) < 1e-10
        assert leibniz_check(sphere_conn, s, lambda c: 1.0, v, x) < 1e-14
        assert leibniz_check(sphere_conn, s, lambda c: 2.5, v, x) < 1e-14


def test_base_covariant_derivative_classical(sphere_conn):
    # nabla_{d_theta} d_phi on the round sphere = cot(theta) d_phi
    bundle = sphere_conn.bundle
    u = BaseVectorField(bundle, lambda x: [1.0, 0.0])
    v = BaseVectorField(bundle, lambda x: [0.0, 1.0])
    w = base_covariant_derivative(sphere_conn, u, v)
    theta = 1.2
    got = np.array(w([theta, 0.5]), dtype=float)
    assert np.max(np.abs(got - np.array([0.0, math.cos(theta)
                                         / math.sin(theta)]))) < 1e-14
