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
                    as_float_array, base_covariant_derivative,
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
from fibrum.calculus import (derivative, mat_vec, value_and_jacobian,
                             vec_scale)
from fibrum.connection import _cov_value
from fibrum.curvature import VerticalValue
from fibrum.errors import (LinearityRequiredError,
                           SecondOrderUnavailableError,
                           TangentBundleRequiredError)


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
        a = curvature(any_conn, e, X, Y).fibre_part
        b = curvature(any_conn, e, Y, X).fibre_part
        assert np.max(np.abs(a + b)) < 1e-10


def test_thm31_internal_identity(any_conn, rng):
    # (H_[u,v] - [H_u, H_v]) o s  vs  -P_V [H_u, H_v] o s
    for _ in range(20):
        s = random_section(any_conn.bundle, rng)
        u = random_base_field(any_conn.bundle, rng)
        v = random_base_field(any_conn.bundle, rng)
        x = random_base_point(any_conn.bundle, rng)
        a = curv_via_lifts(any_conn, s, u, v, x).fibre_part
        b = curv_via_vertical_projection(any_conn, s, u, v, x).fibre_part
        assert np.max(np.abs(a - b)) < 1e-9


def test_curv_via_lifts_antisymmetry_and_equal_fields(any_conn, rng):
    s = random_section(any_conn.bundle, rng)
    u = random_base_field(any_conn.bundle, rng)
    v = random_base_field(any_conn.bundle, rng)
    x = random_base_point(any_conn.bundle, rng)
    auv = curv_via_lifts(any_conn, s, u, v, x).fibre_part
    avu = curv_via_lifts(any_conn, s, v, u, x).fibre_part
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
    a = curv_via_lifts(any_conn, s1, u, v, x).fibre_part
    b = curv_via_lifts(any_conn, s2, u, v, x).fibre_part
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
            assert np.max(np.abs(got - comp)) < 1e-12


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
        lifts = curv_via_lifts(any_conn, s, u, v, x).fibre_part
        cov = curv_via_covariant(any_conn, s, u, v, x).fibre_part
        cross = cross_bracket_sum(any_conn, s, u, v, x)
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
        cross = cross_bracket_sum(conn, s, u, v, x)
        assert row["cross_residual"] == float(np.max(np.abs(cross)))
        assert np.max(np.abs(cov - lifts - cross[m:])) < 1e-12


# -- one set of jets per draw ------------------------------------------------

def _routes_from_public_pieces(conn, s, u, v, x):
    """Each route as its own bracket of freshly built fields, sharing
    nothing: (lifts, vertical projection, commutator route, cross sum)."""
    e = s.graph(x)
    m = conn.bundle.base_dim
    hu = horizontal_lift_field(conn, u)
    hv = horizontal_lift_field(conn, v)
    nu = extend_covariant_derivative(conn, s, u)
    nv = extend_covariant_derivative(conn, s, v)
    w = base_lie_bracket(u, v)
    br = lie_bracket(hu, hv)(e)
    lifts = as_float_array(vec_sub(horizontal_lift_field(conn, w)(e), br)[m:])
    xs, ys = conn.bundle.split(list(e.coords))
    vert = -as_float_array(vec_add(br[m:], conn.gamma(xs, ys, br[:m])))
    cov = (as_float_array(lie_bracket(nu, nv)(e)[m:])
           - covariant_derivative(conn, s, w, x))
    cross = as_float_array(vec_add(lie_bracket(hv, nu)(e),
                                   lie_bracket(nv, hu)(e)))
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


@pytest.mark.parametrize("name,params", _CONNECTIONS)
def test_shared_jets_bit_equal_to_separate_brackets(name, params):
    conn = build_connection(name, params)
    bundle = conn.bundle
    rng = np.random.default_rng(20261017)
    for _ in range(6):
        s = random_section(bundle, rng)
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
        return as_float_array(vec_add(dw, dg))

    try:
        uv = nabla_along_s(nabla(v), u)
        vu = nabla_along_s(nabla(u), v)
    except (TypeError, AttributeError) as exc:
        raise SecondOrderUnavailableError(
            "differentiating covariant derivatives needs evaluators closed "
            "under nested derivative-carrying scalars") from exc
    w = as_float_array(nabla(base_lie_bracket(u, v))(coords))
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


def test_curvature_routes_take_each_jet_once(nonlinear_conn, monkeypatch):
    # one draw makes one pass at e over the stacked H_u, H_v, N_u and N_v,
    # in which u(x), v(x), gamma(x, y, u(x)), gamma(x, y, v(x)) and the
    # nested Ds(x) are each evaluated once, and reads [u, v](x) from it; the
    # only other pass at a float point is the section's at x, for
    # nabla_[u,v] s.  The lift routes make one pass at e and none at x
    import collections
    import importlib
    from fibrum import ConnectionField
    from fibrum.calculus import DScalar
    bundle = nonlinear_conn.bundle
    rng = np.random.default_rng(5)
    evals = collections.Counter()

    def counted(name, fn):
        def ev(*args):
            evals[name] += 1
            return fn(*args)
        return ev

    conn = ConnectionField(bundle, counted("gamma", nonlinear_conn.gamma),
                           nonlinear_conn.kind)
    s = SectionMap(bundle, counted("s", random_section(bundle, rng).fn))
    u, v = (BaseVectorField(bundle, counted(name,
                                            random_base_field(bundle, rng).fn))
            for name in "uv")
    x = random_base_point(bundle, rng)
    e = tuple(s.graph(x).coords)
    calls = []

    def counting(fn, coords):
        coords = list(coords)
        if not any(isinstance(c, DScalar) for c in coords):
            calls.append((fn, tuple(coords)))
        return value_and_jacobian(fn, coords)

    for name in ("bundle", "calculus", "connection", "curvature"):
        monkeypatch.setattr(importlib.import_module(f"fibrum.{name}"),
                            "value_and_jacobian", counting)
    evals.clear()
    curvature_routes(conn, s, u, v, x)
    assert [c for _, c in calls] == [e, x.coords]
    assert calls[1][0] is s.fn
    # s: the graph point, the nested Ds and the float pass at x; gamma:
    # two in the pass, H_[u,v](e) and nabla_[u,v] s(x)
    assert evals == {"u": 1, "v": 1, "s": 3, "gamma": 4}
    for route in (curv_via_lifts, curv_via_vertical_projection):
        calls.clear()
        evals.clear()
        route(conn, s, u, v, x)
        assert [c for _, c in calls] == [e]
        assert evals["u"] == 1 and evals["v"] == 1 and evals["s"] == 1


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
        assert np.all(route(flat_conn, bad, u, v, x).fibre_part == 0.0)
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
        comp = composition_commutator(sphere_conn, s, u, v, x)
        lifts = curv_via_lifts(sphere_conn, s, u, v, x).fibre_part
        assert np.max(np.abs(comp - lifts)) < 1e-8


def test_second_covariant_torsion_form(sphere_conn, rng):
    bundle = sphere_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        d2uv = second_covariant_derivative(sphere_conn, s, u, v, x)
        d2vu = second_covariant_derivative(sphere_conn, s, v, u, x)
        tors = torsion(sphere_conn, u, v, x)
        w = BaseVectorField(bundle, lambda c, _t=tors: list(_t))
        nt = covariant_derivative(sphere_conn, s, w, x)
        lifts = curv_via_lifts(sphere_conn, s, u, v, x).fibre_part
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
    t = torsion(conn, u, v, x)
    assert np.max(np.abs(t - np.array([1.0, 0.0]))) < 1e-14
    assert np.max(np.abs(torsion(conn, v, u, x) + t)) < 1e-14
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
