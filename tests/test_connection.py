"""Projectors, lifts, natural and covariant derivatives, extensions."""

import math

import numpy as np
import pytest

from fibrum import (BaseVectorField, ConnectionField, ConnectionKind,
                    SectionMap, check_p_related, covariant_derivative,
                    extend_covariant_derivative, extend_natural_derivative,
                    horizontal_lift, horizontal_lift_field,
                    horizontal_projector, lift_rank_check, make_flat,
                    natural_derivative, random_base_field,
                    random_base_point, random_section, random_total_point,
                    section_jet, vertical_projector)

from conftest import (as_array, assert_all_bit_equal, list_form_lift_field,
                      scalar_layers)


def test_flat_vertical_projector_block(flat_conn):
    e = flat_conn.bundle.total_point([0.1, 0.2, 0.3, 0.4])
    pv = vertical_projector(flat_conn, e)
    expect = np.zeros((4, 4))
    expect[2:, 2:] = np.eye(2)
    assert np.array_equal(pv, expect)


def test_projector_fixes_vertical_vectors(any_conn, rng):
    for _ in range(10):
        e = random_total_point(any_conn.bundle, rng)
        pv = vertical_projector(any_conn, e)
        m = any_conn.bundle.base_dim
        w = np.concatenate([np.zeros(m),
                            rng.uniform(-1, 1, any_conn.bundle.fibre_dim)])
        assert np.max(np.abs(pv @ w - w)) == 0.0


def test_sphere_projector_at_equator(sphere_conn):
    # all Christoffels vanish at theta = pi/2, so P_V is the flat block form
    e = sphere_conn.bundle.total_point([math.pi / 2, 0.0, 1.0, 0.0])
    pv = vertical_projector(sphere_conn, e)
    expect = np.zeros((4, 4))
    expect[2:, 2:] = np.eye(2)
    assert np.max(np.abs(pv - expect)) < 1e-16


def test_projector_algebra(any_conn, rng):
    m, f = any_conn.bundle.base_dim, any_conn.bundle.fibre_dim
    eye = np.eye(m + f)
    for _ in range(50):
        e = random_total_point(any_conn.bundle, rng)
        pv = vertical_projector(any_conn, e)
        ph = horizontal_projector(any_conn, e)
        assert np.max(np.abs(pv @ pv - pv)) < 1e-12
        assert np.max(np.abs(ph @ ph - ph)) < 1e-12
        assert np.max(np.abs(pv @ ph)) < 1e-12
        assert np.max(np.abs(ph @ pv)) < 1e-12
        assert np.max(np.abs(pv + ph - eye)) < 1e-12
        assert np.linalg.matrix_rank(pv, tol=1e-8) == f
        assert np.linalg.matrix_rank(ph, tol=1e-8) == m


def test_lift_zero_vector(any_conn, rng):
    e = random_total_point(any_conn.bundle, rng)
    t = horizontal_lift(any_conn, e, [0.0] * any_conn.bundle.base_dim)
    assert np.max(np.abs(t.as_vector())) == 0.0


def test_flat_lift_is_base_only(flat_conn):
    e = flat_conn.bundle.total_point([0.0, 0.0, 1.0, -1.0])
    t = horizontal_lift(flat_conn, e, [0.7, -0.2])
    assert np.array_equal(t.base_part, [0.7, -0.2])
    assert np.array_equal(t.fibre_part, [0.0, 0.0])


def test_sphere_lift_hand_value(sphere_conn):
    # at (theta, phi) = (pi/4, 0), y = (1, 0), v = d_phi:
    # fibre part = -(G^th_.. , G^ph_phi,theta y^th) = (0, -cot(pi/4)) = (0,-1)
    e = sphere_conn.bundle.total_point([math.pi / 4, 0.0, 1.0, 0.0])
    t = horizontal_lift(sphere_conn, e, [0.0, 1.0])
    assert np.max(np.abs(t.base_part - np.array([0.0, 1.0]))) == 0.0
    assert np.max(np.abs(t.fibre_part - np.array([0.0, -1.0]))) < 1e-15


def test_lift_linearity(any_conn, rng):
    m = any_conn.bundle.base_dim
    for _ in range(10):
        e = random_total_point(any_conn.bundle, rng)
        u = rng.uniform(-1, 1, m)
        v = rng.uniform(-1, 1, m)
        a, b = rng.uniform(-2, 2, 2)
        lhs = as_array(horizontal_lift(any_conn, e, a * u + b * v)
                       .as_vector())
        rhs = a * as_array(horizontal_lift(any_conn, e, u).as_vector()) \
            + b * as_array(horizontal_lift(any_conn, e, v).as_vector())
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_natural_derivative_hand_value(flat_conn):
    # m=2, f=1-style example realized on the 2+2 flat chart by ignoring the
    # second fibre slot: s(x) = (x1 x2, 0), v = (1,1), x = (2,3)/2 scaled in
    bundle = flat_conn.bundle
    s = SectionMap(bundle, lambda x: [x[0] * x[1], 0.0])
    v = BaseVectorField(bundle, lambda x: [1.0, 1.0])
    x = bundle.base_point([0.5, 0.8])
    nat = natural_derivative(s, v, x)
    # D(x1 x2) (1,1) = x2 + x1 = 1.3
    assert np.max(np.abs(nat.base_part - np.array([1.0, 1.0]))) == 0.0
    assert abs(nat.fibre_part[0] - 1.3) < 1e-15
    assert nat.anchor.coords == (0.5, 0.8, 0.4, 0.0)


def test_natural_derivative_constant_section(any_conn, rng):
    bundle = any_conn.bundle
    yc = 0.5 * (np.asarray(bundle.fibre_box.lower)
                + np.asarray(bundle.fibre_box.upper))
    s = SectionMap(bundle, lambda x: list(yc))
    v = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    nat = natural_derivative(s, v, x)
    assert np.max(np.abs(nat.fibre_part)) == 0.0


def test_split_law(any_conn, rng):
    for _ in range(20):
        s = random_section(any_conn.bundle, rng)
        v = random_base_field(any_conn.bundle, rng)
        x = random_base_point(any_conn.bundle, rng)
        nat = natural_derivative(s, v, x)
        cov = as_array(covariant_derivative(any_conn, s, v, x))
        lift = horizontal_lift(any_conn, s.graph(x), v(x))
        assert np.max(np.abs(as_array(nat.base_part)
                             - as_array(lift.base_part))) < 1e-14
        assert np.max(np.abs(as_array(nat.fibre_part) - cov
                             - as_array(lift.fibre_part))) < 1e-12


def test_derivatives_from_a_shared_jet_bit_equal(any_conn, rng):
    # one section_jet serves both derivatives with the bits each takes from
    # a pass of its own, signed zeros included
    bundle = any_conn.bundle
    m = bundle.base_dim
    zero = BaseVectorField(bundle, lambda x: [-0.0] * m)
    for k in range(20):
        s = random_section(bundle, rng)
        v = zero if k == 0 else random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        jet = section_jet(s, x)
        nat, shared = natural_derivative(s, v, x), natural_derivative(s, v, x,
                                                                      jet)
        assert shared.anchor == nat.anchor
        assert _bits(shared.base_part) == _bits(nat.base_part)
        assert _bits(shared.fibre_part) == _bits(nat.fibre_part)
        assert (_bits(covariant_derivative(any_conn, s, v, x, jet))
                == _bits(covariant_derivative(any_conn, s, v, x)))


def _bits(values) -> bytes:
    return as_array(values).tobytes()


@pytest.mark.parametrize("row", ["split_law", "covariant_tensoriality_in_v"])
def test_section_rows_take_one_pass_per_sample(row, monkeypatch):
    # both derivatives of a draw read Ds(x) from one pass
    import importlib
    from fibrum.calculus import value_and_jacobian
    from fibrum.config import load_config
    from fibrum.scenarios import CHECKS, Subject
    sub = Subject(load_config({"bundle_name": "nonlinear-demo",
                               "scenario": "verify-all"}))
    calls = []

    def counting(fn, coords):
        calls.append(fn)
        return value_and_jacobian(fn, coords)

    for name in ("calculus", "connection", "scenarios"):
        module = importlib.import_module(f"fibrum.{name}")
        if hasattr(module, "value_and_jacobian"):
            monkeypatch.setattr(module, "value_and_jacobian", counting)
    CHECKS[row].run(sub, np.random.default_rng(3), 4)
    assert len(calls) == 4


def test_sphere_covariant_derivative_hand_value(sphere_conn):
    s = SectionMap(sphere_conn.bundle, lambda x: [1.0, 0.0])
    v = BaseVectorField(sphere_conn.bundle, lambda x: [0.0, 1.0])
    x = sphere_conn.bundle.base_point([math.pi / 4, 0.0])
    cov = covariant_derivative(sphere_conn, s, v, x)
    assert np.max(np.abs(cov - np.array([0.0, 1.0]))) < 1e-15


def test_extension_restricts_to_natural_derivative(any_conn, rng):
    for _ in range(10):
        s = random_section(any_conn.bundle, rng)
        v = random_base_field(any_conn.bundle, rng)
        x = random_base_point(any_conn.bundle, rng)
        ext = extend_natural_derivative(s, v)
        nat = natural_derivative(s, v, x)
        val = as_array(ext(s.graph(x)))
        assert np.max(np.abs(val - nat.as_vector())) < 1e-14


def test_extension_fibre_translation_invariance(any_conn, rng):
    bundle = any_conn.bundle
    s = random_section(bundle, rng)
    v = random_base_field(bundle, rng)
    ext = extend_natural_derivative(s, v)
    for _ in range(20):
        x = bundle.base_box.sample(rng)
        y1 = bundle.fibre_box.sample(rng, margin=0.3)
        y2 = bundle.fibre_box.sample(rng, margin=0.3)
        e1 = bundle.graph_point(x, y1)
        e2 = bundle.graph_point(x, y2)
        a = as_array(ext(e1))
        assert np.max(np.abs(a - as_array(ext(e2)))) < 1e-14


def test_extension_p_related(any_conn, rng):
    bundle = any_conn.bundle
    s = random_section(bundle, rng)
    v = random_base_field(bundle, rng)
    samples = [random_total_point(bundle, rng) for _ in range(100)]
    assert check_p_related(extend_natural_derivative(s, v), v, samples) < 1e-12
    assert check_p_related(horizontal_lift_field(any_conn, v), v,
                           samples) < 1e-12


def test_bracket_relatedness_for_mixed_related_pairs(any_conn, rng):
    # lift fields and foliation extensions are both projection-related to
    # their base fields; brackets of any mix must project onto the base
    # bracket (naturality of the bracket under relatedness)
    from fibrum import base_lie_bracket, lie_bracket, random_total_point
    bundle = any_conn.bundle
    m = bundle.base_dim
    s = random_section(bundle, rng)
    u = random_base_field(bundle, rng)
    v = random_base_field(bundle, rng)
    pairs = [
        (horizontal_lift_field(any_conn, u), horizontal_lift_field(any_conn, v)),
        (extend_natural_derivative(s, u), horizontal_lift_field(any_conn, v)),
        (extend_natural_derivative(s, u), extend_natural_derivative(s, v)),
    ]
    uv = base_lie_bracket(u, v)
    for X, Y in pairs:
        br = lie_bracket(X, Y)
        for _ in range(30):
            e = random_total_point(bundle, rng)
            base = as_array(br(e))[:m]
            expect = as_array(uv(list(e.base_coords)))
            assert np.max(np.abs(base - expect)) < 1e-9


def test_extended_covariant_derivative_vertical_and_restricts(any_conn, rng):
    bundle = any_conn.bundle
    m = bundle.base_dim
    s = random_section(bundle, rng)
    v = random_base_field(bundle, rng)
    nfield = extend_covariant_derivative(any_conn, s, v)
    for _ in range(20):
        e = random_total_point(bundle, rng)
        val = as_array(nfield(e))
        assert np.max(np.abs(val[:m])) == 0.0
    for _ in range(10):
        x = random_base_point(bundle, rng)
        val = as_array(nfield(s.graph(x)))[m:]
        cov = covariant_derivative(any_conn, s, v, x)
        assert np.max(np.abs(val - cov)) < 1e-12


def test_flat_extended_covariant_constant_along_fibres(flat_conn, rng):
    bundle = flat_conn.bundle
    s = random_section(bundle, rng)
    v = random_base_field(bundle, rng)
    nfield = extend_covariant_derivative(flat_conn, s, v)
    x = bundle.base_box.sample(rng)
    vals = []
    for _ in range(5):
        y = bundle.fibre_box.sample(rng, margin=0.3)
        vals.append(as_array(nfield(bundle.graph_point(x, y))))
    for val in vals[1:]:
        assert np.max(np.abs(val - vals[0])) == 0.0


def test_lift_rank_full(any_conn, rng):
    for _ in range(25):
        s = random_section(any_conn.bundle, rng)
        x = random_base_point(any_conn.bundle, rng)
        assert lift_rank_check(any_conn, s, x) == any_conn.bundle.base_dim


def test_lift_tensorial_in_section(any_conn, rng):
    # sections agreeing at the point give bitwise-identical lift columns
    bundle = any_conn.bundle
    s1 = random_section(bundle, rng)
    x = random_base_point(bundle, rng)
    sx = [float(c) for c in as_array(s1(x))]
    s2 = SectionMap(bundle, lambda c: sx)  # constant extension through s1(x)
    e1, e2 = s1.graph(x), s2.graph(x)
    for j in range(bundle.base_dim):
        basis = [1.0 if k == j else 0.0 for k in range(bundle.base_dim)]
        l1 = horizontal_lift(any_conn, e1, basis).as_vector()
        l2 = horizontal_lift(any_conn, e2, basis).as_vector()
        assert np.array_equal(l1, l2)


def test_covariant_tensoriality_in_v(any_conn, rng):
    from fibrum import sin
    bundle = any_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)

        def scaled(coords, _v=v):
            c = 1.3 + sin(coords[0])
            return [c * comp for comp in _v.fn(coords)]

        fv = BaseVectorField(bundle, scaled)
        lhs = as_array(covariant_derivative(any_conn, s, fv, x))
        fx = 1.3 + math.sin(x.coords[0])
        rhs = fx * as_array(covariant_derivative(any_conn, s, v, x))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- the compiled lift-field evaluator against its list form ------------------

def _mixing_connection(m, f):
    """A nonlinear connection on flat charts of any (m, f) in which every
    output reads x, y and v, closed under DScalar inputs."""
    bundle = make_flat(m=m, f=f).bundle

    def gamma(x, y, v):
        out = []
        for a in range(f):
            acc = 0.0
            for b in range(m):
                acc = acc + (x[b] * y[a] + y[(a + b) % f] ** 2) * v[b]
            out.append(acc)
        return out

    return ConnectionField(bundle, gamma, ConnectionKind.NONLINEAR)


@pytest.mark.parametrize("f", range(1, 5))
@pytest.mark.parametrize("m", range(1, 5))
def test_compiled_lift_field_bit_equal_to_list_form(m, f):
    conn = _mixing_connection(m, f)
    rng = np.random.default_rng(4 * m + f)
    for field in (random_base_field(conn.bundle, rng),
                  BaseVectorField(conn.bundle, lambda x: [-0.0] * m)):
        got_ev = horizontal_lift_field(conn, field).fn
        want_ev = list_form_lift_field(conn, field.fn)
        for _ in range(3):
            e = random_total_point(conn.bundle, rng).coords
            for arg in scalar_layers(e):
                assert_all_bit_equal(got_ev(arg), want_ev(arg))
