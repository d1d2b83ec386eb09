"""Flows, transport, geodesics, sprays, holonomy.

Independent oracles: scipy's adaptive RK45 at tight tolerance for the
transport/geodesic equations, the matrix exponential for linear flows, and
the closed-form latitude holonomy 2*pi*(1 - cos(theta)) plus the
boundary-integral form of the area theorem.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fibrum import (BaseVectorField, CurveOnBase, IntegratorConfig,
                    SectionMap, TotalVectorField, build_connection,
                    covariant_derivative, covariant_derivative_along_curve,
                    flow, flow_base, geodesic, holonomy_loop, horizontal_lift,
                    horizontal_lift_field, latitude_loop,
                    lie_derivative_covariant, make_flat, circle_loop,
                    parallel_transport_path, parallel_transport_vector,
                    random_base_field, random_base_point, random_section,
                    reversed_curve, segment_curve, spray_from_connection,
                    sphere_angle_between, sphere_latitude_gb_angle,
                    sphere_metric)
from fibrum.errors import (ChartExitError, DomainError, StepBudgetError,
                           TangentBundleRequiredError)

from conftest import as_array, list_form_lift_field, list_form_segment_fn

CFG = IntegratorConfig(step=1e-3)


def test_flow_zero_parameter_is_identity(flat_conn):
    bundle = flat_conn.bundle
    X = TotalVectorField(bundle, lambda e: [1.0, 0.0, 0.0, 0.0])
    e0 = bundle.total_point([0.1, 0.2, 0.3, 0.4])
    assert flow(X, e0, 0.0, CFG).coords == e0.coords


def test_flow_constant_field_translates(flat_conn):
    bundle = flat_conn.bundle
    X = TotalVectorField(bundle, lambda e: [1.0, 0.0, 0.0, 0.0])
    e0 = bundle.total_point([0.0, 0.0, 0.0, 0.0])
    e1 = flow(X, e0, 0.5, CFG)
    assert np.max(np.abs(np.array(e1.coords)
                         - np.array([0.5, 0.0, 0.0, 0.0]))) < 1e-13


def test_flow_linear_field_against_expm(flat_conn, rng):
    bundle = flat_conn.bundle
    raw = rng.uniform(-1.0, 1.0, size=(4, 4))
    A = raw - raw.T  # rotation: trajectory stays bounded

    X = TotalVectorField(
        bundle, lambda e: [sum(A[i, j] * e[j] for j in range(4))
                           for i in range(4)])
    e0 = np.array([0.4, -0.3, 0.2, 0.5])
    lam = 0.8
    got = np.array(flow(X, bundle.total_point(e0), lam, CFG).coords)
    expect = expm(lam * A) @ e0
    assert np.max(np.abs(got - expect)) < 1e-12


def test_flow_order_halving(flat_conn, rng):
    bundle = flat_conn.bundle
    raw = rng.uniform(-1.0, 1.0, size=(4, 4))
    A = raw - raw.T
    X = TotalVectorField(
        bundle, lambda e: [sum(A[i, j] * e[j] for j in range(4))
                           for i in range(4)])
    e0 = np.array([0.4, -0.3, 0.2, 0.5])
    lam = 0.8
    errs = []
    for h in (0.04, 0.02):
        c = IntegratorConfig(step=h)
        got = np.array(flow(X, bundle.total_point(e0), lam, c).coords)
        errs.append(np.max(np.abs(got - expm(lam * A) @ e0)))
    assert errs[0] / errs[1] >= 14.0


def test_flow_group_law(sphere_conn, rng):
    v = random_base_field(sphere_conn.bundle, rng)
    hv = horizontal_lift_field(sphere_conn, v)
    e0 = sphere_conn.bundle.total_point([1.3, 0.1, 0.5, 0.2])
    once = flow(hv, e0, 0.13, CFG)
    twice = flow(hv, flow(hv, e0, 0.05, CFG), 0.08, CFG)
    assert np.max(np.abs(np.array(once.coords)
                         - np.array(twice.coords))) < 1e-10


def test_flow_chart_exit_reports_time(flat_conn):
    bundle = flat_conn.bundle
    X = TotalVectorField(bundle, lambda e: [1.0, 0.0, 0.0, 0.0])
    e0 = bundle.total_point([1.5, 0.0, 0.0, 0.0])
    with pytest.raises(ChartExitError) as err:
        flow(X, e0, 1.0, CFG)
    assert 0.49 < err.value.exit_time < 0.52


def test_step_budget_enforced(flat_conn):
    bundle = flat_conn.bundle
    X = TotalVectorField(bundle, lambda e: [0.0, 0.0, 0.0, 0.0])
    e0 = bundle.total_point([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(StepBudgetError):
        flow(X, e0, 1.0, IntegratorConfig(step=1e-3, max_steps=10))


def test_transport_flat_is_identity(flat_conn):
    curve = segment_curve(flat_conn.bundle, [-1.0, -0.5], [1.0, 0.75])
    y0 = [0.3, -0.8]
    y1 = parallel_transport_vector(flat_conn, curve, y0, CFG)
    assert np.array_equal(y1, y0)


def test_transport_constant_curve(sphere_conn):
    curve = segment_curve(sphere_conn.bundle, [1.0, 0.3], [1.0, 0.3])
    y1 = parallel_transport_vector(sphere_conn, curve, [0.5, 0.2], CFG)
    assert np.array_equal(y1, [0.5, 0.2])


def _sphere_transport_oracle(conn, curve, y0, tol=1e-12):
    def rhs(t, y):
        x = curve.fn(t)
        cdot = curve.velocity(t)
        return -as_array(conn.gamma(list(x), list(y), list(cdot)))

    sol = solve_ivp(rhs, (curve.t0, curve.t1), np.asarray(y0, float),
                    rtol=tol, atol=tol, method="RK45")
    return sol.y[:, -1]


def test_transport_against_scipy(sphere_conn, rng):
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.2], [2.0, 1.4])
    y0 = [0.7, -0.3]
    mine = parallel_transport_vector(sphere_conn, curve, y0, CFG)
    oracle = _sphere_transport_oracle(sphere_conn, curve, y0)
    assert np.max(np.abs(mine - oracle)) < 1e-9


def test_transport_roundtrip(any_conn, rng):
    bundle = any_conn.bundle
    p = bundle.base_box.sample(rng, margin=0.25)
    q = bundle.base_box.sample(rng, margin=0.25)
    curve = segment_curve(bundle, p, q)
    lo = np.asarray(bundle.fibre_box.lower)
    hi = np.asarray(bundle.fibre_box.upper)
    y0 = 0.5 * (lo + hi) + 0.15 * (hi - lo)
    y1 = parallel_transport_vector(any_conn, curve, y0, CFG)
    y2 = parallel_transport_vector(any_conn, reversed_curve(curve), y1, CFG)
    assert np.max(np.abs(y2 - y0)) < 1e-8


def test_transport_linear_in_start_vector(sphere_conn):
    curve = segment_curve(sphere_conn.bundle, [0.9, -0.5], [1.8, 0.7])
    a, b, mix = (as_array(parallel_transport_vector(sphere_conn, curve, y0,
                                                    CFG))
                 for y0 in ([1.0, 0.0], [0.0, 1.0], [0.6, -1.1]))
    assert np.max(np.abs(mix - (0.6 * a - 1.1 * b))) < 1e-10


def test_transported_vector_covariantly_constant(sphere_conn):
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])
    y0 = [0.6, 0.1]
    _, path = parallel_transport_path(sphere_conn, curve, y0, CFG)
    ts = [t for t, _ in path]
    ys = [as_array(y) for _, y in path]
    h = ts[1] - ts[0]
    worst = 0.0
    for k in range(2, len(ts) - 2, 25):
        ydot = (-ys[k + 2] + 8 * ys[k + 1] - 8 * ys[k - 1] + ys[k - 2]) / (12 * h)
        g = as_array(sphere_conn.gamma(list(curve.fn(ts[k])),
                                             list(ys[k]),
                                             list(curve.velocity(ts[k]))))
        worst = max(worst, float(np.max(np.abs(ydot + g))))
    assert worst < 1e-8


def test_covariant_derivative_along_curve_vs_transport_pullback(sphere_conn):
    # oracle: the derivative of the transport pull-back,
    # [transport_{t+h -> t} y(t+h) - transport_{t-h -> t} y(t-h)] / 2h,
    # which the closed form must match to O(h^2)
    from fibrum import sin, cos
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])

    def y_of_t(t):
        return [0.5 + 0.2 * sin(t), 0.3 * cos(t)]

    fine = IntegratorConfig(step=1e-4)

    def pulled_back(tau, t):
        back = CurveOnBase(curve.bundle,
                           lambda s_, a=tau, b=t: curve.fn(a + s_ * (b - a)),
                           0.0, 1.0)
        y_tau = [float(c) for c in
                 as_array(np.asarray(y_of_t(tau), dtype=float))]
        return as_array(parallel_transport_vector(sphere_conn, back, y_tau,
                                                  fine))

    t = 0.4
    errs = []
    for h in (1e-2, 1e-3):
        fd = (pulled_back(t + h, t) - pulled_back(t - h, t)) / (2.0 * h)
        val = as_array(covariant_derivative_along_curve(sphere_conn, curve,
                                                        y_of_t, t))
        errs.append(float(np.max(np.abs(fd - val))))
    assert errs[0] < 1e-3
    order = math.log10(errs[0] / errs[1])
    assert order >= 1.9


def test_transported_family_has_zero_covariant_derivative(sphere_conn):
    # Def-5 output satisfies Def-6: differentiate the transported family in
    # its endpoint and add the connection term; residual at integrator level
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])
    y0 = np.array([0.6, 0.1])
    fine = IntegratorConfig(step=1e-4)

    def transported(t):
        sub = CurveOnBase(curve.bundle, curve.fn, curve.t0, float(t))
        return as_array(parallel_transport_vector(sphere_conn, sub, y0, fine))

    t, h = 0.5, 1e-4
    ydot = (transported(t + h) - transported(t - h)) / (2.0 * h)
    g = as_array(sphere_conn.gamma(
        list(curve.fn(t)), list(transported(t)), list(curve.velocity(t))))
    assert np.max(np.abs(ydot + g)) < 1e-7


def test_covariant_derivative_along_curve_flat_plain_derivative(flat_conn):
    curve = segment_curve(flat_conn.bundle, [-1.0, 0.0], [1.0, 0.5])

    def y_of_t(t):
        return [t * t, 0.5 * t]

    val = covariant_derivative_along_curve(flat_conn, curve, y_of_t, 0.4)
    assert np.max(np.abs(val - np.array([0.8, 0.5]))) < 1e-13


def test_covariant_derivative_along_curve_hands_gamma_python_floats(
        sphere_conn):
    # gamma's scalar arithmetic is cheaper on Python floats than on numpy
    # float64 scalars, with the same bits
    from fibrum import ConnectionField
    seen = set()

    def gamma(x, y, v):
        seen.update(type(c) for c in (*x, *y, *v))
        return sphere_conn.gamma(x, y, v)

    spy = ConnectionField(sphere_conn.bundle, gamma, sphere_conn.kind)
    loop = latitude_loop(sphere_conn.bundle, math.pi / 3.0)
    for t in (0.0, 1.3, 4.0):
        got = covariant_derivative_along_curve(spy, loop, loop.velocity_fn, t)
        want = covariant_derivative_along_curve(sphere_conn, loop,
                                                loop.velocity_fn, t)
        assert got == want
    assert seen == {float}


def test_covariant_derivative_along_curve_recovers_perturbation(sphere_conn):
    # y(t) = transported + t * w: the derivative at t = 0 recovers w
    curve = segment_curve(sphere_conn.bundle, [1.0, -0.5], [1.6, 0.9])
    y0 = np.array([0.5, -0.2])
    w = np.array([0.3, 0.7])
    fine = IntegratorConfig(step=1e-4)

    def y_of_t(t):
        tt = float(t) if not hasattr(t, "value") else None
        # closed under DScalar is not needed here; evaluate at floats only
        sub = CurveOnBase(curve.bundle, curve.fn, curve.t0, float(t))
        base = parallel_transport_vector(sphere_conn, sub, y0, fine)
        return [base[0] + float(t) * w[0], base[1] + float(t) * w[1]]

    h = 1e-4
    y_plus = np.array(y_of_t(h))
    y_minus = np.array(y_of_t(-h))
    ydot = (y_plus - y_minus) / (2 * h)
    g = as_array(sphere_conn.gamma(list(curve.fn(0.0)), list(y0),
                                         list(curve.velocity(0.0))))
    assert np.max(np.abs(ydot + g - w)) < 1e-6


def test_geodesic_flat_straight_line(flat_conn):
    samples = geodesic(flat_conn, [-0.5, -0.5], [0.6, 0.4], 1.0, CFG)
    t, x, v = samples[-1]
    assert abs(t - 1.0) < 1e-12
    assert np.max(np.abs(x - np.array([0.1, -0.1]))) < 1e-12
    assert np.max(np.abs(v - np.array([0.6, 0.4]))) < 1e-14


def test_geodesic_zero_velocity(sphere_conn):
    samples = geodesic(sphere_conn, [1.0, 0.5], [0.0, 0.0], 1.0, CFG)
    t, x, v = samples[-1]
    assert np.array_equal(x, [1.0, 0.5])
    assert np.array_equal(v, [0.0, 0.0])


def test_geodesic_equator(sphere_conn):
    samples = geodesic(sphere_conn, [math.pi / 2, 0.0], [0.0, 1.0], 1.0, CFG)
    for t, x, v in samples[:: len(samples) // 10]:
        assert abs(x[0] - math.pi / 2) < 1e-12
        assert abs(v[1] - 1.0) < 1e-12
    t, x, v = samples[-1]
    assert abs(x[1] - 1.0) < 1e-10


def test_geodesic_against_scipy(sphere_conn):
    x0, v0 = [1.0, 0.3], [0.3, 0.4]
    samples = geodesic(sphere_conn, x0, v0, 1.0, CFG)

    def rhs(t, z):
        x, v = z[:2], z[2:]
        a = as_array(sphere_conn.gamma(list(x), list(v), list(v)))
        return np.concatenate([v, -a])

    sol = solve_ivp(rhs, (0.0, 1.0), np.array(x0 + v0), rtol=1e-12,
                    atol=1e-12)
    t, x, v = samples[-1]
    assert np.max(np.abs(np.concatenate([x, v]) - sol.y[:, -1])) < 1e-9


def test_spray_law_and_compatibility(sphere_conn, rng):
    spray = spray_from_connection(sphere_conn)
    for _ in range(10):
        x = sphere_conn.bundle.base_box.sample(rng)
        v = rng.uniform(-1, 1, 2)
        out = as_array(spray(list(x) + list(v)))
        assert np.array_equal(out[:2], v)  # spray law, exact
        e = sphere_conn.bundle.graph_point(x, v)
        lift = horizontal_lift(sphere_conn, e, v)
        assert np.max(np.abs(lift.as_vector() - out)) < 1e-14


@pytest.mark.parametrize("name, params", [
    ("flat", {}),
    ("sphere", {}),
    ("tm-custom-christoffel", {"G_1_12": 0.1, "G_2_11_x1": -0.05,
                               "G_1_22": 0.07}),
])
def test_spray_flow_matches_geodesic(name, params):
    # geodesic's right-hand side is the spray's expression, integrated by
    # the same RK4, so the two end states are the same bits
    conn = build_connection(name, params)
    x0, v0 = [1.0, 0.3], [0.3, 0.4]
    spray = spray_from_connection(conn)
    e0 = conn.bundle.total_point(x0 + v0)
    end = flow(spray, e0, 1.0, CFG)
    t, x, v = geodesic(conn, x0, v0, 1.0, CFG)[-1]
    assert np.array_equal(np.array(end.coords), np.concatenate([x, v]))


def test_spray_requires_tangent_configuration(nonlinear_conn):
    with pytest.raises(TangentBundleRequiredError):
        spray_from_connection(nonlinear_conn)


def test_lie_derivative_bridge_trivial_cases(flat_conn, rng):
    bundle = flat_conn.bundle
    s = SectionMap(bundle, lambda x: [0.4, -0.1])
    v = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    val = lie_derivative_covariant(flat_conn, s, v, x,
                                   IntegratorConfig(step=1e-3))
    assert np.max(np.abs(val)) < 1e-12
    zero = BaseVectorField(bundle, lambda c: [0.0, 0.0])
    s2 = random_section(bundle, rng)
    val = lie_derivative_covariant(flat_conn, s2, zero, x,
                                   IntegratorConfig(step=1e-3))
    assert np.max(np.abs(val)) == 0.0


def test_lie_derivative_bridge_order(sphere_conn, rng):
    s = random_section(sphere_conn.bundle, rng)
    v = random_base_field(sphere_conn.bundle, rng)
    x = sphere_conn.bundle.base_point([1.2, 0.4])
    alg = covariant_derivative(sphere_conn, s, v, x)
    errs = []
    for lam in (1e-2, 1e-3, 1e-4):
        fd = lie_derivative_covariant(sphere_conn, s, v, x,
                                      IntegratorConfig(step=lam))
        errs.append(np.max(np.abs(as_array(fd) - as_array(alg))))
    orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_holonomy_flat_loop_zero(flat_conn):
    loop = circle_loop(flat_conn.bundle, [0.0, 0.0], 0.8)
    y1, disp = holonomy_loop(flat_conn, loop, [0.5, 0.5], CFG)
    assert disp <= 1e-10


def test_circle_loop_turns_in_the_first_plane(flat_conn):
    # on m = 3 the first two coordinates are the m = 2 circle, bit for bit,
    # and the third stays at the centre's; m = 1 has no plane
    flat3 = make_flat(m=3)
    plane = circle_loop(flat_conn.bundle, [0.1, -0.2], 0.8)
    loop = circle_loop(flat3.bundle, [0.1, -0.2, 0.3], 0.8)
    for t in np.linspace(0.0, 1.0, 17):
        assert loop.fn(t) == plane.fn(t) + [0.3]
        assert loop.velocity_fn(t) == plane.velocity_fn(t) + [0.0]
    y1, disp = holonomy_loop(flat3, loop,
                             np.full(flat3.bundle.fibre_dim, 0.5), CFG)
    assert disp <= 1e-10
    with pytest.raises(DomainError):
        circle_loop(make_flat(m=1).bundle, [0.0], 0.8)
    with pytest.raises(DomainError):
        circle_loop(flat3.bundle, [0.0, 0.0], 0.8)


def test_holonomy_degenerate_loop(sphere_conn):
    loop = segment_curve(sphere_conn.bundle, [1.0, 0.2], [1.0, 0.2])
    y1, disp = holonomy_loop(sphere_conn, loop, [0.4, 0.1], CFG)
    assert disp == 0.0


def test_holonomy_requires_closed_loop(sphere_conn):
    open_curve = segment_curve(sphere_conn.bundle, [1.0, 0.0], [1.2, 0.4])
    with pytest.raises(DomainError):
        holonomy_loop(sphere_conn, open_curve, [1.0, 0.0], CFG)


def test_latitude_holonomy_angle(sphere_conn):
    theta0 = math.pi / 3
    loop = latitude_loop(sphere_conn.bundle, theta0)
    y0 = [1.0, 0.0]
    y1, disp = holonomy_loop(sphere_conn, loop, y0, CFG)
    ang = sphere_angle_between([theta0, 0.0], y0, y1)
    assert abs(ang - math.pi) < 1e-4
    # rotation by pi: the transported vector is the negated start vector
    assert np.max(np.abs(as_array(y1) + as_array(y0))) < 1e-6


def test_latitude_holonomy_other_latitudes(sphere_conn):
    for theta0 in (1.0, 2.0):
        loop = latitude_loop(sphere_conn.bundle, theta0)
        y0 = [1.0, 0.0]
        y1, _ = holonomy_loop(sphere_conn, loop, y0, CFG)
        expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
        folded = abs(math.remainder(expected, 2.0 * math.pi))
        ang = sphere_angle_between([theta0, 0.0], y0, y1)
        assert abs(ang - folded) < 1e-4


def test_gauss_bonnet_boundary_oracle(sphere_conn):
    for theta0 in (math.pi / 3, 1.1):
        gb = sphere_latitude_gb_angle(sphere_conn, theta0)
        expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
        assert abs(gb - expected) < 1e-9


def test_fine_transport_agrees_with_gauss_bonnet(sphere_conn):
    theta0 = math.pi / 3
    loop = latitude_loop(sphere_conn.bundle, theta0)
    y0 = [1.0, 0.0]
    fine = IntegratorConfig(step=1e-3 / 16.0)
    y1, _ = holonomy_loop(sphere_conn, loop, y0, fine)
    ang = sphere_angle_between([theta0, 0.0], y0, y1)
    gb = abs(math.remainder(sphere_latitude_gb_angle(sphere_conn, theta0),
                            2.0 * math.pi))
    assert abs(ang - gb) < 1e-6


def test_metric_norm_conserved_under_transport(sphere_conn):
    theta0 = 1.1
    loop = latitude_loop(sphere_conn.bundle, theta0)
    y0 = np.array([0.8, 0.35])
    _, path = parallel_transport_path(sphere_conn, loop, y0, CFG)
    g0 = None
    for t, y in path[:: len(path) // 50]:
        g = np.array(sphere_metric(loop.fn(t)))
        y = as_array(y)
        norm = float(y @ g @ y)
        if g0 is None:
            g0 = norm
        assert abs(norm - g0) < 1e-8


def test_base_flow(sphere_conn, rng):
    v = BaseVectorField(sphere_conn.bundle, lambda x: [0.0, 1.0])
    x0 = sphere_conn.bundle.base_point([1.0, 0.0])
    x1 = flow_base(v, x0, 0.7, CFG)
    assert np.max(np.abs(np.array(x1.coords) - np.array([1.0, 0.7]))) < 1e-12


def test_integrator_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(step=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(step=1e-3, max_steps=0)


# -- closed-form curve velocities and the lean transport path -----------------

def _standard_curves(sphere_conn, flat_conn):
    sb, fb = sphere_conn.bundle, flat_conn.bundle
    return [
        segment_curve(sb, [0.8, -1.2], [2.0, 1.4]),
        segment_curve(sb, [1.0, 0.3], [1.0, 0.3], 0.5, 2.25),
        latitude_loop(sb, 1.1),
        latitude_loop(sb, math.pi / 3, 0.3, 7.0),
        circle_loop(fb, [0.1, -0.2], 0.8),
        circle_loop(fb, [0.0, 0.0], 0.7, -0.4, 3.3),
        circle_loop(make_flat(m=3).bundle, [0.1, -0.2, 0.3], 0.8),
    ]


def test_closed_form_velocity_equals_dscalar_derivative(sphere_conn,
                                                        flat_conn):
    from fibrum.calculus import derivative
    curves = _standard_curves(sphere_conn, flat_conn)
    for curve in curves + [reversed_curve(c) for c in curves]:
        assert curve.velocity_fn is not None
        for t in np.linspace(curve.t0, curve.t1, 37):
            t = float(t)
            assert curve.velocity_fn(t) == derivative(curve.fn, t)


def test_curve_without_closed_form_velocity_transports(sphere_conn):
    # a hand-built curve falls back to the DScalar derivative; the closed
    # form is bit-equal to it, so both transports agree bit for bit
    seg = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])
    plain = CurveOnBase(seg.bundle, seg.fn, seg.t0, seg.t1)
    assert plain.velocity_fn is None
    assert np.array_equal(plain.velocity(0.3), seg.velocity(0.3))
    cfg = IntegratorConfig(step=1e-2)
    y_plain = parallel_transport_vector(sphere_conn, plain, [0.6, 0.1], cfg)
    y_seg = parallel_transport_vector(sphere_conn, seg, [0.6, 0.1], cfg)
    assert np.array_equal(y_plain, y_seg)
    back = reversed_curve(plain)
    assert back.velocity_fn is None
    y_back = parallel_transport_vector(sphere_conn, back, y_plain, cfg)
    assert np.max(np.abs(y_back - np.array([0.6, 0.1]))) < 1e-6


def test_vector_and_holonomy_match_path_end_bitwise(sphere_conn):
    cfg = IntegratorConfig(step=1e-2)
    loop = latitude_loop(sphere_conn.bundle, 1.1)
    y0 = [0.8, 0.35]
    y_path, path = parallel_transport_path(sphere_conn, loop, y0, cfg)
    assert np.array_equal(path[-1][1], y_path)
    y_vec = parallel_transport_vector(sphere_conn, loop, y0, cfg)
    y_hol, disp = holonomy_loop(sphere_conn, loop, y0, cfg)
    assert np.array_equal(y_vec, y_path)
    assert np.array_equal(y_hol, y_path)
    assert disp == math.hypot(*(y_path - np.array(y0)))


def test_rk4_makes_four_rhs_calls_per_step_and_collect_is_eighth():
    # external step counters hook ``transport._rk4`` by this signature and
    # count right-hand-side calls / 4 as RK4 steps
    import inspect

    from fibrum import transport
    names = list(inspect.signature(transport._rk4).parameters)
    assert names[:8] == ["rhs", "z0", "span", "cfg", "inside", "what",
                         "t_base", "collect"]
    calls = []

    def rhs(t, z):
        calls.append(t)
        return [1.0, -0.5]

    cfg = IntegratorConfig(step=0.1)
    transport._rk4(rhs, np.zeros(2), 1.0, cfg, lambda z: True, "test")
    assert len(calls) == 4 * cfg.n_steps(1.0)


def _count_rk4_entries(monkeypatch):
    """Hook ``transport._rk4`` as external step counters do; each entry
    appends (rhs calls, collect) to the returned list."""
    from fibrum import transport
    original = transport._rk4
    seen = []

    def hooked(rhs, *args, **kwargs):
        counted = []

        def rhs_counted(t, z):
            counted.append(t)
            return rhs(t, z)

        out = original(rhs_counted, *args, **kwargs)
        collect = kwargs.get("collect", args[6] if len(args) > 6 else False)
        seen.append((len(counted), collect))
        return out

    monkeypatch.setattr(transport, "_rk4", hooked)
    return seen


def test_transport_goes_through_rk4_with_four_calls_per_step(sphere_conn,
                                                             monkeypatch):
    seen = _count_rk4_entries(monkeypatch)
    cfg = IntegratorConfig(step=1e-2)
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])
    parallel_transport_vector(sphere_conn, curve, [0.6, 0.1], cfg)
    parallel_transport_path(sphere_conn, curve, [0.6, 0.1], cfg)
    n = cfg.n_steps(curve.t1 - curve.t0)
    assert seen == [(4 * n, False), (4 * n, True)]


def test_every_integrator_goes_through_rk4_with_four_calls_per_step(
        sphere_conn, rng, monkeypatch):
    # the step counters see every integration, so none may bypass ``_rk4``
    seen = _count_rk4_entries(monkeypatch)
    cfg = IntegratorConfig(step=1e-2)
    bundle = sphere_conn.bundle
    loop = latitude_loop(bundle, 1.1)
    holonomy_loop(sphere_conn, loop, [0.8, 0.35], cfg)
    n = cfg.n_steps(loop.t1 - loop.t0)
    assert seen == [(4 * n, False)]

    del seen[:]
    geodesic(sphere_conn, [1.0, 0.3], [0.3, 0.4], 0.75, cfg)
    assert seen == [(4 * cfg.n_steps(0.75), True)]

    del seen[:]
    v = random_base_field(bundle, rng)
    hv = horizontal_lift_field(sphere_conn, v)
    e = bundle.total_point([1.2, 0.1, 0.3, -0.2])
    flow(hv, e, 0.3, cfg)
    flow_base(v, random_base_point(bundle, rng), -0.2, cfg)
    assert seen == [(4 * cfg.n_steps(0.3), False),
                    (4 * cfg.n_steps(-0.2), False)]


# -- the unrolled step loop against the list-form loop it replaced -----------
# The reference is the earlier list-form ``_rk4``, kept verbatim: the
# unrolled loop must give the same bits, stage by stage, signed zeros
# included, and the same chart exit.  A loop negated from component k on
# must give the bits of the reference fed the list ``rhs(t, z)`` with its
# entries from index k on negated, as ``[-c for c in rhs(t, z)]`` for k = 0.

def _reference_rk4(rhs, z0: np.ndarray, span: float, cfg: IntegratorConfig,
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


def _recording_rhs(d, calls):
    """A nonlinear right-hand side on states of length d that records its
    arguments; every third component is an exact signed zero, -0.0 before
    t = 0.3 and 0.0 after, and component 0 rises at about unit rate."""
    def rhs(t, z):
        calls.append((t, list(z)))
        out = [1.0 + 0.5 * math.cos(1.3 * t) * z[-1] * z[0]]
        for i in range(1, d):
            if i % 3 == 2:
                out.append(-0.0 if t < 0.3 else 0.0)
            else:
                out.append(math.sin(t + i) * z[i - 1] - 0.4 * z[i] * z[i])
        return out

    return rhs


def _assert_same_bits(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert math.copysign(1.0, g) == math.copysign(1.0, w)


def _negated_from(rhs, k):
    """``rhs`` with the entries of its list from index k on negated."""
    return lambda t, z: [c if i < k else -c for i, c in enumerate(rhs(t, z))]


def _rk4_both(d, span, t_base, collect, negate_from=None,
              inside=lambda z: True, z0=(0.0, -0.0, -0.0, 0.5, -0.0, 0.0),
              make_rhs=_recording_rhs):
    """(result or exception, rhs calls) of the unrolled loop negated from
    component ``negate_from`` on and of the reference, on the same data."""
    from fibrum import transport
    args = (np.array(z0[:d]), span, IntegratorConfig(step=0.01), inside,
            "test state", t_base, collect)
    runs = []
    for unrolled in (True, False):
        calls = []
        rhs = make_rhs(d, calls)
        try:
            if unrolled:
                out = transport._rk4(rhs, *args, negate_from)
            elif negate_from is not None:
                out = _reference_rk4(_negated_from(rhs, negate_from), *args)
            else:
                out = _reference_rk4(rhs, *args)
        except ChartExitError as exc:
            out = exc
        runs.append((out, calls))
    return runs


def _assert_same_run(got_run, want_run, collect):
    (got, got_calls), (want, want_calls) = got_run, want_run
    assert len(got_calls) == len(want_calls)
    for (gt, gz), (wt, wz) in zip(got_calls, want_calls):
        _assert_same_bits([gt], [wt])
        _assert_same_bits(gz, wz)
    if collect:
        (got, got_path), (want, want_path) = got, want
        assert len(got_path) == len(want_path)
        for (gt, gz), (wt, wz) in zip(got_path, want_path):
            _assert_same_bits([gt], [wt])
            _assert_same_bits(gz, wz)
    assert type(got) is list and all(type(c) is float for c in got)
    _assert_same_bits(got, want)


def _list_form_grid(test):
    """Parametrize ``test`` over the (d, span, t_base, collect) grid."""
    test = pytest.mark.parametrize("collect", [False, True])(test)
    test = pytest.mark.parametrize("span, t_base", [
        (0.9, 0.0), (-0.8, 0.25), (0.01, -0.0), (0.0, 0.3)])(test)
    return pytest.mark.parametrize("d", range(1, 7))(test)


@_list_form_grid
def test_rk4_bit_equal_to_list_form_reference(d, span, t_base, collect):
    _assert_same_run(*_rk4_both(d, span, t_base, collect), collect)


@_list_form_grid
def test_negated_rk4_bit_equal_to_list_form_reference(d, span, t_base,
                                                      collect):
    _assert_same_run(*_rk4_both(d, span, t_base, collect, 0), collect)


@pytest.mark.parametrize("collect", [False, True])
@pytest.mark.parametrize("span, t_base", [(0.9, 0.0), (-0.8, 0.25)])
@pytest.mark.parametrize("d, negate_from", [
    (d, k) for d in range(2, 7) for k in range(1, d)])
def test_partly_negated_rk4_bit_equal_to_list_form_reference(
        d, negate_from, span, t_base, collect):
    _assert_same_run(*_rk4_both(d, span, t_base, collect, negate_from),
                     collect)


def _assert_same_chart_exit(d, negate_from=None):
    # component 0 crosses 0.5 (-0.5 where it is negated) about halfway
    # along the span
    sign = -1.0 if negate_from == 0 else 1.0
    (got, got_calls), (want, want_calls) = _rk4_both(
        d, 0.9, 0.0, True, negate_from, inside=lambda z: sign * z[0] < 0.5)
    assert isinstance(got, ChartExitError) and isinstance(want, ChartExitError)
    assert 0.3 < want.exit_time < 0.6
    _assert_same_bits([got.exit_time], [want.exit_time])
    assert str(got) == str(want)
    assert len(got_calls) == len(want_calls)


@pytest.mark.parametrize("d", range(1, 7))
def test_rk4_chart_exit_matches_list_form_reference(d):
    _assert_same_chart_exit(d)


@pytest.mark.parametrize("d", range(1, 7))
def test_negated_rk4_chart_exit_matches_list_form_reference(d):
    _assert_same_chart_exit(d, 0)


@pytest.mark.parametrize("d", range(2, 7))
def test_partly_negated_rk4_chart_exit_matches_list_form_reference(d):
    _assert_same_chart_exit(d, d // 2)


def _zero_sum_rhs(d, calls):
    """A right-hand side whose step sums are exactly zero: per step,
    component 0 is -0.0 at the first stage and 0.0 at the others, and
    component 1 is 2.0, -1.0, -1.0, 2.0 over the four stages."""
    def rhs(t, z):
        calls.append((t, list(z)))
        stage = (len(calls) - 1) % 4
        return [-0.0 if stage == 0 else 0.0,
                2.0 if stage in (0, 3) else -1.0][:d]

    return rhs


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("z0", [(-0.0, -0.0), (0.0, 0.0)])
@pytest.mark.parametrize("span", [0.05, -0.05])
def test_negated_rk4_keeps_the_sign_of_a_cancelled_zero(d, z0, span):
    # a step sum that cancels is +0.0 whatever the signs of its terms, so
    # the negated loop has to sum the negated stage values; subtracting the
    # plain sum from a -0.0 state would leave -0.0 where the list form
    # gives 0.0
    runs = _rk4_both(d, span, 0.0, True, 0, z0=z0, make_rhs=_zero_sum_rhs)
    _assert_same_run(*runs, True)


def _list_form_geodesic(conn, x0, v0, T, cfg):
    """``geodesic`` as it was before its sign was folded into the loop: the
    reference loop fed ``v + [-c for c in gamma(x, v, v)]``."""
    bundle = conn.bundle
    m = bundle.base_dim
    z0 = np.concatenate([np.asarray(x0, dtype=float),
                         np.asarray(v0, dtype=float)])

    def rhs(t, z):
        v = z[m:]
        return v + [-c for c in conn.gamma(z[:m], v, v)]

    _, path = _reference_rk4(rhs, z0, float(T), cfg, bundle.contains_total,
                             "geodesic", collect=True)
    return [(t, z[:m].copy(), z[m:].copy()) for t, z in path]


@pytest.mark.parametrize("name, params, x0, v0, T", [
    ("flat", {}, [-0.5, 0.25], [0.6, -0.0], 1.0),
    ("flat", {"m": 3, "f": 3}, [0.1, -0.0, 0.3], [-0.0, 0.4, -0.2], 0.7),
    ("sphere", {}, [1.0, 0.3], [0.3, 0.4], 1.0),
    ("sphere", {}, [math.pi / 2, 0.0], [-0.0, 1.0], -0.8),
    ("tm-custom-christoffel", {"G_1_12": 0.1, "G_2_11_x1": -0.05,
                               "G_1_22": 0.07}, [0.4, -0.3], [0.5, -0.6], 1.3),
])
def test_geodesic_bit_equal_to_list_form_reference(name, params, x0, v0, T):
    conn = build_connection(name, params)
    cfg = IntegratorConfig(step=1e-2)
    got = geodesic(conn, x0, v0, T, cfg)
    want = _list_form_geodesic(conn, x0, v0, T, cfg)
    assert len(got) == len(want)
    for (gt, gx, gv), (wt, wx, wv) in zip(got, want):
        _assert_same_bits([gt], [wt])
        _assert_same_bits(gx, wx)
        _assert_same_bits(gv, wv)


def test_geodesic_chart_exit_matches_list_form_reference(flat_conn):
    # the straight line leaves the base box x1 < 2 at t = 1.5
    cfg = IntegratorConfig(step=1e-2)
    runs = []
    for run in (geodesic, _list_form_geodesic):
        with pytest.raises(ChartExitError) as info:
            run(flat_conn, [0.5, 0.0], [1.0, -0.25], 3.0, cfg)
        runs.append(info.value)
    got, want = runs
    assert 1.4 < want.exit_time < 1.6
    _assert_same_bits([got.exit_time], [want.exit_time])
    assert str(got) == str(want)


# -- the base box is checked at every RK4 stage time --------------------------

@pytest.mark.parametrize("crossing", [0.43, 0.61, 0.66])
def test_curve_leaving_base_box_reports_a_stage_time(flat_conn, crossing):
    # the segment crosses the flat base box's face x1 = 2 at t = crossing,
    # between two step nodes; the first stage time past it reports the exit
    cfg = IntegratorConfig(step=0.1)
    curve = segment_curve(flat_conn.bundle, [0.0, 0.5], [2.0 / crossing, 0.5])
    with pytest.raises(ChartExitError, match="curve left the base box") as err:
        parallel_transport_vector(flat_conn, curve, [0.3, -0.2], cfg)
    h = 1.0 / cfg.n_steps(1.0)
    assert crossing < err.value.exit_time <= crossing + 0.5 * h + 1e-12


def test_fibre_exit_before_base_exit_is_reported(nonlinear_conn):
    # along this segment dy/dt = 3.9 (y + y^3), so y = 1 reaches the fibre
    # box's face 1.5 at t ~ 0.042, long before the curve leaves the base
    # box at t ~ 0.487
    curve = segment_curve(nonlinear_conn.bundle, [0.9, 0.0], [-3.0, 0.0])
    with pytest.raises(ChartExitError, match="parallel transport") as err:
        parallel_transport_vector(nonlinear_conn, curve, [1.0], CFG)
    assert 0.04 < err.value.exit_time < 0.044


def test_transport_evaluates_curve_once_per_stage_time(sphere_conn,
                                                       monkeypatch):
    from fibrum import transport
    n_steps = IntegratorConfig.n_steps
    budgets, rhs_times, curve_times = [], [], []

    def counted_n_steps(cfg, interval):
        budgets.append(interval)
        return n_steps(cfg, interval)

    original = transport._rk4

    def hooked(rhs, *args):
        def timed_rhs(t, z):
            rhs_times.append(t)
            return rhs(t, z)

        return original(timed_rhs, *args)

    monkeypatch.setattr(IntegratorConfig, "n_steps", counted_n_steps)
    monkeypatch.setattr(transport, "_rk4", hooked)
    seg = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2], 0.25,
                        1.5)

    def fn(t):
        curve_times.append(t)
        return seg.fn(t)

    curve = CurveOnBase(seg.bundle, fn, seg.t0, seg.t1, seg.velocity_fn)
    cfg = IntegratorConfig(step=0.03)
    span = curve.t1 - curve.t0
    for run in (parallel_transport_vector, parallel_transport_path):
        del budgets[:], rhs_times[:], curve_times[:]
        run(sphere_conn, curve, [0.6, 0.1], cfg)
        assert budgets == [span]
        assert len(rhs_times) == 4 * n_steps(cfg, span)
        stages = [t for k, t in enumerate(rhs_times)
                  if k == 0 or t != rhs_times[k - 1]]
        assert len(set(stages)) == len(stages)
        # the start check, then one evaluation per distinct stage time
        assert curve_times == [curve.t0] + stages


# -- the compiled right-hand sides against their list forms -------------------
# Transport and flow as they were before their curve, velocity and field
# evaluators were compiled: list-form curves whose velocity is read at every
# node, the transport right-hand side that copies each node, and the flow's
# lift field over a list-form base field, each fed to ``transport._rk4`` as
# the package feeds it.

def _list_form_segment(bundle, p, q, t0, t1):
    rate = 1.0 / float(t1 - t0)
    vel = [rate * (float(qi) - float(pi)) for pi, qi in zip(p, q)]
    return CurveOnBase(bundle, list_form_segment_fn(p, q, t0, t1), t0, t1,
                       lambda t: list(vel))


def _list_form_reversed(curve):
    t0, t1 = curve.t0, curve.t1
    ends, fn, inner = t0 + t1, curve.fn, curve.velocity_fn
    return CurveOnBase(curve.bundle, lambda t: fn(ends - t), t0, t1,
                       lambda t: [-c for c in inner(ends - t)])


def _list_form_transport_rhs(conn, curve):
    gamma, fn, velocity = conn.gamma, curve.fn, curve.velocity_fn
    in_base = conn.bundle.base_box.contains
    node_t = node_x = node_v = None

    def rhs(t, y):
        nonlocal node_t, node_x, node_v
        if t != node_t:
            x = list(fn(t))
            if not in_base(x):
                raise ChartExitError("curve left the base box", t)
            node_t, node_x, node_v = t, x, list(velocity(t))
        return gamma(node_x, y, node_v)

    return rhs


def _list_form_flow_rhs(conn, comps):
    """``flow``'s right-hand side for the lift of the base field of
    ``comps``, through the list-form field and lift evaluators."""
    from fibrum.calculus import float_value
    ev = list_form_lift_field(conn, lambda x: [c(x) for c in comps])

    def rhs(t, z):
        return [c if type(c) is float else float_value(c) for c in ev(z)]

    return rhs


# per catalog bundle: parameters, segment ends, circle centre and radius,
# and a fibre element
_RHS_CASES = {
    "flat": ({}, [-0.5, 0.25], [0.8, -0.6], [0.1, -0.2], 0.8, [0.6, -0.3]),
    "sphere": ({}, [0.8, -1.2], [2.0, 1.4], [1.5, 0.0], 0.6, [0.6, 0.1]),
    "nonlinear-demo": ({}, [-0.5, 0.3], [0.6, -0.4], [0.0, 0.1], 0.3, [0.1]),
    "tm-custom-christoffel": (
        {"G_1_12": 0.1, "G_2_11_x1": -0.05, "G_1_22": 0.07, "G_2_21": -0.2,
         "G_2_21_x2": 0.04}, [-0.5, 0.25], [0.8, -0.6], [0.1, -0.2], 0.8,
        [0.5, -0.6]),
}


def _curve_pairs(name, bundle):
    """(curve, its list form) along every standard curve of ``bundle``,
    each also reversed."""
    _, p, q, centre, radius, _ = _RHS_CASES[name]
    circle = circle_loop(bundle, centre, radius, -0.4, 1.3)
    pairs = [(segment_curve(bundle, p, q, 0.25, 1.5),
              _list_form_segment(bundle, p, q, 0.25, 1.5)),
             (circle, CurveOnBase(bundle, circle.fn, circle.t0, circle.t1,
                                  circle.velocity_fn))]
    if name == "sphere":
        loop = latitude_loop(bundle, 1.1)
        pairs.append((loop, CurveOnBase(bundle, loop.fn, loop.t0, loop.t1,
                                        loop.velocity_fn)))
    return pairs + [(reversed_curve(c), _list_form_reversed(r))
                    for c, r in pairs]


@pytest.mark.parametrize("name", sorted(_RHS_CASES))
def test_transport_bit_equal_to_list_form_rhs(name):
    from fibrum import transport
    params, *_, y0 = _RHS_CASES[name]
    conn = build_connection(name, params)
    cfg = IntegratorConfig(step=1e-2)
    pairs = _curve_pairs(name, conn.bundle)
    assert len(pairs) == (6 if name == "sphere" else 4)
    for curve, ref in pairs:
        got, got_path = parallel_transport_path(conn, curve, y0, cfg)
        want, want_path = transport._rk4(
            _list_form_transport_rhs(conn, ref), y0, ref.t1 - ref.t0, cfg,
            conn.bundle.fibre_box.contains, "parallel transport", ref.t0,
            True, 0)
        _assert_same_bits(got, want)
        assert len(got_path) == len(want_path)
        for (gt, gy), (wt, wy) in zip(got_path, want_path):
            _assert_same_bits([gt] + gy, [wt] + wy)


@pytest.mark.parametrize("name", sorted(_RHS_CASES))
def test_flow_bit_equal_to_list_form_rhs(name):
    from fibrum import transport
    from fibrum.catalog import _FIELD_SCALES, _base_field, _sin_fns
    conn = build_connection(name, _RHS_CASES[name][0])
    bundle = conn.bundle
    rng = np.random.default_rng(17)
    cfg = IntegratorConfig(step=1e-2)
    for lam in (0.3, -0.25):
        comps = _sin_fns(rng, bundle.base_dim,
                         [_FIELD_SCALES] * bundle.base_dim)
        hv = horizontal_lift_field(conn, _base_field(bundle, comps))
        e0 = random_base_point(bundle, rng).coords + tuple(_RHS_CASES[name][5])
        got = flow(hv, bundle.total_point(e0), lam, cfg).coords
        want = transport._rk4(_list_form_flow_rhs(conn, comps), list(e0),
                              lam, cfg, bundle.contains_total, "flow")
        _assert_same_bits(got, want)


def _velocity_calls(conn, curve, y0, cfg, monkeypatch, as_tuple):
    """(result, rhs times, velocity times) of one transport along a
    hand-built copy of ``curve``, whose ``velocity_fn`` is recorded and,
    with ``as_tuple``, returns a tuple."""
    from fibrum import transport
    original = transport._rk4
    rhs_times, velocity_times = [], []

    def hooked(rhs, *args):
        def timed_rhs(t, z):
            rhs_times.append(t)
            return rhs(t, z)

        return original(timed_rhs, *args)

    def velocity(t):
        velocity_times.append(t)
        v = curve.velocity_fn(t)
        return tuple(v) if as_tuple else v

    monkeypatch.setattr(transport, "_rk4", hooked)
    recorded = CurveOnBase(curve.bundle, curve.fn, curve.t0, curve.t1,
                           velocity)
    out = parallel_transport_vector(conn, recorded, y0, cfg)
    monkeypatch.undo()
    return out, rhs_times, velocity_times


@pytest.mark.parametrize("make", [
    lambda b: segment_curve(b, [0.8, -1.0], [1.9, 1.2], 0.25, 1.5),
    lambda b: reversed_curve(segment_curve(b, [0.8, -1.0], [1.9, 1.2])),
    lambda b: latitude_loop(b, 1.1, 0.3, 2.0),
    lambda b: circle_loop(b, [1.5, 0.0], 0.6, -0.4, 1.3),
], ids=["segment", "reversed-segment", "latitude", "circle"])
def test_velocity_read_once_per_stage_time(sphere_conn, monkeypatch, make):
    curve = make(sphere_conn.bundle)
    cfg = IntegratorConfig(step=0.03)
    y0 = [0.6, 0.1]
    want = parallel_transport_vector(sphere_conn, curve, y0, cfg)
    for as_tuple in (False, True):
        out, rhs_times, velocity_times = _velocity_calls(
            sphere_conn, curve, y0, cfg, monkeypatch, as_tuple)
        # a velocity given as a tuple is copied into a list, same bits
        _assert_same_bits(out, want)
        assert len(rhs_times) == 4 * cfg.n_steps(curve.t1 - curve.t0)
        stages = [t for k, t in enumerate(rhs_times)
                  if k == 0 or t != rhs_times[k - 1]]
        assert velocity_times == stages
