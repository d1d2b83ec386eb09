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
                    SectionMap, TotalVectorField, covariant_derivative,
                    covariant_derivative_along_curve, flow, flow_base,
                    geodesic, holonomy_loop, horizontal_lift,
                    horizontal_lift_field, latitude_loop,
                    lie_derivative_covariant, make_flat, circle_loop,
                    parallel_transport_path, parallel_transport_vector,
                    random_base_field, random_base_point, random_section,
                    reversed_curve, segment_curve, spray_from_connection,
                    sphere_angle_between, sphere_latitude_gb_angle,
                    sphere_metric)
from fibrum.calculus import as_float_array
from fibrum.errors import (ChartExitError, DomainError, StepBudgetError,
                           TangentBundleRequiredError)

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
        return -as_float_array(conn.gamma(list(x), list(y), list(cdot)))

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
    a = parallel_transport_vector(sphere_conn, curve, [1.0, 0.0], CFG)
    b = parallel_transport_vector(sphere_conn, curve, [0.0, 1.0], CFG)
    mix = parallel_transport_vector(sphere_conn, curve, [0.6, -1.1], CFG)
    assert np.max(np.abs(mix - (0.6 * a - 1.1 * b))) < 1e-10


def test_transported_vector_covariantly_constant(sphere_conn):
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])
    y0 = [0.6, 0.1]
    _, path = parallel_transport_path(sphere_conn, curve, y0, CFG)
    ts = [t for t, _ in path]
    ys = [y for _, y in path]
    h = ts[1] - ts[0]
    worst = 0.0
    for k in range(2, len(ts) - 2, 25):
        ydot = (-ys[k + 2] + 8 * ys[k + 1] - 8 * ys[k - 1] + ys[k - 2]) / (12 * h)
        g = as_float_array(sphere_conn.gamma(list(curve.fn(ts[k])),
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
                 as_float_array(np.asarray(y_of_t(tau), dtype=float))]
        return parallel_transport_vector(sphere_conn, back, y_tau, fine)

    t = 0.4
    errs = []
    for h in (1e-2, 1e-3):
        fd = (pulled_back(t + h, t) - pulled_back(t - h, t)) / (2.0 * h)
        val = covariant_derivative_along_curve(sphere_conn, curve, y_of_t, t)
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
        return parallel_transport_vector(sphere_conn, sub, y0, fine)

    t, h = 0.5, 1e-4
    ydot = (transported(t + h) - transported(t - h)) / (2.0 * h)
    g = as_float_array(sphere_conn.gamma(
        list(curve.fn(t)), list(transported(t)), list(curve.velocity(t))))
    assert np.max(np.abs(ydot + g)) < 1e-7


def test_covariant_derivative_along_curve_flat_plain_derivative(flat_conn):
    curve = segment_curve(flat_conn.bundle, [-1.0, 0.0], [1.0, 0.5])

    def y_of_t(t):
        return [t * t, 0.5 * t]

    val = covariant_derivative_along_curve(flat_conn, curve, y_of_t, 0.4)
    assert np.max(np.abs(val - np.array([0.8, 0.5]))) < 1e-13


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
    g = as_float_array(sphere_conn.gamma(list(curve.fn(0.0)), list(y0),
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
        a = as_float_array(sphere_conn.gamma(list(x), list(v), list(v)))
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
        out = as_float_array(spray(list(x) + list(v)))
        assert np.array_equal(out[:2], v)  # spray law, exact
        e = sphere_conn.bundle.graph_point(x, v)
        lift = horizontal_lift(sphere_conn, e, v)
        assert np.max(np.abs(lift.as_vector() - out)) < 1e-14


def test_spray_flow_matches_geodesic(sphere_conn):
    x0, v0 = [1.0, 0.3], [0.3, 0.4]
    spray = spray_from_connection(sphere_conn)
    e0 = sphere_conn.bundle.total_point(x0 + v0)
    end = flow(spray.as_total_field(), e0, 1.0, CFG)
    t, x, v = geodesic(sphere_conn, x0, v0, 1.0, CFG)[-1]
    assert np.max(np.abs(np.array(end.coords)
                         - np.concatenate([x, v]))) < 1e-8


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
        errs.append(np.max(np.abs(fd - alg)))
    orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_holonomy_flat_loop_zero(flat_conn):
    loop = circle_loop(flat_conn.bundle, [0.0, 0.0], 0.8)
    y1, disp = holonomy_loop(flat_conn, loop, [0.5, 0.5], CFG)
    assert disp <= 1e-10


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
    assert np.max(np.abs(y1 + np.array(y0))) < 1e-6


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
        g = sphere_metric(loop.fn(t))
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
    assert disp == float(np.linalg.norm(y_path - np.array(y0)))


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


def test_transport_goes_through_rk4_with_four_calls_per_step(sphere_conn,
                                                             monkeypatch):
    from fibrum import transport
    original = transport._rk4
    seen = []

    def hooked(rhs, *args):
        counted = []

        def rhs_counted(t, z):
            counted.append(t)
            return rhs(t, z)

        out = original(rhs_counted, *args)
        seen.append((len(counted), args[6] if len(args) > 6 else False))
        return out

    monkeypatch.setattr(transport, "_rk4", hooked)
    cfg = IntegratorConfig(step=1e-2)
    curve = segment_curve(sphere_conn.bundle, [0.8, -1.0], [1.9, 1.2])
    parallel_transport_vector(sphere_conn, curve, [0.6, 0.1], cfg)
    parallel_transport_path(sphere_conn, curve, [0.6, 0.1], cfg)
    n = cfg.n_steps(curve.t1 - curve.t0)
    assert seen == [(4 * n, False), (4 * n, True)]


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
