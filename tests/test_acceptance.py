"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).

Criterion 1 is the paper's formula: the curvature of a (possibly
nonlinear) connection equals nabla_u nabla_v s - nabla_v nabla_u s
- nabla_[u,v] s, computed by ``curv_via_covariant_composition`` and
compared with the lift route.  The bare commutator route
``curv_via_covariant`` is not that formula: it omits the cross-bracket sum
(see the README section on the red check and demos/02).

Criterion 13's exit-status clause asks ``verify`` to exit 0 on the three
standard bundles with every row passing.  It stays red while the
``verify-all`` rows ``curvature_routes_equality`` and
``flatness_via_covariant`` still test the bare commutator route.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fibrum import (BaseVectorField, IntegratorConfig, SectionMap,
                    base_lie_bracket, check_p_related, circle_loop,
                    composition_commutator, covariant_derivative,
                    curv_via_covariant_composition,
                    curv_via_lifts, curv_via_vertical_projection, cocurvature,
                    extend_natural_derivative, flow, geodesic, holonomy_loop,
                    horizontal_lift, horizontal_lift_field,
                    horizontal_projector, latitude_loop, leibniz_check,
                    lie_bracket, lie_derivative_covariant, lift_rank_check,
                    make_flat, make_nonlinear_demo, make_sphere,
                    random_base_field, random_base_point, random_section,
                    random_tangent, random_total_point, second_covariant_derivative,
                    sin, sphere_angle_between, sphere_latitude_gb_angle,
                    spray_from_connection, tensoriality_check_curvature,
                    torsion, vertical_projector)
from fibrum.calculus import as_float_array
from fibrum.config import DEFAULT_SEED

ACCEPT_SEED = 31415
STEP = 1e-3
CFG = IntegratorConfig(step=STEP)


def _report(num: int, description: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {verdict} [criterion {num:2d}] {description}: {detail}")
    assert passed, f"criterion {num} failed: {description}: {detail}"


def _catalog():
    return [make_flat(), make_sphere(), make_nonlinear_demo()]


def _tuples(n: int):
    """The seeded random (connection, section, field pair, point) tuples."""
    conns = _catalog()
    rng = np.random.default_rng(ACCEPT_SEED)
    for i in range(n):
        conn = conns[i % len(conns)]
        bundle = conn.bundle
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        yield conn, s, u, v, x


def test_c01_curvature_route_equality():
    t0 = time.monotonic()
    worst = 0.0
    for conn, s, u, v, x in _tuples(100):
        lifts = curv_via_lifts(conn, s, u, v, x).fibre_part
        cov = curv_via_covariant_composition(conn, s, u, v, x).fibre_part
        worst = max(worst, float(np.max(np.abs(cov - lifts))))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30 s budget"
    _report(1, "lift route equals the covariant-derivative formula over "
               "100 tuples",
            worst <= 1e-8,
            f"max residual {worst:.3e} vs 1e-8 in {elapsed:.1f}s")


def test_c02_lift_route_internal_identity():
    worst_eq = 0.0
    worst_base = 0.0
    for conn, s, u, v, x in _tuples(100):
        m = conn.bundle.base_dim
        a = curv_via_lifts(conn, s, u, v, x).fibre_part
        b = curv_via_vertical_projection(conn, s, u, v, x).fibre_part
        worst_eq = max(worst_eq, float(np.max(np.abs(a - b))))
        hu = horizontal_lift_field(conn, u)
        hv = horizontal_lift_field(conn, v)
        hw = horizontal_lift_field(conn, base_lie_bracket(u, v))
        e = s.graph(x)
        diff = as_float_array(hw(e)) - as_float_array(lie_bracket(hu, hv)(e))
        worst_base = max(worst_base, float(np.max(np.abs(diff[:m]))))
    _report(2, "difference route equals projected-bracket route, vertically",
            worst_eq <= 1e-9 and worst_base <= 1e-10,
            f"identity residual {worst_eq:.3e} vs 1e-9, "
            f"base part {worst_base:.3e} vs 1e-10")


def test_c03_cocurvature_vanishes():
    worst = 0.0
    rng = np.random.default_rng(ACCEPT_SEED + 3)
    for conn in _catalog():
        for _ in range(200):
            e = random_total_point(conn.bundle, rng)
            X = random_tangent(conn, e, rng)
            Y = random_tangent(conn, e, rng)
            worst = max(worst, float(np.max(np.abs(
                cocurvature(conn, e, X, Y).as_vector()))))
    _report(3, "cocurvature identically zero (200 evals per connection)",
            worst <= 1e-10, f"max residual {worst:.3e} vs 1e-10")


def test_c04_curvature_tensoriality():
    worst = 0.0
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    for conn in _catalog():
        m = conn.bundle.base_dim
        scalars = [
            lambda c: 1.7 + 0.0 * c[0],
            lambda c, _m=m: c[0] + c[_m] * c[_m],
            lambda c: (c[0] + c[1]) * c[1],
        ]
        for scalar in scalars:
            for _ in range(15):
                e = random_total_point(conn.bundle, rng)
                X = random_tangent(conn, e, rng)
                Y = random_tangent(conn, e, rng)
                worst = max(worst, tensoriality_check_curvature(
                    conn, e, X, Y, scalar))
    _report(4, "R(fX, Y) = f R(X, Y) with explicit extensions, 3 fields each",
            worst <= 1e-9, f"max residual {worst:.3e} vs 1e-9")


def test_c05_projector_algebra():
    worst = 0.0
    rng = np.random.default_rng(ACCEPT_SEED + 5)
    for conn in _catalog():
        d = conn.bundle.total_dim
        eye = np.eye(d)
        for _ in range(200):
            e = random_total_point(conn.bundle, rng)
            pv = vertical_projector(conn, e).matrix
            ph = horizontal_projector(conn, e).matrix
            worst = max(worst,
                        float(np.max(np.abs(pv @ pv - pv))),
                        float(np.max(np.abs(ph @ ph - ph))),
                        float(np.max(np.abs(pv @ ph))),
                        float(np.max(np.abs(ph @ pv))),
                        float(np.max(np.abs(pv + ph - eye))))
    _report(5, "projector algebra at 200 random points per connection",
            worst <= 1e-12, f"max residual {worst:.3e} vs 1e-12")


def test_c06_bracket_relatedness():
    worst_bracket = 0.0
    worst_related = 0.0
    rng = np.random.default_rng(ACCEPT_SEED + 6)
    for conn in _catalog():
        bundle = conn.bundle
        m = bundle.base_dim
        for _ in range(34):
            u = random_base_field(bundle, rng)
            v = random_base_field(bundle, rng)
            e = random_total_point(bundle, rng)
            br = lie_bracket(horizontal_lift_field(conn, u),
                             horizontal_lift_field(conn, v))
            uv = base_lie_bracket(u, v)
            worst_bracket = max(worst_bracket, float(np.max(np.abs(
                as_float_array(br(e))[:m]
                - as_float_array(uv(list(e.base_coords)))))))
        s = random_section(bundle, rng)
        v = random_base_field(bundle, rng)
        ext = extend_natural_derivative(s, v)
        samples = [random_total_point(bundle, rng) for _ in range(100)]
        worst_related = max(worst_related, check_p_related(ext, v, samples))
    _report(6, "bracket of lifts projects onto the base bracket; extensions "
               "are projection-related",
            worst_bracket <= 1e-9 and worst_related <= 1e-12,
            f"bracket base residual {worst_bracket:.3e} vs 1e-9, "
            f"relatedness {worst_related:.3e} vs 1e-12")


def test_c07_lift_rank_and_section_tensoriality():
    rng = np.random.default_rng(ACCEPT_SEED + 7)
    rank_ok = True
    exact = 0.0
    for conn in _catalog():
        bundle = conn.bundle
        for _ in range(50):
            s = random_section(bundle, rng)
            x = random_base_point(bundle, rng)
            if lift_rank_check(conn, s, x) != bundle.base_dim:
                rank_ok = False
        s1 = random_section(bundle, rng)
        x = random_base_point(bundle, rng)
        sx = [float(c) for c in as_float_array(s1(x))]
        s2 = SectionMap(bundle, lambda c, _v=sx: _v)
        for j in range(bundle.base_dim):
            basis = [1.0 if k == j else 0.0 for k in range(bundle.base_dim)]
            l1 = horizontal_lift(conn, s1.graph(x), basis).as_vector()
            l2 = horizontal_lift(conn, s2.graph(x), basis).as_vector()
            exact = max(exact, float(np.max(np.abs(l1 - l2))))
    _report(7, "lift rank m at 50 points per connection; lift depends on the "
               "section only through its point value (exact)",
            rank_ok and exact == 0.0,
            f"rank full: {rank_ok}, point-value invariance residual {exact}")


def test_c08_flow_algebra_bridge_order():
    conn = make_sphere()
    rng = np.random.default_rng(ACCEPT_SEED + 8)
    s = random_section(conn.bundle, rng)
    v = random_base_field(conn.bundle, rng)
    x = random_base_point(conn.bundle, rng)
    alg = covariant_derivative(conn, s, v, x)
    errs = []
    for lam in (1e-2, 1e-3, 1e-4):
        fd = lie_derivative_covariant(conn, s, v, x,
                                      IntegratorConfig(step=lam))
        errs.append(float(np.max(np.abs(fd - alg))))
    orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
    _report(8, "flow definition converges to the algebraic covariant "
               "derivative at order >= 1.9",
            min(orders) >= 1.9,
            f"errors {errs[0]:.3e}/{errs[1]:.3e}/{errs[2]:.3e}, orders "
            f"{orders[0]:.3f}, {orders[1]:.3f}")


def test_c09_sprays_and_geodesics():
    conn = make_sphere()
    x0, v0 = [1.0, 0.3], [0.3, 0.4]
    samples = geodesic(conn, x0, v0, 1.0, CFG)
    spray = spray_from_connection(conn)
    e0 = conn.bundle.total_point(x0 + v0)
    end = flow(spray.as_total_field(), e0, 1.0, CFG)
    t, xf, vf = samples[-1]
    agree = float(np.max(np.abs(np.array(end.coords)
                                - np.concatenate([xf, vf]))))

    # covariant residual of the velocity along both trajectories
    def geo_residual():
        ts = [t for t, _, _ in samples]
        xs = [x for _, x, _ in samples]
        vs = [v for _, _, v in samples]
        h = ts[1] - ts[0]
        worst = 0.0
        for k in range(2, len(ts) - 2, 25):
            vdot = (-vs[k + 2] + 8 * vs[k + 1] - 8 * vs[k - 1]
                    + vs[k - 2]) / (12 * h)
            g = as_float_array(conn.gamma(list(xs[k]), list(vs[k]),
                                          list(vs[k])))
            worst = max(worst, float(np.max(np.abs(vdot + g))))
        return worst

    def spray_residual():
        field = spray.as_total_field()
        worst = 0.0
        delta = 1e-3
        for t_star in (0.25, 0.5, 0.75):
            states = [np.array(flow(field, e0, t_star + j * delta, CFG).coords)
                      for j in (-2, -1, 0, 1, 2)]
            vdot = (-states[4][2:] + 8 * states[3][2:] - 8 * states[1][2:]
                    + states[0][2:]) / (12 * delta)
            x, v = states[2][:2], states[2][2:]
            g = as_float_array(conn.gamma(list(x), list(v), list(v)))
            worst = max(worst, float(np.max(np.abs(vdot + g))))
        return worst

    r1, r2 = geo_residual(), spray_residual()
    _report(9, "spray flow matches the geodesic integrator; velocity is "
               "covariantly constant along both",
            agree <= 1e-8 and r1 <= 1e-8 and r2 <= 1e-8,
            f"trajectory agreement {agree:.3e} vs 1e-8, covariant residuals "
            f"{r1:.3e}, {r2:.3e} vs 1e-8")


def test_c10_holonomy_quantitative():
    conn = make_sphere()
    theta0 = math.pi / 3.0
    loop = latitude_loop(conn.bundle, theta0)
    y0 = [1.0, 0.0]
    y1, _ = holonomy_loop(conn, loop, y0, CFG)
    ang = sphere_angle_between([theta0, 0.0], y0, y1)

    fine = IntegratorConfig(step=STEP / 16.0)
    y1_fine, _ = holonomy_loop(conn, loop, y0, fine)
    ang_fine = sphere_angle_between([theta0, 0.0], y0, y1_fine)
    gb = abs(math.remainder(sphere_latitude_gb_angle(conn, theta0),
                            2.0 * math.pi))
    oracle_gap = abs(ang_fine - gb)

    flat = make_flat()
    flat_loop = circle_loop(flat.bundle, [0.0, 0.0], 0.8)
    _, disp = holonomy_loop(flat, flat_loop, [0.5, 0.5], CFG)

    _report(10, "latitude pi/3 rotates by pi within 1e-4; oracles agree to "
                "1e-6; flat loops displace nothing",
            abs(ang - math.pi) <= 1e-4 and oracle_gap <= 1e-6
            and disp <= 1e-10,
            f"angle {ang:.8f} (err {abs(ang - math.pi):.3e} vs 1e-4), "
            f"oracle gap {oracle_gap:.3e} vs 1e-6, flat displacement "
            f"{disp:.3e} vs 1e-10")


def test_c11_linear_specialization():
    conn = make_sphere()
    rng = np.random.default_rng(ACCEPT_SEED + 11)
    bundle = conn.bundle
    worst_leib = worst_comp = worst_tors_form = worst_tors = 0.0
    from fibrum import sin as fsin
    for _ in range(25):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        v = random_base_field(bundle, rng)
        x = random_base_point(bundle, rng)
        worst_leib = max(worst_leib, leibniz_check(
            conn, s, lambda c: fsin(c[0]), v, x))
        lifts = curv_via_lifts(conn, s, u, v, x).fibre_part
        comp = composition_commutator(conn, s, u, v, x)
        worst_comp = max(worst_comp, float(np.max(np.abs(comp - lifts))))
        d2uv = second_covariant_derivative(conn, s, u, v, x)
        d2vu = second_covariant_derivative(conn, s, v, u, x)
        tors = torsion(conn, u, v, x)
        w = BaseVectorField(bundle, lambda c, _t=tors: list(_t))
        nt = covariant_derivative(conn, s, w, x)
        worst_tors_form = max(worst_tors_form, float(np.max(np.abs(
            d2uv - d2vu + nt - lifts))))
        worst_tors = max(worst_tors, float(np.max(np.abs(tors))))
    _report(11, "Leibniz, composition-commutator curvature, second-"
                "derivative/torsion form, torsion-free sphere",
            worst_leib <= 1e-10 and worst_comp <= 1e-8
            and worst_tors_form <= 1e-8 and worst_tors <= 1e-12,
            f"leibniz {worst_leib:.3e} vs 1e-10, composition {worst_comp:.3e} "
            f"vs 1e-8, torsion form {worst_tors_form:.3e} vs 1e-8, torsion "
            f"{worst_tors:.3e} vs 1e-12")


def _bend(fn, x0, dim, rng):
    """fn plus sum_j c_j sin(x_j - x0_j) times w, for random c and w: the
    same value at x0 and a different first derivative there."""
    c = rng.uniform(-1, 1, len(x0)).tolist()
    w = rng.uniform(-1, 1, dim).tolist()

    def bent(x):
        k = sum(cj * sin(xj - x0j) for cj, xj, x0j in zip(c, x, x0))
        return [a + k * b for a, b in zip(fn(x), w)]
    return bent


def test_c12_extension_independence():
    # The paper's tensoriality argument: the formula in covariant
    # derivatives sees s, u and v only through their values at x, whatever
    # their first derivatives there.
    worst = 0.0
    rng = np.random.default_rng(ACCEPT_SEED + 12)
    for conn, s, u, v, x in _tuples(60):
        bundle = conn.bundle
        x0 = list(x.coords)
        s2 = SectionMap(bundle, _bend(s.fn, x0, bundle.fibre_dim, rng))
        u2 = BaseVectorField(bundle, _bend(u.fn, x0, bundle.base_dim, rng))
        v2 = BaseVectorField(bundle, _bend(v.fn, x0, bundle.base_dim, rng))
        base = curv_via_covariant_composition(conn, s, u, v, x).fibre_part
        bent = curv_via_covariant_composition(conn, s2, u2, v2, x).fibre_part
        worst = max(worst, float(np.max(np.abs(base - bent))))
    _report(12, "curvature in covariant derivatives depends only on s, u "
                "and v at x, not on their first derivatives there",
            worst <= 1e-9, f"max change {worst:.3e} vs 1e-9")


def _cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "fibrum.cli", *args],
                          capture_output=True, text=True, env=env)


def test_c13a_verify_exit_codes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FIBRUM_SEED"}
    codes, red, problems = {}, {}, []
    for name in ("flat", "sphere", "nonlinear-demo"):
        out = tmp_path / f"{name}.json"
        proc = _cli("verify", name, "--quiet", "--out", str(out), env=env)
        codes[name] = proc.returncode
        if not out.exists():
            problems.append(f"{name}: no report written ({proc.stderr!r})")
            continue
        tree = json.loads(out.read_text())
        if (tree["scenario"]["bundle_name"], tree["scenario"]["scenario"],
                tree["environment"]["seed"]) != (name, "verify-all",
                                                 DEFAULT_SEED):
            problems.append(f"{name}: report is not from this run")
        red[name] = sorted(r["check_name"] for r in tree["checks"]
                           if not r["pass"])
    _report(13, "verify exits 0 for flat/sphere/nonlinear-demo",
            all(c == 0 for c in codes.values()) and not problems
            and not any(red.values()),
            f"exit codes {codes}; failing rows {red}; "
            f"problems {problems or 'none'}")


def test_c13b_reports_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    _cli("verify", "flat", "--quiet", "--seed", "7", "--out", str(p1))
    _cli("verify", "flat", "--quiet", "--seed", "7", "--out", str(p2))
    identical = p1.read_bytes() == p2.read_bytes()
    _report(13, "reports byte-identical under a fixed seed", identical,
            "flat verify-all emitted twice with seed 7")


def test_c13c_bad_tolerance_fails_named_row(tmp_path):
    cfg = tmp_path / "cfg.json"
    rep = tmp_path / "rep.json"
    cfg.write_text(json.dumps({
        "bundle_name": "flat", "scenario": "curvature-table",
        "scenario_params": {"samples": 1},
        "tolerances": {"catalog_integrity": -1.0},
        "output_path": str(rep)}), encoding="utf-8")
    out = _cli("run", str(cfg), "--quiet")
    tree = json.loads(rep.read_text())
    bad = [r["check_name"] for r in tree["checks"] if not r["pass"]]
    _report(13, "injected bad tolerance exits 1 with the failing row named",
            out.returncode == 1 and bad == ["catalog_integrity"],
            f"exit {out.returncode}, failing rows {bad}")
