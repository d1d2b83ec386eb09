"""Per-layer metrics: what a traced pass recorded, plus isolated probes.

``per_layer`` turns one :class:`tracer.Tracer` into the named metrics of
``BENCHMARK.json``; ``probes`` times single calls into public functions
with the tracer off.  README.md lists which end-to-end metric each one
should move, and on which workload.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

from tracer import LAYERS, Tracer

CURVATURE_FNS = ("curv_via_lifts", "curv_via_covariant", "cross_bracket_sum",
                 "curvature")
SCENARIO_GROUPS = ("connection_checks", "curvature_checks", "transport_checks",
                   "sphere_holonomy_checks")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, traced_wall: float, src: Path) -> dict:
    """Metric name -> (value, unit) for one traced pass."""
    m: dict[str, tuple[float, str]] = {}

    def calls(key):
        return tr.stat(key).calls

    steps = tr.rk4_rhs_calls // 4
    m["transport.rk4_steps"] = (steps, "count")
    m["transport.path_entries"] = (tr.path_entries, "count")
    m["transport.us_per_rk4_step"] = (
        1e6 * _ratio(tr.stat("transport.rk4").incl, steps), "us")
    m["transport.parallel_transport_path.calls"] = (
        calls("transport.parallel_transport_path"), "count")
    for fn in ("parallel_transport_path", "holonomy_loop", "flow", "geodesic"):
        m[f"transport.{fn}.self_s"] = (tr.stat(f"transport.{fn}").self_s, "s")
    m["transport.span_share"] = (_ratio(tr.layer_s("transport"), traced_wall),
                                 "ratio")
    for key in ("calculus.derivative", "connection.gamma"):
        m[f"{key}.calls"] = (calls(key), "count")
        m[f"{key}.per_rk4_step"] = (_ratio(calls(key), steps), "ratio")

    jac = tr.stat("calculus.jacobian")
    m["calculus.jacobian.calls"] = (jac.calls, "count")
    m["calculus.jacobian.self_s"] = (jac.self_s, "s")
    m["calculus.jacobian.us_per_call"] = (1e6 * _ratio(jac.incl, jac.calls),
                                          "us")
    br = tr.stat("bundle.lie_bracket.eval")
    m["bundle.lie_bracket.evals"] = (br.calls, "count")
    m["bundle.lie_bracket.self_s"] = (
        br.self_s + tr.stat("bundle.lie_bracket").self_s, "s")
    m["bundle.lie_bracket.us_per_eval"] = (1e6 * _ratio(br.incl, br.calls),
                                           "us")

    for fn in CURVATURE_FNS:
        m[f"curvature.{fn}.calls"] = (calls(f"curvature.{fn}"), "count")
        m[f"curvature.{fn}.self_s"] = (tr.stat(f"curvature.{fn}").self_s, "s")
    m["curvature.cross_bracket_sum.per_sample"] = (
        _ratio(calls("curvature.cross_bracket_sum"), tr.route_samples),
        "ratio")

    for fn in ("vertical_projector", "horizontal_projector",
               "covariant_derivative"):
        m[f"connection.{fn}.self_s"] = (tr.stat(f"connection.{fn}").self_s,
                                        "s")
    for fn in SCENARIO_GROUPS:
        m[f"scenarios.{fn}.s"] = (tr.stat(f"scenarios.{fn}").incl, "s")
    m["scenarios.run_scenario.self_s"] = (
        tr.stat("scenarios.run_scenario").self_s, "s")

    m["config.emit_report.s"] = (tr.stat("config.emit_report").incl, "s")
    m["config.report_bytes"] = (tr.report_bytes, "bytes")
    m["config.load_config.s"] = (tr.stat("config.load_config").incl, "s")
    m["catalog.build_connection.s"] = (
        tr.stat("catalog.build_connection").incl, "s")
    m["catalog.random_draws.s"] = (
        sum(st.incl for key, st in tr.stats.items()
            if key.startswith("catalog.random_")), "s")
    m["cli.main.self_s"] = (tr.stat("cli.main").self_s, "s")

    for layer in LAYERS:
        m[f"{layer}.s"] = (tr.layer_s(layer), "s")
        m[f"{layer}.self_s"] = (
            sum(st.self_s for key, st in tr.stats.items()
                if key.split(".", 1)[0] == layer), "s")
        text = (src / "fibrum" / f"{layer}.py").read_text(encoding="utf-8")
        m[f"{layer}.lines"] = (len(text.splitlines()), "lines")
    return m


# -- isolated probes -------------------------------------------------------

def _median_us(fn, number: int, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(times)


def probes(seed: int) -> dict:
    """Median microseconds of single calls, tracer off: the per-layer
    baselines of one DScalar multiply, a 2->2 Jacobian, one Lie-bracket
    evaluation, each curvature route and one RK4 transport step, all on
    the sphere connection where a connection is needed."""
    import numpy as np

    from fibrum.bundle import lie_bracket
    from fibrum.calculus import DScalar, jacobian
    from fibrum.catalog import (build_connection, latitude_loop,
                                random_base_field, random_base_point,
                                random_section, random_total_point)
    from fibrum.connection import horizontal_lift_field
    from fibrum.curvature import (cross_bracket_sum, curv_via_covariant,
                                  curv_via_lifts)
    from fibrum.transport import IntegratorConfig, parallel_transport_path

    rng = np.random.default_rng([seed, 41])
    conn = build_connection("sphere")
    bundle = conn.bundle
    s = random_section(bundle, rng)
    u = random_base_field(bundle, rng)
    v = random_base_field(bundle, rng)
    x = random_base_point(bundle, rng)
    e = random_total_point(bundle, rng)
    coords = list(x.coords)
    a = DScalar(1.3, (1.0, 0.0))
    b = DScalar(0.7, (0.0, 1.0))
    bracket = lie_bracket(horizontal_lift_field(conn, u),
                          horizontal_lift_field(conn, v))
    n_steps = 200
    arc = latitude_loop(bundle, math.pi / 3.0, 0.0, n_steps * 1e-3)
    icfg = IntegratorConfig(step=1e-3)

    return {
        "probe.dscalar_mul_us": _median_us(lambda: a * b, 20000),
        "probe.jacobian_2x2_us": _median_us(lambda: jacobian(s.fn, coords),
                                            400),
        "probe.lie_bracket_eval_us": _median_us(lambda: bracket(e), 100),
        "probe.curv_via_lifts_us": _median_us(
            lambda: curv_via_lifts(conn, s, u, v, x), 40),
        "probe.curv_via_covariant_us": _median_us(
            lambda: curv_via_covariant(conn, s, u, v, x), 20),
        "probe.cross_bracket_sum_us": _median_us(
            lambda: cross_bracket_sum(conn, s, u, v, x), 20),
        "probe.rk4_step_us": _median_us(
            lambda: parallel_transport_path(conn, arc, [1.0, 0.0], icfg),
            3) / n_steps,
    }
