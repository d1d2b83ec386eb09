"""Catalog bundles, custom Christoffel parsing, samplers."""

import math

import numpy as np
import pytest

from fibrum import (ConnectionKind, build_connection, make_custom_christoffel,
                    make_flat, make_nonlinear_demo, make_sphere,
                    random_base_field, random_base_point, random_section,
                    random_total_point, sphere_metric)
from fibrum.calculus import as_float_array
from fibrum.catalog import CATALOG, CHRISTOFFELS
from fibrum.errors import ConfigError


def test_flat_dimensions_configurable():
    conn = make_flat(m=3, f=1, base_half=1.5, fibre_half=0.5)
    assert conn.bundle.base_dim == 3
    assert conn.bundle.fibre_dim == 1
    assert conn.kind is ConnectionKind.LINEAR
    assert conn.bundle.base_box.upper == (1.5, 1.5, 1.5)


def test_sphere_chart_excludes_polar_collar():
    bundle = make_sphere().bundle
    assert bundle.base_box.lower[0] == pytest.approx(0.2)
    assert bundle.base_box.upper[0] == pytest.approx(math.pi - 0.2)
    assert bundle.base_periods == (None, 2.0 * math.pi)
    with pytest.raises(Exception):
        bundle.base_point([0.1, 0.0])


def test_sphere_christoffel_values():
    conn = make_sphere()
    th = 0.9
    got = as_float_array(conn.gamma([th, 0.3], [1.0, 0.0], [0.0, 1.0]))
    # (gamma(x,y)v)^a = G^a_bc v^b y^c with v = d_phi, y = (1,0):
    # a=phi: G^ph_ph,th v^ph y^th = cot(th)
    assert np.max(np.abs(got - np.array([0.0, math.cos(th) / math.sin(th)]))) \
        < 1e-15
    got = as_float_array(conn.gamma([th, 0.3], [0.0, 1.0], [0.0, 1.0]))
    # a=theta: G^th_ph,ph v^ph y^ph = -sin cos
    assert abs(got[0] - (-math.sin(th) * math.cos(th))) < 1e-15


def test_nonlinear_demo_is_nonlinear_in_y():
    conn = make_nonlinear_demo()
    x = [0.5, -0.2]
    v = [1.0, 0.0]
    g1 = as_float_array(conn.gamma(x, [0.5], v))
    g2 = as_float_array(conn.gamma(x, [1.0], v))
    # (y + y^3): doubling y does not double gamma
    assert abs(2.0 * g1[0] - g2[0]) > 1e-3
    assert conn.kind is ConnectionKind.NONLINEAR


def test_custom_christoffel_constant_and_linear_terms():
    conn = make_custom_christoffel({"G_1_12": 1.0, "G_2_21_x1": 0.5})
    got = as_float_array(conn.gamma([0.4, 0.0], [0.0, 1.0], [1.0, 0.0]))
    # G^1_12 v^1 y^2 = 1
    assert abs(got[0] - 1.0) < 1e-15
    # G^2_21(x) v^2 y^1 = 0 here since v^2 = 0
    assert abs(got[1]) < 1e-15
    got = as_float_array(conn.gamma([0.4, 0.0], [1.0, 0.0], [0.0, 1.0]))
    # G^2_21(x) = 0.5 x1 = 0.2; v^2 y^1 = 1
    assert abs(got[1] - 0.2) < 1e-15


def test_custom_christoffel_key_validation():
    for bad in ("G_1", "H_1_12", "G_1_123", "G_1_12_y1", "G_3_12", "G_a_bc"):
        with pytest.raises(ConfigError):
            make_custom_christoffel({bad: 1.0})


def test_build_connection_dispatch():
    conn = build_connection("flat", {"m": 2, "f": 2})
    assert conn.bundle.name == "flat"
    with pytest.raises(ConfigError):
        build_connection("torus")
    with pytest.raises(ConfigError):
        build_connection("flat", {"radius": 1.0})
    conn = build_connection("tm-custom-christoffel", {"G_1_12": 1.0, "m": 2})
    assert conn.bundle.fibre_dim == 2


_PARAM_VALUES = {"m": 2.0, "f": 1.0, "base_half": 1.5, "fibre_half": 1.8}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_params_schema(name):
    schema = CATALOG[name]["params"]
    for key in schema:
        params = ({"G_1_12": 0.5} if key == CHRISTOFFELS
                  else {key: _PARAM_VALUES[key]})
        bundle = build_connection(name, params).bundle
        assert isinstance(bundle.base_dim, int)
        assert isinstance(bundle.fibre_dim, int)
    undeclared = {"radius": 1.0}
    if "m" not in schema:
        undeclared["m"] = 2
    with pytest.raises(ConfigError) as err:
        build_connection(name, undeclared)
    assert err.value.field == "bundle_params"


def test_samplers_stay_inside_with_margin(any_conn, rng):
    bundle = any_conn.bundle
    lo_b = np.asarray(bundle.base_box.lower)
    hi_b = np.asarray(bundle.base_box.upper)
    pad = 0.05 * (hi_b - lo_b)
    for _ in range(200):
        x = random_base_point(bundle, rng)
        assert np.all(np.array(x.coords) > lo_b + pad)
        assert np.all(np.array(x.coords) < hi_b - pad)
        random_total_point(bundle, rng)


def test_random_sections_stay_inside_fibre_box(any_conn, rng):
    bundle = any_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        for _ in range(50):
            x = random_base_point(bundle, rng)
            s.graph(x)  # raises DomainError if the graph leaves the chart


def test_random_fields_are_deterministic(any_conn):
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    v1 = random_base_field(any_conn.bundle, r1)
    v2 = random_base_field(any_conn.bundle, r2)
    x = [0.3] * any_conn.bundle.base_dim
    assert as_float_array(v1(x)).tolist() == as_float_array(v2(x)).tolist()


def test_sphere_metric_values():
    g = sphere_metric([1.3, 0.0])
    assert g[0, 0] == 1.0
    assert abs(g[1, 1] - math.sin(1.3) ** 2) < 1e-15
