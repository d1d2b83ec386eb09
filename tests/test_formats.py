"""One value format: the package returns vectors as lists of Python floats.

Every value that reaches a report is computed in one arithmetic, Python
floats through ``calculus`` (``dot``, ``mat_vec``, ``vec_*``), so no value
crosses into numpy and back.  numpy stays where it is the source of the
bits or of a reference: the seeded generator streams, the projector
matrices and their ranks, the lift-rank SVD and the Gauss-Bonnet oracle's
nodes and sums.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fibrum import (IntegratorConfig, build_connection, circle_loop,
                    covariant_derivative, curv_via_covariant_composition,
                    curv_via_lifts, geodesic, holonomy_loop, horizontal_lift,
                    latitude_loop, parallel_transport_path,
                    parallel_transport_vector, random_total_point,
                    segment_curve)
from fibrum.catalog import random_suvx

SRC = Path(__file__).resolve().parent.parent / "src" / "fibrum"


def _assert_floats(values):
    assert type(values) is list
    assert values and all(type(c) is float for c in values), values


@pytest.mark.parametrize("name", ["sphere", "nonlinear-demo"])
def test_returned_values_are_lists_of_python_floats(name):
    conn = build_connection(name)
    bundle = conn.bundle
    rng = np.random.default_rng(2026)
    cfg = IntegratorConfig(step=1e-2)
    for _ in range(5):
        s, u, v, x = random_suvx(bundle, rng)
        _assert_floats(covariant_derivative(conn, s, v, x))
        _assert_floats(curv_via_lifts(conn, s, u, v, x).fibre_part)
        _assert_floats(
            curv_via_covariant_composition(conn, s, u, v, x).fibre_part)
        lift = horizontal_lift(conn, random_total_point(bundle, rng), u(x))
        _assert_floats(lift.base_part)
        _assert_floats(lift.fibre_part)
    lo, hi = bundle.base_box.bounds(0.3)
    curve = segment_curve(bundle, lo, hi)
    y0 = [0.1] * bundle.fibre_dim
    _assert_floats(parallel_transport_vector(conn, curve, y0, cfg))
    y1, path = parallel_transport_path(conn, curve, y0, cfg)
    _assert_floats(y1)
    for t, y in path:
        assert type(t) is float
        _assert_floats(y)
    if name == "sphere":
        loop = latitude_loop(bundle, math.pi / 3.0)
        for t, xs, vs in geodesic(conn, [1.0, 0.3], [0.3, 0.4], 1.0, cfg):
            _assert_floats(xs)
            _assert_floats(vs)
    else:
        loop = circle_loop(bundle, [0.0, 0.0], 0.6)
    y1, disp = holonomy_loop(conn, loop, y0, cfg)
    _assert_floats(y1)
    assert type(disp) is float


def _imports(path: Path) -> set:
    """The top-level names of the modules that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("module", ["calculus", "curvature", "transport"])
def test_value_layers_import_no_numpy(module):
    assert "numpy" not in _imports(SRC / f"{module}.py")


def test_package_imports_neither_scipy_nor_sympy():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        assert not _imports(path) & {"scipy", "sympy"}, path.name
