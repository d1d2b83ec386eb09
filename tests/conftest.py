import math
import os
from pathlib import Path

import numpy as np
import pytest

from fibrum import (float_value, make_flat, make_nonlinear_demo,
                    make_sphere)
from fibrum.calculus import DScalar, dot, seed_scalars

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests' child
# interpreters need it on PYTHONPATH to import the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def flat_conn():
    return make_flat()


@pytest.fixture
def sphere_conn():
    return make_sphere()


@pytest.fixture
def nonlinear_conn():
    return make_nonlinear_demo()


@pytest.fixture(params=["flat", "sphere", "nonlinear-demo"])
def any_conn(request, flat_conn, sphere_conn, nonlinear_conn):
    return {"flat": flat_conn, "sphere": sphere_conn,
            "nonlinear-demo": nonlinear_conn}[request.param]


def as_array(values) -> np.ndarray:
    """A vector that the package returns as a list, as a float ndarray for
    numpy arithmetic in a test; derivative layers are stripped."""
    return np.array([float_value(c) for c in values], dtype=float)


def central_fd_jacobian(fn, x, h):
    """Independent finite-difference oracle for Jacobians."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.asarray([float(c) for c in fn(list(xp))])
        fm = np.asarray([float(c) for c in fn(list(xm))])
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=1)


def assert_bit_equal(got, want):
    """``got`` and ``want`` are the same scalar bit for bit: equal floats of
    one sign, or DScalars of one tag whose value and entries are so."""
    if isinstance(want, DScalar):
        assert isinstance(got, DScalar) and got.tag == want.tag
        assert_bit_equal(got.value, want.value)
        assert len(got.grad) == len(want.grad)
        for g, w in zip(got.grad, want.grad):
            assert_bit_equal(g, w)
    else:
        assert not isinstance(got, DScalar)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def assert_all_bit_equal(got, want):
    """Two vectors of scalars, equal entry by entry under
    :func:`assert_bit_equal`."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_bit_equal(g, w)


def scalar_layers(values):
    """``values`` as floats, as scalars of one pass and as scalars of a
    pass nested in another: the inputs an evaluator meets."""
    values = [float(c) for c in values]
    return [values, seed_scalars(values), seed_scalars(seed_scalars(values))]


# The evaluators as they were before they were compiled per dimension; the
# compiled ones must give the same bits.

def list_form_segment_fn(p, q, t0, t1):
    """``segment_curve``'s ``fn`` as a list comprehension."""
    p = [float(c) for c in p]
    steps = [float(qi) - pi for pi, qi in zip(p, q)]
    span = t1 - t0

    def fn(t):
        lam = (t - t0) / span
        return [pi + lam * d for pi, d in zip(p, steps)]

    return fn


def list_form_lift_field(conn, v_fn):
    """``horizontal_lift_field``'s evaluator for the base field ``v_fn``,
    with its slices, copies and negating comprehension."""
    m, gamma = conn.bundle.base_dim, conn.gamma

    def ev(coords):
        x, y = list(coords[:m]), list(coords[m:])
        vx = v_fn(x)
        return list(vx) + [-c for c in gamma(x, y, vx)]

    return ev


def list_form_jet_bracket(xe, jx, ye, jy):
    """``jet_bracket`` as a comprehension over ``dot``'s rows."""
    return [dot(jy[i], xe) - dot(jx[i], ye) for i in range(len(xe))]
