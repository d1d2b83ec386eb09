import os
from pathlib import Path

import numpy as np
import pytest

from fibrum import (float_value, make_flat, make_nonlinear_demo,
                    make_sphere)

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
