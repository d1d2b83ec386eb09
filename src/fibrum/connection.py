"""Connections on a trivialized bundle: projectors, lifts, derivatives.

A connection is stored through its chart-local coefficient map ``gamma``:
the horizontal subspace at e = (x, y) is {(v, -gamma(x, y) v)}.  In block
form on (base part, fibre part) the projectors are then

    P_V (v, w) = (0, w + gamma(x, y) v)        image  = vertical subspace
    P_H (v, w) = (v, -gamma(x, y) v)           kernel = vertical subspace

which makes the projector algebra hold by construction and keeps every
identity testable.  For linear (Christoffel) coefficients
``(gamma(x, y) v)^a = G^a_bc(x) v^b y^c`` this sign convention reproduces
the classical covariant derivative ``(D s) v + gamma(x, s(x)) v``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bundle import (BaseVectorField, Point, SectionMap, SpaceTag,
                     TotalTangent, TotalVectorField, TrivializedBundle)
from .calculus import (Scalar, as_float_array, float_value, jacobian,
                       mat_vec, value_and_jacobian, vec_add)
from .errors import DomainError

GammaFn = Callable[[Sequence[Scalar], Sequence[Scalar], Sequence[Scalar]],
                   Sequence[Scalar]]


class ConnectionKind(enum.Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class ConnectionField:
    """Connection coefficient gamma(x, y): linear map on base vectors.

    ``gamma(x, y, v)`` must be linear in ``v`` exactly; when ``kind`` is
    LINEAR it must be linear in ``y`` as well.  The evaluator has to be
    closed under DScalar inputs and twice differentiable, and to return
    reals for float inputs: transport and geodesics use those as they are.
    """

    bundle: TrivializedBundle
    gamma: GammaFn
    kind: ConnectionKind = ConnectionKind.NONLINEAR

    def gamma_matrix(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> list:
        """The f-by-m matrix of gamma(x, y), built column by column."""
        m = self.bundle.base_dim
        cols = []
        for j in range(m):
            basis = [1.0 if k == j else 0.0 for k in range(m)]
            cols.append(list(self.gamma(x, y, basis)))
        return [[cols[j][a] for j in range(m)] for a in range(self.bundle.fibre_dim)]


@dataclass(frozen=True, eq=False)
class VerticalProjector:
    anchor: Point
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class HorizontalProjector:
    anchor: Point
    matrix: np.ndarray


def _require_total(conn: ConnectionField, e: Point) -> tuple[list, list]:
    if e.space is not SpaceTag.TOTAL or e.bundle is not conn.bundle:
        raise DomainError("expected a total-space point of the connection's bundle")
    return conn.bundle.split(list(e.coords))


def vertical_projector(conn: ConnectionField, e: Point) -> VerticalProjector:
    """Pointwise projector onto the vertical subspace at e."""
    x, y = _require_total(conn, e)
    m, f = conn.bundle.base_dim, conn.bundle.fibre_dim
    g = np.array([[float_value(v) for v in row] for row in conn.gamma_matrix(x, y)])
    mat = np.zeros((m + f, m + f))
    mat[m:, :m] = g
    mat[m:, m:] = np.eye(f)
    return VerticalProjector(e, mat)


def horizontal_projector(conn: ConnectionField, e: Point) -> HorizontalProjector:
    """Complementary projector, kernel equal to the vertical subspace."""
    pv = vertical_projector(conn, e)
    return HorizontalProjector(e, np.eye(conn.bundle.total_dim) - pv.matrix)


def horizontal_lift(conn: ConnectionField, e: Point,
                    v_x: Sequence[float]) -> TotalTangent:
    """The unique horizontal tangent at e projecting onto ``v_x``."""
    x, y = _require_total(conn, e)
    v = [float(c) for c in v_x]
    if len(v) != conn.bundle.base_dim:
        raise DomainError("lifted vector has wrong base dimension")
    fibre = as_float_array(conn.gamma(x, y, v))
    return TotalTangent(e, np.asarray(v), -fibre)


def horizontal_lift_field(conn: ConnectionField,
                          v: BaseVectorField) -> TotalVectorField:
    """The horizontal-lift field e -> H(e, v(p(e)))."""
    bundle = conn.bundle

    def ev(coords):
        x, y = bundle.split(coords)
        vx = v.fn(x)
        g = conn.gamma(x, y, vx)
        return list(vx) + [-c for c in g]

    return TotalVectorField(bundle, ev)


def constant_base_field(bundle: TrivializedBundle,
                        vec: Sequence[float]) -> BaseVectorField:
    """Base field with constant coefficients (handy canonical extension)."""
    vals = [float(c) for c in vec]
    if len(vals) != bundle.base_dim:
        raise DomainError("constant field has wrong dimension")
    return BaseVectorField(bundle, lambda x: list(vals))


def natural_derivative(s: SectionMap, v: BaseVectorField, x: Point) -> TotalTangent:
    """Tangent of the section along v at x: (v(x), Ds(x) v(x)), anchored at
    the graph point (x, s(x))."""
    coords = list(x.coords)
    anchor = s.graph(x)
    vx = as_float_array(v.fn(coords))
    ds = jacobian(s.fn, coords)
    return TotalTangent(anchor, vx, ds @ vx)


def extend_natural_derivative(s: SectionMap,
                              v: BaseVectorField) -> TotalVectorField:
    """Extension of the natural derivative to a field on the total space:
    (v(x), Ds(x) v(x)) at every (x, y).

    The leaf through (x, y) is s + (y - s(x)), whose derivative is Ds(x)
    for every y; so the field restricts to the natural derivative on the
    graph and is p-related to v everywhere.
    """
    bundle = s.bundle

    def ev(coords):
        x, _ = bundle.split(coords)
        vx = v.fn(x)
        return list(vx) + mat_vec(jacobian(s.fn, x), vx)

    return TotalVectorField(bundle, ev)


def covariant_derivative(conn: ConnectionField, s: SectionMap,
                         v: BaseVectorField, x: Point) -> np.ndarray:
    """Vertical component of the natural derivative:
    Ds(x) v(x) + gamma(x, s(x)) v(x)."""
    coords = list(x.coords)
    s.graph(x)  # validates that the graph point is inside the chart
    vx = v.fn(coords)
    sx, ds = value_and_jacobian(s.fn, coords)
    g = conn.gamma(coords, sx, vx)
    return ds @ as_float_array(vx) + as_float_array(g)


def extend_covariant_derivative(conn: ConnectionField, s: SectionMap,
                                v: BaseVectorField) -> TotalVectorField:
    """Vertical field (0, Ds(x) v(x) + gamma(x, y) v(x)).

    This is the vertical projection of the extended natural derivative;
    gamma is evaluated at the roaming fibre point y, not at s(x).
    Restricted to the graph it equals ``covariant_derivative``.
    """
    bundle = conn.bundle
    m = bundle.base_dim

    def ev(coords):
        x, y = bundle.split(coords)
        vx = v.fn(x)
        fib = mat_vec(jacobian(s.fn, x), vx)
        g = conn.gamma(x, y, vx)
        return [0.0] * m + vec_add(fib, g)

    return TotalVectorField(bundle, ev)


def lift_rank_check(conn: ConnectionField, s: SectionMap, x: Point) -> int:
    """Numerical rank of the horizontal-lift matrix at (x, s(x)).

    Columns are the lifts of the base basis vectors; singular values below
    1e-10 times the largest are treated as zero.  Fibrewise injectivity of
    the lift means the result must equal the base dimension.
    """
    e = s.graph(x)
    m = conn.bundle.base_dim
    cols = []
    for j in range(m):
        basis = [1.0 if k == j else 0.0 for k in range(m)]
        cols.append(horizontal_lift(conn, e, basis).as_vector())
    mat = np.stack(cols, axis=1)
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > 1e-10 * svals[0]))
