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
from .calculus import (Scalar, float_value, jacobian, mat_vec,
                       value_and_jacobian, vec_add)
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


def _require_total(conn: ConnectionField, e: Point) -> tuple[list, list]:
    if e.space is not SpaceTag.TOTAL or e.bundle is not conn.bundle:
        raise DomainError("expected a total-space point of the connection's bundle")
    return conn.bundle.split(list(e.coords))


def vertical_projector(conn: ConnectionField, e: Point) -> np.ndarray:
    """Matrix of the pointwise projector onto the vertical subspace at e."""
    x, y = _require_total(conn, e)
    m, f = conn.bundle.base_dim, conn.bundle.fibre_dim
    g = np.array([[float_value(v) for v in row] for row in conn.gamma_matrix(x, y)])
    mat = np.zeros((m + f, m + f))
    mat[m:, :m] = g
    mat[m:, m:] = np.eye(f)
    return mat


def horizontal_projector(conn: ConnectionField, e: Point) -> np.ndarray:
    """Matrix of the complementary projector, whose kernel is the vertical
    subspace."""
    return np.eye(conn.bundle.total_dim) - vertical_projector(conn, e)


def horizontal_lift(conn: ConnectionField, e: Point,
                    v_x: Sequence[float]) -> TotalTangent:
    """The unique horizontal tangent at e projecting onto ``v_x``: the
    horizontal-lift field of the constant field ``v_x``, at e."""
    _require_total(conn, e)
    lift = horizontal_lift_field(conn, constant_base_field(conn.bundle, v_x))
    vals = lift(e)
    m = conn.bundle.base_dim
    return TotalTangent(e, vals[:m], vals[m:])


def horizontal_lift_field(conn: ConnectionField,
                          v: BaseVectorField) -> TotalVectorField:
    """The horizontal-lift field e -> H(e, v(p(e))).  It binds
    ``conn.gamma`` when it is made."""
    bundle = conn.bundle
    m, gamma, v_fn = bundle.base_dim, conn.gamma, v.fn

    def ev(coords):
        x, y = list(coords[:m]), list(coords[m:])
        vx = v_fn(x)
        return list(vx) + [-c for c in gamma(x, y, vx)]

    return TotalVectorField(bundle, ev)


def constant_base_field(bundle: TrivializedBundle,
                        vec: Sequence[float]) -> BaseVectorField:
    """Base field with constant coefficients (handy canonical extension)."""
    vals = [float(c) for c in vec]
    if len(vals) != bundle.base_dim:
        raise DomainError("constant field has wrong dimension")
    return BaseVectorField(bundle, lambda x: list(vals))


def section_jet(s: SectionMap, x: Point) -> tuple:
    """The 1-jet (s(x), Ds(x)) of a section at a base point, Ds(x) as list
    rows, from one ``value_and_jacobian`` pass; ``natural_derivative`` and
    ``covariant_derivative`` take it as ``jet`` to share one pass."""
    return value_and_jacobian(s.fn, list(x.coords))


def natural_derivative(s: SectionMap, v: BaseVectorField, x: Point,
                       jet=None) -> TotalTangent:
    """Tangent of the section along v at x: (v(x), Ds(x) v(x)), anchored at
    the graph point (x, s(x)); ``extend_natural_derivative`` there.  Pass
    ``jet = section_jet(s, x)`` to reuse a pass already made."""
    anchor = s.graph(x)
    m = s.bundle.base_dim
    vals = _nat_value(s.fn, v.fn, list(anchor.coords[:m]), jet)
    return TotalTangent(anchor, vals[:m], vals[m:])


def _nat_value(s_fn, v_fn, x, jet=None) -> list:
    """(v(x), Ds(x) v(x)): the one evaluator of the natural derivative.
    ``jet`` is (s(x), Ds(x)) when already taken."""
    vx = v_fn(x)
    ds = jacobian(s_fn, x) if jet is None else jet[1]
    return list(vx) + mat_vec(ds, vx)


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
        return _nat_value(s.fn, v.fn, bundle.split(coords)[0])

    return TotalVectorField(bundle, ev)


def _cov_value(conn: ConnectionField, s_fn, v_fn, x, y=None,
               jet=None) -> list:
    """Ds(x) v(x) + gamma(x, y) v(x), y = s(x) unless given: the one
    evaluator of the covariant derivative, generic in DScalar inputs.  It
    does not validate the chart: where covariant derivatives of a linear
    connection leave the fibre window, the fibre is a linear space and gamma
    extends canonically, so evaluating outside the box is sound.  ``jet``
    is (s(x), Ds(x)) when already taken."""
    vx = v_fn(x)
    sx, ds = value_and_jacobian(s_fn, x) if jet is None else jet
    g = conn.gamma(x, sx if y is None else y, vx)
    return vec_add(mat_vec(ds, vx), g)


def covariant_derivative(conn: ConnectionField, s: SectionMap,
                         v: BaseVectorField, x: Point,
                         jet=None) -> list:
    """Vertical component of the natural derivative:
    Ds(x) v(x) + gamma(x, s(x)) v(x).  Pass ``jet = section_jet(s, x)`` to
    reuse a pass already made."""
    s.graph(x)  # validates that the graph point is inside the chart
    return _cov_value(conn, s.fn, v.fn, list(x.coords), jet=jet)


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
        return [0.0] * m + _cov_value(conn, s.fn, v.fn, x, y)

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
