"""Curvature and cocurvature, computed by several routes.

Route one (``curv_via_lifts``) follows the integrability obstruction:
bracket the horizontal-lift fields and compare against the lift of the
bracket.  It is validated here against the classical coordinate tensor
and against holonomy, and is what this library treats as *the* curvature,

    CURV_s(u, v) = (H_[u,v] - [H_u, H_v]) o s .

The covariant-derivative route (``curv_via_covariant_composition``) is
the formula that expresses the curvature through covariant derivatives,

    CURV_s(u, v) = nabla_u nabla_v s - nabla_v nabla_u s - nabla_[u,v] s ,

where the outer nabla_u differentiates the vertical field nabla_v s along
s: it is the derivative of s' -> nabla_u s' at s in the direction
nabla_v s.  Why it holds: extend s_* u to T_u = H_u + N_u with
N_u(x, y) = (0, nabla_u s(x)) translated along the fibres.  T_u is tangent
to the graph along it, so [T_u, T_v] = T_[u,v] there; [N_u, N_v] = 0 and
[H_u, N_v] = (0, nabla_u nabla_v s), and expanding the bracket gives the
formula.  For a linear connection nabla_u is linear in the section and the
formula is the classical one (``composition_commutator``).

Route two (``curv_via_covariant``) is the bare commutator: it brackets the
extended covariant-derivative fields and subtracts the covariant derivative
along the bracket.  It does NOT agree with the curvature in
general: expanding [T_u, T_v] = T_[u,v] with T = nabla + H gives the exact
identity

    (via_covariant - via_lifts)(x) = ([H_v, nabla_u] + [nabla_v, H_u])(s(x))

and the right-hand side does not vanish (a flat chart with s(x) = x,
u = d1, v = x1*d1 already gives -1).  The cross-bracket sum is exposed as
``cross_bracket_sum`` and the expansion identity above is the consistency
check that the machinery is exact; see the repository notes for the
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bundle import (BaseVectorField, Point, SectionMap, TotalTangent,
                     TotalVectorField, base_lie_bracket, jet_bracket,
                     lie_bracket)
from .calculus import (Scalar, as_float_array, derivative, dot, jacobian,
                       mat_vec, value_and_jacobian, vec_add, vec_scale,
                       vec_sub)
from .connection import (ConnectionField, ConnectionKind, _cov_value,
                         constant_base_field, horizontal_lift,
                         horizontal_lift_field)
from .errors import (DomainError, LinearityRequiredError,
                     SecondOrderUnavailableError, TangentBundleRequiredError)


@dataclass(frozen=True, eq=False)
class VerticalValue:
    """A vertical tangent vector: fibre components at a total-space anchor."""

    anchor: Point
    fibre_part: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fibre_part",
                           np.asarray(self.fibre_part, dtype=float))
        if self.fibre_part.shape != (self.anchor.bundle.fibre_dim,):
            raise DomainError("fibre_part has wrong dimension")


def _pv_apply(conn: ConnectionField, e: Point, vec) -> list:
    """Fibre part of the vertical projector at e applied to a total vector:
    w + gamma(x, y) v for vec = (v, w)."""
    x, y = conn.bundle.split(list(e.coords))
    m = conn.bundle.base_dim
    return vec_add(list(vec[m:]), conn.gamma(x, y, list(vec[:m])))


def _const_lift_field(conn: ConnectionField, vec) -> TotalVectorField:
    """Horizontal-lift field of a constant-coefficient base field: the
    canonical extension of a single horizontal vector."""
    return horizontal_lift_field(conn,
                                 constant_base_field(conn.bundle, vec))


def curvature(conn: ConnectionField, e: Point, X: TotalTangent,
              Y: TotalTangent) -> VerticalValue:
    """Curvature two-form value R(X, Y) = -P_V [P_H X^, P_H Y^] at e.

    Tensoriality licenses any field extension of the projected arguments;
    we extend horizontally via constant-coefficient base fields (the
    vertical parts are annihilated by P_H and never enter).
    """
    if X.anchor is not e or Y.anchor is not e:
        if X.anchor.coords != e.coords or Y.anchor.coords != e.coords:
            raise DomainError("curvature arguments must be anchored at e")
    hx = _const_lift_field(conn, X.base_part)
    hy = _const_lift_field(conn, Y.base_part)
    br = lie_bracket(hx, hy)(e)
    return VerticalValue(e, -as_float_array(_pv_apply(conn, e, br)))


def cocurvature(conn: ConnectionField, e: Point, X: TotalTangent,
                Y: TotalTangent) -> TotalTangent:
    """Cocurvature value -P_H [V_X, V_Y] at e, with fibre-constant vertical
    extensions of the projected arguments.

    The vertical distribution is integrable (its leaves are the fibres),
    so this vanishes identically; the operation exists to make that
    checkable rather than assumed.
    """
    m = conn.bundle.base_dim
    wx = _pv_apply(conn, e, X.as_vector())
    wy = _pv_apply(conn, e, Y.as_vector())
    vx_field = TotalVectorField(conn.bundle,
                                lambda coords: [0.0] * m + list(wx))
    vy_field = TotalVectorField(conn.bundle,
                                lambda coords: [0.0] * m + list(wy))
    lift = horizontal_lift(conn, e, lie_bracket(vx_field, vy_field)(e)[:m])
    return TotalTangent(e, -lift.base_part, -lift.fibre_part)


def _nested_section_jet(s_fn, xs) -> tuple:
    """Value and Jacobian of the section at base coordinates that carry an
    enclosing pass: the one piece of route work that needs evaluators
    closed under nested derivative-carrying scalars."""
    try:
        return value_and_jacobian(s_fn, xs)
    except (TypeError, AttributeError) as exc:
        raise SecondOrderUnavailableError(
            "differentiating covariant derivatives needs evaluators closed "
            "under nested derivative-carrying scalars") from exc


class _RouteJets:
    """One draw (s, u, v, x) of the bracket routes, read from one pass.

    Every route brackets two of four fields at e = (x, s(x)): the
    horizontal lifts H_u, H_v and the extended covariant derivatives N_u,
    N_v.  Their 1-jets (value and Jacobian) at e fix each bracket, and one
    ``value_and_jacobian`` pass over the stacked fields gives them all.
    Inside it u(x), v(x), gamma(x, y, u(x)), gamma(x, y, v(x)) and the
    nested pass Ds(x) are each evaluated once; H_u = (u, -g_u) and
    N_u = (0, Ds u + g_u) are built from the same scalars.  With
    ``covariant=False`` the pass covers H_u and H_v only and does no
    nested work.

    The stacked jets have the bits of separate passes: the fields are pure,
    and a forward-mode gradient entry uses only that entry of its operands,
    whatever the gradient length.  So the base rows and first m columns of
    the jets of H_u and H_v are the jets of u and v at x, and they give
    [u, v](x).  [u, v] enters only through its value at x (in H_[u,v](e)
    and nabla_[u,v] s(x)), so it is carried as the constant field with
    that value.
    """

    def __init__(self, conn: ConnectionField, s: SectionMap,
                 u: BaseVectorField, v: BaseVectorField, x: Point,
                 covariant: bool = True):
        self.conn, self.s, self.x = conn, s, x
        self.e = s.graph(x)
        bundle = conn.bundle
        m, n = bundle.base_dim, bundle.total_dim

        def fields(coords):
            xs, y = bundle.split(coords)
            ux, vx = u.fn(xs), v.fn(xs)
            gu, gv = conn.gamma(xs, y, ux), conn.gamma(xs, y, vx)
            out = list(ux) + [-c for c in gu] + list(vx) + [-c for c in gv]
            if covariant:
                ds = _nested_section_jet(s.fn, xs)[1]
                out += [0.0] * m + vec_add(mat_vec(ds, ux), gu)
                out += [0.0] * m + vec_add(mat_vec(ds, vx), gv)
            return out

        values, jac = value_and_jacobian(fields, list(self.e.coords))
        jets = [(values[k:k + n], jac[k:k + n])
                for k in range(0, len(values), n)]
        self.hu, self.hv = jets[:2]
        self.nu, self.nv = jets[2:] or (None, None)
        (ue, ju), (ve, jv) = self.hu, self.hv
        uv = jet_bracket(ue[:m], ju[:m, :m], ve[:m], jv[:m, :m])
        self.uv = constant_base_field(bundle, uv)

    def lifts(self) -> np.ndarray:
        """Fibre part of H_[u,v](e) - [H_u, H_v](e)."""
        hw = horizontal_lift_field(self.conn, self.uv)(self.e)
        br = jet_bracket(*self.hu, *self.hv)
        m = self.conn.bundle.base_dim
        return as_float_array(vec_sub(hw, br)[m:])

    def vertical_projection(self) -> np.ndarray:
        """Fibre part of -P_V [H_u, H_v](e)."""
        br = jet_bracket(*self.hu, *self.hv)
        return -as_float_array(_pv_apply(self.conn, self.e, br))

    def covariant(self) -> np.ndarray:
        """Fibre part of [N_u, N_v](e) minus nabla_[u,v] s(x)."""
        br = jet_bracket(*self.nu, *self.nv)
        nw = _cov_value(self.conn, self.s.fn, self.uv.fn, list(self.x.coords))
        m = self.conn.bundle.base_dim
        return as_float_array(br[m:]) - as_float_array(nw)

    def cross(self) -> np.ndarray:
        """[H_v, N_u](e) + [N_v, H_u](e), all components."""
        return as_float_array(vec_add(jet_bracket(*self.hv, *self.nu),
                                      jet_bracket(*self.nv, *self.hu)))


def curv_via_lifts(conn: ConnectionField, s: SectionMap, u: BaseVectorField,
                   v: BaseVectorField, x: Point) -> VerticalValue:
    """CURV_s(u, v) = (H_[u,v] - [H_u, H_v]) evaluated at (x, s(x)).

    For linear (Christoffel) coefficients this equals the classical
    coordinate curvature contraction R^a_bcd s^b u^c v^d.
    """
    jets = _RouteJets(conn, s, u, v, x, covariant=False)
    return VerticalValue(jets.e, jets.lifts())


def curv_via_vertical_projection(conn: ConnectionField, s: SectionMap,
                                 u: BaseVectorField, v: BaseVectorField,
                                 x: Point) -> VerticalValue:
    """Independent route for the same quantity: -P_V [H_u, H_v] at (x, s(x)).

    Equality with ``curv_via_lifts`` is exactly the statement that the lift
    of the bracket is the horizontal component of the bracket of the lifts.
    """
    jets = _RouteJets(conn, s, u, v, x, covariant=False)
    return VerticalValue(jets.e, jets.vertical_projection())


def curv_via_covariant(conn: ConnectionField, s: SectionMap,
                       u: BaseVectorField, v: BaseVectorField, x: Point
                       ) -> VerticalValue:
    """Bracket of the extended covariant-derivative fields minus the
    covariant derivative along [u, v], evaluated at (x, s(x)).

    Bracketing differentiates fields whose coefficients already contain
    first derivatives of the section, so evaluators must be closed under
    nested derivative-carrying scalars (second-order mode).  See the module
    docstring: this does not reproduce ``curv_via_lifts`` in general.
    """
    jets = _RouteJets(conn, s, u, v, x)
    return VerticalValue(jets.e, jets.covariant())


def curv_via_covariant_composition(conn: ConnectionField, s: SectionMap,
                                   u: BaseVectorField, v: BaseVectorField,
                                   x: Point) -> VerticalValue:
    """nabla_u nabla_v s - nabla_v nabla_u s - nabla_[u,v] s at (x, s(x)),
    for any connection; equal to ``curv_via_lifts`` (see the module
    docstring).

    nabla_u W for a vertical field W along s is the derivative at t = 0 of
    the covariant derivative of s + t W along u,
    DW u + d_y gamma(x, s(x))[W] u; for linear coefficients that is
    nabla_u W itself and this is ``composition_commutator``.  Evaluators
    must be closed under nested derivative-carrying scalars.

    One ``value_and_jacobian`` pass at x over the stacked fields
    (u, v, nabla_v s, nabla_u s) gives every jet, with u, v and the nested
    pass Ds evaluated once in it; [u, v](x) comes from its u and v rows, as
    in ``_RouteJets``.  Where u, v and s enter undifferentiated they are
    plain float values: a pass rounds a division by a varying quantity
    differently.
    """
    e = s.graph(x)
    coords = list(x.coords)
    m, f = conn.bundle.base_dim, conn.bundle.fibre_dim

    def fields(xs):
        ux, vx = u.fn(xs), v.fn(xs)
        sx, ds = _nested_section_jet(s.fn, xs)
        return (list(ux) + list(vx)
                + vec_add(mat_vec(ds, vx), conn.gamma(xs, sx, vx))
                + vec_add(mat_vec(ds, ux), conn.gamma(xs, sx, ux)))

    values, jac = value_and_jacobian(fields, coords)
    sx = list(e.fibre_coords)

    def nabla_along_s(k: int, along: BaseVectorField):
        """nabla_along W for the W in rows k to k + f of the pass."""
        ax = along.fn(coords)
        wx = values[k:k + f]
        dw = mat_vec(jac[k:k + f], ax)
        dg = derivative(
            lambda t: conn.gamma(coords, vec_add(sx, vec_scale(t, wx)), ax),
            0.0)
        return as_float_array(vec_add(dw, dg))

    uv = nabla_along_s(2 * m, u)
    vu = nabla_along_s(2 * m + f, v)
    bracket = jet_bracket(values[:m], jac[:m], values[m:2 * m], jac[m:2 * m])
    w = as_float_array(_cov_value(conn, s.fn, lambda c: bracket, coords))
    return VerticalValue(e, uv - vu - w)


def cross_bracket_sum(conn: ConnectionField, s: SectionMap,
                      u: BaseVectorField, v: BaseVectorField, x: Point
                      ) -> np.ndarray:
    """([H_v, nabla_u] + [nabla_v, H_u]) evaluated at (x, s(x)).

    By pure bracket bilinearity this equals via_covariant - via_lifts at
    the same point; it is the exact defect between the two curvature
    routes.  Like ``curv_via_covariant`` it needs second-order mode.
    """
    return _RouteJets(conn, s, u, v, x).cross()


def curvature_routes(conn: ConnectionField, s: SectionMap,
                     u: BaseVectorField, v: BaseVectorField, x: Point
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(``curv_via_lifts``, ``curv_via_covariant``) fibre parts and
    ``cross_bracket_sum`` at one draw, from one set of jets.

    Each value has the bits of its own function; the second minus the
    first is the fibre part of the third.
    """
    jets = _RouteJets(conn, s, u, v, x)
    return jets.lifts(), jets.covariant(), jets.cross()


def tensoriality_check_curvature(conn: ConnectionField, e: Point,
                                 X: TotalTangent, Y: TotalTangent,
                                 scalar_field: Callable[[Sequence[Scalar]], Scalar]
                                 ) -> float:
    """Residual of R(f X, Y) - f(e) R(X, Y) and R(X, f Y) - f(e) R(X, Y),
    with the scaled argument extended explicitly as a field (no tensorial
    shortcut)."""
    hx = _const_lift_field(conn, X.base_part)
    hy = _const_lift_field(conn, Y.base_part)

    def scaled(field):
        def ev(coords):
            f = scalar_field(coords)
            return vec_scale(f, field.fn(coords))
        return TotalVectorField(conn.bundle, ev)

    fe = float(scalar_field([float(c) for c in e.coords]))
    base_val = -as_float_array(_pv_apply(conn, e, lie_bracket(hx, hy)(e)))
    worst = 0.0
    for bracket in (lie_bracket(scaled(hx), hy), lie_bracket(hx, scaled(hy))):
        val = -as_float_array(_pv_apply(conn, e, bracket(e)))
        worst = max(worst, float(np.max(np.abs(val - fe * base_val))))
    return worst


# -- linear-connection specialization ----------------------------------------

def _require_linear(conn: ConnectionField, what: str):
    if conn.kind is not ConnectionKind.LINEAR:
        raise LinearityRequiredError(
            f"{what} composes covariant derivatives, which needs the "
            "vertical-bundle identification of a linear connection")


def covariant_derivative_section(conn: ConnectionField, s: SectionMap,
                                 v: BaseVectorField) -> SectionMap:
    """nabla_v s as a new section of a vector bundle (VE ~ E identification)."""
    _require_linear(conn, "covariant_derivative_section")
    return SectionMap(conn.bundle,
                      lambda coords: _cov_value(conn, s.fn, v.fn, coords))


def base_covariant_derivative(conn: ConnectionField, u: BaseVectorField,
                              v: BaseVectorField) -> BaseVectorField:
    """nabla_u v on the tangent-bundle configuration (fields as sections)."""
    if conn.bundle.fibre_dim != conn.bundle.base_dim:
        raise TangentBundleRequiredError(
            "nabla_u v needs the tangent-bundle configuration (f = m)")
    return BaseVectorField(conn.bundle,
                           lambda coords: _cov_value(conn, v.fn, u.fn, coords))


def second_covariant_derivative(conn: ConnectionField, s: SectionMap,
                                u: BaseVectorField, v: BaseVectorField,
                                x: Point) -> np.ndarray:
    """Second covariant derivative nabla^2_uv s = nabla_u(nabla_v s)
    - nabla_{nabla_u v} s for a linear connection on a tangent-bundle
    configuration, which also supplies nabla_u v.
    """
    _require_linear(conn, "second_covariant_derivative")
    w = base_covariant_derivative(conn, u, v)  # raises unless f = m
    coords = list(x.coords)
    inner = covariant_derivative_section(conn, s, v)
    term1 = _cov_value(conn, inner.fn, u.fn, coords)
    term2 = _cov_value(conn, s.fn, w.fn, coords)
    return as_float_array(vec_sub(term1, term2))


def composition_commutator(conn: ConnectionField, s: SectionMap,
                           u: BaseVectorField, v: BaseVectorField,
                           x: Point) -> np.ndarray:
    """(nabla_u nabla_v - nabla_v nabla_u - nabla_[u,v]) s at x, composing
    covariant derivatives as operators on sections (linear connections).

    This is the classical curvature expression on a vector bundle and
    agrees with ``curv_via_lifts``.
    """
    _require_linear(conn, "composition_commutator")
    coords = list(x.coords)
    nab_v_s = covariant_derivative_section(conn, s, v)
    nab_u_s = covariant_derivative_section(conn, s, u)
    t1 = _cov_value(conn, nab_v_s.fn, u.fn, coords)
    t2 = _cov_value(conn, nab_u_s.fn, v.fn, coords)
    w = base_lie_bracket(u, v)
    t3 = _cov_value(conn, s.fn, w.fn, coords)
    return as_float_array(vec_sub(vec_sub(t1, t2), t3))


def torsion(conn: ConnectionField, u: BaseVectorField, v: BaseVectorField,
            x: Point) -> np.ndarray:
    """Torsion nabla_u v - nabla_v u - [u, v] of a connection on TM.

    Antisymmetric; vanishes iff the coefficient is symmetric in its two
    lower slots.
    """
    if conn.bundle.fibre_dim != conn.bundle.base_dim:
        raise TangentBundleRequiredError(
            "torsion needs the tangent-bundle configuration (f = m)")
    coords = list(x.coords)
    a = _cov_value(conn, v.fn, u.fn, coords)   # nabla_u v
    b = _cov_value(conn, u.fn, v.fn, coords)   # nabla_v u
    w = base_lie_bracket(u, v)(coords)
    return as_float_array(vec_sub(vec_sub(a, b), w))


def leibniz_check(conn: ConnectionField, s: SectionMap,
                  scalar_field_on_base: Callable[[Sequence[Scalar]], Scalar],
                  v: BaseVectorField, x: Point) -> float:
    """Residual of nabla_v(f s) = (df . v) s + f nabla_v s at x."""
    _require_linear(conn, "leibniz_check")
    coords = list(x.coords)

    def fs(xp):
        return vec_scale(scalar_field_on_base(xp), s.fn(xp))

    lhs = as_float_array(_cov_value(conn, fs, v.fn, coords))
    df = jacobian(lambda xp: [scalar_field_on_base(xp)], coords)[0]
    fx = float(scalar_field_on_base(coords))
    rhs = float(dot(df, v.fn(coords))) * as_float_array(s.fn(coords)) \
        + fx * as_float_array(_cov_value(conn, s.fn, v.fn, coords))
    return float(np.max(np.abs(lhs - rhs)))
