"""Forward-mode derivative-carrying scalars and exact Jacobians.

A :class:`DScalar` carries a value together with its gradient against a
fixed seed basis of length ``d``.  All arithmetic is written generically:
the value and the gradient entries may themselves be ``DScalar`` instances,
so nesting first-order scalars yields exact second (and higher) derivatives.
That nesting is what lets Lie brackets of fields whose coefficients already
contain first derivatives come out exact instead of finite-differenced.

Each differentiation pass seeds its scalars with a fresh tag.  When
scalars from different passes meet (an evaluator capturing a value from an
enclosing differentiation is the typical case), the younger tag is the
active one and the older operand is threaded through as a constant; this
is what keeps nested derivatives from contaminating each other.

Evaluators used with this module must be pure and *closed under DScalar
inputs*: they may only combine their arguments with ``+ - * / **`` and the
smooth functions exported here (``sin``, ``cos``, ...).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import NonFiniteOutputError

Scalar = Union[float, "DScalar"]
VectorFn = Callable[[Sequence[Scalar]], Sequence[Scalar]]

_TAGS = itertools.count(1)


def _fresh_tag() -> int:
    return next(_TAGS)


class DScalar:
    """Scalar with a gradient of fixed seed length; components may nest.

    ``tag`` identifies the differentiation pass the gradient belongs to;
    user-constructed scalars share tag 0 and combine elementwise.  Second
    derivatives come from nesting passes (:func:`hessian`), never from a
    slot of their own.
    """

    __slots__ = ("value", "grad", "tag")

    # Make numpy defer binary ops to our reflected methods instead of
    # broadcasting us into object arrays.
    __array_ufunc__ = None

    def __init__(self, value: Scalar, grad: Sequence[Scalar], tag: int = 0):
        self.value = value
        self.grad = tuple(grad)
        self.tag = tag

    # -- arithmetic ------------------------------------------------------
    # Each operation builds its result with one ``_ds`` call.  ``type(o) is
    # DScalar`` is the operand test: the class has no subclasses.

    def __add__(self, other):
        tag = self.tag
        if type(other) is DScalar:
            if other.tag == tag:
                return _ds(self.value + other.value,
                           tuple([a + b for a, b in zip(self.grad,
                                                        other.grad)]), tag)
            if other.tag > tag:  # self is constant for other's pass
                return _ds(self + other.value, other.grad, other.tag)
            return _ds(self.value + other, self.grad, tag)
        return _ds(self.value + float(other), self.grad, tag)

    __radd__ = __add__

    def __sub__(self, other):
        tag = self.tag
        if type(other) is DScalar:
            if other.tag == tag:
                return _ds(self.value - other.value,
                           tuple([a - b for a, b in zip(self.grad,
                                                        other.grad)]), tag)
            if other.tag > tag:
                return _ds(self - other.value,
                           tuple([-g for g in other.grad]), other.tag)
            return _ds(self.value - other, self.grad, tag)
        return _ds(self.value - float(other), self.grad, tag)

    def __rsub__(self, other):
        return _ds(float(other) - self.value,
                   tuple([-g for g in self.grad]), self.tag)

    def __mul__(self, other):
        tag = self.tag
        if type(other) is DScalar:
            if other.tag == tag:
                a, b = self.value, other.value
                return _ds(a * b,
                           tuple([a * gb + ga * b
                                  for ga, gb in zip(self.grad, other.grad)]),
                           tag)
            if other.tag > tag:
                return _ds(self * other.value,
                           tuple([self * g for g in other.grad]), other.tag)
            return _ds(self.value * other,
                       tuple([g * other for g in self.grad]), tag)
        f = float(other)
        return _ds(self.value * f, tuple([g * f for g in self.grad]), tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is DScalar:
            return self * other ** -1
        f = float(other)
        return _ds(self.value / f, tuple([g / f for g in self.grad]),
                   self.tag)

    def __rtruediv__(self, other):
        return float(other) * self ** -1

    def __neg__(self):
        return _ds(-self.value, tuple([-g for g in self.grad]), self.tag)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("DScalar exponent must be a plain number")
        coeff = p * self.value ** (p - 1)
        return _ds(self.value ** p, tuple([coeff * g for g in self.grad]),
                   self.tag)

    def __repr__(self):
        return f"DScalar({self.value!r}, grad={self.grad!r}, tag={self.tag})"


_new = object.__new__


def _ds(value, grad: tuple, tag: int) -> DScalar:
    """A DScalar that takes ``grad`` as given: the caller built the tuple."""
    z = _new(DScalar)
    z.value = value
    z.grad = grad
    z.tag = tag
    return z


def float_value(z) -> float:
    """Strip all derivative layers and return the underlying float."""
    while isinstance(z, DScalar):
        z = z.value
    return float(z)


# -- smooth functions, dispatching on float vs DScalar ---------------------

def sin(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        c = cos(z.value)
        return _ds(sin(z.value), tuple([c * g for g in z.grad]), z.tag)
    return math.sin(z)


def cos(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        s = sin(z.value)
        return _ds(cos(z.value), tuple([-s * g for g in z.grad]), z.tag)
    return math.cos(z)


def tan(z: Scalar) -> Scalar:
    return sin(z) / cos(z)


def exp(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        e = exp(z.value)
        return _ds(e, tuple([e * g for g in z.grad]), z.tag)
    return math.exp(z)


def log(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        v = z.value
        return _ds(log(v), tuple([g / v for g in z.grad]), z.tag)
    return math.log(z)


def sqrt(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        r = sqrt(z.value)
        return _ds(r, tuple([g / (2.0 * r) for g in z.grad]), z.tag)
    return math.sqrt(z)


# -- generic small linear algebra (entries float or DScalar) ---------------

def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    """sum_k a[k] b[k] added left to right, the one summation order of every
    contraction in a report; indexed, not sliced, to stay cheap on ndarrays."""
    acc = a[0] * b[0]
    for k in range(1, len(a)):
        acc = acc + a[k] * b[k]
    return acc


def mat_vec(rows: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list:
    return [dot(row, v) for row in rows]


def vec_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> list:
    return [x + y for x, y in zip(a, b)]


def vec_sub(a: Sequence[Scalar], b: Sequence[Scalar]) -> list:
    return [x - y for x, y in zip(a, b)]


def vec_scale(c: Scalar, a: Sequence[Scalar]) -> list:
    return [c * x for x in a]


def as_float_array(v: Sequence[Scalar]) -> np.ndarray:
    return np.array([float_value(x) for x in v], dtype=float)


# -- seeding and derivatives -----------------------------------------------

def seed_scalars(coords: Sequence[Scalar], tag: int | None = None
                 ) -> list[DScalar]:
    """Attach a unit seed basis with a fresh tag to a coordinate tuple.

    Entries of ``coords`` may already be DScalars from an enclosing pass;
    the seeds then nest and second derivatives propagate exactly.
    """
    if tag is None:
        tag = _fresh_tag()
    return [_ds(c, e, tag) for c, e in zip(coords, _unit_basis(len(coords)))]


@functools.lru_cache(maxsize=None)
def _unit_basis(n: int) -> tuple:
    """The rows of the n x n identity as float tuples, shared by every pass
    of n seeds."""
    return tuple(tuple(1.0 if k == j else 0.0 for k in range(n))
                 for j in range(n))


def value_and_jacobian(fn: VectorFn, coords: Sequence[Scalar]):
    """Values and exact forward-mode Jacobian of ``fn`` at ``coords``.

    One evaluation gives both.  The values are the pass's outputs with its
    own layer stripped: ``fn(coords)``, except that a division by a varying
    ``b`` rounds as a product with ``b ** -1``.  Column ``j`` of the
    Jacobian is the directional derivative along ``e_j``.  For plain float
    input it is a float ``(k, n)`` ndarray, checked for NaN/inf; when
    ``coords`` carries DScalars from an enclosing differentiation, values
    and entries (nested lists) belong to that enclosing pass.
    """
    coords = list(coords)
    n = len(coords)
    nested = any(type(c) is DScalar for c in coords)
    tag = _fresh_tag()
    try:
        out = fn(seed_scalars(coords, tag))
    except (ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteOutputError(
            f"evaluator is singular at this point: {exc}") from exc
    values, rows = [], []
    for comp in out:
        if type(comp) is DScalar and comp.tag == tag:
            values.append(comp.value)
            rows.append(list(comp.grad))
        else:
            values.append(comp)
            rows.append([0.0] * n)  # constant w.r.t. this pass
    if nested:
        return values, rows
    mat = np.array(rows, dtype=float)
    if not np.isfinite(mat).all():
        raise NonFiniteOutputError(
            "jacobian produced non-finite entries; evaluator is singular here")
    return values, mat


def jacobian(fn: VectorFn, coords: Sequence[Scalar]):
    """The Jacobian half of :func:`value_and_jacobian`."""
    return value_and_jacobian(fn, coords)[1]


def derivative(fn: Callable[[Scalar], Sequence[Scalar]], t: Scalar) -> list:
    """Derivative of a one-parameter map, as a list of scalars."""
    rows = jacobian(lambda args: fn(args[0]), [t])
    return [row[0] for row in rows]


def hessian(fn: VectorFn, coords: Sequence[float]) -> np.ndarray:
    """Exact Hessians of every output component, shape ``(k, n, n)``.

    Obtained by one nested first-order pass: the outer seeds ride inside
    the values of the inner seeds.
    """
    coords = [float(c) for c in coords]
    n = len(coords)
    outer = seed_scalars(coords)
    rows = jacobian(fn, outer)  # entries carry the outer pass
    k = len(rows)
    out = np.zeros((k, n, n))
    for i in range(k):
        for j in range(n):
            entry = rows[i][j]
            if isinstance(entry, DScalar):
                out[i, j, :] = [float_value(g) for g in entry.grad]
    return out
