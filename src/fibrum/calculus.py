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
is what keeps nested derivatives from contaminating each other.  Every
scalar of one pass has the pass's gradient length, the number of seeds;
same-tag operands of different lengths raise ``ValueError``.  A Jacobian
is a list of rows.  A pass whose ``coords`` or values carry an enclosing
pass's scalars (an evaluator may capture them) is nested, and its entries
belong to that pass; any other pass's entries are Python floats, checked
for NaN/inf.

Gradients are built by straight-line kernels, one per operation and
gradient length, generated and compiled on first use of that length and
cached without a cap.  Each does the float operations of the textbook rule
in its order, so results are bit-stable.  ``sin`` and ``cos`` of a nested
scalar share the sine and cosine of every inner layer.

Evaluators used with this module must be pure and *closed under DScalar
inputs*: they may only combine their arguments with ``+ - * / **`` and the
smooth functions exported here (``sin``, ``cos``, ...).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence, Union

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
    # Gradients are built by the straight-line kernels below, one per
    # operation and gradient length.  ``type(o) is DScalar`` is the operand
    # test: the class has no subclasses.

    def __add__(self, other):
        tag = self.tag
        if type(other) is DScalar:
            if other.tag == tag:
                return _ADD[len(self.grad)](self, other)
            if other.tag > tag:  # self is constant for other's pass
                return _ds(self + other.value, other.grad, other.tag)
            return _ds(self.value + other, self.grad, tag)
        return _ds(self.value + float(other), self.grad, tag)

    __radd__ = __add__

    def __sub__(self, other):
        tag = self.tag
        if type(other) is DScalar:
            if other.tag == tag:
                return _SUB[len(self.grad)](self, other)
            if other.tag > tag:
                g = other.grad
                return _NEG[len(g)](self - other.value, g, other.tag)
            return _ds(self.value - other, self.grad, tag)
        return _ds(self.value - float(other), self.grad, tag)

    def __rsub__(self, other):
        g = self.grad
        return _NEG[len(g)](float(other) - self.value, g, self.tag)

    def __mul__(self, other):
        tag = self.tag
        if type(other) is DScalar:
            if other.tag == tag:
                return _MUL[len(self.grad)](self, other)
            if other.tag > tag:
                g = other.grad
                return _SCALE[len(g)](self * other.value, self, g, other.tag)
            g = self.grad
            return _TIMES[len(g)](self.value * other, g, other, tag)
        f = float(other)
        g = self.grad
        return _TIMES[len(g)](self.value * f, g, f, tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is DScalar:
            return self * other ** -1
        f = float(other)
        g = self.grad
        return _OVER[len(g)](self.value / f, g, f, self.tag)

    def __rtruediv__(self, other):
        return float(other) * self ** -1

    def __neg__(self):
        g = self.grad
        return _NEG[len(g)](-self.value, g, self.tag)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("DScalar exponent must be a plain number")
        v = self.value
        coeff = p * v ** (p - 1)
        g = self.grad
        return _SCALE[len(g)](v ** p, coeff, g, self.tag)

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


# -- per-length gradient kernels -------------------------------------------
# Each operation's gradient is written out per component as straight-line
# code, one function per gradient length, compiled on first use.  An entry
# is the textbook rule's float operations in its order; the result's value
# is computed before its gradient entries, and those in index order.
# Binary kernels take two scalars of one pass: ``a``, ``b`` are their
# values and ``a{i}``, ``b{i}`` their gradients, which must have one length.
# The others take the result's value, its tag and one gradient ``g{i}``
# with a factor ``c`` (left) or ``f`` (right).

_OPS = {
    "add": ("x, y", "a + b", "a{i} + b{i}"),
    "sub": ("x, y", "a - b", "a{i} - b{i}"),
    "mul": ("x, y", "a * b", "a * b{i} + a{i} * b"),
    "scale": ("value, c, g, tag", "value", "c * g{i}"),
    "times": ("value, g, f, tag", "value", "g{i} * f"),
    "over": ("value, g, f, tag", "value", "g{i} / f"),
    "neg": ("value, g, tag", "value", "-g{i}"),
}


def _unequal(x: DScalar, y: DScalar) -> ValueError:
    return ValueError(
        f"gradients of one pass (tag {x.tag}) differ in length: "
        f"{len(x.grad)} and {len(y.grad)}")


def _compile(op: str, n: int):
    """The kernel of ``op`` for gradients of length ``n``."""
    params, value, entry = _OPS[op]

    def names(prefix):
        return "[" + ", ".join(f"{prefix}{i}" for i in range(n)) + "]"

    lines = [f"def {op}({params}):"]
    if params == "x, y":
        lines += [f"    {names('a')} = x.grad",
                  "    try:",
                  f"        {names('b')} = y.grad",
                  "    except ValueError:",
                  "        raise unequal(x, y) from None",
                  "    a = x.value",
                  "    b = y.value",
                  "    tag = x.tag"]
    else:
        lines.append(f"    {names('g')} = g")
    grad = ", ".join(entry.format(i=i) for i in range(n))
    lines += ["    z = new(DScalar)",
              f"    z.value = {value}",
              f"    z.grad = ({grad}{',' if n == 1 else ''})",
              "    z.tag = tag",
              "    return z"]
    return _define(lines, f"<DScalar {op}, n={n}>",
                   {"new": _new, "DScalar": DScalar, "unequal": _unequal})


def _define(lines: Sequence[str], name: str, namespace: dict) -> Callable:
    """The function that generated ``lines`` define, compiled with the
    globals ``namespace``; the first line is its ``def``, and ``name``
    shows in tracebacks."""
    exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace[lines[0][4:lines[0].index("(")]]


class _Kernels(dict):
    """The kernels of one operation by gradient length, compiled on first
    use of each length; any length is accepted."""

    __slots__ = ("op",)

    def __init__(self, op: str):
        super().__init__()
        self.op = op

    def __missing__(self, n: int):
        kernel = self[n] = _compile(self.op, n)
        return kernel


_ADD, _SUB, _MUL, _SCALE, _TIMES, _OVER, _NEG = (
    _Kernels(op) for op in _OPS)


def float_value(z) -> float:
    """Strip all derivative layers and return the underlying float."""
    while isinstance(z, DScalar):
        z = z.value
    return float(z)


# -- smooth functions, dispatching on float vs DScalar ---------------------

def _sincos(z: Scalar) -> tuple:
    """``(sin z, cos z)``; each inner layer's sine and cosine is taken once
    and shared by both."""
    if type(z) is DScalar:
        s, c = _sincos(z.value)
        g, tag = z.grad, z.tag
        scale = _SCALE[len(g)]
        return scale(s, c, g, tag), scale(c, -s, g, tag)
    return math.sin(z), math.cos(z)


def sin(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        s, c = _sincos(z.value)
        g = z.grad
        return _SCALE[len(g)](s, c, g, z.tag)
    return math.sin(z)


def cos(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        s, c = _sincos(z.value)
        g = z.grad
        return _SCALE[len(g)](c, -s, g, z.tag)
    return math.cos(z)


def tan(z: Scalar) -> Scalar:
    return sin(z) / cos(z)


def exp(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        e = exp(z.value)
        g = z.grad
        return _SCALE[len(g)](e, e, g, z.tag)
    return math.exp(z)


def log(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        v = z.value
        g = z.grad
        return _OVER[len(g)](log(v), g, v, z.tag)
    return math.log(z)


def sqrt(z: Scalar) -> Scalar:
    if type(z) is DScalar:
        r = sqrt(z.value)
        g = z.grad
        return _OVER[len(g)](r, g, 2.0 * r, z.tag)
    return math.sqrt(z)


# -- generic small linear algebra (entries float or DScalar) ---------------

def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    """sum_k a[k] b[k] added left to right, the one summation order of every
    contraction in a report."""
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


def _max_abs(values: Sequence[float]) -> float:
    """The largest |v| of a non-empty vector: NaN if any entry is NaN, where
    Python's ``max`` would skip it."""
    worst = 0.0
    for v in values:
        a = abs(v)
        if a > worst:
            worst = a
        elif a != a:
            return math.nan
    return float(worst)


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
    ``b`` rounds as a product with ``b ** -1``.  The Jacobian is a list of
    rows, one per output; column ``j`` is the directional derivative along
    ``e_j``.  The pass is nested when ``coords`` or the values carry
    DScalars of an enclosing differentiation, as when ``fn`` captures them
    from that pass: values and entries then belong to the enclosing pass.
    Otherwise the entries are Python floats, checked for NaN/inf.
    """
    coords = list(coords)
    n = len(coords)
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
    if DScalar in map(type, coords) or DScalar in map(type, values):
        return values, rows
    return values, _float_rows(rows)


def _float_rows(rows) -> list:
    """The rows of a pass that is not nested, as lists of Python floats
    checked for NaN/inf."""
    rows = [[float(x) for x in row] for row in rows]
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise NonFiniteOutputError("jacobian produced non-finite "
                                       "entries; evaluator is singular here")
    return rows


def _field_jets(fields: Callable, coords: Sequence[Scalar]) -> list:
    """(values, Jacobian) of each field, from one :func:`value_and_jacobian`
    pass over them stacked: ``fields(coords)`` returns their values, one
    sequence per field.  It is the package's one stacked pass.

    Each jet is the one a pass of its own would give, bit for bit: the
    fields are pure, and a forward-mode gradient entry uses only that entry
    of its operands, whatever the gradient length.  That holds for the
    Jacobian's check too: where only other fields carry an enclosing pass's
    scalars, a field's rows are checked for NaN/inf and made floats here,
    as its own pass would.
    """
    coords = list(coords)
    sizes = []

    def stacked(c):
        out = []
        for vals in fields(c):
            sizes.append(len(vals))
            out += vals
        return out

    values, jac = value_and_jacobian(stacked, coords)
    mixed = DScalar not in map(type, coords) and DScalar in map(type, values)
    jets, k = [], 0
    for n in sizes:
        vals, rows = values[k:k + n], jac[k:k + n]
        if mixed and DScalar not in map(type, vals):
            rows = _float_rows(rows)
        jets.append((vals, rows))
        k += n
    return jets


def jacobian(fn: VectorFn, coords: Sequence[Scalar]):
    """The Jacobian half of :func:`value_and_jacobian`."""
    return value_and_jacobian(fn, coords)[1]


def derivative(fn: Callable[[Scalar], Sequence[Scalar]], t: Scalar) -> list:
    """Derivative of a one-parameter map, as a list of scalars."""
    rows = jacobian(lambda args: fn(args[0]), [t])
    return [row[0] for row in rows]


def hessian(fn: VectorFn, coords: Sequence[float]) -> list:
    """Exact Hessians of every output component, as nested lists: entry
    ``[i][j][l]`` is the second derivative of output i along e_j and e_l.

    Obtained by one nested first-order pass: the outer seeds ride inside
    the values of the inner seeds.
    """
    coords = [float(c) for c in coords]
    n = len(coords)
    rows = jacobian(fn, seed_scalars(coords))  # entries carry the outer pass
    return [[[float_value(g) for g in entry.grad]
             if isinstance(entry, DScalar) else [0.0] * n for entry in row]
            for row in rows]
