"""Chart-local model of a fibre bundle and the fields living on it.

Everything happens inside one trivialization: an open box in the base
coordinates times an open box in the fibre coordinates.  Total-space
coordinates are always ordered (base..., fibre...), so the bundle
projection is truncation to the first ``m`` components and the vertical
subspace at any point is spanned by the last ``f`` coordinate directions.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import (Scalar, _define, _field_jets, _max_abs,
                       float_value, vec_sub)
from .errors import DomainError


class SpaceTag(enum.Enum):
    BASE = "base"
    TOTAL = "total"


@functools.lru_cache(maxsize=None)
def _box_test(n: int):
    """The maker of chart tests on ``n`` coordinates, written out as one
    straight-line predicate and compiled on first use of ``n``.

    ``make(l0, h0, ..., l{n-1}, h{n-1})`` returns ``contains(coords)``,
    which is ``len(coords) == n and l0 < coords[0] < h0 and ...``: the
    bounds reach it as closure variables, not as text, so every bit of them
    is kept, and every test on ``n`` coordinates shares one code object.
    """
    bounds = ", ".join(f"l{i}, h{i}" for i in range(n))
    test = " and ".join([f"len(coords) == {n}"] + [
        f"l{i} < coords[{i}] < h{i}" for i in range(n)])
    lines = [f"def make({bounds}):",
             "    def contains(coords):",
             '        """Whether the real coordinates ``coords`` lie inside '
             'the box."""',
             f"        return {test}",
             "    return contains"]
    return _define(lines, f"<chart box test, n={n}>", {})


def _chart_test(*boxes: Box):
    """The compiled chart test of the product of ``boxes``, in order."""
    bounds = [b for box in boxes for lh in zip(box.lower, box.upper)
              for b in lh]
    return _box_test(len(bounds) // 2)(*bounds)


@dataclass(frozen=True)
class Box:
    """Axis-aligned open box with explicit bounds.

    ``dim``, the number of axes, and the chart test ``contains(coords)``
    are set once, at construction.  ``contains`` is one compiled predicate
    (``_box_test``): ``coords`` has one entry per axis and each lies
    strictly between its bounds, so a bound itself and NaN are outside.
    Both are plain attributes, not fields, so equal boxes stay equal and
    hash equal.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DomainError("box bounds have mismatched dimensions")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise DomainError("box is empty: need lower < upper in every axis")
        object.__setattr__(self, "dim", len(self.lower))
        object.__setattr__(self, "contains", _chart_test(self))

    def __reduce__(self):
        # the chart test is a compiled closure, so a copy is rebuilt
        return Box, (self.lower, self.upper)

    @functools.cached_property
    def _shrunk(self) -> dict:
        """margin -> bounds, filled by ``bounds``."""
        return {}

    def bounds(self, margin: float = 0.1) -> tuple[tuple, tuple]:
        """(lows, highs) of the box shrunk by ``margin`` of its width on
        each side, as floats, computed once per margin."""
        out = self._shrunk.get(margin)
        if out is None:
            pads = [margin * (hi - lo)
                    for lo, hi in zip(self.lower, self.upper)]
            out = self._shrunk[margin] = (
                tuple(lo + pad for lo, pad in zip(self.lower, pads)),
                tuple(hi - pad for hi, pad in zip(self.upper, pads)))
        return out

    def sample(self, rng: np.random.Generator, margin: float = 0.1) -> list:
        """Uniform draw from the box shrunk by a relative margin per side, as
        a list of floats."""
        return _uniform_spans(rng, *_plan(self.bounds(margin)))


def _spans(lows: Sequence[float], highs: Sequence[float]) -> list:
    """The ranges ``highs[i] - lows[i]`` of a uniform draw, under
    numpy's guards: a non-finite range raises ``OverflowError`` and a
    negative one (``-0.0`` included) ``ValueError``."""
    spans = [hi - lo for lo, hi in zip(lows, highs, strict=True)]
    if not all(map(math.isfinite, spans)):
        raise OverflowError("Range exceeds valid bounds")
    if any(math.copysign(1.0, span) < 0.0 for span in spans):
        raise ValueError("high - low < 0")
    return spans


def _uniform_spans(rng: np.random.Generator, lows: Sequence[float],
                   spans: Sequence[float]) -> list:
    """numpy's ``Generator.uniform(lows, highs)`` on ranges ``spans``
    already checked by ``_spans``, as a list, from one ``rng.random`` call.

    numpy draws entry i as ``lows[i] + (highs[i] - lows[i]) * u``, with u
    the generator's next double, so the same float arithmetic gives the
    same bits and leaves the generator in the same state.
    """
    return [lo + span * u for lo, span, u
            in zip(lows, spans, rng.random(len(spans)).tolist())]


@functools.cache
def _plan(*parts) -> tuple[tuple, tuple]:
    """(lows, spans) of one uniform draw over ``parts``, each a (lows,
    highs) pair of tuples, in order, checked by ``_spans``.

    The parts are constant bounds (``Box.bounds``, ``catalog._cube``,
    ``_total_bounds`` and ``_sin_bounds``), so each set is checked once.
    A call that raises caches nothing, so failing bounds raise before
    anything is drawn on every call.  Bounds that compare equal differ at
    most in the sign of a zero, which changes no draw; only a -0.0 high
    over a 0.0 low would fail where its equal passes, and no constant
    bound has one.
    """
    lows = tuple(lo for part in parts for lo in part[0])
    highs = [hi for part in parts for hi in part[1]]
    return lows, tuple(_spans(lows, highs))


def uniform_parts(rng: np.random.Generator, *parts) -> list:
    """Consecutive ``rng.uniform(lows, highs)`` draws by one generator call:
    each part is a (lows, highs) pair of constant tuples (``_plan``) and
    gets the list of its values, in order.  numpy's guards hold, checked
    before anything is drawn (``_spans``)."""
    values = _uniform_spans(rng, *_plan(*parts))
    out, k = [], 0
    for lo, _ in parts:
        out.append(values[k:k + len(lo)])
        k += len(lo)
    return out


@dataclass(frozen=True)
class TrivializedBundle:
    """One trivialized chart of a fibre bundle p: E -> M.

    ``base_periods`` marks base coordinates that wrap (entry = period, or
    None).  It is metadata used only for loop-closure tests; all analysis
    stays inside the single chart box.

    ``base_dim``, ``fibre_dim`` and ``total_dim`` and the chart tests are
    set once, at construction: ``contains_base`` is the base box's
    ``contains``, and ``contains_total`` one compiled predicate over the
    base bounds, then the fibre bounds, with the semantics of
    ``Box.contains``.  They are plain attributes, not fields, so equal
    bundles stay equal and hash equal; a pickled bundle, like a pickled
    box, is rebuilt from its fields.
    """

    name: str
    base_box: Box
    fibre_box: Box
    base_periods: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self):
        m, f = self.base_box.dim, self.fibre_box.dim
        if self.base_periods is not None and len(self.base_periods) != m:
            raise DomainError("base_periods length must equal base dimension")
        for name, value in (("base_dim", m), ("fibre_dim", f),
                            ("total_dim", m + f),
                            ("contains_base", self.base_box.contains),
                            ("contains_total",
                             _chart_test(self.base_box, self.fibre_box))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return TrivializedBundle, (self.name, self.base_box, self.fibre_box,
                                   self.base_periods)

    def split(self, coords: Sequence[Scalar]) -> tuple[list, list]:
        """Split total-space coordinates into (base, fibre) parts."""
        m = self.base_dim
        return list(coords[:m]), list(coords[m:])

    def base_point(self, coords: Sequence[float]) -> "Point":
        return Point(self, SpaceTag.BASE, tuple(float(c) for c in coords))

    def total_point(self, coords: Sequence[float]) -> "Point":
        return Point(self, SpaceTag.TOTAL, tuple(float(c) for c in coords))

    def graph_point(self, x: Sequence[float], y: Sequence[float]) -> "Point":
        return self.total_point(tuple(x) + tuple(y))


@dataclass(frozen=True)
class Point:
    """A validated point of the base or the total space."""

    bundle: TrivializedBundle
    space: SpaceTag
    coords: tuple[float, ...]

    def __post_init__(self):
        bundle = self.bundle
        if self.space is SpaceTag.BASE:
            dim, inside = bundle.base_dim, bundle.contains_base
        else:
            dim, inside = bundle.total_dim, bundle.contains_total
        if len(self.coords) != dim:
            raise DomainError(
                f"point has {len(self.coords)} coordinates, expected {dim}")
        if not inside(self.coords):
            raise DomainError(
                f"point {self.coords} lies outside the chart box of "
                f"bundle '{bundle.name}'")

    @property
    def base_coords(self) -> tuple[float, ...]:
        if self.space is SpaceTag.BASE:
            return self.coords
        return tuple(self.coords[: self.bundle.base_dim])

    @property
    def fibre_coords(self) -> tuple[float, ...]:
        if self.space is SpaceTag.BASE:
            raise DomainError("base point has no fibre coordinates")
        return tuple(self.coords[self.bundle.base_dim:])


@dataclass(frozen=True, eq=False)
class TotalTangent:
    """Element of the tangent space at a total-space point, split into the
    candidate-horizontal base part (image under the projection's tangent)
    and the fibre part, each a list of floats; other sequences are copied
    into lists."""

    anchor: Point
    base_part: list
    fibre_part: list

    def __post_init__(self):
        anchor = self.anchor
        if anchor.space is not SpaceTag.TOTAL:
            raise DomainError("TotalTangent must be anchored at a total-space point")
        bundle = anchor.bundle
        for name, dim in (("base_part", bundle.base_dim),
                          ("fibre_part", bundle.fibre_dim)):
            part = getattr(self, name)
            if type(part) is not list:
                part = [float(c) for c in part]
                object.__setattr__(self, name, part)
            if len(part) != dim:
                raise DomainError(f"{name} has wrong dimension")

    def as_vector(self) -> list:
        return self.base_part + self.fibre_part


def _coords_of(arg, expected: SpaceTag):
    if isinstance(arg, Point):
        if arg.space is not expected:
            raise DomainError(f"expected a {expected.value}-space point")
        return list(arg.coords)
    return list(arg)


@dataclass(frozen=True)
class BaseVectorField:
    """Smooth evaluator x -> m-vector, closed under DScalar inputs."""

    bundle: TrivializedBundle
    fn: Callable[[Sequence[Scalar]], Sequence[Scalar]]

    def __call__(self, x) -> list:
        return list(self.fn(_coords_of(x, SpaceTag.BASE)))


@dataclass(frozen=True)
class TotalVectorField:
    """Smooth evaluator e -> (m+f)-vector, closed under DScalar inputs."""

    bundle: TrivializedBundle
    fn: Callable[[Sequence[Scalar]], Sequence[Scalar]]

    def __call__(self, e) -> list:
        return list(self.fn(_coords_of(e, SpaceTag.TOTAL)))


@dataclass(frozen=True)
class SectionMap:
    """Smooth evaluator x -> f-vector; the section itself is x -> (x, s(x))."""

    bundle: TrivializedBundle
    fn: Callable[[Sequence[Scalar]], Sequence[Scalar]]

    def __call__(self, x) -> list:
        return list(self.fn(_coords_of(x, SpaceTag.BASE)))

    def graph(self, x) -> Point:
        coords = _coords_of(x, SpaceTag.BASE)
        y = self.fn(coords)
        return self.bundle.graph_point([float_value(c) for c in coords],
                                       [float_value(c) for c in y])


def jet_bracket(xe, jx, ye, jy) -> list:
    """Coordinate Lie bracket DY X - DX Y at one point, from the 1-jets
    (value, Jacobian) of X and Y there, as ``value_and_jacobian`` gives
    them: list rows, whose Python float entries keep a float bracket's
    products off numpy scalars.  Entry i is ``dot(jy[i], xe) - dot(jx[i],
    ye)``, computed by the compiled kernel of ``len(xe)`` coordinates."""
    return _bracket_kernel(len(xe))(xe, jx, ye, jy)


@functools.lru_cache(maxsize=None)
def _bracket_kernel(n: int):
    """:func:`jet_bracket` on ``n`` coordinates, written out as one
    straight-line function and compiled on first use of ``n``.

    ``bracket(xe, jx, ye, jy)`` unpacks the values into ``x0, ...`` and
    ``y0, ...`` and the n-by-n Jacobians into ``jx{i}_{k}`` and
    ``jy{i}_{k}``, and returns row i as ``(jy{i}_0 * x0 + jy{i}_1 * x1 +
    ...) - (jx{i}_0 * y0 + ...)``: the operands, their order and ``dot``'s
    left-to-right sums, so floats, one pass's scalars and nested ones give
    ``dot``'s bits.
    """
    ks = range(n)

    def names(prefix):
        return ", ".join(f"{prefix}{k}" for k in ks) + ","

    def rows(jac):
        return " ".join(f"({names(f'{jac}{i}_')})," for i in ks)

    def row_dot(jac, i, vec):
        return " + ".join(f"{jac}{i}_{k} * {vec}{k}" for k in ks)

    lines = ["def bracket(xe, jx, ye, jy):",
             f"    {names('x')} = xe",
             f"    {names('y')} = ye",
             f"    {rows('jx')} = jx",
             f"    {rows('jy')} = jy",
             "    return [" + ", ".join(
                 f"({row_dot('jy', i, 'x')}) - ({row_dot('jx', i, 'y')})"
                 for i in ks) + "]"]
    return _define(lines, f"<jet bracket, n={n}>", {})


def _bracket_fn(fx, fy):
    """Coordinate Lie bracket e -> DY(e) X(e) - DX(e) Y(e), nesting-safe;
    the jets of X and Y come from one pass over both."""

    def ev(coords):
        (xe, jx), (ye, jy) = _field_jets(lambda c: (fx(c), fy(c)), coords)
        return jet_bracket(xe, jx, ye, jy)

    return ev


def lie_bracket(X: TotalVectorField, Y: TotalVectorField) -> TotalVectorField:
    """Lie bracket [X, Y] of vector fields on the total space."""
    if X.bundle is not Y.bundle:
        raise DomainError("lie_bracket needs fields on the same chart")
    return TotalVectorField(X.bundle, _bracket_fn(X.fn, Y.fn))


def base_lie_bracket(u: BaseVectorField, v: BaseVectorField) -> BaseVectorField:
    """Lie bracket [u, v] of vector fields on the base."""
    if u.bundle is not v.bundle:
        raise DomainError("base_lie_bracket needs fields on the same chart")
    return BaseVectorField(u.bundle, _bracket_fn(u.fn, v.fn))


def check_p_related(X: TotalVectorField, v: BaseVectorField,
                    samples: Sequence[Point]) -> float:
    """Max over samples of |base part of X(e) - v(p(e))|; the projection's
    tangent is truncation to the first m components in this trivialization."""
    worst = 0.0
    m = X.bundle.base_dim
    for e in samples:
        diff = vec_sub(X(e)[:m], v.fn(list(e.base_coords)))
        worst = max(worst, _max_abs(diff))
    return worst
