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

from .calculus import (Scalar, as_float_array, dot, float_value,
                       value_and_jacobian)
from .errors import DomainError


class SpaceTag(enum.Enum):
    BASE = "base"
    TOTAL = "total"


@dataclass(frozen=True)
class Box:
    """Axis-aligned open box with explicit bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DomainError("box bounds have mismatched dimensions")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise DomainError("box is empty: need lower < upper in every axis")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, coords: Sequence[float]) -> bool:
        """Whether the real coordinates ``coords`` lie inside the box."""
        if len(coords) != len(self.lower):
            return False
        for c, lo, hi in zip(coords, self.lower, self.upper):
            if not lo < c < hi:
                return False
        return True

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

    def sample(self, rng: np.random.Generator, margin: float = 0.1) -> np.ndarray:
        """Uniform draw from the box shrunk by a relative margin per side."""
        return np.array(uniform(rng, *self.bounds(margin)))


def uniform(rng: np.random.Generator, lows: Sequence[float],
            highs: Sequence[float]) -> list:
    """numpy's ``Generator.uniform(lows, highs)`` for equal-length bounds,
    as a list, from one ``rng.random`` call.

    numpy draws entry i as ``lows[i] + (highs[i] - lows[i]) * u``, with u
    the generator's next double, so the same float arithmetic gives the
    same bits and leaves the generator in the same state.  numpy's guards
    stay, checked before anything is drawn: a non-finite range raises
    ``OverflowError`` and a negative one (``-0.0`` included) ``ValueError``.
    """
    spans = [hi - lo for lo, hi in zip(lows, highs, strict=True)]
    if not all(map(math.isfinite, spans)):
        raise OverflowError("Range exceeds valid bounds")
    if any(math.copysign(1.0, span) < 0.0 for span in spans):
        raise ValueError("high - low < 0")
    return [lo + span * u for lo, span, u
            in zip(lows, spans, rng.random(len(spans)).tolist())]


def uniform_parts(rng: np.random.Generator, *parts) -> list:
    """Consecutive ``uniform`` draws by one generator call: each part is a
    (lows, highs) pair and gets the list of its values, in order."""
    lows, highs = [], []
    for lo, hi in parts:
        lows += lo
        highs += hi
    values = uniform(rng, lows, highs)
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
    """

    name: str
    base_box: Box
    fibre_box: Box
    base_periods: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self):
        if self.base_periods is not None and len(self.base_periods) != self.base_box.dim:
            raise DomainError("base_periods length must equal base dimension")

    @property
    def base_dim(self) -> int:
        return self.base_box.dim

    @property
    def fibre_dim(self) -> int:
        return self.fibre_box.dim

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.fibre_dim

    def split(self, coords: Sequence[Scalar]) -> tuple[list, list]:
        """Split total-space coordinates into (base, fibre) parts."""
        m = self.base_dim
        return list(coords[:m]), list(coords[m:])

    def contains_base(self, coords: Sequence[float]) -> bool:
        return self.base_box.contains(coords)

    def contains_total(self, coords: Sequence[float]) -> bool:
        x, y = self.split(coords)
        return self.base_box.contains(x) and self.fibre_box.contains(y)

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
        box_dim = (self.bundle.base_dim if self.space is SpaceTag.BASE
                   else self.bundle.total_dim)
        if len(self.coords) != box_dim:
            raise DomainError(
                f"point has {len(self.coords)} coordinates, expected {box_dim}")
        inside = (self.bundle.contains_base(self.coords)
                  if self.space is SpaceTag.BASE
                  else self.bundle.contains_total(self.coords))
        if not inside:
            raise DomainError(
                f"point {self.coords} lies outside the chart box of "
                f"bundle '{self.bundle.name}'")

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
    and the fibre part."""

    anchor: Point
    base_part: np.ndarray
    fibre_part: np.ndarray

    def __post_init__(self):
        if self.anchor.space is not SpaceTag.TOTAL:
            raise DomainError("TotalTangent must be anchored at a total-space point")
        object.__setattr__(self, "base_part", np.asarray(self.base_part, dtype=float))
        object.__setattr__(self, "fibre_part", np.asarray(self.fibre_part, dtype=float))
        if self.base_part.shape != (self.anchor.bundle.base_dim,):
            raise DomainError("base_part has wrong dimension")
        if self.fibre_part.shape != (self.anchor.bundle.fibre_dim,):
            raise DomainError("fibre_part has wrong dimension")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.base_part, self.fibre_part])


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
    them."""
    return [dot(jy[i], xe) - dot(jx[i], ye) for i in range(len(xe))]


def _bracket_fn(fx, fy):
    """Coordinate Lie bracket e -> DY(e) X(e) - DX(e) Y(e), nesting-safe."""

    def ev(coords):
        return jet_bracket(*value_and_jacobian(fx, coords),
                           *value_and_jacobian(fy, coords))

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
        xe = as_float_array(X(e))[:m]
        vx = as_float_array(v.fn(list(e.base_coords)))
        worst = max(worst, float(np.max(np.abs(xe - vx))))
    return worst
