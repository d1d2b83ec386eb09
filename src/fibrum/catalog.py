"""Built-in bundles/connections and seeded random test data.

Catalog contents:

* ``flat``          -- gamma = 0 on any dimensions; everything trivial.
* ``sphere``        -- tangent bundle of the unit round sphere in polar
                       coordinates, Levi-Civita Christoffels, with a polar
                       collar excluded (cot(theta) blows up at the poles).
* ``nonlinear-demo``-- f = 1 coefficient genuinely nonlinear in the fibre
                       coordinate, exercising the general (non-vector-bundle)
                       machinery.
* ``tm-custom-christoffel`` -- tangent-bundle configuration with user-given
                       constant or degree-one polynomial Christoffels.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bundle import (BaseVectorField, Box, Point, SectionMap,
                     TotalTangent, TrivializedBundle, _plan, _uniform_spans,
                     uniform_parts)
from .calculus import (DScalar, _define, _ds, cos, dot, float_value,
                       mat_vec, sin)
from .connection import ConnectionField, ConnectionKind
from .errors import (_COUNT, _POSITIVE, _REAL, ConfigError, DomainError,
                     _checked)
from .transport import CurveOnBase, covariant_derivative_along_curve

SPHERE_COLLAR = 0.2
SPHERE_PHI_SLACK = 0.2  # widen past one period so closed loops stay inside


def make_flat(m: int = 2, f: int = 2, base_half: float = 2.0,
              fibre_half: float = 2.0) -> ConnectionField:
    bundle = TrivializedBundle(
        name="flat",
        base_box=Box(*_cube(m, float(base_half))),
        fibre_box=Box(*_cube(f, float(fibre_half))),
    )
    return ConnectionField(bundle, lambda x, y, v: [0.0] * f,
                           ConnectionKind.LINEAR)


def make_sphere(fibre_half: float = 4.0) -> ConnectionField:
    lo = SPHERE_COLLAR
    hi = math.pi - SPHERE_COLLAR
    phi_half = math.pi + SPHERE_PHI_SLACK
    bundle = TrivializedBundle(
        name="sphere",
        base_box=Box((lo, -phi_half), (hi, phi_half)),
        fibre_box=Box(*_cube(2, float(fibre_half))),
        base_periods=(None, 2.0 * math.pi),
    )

    last_th = last = None  # the last float theta, and its (sin, cos, cot)

    def gamma(x, y, v):
        # G^theta_phiphi = -sin cos, G^phi_thetaphi = G^phi_phitheta = cot,
        # summed in index order; the leading 0.0 fixes the sign of zero.
        # The memo is keyed on the float object: one object has one bit
        # pattern, where == would take -0.0 for 0.0.  A latitude loop hands
        # every call the same theta object; a DScalar theta is not stored.
        nonlocal last_th, last
        th = x[0]
        if th is last_th:
            s, c, cot = last
        else:
            s = sin(th)
            c = cos(th)
            cot = c / s
            if type(th) is float:
                last_th, last = th, (s, c, cot)
        return [0.0 + -s * c * v[1] * y[1],
                (0.0 + cot * v[0] * y[1]) + cot * v[1] * y[0]]

    return ConnectionField(bundle, gamma, ConnectionKind.LINEAR)


def make_nonlinear_demo(base_half: float = 1.0,
                        fibre_half: float = 1.5) -> ConnectionField:
    bundle = TrivializedBundle(
        name="nonlinear-demo",
        base_box=Box(*_cube(2, float(base_half))),
        fibre_box=Box(*_cube(1, float(fibre_half))),
    )

    def gamma(x, y, v):
        yy = y[0]
        return [(yy + yy ** 3) * v[0] + x[0] * yy * v[1]]

    return ConnectionField(bundle, gamma, ConnectionKind.NONLINEAR)


# G_a_bc or G_a_bc_xk: one ASCII digit 1-9 per index a, b, c, and k
# written without leading zeros, so no two keys name one coefficient.
_CHRISTOFFEL_KEY = re.compile(
    r"G_([1-9])_([1-9])([1-9])(?:_x([1-9][0-9]*))?")


def _parse_christoffel_key(key: str, m: int):
    """Parse 'G_a_bc' or 'G_a_bc_xk' (1-based indices, each <= m) into
    tensor slots (a, b, c, k), with k None for a constant."""
    match = _CHRISTOFFEL_KEY.fullmatch(key)
    slots = [int(i) - 1 for i in match.groups() if i] if match else []
    if not slots or max(slots) >= m:
        raise ConfigError(f"bundle_params.{key} must be a key G_a_bc or "
                          f"G_a_bc_xk with indices 1 to {m}",
                          field=f"bundle_params.{key}")
    a, b, c, *k = slots
    return a, b, c, k[0] if k else None


def make_custom_christoffel(coeffs: dict[str, float], m: int = 2,
                            base_half: float = 2.0,
                            fibre_half: float = 2.0) -> ConnectionField:
    """Tangent-bundle connection with Christoffels
    G^a_bc(x) = const + sum_k slope_k * x_k, all read from ``coeffs``."""
    const: dict[tuple[int, int, int], float] = {}
    slope: dict[tuple[int, int, int, int], float] = {}
    for key, val in coeffs.items():
        a, b, c, k = _parse_christoffel_key(key, m)
        if k is None:
            const[(a, b, c)] = float(val)
        else:
            slope[(a, b, c, k)] = float(val)

    # Per output a, the terms G^a_bc v^b y^c in summation order as
    # (b, c, constant, [(k, slope), ...]), leaving out those that are 0.
    terms = [[] for _ in range(m)]
    for a, b, c in itertools.product(range(m), repeat=3):
        g0 = const.get((a, b, c), 0.0)
        slopes = [(k, slope[a, b, c, k]) for k in range(m)
                  if slope.get((a, b, c, k), 0.0) != 0.0]
        if g0 != 0.0 or slopes:
            terms[a].append((b, c, g0, slopes))

    bundle = TrivializedBundle(
        name="tm-custom-christoffel",
        base_box=Box(*_cube(m, float(base_half))),
        fibre_box=Box(*_cube(m, float(fibre_half))),
    )
    return ConnectionField(bundle, _christoffel_evaluator(terms),
                           ConnectionKind.LINEAR)


def _christoffel_evaluator(terms: list):
    """gamma(x, y, v) summing ``terms`` as straight-line code, compiled
    once per connection.

    Output a is ``acc = 0.0`` plus, in order, ``g * v[b] * y[c]`` for each
    term of row a, where g is the constant, plus ``slope * x[k]`` for each
    of its slopes in order.  A sloped term is skipped where g is a float
    equal to zero, so a float x that cancels it adds nothing, where a
    DScalar x still adds its derivative; the test reads ``g != 0.0 or not
    isinstance(g, float)``, so a nonzero float costs one comparison.  The
    coefficients reach the code as closure variables, not as text, so every
    bit of them is kept.
    """
    coeffs, body, outs = [], [], []

    def name(value):
        coeffs.append(value)
        return f"c{len(coeffs) - 1}"

    for a, row in enumerate(terms):
        acc = "0.0"
        for b, c, g0, slopes in row:
            if not slopes:
                acc = f"({acc} + {name(g0)} * v[{b}] * y[{c}])"
                continue
            g = name(g0)
            for k, sl in slopes:
                g = f"({g} + {name(sl)} * x[{k}])"
            if acc != f"a{a}":
                body.append(f"        a{a} = {acc}")
            body += [f"        g = {g}",
                     "        if g != 0.0 or not isinstance(g, float):",
                     f"            a{a} = a{a} + g * v[{b}] * y[{c}]"]
            acc = f"a{a}"
        outs.append(acc)
    lines = [f"def make({', '.join(f'c{i}' for i in range(len(coeffs)))}):",
             "    def gamma(x, y, v):", *body,
             f"        return [{', '.join(outs)}]",
             "    return gamma"]
    return _define(lines, "<custom christoffel gamma>", {})(*coeffs)


@dataclass(frozen=True)
class Capabilities:
    """What a catalog entry declares about its connection beyond what the
    connection shows itself (its kind and dimensions).  The scenario layer
    decides which checks apply from these and from the connection."""

    zero_curvature: bool = False
    symmetric_christoffels: bool = False
    # default (theta0, y0) of the round-sphere latitude loop, whose holonomy
    # angle has a closed form and a boundary-integral oracle
    latitude_holonomy: Optional[tuple] = None
    # fixed geodesic start (x0, v0); without one, checks draw a start
    geodesic_start: Optional[tuple] = None


# Stands for every Christoffel coefficient key, G_a_bc or G_a_bc_xk.
CHRISTOFFELS = "G_a_bc[_xk]..."

# Each entry's ``params`` is the rule table (``errors._checked``) of its
# bundle parameters, one key per keyword of its builder; CHRISTOFFELS stands
# for the coefficient keys that the custom builder takes as ``coeffs``.
CATALOG: dict[str, dict] = {
    "flat": {
        "builder": make_flat,
        "params": {"m": _COUNT, "f": _COUNT, "base_half": _POSITIVE,
                   "fibre_half": _POSITIVE},
        "capabilities": Capabilities(zero_curvature=True),
        "description": "zero coefficient on an (m+f)-dimensional chart",
    },
    "sphere": {
        "builder": make_sphere,
        "params": {"fibre_half": _POSITIVE},
        "capabilities": Capabilities(
            symmetric_christoffels=True,
            latitude_holonomy=(math.pi / 3.0, (1.0, 0.0)),
            geodesic_start=((1.0, 0.3), (0.3, 0.4))),
        "description": "tangent bundle of the unit round sphere, polar chart "
                       f"with collar {SPHERE_COLLAR} excluded at both poles",
    },
    "nonlinear-demo": {
        "builder": make_nonlinear_demo,
        "params": {"base_half": _POSITIVE, "fibre_half": _POSITIVE},
        "capabilities": Capabilities(),
        "description": "scalar-fibre coefficient (y + y^3, x1*y), nonlinear "
                       "in the fibre coordinate",
    },
    "tm-custom-christoffel": {
        "builder": make_custom_christoffel,
        "params": {"m": _COUNT, "base_half": _POSITIVE,
                   "fibre_half": _POSITIVE, CHRISTOFFELS: _REAL},
        "capabilities": Capabilities(),
        "description": "tangent-bundle chart with user-supplied constant or "
                       "degree-one Christoffel coefficients",
    },
}


def build_connection(name: str, params: dict | None = None) -> ConnectionField:
    """The catalog entry ``name`` built from ``params``, each checked by
    ``_checked`` against the entry's rule table: a ConfigError names
    ``bundle_params`` (an unknown key) or ``bundle_params.<key>``."""
    if name not in CATALOG:
        raise ConfigError(f"unknown bundle '{name}'; catalog has "
                          f"{sorted(CATALOG)}", field="bundle_name")
    rules = dict(CATALOG[name]["params"])
    coeff = rules.pop(CHRISTOFFELS, None)
    params = params or {}
    coeffs = {k: v for k, v in params.items() if coeff and k.startswith("G_")}
    kwargs = _checked("bundle_params", {k: v for k, v in params.items()
                                        if k not in coeffs}, rules)
    if coeff:
        kwargs["coeffs"] = _checked("bundle_params", coeffs,
                                    dict.fromkeys(coeffs, coeff))
    return CATALOG[name]["builder"](**kwargs)


# -- seeded random test data -------------------------------------------------
# Each draw takes all its numbers from one generator call.  The count and
# order of a draw's doubles fix every later draw on its stream, so every
# report, and they are those of numpy's per-part ``uniform`` calls.

def _cube(n: int, half: float) -> tuple[tuple, tuple]:
    """Bounds of the cube (-half, half)^n: a box's, or those of ``n``
    draws."""
    return (-half,) * n, (half,) * n


def _total_bounds(bundle: TrivializedBundle) -> tuple[tuple, tuple]:
    """Bounds of ``random_total_point``: the base box, then the fibre box,
    each shrunk by the default margin."""
    (blo, bhi), (flo, fhi) = (bundle.base_box.bounds(),
                              bundle.fibre_box.bounds())
    return blo + flo, bhi + fhi


def random_base_point(bundle: TrivializedBundle,
                      rng: np.random.Generator) -> Point:
    return bundle.base_point(bundle.base_box.sample(rng))


def random_total_point(bundle: TrivializedBundle,
                       rng: np.random.Generator) -> Point:
    return bundle.total_point(
        _uniform_spans(rng, *_plan(_total_bounds(bundle))))


@functools.cache
def _sin_bounds(n_inputs: int, constant_scale: float,
                wave_scale: float) -> tuple[tuple, tuple]:
    """Bounds of a ``_sin_fn``'s coefficients: the constant, then the
    amplitudes, frequencies and phases."""
    n = n_inputs
    return ((-constant_scale,) + (-wave_scale,) * n + (0.5,) * n + (0.0,) * n,
            (constant_scale,) + (wave_scale,) * n + (1.5,) * n
            + (2.0 * math.pi,) * n)


def _sin_fn(coeffs: list, n_inputs: int):
    """c0 + sum_j amps[j] sin(freqs[j] x_j + phases[j]) from its drawn
    coefficients, in Python floats so that float points give float
    arithmetic and results.

    Where the first input is a float, or DScalars nested down to a float, a
    call goes through ``_sin_kernel(n_inputs, lengths)``, with ``lengths``
    the gradient lengths of that input's layers; the loop takes the calls
    that the kernel declines, and every other call.  The float kernel, the
    most used, is looked up once per field.
    """
    c0 = coeffs[0]
    amps = coeffs[1:n_inputs + 1]
    freqs = coeffs[n_inputs + 1:2 * n_inputs + 1]
    phases = coeffs[2 * n_inputs + 1:]
    floats = _sin_kernel(n_inputs, ())

    def fn(coords):
        z, lengths = coords[0], ()
        while type(z) is DScalar:
            lengths += (len(z.grad),)
            z = z.value
        if type(z) is float:
            kernel = _sin_kernel(n_inputs, lengths) if lengths else floats
            out = kernel(coeffs, coords)
            if out is not None:
                return out
        acc = c0
        for j in range(n_inputs):
            acc = acc + amps[j] * sin(freqs[j] * coords[j] + phases[j])
        return acc

    return fn


@functools.lru_cache(maxsize=None)
def _sin_kernel(n_inputs: int, lengths: tuple):
    """``_sin_fn``'s loop as straight-line code, compiled on first use, for
    inputs whose layers have gradients of ``lengths``, youngest pass first:
    ``()`` for floats, ``(n,)`` for one pass, ``(n, n_outer)`` for a pass
    nested in another.

    The code applies the rules of the loop's ``DScalar`` arithmetic to
    symbolic jets, so it does the loop's float operations in its order.  A
    jet is an expression, or a tuple (value jet, gradient jets, tag name).
    A float factor scales the value and every entry, a float summand goes
    to the value only, and two scalars of one pass add value to value and
    entry to entry.  ``sin`` takes the sine and cosine of the value,
    recursively, and scales the entries by the cosine jet; those of the
    cosine it scales by the negated sine jet.  The scaled inputs, each sine
    and cosine and the negated sine are bound to names; everything else is
    inlined.

    The kernel returns None, leaving the call to the loop, unless every
    input has the first input's tag on each layer, a float at the bottom
    and gradients of ``lengths``, and the entries of every layer but the
    oldest are floats: those are the entries that the rules expand.  An
    entry of the oldest pass goes through the loop's operations whatever
    its type.  ``_sin_fn`` has checked the first input's layers.
    """
    depth, js = len(lengths), range(n_inputs)
    lines = ["def kernel(coeffs, coords):",
             "    c0, " + "".join(f"{c}{j}, " for c in "afp" for j in js)
             + "= coeffs"]

    def guard(tests):
        lines.extend([f"    if not ({' and '.join(tests)}):",
                      "        return None"])

    def bind(expr):
        name = f"b{len(lines)}"  # one line per name
        lines.append(f"    {name} = {expr}")
        return name

    # the inputs' layers, checked against the first input's
    for j in js:
        x, tests = f"coords[{j}]", []
        for l in range(depth):
            if j == 0:
                lines += [f"    x0_{l} = {x}", f"    t{l} = x0_{l}.tag"]
            else:
                tests += [f"type(x{j}_{l} := {x}) is DScalar",
                          f"x{j}_{l}.tag == t{l}"]
            x = f"x{j}_{l}.value"
        if j == 0:
            lines.append(f"    v0 = {x}")
        else:
            guard(tests + [f"type(v{j} := {x}) is float"])
    grads = [[[f"g{j}_{l}_{k}" for k in range(n)]
              for l, n in enumerate(lengths)] for j in js]
    if depth:
        lines.append("    try:")
        lines += [f"        [{', '.join(grads[j][l])}] = x{j}_{l}.grad"
                  for j in js for l in range(depth)]
        lines += ["    except ValueError:", "        return None"]
    expanded = [g for j in js for l in range(depth - 1) for g in grads[j][l]]
    if expanded:
        guard([f"type({g}) is float" for g in expanded])

    def each(jet, fn, entries=True):
        """``jet`` with ``fn`` applied to its innermost value and, unless
        ``entries`` is false, to every entry."""
        if type(jet) is str:
            return fn(jet)
        value, grad, tag = jet
        return (each(value, fn, entries),
                [each(g, fn) for g in grad] if entries else grad, tag)

    def scale(jet, f):
        return each(jet, lambda e: f"({e} * {f})")

    def add(x, y):  # x is the running sum: + associates to the left
        if type(x) is str:
            return f"{x} + {y}"
        return (add(x[0], y[0]), [add(a, b) for a, b in zip(x[1], y[1])],
                x[2])

    def sin_cos(jet, need_cos=True):
        """The sine jet of ``jet``, and its cosine jet where needed."""
        if type(jet) is str:
            return (bind(f"sin({jet})"),
                    bind(f"cos({jet})") if need_cos else None)
        value, grad, tag = jet
        s, c = sin_cos(value)
        sine = (s, [scale(c, g) for g in grad], tag)
        if not need_cos:
            return sine, None
        minus_s = each(s, lambda e: bind(f"-{e}"))
        return sine, (c, [scale(minus_s, g) for g in grad], tag)

    def source(jet):
        if type(jet) is str:
            return jet
        value, grad, tag = jet
        entries = "".join(f"{source(g)}, " for g in grad)
        return f"ds({source(value)}, ({entries}), {tag})"

    for j in js:  # the loop's term a*sin(f*x + p), added to c0, then the sum
        x = f"v{j}"
        for l in reversed(range(depth)):
            x = (x, grads[j][l], f"t{l}")
        w = each(scale(x, f"f{j}"), lambda e: f"({e} + p{j})", False)
        term = scale(sin_cos(each(w, bind), need_cos=False)[0], f"a{j}")
        acc = (each(term, lambda e: f"({e} + c0)", False) if j == 0
               else add(acc, term))
    lines.append(f"    return {source(acc)}")
    return _define(lines, f"<sin field, {n_inputs} inputs, lengths "
                          f"{lengths}>",
                   {"DScalar": DScalar, "ds": _ds, "sin": math.sin,
                    "cos": math.cos})


def _sin_fns(rng: np.random.Generator, n_inputs: int, scales) -> list:
    """One ``_sin_fn`` per (constant_scale, wave_scale) of ``scales``, all
    drawn by one call."""
    parts = [_sin_bounds(n_inputs, c, w) for c, w in scales]
    return [_sin_fn(coeffs, n_inputs)
            for coeffs in uniform_parts(rng, *parts)]


@functools.cache
def _section_shape(fibre_box: Box, m: int) -> tuple[tuple, tuple]:
    """(centre, scales) of ``random_section`` on a fibre box over a base of
    dimension ``m``: the box's centre, and per component the constant and
    wave scales of its combination, 0.45 h and min(0.15, 0.45 / m) h for a
    box of half-width h on that axis.

    A component is the centre plus a constant and m waves, each at most
    its scale in size, so the graph stays within 0.45 h + m min(0.15,
    0.45 / m) h <= 0.9 h of the centre at every x, inside the box at any
    m.  In doubles 0.45 / 3 == 0.15, so m <= 3 keeps the 0.15 h waves."""
    lower, upper = fibre_box.lower, fibre_box.upper
    half = [0.5 * (hi - lo) for lo, hi in zip(lower, upper)]
    wave = min(0.15, 0.45 / m)
    return (tuple(0.5 * (hi + lo) for lo, hi in zip(lower, upper)),
            tuple((0.45 * h, wave * h) for h in half))


# (constant_scale, wave_scale) of each component of ``random_base_field``
_FIELD_SCALES = (0.8, 0.5)


def _section_map(bundle: TrivializedBundle, comps: list) -> SectionMap:
    """The section of ``random_section`` from its drawn combinations, one
    per fibre component, around the fibre box's centre."""
    centre = _section_shape(bundle.fibre_box, bundle.base_dim)[0]

    def fn(x):
        return [centre[i] + comps[i](x) for i in range(len(comps))]

    return SectionMap(bundle, fn)


def _base_field(bundle: TrivializedBundle, comps: list) -> BaseVectorField:
    """The field of ``random_base_field`` from its drawn combinations."""
    return BaseVectorField(bundle, _field_evaluator(len(comps))(*comps))


@functools.lru_cache(maxsize=None)
def _field_evaluator(n: int):
    """The maker of a field of ``n`` components, written out as one
    straight-line return and compiled on first use of ``n``:
    ``make(f0, ..., f{n-1})`` returns ``fn(x)``, which is ``[f0(x), ...,
    f{n-1}(x)]``."""
    fs = [f"f{i}" for i in range(n)]
    lines = [f"def make({', '.join(fs)}):",
             "    def fn(x):",
             "        return [" + ", ".join(f"{f}(x)" for f in fs) + "]",
             "    return fn"]
    return _define(lines, f"<base field, n={n}>", {})


def random_section(bundle: TrivializedBundle,
                   rng: np.random.Generator) -> SectionMap:
    """Random smooth section whose graph stays within 0.9 of the fibre
    box's half-width of its centre on every axis (``_section_shape``)."""
    scales = _section_shape(bundle.fibre_box, bundle.base_dim)[1]
    return _section_map(bundle, _sin_fns(rng, bundle.base_dim, scales))


def random_base_field(bundle: TrivializedBundle,
                      rng: np.random.Generator) -> BaseVectorField:
    return _base_field(bundle, _sin_fns(rng, bundle.base_dim,
                                        [_FIELD_SCALES] * bundle.base_dim))


@functools.cache
def _suvx_plan(bundle: TrivializedBundle) -> tuple[tuple, tuple]:
    """(lows, spans) of ``random_suvx``'s draw, worked out once per bundle:
    the coefficient bounds of the section's combinations, then of the two
    base fields', then ``base_box.bounds()``, with numpy's guards checked
    through ``bundle._plan``."""
    m = bundle.base_dim
    scales = (_section_shape(bundle.fibre_box, m)[1]
              + (_FIELD_SCALES,) * (2 * m))
    parts = [_sin_bounds(m, c, w) for c, w in scales]
    parts.append(bundle.base_box.bounds())
    return _plan(*parts)


def random_suvx(bundle: TrivializedBundle, rng: np.random.Generator
                ) -> tuple[SectionMap, BaseVectorField, BaseVectorField,
                           Point]:
    """(s, u, v, x): ``random_section``, ``random_base_field`` twice and
    ``random_base_point``, from one generator call that takes their doubles
    in that order, so values and end state are those of the four calls."""
    lows, spans = _suvx_plan(bundle)
    vals = _uniform_spans(rng, lows, spans)
    m, f = bundle.base_dim, bundle.fibre_dim
    k = 1 + 3 * m  # coefficients per combination
    comps = [_sin_fn(vals[i:i + k], m) for i in range(0, (f + 2 * m) * k, k)]
    return (_section_map(bundle, comps[:f]),
            _base_field(bundle, comps[f:f + m]),
            _base_field(bundle, comps[f + m:]),
            bundle.base_point(vals[-m:]))


def random_total_scalar_field(bundle: TrivializedBundle,
                              rng: np.random.Generator):
    """Random smooth scalar evaluator on the total space."""
    return _sin_fns(rng, bundle.total_dim, [(1.0, 0.6)])[0]


def _tangent(e: Point, coords: list) -> TotalTangent:
    """The tangent at ``e`` with total-space components ``coords``, a list
    of floats split into its base and fibre parts."""
    m = e.bundle.base_dim
    return TotalTangent(e, coords[:m], coords[m:])


def random_tangent(conn: ConnectionField, e: Point,
                   rng: np.random.Generator) -> TotalTangent:
    return _tangent(e, _uniform_spans(
        rng, *_plan(_cube(conn.bundle.total_dim, 1.0))))


# -- standard curves ----------------------------------------------------------
# Each curve carries a closed-form velocity that repeats the operation order
# of the DScalar pass through ``fn``, so it is bit-equal to
# ``derivative(fn, t)``.  Reversal negates exactly, since IEEE rounding is
# sign-symmetric; only a coordinate constant in t (the latitude's theta)
# comes out -0.0 where the DScalar pass gives 0.0.  What does not depend on
# t is computed once, when the curve is built, and ``fn`` stays closed under
# DScalar t.

def segment_curve(bundle: TrivializedBundle, p: Sequence[float],
                  q: Sequence[float], t0: float = 0.0,
                  t1: float = 1.0):
    """Straight coordinate segment from p to q."""
    p = [float(c) for c in p]
    steps = [float(qi) - pi for pi, qi in zip(p, q)]
    span = t1 - t0
    rate = 1.0 / float(span)
    vel = [rate * d for d in steps]
    fn = _segment_fn(len(steps))(
        t0, span, *[b for pd in zip(p, steps) for b in pd])

    def velocity(t):
        return vel

    return CurveOnBase(bundle, fn, t0, t1, velocity)


@functools.lru_cache(maxsize=None)
def _segment_fn(m: int):
    """The maker of ``segment_curve``'s ``fn`` on ``m`` coordinates, written
    out as straight-line code and compiled on first use of ``m``.

    ``make(t0, span, p0, d0, ..., p{m-1}, d{m-1})`` returns ``fn(t)``:
    ``lam = (t - t0) / span``, then ``[p0 + lam * d0, ...]``, closed under
    DScalar t.  The start and steps reach the code as closure variables, so
    every bit of them is kept.
    """
    args = "".join(f", p{i}, d{i}" for i in range(m))
    lines = [f"def make(t0, span{args}):",
             "    def fn(t):",
             "        lam = (t - t0) / span",
             "        return [" + ", ".join(f"p{i} + lam * d{i}"
                                            for i in range(m)) + "]",
             "    return fn"]
    return _define(lines, f"<segment curve, m={m}>", {})


def reversed_curve(curve):
    """The same image traversed backwards."""
    t0, t1 = curve.t0, curve.t1
    ends, fn, inner = t0 + t1, curve.fn, curve.velocity_fn
    velocity = None if inner is None else (
        lambda t: [-c for c in inner(ends - t)])
    return CurveOnBase(curve.bundle, lambda t: fn(ends - t), t0, t1,
                       velocity)


def latitude_loop(bundle: TrivializedBundle, theta0: float,
                  t0: float = 0.0, t1: float = 2.0 * math.pi):
    """One full traversal of the latitude circle theta = theta0 on the
    sphere chart, at unit coordinate speed in phi; closed modulo the
    declared polar-angle period."""
    theta0 = float(theta0)
    span = t1 - t0
    two_pi = 2.0 * math.pi
    vel = [0.0, (1.0 / float(span)) * two_pi]

    def fn(t):
        lam = (t - t0) / span
        return [theta0, -math.pi + two_pi * lam]

    def velocity(t):
        return vel

    return CurveOnBase(bundle, fn, t0, t1, velocity)


def circle_loop(bundle: TrivializedBundle, center: Sequence[float],
                radius: float, t0: float = 0.0, t1: float = 1.0):
    """Closed circle around ``center`` (one entry per base coordinate) in
    the plane of the first two base coordinates; the others stay at the
    centre's."""
    if bundle.base_dim < 2 or len(center) != bundle.base_dim:
        raise DomainError("circle_loop needs a base of dimension >= 2 and a "
                          "centre with one entry per base coordinate")
    cx, cy, *rest = [float(c) for c in center]
    still = [0.0] * len(rest)
    r = float(radius)
    span = t1 - t0
    two_pi = 2.0 * math.pi
    rate = two_pi / float(span)

    def fn(t):
        ang = two_pi * (t - t0) / span
        return [cx + r * cos(ang), cy + r * sin(ang)] + rest

    def velocity(t):
        ang = two_pi * (t - t0) / span
        return [-math.sin(ang) * rate * r, math.cos(ang) * rate * r] + still

    return CurveOnBase(bundle, fn, t0, t1, velocity)


# -- sphere-specific helpers (round metric) ----------------------------------

def sphere_metric(x: Sequence[float]) -> list:
    """Round metric in polar coordinates: diag(1, sin^2 theta), as rows."""
    th = float_value(x[0])
    return [[1.0, 0.0], [0.0, math.sin(th) ** 2]]


def sphere_angle_between(x: Sequence[float], a: Sequence[float],
                         b: Sequence[float]) -> float:
    """Unsigned angle between tangent vectors w.r.t. the round metric.

    atan2 of the metric's cross and dot products keeps full relative
    precision at every angle, where acos of the cosine loses half the digits
    near 0 and pi (the default latitude's holonomy is pi)."""
    g = sphere_metric(x)
    cross = math.sqrt(g[0][0] * g[1][1]) * (a[0] * b[1] - a[1] * b[0])
    return abs(math.atan2(cross, dot(mat_vec(g, a), b)))


# Simpson nodes of the latitude's boundary integral; Simpson's rule needs
# an odd count.
GB_NODES = 801


def sphere_latitude_gb_angle(conn: ConnectionField, theta0: float) -> float:
    """Holonomy angle of a latitude loop via the boundary form of the
    area theorem: 2*pi minus the total geodesic-curvature turning.

    Cap-area quadrature of the curvature itself would need the excluded
    polar collar, so the equivalent boundary line integral is used; the
    geodesic curvature comes from ``covariant_derivative_along_curve`` and
    the round metric, a code path independent of the transport integrator.
    """
    loop = latitude_loop(conn.bundle, theta0)
    # the closed-form velocity is bit-equal to derivative(loop.fn, t)
    # (``CurveOnBase``), so it stands for the fibre field c'(t)
    velocity = loop.velocity_fn

    def integrand(t: float) -> float:
        tvec = velocity(t)
        nab = covariant_derivative_along_curve(conn, loop, velocity, t)
        g = sphere_metric(loop.fn(t))
        speed = math.sqrt(dot(mat_vec(g, tvec), tvec))
        # inward unit normal for a latitude traversed with increasing phi:
        # minus the theta direction (unit length in the round metric)
        n_hat = [-1.0, 0.0]
        return dot(mat_vec(g, nab), n_hat) / speed

    ts = np.linspace(loop.t0, loop.t1, GB_NODES)
    vals = np.array([integrand(t) for t in ts.tolist()])
    h = (loop.t1 - loop.t0) / (GB_NODES - 1)
    simpson = (h / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                           + 2.0 * vals[2:-1:2].sum())
    return 2.0 * math.pi - simpson
