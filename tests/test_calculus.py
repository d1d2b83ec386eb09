"""Derivative-carrying scalar arithmetic and exact Jacobians."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrum import (DScalar, SectionMap, cos, derivative, exp, float_value,
                    hessian, jacobian, log, make_sphere, section_jet,
                    seed_scalars, sin, sqrt, tan, value_and_jacobian)
from fibrum.calculus import _field_jets, _fresh_tag
from fibrum.errors import NonFiniteOutputError

from conftest import central_fd_jacobian

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def test_jacobian_identity():
    J = jacobian(lambda x: list(x), [0.3, -1.2, 2.0])
    assert np.array_equal(J, np.eye(3))


def test_jacobian_quadratic_example():
    # f(x) = (x1^2, x1 x2) at (1, 2)
    J = jacobian(lambda x: [x[0] ** 2, x[0] * x[1]], [1.0, 2.0])
    assert np.allclose(J, [[2.0, 0.0], [2.0, 1.0]], atol=0)
    fd = central_fd_jacobian(lambda x: [x[0] ** 2, x[0] * x[1]],
                             [1.0, 2.0], 1e-5)
    assert np.max(np.abs(J - fd)) < 1e-8


def test_jacobian_constant_is_zero():
    J = jacobian(lambda x: [4.0, -1.0], [0.1, 0.2, 0.3])
    assert np.array_equal(J, np.zeros((2, 3)))


def test_jacobian_nonfinite_detected():
    with pytest.raises(NonFiniteOutputError):
        jacobian(lambda x: [1.0 / x[0]], [0.0])
    with pytest.raises(NonFiniteOutputError):
        jacobian(lambda x: [float("nan") * x[0]], [1.0])


def _ndarray_pass(fn, coords):
    """A float pass's values and rows as the ndarray Jacobian format gave
    them, its loop copied verbatim, then made lists:
    ``np.array(rows, dtype=float).tolist()``."""
    coords = list(coords)
    n = len(coords)
    tag = _fresh_tag()
    out = fn(seed_scalars(coords, tag))
    values, rows = [], []
    for comp in out:
        if type(comp) is DScalar and comp.tag == tag:
            values.append(comp.value)
            rows.append(list(comp.grad))
        else:
            values.append(comp)
            rows.append([0.0] * n)  # constant w.r.t. this pass
    return values, np.array(rows, dtype=float).tolist()


def _float_pass_rows(coords):
    """Each float pass's rows of a 2-output field at ``coords`` on the
    sphere's base: ``value_and_jacobian``, ``jacobian``, ``section_jet``,
    and ``_field_jets``' jets of its first output and of the rest."""
    bundle = make_sphere().bundle
    x = bundle.base_point([float(c) for c in coords])

    def field_jets(fn):
        jets = _field_jets(lambda c: (fn(c)[:1], fn(c)[1:]), coords)
        return [row for _, rows in jets for row in rows]

    return [lambda fn: value_and_jacobian(fn, coords)[1],
            lambda fn: jacobian(fn, coords),
            lambda fn: section_jet(SectionMap(bundle, fn), x)[1],
            field_jets]


def test_float_passes_return_checked_list_rows():
    # numpy float64 coordinates make numpy float64 gradient entries; every
    # float pass hands back Python floats with the ndarray format's bits
    coords = [np.float64(1.1), np.float64(-0.3)]
    fn = lambda x: [sin(x[0]) * x[1] - x[1] / (3.0 + x[0]), 4.0]
    want = _ndarray_pass(fn, coords)[1]
    for rows_of in _float_pass_rows(coords):
        rows = rows_of(fn)
        assert type(rows) is list
        assert all(type(row) is list for row in rows)
        assert all(type(v) is float for row in rows for v in row)
        assert [[v.hex() for v in row] for row in rows] \
            == [[v.hex() for v in row] for row in want]
    # one NaN or infinity, at any (row, column), fails every float pass
    for bad, i, j in itertools.product([math.nan, math.inf, -math.inf],
                                       range(2), range(2)):
        def fn(x):
            return [DScalar(0.5, [bad if (r, c) == (i, j) else 0.5
                                  for c in range(2)], x[0].tag)
                    for r in range(2)]

        for rows_of in _float_pass_rows(coords):
            with pytest.raises(NonFiniteOutputError):
                rows_of(fn)


def test_chain_rule_against_composition():
    f = lambda x: [sin(x[0]) * x[1], x[0] + x[1] ** 3]
    g = lambda y: [exp(0.3 * y[0]) - y[1], y[0] * y[1]]
    x0 = [0.7, -0.4]
    J_comp = jacobian(lambda x: g(f(x)), x0)
    fx = [float_value(c) for c in f(x0)]
    J_chain = np.array(jacobian(g, fx)) @ jacobian(f, x0)
    assert np.max(np.abs(J_comp - J_chain)) < 1e-12


def test_chain_rule_over_catalog_pairs():
    # f: graph map of a random section, g: coefficient evaluation at a
    # fixed direction; 100 random base points per catalog connection
    from fibrum import (make_flat, make_nonlinear_demo, make_sphere,
                        random_base_point, random_section)
    rng = np.random.default_rng(99)
    for conn in (make_flat(), make_sphere(), make_nonlinear_demo()):
        bundle = conn.bundle
        s = random_section(bundle, rng)
        vdir = [1.0] * bundle.base_dim

        def f(x):
            return list(x) + list(s.fn(x))

        def g(e):
            m = bundle.base_dim
            return conn.gamma(e[:m], e[m:], vdir)

        for _ in range(100):
            x = random_base_point(bundle, rng)
            coords = list(x.coords)
            J_comp = jacobian(lambda c: g(f(c)), coords)
            fx = [float_value(c) for c in f(coords)]
            J_chain = np.array(jacobian(g, fx)) @ jacobian(f, coords)
            assert np.max(np.abs(J_comp - J_chain)) < 1e-12


def test_finite_difference_concordance_order():
    fn = lambda x: [sin(x[0]) * cos(x[1]), exp(0.5 * x[0] * x[1])]
    x0 = [0.9, 0.4]
    J = jacobian(fn, x0)
    errs = []
    for h in (1e-3, 1e-4):
        errs.append(np.max(np.abs(J - central_fd_jacobian(fn, x0, h))))
    order = math.log10(errs[0] / errs[1])
    assert order >= 1.9


@given(a=finite, b=finite, c=finite)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_fd(a, b, c):
    def fn(x):
        return [(x[0] + 2.0) * x[1] - x[0] / (x[1] * x[1] + 1.5)
                + sin(x[0] * x[1]) + c]

    J = jacobian(fn, [a, b])
    fd = central_fd_jacobian(fn, [a, b], 1e-6)
    assert np.max(np.abs(J - fd)) < 5e-7


@given(a=st.floats(min_value=0.2, max_value=3.0), b=finite)
@settings(max_examples=100, deadline=None)
def test_smooth_function_identities(a, b):
    x, y = seed_scalars([a, b])
    s2c2 = sin(x) * sin(x) + cos(x) * cos(x)
    assert abs(float_value(s2c2) - 1.0) < 1e-14
    assert max(abs(float_value(g)) for g in s2c2.grad) < 1e-13
    logexp = log(exp(y))
    assert abs(float_value(logexp) - b) < 1e-12
    rootsq = sqrt(x * x)
    assert abs(float_value(rootsq) - a) < 1e-13
    assert abs(float_value(rootsq.grad[0]) - 1.0) < 1e-12


def test_tan_derivative():
    (x,) = seed_scalars([0.6])
    t = tan(x)
    assert abs(float_value(t.grad[0]) - 1.0 / math.cos(0.6) ** 2) < 1e-13


def test_hessian_exact():
    H = hessian(lambda x: [sin(x[0]) * x[1] ** 2], [0.8, 1.5])
    expect = np.array([
        [-math.sin(0.8) * 1.5 ** 2, 2.0 * 1.5 * math.cos(0.8)],
        [2.0 * 1.5 * math.cos(0.8), 2.0 * math.sin(0.8)],
    ])
    assert np.max(np.abs(H[0] - expect)) < 1e-13


def test_second_order_scalar_symmetry():
    fn = lambda x: [exp(x[0] * x[1]) + sin(x[0]) / (x[1] + 2.0)]
    H = np.array(hessian(fn, [0.4, 0.9])[0])
    assert np.max(np.abs(H - H.T)) < 1e-12
    got = jacobian(fn, [0.4, 0.9])[0]
    fd = central_fd_jacobian(
        lambda x: [math.exp(x[0] * x[1]) + math.sin(x[0]) / (x[1] + 2.0)],
        [0.4, 0.9], 1e-6)[0]
    assert np.max(np.abs(got - fd)) < 1e-8


def _bits(z):
    """Every float a scalar carries, nested layers included, as hex."""
    if isinstance(z, (DScalar, _RefDScalar)):
        return (_bits(z.value), tuple(_bits(g) for g in z.grad))
    if isinstance(z, complex):  # a negative base to a fractional power
        return (z.real.hex(), z.imag.hex())
    return float(z).hex()


def _plain_evaluators(rng):
    """(fn, n): maps built from + - * and the smooth functions only."""
    from fibrum import (make_custom_christoffel, make_nonlinear_demo,
                        make_sphere, random_section)
    demo = make_nonlinear_demo()
    custom = make_custom_christoffel({"G_1_12": 0.5, "G_2_11_x1": -0.4,
                                      "G_2_21": 0.3, "G_1_22_x2": 1.1})
    return [(random_section(make_sphere().bundle, rng).fn, 2),
            (random_section(demo.bundle, rng).fn, 2),
            (lambda e: demo.gamma(e[:2], e[2:], [0.7, -1.3]), 3),
            (lambda e: custom.gamma(e[:2], e[2:], [e[0], -0.6]), 4)]


def test_value_and_jacobian_values_are_fn_values():
    rng = np.random.default_rng(11)
    for fn, n in _plain_evaluators(rng):
        for _ in range(5):
            coords = list(rng.uniform(-0.9, 0.9, n))
            values, J = value_and_jacobian(fn, coords)
            assert [_bits(z) for z in values] == [_bits(z) for z in fn(coords)]
            assert np.array_equal(J, jacobian(fn, coords))
            outer = seed_scalars(coords)
            values, rows = value_and_jacobian(fn, outer)
            assert [_bits(z) for z in values] == [_bits(z) for z in fn(outer)]
            want = jacobian(fn, outer)
            assert ([[_bits(z) for z in row] for row in rows]
                    == [[_bits(z) for z in row] for row in want])


def test_value_and_jacobian_division_rounds_as_product():
    # the sphere's cot = c / s runs as c * s ** -1 in the pass
    from fibrum import make_sphere
    sphere = make_sphere()

    def fn(e):
        return sphere.gamma(e[:2], e[2:], [0.8, -0.5])

    rng = np.random.default_rng(3)
    for _ in range(50):
        coords = [rng.uniform(0.3, 2.8), rng.uniform(-3.0, 3.0),
                  rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
        values, _ = value_and_jacobian(fn, coords)
        plain = fn(coords)
        for got, want in zip(values, plain):
            assert abs(got - want) <= 4.0 * math.ulp(abs(want) + 1.0)


def test_nested_layers_do_not_mix():
    # an outer-pass value captured inside an inner differentiation must act
    # as a constant there; this is the classic nested-forward-mode trap
    def outer(coords):
        captured = coords[0] * coords[1]  # belongs to the outer pass

        def inner(zs):
            return [zs[0] * zs[0] + captured]

        row = jacobian(inner, [coords[0]])
        return [row[0][0] + captured]

    # outer fn value: 2 x0 + x0 x1 ; gradient: (2 + x1, x0)
    J = jacobian(outer, [1.3, -0.7])
    assert np.max(np.abs(J - np.array([[2.0 - 0.7, 1.3]]))) < 1e-14


def test_numpy_scalars_interoperate():
    d = DScalar(2.0, (1.0, 0.0))
    for other in (np.float64(3.0), 3, 3.0):
        assert float_value(other * d) == 6.0
        assert float_value(d * other) == 6.0
        assert float_value(other + d) == 5.0
        assert float_value(d - other) == -1.0
        assert float_value(other / d) == 1.5
    assert (np.float64(3.0) * d).grad == (3.0, 0.0)


def test_division_and_powers():
    x, y = seed_scalars([2.0, 4.0])
    q = x / y
    assert float_value(q) == 0.5
    assert abs(float_value(q.grad[0]) - 0.25) < 1e-15
    assert abs(float_value(q.grad[1]) - (-0.125)) < 1e-15
    p = y ** -2
    assert abs(float_value(p.grad[1]) - (-2.0 / 4.0 ** 3)) < 1e-15
    with pytest.raises(TypeError):
        x ** y


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_same_tag_gradients_of_unequal_length_raise(op):
    # one pass seeds every scalar with one gradient length; a mismatch is
    # an error, not a silently truncated derivative
    short = DScalar(0.5, (1.0, 0.0))
    long = DScalar(0.7, (0.0, 1.0, 2.0))
    for x, y in ((long, short), (short, long)):
        with pytest.raises(ValueError, match="differ in length"):
            op(x, y)


def test_jacobian_of_a_derivative_over_captured_scalars():
    # gamma(x, y) v = d/dt G(x, y + t v) at t = 0, as a spray's Berwald
    # connection is built: x, y and v come from the enclosing pass and the
    # inner pass seeds only the plain t = 0.0
    def G(x, y):
        return [x[0] * y[0] ** 3, sin(x[1]) * y[0] * y[1]]

    def gamma(e):
        x, y, v = e[:2], e[2:4], e[4:]
        return derivative(
            lambda t: G(x, [y[0] + t * v[0], y[1] + t * v[1]]), 0.0)

    x0, x1, y0, y1, v0, v1 = e = [0.8, -0.6, 1.3, 0.4, -0.7, 1.9]
    J = jacobian(gamma, e)
    s, c = math.sin(x1), math.cos(x1)
    want = [[3.0 * y0 ** 2 * v0, 0.0, 6.0 * x0 * y0 * v0, 0.0,
             3.0 * x0 * y0 ** 2, 0.0],
            [0.0, c * (v0 * y1 + y0 * v1), s * v1, s * v0, s * y1, s * y0]]
    assert np.max(np.abs(J - np.array(want))) < 1e-14
    assert np.allclose(gamma(e), [3.0 * x0 * y0 ** 2 * v0,
                                  s * (v0 * y1 + y0 * v1)],
                       rtol=1e-15, atol=0)


# -- the kernel arithmetic against the arithmetic it replaced ---------------
# The reference is the earlier DScalar arithmetic, a gradient comprehension
# per operation, kept verbatim under another name: every operation of the
# fast class must give the same bits, the same tags and the same
# plain-number types, layer by layer, or raise the same exception.

class _RefDScalar:
    __slots__ = ("value", "grad", "tag")

    __array_ufunc__ = None

    def __init__(self, value, grad, tag=0):
        self.value = value
        self.grad = tuple(grad)
        self.tag = tag

    def __add__(self, other):
        if isinstance(other, _RefDScalar):
            if other.tag == self.tag:
                return _RefDScalar(self.value + other.value,
                                   tuple(a + b for a, b in zip(self.grad, other.grad)),
                                   tag=self.tag)
            if other.tag > self.tag:  # self is constant for other's pass
                return _RefDScalar(self + other.value, other.grad, tag=other.tag)
            return _RefDScalar(self.value + other, self.grad, tag=self.tag)
        return _RefDScalar(self.value + float(other), self.grad, tag=self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _RefDScalar):
            if other.tag == self.tag:
                return _RefDScalar(self.value - other.value,
                                   tuple(a - b for a, b in zip(self.grad, other.grad)),
                                   tag=self.tag)
            if other.tag > self.tag:
                return _RefDScalar(self - other.value,
                                   tuple(-g for g in other.grad), tag=other.tag)
            return _RefDScalar(self.value - other, self.grad, tag=self.tag)
        return _RefDScalar(self.value - float(other), self.grad, tag=self.tag)

    def __rsub__(self, other):
        return _RefDScalar(float(other) - self.value,
                           tuple(-g for g in self.grad), tag=self.tag)

    def __mul__(self, other):
        if isinstance(other, _RefDScalar):
            if other.tag == self.tag:
                return _RefDScalar(self.value * other.value,
                                   tuple(self.value * gb + ga * other.value
                                         for ga, gb in zip(self.grad, other.grad)),
                                   tag=self.tag)
            if other.tag > self.tag:
                return _RefDScalar(self * other.value,
                                   tuple(self * g for g in other.grad),
                                   tag=other.tag)
            return _RefDScalar(self.value * other,
                               tuple(g * other for g in self.grad), tag=self.tag)
        f = float(other)
        return _RefDScalar(self.value * f, tuple(g * f for g in self.grad),
                           tag=self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RefDScalar):
            return self * other ** -1
        f = float(other)
        return _RefDScalar(self.value / f, tuple(g / f for g in self.grad),
                           tag=self.tag)

    def __rtruediv__(self, other):
        return float(other) * self ** -1

    def __neg__(self):
        return _RefDScalar(-self.value, tuple(-g for g in self.grad), tag=self.tag)

    def __pos__(self):
        return self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("DScalar exponent must be a plain number")
        coeff = p * self.value ** (p - 1)
        return _RefDScalar(self.value ** p, tuple(coeff * g for g in self.grad),
                           tag=self.tag)


def _ref_sin(z):
    if isinstance(z, _RefDScalar):
        c = _ref_cos(z.value)
        return _RefDScalar(_ref_sin(z.value), tuple(c * g for g in z.grad), tag=z.tag)
    return math.sin(z)


def _ref_cos(z):
    if isinstance(z, _RefDScalar):
        s = _ref_sin(z.value)
        return _RefDScalar(_ref_cos(z.value), tuple(-s * g for g in z.grad), tag=z.tag)
    return math.cos(z)


def _ref_tan(z):
    return _ref_sin(z) / _ref_cos(z)


def _ref_exp(z):
    if isinstance(z, _RefDScalar):
        e = _ref_exp(z.value)
        return _RefDScalar(e, tuple(e * g for g in z.grad), tag=z.tag)
    return math.exp(z)


def _ref_log(z):
    if isinstance(z, _RefDScalar):
        return _RefDScalar(_ref_log(z.value), tuple(g / z.value for g in z.grad),
                           tag=z.tag)
    return math.log(z)


def _ref_sqrt(z):
    if isinstance(z, _RefDScalar):
        r = _ref_sqrt(z.value)
        return _RefDScalar(r, tuple(g / (2.0 * r) for g in z.grad), tag=z.tag)
    return math.sqrt(z)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "**": operator.pow}
_UNARY = {"neg": (operator.neg, operator.neg), "sin": (sin, _ref_sin),
          "cos": (cos, _ref_cos), "tan": (tan, _ref_tan),
          "exp": (exp, _ref_exp), "log": (log, _ref_log),
          "sqrt": (sqrt, _ref_sqrt)}

# A scalar spec is a plain number (float, int or np.float64) or
# ("d", tag, value, grad) with specs inside, so values and gradient entries
# nest; tags 0..3 give same-, older- and younger-tag operands at every
# layer.  Each tag has one gradient length in 0..6, as each pass has.
_numbers = st.one_of(finite, st.integers(-3, 3), finite.map(np.float64))
_tags = st.integers(0, 3)


def _dscalar_specs(lengths, depth):
    """A DScalar spec whose value and gradient entries nest up to ``depth``
    more layers; a scalar of tag t has a gradient of ``lengths[t]``.  A
    value nests in half the draws, so that sin and cos often see nested
    inner layers; a gradient entry nests less often, which keeps the trees
    small."""
    if depth == 0:
        value = entry = _numbers
    else:
        deeper = _dscalar_specs(lengths, depth - 1)
        value = st.one_of(_numbers, deeper, deeper, deeper)
        entry = st.one_of(_numbers, deeper)
    return _tags.flatmap(lambda tag: st.tuples(
        st.just("d"), st.just(tag), value,
        st.lists(entry, min_size=lengths[tag], max_size=lengths[tag])))


_operands = st.lists(st.integers(0, 6), min_size=4, max_size=4).flatmap(
    lambda lengths: st.tuples(
        _dscalar_specs(lengths, 2),
        st.one_of(_numbers, _dscalar_specs(lengths, 2))))


def _build(spec, cls):
    if isinstance(spec, tuple):
        _, tag, value, grad = spec
        return cls(_build(value, cls), [_build(g, cls) for g in grad], tag)
    return spec


def _kinds(z):
    """Tag, gradient container type and plain-number type of every layer;
    the reference's gradients are always tuples, so equal kinds say the
    fast class's are too."""
    if isinstance(z, (DScalar, _RefDScalar)):
        return (z.tag, type(z.grad), _kinds(z.value),
                tuple(_kinds(g) for g in z.grad))
    return type(z)


@given(op=st.sampled_from(sorted(_BINARY) + sorted(_UNARY)),
       operands=_operands, swap=st.booleans())
@settings(max_examples=150, deadline=None)
def test_arithmetic_bit_equal_to_reference(op, operands, swap):
    def run(cls, unary):
        x, y = (_build(spec, cls) for spec in operands)
        try:
            with np.errstate(all="ignore"):
                if op in _BINARY:
                    return _BINARY[op](*((y, x) if swap else (x, y)))
                return unary(x)
        except (ArithmeticError, ValueError, TypeError) as exc:
            return type(exc)

    fast_fn, ref_fn = _UNARY.get(op, (None, None))
    got, want = run(DScalar, fast_fn), run(_RefDScalar, ref_fn)
    if isinstance(want, type):
        assert got is want
        return
    assert _bits(got) == _bits(want)
    assert _kinds(got) == _kinds(want)


def _twelve(x, sin):
    """Twelve outputs of twelve coordinates from sin, *, / and **, each
    depending on every coordinate."""
    acc = sin(x[0])
    for z in x[1:]:
        acc = acc * sin(z) / 1.25
    return [sin(x[i] * x[(i + 5) % 12]) / (1.5 + x[(i + 1) % 12] ** 2)
            + x[i] ** 3 * acc for i in range(12)]


def _ref_float(z):
    while isinstance(z, _RefDScalar):
        z = z.value
    return float(z)


def test_kernels_have_no_length_cap():
    # flat bundles take any m and f, so a pass may seed any number of
    # coordinates; 12 is past every catalog default
    coords = [0.3 + 0.11 * k for k in range(12)]
    basis = np.eye(12).tolist()
    outer = [_RefDScalar(c, e, 1) for c, e in zip(coords, basis)]
    J = jacobian(lambda x: _twelve(x, sin), coords)
    want = [[float(g).hex() for g in out.grad]
            for out in _twelve(outer, _ref_sin)]
    assert [[v.hex() for v in row] for row in J] == want
    H = hessian(lambda x: _twelve(x, sin), coords)
    inner = [_RefDScalar(o, e, 2) for o, e in zip(outer, basis)]
    want = [[[_ref_float(h).hex() for h in entry.grad] for entry in out.grad]
            for out in _twelve(inner, _ref_sin)]
    assert [[[v.hex() for v in row] for row in block]
            for block in H] == want
