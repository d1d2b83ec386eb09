"""Chart boxes, points, fields and Lie brackets."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrum import (BaseVectorField, Box, DomainError, SectionMap,
                    SpaceTag, TotalTangent, TotalVectorField,
                    TrivializedBundle, base_lie_bracket, check_p_related,
                    lie_bracket, make_flat, random_total_point, sin)
from fibrum.bundle import _plan, uniform_parts

from conftest import as_array


def test_box_rejects_empty():
    with pytest.raises(DomainError):
        Box((0.0, 0.0), (1.0, 0.0))


def test_box_is_open():
    box = Box((0.0,), (1.0,))
    assert box.contains([0.5])
    assert not box.contains([0.0])
    assert not box.contains([1.0])


# -- the compiled chart tests ------------------------------------------------
# Each box tests membership with one compiled predicate; these compare it
# with the definition: one coordinate per axis, each strictly inside.

def _reference_contains(box, coords):
    return (len(coords) == len(box.lower)
            and all(lo < c < hi
                    for c, lo, hi in zip(coords, box.lower, box.upper)))


@st.composite
def _boxes(draw, min_dim=1, max_dim=6):
    axes = draw(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)),
                         min_size=min_dim, max_size=max_dim))
    return Box(tuple(lo for lo, _ in axes), tuple(lo + w for lo, w in axes))


@st.composite
def _coords_near(draw, box):
    """Coordinates for ``box``: of a length near its dimension, inside on
    every axis but up to two, which hold a bound, a signed zero, an
    infinity, NaN or any float."""
    n = draw(st.integers(max(0, box.dim - 1), box.dim + 1))
    axes = [(box.lower[i % box.dim], box.upper[i % box.dim])
            for i in range(n)]
    out = [draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
           for lo, hi in axes]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 2))):
        lo, hi = axes[i]
        out[i] = draw(st.sampled_from([lo, hi, 0.0, -0.0, math.inf,
                                       -math.inf, math.nan]) | st.floats())
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data(), box=_boxes())
def test_box_contains_matches_definition(data, box):
    coords = data.draw(_coords_near(box))
    assert box.contains(coords) == _reference_contains(box, coords)
    assert box.contains(tuple(coords)) == _reference_contains(box, coords)
    # every bound and NaN, one axis at a time, with the rest at the centre
    centre = [0.5 * (lo + hi) for lo, hi in zip(box.lower, box.upper)]
    assert box.contains(centre)
    for i in range(box.dim):
        for c in (box.lower[i], box.upper[i], math.nan):
            assert not box.contains(centre[:i] + [c] + centre[i + 1:])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=_boxes(max_dim=4), fibre=_boxes(max_dim=3))
def test_contains_total_is_base_then_fibre(data, base, fibre):
    bundle = TrivializedBundle("b", base, fibre)
    m = bundle.base_dim
    total = Box(base.lower + fibre.lower, base.upper + fibre.upper)
    coords = data.draw(_coords_near(total))
    expected = _reference_contains(total, coords)
    assert bundle.contains_total(coords) == expected
    assert (base.contains(coords[:m]) and fibre.contains(coords[m:])) \
        == expected
    assert bundle.contains_base(coords[:m]) == base.contains(coords[:m])
    assert (bundle.base_dim, bundle.fibre_dim, bundle.total_dim) \
        == (base.dim, fibre.dim, base.dim + fibre.dim)


def test_equal_boxes_and_bundles_stay_equal_and_share_caches():
    from fibrum.catalog import _section_shape, _suvx_plan
    one, two = make_flat(m=3, f=2).bundle, make_flat(m=3, f=2).bundle
    assert one is not two and one.base_box is not two.base_box
    assert one == two and hash(one) == hash(two)
    assert one.fibre_box == two.fibre_box
    assert hash(one.fibre_box) == hash(two.fibre_box)
    # the stored dimensions and tests are no fields: repr and eq skip them
    assert "contains" not in repr(one.base_box)
    for cached, args in ((_section_shape, lambda b: (b.fibre_box, 3)),
                         (_suvx_plan, lambda b: (b,))):
        cached(*args(one))
        hits = cached.cache_info().hits
        assert cached(*args(two)) is cached(*args(one))
        assert cached.cache_info().hits == hits + 2


def test_boxes_bundles_and_points_pickle():
    bundle = make_flat(m=3, f=2).bundle
    point = random_total_point(bundle, np.random.default_rng(0))
    for value in (bundle.base_box, bundle, point):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
    copy = pickle.loads(pickle.dumps(bundle))
    assert copy.contains_total(point.coords)
    assert not copy.contains_total(point.coords[:-1])


def test_chart_tests_share_one_code_object_per_length():
    boxes = [Box((0.0, float(k)), (1.0, k + 2.0)) for k in range(3)]
    assert len({box.contains.__code__ for box in boxes}) == 1
    assert boxes[0].contains([0.5, 1.0])
    assert not boxes[1].contains([0.5, 1.0])


# -- the stream contract -----------------------------------------------------
# A draw takes its doubles from one ``rng.random`` call and maps them in
# Python floats.  Each test runs it and numpy's per-call ``rng.uniform``,
# which the samplers once called, from equal generator states: the values
# must be bit-equal and the end states equal, or both must raise the same
# error before drawing anything.

def _outcome(draw, seed):
    """(values or exception type, end state) of ``draw(rng)``."""
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(all="ignore"):
            got = [float(c) for c in draw(rng)]
    except (OverflowError, ValueError) as exc:
        got = type(exc)
    return got, rng.bit_generator.state


def _uniform(rng, lows, highs):
    """``uniform_parts`` with the one part (lows, highs), on a plan made
    afresh: ``_plan``'s cache would take a -0.0 high for an equal 0.0 one
    that an earlier example left there (its docstring)."""
    _plan.cache_clear()
    return uniform_parts(rng, (tuple(lows), tuple(highs)))[0]


def _numpy_box_sample(box, rng, margin=0.1):
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


_bound = st.floats(min_value=-1e6, max_value=1e6)
_any_float = st.one_of(_bound, st.floats())
_seed = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=300, deadline=None)
@given(bounds=st.lists(st.tuples(_bound, st.floats(0.0, 1e6)), max_size=9),
       seed=_seed)
def test_uniform_bit_equal_to_numpy(bounds, seed):
    lows = [lo for lo, _ in bounds]
    highs = [lo + width for lo, width in bounds]
    got = _outcome(lambda rng: _uniform(rng, lows, highs), seed)
    assert got == _outcome(lambda rng: rng.uniform(lows, highs), seed)
    assert not isinstance(got[0], type)


@settings(max_examples=300, deadline=None)
@given(bounds=st.lists(st.tuples(_any_float, _any_float), max_size=5),
       seed=_seed)
def test_uniform_raises_where_numpy_raises(bounds, seed):
    # unordered, huge, infinite and nan bounds, and -0.0 ranges
    lows = [lo for lo, _ in bounds]
    highs = [hi for _, hi in bounds]
    assert _outcome(lambda rng: _uniform(rng, lows, highs), seed) \
        == _outcome(lambda rng: rng.uniform(lows, highs), seed)


@pytest.mark.parametrize("lows,highs,error", [
    ([0.0, -1.0], [1.0, math.inf], OverflowError),
    ([-1e308], [1e308], OverflowError),
    ([math.nan], [1.0], OverflowError),
    ([0.0, 1.0], [1.0, 0.5], ValueError),
    ([0.0], [-0.0], ValueError),
])
def test_uniform_guards_draw_nothing(lows, highs, error):
    rng = np.random.default_rng(1)
    start = rng.bit_generator.state
    with pytest.raises(error):
        _uniform(rng, lows, highs)
    assert rng.bit_generator.state == start
    with pytest.raises(ValueError):
        _uniform(rng, [0.0, 1.0], [1.0])


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.lists(st.tuples(_bound, st.floats(0.0, 1e6)),
                               max_size=4), max_size=4),
       seed=_seed)
def test_uniform_parts_split_one_draw(parts, seed):
    bounds = [(tuple(lo for lo, _ in part), tuple(lo + w for lo, w in part))
              for part in parts]
    got = uniform_parts(np.random.default_rng(seed), *bounds)
    whole = np.random.default_rng(seed).uniform(
        [lo for lo, _ in bounds for lo in lo],
        [hi for _, hi in bounds for hi in hi]).tolist()
    assert [len(g) for g in got] == [len(lo) for lo, _ in bounds]
    assert [c for g in got for c in g] == whole


@pytest.mark.parametrize("margin", [0.1, 0.25, 0.3, 0.45])
@settings(max_examples=100, deadline=None)
@given(box=st.lists(st.tuples(_bound, st.floats(1e-3, 1e6)), min_size=1,
                    max_size=5),
       seed=_seed)
def test_box_sample_bit_equal_to_numpy(margin, box, seed):
    box = Box(tuple(lo for lo, _ in box), tuple(lo + w for lo, w in box))
    for _ in range(2):  # the second call reads the cached bounds
        got = _outcome(lambda rng: box.sample(rng, margin), seed)
        assert got == _outcome(
            lambda rng: _numpy_box_sample(box, rng, margin), seed)
        assert not isinstance(got[0], type)
    got = box.sample(np.random.default_rng(seed), margin)
    assert type(got) is list and all(type(c) is float for c in got)


@pytest.mark.parametrize("box,margin,error", [
    (Box((-1e308,), (1e308,)), 0.1, OverflowError),
    (Box((0.0, 0.0), (1.0, 2.0)), 0.55, ValueError),
])
def test_box_sample_still_raises(box, margin, error):
    for sample in (box.sample, lambda rng, margin: _numpy_box_sample(
            box, rng, margin)):
        rng = np.random.default_rng(3)
        start = rng.bit_generator.state
        with pytest.raises(error), np.errstate(all="ignore"):
            sample(rng, margin)
        assert rng.bit_generator.state == start


def test_point_validation():
    bundle = make_flat().bundle
    bundle.base_point([0.1, 0.2])
    with pytest.raises(DomainError):
        bundle.base_point([5.0, 0.0])
    with pytest.raises(DomainError):
        bundle.base_point([0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        bundle.total_point([0.0, 0.0, 0.0, 9.0])


def test_point_split():
    bundle = make_flat().bundle
    e = bundle.total_point([0.1, 0.2, 0.3, 0.4])
    assert e.base_coords == (0.1, 0.2)
    assert e.fibre_coords == (0.3, 0.4)
    x = bundle.base_point([0.1, 0.2])
    with pytest.raises(DomainError):
        _ = x.fibre_coords


def test_total_tangent_validation():
    bundle = make_flat().bundle
    e = bundle.total_point([0.0, 0.0, 0.0, 0.0])
    t = TotalTangent(e, [1.0, 2.0], [3.0, 4.0])
    assert np.array_equal(t.as_vector(), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        TotalTangent(e, [1.0], [3.0, 4.0])
    x = bundle.base_point([0.0, 0.0])
    with pytest.raises(DomainError):
        TotalTangent(x, [1.0, 2.0], [3.0, 4.0])


def test_section_graph():
    bundle = make_flat().bundle
    s = SectionMap(bundle, lambda x: [x[0] * x[1], 0.5])
    g = s.graph(bundle.base_point([0.5, 0.8]))
    assert g.space is SpaceTag.TOTAL
    assert g.coords == (0.5, 0.8, 0.4, 0.5)


def test_bracket_equal_fields_vanishes(rng):
    bundle = make_flat().bundle
    X = TotalVectorField(bundle,
                         lambda e: [sin(e[0]) * e[3], e[1], e[2] * e[0], 1.0])
    br = lie_bracket(X, X)
    for _ in range(5):
        e = random_total_point(bundle, rng)
        assert np.max(np.abs(as_array(br(e)))) < 1e-14


def test_bracket_constant_fields_commute():
    bundle = make_flat().bundle
    X = TotalVectorField(bundle, lambda e: [1.0, 0.0, 0.0, 0.0])
    Y = TotalVectorField(bundle, lambda e: [0.0, 1.0, 0.0, 0.0])
    e = bundle.total_point([0.3, -0.2, 0.1, 0.0])
    assert np.max(np.abs(as_array(lie_bracket(X, Y)(e)))) == 0.0


def test_bracket_hand_example():
    # X = x2 d1, Y = d2 on the plane: [X, Y] = -d1
    bundle = make_flat().bundle
    u = BaseVectorField(bundle, lambda x: [x[1], 0.0])
    v = BaseVectorField(bundle, lambda x: [0.0, 1.0])
    br = base_lie_bracket(u, v)
    out = as_array(br([0.4, 0.9]))
    assert np.allclose(out, [-1.0, 0.0], atol=1e-15)


def test_bracket_calls_each_field_once(rng):
    # one forward pass per field gives both its value and its Jacobian, at
    # float input and inside an enclosing bracket's pass
    bundle = make_flat().bundle
    calls = dict.fromkeys("XYZuv", 0)

    def counted(name, fn):
        def ev(coords):
            calls[name] += 1
            return fn(coords)
        return ev

    X = TotalVectorField(bundle, counted(
        "X", lambda e: [sin(e[1]), e[0] * e[2], 0.5, e[3] * e[3]]))
    Y = TotalVectorField(bundle, counted(
        "Y", lambda e: [e[2], sin(e[0]) * e[3], e[1], -e[0]]))
    Z = TotalVectorField(bundle, counted(
        "Z", lambda e: [e[3] * e[1], 1.0, sin(e[2]), e[0]]))
    e = random_total_point(bundle, rng)
    lie_bracket(X, Y)(e)
    assert calls == {"X": 1, "Y": 1, "Z": 0, "u": 0, "v": 0}
    lie_bracket(lie_bracket(X, Y), Z)(e)
    assert calls == {"X": 2, "Y": 2, "Z": 1, "u": 0, "v": 0}
    u = BaseVectorField(bundle, counted("u", lambda x: [x[1], 0.0]))
    v = BaseVectorField(bundle, counted("v", lambda x: [sin(x[0]), x[1]]))
    base_lie_bracket(u, v)([0.4, 0.9])
    assert calls["u"] == 1 and calls["v"] == 1


def test_bracket_antisymmetry_and_bilinearity(rng):
    bundle = make_flat().bundle

    def mk(seed):
        r = np.random.default_rng(seed)
        coef = r.uniform(-1, 1, size=(4, 4))
        return TotalVectorField(
            bundle,
            lambda e, c=coef: [sum(c[i, j] * sin(e[j]) for j in range(4))
                               for i in range(4)])

    X, Y, Z = mk(1), mk(2), mk(3)
    a, b = 0.7, -1.3
    XY = lie_bracket(X, Y)
    YX = lie_bracket(Y, X)
    mixed = TotalVectorField(
        bundle, lambda e: [a * xi + b * zi for xi, zi in zip(X(e), Z(e))])
    lhs = lie_bracket(mixed, Y)
    XZ = lie_bracket(Z, Y)
    for _ in range(10):
        e = random_total_point(bundle, rng)
        anti = as_array(XY(e)) + as_array(YX(e))
        assert np.max(np.abs(anti)) < 1e-10
        lin = as_array(lhs(e)) - a * as_array(XY(e)) \
            - b * as_array(XZ(e))
        assert np.max(np.abs(lin)) < 1e-10


def test_jacobi_identity(rng):
    bundle = make_flat().bundle

    def mk(seed):
        r = np.random.default_rng(seed)
        coef = r.uniform(-0.8, 0.8, size=(4, 4))
        return TotalVectorField(
            bundle,
            lambda e, c=coef: [sum(c[i, j] * sin(e[j]) for j in range(4))
                               for i in range(4)])

    X, Y, Z = mk(11), mk(12), mk(13)
    total = [lie_bracket(X, lie_bracket(Y, Z)),
             lie_bracket(Y, lie_bracket(Z, X)),
             lie_bracket(Z, lie_bracket(X, Y))]
    for _ in range(3):
        e = random_total_point(bundle, rng)
        acc = sum(as_array(t(e)) for t in total)
        assert np.max(np.abs(acc)) < 1e-9


def test_check_p_related_zero_cases(rng):
    bundle = make_flat().bundle
    vertical = TotalVectorField(bundle, lambda e: [0.0, 0.0, e[2], 1.0])
    zero = BaseVectorField(bundle, lambda x: [0.0, 0.0])
    samples = [random_total_point(bundle, rng) for _ in range(20)]
    assert check_p_related(vertical, zero, samples) == 0.0


def test_bracket_requires_same_chart():
    b1 = make_flat().bundle
    b2 = make_flat().bundle
    X = TotalVectorField(b1, lambda e: [1.0, 0.0, 0.0, 0.0])
    Y = TotalVectorField(b2, lambda e: [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        lie_bracket(X, Y)
