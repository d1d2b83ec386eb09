"""Catalog bundles, custom Christoffel parsing, samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrum import (ConnectionField, ConnectionKind, IntegratorConfig,
                    build_connection, holonomy_loop, latitude_loop,
                    make_custom_christoffel, make_flat, make_nonlinear_demo,
                    make_sphere, random_base_field, random_base_point,
                    random_section, random_total_point, sphere_metric)
from fibrum.calculus import DScalar, cos, seed_scalars, sin
from fibrum.catalog import CATALOG, CHRISTOFFELS, _parse_christoffel_key
from fibrum.config import DEFAULT_STEP
from fibrum.errors import ConfigError

from conftest import as_array


def test_flat_dimensions_configurable():
    conn = make_flat(m=3, f=1, base_half=1.5, fibre_half=0.5)
    assert conn.bundle.base_dim == 3
    assert conn.bundle.fibre_dim == 1
    assert conn.kind is ConnectionKind.LINEAR
    assert conn.bundle.base_box.upper == (1.5, 1.5, 1.5)


def test_sphere_chart_excludes_polar_collar():
    bundle = make_sphere().bundle
    assert bundle.base_box.lower[0] == pytest.approx(0.2)
    assert bundle.base_box.upper[0] == pytest.approx(math.pi - 0.2)
    assert bundle.base_periods == (None, 2.0 * math.pi)
    with pytest.raises(Exception):
        bundle.base_point([0.1, 0.0])


def test_sphere_christoffel_values():
    conn = make_sphere()
    th = 0.9
    got = as_array(conn.gamma([th, 0.3], [1.0, 0.0], [0.0, 1.0]))
    # (gamma(x,y)v)^a = G^a_bc v^b y^c with v = d_phi, y = (1,0):
    # a=phi: G^ph_ph,th v^ph y^th = cot(th)
    assert np.max(np.abs(got - np.array([0.0, math.cos(th) / math.sin(th)]))) \
        < 1e-15
    got = as_array(conn.gamma([th, 0.3], [0.0, 1.0], [0.0, 1.0]))
    # a=theta: G^th_ph,ph v^ph y^ph = -sin cos
    assert abs(got[0] - (-math.sin(th) * math.cos(th))) < 1e-15


def test_nonlinear_demo_is_nonlinear_in_y():
    conn = make_nonlinear_demo()
    x = [0.5, -0.2]
    v = [1.0, 0.0]
    g1 = as_array(conn.gamma(x, [0.5], v))
    g2 = as_array(conn.gamma(x, [1.0], v))
    # (y + y^3): doubling y does not double gamma
    assert abs(2.0 * g1[0] - g2[0]) > 1e-3
    assert conn.kind is ConnectionKind.NONLINEAR


def test_custom_christoffel_constant_and_linear_terms():
    conn = make_custom_christoffel({"G_1_12": 1.0, "G_2_21_x1": 0.5})
    got = as_array(conn.gamma([0.4, 0.0], [0.0, 1.0], [1.0, 0.0]))
    # G^1_12 v^1 y^2 = 1
    assert abs(got[0] - 1.0) < 1e-15
    # G^2_21(x) v^2 y^1 = 0 here since v^2 = 0
    assert abs(got[1]) < 1e-15
    got = as_array(conn.gamma([0.4, 0.0], [1.0, 0.0], [0.0, 1.0]))
    # G^2_21(x) = 0.5 x1 = 0.2; v^2 y^1 = 1
    assert abs(got[1] - 0.2) < 1e-15


def test_custom_christoffel_key_validation():
    for bad in ("G_1", "H_1_12", "G_1_123", "G_1_12_y1", "G_3_12", "G_a_bc"):
        with pytest.raises(ConfigError):
            make_custom_christoffel({bad: 1.0})


def test_build_connection_dispatch():
    conn = build_connection("flat", {"m": 2, "f": 2})
    assert conn.bundle.name == "flat"
    with pytest.raises(ConfigError):
        build_connection("torus")
    with pytest.raises(ConfigError):
        build_connection("flat", {"radius": 1.0})
    conn = build_connection("tm-custom-christoffel", {"G_1_12": 1.0, "m": 2})
    assert conn.bundle.fibre_dim == 2


_PARAM_VALUES = {"m": 2.0, "f": 1.0, "base_half": 1.5, "fibre_half": 1.8}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_params_schema(name):
    schema = CATALOG[name]["params"]
    for key in schema:
        params = ({"G_1_12": 0.5} if key == CHRISTOFFELS
                  else {key: _PARAM_VALUES[key]})
        bundle = build_connection(name, params).bundle
        assert isinstance(bundle.base_dim, int)
        assert isinstance(bundle.fibre_dim, int)
    undeclared = {"radius": 1.0}
    if "m" not in schema:
        undeclared["m"] = 2
    with pytest.raises(ConfigError) as err:
        build_connection(name, undeclared)
    assert err.value.field == "bundle_params"


def test_samplers_stay_inside_with_margin(any_conn, rng):
    bundle = any_conn.bundle
    lo_b = np.asarray(bundle.base_box.lower)
    hi_b = np.asarray(bundle.base_box.upper)
    pad = 0.05 * (hi_b - lo_b)
    for _ in range(200):
        x = random_base_point(bundle, rng)
        assert np.all(np.array(x.coords) > lo_b + pad)
        assert np.all(np.array(x.coords) < hi_b - pad)
        random_total_point(bundle, rng)


def test_random_sections_stay_inside_fibre_box(any_conn, rng):
    bundle = any_conn.bundle
    for _ in range(10):
        s = random_section(bundle, rng)
        for _ in range(50):
            x = random_base_point(bundle, rng)
            s.graph(x)  # raises DomainError if the graph leaves the chart


@pytest.mark.parametrize("m, seed", [(10, 2), (12, 0), (16, 0)])
def test_flat_verify_all_stays_in_the_chart_at_high_base_dimension(m, seed):
    # with 0.15 h waves the m + 1 terms of a section reached past the fibre
    # box's half-width h at these draws; no row may fail by a chart exit
    from fibrum import load_config, run_scenario
    cfg = load_config({"bundle_name": "flat", "bundle_params": {"m": m, "f": 2},
                       "scenario": "verify-all"}, seed_override=seed)
    notes = {row.check_name: row.note for row in run_scenario(cfg).checks}
    assert {name: note for name, note in notes.items()
            if "chart box" in note} == {}


def test_random_fields_are_deterministic(any_conn):
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    v1 = random_base_field(any_conn.bundle, r1)
    v2 = random_base_field(any_conn.bundle, r2)
    x = [0.3] * any_conn.bundle.base_dim
    assert as_array(v1(x)).tolist() == as_array(v2(x)).tolist()


def test_sphere_metric_values():
    g = sphere_metric([1.3, 0.0])
    assert g == [[1.0, 0.0], [0.0, math.sin(1.3) ** 2]]


# -- evaluators against the table walks they replaced -------------------------
# The two references below are the earlier evaluators, kept verbatim in
# their operation order: the catalog's straight-line sphere evaluator and
# its compiled custom terms must give the same bits, DScalar parts and the
# sign of zero included.

def _reference_sphere_gamma(x, y, v):
    th = x[0]
    cot = cos(th) / sin(th)
    g = {
        (0, 1, 1): -sin(th) * cos(th),
        (1, 0, 1): cot,
        (1, 1, 0): cot,
    }
    out = []
    for a in range(2):
        acc = 0.0
        for (aa, b, c), coeff in g.items():
            if aa == a:
                acc = acc + coeff * v[b] * y[c]
        out.append(acc)
    return out


def _reference_custom_gamma(coeffs, m):
    const, slope = {}, {}
    for key, val in coeffs.items():
        a, b, c, k = _parse_christoffel_key(key, m)
        if k is None:
            const[(a, b, c)] = float(val)
        else:
            slope[(a, b, c, k)] = float(val)

    def gamma(x, y, v):
        out = []
        for a in range(m):
            acc = 0.0
            for b in range(m):
                for c in range(m):
                    g = const.get((a, b, c), 0.0)
                    for k in range(m):
                        sl = slope.get((a, b, c, k), 0.0)
                        if sl != 0.0:
                            g = g + sl * x[k]
                    if not (isinstance(g, float) and g == 0.0):
                        acc = acc + g * v[b] * y[c]
            out.append(acc)
        return out

    return gamma


def _assert_bit_equal(got, want):
    if isinstance(want, DScalar):
        assert isinstance(got, DScalar) and got.tag == want.tag
        _assert_bit_equal(got.value, want.value)
        assert len(got.grad) == len(want.grad)
        for g, w in zip(got.grad, want.grad):
            _assert_bit_equal(g, w)
    else:
        assert not isinstance(got, DScalar)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def _gamma_inputs(m, base_lo, base_hi):
    """(x, y, v) triples: random ones, signed zeros, and some of them as
    first- and second-order DScalars, and with DScalars in y and v only."""
    rng = np.random.default_rng(7)
    floats = []
    for _ in range(20):
        floats.append((list(rng.uniform(base_lo, base_hi, size=m)),
                       list(rng.uniform(-2.0, 2.0, size=m)),
                       list(rng.uniform(-2.0, 2.0, size=m))))
    xs = [list(rng.uniform(base_lo, base_hi, size=m))]
    if base_lo < 0.0 < base_hi:  # zero slope terms, where the chart allows
        xs += [[0.0] * m, [0.7] + [-0.0] * (m - 1)]
    units = ([1.0] + [0.0] * (m - 1), [-0.0] * m, [0.0] * (m - 1) + [-1.0])
    for x in xs:
        for y in units:
            for v in units:
                floats.append((x, y, v))
    cases = list(floats)
    for x, y, v in floats[:5] + floats[-12:]:
        first = seed_scalars(x + y + v)
        cases.append((first[:m], first[m:2 * m], first[2 * m:]))
        second = seed_scalars(seed_scalars(x + y + v))
        cases.append((second[:m], second[m:2 * m], second[2 * m:]))
        fibre = seed_scalars(y + v)  # x stays a float
        cases.append((x, fibre[:m], fibre[m:]))
    return cases


def _assert_same_evaluator(conn, reference):
    box = conn.bundle.base_box
    m = conn.bundle.base_dim
    for x, y, v in _gamma_inputs(m, box.lower[0] + 0.1, box.upper[0] - 0.1):
        got, want = conn.gamma(x, y, v), reference(x, y, v)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_bit_equal(g, w)


def test_sphere_gamma_bit_equal_to_reference():
    _assert_same_evaluator(make_sphere(), _reference_sphere_gamma)


_TH = 1.1


@pytest.mark.parametrize("thetas", [
    [_TH, _TH, _TH, float(repr(_TH))],  # one object, then an equal one
    [_TH, 0.45, _TH, 0.45, _TH],
    [_TH, DScalar(_TH, (1.0, 0.0)), _TH],  # a DScalar equal to the memo
    [0.0, -0.0, 0.0],
], ids=["repeated", "alternating", "dscalar-after-float", "signed-zero"])
def test_sphere_trig_memo_bit_equal_to_reference(thetas):
    conn = make_sphere()
    y, v = [0.3, -0.7], [1.2, -0.0]
    for th in thetas:
        x = [th, 0.25]
        try:
            want = _reference_sphere_gamma(x, y, v)
        except ZeroDivisionError:
            # sin(+-0.0) is +-0.0: cot divides by zero, nothing is memoised
            with pytest.raises(ZeroDivisionError):
                conn.gamma(x, y, v)
            continue
        got = conn.gamma(x, y, v)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_bit_equal(g, w)


def test_sphere_trig_memo_skips_trig_for_the_same_theta(monkeypatch):
    from fibrum import catalog
    calls = []

    def counted_sin(z):
        calls.append(z)
        return sin(z)

    monkeypatch.setattr(catalog, "sin", counted_sin)
    conn = make_sphere()
    for _ in range(3):
        conn.gamma([_TH, 0.0], [1.0, 0.5], [0.2, 1.0])
    assert len(calls) == 1
    conn.gamma([float(repr(_TH)), 0.0], [1.0, 0.5], [0.2, 1.0])
    assert len(calls) == 2
    th = DScalar(_TH, (1.0,))
    for _ in range(2):
        conn.gamma([th, 0.0], [1.0, 0.5], [0.2, 1.0])
    assert len(calls) == 4


@pytest.mark.parametrize("coeffs,m", [
    ({"G_1_12": 0.7, "G_2_11": -1.3, "G_1_22": 0.25}, 2),  # constants only
    ({"G_1_12_x1": 0.5, "G_2_21_x2": -0.75, "G_2_11_x1": 0.3}, 2),  # slopes
    ({"G_1_12": 0.0, "G_1_12_x2": 0.4, "G_2_22": 0.0}, 2),  # 0.0 with slope
    ({"G_1_12": 0.0, "G_2_11_x1": 0.0, "G_2_22": -0.0}, 2),  # all zero
    ({}, 2),
    ({"G_1_23": 0.2, "G_3_12_x3": 0.1, "G_2_33": -0.15, "G_2_33_x1": 0.3,
      "G_1_11_x2": -0.0, "G_3_31": 1.1, "G_3_31_x1": 0.37, "G_3_31_x2": -1.9,
      "G_3_31_x3": 0.61}, 3),
    # -0.35 + 0.5 * x1 is exactly 0.0 at x1 = 0.7: the term is skipped, so
    # with DScalar y and v and a float x the output stays a float
    ({"G_1_12": -0.35, "G_1_12_x1": 0.5}, 2),
])
def test_custom_gamma_bit_equal_to_reference(coeffs, m):
    _assert_same_evaluator(make_custom_christoffel(coeffs, m=m),
                           _reference_custom_gamma(coeffs, m))


def test_sphere_latitude_holonomy_bit_equal_to_reference():
    conn = make_sphere()
    reference = ConnectionField(conn.bundle, _reference_sphere_gamma,
                                ConnectionKind.LINEAR)
    loop = latitude_loop(conn.bundle, math.pi / 3.0)
    cfg = IntegratorConfig(step=DEFAULT_STEP)
    got, got_disp = holonomy_loop(conn, loop, [1.0, 0.0], cfg)
    want, want_disp = holonomy_loop(reference, loop, [1.0, 0.0], cfg)
    assert got == want
    assert got_disp == want_disp


# Transport and geodesic right-hand sides use gamma's outputs as they are,
# so every catalog evaluator must give Python floats for float input.
@pytest.mark.parametrize("name,params", [
    ("flat", {"m": 3, "f": 1}),
    ("sphere", {}),
    ("nonlinear-demo", {}),
    ("tm-custom-christoffel", {"G_1_12": 0.7, "G_2_11": -1.3}),
    ("tm-custom-christoffel", {"G_1_12_x1": 0.5, "G_2_21_x2": -0.75}),
    ("tm-custom-christoffel", {"G_1_12": 0.0, "G_2_11_x1": 0.0}),
    ("tm-custom-christoffel", {"m": 3, "G_1_23": 0.2, "G_3_12_x3": 0.1,
                               "G_3_31": 1.1, "G_3_31_x1": 0.37}),
])
def test_catalog_gamma_returns_floats_for_float_input(name, params):
    conn = build_connection(name, params)
    bundle = conn.bundle
    rng = np.random.default_rng(11)
    zeros = ([0.0] * bundle.fibre_dim, [-0.0] * bundle.base_dim)
    for _ in range(20):
        x = [float(c) for c in bundle.base_box.sample(rng)]
        y = [float(c) for c in bundle.fibre_box.sample(rng)]
        v = [float(c) for c in rng.uniform(-2.0, 2.0, size=bundle.base_dim)]
        for yy, vv in ((y, v), (zeros[0], v), (y, zeros[1])):
            out = conn.gamma(x, yy, vv)
            assert len(out) == bundle.fibre_dim
            assert all(type(c) is float for c in out), (x, yy, vv, out)


# The random samplers keep their coefficients as Python floats.  The copy
# below keeps them as numpy scalars and arrays, as the samplers once did;
# both draw the same numbers from the same stream, and IEEE arithmetic
# rounds a numpy scalar operation as it rounds the float one.
def _numpy_sin_combination(rng, n_inputs, constant_scale, wave_scale):
    c0 = rng.uniform(-constant_scale, constant_scale)
    amps = rng.uniform(-wave_scale, wave_scale, size=n_inputs)
    freqs = rng.uniform(0.5, 1.5, size=n_inputs)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_inputs)

    def fn(coords):
        acc = c0
        for j in range(n_inputs):
            acc = acc + amps[j] * sin(freqs[j] * coords[j] + phases[j])
        return acc

    return fn


@pytest.mark.parametrize("n_inputs,constant_scale,wave_scale", [
    (1, 1.0, 0.6), (2, 0.8, 0.5), (3, 0.45, 0.15), (4, 1.0, 0.6)])
def test_sin_combination_floats_bit_equal_to_numpy_reference(
        n_inputs, constant_scale, wave_scale):
    from fibrum.calculus import value_and_jacobian
    from fibrum.catalog import _sin_fns
    for seed in range(5):
        got = _sin_fns(np.random.default_rng(seed), n_inputs,
                       [(constant_scale, wave_scale)])[0]
        want = _numpy_sin_combination(np.random.default_rng(seed), n_inputs,
                                      constant_scale, wave_scale)
        points = np.random.default_rng(100 + seed).uniform(
            -2.0, 2.0, size=(10, n_inputs)).tolist()
        for p in points + [[0.0] * n_inputs, [-0.0] * n_inputs]:
            value = got(p)
            assert type(value) is float
            assert value == want(p)
            g_val, g_jac = value_and_jacobian(lambda c: [got(c)], p)
            w_val, w_jac = value_and_jacobian(lambda c: [want(c)], p)
            assert g_val == w_val
            assert g_jac == w_jac


# -- the generated sin-field kernels against the loop -------------------------
# ``_sin_fn`` sends inputs of one shape (floats, or scalars of the same passes
# nested down to floats) through the kernel that ``_sin_kernel`` generates
# for that shape; every other input takes its loop.  Both must give the same
# bits, signed zeros included, and raise the same error.

def _sin_loop(coeffs, n_inputs):
    """``_sin_fn`` without its kernel: the loop, copied verbatim."""
    c0 = coeffs[0]
    amps = coeffs[1:n_inputs + 1]
    freqs = coeffs[n_inputs + 1:2 * n_inputs + 1]
    phases = coeffs[2 * n_inputs + 1:]

    def fn(coords):
        acc = c0
        for j in range(n_inputs):
            acc = acc + amps[j] * sin(freqs[j] * coords[j] + phases[j])
        return acc

    return fn


def _layers(z):
    """Value and gradient bits of z, layer by layer."""
    if isinstance(z, DScalar):
        return z.tag, _layers(z.value), tuple(_layers(g) for g in z.grad)
    assert type(z) is float
    return z.hex()


def _sin_outcome(fn, coords):
    try:
        return _layers(fn(coords))
    except ValueError:
        return ValueError


def _kernel_for(coeffs, inputs):
    """The kernel ``_sin_fn`` asks for ``inputs``: the one keyed on the
    gradient lengths of the first input's layers, youngest first."""
    from fibrum.catalog import _sin_kernel
    z, lengths = inputs[0], ()
    while isinstance(z, DScalar):
        lengths += (len(z.grad),)
        z = z.value
    assert type(z) is float
    return _sin_kernel(len(inputs), lengths)


_KINDS = ("floats", "one pass", "nested", "mixed tags", "mixed floats",
          "unequal lengths")
_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-3.0, 3.0))


@st.composite
def _sin_inputs(draw):
    """(kind, coefficients, inputs, gradient length) of one call."""
    kind = draw(st.sampled_from(_KINDS))
    n_inputs = draw(st.integers(2 if kind in _KINDS[3:] else 1, 4))
    coeffs = draw(st.lists(st.floats(-7.0, 7.0), min_size=3 * n_inputs + 1,
                           max_size=3 * n_inputs + 1))
    n = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=n_inputs,
                           max_size=n_inputs))
    grads = [draw(st.lists(_entry, min_size=n, max_size=n))
             for _ in range(n_inputs)]
    if kind == "floats":
        return kind, coeffs, values, n
    if kind == "unequal lengths":
        j = draw(st.integers(0, n_inputs - 1))
        grads[j] = grads[j] + [draw(_entry)]
    if kind == "nested":  # values carry an enclosing pass, tag 3
        values = [DScalar(v, g, 3) for v, g in zip(values, grads)]
    tags = [7] * n_inputs
    if kind == "mixed tags":
        tags = draw(st.lists(st.sampled_from([7, 8]), min_size=n_inputs,
                             max_size=n_inputs).filter(
                                 lambda t: len(set(t)) == 2))
    inputs = [DScalar(v, g, t) for v, g, t in zip(values, grads, tags)]
    if kind == "mixed floats":
        keep = draw(st.lists(st.booleans(), min_size=n_inputs,
                             max_size=n_inputs).filter(
                                 lambda k: any(k) and not all(k)))
        inputs = [x if k else x.value for x, k in zip(inputs, keep)]
    return kind, coeffs, inputs, n


@given(case=_sin_inputs())
@settings(max_examples=400, deadline=None)
def test_sin_kernel_bit_equal_to_loop(case):
    from fibrum.catalog import _sin_fn
    kind, coeffs, inputs, n = case
    n_inputs = len(inputs)
    got = _sin_outcome(_sin_fn(coeffs, n_inputs), inputs)
    assert got == _sin_outcome(_sin_loop(coeffs, n_inputs), inputs)
    assert (got is ValueError) == (kind == "unequal lengths")
    # the kernel serves its calls, not the loop, and declines the others
    served = _kernel_for(coeffs, inputs)(coeffs, inputs)
    assert (served is not None) == (kind in ("floats", "one pass", "nested"))


# Scalars of one pass whose values carry enclosing passes: the kernel serves
# them where every input has the same tags layer by layer and float entries
# on every layer but the oldest; every other nesting takes the loop.

_NESTED_KINDS = ("nested", "mixed inner tags", "mixed outer tags",
                 "non-float inner gradient", "three levels",
                 "unequal inner lengths", "unequal outer lengths",
                 "three layers", "non-float oldest gradient")
_signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-7.0, 7.0))


@st.composite
def _nested_sin_inputs(draw):
    """(kind, coefficients, inputs, inner length, outer length) of one
    call on scalars of an inner pass (tags 7, 8) whose values carry an
    enclosing pass (tags 3, 4)."""
    kind = draw(st.sampled_from(_NESTED_KINDS))
    between = kind.startswith(("mixed", "unequal"))  # needs two inputs
    n_inputs = draw(st.integers(2 if between else 1, 4))
    coeffs = draw(st.lists(_signed, min_size=3 * n_inputs + 1,
                           max_size=3 * n_inputs + 1))
    n, n_outer = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=n_inputs,
                           max_size=n_inputs))
    outer = [draw(st.lists(_entry, min_size=n_outer, max_size=n_outer))
             for _ in range(n_inputs)]
    inner = [draw(st.lists(_entry, min_size=n, max_size=n))
             for _ in range(n_inputs)]
    j = draw(st.integers(0, n_inputs - 1))  # the odd input, if any
    if kind == "unequal inner lengths":
        inner[j] = inner[j] + [draw(_entry)]
    if kind == "unequal outer lengths":
        outer[j] = outer[j] + [draw(_entry)]
    odd_entry = st.sampled_from([1, DScalar(0.5, [1.0], 2)])
    if kind == "non-float inner gradient":
        k = draw(st.integers(0, n - 1))
        inner[j][k] = draw(odd_entry)
    if kind == "non-float oldest gradient":
        outer[j][draw(st.integers(0, n_outer - 1))] = draw(odd_entry)
    if kind == "three levels":
        values[j] = DScalar(values[j], [draw(_entry)], 1)
    if kind == "three layers":  # every input, an oldest pass of tag 1
        n_oldest = draw(st.integers(1, 3))
        values = [DScalar(v, draw(st.lists(_entry, min_size=n_oldest,
                                           max_size=n_oldest)), 1)
                  for v in values]

    def tags(layer, usual, other):
        if kind != f"mixed {layer} tags":
            return [usual] * n_inputs
        return draw(st.lists(st.sampled_from([usual, other]),
                             min_size=n_inputs, max_size=n_inputs).filter(
                                 lambda t: len(set(t)) == 2))

    inputs = [DScalar(DScalar(v, h, u), g, t) for v, h, g, u, t in zip(
        values, outer, inner, tags("outer", 3, 4), tags("inner", 7, 8))]
    return kind, coeffs, inputs, n, n_outer


@given(case=_nested_sin_inputs())
@settings(max_examples=400, deadline=None)
def test_nested_sin_kernel_bit_equal_to_loop(case):
    from fibrum.catalog import _sin_fn
    kind, coeffs, inputs, n, n_outer = case
    n_inputs = len(inputs)
    got = _sin_outcome(_sin_fn(coeffs, n_inputs), inputs)
    assert got == _sin_outcome(_sin_loop(coeffs, n_inputs), inputs)
    assert (got is ValueError) == kind.startswith("unequal")
    if kind != "non-float oldest gradient":  # bit-equal, served or not
        served = _kernel_for(coeffs, inputs)(coeffs, inputs)
        # a lone input with a third layer is three layers deep throughout
        uniform = kind in ("nested", "three layers") or (
            kind == "three levels" and n_inputs == 1)
        assert (served is not None) == uniform


def test_sin_kernel_serves_many_inputs():
    # a running sum takes no parenthesis level per term, so the kernel of
    # a field of 250 inputs compiles under the parser's nesting limit of 200
    from fibrum.catalog import _sin_fn
    n_inputs = 250
    coeffs = np.random.default_rng(5).uniform(
        -1.0, 1.0, 3 * n_inputs + 1).tolist()
    values = np.random.default_rng(6).uniform(-1.0, 1.0, n_inputs).tolist()
    for inputs in (values, [DScalar(v, (1.0, -0.5), 9) for v in values]):
        got = _sin_fn(coeffs, n_inputs)(inputs)
        assert _layers(got) == _layers(_sin_loop(coeffs, n_inputs)(inputs))
        assert _kernel_for(coeffs, inputs)(coeffs, inputs) is not None


@pytest.mark.parametrize("bundle_name", ["sphere", "nonlinear-demo"])
def test_sin_kernel_serves_every_theorem41_call(monkeypatch, bundle_name):
    # a call on scalars that falls back to the loop gives the same bits at
    # about four times the cost, so only counting shows it: every draw of
    # a theorem41 row is floats or scalars of one shape
    from fibrum import catalog, load_config, run_scenario
    counts = {"calls": 0, "served": 0}
    make_fn, make_kernel = catalog._sin_fn, catalog._sin_kernel

    def counted_fn(coeffs, n_inputs):
        fn = make_fn(coeffs, n_inputs)

        def counted(coords):
            counts["calls"] += 1
            return fn(coords)
        return counted

    def counted_kernel(n_inputs, lengths):
        kernel = make_kernel(n_inputs, lengths)

        def counted(coeffs, coords):
            out = kernel(coeffs, coords)
            counts["served"] += out is not None
            return out
        return counted

    monkeypatch.setattr(catalog, "_sin_fn", counted_fn)
    monkeypatch.setattr(catalog, "_sin_kernel", counted_kernel)
    run_scenario(load_config({"bundle_name": bundle_name,
                              "scenario": "theorem41",
                              "scenario_params": {"samples": 3}}))
    assert counts["calls"] > 0
    assert counts["served"] == counts["calls"]


# The samplers as they were before each draw took its doubles from one
# generator call: one numpy ``rng.uniform`` call per coefficient group.
def _numpy_box_sample(box, rng, margin=0.1):
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def _numpy_random_base_point(bundle, rng):
    return bundle.base_point(_numpy_box_sample(bundle.base_box, rng))


def _numpy_random_total_point(bundle, rng):
    x = _numpy_box_sample(bundle.base_box, rng)
    y = _numpy_box_sample(bundle.fibre_box, rng)
    return bundle.total_point(np.concatenate([x, y]))


def _numpy_random_section(bundle, rng):
    lo = np.asarray(bundle.fibre_box.lower)
    hi = np.asarray(bundle.fibre_box.upper)
    half = 0.5 * (hi - lo)
    centre = (0.5 * (hi + lo)).tolist()
    comps = [_numpy_sin_combination(rng, bundle.base_dim, 0.45 * half[i],
                                    0.15 * half[i])
             for i in range(bundle.fibre_dim)]
    return lambda x: [centre[i] + comps[i](x) for i in range(len(comps))]


def _numpy_random_base_field(bundle, rng):
    comps = [_numpy_sin_combination(rng, bundle.base_dim, 0.8, 0.5)
             for _ in range(bundle.base_dim)]
    return lambda x: [c(x) for c in comps]


def _numpy_random_total_scalar_field(bundle, rng):
    return _numpy_sin_combination(rng, bundle.total_dim, 1.0, 0.6)


def _numpy_random_tangent(conn, e, rng):
    m, f = conn.bundle.base_dim, conn.bundle.fibre_dim
    return (rng.uniform(-1.0, 1.0, size=m).tolist()
            + rng.uniform(-1.0, 1.0, size=f).tolist())


def _draw_functions(conn):
    """name -> (draw, its per-call numpy reference); each maps ``rng`` to a
    list of floats that fixes what it drew."""
    from fibrum.catalog import random_tangent, random_total_scalar_field
    bundle = conn.bundle
    e = bundle.total_point(
        [0.5 * (lo + hi) for lo, hi in zip(
            bundle.base_box.lower + bundle.fibre_box.lower,
            bundle.base_box.upper + bundle.fibre_box.upper)])
    probe = np.random.default_rng(99)
    xs = [list(random_base_point(bundle, probe).coords) for _ in range(3)]
    es = [list(random_total_point(bundle, probe).coords) for _ in range(3)]

    def at(points):
        return lambda fn: [c for p in points for c in np.ravel(fn(p))]

    on_x, on_e = at(xs), at(es)
    return {
        "random_base_point": (
            lambda rng: random_base_point(bundle, rng).coords,
            lambda rng: _numpy_random_base_point(bundle, rng).coords),
        "random_total_point": (
            lambda rng: random_total_point(bundle, rng).coords,
            lambda rng: _numpy_random_total_point(bundle, rng).coords),
        "random_section": (
            lambda rng: on_x(random_section(bundle, rng).fn),
            lambda rng: on_x(_numpy_random_section(bundle, rng))),
        "random_base_field": (
            lambda rng: on_x(random_base_field(bundle, rng).fn),
            lambda rng: on_x(_numpy_random_base_field(bundle, rng))),
        "random_total_scalar_field": (
            lambda rng: on_e(random_total_scalar_field(bundle, rng)),
            lambda rng: on_e(_numpy_random_total_scalar_field(bundle, rng))),
        "random_tangent": (
            lambda rng: random_tangent(conn, e, rng).as_vector(),
            lambda rng: _numpy_random_tangent(conn, e, rng)),
    }


@pytest.mark.parametrize("name,params", [
    ("flat", {}), ("flat", {"m": 3, "f": 1, "base_half": 0.7}),
    ("sphere", {}), ("nonlinear-demo", {}),
    ("tm-custom-christoffel", {"m": 3, "fibre_half": 2.5})])
def test_draws_bit_equal_to_numpy_per_call_reference(name, params):
    # equal values from equal generator states, and equal end states, so
    # every later draw on the stream is unchanged as well
    conn = build_connection(name, params)
    for draw, reference in _draw_functions(conn).values():
        for seed in range(4):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert list(map(float, draw(rng))) \
                    == list(map(float, reference(ref)))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name,params", [
    ("flat", {}), ("flat", {"m": 3, "f": 1}), ("sphere", {}),
    ("nonlinear-demo", {}), ("tm-custom-christoffel", {})])
def test_random_suvx_equals_the_four_per_object_draws(name, params):
    # one generator call against random_section, random_base_field twice
    # and random_base_point on a twin generator: equal values and one-pass
    # jets of s, u and v, equal points, equal end states
    from fibrum.calculus import value_and_jacobian
    from fibrum.catalog import random_suvx
    bundle = build_connection(name, params).bundle
    probe = np.random.default_rng(99)
    points = [list(random_base_point(bundle, probe).coords)
              for _ in range(3)]

    def bits(field):
        out = []
        for p in points:
            value, jac = value_and_jacobian(field.fn, p)
            out.append([c.hex() for c in field.fn(p)]
                       + [float(c).hex() for c in value]
                       + [c.hex() for c in np.ravel(jac).tolist()])
        return out

    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            s, u, v, x = random_suvx(bundle, rng)
            want = [random_section(bundle, ref),
                    random_base_field(bundle, ref),
                    random_base_field(bundle, ref)]
            assert [bits(f) for f in (s, u, v)] == [bits(f) for f in want]
            assert [c.hex() for c in x.coords] == [
                c.hex() for c in random_base_point(bundle, ref).coords]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_suvx_guards_draw_nothing():
    # a base box as wide as the floats makes an infinite range: the plan
    # raises numpy's error before anything is drawn
    from fibrum.catalog import random_suvx
    bundle = build_connection("flat", {"base_half": 1e308}).bundle
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(OverflowError):
        random_suvx(bundle, rng)
    with pytest.raises(OverflowError):
        random_base_point(bundle, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", ["flat", "sphere", "nonlinear-demo"])
def test_random_samplers_return_floats_for_float_input(name):
    from fibrum.catalog import random_total_scalar_field
    bundle = build_connection(name).bundle
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = random_section(bundle, rng)
        u = random_base_field(bundle, rng)
        f = random_total_scalar_field(bundle, rng)
        x = list(random_base_point(bundle, rng).coords)
        e = list(random_total_point(bundle, rng).coords)
        assert all(type(c) is float for c in s.fn(x))
        assert all(type(c) is float for c in u.fn(x))
        assert type(f(e)) is float
