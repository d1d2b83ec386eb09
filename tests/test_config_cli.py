"""Config ingestion, canonical report emission, CLI contract."""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_report_pins import RUNS, report_sha256

from fibrum import (canonical_text, emit_report, load_config,
                    run_scenario)
from fibrum.catalog import CATALOG
from fibrum.errors import ConfigError


def _write(tmp_path: Path, tree) -> Path:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(tree), encoding="utf-8")
    return p


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {"bundle_name": "flat",
                                        "scenario": "verify-all"}))
    assert cfg.step == 1e-3
    assert cfg.seed == 42
    assert cfg.output_path is None
    from fibrum.scenarios import CHECKS
    assert CHECKS["projector_algebra"].tolerance == 1e-12


def test_unknown_bundle_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, {"bundle_name": "torus",
                                      "scenario": "verify-all"}))
    assert err.value.field == "bundle_name"


def test_unknown_scenario_and_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"bundle_name": "flat",
                                      "scenario": "fly-me-to-the-moon"}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"bundle_name": "flat",
                                      "scenario": "verify-all",
                                      "extra": 1}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"bundle_name": "flat",
                                      "scenario": "verify-all",
                                      "scenario_params": {"samples": 3}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"bundle_name": "flat",
                                      "scenario": "verify-all",
                                      "tolerances": {"no_such_check": 1.0}}))
    for deleted_row in ("extension_independence",
                        "extension_translation_invariance",
                        "catalog_integrity",
                        "natural_derivative_relatedness",
                        "lift_field_relatedness",
                        "lift_tensoriality_in_section",
                        "curvature_horizontality", "cocurvature",
                        "geodesic_spray_agreement"):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, {"bundle_name": "flat",
                                          "scenario": "verify-all",
                                          "tolerances": {deleted_row: 1e-9}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"bundle_name": "flat",
                                      "scenario": "verify-all",
                                      "integrator": {"step": -1.0}}))


@pytest.mark.parametrize("step", [float("inf"), float("nan"), 0.0, -1e-3,
                                  "abc", [1e-3], True, "1", "0.01"])
def test_integrator_step_must_be_finite_positive(step):
    with pytest.raises(ConfigError) as err:
        load_config({"bundle_name": "flat", "scenario": "verify-all",
                     "integrator": {"step": step}})
    assert err.value.field == "integrator.step"


@pytest.mark.parametrize("step", ["inf", "-inf", "nan", "0", "-1e-3"])
def test_cli_step_override_must_be_finite_positive(step, capsys):
    from fibrum.cli import main
    assert main(["verify", "flat", f"--step={step}"]) == 2
    assert "(field: step)" in capsys.readouterr().err


_BASE = {"bundle_name": "flat", "scenario": "verify-all"}
_SCALAR_WRONG = [True, False, "1", "0.01", None, [], {}, [1.0]]
_VECTOR_WRONG = [True, "ab", [True], [None], {}, None, 1.0, ["1"]]
_OBJECT_WRONG = [1, "x", [], True, None]
_NAME_WRONG = [1, True, None, [], "nope"]


def _wrong_typed_configs():
    """(config, field) for each key of each rule table and each JSON value
    of the wrong type for that key's rule."""
    from fibrum import config

    def values(key, rule):
        if key in ("bundle_name", "scenario"):
            return _NAME_WRONG
        if key == "output_path":
            return [1, True, [], {}]
        if rule is config._VECTOR:
            return _VECTOR_WRONG
        return _OBJECT_WRONG if rule is config._OBJECT else _SCALAR_WRONG

    cases = [({**_BASE, key: v}, key, v)
             for key, rule in config._CONFIG.items()
             for v in values(key, rule)]
    first_scenario = {}
    for scenario, table in config._SCENARIO_PARAMS.items():
        for key in table:
            first_scenario.setdefault(key, scenario)
    for key, scenario in first_scenario.items():
        rule = config._SCENARIO_PARAMS[scenario][key]
        cases += [({**_BASE, "scenario": scenario,
                    "scenario_params": {key: v}}, f"scenario_params.{key}", v)
                  for v in values(key, rule)]
    for where, table in (("integrator", config._INTEGRATOR),
                         ("tolerances", config._TOLERANCES)):
        cases += [({**_BASE, where: {key: v}}, f"{where}.{key}", v)
                  for key, rule in table.items() for v in values(key, rule)]
    return [pytest.param(cfg, field, id=f"{field}={json.dumps(v)}")
            for cfg, field, v in cases]


@pytest.mark.parametrize("config, field", _wrong_typed_configs())
def test_every_rule_rejects_wrong_typed_json(config, field):
    with pytest.raises(ConfigError) as err:
        load_config(json.loads(json.dumps(config)))
    assert err.value.field == field


def _wrong_typed_bundle_params():
    """(bundle, params, field) for each key of each catalog entry's rule
    table, a coefficient key standing for CHRISTOFFELS, and each wrong JSON
    value for it: 2.0 too where the rule takes an integer."""
    from fibrum import errors
    from fibrum.catalog import CHRISTOFFELS
    cases = []
    for name, entry in sorted(CATALOG.items()):
        for key, rule in entry["params"].items():
            key = "G_1_12" if key == CHRISTOFFELS else key
            wrong = _SCALAR_WRONG + [2.0] * (rule is errors._COUNT)
            cases += [pytest.param(name, {key: v}, f"bundle_params.{key}",
                                   id=f"{name}-{key}={json.dumps(v)}")
                      for v in wrong]
    return cases


@pytest.mark.parametrize("bundle, params, field",
                         _wrong_typed_bundle_params())
def test_every_bundle_rule_rejects_wrong_typed_json(bundle, params, field):
    from fibrum.catalog import build_connection
    with pytest.raises(ConfigError) as err:
        build_connection(bundle, json.loads(json.dumps(params)))
    assert err.value.field == field


def test_readme_config_table_lists_every_rule():
    from fibrum import config
    from fibrum.catalog import CHRISTOFFELS
    from fibrum.scenarios import CHECKS
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("### Config schema")[1].split("\n### ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, _, _, field = [c.strip() for c in line.split("|")[1:-1]]
            rows[key.strip("`")] = field
    keys = set(config._CONFIG) | {"tolerances.<check>"}
    keys |= {f"scenario_params.{k}"
             for table in config._SCENARIO_PARAMS.values() for k in table}
    keys |= {f"integrator.{k}" for k in config._INTEGRATOR}
    keys |= {f"bundle_params.{k}" for entry in CATALOG.values()
             for key in entry["params"]
             for k in (("G_a_bc", "G_a_bc_xk") if key == CHRISTOFFELS
                       else (key,))}
    assert set(rows) == keys
    assert list(config._TOLERANCES) == list(CHECKS)
    for key, field in rows.items():
        assert field.startswith(f"`{key}`"), key


# Each of these once ended in a traceback (exit 1) or, for samples <= 0,
# in an empty table that passed (exit 0).  The raw config text lets 1e400
# reach the loader as the float it parses to, inf, and 10**400 as an int.
@pytest.mark.parametrize("scenario,params,field", [
    ("theorem41", '{"samples": "x"}', "samples"),
    ("theorem41", '{"samples": -3}', "samples"),
    ("curvature-table", '{"samples": 0}', "samples"),
    ("geodesic", '{"T": "x"}', "T"),
    ("geodesic", '{"T": 1e400}', "T"),
    pytest.param("geodesic", '{"T": 1%s}' % ("0" * 400), "T",
                 id="geodesic-T-10**400-T"),
    ("transport", '{"y0": "ab"}', "y0"),
])
def test_cli_bad_scenario_param_exits_2(tmp_path, capsys, scenario, params,
                                        field):
    from fibrum.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bundle_name": "sphere", "scenario": "%s", '
                   '"scenario_params": %s}' % (scenario, params),
                   encoding="utf-8")
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert f"(field: scenario_params.{field})" in capsys.readouterr().err


# Each of these once ended in a numpy or overflow traceback, a DomainError
# (exit 1), a silently truncated m (2.5 ran as 2), a max_steps of True (a
# budget of 1) or a tolerance that turned its row red; a tolerance naming a
# row that no longer exists is rejected too.  Python's json reads NaN and
# Infinity, so raw config text can carry them.
@pytest.mark.parametrize("bundle,key,value,field", [
    ("flat", "bundle_params", '{"m": 0}', "bundle_params.m"),
    ("flat", "bundle_params", '{"m": -1}', "bundle_params.m"),
    ("flat", "bundle_params", '{"m": 2.5}', "bundle_params.m"),
    ("flat", "bundle_params", '{"f": true}', "bundle_params.f"),
    ("flat", "bundle_params", '{"base_half": Infinity}',
     "bundle_params.base_half"),
    ("flat", "bundle_params", '{"fibre_half": -1}',
     "bundle_params.fibre_half"),
    ("sphere", "bundle_params", '{"fibre_half": 0}',
     "bundle_params.fibre_half"),
    ("nonlinear-demo", "bundle_params", '{"base_half": NaN}',
     "bundle_params.base_half"),
    ("tm-custom-christoffel", "bundle_params", '{"m": "2"}',
     "bundle_params.m"),
    ("tm-custom-christoffel", "bundle_params", '{"G_1_12": Infinity}',
     "bundle_params.G_1_12"),
    ("flat", "bundle_params", '{"m": 2.0}', "bundle_params.m"),
    ("flat", "bundle_params", '{"f": 1.0}', "bundle_params.f"),
    ("tm-custom-christoffel", "bundle_params", '{"G_1_1x": 0.5}',
     "bundle_params.G_1_1x"),
    ("tm-custom-christoffel", "bundle_params", '{"G_3_11": 0.5}',
     "bundle_params.G_3_11"),
    # G_1_11_x01 once aliased G_1_11_x1 and ran with slope 0.3 alone
    ("tm-custom-christoffel", "bundle_params",
     '{"G_1_11_x1": 0.5, "G_1_11_x01": 0.3}', "bundle_params.G_1_11_x01"),
    ("flat", "integrator", '{"max_steps": true}', "integrator.max_steps"),
    ("flat", "tolerances", '{"gamma_linearity": NaN}',
     "tolerances.gamma_linearity"),
    ("flat", "tolerances", '{"gamma_linearity": Infinity}',
     "tolerances.gamma_linearity"),
    pytest.param("flat", "tolerances", '{"gamma_linearity": 1%s}'
                 % ("0" * 400), "tolerances.gamma_linearity",
                 id="tolerance-10**400"),
    ("flat", "tolerances", '{"extension_independence": 1e-9}', "tolerances"),
    ("flat", "tolerances", '{"extension_translation_invariance": 1e-9}',
     "tolerances"),
    ("flat", "tolerances", '{"catalog_integrity": 1e-9}', "tolerances"),
    ("flat", "tolerances", '{"natural_derivative_relatedness": 1e-9}',
     "tolerances"),
    ("flat", "tolerances", '{"lift_field_relatedness": 1e-9}', "tolerances"),
    ("flat", "tolerances", '{"lift_tensoriality_in_section": 1e-9}',
     "tolerances"),
    ("flat", "tolerances", '{"curvature_horizontality": 1e-9}', "tolerances"),
    ("flat", "tolerances", '{"cocurvature": 1e-9}', "tolerances"),
    ("flat", "tolerances", '{"geodesic_spray_agreement": 1e-9}', "tolerances"),
])
def test_cli_bad_config_value_exits_2(tmp_path, capsys, bundle, key, value,
                                      field):
    from fibrum.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bundle_name": "%s", "scenario": "curvature-table", '
                   '"scenario_params": {"samples": 1}, "%s": %s}'
                   % (bundle, key, value), encoding="utf-8")
    assert main(["run", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"(field: {field})" in err
    assert "Traceback" not in err


# Each of these once ended in a traceback; a report path in a missing
# directory did so only after the whole scenario had run.
@pytest.mark.parametrize("probe,field", [
    ("missing-file", "config"),
    ("directory", "config"),
    ("not-utf-8", "config"),
    ("output-path-in-missing-dir", "output_path"),
    ("output-path-is-dir", "output_path"),
    ("run-out-in-missing-dir", "out"),
    ("verify-out-in-missing-dir", "out"),
    ("stdin-not-utf-8", "config"),
])
def test_cli_file_error_exits_2(tmp_path, capsys, monkeypatch, probe, field):
    from fibrum import cli

    def must_not_run(cfg):
        raise AssertionError("the scenario ran before the paths were checked")

    monkeypatch.setattr(cli, "run_scenario", must_not_run)
    missing = str(tmp_path / "no-such-dir" / "report.json")
    flat = {"bundle_name": "flat", "scenario": "verify-all"}
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"bundle_name": "fl\xe4t"}')
    # stdin as a C or UTF-8 mode locale sets it up: undecodable bytes
    # become lone surrogates when read as text
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(latin1.read_bytes()), encoding="utf-8",
        errors="surrogateescape"))
    to_missing = tmp_path / "to-missing.json"
    to_missing.write_text(json.dumps({**flat, "output_path": missing}),
                          encoding="utf-8")
    to_dir = tmp_path / "to-dir.json"
    to_dir.write_text(json.dumps({**flat, "output_path": str(tmp_path)}),
                      encoding="utf-8")
    argv = {
        "missing-file": ["run", str(tmp_path / "absent.json")],
        "directory": ["run", str(tmp_path)],
        "not-utf-8": ["run", str(latin1)],
        "stdin-not-utf-8": ["run", "-"],
        "output-path-in-missing-dir": ["run", str(to_missing)],
        "output-path-is-dir": ["run", str(to_dir)],
        "run-out-in-missing-dir": ["run", str(_write(tmp_path, flat)),
                                   "--out", missing],
        "verify-out-in-missing-dir": ["verify", "flat", "--out", missing],
    }[probe]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"(field: {field})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bundle,scenario,params,field", [
    ("sphere", "transport", {"y0": [1.0]}, "y0"),
    ("flat", "geodesic", {"x0": [0.1, 0.2, 0.3]}, "x0"),
    ("sphere", "geodesic", {"v0": []}, "v0"),
    ("sphere", "holonomy", {"latitude": 0.1}, "latitude"),
    ("sphere", "transport", {"latitude": 3.0}, "latitude"),
    ("flat", "holonomy", {"latitude": 1.0}, "latitude"),
    ("flat", "holonomy", {"radius": float("nan")}, "radius"),
    ("flat", "verify-all", {"seed": -1}, "seed"),
    ("flat", "theorem41", {"samples": 2.0}, "samples"),
    ("flat", "holonomy", {"radius": 0}, "radius"),
    ("flat", "holonomy", {"radius": -0.5}, "radius"),
    ("sphere", "holonomy", {"radius": 0.6}, "radius"),
])
def test_scenario_params_checked_before_running(bundle, scenario, params,
                                                field):
    with pytest.raises(ConfigError) as err:
        run_scenario(load_config({"bundle_name": bundle,
                                  "scenario": scenario,
                                  "scenario_params": params}))
    assert err.value.field == f"scenario_params.{field}"


def test_sphere_holonomy_radius_exits_2(tmp_path, capsys):
    # the sphere runs its latitude loop, so a radius would only be echoed
    # in the report as though it had set the loop
    from fibrum.cli import main
    cfg = _write(tmp_path, {"bundle_name": "sphere", "scenario": "holonomy",
                            "scenario_params": {"radius": 0.6}})
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert "(field: scenario_params.radius)" in capsys.readouterr().err


def test_negative_seed_override_exits_2(capsys):
    from fibrum.cli import main
    assert main(["verify", "flat", "--seed", "-1"]) == 2
    assert "(field: seed)" in capsys.readouterr().err


def test_scenario_params_echoed_raw():
    cfg = load_config({"bundle_name": "sphere", "scenario": "geodesic",
                       "scenario_params": {"T": 1, "x0": [1, 0.5]}})
    assert run_scenario(cfg).scenario["scenario_params"] == {
        "T": 1, "x0": [1, 0.5]}


def test_parse_error_reports_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"bundle_name": "flat",\n  scenario:}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "line 2" in str(err.value)


def test_overrides_win(tmp_path):
    p = _write(tmp_path, {"bundle_name": "flat", "scenario": "theorem41",
                          "scenario_params": {"seed": 7, "samples": 2}})
    cfg = load_config(p, seed_override=99, step_override=5e-4,
                      out_override="x.json")
    assert cfg.seed == 99
    assert cfg.step == 5e-4
    assert cfg.output_path == "x.json"
    cfg = load_config(p)
    assert cfg.seed == 7


def test_custom_christoffel_roundtrip(tmp_path):
    # coefficients survive the trip config -> bundle -> evaluation
    p = _write(tmp_path, {
        "bundle_name": "tm-custom-christoffel",
        "scenario": "curvature-table",
        "bundle_params": {"G_1_12": 1.0},
        "scenario_params": {"samples": 2},
    })
    cfg = load_config(p)
    from fibrum import build_connection
    conn = build_connection(cfg.bundle_name, cfg.bundle_params)
    got = conn.gamma([0.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    assert float(got[0]) == 1.0 and float(got[1]) == 0.0
    report = run_scenario(cfg)
    assert report.scenario["bundle_params"] == {"G_1_12": 1.0}


def test_canonical_text_fixed_float_format():
    tree = {"a": 0.1, "b": [1.0, 2, True, None], "c": {"d": "x"},
            "e": float("inf")}
    text = canonical_text(tree)
    assert '"a": 0.10000000000000001' in text
    assert "null" in text  # non-finite reals become null
    json.loads(text)  # stays valid JSON


def _old_format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"  # JSON has no non-finite reals; the note says why
    return format(x, ".17g")


def _old_canonical_text(tree, indent: int = 0) -> str:
    """The serializer ``canonical_text`` replaced, copied verbatim: the
    reference its bytes are held to."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(tree, dict):
        if not tree:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_old_canonical_text(v, indent + 1)}'
                 for k, v in tree.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(tree, (list, tuple)):
        seq = list(tree)
        if not seq:
            return "[]"
        items = [f"{inner}{_old_canonical_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(tree, bool):
        return "true" if tree else "false"
    if tree is None:
        return "null"
    if isinstance(tree, int):
        return str(tree)
    if isinstance(tree, float):
        return _old_format_float(tree)
    return json.dumps(str(tree))


_text = st.one_of(st.text(max_size=6),
                  st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\u00e9",
                                   "\U0001f600", "a\"b\\c"]))
_leaf = st.one_of(st.booleans(), st.none(), st.integers(-10 ** 20, 10 ** 20),
                  st.floats(), st.floats().map(np.float64),
                  st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
                  _text)
_tree = st.recursive(_leaf, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.one_of(_text, st.integers(-3, 3)), kids,
                    max_size=4)), max_leaves=25)


@given(tree=_tree, indent=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_canonical_text_equals_the_old_serializer(tree, indent):
    assert canonical_text(tree, indent) == _old_canonical_text(tree, indent)


@pytest.mark.parametrize("name", list(RUNS))
def test_canonical_text_equals_the_old_serializer_on_pinned_reports(
        name, tmp_path, monkeypatch):
    from fibrum import config
    trees = []
    serializer = config.canonical_text

    def recorded(tree, indent=0):
        if indent == 0:
            trees.append(tree)
        return serializer(tree, indent)

    monkeypatch.setattr(config, "canonical_text", recorded)
    report_sha256(name, tmp_path)
    assert len(trees) == 1
    assert serializer(trees[0]) == _old_canonical_text(trees[0])


_entry = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                    math.nan]), st.floats())


@given(values=st.lists(_entry, min_size=1, max_size=6),
       as_array=st.booleans())
@settings(max_examples=300, deadline=None)
def test_max_abs_bit_equal_to_numpy(values, as_array):
    from fibrum.scenarios import _max_abs
    got = _max_abs(np.array(values) if as_array else values)
    want = float(np.max(np.abs(values)))
    assert type(got) is float
    assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


def test_emit_report_deterministic(tmp_path):
    cfg = load_config({"bundle_name": "nonlinear-demo",
                       "scenario": "theorem41",
                       "scenario_params": {"samples": 3}})
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit_report(r1, p1)
    emit_report(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_shape_and_failure_semantics():
    cfg = load_config({"bundle_name": "flat", "scenario": "theorem41",
                       "scenario_params": {"samples": 3}})
    report = run_scenario(cfg)
    tree = report.to_tree()
    assert set(tree) == {"scenario", "environment", "sign_convention",
                         "checks", "table", "overall_pass"}
    names = [row["check_name"] for row in tree["checks"]]
    assert "curvature_routes_equality" in names
    for row in tree["checks"]:
        assert set(row) == {"check_name", "samples", "max_residual",
                            "tolerance", "pass", "note"}
        assert row["pass"] == (row["max_residual"] <= row["tolerance"])
    assert tree["overall_pass"] == all(r["pass"] for r in tree["checks"])
    # the commutator-route row fails for honest reasons; everything else holds
    fails = {r["check_name"] for r in tree["checks"] if not r["pass"]}
    assert fails == {"curvature_routes_equality"}


def test_empty_checks_report_passes():
    from fibrum.scenarios import VerificationReport
    rep = VerificationReport(scenario={}, environment={}, sign_convention="")
    assert rep.overall_pass
    assert rep.to_tree()["overall_pass"] is True


def test_scenarios_deterministic_rows():
    cfg = load_config({"bundle_name": "nonlinear-demo",
                       "scenario": "curvature-table",
                       "scenario_params": {"samples": 4, "seed": 11}})
    t1 = run_scenario(cfg).to_tree()
    t2 = run_scenario(cfg).to_tree()
    assert canonical_text(t1) == canonical_text(t2)


def test_geodesic_scenario_results():
    cfg = load_config({"bundle_name": "sphere", "scenario": "geodesic",
                       "scenario_params": {"x0": [1.5707963267948966, 0.0],
                                           "v0": [0.0, 1.0], "T": 1.0}})
    report = run_scenario(cfg)
    assert report.overall_pass
    assert abs(report.results["x_final"][0] - math.pi / 2) < 1e-10
    assert abs(report.results["x_final"][1] - 1.0) < 1e-10


def test_too_few_stencil_nodes_fail_the_row():
    # one RK4 step leaves a two-node path: the five-point stencil has no
    # interior node, so the residual rows fail instead of reading 0
    cfg = load_config({"bundle_name": "sphere", "scenario": "geodesic",
                       "integrator": {"step": 1e300}})
    row = run_scenario(cfg).checks[-1]
    assert row.check_name == "geodesic_covariant_residual"
    assert not row.passed
    assert "TooFewSamplesError" in row.note

    rows = {r.check_name: r for r in run_scenario(
        load_config({"bundle_name": "sphere", "scenario": "verify-all",
                     "integrator": {"step": 1e300}})).checks}
    for name in ("transport_covariantly_constant",
                 "geodesic_covariant_residual"):
        assert not rows[name].passed
        assert "TooFewSamplesError" in rows[name].note


def test_holonomy_scenario_sphere():
    cfg = load_config({"bundle_name": "sphere", "scenario": "holonomy"})
    report = run_scenario(cfg)
    assert report.overall_pass
    assert abs(report.results["rotation_angle"] - math.pi) < 1e-4


_HEAD = ["projector_algebra", "gamma_linearity"]
_MIDDLE = ["lift_right_inverse", "split_law", "lift_rank",
           "covariant_tensoriality_in_v",
           "bracket_projectability", "lift_route_internal_identity",
           "curvature_verticality", "curvature_antisymmetry",
           "curvature_tensoriality",
           "curvature_routes_equality", "bracket_expansion_identity"]
_FLATNESS = ["flatness_via_lifts", "flatness_via_covariant"]
_LINEAR_CURVATURE = ["leibniz_rule", "composition_commutator_curvature"]
_TRANSPORT = ["rk4_order", "flow_group_law", "transport_roundtrip",
              "transport_covariantly_constant", "flow_algebra_bridge_order"]
_GEODESIC = ["geodesic_covariant_residual"]
_LATITUDE = ["holonomy_latitude_angle", "holonomy_oracle_agreement",
             "metric_compatibility"]
_LINEAR = ["gamma_fibre_linearity"]
_TORSION_FORM = ["second_derivative_torsion_form"]
_DEGREE_ONE = {"G_1_12": 0.1, "G_2_11_x1": -0.05, "G_1_22": 0.07}


@pytest.mark.parametrize("bundle, params, expected", [
    ("flat", {}, _HEAD + _LINEAR + _MIDDLE + _FLATNESS + _LINEAR_CURVATURE
     + _TORSION_FORM + _TRANSPORT + _GEODESIC + ["holonomy_flat_loop"]),
    ("flat", {"m": 3, "f": 1}, _HEAD + _LINEAR + _MIDDLE + _FLATNESS
     + _LINEAR_CURVATURE + _TRANSPORT + ["holonomy_flat_loop"]),
    ("sphere", {}, _HEAD + _LINEAR + _MIDDLE + _LINEAR_CURVATURE
     + _TORSION_FORM + ["torsion_symmetric"] + _TRANSPORT + _GEODESIC
     + _LATITUDE),
    ("nonlinear-demo", {}, _HEAD + _MIDDLE + _TRANSPORT),
    ("tm-custom-christoffel", {}, _HEAD + _LINEAR + _MIDDLE
     + _LINEAR_CURVATURE + _TORSION_FORM + _TRANSPORT + _GEODESIC),
    ("tm-custom-christoffel", _DEGREE_ONE, _HEAD + _LINEAR + _MIDDLE
     + _LINEAR_CURVATURE + _TORSION_FORM + _TRANSPORT + _GEODESIC),
])
def test_verify_all_rows_follow_capabilities(bundle, params, expected):
    # read from the check table without running any check
    from fibrum.scenarios import CHECKS, Subject
    sub = Subject(load_config({"bundle_name": bundle, "bundle_params": params,
                               "scenario": "verify-all"}))
    assert [c.name for c in CHECKS.values() if c.applies(sub)] == expected


@pytest.mark.parametrize("fibre_half, passed", [(4.0, True), (1.05, False)])
def test_sphere_latitude_path_integrated_once(monkeypatch, fibre_half,
                                              passed):
    # the three latitude rows read one transport of the latitude loop at
    # the configured step, and none integrates it at a finer one; a chart
    # exit is not kept, so on a fibre box the loop leaves, each row
    # integrates and fails on its own
    from fibrum import transport
    step = 0.01
    original = transport._rk4
    spans = []

    def hooked(rhs, z0, span, cfg, *args, **kwargs):
        spans.append((span, cfg.step))
        return original(rhs, z0, span, cfg, *args, **kwargs)

    monkeypatch.setattr(transport, "_rk4", hooked)
    report = run_scenario(load_config({
        "bundle_name": "sphere", "bundle_params": {"fibre_half": fibre_half},
        "scenario": "verify-all", "integrator": {"step": step}}))
    rows = {r.check_name: r for r in report.checks}
    loop_steps = [h for span, h in spans if span == 2.0 * math.pi]
    assert loop_steps == [step] * (1 if passed else 3)
    assert all(h != step / 16.0 for _, h in spans)
    for name in _LATITUDE:
        assert rows[name].passed is passed
        assert ("ChartExitError" in rows[name].note) is not passed


def _latitude_rows(theta0: float, step: float, **extra) -> dict:
    """The three latitude rows of the sphere transport scenario."""
    report = run_scenario(load_config({
        "bundle_name": "sphere", "scenario": "transport",
        "scenario_params": {"latitude": theta0},
        "integrator": {"step": step}, **extra}))
    return {r.check_name: r for r in report.checks
            if r.check_name in _LATITUDE}


def _rk4_phase_error(theta0: float, step: float) -> float:
    """RK4's phase error around the latitude loop, N (h omega)^5 / 120:
    transport is a rotation at rate omega = cos(theta0) over N steps of h."""
    n = math.ceil(2.0 * math.pi / step)
    h = 2.0 * math.pi / n
    return n * (h * abs(math.cos(theta0))) ** 5 / 120.0


def _rk4_norm_loss(theta0: float, step: float) -> float:
    """RK4's loss of squared norm around the latitude loop, 2 N (h omega)^6
    / 144: each step takes at most (h omega)^6 / 72 off the squared norm."""
    n = math.ceil(2.0 * math.pi / step)
    h = 2.0 * math.pi / n
    return 2.0 * n * (h * abs(math.cos(theta0))) ** 6 / 144.0


@pytest.mark.parametrize("theta0", [0.3, 0.4, 1.0, math.pi / 3, 2.5, 2.8])
def test_latitude_bound_is_derived_and_tight(theta0):
    # all three latitude rows pass under their derived bound at every step;
    # where RK4's error (phase for the angle rows, squared modulus for
    # metric_compatibility, whose y0 = (1, 0) has unit norm) is above
    # round-off they read it to 5%, and where they read more than round-off
    # they use >= 30% of the bound.  At pi/3 the holonomy is pi, where acos
    # of the cosine read the 1.3e-9 error at step 0.03 as 8.9e-16
    for step in (1e-3, 3e-3, 1e-2, 0.03, 0.1, 0.3):
        n = math.ceil(2.0 * math.pi / step)
        phase = _rk4_phase_error(theta0, step)
        norm = _rk4_norm_loss(theta0, step)
        eps = sys.float_info.epsilon
        rows = _latitude_rows(theta0, step)
        for name, predicted, bound in (
                ("holonomy_latitude_angle", phase,
                 2.0 * phase + (n + 801) * eps),
                ("holonomy_oracle_agreement", phase,
                 2.0 * phase + (n + 801) * eps),
                ("metric_compatibility", norm, norm + 2.0 * (n + 1) * eps)):
            row = rows[name]
            assert row.tolerance == bound, row
            assert row.passed, (theta0, step, row)
            if predicted > 1e-12:
                assert abs(row.max_residual / predicted - 1.0) < 0.05, row
            if row.max_residual > 1e-12:
                assert row.max_residual >= 0.3 * bound, (theta0, step, row)


def test_latitude_tolerance_entry_overrides_derived_bound():
    rows = _latitude_rows(0.4, 0.1, tolerances={
        "holonomy_oracle_agreement": 1e-9})
    assert rows["holonomy_oracle_agreement"].tolerance == 1e-9
    assert not rows["holonomy_oracle_agreement"].passed  # error 3.4e-6
    assert rows["holonomy_latitude_angle"].passed


def test_metric_compatibility_reads_the_end_node():
    # RK4 loses modulus at every step of the loop, so the end node holds
    # the largest loss, which the derived bound is sized for; at step 0.01
    # the strided nodes stop two short of it
    from fibrum import (IntegratorConfig, build_connection, dot,
                        latitude_loop, mat_vec, parallel_transport_path,
                        sphere_metric)
    from fibrum.catalog import CATALOG
    theta0, y0 = CATALOG["sphere"]["capabilities"].latitude_holonomy
    conn = build_connection("sphere")
    loop = latitude_loop(conn.bundle, theta0)
    _, path = parallel_transport_path(conn, loop, y0,
                                      IntegratorConfig(step=0.01))

    def norm(t, y):
        return float(dot(mat_vec(sphere_metric(loop.fn(t)), y), y))

    end_loss = abs(norm(*path[-1]) - norm(*path[0]))
    row = _latitude_rows(theta0, 0.01)["metric_compatibility"]
    assert row.passed
    assert row.max_residual >= end_loss > 0.0, row


def _scale_sphere_christoffels(monkeypatch, theta_row: float,
                               phi_row: float) -> None:
    """Build the catalog sphere with -sin cos scaled by ``theta_row`` and
    cot by ``phi_row``: each is the only factor of its row of gamma."""
    from fibrum.catalog import CATALOG, make_sphere
    from fibrum.connection import ConnectionField, ConnectionKind

    def build(**params):
        conn = make_sphere(**params)

        def gamma(x, y, v):
            g = conn.gamma(x, y, v)
            return [theta_row * g[0], phi_row * g[1]]
        return ConnectionField(conn.bundle, gamma, ConnectionKind.LINEAR)

    monkeypatch.setitem(CATALOG["sphere"], "builder", build)


@pytest.mark.parametrize("theta_row, phi_row, red", [
    (1.0, 1.0 + 1e-9, _LATITUDE),
    (1.0, 1.001, _LATITUDE),
    (-1.0, 1.0, _LATITUDE),
])
def test_latitude_rows_catch_sphere_christoffel_mutants(monkeypatch,
                                                        theta_row, phi_row,
                                                        red):
    # at the default step and latitude, where the unscaled sphere passes
    # all three (the pinned `run sphere transport` report)
    _scale_sphere_christoffels(monkeypatch, theta_row, phi_row)
    report = run_scenario(load_config({"bundle_name": "sphere",
                                       "scenario": "transport"}))
    rows = {r.check_name: r for r in report.checks}
    for name in red:
        assert not rows[name].passed, rows[name]


def test_transport_scenario_flat():
    cfg = load_config({"bundle_name": "flat", "scenario": "transport"})
    report = run_scenario(cfg)
    assert report.overall_pass
    assert report.results["roundtrip_residual"] <= 1e-8


# -- CLI ----------------------------------------------------------------------

def _cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "fibrum.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_cli_run_reads_stdin(tmp_path):
    import os
    rep = tmp_path / "rep.json"
    cfg = json.dumps({"bundle_name": "nonlinear-demo",
                      "scenario": "curvature-table",
                      "scenario_params": {"samples": 1},
                      "output_path": str(rep)})
    out = subprocess.run([sys.executable, "-m", "fibrum.cli", "run", "-",
                          "--quiet"], input=cfg, capture_output=True,
                         text=True, env=dict(os.environ))
    assert out.returncode == 0
    assert rep.exists()


def test_cli_catalog_lists_bundles():
    out = _cli("catalog")
    assert out.returncode == 0
    for name in ("flat", "sphere", "nonlinear-demo", "tm-custom-christoffel"):
        assert name in out.stdout
    assert ("tm-custom-christoffel: base_dim=2 fibre_dim=2 params=['m', "
            "'base_half', 'fibre_half', 'G_a_bc[_xk]...']") in out.stdout


def test_cli_config_error_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    out = _cli("run", str(p))
    assert out.returncode == 2
    assert "config error" in out.stderr
    out = _cli("verify", "torus")
    assert out.returncode == 2


def test_cli_run_scenario_and_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bundle_name": "sphere", "scenario": "holonomy",
        "output_path": str(tmp_path / "rep.json")}), encoding="utf-8")
    out = _cli("run", str(cfg))
    assert out.returncode == 0
    assert (tmp_path / "rep.json").exists()
    tree = json.loads((tmp_path / "rep.json").read_text())
    assert tree["overall_pass"] is True


def test_cli_holonomy_nonlinear_default_stays_in_chart(tmp_path):
    # the default y0 must stay inside nonlinear-demo's fibre box all around
    # the default loop, so the run exits 0
    cfg = _write(tmp_path, {"bundle_name": "nonlinear-demo",
                            "scenario": "holonomy",
                            "output_path": str(tmp_path / "rep.json")})
    out = _cli("run", str(cfg), "--quiet")
    assert out.returncode == 0, out.stdout
    tree = json.loads((tmp_path / "rep.json").read_text())
    assert tree["results"]["displacement"] > 0.01


@pytest.mark.parametrize("bundle, m, code", [
    ("flat", 3, 0), ("tm-custom-christoffel", 3, 0), ("flat", 1, 2)])
def test_cli_holonomy_on_any_base_dimension(tmp_path, capsys, bundle, m,
                                            code):
    # the circle loop turns in the first two base coordinates, so every
    # base with m >= 2 has one; on m = 1 the scenario is a config error
    from fibrum.cli import main
    cfg = _write(tmp_path, {"bundle_name": bundle, "bundle_params": {"m": m},
                            "scenario": "holonomy"})
    assert main(["run", str(cfg), "--quiet"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("(field: scenario)" in err) is (code == 2)


def test_cli_transport_rejects_radius(tmp_path):
    cfg = _write(tmp_path, {"bundle_name": "flat", "scenario": "transport",
                            "scenario_params": {"radius": 0.5}})
    out = _cli("run", str(cfg))
    assert out.returncode == 2
    assert "scenario_params" in out.stderr


def test_cli_seed_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bundle_name": "nonlinear-demo", "scenario": "curvature-table",
        "scenario_params": {"samples": 2},
        "output_path": str(tmp_path / "rep.json")}), encoding="utf-8")
    _cli("run", str(cfg), env={"FIBRUM_SEED": "5"})
    env_tree = json.loads((tmp_path / "rep.json").read_text())
    assert env_tree["environment"]["seed"] == 5
    _cli("run", str(cfg), "--seed", "9", env={"FIBRUM_SEED": "5"})
    flag_tree = json.loads((tmp_path / "rep.json").read_text())
    assert flag_tree["environment"]["seed"] == 9


def test_cli_malformed_env_seed_names_its_field(monkeypatch, capsys):
    from fibrum.cli import main
    monkeypatch.setenv("FIBRUM_SEED", "abc")
    assert main(["verify", "flat", "--quiet"]) == 2
    assert "(field: FIBRUM_SEED)" in capsys.readouterr().err


def test_cli_bad_tolerance_fails_named_check(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bundle_name": "flat", "scenario": "curvature-table",
        "scenario_params": {"samples": 1},
        "tolerances": {"gamma_linearity": -1.0},
        "output_path": str(tmp_path / "rep.json")}), encoding="utf-8")
    out = _cli("run", str(cfg))
    assert out.returncode == 1
    tree = json.loads((tmp_path / "rep.json").read_text())
    bad = [r for r in tree["checks"] if not r["pass"]]
    assert [r["check_name"] for r in bad] == ["gamma_linearity"]


# Each of these once ended in an OverflowError traceback (exit 1): a step
# count past the float range (the first four), a base box too wide to
# sample, and gamma's y**3 on a fibre box of half-width 1e200.
_OVERFLOWS = [
    pytest.param(["verify", "sphere", "--step", "1e-320"], None,
                 id="verify-sphere-step"),
    pytest.param(["verify", "flat", "--step", "1e-320"], None,
                 id="verify-flat-step"),
    pytest.param(["run"], {"bundle_name": "flat", "scenario": "transport",
                           "integrator": {"step": 1e-320}},
                 id="transport-flat-step"),
    pytest.param(["run"], {"bundle_name": "sphere", "scenario": "geodesic",
                           "scenario_params": {"T": 1e308}},
                 id="geodesic-sphere-T"),
    pytest.param(["run"], {"bundle_name": "flat", "scenario": "verify-all",
                           "bundle_params": {"base_half": 1e308}},
                 id="verify-all-flat-base_half"),
    pytest.param(["run"], {"bundle_name": "nonlinear-demo",
                           "scenario": "verify-all",
                           "bundle_params": {"fibre_half": 1e200}},
                 id="verify-all-nonlinear-demo-fibre_half"),
]


@pytest.mark.parametrize("argv, config", _OVERFLOWS)
def test_cli_overflowing_inputs_exit_1(tmp_path, capsys, argv, config):
    from fibrum.cli import main
    if config is not None:
        argv = argv + [str(_write(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "rep.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_cli_uncountable_latitude_steps_fail_only_their_rows(tmp_path,
                                                             capsys):
    # the latitude rows derive their tolerance from the step count, so a
    # count past the float range fails those rows, with no tolerance, and
    # the report of every row is still written
    from fibrum.cli import main
    rep = tmp_path / "rep.json"
    assert main(["verify", "sphere", "--step", "1e-320", "--quiet",
                 "--out", str(rep)]) == 1
    assert capsys.readouterr().err == ""
    rows = {r["check_name"]: r for r in json.loads(rep.read_text())["checks"]}
    latitude = ["holonomy_latitude_angle", "holonomy_oracle_agreement",
                "metric_compatibility"]
    for name in latitude:
        assert rows[name]["tolerance"] is None
        assert not rows[name]["pass"]
        assert rows[name]["note"].startswith("StepBudgetError: ")
    assert rows["projector_algebra"]["pass"]
    assert len(rows) > len(latitude)


@pytest.mark.parametrize("scenario", ["holonomy", "transport"])
def test_cli_default_y0_of_an_overflowing_fibre_box_is_an_error(
        tmp_path, capsys, scenario):
    # the default start element is the fibre box's centre plus a share of
    # its width, and a width past the float range is a named error, not an
    # overflow warning and an infinite start
    import warnings
    from fibrum.cli import main
    path = _write(tmp_path, {"bundle_name": "tm-custom-christoffel",
                             "scenario": scenario,
                             "bundle_params": {"fibre_half": 1e308}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--quiet",
                     "--out", str(tmp_path / "rep.json")]) == 1
    assert capsys.readouterr().err \
        == "error: Range exceeds valid bounds\n"
    assert not (tmp_path / "rep.json").exists()
    # a given y0 needs no default: the loop runs, and only the head row,
    # whose draws span the fibre box, fails
    path = _write(tmp_path, {"bundle_name": "tm-custom-christoffel",
                             "scenario": scenario,
                             "bundle_params": {"fibre_half": 1e308},
                             "scenario_params": {"y0": [0.1, 0.2]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--quiet",
                     "--out", str(tmp_path / "rep.json")]) == 1
    rows = json.loads((tmp_path / "rep.json").read_text())["checks"]
    assert [r["pass"] for r in rows] == [False, True]
    assert rows[0]["note"] == "OverflowError: Range exceeds valid bounds"


_EXTREME = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 1e-320, 1e-300, 1e308, -1e308]))


@st.composite
def _extreme_configs(draw):
    """A config of a cheap scenario on a catalog bundle, with extreme
    finite reals in the step, T, radius, latitude, the half-widths and the
    vector entries; the step, radius and half-widths are mostly positive
    and latitude or radius only go where they apply, so that most configs
    get past validation.  m and f stay small (a huge m builds m-long
    tuples) and max_steps at most 20,000, so no example runs for long."""
    bundle = draw(st.sampled_from(sorted(CATALOG)))
    scenario = draw(st.sampled_from(["transport", "geodesic", "holonomy",
                                     "theorem41"]))
    params = {}
    for name in draw(st.lists(st.sampled_from(
            sorted(set(CATALOG[bundle]["params"]) & {"m", "f", "base_half",
                                                       "fibre_half"})),
            unique=True)):
        params[name] = draw(st.integers(1, 4) if name in ("m", "f")
                            else _EXTREME.map(abs))
    m = params.get("m", 2)
    f = {"flat": params.get("f", 2), "nonlinear-demo": 1}.get(bundle, m)
    vectors = {"x0": m, "v0": m, "y0": f}
    optional = {"transport": ["y0"], "geodesic": ["x0", "v0", "T"],
                "holonomy": ["radius", "y0"], "theorem41": ["seed"]}[scenario]
    if bundle == "sphere" and scenario in ("transport", "holonomy"):
        optional = ["latitude", "y0"]
    scenario_params = {}
    if scenario == "theorem41":
        scenario_params["samples"] = draw(st.integers(1, 2))
    for name in draw(st.lists(st.sampled_from(optional), unique=True)):
        if name == "seed":
            scenario_params[name] = draw(st.integers(0, 2**64))
        elif name in vectors:
            n = vectors[name]
            scenario_params[name] = draw(st.lists(_EXTREME, min_size=n,
                                                  max_size=n))
        else:
            scenario_params[name] = draw(_EXTREME.map(abs)
                                         if name == "radius" else _EXTREME)
    integrator = {"max_steps": draw(st.integers(1, 20_000))}
    if draw(st.booleans()):
        integrator["step"] = draw(_EXTREME.map(abs))
    return {"bundle_name": bundle, "bundle_params": params,
            "scenario": scenario, "scenario_params": scenario_params,
            "integrator": integrator}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(config=_extreme_configs())
@example(config={"bundle_name": "sphere", "scenario": "verify-all",
                 "integrator": {"step": 1e-320}})
@example(config={"bundle_name": "flat", "scenario": "verify-all",
                 "integrator": {"step": 1e-320}})
@example(config=_OVERFLOWS[2].values[1])
@example(config=_OVERFLOWS[3].values[1])
@example(config=_OVERFLOWS[4].values[1])
@example(config=_OVERFLOWS[5].values[1])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_cli_extreme_inputs_end_in_an_exit_status(fuzz_dir, config):
    # an input never ends in a traceback: a check failure exits 1 and a
    # config error 2
    from fibrum.cli import main
    path = _write(fuzz_dir, config)
    assert main(["run", str(path), "--quiet",
                 "--out", str(fuzz_dir / "rep.json")]) in (0, 1, 2)
