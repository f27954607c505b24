"""Config validation, report determinism, and the CLI contract."""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from shadowlab import harness, shifts
from shadowlab.cli import main
from shadowlab.errors import ConfigError
from shadowlab.harness import (
    EXPERIMENTS,
    parameter_schema,
    run_config,
    to_jsonable,
    validate_config,
)
from shadowlab.profinite import chain_from_csv
from shadowlab.shifts import DyadicDistance
from shadowlab.torus import (
    PerturbedMap,
    conjugacy_points,
    random_displacement,
    random_grid,
    spectral_splitting,
)


def _trace_config(**overrides):
    params = {"group": "integer-line", "sft": "golden-mean",
              "radius": 4, "epsilon_exponent": 3}
    params.update(overrides)
    return {"experiment": "sft-trace", "seed": 7, "parameters": params}


def test_validate_accepts_a_plain_config():
    validate_config(_trace_config())


def test_validate_rejects_unknown_experiment():
    cfg = {"experiment": "bogus", "seed": 0, "parameters": {}}
    with pytest.raises(ConfigError, match="experiment"):
        validate_config(cfg)


def test_validate_error_names_the_offending_path():
    with pytest.raises(ConfigError, match="radius"):
        validate_config(_trace_config(radius=99))
    with pytest.raises(ConfigError, match="uniqueness/eta"):
        validate_config(_trace_config(uniqueness={"eta": 5}))


def test_validate_rejects_stray_keys():
    cfg = _trace_config()
    cfg["parameters"]["typo"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = _trace_config()
    cfg["extra"] = {}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_parameter_schema_lookup():
    for name in EXPERIMENTS:
        schema = parameter_schema(name)
        assert schema["additionalProperties"] is False
    with pytest.raises(ConfigError):
        parameter_schema("nope")


def test_every_config_schema_is_a_valid_schema():
    """The compiled validators never check their schemas, so this does."""
    from jsonschema.exceptions import SchemaError
    from jsonschema.validators import validator_for

    assert set(harness._PARAMETER_SCHEMAS) == set(EXPERIMENTS)
    for schema in (harness.CONFIG_SCHEMA, *harness._PARAMETER_SCHEMAS.values()):
        validator_for(schema).check_schema(schema)
    broken = {"type": "object", "properties": {"n": {"minimum": "0"}}}
    with pytest.raises(SchemaError):
        validator_for(broken).check_schema(broken)


def _oracle_error(config):
    """validate_config's message as two ``jsonschema.validate`` calls give
    it, or None for a valid config."""
    import jsonschema

    try:
        jsonschema.validate(config, harness.CONFIG_SCHEMA)
        jsonschema.validate(config["parameters"],
                            parameter_schema(config["experiment"]))
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<top>"
        return f"config invalid at {where}: {exc.message}"
    return None


def _valid_configs():
    """Every README config and every golden config."""
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```json\n(.*?)```", (root / "README.md").read_text(),
                        re.S)
    readme = [json.loads(b) for b in blocks if "..." not in b]
    spec = importlib.util.spec_from_file_location(
        "golden_configs", Path(__file__).with_name("test_golden.py"))
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return readme + [config for config, _ in golden.GOLDEN.values()]


_WRONG_TYPES = (None, True, "x", 1.5, -3, [], {})


def _variants(value, schema):
    """Values to put in place of ``value``, which ``schema`` checks: wrong
    types, values out of range or outside an enum, and, inside an object or
    an array, each member's variants, a required key dropped and an
    unknown key added."""
    yield from _WRONG_TYPES
    if "minimum" in schema:
        yield schema["minimum"] - 1
    if "maximum" in schema:
        yield schema["maximum"] + 1
    if "exclusiveMinimum" in schema:
        yield schema["exclusiveMinimum"]
    if "enum" in schema:
        yield "not-a-member"
        yield from (v for v in schema["enum"] if v != value)
    if isinstance(value, list) and value:
        yield value[:schema.get("minItems", 1) - 1]
        yield value + value[:1]
        for v in _variants(value[0], schema.get("items", {})):
            yield [v, *value[1:]]
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield {k: v for k, v in value.items() if k != key}
        yield {**value, "unknown_key": 1}
        for key, member in value.items():
            for v in _variants(member, schema.get("properties", {}).get(key, {})):
                yield {**value, key: v}


def _two_faults(value, schema):
    """``value`` with two of its members faulted at once, here and in every
    nested object: each by None (a wrong type at its own depth) or by the
    last, innermost of its variants, so that the errors can lie at one
    depth or at two and ``best_match`` has to choose between them."""
    members = schema.get("properties", {})
    faults = {key: (None, list(_variants(member, members.get(key, {})))[-1])
              for key, member in value.items()}
    for a, b in itertools.combinations(faults, 2):
        for fa, fb in itertools.product(faults[a], faults[b]):
            yield {**value, a: fa, b: fb}
    for key, member in value.items():
        if isinstance(member, dict):
            for faulted in _two_faults(member, members.get(key, {})):
                yield {**value, key: faulted}


def test_compiled_validators_give_the_jsonschema_validate_messages(monkeypatch):
    """Over more than a thousand mutated README and golden configs, each
    ConfigError text (or its absence) equals the one two
    ``jsonschema.validate`` calls give."""
    from jsonschema.validators import validator_for

    # the schemas are checked in their own test; checking them again on each
    # of the oracle's calls only makes the oracle slow
    monkeypatch.setattr(validator_for(harness.CONFIG_SCHEMA), "check_schema",
                        classmethod(lambda cls, schema: None))
    checked = faults = 0
    for config in _valid_configs():
        validate_config(config)
        params = harness.CONFIG_SCHEMA["properties"]
        schema = {**harness.CONFIG_SCHEMA, "properties": {
            **params, "parameters": parameter_schema(config["experiment"])}}
        for mutated in itertools.chain(_variants(config, schema),
                                       _two_faults(config, schema)):
            if not isinstance(mutated, dict):
                continue
            want = _oracle_error(mutated)
            try:
                validate_config(mutated)
                got = None
            except ConfigError as exc:
                got = str(exc)
            assert got == want, mutated
            checked += 1
            faults += want is not None
    assert faults >= 1000, (checked, faults)


def test_jsonable_rendering():
    assert to_jsonable(DyadicDistance(3, False)) == {"marker": False,
                                                     "value": "1/8"}
    assert to_jsonable(Fraction(3, 4)) == "3/4"
    assert to_jsonable((1, [2, Fraction(1, 2)])) == [1, [2, "1/2"]]
    assert json.dumps(to_jsonable({"d": DyadicDistance(2, True)}))


def test_reports_are_deterministic():
    cfg = _trace_config()
    first, ok1 = run_config(cfg)
    second, ok2 = run_config(cfg)
    assert ok1 and ok2
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    # a different seed moves the perturbations but not the verdict
    third, ok3 = run_config({**cfg, "seed": 8})
    assert ok3
    assert json.dumps(first, sort_keys=True) != json.dumps(third,
                                                           sort_keys=True)


def test_trace_run_report_shape():
    report, ok = run_config(_trace_config())
    assert ok and report["passed"]
    res = report["results"]
    assert res["modulus"] == 4
    assert res["delta"] == "1/32"
    assert res["step_condition_holds"] and res["trace_passed"]
    assert res["trace_admissible"]
    assert res["checks_passed"] == res["checks_total"] > 0
    assert report["parameters"] == _trace_config()["parameters"]


def test_trace_run_with_uniqueness_gate():
    cfg = {"experiment": "sft-trace", "seed": 3,
           "parameters": {"group": "integer-line", "sft": "full-shift",
                          "radius": 4, "epsilon_exponent": 3, "modulus": 2,
                          "uniqueness": {"eta": "1/2", "scan_radius": 4}}}
    report, ok = run_config(cfg)
    assert ok
    uniq = report["results"]["uniqueness"]
    assert uniq["applicable"]
    assert uniq["multiplicity"] == 1
    assert uniq["multiplicity_within_core"] == 1


def test_trace_rejects_modulus_inside_window():
    cfg = _trace_config(modulus=1)  # golden mean window radius is 1
    with pytest.raises(ConfigError, match="window radius"):
        run_config(cfg)


def test_trace_rejects_a_uniqueness_scan_beyond_the_field():
    cfg = _trace_config(uniqueness={"eta": "1/2", "scan_radius": 5})
    with pytest.raises(ConfigError, match=r"uniqueness\.scan_radius 5 exceeds "
                                          r"the field radius 4"):
        run_config(cfg)
    report, _ = run_config(_trace_config(uniqueness={"eta": "1/2", "scan_radius": 4}))
    assert report["results"]["uniqueness"]["scan_radius"] == 4


def test_trace_rejects_a_scan_beyond_the_field_before_generating(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the field was generated")

    monkeypatch.setattr(harness, "generate_pseudo_orbit", unreachable)
    with pytest.raises(ConfigError, match=r"^scan_radius 6 exceeds the field "
                                          r"radius 4$"):
        run_config(_trace_config(scan_radius=6))


def test_synthesize_run_round_trips_the_window():
    cfg = {"experiment": "sft-synthesize", "seed": 0,
           "parameters": {"group": "integer-line", "sft": "golden-mean",
                          "modulus": 2, "slack": 2, "agreement_radius": 5,
                          "exact_cross_check": True}}
    report, ok = run_config(cfg)
    assert ok
    res = report["results"]
    assert res["presentations_agree"] and res["slack_matches_exact"]
    assert res["window_radius"] == 3
    assert res["allowed_count"] == res["exact_count"]


def test_window_run_flip_and_exhaustive_agree():
    base = {"group": "integer-line", "eta": "1/2", "epsilon_exponent": 3,
            "test_radius": 5, "max_window": 8}
    flip, ok1 = run_config({"experiment": "expansiveness-window", "seed": 0,
                            "parameters": {**base, "method": "flip"}})
    exact, ok2 = run_config({"experiment": "expansiveness-window", "seed": 0,
                             "parameters": {**base, "method": "exhaustive"}})
    assert ok1 and ok2
    assert flip["results"]["window"] == exact["results"]["window"] == 3
    check = exact["results"]["exhaustive_check"]
    assert check["ok"] and check["subsets_checked"] == 2 ** 11 - 1


def _window_config(**overrides):
    params = {"group": "integer-line", "eta": "1/2", "epsilon_exponent": 3,
              "test_radius": 4, "max_window": 4, "method": "flip"}
    params.update(overrides)
    return {"experiment": "expansiveness-window", "seed": 0, "parameters": params}


_BAD_ETAS = ["1/0", "-1/2", "0", "half"]


def _eta_configs(eta):
    """A window config and a uniqueness-gated trace config with this eta,
    each with the key the refusal must name."""
    return [("eta", _window_config(eta=eta)),
            ("uniqueness.eta", _trace_config(uniqueness={"eta": eta}))]


@pytest.mark.parametrize("eta", _BAD_ETAS)
def test_eta_must_be_a_positive_fraction(eta):
    for key, cfg in _eta_configs(eta):
        with pytest.raises(ConfigError, match=rf"^{key} must be a positive "
                                              rf"fraction, got '{eta}'$"):
            run_config(cfg)
    report, _ = run_config(_window_config(eta="1"))
    assert report["results"]["eta"] == "1"


@pytest.mark.parametrize("method", ["flip", "exhaustive"])
def test_flip_and_exhaustive_refuse_an_sft_other_than_the_full_shift(method):
    with pytest.raises(ConfigError, match=rf"^method {method} is complete only "
                                          r"on the full shift, not sft golden-mean"):
        run_config(_window_config(method=method, sft="golden-mean"))
    full, _ = run_config(_window_config(method=method, sft="full-shift"))
    assert full["results"] == run_config(_window_config(method=method))[0]["results"]


def test_window_run_fails_when_capped_too_low():
    cfg = {"experiment": "expansiveness-window", "seed": 0,
           "parameters": {"group": "integer-line", "eta": "1/2",
                          "epsilon_exponent": 3, "test_radius": 5,
                          "max_window": 0, "method": "flip"}}
    report, ok = run_config(cfg)
    assert not ok and report["results"]["window"] is None


def test_toral_run_passes_and_writes_grid(tmp_path):
    grid = tmp_path / "grid.csv"
    cfg = {"experiment": "toral-stability", "seed": 11,
           "parameters": {"matrix": [[2, 1], [1, 1]], "amplitude": 1e-3,
                          "window": 24, "grid_points": 128},
           "output": {"grid_csv": str(grid)}}
    report, ok = run_config(cfg)
    assert ok
    res = report["results"]
    assert res["certificate"]["verdict"] == "expansive"
    assert res["stability"]["displacement_within_bound"]
    assert res["stability"]["collisions"] == 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,h0,h1"
    assert len(lines) == 129
    # the written h columns are the conjugacy on the same grid, bit for bit
    rng = Random(11)
    A = ((2, 1), (1, 1))
    disp = random_displacement(2, 1e-3, rng)
    pts = random_grid(2, 128, rng)
    h_pts, _ = conjugacy_points(A, PerturbedMap(A, disp),
                                spectral_splitting(A), pts, 24)
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    assert np.array_equal(rows[:, :2], pts)
    assert np.array_equal(rows[:, 2:], h_pts)


# Run in a fresh interpreter, so that no other test's imports leak in: the
# package and its CLI load neither scipy nor jsonschema until a toral run or
# a config validation needs them.
_LAZY_IMPORTS = """\
import json, sys
import shadowlab, shadowlab.harness, shadowlab.cli
print(json.dumps(sorted(m for m in ("scipy", "jsonschema") if m in sys.modules)))
shadowlab.validate_config(json.loads(sys.argv[1]))
report, passed = shadowlab.run_config(json.loads(sys.argv[2]))
print(json.dumps(passed))
sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\\n")
"""


def test_fresh_import_defers_scipy_and_jsonschema():
    readme = {"experiment": "sft-trace", "seed": 7,
              "parameters": {"group": "integer-line", "sft": "golden-mean",
                             "radius": 8, "epsilon_exponent": 3,
                             "mode": "perturbed_orbit", "inner_radius": 8}}
    cat = {"experiment": "toral-stability", "seed": 5,
           "parameters": {"matrix": [[2, 1], [1, 1]], "amplitude": 1e-3,
                          "window": 30, "grid_points": 256}}
    path = [str(Path(harness.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS,
                           json.dumps(readme), json.dumps(cat)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded, passed, report = proc.stdout.split("\n", 2)
    assert json.loads(loaded) == []
    assert json.loads(passed) is True
    # the same bytes as a run in this process
    expected, _ = run_config(cat)
    assert report == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_toral_run_fails_on_non_expansive_matrix():
    cfg = {"experiment": "toral-stability", "seed": 0,
           "parameters": {"matrix": [[1, 1], [0, 1]], "amplitude": 1e-3,
                          "window": 8, "grid_points": 16}}
    report, ok = run_config(cfg)
    assert not ok
    assert report["results"]["certificate"]["verdict"] == "not_expansive"
    assert "stability" not in report["results"]


def test_cantor_chain_run_writes_csv(tmp_path):
    out = tmp_path / "chain.csv"
    cfg = {"experiment": "cantor-trace", "seed": 2,
           "parameters": {"system": "chain",
                          "chain": {"kind": "odometer", "base": 2,
                                    "depth": 10},
                          "radius": 4, "modulus": 4, "trials": 3},
           "output": {"chain_csv": str(out)}}
    report, ok = run_config(cfg)
    assert ok
    assert report["results"]["certificate"]["found"]
    back = chain_from_csv(str(out))
    assert back.level_sizes == tuple(2 ** n for n in range(11))


def test_cantor_csv_chain_round_trip(tmp_path):
    out = tmp_path / "chain.csv"
    cfg = {"experiment": "cantor-trace", "seed": 2,
           "parameters": {"system": "chain",
                          "chain": {"kind": "odometer", "base": 3, "depth": 8},
                          "radius": 3, "modulus": 3},
           "output": {"chain_csv": str(out)}}
    _, ok = run_config(cfg)
    assert ok
    cfg2 = {"experiment": "cantor-trace", "seed": 4,
            "parameters": {"system": "chain",
                           "chain": {"kind": "csv", "path": str(out)},
                           "radius": 3, "modulus": 3}}
    report, ok2 = run_config(cfg2)
    assert ok2
    assert report["results"]["level_sizes"] == [3 ** n for n in range(9)]


def test_cantor_necklace_run_reports_no_modulus():
    cfg = {"experiment": "cantor-trace", "seed": 0,
           "parameters": {"system": "necklace", "width": 10,
                          "epsilon_exponent": 5}}
    report, ok = run_config(cfg)
    assert ok  # the expected outcome is that the search comes up empty
    search = report["results"]["certificate_search"]
    assert not search["found"] and search["tested_moduli"] == [5, 6, 7]


def test_generating_set_run_passes():
    cfg = {"experiment": "generating-set-compare", "seed": 5,
           "parameters": {"matrix": [[2, 1], [1, 1]],
                          "target_tolerance": 0.05, "grid_points": 40}}
    report, ok = run_config(cfg)
    assert ok
    transfer = report["results"]["transfer"]
    assert transfer["passed"] and transfer["conversion_radius"] == 2


# --- command line ---------------------------------------------------------


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_cli_run_prints_report_and_times_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _trace_config())
    code = main(["run", path])
    out, err = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "elapsed:" in err and "elapsed:" not in out


def test_cli_run_out_flag_writes_file(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _trace_config())
    target = tmp_path / "report.json"
    code = main(["run", path, "--out", str(target)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["experiment"] == "sft-trace"


def test_cli_validate_names_the_experiment(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _trace_config())
    assert main(["validate", path]) == 0
    out, _ = capsys.readouterr()
    assert "valid (sft-trace)" in out


def test_cli_schema_outputs_json(capsys):
    assert main(["schema"]) == 0
    top = json.loads(capsys.readouterr().out)
    assert top["required"] == ["experiment", "seed", "parameters"]
    assert main(["schema", "--experiment", "toral-stability"]) == 0
    sub = json.loads(capsys.readouterr().out)
    assert "matrix" in sub["required"]
    assert main(["schema", "--experiment", "wat"]) == 2


def test_cli_rejects_bad_configs(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read {missing}: "
                                       "No such file or directory\n")
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    assert main(["run", str(bad_json)]) == 2
    out_of_range = _write(tmp_path, "range.json", _trace_config(radius=99))
    assert main(["run", out_of_range]) == 2
    assert main(["validate", out_of_range]) == 2
    capsys.readouterr()
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{bad")
    for command in ("run", "validate"):
        assert main([command, str(not_utf8)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: config {not_utf8} is not valid "
                              "JSON: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


@pytest.mark.parametrize("experiment, params", [
    ("toral-stability", {"matrix": [[10 ** 400, 1], [1, 1]], "amplitude": 1e-3,
                         "window": 8, "grid_points": 16}),
    ("generating-set-compare", {"matrix": [[10 ** 400 + 1, 10 ** 400], [1, 1]],
                                "target_tolerance": 0.01, "grid_points": 16}),
])
def test_cli_matrix_entry_beyond_an_exact_float_is_exit_two(
        tmp_path, capsys, experiment, params):
    # the toral numerics use a float copy of the matrix, which such an
    # entry would overflow
    path = _write(tmp_path, "cfg.json",
                  {"experiment": experiment, "seed": 0, "parameters": params})
    assert main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config invalid at matrix/0/")
    assert err.endswith(" is greater than the maximum of 9007199254740992\n")


@pytest.mark.parametrize("k, bound", [(20, "2.15e+09"), (53, "1.17e+49")])
def test_cli_transfer_decided_by_rounding_is_exit_two(tmp_path, capsys, k, bound):
    cfg = {"experiment": "generating-set-compare", "seed": 0,
           "parameters": {"matrix": [[2 ** k, 2 ** k - 1], [1, 1]],
                          "target_tolerance": 0.05, "grid_points": 40}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"config error: float rounding may move a word image by "
                   f"{bound}, more than 0.001 of target_tolerance 0.05: the "
                   "matrix entries are too large\n")


def test_cli_necklace_with_no_modulus_to_test_is_exit_two(tmp_path, capsys):
    cfg = {"experiment": "cantor-trace", "seed": 0,
           "parameters": {"system": "necklace", "width": 12,
                          "epsilon_exponent": 5, "max_modulus": 2}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: no step modulus to test: epsilon_exponent 5 "
                   "exceeds max_modulus 2 or width 12 - 3\n")


def test_cli_property_failure_is_exit_one(tmp_path, capsys):
    cfg = {"experiment": "expansiveness-window", "seed": 0,
           "parameters": {"group": "integer-line", "eta": "1/2",
                          "epsilon_exponent": 3, "test_radius": 5,
                          "max_window": 0, "method": "flip"}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", path]) == 1
    capsys.readouterr()


def test_cli_capacity_refusal_is_exit_three(tmp_path, capsys):
    cfg = {"experiment": "expansiveness-window", "seed": 0,
           "parameters": {"group": "integer-line", "eta": "1/2",
                          "epsilon_exponent": 3, "test_radius": 12,
                          "max_window": 8, "method": "exhaustive"}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", path]) == 3
    _, err = capsys.readouterr()
    assert "capacity exceeded" in err


def test_cli_unconvergent_backward_iteration_is_exit_three(tmp_path, capsys):
    cfg = {"experiment": "toral-stability", "seed": 0,
           "parameters": {"matrix": [[1001, 1000], [1, 1]],
                          "amplitude": 5e-05, "window": 4,
                          "grid_points": 16}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("capacity exceeded: backward iteration did not "
                          "converge within max_iter=500 steps; last step size ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_scan_beyond_the_field_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _trace_config(scan_radius=6))
    assert main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: scan_radius 6 exceeds the field radius 4\n"


@pytest.mark.parametrize("eta", _BAD_ETAS)
def test_cli_bad_eta_is_exit_two(tmp_path, capsys, eta):
    for key, cfg in _eta_configs(eta):
        assert main(["run", _write(tmp_path, "cfg.json", cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {key} must be a positive fraction, got '{eta}'\n"


def test_cli_flip_scan_of_an_sft_is_exit_two(tmp_path, capsys):
    cfg = _window_config(method="exhaustive", sft="golden-mean")
    assert main(["run", _write(tmp_path, "cfg.json", cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: method exhaustive is complete only on the full "
                   "shift, not sft golden-mean; use pairs\n")


@pytest.mark.parametrize("overrides, message", [
    ({"method": "sampled"},
     "at method: 'sampled' is not one of ['flip', 'exhaustive', 'pairs']"),
    ({"method": "pairs", "samples": 200},
     "at <top>: Additional properties are not allowed ('samples' was "
     "unexpected)"),
])
def test_cli_sampled_window_is_exit_two(tmp_path, capsys, overrides, message):
    cfg = _window_config(sft="golden-mean", **overrides)
    assert main(["run", _write(tmp_path, "cfg.json", cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: config invalid {message}\n"


def test_cli_pair_scan_beyond_the_node_budget_is_exit_three(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setattr(shifts, "NODE_BUDGET", 50)
    cfg = _window_config(method="pairs", sft="golden-mean")
    assert main(["run", _write(tmp_path, "cfg.json", cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("capacity exceeded: fill search exceeded its 50-node "
                   "budget on ball(4)\n")


def test_cli_uniqueness_scan_beyond_the_field_is_exit_two(tmp_path, capsys):
    cfg = _trace_config(uniqueness={"eta": "1/2", "scan_radius": 6})
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: uniqueness.scan_radius 6 exceeds the field "
                   "radius 4\n")


def _assert_io_refusal(args, capsys, action, target):
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot {action} {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_unwritable_out_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _trace_config())
    target = tmp_path / "no-such-dir" / "report.json"
    _assert_io_refusal(["run", path, "--out", str(target)], capsys,
                       "write", target)


def test_cli_unwritable_grid_csv_is_exit_two(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "grid.csv"
    cfg = {"experiment": "toral-stability", "seed": 11,
           "parameters": {"matrix": [[2, 1], [1, 1]], "amplitude": 1e-3,
                          "window": 24, "grid_points": 16},
           "output": {"grid_csv": str(target)}}
    path = _write(tmp_path, "cfg.json", cfg)
    _assert_io_refusal(["run", path], capsys, "write", target)


def test_cli_unwritable_chain_csv_is_exit_two(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "chain.csv"
    cfg = {"experiment": "cantor-trace", "seed": 2,
           "parameters": {"system": "chain",
                          "chain": {"kind": "odometer", "base": 2,
                                    "depth": 4},
                          "radius": 2, "modulus": 2},
           "output": {"chain_csv": str(target)}}
    path = _write(tmp_path, "cfg.json", cfg)
    _assert_io_refusal(["run", path], capsys, "write", target)


def test_cli_missing_chain_path_is_exit_two(tmp_path, capsys):
    target = tmp_path / "missing.csv"
    cfg = {"experiment": "cantor-trace", "seed": 2,
           "parameters": {"system": "chain",
                          "chain": {"kind": "csv", "path": str(target)},
                          "radius": 2, "modulus": 2}}
    path = _write(tmp_path, "cfg.json", cfg)
    _assert_io_refusal(["run", path], capsys, "read", target)


def _csv_chain_config(table):
    return {"experiment": "cantor-trace", "seed": 2,
            "parameters": {"system": "chain",
                           "chain": {"kind": "csv", "path": str(table)},
                           "radius": 2, "modulus": 1}}


def test_cli_plane_chain_csv_reads_back(tmp_path, capsys):
    table = tmp_path / "p.csv"
    cfg = {"experiment": "cantor-trace", "seed": 2,
           "parameters": {"system": "chain",
                          "chain": {"kind": "plane-lattice", "depth": 4},
                          "radius": 2, "modulus": 1},
           "output": {"chain_csv": str(table)}}
    assert main(["run", _write(tmp_path, "write.json", cfg)]) == 0
    written = json.loads(capsys.readouterr().out)
    assert table.read_text().startswith('level,index,parent,"(1,0)","(-1,0)",'
                                        '"(0,1)","(0,-1)"\n')
    assert main(["run", _write(tmp_path, "read.json",
                               _csv_chain_config(table))]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back["results"]["level_sizes"] == written["results"]["level_sizes"]
    assert back["results"]["trace"]["trace_ok"]


def test_cli_chain_csv_without_table_columns_is_exit_two(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("lvl,index,parent,(1),(-1)\n0,0,-1,0,0\n")
    code = main(["run", _write(tmp_path, "cfg.json", _csv_chain_config(table))])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"config error: {table}: missing table columns ['level']\n"


@pytest.mark.parametrize("row", ["0,0,-1,0", "0,0,-1,0,x"])
def test_cli_chain_csv_with_a_short_or_non_integer_row_is_exit_two(
        tmp_path, capsys, row):
    table = tmp_path / "t.csv"
    table.write_text(f"level,index,parent,(1),(-1)\n{row}\n")
    code = main(["run", _write(tmp_path, "cfg.json", _csv_chain_config(table))])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"config error: {table}: level 0 index 0 has a missing or "
                   "non-integer cell\n")


def test_cli_chain_csv_with_a_long_row_is_exit_two(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("level,index,parent,(1),(-1)\n0,0,-1,0,0,9,9\n")
    code = main(["run", _write(tmp_path, "cfg.json", _csv_chain_config(table))])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"config error: {table}: level 0 index 0 has more cells "
                   "than the header\n")


def test_cli_more_displacement_terms_than_wave_vectors_is_exit_two(
        tmp_path, capsys):
    cfg = {"experiment": "toral-stability", "seed": 1,
           "parameters": {"matrix": [[2]], "amplitude": 0.001, "window": 4,
                          "grid_points": 8, "terms": 5}}
    assert main(["run", _write(tmp_path, "cfg.json", cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: terms 5 exceeds the 4 nonzero wave vectors "
                   "in {-2..2}^1\n")


def test_cli_module_entry_point(tmp_path):
    path = _write(tmp_path, "cfg.json", _trace_config())
    proc = subprocess.run([sys.executable, "-m", "shadowlab", "run", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
    assert "elapsed:" in proc.stderr


# What an installer's generated console-script wrapper does: load the
# declared entry point and exit with what it returns. The first two
# arguments are the script's name and its "module:attr" target; the rest
# are the script's own arguments.
_RUN_ENTRY_POINT = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
sys.argv[:3] = [name]
sys.exit(EntryPoint(name, value, "console_scripts").load()())
"""


def test_console_script_round_trip(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "shadowlab"
    scripts = project["scripts"]
    assert "shadowlab" in scripts
    path = _write(tmp_path, "cfg.json", _trace_config())
    proc = subprocess.run([sys.executable, "-c", _RUN_ENTRY_POINT,
                           "shadowlab", scripts["shadowlab"], "validate",
                           path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


@pytest.mark.skipif(shutil.which("shadowlab") is None,
                    reason="shadowlab console script not installed on PATH")
def test_installed_console_script_round_trip(tmp_path):
    path = _write(tmp_path, "cfg.json", _trace_config())
    proc = subprocess.run(["shadowlab", "validate", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout
