"""Config validation, report determinism, and the CLI contract."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

from shadowlab import harness
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


def test_jsonable_rendering():
    assert to_jsonable(DyadicDistance(3, False)) == {"marker": False,
                                                     "value": "1/8"}
    assert to_jsonable(Fraction(3, 4)) == "3/4"
    assert to_jsonable((1, [2, Fraction(1, 2)])) == [1, [2, "1/2"]]
    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(np.arange(3)) == [0, 1, 2]
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
