"""Experiment harness: JSON configs in, deterministic JSON reports out.

Every experiment is a pure function of (validated parameters, seeded RNG),
so a config file identifies its report byte for byte.  Reports carry no
timestamps; wall-clock timing is the CLI's business and goes to stderr.
"""

from __future__ import annotations

import csv as _csv
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from functools import cache
from random import Random
from typing import Callable, Optional

from .errors import ConfigError
from .groups import (
    free_rank2_spec,
    heisenberg_spec,
    integer_line_spec,
    integer_plane_spec,
)
from .profinite import (
    chain_from_csv,
    chain_modulus_certificate,
    chain_to_csv,
    chain_trace_experiment,
    necklace_modulus_search,
    odometer_chain,
    plane_lattice_chain,
)
from .shadowing import (
    TracingPlan,
    construct_trace,
    delta_profile,
    generate_pseudo_orbit,
    potp_modulus,
    separation_window_exhaustive_check,
    separation_window_flip_scan,
    separation_window_pair_scan,
    synthesize_window_spec,
    admissible_sets_agree,
    uniqueness_scan,
    verify_trace,
)
from .shifts import (
    DyadicDistance,
    GroupGeometry,
    ShiftSpace,
    allowed_blocks_exact_line,
    even_window_sft,
    full_shift,
    golden_mean_sft,
    hard_square_sft,
    one_forbidden_window_sft,
)
from .torus import (
    as_int_matrix,
    expansiveness_certificate,
    generating_set_transfer,
    random_displacement,
    random_grid,
    stability_report,
)

EXPERIMENTS = ("sft-trace", "sft-synthesize", "expansiveness-window",
               "toral-stability", "cantor-trace", "generating-set-compare")

_GROUPS = {
    "integer-line": integer_line_spec,
    "integer-plane": integer_plane_spec,
    "free-rank-2": free_rank2_spec,
    "heisenberg": heisenberg_spec,
}

_SFT_BUILDERS = {
    "full-shift": full_shift,
    "golden-mean": golden_mean_sft,
    "even-window": even_window_sft,
    "hard-square": hard_square_sft,
    "one-forbidden-window": one_forbidden_window_sft,
}

_SFT_ENUM = sorted(_SFT_BUILDERS)
_GROUP_ENUM = sorted(_GROUPS)

# every entry has an exact float copy, which the toral experiments compute with
_MATRIX_ENTRY = {"type": "integer", "minimum": -2 ** 53, "maximum": 2 ** 53}

_PARAMETER_SCHEMAS = {
    "sft-trace": {
        "type": "object",
        "additionalProperties": False,
        "required": ["group", "sft", "radius", "epsilon_exponent"],
        "properties": {
            "group": {"enum": _GROUP_ENUM},
            "sft": {"enum": _SFT_ENUM},
            "radius": {"type": "integer", "minimum": 1, "maximum": 12},
            "epsilon_exponent": {"type": "integer", "minimum": 1, "maximum": 12},
            "modulus": {"type": "integer", "minimum": 1, "maximum": 10},
            "mode": {"enum": ["exact_orbit", "perturbed_orbit", "random_flip"]},
            "inner_radius": {"type": "integer", "minimum": 1, "maximum": 12},
            "flip_attempts": {"type": "integer", "minimum": 0, "maximum": 4096},
            "scan_radius": {"type": "integer", "minimum": 0, "maximum": 12},
            "uniqueness": {
                "type": "object",
                "additionalProperties": False,
                "required": ["eta"],
                "properties": {
                    "eta": {"type": "string"},
                    "scan_radius": {"type": "integer", "minimum": 0},
                    "comparison_cap": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
    "sft-synthesize": {
        "type": "object",
        "additionalProperties": False,
        "required": ["group", "sft", "modulus", "slack", "agreement_radius"],
        "properties": {
            "group": {"enum": _GROUP_ENUM},
            "sft": {"enum": _SFT_ENUM},
            "modulus": {"type": "integer", "minimum": 0, "maximum": 8},
            "slack": {"type": "integer", "minimum": 0, "maximum": 12},
            "agreement_radius": {"type": "integer", "minimum": 1, "maximum": 10},
            "exact_cross_check": {"type": "boolean"},
        },
    },
    "expansiveness-window": {
        "type": "object",
        "additionalProperties": False,
        "required": ["group", "eta", "epsilon_exponent", "test_radius",
                     "max_window", "method"],
        "properties": {
            "group": {"enum": _GROUP_ENUM},
            "eta": {"type": "string"},
            "epsilon_exponent": {"type": "integer", "minimum": 1, "maximum": 20},
            "test_radius": {"type": "integer", "minimum": 1, "maximum": 24},
            "max_window": {"type": "integer", "minimum": 0, "maximum": 24},
            "method": {"enum": ["flip", "exhaustive", "pairs"]},
            "sft": {"enum": _SFT_ENUM},
        },
    },
    "toral-stability": {
        "type": "object",
        "additionalProperties": False,
        "required": ["matrix", "amplitude", "window", "grid_points"],
        "properties": {
            "matrix": {
                "type": "array", "minItems": 1,
                "items": {"type": "array", "minItems": 1,
                          "items": _MATRIX_ENTRY},
            },
            "amplitude": {"type": "number", "minimum": 0},
            "window": {"type": "integer", "minimum": 1, "maximum": 64},
            "grid_points": {"type": "integer", "minimum": 1, "maximum": 5000},
            "terms": {"type": "integer", "minimum": 1, "maximum": 8},
            "residual_tolerance": {"type": "number", "exclusiveMinimum": 0},
            "defect_tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "cantor-trace": {
        "type": "object",
        "additionalProperties": False,
        "required": ["system"],
        "properties": {
            "system": {"enum": ["chain", "necklace"]},
            "chain": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["odometer", "plane-lattice", "csv"]},
                    "base": {"type": "integer", "minimum": 2, "maximum": 6},
                    "depth": {"type": "integer", "minimum": 1, "maximum": 12},
                    "path": {"type": "string"},
                },
            },
            "radius": {"type": "integer", "minimum": 0, "maximum": 12},
            "modulus": {"type": "integer", "minimum": 0, "maximum": 8},
            "trials": {"type": "integer", "minimum": 1, "maximum": 64},
            "width": {"type": "integer", "minimum": 2, "maximum": 20},
            "epsilon_exponent": {"type": "integer", "minimum": 0, "maximum": 16},
            "max_modulus": {"type": "integer", "minimum": 0, "maximum": 16},
        },
    },
    "generating-set-compare": {
        "type": "object",
        "additionalProperties": False,
        "required": ["matrix", "target_tolerance", "grid_points"],
        "properties": {
            "matrix": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "array", "minItems": 2, "maxItems": 2,
                          "items": _MATRIX_ENTRY},
            },
            "target_tolerance": {"type": "number", "exclusiveMinimum": 0},
            "grid_points": {"type": "integer", "minimum": 1, "maximum": 5000},
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "seed", "parameters"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "parameters": {"type": "object"},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grid_csv": {"type": "string"},
                "chain_csv": {"type": "string"},
            },
        },
    },
}


@cache
def _validator(experiment: Optional[str]):
    """The compiled validator of the config schema (``experiment`` None) or
    of an experiment's parameter schema, built once, on first use, so that
    importing the package does not load jsonschema.  The schemas are checked
    against their metaschema by a test, not here."""
    from jsonschema.validators import validator_for

    schema = CONFIG_SCHEMA if experiment is None else _PARAMETER_SCHEMAS[experiment]
    return validator_for(schema)(schema)


def validate_config(config: dict) -> None:
    """Schema-check a config dict; raises ConfigError with a usable message.

    The error reported is the one ``jsonschema.validate`` would raise: the
    ``best_match`` of the config's errors, or else of its parameters'.
    """
    from jsonschema.exceptions import best_match

    error = best_match(_validator(None).iter_errors(config))
    if error is None:
        error = best_match(_validator(config["experiment"]).iter_errors(
            config["parameters"]))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<top>"
        raise ConfigError(f"config invalid at {where}: {error.message}")


def parameter_schema(experiment: str) -> dict:
    if experiment not in _PARAMETER_SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return _PARAMETER_SCHEMAS[experiment]


def to_jsonable(obj):
    """Recursively render values as deterministic JSON-ready data."""
    if isinstance(obj, DyadicDistance):
        return {"marker": obj.marker, "value": str(obj.value)}
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


@contextmanager
def _side_file(action: str, path: str):
    """Turn an OSError on a CSV side file into a one-line config fault."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {action} {path}: "
                          f"{exc.strerror or exc}") from None


def _eta(text: str, key: str) -> Fraction:
    """A config's separation constant as a positive fraction."""
    try:
        eta = Fraction(text)
        if eta > 0:
            return eta
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{key} must be a positive fraction, got {text!r}")


def _space(group_name: str) -> ShiftSpace:
    spec = _GROUPS[group_name]()
    return ShiftSpace(GroupGeometry(spec))


def _run_sft_trace(params: dict, rng: Random, output: dict):
    space = _space(params["group"])
    sft = _SFT_BUILDERS[params["sft"]](space)
    epsilon = Fraction(1, 2 ** params["epsilon_exponent"])
    if "modulus" in params:
        m = params["modulus"]
        if m <= sft.window_radius:
            raise ConfigError("modulus must exceed the SFT window radius")
        plan = TracingPlan(sft.window_radius, epsilon, m,
                           Fraction(1, 2 ** (m + 1)))
    else:
        plan = potp_modulus(sft.window_radius, epsilon)
    for key, scan in (("scan_radius", params.get("scan_radius")),
                      ("uniqueness.scan_radius",
                       params.get("uniqueness", {}).get("scan_radius"))):
        if scan is not None and scan > params["radius"]:
            raise ConfigError(f"{key} {scan} exceeds the field radius "
                              f"{params['radius']}")
    if "uniqueness" in params:
        eta = _eta(params["uniqueness"]["eta"], "uniqueness.eta")
    orbit = generate_pseudo_orbit(
        sft, params["radius"], plan, rng,
        mode=params.get("mode", "perturbed_orbit"),
        inner_radius=params.get("inner_radius"),
        flip_attempts=params.get("flip_attempts", 16))
    step_ok, worst_step, definite_steps = delta_profile(orbit)
    trace = construct_trace(orbit)
    outcome = verify_trace(orbit, trace, plan,
                           scan_radius=params.get("scan_radius"))
    results = {
        "modulus": plan.modulus,
        "delta": plan.delta,
        "epsilon": plan.epsilon,
        "inner_radius": orbit.inner_radius,
        "entry_count": len(orbit.cells),
        "perturbed_cells": orbit.perturbation_count,
        "step_condition_holds": step_ok,
        "worst_definite_step": worst_step,
        "definite_step_comparisons": definite_steps,
        "trace": trace.serialize(),
        "trace_admissible": outcome.admissible,
        "trace_passed": outcome.passed,
        "scan_radius": outcome.scan_radius,
        "checks_total": len(outcome.checks),
        "checks_passed": sum(1 for c in outcome.checks if c.passed),
        "worst_definite_residual": outcome.worst_definite,
    }
    passed = step_ok and outcome.passed
    if "uniqueness" in params:
        u = params["uniqueness"]
        report = uniqueness_scan(orbit, plan, eta,
                                 scan_radius=u.get("scan_radius"),
                                 comparison_cap=u.get("comparison_cap"))
        results["uniqueness"] = report
        passed = passed and report.applicable and report.multiplicity == 1
    return results, passed


def _run_sft_synthesize(params: dict, rng: Random, output: dict):
    space = _space(params["group"])
    sft = _SFT_BUILDERS[params["sft"]](space)
    m = params["modulus"]
    synthesized = synthesize_window_spec(sft, m, params["slack"])
    agreement = admissible_sets_agree(sft, synthesized,
                                      params["agreement_radius"])
    results = {
        "window_radius": synthesized.window_radius,
        "allowed_count": len(synthesized.allowed),
        "forbidden_count": len(synthesized.forbidden),
        "agreement_radius": params["agreement_radius"],
        "presentations_agree": agreement,
    }
    passed = agreement
    if params.get("exact_cross_check", False):
        exact_cells = frozenset(allowed_blocks_exact_line(sft, m + 1))
        matches = exact_cells == synthesized.allowed
        results["slack_matches_exact"] = matches
        results["exact_count"] = len(exact_cells)
        passed = passed and matches
    return results, passed


def _run_expansiveness_window(params: dict, rng: Random, output: dict):
    eta = _eta(params["eta"], "eta")
    epsilon = Fraction(1, 2 ** params["epsilon_exponent"])
    method = params["method"]
    sft_name = params.get("sft", "full-shift")
    if method in ("flip", "exhaustive") and sft_name != "full-shift":
        # both read disagreement sets of the full shift and ignore any sft
        raise ConfigError(f"method {method} is complete only on the full shift, "
                          f"not sft {sft_name}; use pairs")
    space = _space(params["group"])
    if method in ("flip", "exhaustive"):
        scan = separation_window_flip_scan(space, eta, epsilon,
                                           params["test_radius"],
                                           params["max_window"])
    else:
        sft = _SFT_BUILDERS[sft_name](space)
        scan = separation_window_pair_scan(space, sft, eta, epsilon,
                                           params["test_radius"],
                                           params["max_window"])
    results = {
        "method": scan.method,
        "window": scan.window,
        "scanned": scan.scanned,
        "witness": scan.witness,
        "eta": scan.constant,
        "epsilon": scan.epsilon,
        "test_radius": scan.test_radius,
    }
    passed = scan.window is not None
    if method == "exhaustive" and passed:
        # certify the scan's answer against every disagreement set
        check = separation_window_exhaustive_check(space, eta, epsilon,
                                                   scan.window,
                                                   params["test_radius"])
        results["exhaustive_check"] = check
        passed = check.ok
    return results, passed


def _run_toral_stability(params: dict, rng: Random, output: dict):
    A = as_int_matrix(params["matrix"])
    cert = expansiveness_certificate(A)
    results = {"certificate": cert}
    if not cert.is_expansive:
        return results, False
    disp = random_displacement(len(A), params["amplitude"], rng,
                               terms=params.get("terms", 3))
    pts = random_grid(len(A), params["grid_points"], rng)
    rep, h_pts = stability_report(A, disp, params["window"], pts)
    residual_tol = params.get("residual_tolerance", 1e-9)
    defect_tol = params.get("defect_tolerance", 1e-9)
    results["stability"] = rep
    results["lipschitz_bound"] = disp.lipschitz_bound()
    passed = (rep.displacement_within_bound
              and rep.orbit_residual <= residual_tol
              and rep.sup_conjugacy_defect <= defect_tol
              and rep.collisions == 0
              and rep.identity_exact in (None, True))
    grid_path = output.get("grid_csv")
    if grid_path:
        n = len(A)
        with _side_file("write", grid_path), \
                open(grid_path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(n)]
                            + [f"h{i}" for i in range(n)])
            for row, hrow in zip(pts, h_pts):
                writer.writerow([f"{v:.17g}" for v in row]
                                + [f"{v:.17g}" for v in hrow])
    return results, passed


def _build_chain(params: dict):
    chain_cfg = params.get("chain")
    if chain_cfg is None:
        raise ConfigError("cantor-trace with system=chain needs a chain section")
    kind = chain_cfg["kind"]
    if kind == "odometer":
        return odometer_chain(chain_cfg.get("base", 2),
                              chain_cfg.get("depth", 6))
    if kind == "plane-lattice":
        return plane_lattice_chain(chain_cfg.get("depth", 4))
    path = chain_cfg.get("path")
    if not path:
        raise ConfigError("csv chain needs a path")
    with _side_file("read", path):
        return chain_from_csv(path)


def _run_cantor_trace(params: dict, rng: Random, output: dict):
    system = params["system"]
    if system == "necklace":
        for key in ("width", "epsilon_exponent"):
            if key not in params:
                raise ConfigError(f"necklace search needs {key}")
        cert = necklace_modulus_search(params["width"],
                                       params["epsilon_exponent"],
                                       params.get("max_modulus"))
        # the expected outcome here is the absence of a certificate
        return {"certificate_search": cert}, not cert.found
    for key in ("radius", "modulus"):
        if key not in params:
            raise ConfigError(f"chain tracing needs {key}")
    chain = _build_chain(params)
    trials = params.get("trials", 1)
    results = {
        "depth": chain.depth,
        "level_sizes": list(chain.level_sizes),
    }
    if trials == 1:
        report = chain_trace_experiment(chain, params["radius"],
                                        params["modulus"], rng)
        results["trace"] = report
        passed = report.step_ok and report.trace_ok
    else:
        cert = chain_modulus_certificate(chain, params["radius"],
                                         params["modulus"], trials, rng)
        results["certificate"] = cert
        passed = cert.found
    out_path = output.get("chain_csv")
    if out_path:
        with _side_file("write", out_path):
            chain_to_csv(chain, out_path)
    return results, passed


def _run_generating_set_compare(params: dict, rng: Random, output: dict):
    report = generating_set_transfer(as_int_matrix(params["matrix"]),
                                     params["target_tolerance"], rng,
                                     grid_count=params["grid_points"])
    return {"transfer": report}, report.passed


_RUNNERS: dict[str, Callable] = {
    "sft-trace": _run_sft_trace,
    "sft-synthesize": _run_sft_synthesize,
    "expansiveness-window": _run_expansiveness_window,
    "toral-stability": _run_toral_stability,
    "cantor-trace": _run_cantor_trace,
    "generating-set-compare": _run_generating_set_compare,
}


def run_config(config: dict) -> tuple[dict, bool]:
    """Validate and execute one experiment config.

    Returns (report dict, passed).  The report echoes the experiment, seed
    and parameters so it is self-describing, and contains nothing
    nondeterministic.
    """
    validate_config(config)
    rng = Random(config["seed"])
    runner = _RUNNERS[config["experiment"]]
    results, passed = runner(config["parameters"], rng,
                             config.get("output", {}))
    report = {
        "experiment": config["experiment"],
        "seed": config["seed"],
        "parameters": config["parameters"],
        "results": to_jsonable(results),
        "passed": bool(passed),
    }
    return report, bool(passed)
