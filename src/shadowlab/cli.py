"""Command line front end.

Exit codes: 0 the experiment ran and every checked property held; 1 it ran
but a property failed; 2 the config was rejected; 3 a capacity budget was
exceeded before the experiment could finish.

The commands only raise.  ``main`` turns a failure into one stderr line,
``<prefix>: <message>``, and an exit code through the ``FAILURES`` table,
first match wins: ``ConfigError`` is "config error" (2), ``CapacityError``
"capacity exceeded" (3), ``GenerationError`` "generation failed" (1, a
negative result, not a crash) and any other ``ValueError`` "config error"
(2).  A file the config involves that cannot be read or written (the config
itself, a chain CSV it reads, a CSV side file or the ``--out`` report) is a
config error; a torus backward iteration that does not converge within its
iteration cap is a capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import CapacityError, ConfigError, GenerationError
from .harness import CONFIG_SCHEMA, parameter_schema, run_config, validate_config

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

FAILURES = (
    (ConfigError, "config error", EXIT_CONFIG),
    (CapacityError, "capacity exceeded", EXIT_CAPACITY),
    (GenerationError, "generation failed", EXIT_PROPERTY),
    (ValueError, "config error", EXIT_CONFIG),
)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: "
                          f"{exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def _render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    started = time.monotonic()
    report, passed = run_config(config)
    elapsed = time.monotonic() - started
    text = _render(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: "
                              f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_PASS if passed else EXIT_PROPERTY


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    validate_config(config)
    print(f"{args.config}: valid ({config['experiment']})")
    return EXIT_PASS


def _cmd_schema(args) -> int:
    schema = parameter_schema(args.experiment) if args.experiment \
        else CONFIG_SCHEMA
    sys.stdout.write(json.dumps(schema, indent=2, sort_keys=True) + "\n")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Desk-scale tracing experiments for group actions")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    run_p.set_defaults(fn=_cmd_run)

    val_p = sub.add_parser("validate", help="schema-check a config")
    val_p.add_argument("config", help="path to a JSON config")
    val_p.set_defaults(fn=_cmd_validate)

    sch_p = sub.add_parser("schema", help="print the config schema")
    sch_p.add_argument("--experiment", help="print one experiment's "
                       "parameter schema instead")
    sch_p.set_defaults(fn=_cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        for kind, prefix, code in FAILURES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
