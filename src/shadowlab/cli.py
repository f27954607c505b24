"""Command line front end.

Exit codes: 0 the experiment ran and every checked property held; 1 the
experiment ran but a property failed (including generation failures, which
are negative results, not crashes); 2 the config was rejected, or a file it
involves could not be read or written (the config itself, a chain CSV it
reads, a CSV side file or the ``--out`` report), each reported on one line;
3 a capacity budget was exceeded before the experiment could finish,
including a torus backward iteration that does not converge within its
iteration cap, reported on one line.
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


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: "
                          f"{exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def _render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cmd_run(args) -> int:
    try:
        config = _load_config(args.config)
        started = time.monotonic()
        report, passed = run_config(config)
        elapsed = time.monotonic() - started
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = _render(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_PASS if passed else EXIT_PROPERTY


def _cmd_validate(args) -> int:
    try:
        config = _load_config(args.config)
        validate_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config}: valid ({config['experiment']})")
    return EXIT_PASS


def _cmd_schema(args) -> int:
    try:
        schema = parameter_schema(args.experiment) if args.experiment \
            else CONFIG_SCHEMA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
