"""Command line front end: each command is one runner call; _report prints what it returns.

Exit codes: 0 when every requested check passed, 1 when a check failed,
2 for a ConfigError, the one class of refused input, printed on one line.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from typing import Callable, NoReturn, Sequence

from .core import ConfigError
from .harness import (
    ExperimentConfig,
    config_from_dict,
    default_fp_config,
    default_verify_config,
    fp_report_csv,
    run_bounds,
    run_decode,
    run_encode,
    run_fp_experiment,
    run_verification_suite,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _reject_constant(name: str) -> NoReturn:
    # json.load accepts NaN and Infinity, which no config field can use
    raise ConfigError(f"config holds {name}, which is not a JSON number")


def _parse_int(text: str) -> int:
    # int() refuses a literal past Python's int-to-str digit limit with a
    # bare ValueError, which json.load would let through
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"config holds an integer of {len(text)} digits, past Python's limit"
        ) from None


def _read_config(path: str) -> object:
    """The JSON value in a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant, parse_int=_parse_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return data


def _load_config(args: argparse.Namespace, defaults: ExperimentConfig) -> ExperimentConfig:
    cfg = config_from_dict(_read_config(args.config) if args.config else {}, defaults)
    flags = {"seed_bits": args.seed_bits, "trials": args.trials}
    return config_from_dict({k: v for k, v in flags.items() if v is not None}, cfg)


def _check_out(out: str) -> None:
    # refuse what open() is sure to refuse before the command does its work;
    # _emit still reports every other failure to write
    if os.path.isdir(out):
        raise ConfigError(f"cannot write report {out}: it is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write report {out}: {parent} is not a directory")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report {out}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report(report: dict, args: argparse.Namespace) -> int:
    """Print a report (warnings on stderr, CSV or JSON to --out or stdout); return its exit code."""
    for text in report.get("warnings", ()):
        print(f"warning: {text}", file=sys.stderr)
    csv = args.format == "csv"
    _emit(fp_report_csv(report) if csv else json.dumps(report, sort_keys=True, indent=2), args.out)
    checks = report.get("checks", ())
    failed = report.get("passed") is False or any(c.get("holds") is False for c in checks)
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


def _cmd_demo(args: argparse.Namespace) -> dict:
    # only this command runs the demo and the sequence algebra under it
    from .demo import default_demo_config, run_violation_demo

    return run_violation_demo(_load_config(args, default_demo_config()))


def _cmd_encode(args: argparse.Namespace) -> dict:
    cfg = _load_config(args, default_verify_config())
    try:
        elements = [int(part) for part in args.elements.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad element list {args.elements!r}") from exc
    return run_encode(cfg, elements)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filterbounds",
        description="Membership filter experiments and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each add_argument builds a help formatter, which asks for the terminal
    # size; the subcommands copy these actions from one parent instead
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed-bits", type=int, default=None, dest="seed_bits")
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    def add(name: str, summary: str, func: Callable[..., dict]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func)
        return p

    add("fp-rate", "Monte-Carlo false-positive rate",
        lambda args: run_fp_experiment(_load_config(args, default_fp_config())))
    add("demo-violations", "deterministic failure demos", _cmd_demo)
    add("verify", "run the exhaustive verification suite",
        lambda args: run_verification_suite(_load_config(args, default_verify_config())))
    add("bounds", "evaluate bound checks from a config",
        lambda args: run_bounds(_read_config(args.config) if args.config else {}))

    p = add("encode", "code a dataset as (state, index)", _cmd_encode)
    p.add_argument("--elements", required=True, help="comma separated elements")

    p = add("decode", "recover a dataset from (state, index)", lambda args: run_decode(
        _load_config(args, default_verify_config()), args.state, args.index))
    p.add_argument("--state", required=True, help="serialized paired state")
    p.add_argument("--index", required=True, type=int)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A one-shot command needs none of its objects freed at exit, so it skips
    # the interpreter's final collections: gc.freeze, run from atexit, moves
    # the whole heap out of their reach. Streams are still flushed and other
    # atexit handlers still run; a caller that runs main in-process keeps its
    # live heap unfrozen until it exits. Unregistering first keeps one entry.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.command != "fp-rate":
            raise ConfigError("--format csv is only for fp-rate")
        if args.out:
            _check_out(args.out)
        return _report(args.func(args), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
