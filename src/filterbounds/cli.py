"""Command line front end.

Exit codes: 0 when every requested check passed, 1 when a check failed,
2 for configuration or enumeration errors.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from typing import Callable, NoReturn, Sequence

from .bounds import (
    InvalidCode,
    NotGoodPair,
    ParamsOutOfRange,
    bounds_report,
    check_binom_scaling,
    check_counting_bound,
    space_lower_bound,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    counting_inputs,
    default_demo_config,
    default_fp_config,
    default_verify_config,
    fp_report_csv,
    parse_fraction,
    run_decode,
    run_encode,
    run_fp_experiment,
    run_verification_suite,
    run_violation_demo,
)
from .witness import EnumerationTooLarge

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


def _read_config(path: str) -> dict:
    """The JSON object in a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant, parse_int=_parse_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _load_config(args: argparse.Namespace, defaults: ExperimentConfig) -> ExperimentConfig:
    data = _read_config(args.config) if args.config else {}
    cfg = config_from_dict(data, defaults)
    overrides = {}
    if args.seed_bits is not None:
        overrides["seed_bits"] = args.seed_bits
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        cfg = config_from_dict(overrides, cfg)
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report {out}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _cmd_fp_rate(args: argparse.Namespace) -> int:
    cfg = _load_config(args, default_fp_config())
    report = run_fp_experiment(cfg)
    text = fp_report_csv(report) if args.format == "csv" else _report_json(report)
    _emit(text, args.out)
    return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILED


def _cmd_demo(args: argparse.Namespace) -> int:
    cfg = _load_config(args, default_demo_config())
    report = run_violation_demo(cfg)
    _emit(_report_json(report), args.out)
    return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args, default_verify_config())
    report = run_verification_suite(cfg)
    _emit(report.to_json(), args.out)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def _cmd_bounds(args: argparse.Namespace) -> int:
    checks = []
    if args.config:
        checks = _read_config(args.config).get("bounds_checks", [])
        if not isinstance(checks, list):
            raise ConfigError("bounds_checks must be a list")
    if not checks:
        raise ConfigError("bounds needs a config with a bounds_checks list")
    results = []
    for entry in checks:
        try:
            kind = entry["check"]
            if kind == "counting":
                result = check_counting_bound(*counting_inputs(entry))
            elif kind == "binom_scaling":
                result = check_binom_scaling(
                    int(entry["u"]),
                    int(entry["n"]),
                    parse_fraction(entry["beta"]),
                )
            elif kind == "space":
                result = space_lower_bound(
                    entry.get("kind", "nstatic"),
                    int(entry["u"]),
                    int(entry["n"]),
                    parse_fraction(entry.get("eps", "0")),
                )
            else:
                raise ConfigError(f"unknown bounds check {kind!r}")
            # an integer past Python's int-to-str digit limit raises
            # ValueError here, before any entry is printed
            result.to_json_dict()
            results.append(result)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad bounds check entry {entry!r}: {exc}") from exc
    _emit(bounds_report(results), args.out)
    failed = any(getattr(r, "holds", True) is False for r in results)
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


def _cmd_encode(args: argparse.Namespace) -> int:
    cfg = _load_config(args, default_verify_config())
    try:
        elements = [int(part) for part in args.elements.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad element list {args.elements!r}") from exc
    report = run_encode(cfg, elements)
    _emit(_report_json(report), args.out)
    return EXIT_PASS


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = _load_config(args, default_verify_config())
    report = run_decode(cfg, args.state, args.index)
    _emit(_report_json(report), args.out)
    return EXIT_PASS


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

    def add(
        name: str, summary: str, func: Callable[[argparse.Namespace], int]
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func)
        return p

    add("fp-rate", "Monte-Carlo false-positive rate", _cmd_fp_rate)
    add("demo-violations", "deterministic failure demos", _cmd_demo)
    add("verify", "run the exhaustive verification suite", _cmd_verify)
    add("bounds", "evaluate bound checks from a config", _cmd_bounds)

    p = add("encode", "code a dataset as (state, index)", _cmd_encode)
    p.add_argument("--elements", required=True, help="comma separated elements")

    p = add("decode", "recover a dataset from (state, index)", _cmd_decode)
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
        return args.func(args)
    except (
        ConfigError,
        EnumerationTooLarge,
        ParamsOutOfRange,
        NotGoodPair,
        InvalidCode,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
