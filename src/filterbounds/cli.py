"""Command line front end: each command is one runner call; _report prints what it returns.

_COMMANDS declares each command once: the flags and config fields its runner
reads, and no others.  A plain line, COMMAND (--flag value)*, is read by
_quick_args from that table; every other line (help, --flag=value,
abbreviations, every error) goes to the argparse parser that _build_parser
makes from the same table, so argparse is imported only when a line needs it.

Exit codes: 0 when every requested check passed, 1 when a check failed,
2 for a ConfigError, the one class of refused input, printed on one line.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Sequence

from .core import ConfigError, _Record
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

if TYPE_CHECKING:
    import argparse

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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to read") from exc
    return data


def _load_config(args: SimpleNamespace, defaults: ExperimentConfig) -> ExperimentConfig:
    # one read of the file's fields under the flags, so a value a flag replaces is not checked
    flags = {k: vars(args)[k] for k in ("seed_bits", "trials") if vars(args).get(k) is not None}
    data = _read_config(args.config) if args.config else {}
    cfg = config_from_dict({**data, **flags} if isinstance(data, dict) else data, defaults)
    # a field the runner does not read may only restate the command's default,
    # so an accepted config's hash depends only on what the command reads
    command = _COMMANDS[args.command]
    unread = [key for key in cfg.__slots__
              if key not in command.fields and getattr(cfg, key) != getattr(defaults, key)]
    if unread:
        raise ConfigError(f"{args.command} config takes no {unread}; "
                          f"its keys are {sorted(command.fields)}")
    if command.one_model and len(cfg.models) > 1 and cfg.models != defaults.models:
        raise ConfigError(f"config models: {args.command} reads one model, got {len(cfg.models)}")
    return cfg


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


def _report(report: dict, args: SimpleNamespace) -> int:
    """Print a report (CSV or JSON to --out or stdout); return its exit code."""
    csv = getattr(args, "format", None) == "csv"
    _emit(fp_report_csv(report) if csv else json.dumps(report, sort_keys=True, indent=2), args.out)
    checks = report.get("checks", ())
    failed = report.get("passed") is False or any(c.get("holds") is False for c in checks)
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


def _cmd_fp_rate(args: SimpleNamespace) -> dict:
    return run_fp_experiment(_load_config(args, default_fp_config()))


def _cmd_demo(args: SimpleNamespace) -> dict:
    # only this command runs the demo and the sequence algebra under it
    from .demo import default_demo_config, run_violation_demo

    return run_violation_demo(_load_config(args, default_demo_config()))


def _cmd_verify(args: SimpleNamespace) -> dict:
    return run_verification_suite(_load_config(args, default_verify_config()))


def _cmd_bounds(args: SimpleNamespace) -> dict:
    return run_bounds(_read_config(args.config) if args.config else {})


def _cmd_encode(args: SimpleNamespace) -> dict:
    cfg = _load_config(args, default_verify_config())
    try:
        elements = [int(part) for part in args.elements.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad element list {args.elements!r}") from exc
    return run_encode(cfg, elements)


def _cmd_decode(args: SimpleNamespace) -> dict:
    return run_decode(_load_config(args, default_verify_config()), args.state, args.index)


class _Option(_Record, defaults={"type": None, "default": None, "choices": None,
                                 "required": False, "help": None}):
    """One option, as add_argument takes it and _quick_args reads it."""

    __slots__ = ("flag", "dest", "type", "default", "choices", "required", "help")


class _Command(_Record, defaults={"fields": (), "one_model": False}):
    """One subcommand: its help line, its runner, the options and config fields
    it reads, and whether it reads only the first of the config's models."""

    __slots__ = ("summary", "func", "options", "fields", "one_model")


# the options each command takes, in the order its help text lists them
_CONFIG = _Option("--config", "config", help="JSON config file")
_SEED_BITS = _Option("--seed-bits", "seed_bits", type=int)
_TRIALS = _Option("--trials", "trials", type=int)
_OUT = _Option("--out", "out", help="write the report here")
_FORMAT = _Option("--format", "format", default="json", choices=("json", "csv"))
_EXHAUSTIVE = (_CONFIG, _SEED_BITS, _OUT)
_CODER = ("seed_bits", "best_seed_alpha", "models")

_COMMANDS = {
    "fp-rate": _Command("Monte-Carlo false-positive rate", _cmd_fp_rate, (
        _CONFIG, _TRIALS, _OUT, _FORMAT), ("seed", "trials", "models"), one_model=True),
    "demo-violations": _Command("deterministic failure demos", _cmd_demo, _EXHAUSTIVE,
                                ("seed", "seed_bits", "models"), one_model=True),
    "verify": _Command("run the exhaustive verification suite", _cmd_verify, _EXHAUSTIVE, (
        "seed_bits", "alphas", "best_seed_alpha", "models", "grid", "negative_probe")),
    "bounds": _Command("evaluate bound checks from a config", _cmd_bounds, (_CONFIG, _OUT)),
    "encode": _Command("code a dataset as (state, index)", _cmd_encode, (
        *_EXHAUSTIVE,
        _Option("--elements", "elements", required=True, help="comma separated elements"),
    ), _CODER, one_model=True),
    "decode": _Command("recover a dataset from (state, index)", _cmd_decode, (
        *_EXHAUSTIVE,
        _Option("--state", "state", required=True, help="serialized paired state"),
        _Option("--index", "index", type=int, required=True),
    ), _CODER, one_model=True),
}


def _quick_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a plain line, COMMAND (--flag value)*;
    None for every other line.

    A plain line names each of its command's options at most once, by its
    exact flag, with no value that starts with "-".  A value argparse would
    refuse (a failed int conversion, a --format outside its choices) or a
    required option left out also gives None, so that argparse prints its
    error as ever."""
    command = _COMMANDS.get(argv[0]) if len(argv) % 2 else None
    if command is None:
        return None
    options = {opt.flag: opt for opt in command.options}
    args = SimpleNamespace(command=argv[0], func=command.func,
                           **{opt.dest: opt.default for opt in options.values()})
    for flag, text in zip(argv[1::2], argv[2::2]):
        opt = options.pop(flag, None)  # a repeated flag is not found again
        if opt is None or text.startswith("-"):
            return None
        if opt.type is not None:
            try:
                text = opt.type(text)
            except ValueError:
                return None
        if opt.choices is not None and text not in opt.choices:
            return None
        setattr(args, opt.dest, text)
    if any(opt.required for opt in options.values()):
        return None
    return args


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="filterbounds",
        description="Membership filter experiments and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.summary)
        p.set_defaults(func=command.func)
        for opt in command.options:
            p.add_argument(opt.flag, dest=opt.dest, type=opt.type, default=opt.default,
                           choices=opt.choices, required=opt.required, help=opt.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A one-shot command needs none of its objects freed at exit, so it skips
    # the interpreter's final collections: gc.freeze, run from atexit, moves
    # the whole heap out of their reach. Streams are still flushed and other
    # atexit handlers still run; a caller that runs main in-process keeps its
    # live heap unfrozen until it exits. Unregistering first keeps one entry.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads into the same kind of namespace as _quick_args
    args = _quick_args(argv) or _build_parser().parse_args(argv, SimpleNamespace())
    try:
        if args.out:
            _check_out(args.out)
        return _report(args.func(args), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
