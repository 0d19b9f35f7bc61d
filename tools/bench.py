"""Time each CLI command of one checkout end to end, and digest what it prints.

    python3 tools/bench.py CHECKOUT LABEL

CHECKOUT is a checkout of filterbounds, for example a `git archive` export
(see pairs.check_checkout).  Each row runs 5 times as a child process,
start-up included, with PYTHONPATH=src and PYTHONDONTWRITEBYTECODE=1: a bare
interpreter, the import of filterbounds.cli, encode at 6 seed bits, verify
at 7 and 16 seed bits, fp-rate at 10k and 100k trials, demo-violations at
16 seed bits, and verify at 16 seed bits on outputs.zoo at u=16, n=4, at
u=20, n=5 and at u=24, n=6 (the last is refused by the step budget).

BENCH_<LABEL>.json, written in the current directory, records the Python
version, os.cpu_count() and per row its min and median wall time in
seconds, its exit code and the sha256 of its stdout.  Two BENCH files
whose digests agree row by row show that a change moved no report.  A row
whose 5 runs disagree on exit code or stdout is an error.  Standard library
only.  Exit 0 when the file is written, 1 when a row is not deterministic,
2 for a bad checkout or label.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from outputs import run, zoo
from pairs import Refused, check_checkout

REPEATS = 5


def python(root: Path, argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of the interpreter in checkout root."""
    check_checkout(root)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    return done.stdout, done.stderr, done.returncode


def rows(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI argv) of every row after the two start-up rows."""
    listed = [
        ("encode --seed-bits 6 --elements 1,3", ["encode", "--seed-bits", "6", "--elements", "1,3"]),
        ("verify --seed-bits 7", ["verify", "--seed-bits", "7"]),
        ("verify --seed-bits 16", ["verify", "--seed-bits", "16"]),
        ("fp-rate --trials 10000", ["fp-rate", "--trials", "10000"]),
        ("fp-rate --trials 100000", ["fp-rate", "--trials", "100000"]),
        ("demo-violations --seed-bits 16", ["demo-violations", "--seed-bits", "16"]),
    ]
    for u, n in ((16, 4), (20, 5), (24, 6)):
        path = tmp / f"zoo{u}.json"
        path.write_text(json.dumps(zoo(u, n)))
        listed.append((f"zoo u={u}, n={n} verify --seed-bits 16",
                       ["verify", "--seed-bits", "16", "--config", str(path)]))
    return listed


def measure(name: str, call) -> dict:
    """The row of name: call run REPEATS times, timed."""
    times, outcomes = [], set()
    for _ in range(REPEATS):
        start = time.perf_counter()
        stdout, _, code = call()
        times.append(time.perf_counter() - start)
        outcomes.add((code, hashlib.sha256(stdout.encode()).hexdigest()))
    if len(outcomes) != 1:
        raise RuntimeError(f"{name}: runs disagree on exit code or stdout: {sorted(outcomes)}")
    [(code, digest)] = outcomes
    return {"name": name, "min_s": round(min(times), 4),
            "median_s": round(statistics.median(times), 4),
            "exit": code, "stdout_sha256": digest}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("label")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    out = Path(f"BENCH_{args.label}.json")
    results = []
    try:
        if not args.label or out.name != str(out):
            raise Refused(f"label {args.label!r} must be a plain file name part")
        check_checkout(root)
        with tempfile.TemporaryDirectory() as tmp:
            calls = [
                ("python -c pass", lambda: python(root, ["-c", "pass"])),
                ("import filterbounds.cli", lambda: python(root, ["-c", "import filterbounds.cli"])),
            ]
            calls += [(name, lambda cli=cli: run(root, cli)) for name, cli in rows(Path(tmp))]
            for name, call in calls:
                results.append(measure(name, call))
                row = results[-1]
                print(f"{name}: min {row['min_s']:.3f} s, median {row['median_s']:.3f} s, "
                      f"exit {row['exit']}, stdout {row['stdout_sha256'][:12]}", flush=True)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"label": args.label, "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "repeats": REPEATS, "rows": results}
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
