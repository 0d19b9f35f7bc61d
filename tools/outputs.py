"""Compare what two checkouts print, command by command.

    python3 tools/outputs.py PARENT CHANGE

PARENT and CHANGE are two checkouts of filterbounds, for example two
`git archive` exports.  One fixed list of CLI invocations runs in each
checkout, as `python3 -m filterbounds ...` with PYTHONPATH=src,
PYTHONDONTWRITEBYTECODE=1 and COLUMNS=80; every config a case needs is
written into one temporary directory that both sides read.  The list covers
every command: verify at 7 and 16 seed bits and the negative control (its
config written by PARENT's `perfbench/launch.py --setup certify`), fp-rate
as JSON and CSV, encode of all 15 datasets of the default zoo at 6 bits and
decode of what PARENT printed for each, demo-violations, a bounds config
with one entry of each check, a bounds list and a verify grid priced past
their bit budgets, the seven help texts, the refusals of encode
and decode, the lines that only argparse reads (other spellings, repeated
and unknown flags, values it refuses, help after a flag), and two config
files json cannot read: bytes that are not UTF-8, and nesting past the
recursion limit; the refusals of a config's own fields: seed_bits past
16 or not an integer, 0 trials, both at once, and an unknown model kind;
the refusals of fp-rate's own model checks: an exact_set model, u = n and
a dataset past the dataset budget; verify with no alphas (refused, as a
counting check at no alpha would check nothing) and with one alpha and
another best_seed_alpha; a negative probe and a grid cell that read but are
refused when evaluated; flags a command does not read (--trials on verify
and encode, --format on verify, --seed-bits on fp-rate and bounds), which
argparse refuses; a --seed-bits or --trials flag over a config file value
that alone would be refused; config fields a command does not read (trials
on verify and encode, alphas on fp-rate and demo-violations, and fp-rate
with no alphas); a models list of two on encode and fp-rate, which read
only the first, and encode on the default zoo restated, which is accepted;
verify at 16 seed bits on the two-model zoo at u=16, n=4 and at u=20, n=5,
sweeps that the zoo-wide step budget still admits; and verify on an empty
zoo and on a grid with an empty axis, refused as suites that would check
nothing.  With the 30 encodes and decodes, that makes 104 cases.

Each case whose stdout, stderr or exit code differs is printed, then the
count.  Standard library only.  Exit 0 when no case differs, 1 when one
does, 2 for a bad checkout (see pairs.check_checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from pairs import Refused, check_checkout

# one entry of each bounds check
MIXED_BOUNDS = {
    "bounds_checks": [
        {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5},
        {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
        {"check": "space", "kind": "dynamic", "u": 16, "n": 4},
    ]
}
# the fifth entry takes the running sum past the list's bit budget, before
# the refused entry after it is read
BOUNDS_PAST_THE_SUM = {
    "bounds_checks": [{"check": "binom_scaling", "u": 65536, "n": 32768, "beta": "1"}] * 5
    + [{"check": "space", "u": 3, "n": 2}]
}
# the second cell is over its own bit budget, and the grid's sum would be too
GRID_CELL_PAST_BUDGET = {"grid": {"u": [65536, 1000000], "n": [32768], "beta": ["1"]}}
# a model whose sweep at 16 seed bits takes seconds: 20 seed classes x
# C(20, 5) datasets x 5 steps
NOISY20 = {"models": [{"kind": "noisy_exact", "u": 20, "n": 5, "eps_plus": "1/20", "noise_m": 1}]}
# C(2**62, 2**61) datasets, past every budget
FP62 = {"models": [{"kind": "fingerprint_multiset", "u": 1 << 62, "n": 1 << 61, "eps_plus": "1/2"}]}
ALPHA1 = {"best_seed_alpha": "1"}
# fp-rate's own refusals: a model other than the fingerprint one, no
# nonmembers, and a dataset past core.DATASET_BUDGET
FP_EXACT = {"models": [{"kind": "exact_set", "u": 6, "n": 2}]}
FP_FULL = {"models": [{"kind": "fingerprint_multiset", "u": 4, "n": 4, "eps_plus": "1/2"}]}
FP_WIDE = {"models": [
    {"kind": "fingerprint_multiset", "u": 10**7, "n": 10**6 + 1, "eps_plus": "1/8"}
]}


def zoo(u: int, n: int) -> dict:
    """exact_set, then noisy_exact with eps_plus 1/6 and noise_m 1, at u and n."""
    noisy = {"kind": "noisy_exact", "u": u, "n": n, "eps_plus": "1/6", "noise_m": 1}
    return {"models": [{"kind": "exact_set", "u": u, "n": n}, noisy]}


BOGUS_KIND = {"models": [{"kind": "bogus", "u": 6, "n": 2}]}
# a probe and a grid cell whose fields read, refused only by their checks
PROBE_ALPHA1 = {"negative_probe": {"u": 8, "n": 2, "fspace_bits": 3, "alpha": "1"}}
GRID_N_PAST_U = {"grid": {"u": [4], "n": [8], "beta": ["1"]}}
EMPTY_GRID_AXIS = {"grid": {"u": [], "n": [4], "beta": ["1/2"]}}
STATE13 = ["--state", "5:01011/5:00000", "--index", "0"]
# a second model that one-model commands never build, and no command could
BAD_SECOND = {"kind": "exact_set", "u": 2, "n": 5}
ENCODE_TWO = {"models": [{"kind": "exact_set", "u": 6, "n": 2}, BAD_SECOND]}
FP_TWO = {"models": [{"kind": "fingerprint_multiset", "u": 65536, "n": 16, "eps_plus": "1/8"},
                     BAD_SECOND]}


def run(root: Path, argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of the CLI in checkout root."""
    check_checkout(root)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "filterbounds", *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    return done.stdout, done.stderr, done.returncode


def cases(parent: Path, tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every case but the encodes and decodes of the 15 datasets."""
    def config(name: str, data: dict | bytes) -> list[str]:
        path = tmp / f"{name}.json"
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        return ["--config", str(path)]

    setup = [sys.executable, "perfbench/launch.py", "--setup", "certify", str(tmp)]
    env = {**os.environ, "PYTHONPATH": str(parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if subprocess.run(setup, cwd=parent, env=env).returncode != 0:
        raise Refused(f"{parent}: perfbench/launch.py --setup certify failed")
    listed = [
        ("verify 7 bits", ["verify", "--seed-bits", "7"]),
        ("verify 16 bits", ["verify", "--seed-bits", "16"]),
        ("negative control", ["verify", "--seed-bits", "7", "--config",
                              str(tmp / "negative_control.json")]),
        ("fp-rate json", ["fp-rate", "--trials", "10000"]),
        ("fp-rate csv", ["fp-rate", "--trials", "10000", "--format", "csv"]),
        ("demo 8 bits", ["demo-violations", "--seed-bits", "8"]),
        ("demo 16 bits", ["demo-violations", "--seed-bits", "16"]),
        ("bounds", ["bounds", *config("bounds", MIXED_BOUNDS)]),
        ("bounds past the sum", ["bounds", *config("bounds_sum", BOUNDS_PAST_THE_SUM)]),
        ("grid cell past its budget", ["verify", *config("grid", GRID_CELL_PAST_BUDGET)]),
        ("help", ["--help"]),
    ]
    for command in ("fp-rate", "demo-violations", "verify", "bounds", "encode", "decode"):
        listed.append((f"help {command}", [command, "--help"]))
    listed += [
        ("encode one element", ["encode", "--elements", "1"]),
        ("encode out of range", ["encode", "--elements", "1,9"]),
        ("decode garbage", ["decode", "--state", "garbage", "--index", "0"]),
        ("decode leading zero", ["decode", "--state", "05:01011/5:00000", "--index", "0"]),
        ("encode alpha 1", ["encode", "--elements", "1,3", *config("alpha1", ALPHA1)]),
        ("decode alpha 1", ["decode", *STATE13, *config("alpha1", ALPHA1)]),
    ]
    listed += [
        ("verify --seed-bits=7", ["verify", "--seed-bits=7"]),
        ("verify --seed 7", ["verify", "--seed", "7"]),
        ("repeated flag", ["verify", "--seed-bits", "3", "--seed-bits", "7"]),
        ("decode index -1", ["decode", *STATE13[:3], "-1"]),
        ("fp-rate trials 1e3", ["fp-rate", "--trials", "1e3"]),
        ("verify format xml", ["verify", "--format", "xml"]),
        ("encode no elements", ["encode"]),
        ("help after a flag", ["verify", "--seed-bits", "7", "-h"]),
        ("unknown flag", ["verify", "--unknown", "1"]),
        ("config not UTF-8", ["verify", *config("not_utf8", b"\xff\xfe{}")]),
        ("config too deep", ["bounds", *config("too_deep", b"[" * 100_000)]),
    ]
    listed += [
        ("verify seed bits 17", ["verify", "--seed-bits", "17"]),
        ("fp-rate seed bits 17", ["fp-rate", "--seed-bits", "17"]),
        ("fp-rate trials 0", ["fp-rate", "--trials", "0"]),
        ("demo trials 0", ["demo-violations", "--trials", "0"]),
        ("config seed bits 2.5", ["verify", *config("seed_bits_float", {"seed_bits": 2.5})]),
        ("config seed bits 40, trials 0",
         ["verify", *config("two_sizes", {"seed_bits": 40, "trials": 0})]),
        ("config unknown kind", ["verify", *config("bogus", BOGUS_KIND)]),
        ("fp-rate exact_set", ["fp-rate", *config("fp_exact", FP_EXACT)]),
        ("fp-rate u = n", ["fp-rate", *config("fp_full", FP_FULL)]),
        ("fp-rate n past the dataset budget", ["fp-rate", *config("fp_wide", FP_WIDE)]),
        ("verify no alphas", ["verify", "--seed-bits", "7", *config("no_alphas", {"alphas": []})]),
        ("verify alpha 3/2, best seed alpha 4",
         ["verify", "--seed-bits", "7",
          *config("alpha_best4", {"alphas": ["3/2"], "best_seed_alpha": "4"})]),
        ("probe alpha 1", ["verify", *config("probe_alpha1", PROBE_ALPHA1)]),
        ("grid n past u", ["verify", *config("grid_n_past_u", GRID_N_PAST_U)]),
        # flags a command does not read, and flags that override a refused config value
        ("verify trials 5", ["verify", "--trials", "5"]),
        ("encode trials 5", ["encode", "--trials", "5", "--elements", "1,3"]),
        ("verify format json", ["verify", "--format", "json"]),
        ("fp-rate seed bits 3", ["fp-rate", "--seed-bits", "3"]),
        ("bounds seed bits 3", ["bounds", *config("bounds", MIXED_BOUNDS), "--seed-bits", "3"]),
        ("seed bits 2 over config seed bits 40",
         ["verify", *config("seed_bits40", {"seed_bits": 40}), "--seed-bits", "2"]),
        ("trials 10 over config trials 0",
         ["fp-rate", *config("trials0", {"trials": 0}), "--trials", "10"]),
        # config fields a command does not read, and models lists past a
        # one-model command's first; the default zoo restated is accepted
        ("verify config trials 3", ["verify", *config("trials3", {"trials": 3})]),
        ("encode config trials 3",
         ["encode", "--elements", "1,3", *config("trials3", {"trials": 3})]),
        ("fp-rate config alphas 3", ["fp-rate", *config("alphas3", {"alphas": ["3"]})]),
        ("demo config alphas 3", ["demo-violations", *config("alphas3", {"alphas": ["3"]})]),
        ("fp-rate config no alphas", ["fp-rate", *config("no_alphas", {"alphas": []})]),
        ("encode two models", ["encode", "--seed-bits", "3", "--elements", "1,3",
                               *config("encode_two", ENCODE_TWO)]),
        ("fp-rate two models", ["fp-rate", "--trials", "100", *config("fp_two", FP_TWO)]),
        ("encode default zoo restated",
         ["encode", "--elements", "1,3", *config("zoo6", zoo(6, 2))]),
        ("zoo u=16 verify 16 bits", ["verify", "--seed-bits", "16", *config("zoo16", zoo(16, 4))]),
        ("zoo u=20 verify 16 bits", ["verify", "--seed-bits", "16", *config("zoo20", zoo(20, 5))]),
    ]
    noisy20 = ["--seed-bits", "16", *config("noisy20", NOISY20)]
    noisy20_alpha1 = ["--seed-bits", "16", *config("noisy20_alpha1", {**NOISY20, **ALPHA1})]
    listed += [
        ("u=20 encode too few", ["encode", "--elements", "0,1", *noisy20]),
        ("u=20 decode garbage", ["decode", "--state", "garbage", "--index", "0", *noisy20]),
        ("u=20 encode alpha 1", ["encode", "--elements", "0,1,2,3,4", *noisy20_alpha1]),
        ("u=20 decode alpha 1", ["decode", *STATE13, *noisy20_alpha1]),
        ("u=20 encode", ["encode", "--elements", "0,1,2,3,4", *noisy20]),
        ("u=2^62 encode", ["encode", "--elements", "0,1", "--seed-bits", "1",
                           *config("fp62", FP62)]),
        ("u=2^62 decode", ["decode", "--state", "0:/0:", "--index", "0", "--seed-bits", "1",
                           *config("fp62", FP62)]),
        ("verify empty zoo", ["verify", "--seed-bits", "7", *config("empty_zoo", {"models": []})]),
        ("verify empty grid axis",
         ["verify", "--seed-bits", "7", *config("empty_grid_axis", EMPTY_GRID_AXIS)]),
    ]
    return listed


def compare(parent: Path, change: Path, name: str, argv: list[str]) -> tuple[bool, str]:
    """Whether the case differs, printing it if so, and PARENT's stdout."""
    before, after = run(parent, argv), run(change, argv)
    if before != after:
        print(f"differs: {name}: filterbounds {' '.join(argv)}")
        for label, old, new in zip(("stdout", "stderr", "exit"), before, after):
            if old != new:
                print(f"  {label}: parent {str(old)[-300:]!r}")
                print(f"  {label}: change {str(new)[-300:]!r}")
    return before != after, before[0]


def printed_code(stdout: str) -> list[str]:
    """The state and index an encode printed; FAIL and 0 if it printed none."""
    try:
        report = json.loads(stdout)
        return ["--state", report["state"], "--index", report["index"]]
    except (ValueError, KeyError, TypeError):
        return ["--state", "FAIL", "--index", "0"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differ = count = 0
    try:
        for root in (parent, change):
            check_checkout(root)
        with tempfile.TemporaryDirectory() as tmp:
            for name, case in cases(parent, Path(tmp)):
                differ += compare(parent, change, name, case)[0]
                count += 1
        # each of the 15 datasets of the default zoo, encoded, then decoded
        for dataset in combinations(range(6), 2):
            elements = ",".join(map(str, dataset))
            encode = ["encode", "--seed-bits", "6", "--elements", elements]
            changed, printed = compare(parent, change, f"encode {elements}", encode)
            decode = ["decode", "--seed-bits", "6", *printed_code(printed)]
            differ += changed + compare(parent, change, f"decode {elements}", decode)[0]
            count += 2
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{differ} of {count} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
