"""Time each CLI command of one checkout end to end, and digest what it prints.

    python3 tools/bench.py CHECKOUT LABEL

CHECKOUT is a checkout of filterbounds, for example a `git archive` export
(see pairs.check_checkout).  Each row runs 5 times as a child process,
start-up included, with PYTHONPATH=src and PYTHONDONTWRITEBYTECODE=1: a bare
interpreter, the import of filterbounds.cli, encode at 6 seed bits, verify
at 7 and 16 seed bits, fp-rate at 10k and 100k trials, demo-violations at
16 seed bits, and verify at 16 seed bits on outputs.zoo at u=16, n=4, at
u=20, n=5 and at u=24, n=6 (the last is refused by the step budget).

Then one more child, with the same environment, times each layer in
process (time_layers): subset index and unindex, the exact-set
insert_state, fingerprint(), the fingerprint model's query_bit, the witness
table of one seed, pair_init, check_reduction at 256 seeds, find_best_seed
and one fp-rate trial.  Each layer runs a fixed loop of calls 5 times; its
row keeps the loop's call count, the min over the 5 repeats of the time per
call in microseconds, and the sha256 of what the loop returned.

BENCH_<LABEL>.json, written in the current directory, records the Python
version, os.cpu_count(), per command row its min and median wall time in
seconds, its exit code and the sha256 of its stdout, and the layer rows
under "layers".  Two BENCH files whose digests agree row by row show that
a change moved no report and no layer's result.  A row whose 5 runs
disagree on exit code, stdout or result is an error.  Standard library
only.  Exit 0 when the file is written, 1 when a row is not deterministic
or the layer child fails, 2 for a bad checkout or label.
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


def time_layers() -> None:
    """Print, as JSON, the row of each layer; run in a child whose
    filterbounds is the checkout's."""
    from fractions import Fraction

    from filterbounds.bounds import BoundsParams, find_best_seed
    from filterbounds.combinat import (bounded_subset_count, bounded_subset_index,
                                       bounded_subset_unindex, iter_subsets_of_size)
    from filterbounds.core import UniverseParams
    from filterbounds.filters import (ExactSetModel, FingerprintMultisetModel, NoisyExactModel,
                                      Seed, fingerprint, seed_classes, seed_space)
    from filterbounds.harness import config_from_dict, default_fp_config, run_fp_experiment
    from filterbounds.reduction import PairedStaticFilter, check_reduction, pair_init
    from filterbounds.witness import witness_transform

    # u=16, n=4: 1,820 datasets and 2,517 subsets of size at most 4
    u, n = 16, 4
    datasets = list(iter_subsets_of_size(u, n))
    subsets = [s for k in range(n + 1) for s in iter_subsets_of_size(u, k)]
    indices = range(bounded_subset_count(u, n))
    seed = Seed(5, 8)
    exact = ExactSetModel(UniverseParams(u, n))
    noisy = witness_transform(NoisyExactModel(UniverseParams(u, n), Fraction(1, 6), noise_m=1))
    small = witness_transform(NoisyExactModel(UniverseParams(6, 2), Fraction(1, 6), noise_m=1))
    fp = FingerprintMultisetModel(UniverseParams(1 << 16, 16), Fraction(1, 8))
    fp_state = fp.state_for_elements(seed, range(0, 1 << 16, 1 << 12))
    seeds = list(seed_space(8))
    fp_cfg = config_from_dict({"trials": 1000}, default_fp_config())

    def inserts() -> list:
        out = []
        for ds in datasets:
            state = exact.fresh_state(seed)
            for x in ds:
                state = exact.insert_state(seed, state, x)
            out.append(state)
        return out

    # name: (calls per loop, the loop); a witness keeps one seed's table, so
    # tables built for alternating seeds are each built afresh
    layers = {
        "bounded_subset_index": (len(subsets), lambda: [
            bounded_subset_index(s, u, n) for s in subsets]),
        "bounded_subset_unindex": (len(indices), lambda: [
            bounded_subset_unindex(i, u, n) for i in indices]),
        "ExactSetModel.insert_state": (len(datasets) * n, inserts),
        "fingerprint": (1000, lambda: [fingerprint(x, seed, 8, 1 << 16) for x in range(1000)]),
        "FingerprintMultisetModel.query_bit": (1000, lambda: [
            fp.query_bit(seed, fp_state, x) for x in range(1000)]),
        "witness table of one seed": (8, lambda: [
            noisy.yes_mask(s, noisy.fresh_state(s)) for s in seeds[:8]]),
        "pair_init": (len(datasets), lambda: [pair_init(noisy, seed, ds) for ds in datasets]),
        "check_reduction at 256 seeds": (1, lambda: check_reduction(
            small, seed_classes(small, seeds)).to_json_dict()),
        "find_best_seed": (1, lambda: find_best_seed(
            PairedStaticFilter(small), BoundsParams(6, 2), seeds[:16])),
        "fp-rate trial": (fp_cfg.trials, lambda: run_fp_experiment(fp_cfg)),
    }
    rows = []
    for name, (calls, loop) in layers.items():
        times, results = [], set()
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = loop()
            times.append(time.perf_counter() - start)
            results.add(hashlib.sha256(repr(result).encode()).hexdigest())
        if len(results) != 1:
            raise RuntimeError(f"{name}: repeats disagree on their result")
        rows.append({"name": name, "calls": calls,
                     "min_us": round(min(times) / calls * 1e6, 3),
                     "result_sha256": results.pop()})
    print(json.dumps(rows))


def layer_rows(root: Path) -> list[dict]:
    """The rows time_layers prints in a child on checkout root."""
    tools = str(Path(__file__).resolve().parent)
    script = f"import sys; sys.path.insert(0, {tools!r}); import bench; bench.time_layers()"
    stdout, stderr, code = python(root, ["-c", script])
    if code != 0:
        raise RuntimeError(f"layer timings exited {code}: {stderr[-500:]}")
    return json.loads(stdout)


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
        layers = layer_rows(root)
        for row in layers:
            print(f"layer {row['name']}: {row['min_us']:.3f} us per call over {row['calls']}, "
                  f"result {row['result_sha256'][:12]}")
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"label": args.label, "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "repeats": REPEATS, "rows": results,
              "layers": layers}
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
