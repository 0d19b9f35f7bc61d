"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N

PARENT and CHANGE are two checkouts of filterbounds, for example two
`git archive` exports.  Pair i runs `perfbench/run.py --workload W
--trace 0 --seconds S --seed i` once in each checkout, back to back, with S
the `run_seconds` of BENCHMARK.json;
PARENT goes first in even pairs and CHANGE in odd ones, so that a host
whose speed drifts favours neither side.  The runs get
PYTHONDONTWRITEBYTECODE=1, and a checkout that holds a bytecode cache of
the package is refused before each run: a stray cache makes a checkout
start measurably faster than a clean one.

For each end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles over the pairs, how far the change's median moved from
the parent's, and the number of pairs the change wins by the metric's
`better` direction.  The move is `within` or `PAST` the metric's bound, or
`unresolved` when the parent's quartile spread, relative to its median, is
wider than the bound and not every run of the change reads better than every
run of the parent.  Then come each side's failed and attempted operations.
Standard library only.  Exit 0 when every run finished, 1 when a run gave
no result, 2 for a bad checkout or argument.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Refused(Exception):
    """A checkout or argument the comparison cannot use."""


def check_checkout(root: Path) -> None:
    if not (root / "perfbench" / "run.py").is_file():
        raise Refused(f"{root} has no perfbench/run.py")
    if not (root / "src" / "filterbounds").is_dir():
        raise Refused(f"{root} has no src/filterbounds")
    if (root / "src" / "filterbounds" / "__pycache__").exists():
        raise Refused(f"{root}/src/filterbounds/__pycache__ exists; remove it or export afresh")


def run_once(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in root: the JSON object on the last line of its stdout."""
    check_checkout(root)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
            "--seconds", str(seconds), "--seed", str(seed)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        (pq1, pm, pq3), (cq1, cm, cq3) = spread(values["parent"]), spread(values["change"])
        moved = (cm - pm) / pm if pm else float("nan")
        worse = moved if lower else -moved
        noise = (pq3 - pq1) / pm if pm else float("inf")
        parted = all((c < p) if lower else (c > p)
                     for c in values["change"] for p in values["parent"])
        if noise > metric["bound"] and not parted:
            verdict = "unresolved"
        else:
            verdict = "within" if worse <= metric["bound"] else "PAST"
        lines.append(
            f"{name} [{metric['unit']}, {metric['better']} is better]: "
            f"parent {pm:.4f} ({pq1:.4f}..{pq3:.4f}), change {cm:.4f} ({cq1:.4f}..{cq3:.4f}), "
            f"medians {moved:+.1%}, {verdict} bound {metric['bound']} "
            f"(parent spread {noise:.1%}), "
            f"change wins {wins} of {len(pairs)} pairs"
        )
    for side, side_runs in runs.items():
        failed = sum(run["failed"] for run in side_runs)
        attempted = sum(run["attempted"] for run in side_runs)
        lines.append(f"{side}: {failed} failed of {attempted} operations")
    return lines


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    metrics = benchmark["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    try:
        if args.pairs < 1:
            raise Refused("--pairs must be at least 1")
        for root in sides.values():
            check_checkout(root)
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                result = run_once(sides[side], args.workload, benchmark["run_seconds"], i)
                runs[side].append(result)
                shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4f}"
                                 for m in metrics)
                print(f"pair {i} {side}: {shown} failed={result['failed']}", flush=True)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: a run gave no result: {exc!r}", file=sys.stderr)
        return 1
    print("\n".join(report(metrics, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
