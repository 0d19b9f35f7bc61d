"""The filterbounds benchmark.

    python3 perfbench/run.py --workload certify|montecarlo|coding|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Every timed operation runs in a fresh child process and only one child is
alive at a time, as a shell user would start `filterbounds` once per
command.  With --trace 0 each unit of work runs twice, once by the program
and once by the seed commit's program (perfbench/seed_program.zip), and
the run reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced operations and reports the per-layer metrics.  Each report is checked against the digests recorded at
the seed commit.  The last line of stdout is one JSON object; the lines
before it are for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_stats, read_spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = json.loads((BENCH / "digests.json").read_text())
# The program as it was at the seed commit, the yardstick of every timed
# unit; unpacked into SEED_WORK / "src" on first use.
SEED_ZIP = BENCH / "seed_program.zip"
SEED_WORK = WORK / "seed"

RUN_DEADLINE_S = 170.0  # a one-workload run must be over within 180 s
SETUP_PROBES = 15
CODING_UNIVERSE = 6
SWEEP_LAYERS = ("witness", "reduction", "bounds", "combinat")

# Sizes of one operation.  "full" is what the benchmark measures; "smoke"
# is the same shape at a size that finishes in seconds.  Operations are kept
# to a few seconds so that a run holds several of them.  `min_ops` counts
# units; a run needs three passes (six certify halves) for a median.
SIZES = {
    "full": {"verify_bits": 7, "negative_bits": 7, "trials": 10_000, "min_ops": {"certify": 6, "montecarlo": 3, "coding": 3}},
    "smoke": {"verify_bits": 6, "negative_bits": 4, "trials": 2_000, "min_ops": {"certify": 1, "montecarlo": 1, "coding": 1}},
}

# Call counts of the seed commit, per step and size.  The traced run prints
# how each count compares; they describe the program, so a change that
# moves them on purpose is reported, not failed.
PINS = {
    ("verify", 10): {
        "witness.state_after.calls": 276_570,
        "witness.state_after.distinct": 61_440,
        "reduction.pair_init.calls": 61_470,
        "bounds.is_good_pair.calls": 30_720,
    },
    ("verify", 8): {
        "witness.state_after.calls": 69_210,
        "witness.state_after.distinct": 15_360,
        "reduction.pair_init.calls": 15_390,
        "bounds.is_good_pair.calls": 7_680,
    },
    ("negative_control", 8): {
        "witness.state_after.calls": 103_815,
        "filters.seed_word.calls": 184_560,
    },
    # the size a timed certify pass runs at
    ("verify", 7): {
        "witness.state_after.calls": 34_650,
        "witness.state_after.distinct": 7_680,
        "reduction.pair_init.calls": 7_710,
        "bounds.is_good_pair.calls": 3_840,
    },
    ("negative_control", 7): {
        "witness.state_after.calls": 51_975,
        "filters.seed_word.calls": 92_400,
    },
}
SEED_WORDS_PER_TRIAL = 36


@dataclass
class Step:
    """One child process: its command, exit, wall time and what went wrong."""

    name: str
    wall_s: float = 0.0
    rss_mb: float = 0.0
    stdout: bytes = b""
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    trials: int = 0


@dataclass
class Op:
    """One timed operation: half a certify pass, a montecarlo pass or a coding request."""

    steps: list[Step]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def ok(self) -> bool:
        return not any(s.problems for s in self.steps)


class Runner:
    """Starts children of one program one at a time and checks what they print.

    `src` holds the program's `filterbounds` package; `work` takes the
    program's scratch files (the negative-control config).
    """

    def __init__(self, size: str, deadline: float, src: Path = SRC, work: Path = WORK):
        self.size = size
        self.deadline = deadline
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.op_id = -1

    def begin_op(self) -> None:
        """Number the next operation; its traced children carry the id."""
        self.op_id += 1

    def spawn(self, argv: list[str]) -> tuple[int, float, float, bytes, bytes]:
        """Run one child to exit: (exit code, wall s, peak RSS MB, stdout, stderr)."""
        out, err = WORK / f"stdout-{os.getpid()}", WORK / f"stderr-{os.getpid()}"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status) if ready else -signal.SIGKILL
        output = out.read_bytes(), err.read_bytes()
        out.unlink()
        err.unlink()
        return code, wall, usage.ru_maxrss / 1024, *output

    def step(self, name: str, cli_args: list[str], expect_rc: int, traced: bool) -> Step:
        """Run one CLI command, traced or not, and check its exit code."""
        launcher = [str(BENCH / "launch.py")]
        spans = WORK / f"spans-{os.getpid()}-{name}.bin"
        if traced:
            launcher += ["--trace", str(spans), str(self.op_id), name]
        code, wall, rss, out, err = self.spawn(launcher + cli_args)
        result = Step(name, wall, rss, out)
        if code != expect_rc:
            last = err.decode(errors="replace").strip().splitlines()[-1:] or ["no stderr"]
            result.problems.append(f"{name}: exit {code}, expected {expect_rc} ({last[0]})")
        if traced and spans.exists():
            header, *columns = read_spans(str(spans))
            spans.unlink()
            result.layers = layer_stats(header["names"], *columns)
            result.observed = header["observed"]
        return result

    def check_digest(self, step: Step, expected: str) -> None:
        digest = hashlib.sha256(step.stdout).hexdigest()
        if digest != expected:
            step.problems.append(f"{step.name}: report sha256 {digest[:16]} != seed commit {expected[:16]}")

    def setup_probe(self, workload: str) -> float:
        code, wall, _, _, err = self.spawn([str(BENCH / "launch.py"), "--setup", workload, str(self.work)])
        if code != 0:
            raise RuntimeError(f"set-up of {workload} failed: {err.decode(errors='replace').strip()}")
        return wall


def certify_unit(runner: Runner, traced: bool, _rng: random.Random, index: int) -> list[Op]:
    """Half a certify pass: the default zoo on even units, the negative control on odd ones.

    A pass is split in two so that a timed unit lasts about two seconds and
    a run holds several of them.
    """
    size = SIZES[runner.size]
    digests = DIGESTS[runner.size]
    runner.begin_op()
    if index % 2 == 0:
        step = runner.step("verify", ["verify", "--seed-bits", str(size["verify_bits"])], 0, traced)
    else:
        config = str(runner.work / "negative_control.json")
        args = ["verify", "--config", config, "--seed-bits", str(size["negative_bits"])]
        step = runner.step("negative_control", args, 1, traced)
    runner.check_digest(step, digests[step.name])
    return [Op([step])]


def montecarlo_unit(runner: Runner, traced: bool, _rng: random.Random, _index: int) -> list[Op]:
    trials = SIZES[runner.size]["trials"]
    runner.begin_op()
    step = runner.step("fp_rate", ["fp-rate", "--trials", str(trials)], 0, traced)
    step.trials = trials
    runner.check_digest(step, DIGESTS[runner.size]["fp_rate"])
    try:
        report = json.loads(step.stdout)
        expected = (DIGESTS[runner.size]["fp_hits"], "1/1", True, trials)
        found = (report["fp_hits"], report["completeness_rate"], report["passed"], report["trials"])
        if found != expected:
            step.problems.append(f"fp_rate: (fp_hits, completeness, passed, trials) {found} != {expected}")
    except (ValueError, KeyError) as exc:
        step.problems.append(f"fp_rate: unreadable report ({exc!r})")
    return [Op([step])]


def coding_unit(runner: Runner, traced: bool, rng: random.Random, _index: int) -> list[Op]:
    """One round trip: an encode request, then a decode of what it printed."""
    dataset = sorted(rng.sample(range(CODING_UNIVERSE), 2))
    key = ",".join(map(str, dataset))
    expected = DIGESTS["coding"][key]
    runner.begin_op()
    encode = runner.step("encode", ["encode", "--seed-bits", "6", "--elements", key], 0, traced)
    runner.check_digest(encode, expected["encode"])
    ops = [Op([encode])]
    try:
        code = json.loads(encode.stdout)
        state, index = code["state"], code["index"]
    except (ValueError, KeyError) as exc:
        encode.problems.append(f"encode: unreadable report ({exc!r})")
        return ops
    runner.begin_op()
    decode = runner.step("decode", ["decode", "--seed-bits", "6", "--state", state, "--index", index], 0, traced)
    runner.check_digest(decode, expected["decode"])
    try:
        if json.loads(decode.stdout)["dataset"] != dataset:
            decode.problems.append(f"decode: round trip of {dataset} returned another dataset")
    except (ValueError, KeyError) as exc:
        decode.problems.append(f"decode: unreadable report ({exc!r})")
    ops.append(Op([decode]))
    return ops


UNITS = {"certify": certify_unit, "montecarlo": montecarlo_unit, "coding": coding_unit}
# Units per pass: a run ends on a whole number of passes.
PASS_UNITS = {"certify": 2, "montecarlo": 1, "coding": 1}


CERTIFY_HALVES = ("verify", "negative_control")


def tail(values: list[float]) -> float:
    """The 90th percentile once ten samples lie beyond it, else the median.

    With fewer than 100 samples no percentile above the median has ten
    samples beyond it, and the slowest of a few passes is noise, not a tail.
    """
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def environment() -> dict:
    """Where the numbers come from; compare runs only within one machine."""
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source.hexdigest(),
    }


def unpack_seed_program() -> Path:
    """Unpack the seed commit's program once per checkout; return its src dir."""
    src = SEED_WORK / "src"
    stamp = SEED_WORK / "zip.sha256"
    digest = hashlib.sha256(SEED_ZIP.read_bytes()).hexdigest()
    if not (stamp.is_file() and stamp.read_text() == digest):
        shutil.rmtree(SEED_WORK, ignore_errors=True)
        with zipfile.ZipFile(SEED_ZIP) as archive:
            archive.extractall(src)
        stamp.write_text(digest)
    return src


@dataclass
class Measured:
    """What one run measured: program units beside their seed-program twins."""

    units: list[list[Op]]
    seed_units: list[list[Op]]
    traced: list[Op]
    setup_s: float


def measure(workload: str, runner: Runner, seed_runner: Runner | None, seed: int, seconds: float) -> Measured:
    """Run units until `seconds` have passed and enough units are done.

    With `seed_runner` (--trace 0) each unit runs twice on the same inputs,
    once by the program and once by the seed commit's program, back to back
    and in alternating order, so that both see the same state of a shared
    host.  Without it (--trace 1) each untraced unit is followed by a traced
    one.  A unit is started only when the previous one
    suggests it ends before the deadline.
    """
    trace = seed_runner is None
    runner.setup_probe(workload)  # warm-up: byte-compiles and writes configs
    if seed_runner:
        seed_runner.setup_probe(workload)
    setup = [] if trace else [runner.setup_probe(workload) for _ in range(SETUP_PROBES)]
    rng = random.Random(f"{workload}:{seed}")
    min_units = PASS_UNITS[workload] if trace else SIZES[runner.size]["min_ops"][workload]
    run = Measured([], [], [], 0.0)
    start = time.monotonic()
    while True:
        unit_start = time.monotonic()
        index = len(run.units)
        if trace:
            run.units.append(UNITS[workload](runner, False, rng, index))
            run.traced += UNITS[workload](runner, True, rng, index)
        else:
            state = rng.getstate()
            # the order flips every pass, so that each half of a pass goes first as often
            order = [runner, seed_runner] if index // PASS_UNITS[workload] % 2 == 0 else [seed_runner, runner]
            done = {}
            for who in order:
                rng.setstate(state)
                done[who] = UNITS[workload](who, False, rng, index)
            run.units.append(done[runner])
            run.seed_units.append(done[seed_runner])
        now = time.monotonic()
        if len(run.units) % PASS_UNITS[workload]:
            continue
        if now - start >= seconds and len(run.units) >= min_units:
            break
        if now + (now - unit_start) > runner.deadline:
            break
    run.setup_s = statistics.median(setup) if setup else 0.0
    return run


def end_to_end(workload: str, run: Measured) -> tuple[dict, list[str]]:
    """The gated metrics, and the issue's named figures for people.

    `op_time_vs_seed` is the median, over the run's units, of the program's
    wall time for the unit divided by the seed commit's program's wall time
    for the same unit, run next to it.  The host's speed drifts by a third
    within minutes, which moves every raw time but cancels in the ratio; the
    raw times are printed, not gated.
    """
    ops = [op for unit in run.units for op in unit]
    walls = [op.wall_s for op in ops]
    ratios = [
        sum(op.wall_s for op in mine) / sum(op.wall_s for op in theirs)
        for mine, theirs in zip(run.units, run.seed_units)
    ]
    metrics = {
        "setup_s": (run.setup_s, "s"),
        "op_time_vs_seed": (statistics.median(ratios), "ratio"),
        "peak_rss_mb": (max(s.rss_mb for op in ops for s in op.steps), "MB"),
    }
    n = len(ops)
    seed_s = statistics.median(sum(op.wall_s for op in unit) for unit in run.seed_units)
    lines = [f"setup_s {run.setup_s:.4f} s (median of {SETUP_PROBES} fresh interpreters)"]
    if workload == "certify":
        halves = [statistics.median(op.wall_s for op in ops if op.steps[0].name == name) for name in CERTIFY_HALVES]
        lines.append(f"certify.pass_s {sum(halves):.4f} s (sum of the median halves, {n // 2} passes)")
    elif workload == "montecarlo":
        rates = [op.steps[0].trials / op.wall_s for op in ops]
        lines.append(f"montecarlo.trials_per_s {statistics.median(rates):.1f} 1/s (median of {n} passes)")
    else:
        lines.append(f"coding.req_p50_ms {statistics.median(walls) * 1000:.2f} ms ({n} requests)")
        lines.append(f"coding.req_p90_ms {tail(walls) * 1000:.2f} ms ({n} requests)")
    lines.append(f"seed program: {seed_s:.4f} s per unit (median of {len(run.seed_units)})")
    lines.append(f"op_time_vs_seed {metrics['op_time_vs_seed'][0]:.4f} ratio (median of {len(ratios)} paired units)")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB (largest of {sum(len(op.steps) for op in ops)} children)")
    return metrics, lines


def per_layer(plain: list[Op], traced: list[Op], pass_units: int) -> tuple[dict, list[str]]:
    """Per-pass means of the traced layer counts and self times."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    observed: dict[str, int] = {}
    trials = 0
    for op in traced:
        for step in op.steps:
            trials += step.trials
            for name, stats in step.layers.items():
                calls[name] = calls.get(name, 0) + stats["calls"]
                self_ns[name] = self_ns.get(name, 0) + stats["self_ns"]
            for name, value in step.observed.items():
                observed[name] = observed.get(name, 0) + value
    n = len(traced) // pass_units

    def count(name: str) -> float:
        return calls.get(name, 0) / n

    def seconds(name: str) -> float:
        return self_ns.get(name, 0) / n / 1e9

    metrics = {}
    for name in (
        "witness.state_after", "witness.WitnessModel.query_bit", "reduction.pair_init",
        "combinat.bounded_subset_index", "combinat.bounded_subset_unindex",
        "filters.ExactSetModel.insert_state", "filters.ExactSetModel.delete_state",
        "filters.ExactSetModel.query_bit", "filters.fingerprint",
        "filters.FingerprintMultisetModel.state_for_elements", "filters.FingerprintMultisetModel.query_bit",
    ):
        metrics[f"{name}.calls"] = (count(name), "count")
        metrics[f"{name}.self_s"] = (seconds(name), "s")
    for name in (
        "reduction.check_reduction", "bounds.find_best_seed", "bounds.encode_dataset",
        "bounds.decode_dataset", "filters.NoisyExactModel.query_bit", "harness.run_fp_experiment",
        "harness.run_encode", "harness.run_decode", "cli.main",
    ):
        metrics[f"{name}.self_s"] = (seconds(name), "s")
    state_after_calls = calls.get("witness.state_after", 0)
    metrics["witness.state_after.distinct_ratio"] = (
        observed.get("witness.state_after.distinct", 0) / state_after_calls if state_after_calls else 0.0,
        "ratio",
    )
    metrics["witness.table_builds"] = (observed.get("witness.table_builds", 0) / n, "count")
    metrics["bounds.is_good_pair.calls"] = (count("bounds.is_good_pair"), "count")
    metrics["filters.seed_word.calls"] = (count("filters.seed_word"), "count")
    metrics["filters.seed_word.per_trial"] = (calls.get("filters.seed_word", 0) / trials if trials else 0.0, "count")
    metrics["core.calls"] = (sum(c for name, c in calls.items() if name.startswith("core.")) / n, "count")
    metrics["trace.overhead_ratio"] = (
        sum(op.wall_s for op in traced) / sum(op.wall_s for op in plain),
        "ratio",
    )
    lines = [f"per traced pass, mean of {n}:"]
    lines += [f"  {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def pin_report(traced: list[Op], size: str) -> list[str]:
    """Compare the first traced step of each kind with the seed commit's counts."""
    bits = {"verify": SIZES[size]["verify_bits"], "negative_control": SIZES[size]["negative_bits"]}
    lines = []
    first: dict[str, Step] = {}
    for op in traced:
        for step in op.steps:
            first.setdefault(step.name, step)
    for step in first.values():
        counts = {f"{name}.calls": stats["calls"] for name, stats in step.layers.items()}
        counts.update(step.observed)
        pins = dict(PINS.get((step.name, bits.get(step.name)), {}))
        if step.name == "verify":
            pins["filters.fingerprint.calls"] = 0
        if step.name == "fp_rate":
            pins["filters.seed_word.calls"] = SEED_WORDS_PER_TRIAL * step.trials
            pins.update({name: 0 for name in counts if name.split(".")[0] in SWEEP_LAYERS})
        for name, want in sorted(pins.items()):
            got = counts.get(name, 0)
            verdict = "ok" if got == want else "MOVED"
            lines.append(f"pin {step.name} {name} {got} (seed commit {want}) {verdict}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, int, int, list[str]]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    runner = Runner(size, deadline)
    seed_runner = None if trace else Runner(size, deadline, unpack_seed_program(), SEED_WORK)
    run = measure(workload, runner, seed_runner, seed, seconds)
    plain = [op for unit in run.units for op in unit]
    seed_ops = [op for unit in run.seed_units for op in unit]
    ops = plain + run.traced + seed_ops
    lines = [f"workload {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}, size {size}"]
    lines += [problem for op in plain + run.traced for step in op.steps for problem in step.problems]
    lines += ["seed program: " + problem for op in seed_ops for step in op.steps for problem in step.problems]
    if trace:
        metrics, more = per_layer(plain, run.traced, PASS_UNITS[workload])
        more += pin_report(run.traced, size)
    else:
        metrics, more = end_to_end(workload, run)
    failed = sum(not op.ok for op in ops)
    lines += more + [f"operations attempted {len(ops)}, failed {failed}"]
    return metrics, len(ops), failed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*UNITS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation of each kind at reduced size")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.smoke else args.seconds
    if not (SRC / "filterbounds" / "cli.py").is_file():
        print(f"error: no filterbounds sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workloads = list(UNITS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        found, tried, bad, lines = run_workload(
            workload, args.seed, seconds, bool(args.trace), "smoke" if args.smoke else "full"
        )
        print("\n".join(lines), flush=True)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": unit} for name, (value, unit) in found.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
