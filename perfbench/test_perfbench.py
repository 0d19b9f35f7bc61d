"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check the tracer's arithmetic and bookkeeping, the digest gate, the
call counts of the seed commit and a reduced-size run of every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import zipfile

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_span_tree():
    # a[0,100] holds b[10,40] (which holds c[15,25]) and b[50,90]; c[100,110] is a root
    names = ["a", "b", "c"]
    name_ids = [0, 1, 2, 1, 2]
    starts = [0, 10, 15, 50, 100]
    ends = [100, 40, 25, 90, 110]
    parents = [-1, 0, 1, 0, -1]
    stats = tracer.layer_stats(names, name_ids, starts, ends, parents)
    assert stats == {
        "a": {"calls": 1, "self_ns": 100 - 30 - 40},
        "b": {"calls": 2, "self_ns": (30 - 10) + 40},
        "c": {"calls": 2, "self_ns": 10 + 10},
    }


def _package_bindings() -> dict[tuple[str, str], object]:
    bindings = {}
    for name, module in sorted(sys.modules.items()):
        if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + "."):
            for attr, value in vars(module).items():
                bindings[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for method, raw in vars(value).items():
                        bindings[(f"{name}.{attr}", method)] = raw
    return bindings


def test_wrappers_rebind_imported_copies_and_are_restored(tmp_path, capsys):
    from filterbounds import bounds, cli, harness, reduction, witness

    before = _package_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for module, name in [(reduction, "state_after"), (reduction, "yes_set"), (harness, "find_best_seed"),
                             (bounds, "bounded_subset_index"), (witness, "state_after")]:
            assert hasattr(getattr(module, name), tracer.WRAPPED_MARK), f"{module.__name__}.{name}"
        assert cli.main(["verify", "--seed-bits", "3"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert _package_bindings().keys() == before.keys()
    moved = [key for key, value in _package_bindings().items() if value is not before[key]]
    assert moved == []
    path = tmp_path / "spans.bin"
    t.dump(str(path), {"op": 7, "step": "verify"})
    header, *columns = tracer.read_spans(str(path))
    assert header["op"] == 7 and header["spans"] == len(columns[0]) > 0
    stats = tracer.layer_stats(header["names"], *columns)
    assert stats["cli.main"]["calls"] == 1
    assert stats["witness.state_after"]["calls"] > 0


@pytest.fixture(scope="module")
def runner():
    run.WORK.mkdir(exist_ok=True)
    return run.Runner("smoke", deadline=time.monotonic() + run.RUN_DEADLINE_S)


def test_tampered_report_trips_the_digest_check(runner):
    step = runner.step("verify", ["verify", "--seed-bits", "6"], 0, traced=False)
    runner.check_digest(step, run.DIGESTS["smoke"]["verify"])
    assert step.problems == []
    step.stdout = step.stdout.replace(b'"passed": true', b'"passed": false', 1)
    runner.check_digest(step, run.DIGESTS["smoke"]["verify"])
    assert len(step.problems) == 1 and "sha256" in step.problems[0]


def _traced_calls(runner, name, args, expect_rc):
    step = runner.step(name, args, expect_rc, traced=True)
    assert step.problems == []
    counts = {f"{layer}.calls": stats["calls"] for layer, stats in step.layers.items()}
    counts.update(step.observed)
    return counts


@pytest.mark.parametrize("bits", [7, 8, 10])
def test_pinned_counts_of_the_default_zoo(runner, bits):
    counts = _traced_calls(runner, "verify", ["verify", "--seed-bits", str(bits)], 0)
    for name, want in run.PINS[("verify", bits)].items():
        assert counts[name] == want, name
    assert counts["filters.fingerprint.calls"] == 0


@pytest.mark.parametrize("bits", [7, 8])
def test_pinned_counts_of_the_negative_control(runner, bits):
    runner.setup_probe("certify")
    config = str(run.WORK / "negative_control.json")
    counts = _traced_calls(runner, "negative_control", ["verify", "--config", config, "--seed-bits", str(bits)], 1)
    for name, want in run.PINS[("negative_control", bits)].items():
        assert counts[name] == want, name


def test_fp_rate_bypasses_the_sweep_layers(runner):
    counts = _traced_calls(runner, "fp_rate", ["fp-rate", "--trials", "500"], 0)
    assert counts["filters.seed_word.calls"] == run.SEED_WORDS_PER_TRIAL * 500
    sweep = {name: c for name, c in counts.items() if name.split(".")[0] in run.SWEEP_LAYERS}
    assert sweep and not any(sweep.values())


SEED_COMMIT = "a92ec8fa84127d7405afbcdc6ec51da1caf6ad81"


def test_seed_program_is_the_seed_commit():
    """The yardstick holds exactly the package as the seed commit has it."""
    with zipfile.ZipFile(run.SEED_ZIP) as archive:
        packed = {name: archive.read(name) for name in archive.namelist()}
    listing = subprocess.run(
        ["git", "-C", str(run.ROOT), "ls-tree", "-r", "--name-only", SEED_COMMIT, "src/filterbounds"],
        capture_output=True, text=True,
    )
    if listing.returncode != 0:
        pytest.skip("the seed commit is not in this checkout's history")
    names = [name for name in listing.stdout.split() if name.endswith(".py")]
    assert sorted(packed) == sorted(name.removeprefix("src/") for name in names)
    for name in names:
        source = subprocess.run(["git", "-C", str(run.ROOT), "show", f"{SEED_COMMIT}:{name}"], capture_output=True)
        assert packed[name.removeprefix("src/")] == source.stdout, name


def test_paired_units_see_the_same_inputs(runner):
    seed_runner = run.Runner("smoke", runner.deadline, run.unpack_seed_program(), run.SEED_WORK)
    measured = run.measure("coding", runner, seed_runner, seed=5, seconds=0.0)
    assert len(measured.units) == len(measured.seed_units) >= 1
    for mine, theirs in zip(measured.units, measured.seed_units):
        assert [op.ok for op in mine + theirs] == [True] * 4
        assert [s.stdout for op in mine for s in op.steps] == [s.stdout for op in theirs for s in op.steps]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.UNITS))
def test_smoke_run_meets_the_output_contract(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
