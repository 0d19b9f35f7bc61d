"""The benchmark's recorded report digests, reproduced in-process.

perfbench/run.py marks an operation incorrect when the sha256 of a
command's stdout differs from perfbench/digests.json.  These tests run the
same commands through cli.main and check the same digests, so an output the
benchmark would refuse fails here first.  They only read perfbench/.
"""

import hashlib
import json
from pathlib import Path

import pytest

from filterbounds.cli import main
from filterbounds.harness import negative_control_config

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)
FULL = DIGESTS["full"]


def run(argv, capsys):
    """(exit code, stdout bytes, their sha256) of one command."""
    code = main(argv)
    out = capsys.readouterr().out.encode()
    return code, out, hashlib.sha256(out).hexdigest()


def test_verify(capsys):
    code, _, digest = run(["verify", "--seed-bits", "7"], capsys)
    assert (code, digest) == (0, FULL["verify"])


def test_negative_control(tmp_path, capsys):
    # written as the benchmark's certify set-up writes it
    path = tmp_path / "negative_control.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(negative_control_config().resolved_dict(), fh, sort_keys=True)
    code, _, digest = run(["verify", "--config", str(path), "--seed-bits", "7"], capsys)
    assert (code, digest) == (1, FULL["negative_control"])


def test_fp_rate(capsys):
    code, out, digest = run(["fp-rate", "--trials", "10000"], capsys)
    assert (code, digest) == (0, FULL["fp_rate"])
    assert json.loads(out)["fp_hits"] == FULL["fp_hits"]


@pytest.mark.parametrize("key", sorted(DIGESTS["coding"]))
def test_coding_round_trip(key, capsys):
    expected = DIGESTS["coding"][key]
    code, out, digest = run(["encode", "--seed-bits", "6", "--elements", key], capsys)
    assert (code, digest) == (0, expected["encode"])
    report = json.loads(out)
    argv = ["decode", "--seed-bits", "6", "--state", report["state"], "--index", report["index"]]
    code, out, digest = run(argv, capsys)
    assert (code, digest) == (0, expected["decode"])
    assert json.loads(out)["dataset"] == [int(x) for x in key.split(",")]
