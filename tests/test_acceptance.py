"""Acceptance gate: the eight headline guarantees, one verdict line each.

Every test prints a single bracketed PASS/FAIL line with capture
suspended, so a full run always shows the eight verdicts.  The checks
are exhaustive or exact wherever the instances are enumerable; only the
Monte-Carlo false-positive rate is statistical, and it runs on fixed
seeds.
"""

import json
import time
from fractions import Fraction

import pytest

from filterbounds.bounds import (
    BoundsParams,
    check_binom_scaling,
    check_counting_bound,
    decode_dataset,
    encode_dataset,
    find_best_seed,
)
from filterbounds.cli import main as cli_main
from filterbounds.combinat import bounded_subset_count, iter_subsets_of_size
from filterbounds.core import UniverseParams
from filterbounds.demo import default_demo_config, run_violation_demo
from filterbounds.filters import seed_classes, seed_space
from filterbounds.harness import (
    default_fp_config,
    default_verify_config,
    negative_control_config,
    run_fp_experiment,
)
from filterbounds.reduction import PairedStaticFilter, check_reduction
from filterbounds.sequences import (
    OpClass,
    OpKind,
    classify_ops,
    dataset_trace,
    enumerate_sequences,
    rewrite_del_to_dup,
    rewrite_dup_to_del,
)
from filterbounds.witness import check_sticky, witness_transform


@pytest.fixture()
def verdict(capsys):
    def _report(num: int, ok: bool, text: str) -> None:
        with capsys.disabled():
            print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {text}")
        assert ok, f"acceptance criterion {num} failed: {text}"

    return _report


@pytest.fixture(scope="module")
def zoo():
    """The default verification zoo, witness-transformed, with its seeds."""
    cfg = default_verify_config()
    seeds = list(seed_space(cfg.seed_bits))
    models = [(spec, witness_transform(spec.build())) for spec in cfg.models]
    return cfg, seeds, models


@pytest.fixture(scope="module")
def reduction_reports(zoo):
    _, seeds, models = zoo
    return [
        (spec, model, check_reduction(model, seed_classes(model, seeds)))
        for spec, model in models
    ]


def test_1_sticky_false_positives_survive_deletion(zoo, verdict):
    cfg, seeds, models = zoo
    started = time.monotonic()
    cells = 0
    violations = 0
    for _, model in models:
        for seed in seeds:
            for dataset in iter_subsets_of_size(model.params.u, model.params.n):
                cells += 1
                violations += len(check_sticky(model, seed, dataset))
    elapsed = time.monotonic() - started
    ok = violations == 0 and cells == 2 * 256 * 15 and elapsed < 60
    verdict(
        1,
        ok,
        f"sticky wrong yeses over {cells} (model, seed, dataset) cells, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_2_paired_filter_has_no_false_positives_and_small_misses(
    reduction_reports, verdict
):
    worst = Fraction(0)
    fp_total = 0
    ok = True
    for spec, model, report in reduction_reports:
        fp_total += report.false_positive_count
        worst = max(worst, report.max_false_negative_rate)
        budget = spec.build().eps_plus
        ok = ok and report.false_positive_count == 0
        ok = ok and report.completeness_violations == 0
        ok = ok and report.max_false_negative_rate <= budget
        ok = ok and report.fn_matches_delete_fp
        ok = ok and report.space_pair_bits <= report.space_budget_bits
        ok = ok and report.fail_fraction == 0
    verdict(
        2,
        ok,
        f"paired filters: {fp_total} false positives, max false-negative "
        f"rate {worst} within each model's budget, misses equal the "
        f"delete-snapshot wrong yeses",
    )


def test_3_counting_bound_holds_and_rejects_the_probe(zoo, reduction_reports, verdict):
    cfg, _, _ = zoo
    ok = True
    checked = 0
    for spec, _, report in reduction_reports:
        for alpha in cfg.alphas:
            params = BoundsParams(
                u=spec.u,
                n=spec.n,
                eps_minus=report.max_false_negative_rate,
                p_fail=report.fail_fraction,
                alpha=alpha,
            )
            result = check_counting_bound(report.space_pair_bits, params)
            checked += 1
            ok = ok and result["holds"]
    probe = check_counting_bound(3, BoundsParams(u=8, n=2))
    ok = ok and not probe["holds"] and probe["lhs"] == "8" and Fraction(probe["rhs"]) == 14
    verdict(
        3,
        ok,
        f"counting bound holds at measured space for {checked} "
        f"(model, alpha) combinations; undersized probe rejected "
        f"({probe['lhs']} < {Fraction(probe['rhs'])})",
    )


def test_4_best_seed_codes_enough_datasets_injectively(zoo, reduction_reports, verdict):
    cfg, seeds, _ = zoo
    ok = True
    summary = []
    for spec, model, report in reduction_reports:
        static = PairedStaticFilter(model)
        params = BoundsParams(
            u=spec.u,
            n=spec.n,
            eps_minus=report.max_false_negative_rate,
            p_fail=report.fail_fraction,
            alpha=cfg.best_seed_alpha,
        )
        best = find_best_seed(static, params, seeds)
        codes = set()
        encoded = 0
        cap = bounded_subset_count(spec.u, params.fn_limit)
        for dataset in iter_subsets_of_size(spec.u, spec.n):
            try:
                code = encode_dataset(static, params, best.seed, dataset)
            except ValueError:
                continue
            encoded += 1
            codes.add((code.state, code.index))
            ok = ok and code.index < cap
            ok = ok and decode_dataset(
                static, params, best.seed, code
            ) == frozenset(dataset)
        ok = ok and best.meets_bound and encoded == best.good_count
        ok = ok and len(codes) == encoded
        summary.append(f"{spec.kind}: {encoded} good >= {best.required}")
    verdict(
        4,
        ok,
        "dataset coding round-trips injectively under the best seed "
        f"({'; '.join(summary)})",
    )


def test_5_binomial_scaling_grid(verdict):
    cfg = default_verify_config()
    worst_margin = float("inf")
    ok = True
    cells = 0
    for u in cfg.grid.u:
        for n in cfg.grid.n:
            for beta in cfg.grid.beta:
                result = check_binom_scaling(u, n, beta)
                cells += 1
                ok = ok and result["holds"]
                worst_margin = min(worst_margin, result["rhs"] - result["lhs"])
    ok = ok and worst_margin >= -1e-9
    verdict(
        5,
        ok,
        f"binomial scaling holds on all {cells} grid cells, "
        f"worst margin {worst_margin:.3f} bits",
    )


def test_6_fingerprint_false_positive_rate(verdict):
    report = run_fp_experiment(default_fp_config())
    ok = (
        report["passed"]
        and report["trials"] == 100_000
        and report["fp_rate"] <= report["bound_with_cushion"]
        and report["ci95_low"] <= 1 / 8
        and report["completeness_rate"] == "1/1"
        and report["fp_hits"] == 11829
    )
    verdict(
        6,
        ok,
        f"fingerprint false-positive rate {report['fp_rate']:.5f} within "
        f"{report['bound_with_cushion']:.5f} over {report['trials']} trials, "
        f"members always found",
    )


def test_7_violation_demos_and_negative_control(tmp_path, verdict):
    demo = run_violation_demo(default_demo_config())
    demo_ok = (
        demo["passed"]
        and demo["false_negative_frequency"] == "1/1"
        and demo["false_positive_frequency"] == "1/1"
        and demo["control_false_negative_frequency"] == "0/1"
        and demo["control_false_positive_frequency"] == "0/1"
    )
    control = negative_control_config()
    config = {
        "models": [m.to_dict() for m in control.models],
        "negative_probe": dict(control.negative_probe),
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(config))
    exit_code = cli_main(["verify", "--config", str(path)])
    ok = demo_ok and exit_code == 1
    verdict(
        7,
        ok,
        "forced-collision demos hit every seed, exact control hits none, "
        f"and the broken-model config fails verification (exit {exit_code})",
    )


def test_8_rewriters_trade_redundant_operations(verdict):
    params = UniverseParams(4, 2)
    count = 0
    ok = True
    for seq in enumerate_sequences(params, 5):
        count += 1
        trace = dataset_trace(seq)
        for rewrite, banned, bound in (
            (rewrite_dup_to_del, OpClass.DUPLICATE_INSERTION, 2),
            (rewrite_del_to_dup, OpClass.DELETION_OF_NONELEMENT, 3),
        ):
            out = rewrite(seq)
            ok = ok and banned not in classify_ops(out.seq)
            ok = ok and out.seq.params.n == bound
            new_trace = dataset_trace(out.seq)
            ok = ok and all(
                new_trace[image] == trace[t]
                for t, image in enumerate(out.index_map)
            )
            ok = ok and max(len(new_trace[t]) for t in range(len(new_trace))) <= bound
            if not ok:
                break
        if not ok:
            break
    ok = ok and count > 10_000
    verdict(
        8,
        ok,
        f"both rewriters scrub their target class and preserve the trace "
        f"on all {count} sequences over u=4, n=2, length <= 5",
    )
