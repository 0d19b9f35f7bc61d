"""Turning a dynamic filter into a static one by pairing two snapshots.

Given a dynamic model F and a full-capacity dataset S, the static filter
stores two states of F: the state after inserting S, and the state after
inserting and then deleting S again.  A query answers 1 exactly when the
first state says yes and the second says no.  If the wrong yeses of F are
sticky, every wrong yes at the first snapshot is also present at the
second and gets subtracted away, so the pair never answers a false
positive; the price is a false negative whenever the second snapshot
wrongly says yes on a member, which happens with at most F's
false-positive probability.  Space doubles, failure probability picks up
a factor of the 2n steps used to build the pair.

check_reduction certifies all of that over an enumerable seed space with
exact rational arithmetic.  The whole read of the sweep of verify, encode
and decode is here too: presweep builds, checks and prices every model
before the first sweep, model_checks reads verify's four checks of a model
off one check_reduction report, and best_coder, the one place a coder is
built, reads a report's best seed for the coding check, encode and decode.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .bounds import (
    BestSeed,
    BoundsParams,
    InvalidCode,
    NotGoodPair,
    check_counting_bound,
    check_enumeration_budget,
    decode_dataset,
    encode_dataset,
    pick_best_seed,
    printed,
)
from .combinat import bounded_subset_count, frac_str, iter_subsets_of_size
from .core import ConfigError, _mask_elems, _Record
from .filters import FilterModel, FilterState, Seed, seed_classes, seed_space
from .witness import (
    WitnessModel,
    delete_run,
    insert_snapshots,
    state_after,
    witness_transform,
    yes_set,  # unused here; perfbench's tracer test looks it up on this module
)

if TYPE_CHECKING:  # harness imports this module inside its runners
    from .harness import ExperimentConfig, ModelSpec


class PairedState(_Record):
    """The two snapshots; fail in either component fails the pair."""

    __slots__ = ("after_insert", "after_delete")

    @property
    def is_fail(self) -> bool:
        return self.after_insert.fail or self.after_delete.fail

    def serialize(self) -> str:
        """Length-prefixed pair, decodable without out-of-band widths."""
        if self.is_fail:
            return "FAIL"
        a, b = self.after_insert, self.after_delete
        return f"{a.nbits}:{a.as_bitstring()}/{b.nbits}:{b.as_bitstring()}"


def parse_paired_state(text: str) -> PairedState:
    """Inverse of PairedState.serialize for non-fail pairs.

    Raises InvalidCode, a ValueError, on a malformed literal.
    """
    try:
        left, right = text.split("/")
        parts = []
        for piece in (left, right):
            nbits, bits = piece.split(":")
            # serialize prints the width in canonical decimal and the bits as 0s and 1s
            if nbits != str(len(bits)) or not set(bits) <= {"0", "1"}:
                raise ValueError
            parts.append(FilterState(int(bits, 2) if bits else 0, len(bits)))
    except ValueError:
        raise InvalidCode(f"bad paired state literal {text!r}") from None
    return PairedState(parts[0], parts[1])


def pair_init(model: FilterModel, seed: Seed, dataset: Sequence[int]) -> PairedState:
    """Build the snapshot pair for a full-capacity dataset.

    The delete snapshot deletes the members ascending from the insert
    snapshot, stopping at the fail state, as state_after(model, seed,
    dataset, dataset) would after replaying the inserts.
    """
    elems = sorted(dataset)
    if len(elems) != model.params.n:
        raise ValueError(f"dataset size {len(elems)} != capacity {model.params.n}")
    after_insert = state_after(model, seed, elems)
    return PairedState(after_insert, delete_run(model, seed, after_insert, elems))


class PairedStaticFilter:
    """Static-filter face of the construction: init on a dataset, pure queries."""

    def __init__(self, model: FilterModel):
        self.model = model

    def init_state(self, seed: Seed, dataset: Sequence[int]) -> PairedState:
        return pair_init(self.model, seed, dataset)

    def query(self, seed: Seed, state: PairedState, x: int) -> int:
        """1 iff the insert snapshot says yes and the delete snapshot says
        no; a failed pair answers 0, the static side never raises on fail."""
        if state.is_fail:
            return 0
        b1 = self.model.query_bit(seed, state.after_insert, x)
        b2 = self.model.query_bit(seed, state.after_delete, x)
        return b1 & (1 - b2)

    def yes_mask(self, seed: Seed, state: PairedState) -> int:
        """Every x that query answers 1 on, as a bitmask; 0 for a failed pair."""
        if state.is_fail:
            return 0
        yes = self.model.yes_mask
        return yes(seed, state.after_insert) & ~yes(seed, state.after_delete)

    def describe(self) -> str:
        return f"paired({self.model.describe()})"


class ReductionReport(_Record, hidden=("misses_by_class",)):
    """Exact certification results for one model over a seed space.

    The false-negative rate is the largest, over live datasets and their
    members, of the seed share that misses the member.  The last three
    fields are not reported; the sticky and best-seed checks read them: the
    first false positive (seed, dataset, elements) in sweep order, and per
    seed class its earliest seed and the false-negative count of each live
    dataset, classes in order of their earliest seed.
    """

    __slots__ = (
        "u", "n", "model", "seed_bits", "seed_count", "dataset_count",
        "false_positive_count", "completeness_violations",
        "max_false_negative_rate", "fn_matches_delete_fp",
        "space_pair_bits", "space_budget_bits", "fail_fraction",
        "failed_pairs", "first_false_positive", "misses_by_class",
    )

    def best_seed(self, params: BoundsParams) -> BestSeed:
        """pick_best_seed on this sweep's good-pair counts, one per class.

        A dataset is good under a seed when its pair is live and misses at
        most fn_limit members, as is_good_pair decides.  Classes come
        earliest seed first and max keeps the first of equal counts, so the
        pick is the earliest seed with the most good datasets.
        """
        limit = params.fn_limit
        seeds = [seed for seed, _ in self.misses_by_class]
        good_counts = [sum(1 for m in row if m <= limit) for _, row in self.misses_by_class]
        return pick_best_seed(seeds, good_counts, params, self.dataset_count)

    def to_json_dict(self) -> dict:
        return {
            "instance": {
                "u": self.u,
                "n": self.n,
                "model": self.model,
                "seed_bits": self.seed_bits,
            },
            "false_positive_count": self.false_positive_count,
            "completeness_violations": self.completeness_violations,
            "max_false_negative_rate": frac_str(self.max_false_negative_rate),
            "fn_matches_delete_fp": self.fn_matches_delete_fp,
            "space_pair_bits": self.space_pair_bits,
            "space_budget_bits": self.space_budget_bits,
            "fail_fraction": frac_str(self.fail_fraction),
        }


def check_reduction(
    model: FilterModel, classes: Sequence[tuple[Seed, int]]
) -> ReductionReport:
    """Exhaustively certify the paired filter over datasets x seeds.

    classes is what filters.seed_classes returns: per seed class its
    earliest seed and size, earliest first, the sizes summing to the seed
    count.  Each class is swept once, under its earliest seed, and every
    tally is weighted by the class size, so the enumeration stays complete
    and the fractions exact.  One subset walk per class gives the insert
    snapshots and a witness model's table, stepped through model itself (a
    witness's steps are its base's own methods); a delete snapshot adds n
    deletes; tallies are set algebra on yes-masks.  Counts false positives
    (must be zero for a model with sticky wrong yeses), the largest
    false-negative seed fraction over (dataset, member) cells, the widest
    pair against twice the widest component state, and the failed-pair
    fraction.  The false-negative events are cross-checked against the
    model's own wrong yeses at the delete snapshot (for a witness model, the
    witness answers, not its base's), which they must equal cell by cell
    when the seed space is fully enumerated.
    """
    u, n = model.params.u, model.params.n
    seed_count = sum(weight for _, weight in classes)
    dataset_count = check_enumeration_budget(u, n, seed_count, len(classes))
    datasets = list(iter_subsets_of_size(u, n))
    member_masks = [sum(1 << x for x in ds) for ds in datasets]
    fp_count = 0
    first_fp = None
    completeness_violations = 0
    # misses without a yes at the delete snapshot; each breaks a cell's match
    unexplained_misses = 0
    fn_counts = [[0] * n for _ in datasets]
    live_counts = [0] * len(datasets)
    fail_count = 0
    max_pair_bits = 0
    max_component_bits = 0
    fill_table = model.fill_table if isinstance(model, WitnessModel) else None
    yes_mask = model.yes_mask
    # per class: its earliest seed and each live dataset's miss count
    misses_by_class: list[tuple[Seed, list[int]]] = []
    # classes come in order of their earliest seed, so the first false
    # positive found is the one a seed-by-seed sweep would find
    for seed, weight in classes:
        class_misses: list[int] = []
        misses_by_class.append((seed, class_misses))
        snapshots = insert_snapshots(model, seed, datasets)
        if fill_table:
            fill_table(seed, member_masks, snapshots)
        for i, after_insert in enumerate(snapshots):
            ds = datasets[i]
            # delete_run passes a failed insert snapshot through unchanged
            after_delete = delete_run(model, seed, after_insert, ds)
            if after_delete.fail:
                fail_count += weight
                continue
            live_counts[i] += weight
            bits = after_insert.nbits, after_delete.nbits
            max_pair_bits = max(max_pair_bits, bits[0] + bits[1])
            max_component_bits = max(max_component_bits, *bits)
            members = member_masks[i]
            insert_yes = yes_mask(seed, after_insert)
            delete_yes = yes_mask(seed, after_delete)
            answered = insert_yes & ~delete_yes  # what PairedStaticFilter.query answers 1 on
            false_positives = answered & ~members
            if false_positives:
                fp_count += weight * false_positives.bit_count()
                if first_fp is None:
                    first_fp = (seed, ds, list(_mask_elems(false_positives)))
            misses = members & ~answered
            completeness_violations += weight * (members & ~insert_yes).bit_count()
            unexplained_misses += weight * (misses & ~delete_yes).bit_count()
            if misses:
                for j, x in enumerate(ds):
                    if misses >> x & 1:
                        fn_counts[i][j] += weight
            class_misses.append(misses.bit_count())
    total_cells = seed_count * dataset_count
    # the largest count/live over live datasets, compared by cross-multiplying
    max_fn, max_live = 0, 1
    for live, counts in zip(live_counts, fn_counts):
        worst = max(counts)
        if worst * max_live > max_fn * live:
            max_fn, max_live = worst, live
    return ReductionReport(
        u=u,
        n=n,
        model=model.describe(),
        seed_bits=classes[0][0].bits if classes else 0,
        seed_count=seed_count,
        dataset_count=dataset_count,
        false_positive_count=fp_count,
        completeness_violations=completeness_violations,
        max_false_negative_rate=Fraction(max_fn, max_live),
        fn_matches_delete_fp=unexplained_misses == 0,
        space_pair_bits=max_pair_bits,
        space_budget_bits=2 * max_component_bits,
        fail_fraction=Fraction(fail_count, total_cells) if total_cells else Fraction(0),
        failed_pairs=fail_count,
        first_false_positive=first_fp,
        misses_by_class=misses_by_class,
    )


def _measured_params(report: ReductionReport, alpha: Fraction) -> BoundsParams:
    return BoundsParams(
        u=report.u,
        n=report.n,
        eps_minus=report.max_false_negative_rate,
        p_fail=report.fail_fraction,
        alpha=alpha,
    )


def _coding_check(static: PairedStaticFilter, params: BoundsParams, best: BestSeed) -> dict:
    u, n = static.model.params.u, static.model.params.n
    codes: set[tuple[Any, int]] = set()
    roundtrip_failures = 0
    index_bound = bounded_subset_count(u, params.fn_limit)
    index_ok = True
    good = 0
    for dataset in iter_subsets_of_size(u, n):
        try:
            code = encode_dataset(static, params, best.seed, dataset)
        except NotGoodPair:
            continue
        good += 1
        codes.add((code.state, code.index))
        if code.index >= index_bound:
            index_ok = False
        decoded = decode_dataset(static, params, best.seed, code)
        if decoded != frozenset(dataset):
            roundtrip_failures += 1
    passed = (
        best.meets_bound
        and roundtrip_failures == 0
        and len(codes) == good
        and good == best.good_count
        and index_ok
    )
    return {
        "name": f"dataset_coding[{static.model.describe()}]",
        "passed": passed,
        "details": {
            "best_seed": best.seed.value,
            "good_count": best.good_count,
            "required": printed(best.required),
            "distinct_codes": len(codes),
            "roundtrip_failures": roundtrip_failures,
        },
    }


def presweep(cfg: ExperimentConfig, specs: Sequence[ModelSpec], alphas: Sequence = ()) -> list:
    """Each (witness model, its seed classes) to sweep, with every spec built,
    each alpha of alphas checked on every model, each sweep grouped and priced
    on top of those before it, and best_seed_alpha refused at or below 1, all
    before the first sweep."""
    if not specs:
        raise ConfigError("encode/decode need a model spec")  # verify refuses an empty zoo first
    bases = [spec.build() for spec in specs]
    for alpha in alphas:
        for base in bases:
            # refuses an alpha <= 1 and one whose counting rhs or best seed's
            # required count, (1 - 1/alpha) * C(u, n) with no failed pairs,
            # no report can print
            check_counting_bound(0, BoundsParams(base.params.u, base.params.n, alpha=alpha))
    seeds = list(seed_space(cfg.seed_bits))
    sweeps, steps = [], 0
    for base in bases:
        model = witness_transform(base)
        classes = seed_classes(model, seeds)
        u, n = base.params.u, base.params.n
        steps += len(classes) * check_enumeration_budget(u, n, len(seeds), len(classes), steps) * n
        BoundsParams(u, n, alpha=cfg.best_seed_alpha)  # refuses alpha <= 1
        sweeps.append((model, classes))
    return sweeps


def best_coder(cfg: ExperimentConfig, model: FilterModel, report: ReductionReport) -> tuple:
    """The coder of model's check_reduction report: the paired filter, the
    measured parameters at best_seed_alpha and the best seed under them."""
    params = _measured_params(report, cfg.best_seed_alpha)
    return PairedStaticFilter(model), params, report.best_seed(params)


def model_checks(cfg: ExperimentConfig, model: FilterModel, classes: list) -> list[dict]:
    """verify's four checks of a presweep pair, read off one check_reduction
    sweep: sticky, reduction, dataset coding, and the counting bound at each
    of cfg.alphas on the measured space and error rates."""
    report = check_reduction(model, classes)
    name = model.describe()
    # a false positive of a live pair is exactly a wrong yes at the full
    # state that the emptied state drops, i.e. what check_sticky returns
    sticky = {
        "cells": report.seed_count * report.dataset_count,
        "violations": report.false_positive_count,
        "failed_cells": report.failed_pairs,
    }
    if report.first_false_positive:
        seed, dataset, elements = report.first_false_positive
        sticky["example"] = {"seed": seed.value, "dataset": list(dataset), "elements": elements}
    reduction_ok = (
        report.false_positive_count == 0
        and report.completeness_violations == 0
        and report.max_false_negative_rate <= model.eps_plus
        and report.fn_matches_delete_fp
        and report.space_pair_bits <= report.space_budget_bits
        and report.fail_fraction == 0
    )
    counting = [
        check_counting_bound(report.space_pair_bits, _measured_params(report, alpha))
        for alpha in cfg.alphas
    ]
    return [
        {"name": f"sticky[{name}]", "passed": report.false_positive_count == 0, "details": sticky},
        {"name": f"reduction[{name}]", "passed": reduction_ok, "details": report.to_json_dict()},
        _coding_check(*best_coder(cfg, model, report)),
        {"name": f"counting_bound[{name}]", "passed": all(r["holds"] for r in counting),
         "details": {"results": counting}},
    ]
