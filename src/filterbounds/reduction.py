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
exact rational arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .bounds import BestSeed, BoundsParams, InvalidCode, pick_best_seed
from .combinat import frac_str, iter_subsets_of_size
from .core import UniverseParams, _mask_elems, _Record
from .filters import FilterModel, FilterState, Seed, seed_classes
from .witness import (
    WitnessModel,
    check_enumeration_budget,
    delete_run,
    insert_snapshots,
    state_after,
    yes_set,  # unused here; perfbench's tracer test looks it up on this module
)


class PairedState(_Record):
    """The two snapshots; fail in either component fails the pair."""

    __slots__ = ("after_insert", "after_delete")

    @property
    def is_fail(self) -> bool:
        return self.after_insert.fail or self.after_delete.fail

    @property
    def space_bits(self) -> int:
        """Space charge: the sum of the component widths."""
        if self.is_fail:
            return 0
        return self.after_insert.nbits + self.after_delete.nbits

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
            nbits_str, bits = piece.split(":")
            nbits = int(nbits_str)
            if len(bits) != nbits:
                raise ValueError
            parts.append(FilterState(int(bits, 2) if nbits else 0, nbits))
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


def pair_query(
    model: FilterModel, seed: Seed, state: PairedState, x: int
) -> int:
    """1 iff the insert snapshot says yes and the delete snapshot says no.

    A failed pair answers 0; the static side never raises on fail.
    """
    if state.is_fail:
        return 0
    b1 = model.query_bit(seed, state.after_insert, x)
    b2 = model.query_bit(seed, state.after_delete, x)
    return b1 & (1 - b2)


class PairedStaticFilter:
    """Static-filter face of the construction: init on a dataset, pure queries."""

    def __init__(self, model: FilterModel):
        self.model = model

    @property
    def params(self) -> UniverseParams:
        return self.model.params

    def init_state(self, seed: Seed, dataset: Sequence[int]) -> PairedState:
        return pair_init(self.model, seed, dataset)

    def query(self, seed: Seed, state: PairedState, x: int) -> int:
        return pair_query(self.model, seed, state, x)

    def yes_mask(self, seed: Seed, state: PairedState) -> int:
        """Every x that query answers 1 on, as a bitmask; 0 for a failed pair."""
        if state.is_fail:
            return 0
        yes = self.model.yes_mask
        return yes(seed, state.after_insert) & ~yes(seed, state.after_delete)

    def describe(self) -> str:
        return f"paired({self.model.describe()})"


class ReductionReport(
    _Record,
    frozen=False,
    hidden=("misses_by_class",),
    defaults={
        "fn_matches_delete_fp": True,
        "space_pair_bits": 0,
        "space_budget_bits": 0,
        "fail_fraction": Fraction(0),
        "failed_pairs": 0,
        "first_false_positive": None,
        "misses_by_class": list,
    },
):
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def check_reduction(model: FilterModel, seeds: Sequence[Seed]) -> ReductionReport:
    """Exhaustively certify the paired filter over datasets x seeds.

    Each seed class of filters.seed_classes is swept once, under its
    earliest seed, and every tally is weighted by the class size, so the
    enumeration stays complete and the fractions exact.  One subset walk
    per class gives the insert snapshots and a witness model's table; a
    delete snapshot adds n deletes; tallies are set algebra on yes-masks.
    Counts false positives (must be zero for a model with sticky wrong
    yeses), the largest false-negative seed fraction over (dataset, member)
    cells, the widest pair against twice the widest component state, and
    the failed-pair fraction.  The false-negative events are cross-checked
    against the base model's wrong yeses at the delete snapshot, which they
    must equal cell by cell when the seed space is fully enumerated.
    """
    u, n = model.params.u, model.params.n
    classes = seed_classes(model, seeds)
    dataset_count = check_enumeration_budget(u, n, len(seeds), len(classes))
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
    # a witness model steps through its base; step the base directly
    stepper = model.base if isinstance(model, WitnessModel) else model
    yes_mask = model.yes_mask
    # per class: its earliest seed and each live dataset's miss count
    misses_by_class: list[tuple[Seed, list[int]]] = []
    # classes come in order of their earliest seed, so the first false
    # positive found is the one a seed-by-seed sweep would find
    for seed, weight in classes:
        class_misses: list[int] = []
        misses_by_class.append((seed, class_misses))
        snapshots = insert_snapshots(stepper, seed, datasets)
        if stepper is not model:
            model.fill_table(seed, member_masks, snapshots)
        for i, after_insert in enumerate(snapshots):
            if after_insert.fail:
                fail_count += weight
                continue
            ds = datasets[i]
            after_delete = delete_run(stepper, seed, after_insert, ds)
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
            answered = insert_yes & ~delete_yes  # what pair_query answers 1 on
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
    total_cells = len(seeds) * dataset_count
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
        seed_bits=seeds[0].bits if seeds else 0,
        seed_count=len(seeds),
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
