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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bounds import BestSeed, BoundsParams, pick_best_seed
from .combinat import frac_str, iter_subsets_of_size
from .core import UniverseParams
from .filters import FilterModel, FilterState, Seed
from .witness import DATASET_BUDGET, check_enumeration_budget, state_after, yes_set


@dataclass(frozen=True)
class PairedState:
    """The two snapshots; fail in either component fails the pair."""

    after_insert: FilterState
    after_delete: FilterState

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
    """Inverse of PairedState.serialize for non-fail pairs."""
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
        raise ValueError(f"bad paired state literal {text!r}") from None
    return PairedState(parts[0], parts[1])


def pair_init(model: FilterModel, seed: Seed, dataset: Sequence[int]) -> PairedState:
    """Build the snapshot pair for a full-capacity dataset."""
    elems = sorted(dataset)
    if len(elems) != model.params.n:
        raise ValueError(f"dataset size {len(elems)} != capacity {model.params.n}")
    after_insert = state_after(model, seed, elems)
    if after_insert.fail:
        return PairedState(after_insert, after_insert)
    after_delete = state_after(model, seed, elems, elems)
    return PairedState(after_insert, after_delete)


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

    def describe(self) -> str:
        return f"paired({self.model.describe()})"


@dataclass
class ReductionReport:
    """Exact certification results for one model over a seed space.

    The last three fields are not reported; the sticky and best-seed checks
    read them: the first false positive (seed, dataset, elements) in sweep
    order, and per seed the false-negative count of each live dataset.
    """

    u: int
    n: int
    model: str
    seed_bits: int
    seed_count: int
    dataset_count: int
    false_positive_count: int
    completeness_violations: int
    max_false_negative_rate: Fraction
    fn_rate_by_cell: dict[tuple[tuple[int, ...], int], Fraction] = field(repr=False)
    fn_matches_delete_fp: bool = True
    space_pair_bits: int = 0
    space_budget_bits: int = 0
    fail_fraction: Fraction = Fraction(0)
    failed_pairs: int = 0
    first_false_positive: tuple[Seed, tuple[int, ...], list[int]] | None = None
    misses_by_seed: list[list[int]] = field(default_factory=list, repr=False)

    def best_seed(self, seeds: Sequence[Seed], params: BoundsParams) -> BestSeed:
        """pick_best_seed on this sweep's good-pair counts.

        A dataset is good under a seed when its pair is live and misses at
        most fn_limit members, as is_good_pair decides.
        """
        good_counts = [
            sum(1 for misses in row if misses <= params.fn_limit)
            for row in self.misses_by_seed
        ]
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


def check_reduction(
    model: FilterModel,
    seeds: Sequence[Seed],
    *,
    dataset_budget: int = DATASET_BUDGET,
) -> ReductionReport:
    """Exhaustively certify the paired filter over datasets x seeds.

    Every tally derives from the two snapshots' yes-sets, each read once
    per (seed, dataset).  Counts false positives (must be zero for a model
    with sticky wrong yeses), per-(dataset, member) false-negative seed
    fractions, the widest pair against twice the widest component state,
    and the failed-pair fraction.  The false-negative events are
    cross-checked against the base model's wrong yeses at the delete
    snapshot, which they must equal cell by cell when the seed space is
    fully enumerated.
    """
    u, n = model.params.u, model.params.n
    dataset_count = check_enumeration_budget(
        u, n, len(seeds), dataset_budget=dataset_budget
    )
    datasets = list(iter_subsets_of_size(u, n))
    fp_count = 0
    first_fp = None
    completeness_violations = 0
    # misses without a yes at the delete snapshot; each breaks a cell's match
    unexplained_misses = 0
    fn_counts: dict[tuple[tuple[int, ...], int], int] = {
        (ds, x): 0 for ds in datasets for x in ds
    }
    live_counts: dict[tuple[int, ...], int] = {ds: 0 for ds in datasets}
    misses_by_seed: list[list[int]] = []
    fail_count = 0
    max_pair_bits = 0
    max_component_bits = 0
    for seed in seeds:
        seed_misses: list[int] = []
        misses_by_seed.append(seed_misses)
        for ds in datasets:
            pair = pair_init(model, seed, ds)
            if pair.is_fail:
                fail_count += 1
                continue
            live_counts[ds] += 1
            max_pair_bits = max(max_pair_bits, pair.space_bits)
            max_component_bits = max(
                max_component_bits,
                pair.after_insert.nbits,
                pair.after_delete.nbits,
            )
            members = frozenset(ds)
            insert_yes = yes_set(model, seed, pair.after_insert)
            delete_yes = yes_set(model, seed, pair.after_delete)
            answered = insert_yes - delete_yes  # what pair_query answers 1 on
            false_positives = answered - members
            if false_positives:
                fp_count += len(false_positives)
                if first_fp is None:
                    first_fp = (seed, ds, sorted(false_positives))
            misses = members - answered
            completeness_violations += len(members - insert_yes)
            unexplained_misses += len(misses - delete_yes)
            for x in misses:
                fn_counts[(ds, x)] += 1
            seed_misses.append(len(misses))
    total_cells = len(seeds) * dataset_count
    fn_rates = {
        cell: Fraction(count, live_counts[cell[0]]) if live_counts[cell[0]] else Fraction(0)
        for cell, count in fn_counts.items()
    }
    return ReductionReport(
        u=u,
        n=n,
        model=model.describe(),
        seed_bits=seeds[0].bits if seeds else 0,
        seed_count=len(seeds),
        dataset_count=dataset_count,
        false_positive_count=fp_count,
        completeness_violations=completeness_violations,
        max_false_negative_rate=max(fn_rates.values(), default=Fraction(0)),
        fn_rate_by_cell=fn_rates,
        fn_matches_delete_fp=unexplained_misses == 0,
        space_pair_bits=max_pair_bits,
        space_budget_bits=2 * max_component_bits,
        fail_fraction=Fraction(fail_count, total_cells) if total_cells else Fraction(0),
        failed_pairs=fail_count,
        first_false_positive=first_fp,
        misses_by_seed=misses_by_seed,
    )
