"""Yes-sets, the witness-based query transform, and the sticky check.

The yes-set of a state is everything a model answers 1 on.  A witness of
an element x at a state M is a full-capacity dataset S with x in S whose
plain insertion run lands the base model exactly on M; the witness
transform replaces a model's query by a search for such a witness while
keeping its states, so it trades query time for a yes-set that is pinned
to what insertion runs can explain.

The sticky check probes the persistence of false positives: after
inserting a dataset and then deleting it again, anything that was wrongly
answered 1 at the full state should still be answered 1 at the emptied
state.  A violation is evidence that a model's wrong answers are not of
the sticky kind, which is what the fingerprint scheme exhibits.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .combinat import binom_exact, iter_subsets_of_size
from .core import _mask_elems
from .filters import FailStateError, FilterModel, FilterState, Seed


class EnumerationTooLarge(Exception):
    """An exhaustive enumeration would exceed the configured budget."""


DATASET_BUDGET = 10**6
SEED_BUDGET = 1 << 16
# model steps a sweep may take, estimated as seed classes x C(u, n) x n; the
# u=20, n=5 noisy_exact model at 16 seed bits takes 1.6 million in seconds
STEP_BUDGET = 10**7


def check_enumeration_budget(
    u: int, n: int, seed_count: int = 0, class_count: int = 0
) -> int:
    """Refuse, before any model step, a sweep too large; return C(u, n)."""
    dataset_count = binom_exact(u, n)
    if dataset_count > DATASET_BUDGET:
        raise EnumerationTooLarge(
            f"{dataset_count} datasets exceed budget {DATASET_BUDGET}"
        )
    if seed_count > SEED_BUDGET:
        raise EnumerationTooLarge(f"{seed_count} seeds exceed budget {SEED_BUDGET}")
    steps = class_count * dataset_count * n
    if steps > STEP_BUDGET:
        raise EnumerationTooLarge(
            f"{class_count} seed classes x {dataset_count} datasets x {n} "
            f"steps = {steps} model steps exceed budget {STEP_BUDGET}"
        )
    return dataset_count


def yes_set(model: FilterModel, seed: Seed, state: FilterState) -> frozenset[int]:
    """All elements of the universe answered 1 at a non-fail state."""
    return frozenset(_mask_elems(model.yes_mask(seed, state)))


def state_after(
    model: FilterModel,
    seed: Seed,
    insert_elems: Iterable[int],
    delete_elems: Iterable[int] = (),
) -> FilterState:
    """State after init, inserting ascending, then deleting ascending.

    May return the fail state if the model overflows along the way.
    """
    state = model.fresh_state(seed)
    for x in sorted(insert_elems):
        if state.fail:
            return state
        state = model.insert_state(seed, state, x)
    return delete_run(model, seed, state, sorted(delete_elems))


def delete_run(
    model: FilterModel, seed: Seed, state: FilterState, elems: Iterable[int]
) -> FilterState:
    """State after deleting elems in the order given, stopping at the fail state."""
    delete = model.delete_state
    for x in elems:
        if state.fail:
            break
        state = delete(seed, state, x)
    return state


def insert_snapshots(
    model: FilterModel, seed: Seed, datasets: Sequence[tuple[int, ...]]
) -> list[FilterState]:
    """state_after(model, seed, ds) for each ascending tuple ds, in order.

    A walk over ascending subsets: a dataset steps only past the prefix it
    shares with the one before, so in combinations order each subset of
    size <= n costs one insert_state.  A failed prefix fails its subtree.
    """
    insert = model.insert_state
    prefix = [model.fresh_state(seed)]  # prefix[k]: state after k inserts
    last: tuple[int, ...] = ()
    out = []
    for ds in datasets:
        k = 0
        while k < len(last) and k < len(ds) and last[k] == ds[k]:
            k += 1
        del prefix[k + 1:]
        state = prefix[k]
        for x in ds[k:]:
            if not state.fail:
                state = insert(seed, state, x)
            prefix.append(state)
        out.append(state)
        last = ds
    return out


class WitnessModel(FilterModel):
    """A model whose query searches for a witnessing full-capacity dataset.

    State handling delegates to the base model, so states, encodings, and
    space are identical.  A query on x at state M answers 1 exactly when
    some dataset of cardinality n containing x reaches M by a plain
    insertion run from init under the same seed.  The search table is
    memoized per seed; with C(u, n) datasets the table stays within the
    enumeration budget enforced at construction.
    """

    def __init__(self, base: FilterModel):
        check_enumeration_budget(base.params.u, base.params.n)
        self.base = base
        self.kind = base.kind
        self.params = base.params
        self.eps_plus = base.eps_plus
        # only the most recent seed's table is kept; callers sweep
        # seed-major, and one table per seed bounds memory at the budget
        self._cached: tuple[tuple[int, int], dict[tuple[int, int], int]] | None = None

    def _table(self, seed: Seed) -> dict[tuple[int, int], int]:
        if self._cached is not None and self._cached[0] == (seed.value, seed.bits):
            return self._cached[1]
        datasets = list(iter_subsets_of_size(self.params.u, self.params.n))
        masks = [sum(1 << x for x in ds) for ds in datasets]
        return self.fill_table(seed, masks, insert_snapshots(self.base, seed, datasets))

    def fill_table(
        self, seed: Seed, masks: Sequence[int], snapshots: Sequence[FilterState]
    ) -> dict[tuple[int, int], int]:
        """Cache seed's table from every size-n dataset (as a bitmask) and
        its insert snapshot under the base model."""
        table: dict[tuple[int, int], int] = {}
        for mask, st in zip(masks, snapshots):
            if not st.fail:
                key = (st.value, st.nbits)
                table[key] = table.get(key, 0) | mask
        self._cached = ((seed.value, seed.bits), table)
        return table

    def seed_class(self, seed: Seed) -> Hashable:
        # the table is built from base runs alone, so the base's classes hold
        return self.base.seed_class(seed)

    def fresh_state(self, seed: Seed) -> FilterState:
        return self.base.fresh_state(seed)

    def insert_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        return self.base.insert_state(seed, state, x)

    def delete_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        return self.base.delete_state(seed, state, x)

    def query_bit(self, seed: Seed, state: FilterState, x: int) -> int:
        return (self.yes_mask(seed, state) >> x) & 1

    def yes_mask(self, seed: Seed, state: FilterState) -> int:
        if state.fail:
            raise FailStateError("witness query at the fail state")
        return self._table(seed).get((state.value, state.nbits), 0)

    def describe(self) -> str:
        return f"witness({self.base.describe()})"


def witness_transform(base: FilterModel) -> WitnessModel:
    """Wrap a model so its queries answer via witness search."""
    return WitnessModel(base)


def check_sticky(
    model: FilterModel, seed: Seed, dataset: Iterable[int]
) -> list[int]:
    """Elements whose wrong yes at the full state vanishes after deletion.

    For a full-capacity dataset S, compares the yes-set at the state after
    inserting S with the yes-set after inserting and then deleting S.
    Returns, sorted, every x outside S answered 1 at the first state but 0
    at the second.  An empty return means the false positives stuck.
    Raises FailStateError if either run fails.
    """
    elems = sorted(dataset)
    if len(elems) != model.params.n:
        raise ValueError(
            f"dataset size {len(elems)} != capacity {model.params.n}"
        )
    full = state_after(model, seed, elems)
    emptied = state_after(model, seed, elems, elems)
    if full.fail or emptied.fail:
        raise FailStateError("run reached the fail state")
    surplus = yes_set(model, seed, full) - set(elems)
    kept = yes_set(model, seed, emptied)
    return sorted(surplus - kept)
