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

from typing import Iterable

from .combinat import binom_exact, iter_subsets_of_size
from .filters import FailStateError, FilterModel, FilterState, Seed


class EnumerationTooLarge(Exception):
    """An exhaustive enumeration would exceed the configured budget."""


DATASET_BUDGET = 10**6
SEED_BUDGET = 1 << 16


def check_enumeration_budget(
    u: int, n: int, seed_count: int = 0, *, dataset_budget: int = DATASET_BUDGET
) -> int:
    """Refuse, before any model step, a sweep too large; return C(u, n)."""
    dataset_count = binom_exact(u, n)
    if dataset_count > dataset_budget:
        raise EnumerationTooLarge(
            f"{dataset_count} datasets exceed budget {dataset_budget}"
        )
    if seed_count > SEED_BUDGET:
        raise EnumerationTooLarge(f"{seed_count} seeds exceed budget {SEED_BUDGET}")
    return dataset_count


def yes_set(model: FilterModel, seed: Seed, state: FilterState) -> frozenset[int]:
    """All elements of the universe answered 1 at a non-fail state."""
    if state.fail:
        raise FailStateError("yes-set of the fail state is undefined")
    return frozenset(
        x for x in range(model.params.u) if model.query_bit(seed, state, x)
    )


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
    for x in sorted(delete_elems):
        if state.fail:
            return state
        state = model.delete_state(seed, state, x)
    return state


class WitnessModel(FilterModel):
    """A model whose query searches for a witnessing full-capacity dataset.

    State handling delegates to the base model, so states, encodings, and
    space are identical.  A query on x at state M answers 1 exactly when
    some dataset of cardinality n containing x reaches M by a plain
    insertion run from init under the same seed.  The search table is
    memoized per seed; with C(u, n) datasets the table stays within the
    enumeration budget enforced at construction.
    """

    def __init__(self, base: FilterModel, budget: int = DATASET_BUDGET):
        check_enumeration_budget(base.params.u, base.params.n, dataset_budget=budget)
        self.base = base
        self.kind = base.kind
        self.params = base.params
        self.eps_plus = base.eps_plus
        # only the most recent seed's table is kept; callers sweep
        # seed-major, and one table per seed bounds memory at the budget
        self._cached: tuple[tuple[int, int], dict[tuple[int, int], int]] | None = None

    def _table(self, seed: Seed) -> dict[tuple[int, int], int]:
        key = (seed.value, seed.bits)
        if self._cached is not None and self._cached[0] == key:
            return self._cached[1]
        table: dict[tuple[int, int], int] = {}
        u, n = self.params.u, self.params.n
        for dataset in iter_subsets_of_size(u, n):
            st = state_after(self.base, seed, dataset)
            if st.fail:
                continue
            state_key = (st.value, st.nbits)
            mask = table.get(state_key, 0)
            for x in dataset:
                mask |= 1 << x
            table[state_key] = mask
        self._cached = (key, table)
        return table

    def fresh_state(self, seed: Seed) -> FilterState:
        return self.base.fresh_state(seed)

    def insert_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        return self.base.insert_state(seed, state, x)

    def delete_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        return self.base.delete_state(seed, state, x)

    def query_bit(self, seed: Seed, state: FilterState, x: int) -> int:
        if state.fail:
            raise FailStateError("witness query at the fail state")
        mask = self._table(seed).get((state.value, state.nbits), 0)
        return (mask >> x) & 1

    def describe(self) -> str:
        return f"witness({self.base.describe()})"


def witness_transform(base: FilterModel, budget: int = DATASET_BUDGET) -> WitnessModel:
    """Wrap a model so its queries answer via witness search."""
    return WitnessModel(base, budget)


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
