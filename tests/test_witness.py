"""Witness transform: yes-sets, state delegation, sticky false positives."""

import math
from fractions import Fraction

import pytest

from filterbounds import bounds
from filterbounds.bounds import EnumerationTooLarge, check_enumeration_budget
from filterbounds.combinat import iter_subsets_of_size
from filterbounds.core import UniverseParams
from filterbounds.filters import (
    FAIL_STATE,
    FailStateError,
    FilterModel,
    FingerprintMultisetModel,
    Seed,
)
from filterbounds.sequences import Operation, OpKind, run_sequence, validate_sequence
from filterbounds.witness import (
    WitnessModel,
    check_sticky,
    state_after,
    witness_transform,
    yes_set,
)

S0 = Seed(0, 8)


class TestYesSet:
    def test_exact_model(self, exact62):
        state = exact62.encode_set((0, 4))
        assert yes_set(exact62, S0, state) == {0, 4}

    def test_noisy_model_adds_noise(self, noisy62):
        state = noisy62.encode_set((0, 4))
        assert yes_set(noisy62, Seed(5, 8), state) == {0, 4, 5}

    def test_fingerprint_collision_widens_yes_set(self):
        # inserting only element 1 also answers yes for its fingerprint twin
        model = FingerprintMultisetModel(
            UniverseParams(6, 2), Fraction(1, 2), collision_table={1: 0, 2: 0}
        )
        state = model.state_for_elements(S0, (1,))
        assert yes_set(model, S0, state) >= {1, 2}

    def test_fail_state_raises(self, exact62):
        with pytest.raises(FailStateError):
            yes_set(exact62, S0, FAIL_STATE)


class TestStateAfter:
    def test_matches_replayed_sequence(self, noisy62, seeds8):
        params = UniverseParams(6, 2)
        seq = validate_sequence(
            [
                Operation(OpKind.INIT), Operation(OpKind.INS, 1),
                Operation(OpKind.INS, 4), Operation(OpKind.DEL, 1),
                Operation(OpKind.DEL, 4),
            ], params
        )
        for seed in seeds8[:8]:
            states, _ = run_sequence(noisy62, seed, seq)
            assert state_after(noisy62, seed, (1, 4), (1, 4)) == states[-1]
            assert state_after(noisy62, seed, (4, 1)) == states[2]

    def test_argument_order_is_immaterial(self):
        # the contract sorts ascending before running, so callers may pass
        # datasets in any order
        model = FingerprintMultisetModel(
            UniverseParams(6, 2), Fraction(1, 2), collision_table={0: 0, 1: 0}
        )
        assert state_after(model, S0, (1, 0)) == state_after(model, S0, (0, 1))
        assert state_after(model, S0, (0, 1), (1, 0)) == state_after(
            model, S0, (0, 1), (0, 1)
        )

    def test_propagates_fail(self):
        model = FingerprintMultisetModel(
            UniverseParams(6, 2), Fraction(1, 2),
            collision_table={0: 0, 1: 1, 2: 2},
        )
        assert state_after(model, S0, (0, 1, 2)).fail


def test_budget_counts_datasets_exactly_up_to_the_budget():
    # the running product equals math.comb up to the budget, 0 for n > u
    for u in range(0, 30):
        for n in range(0, 32):
            if math.comb(u, n) <= bounds.DATASET_BUDGET:
                assert check_enumeration_budget(u, n) == math.comb(u, n)
            else:
                with pytest.raises(EnumerationTooLarge, match=rf"C\({u}, {n}\)"):
                    check_enumeration_budget(u, n)


def test_budget_counts_the_bits_of_the_member_masks():
    # one u-bit mask per dataset: u=40,000, n=1 fits, u=10**5 does not
    assert check_enumeration_budget(40_000, 1) == 40_000
    with pytest.raises(EnumerationTooLarge, match="mask bits"):
        check_enumeration_budget(10**5, 1)


class TestWitnessModel:
    def test_budget_guard(self, exact62, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "DATASET_BUDGET", 10)
            with pytest.raises(EnumerationTooLarge):
                WitnessModel(exact62)
        big = FingerprintMultisetModel(UniverseParams(40, 10), Fraction(1, 2))
        with pytest.raises(EnumerationTooLarge):
            witness_transform(big)  # C(40, 10) > 10**6

    def test_states_and_space_delegate(self, noisy62, seeds8):
        wmodel = witness_transform(noisy62)
        for seed in seeds8[:8]:
            assert wmodel.fresh_state(seed) == noisy62.fresh_state(seed)
            state = wmodel.insert_state(seed, wmodel.fresh_state(seed), 3)
            assert state == noisy62.insert_state(seed, noisy62.fresh_state(seed), 3)
            assert wmodel.delete_state(seed, state, 3) == noisy62.delete_state(
                seed, state, 3
            )
            assert state.nbits == noisy62.encode_set((3,)).nbits

    def test_steps_are_the_base_methods(self, noisy62):
        # a step through the witness is the base's step, with no frame of its own
        assert not issubclass(WitnessModel, FilterModel)
        wmodel = witness_transform(noisy62)
        for name in ("fresh_state", "insert_state", "delete_state", "seed_class"):
            assert getattr(wmodel, name) == getattr(noisy62, name), name

    def test_query_fail_raises(self, noisy62):
        with pytest.raises(FailStateError):
            witness_transform(noisy62).query_bit(S0, FAIL_STATE, 0)

    def test_describe_wraps_base(self, noisy62):
        assert witness_transform(noisy62).describe() == (
            "witness(" + noisy62.describe() + ")"
        )

    def test_self_containment(self, exact62, noisy62, seeds8):
        # x in S implies the witnessed query answers 1 at the full state
        for base in (exact62, noisy62):
            wmodel = witness_transform(base)
            for seed in seeds8[:16]:
                for dataset in iter_subsets_of_size(6, 2):
                    state = state_after(base, seed, dataset)
                    for x in dataset:
                        assert wmodel.query_bit(seed, state, x) == 1

    def test_witness_yes_subset_of_base_yes(self, noisy62, seeds8):
        # a witness dataset is base-complete, so its elements answer 1 in
        # the base too; the transform can only shrink the yes-set
        wmodel = witness_transform(noisy62)
        for seed in seeds8[:16]:
            for dataset in iter_subsets_of_size(6, 2):
                state = state_after(noisy62, seed, dataset)
                assert yes_set(wmodel, seed, state) <= yes_set(noisy62, seed, state)

    def test_exact_model_witness_yes_is_dataset_at_capacity(self, exact62):
        # distinct datasets of an exact store reach distinct states
        wmodel = witness_transform(exact62)
        for dataset in iter_subsets_of_size(6, 2):
            state = state_after(exact62, S0, dataset)
            assert yes_set(wmodel, S0, state) == frozenset(dataset)

    def test_sub_capacity_states_have_empty_witness_yes(self, exact62):
        # no size-2 insertion run lands on a size-<2 exact state
        wmodel = witness_transform(exact62)
        for dataset in [(), (3,)]:
            state = state_after(exact62, S0, dataset)
            assert yes_set(wmodel, S0, state) == frozenset()

    def test_table_cache_holds_one_seed_at_a_time(self, noisy62):
        # repeated queries under one seed reuse the table; switching seeds
        # evicts it, so memory stays bounded by a single table
        wmodel = witness_transform(noisy62)
        first = wmodel._table(S0)
        assert wmodel._table(S0) is first
        other = wmodel._table(Seed(1, 8))
        assert other is not first
        assert wmodel._table(S0) is not first


class TestCheckSticky:
    def test_requires_full_capacity_dataset(self, noisy62):
        with pytest.raises(ValueError):
            check_sticky(noisy62, S0, (3,))

    def test_noisy_base_false_positives_stick(self, noisy62, seeds8):
        # noise is state-independent, so surplus yeses survive deletion
        for seed in seeds8:
            assert check_sticky(noisy62, seed, (1, 2)) == []

    def test_frozen_noisy_example(self, noisy62):
        # seed 5: noise {5}, dataset {1, 2}; 5 is a surplus yes at the
        # full state and is still answered yes at the emptied state
        seed = Seed(5, 8)
        full = state_after(noisy62, seed, (1, 2))
        assert yes_set(noisy62, seed, full) - {1, 2} == {5}
        assert check_sticky(noisy62, seed, (1, 2)) == []

    def test_fingerprint_model_violates(self):
        # two universe elements share each fingerprint when fp space is
        # smaller than the universe; deleting the dataset drops collided
        # surplus yeses, which is exactly a sticky violation
        model = FingerprintMultisetModel(
            UniverseParams(6, 2), Fraction(1, 2), fingerprint_bits=2
        )
        violations = []
        for seed in (Seed(v, 8) for v in range(256)):
            violations += check_sticky(model, seed, (0, 1))
        assert violations

    def test_fail_run_raises(self):
        # inserting a full dataset cannot overflow the multiset, so a
        # stub that fails on insert stands in for a failing model
        class FailingInsert(FingerprintMultisetModel):
            def insert_state(self, seed, state, x):
                return FAIL_STATE

        model = FailingInsert(UniverseParams(6, 2), Fraction(1, 2))
        with pytest.raises(FailStateError):
            check_sticky(model, S0, (0, 1))
