"""Filter models: encodings, stepping, fail sink and fingerprints.

The fingerprint slot layout is written and read back here, slot by slot,
as the oracle for the model's bulk insert, slot search and spliced steps.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterbounds.combinat import bounded_subset_count, iter_subsets_of_size
from filterbounds.core import UniverseParams
from filterbounds.filters import (
    FAIL_STATE,
    ExactSetModel,
    FailStateError,
    FilterState,
    MAX_RANK_TERMS,
    FingerprintMultisetModel,
    InvalidParams,
    NoisyExactModel,
    Seed,
    _hash_batch,
    draw_seed,
    fingerprint,
    hash_params,
    run_sequence,
    seed_space,
    seed_word,
)
from filterbounds.harness import _MODEL_FIELDS, ModelSpec
from filterbounds.sequences import (
    dataset_trace,
    enumerate_sequences,
    op_del,
    op_init,
    op_ins,
    op_query,
    validate_sequence,
)

P62 = UniverseParams(6, 2)
P82 = UniverseParams(8, 2)
S0 = Seed(0, 8)


def all_small_subsets(u, n):
    for k in range(n + 1):
        yield from iter_subsets_of_size(u, k)


def encode_slots(model, counts):
    """The fingerprint state of {fingerprint: count}: slots in ascending
    fingerprint order, each fp_bits of fingerprint then count - 1 in
    count_bits, the first slot highest."""
    slot_bits = model.fp_bits + model.count_bits
    value = 0
    for fp in sorted(counts):
        value = (value << slot_bits) | (fp << model.count_bits) | (counts[fp] - 1)
    return FilterState(value, slot_bits * len(counts))


def decode_slots(model, state):
    """{fingerprint: count} read back from a live fingerprint state."""
    slot_bits = model.fp_bits + model.count_bits
    counts = {}
    value = state.value
    for _ in range(state.nbits // slot_bits):
        field = value & ((1 << slot_bits) - 1)
        counts[field >> model.count_bits] = (field & ((1 << model.count_bits) - 1)) + 1
        value >>= slot_bits
    return counts


class TestSeeds:
    def test_space_size_and_order(self):
        seeds = list(seed_space(4))
        assert len(seeds) == 16
        assert [s.value for s in seeds] == list(range(16))

    def test_zero_bit_space_is_single_seed(self):
        assert list(seed_space(0)) == [Seed(0, 0)]

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            Seed(16, 4)
        with pytest.raises(ValueError):
            Seed(-1, 4)
        with pytest.raises(ValueError):
            Seed(0, -1)

    def test_draw_seed_is_reproducible(self):
        assert draw_seed(random.Random(7)) == draw_seed(random.Random(7))

    def test_seed_word_streams_differ(self):
        seed = Seed(123, 8)
        words = {seed_word(seed, i) for i in range(8)}
        assert len(words) == 8
        assert all(0 <= w < 1 << 64 for w in words)


class TestFilterState:
    def test_value_must_fit_width(self):
        with pytest.raises(ValueError):
            FilterState(8, 3)
        with pytest.raises(ValueError):
            FilterState(0, -1)

    def test_bitstring_forms(self):
        assert FilterState(5, 3).as_bitstring() == "101"
        assert FilterState(0, 0).as_bitstring() == ""
        assert FAIL_STATE.as_bitstring() == "FAIL"

    def test_fail_sentinel(self):
        assert FAIL_STATE.fail
        assert FAIL_STATE.nbits == 1


class TestExactSet:
    def test_width_frozen(self):
        # 1 + 8 + 28 = 37 subsets of [8] with size <= 2, so 6 bits
        model = ExactSetModel(P82)
        assert bounded_subset_count(8, 2) == 37
        assert model.encode_set(()).nbits == 6

    def test_round_trip_all_states(self):
        model = ExactSetModel(P82)
        states = set()
        for elems in all_small_subsets(8, 2):
            state = model.encode_set(elems)
            assert model.decode_set(state) == frozenset(elems)
            states.add(state)
        assert len(states) == 37

    def test_fresh_is_empty(self):
        model = ExactSetModel(P82)
        assert model.decode_set(model.fresh_state(S0)) == frozenset()

    def test_query_is_membership(self):
        model = ExactSetModel(P82)
        state = model.encode_set((1, 5))
        answers = [model.query_bit(S0, state, x) for x in range(8)]
        assert answers == [0, 1, 0, 0, 0, 1, 0, 0]

    def test_decode_fail_raises(self):
        with pytest.raises(FailStateError):
            ExactSetModel(P82).decode_set(FAIL_STATE)

    def test_insert_beyond_capacity_raises(self):
        model = ExactSetModel(P82)
        state = model.encode_set((1, 2))
        with pytest.raises(ValueError):
            model.insert_state(S0, state, 3)

    def test_eps_plus_range(self):
        with pytest.raises(InvalidParams):
            ExactSetModel(P82, Fraction(-1, 2))
        with pytest.raises(InvalidParams):
            ExactSetModel(P82, Fraction(3, 2))

    def test_answers_match_set_semantics(self):
        # exact model: every query over every short sequence is truthful
        model = ExactSetModel(UniverseParams(4, 2))
        for seq in enumerate_sequences(UniverseParams(4, 2), 4):
            trace = dataset_trace(seq)
            _, answers = run_sequence(model, S0, seq)
            for t, op in enumerate(seq.ops):
                if answers[t] is not None:
                    assert answers[t] == int(op.arg in trace.set_at(t))


class TestNoisyExact:
    def test_requires_budget_for_noise(self):
        with pytest.raises(InvalidParams):
            NoisyExactModel(P62, Fraction(0), 1)

    def test_noise_size_bounds(self):
        with pytest.raises(InvalidParams):
            NoisyExactModel(P62, Fraction(1, 6), -1)
        with pytest.raises(InvalidParams):
            NoisyExactModel(P62, Fraction(1, 6), 7)
        with pytest.raises(InvalidParams):
            # m = 2 would give soundness 2/6 > 1/6
            NoisyExactModel(P62, Fraction(1, 6), 2)

    def test_noise_block_frozen(self, noisy62):
        assert noisy62.noise_set(Seed(5, 8)) == {5}
        assert noisy62.noise_set(Seed(6, 8)) == {0}

    def test_yes_is_set_union_noise(self, noisy62, seeds8):
        for seed in seeds8[:16]:
            noise = noisy62.noise_set(seed)
            for elems in all_small_subsets(6, 2):
                state = noisy62.encode_set(elems)
                yes = {x for x in range(6) if noisy62.query_bit(seed, state, x)}
                assert yes == set(elems) | noise

    def test_per_element_noise_counts_frozen(self, noisy62, seeds8):
        # 256 = 6 * 42 + 4, so starts 0..3 occur 43 times and 4..5 occur 42
        counts = [
            sum(x in noisy62.noise_set(seed) for seed in seeds8) for x in range(6)
        ]
        assert counts == [43, 43, 43, 43, 42, 42]

    def test_soundness_exact_when_universe_divides_seed_space(self):
        model = NoisyExactModel(UniverseParams(16, 2), Fraction(1, 8), 2)
        for x in range(16):
            hits = sum(x in model.noise_set(seed) for seed in seed_space(8))
            assert Fraction(hits, 256) == Fraction(1, 8)

    def test_never_incomplete(self, noisy62, seeds8):
        for seed in seeds8:
            for elems in all_small_subsets(6, 2):
                state = noisy62.encode_set(elems)
                assert all(noisy62.query_bit(seed, state, x) for x in elems)


class TestExactModelsAreComplete:
    """Every member query answers 1, over all u=8 sequences of length <= 5.

    Checked by induction instead of brute force: the closure test shows
    each legal op maps an encoded set to the encoding of the updated set
    (so after any valid sequence the state encodes the traced set), and
    the member test shows every encoded state answers 1 on its members.
    A direct sweep over the shorter sequences cross-checks the induction.
    """

    def models(self):
        return [ExactSetModel(P82), NoisyExactModel(P82, Fraction(1, 8), 1)]

    def test_transitions_preserve_set_encoding(self):
        for model in self.models():
            for seed in seed_space(8):
                for elems in all_small_subsets(8, 2):
                    cur = set(elems)
                    state = model.encode_set(elems)
                    for x in range(8):
                        if len(cur) < 2 or x in cur:
                            nxt, _ = model.step(seed, state, op_ins(x))
                            assert nxt == model.encode_set(sorted(cur | {x}))
                        nxt, _ = model.step(seed, state, op_del(x))
                        assert nxt == model.encode_set(sorted(cur - {x}))
                    nxt, _ = model.step(seed, state, op_init())
                    assert nxt == model.encode_set(())

    def test_members_answer_yes_under_every_seed(self):
        for model in self.models():
            for seed in seed_space(8):
                for elems in all_small_subsets(8, 2):
                    state = model.encode_set(elems)
                    assert all(model.query_bit(seed, state, x) for x in elems)

    def test_short_sequences_directly(self):
        # seed choice is immaterial for states (the closure test covers
        # every seed), so one seed suffices for the brute-force route
        seed = Seed(201, 8)
        models = self.models()
        for seq in enumerate_sequences(P82, 4):
            trace = dataset_trace(seq)
            for model in models:
                states, answers = run_sequence(model, seed, seq)
                for t, op in enumerate(seq.ops):
                    assert states[t] == model.encode_set(sorted(trace.set_at(t)))
                    if answers[t] is not None and op.arg in trace.set_at(t):
                        assert answers[t] == 1


class TestFingerprint:
    def test_deterministic_and_in_range(self):
        seed = Seed(99, 8)
        values = [fingerprint(x, seed, 5, 40) for x in range(40)]
        assert values == [fingerprint(x, seed, 5, 40) for x in range(40)]
        assert all(0 <= v < 32 for v in values)

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            fingerprint(40, Seed(0, 8), 5, 40)

    def test_collision_table_overrides(self):
        seed = Seed(3, 8)
        assert fingerprint(1, seed, 4, 8, {1: 9}) == 9
        plain = fingerprint(2, seed, 4, 8)
        assert fingerprint(2, seed, 4, 8, {1: 9}) == plain

    def test_collision_table_value_must_fit(self):
        with pytest.raises(ValueError):
            fingerprint(1, Seed(0, 8), 2, 8, {1: 4})

    def test_pair_collision_rates_near_uniform(self):
        # frozen counts over the full 12-bit seed space; 16 would be exact
        # pairwise independence, 32 the factor-two soundness cap
        u, ell = 4096, 8
        counts = []
        for x, y in [(100, 200), (0, 1), (7, 4095)]:
            counts.append(
                sum(
                    fingerprint(x, seed, ell, u) == fingerprint(y, seed, ell, u)
                    for seed in seed_space(12)
                )
            )
        assert counts == [15, 13, 17]
        assert all(c <= 2 * 4096 // 256 for c in counts)

    def test_random_pair_collision_rate_within_soundness_cap(self):
        # 10^5 sampled (pair, seed) cells at ell=12; the affine hash must
        # stay inside the factor-two soundness budget 2 * 2^-12
        rng = random.Random("fp-collision-mc")
        u, ell, trials = 1 << 20, 12, 100_000
        hits = 0
        for _ in range(trials):
            x = rng.randrange(u)
            y = rng.randrange(u - 1)
            if y >= x:
                y += 1
            seed = Seed(rng.getrandbits(16), 16)
            hits += fingerprint(x, seed, ell, u) == fingerprint(y, seed, ell, u)
        assert hits == 28
        assert Fraction(hits, trials) <= 2 * Fraction(1, 2**ell)


class TestFingerprintMultiset:
    def test_default_width_frozen(self):
        cases = [
            ((65536, 16), Fraction(1, 256), 12),
            ((65536, 16), Fraction(1, 8), 7),
            ((8, 2), Fraction(1, 4), 3),
            ((8, 2), Fraction(1), 1),  # full error budget leaves log2(n) bits
            ((8, 1), Fraction(1), 1),  # clamped to at least one bit
        ]
        for (u, n), eps, want in cases:
            model = FingerprintMultisetModel(UniverseParams(u, n), eps)
            assert model.fp_bits == want

    @pytest.mark.parametrize("width", [0, -3])
    def test_explicit_width_below_one_bit_is_refused(self, width):
        # only the width derived from eps_plus is raised to one bit
        with pytest.raises(InvalidParams):
            FingerprintMultisetModel(P82, Fraction(1, 2), width)

    def test_eps_plus_must_be_positive(self):
        with pytest.raises(InvalidParams):
            FingerprintMultisetModel(P82, Fraction(0))

    def test_duplicate_insert_inflates_count(self):
        model = FingerprintMultisetModel(P82, Fraction(1, 2))
        fp = model.fingerprint_of(S0, 3)
        state = model.state_for_elements(S0, [3, 3])
        assert decode_slots(model, state) == {fp: 2}

    def test_counts_saturate_at_n(self):
        model = FingerprintMultisetModel(P82, Fraction(1, 2))
        state = model.state_for_elements(S0, [3] * 5)
        fp = model.fingerprint_of(S0, 3)
        assert decode_slots(model, state)[fp] == 2

    def test_delete_of_absent_fingerprint_is_noop(self):
        model = FingerprintMultisetModel(
            P82, Fraction(1, 2), collision_table={1: 0, 2: 1}
        )
        state = model.state_for_elements(S0, [1])
        assert model.delete_state(S0, state, 2) == state

    def test_deletion_of_nonelement_can_erase_someone_else(self):
        # 1 and 2 share a forced fingerprint; deleting absent 2 removes 1
        model = FingerprintMultisetModel(
            P82, Fraction(1, 2), collision_table={1: 0, 2: 0}
        )
        state = model.state_for_elements(S0, [1])
        assert model.query_bit(S0, state, 1) == 1
        after = model.delete_state(S0, state, 2)
        assert model.query_bit(S0, after, 1) == 0

    def test_duplicate_insertion_leaves_false_positive(self):
        # ins x, ins x, del x leaves a count, so the empty set answers yes
        model = FingerprintMultisetModel(P82, Fraction(1, 2))
        seq = validate_sequence(
            [op_init(), op_ins(3), op_ins(3), op_del(3), op_query(3)], P82
        )
        _, answers = run_sequence(model, S0, seq)
        assert answers[-1] == 1

    def test_overflow_on_third_distinct_slot(self):
        model = FingerprintMultisetModel(
            P82, Fraction(1, 2), collision_table={0: 0, 1: 1, 2: 2}
        )
        state = model.state_for_elements(S0, [0, 1])
        assert not state.fail
        assert model.insert_state(S0, state, 2) is FAIL_STATE
        assert model.state_for_elements(S0, [0, 1, 2]) is FAIL_STATE
        ops = [op_init(), op_ins(0), op_ins(1), op_ins(2)]
        states, _ = run_sequence(model, S0, validate_sequence(ops, UniverseParams(8, 3)))
        assert [s.nbits for s in states[:3]] == [0, 3, 6] and states[-1].fail

    def test_fail_is_a_sink_and_answers_yes(self):
        model = FingerprintMultisetModel(P82, Fraction(1, 2))
        state, answer = model.step(S0, FAIL_STATE, op_query(0))
        assert state is FAIL_STATE and answer == 1
        state, _ = model.step(S0, FAIL_STATE, op_ins(1))
        assert state.fail
        state, _ = model.step(S0, FAIL_STATE, op_del(1))
        assert state.fail

    def test_init_resets_fail(self):
        model = FingerprintMultisetModel(P82, Fraction(1, 2))
        state, _ = model.step(S0, FAIL_STATE, op_init())
        assert not state.fail and state.nbits == 0

    def test_bulk_equals_sequential(self, seeds8):
        model = FingerprintMultisetModel(P62, Fraction(1, 2))
        rng = random.Random(11)
        for seed in seeds8[:32]:
            elems = [rng.randrange(6) for _ in range(rng.randrange(6))]
            state = model.fresh_state(seed)
            for x in elems:
                if state.fail:
                    break
                state = model.insert_state(seed, state, x)
            assert model.state_for_elements(seed, elems) == state

    def test_step_rejects_out_of_universe(self):
        model = FingerprintMultisetModel(P82, Fraction(1, 2))
        with pytest.raises(ValueError):
            model.step(S0, model.fresh_state(S0), op_ins(8))


@st.composite
def fingerprint_models(draw):
    """A small fingerprint model, with or without a collision table, and a seed."""
    u = draw(st.integers(2, 12))
    n = draw(st.integers(1, 4))
    fp_bits = draw(st.integers(1, 4))
    table = draw(
        st.none()
        | st.dictionaries(
            st.integers(0, u - 1), st.integers(0, (1 << fp_bits) - 1), max_size=u
        )
    )
    model = FingerprintMultisetModel(
        UniverseParams(u, n), Fraction(1, 2), fp_bits, table
    )
    return model, Seed(draw(st.integers(0, 255)), 8)


def element_lists(model, draw):
    # long enough for duplicates and for more than n distinct elements
    u, n = model.params.u, model.params.n
    return draw(st.lists(st.integers(0, u - 1), max_size=3 * n + 2))


def reference_query(model, seed, state, y):
    """Membership of y's fingerprint in the decoded slots, memo-free."""
    fp = fingerprint(y, seed, model.fp_bits, model.params.u, model.collision_table)
    return 1 if fp in decode_slots(model, state) else 0


class TestFingerprintProperties:
    """The batch hash, the run-length bulk insert and the slot search against
    the steps."""

    @settings(deadline=None)
    @given(fingerprint_models(), st.data())
    def test_bulk_equals_stepping_inserts(self, case, data):
        model, seed = case
        elems = element_lists(model, data.draw)
        state = model.fresh_state(seed)
        for x in elems:
            state, _ = model.step(seed, state, op_ins(x))
        assert model.state_for_elements(seed, elems) == state

    @settings(deadline=None)
    @given(fingerprint_models(), st.data())
    def test_query_scan_equals_decoded_membership(self, case, data):
        model, seed = case
        ops = data.draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, model.params.u - 1)))
        )
        state = model.fresh_state(seed)
        for insert, x in ops:
            state, _ = model.step(seed, state, op_ins(x) if insert else op_del(x))
            if state.fail:
                break
            slots = decode_slots(model, state)
            for y in range(model.params.u):
                want = 1 if model.fingerprint_of(seed, y) in slots else 0
                assert model.query_bit(seed, state, y) == want
        # the edges of the binary search: no slot, one slot and n slots, with
        # fingerprints anywhere in range, the extremes included
        width = 1 << model.fp_bits
        for size in {0, 1, min(model.params.n, width)}:
            fps = data.draw(
                st.sets(st.integers(0, width - 1), min_size=size, max_size=size)
            )
            counts = {
                fp: data.draw(st.integers(1, model.params.n)) for fp in sorted(fps)
            }
            state = encode_slots(model, counts)
            for y in range(model.params.u):
                assert model.query_bit(seed, state, y) == reference_query(
                    model, seed, state, y
                )

    @settings(deadline=None)
    @given(fingerprint_models(), st.data())
    def test_batch_equals_one_at_a_time(self, case, data):
        model, seed = case
        elems = element_lists(model, data.draw)
        u, table = model.params.u, model.collision_table
        one_at_a_time = [fingerprint(x, seed, model.fp_bits, u, table) for x in elems]
        p = model._prime
        batch = _hash_batch(elems, hash_params(seed, p), p, model.fp_bits, u, table)
        assert batch == one_at_a_time
        assert [model.fingerprint_of(seed, x) for x in elems] == one_at_a_time

    @settings(deadline=None)
    @given(fingerprint_models(), st.data())
    def test_bad_elements_and_forced_values_still_raise(self, case, data):
        model, seed = case
        u, bits = model.params.u, model.fp_bits
        elems = element_lists(model, data.draw)
        outside = data.draw(st.sampled_from([-1, u, u + 7]))
        spot = data.draw(st.integers(0, len(elems)))
        bad = elems[:spot] + [outside] + elems[spot:]
        with pytest.raises(ValueError):
            fingerprint(outside, seed, bits, u, model.collision_table)
        with pytest.raises(ValueError):
            model.state_for_elements(seed, bad)
        with pytest.raises(ValueError):
            model.query_bit(seed, model.fresh_state(seed), outside)
        x = data.draw(st.integers(0, u - 1))
        wide = {x: data.draw(st.sampled_from([-1, 1 << bits]))}
        with pytest.raises(ValueError):
            fingerprint(x, seed, bits, u, wide)
        with pytest.raises(InvalidParams):
            FingerprintMultisetModel(model.params, model.eps_plus, bits, wide)


def reference_fingerprint_step(model, seed, state, x, insert):
    """The step through decode_slots and encode_slots, as before the splice."""
    counts = decode_slots(model, state)
    fp = model.fingerprint_of(seed, x)
    if insert:
        if fp not in counts and len(counts) == model.params.n:
            return FAIL_STATE
        counts[fp] = min(counts.get(fp, 0) + 1, model.params.n)
    elif fp in counts:
        counts[fp] -= 1
        if counts[fp] == 0:
            del counts[fp]
    return encode_slots(model, counts)


class TestFingerprintSplice:
    """Inserts and deletes splice one slot; the decoded multiset is the reference."""

    @settings(deadline=None)
    @given(fingerprint_models(), st.data())
    def test_spliced_steps_equal_decode_encode(self, case, data):
        model, seed = case
        u, n = model.params.u, model.params.n
        # long runs over few fingerprints reach the count cap and the fail state
        ops = data.draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, u - 1)), max_size=6 * n)
        )
        state = model.fresh_state(seed)
        for insert, x in ops:
            step = model.insert_state if insert else model.delete_state
            want = reference_fingerprint_step(model, seed, state, x, insert)
            state = step(seed, state, x)
            assert state == want
            if state.fail:
                with pytest.raises(FailStateError):
                    model.insert_state(seed, state, x)
                with pytest.raises(FailStateError):
                    model.delete_state(seed, state, x)
                break

    def test_count_cap_and_fail_are_reached(self):
        # two elements share fingerprint 0, so their count reaches n = 2 and
        # stays there; a third distinct fingerprint with both slots taken fails
        model = FingerprintMultisetModel(
            P62, Fraction(1, 2), 2, {0: 0, 1: 0, 2: 1, 3: 2}
        )
        state = model.fresh_state(S0)
        for x in (0, 1, 0):
            state = model.insert_state(S0, state, x)
        assert decode_slots(model, state) == {0: 2}
        state = model.insert_state(S0, state, 2)
        assert decode_slots(model, state) == {0: 2, 1: 1}
        assert model.insert_state(S0, state, 3) is FAIL_STATE
        state = model.delete_state(S0, state, 1)
        assert decode_slots(model, state) == {0: 1, 1: 1}
        state = model.delete_state(S0, state, 0)
        assert decode_slots(model, state) == {1: 1}
        assert model.delete_state(S0, state, 3) == state


def reference_exact_step(model, seed, state, op, x):
    """An exact step by arithmetic ranking: decode_set, set algebra, encode_set."""
    current = model.decode_set(state)
    if op == "query":
        noise = model.noise_set(seed) if isinstance(model, NoisyExactModel) else ()
        return 1 if x in current or x in noise else 0
    current = current | {x} if op == "ins" else current - {x}
    if len(current) > model.params.n:
        raise ValueError("over capacity")
    return model.encode_set(current)


class TestExactRankTables:
    """Memoized exact steps equal arithmetic ranking."""

    @settings(deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 255),
        st.data(),
    )
    def test_steps_equal_arithmetic_ranking(self, u, n, noisy, seed, data):
        params = UniverseParams(u, n)
        if noisy:
            noise_m = data.draw(st.integers(0, u))
            model = NoisyExactModel(params, Fraction(1), noise_m)
        else:
            model = ExactSetModel(params)
        seed = Seed(seed, 8)
        state = model.fresh_state(seed)
        ops = data.draw(st.lists(
            st.tuples(st.sampled_from(["ins", "del", "query"]), st.integers(-1, u)),
            max_size=12,
        ))
        for op, x in ops:
            try:
                want = reference_exact_step(model, seed, state, op, x)
            except ValueError:
                with pytest.raises(ValueError):
                    model.insert_state(seed, state, x)
                continue
            if op == "query":
                assert model.query_bit(seed, state, x) == want
                continue
            step = model.insert_state if op == "ins" else model.delete_state
            state = step(seed, state, x)
            assert state == want

    def test_bad_states_still_raise(self):
        # a rank past the last subset and the fail state are never memoized
        model = ExactSetModel(P62)  # 22 subsets in 5 bits
        past = FilterState(22, 5)
        for step in (model.insert_state, model.delete_state, model.query_bit):
            with pytest.raises(ValueError):
                step(S0, past, 0)
            with pytest.raises(FailStateError):
                step(S0, FAIL_STATE, 0)

    def test_elements_near_a_huge_universe_step_exactly(self):
        # demo-violations builds its exact control at the fingerprint
        # model's u, which may be near 2**64; a step never unranks a state
        # the model handed out, which at such a u scans up to the element
        u = 2**64 - 59
        model = ExactSetModel(UniverseParams(u, 2))
        x, y = u - 2, u - 1
        state = model.insert_state(S0, model.fresh_state(S0), y)
        assert state == model.encode_set((y,))
        assert model.query_bit(S0, state, y) == 1
        assert model.query_bit(S0, state, x) == 0
        assert model.delete_state(S0, state, x) == state
        assert model.delete_state(S0, state, y) == model.encode_set(())

    @pytest.mark.parametrize("noisy", [False, True])
    def test_states_never_handed_out_step_like_own_states(self, noisy):
        def build():
            if noisy:
                return NoisyExactModel(P62, Fraction(1, 6), 1)
            return ExactSetModel(P62)

        def outcome(call, *args):
            try:
                return call(*args)
            except ValueError as exc:
                return type(exc)

        other = build()
        seed = Seed(3, 8)
        for k in range(3):
            for ds in itertools.combinations(range(6), k):
                foreign = other.encode_set(ds)
                for state in (foreign, FilterState(foreign.value, foreign.nbits)):
                    # a cold model meets the state before reaching its set
                    model = build()
                    got = [
                        outcome(step, seed, state, x)
                        for step in (model.query_bit, model.insert_state, model.delete_state)
                        for x in range(-1, 7)
                    ]
                    own = model.fresh_state(seed)
                    for x in ds:
                        own = model.insert_state(seed, own, x)
                    assert own == state
                    assert got == [
                        outcome(step, seed, own, x)
                        for step in (model.query_bit, model.insert_state, model.delete_state)
                        for x in range(-1, 7)
                    ]


class TestHashPairMemo:
    """The one-entry (a, c) memo never serves one seed's pair for another."""

    MODELS = (
        FingerprintMultisetModel(UniverseParams(12, 3), Fraction(1, 2), 3),
        FingerprintMultisetModel(UniverseParams(40, 3), Fraction(1, 2), 3),
        FingerprintMultisetModel(
            UniverseParams(12, 3), Fraction(1, 2), 3, {1: 0, 2: 0, 5: 7}
        ),
    )
    ELEMENT_LISTS = ([], [4], [1, 2, 4, 4], [0, 5, 5, 5, 5, 9], [3, 6, 7, 8, 10])

    def reference_state(self, model, seed, elems):
        u, n = model.params.u, model.params.n
        fps = [fingerprint(x, seed, model.fp_bits, u, model.collision_table)
               for x in elems]
        if len(set(fps)) > n:
            return FAIL_STATE
        return encode_slots(model, {fp: min(fps.count(fp), n) for fp in fps})

    def test_interleaved_seeds_and_models_match_the_reference(self):
        twin_a, twin_b = Seed(77, 8), Seed(77, 8)
        assert twin_a == twin_b and twin_a is not twin_b
        seeds = (twin_a, Seed(200, 8), twin_b, Seed(3, 8), twin_a)
        built = {}
        # every call sees another seed or another model than the call before
        for _ in range(2):
            for elems in self.ELEMENT_LISTS:
                for seed in seeds:
                    for model in self.MODELS:
                        state = model.state_for_elements(seed, elems)
                        assert state == self.reference_state(model, seed, elems)
                        built[(id(model), id(seed), tuple(elems))] = (
                            model, seed, state
                        )
        # query in the reverse order, so each state meets a stale memo
        for model, seed, state in reversed(list(built.values())):
            if state.fail:
                continue
            for y in range(model.params.u):
                assert model.query_bit(seed, state, y) == reference_query(
                    model, seed, state, y
                )
                other = seeds[(seeds.index(seed) + 1) % len(seeds)]
                want = reference_query(model, other, state, y)
                assert model.query_bit(other, state, y) == want


class TestCostAndHashLimits:
    def test_exact_models_over_the_term_limit_are_refused_at_once(self):
        huge = UniverseParams(10**20, 10**20)
        for build in (
            lambda p: ExactSetModel(p),
            lambda p: NoisyExactModel(p, Fraction(1, 2), 1),
        ):
            with pytest.raises(InvalidParams):
                build(huge)
            with pytest.raises(InvalidParams):
                build(UniverseParams(MAX_RANK_TERMS, MAX_RANK_TERMS))
        # the limit counts sizes up to min(u, n), one binomial each
        edge = MAX_RANK_TERMS - 1
        assert ExactSetModel(UniverseParams(edge, edge))._width == edge
        ExactSetModel(UniverseParams(10**20, 2))
        ExactSetModel(UniverseParams(3, 10**20))

    def test_fingerprint_prime_stays_within_sixty_four_bits(self):
        # 2**64 - 59 is the largest prime below 2**64
        widest = FingerprintMultisetModel(UniverseParams((1 << 64) - 60, 16), Fraction(1, 8))
        assert widest._prime == (1 << 64) - 59
        for u in ((1 << 64) - 59, 1 << 64, 10**20):
            with pytest.raises(InvalidParams):
                FingerprintMultisetModel(UniverseParams(u, 16), Fraction(1, 8))


class TestMakeModel:
    def test_kind_dispatch(self):
        # every optional field away from its default; each kind takes only its own
        models = {}
        for kind, (model_class, *_) in _MODEL_FIELDS.items():
            spec = ModelSpec(
                kind, 8, 2, Fraction(1, 2),
                noise_m=3, fingerprint_bits=4, collision_table=((1, 0), (2, 0)),
            )
            model = models[kind] = spec.build()
            assert type(model) is model_class
            assert model.kind == kind
            assert model.describe().startswith(f"{kind}(")
        assert models["noisy_exact"].noise_m == 3
        assert models["fingerprint_multiset"].fp_bits == 4
        assert models["fingerprint_multiset"].collision_table == {1: 0, 2: 0}

    def test_describe_mentions_shape(self):
        assert ExactSetModel(P82).describe() == "exact_set(u=8, n=2)"
        assert ModelSpec("exact_set", 8, 2, Fraction(0)).build().describe() == "exact_set(u=8, n=2)"
