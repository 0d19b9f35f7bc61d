"""Paired snapshot construction and its exhaustive certification."""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterbounds.bounds import BoundsParams
from filterbounds.combinat import bounded_subset_count, iter_subsets_of_size
from filterbounds.core import UniverseParams
from filterbounds.filters import (
    FAIL_STATE,
    ExactSetModel,
    FailStateError,
    FilterModel,
    FilterState,
    FingerprintMultisetModel,
    NoisyExactModel,
    Seed,
    seed_classes,
    seed_space,
)
from filterbounds.harness import ModelSpec
from filterbounds.reduction import (
    PairedState,
    PairedStaticFilter,
    ReductionReport,
    check_reduction,
    pair_init,
    parse_paired_state,
)
from filterbounds import witness
from filterbounds.witness import (
    EnumerationTooLarge,
    WitnessModel,
    state_after,
    witness_transform,
)

S0 = Seed(0, 8)


class FailingInsert(FingerprintMultisetModel):
    """Stub whose inserts always fail; plain runs cannot fail otherwise."""

    def insert_state(self, seed, state, x):
        return FAIL_STATE


class FailingDelete(FingerprintMultisetModel):
    """Stub whose delete of element 0 fails; a failed step stops the run."""

    def delete_state(self, seed, state, x):
        if x == 0:
            return FAIL_STATE
        return super().delete_state(seed, state, x)


class FailsOnOddSeeds(NoisyExactModel):
    """Stub whose insert of the last element fails under odd seeds.

    Datasets holding that element are live under half the seeds and the
    rest under all of them, so their false-negative rates have different
    denominators.
    """

    def seed_class(self, seed):
        return seed

    def insert_state(self, seed, state, x):
        if x == self.params.u - 1 and seed.value & 1:
            return FAIL_STATE
        return super().insert_state(seed, state, x)


class ForgetsNoiseStart(NoisyExactModel):
    """Stub that answers no on its first noise element: incomplete per seed."""

    def query_bit(self, seed, state, x):
        if x == seed.value % self.params.u:
            return 0
        return super().query_bit(seed, state, x)


class TestPairedState:
    def test_fail_pair(self):
        pair = PairedState(FAIL_STATE, FAIL_STATE)
        assert pair.is_fail
        assert pair.serialize() == "FAIL"

    def test_serialize_round_trip(self):
        pair = PairedState(FilterState(5, 5), FilterState(0, 0))
        assert not pair.is_fail
        text = pair.serialize()
        assert text == "5:00101/0:"
        assert parse_paired_state(text) == pair

    @pytest.mark.parametrize(
        "text", ["FAIL", "5:00101", "3:01/3:010", "x:1/1:0", "1:2/1:0"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_paired_state(text)


class TestPairInit:
    def test_requires_full_capacity(self, noisy62):
        with pytest.raises(ValueError):
            pair_init(noisy62, S0, (1,))

    def test_components_are_the_two_snapshots(self, noisy62, seeds8):
        for seed in seeds8[:8]:
            pair = pair_init(noisy62, seed, (1, 4))
            assert pair.after_insert == state_after(noisy62, seed, (1, 4))
            assert pair.after_delete == state_after(
                noisy62, seed, (1, 4), (1, 4)
            )

    def test_failed_insert_fails_the_pair(self):
        model = FailingInsert(UniverseParams(6, 2), Fraction(1, 2))
        pair = pair_init(model, S0, (0, 1))
        assert pair.is_fail


class TestPairQuery:
    def test_truth_table(self, exact62):
        # answer is: insert snapshot yes AND delete snapshot no
        query = PairedStaticFilter(exact62).query
        full = exact62.encode_set((3,))
        empty = exact62.encode_set(())
        assert query(S0, PairedState(full, empty), 3) == 1
        assert query(S0, PairedState(full, full), 3) == 0
        assert query(S0, PairedState(empty, empty), 3) == 0
        assert query(S0, PairedState(empty, full), 3) == 0

    def test_fail_answers_zero_without_raising(self, exact62):
        pair = PairedState(FAIL_STATE, FAIL_STATE)
        assert PairedStaticFilter(exact62).query(S0, pair, 0) == 0


class TestPairedStaticFilter:
    def test_delegates_and_describes(self, noisy62):
        static = PairedStaticFilter(noisy62)
        assert static.params == noisy62.params
        state = static.init_state(S0, (1, 4))
        assert state == pair_init(noisy62, S0, (1, 4))
        yes = static.yes_mask(S0, state)
        for x in range(noisy62.params.u):
            assert static.query(S0, state, x) == yes >> x & 1
        assert static.describe() == f"paired({noisy62.describe()})"

    def test_no_false_positives_on_noisy_base(self, noisy62, seeds8):
        # the noise yeses survive deletion and get subtracted away
        static = PairedStaticFilter(noisy62)
        for seed in seeds8:
            state = static.init_state(seed, (0, 3))
            for x in (1, 2, 4, 5):
                assert static.query(seed, state, x) == 0


def expected_noisy_fn_rate(noisy, seeds, dataset, x):
    """Independent oracle: the pair misses x exactly when x is noise."""
    hits = sum(x in noisy.noise_set(seed) for seed in seeds)
    return Fraction(hits, len(seeds))


@pytest.fixture(scope="module")
def noisy_report(noisy62, seeds8):
    return check_reduction(noisy62, seeds8)


class TestCheckReduction:
    def test_shape(self, noisy_report):
        assert noisy_report.u == 6 and noisy_report.n == 2
        assert noisy_report.seed_count == 256
        assert noisy_report.seed_bits == 8
        assert noisy_report.dataset_count == 15

    def test_zero_false_positives_and_complete(self, noisy_report):
        assert noisy_report.false_positive_count == 0
        assert noisy_report.completeness_violations == 0

    def test_fn_rates_match_noise_oracle(self, noisy_report, noisy62, seeds8):
        expected = max(
            expected_noisy_fn_rate(noisy62, seeds8, ds, x)
            for ds in iter_subsets_of_size(6, 2)
            for x in ds
        )
        assert noisy_report.max_false_negative_rate == expected
        assert noisy_report.max_false_negative_rate == Fraction(43, 256)

    def test_fn_equals_delete_snapshot_fp(self, noisy_report):
        assert noisy_report.fn_matches_delete_fp

    def test_space_doubles_one_component(self, noisy_report):
        # ExactSet over [6] with n = 2 encodes 22 subsets in 5 bits
        assert noisy_report.space_pair_bits == 10
        assert noisy_report.space_budget_bits == 10
        assert noisy_report.space_pair_bits <= noisy_report.space_budget_bits

    def test_no_failures(self, noisy_report):
        assert noisy_report.fail_fraction == 0

    def test_exact_base_has_no_errors_at_all(self, exact62, seeds8):
        report = check_reduction(exact62, seeds8[:4])
        assert report.false_positive_count == 0
        assert report.max_false_negative_rate == 0

    def test_fingerprint_base_shows_false_positives(self, seeds8):
        # deleting the dataset drains the multiset, so nothing is left to
        # subtract collided yeses at the insert snapshot
        model = FingerprintMultisetModel(
            UniverseParams(6, 2), Fraction(1, 2), fingerprint_bits=2
        )
        report = check_reduction(model, seeds8)
        assert report.false_positive_count > 0
        assert report.max_false_negative_rate == 0

    def test_failed_pairs_are_counted_not_scored(self, seeds8):
        model = FailingInsert(UniverseParams(6, 2), Fraction(1, 2))
        report = check_reduction(model, seeds8[:4])
        assert report.fail_fraction == 1
        assert report.max_false_negative_rate == 0
        assert report.space_pair_bits == 0

    def test_deterministic(self, noisy62, seeds8):
        assert check_reduction(noisy62, seeds8[:16]) == check_reduction(
            noisy62, seeds8[:16]
        )

    def test_empty_seed_list(self, noisy62):
        report = check_reduction(noisy62, [])
        assert report.seed_count == 0
        assert report.fail_fraction == 0
        assert report.max_false_negative_rate == 0

    def test_dataset_budget_guard(self, noisy62, seeds8, monkeypatch):
        monkeypatch.setattr(witness, "DATASET_BUDGET", 10)
        with pytest.raises(EnumerationTooLarge):
            check_reduction(noisy62, seeds8[:1])

    def test_seed_budget_guard(self, noisy62):
        seeds = [Seed(0, 17)] * ((1 << 16) + 1)
        with pytest.raises(EnumerationTooLarge):
            check_reduction(noisy62, seeds)


class TestReportJson:
    def test_fields_and_fraction_strings(self, noisy62, seeds8):
        report = check_reduction(noisy62, seeds8)
        blob = report.to_json_dict()
        assert blob["instance"] == {
            "u": 6,
            "n": 2,
            "model": noisy62.describe(),
            "seed_bits": 8,
        }
        assert blob["max_false_negative_rate"] == "43/256"
        assert blob["fail_fraction"] == "0/1"
        assert json.loads(json.dumps(blob)) == blob

    def test_json_is_stable(self, noisy62, seeds8):
        report = check_reduction(noisy62, seeds8[:8])
        assert report.to_json_dict() == check_reduction(noisy62, seeds8[:8]).to_json_dict()


P62 = UniverseParams(6, 2)
SEED_CLASS_MODELS = {
    "exact_set": ExactSetModel(P62),
    "noisy_exact": NoisyExactModel(P62, Fraction(1, 6), noise_m=1),
    "fingerprint_multiset": FingerprintMultisetModel(P62, Fraction(1, 2)),
    "fingerprint_collisions": FingerprintMultisetModel(
        P62, Fraction(1, 2), collision_table={1: 0, 2: 0}
    ),
}

SWEEP_MODELS = {
    **SEED_CLASS_MODELS,
    "failing_insert": FailingInsert(P62, Fraction(1, 2)),
    "forgets_noise_start": ForgetsNoiseStart(P62, Fraction(1, 6), noise_m=1),
}

# every field of the report, in constructor order; the class sweep must
# agree with brute force on each of them
REDUCTION_REPORT_FIELDS = (
    "u", "n", "model", "seed_bits", "seed_count", "dataset_count",
    "false_positive_count", "completeness_violations",
    "max_false_negative_rate", "fn_matches_delete_fp",
    "space_pair_bits", "space_budget_bits", "fail_fraction", "failed_pairs",
    "first_false_positive", "misses_by_class",
)


def reachable_behaviour(model, seed):
    """Answers and moves of every state reachable from init under one seed.

    Runs may insert duplicates and delete nonelements; an insert the model
    refuses (ExactSet over capacity) is recorded as refused.  Equal results
    for two seeds mean equal states and answers on every run, so on every
    insert run and every insert-then-delete run.
    """
    start = model.fresh_state(seed)
    behaviour, seen, frontier = {}, {start}, [start]
    while frontier:
        state = frontier.pop()
        if state.fail:
            continue
        universe = range(model.params.u)
        behaviour[state] = [model.query_bit(seed, state, x) for x in universe]
        for x in universe:
            for op, apply in (("ins", model.insert_state), ("del", model.delete_state)):
                try:
                    succ = apply(seed, state, x)
                except ValueError:
                    behaviour[state, op, x] = "refused"
                    continue
                behaviour[state, op, x] = succ
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return behaviour


class TestSeedClasses:
    @pytest.mark.parametrize("name", SEED_CLASS_MODELS)
    def test_seed_classes_partition_the_seeds(self, name, seeds8):
        model = SEED_CLASS_MODELS[name]
        classes = seed_classes(model, seeds8)
        keys = [model.seed_class(seed) for seed in seeds8]
        class_keys = [model.seed_class(seed) for seed, _ in classes]
        assert sum(weight for _, weight in classes) == len(seeds8)
        # seeds with equal keys share one entry, and every key has one
        assert len(set(class_keys)) == len(classes)
        assert set(class_keys) == set(keys)
        for (seed, weight), key in zip(classes, class_keys):
            assert seeds8.index(seed) == keys.index(key)  # its first occurrence
            assert weight == keys.count(key)
        assert [seed.value for seed, _ in classes] == sorted(
            seed.value for seed, _ in classes
        )
        assert seed_classes(model, seed_space(8)) == classes

    @pytest.mark.parametrize("name", SEED_CLASS_MODELS)
    def test_equal_keys_behave_identically(self, name, seeds8):
        model = SEED_CLASS_MODELS[name]
        by_class = {}
        for seed in seeds8:
            behaviour = reachable_behaviour(model, seed)
            first = by_class.setdefault(model.seed_class(seed), (seed, behaviour))
            assert behaviour == first[1], f"{seed} and {first[0]} share a class"
        if name != "exact_set":
            assert len(by_class) > 1

    @pytest.mark.parametrize(
        "wrap", [witness_transform, lambda base: base], ids=["witness", "bare"]
    )
    @pytest.mark.parametrize(
        "name, bits",
        [
            ("exact_set", 6),
            ("noisy_exact", 6),
            ("fingerprint_multiset", 6),
            ("failing_insert", 6),
            ("forgets_noise_start", 6),
            # 256 = 6 * 42 + 4: classes of 43 and of 42 seeds
            ("noisy_exact", 8),
        ],
    )
    def test_class_sweep_matches_brute_force(self, name, bits, wrap, monkeypatch):
        base = SWEEP_MODELS[name]
        model = wrap(base)
        seeds = list(seed_space(bits))
        fast = check_reduction(model, seeds)
        assert len(fast.misses_by_class) < len(seeds)
        row_of_class = {model.seed_class(s): row for s, row in fast.misses_by_class}
        per_seed = [(s, row_of_class[model.seed_class(s)]) for s in seeds]
        # the default key makes every seed its own class: plain brute force
        monkeypatch.setattr(type(base), "seed_class", FilterModel.seed_class)
        slow = check_reduction(model, seeds)
        # each seed's brute-force row is its class's row
        assert slow.misses_by_class == per_seed
        assert ReductionReport.__slots__ == REDUCTION_REPORT_FIELDS
        for name in ReductionReport.__slots__[:-1]:
            assert getattr(fast, name) == getattr(slow, name), name
        for alpha in (Fraction(2), Fraction(4)):
            params = BoundsParams(
                u=base.params.u,
                n=base.params.n,
                eps_minus=fast.max_false_negative_rate,
                p_fail=fast.fail_fraction,
                alpha=alpha,
            )
            assert fast.best_seed(params) == slow.best_seed(params)


def reference_yes(model, seed, state, tables):
    """The yes-set by queries; a witness model's by the search over datasets."""
    u, n = model.params.u, model.params.n
    if not isinstance(model, WitnessModel):
        return frozenset(x for x in range(u) if model.query_bit(seed, state, x))
    key = (seed.value, seed.bits)
    if key not in tables:
        tables[key] = {}
        for ds in iter_subsets_of_size(u, n):
            reached = state_after(model.base, seed, ds)
            tables[key].setdefault(reached, set()).update(ds)
    return frozenset(tables[key].get(state, ()))


def reference_sweep(model, seeds):
    """The sweep before the subset walk: per class, pair_init and yes-sets."""
    u, n = model.params.u, model.params.n
    datasets = list(iter_subsets_of_size(u, n))
    classes, tables = {}, {}
    for seed in seeds:
        classes.setdefault(model.seed_class(seed), [seed, 0, []])[1] += 1
    fn = {(ds, x): 0 for ds in datasets for x in ds}
    live = dict.fromkeys(datasets, 0)
    fp = incomplete = unexplained = failed = pair_bits = part_bits = 0
    first_fp = None
    for seed, weight, row in classes.values():
        for ds in datasets:
            pair = pair_init(model, seed, ds)
            if pair.is_fail:
                failed += weight
                continue
            live[ds] += weight
            pair_bits = max(pair_bits, pair.after_insert.nbits + pair.after_delete.nbits)
            part_bits = max(part_bits, pair.after_insert.nbits, pair.after_delete.nbits)
            ins = reference_yes(model, seed, pair.after_insert, tables)
            dele = reference_yes(model, seed, pair.after_delete, tables)
            wrong = (ins - dele) - set(ds)
            if wrong:
                fp += weight * len(wrong)
                first_fp = first_fp or (seed, ds, sorted(wrong))
            misses = set(ds) - (ins - dele)
            incomplete += weight * len(set(ds) - ins)
            unexplained += weight * len(misses - dele)
            for x in misses:
                fn[ds, x] += weight
            row.append(len(misses))
    rates = [
        Fraction(count, live[cell[0]]) if live[cell[0]] else Fraction(0)
        for cell, count in fn.items()
    ]
    cells = len(seeds) * len(datasets)
    rows = [(seed, row) for seed, _, row in classes.values()]
    return ReductionReport(
        u, n, model.describe(), seeds[0].bits if seeds else 0, len(seeds),
        len(datasets), fp, incomplete, max(rates, default=Fraction(0)),
        unexplained == 0, pair_bits, 2 * part_bits,
        Fraction(failed, cells) if cells else Fraction(0), failed, first_fp, rows,
    )


P83 = UniverseParams(8, 3)
WALK_CASES = [(name, 6) for name in SWEEP_MODELS] + [
    ("noisy_exact", 8),
    ("exact_u8_n3", 6),
    ("noisy_u8_n3", 6),
    ("failing_delete", 6),
    ("fails_on_odd_seeds", 6),
]
WALK_MODELS = {
    **SWEEP_MODELS,
    "failing_delete": FailingDelete(P62, Fraction(1, 2)),
    "fails_on_odd_seeds": FailsOnOddSeeds(P62, Fraction(1, 6), noise_m=1),
    "exact_u8_n3": ExactSetModel(P83),
    "noisy_u8_n3": NoisyExactModel(P83, Fraction(1, 8), noise_m=1),
}


@pytest.mark.parametrize(
    "wrap", [witness_transform, lambda base: base], ids=["witness", "bare"]
)
@pytest.mark.parametrize(
    "name", ["exact_set", "noisy_exact", "fingerprint_multiset", "failing_insert", "failing_delete"]
)
def test_pair_init_deletes_from_its_insert_snapshot(name, wrap):
    # the delete snapshot continues from the insert snapshot instead of
    # replaying the inserts, and must land where the replay lands
    model = wrap(WALK_MODELS[name])
    for seed in seed_space(6):
        for ds in iter_subsets_of_size(6, 2):
            assert pair_init(model, seed, ds) == PairedState(
                state_after(model, seed, ds), state_after(model, seed, ds, ds)
            )


class TestSubsetWalk:
    """check_reduction's walk against the per-dataset sweep it replaced."""

    @pytest.mark.parametrize(
        "wrap", [witness_transform, lambda base: base], ids=["witness", "bare"]
    )
    @pytest.mark.parametrize("name, bits", WALK_CASES)
    def test_walk_matches_reference_sweep(self, name, bits, wrap):
        base = WALK_MODELS[name]
        seeds = list(seed_space(bits))
        walked = check_reduction(wrap(base), seeds)
        reference = reference_sweep(wrap(base), seeds)
        for field in REDUCTION_REPORT_FIELDS:
            assert getattr(walked, field) == getattr(reference, field), field
        for alpha in (Fraction(2), Fraction(4)):
            params = BoundsParams(
                u=base.params.u,
                n=base.params.n,
                eps_minus=walked.max_false_negative_rate,
                p_fail=walked.fail_fraction,
                alpha=alpha,
            )
            assert walked.best_seed(params) == reference.best_seed(params)

    @pytest.mark.parametrize(
        "wrap", [witness_transform, lambda base: base], ids=["witness", "bare"]
    )
    def test_one_insert_per_subset_prefix(self, wrap, monkeypatch):
        # the walk steps each prefix of a size-n dataset once per class, and
        # a witness model's table comes from that walk, not a second one
        base = WALK_MODELS["noisy_u8_n3"]
        inserts = []
        real = NoisyExactModel.insert_state

        def counted(self, seed, state, x):
            inserts.append(x)
            return real(self, seed, state, x)

        monkeypatch.setattr(NoisyExactModel, "insert_state", counted)
        check_reduction(wrap(base), list(seed_space(6)))
        u, n, classes = 8, 3, 8
        prefixes = sum(comb(u - n + k, k) for k in range(1, n + 1))
        assert len(inserts) == classes * prefixes

    @pytest.mark.parametrize(
        "kind, noise_m, wrap",
        [("exact_set", 0, lambda base: base), ("noisy_exact", 1, witness_transform)],
        ids=["exact_set", "witness_noisy_exact"],
    )
    def test_each_set_is_ranked_once(self, kind, noise_m, wrap):
        # the exact models' memos rank a set the first time a step meets it,
        # and never unrank a state they handed out
        base = ModelSpec(kind, 8, 3, Fraction(1, 8), noise_m=noise_m).build()
        ranked, unranked = [], []
        encode, decode = base.encode_set, base.decode_set

        def counted_encode(elems):
            state = encode(elems)
            ranked.append(state.value)
            return state

        def counted_decode(state):
            unranked.append(state.value)
            return decode(state)

        base.encode_set, base.decode_set = counted_encode, counted_decode
        check_reduction(wrap(base), list(seed_space(4)))
        assert ranked and len(ranked) == len(set(ranked))
        assert unranked == []
        cap = bounded_subset_count(8, 3)
        assert len(base._masks) <= cap and len(base._states) <= cap

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(sorted(SWEEP_MODELS)),
        st.booleans(),
        st.integers(0, 255),
        st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=8),
    )
    def test_yes_mask_is_the_or_of_query_bits(self, name, wrapped, value, ops):
        model = witness_transform(SWEEP_MODELS[name]) if wrapped else SWEEP_MODELS[name]
        seed, tables = Seed(value, 8), {}
        state = model.fresh_state(seed)
        states = [state]
        for insert, x in ops:
            try:
                state = (model.insert_state if insert else model.delete_state)(
                    seed, state, x
                )
            except ValueError:  # an exact store refuses an insert over capacity
                continue
            states.append(state)
            if state.fail:
                break
        for state in states:
            if state.fail:
                with pytest.raises(FailStateError):
                    model.yes_mask(seed, state)
                continue
            mask = model.yes_mask(seed, state)
            assert mask == sum(
                1 << y for y in range(6) if model.query_bit(seed, state, y)
            )
            assert mask == sum(1 << y for y in reference_yes(model, seed, state, tables))
