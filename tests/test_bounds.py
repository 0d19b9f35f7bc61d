"""Counting bound, binomial scaling, space bounds, dataset coding."""

import json
import math
import time
from fractions import Fraction

import pytest

from filterbounds.bounds import (
    MAX_EXACT_BITS,
    BestSeed,
    BoundKind,
    BoundsParams,
    DatasetCode,
    InvalidCode,
    NotGoodPair,
    ParamsOutOfRange,
    _binom_bits,
    check_binom_scaling,
    check_counting_bound,
    decode_dataset,
    encode_dataset,
    find_best_seed,
    is_good_pair,
    space_lower_bound,
)
from filterbounds.cli import main
from filterbounds.combinat import (
    binom_exact,
    bounded_subset_count,
    bounded_subset_index,
    bounded_subset_unindex,
    iter_subsets_of_size,
)
from filterbounds.core import UniverseParams
from filterbounds.filters import (
    FAIL_STATE,
    ExactSetModel,
    FingerprintMultisetModel,
    NoisyExactModel,
    Seed,
    seed_space,
)
from filterbounds.reduction import PairedState, PairedStaticFilter
from filterbounds.witness import EnumerationTooLarge

S0 = Seed(0, 8)


class TestBoundsParams:
    def test_validation(self):
        with pytest.raises(ParamsOutOfRange):
            BoundsParams(u=0, n=1)
        with pytest.raises(ParamsOutOfRange):
            BoundsParams(u=4, n=2, eps_minus=Fraction(3, 2))
        with pytest.raises(ParamsOutOfRange):
            BoundsParams(u=4, n=2, alpha=Fraction(1))
        with pytest.raises(ParamsOutOfRange):
            BoundsParams(u=4, n=2, p_fail=Fraction(-1))

    def test_fn_limit(self):
        params = BoundsParams(u=6, n=2, eps_minus=Fraction(43, 256))
        assert params.fn_limit == 0  # floor(2 * 2 * 43/256)
        wide = BoundsParams(
            u=6, n=2, eps_minus=Fraction(43, 256), alpha=Fraction(4)
        )
        assert wide.fn_limit == 1  # floor(4 * 2 * 43/256)
        assert BoundsParams(u=6, n=2).fn_limit == 0


def oracle_counting_holds(fspace, params):
    """Second route: the same inequality straight in Fraction arithmetic."""
    lhs = Fraction(2**fspace) * bounded_subset_count(params.u, params.fn_limit)
    rhs = (1 - 1 / params.alpha - params.p_fail) * binom_exact(params.u, params.n)
    return lhs >= rhs


class TestCountingBound:
    def test_frozen_pass(self):
        params = BoundsParams(u=8, n=2)
        result = check_counting_bound(5, params)
        assert result.lhs == 32
        assert result.rhs == Fraction(14)
        assert result.holds

    def test_frozen_fail(self):
        result = check_counting_bound(3, BoundsParams(u=8, n=2))
        assert result.lhs == 8
        assert result.rhs == Fraction(14)
        assert not result.holds

    def test_vacuous_when_rhs_nonpositive(self):
        params = BoundsParams(u=8, n=2, p_fail=Fraction(1))
        result = check_counting_bound(0, params)
        assert result.rhs < 0
        assert result.holds

    def test_negative_fspace_rejected(self):
        with pytest.raises(ParamsOutOfRange):
            check_counting_bound(-1, BoundsParams(u=8, n=2))

    def test_matches_fraction_oracle_on_grid(self):
        for u in (4, 6, 9):
            for n in (1, 2, 3):
                for fspace in (0, 2, 5):
                    for eps_minus in (Fraction(0), Fraction(1, 4)):
                        for alpha in (Fraction(3, 2), Fraction(2)):
                            for p_fail in (Fraction(0), Fraction(1, 10)):
                                params = BoundsParams(
                                    u=u, n=n, eps_minus=eps_minus,
                                    alpha=alpha, p_fail=p_fail,
                                )
                                got = check_counting_bound(fspace, params)
                                assert got.holds == oracle_counting_holds(
                                    fspace, params
                                )

    def test_json_dict(self):
        blob = check_counting_bound(5, BoundsParams(u=8, n=2)).to_json_dict()
        assert blob["name"] == "counting_bound"
        assert blob["lhs"] == "32"
        assert blob["rhs"] == "14/1"
        assert blob["holds"] is True


class TestBinomScaling:
    def test_frozen_values(self):
        result = check_binom_scaling(16, 4, Fraction(1, 2))
        assert result.lhs_bits == pytest.approx(math.log2(120))
        assert result.rhs_bits == pytest.approx(
            0.5 * math.log2(1820) + 4 * (math.log2(math.e) + 0.5)
        )
        assert result.holds

    def test_beta_edges(self):
        zero = check_binom_scaling(16, 4, Fraction(0))
        assert zero.lhs_bits == 0 and zero.holds
        one = check_binom_scaling(16, 4, Fraction(1))
        assert one.lhs_bits == pytest.approx(math.log2(1820))
        assert one.holds

    def test_non_integral_beta_n_floors(self):
        result = check_binom_scaling(16, 5, Fraction(1, 2))
        assert result.lhs_bits == pytest.approx(math.log2(binom_exact(16, 2)))

    def test_holds_across_grid(self):
        for u in (4, 16, 64):
            for n in (1, 2, 4, min(16, u)):
                for beta in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                             Fraction(3, 4), Fraction(1)):
                    assert check_binom_scaling(u, n, beta).holds

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParamsOutOfRange):
            check_binom_scaling(4, 5, Fraction(1, 2))
        with pytest.raises(ParamsOutOfRange):
            check_binom_scaling(4, 2, Fraction(3, 2))

    @pytest.mark.parametrize(
        "u, n, beta",
        [(10**400, 10**400, Fraction(1)), (10**400 + 1, 10**400, Fraction(1)),
         (16, 4, Fraction(1, 10**400))],
        ids=["u_equals_n", "u_is_n_plus_one", "tiny_beta"],
    )
    def test_past_float_range_is_out_of_range(self, u, n, beta):
        # the binomials are trivial and cheap, but n * slack overflows a
        # float and log2 of a beta below the smallest float is undefined
        with pytest.raises(ParamsOutOfRange, match="floats past their range"):
            check_binom_scaling(u, n, beta)


class TestSpaceLowerBound:
    def test_static_frozen(self):
        bound = space_lower_bound(BoundKind.N_STATIC, 16, 4, Fraction(0))
        assert bound.leading_bits == pytest.approx(0.75 * math.log2(1820))
        assert bound.leading_bits == pytest.approx(8.122292051314544)
        assert bound.constant_bits == pytest.approx(12.770780163555854)
        assert bound.bits == pytest.approx(bound.leading_bits - bound.constant_bits)

    def test_dynamic_is_half(self):
        static = space_lower_bound("nstatic", 16, 4, Fraction(0))
        dynamic = space_lower_bound("dynamic", 16, 4, Fraction(0))
        assert dynamic.leading_bits == pytest.approx(static.leading_bits / 2)
        assert dynamic.constant_bits == pytest.approx(static.constant_bits / 2)

    def test_eps_quarter_frozen(self):
        bound = space_lower_bound("nstatic", 16, 4, Fraction(1, 4))
        assert bound.leading_bits == pytest.approx(5.414861367543029)

    def test_leading_monotone(self):
        # smaller error budget and bigger universe both cost more space
        lead = lambda u, eps: space_lower_bound("nstatic", u, 4, eps).leading_bits
        assert lead(32, Fraction(0)) > lead(32, Fraction(1, 4)) > lead(
            32, Fraction(1, 2)
        )
        assert lead(64, Fraction(0)) > lead(32, Fraction(0)) > lead(16, Fraction(0))

    def test_half_error_at_minimal_universe(self):
        # at u = 2n and eps = 1/2 the prefactor is 1/2 - 1/n, so the
        # leading term crosses zero between n = 2 and n = 3
        assert space_lower_bound("nstatic", 4, 2, Fraction(1, 2)).leading_bits == 0
        for n in (3, 4, 5):
            bound = space_lower_bound("nstatic", 2 * n, n, Fraction(1, 2))
            assert bound.leading_bits > 0

    def test_leading_term_grows_like_n_log_u_over_n(self):
        # at eps = 0 the leading term passes (1 - 1/n) * log2 C(u, n)
        bound = space_lower_bound("nstatic", 1 << 16, 16, Fraction(0))
        assert bound.leading_bits == pytest.approx(
            (1 - 1 / 16) * math.log2(binom_exact(1 << 16, 16))
        )

    def test_regime_guards(self):
        with pytest.raises(ParamsOutOfRange):
            space_lower_bound("nstatic", 16, 4, Fraction(7, 8))  # > 1 - 1/n
        with pytest.raises(ParamsOutOfRange):
            space_lower_bound("nstatic", 6, 4, Fraction(0))  # u < 2n

    def test_json_dict(self):
        blob = space_lower_bound("dynamic", 16, 4, Fraction(0)).to_json_dict()
        assert blob["name"] == "space_lower_bound"
        assert blob["params"]["kind"] == "dynamic"
        assert blob["constant_is_estimate"] is True
        assert blob["bits"] == pytest.approx(-2.3241, abs=1e-3)


@pytest.fixture(scope="module")
def paired_noisy(noisy62):
    return PairedStaticFilter(noisy62)


def fn_oracle(noisy, seed, dataset):
    """The pair misses exactly the members that sit in the noise set."""
    return frozenset(dataset) & noisy.noise_set(seed)


class TestExactCostLimit:
    def test_bit_estimate_never_undercounts(self):
        for u in range(1, 41):
            for k in range(u + 2):
                assert _binom_bits(u, k) >= binom_exact(u, k).bit_length()

    @pytest.mark.parametrize(
        "check",
        [
            lambda: check_binom_scaling(10**6, 10**6, Fraction(1, 2)),
            lambda: check_binom_scaling(10**20, 10**20, Fraction(1, 2)),
            lambda: space_lower_bound("nstatic", 2 * 10**6, 10**6, Fraction(0)),
            lambda: check_counting_bound(3, BoundsParams(u=2 * 10**6, n=10**6)),
            # 10**4 + 1 binomials of up to 47,000 bits each in the lhs sum
            lambda: check_counting_bound(
                3, BoundsParams(u=10**5, n=10**4, eps_minus=Fraction(1, 2))
            ),
            # the lhs alone: 2**fspace_bits
            lambda: check_counting_bound(MAX_EXACT_BITS + 1, BoundsParams(u=8, n=2)),
        ],
        ids=["scaling", "scaling_huge", "space", "counting_rhs", "counting_sum",
             "counting_shift"],
    )
    def test_over_budget_refused_before_any_binomial(self, check):
        start = time.perf_counter()
        with pytest.raises(ParamsOutOfRange, match="budget"):
            check()
        assert time.perf_counter() - start < 1


def false_negative_set(static_filter, seed, dataset):
    """Members of the dataset a live pair wrongly answers 0 on."""
    state = static_filter.init_state(seed, dataset)
    return frozenset(x for x in dataset if static_filter.query(seed, state, x) == 0)


class TestGoodPairs:
    def test_false_negative_set_matches_noise_oracle(
        self, paired_noisy, noisy62, seeds8
    ):
        for seed in seeds8[:64]:
            for ds in iter_subsets_of_size(6, 2):
                assert false_negative_set(paired_noisy, seed, ds) == fn_oracle(
                    noisy62, seed, ds
                )

    def test_is_good_pair_thresholds(self, paired_noisy, noisy62, seeds8):
        tight = BoundsParams(u=6, n=2, eps_minus=Fraction(43, 256))
        wide = BoundsParams(
            u=6, n=2, eps_minus=Fraction(43, 256), alpha=Fraction(4)
        )
        for seed in seeds8[:64]:
            for ds in iter_subsets_of_size(6, 2):
                misses = len(fn_oracle(noisy62, seed, ds))
                assert is_good_pair(paired_noisy, tight, seed, ds) == (misses == 0)
                assert is_good_pair(paired_noisy, wide, seed, ds) == (misses <= 1)

    def test_markov_share_of_bad_pairs(self, noisy62, seeds8):
        # E|misses| <= n * eps_minus, so at alpha = 2 at most half the
        # seeds of any dataset exceed the limit; the worst dataset here
        # sits at 86/256, comfortably inside
        for ds in iter_subsets_of_size(6, 2):
            bad = sum(bool(fn_oracle(noisy62, seed, ds)) for seed in seeds8)
            assert Fraction(bad, 256) <= Fraction(1, 2)
        bad01 = sum(bool(fn_oracle(noisy62, seed, (0, 1))) for seed in seeds8)
        assert Fraction(bad01, 256) == Fraction(86, 256)


class TestFindBestSeed:
    def test_all_seeds_tie_then_earliest_wins(self, paired_noisy, seeds8):
        # every seed has exactly one noise element, so every seed is good
        # on the C(5, 2) = 10 datasets avoiding it; ties break to seed 0
        params = BoundsParams(u=6, n=2, eps_minus=Fraction(43, 256))
        best = find_best_seed(paired_noisy, params, seeds8)
        assert best.seed == Seed(0, 8)
        assert best.good_count == 10
        assert best.required == Fraction(15, 2)
        assert best.meets_bound

    def test_wide_limit_makes_every_pair_good(self, paired_noisy, seeds8):
        params = BoundsParams(
            u=6, n=2, eps_minus=Fraction(43, 256), alpha=Fraction(4)
        )
        best = find_best_seed(paired_noisy, params, seeds8)
        assert best.good_count == 15
        assert best.required == Fraction(45, 4)

    def test_failing_filter_misses_bound(self, seeds8):
        class FailingInsert(FingerprintMultisetModel):
            def insert_state(self, seed, state, x):
                return FAIL_STATE

        static = PairedStaticFilter(
            FailingInsert(UniverseParams(6, 2), Fraction(1, 2))
        )
        best = find_best_seed(static, BoundsParams(u=6, n=2), seeds8[:4])
        assert best.good_count == 0
        assert not best.meets_bound

    def test_needs_seeds(self, paired_noisy):
        with pytest.raises(ValueError):
            find_best_seed(paired_noisy, BoundsParams(u=6, n=2), [])

    def test_budget_guards(self, paired_noisy):
        too_many = [S0] * ((1 << 16) + 1)
        with pytest.raises(EnumerationTooLarge):
            find_best_seed(paired_noisy, BoundsParams(u=6, n=2), too_many)


def reference_encode(static, params, seed, dataset):
    """The list-and-dict coder: positions come from the sorted complement."""
    members = frozenset(dataset)
    state = static.init_state(seed, dataset)
    if state.is_fail:
        raise NotGoodPair("filter failed on this pair")
    u = static.params.u
    yes = frozenset(x for x in range(u) if static.query(seed, state, x))
    if not yes <= members:
        raise NotGoodPair(f"false positives {sorted(yes - members)} spoil the code")
    misses = members - yes
    limit = params.fn_limit
    if len(misses) > limit:
        raise NotGoodPair(f"{len(misses)} false negatives exceed limit {limit}")
    ambient = sorted(set(range(u)) - yes)
    position = {x: i for i, x in enumerate(ambient)}
    miss_positions = tuple(sorted(position[x] for x in misses))
    return DatasetCode(state, bounded_subset_index(miss_positions, len(ambient), limit))


def reference_decode(static, params, seed, code):
    if code.state.is_fail:
        raise InvalidCode("cannot decode from a failed state")
    u = static.params.u
    yes = frozenset(x for x in range(u) if static.query(seed, code.state, x))
    ambient = sorted(set(range(u)) - yes)
    limit = params.fn_limit
    if not 0 <= code.index < bounded_subset_count(len(ambient), limit):
        raise InvalidCode(f"index {code.index} out of range")
    positions = bounded_subset_unindex(code.index, len(ambient), limit)
    return yes | frozenset(ambient[p] for p in positions)


def _outcome(code, *args):
    try:
        return code(*args)
    except (NotGoodPair, InvalidCode) as exc:
        return type(exc), str(exc)


P83 = UniverseParams(8, 3)
CODER_CASES = {
    # fn_limit 1: a noise member is a miss with a nonzero index
    "noisy62_wide": (
        NoisyExactModel(UniverseParams(6, 2), Fraction(1, 6), noise_m=1),
        BoundsParams(u=6, n=2, eps_minus=Fraction(43, 256), alpha=Fraction(4)),
    ),
    "noisy83_wide": (
        NoisyExactModel(P83, Fraction(1, 4), noise_m=2),
        BoundsParams(u=8, n=3, eps_minus=Fraction(1, 3), alpha=Fraction(2)),
    ),
    "noisy83_tight": (
        NoisyExactModel(P83, Fraction(1, 4), noise_m=2),
        BoundsParams(u=8, n=3),
    ),
    "exact83": (ExactSetModel(P83), BoundsParams(u=8, n=3)),
    # wrong yeses outside the dataset
    "fingerprint82": (
        FingerprintMultisetModel(UniverseParams(8, 2), Fraction(1, 2)),
        BoundsParams(u=8, n=2, eps_minus=Fraction(1, 2), alpha=Fraction(4)),
    ),
}


@pytest.mark.parametrize("case", list(CODER_CASES))
def test_mask_coder_matches_the_reference_coder(case):
    model, params = CODER_CASES[case]
    static = PairedStaticFilter(model)
    u, n = model.params.u, model.params.n
    for seed in seed_space(3):
        for ds in iter_subsets_of_size(u, n):
            code = _outcome(encode_dataset, static, params, seed, ds)
            assert code == _outcome(reference_encode, static, params, seed, ds)
            if not isinstance(code, DatasetCode):
                continue
            # every index at this state, one past the last included
            ambient = u - static.yes_mask(seed, code.state).bit_count()
            for index in range(bounded_subset_count(ambient, params.fn_limit) + 1):
                other = DatasetCode(code.state, index)
                assert _outcome(decode_dataset, static, params, seed, other) == _outcome(
                    reference_decode, static, params, seed, other
                )


class TestDatasetCoding:
    WIDE = BoundsParams(u=6, n=2, eps_minus=Fraction(43, 256), alpha=Fraction(4))

    def test_round_trip_all_datasets_all_seeds(self, paired_noisy, seeds8):
        for seed in seeds8[:64]:
            for ds in iter_subsets_of_size(6, 2):
                code = encode_dataset(paired_noisy, self.WIDE, seed, ds)
                assert decode_dataset(paired_noisy, self.WIDE, seed, code) == (
                    frozenset(ds)
                )

    def test_injective_per_seed(self, paired_noisy, seeds8):
        for seed in seeds8[:16]:
            codes = {
                encode_dataset(paired_noisy, self.WIDE, seed, ds)
                for ds in iter_subsets_of_size(6, 2)
            }
            assert len(codes) == 15

    def test_nonzero_index_when_member_is_noise(self, paired_noisy, noisy62):
        # seed 3: noise {3}; dataset {2, 3} misses 3, so the code carries
        # a nonempty false-negative set
        seed = Seed(3, 8)
        assert noisy62.noise_set(seed) == {3}
        code = encode_dataset(paired_noisy, self.WIDE, seed, (2, 3))
        assert code.index > 0
        clean = encode_dataset(paired_noisy, self.WIDE, seed, (1, 2))
        assert clean.index == 0

    def test_index_stays_under_fn_census(self, paired_noisy, seeds8):
        # ambient complement has at most 6 elements; sizes <= 1 give 7
        cap = bounded_subset_count(6, self.WIDE.fn_limit)
        assert cap == 7
        for seed in seeds8[:32]:
            for ds in iter_subsets_of_size(6, 2):
                assert encode_dataset(paired_noisy, self.WIDE, seed, ds).index < cap

    def test_tight_limit_rejects_noisy_member(self, paired_noisy, noisy62):
        tight = BoundsParams(u=6, n=2, eps_minus=Fraction(43, 256))
        seed = Seed(3, 8)
        with pytest.raises(NotGoodPair):
            encode_dataset(paired_noisy, tight, seed, (2, 3))

    def test_false_positive_pollution_rejected(self):
        # fingerprint pairs can answer yes outside the dataset; the code
        # refuses those outright
        model = FingerprintMultisetModel(
            UniverseParams(6, 2), Fraction(1, 2), fingerprint_bits=2
        )
        static = PairedStaticFilter(model)
        state = static.init_state(S0, (0, 1))
        yes = {x for x in range(6) if static.query(S0, state, x)}
        assert yes == {0, 1, 2}
        with pytest.raises(NotGoodPair):
            encode_dataset(static, self.WIDE, S0, (0, 1))

    def test_failed_pair_rejected(self, seeds8):
        class FailingInsert(FingerprintMultisetModel):
            def insert_state(self, seed, state, x):
                return FAIL_STATE

        static = PairedStaticFilter(
            FailingInsert(UniverseParams(6, 2), Fraction(1, 2))
        )
        with pytest.raises(NotGoodPair):
            encode_dataset(static, self.WIDE, S0, (0, 1))

    def test_decode_rejects_fail_state(self, paired_noisy):
        code = DatasetCode(PairedState(FAIL_STATE, FAIL_STATE), 0)
        with pytest.raises(InvalidCode):
            decode_dataset(paired_noisy, self.WIDE, S0, code)

    def test_decode_rejects_out_of_range_index(self, paired_noisy):
        good = encode_dataset(paired_noisy, self.WIDE, S0, (1, 2))
        bad = DatasetCode(good.state, 99)
        with pytest.raises(InvalidCode):
            decode_dataset(paired_noisy, self.WIDE, S0, bad)


class TestBoundsReport:
    def test_collects_checks(self, tmp_path, capsys):
        entries = [
            {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5},
            {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
            {"check": "space", "kind": "dynamic", "u": 16, "n": 4},
        ]
        path = tmp_path / "checks.json"
        path.write_text(json.dumps({"bounds_checks": entries}))
        assert main(["bounds", "--config", str(path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in blob["checks"]]
        assert names == ["counting_bound", "binom_scaling", "space_lower_bound"]
        assert blob["checks"][0] == check_counting_bound(5, BoundsParams(u=8, n=2)).to_json_dict()
