"""Config plumbing, experiment runners, verification suite, CLI."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import runpy
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterbounds import bounds, cli, filters, harness, reduction
from filterbounds.bounds import (
    BoundsParams,
    DatasetCode,
    EnumerationTooLarge,
    InvalidCode,
    NotGoodPair,
    ParamsOutOfRange,
    check_counting_bound,
    check_enumeration_budget,
    decode_dataset,
    encode_dataset,
    find_best_seed,
)
from filterbounds.cli import main
from filterbounds.combinat import iter_subsets_of_size, next_prime
from filterbounds.core import ConfigError, UniverseParams
from filterbounds.demo import default_demo_config, run_violation_demo
from filterbounds.filters import (
    ExactSetModel,
    FailStateError,
    FingerprintMultisetModel,
    InvalidParams,
    Seed,
    seed_space,
)
from filterbounds.harness import (
    DEFAULT_NEGATIVE_PROBE,
    ExperimentConfig,
    GridSpec,
    ModelSpec,
    config_from_dict,
    default_fp_config,
    default_verify_config,
    fp_report_csv,
    model_spec_from_dict,
    negative_control_config,
    parse_fraction,
    run_bounds,
    run_decode,
    run_encode,
    run_fp_experiment,
    run_verification_suite,
    wilson_interval,
)
from filterbounds.reduction import PairedStaticFilter
from filterbounds.witness import check_sticky, witness_transform


class TestParseFraction:
    def test_accepts_usual_shapes(self):
        assert parse_fraction("1/8") == Fraction(1, 8)
        assert parse_fraction("3") == Fraction(3)
        assert parse_fraction(2) == Fraction(2)
        assert parse_fraction(Fraction(5, 7)) == Fraction(5, 7)
        assert parse_fraction(" 2/4 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["x/y", "1/0", "", "1.5.2"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_fraction(bad)


class TestModelSpec:
    def test_build_and_dict_round_trip(self):
        spec = ModelSpec("noisy_exact", 6, 2, Fraction(1, 6), noise_m=1)
        model = spec.build()
        assert model.describe() == "noisy_exact(u=6, n=2, m=1)"
        assert model_spec_from_dict(spec.to_dict()) == spec

    def test_collision_table_round_trip(self):
        spec = ModelSpec(
            "fingerprint_multiset", 8, 2, Fraction(1, 2),
            collision_table=((1, 0), (2, 0)),
        )
        again = model_spec_from_dict(spec.to_dict())
        assert again == spec
        assert again.build().collision_table == {1: 0, 2: 0}

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            model_spec_from_dict({"kind": "bloom", "u": 8, "n": 2})

    def test_bad_params_surface_as_config_errors(self):
        # noise larger than the false-positive budget allows
        spec = ModelSpec("noisy_exact", 6, 2, Fraction(1, 6), noise_m=2)
        with pytest.raises(ConfigError):
            spec.build()

    def test_missing_shape(self):
        with pytest.raises(ConfigError):
            model_spec_from_dict({"kind": "exact_set", "u": 8})


RATIONALS = st.one_of(
    st.integers(0, 9),
    st.fractions(0, 9, max_denominator=12).map(lambda f: f"{f.numerator}/{f.denominator}"),
)
# a value for each key a model spec may leave out
MODEL_KEYS = {
    "eps_plus": RATIONALS,
    "noise_m": st.integers(0, 4),
    "fingerprint_bits": st.none() | st.integers(1, 8),
    "collision_table": st.none() | st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 7)),
        max_size=3, unique_by=lambda pair: pair[0],
    ),
}
# every kind, with each key it may leave out present or absent
MODELS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just(kind), "u": st.integers(1, 64), "n": st.integers(1, 64)},
        optional={key: MODEL_KEYS[key] for key in ("eps_plus", *own)},
    )
    for kind, (_, own) in harness._MODEL_FIELDS.items()
)
CONFIGS = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**64),
    "seed_bits": st.integers(0, 16),
    "trials": st.integers(1, 10**6),
    "alphas": st.lists(RATIONALS, max_size=3),
    "best_seed_alpha": RATIONALS,
    "models": st.lists(MODELS, max_size=3),
    "grid": st.fixed_dictionaries({
        "u": st.lists(st.integers(1, 99)), "n": st.lists(st.integers(1, 99)),
        "beta": st.lists(RATIONALS),
    }),
    "negative_probe": st.none() | st.fixed_dictionaries(
        {"u": st.integers(1, 9), "n": st.integers(1, 9), "fspace_bits": st.integers(0, 9)},
        optional={"alpha": RATIONALS, "eps_minus": RATIONALS, "p_fail": RATIONALS},
    ),
})


class TestConfig:
    def test_overlay_keeps_unmentioned_fields(self):
        base = default_verify_config()
        cfg = config_from_dict({"seed_bits": 4}, base)
        assert cfg.seed_bits == 4
        assert cfg.models == base.models
        assert cfg.alphas == base.alphas

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sed_bits": 4}, default_verify_config())

    def test_seed_bits_range(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed_bits": 21}, default_verify_config())
        with pytest.raises(ConfigError):
            config_from_dict({"seed_bits": 17}, default_verify_config())
        widest = config_from_dict({"seed_bits": 16}, default_verify_config())
        assert widest.seed_bits == 16
        with pytest.raises(ConfigError):
            config_from_dict({"seed_bits": -1}, default_verify_config())

    def test_trials_floor(self):
        with pytest.raises(ConfigError):
            config_from_dict({"trials": 0}, default_fp_config())

    def test_alpha_and_grid_parsing(self):
        cfg = config_from_dict(
            {
                "alphas": ["3/2", "2"],
                "grid": {"u": [8], "n": [2], "beta": ["1/2"]},
            },
            default_verify_config(),
        )
        assert cfg.alphas == (Fraction(3, 2), Fraction(2))
        assert cfg.grid == GridSpec((8,), (2,), (Fraction(1, 2),))

    @pytest.mark.parametrize(
        "make",
        [default_verify_config, negative_control_config, default_fp_config,
         default_demo_config],
        ids=lambda make: make.__name__,
    )
    def test_resolved_dict_reads_back_to_the_same_config(self, make):
        # perfbench hands the negative control to verify --config this way
        cfg = make()
        text = json.dumps(cfg.resolved_dict())
        again = config_from_dict(json.loads(text), ExperimentConfig())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @given(CONFIGS)
    def test_any_config_reads_back_from_its_resolved_dict(self, config):
        cfg = config_from_dict(config, ExperimentConfig())
        again = config_from_dict(json.loads(json.dumps(cfg.resolved_dict())), ExperimentConfig())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize(
        "config, base, digest",
        [
            ({"models": [{"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6",
                          "noise_m": 0}]}, ExperimentConfig, "644847294ff6263a"),
            ({"models": [{"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6"}]},
             ExperimentConfig, "644847294ff6263a"),
            ({"models": [{"kind": "fingerprint_multiset", "u": 8, "n": 2, "eps_plus": "2/4",
                          "fingerprint_bits": 3, "collision_table": [[2, 0], [1, 0]]}]},
             ExperimentConfig, "be36dffa420a824a"),
            ({"models": [{"kind": "fingerprint_multiset", "u": 8, "n": 2, "eps_plus": 0.5,
                          "fingerprint_bits": None, "collision_table": None}]},
             ExperimentConfig, "75af6de72906b43e"),
            ({"negative_probe": None}, default_verify_config, "f10bcf80b3e4e3cc"),
            ({"negative_probe": {"fspace_bits": 3, "u": 8, "n": 2, "alpha": 2}},
             default_verify_config, "8704f9e03c295c2d"),
            ({"grid": {"u": [8, 9], "n": [2], "beta": ["2/4", 1]}, "alphas": ["3/2", 4],
              "best_seed_alpha": "6/2"}, ExperimentConfig, "492bac38a25de25c"),
        ],
        ids=["noise_m_0", "noise_m_absent", "fingerprint_fields", "fingerprint_nulls",
             "probe_null", "probe_given", "grid_and_alphas"],
    )
    def test_config_hash_is_pinned(self, config, base, digest):
        # a default field left out, a rational as "p/q" in lowest terms, and
        # the probe as given: each a choice the hash of every report carries
        assert config_from_dict(config, base()).config_hash() == digest

    def test_errors_name_the_object_and_the_key(self):
        model = {"kind": "exact_set", "u": 6.9, "n": 2}
        with pytest.raises(ConfigError, match="exact_set model spec u: must be an integer"):
            config_from_dict({"models": [model]}, default_verify_config())
        with pytest.raises(ConfigError, match=r"model spec takes no \['noise_m'\]"):
            model_spec_from_dict({"kind": "exact_set", "u": 6, "n": 2, "noise_m": 0})

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"u": [8]}}, default_verify_config())

    def test_a_config_built_in_code_reads_its_fields_as_json_does(self):
        # the same values, read from a JSON object or given to the records
        data = {"seed_bits": 7, "alphas": ["3/2", 2], "best_seed_alpha": "5/2",
                "models": [{"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6",
                            "noise_m": 1}],
                "grid": {"u": [16], "n": [4], "beta": ["1/2", 1]}}
        read = config_from_dict(data, ExperimentConfig())
        built = ExperimentConfig(**{**data, "grid": GridSpec(**data["grid"])})
        assert built == read and built.config_hash() == read.config_hash()
        assert built.models == (ModelSpec("noisy_exact", 6, 2, "1/6", noise_m=1),)
        assert built.alphas == (Fraction(3, 2), Fraction(2))
        for bad, text in [({"trials": 0}, "trials must be at least 1"),
                          ({"grid": {"u": [2.5], "n": [4], "beta": [1]}},
                           "config grid u[0]: must be an integer"),
                          ({"seed_bits": "7"}, "config seed_bits: must be an integer")]:
            for build in (lambda: config_from_dict(bad, ExperimentConfig()),
                          lambda: ExperimentConfig(**bad)):
                with pytest.raises(ConfigError) as caught:
                    build()
                assert str(caught.value).startswith(text)

    def test_hash_deterministic_and_sensitive(self):
        base = default_verify_config()
        assert base.config_hash() == default_verify_config().config_hash()
        bumped = config_from_dict({"seed": 1}, base)
        assert bumped.config_hash() != base.config_hash()

    def test_default_configs_have_the_advertised_zoo(self):
        verify = default_verify_config()
        assert [m.kind for m in verify.models] == ["exact_set", "noisy_exact"]
        assert verify.negative_probe == DEFAULT_NEGATIVE_PROBE
        control = negative_control_config()
        assert [m.kind for m in control.models][-1] == "fingerprint_multiset"


class TestWilson:
    def test_textbook_example(self):
        low, high = wilson_interval(10, 100)
        assert low == pytest.approx(0.0552, abs=1e-4)
        assert high == pytest.approx(0.1744, abs=1e-4)

    def test_edges_clamp(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_contains_point_estimate(self):
        for hits, trials in [(1, 10), (7, 9), (250, 1000)]:
            low, high = wilson_interval(hits, trials)
            assert low <= hits / trials <= high

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


def exact_fp_rate(u, dataset, ell):
    """The false-positive rate of fp-rate's trials under the ideal hash family.

    Each trial stores dataset and queries a uniform nonmember, under
    h(x) = ((a*x + c) mod p) mod 2**ell with p the smallest prime above u,
    a uniform in [1, p) and c uniform in [0, p).  The sum runs over every
    (a, c) and every nonmember.  fp-rate draws (a, c) as 64-bit seed words
    mod p, whose slight bias from uniform this oracle leaves out.
    """
    p = next(q for q in range(u + 1, 2 * u + 2) if all(q % d for d in range(2, q)))
    mask = (1 << ell) - 1
    members = set(dataset)
    nonmembers = [x for x in range(u) if x not in members]
    hits = 0
    for a in range(1, p):
        for c in range(p):
            stored = {(a * y + c) % p & mask for y in dataset}
            hits += sum((a * x + c) % p & mask in stored for x in nonmembers)
    return Fraction(hits, (p - 1) * p * len(nonmembers))


# (u, n, eps_plus) of a fingerprint model fp-rate runs, and the exact rate
# of its trials under the ideal hash family
FP_ORACLE_CASES = pytest.mark.parametrize(
    "u, n, eps_plus, exact",
    [
        (16, 2, Fraction(1, 2), Fraction(719, 1904)),
        (64, 4, Fraction(1, 4), Fraction(24523, 132660)),
        (100, 3, Fraction(1, 8), Fraction(31883, 489850)),
    ],
    ids=["u16_n2", "u64_n4", "u100_n3"],
)


def pair_collision_rate(p, ell):
    """The chance that x != s share a fingerprint under the ideal hash family.

    With p > u, a(x - s) mod p is uniform on [1, p) and independent of
    y = (a*s + c) mod p, which is uniform on [0, p).  So the two hash
    values are a uniform pair of distinct residues mod p, and they collide
    when they agree mod 2**ell: q = sum of c_r (c_r - 1) over
    p (p - 1), where c_r counts the y in [0, p) with y = r mod 2**ell.
    O(p), where a sum over every (a, c) is O(p**2).
    """
    counts = [0] * (1 << ell)
    for y in range(p):
        counts[y & ((1 << ell) - 1)] += 1
    return Fraction(sum(c * (c - 1) for c in counts), p * (p - 1))


def brute_pair_collision_rate(u, p, ell):
    """The share of (a, c, x, s), over every a in [1, p), c in [0, p) and
    x != s in [0, u), whose fingerprints agree."""
    mask = (1 << ell) - 1
    hits = 0
    for a in range(1, p):
        for c in range(p):
            values = [(a * x + c) % p & mask for x in range(u)]
            hits += sum(k * (k - 1) for k in map(values.count, set(values)))
    return Fraction(hits, (p - 1) * p * u * (u - 1))


def fingerprint_shape(spec):
    """(n, eps_plus, p, ell) of a fingerprint_multiset model spec."""
    model = spec.build()
    return model.params.n, model.eps_plus, next_prime(model.params.u), model.fp_bits


def oracle_spec(u, n, eps_plus):
    return model_spec_from_dict(
        {"kind": "fingerprint_multiset", "u": u, "n": n, "eps_plus": str(eps_plus)}
    )


class TestPairCollisionRate:
    """n * q bounds the fp-rate of a dataset of n under the ideal family."""

    @pytest.mark.parametrize(
        "spec",
        [oracle_spec(16, 2, Fraction(1, 2)), oracle_spec(64, 4, Fraction(1, 4)),
         oracle_spec(100, 3, Fraction(1, 8)), negative_control_config().models[2]],
        ids=["u16", "u64", "u100", "negative_control"],
    )
    def test_matches_brute_force(self, spec):
        _, _, p, ell = fingerprint_shape(spec)
        assert p <= 101
        assert pair_collision_rate(p, ell) == brute_pair_collision_rate(spec.u, p, ell)

    @pytest.mark.parametrize(
        "spec, q",
        [
            (default_fp_config().models[0], Fraction(32705, 4194368)),
            (negative_control_config().models[2], Fraction(1, 7)),
        ],
        ids=["fp_rate_default", "negative_control"],
    )
    def test_shipped_hash_configs_meet_their_eps_plus(self, spec, q):
        # default_demo_config is left out: its collision table forces a
        # collision, so its model is outside the ideal family
        n, eps_plus, p, ell = fingerprint_shape(spec)
        assert pair_collision_rate(p, ell) == q
        assert n * q <= eps_plus

    @FP_ORACLE_CASES
    def test_pinned_exact_rates_lie_under_n_times_q(self, u, n, eps_plus, exact):
        _, _, p, ell = fingerprint_shape(oracle_spec(u, n, eps_plus))
        bound = n * pair_collision_rate(p, ell)
        assert bound == {16: Fraction(7, 17), 64: Fraction(144, 737),
                         100: Fraction(333, 5050)}[u]
        assert exact <= bound <= eps_plus


@pytest.fixture()
def fp_config_small():
    return config_from_dict({"trials": 500}, default_fp_config())


class TestFpExperiment:
    def test_deterministic_and_frozen(self, fp_config_small):
        report = run_fp_experiment(fp_config_small)
        assert report == run_fp_experiment(fp_config_small)
        assert report["fp_hits"] == 56
        assert report["fp_rate"] == pytest.approx(0.112)
        assert report["trials"] == 500
        assert report["ell"] == 7
        assert report["eps_plus"] == "1/8"
        assert report["completeness_rate"] == "1/1"
        assert report["passed"] is True

    def test_frozen_at_ten_thousand_trials(self):
        report = run_fp_experiment(
            config_from_dict({"trials": 10_000}, default_fp_config())
        )
        assert report["fp_hits"] == 1178
        assert report["completeness_rate"] == "1/1"

    def test_memory_does_not_grow_with_trials(self):
        def traced_peak(trials):
            cfg = config_from_dict({"trials": trials}, default_fp_config())
            tracemalloc.start()
            try:
                run_fp_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a list of every nonmember would add about 36 bytes per trial
        assert traced_peak(3000) - traced_peak(500) < 32_000

    def test_two_seed_words_per_trial(self, fp_config_small, monkeypatch):
        # one hash pair per trial: the bulk insert derives it, both queries
        # reuse it; a path that derives it again shows up as a count
        calls = []
        real = filters.seed_word

        def counted(seed, stream):
            calls.append(stream)
            return real(seed, stream)

        monkeypatch.setattr(filters, "seed_word", counted)
        report = run_fp_experiment(fp_config_small)
        assert report["fp_hits"] == 56
        assert len(calls) == 2 * fp_config_small.trials

    @FP_ORACLE_CASES
    def test_rate_matches_the_exact_oracle(self, u, n, eps_plus, exact):
        spec = {"kind": "fingerprint_multiset", "u": u, "n": n, "eps_plus": str(eps_plus)}
        cfg = config_from_dict({"models": [spec], "trials": 20_000}, default_fp_config())
        report = run_fp_experiment(cfg)
        dataset = random.Random(f"fp-workload:{cfg.seed}").sample(range(u), n)
        rate = exact_fp_rate(u, dataset, report["ell"])
        assert rate == exact
        assert rate <= eps_plus
        assert report["ci95_low"] <= rate <= report["ci95_high"]

    def test_rate_within_cushion(self, fp_config_small):
        report = run_fp_experiment(fp_config_small)
        assert report["fp_rate"] <= report["bound_with_cushion"]
        assert report["ci95_low"] <= 1 / 8 <= report["ci95_high"]

    def test_csv_shape(self, fp_config_small):
        report = run_fp_experiment(fp_config_small)
        lines = fp_report_csv(report).splitlines()
        assert lines[0] == "u,n,eps_plus,ell,trials,fp_rate,ci95_low,ci95_high"
        cells = lines[1].split(",")
        assert cells[0] == "65536" and cells[4] == "500"

    def test_needs_fingerprint_model(self):
        cfg = config_from_dict(
            {"models": [{"kind": "exact_set", "u": 8, "n": 2}]},
            default_fp_config(),
        )
        with pytest.raises(ConfigError):
            run_fp_experiment(cfg)

    def test_needs_models(self):
        with pytest.raises(ConfigError):
            run_fp_experiment(ExperimentConfig())

    def test_needs_nonmembers(self):
        cfg = config_from_dict(
            {
                "models": [
                    {"kind": "fingerprint_multiset", "u": 4, "n": 4,
                     "eps_plus": "1/2"}
                ]
            },
            default_fp_config(),
        )
        with pytest.raises(ConfigError):
            run_fp_experiment(cfg)


class TestViolationDemo:
    def test_frequencies_are_exactly_one(self):
        report = run_violation_demo(default_demo_config())
        assert report["false_negative_frequency"] == "1/1"
        assert report["false_positive_frequency"] == "1/1"
        assert report["control_false_negative_frequency"] == "0/1"
        assert report["control_false_positive_frequency"] == "0/1"
        assert report["passed"] is True
        assert report["collision_pair"] == [1, 2]

    def test_sequences_are_the_two_scripts(self):
        report = run_violation_demo(default_demo_config())
        assert report["sequences"]["false_negative"] == (
            "u=8 n=2\ninit\nins 2\ndel 1\nquery 2\n"
        )
        assert report["sequences"]["false_positive"] == (
            "u=8 n=2\ninit\nins 1\nins 1\ndel 1\nquery 1\n"
        )

    def test_needs_collision_table(self):
        cfg = config_from_dict(
            {
                "models": [
                    {"kind": "fingerprint_multiset", "u": 8, "n": 2,
                     "eps_plus": "1/2"}
                ]
            },
            default_demo_config(),
        )
        with pytest.raises(ConfigError):
            run_violation_demo(cfg)

    def test_table_entries_must_collide(self):
        cfg = config_from_dict(
            {
                "models": [
                    {"kind": "fingerprint_multiset", "u": 8, "n": 2,
                     "eps_plus": "1/2", "collision_table": [[1, 0], [2, 1]]}
                ]
            },
            default_demo_config(),
        )
        with pytest.raises(ConfigError):
            run_violation_demo(cfg)

    def test_class_sweep_matches_brute_force(self, monkeypatch):
        cfg = config_from_dict({"seed_bits": 6}, default_demo_config())
        seeds = list(seed_space(6))
        model = cfg.models[0].build()
        control = ExactSetModel(model.params)
        for m in (model, control):
            assert len(filters.seed_classes(m, seeds)) < len(seeds)
        fast = run_violation_demo(cfg)
        # the default key makes every seed its own class: plain brute force
        for m in (model, control):
            monkeypatch.setattr(type(m), "seed_class", filters.FilterModel.seed_class)
            assert len(filters.seed_classes(m, seeds)) == len(seeds)
        assert run_violation_demo(cfg) == fast


class TestVerificationSuite:
    def test_default_zoo_passes(self):
        report = run_verification_suite(default_verify_config())
        assert report["passed"]
        assert len(report["checks"]) == 10
        names = [c["name"] for c in report["checks"]]
        assert names[-2:] == ["counting_bound_negative_probe", "binom_scaling_grid"]
        assert sum(1 for n in names if n.startswith("sticky[")) == 2

    def test_negative_control_fails_where_expected(self):
        report = run_verification_suite(negative_control_config())
        assert not report["passed"]
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert any("fingerprint_multiset" in name for name in failing)
        clean = {c["name"] for c in report["checks"] if c["passed"]}
        assert any("exact_set" in name for name in clean)
        assert any("noisy_exact" in name for name in clean)

    @pytest.mark.parametrize(
        "spec",
        [*default_verify_config().models, negative_control_config().models[-1]],
        ids=lambda spec: spec.kind,
    )
    def test_one_sweep_matches_the_reference_checks(self, spec):
        # the sticky and best-seed figures come from check_reduction's sweep;
        # check_sticky and find_best_seed recompute them independently
        cfg = config_from_dict(
            {"models": [spec.to_dict()], "seed_bits": 6}, default_verify_config()
        )
        details = {c["name"]: c["details"] for c in run_verification_suite(cfg)["checks"]}
        model = witness_transform(spec.build())
        seeds = list(seed_space(6))
        violations = failed = 0
        example = None
        for seed in seeds:
            for dataset in iter_subsets_of_size(spec.u, spec.n):
                try:
                    bad = check_sticky(model, seed, dataset)
                except FailStateError:
                    failed += 1
                    continue
                violations += len(bad)
                if bad and example is None:
                    example = {
                        "seed": seed.value,
                        "dataset": list(dataset),
                        "elements": bad,
                    }
        if spec.kind == "fingerprint_multiset":
            assert example is not None
        sticky = details[f"sticky[{model.describe()}]"]
        assert sticky["violations"] == violations
        assert sticky["failed_cells"] == failed
        assert sticky.get("example") == example

        reduction = details[f"reduction[{model.describe()}]"]
        params = BoundsParams(
            u=spec.u,
            n=spec.n,
            eps_minus=parse_fraction(reduction["max_false_negative_rate"]),
            p_fail=parse_fraction(reduction["fail_fraction"]),
            alpha=cfg.best_seed_alpha,
        )
        best = find_best_seed(PairedStaticFilter(model), params, seeds)
        coding = details[f"dataset_coding[{model.describe()}]"]
        assert coding["best_seed"] == best.seed.value
        assert coding["good_count"] == best.good_count

    def test_empty_zoo_is_refused(self):
        # a suite that checked no model would pass vacuously
        cfg = config_from_dict({"models": []}, default_verify_config())
        with pytest.raises(ConfigError) as refused:
            run_verification_suite(cfg)
        assert str(refused.value) == "config models: verify needs at least one model"

    def test_report_json_stable(self):
        cfg = config_from_dict(
            {"models": [{"kind": "exact_set", "u": 5, "n": 2}], "seed_bits": 2},
            default_verify_config(),
        )
        report = run_verification_suite(cfg)
        assert report == run_verification_suite(cfg)
        blob = json.loads(json.dumps(report))
        assert blob["check_count"] == len(blob["checks"])


class TestEncodeDecode:
    def test_round_trip_through_reports(self):
        cfg = default_verify_config()
        enc = run_encode(cfg, [3, 1])
        assert enc["dataset"] == [1, 3]
        assert enc["state"] == "5:01011/5:00000"
        assert enc["index"] == "0"
        dec = run_decode(cfg, enc["state"], int(enc["index"]))
        assert dec["dataset"] == [1, 3]

    def test_needs_models(self):
        cfg = config_from_dict({"models": []}, default_verify_config())
        with pytest.raises(ConfigError):
            run_encode(cfg, [1, 3])


# an exact_set + noisy_exact zoo that takes most of a second at 16 seed bits
ZOO16 = [
    {"kind": "exact_set", "u": 16, "n": 4},
    {"kind": "noisy_exact", "u": 16, "n": 4, "eps_plus": "1/16", "noise_m": 1},
]

# an alpha just under 100 whose numerator has 4,300 digits, the most Python
# prints; the counting rhs and the best seed's required count at it have more
HUGE_ALPHA = "9" * 4300 + "/1" + "0" * 4298
FP62 = {"kind": "fingerprint_multiset", "u": 1 << 62, "n": 2, "eps_plus": "1/2"}
# an exact_set model within every budget, then one whose 24 seed classes at 16
# seed bits take too many steps; sweeping the first takes seconds
LATE_STEP_ZOO = [
    {"kind": "exact_set", "u": 24, "n": 6},
    {"kind": "noisy_exact", "u": 24, "n": 6, "eps_plus": "1/6", "noise_m": 1},
]
# 22 seed classes x C(22, 6) datasets x 6 = 9,848,916 steps at 16 seed bits,
# just within STEP_BUDGET; it sweeps in about 15 s on 2 vCPUs
NOISY22 = {"kind": "noisy_exact", "u": 22, "n": 6, "eps_plus": "1/22", "noise_m": 1}
# a small model, then one with C(40, 6) datasets; encode reads only the first
LATE_DATASET_ZOO = [
    {"kind": "exact_set", "u": 6, "n": 2},
    {"kind": "exact_set", "u": 40, "n": 6},
]


# a bounds config with one entry of each check
MIXED_BOUNDS = {
    "bounds_checks": [
        {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5},
        {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
        {"check": "space", "kind": "dynamic", "u": 16, "n": 4},
    ]
}

# the line each command's flags are tried on, a flag at a time; --config
# names an entry of FLAG_CONFIGS and --out a file
FLAG_BASE = {
    "fp-rate": {"--trials": "200"},
    "demo-violations": {},
    "verify": {"--seed-bits": "2"},
    "bounds": {"--config": "mixed"},
    "encode": {"--seed-bits": "2", "--elements": "1,3"},
    "decode": {"--seed-bits": "2", "--state": "5:01011/5:00000", "--index": "0"},
}
# two values of each flag; decode reads index 1 and refuses it, since no
# dataset of the default zoo has a false negative to rank
FLAG_VALUES = {
    "--seed-bits": ("2", "3"),
    "--trials": ("200", "300"),
    "--out": ("a.json", "b.json"),
    "--format": ("json", "csv"),
    "--elements": ("1,3", "0,1"),
    "--state": ("5:01011/5:00000", "5:00111/5:00000"),
    "--index": ("0", "1"),
}
# two configs for each command
CONFIG_VALUES = {
    "fp-rate": ("seed1", "seed2"),
    "demo-violations": ("seed1", "seed2"),
    "verify": ("exact", "noisy"),
    "bounds": ("mixed", "counting"),
    "encode": ("exact", "noisy"),
    "decode": ("exact", "noisy"),
}
FLAG_CONFIGS = {
    "seed1": {"seed": 1},
    "seed2": {"seed": 2},
    "exact": {"models": [{"kind": "exact_set", "u": 6, "n": 2}]},
    "noisy": {"models": [{"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6",
                          "noise_m": 1}]},
    "mixed": MIXED_BOUNDS,
    "counting": {"bounds_checks": MIXED_BOUNDS["bounds_checks"][:1]},
}
# two valid values of each config field, tried a field at a time in a config
# file on the command's FLAG_BASE line, less the flag that would replace it
FIELD_VALUES = {
    "seed": (1, 2),
    "seed_bits": (2, 3),
    "trials": (200, 300),
    "alphas": (["2"], ["3/2", "4"]),
    "best_seed_alpha": ("2", "4"),
    "grid": ({"u": [16], "n": [4], "beta": ["1/2"]}, {"u": [16, 32], "n": [4], "beta": ["1/2"]}),
    "negative_probe": (DEFAULT_NEGATIVE_PROBE, None),
}
DEMO_MODEL = {"kind": "fingerprint_multiset", "u": 8, "n": 2, "eps_plus": "1/2",
              "collision_table": [[1, 0], [2, 0]]}
# two valid models lists for each command that reads a config
MODELS_VALUES = {
    "fp-rate": ([{"kind": "fingerprint_multiset", "u": 1 << 16, "n": 16, "eps_plus": "1/8"}],
                [{"kind": "fingerprint_multiset", "u": 1 << 10, "n": 8, "eps_plus": "1/4"}]),
    "demo-violations": ([DEMO_MODEL], [dict(DEMO_MODEL, u=10)]),
    "verify": (FLAG_CONFIGS["exact"]["models"], FLAG_CONFIGS["noisy"]["models"]),
    "encode": (FLAG_CONFIGS["exact"]["models"], FLAG_CONFIGS["noisy"]["models"]),
    "decode": (FLAG_CONFIGS["exact"]["models"], FLAG_CONFIGS["noisy"]["models"]),
}
# fields a command reads that no shipped model lets change its stdout, with
# the reason each stays; the guard holds each to the same stdout, so an entry
# goes once a model makes its field count
FN_LIMIT_ZERO = "sets the coder's fn_limit, 0 while every witness-wrapped model has eps_minus 0"
READ_BUT_UNSEEN = {
    ("encode", "best_seed_alpha"): f"{FN_LIMIT_ZERO} (item 4)",
    ("decode", "best_seed_alpha"): f"{FN_LIMIT_ZERO} (item 4)",
}
# a valid value of each config field, away from every command's default
UNREAD_VALUES = {
    "seed": 1,
    "seed_bits": 3,
    "trials": 3,
    "alphas": ["3"],
    "best_seed_alpha": "3",
    "grid": FIELD_VALUES["grid"][0],
    "negative_probe": dict(DEFAULT_NEGATIVE_PROBE, fspace_bits=2),
}
# the config each command's runner reads a config file over
COMMAND_DEFAULTS = {
    "fp-rate": default_fp_config,
    "demo-violations": default_demo_config,
    "verify": default_verify_config,
    "encode": default_verify_config,
    "decode": default_verify_config,
}


def flags_taken(command):
    """Every flag command takes: one per field of the namespace its plain line
    reads, so a flag counts for each command that takes it, however cli
    declares it."""
    line = [word for flag, value in FLAG_BASE[command].items() for word in (flag, value)]
    fields = vars(cli._quick_args([command, *line]))
    return ["--" + dest.replace("_", "-") for dest in fields if dest not in ("command", "func")]


def fields_read(command, read=True):
    """The config fields command reads (or, with read=False, those it does
    not), as cli declares them."""
    declared = cli._COMMANDS[command].fields
    return [key for key in ExperimentConfig.__slots__ if (key in declared) == read]


def run_with_config(command, config, tmp_path, capsys, line=None):
    """(exit code, stdout, stderr) of command on line, FLAG_BASE's by default,
    with config written to a file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    line = FLAG_BASE[command] if line is None else line
    code = main([command, *[w for kv in line.items() for w in kv], "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def encode_a_polluted_pair():
    # 2-bit fingerprints answer yes on 2 as well as on the stored 0 and 1
    spec = {"kind": "fingerprint_multiset", "u": 6, "n": 2, "eps_plus": "1/2",
            "fingerprint_bits": 2}
    static = PairedStaticFilter(model_spec_from_dict(spec).build())
    encode_dataset(static, BoundsParams(6, 2), Seed(0, 8), (0, 1))


def decode_an_index_out_of_range():
    static = PairedStaticFilter(witness_transform(ModelSpec("exact_set", 6, 2, Fraction(0)).build()))
    params, seed = BoundsParams(6, 2), Seed(0, 8)
    good = encode_dataset(static, params, seed, (1, 2))
    decode_dataset(static, params, seed, DatasetCode(good.state, 99))


SEED_BITS = "seed_bits must lie in [0, 16] for exhaustive commands"
# a library caller that builds its config in code and runs one runner on it
RUNNER_CHILD = """
import sys
from filterbounds.core import ConfigError
from filterbounds.demo import default_demo_config, run_violation_demo
from filterbounds.harness import (
    ExperimentConfig, ModelSpec, _config_kwargs, default_fp_config, default_verify_config,
    run_decode, run_encode, run_fp_experiment, run_verification_suite,
)

def built(cfg, **change):
    return ExperimentConfig(**{{**_config_kwargs(cfg), **change}})

try:
    {call}
except ConfigError as exc:
    print(exc)
    sys.exit(2)
"""


class TestRefusals:
    """Every input the commands refuse is a ConfigError, so a ValueError."""

    @pytest.mark.parametrize(
        "refuse, error",
        [
            (lambda: check_enumeration_budget(40, 20), EnumerationTooLarge),
            (lambda: check_counting_bound(-1, BoundsParams(8, 2)), ParamsOutOfRange),
            (encode_a_polluted_pair, NotGoodPair),
            (decode_an_index_out_of_range, InvalidCode),
            (lambda: config_from_dict({"sed_bits": 3}, default_verify_config()), ConfigError),
            (lambda: UniverseParams(0, 1), ConfigError),
            (lambda: FingerprintMultisetModel(UniverseParams(8, 2), Fraction(0)), InvalidParams),
            (lambda: ExactSetModel(UniverseParams(8, 2), Fraction(2)), InvalidParams),
            (lambda: find_best_seed(PairedStaticFilter(ExactSetModel(UniverseParams(6, 2))),
                                    BoundsParams(6, 2), []), ConfigError),
            (lambda: FingerprintMultisetModel(UniverseParams(6.0, 2), Fraction(1, 2)),
             ConfigError),
            (lambda: ExactSetModel(UniverseParams(6, 2.5)), ConfigError),
            (lambda: UniverseParams(6, True), ConfigError),
            (lambda: ModelSpec("exact_set", 6, 2, Fraction(0), noise_m="x"), ConfigError),
            (lambda: ModelSpec("noisy_exact", 6, 2, Fraction(1, 6), fingerprint_bits=4),
             ConfigError),
            (lambda: ModelSpec("exact_set", 6, 2, 0, noise_m=False), ConfigError),
            (lambda: ModelSpec("exact_set", 6, 2, 0, noise_m=0.0), ConfigError),
        ],
        ids=["enumeration_budget", "counting_bound", "encode", "decode", "config",
             "universe_params", "fingerprint_params", "exact_set_params", "no_seeds",
             "float_universe", "float_cardinality", "bool_cardinality",
             "another_kinds_noise_m", "another_kinds_fingerprint_bits",
             "another_kinds_noise_m_false", "another_kinds_noise_m_float_zero"],
    )
    def test_a_library_caller_catches_every_refusal_as_config_error(self, refuse, error):
        for caught in (error, ConfigError, ValueError):
            with pytest.raises(caught):
                refuse()

    @pytest.mark.parametrize(
        "call, error",
        [
            ("run_verification_suite(built(default_verify_config(), seed_bits=40))", SEED_BITS),
            ("run_violation_demo(built(default_demo_config(), seed_bits=40))", SEED_BITS),
            ("run_encode(built(default_verify_config(), seed_bits=40), [1, 3])", SEED_BITS),
            ("run_decode(built(default_verify_config(), seed_bits=40), '5:01011/5:00000', 0)",
             SEED_BITS),
            ("run_verification_suite(built(default_verify_config(), seed_bits=-1))", SEED_BITS),
            ("run_fp_experiment(built(default_fp_config(), trials=0))",
             "trials must be at least 1"),
            ("run_verification_suite(built(default_verify_config(), seed_bits=2.5))",
             "config seed_bits: must be an integer, got 2.5"),
            ("run_verification_suite(built(default_verify_config(), seed_bits=True))",
             "config seed_bits: must be an integer, got True"),
            ("run_fp_experiment(built(default_fp_config(), trials=2.5))",
             "config trials: must be an integer, got 2.5"),
            ("run_fp_experiment(built(default_fp_config(), trials='10'))",
             "config trials: must be an integer, got '10'"),
            ("run_fp_experiment(built(default_fp_config(), trials=True))",
             "config trials: must be an integer, got True"),
            ("run_verification_suite(built(default_verify_config(), models=(), seed_bits=40))",
             SEED_BITS),
            ("run_verification_suite(built(default_verify_config(),"
             " models=(ModelSpec('bogus', 6, 2, 0),)))",
             "model spec kind: must be one of ['exact_set', 'noisy_exact', "
             "'fingerprint_multiset'], got 'bogus'"),
            ("run_encode(built(default_verify_config(),"
             " models=(ModelSpec('exact_set', 6, 2.5, 0),)), [1, 3])",
             "exact_set model spec n: must be an integer, got 2.5"),
            ("run_verification_suite(built(default_verify_config(),"
             " models=(ModelSpec('exact_set', 6, 2, 'x'),)))",
             "exact_set model spec eps_plus: bad rational literal 'x'"),
            ("run_verification_suite(built(default_verify_config(), grid=None))",
             "config grid must be an object, got None"),
            ("run_verification_suite(built(default_verify_config(),"
             " models=({'kind': 'exact_set', 'u': 6, 'n': 2, 'noise_m': 1},)))",
             "config models[0]: exact_set model spec takes no ['noise_m']; "
             "its keys are ['eps_plus', 'kind', 'n', 'u']"),
            ("run_verification_suite(built(default_verify_config(), alphas=()))",
             "config alphas: must name at least one alpha"),
            ("run_verification_suite(built(default_verify_config(), models=()))",
             "config models: verify needs at least one model"),
            ("run_verification_suite(built(default_verify_config(),"
             " grid={'u': [16], 'n': [], 'beta': ['1/2']}))",
             "config grid: needs at least one cell"),
        ],
        ids=["verify", "demo", "encode", "decode", "negative_seed_bits", "no_trials",
             "float_seed_bits", "bool_seed_bits", "float_trials", "string_trials",
             "bool_trials", "empty_zoo_wide_seeds", "unknown_kind", "float_n", "bad_eps_plus",
             "no_grid", "model_as_a_dict", "no_alphas", "empty_zoo", "empty_grid_axis"],
    )
    def test_a_runner_refuses_a_config_built_in_code_at_once(self, call, error):
        # config_from_dict is not the only way in: 2**40 seeds would fill any
        # memory, and 0 trials divided by zero
        script = RUNNER_CHILD.format(call=call)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=10, preexec_fn=one_gib)
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stdout) == (2, error + "\n"), done.stderr[-500:]
        assert elapsed < 1, elapsed


class TestCli:
    @pytest.mark.parametrize(
        "argv, config, run",
        [
            (["fp-rate", "--trials", "500"], None, lambda: run_fp_experiment(
                config_from_dict({"trials": 500}, default_fp_config()))),
            (["demo-violations", "--seed-bits", "4"], None, lambda: run_violation_demo(
                config_from_dict({"seed_bits": 4}, default_demo_config()))),
            (["verify", "--seed-bits", "7"], None, lambda: run_verification_suite(
                config_from_dict({"seed_bits": 7}, default_verify_config()))),
            (["bounds"], MIXED_BOUNDS, lambda: run_bounds(MIXED_BOUNDS)),
            (["encode", "--elements", "1,3"], None,
             lambda: run_encode(default_verify_config(), [1, 3])),
            (["decode", "--state", "5:01011/5:00000", "--index", "0"], None,
             lambda: run_decode(default_verify_config(), "5:01011/5:00000", 0)),
        ],
        ids=["fp_rate", "demo", "verify", "bounds", "encode", "decode"],
    )
    def test_runner_returns_the_report_its_command_prints(
        self, argv, config, run, tmp_path, capsys
    ):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == run()

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["passed"] is True

    def test_verify_negative_control_config_fails(self, tmp_path, capsys):
        control = negative_control_config()
        config = {
            "models": [m.to_dict() for m in control.models],
            "negative_probe": dict(control.negative_probe),
        }
        path = tmp_path / "control.json"
        path.write_text(json.dumps(config))
        assert main(["verify", "--config", str(path)]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["passed"] is False

    def test_verify_empty_zoo_prints_one_error_line(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"models": []}')
        done = subprocess.run(
            [sys.executable, "-m", "filterbounds", "verify", "--config", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == "error: config models: verify needs at least one model\n"
        assert done.stdout == ""

    def test_fp_rate_csv(self, capsys):
        assert main(["fp-rate", "--trials", "500", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("u,n,eps_plus,ell,trials,")

    def test_demo_passes(self, capsys):
        assert main(["demo-violations"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["false_negative_frequency"] == "1/1"

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert main(["demo-violations", "--out", str(target)]) == 0
        assert json.loads(target.read_text())["passed"] is True

    @pytest.mark.parametrize("where", ["missing/x", ""], ids=["no-parent", "directory"])
    def test_unwritable_out_is_refused_before_any_work(
        self, where, tmp_path, monkeypatch, capsys
    ):
        def never(cfg):
            raise AssertionError("fp-rate ran although --out cannot be written")

        monkeypatch.setattr(cli, "run_fp_experiment", never)
        out = str(tmp_path / where)
        assert main(["fp-rate", "--trials", "10000000", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report {out}:")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_out_that_fails_only_when_opened_exits_two(self, tmp_path, capsys):
        # a dangling link passes the early check; the write reports it
        link = tmp_path / "report.json"
        link.symlink_to(tmp_path / "missing" / "report.json")
        assert main(["fp-rate", "--trials", "100", "--out", str(link)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report {link}: [Errno")
        assert len(err.splitlines()) == 1

    def test_bounds_mixed_entries(self, tmp_path, capsys):
        config = {
            "bounds_checks": [
                {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5},
                {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
                {"check": "space", "kind": "dynamic", "u": 16, "n": 4},
            ]
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(config))
        assert main(["bounds", "--config", str(path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["checks"]) == 3

    def test_bounds_violation_exits_one(self, tmp_path):
        config = {
            "bounds_checks": [
                {"check": "counting", "u": 8, "n": 2, "fspace_bits": 3},
            ]
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(config))
        assert main(["bounds", "--config", str(path)]) == 1

    def test_bounds_without_config_is_an_error(self, capsys):
        assert main(["bounds"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sed_bits": 3}))
        assert main(["verify", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_config_exits_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["verify", "--help"],
            ["verify", "--seed-bits", "7", "-h"],
            ["verify", "--seed-bits=7"],
            ["verify", "--seed", "7"],
            ["ver", "--seed-bits", "7"],
            ["--seed-bits", "7", "verify"],
            ["verify", "--seed-bits"],
            ["verify", "--seed-bits", "7", "--seed-bits", "8"],
            ["verify", "--unknown", "1"],
            ["verify", "--elements", "1"],
            ["verify", "--config", "-"],
            ["verify", "--", "--seed-bits", "7"],
            ["decode", "--state", "5:01011/5:00000", "--index", "-1"],
            ["fp-rate", "--trials", "1e3"],
            ["fp-rate", "--trials", ""],
            ["verify", "--format", "xml"],
            ["encode"],
            ["decode", "--state", "5:01011/5:00000"],
        ],
    )
    def test_quick_reader_leaves_other_lines_to_argparse(self, argv):
        assert cli._quick_args(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--format", "csv"],
            ["verify", "--trials", "3"],
            ["bounds", "--seed-bits", "3"],
            ["fp-rate", "--seed-bits", "17"],
            ["demo-violations", "--trials", "0"],
        ],
        ids=["verify_format", "verify_trials", "bounds_seed_bits", "fp_rate_seed_bits",
             "demo_trials"],
    )
    def test_a_flag_its_runner_does_not_read_is_an_argparse_error(self, argv, capsys):
        assert cli._quick_args(argv) is None
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed-bits", "7"],
            ["verify", "--config", "negative_control.json", "--seed-bits", "7"],
            ["fp-rate", "--trials", "10000"],
            ["encode", "--seed-bits", "6", "--elements", "1,3"],
            ["decode", "--seed-bits", "6", "--state", "5:01011/5:00000", "--index", "0"],
        ],
        ids=["verify", "negative_control", "fp_rate", "encode", "decode"],
    )
    def test_quick_reader_reads_the_lines_the_benchmark_runs(self, argv):
        # the benchmark's commands start without importing argparse
        quick = cli._quick_args(argv)
        assert quick is not None
        assert vars(quick) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command in FLAG_BASE for flag in flags_taken(command)],
        ids=lambda value: value,
    )
    def test_each_flag_a_command_takes_changes_its_output(
        self, command, flag, tmp_path, monkeypatch, capsys
    ):
        # two values of the flag, each handed to the command's runner, print
        # reports that differ in more than config_hash, or --out writes two
        # files; a flag that no runner reads, or that main refuses before
        # the runner, fails here
        declared, reached = cli._COMMANDS[command], []

        def runner(args):
            reached.append(command)
            return declared.func(args)

        monkeypatch.setitem(cli._COMMANDS, command, cli._Command(
            declared.summary, runner, declared.options, declared.fields, declared.one_model))
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def word(flag, value):
            if flag == "--config":
                path = tmp_path / f"{value}.json"
                path.write_text(json.dumps(FLAG_CONFIGS[value]))
                return str(path)
            return str(out_dir / value) if flag == "--out" else value

        def outcome(value):
            line = {**FLAG_BASE[command], flag: value}
            main([command, *[w for f, v in line.items() for w in (f, word(f, v))]])
            printed = capsys.readouterr().out
            with contextlib.suppress(ValueError):
                printed = json.loads(printed)
                printed.pop("config_hash", None)
            written = sorted(path.name for path in out_dir.iterdir())
            for path in out_dir.iterdir():
                path.unlink()
            return printed, written

        values = CONFIG_VALUES[command] if flag == "--config" else FLAG_VALUES[flag]
        first, second = outcome(values[0]), outcome(values[1])
        assert reached == [command, command]
        assert first != second

    @pytest.mark.parametrize(
        "command, field",
        [(command, field) for command in COMMAND_DEFAULTS for field in fields_read(command)],
        ids=lambda value: value,
    )
    def test_each_config_field_a_command_reads_changes_its_output(
        self, command, field, tmp_path, capsys
    ):
        # two values of the field in a config file print reports that differ
        # in more than config_hash; a field the runner never reads fails here
        flag = "--" + field.replace("_", "-")
        line = {f: v for f, v in FLAG_BASE[command].items() if f != flag}
        values = MODELS_VALUES[command] if field == "models" else FIELD_VALUES[field]
        printed = []
        for value in values:
            code, out, err = run_with_config(command, {field: value}, tmp_path, capsys, line)
            assert code in (0, 1), err
            report = json.loads(out)
            report.pop("config_hash")
            printed.append(report)
        if (command, field) in READ_BUT_UNSEEN:
            assert printed[0] == printed[1]
        else:
            assert printed[0] != printed[1]

    @pytest.mark.parametrize(
        "command, field",
        [(command, field) for command in COMMAND_DEFAULTS
         for field in fields_read(command, read=False)],
        ids=lambda value: value,
    )
    def test_a_config_field_its_runner_does_not_read_is_refused(
        self, command, field, tmp_path, capsys
    ):
        code, out, err = run_with_config(command, {field: UNREAD_VALUES[field]}, tmp_path,
                                         capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {command} config takes no ['{field}']")
        assert len(err.splitlines()) == 1
        # the same field at the command's default is accepted, and changes nothing
        restated = COMMAND_DEFAULTS[command]().resolved_dict().get(field)
        code, out, _ = run_with_config(command, {field: restated}, tmp_path, capsys)
        assert code == 0
        assert main([command, *[w for kv in FLAG_BASE[command].items() for w in kv]]) == 0
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"seed_bits": 40}, ["verify", "--seed-bits", "2"]),
            ({"trials": 0}, ["fp-rate", "--trials", "10"]),
        ],
        ids=["seed_bits", "trials"],
    )
    def test_a_flag_replaces_the_config_value_it_overrides(
        self, config, argv, tmp_path, capsys
    ):
        # the file's value is never read on its own, so it cannot be refused;
        # the same stdout, config_hash included, means the same config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([*argv, "--config", str(path)]) == 0
        overlaid = capsys.readouterr().out
        assert main(argv) == 0
        assert overlaid == capsys.readouterr().out

    def test_seed_bits_flag_out_of_range_exits_two(self):
        assert main(["verify", "--seed-bits", "30"]) == 2

    def test_seed_space_over_budget_exits_two_before_any_step(
        self, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("a model was stepped")

        monkeypatch.setattr(ExactSetModel, "insert_state", refuse)
        assert main(["verify", "--seed-bits", "17"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1

    def test_encode_decode_round_trip(self, capsys):
        assert main(["encode", "--elements", "1,3"]) == 0
        enc = json.loads(capsys.readouterr().out)
        assert main(
            ["decode", "--state", enc["state"], "--index", enc["index"]]
        ) == 0
        dec = json.loads(capsys.readouterr().out)
        assert dec["dataset"] == [1, 3]

    def test_encode_and_decode_read_only_the_first_model(self, tmp_path, capsys):
        # so a models list past the first, which they would never build, is refused
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"models": LATE_DATASET_ZOO}))
        common = ["--seed-bits", "6", "--config", str(path)]
        assert main(["encode", *common, "--elements", "1,3"]) == 2
        assert capsys.readouterr().err == "error: config models: encode reads one model, got 2\n"
        state = ["--state", "5:01011/5:00000", "--index", "0"]
        assert main(["decode", *common, *state]) == 2
        assert capsys.readouterr().err == "error: config models: decode reads one model, got 2\n"
        # the default zoo, restated, is the one list of two they accept
        path.write_text(json.dumps(default_verify_config().resolved_dict()))
        assert main(["encode", *common, "--elements", "1,3"]) == 0
        restated = capsys.readouterr().out
        assert main(["encode", "--seed-bits", "6", "--elements", "1,3"]) == 0
        assert restated == capsys.readouterr().out

    def test_bad_elements_exit_two(self, capsys):
        assert main(["encode", "--elements", "1,banana"]) == 2

    @pytest.mark.parametrize(
        "config, argv",
        [
            ([1, 2], ["bounds"]),
            ({"models": [5]}, ["verify"]),
            ({"models": 5}, ["verify"]),
            ({"alphas": 2}, ["verify"]),
            ({"negative_probe": 3}, ["verify"]),
            (
                {"models": [{"kind": "noisy_exact", "u": 6, "n": 2,
                             "eps_plus": "1/6", "noise_m": "x"}]},
                ["verify"],
            ),
            (None, ["encode", "--elements", "7,8"]),
            (None, ["encode", "--elements", "1"]),
            (None, ["decode", "--state", "garbage", "--index", "0"]),
            ({"seed": float("inf")}, ["fp-rate"]),
            ({"bounds_checks": [{"check": "counting", "u": 8, "n": 2,
                                 "fspace_bits": 10**20}]}, ["bounds"]),
            ({"bounds_checks": [{"check": "counting", "u": 8, "n": 2,
                                 "fspace_bits": 20000}]}, ["bounds"]),
            ({"bounds_checks": [{"check": "binom_scaling", "u": 10**6,
                                 "n": 10**6, "beta": "1/2"}]}, ["bounds"]),
            ({"bounds_checks": [{"check": "space", "u": 2 * 10**6,
                                 "n": 10**6}]}, ["bounds"]),
            ({"bounds_checks": [{"check": "counting", "u": 2 * 10**6,
                                 "n": 10**6, "fspace_bits": 3}]}, ["bounds"]),
            # codes no dataset has: an empty pair, and a delete snapshot
            # that encode never prints (encode --elements 1,3 prints
            # 5:01011/5:00000)
            (None, ["decode", "--seed-bits", "6", "--state", "0:/0:",
                    "--index", "0"]),
            (None, ["decode", "--seed-bits", "6", "--state", "5:01011/5:00001",
                    "--index", "0"]),
            # 506 hash classes x C(20, 5) datasets x 5 steps: over the
            # step budget, refused before any model step
            ({"models": [{"kind": "fingerprint_multiset", "u": 20, "n": 5,
                          "eps_plus": "1/2"}]}, ["verify", "--seed-bits", "16"]),
            # a report that cannot be written, as JSON and as CSV
            (None, ["verify", "--out", "/nonexistent/dir/x.json"]),
            (None, ["encode", "--elements", "1,3", "--out", "/nonexistent/x"]),
            (None, ["fp-rate", "--format", "csv", "--out", "/nonexistent/x"]),
            # fields that were coerced or dropped: a float, bool or string
            # for an integer, a bool for a rational, and misspelt keys
            ({"models": [{"kind": "exact_set", "u": 6.9, "n": 2}]}, ["verify"]),
            ({"seed_bits": True}, ["verify"]),
            ({"trials": 10.7}, ["fp-rate"]),
            ({"models": [{"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": True,
                          "noise_m": 1}]}, ["verify"]),
            ({"models": [{"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6",
                          "noise_M": 1}]}, ["verify"]),
            ({"grid": {"u": [16], "n": [4], "beta": ["1/2"], "Beta": ["1"]}}, ["verify"]),
            ({"bounds_checks": [{"check": "counting", "u": 8, "n": 2,
                                 "fspace_bits": 5, "alpah": "3"}]}, ["bounds"]),
            ({"models": [{"kind": "exact_set", "u": "6", "n": 2}]}, ["verify"]),
            # a field only another kind takes, and a repeated collision element
            ({"models": [{"kind": "exact_set", "u": 6, "n": 2,
                          "fingerprint_bits": 3}]}, ["verify"]),
            ({"models": [{"kind": "fingerprint_multiset", "u": 8, "n": 2, "eps_plus": "1/2",
                          "collision_table": [[1, 0], [2, 0], [2, 0]]}]},
             ["demo-violations"]),
            # unknown keys in the grid, the probe, a bounds entry and a
            # bounds config
            ({"grid": {"u": [16], "n": [4], "beta": ["1/2"], "v": [1]}}, ["verify"]),
            ({"negative_probe": {"fspace_bits": 3, "u": 8, "n": 2, "alhpa": "2"}},
             ["verify"]),
            ({"bounds_checks": [{"check": "space", "u": 16, "n": 4, "epsilon": "0"}]},
             ["bounds"]),
            ({"bounds_checks": [{"check": "space", "u": 16, "n": 4}], "seed": 1},
             ["bounds"]),
            # explicit fingerprint widths below one bit
            ({"models": [{"kind": "fingerprint_multiset", "u": 6, "n": 2, "eps_plus": "1/2",
                          "fingerprint_bits": 0}]}, ["verify", "--seed-bits", "2"]),
            ({"models": [{"kind": "fingerprint_multiset", "u": 6, "n": 2, "eps_plus": "1/2",
                          "fingerprint_bits": -3}]}, ["verify", "--seed-bits", "2"]),
            ({"models": [{"kind": "fingerprint_multiset", "u": 1024, "n": 16,
                          "eps_plus": "1/8", "fingerprint_bits": 0}]},
             ["fp-rate", "--trials", "100"]),
            ({"models": [{"kind": "fingerprint_multiset", "u": 1024, "n": 16,
                          "eps_plus": "1/8", "fingerprint_bits": -3}]},
             ["fp-rate", "--trials", "100"]),
            # n > u, for every command that builds a model
            ({"models": [{"kind": "exact_set", "u": 3, "n": 5}]}, ["verify"]),
            ({"models": [{"kind": "exact_set", "u": 3, "n": 5}]},
             ["encode", "--elements", "0,1,2"]),
            ({"models": [{"kind": "exact_set", "u": 3, "n": 5}]},
             ["decode", "--state", "3:000/3:000", "--index", "0"]),
            ({"models": [{"kind": "fingerprint_multiset", "u": 4, "n": 6,
                          "eps_plus": "1/2"}]}, ["fp-rate", "--trials", "100"]),
            ({"models": [{"kind": "fingerprint_multiset", "u": 2, "n": 3, "eps_plus": "1/2",
                          "collision_table": [[0, 0], [1, 0]]}]}, ["demo-violations"]),
            # a grid cell whose binomials are trivial but whose n * slack
            # overflows a float
            ({"grid": {"u": [10**400], "n": [10**400], "beta": ["1"]}},
             ["verify", "--seed-bits", "2"]),
            ({"bounds_checks": [{"check": "binom_scaling", "u": 10**400, "n": 10**400,
                                 "beta": "1"}]}, ["bounds"]),
            # a bad field in the second entry of a list
            ({"models": [{"kind": "exact_set", "u": 6, "n": 2},
                         {"kind": "exact_set", "u": "x", "n": 2}]}, ["verify"]),
            ({"bounds_checks": [{"check": "space", "u": 16, "n": 4},
                                {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5,
                                 "alpah": "3"}]}, ["bounds"]),
            # report numbers past Python's int-to-str digit limit: 2**20000,
            # and a rhs or required count at an alpha of 4,300 digits
            ({"negative_probe": {"fspace_bits": 20000, "u": 8, "n": 2}}, ["verify"]),
            ({"alphas": [HUGE_ALPHA]}, ["verify", "--seed-bits", "2"]),
            ({"best_seed_alpha": HUGE_ALPHA}, ["verify", "--seed-bits", "2"]),
            # a rational literal whose digits no report can print
            ({"alphas": ["1e5000"]}, ["verify", "--seed-bits", "2"]),
            # n > u in a counting bound
            ({"bounds_checks": [{"check": "counting", "u": 2, "n": 3,
                                 "fspace_bits": 0}]}, ["bounds"]),
            ({"negative_probe": {"fspace_bits": 3, "u": 2, "n": 3}}, ["verify"]),
            # a dataset count past the int-to-str digit limit, a dataset
            # too large to sample, and a control model too large to size
            ({"models": [dict(FP62, n=1100)]}, ["encode", "--seed-bits", "1",
                                                "--elements", "0,1"]),
            ({"models": [dict(FP62, n=1 << 61)]}, ["fp-rate", "--trials", "10"]),
            ({"models": [dict(FP62, u=1100, n=1100, collision_table=[[1, 0], [2, 0]])]},
             ["demo-violations"]),
            ({"models": [dict(FP62, n=1100, collision_table=[[1, 0], [2, 0]])]},
             ["demo-violations"]),
            # a space kind other than nstatic and dynamic
            ({"bounds_checks": [{"check": "space", "kind": "x", "u": 16, "n": 4}]},
             ["bounds"]),
            # encode --elements 1,3 prints 5:01011/5:00000; int() reads each of
            # these states the same, but encode never prints them
            *[(None, ["decode", "--seed-bits", "6", "--state", state, "--index", "0"])
              for state in ["5:+1011/5:00000", "5: 1011/5:00000", "5:01011/5:0_000",
                            "5:01011/5:-0000", "05:01011/5:00000", "5:01011/+5:00000"]],
            # no alpha, at which a counting check would pass having checked nothing
            ({"alphas": []}, ["verify", "--seed-bits", "2"]),
            # a universe past the widest one fp-rate samples from
            ({"models": [dict(FP62, u=1 << 63)]}, ["fp-rate", "--trials", "5"]),
            # a zoo with no model and a grid with no cell, which would check nothing
            ({"models": []}, ["verify", "--seed-bits", "2"]),
            ({"grid": {"u": [], "n": [4], "beta": ["1/2"]}}, ["verify", "--seed-bits", "2"]),
        ],
    )
    def test_bad_input_exits_two_with_one_error_line(
        self, config, argv, tmp_path, capsys
    ):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "config, command, line",
        [
            ({"models": [{"kind": "exact_set", "u": 6, "n": 2},
                         {"kind": "exact_set", "u": "x", "n": 2}]}, "verify",
             "config models[1]: exact_set model spec u: must be an integer, got 'x'"),
            ({"grid": {"u": [16], "n": [4], "beta": ["1/2"], "Beta": ["1"]}}, "verify",
             "config grid takes no ['Beta']; its keys are ['beta', 'n', 'u']"),
            ({"grid": {"u": [16, "x"], "n": [4], "beta": ["1/2"]}}, "verify",
             "config grid u[1]: must be an integer, got 'x'"),
            ({"negative_probe": {"fspace_bits": 3, "u": 8, "n": 2, "alhpa": "2"}}, "verify",
             "config negative_probe takes no ['alhpa']; its keys are "
             "['alpha', 'eps_minus', 'fspace_bits', 'n', 'p_fail', 'u']"),
            ({"alphas": ["2", "x"]}, "verify", "config alphas[1]: bad rational literal 'x'"),
            ({"bounds_checks": [{"check": "space", "u": 16, "n": 4}, {"check": "nope"}]},
             "bounds",
             "bounds config bounds_checks[1]: bounds check check: must be one of "
             "['counting', 'binom_scaling', 'space'], got 'nope'"),
            ({"grid": {"u": [10**400], "n": [10**400], "beta": ["1"]}}, "verify",
             "config grid: binom_scaling needs floats past their range"),
            # a probe and a grid cell that read but are refused when evaluated
            ({"negative_probe": {"u": 8, "n": 2, "fspace_bits": 3, "alpha": "1"}}, "verify",
             "config negative_probe: alpha=1 must exceed 1"),
            ({"grid": {"u": [4], "n": [8], "beta": ["1"]}}, "verify",
             "config grid: need 1 <= n <= u, got u=4, n=8"),
            # a collision table that forces nothing together, and a pair of three
            ({"models": [{"kind": "fingerprint_multiset", "u": 8, "n": 2, "eps_plus": "1/2",
                          "collision_table": [[1, 0]]}]}, "demo-violations",
             "collision table must force at least two elements together"),
            ({"models": [{"kind": "fingerprint_multiset", "u": 6, "n": 2, "eps_plus": "1/2",
                          "collision_table": [[1, 0, 3]]}]}, "verify",
             "config models[0]: fingerprint_multiset model spec collision_table: "
             "must hold [element, fingerprint] pairs, got [[1, 0, 3]]"),
        ],
        ids=["model", "grid_key", "grid_entry", "probe_key", "alpha", "bounds_entry",
             "float_range", "probe_range", "grid_range", "one_collision", "collision_triple"],
    )
    def test_error_line_names_the_list_entry_and_each_object_once(
        self, config, command, line, tmp_path, capsys
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        seed_bits = [] if command == "bounds" else ["--seed-bits", "2"]
        assert main([command, *seed_bits, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize(
        "command, text",
        [
            ("verify", '{"seed": %s}'),
            ("bounds", '{"bounds_checks": [{"check": "space", "u": %s, "n": 2}]}'),
        ],
        ids=["verify", "bounds"],
    )
    def test_integer_literal_past_the_digit_limit_exits_two(
        self, command, text, tmp_path, capsys
    ):
        # json.dumps cannot write such a literal either, so the text is built
        path = tmp_path / "config.json"
        path.write_text(text % ("1" * 5000))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "5000 digits" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    @pytest.mark.parametrize(
        "data, words",
        [(b"\xff\xfe{}", "is not UTF-8 text"), (b"[" * 100_000, "nests too deeply"),
         (b'{"seed": ', "is not valid JSON")],
        ids=["not_utf8", "too_deep", "not_json"],
    )
    def test_undecodable_or_too_deep_config_exits_two(
        self, command, data, words, tmp_path, capsys
    ):
        # neither file can be written by json.dump, so the raw bytes are
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and words in err
        assert len(err.splitlines()) == 1

    def test_unprintable_bounds_entry_refused_before_any_output(
        self, tmp_path, capsys
    ):
        # 2**20000 has 6,021 digits, past Python's int-to-str limit
        fine = {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5}
        huge = dict(fine, fspace_bits=20000)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bounds_checks": [fine, huge]}))
        assert main(["bounds", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "20000" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["exact_set", "noisy_exact"])
    def test_exact_model_over_the_cost_limit_exits_two_at_once(
        self, kind, tmp_path, capsys
    ):
        # sizing the state would sum 10**20 binomials
        model = {"kind": kind, "u": 10**20, "n": 10**20, "eps_plus": "1/2"}
        if kind == "noisy_exact":
            model["noise_m"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"models": [model]}))
        start = time.perf_counter()
        assert main(["verify", "--seed-bits", "2", "--config", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("u", [10**20, 10**25])
    def test_huge_fingerprint_universe_exits_two_at_once(self, u, tmp_path, capsys):
        # the model's modulus must be found at once even at u = 10**20
        path = tmp_path / "config.json"
        model = {"kind": "fingerprint_multiset", "u": u, "n": 16, "eps_plus": "1/8"}
        path.write_text(json.dumps({"models": [model]}))
        start = time.perf_counter()
        assert main(["fp-rate", "--config", str(path)]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"models": ZOO16[:1] + [dict(ZOO16[1], noise_m=2)]},
            {"alphas": ["1"]},
            {"best_seed_alpha": "1/2"},
            {"alphas": [HUGE_ALPHA]},
            {"best_seed_alpha": HUGE_ALPHA},
            {"models": LATE_STEP_ZOO},
            {"models": LATE_DATASET_ZOO},
            {"models": []},
            {"grid": {"u": [16], "n": [4], "beta": []}},
        ],
        ids=["second_model", "alphas", "best_seed_alpha", "unprintable_alpha",
             "unprintable_best_seed_alpha", "later_model_over_step_budget",
             "later_model_over_dataset_budget", "empty_zoo", "empty_grid_axis"],
    )
    def test_bad_input_is_refused_before_the_first_sweep(
        self, change, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("a sweep ran before the input was checked")

        monkeypatch.setattr(reduction, "check_reduction", never)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"models": ZOO16, **change}))
        assert main(["verify", "--seed-bits", "16", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, change",
        [
            (["encode", "--elements", "1"], {}),
            (["encode", "--elements", "1,9"], {}),
            (["decode", "--state", "garbage", "--index", "0"], {}),
            (["decode", "--state", "05:01011/5:00000", "--index", "0"], {}),
            (["encode", "--elements", "1,3"], {"best_seed_alpha": "1"}),
            (["decode", "--state", "5:01011/5:00000", "--index", "0"], {"best_seed_alpha": "1"}),
        ],
        ids=["encode_too_few", "encode_out_of_range", "decode_garbage",
             "decode_leading_zero", "encode_best_seed_alpha", "decode_best_seed_alpha"],
    )
    def test_coding_input_is_refused_before_the_sweep(
        self, argv, change, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("a sweep ran before the input was checked")

        monkeypatch.setattr(reduction, "check_reduction", never)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(change))
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_each_model_is_swept_once_and_its_coder_read_off_that_sweep(
        self, monkeypatch, capsys
    ):
        # verify reads all four checks of a model off one sweep; encode and
        # decode build their coder, the one verify's coding check uses, off one
        swept = []
        sweep = reduction.check_reduction

        def counted(model, classes):
            swept.append(model.describe())
            return sweep(model, classes)

        monkeypatch.setattr(reduction, "check_reduction", counted)
        assert main(["verify", "--seed-bits", "6"]) == 0
        checks = {check["name"]: check for check in json.loads(capsys.readouterr().out)["checks"]}
        assert swept == ["witness(exact_set(u=6, n=2))", "witness(noisy_exact(u=6, n=2, m=1))"]
        swept.clear()
        assert main(["encode", "--seed-bits", "6", "--elements", "1,3"]) == 0
        encoded = json.loads(capsys.readouterr().out)
        assert swept == ["witness(exact_set(u=6, n=2))"]
        coding = checks["dataset_coding[witness(exact_set(u=6, n=2))]"]
        assert encoded["seed"]["value"] == coding["details"]["best_seed"]
        swept.clear()
        code = ["--state", encoded["state"], "--index", encoded["index"]]
        assert main(["decode", "--seed-bits", "6", *code]) == 0
        assert json.loads(capsys.readouterr().out)["dataset"] == [1, 3]
        assert swept == ["witness(exact_set(u=6, n=2))"]

    @pytest.mark.parametrize("alpha", ["1e100000000", "1e-100000000"])
    def test_huge_decimal_exponent_exits_two_at_once(self, alpha, tmp_path):
        # Fraction would build 10**100000000 first, which takes minutes
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"alphas": [alpha]}))
        done = subprocess.run(
            [sys.executable, "-m", "filterbounds", "verify", "--config", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and "bad rational literal" in done.stderr
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [["encode", "--elements", "0,1"], ["decode", "--state", "0:/0:", "--index", "0"]],
        ids=["encode", "decode"],
    )
    def test_astronomical_dataset_count_exits_two_at_once(self, argv, tmp_path):
        # C(2**62, 2**61) would take longer to compute than any sweep
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"models": [dict(FP62, n=1 << 61)]}))
        done = subprocess.run(
            [sys.executable, "-m", "filterbounds", *argv, "--seed-bits", "1",
             "--config", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and "exceed budget" in done.stderr
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("u", [10**5, 10**6])
    def test_mask_memory_past_the_budget_exits_two_at_once(self, u, tmp_path):
        # one u-bit member mask per dataset: at u=10**5 the sweep ran out of
        # a 2 GB address space with a MemoryError traceback, and at u=10**6
        # the kernel killed it
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"models": [{"kind": "exact_set", "u": u, "n": 1}], "seed_bits": 0}
        ))

        for argv in (["verify"], ["encode", "--elements", "0"]):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "filterbounds", *argv, "--config", str(path)],
                env=child_env(), capture_output=True, text=True, timeout=10,
                preexec_fn=one_gib,
            )
            elapsed = time.perf_counter() - start
            assert done.returncode == 2, (argv, done.stderr[-500:])
            assert done.stderr.startswith("error:") and "mask bits" in done.stderr
            assert len(done.stderr.splitlines()) == 1
            assert elapsed < 1, (argv, elapsed)

    @pytest.mark.parametrize(
        "first",
        [NOISY22, {"kind": "exact_set", "u": 22, "n": 6}],
        ids=["two_noisy_exact", "exact_set_then_noisy_exact"],
    )
    def test_a_zoo_past_the_step_budget_together_exits_two_at_once(self, first, tmp_path):
        # each model alone is within STEP_BUDGET at 16 seed bits, but not the
        # zoo: two noisy_exact models swept for about 30 s
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"models": [first, NOISY22], "seed_bits": 16}))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "filterbounds", "verify", "--config", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=10,
            preexec_fn=one_gib,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 2, done.stderr[-500:]
        assert done.stderr.startswith("error:") and "before them exceed budget" in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert elapsed < 1, elapsed

    @pytest.mark.parametrize(
        "grid",
        [
            # 2 * 10**6 cells in a 3 KB config: it ran 24 s and then ran out
            # of a 1 GiB address space with a MemoryError traceback
            {"u": list(range(100, 200)), "n": list(range(1, 101)),
             "beta": [f"{k}/200" for k in range(1, 201)]},
            # 1,000 cells of about 2**17 bits each, 0.11 to 0.17 s apiece
            {"u": list(range(65536, 65546)), "n": list(range(32768, 32778)),
             "beta": [f"{k}/10" for k in range(1, 11)]},
        ],
        ids=["cells", "bits"],
    )
    def test_scaling_grid_past_the_budget_exits_two_at_once(self, grid, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"models": [{"kind": "exact_set", "u": 6, "n": 2}], "seed_bits": 2, "grid": grid}
        ))

        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "filterbounds", "verify", "--config", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=10,
            preexec_fn=one_gib,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 2, done.stderr[-500:]
        assert done.stderr.startswith("error:") and "binom_scaling grid" in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert elapsed < 1, elapsed

    def test_bounds_list_past_the_budget_exits_two_at_once(self, tmp_path):
        # 1,000 entries of about 2**17 bits each, every one within
        # MAX_EXACT_BITS, in a 66 KB config: checked one by one they would
        # run for minutes
        entry = {"check": "binom_scaling", "u": 65536, "n": 32768, "beta": "1"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bounds_checks": [entry] * 1000}))

        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "filterbounds", "bounds", "--config", str(path)],
            env=child_env(), capture_output=True, text=True, timeout=10,
            preexec_fn=one_gib,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 2, done.stderr[-500:]
        assert done.stdout == ""
        assert done.stderr.startswith("error: bounds config needs exact integers past")
        assert len(done.stderr.splitlines()) == 1
        assert elapsed < 1, elapsed

    @pytest.mark.parametrize(
        "entries, error",
        [
            # four entries of 2**17 bits fill the list budget; a fifth passes it
            ([{"check": "binom_scaling", "u": 65536, "n": 32768, "beta": "1"}] * 5,
             "bounds config needs exact integers past the budget of 524288 bits"),
            ([{"check": "space", "u": 2, "n": 1}] * 10001,
             "bounds config of 10001 entries exceeds budget 10000"),
            # an entry over its own budget, or one the check refuses, keeps
            # its own error line, although the list is over budget as well
            ([{"check": "space", "u": 16, "n": 4}] * 10
             + [{"check": "space", "u": 2 * 10**6, "n": 10**6}] * 10,
             "bad bounds check entry {'u': 2000000, 'n': 1000000}: space needs exact "
             "integers past the budget of 131072 bits"),
            ([{"check": "space", "u": 3, "n": 2}]
             + [{"check": "binom_scaling", "u": 65536, "n": 32768, "beta": "1"}] * 5,
             "bad bounds check entry {'u': 3, 'n': 2}: u=3 below 2n=4"),
            # entries are priced in order: the fifth passes the running sum
            # before the refused entry after it is read
            ([{"check": "binom_scaling", "u": 65536, "n": 32768, "beta": "1"}] * 5
             + [{"check": "space", "u": 3, "n": 2}],
             "bounds config needs exact integers past the budget of 524288 bits"),
        ],
        ids=["bits", "entries", "entry_over_its_budget", "refused_entry",
             "running_sum_before_a_refused_entry"],
    )
    def test_bounds_list_is_priced_before_its_first_check(
        self, entries, error, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("an entry was checked before the list was priced")

        monkeypatch.setattr(bounds, "check_binom_scaling", never)
        monkeypatch.setattr(bounds, "space_lower_bound", never)
        with pytest.raises(ConfigError) as refused:
            run_bounds({"bounds_checks": entries})
        assert str(refused.value) == error

    def test_scaling_grid_is_priced_cell_by_cell(self, tmp_path, monkeypatch, capsys):
        # the grid follows the bounds rule: its second cell is refused alone,
        # within the running sum's budget, before any cell is checked
        def never(*args):
            raise AssertionError("a cell was checked or a model swept before the grid was priced")

        monkeypatch.setattr(bounds, "check_binom_scaling", never)
        monkeypatch.setattr(reduction, "check_reduction", never)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"grid": {"u": [65536, 1000000], "n": [32768], "beta": ["1"]}}
        ))
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: config grid: binom_scaling needs exact integers past the budget of "
            "131072 bits\n"
        )

    def test_verify_certifies_sixteen_seed_bits(self, capsys):
        # one pass per seed class makes the widest admitted seed space cheap
        assert main(["verify", "--seed-bits", "16"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["passed"] is True
        assert blob["seed_bits"] == 16

    @pytest.mark.parametrize(
        "config, argv, digest",
        [
            (None, ["verify", "--seed-bits", "7"],
             "07fabf442235c6249b466fff5857a7e72a09edaac6842fea75443f23627472c1"),
            (None, ["verify", "--seed-bits", "16"],
             "a6ae459848cd23f2d19306172c91337e3f91e04ced342cbc6e9dd271d35acbe7"),
            (negative_control_config().resolved_dict(),
             ["verify", "--seed-bits", "7"],
             "5e710199f137365203ca5d448648202dd33c47c4e59d76a8c54470f1f45b440f"),
            ({"models": [
                {"kind": "exact_set", "u": 10, "n": 3, "eps_plus": "0"},
                {"kind": "noisy_exact", "u": 10, "n": 3, "eps_plus": "1/10",
                 "noise_m": 1},
            ]},
             ["verify", "--seed-bits", "8"],
             "e41a90847c8b5e654ade6b58913ac86b5b2e82e313cf973566891e79e4d60baf"),
            (None, ["encode", "--seed-bits", "6", "--elements", "1,3"],
             "120621fa05360df4f8c30a8901f3791dcc3cc886be2ffb826f65f897224a53c3"),
            (None, ["decode", "--seed-bits", "6", "--state", "5:01011/5:00000",
                    "--index", "0"],
             "a9c9f78563dc9b7356a934060106a4b1de6e0e617f67842558c9085e40ccf022"),
            (None, ["demo-violations", "--seed-bits", "8"],
             "be229f9ad7caf1214d848fcc7370f17fbb7a76fbcce93d066f9a942019cfd2ea"),
            (None, ["demo-violations", "--seed-bits", "16"],
             "1a6600b49682ea22950cc17fe98d3e109693d8ffb43a857e6104fa7993be2067"),
            (None, ["fp-rate", "--trials", "2000"],
             "54e4ec10e33368c5b26afa8ad84b58caf9c1cdccfc933bc80a6c049f1f824926"),
            (None, ["fp-rate", "--trials", "2000", "--format", "csv"],
             "ec1c906235d02d8623a5db49abcb3c1635052590c28d7bc60b5e94717bc96be3"),
            ({"bounds_checks": [
                {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5,
                 "eps_minus": "0", "p_fail": "0", "alpha": "2"},
                {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
                {"check": "space", "kind": "dynamic", "u": 16, "n": 4, "eps": "0"},
            ]},
             ["bounds"],
             "06102c0129ca88cb9c5672e0a58bcd81d93997e5587773af788c735335e9af83"),
            # eps_minus, p_fail, a non-integral beta * n and an nstatic
            # space entry with eps > 0, which the case above leaves default
            ({"bounds_checks": [
                {"check": "counting", "u": 9, "n": 3, "fspace_bits": 2,
                 "eps_minus": "1/4", "p_fail": "1/10", "alpha": "3/2"},
                {"check": "binom_scaling", "u": 16, "n": 5, "beta": "1/3"},
                {"check": "space", "u": 65536, "n": 16, "eps": "1/8"},
            ]},
             ["bounds"],
             "746f88ddbe9547ce35584e2588a48f5f47efa710d9717d79ee3dc4c46c6dab0c"),
        ],
        ids=["verify7", "verify16", "negative_control7", "zoo_u10_n3",
             "encode", "decode", "demo8", "demo16", "fp_rate_json",
             "fp_rate_csv", "bounds", "bounds_branches"],
    )
    def test_report_bytes_are_pinned(self, config, argv, digest, tmp_path, capsys):
        # the sha256 of each report's stdout, as the benchmark checks it;
        # a faster sweep must not move a single byte
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        expected_exit = 1 if "fingerprint" in json.dumps(config) else 0
        assert main(argv) == expected_exit
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "930aec3dc30e4cd04faaf0fb36f8acf6f1e909cfdc322b27e54c2687199e2a28"),
            (["fp-rate"],
             "b347366f5349ab37eba6823051a759ff9e5763dba0fc80230898a8f1749ad12c"),
            (["demo-violations"],
             "8611acfd9bb211364e8e3f5640ea9743f19ff3f227af897afd26f3efc7d7fc5a"),
            (["verify"],
             "6a56a06069c345c80f503158d13cf0f3afe4fcc8c3b7f24cb52f84632fca3933"),
            (["bounds"],
             "18debebd7eed7e72465d7f8009837ad0069a1af12bd61de32834a1d7fe5690e7"),
            (["encode"],
             "711fd74e8d0242707e8ef1c7af3235ec6b80cec1f20e05ce47999bfcba5372a0"),
            (["decode"],
             "83680f0ef8f6a56df42a35d9c99d2077d424b91ff2c72ecd7f96f98d00ef1e17"),
        ],
        ids=["top", "fp_rate", "demo", "verify", "bounds", "encode", "decode"],
    )
    def test_help_text_is_pinned(self, argv, digest, monkeypatch, capsys):
        # each subcommand lists only the options its runner reads
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_runs_as_a_module(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["filterbounds", "demo-violations"])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("filterbounds", run_name="__main__")
        assert stop.value.code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize(
        "argv, to_file",
        [
            (["fp-rate", "--trials", "500", "--format", "csv"], False),
            (["fp-rate", "--trials", "500", "--format", "csv"], True),
            (["encode", "--seed-bits", "6", "--elements", "1,3"], False),
            (["verify", "--seed-bits", "4"], False),
        ],
        ids=["fp_rate_csv", "fp_rate_csv_out", "encode", "verify"],
    )
    def test_child_process_matches_in_process_main(
        self, argv, to_file, tmp_path, capsys
    ):
        # the child exits through the frozen-heap teardown; its streams,
        # --out file and exit code must be those of main run in-process
        def outcome(label, run):
            out = tmp_path / label
            code, streams = run([*argv, "--out", str(out)] if to_file else argv)
            return code, streams, out.read_bytes() if to_file else None

        def child(args):
            done = subprocess.run([sys.executable, "-m", "filterbounds", *args],
                                  env=child_env(), capture_output=True, timeout=60)
            return done.returncode, (done.stdout, done.stderr)

        def in_process(args):
            code = main(args)
            captured = capsys.readouterr()
            return code, (captured.out.encode(), captured.err.encode())

        assert outcome("child", child) == outcome("main", in_process)

    def test_main_leaves_the_live_heap_unfrozen(self, capsys):
        # the freeze is an atexit hook; an in-process caller keeps its heap
        before = gc.get_freeze_count()
        assert main(["encode", "--seed-bits", "6", "--elements", "1,3"]) == 0
        assert gc.get_freeze_count() == before

    def test_exit_freezes_only_after_main(self, tmp_path):
        # a hook registered before main runs after main's freeze, at exit
        script = (
            "import atexit, gc, sys\n"
            "from filterbounds.cli import main\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            "if sys.argv[1:]:\n"
            "    main(sys.argv[1:])\n"
        )

        def frozen_at_exit(*args):
            done = subprocess.run([sys.executable, "-c", script, *args],
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=60)
            assert done.returncode == 0
            return int(done.stdout)

        assert frozen_at_exit() == 0
        out = str(tmp_path / "report.json")
        assert frozen_at_exit("demo-violations", "--out", out) > 0


DEFAULT_CONFIGS = [
    default_verify_config,
    negative_control_config,
    default_fp_config,
    default_demo_config,
]


class TestStartup:
    """What a command's process loads: never OpenSSL, argparse not for a
    plain line, the operation language and the demo only for
    demo-violations, and nothing new while verify runs."""

    def test_no_command_loads_openssl(self, tmp_path):
        checks = [{"check": "counting", "u": 8, "n": 2, "fspace_bits": 5}]
        config = tmp_path / "bounds.json"
        config.write_text(json.dumps({"bounds_checks": checks}))
        script = (
            "import contextlib, io, json, sys\n"
            "from filterbounds.cli import main\n"
            "def run(*argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(list(argv)) == 0, argv\n"
            "    return json.loads(out.getvalue())\n"
            "code = run('encode', '--seed-bits', '3', '--elements', '1,3')\n"
            "run('decode', '--seed-bits', '3', '--state', code['state'],"
            " '--index', code['index'])\n"
            "run('verify', '--seed-bits', '3')\n"
            "run('fp-rate', '--trials', '100')\n"
            "run('bounds', '--config', sys.argv[1])\n"
            "before_demo = sorted(sys.modules)\n"
            "run('demo-violations', '--seed-bits', '3')\n"
            "print(json.dumps([before_demo, sorted(sys.modules)]))\n"
        )
        done = subprocess.run([sys.executable, "-c", script, str(config)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        before_demo, loaded = json.loads(done.stdout)
        assert "_hashlib" not in loaded and "hashlib" not in loaded
        assert "argparse" not in loaded
        assert "filterbounds.sequences" not in before_demo
        assert "filterbounds.demo" not in before_demo
        assert "filterbounds.demo" in loaded

    def test_demo_violations_loads_no_bounds(self):
        # the demo checks no bound and codes no dataset
        script = (
            "import contextlib, io, json, sys\n"
            "from filterbounds.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['demo-violations', '--seed-bits', '3']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('filterbounds.'))))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert json.loads(done.stdout) == [
            f"filterbounds.{name}"
            for name in ("cli", "combinat", "core", "demo", "filters", "harness", "sequences")
        ]

    def test_verify_loads_no_module_past_the_tracer_imports(self):
        # the benchmark's tracer wraps the functions of the modules imported
        # here before verify runs; a module that verify loads later would
        # bind unwrapped copies and escape the trace
        script = (
            "import contextlib, io, json, sys\n"
            "from filterbounds import bounds, cli, harness, reduction, witness\n"
            "def package():\n"
            "    return {m for m in sys.modules if m.startswith('filterbounds.')}\n"
            "before = package()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--seed-bits', '3']) == 0\n"
            "print(json.dumps(sorted(package() - before)))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert json.loads(done.stdout) == []

    @pytest.mark.parametrize("make", DEFAULT_CONFIGS)
    def test_config_hash_is_the_sha256_prefix_of_the_canonical_config(self, make):
        cfg = make()
        canonical = json.dumps(cfg.resolved_dict(), sort_keys=True, separators=(",", ":"))
        assert cfg.config_hash() == hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def test_config_hash_falls_back_to_hashlib(self):
        # without the interpreter's own SHA-256 module hashlib gives the digest
        script = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from filterbounds import demo, harness\n"
            "assert harness.sha256 is hashlib.sha256\n"
            "for make in (harness.default_verify_config, harness.negative_control_config,\n"
            "             harness.default_fp_config, demo.default_demo_config):\n"
            "    print(make().config_hash())\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == [make().config_hash() for make in DEFAULT_CONFIGS]


def child_env():
    """The environment for a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(filters.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def one_gib():
    """Limit a child's address space to 1 GiB (a preexec_fn)."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# -- exit-code fuzz: argv and config JSON of the wrong type or range

# valid starting points; each fuzz case overwrites one or two of their fields
FUZZ_MODELS = (
    {"kind": "exact_set", "u": 6, "n": 2},
    {"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6", "noise_m": 1},
    {"kind": "fingerprint_multiset", "u": 8, "n": 2, "eps_plus": "1/2",
     "fingerprint_bits": 2, "collision_table": [[1, 0], [2, 0]]},
)
FUZZ_CHECKS = (
    {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5,
     "eps_minus": "0", "p_fail": "0", "alpha": "2"},
    {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
    {"check": "space", "kind": "dynamic", "u": 16, "n": 4, "eps": "0"},
)
CONFIG_KEYS = ("seed", "seed_bits", "trials", "alphas", "best_seed_alpha",
               "models", "negative_probe", "grid")
MODEL_KEYS = ("kind", "u", "n", "eps_plus", "noise_m", "fingerprint_bits",
              "collision_table")
CHECK_KEYS = ("check", "kind", "u", "n", "fspace_bits", "eps_minus", "p_fail",
              "alpha", "beta", "eps")
PROBE_KEYS = ("fspace_bits", "u", "n", "alpha", "eps_minus", "p_fail")
WRONG_SMALL = st.one_of(
    st.integers(-2, 9),
    st.sampled_from(
        [None, True, "x", "7", "1/2", "1/0", "-1", "3/2", 2.5, -1.5, [], [1], {},
         {"u": 1}, float("inf"), float("nan"), [[1, 0]], [[1, 9]], [[9, 0]],
         [[-1, 0], [2, 0]], [[1, 2, 3]], ["a"], "exact_set", "dynamic"]
    ),
)
WRONG = WRONG_SMALL | st.sampled_from([10**20, -(10**20), 20000, HUGE_ALPHA])


@st.composite
def fuzzed_config(draw, command):
    """A valid config with one or two fields overwritten."""
    if command == "bounds":
        entries = [dict(e) for e in draw(st.lists(st.sampled_from(FUZZ_CHECKS),
                                                  min_size=1, max_size=2))]
        config = {"bounds_checks": entries}
        targets = [(config, ("bounds_checks",))] + [(e, CHECK_KEYS) for e in entries]
    else:
        model = dict(draw(st.sampled_from(FUZZ_MODELS)))
        probe = dict(DEFAULT_NEGATIVE_PROBE)
        # the fields of the base that the command reads, as cli declares them
        base = {"seed_bits": 2, "models": [model], "negative_probe": probe}
        config = {key: value for key, value in base.items() if key in fields_read(command)}
        targets = [(config, CONFIG_KEYS), (model, MODEL_KEYS)]
        if "negative_probe" in config:
            targets.append((probe, PROBE_KEYS))
    for _ in range(draw(st.integers(1, 2))):
        target, keys = draw(st.sampled_from(targets))
        target[draw(st.sampled_from(keys))] = draw(WRONG)
    return config


# the flags each command takes, as cli declares them
FLAGS = {name: [opt.flag for opt in command.options] for name, command in cli._COMMANDS.items()}


@st.composite
def cli_calls(draw):
    """argv, config and whether --out points into a missing directory."""
    command = draw(st.sampled_from(
        ["fp-rate", "bounds", "encode", "decode", "verify", "demo-violations"]
    ))
    flags = FLAGS[command]
    argv = [command]
    fmt = draw(st.sampled_from([None, "json", "csv"])) if "--format" in flags else None
    if fmt is not None:
        argv += ["--format", fmt]
    config = draw(st.none() | fuzzed_config(command))
    if "--trials" in flags:
        argv += ["--trials", str(draw(st.integers(-1, 100)))]
    if "--seed-bits" in flags:
        argv += ["--seed-bits", str(draw(st.sampled_from([-1, 0, 2, 4, 17])))]
    if command == "encode":
        elements = st.sampled_from(["0,1", "1,3", "2", "7,8", "1,x", ""])
        argv += ["--elements", draw(elements)]
    elif command == "decode":
        # the first state is what encode prints for 1,3 at two seed bits
        states = st.sampled_from(["5:01011/5:00000", "garbage", "FAIL/FAIL", "1:2"])
        argv += ["--state", draw(states), "--index", str(draw(st.integers(-1, 20)))]
    return argv, config, draw(st.booleans())


@settings(deadline=None, max_examples=300)
@given(cli_calls())
@example((["verify", "--seed-bits", "2"], {"models": []}, False))
def test_cli_exit_code_contract_under_fuzzed_input(call):
    argv, config, out_missing = call
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [*argv, "--config", path]
        if out_missing:
            argv = [*argv, "--out", os.path.join(tmp, "missing", "report")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    # every command writes its report before it returns 0 or 1
    if out_missing:
        assert code == 2
    # stderr carries the one error line of exit 2 and nothing else
    if code in (0, 1):
        assert err.getvalue() == ""
    if code == 2:
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1


# the words a command line is drawn from: every command and flag, and the
# spellings and values that only argparse reads or refuses
COMMANDS = ["fp-rate", "demo-violations", "verify", "bounds", "encode", "decode"]
ARGV_VALUES = ["--seed-bits=7", "--seed", "-h", "--help", "--", "-1", "1e3", "+5", "1_0",
               "xml", "", "7", "json", "csv", "1,3", "5:01011/5:00000"]
ARGV_WORDS = [*COMMANDS, *dict.fromkeys(sum(FLAGS.values(), [])), *ARGV_VALUES]


@st.composite
def argv_lines(draw):
    """Any words at all, or a command followed by some of its own flags,
    each with a value that is three times in four one argparse accepts."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=7))
    command = draw(st.sampled_from(COMMANDS))
    flags = draw(st.permutations(FLAGS[command]))
    argv = [command]
    for flag in flags[:draw(st.integers(0, len(flags)))]:
        readable = ["json", "csv"] if flag == "--format" else ["7", "+5", "1_0", " 7 "]
        values = ARGV_VALUES if draw(st.integers(0, 3)) == 0 else readable
        argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(deadline=None, max_examples=200)
@given(argv_lines())
def test_quick_reader_builds_the_namespace_argparse_builds(argv):
    quick = cli._quick_args(argv)
    if quick is not None:
        parsed = cli._build_parser().parse_args(argv)  # exits on a line it refuses
        assert vars(parsed) == vars(quick)
        assert parsed.func is quick.func
