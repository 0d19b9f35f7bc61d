"""Config plumbing, experiment runners, verification suite, CLI."""

import json
from fractions import Fraction

import pytest

from filterbounds.bounds import BoundsParams, find_best_seed
from filterbounds.cli import main
from filterbounds.combinat import iter_subsets_of_size
from filterbounds.filters import ExactSetModel, FailStateError, seed_space
from filterbounds.harness import (
    ConfigError,
    DEFAULT_NEGATIVE_PROBE,
    ExperimentConfig,
    GridSpec,
    ModelSpec,
    config_from_dict,
    default_demo_config,
    default_fp_config,
    default_verify_config,
    fp_report_csv,
    model_spec_from_dict,
    negative_control_config,
    parse_fraction,
    run_decode,
    run_encode,
    run_fp_experiment,
    run_verification_suite,
    run_violation_demo,
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

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"u": [8]}}, default_verify_config())

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


class TestVerificationSuite:
    def test_default_zoo_passes(self):
        report = run_verification_suite(default_verify_config())
        assert report.passed
        assert len(report.checks) == 10
        names = [c.name for c in report.checks]
        assert names[-2:] == ["counting_bound_negative_probe", "binom_scaling_grid"]
        assert sum(1 for n in names if n.startswith("sticky[")) == 2

    def test_negative_control_fails_where_expected(self):
        report = run_verification_suite(negative_control_config())
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert any("fingerprint_multiset" in name for name in failing)
        clean = {c.name for c in report.checks if c.passed}
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
        details = {c.name: c.details for c in run_verification_suite(cfg).checks}
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

    def test_empty_zoo_warns_and_checks_nothing(self):
        cfg = config_from_dict({"models": []}, default_verify_config())
        with pytest.warns(UserWarning):
            report = run_verification_suite(cfg)
        assert report.checks == []
        assert report.warnings
        assert report.passed  # vacuously

    def test_report_json_stable(self):
        cfg = config_from_dict(
            {"models": [{"kind": "exact_set", "u": 5, "n": 2}], "seed_bits": 2},
            default_verify_config(),
        )
        report = run_verification_suite(cfg)
        assert report.to_json() == run_verification_suite(cfg).to_json()
        blob = json.loads(report.to_json())
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


class TestCli:
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

    def test_bad_elements_exit_two(self, capsys):
        assert main(["encode", "--elements", "1,banana"]) == 2
