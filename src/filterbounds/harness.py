"""Experiment harness: configs, reports, and the verification suite.

Commands are driven by one declarative JSON config (overridable by CLI
flags).  Reports embed a hash of the resolved config and the master seed,
carry exact rationals as "p/q" strings, and contain no timestamps, so the
same config always produces byte-identical output.

Monte-Carlo runs draw 64-bit filter seeds; their workloads are generated
from a separate stream seeded before and independently of the filter
seeds, so the adversary stays oblivious.  Exhaustive runs enumerate a
small seed space in full and use rational arithmetic throughout.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import warnings as _warnings
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .bounds import (
    BoundsParams,
    DatasetCode,
    InvalidCode,
    NotGoodPair,
    check_binom_scaling,
    check_counting_bound,
    decode_dataset,
    encode_dataset,
    find_best_seed,  # unused here; perfbench's tracer test looks it up on this module
)
from .combinat import bounded_subset_count, frac_str, iter_subsets_of_size
from .core import (
    OpSequence,
    UniverseParams,
    _Record,
    format_sequence,
    parse_sequence,
)
from .filters import (
    FilterModel,
    FingerprintMultisetModel,
    ModelKind,
    draw_seed,
    make_model,
    run_sequence,
    seed_classes,
    seed_space,
)
from .reduction import (
    PairedStaticFilter,
    ReductionReport,
    check_reduction,
    parse_paired_state,
)
from .witness import SEED_BUDGET, witness_transform


class ConfigError(ValueError):
    """A config file or flag combination the harness cannot run."""


def parse_fraction(text: Any) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational literal {text!r}") from exc


class ModelSpec(
    _Record, defaults={"noise_m": 0, "fingerprint_bits": None, "collision_table": None}
):
    __slots__ = (
        "kind", "u", "n", "eps_plus", "noise_m", "fingerprint_bits", "collision_table",
    )

    def build(self) -> FilterModel:
        try:
            return make_model(
                self.kind,
                UniverseParams(self.u, self.n),
                self.eps_plus,
                noise_m=self.noise_m,
                fingerprint_bits=self.fingerprint_bits,
                collision_table=dict(self.collision_table or ()) or None,
            )
        except ValueError as exc:
            raise ConfigError(f"bad model spec: {exc}") from exc

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "kind": self.kind,
            "u": self.u,
            "n": self.n,
            "eps_plus": frac_str(self.eps_plus),
        }
        if self.noise_m:
            out["noise_m"] = self.noise_m
        if self.fingerprint_bits is not None:
            out["fingerprint_bits"] = self.fingerprint_bits
        if self.collision_table is not None:
            out["collision_table"] = [list(pair) for pair in self.collision_table]
        return out


def model_spec_from_dict(data: Mapping[str, Any]) -> ModelSpec:
    if not isinstance(data, Mapping):
        raise ConfigError(f"model spec must be an object, got {data!r}")
    try:
        kind = ModelKind(data["kind"]).value
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad model kind in {data!r}") from exc
    try:
        u = int(data["u"])
        n = int(data["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"model spec needs integer u and n: {data!r}") from exc
    table = data.get("collision_table")
    if table is not None:
        try:
            table = tuple((int(x), int(fp)) for x, fp in table)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad collision table {table!r}") from exc
    fp_bits = data.get("fingerprint_bits")
    try:
        noise_m = int(data.get("noise_m", 0))
        fp_bits = int(fp_bits) if fp_bits is not None else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"noise_m and fingerprint_bits must be integers: {data!r}"
        ) from exc
    return ModelSpec(
        kind=kind,
        u=u,
        n=n,
        eps_plus=parse_fraction(data.get("eps_plus", 0)),
        noise_m=noise_m,
        fingerprint_bits=fp_bits,
        collision_table=table,
    )


class GridSpec(_Record):
    __slots__ = ("u_values", "n_values", "beta_values")

    def to_dict(self) -> dict:
        return {
            "u": list(self.u_values),
            "n": list(self.n_values),
            "beta": [frac_str(b) for b in self.beta_values],
        }


DEFAULT_GRID = GridSpec(
    (16, 32, 64, 128),
    (4, 8, 16),
    (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)),
)

# a capacity-3-bit toy instance that must violate the counting bound
DEFAULT_NEGATIVE_PROBE = {"fspace_bits": 3, "u": 8, "n": 2, "alpha": "2"}


class ExperimentConfig(
    _Record,
    defaults={
        "seed": 20260823,
        "seed_bits": 8,
        "trials": 100_000,
        "alphas": (Fraction(3, 2), Fraction(2), Fraction(4)),
        "best_seed_alpha": Fraction(2),
        "models": (),
        "grid": DEFAULT_GRID,
        "negative_probe": None,
    },
):
    __slots__ = (
        "seed", "seed_bits", "trials", "alphas", "best_seed_alpha", "models",
        "grid", "negative_probe",
    )

    def resolved_dict(self) -> dict:
        out: dict[str, Any] = {
            "seed": self.seed,
            "seed_bits": self.seed_bits,
            "trials": self.trials,
            "alphas": [frac_str(a) for a in self.alphas],
            "best_seed_alpha": frac_str(self.best_seed_alpha),
            "models": [m.to_dict() for m in self.models],
            "grid": self.grid.to_dict(),
        }
        if self.negative_probe is not None:
            out["negative_probe"] = dict(self.negative_probe)
        return out

    def config_hash(self) -> str:
        canonical = json.dumps(
            self.resolved_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# the widest seed space check_enumeration_budget admits
MAX_SEED_BITS = SEED_BUDGET.bit_length() - 1


def config_from_dict(data: Mapping[str, Any], base: ExperimentConfig) -> ExperimentConfig:
    """Overlay a parsed config file onto a command's defaults."""
    unknown = set(data) - set(ExperimentConfig.__slots__)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key in ("alphas", "models"):
        if key in data and not isinstance(data[key], (list, tuple)):
            raise ConfigError(f"{key} must be a list")
    probe = data.get("negative_probe")
    if probe is not None and not isinstance(probe, Mapping):
        raise ConfigError("negative_probe must be an object")
    kwargs: dict[str, Any] = {}
    for key in ("seed", "seed_bits", "trials"):
        if key in data:
            try:
                kwargs[key] = int(data[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key} must be an integer") from exc
    if "alphas" in data:
        kwargs["alphas"] = tuple(parse_fraction(a) for a in data["alphas"])
    if "best_seed_alpha" in data:
        kwargs["best_seed_alpha"] = parse_fraction(data["best_seed_alpha"])
    if "models" in data:
        kwargs["models"] = tuple(model_spec_from_dict(m) for m in data["models"])
    if "grid" in data:
        g = data["grid"]
        try:
            kwargs["grid"] = GridSpec(
                tuple(int(v) for v in g["u"]),
                tuple(int(v) for v in g["n"]),
                tuple(parse_fraction(v) for v in g["beta"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid {g!r}") from exc
    if "negative_probe" in data:
        kwargs["negative_probe"] = data["negative_probe"]
    replacements = {**_config_kwargs(base), **kwargs}
    cfg = ExperimentConfig(**replacements)
    if not 0 <= cfg.seed_bits <= MAX_SEED_BITS:
        raise ConfigError(
            f"seed_bits must lie in [0, {MAX_SEED_BITS}] for exhaustive commands"
        )
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    return cfg


def _config_kwargs(cfg: ExperimentConfig) -> dict:
    return {name: getattr(cfg, name) for name in ExperimentConfig.__slots__}


def default_verify_config() -> ExperimentConfig:
    """Exhaustive zoo: the two correct models at u=6, n=2, 8-bit seeds."""
    return ExperimentConfig(
        models=(
            ModelSpec("exact_set", 6, 2, Fraction(0)),
            ModelSpec("noisy_exact", 6, 2, Fraction(1, 6), noise_m=1),
        ),
        negative_probe=DEFAULT_NEGATIVE_PROBE,
    )


def negative_control_config() -> ExperimentConfig:
    """The broken model passed off as correct; the suite must reject it."""
    cfg = default_verify_config()
    return ExperimentConfig(
        **{
            **_config_kwargs(cfg),
            "models": cfg.models
            + (ModelSpec("fingerprint_multiset", 6, 2, Fraction(1, 2)),),
        }
    )


def default_fp_config() -> ExperimentConfig:
    return ExperimentConfig(
        models=(ModelSpec("fingerprint_multiset", 1 << 16, 16, Fraction(1, 8)),),
        trials=100_000,
    )


def default_demo_config() -> ExperimentConfig:
    return ExperimentConfig(
        models=(
            ModelSpec(
                "fingerprint_multiset",
                8,
                2,
                Fraction(1, 2),
                collision_table=((1, 0), (2, 0)),
            ),
        ),
    )


def wilson_interval(hits: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95 percent Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = hits / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


def run_fp_experiment(cfg: ExperimentConfig) -> dict:
    """Monte-Carlo false-positive rate of the fingerprint scheme.

    The workload (one stored dataset, one nonmember and one member query
    per trial) comes from its own stream, fixed before any filter seed is
    drawn.  Each trial uses a fresh 64-bit filter seed.  The pass flag
    requires the measured rate to sit within three binomial standard
    deviations above eps_plus and the member queries to all answer 1.
    """
    if not cfg.models:
        raise ConfigError("fp experiment needs a model spec")
    model = cfg.models[0].build()
    if not isinstance(model, FingerprintMultisetModel):
        raise ConfigError("fp experiment runs on the fingerprint model")
    u, n = model.params.u, model.params.n
    if n >= u:
        raise ConfigError("fp experiment needs nonmembers, so n < u")
    if u > sys.maxsize:
        raise ConfigError(f"fp experiment samples from u <= {sys.maxsize}, got {u}")
    trials = cfg.trials
    workload_rng = random.Random(f"fp-workload:{cfg.seed}")
    dataset = sorted(workload_rng.sample(range(u), n))
    member_set = set(dataset)
    seed_rng = random.Random(f"fp-seeds:{cfg.seed}")
    fp_hits = 0
    member_hits = 0
    for t in range(trials):
        # the two streams are independent, so drawing each nonmember here
        # gives the same values as drawing them all before the first seed
        nonmember = workload_rng.randrange(u)
        while nonmember in member_set:
            nonmember = workload_rng.randrange(u)
        seed = draw_seed(seed_rng, 64)
        state = model.state_for_elements(seed, dataset)
        if state.fail:
            continue  # cannot happen for a plain insert run of n elements
        fp_hits += model.query_bit(seed, state, nonmember)
        member_hits += model.query_bit(seed, state, dataset[t % n])
    eps = float(model.eps_plus)
    cushion = 3 * math.sqrt(eps * (1 - eps) / trials)
    ci_low, ci_high = wilson_interval(fp_hits, trials)
    fp_rate = fp_hits / trials
    passed = fp_rate <= eps + cushion and ci_low <= eps and member_hits == trials
    return {
        "command": "fp-rate",
        "u": u,
        "n": n,
        "eps_plus": frac_str(model.eps_plus),
        "ell": model.fp_bits,
        "trials": trials,
        "fp_hits": fp_hits,
        "fp_rate": fp_rate,
        "ci95_low": ci_low,
        "ci95_high": ci_high,
        "bound_with_cushion": eps + cushion,
        "completeness_rate": frac_str(Fraction(member_hits, trials)),
        "passed": passed,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
    }


FP_CSV_COLUMNS = [
    "u", "n", "eps_plus", "ell", "trials", "fp_rate", "ci95_low", "ci95_high",
]


def fp_report_csv(report: Mapping[str, Any]) -> str:
    header = ",".join(FP_CSV_COLUMNS)
    row = ",".join(str(report[c]) for c in FP_CSV_COLUMNS)
    return f"{header}\n{row}\n"


def _demo_sequences(u: int, n: int, x: int, y: int) -> dict[str, OpSequence]:
    fn_text = f"u={u} n={n}\ninit\nins {y}\ndel {x}\nquery {y}\n"
    fp_text = f"u={u} n={n}\ninit\nins {x}\nins {x}\ndel {x}\nquery {x}\n"
    return {
        "false_negative": parse_sequence(fn_text),
        "false_positive": parse_sequence(fp_text),
    }


def run_violation_demo(cfg: ExperimentConfig) -> dict:
    """Deterministic failure demonstrations for the fingerprint scheme.

    With a forced fingerprint collision between x and y, deleting absent x
    right after inserting y erases y (a false negative on a member), and a
    duplicate insert of x followed by one delete leaves x visible in the
    empty dataset (a false positive).  Both events must occur for every
    seed; the same sequences on an exact-set model must show nothing.
    Each model runs the sequences once per seed class, weighted by its size.
    """
    if not cfg.models:
        raise ConfigError("violation demo needs a model spec")
    spec = cfg.models[0]
    model = spec.build()
    if not isinstance(model, FingerprintMultisetModel) or not model.collision_table:
        raise ConfigError("violation demo needs a fingerprint model with a collision table")
    colliders = sorted(model.collision_table)
    if len(colliders) < 2:
        raise ConfigError("collision table must force at least two elements together")
    x, y = colliders[0], colliders[1]
    if model.collision_table[x] != model.collision_table[y]:
        raise ConfigError("the first two collision table entries must collide")
    seqs = _demo_sequences(model.params.u, model.params.n, x, y)
    control = make_model("exact_set", model.params)
    seeds = list(seed_space(cfg.seed_bits))

    def events(m: FilterModel) -> tuple[int, int]:
        # seeds whose false-negative run ends in 0 and false-positive run in 1
        fn = fp = 0
        for seed, weight in seed_classes(m, seeds):
            fn += weight * (run_sequence(m, seed, seqs["false_negative"])[1][-1] == 0)
            fp += weight * (run_sequence(m, seed, seqs["false_positive"])[1][-1] == 1)
        return fn, fp

    fn_events, fp_events = events(model)
    control_fn, control_fp = events(control)
    total = len(seeds)
    fn_freq = Fraction(fn_events, total)
    fp_freq = Fraction(fp_events, total)
    passed = (
        fn_freq == 1
        and fp_freq == 1
        and control_fn == 0
        and control_fp == 0
    )
    return {
        "command": "demo-violations",
        "model": model.describe(),
        "collision_pair": [x, y],
        "seed_bits": cfg.seed_bits,
        "sequences": {
            name: format_sequence(seq) for name, seq in seqs.items()
        },
        "false_negative_frequency": frac_str(fn_freq),
        "false_positive_frequency": frac_str(fp_freq),
        "control_model": control.describe(),
        "control_false_negative_frequency": frac_str(Fraction(control_fn, total)),
        "control_false_positive_frequency": frac_str(Fraction(control_fp, total)),
        "passed": passed,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
    }


class CheckResult(_Record, frozen=False, defaults={"details": dict}):
    __slots__ = ("name", "passed", "details")

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


class VerificationReport(_Record, frozen=False):
    __slots__ = ("suite", "checks", "warnings", "seed_bits", "config_hash")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "check_count": len(self.checks),
            "checks": [c.to_json_dict() for c in self.checks],
            "warnings": self.warnings,
            "seed_bits": self.seed_bits,
            "config_hash": self.config_hash,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _sticky_check(model: FilterModel, report: ReductionReport) -> CheckResult:
    # a false positive of a live pair is exactly a wrong yes at the full
    # state that the emptied state drops, i.e. what check_sticky returns
    details = {
        "cells": report.seed_count * report.dataset_count,
        "violations": report.false_positive_count,
        "failed_cells": report.failed_pairs,
    }
    if report.first_false_positive:
        seed, dataset, elements = report.first_false_positive
        details["example"] = {
            "seed": seed.value,
            "dataset": list(dataset),
            "elements": elements,
        }
    return CheckResult(
        f"sticky[{model.describe()}]", report.false_positive_count == 0, details
    )


def counting_inputs(entry: Mapping[str, Any]) -> tuple[int, BoundsParams]:
    """(fspace_bits, params) of a counting-bound entry: u, n and fspace_bits,
    with alpha 2, eps_minus 0 and p_fail 0 unless given.

    Raises KeyError, TypeError or ValueError on a missing or bad field.
    """
    params = BoundsParams(
        u=int(entry["u"]),
        n=int(entry["n"]),
        alpha=parse_fraction(entry.get("alpha", "2")),
        eps_minus=parse_fraction(entry.get("eps_minus", "0")),
        p_fail=parse_fraction(entry.get("p_fail", "0")),
    )
    return int(entry["fspace_bits"]), params


def _measured_params(
    spec: ModelSpec, report: ReductionReport, alpha: Fraction
) -> BoundsParams:
    return BoundsParams(
        u=spec.u,
        n=spec.n,
        eps_minus=report.max_false_negative_rate,
        p_fail=report.fail_fraction,
        alpha=alpha,
    )


def _coding_check(
    model: FilterModel, params: BoundsParams, report: ReductionReport
) -> CheckResult:
    static = PairedStaticFilter(model)
    best = report.best_seed(params)
    u, n = model.params.u, model.params.n
    codes: set[tuple[Any, int]] = set()
    roundtrip_failures = 0
    index_bound = bounded_subset_count(u, params.fn_limit)
    index_ok = True
    good = 0
    for dataset in iter_subsets_of_size(u, n):
        try:
            code = encode_dataset(static, params, best.seed, dataset)
        except ValueError:
            continue
        good += 1
        codes.add((code.state, code.index))
        if code.index >= index_bound:
            index_ok = False
        decoded = decode_dataset(static, params, best.seed, code)
        if decoded != frozenset(dataset):
            roundtrip_failures += 1
    passed = (
        best.meets_bound
        and roundtrip_failures == 0
        and len(codes) == good
        and good == best.good_count
        and index_ok
    )
    return CheckResult(
        f"dataset_coding[{model.describe()}]",
        passed,
        {
            "best_seed": best.seed.value,
            "good_count": best.good_count,
            "required": frac_str(best.required),
            "distinct_codes": len(codes),
            "roundtrip_failures": roundtrip_failures,
        },
    )


def run_verification_suite(cfg: ExperimentConfig) -> VerificationReport:
    """All exhaustive checks for the configured model zoo.

    Per model (wrapped in the witness transform), one check_reduction
    sweep over every seed and dataset feeds the sticky check, the
    paired-filter certification, the best-seed dataset coding with
    injectivity and round-trip, and the counting bound at each configured
    alpha using the measured space and error rates.
    Followed by the negative probe (a capacity the counting bound must
    reject) and the binomial scaling grid, both evaluated before the first
    sweep so that a bad one fails fast.  An empty zoo yields zero checks
    and a warning.
    """
    checks: list[CheckResult] = []
    warn_messages: list[str] = []
    if not cfg.models:
        message = "no models configured; verification suite has nothing to check"
        _warnings.warn(message, stacklevel=2)
        warn_messages.append(message)
        return VerificationReport(
            "verification", checks, warn_messages, cfg.seed_bits, cfg.config_hash()
        )
    probe_result = None
    if cfg.negative_probe is not None:
        try:
            probe = counting_inputs(cfg.negative_probe)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad negative probe {cfg.negative_probe!r}") from exc
        probe_result = check_counting_bound(*probe)
    grid_results = [
        check_binom_scaling(u, n, beta)
        for u in cfg.grid.u_values
        for n in cfg.grid.n_values
        for beta in cfg.grid.beta_values
    ]
    seeds = list(seed_space(cfg.seed_bits))
    for spec in cfg.models:
        base = spec.build()
        model = witness_transform(base)
        report = check_reduction(model, seeds)
        checks.append(_sticky_check(model, report))
        reduction_ok = (
            report.false_positive_count == 0
            and report.completeness_violations == 0
            and report.max_false_negative_rate <= base.eps_plus
            and report.fn_matches_delete_fp
            and report.space_pair_bits <= report.space_budget_bits
            and report.fail_fraction == 0
        )
        checks.append(
            CheckResult(
                f"reduction[{model.describe()}]",
                reduction_ok,
                report.to_json_dict(),
            )
        )
        measured = _measured_params(spec, report, cfg.best_seed_alpha)
        checks.append(_coding_check(model, measured, report))
        counting = [
            check_counting_bound(
                report.space_pair_bits, _measured_params(spec, report, alpha)
            )
            for alpha in cfg.alphas
        ]
        checks.append(
            CheckResult(
                f"counting_bound[{model.describe()}]",
                all(r.holds for r in counting),
                {"results": [r.to_json_dict() for r in counting]},
            )
        )
    if probe_result is not None:
        checks.append(
            CheckResult(
                "counting_bound_negative_probe",
                not probe_result.holds,
                probe_result.to_json_dict(),
            )
        )
    checks.append(
        CheckResult(
            "binom_scaling_grid",
            all(r.holds for r in grid_results),
            {
                "cells": len(grid_results),
                "failures": [
                    r.to_json_dict() for r in grid_results if not r.holds
                ],
            },
        )
    )
    return VerificationReport(
        "verification", checks, warn_messages, cfg.seed_bits, cfg.config_hash()
    )


def run_encode(cfg: ExperimentConfig, elements: Sequence[int]) -> dict:
    """Code a dataset under the deterministic best seed of the config zoo."""
    static, params, best = _coding_context(cfg)
    dataset = sorted(elements)
    u, n = static.params.u, static.params.n
    if len(set(dataset)) != n or not all(0 <= x < u for x in dataset):
        raise ConfigError(
            f"encode needs {n} distinct elements of [0, {u}), got {dataset}"
        )
    code = encode_dataset(static, params, best.seed, dataset)
    return {
        "command": "encode",
        "model": static.describe(),
        "seed": {"value": best.seed.value, "bits": best.seed.bits},
        "dataset": dataset,
        "state": code.state.serialize(),
        "index": str(code.index),
        "config_hash": cfg.config_hash(),
    }


def run_decode(cfg: ExperimentConfig, state_text: str, index: int) -> dict:
    """Invert run_encode from its printed state and index."""
    static, params, best = _coding_context(cfg)
    code = DatasetCode(parse_paired_state(state_text), index)
    dataset = sorted(decode_dataset(static, params, best.seed, code))
    # decoding reads any state, so a code counts only if encoding what it
    # decodes to prints it back
    try:
        valid = len(dataset) == static.params.n and (
            encode_dataset(static, params, best.seed, dataset) == code
        )
    except NotGoodPair:
        valid = False
    if not valid:
        raise InvalidCode(f"state {state_text} with index {index} is no dataset's code")
    return {
        "command": "decode",
        "model": static.describe(),
        "seed": {"value": best.seed.value, "bits": best.seed.bits},
        "state": state_text,
        "index": str(index),
        "dataset": dataset,
        "config_hash": cfg.config_hash(),
    }


def _coding_context(
    cfg: ExperimentConfig,
) -> tuple[PairedStaticFilter, BoundsParams, Any]:
    if not cfg.models:
        raise ConfigError("encode/decode need a model spec")
    spec = cfg.models[0]
    model = witness_transform(spec.build())
    static = PairedStaticFilter(model)
    report = check_reduction(model, list(seed_space(cfg.seed_bits)))
    params = _measured_params(spec, report, cfg.best_seed_alpha)
    return static, params, report.best_seed(params)
