"""Experiment harness: configs, reports, and the verification suite.

Commands are driven by one declarative JSON config (overridable by CLI
flags).  Reports embed a hash of the resolved config and the master seed,
carry exact rationals as "p/q" strings, and contain no timestamps, so the
same config always produces byte-identical output.

Monte-Carlo runs draw 64-bit filter seeds; their workloads are generated
from a separate stream seeded before and independently of the filter
seeds, so the adversary stays oblivious.  Exhaustive runs enumerate a
small seed space in full and use rational arithmetic throughout.

Every command imports this module, so it holds only what they share and
the runners of fp-rate, verify, encode and decode.  The demo-violations
runner and its default config are in filterbounds.demo, which cli imports
only for that command.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .bounds import (
    BoundKind,
    BoundsParams,
    CountingBoundResult,
    DatasetCode,
    InvalidCode,
    NotGoodPair,
    SpaceBound,
    check_binom_scaling,
    check_counting_bound,
    decode_dataset,
    encode_dataset,
    find_best_seed,  # unused here; perfbench's tracer test looks it up on this module
    space_lower_bound,
)
from .combinat import bounded_subset_count, frac_str, iter_subsets_of_size
from .core import UniverseParams, _Record
from .filters import (
    ExactSetModel,
    FilterModel,
    FingerprintMultisetModel,
    NoisyExactModel,
    draw_seed,
    seed_space,
)
from .reduction import (
    PairedStaticFilter,
    ReductionReport,
    check_reduction,
    parse_paired_state,
)
from .witness import SEED_BUDGET, witness_transform

# hashlib loads OpenSSL, which costs every command milliseconds and
# megabytes for one short digest; the interpreter's own SHA-256 module
# gives the same digest, as random.py does for its _sha512
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(ValueError):
    """A config file or flag combination the harness cannot run."""


def parse_fraction(text: Any) -> Fraction:
    """Parse 'p/q', 'p', an int or a float into an exact Fraction; a bool is no number."""
    if not isinstance(text, bool):
        try:
            return Fraction(text if isinstance(text, (int, Fraction)) else str(text).strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"bad rational literal {text!r}")


def _integer(value: Any) -> int:
    # a bool is an int to Python, and int() would truncate a float or parse a string
    if type(value) is not int:
        raise ConfigError(f"must be an integer, got {value!r}")
    return value


def _under(path: str, exc: ValueError) -> ConfigError:
    # a list entry's "[i]" or a nested object's " key" extends the path;
    # any other error text is what is wrong with the value at the path
    text = str(exc)
    return ConfigError(f"{path}{text}" if text[:1] in "[ " else f"{path}: {text}")


def _list_of(parse: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    def read(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"must be a list, got {value!r}")
        items = []
        for i, item in enumerate(value):
            try:
                items.append(parse(item))
            except ValueError as exc:
                raise _under(f"[{i}]", exc) from exc
        return tuple(items)

    return read


def _optional(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else parse(value)


def _read_fields(
    obj: Any, what: str, parsers: Mapping[str, Callable], required: Sequence[str] = ()
) -> dict[str, Any]:
    """The fields of config object obj, each value run through its parser; a
    non-object, an unknown or missing key or a refused value raises ConfigError.
    A nested object is read with what="", so its errors continue its key's."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{what} must be an object, got {obj!r}")
    unknown = [key for key in obj if key not in parsers]
    if unknown:
        raise ConfigError(f"{what} takes no {unknown}; its keys are {sorted(parsers)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{what} needs {missing}")
    fields = {}
    for key, value in obj.items():
        try:
            fields[key] = parsers[key](value)
        except ValueError as exc:
            raise _under(f"{what} {key}", exc) from exc
    return fields


def _kind_fields(obj: Any, what: str, tag: str, tables: Mapping[str, tuple]) -> dict[str, Any]:
    """_read_fields under tables[obj[tag]], a tuple that ends (parsers, required)."""
    if not isinstance(obj, Mapping):
        return _read_fields(obj, what, {})  # refuses the non-object
    kind = obj.get(tag)
    if kind not in list(tables):
        raise ConfigError(f"{what} {tag}: must be one of {list(tables)}, got {kind!r}")
    *_, parsers, required = tables[kind]
    return _read_fields(obj, f"{kind} {what}", {tag: str, **parsers}, required)


class ModelSpec(
    _Record, defaults={"noise_m": 0, "fingerprint_bits": None, "collision_table": None}
):
    __slots__ = (
        "kind", "u", "n", "eps_plus", "noise_m", "fingerprint_bits", "collision_table",
    )

    def build(self) -> FilterModel:
        if self.n > self.u:
            raise ConfigError(f"bad model spec: n={self.n} exceeds u={self.u}")
        model, parsers, _ = _MODEL_FIELDS[self.kind]
        extra = {key: getattr(self, key) for key in parsers if key not in _SHAPE}
        try:
            return model(UniverseParams(self.u, self.n), self.eps_plus, **extra)
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


def _collision_table(value: Any) -> tuple[tuple[int, int], ...]:
    table = _list_of(_list_of(_integer))(value)
    if any(len(pair) != 2 for pair in table):
        raise ConfigError(f"must hold [element, fingerprint] pairs, got {value!r}")
    if len({x for x, _ in table}) < len(table):
        raise ConfigError(f"repeats an element: {value!r}")
    return table


_SHAPE = {"u": _integer, "n": _integer, "eps_plus": parse_fraction}
# model kind: (model class, its parsers, required keys); a key past _SHAPE
# is passed to the class by name
_MODEL_FIELDS = {
    "exact_set": (ExactSetModel, _SHAPE, ("u", "n")),
    "noisy_exact": (NoisyExactModel, {**_SHAPE, "noise_m": _integer}, ("u", "n")),
    "fingerprint_multiset": (FingerprintMultisetModel, {
        **_SHAPE,
        "fingerprint_bits": _optional(_integer),
        "collision_table": _optional(_collision_table),
    }, ("u", "n")),
}


def model_spec_from_dict(data: Mapping[str, Any]) -> ModelSpec:
    fields = _kind_fields(data, "model spec", "kind", _MODEL_FIELDS)
    return ModelSpec(**{"eps_plus": Fraction(0), **fields})


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

# a counting-bound entry: alpha 2, eps_minus 0 and p_fail 0 unless given
_COUNTING = (
    {"u": _integer, "n": _integer, "fspace_bits": _integer,
     "alpha": parse_fraction, "eps_minus": parse_fraction, "p_fail": parse_fraction},
    ("u", "n", "fspace_bits"),
)


def _counting_bound(fspace_bits: int, **params: Any) -> CountingBoundResult:
    return check_counting_bound(fspace_bits, BoundsParams(**params))


def _space_bound(kind: Any = "nstatic", eps: Fraction = Fraction(0), **shape: int) -> SpaceBound:
    return space_lower_bound(kind, eps=eps, **shape)


# check name: (function, its parsers, required keys)
_BOUNDS_CHECKS = {
    "counting": (_counting_bound, *_COUNTING),
    "binom_scaling": (
        check_binom_scaling,
        {"u": _integer, "n": _integer, "beta": parse_fraction},
        ("u", "n", "beta"),
    ),
    "space": (
        _space_bound,
        {"kind": BoundKind, "u": _integer, "n": _integer, "eps": parse_fraction},
        ("u", "n"),
    ),
}


def bounds_checks_from_dict(data: Mapping[str, Any]) -> list:
    """The (check, its keyword arguments) pairs of a bounds config's entries."""
    entry = _list_of(lambda obj: _kind_fields(obj, "bounds check", "check", _BOUNDS_CHECKS))
    entries = _read_fields(data, "bounds config", {"bounds_checks": entry}).get("bounds_checks")
    if not entries:
        raise ConfigError("bounds needs a config with a bounds_checks list")
    return [(_BOUNDS_CHECKS[fields.pop("check")][0], fields) for fields in entries]


def _grid(value: Any) -> GridSpec:
    ints = _list_of(_integer)
    fields = _read_fields(value, "", {"u": ints, "n": ints, "beta": _list_of(parse_fraction)},
                          ("u", "n", "beta"))
    return GridSpec(fields["u"], fields["n"], fields["beta"])


def _probe(value: Any) -> Any:
    _read_fields(value, "", *_COUNTING)
    return value  # stored and hashed as given


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
        return sha256(canonical.encode()).hexdigest()[:16]


# the widest seed space check_enumeration_budget admits
MAX_SEED_BITS = SEED_BUDGET.bit_length() - 1


_CONFIG_FIELDS = {
    "seed": _integer, "seed_bits": _integer, "trials": _integer,
    "alphas": _list_of(parse_fraction), "best_seed_alpha": parse_fraction,
    "models": _list_of(model_spec_from_dict), "grid": _grid, "negative_probe": _optional(_probe),
}


def config_from_dict(data: Mapping[str, Any], base: ExperimentConfig) -> ExperimentConfig:
    """Overlay a parsed config file onto a command's defaults."""
    fields = _read_fields(data, "config", _CONFIG_FIELDS)
    cfg = ExperimentConfig(**{**_config_kwargs(base), **fields})
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


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95 percent Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # the two-sided 95 percent quantile of the standard normal
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


def _sticky_check(model: FilterModel, report: ReductionReport) -> dict:
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
    return {
        "name": f"sticky[{model.describe()}]",
        "passed": report.false_positive_count == 0,
        "details": details,
    }


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
) -> dict:
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
    return {
        "name": f"dataset_coding[{model.describe()}]",
        "passed": passed,
        "details": {
            "best_seed": best.seed.value,
            "good_count": best.good_count,
            "required": frac_str(best.required),
            "distinct_codes": len(codes),
            "roundtrip_failures": roundtrip_failures,
        },
    }


def run_verification_suite(cfg: ExperimentConfig) -> dict:
    """All exhaustive checks for the configured model zoo, as the report
    verify prints: each check a {"name", "passed", "details"} dict.

    Per model (wrapped in the witness transform), one check_reduction
    sweep over every seed and dataset feeds the sticky check, the
    paired-filter certification, the best-seed dataset coding with
    injectivity and round-trip, and the counting bound at each configured
    alpha using the measured space and error rates.
    Followed by the negative probe (a capacity the counting bound must
    reject) and the binomial scaling grid.  Both are evaluated, every model
    is built and every alpha is checked before the first sweep, so that bad
    input fails fast.  An empty zoo yields zero checks and one entry in the
    report's warnings, which verify also prints on stderr.
    """
    empty_zoo = "no models configured; verification suite has nothing to check"
    checks = _zoo_checks(cfg) if cfg.models else []
    return {
        "suite": "verification",
        "passed": all(check["passed"] for check in checks),
        "check_count": len(checks),
        "checks": checks,
        "warnings": [] if cfg.models else [empty_zoo],
        "seed_bits": cfg.seed_bits,
        "config_hash": cfg.config_hash(),
    }


def _zoo_checks(cfg: ExperimentConfig) -> list[dict]:
    probe_result = None
    if cfg.negative_probe is not None:
        probe = _read_fields(cfg.negative_probe, "negative_probe", *_COUNTING)
        probe_result = _counting_bound(**probe)
    grid_results = [
        check_binom_scaling(u, n, beta)
        for u in cfg.grid.u_values
        for n in cfg.grid.n_values
        for beta in cfg.grid.beta_values
    ]
    bases = [spec.build() for spec in cfg.models]
    for alpha in (cfg.best_seed_alpha, *cfg.alphas):
        BoundsParams(1, 1, alpha=alpha)  # refuses an alpha <= 1 before any sweep
    seeds = list(seed_space(cfg.seed_bits))
    checks = []
    for spec, base in zip(cfg.models, bases):
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
        checks.append({
            "name": f"reduction[{model.describe()}]",
            "passed": reduction_ok,
            "details": report.to_json_dict(),
        })
        measured = _measured_params(spec, report, cfg.best_seed_alpha)
        checks.append(_coding_check(model, measured, report))
        counting = [
            check_counting_bound(
                report.space_pair_bits, _measured_params(spec, report, alpha)
            )
            for alpha in cfg.alphas
        ]
        checks.append({
            "name": f"counting_bound[{model.describe()}]",
            "passed": all(r.holds for r in counting),
            "details": {"results": [r.to_json_dict() for r in counting]},
        })
    if probe_result is not None:
        checks.append({
            "name": "counting_bound_negative_probe",
            "passed": not probe_result.holds,
            "details": probe_result.to_json_dict(),
        })
    checks.append({
        "name": "binom_scaling_grid",
        "passed": all(r.holds for r in grid_results),
        "details": {
            "cells": len(grid_results),
            "failures": [r.to_json_dict() for r in grid_results if not r.holds],
        },
    })
    return checks


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
