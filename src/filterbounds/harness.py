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
the runners of fp-rate, verify, bounds, encode and decode.  The sweep of
verify, encode and decode, the checks read off its report and the coder are
in filterbounds.reduction, which those runners import when they run, so
fp-rate and bounds load neither it nor witness.  Those runners and that of
bounds import filterbounds.bounds when they run, too, so fp-rate and
demo-violations load no bounds.  The demo-violations runner and its default
config are in filterbounds.demo, which cli imports only for that command.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .combinat import frac_str
from .core import DATASET_BUDGET, SEED_BUDGET, ConfigError, UniverseParams, _Record, _set
from .filters import ExactSetModel, FilterModel, FingerprintMultisetModel, NoisyExactModel, Seed

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


def __getattr__(name: str) -> Any:
    # perfbench's rebind test looks up bounds.find_best_seed on this module;
    # a module-level import would load bounds on every command (PEP 562)
    if name != "find_best_seed":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .bounds import find_best_seed

    return find_best_seed


# a decimal exponent in the syntax Fraction accepts
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


def parse_fraction(text: Any) -> Fraction:
    """Parse 'p/q', 'p', an int or a float into an exact Fraction; a bool is no number.

    Fraction builds 10**exponent before it checks anything, which takes
    minutes at nine exponent digits.  A literal whose exponent passes the
    int-to-str digit limit by more than the literal's length is 0 or has a
    numerator or denominator past that limit, so it is settled first.
    """
    if not isinstance(text, bool):
        try:
            literal = text if isinstance(text, (int, Fraction)) else str(text).strip()
            exponent = isinstance(literal, str) and _EXPONENT.search(literal)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if exponent and limit and abs(int(exponent[1])) > limit + len(literal):
                literal = literal[: exponent.start()] + "e0"  # a zero stays 0
                if Fraction(literal):
                    raise ValueError(literal)
            value = Fraction(literal)
            frac_str(value)  # refuses a "1e5000" whose digits no report can print
            return value
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


def _reread(record: _Record, names: Sequence[str], read: Callable, *how: Any) -> None:
    # a record's _check: its named fields, read as JSON is, keep what read returns
    for key, value in read({key: getattr(record, key) for key in names}, *how).items():
        _set(record, key, value)


def _config_json(value: Any) -> Any:
    """The JSON form of a config value, the one writer of every config object.

    A Fraction becomes "p/q", a tuple a list and a dict a copy.  A config
    record becomes its fields by name, less each field it names in _omitted
    while that field still equals its default.
    """
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, tuple):
        return [_config_json(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, _Record):
        omitted = getattr(value, "_omitted", ())
        return {
            name: _config_json(field)
            for name, field in zip(value.__slots__, value._values(value))
            if name not in omitted or field != value._defaults[name]
        }
    return value


def _collision_table(value: Any) -> tuple[tuple[int, int], ...]:
    table = _list_of(_list_of(_integer))(value)
    if any(len(pair) != 2 for pair in table):
        raise ConfigError(f"must hold [element, fingerprint] pairs, got {value!r}")
    if len({x for x, _ in table}) < len(table):
        raise ConfigError(f"repeats an element: {value!r}")
    return table


_SHAPE = {"u": _integer, "n": _integer, "eps_plus": parse_fraction}
# model kind: (model class, its own keys as key: (parser, default)); build
# passes a kind's own keys to its class by name
_MODEL_FIELDS = {
    "exact_set": (ExactSetModel, {}),
    "noisy_exact": (NoisyExactModel, {"noise_m": (_integer, 0)}),
    "fingerprint_multiset": (FingerprintMultisetModel, {
        "fingerprint_bits": (_optional(_integer), None),
        "collision_table": (_optional(_collision_table), None),
    }),
}
_OWN_DEFAULTS = {key: d for _, own in _MODEL_FIELDS.values() for key, (_, d) in own.items()}
# what _kind_fields reads for each kind: (its parsers, required keys)
_MODEL_PARSERS = {
    kind: ({**_SHAPE, **{key: parse for key, (parse, _) in own.items()}}, ("u", "n"))
    for kind, (_, own) in _MODEL_FIELDS.items()
}


class ModelSpec(_Record, defaults=_OWN_DEFAULTS):
    # every kind's shape, then each kind's own keys; a spec leaves the keys of
    # other kinds at their defaults, which the writer omits
    __slots__ = ("kind", *_SHAPE, *_OWN_DEFAULTS)
    _omitted = tuple(_OWN_DEFAULTS)

    def _check(self) -> None:
        # the kind, its shape and its own keys, and another kind's key away
        # from its default in value or type (False is no 0), which the reader
        # refuses as it does in JSON
        own = _MODEL_PARSERS[self.kind][0] if self.kind in list(_MODEL_PARSERS) else {}
        other = [key for key, default in _OWN_DEFAULTS.items() if key not in own
                 and (type(getattr(self, key)), getattr(self, key)) != (type(default), default)]
        _reread(self, ("kind", *own, *other), _kind_fields, "model spec", "kind", _MODEL_PARSERS)

    def build(self) -> FilterModel:
        if self.n > self.u:
            raise ConfigError(f"bad model spec: n={self.n} exceeds u={self.u}")
        model, own = _MODEL_FIELDS[self.kind]
        extra = {key: getattr(self, key) for key in own}
        try:
            return model(UniverseParams(self.u, self.n), self.eps_plus, **extra)
        except ValueError as exc:
            raise ConfigError(f"bad model spec: {exc}") from exc

    to_dict = _config_json


def model_spec_from_dict(data: Mapping[str, Any] | ModelSpec) -> ModelSpec:
    if isinstance(data, ModelSpec):
        return data  # checked when it was built
    fields = _kind_fields(data, "model spec", "kind", _MODEL_PARSERS)
    return ModelSpec(**{"eps_plus": Fraction(0), **fields})


_GRID_FIELDS = {"u": _list_of(_integer), "n": _list_of(_integer), "beta": _list_of(parse_fraction)}


class GridSpec(_Record):
    __slots__ = tuple(_GRID_FIELDS)

    def _check(self) -> None:
        _reread(self, self.__slots__, _read_fields, "config grid", _GRID_FIELDS)


DEFAULT_GRID = GridSpec((16, 32, 64, 128), (4, 8, 16), ("1/4", "1/2", "3/4", "1"))

# a capacity-3-bit toy instance that must violate the counting bound
DEFAULT_NEGATIVE_PROBE = {"fspace_bits": 3, "u": 8, "n": 2, "alpha": "2"}

# a counting-bound entry: alpha 2, eps_minus 0 and p_fail 0 unless given
_COUNTING = (
    {"u": _integer, "n": _integer, "fspace_bits": _integer,
     "alpha": parse_fraction, "eps_minus": parse_fraction, "p_fail": parse_fraction},
    ("u", "n", "fspace_bits"),
)


def _counting(function: Callable) -> Callable:
    # function(fspace_bits, params), called with a counting entry's fields
    from .bounds import BoundsParams

    return lambda fspace_bits, **params: function(fspace_bits, BoundsParams(**params))


def run_bounds(data: Any) -> dict:
    """The report bounds prints: data's bounds_checks, each read, then priced
    in order, alone and by running sum (bounds.check_list_cost), then checked."""
    from .bounds import (check_binom_scaling, check_counting_bound, check_list_cost,
                         price_binom_scaling, price_counting_bound, price_space_bound,
                         space_lower_bound)

    # check name: (function, its price, its parsers, required keys); price_space_bound
    # refuses a kind other than nstatic and dynamic
    checks = {
        "counting": (_counting(check_counting_bound), _counting(price_counting_bound), *_COUNTING),
        "binom_scaling": (check_binom_scaling, price_binom_scaling,
                          {"u": _integer, "n": _integer, "beta": parse_fraction}, ("u", "n", "beta")),
        "space": (space_lower_bound, price_space_bound,
                  {"kind": lambda kind: kind, "u": _integer, "n": _integer, "eps": parse_fraction},
                  ("u", "n")),
    }
    entry = _list_of(lambda obj: _kind_fields(obj, "bounds check", "check", checks))
    entries = _read_fields(data, "bounds config", {"bounds_checks": entry}).get("bounds_checks")
    if not entries:
        raise ConfigError("bounds needs a config with a bounds_checks list")
    calls = [(*checks[fields.pop("check")][:2], fields) for fields in entries]
    check_list_cost("bounds config", len(calls), (_entry(price, f) for _, price, f in calls))
    return {"checks": [_entry(check, fields) for check, _, fields in calls]}


def _entry(function: Callable, fields: dict) -> Any:
    try:  # any refusal, an unprintable report number included, names its entry
        return function(**fields)
    except ValueError as exc:
        raise ConfigError(f"bad bounds check entry {fields}: {exc}") from exc


def _grid(value: Any) -> GridSpec:
    if isinstance(value, GridSpec):
        return value  # checked when it was built
    return GridSpec(**_read_fields(value, "", _GRID_FIELDS, GridSpec.__slots__))


def _probe(value: Any) -> Any:
    _read_fields(value, "", *_COUNTING)
    return value  # stored and hashed as given


# config key: (parser, default)
_CONFIG_FIELDS = {
    "seed": (_integer, 20260823),
    "seed_bits": (_integer, 8),
    "trials": (_integer, 100_000),
    "alphas": (_list_of(parse_fraction), (Fraction(3, 2), Fraction(2), Fraction(4))),
    "best_seed_alpha": (parse_fraction, Fraction(2)),
    "models": (_list_of(model_spec_from_dict), ()),
    "grid": (_grid, DEFAULT_GRID),
    "negative_probe": (_optional(_probe), None),
}
_CONFIG_PARSERS = {key: parse for key, (parse, _) in _CONFIG_FIELDS.items()}
# the widest seed space check_enumeration_budget admits
MAX_SEED_BITS = SEED_BUDGET.bit_length() - 1


class ExperimentConfig(_Record, defaults={key: d for key, (_, d) in _CONFIG_FIELDS.items()}):
    __slots__ = tuple(_CONFIG_FIELDS)
    _omitted = ("negative_probe",)

    def _check(self) -> None:
        _reread(self, self.__slots__, _read_fields, "config", _CONFIG_PARSERS)
        if not 0 <= self.seed_bits <= MAX_SEED_BITS:
            raise ConfigError(
                f"seed_bits must lie in [0, {MAX_SEED_BITS}] for exhaustive commands")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")

    resolved_dict = _config_json

    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()[:16]


def config_from_dict(data: Mapping[str, Any], base: ExperimentConfig) -> ExperimentConfig:
    """Overlay a parsed config file onto a command's defaults."""
    fields = _read_fields(data, "config", _CONFIG_PARSERS)
    return ExperimentConfig(**{**_config_kwargs(base), **fields})


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
    broken = ModelSpec("fingerprint_multiset", 6, 2, Fraction(1, 2))
    return ExperimentConfig(**{**_config_kwargs(cfg), "models": (*cfg.models, broken)})


def default_fp_config() -> ExperimentConfig:
    model = ModelSpec("fingerprint_multiset", 1 << 16, 16, Fraction(1, 8))
    return ExperimentConfig(models=(model,))


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
    if n > DATASET_BUDGET:
        raise ConfigError(f"fp experiment samples a dataset of n <= {DATASET_BUDGET}, got {n}")
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
        seed = Seed(seed_rng.getrandbits(64), 64)
        state = model.state_for_elements(seed, dataset)
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
    built, every alpha checked and every sweep grouped into seed classes and
    priced, the zoo's as a whole too, before the first sweep.  Before all of
    that, no alphas, no models or a grid with no cells is refused: a check
    over nothing would read as a pass.  The report's "warnings" is always
    empty; it stays so that the report's bytes do not move.
    """
    if not cfg.alphas:
        raise ConfigError("config alphas: must name at least one alpha")
    if not cfg.models:
        raise ConfigError("config models: verify needs at least one model")
    if not (cfg.grid.u and cfg.grid.n and cfg.grid.beta):
        raise ConfigError("config grid: needs at least one cell")
    checks = _zoo_checks(cfg)
    return {
        "suite": "verification",
        "passed": all(check["passed"] for check in checks),
        "check_count": len(checks),
        "checks": checks,
        "warnings": [],
        "seed_bits": cfg.seed_bits,
        "config_hash": cfg.config_hash(),
    }


def _zoo_checks(cfg: ExperimentConfig) -> list[dict]:
    # only verify, encode and decode sweep, so only they load the sweep modules
    from .bounds import check_binom_grid, check_counting_bound
    from .reduction import model_checks, presweep

    try:
        probe = cfg.negative_probe and _counting(check_counting_bound)(
            **_read_fields(cfg.negative_probe, "", *_COUNTING))
    except ValueError as exc:
        raise _under("config negative_probe", exc) from exc
    try:
        grid = check_binom_grid(cfg.grid.u, cfg.grid.n, cfg.grid.beta)
    except ValueError as exc:
        raise _under("config grid", exc) from exc
    checks = []
    for model, classes in presweep(cfg, cfg.models, (cfg.best_seed_alpha, *cfg.alphas)):
        checks += model_checks(cfg, model, classes)
    if probe is not None:
        checks.append({
            "name": "counting_bound_negative_probe",
            "passed": not probe["holds"],
            "details": probe,
        })
    checks.append({
        "name": "binom_scaling_grid",
        "passed": not grid["failures"],
        "details": grid,
    })
    return checks


def run_encode(cfg: ExperimentConfig, elements: Sequence[int]) -> dict:
    """Code a dataset under the best seed of the zoo's first model; input is checked first."""
    from .bounds import encode_dataset
    from .reduction import best_coder, check_reduction, presweep

    [(model, classes)] = presweep(cfg, cfg.models[:1])
    dataset = sorted(elements)
    u, n = model.params.u, model.params.n
    if len(set(dataset)) != n or not all(0 <= x < u for x in dataset):
        raise ConfigError(f"encode needs {n} distinct elements of [0, {u}), got {dataset}")
    static, params, best = best_coder(cfg, model, check_reduction(model, classes))
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
    """Invert run_encode from its printed state and index; the state is checked first."""
    from .bounds import DatasetCode, InvalidCode, NotGoodPair, decode_dataset, encode_dataset
    from .reduction import best_coder, check_reduction, parse_paired_state, presweep

    [(model, classes)] = presweep(cfg, cfg.models[:1])
    code = DatasetCode(parse_paired_state(state_text), index)
    static, params, best = best_coder(cfg, model, check_reduction(model, classes))
    dataset = sorted(decode_dataset(static, params, best.seed, code))
    # decoding reads any state, so a code counts only if encoding what it
    # decodes to prints it back
    try:
        valid = len(dataset) == static.model.params.n and (
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
