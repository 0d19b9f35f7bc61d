"""The violation demo: scripted failures of the fingerprint model.

Only the demo-violations command and the tests run this, so it lives
apart from the harness that every command imports, and cli imports it
when that command is called.
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import frac_str
from .core import OpSequence
from .filters import (
    ExactSetModel,
    FilterModel,
    FingerprintMultisetModel,
    run_sequence,
    seed_classes,
    seed_space,
)
from .harness import ConfigError, ExperimentConfig, ModelSpec
from .sequences import format_sequence, parse_sequence


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
    control = ExactSetModel(model.params)
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
