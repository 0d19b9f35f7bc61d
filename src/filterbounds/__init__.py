"""Membership filter models under permissive operation sequences, plus the
counting machinery that prices their space.

The package studies what happens when a dynamic approximate-membership
filter must also accept duplicate insertions and deletions of absent
elements: the value types in core and the sequence algebra and rewriters
in sequences, filter models in filters, the witness query transform in
witness, the snapshot-pair static conversion in reduction, the counting
bounds and injective dataset coding in bounds, the experiment harness in
harness, the violation demo in demo, and the CLI in cli.

Importing the package loads none of these modules.  Each public name below
is resolved on first access (PEP 562), so a command that imports only
filterbounds.cli compiles only the modules it runs.
"""

from importlib import import_module

# module -> the public names the package re-exports from it
_EXPORTS = {
    "bounds": (
        "BestSeed", "BinomScalingResult", "BoundKind", "BoundsParams",
        "CountingBoundResult", "DatasetCode", "InvalidCode", "NotGoodPair",
        "ParamsOutOfRange", "SpaceBound", "binom_exact", "check_binom_scaling",
        "check_counting_bound", "decode_dataset", "encode_dataset",
        "find_best_seed", "is_good_pair", "space_lower_bound",
    ),
    "core": ("Operation", "OpKind", "OpSequence", "UniverseParams"),
    "sequences": (
        "ArgOutOfUniverse", "CardinalityExceeded", "DatasetTrace",
        "FirstOpNotInit", "OpClass", "RewriteResult", "ValidationError",
        "classify_ops", "dataset_trace", "enumerate_sequences",
        "format_sequence", "op_del", "op_init", "op_ins", "op_query",
        "parse_sequence", "rewrite_del_to_dup", "rewrite_dup_to_del",
        "validate_sequence",
    ),
    "filters": (
        "FAIL_STATE", "ExactSetModel", "FailStateError", "FilterModel",
        "FilterState", "FingerprintMultisetModel", "InvalidParams",
        "ModelKind", "NoisyExactModel", "Seed", "draw_seed", "fingerprint",
        "make_model", "run_sequence", "seed_space",
    ),
    "harness": (
        "ConfigError", "ExperimentConfig", "ModelSpec", "run_fp_experiment",
        "run_verification_suite", "wilson_interval",
    ),
    "demo": ("run_violation_demo",),
    "reduction": (
        "PairedState", "PairedStaticFilter", "ReductionReport",
        "check_reduction", "pair_init",
    ),
    "witness": (
        "EnumerationTooLarge", "WitnessModel", "check_sticky", "state_after",
        "witness_transform", "yes_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
