"""Membership filter models under permissive operation sequences, plus the
counting machinery that prices their space.

The package studies what happens when a dynamic approximate-membership
filter must also accept duplicate insertions and deletions of absent
elements: sequence algebra and rewriters in core, filter models in
filters, the witness query transform in witness, the snapshot-pair static
conversion in reduction, the counting bounds and injective dataset coding
in bounds, and the experiment harness plus CLI in harness / cli.
"""

from .bounds import (
    BestSeed,
    BinomScalingResult,
    BoundKind,
    BoundsParams,
    CountingBoundResult,
    DatasetCode,
    InvalidCode,
    NotGoodPair,
    ParamsOutOfRange,
    SpaceBound,
    binom_exact,
    check_binom_scaling,
    check_counting_bound,
    decode_dataset,
    encode_dataset,
    false_negative_set,
    find_best_seed,
    is_good_pair,
    space_lower_bound,
)
from .core import (
    ArgOutOfUniverse,
    CardinalityExceeded,
    DatasetTrace,
    FirstOpNotInit,
    Operation,
    OpClass,
    OpKind,
    OpSequence,
    RewriteResult,
    UniverseParams,
    ValidationError,
    classify_ops,
    dataset_trace,
    enumerate_sequences,
    format_sequence,
    op_del,
    op_init,
    op_ins,
    op_query,
    parse_sequence,
    rewrite_del_to_dup,
    rewrite_dup_to_del,
    validate_sequence,
)
from .filters import (
    FAIL_STATE,
    ExactSetModel,
    FailStateError,
    FilterModel,
    FilterState,
    FingerprintMultisetModel,
    InvalidParams,
    ModelKind,
    NoisyExactModel,
    Seed,
    draw_seed,
    fingerprint,
    make_model,
    measure_space,
    run_sequence,
    seed_space,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    run_fp_experiment,
    run_verification_suite,
    run_violation_demo,
    wilson_interval,
)
from .reduction import (
    PairedState,
    PairedStaticFilter,
    ReductionReport,
    check_reduction,
    pair_init,
    pair_query,
)
from .witness import (
    EnumerationTooLarge,
    WitnessModel,
    check_sticky,
    state_after,
    witness_transform,
    yes_set,
)

__version__ = "0.1.0"
