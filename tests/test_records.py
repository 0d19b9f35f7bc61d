"""The package's value records: construction, equality, hashing, repr.

Every record keeps the behaviour it had as a dataclass: the same
positional order, keywords and defaults, equality only within one class,
a hash for the frozen ones, and the dataclass repr text.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from filterbounds.bounds import (
    BestSeed,
    BinomScalingResult,
    BoundKind,
    BoundsParams,
    CountingBoundResult,
    DatasetCode,
    ParamsOutOfRange,
    SpaceBound,
)
from filterbounds.core import (
    DatasetTrace,
    _Record,
    Operation,
    OpKind,
    OpSequence,
    RewriteResult,
    UniverseParams,
)
from filterbounds.filters import FilterState, Seed
from filterbounds.harness import (
    DEFAULT_GRID,
    CheckResult,
    ExperimentConfig,
    GridSpec,
    ModelSpec,
    VerificationReport,
)
from filterbounds.reduction import PairedState, ReductionReport

SRC = Path(__file__).resolve().parent.parent / "src"

P62 = UniverseParams(6, 2)
SEQ = OpSequence(P62, (Operation(OpKind.INIT), Operation(OpKind.INS, 3)))
SPEC = ModelSpec("exact_set", 6, 2, Fraction(0))
GRID = GridSpec((16,), (4,), (Fraction(1),))

# (class, a value for every field in order, defaults of the trailing
# fields, the repr the dataclass printed for those values)
RECORDS = [
    # only init may omit its argument
    (
        Operation,
        (OpKind.INIT, None),
        {"arg": None},
        "Operation(kind=<OpKind.INIT: 'init'>, arg=None)",
    ),
    (UniverseParams, (6, 2), {}, "UniverseParams(u=6, n=2)"),
    (
        OpSequence,
        (P62, (Operation(OpKind.INIT),)),
        {},
        "OpSequence(params=UniverseParams(u=6, n=2), "
        "ops=(Operation(kind=<OpKind.INIT: 'init'>, arg=None),))",
    ),
    (DatasetTrace, (6, (0, 8)), {}, "DatasetTrace(u=6, masks=(0, 8))"),
    (
        RewriteResult,
        (SEQ, (0, 1)),
        {},
        "RewriteResult(seq=OpSequence(params=UniverseParams(u=6, n=2), "
        "ops=(Operation(kind=<OpKind.INIT: 'init'>, arg=None), "
        "Operation(kind=<OpKind.INS: 'ins'>, arg=3))), index_map=(0, 1))",
    ),
    (Seed, (5, 8), {}, "Seed(value=5, bits=8)"),
    (
        FilterState,
        (3, 4, True),
        {"fail": False},
        "FilterState(value=3, nbits=4, fail=True)",
    ),
    (
        BoundsParams,
        (6, 2, Fraction(1, 6), Fraction(1, 3), Fraction(1, 8), Fraction(3, 2), Fraction(1, 2)),
        {
            "eps_plus": Fraction(0),
            "eps_minus": Fraction(0),
            "p_fail": Fraction(0),
            "alpha": Fraction(2),
            "beta": Fraction(1),
        },
        "BoundsParams(u=6, n=2, eps_plus=Fraction(1, 6), eps_minus=Fraction(1, 3), "
        "p_fail=Fraction(1, 8), alpha=Fraction(3, 2), beta=Fraction(1, 2))",
    ),
    (
        CountingBoundResult,
        (False, 8, Fraction(15, 2), 3, BoundsParams(8, 2)),
        {},
        "CountingBoundResult(holds=False, lhs=8, rhs=Fraction(15, 2), fspace_bits=3, "
        "params=BoundsParams(u=8, n=2, eps_plus=Fraction(0, 1), eps_minus=Fraction(0, 1), "
        "p_fail=Fraction(0, 1), alpha=Fraction(2, 1), beta=Fraction(1, 1)))",
    ),
    (
        BinomScalingResult,
        (True, 1.5, 2.25, 16, 4, Fraction(1, 2)),
        {},
        "BinomScalingResult(holds=True, lhs_bits=1.5, rhs_bits=2.25, u=16, n=4, "
        "beta=Fraction(1, 2))",
    ),
    (
        SpaceBound,
        (BoundKind.DYNAMIC, 16, 4, Fraction(1, 8), 3.0, 1.5),
        {},
        "SpaceBound(kind=<BoundKind.DYNAMIC: 'dynamic'>, u=16, n=4, eps=Fraction(1, 8), "
        "leading_bits=3.0, constant_bits=1.5)",
    ),
    (
        BestSeed,
        (Seed(1, 2), 5, Fraction(15, 2), False),
        {},
        "BestSeed(seed=Seed(value=1, bits=2), good_count=5, required=Fraction(15, 2), "
        "meets_bound=False)",
    ),
    (
        DatasetCode,
        (FilterState(1, 2), 7),
        {},
        "DatasetCode(state=FilterState(value=1, nbits=2, fail=False), index=7)",
    ),
    (
        ModelSpec,
        ("fingerprint_multiset", 8, 2, Fraction(1, 2), 1, 3, ((1, 0), (2, 0))),
        {"noise_m": 0, "fingerprint_bits": None, "collision_table": None},
        "ModelSpec(kind='fingerprint_multiset', u=8, n=2, eps_plus=Fraction(1, 2), "
        "noise_m=1, fingerprint_bits=3, collision_table=((1, 0), (2, 0)))",
    ),
    (
        GridSpec,
        ((16,), (4, 8), (Fraction(1, 2),)),
        {},
        "GridSpec(u_values=(16,), n_values=(4, 8), beta_values=(Fraction(1, 2),))",
    ),
    (
        ExperimentConfig,
        (7, 3, 10, (Fraction(2),), Fraction(4), (SPEC,), GRID, None),
        {
            "seed": 20260823,
            "seed_bits": 8,
            "trials": 100_000,
            "alphas": (Fraction(3, 2), Fraction(2), Fraction(4)),
            "best_seed_alpha": Fraction(2),
            "models": (),
            "grid": DEFAULT_GRID,
            "negative_probe": None,
        },
        "ExperimentConfig(seed=7, seed_bits=3, trials=10, alphas=(Fraction(2, 1),), "
        "best_seed_alpha=Fraction(4, 1), models=(ModelSpec(kind='exact_set', u=6, n=2, "
        "eps_plus=Fraction(0, 1), noise_m=0, fingerprint_bits=None, collision_table=None),), "
        "grid=GridSpec(u_values=(16,), n_values=(4,), beta_values=(Fraction(1, 1),)), "
        "negative_probe=None)",
    ),
    (
        CheckResult,
        ("sticky[m]", False, {"cells": 15}),
        {"details": {}},
        "CheckResult(name='sticky[m]', passed=False, details={'cells': 15})",
    ),
    (
        VerificationReport,
        ("verification", [CheckResult("c", True)], ["w"], 8, "0123abcd"),
        {},
        "VerificationReport(suite='verification', checks=[CheckResult(name='c', "
        "passed=True, details={})], warnings=['w'], seed_bits=8, config_hash='0123abcd')",
    ),
    (
        PairedState,
        (FilterState(1, 2), FilterState(0, 2)),
        {},
        "PairedState(after_insert=FilterState(value=1, nbits=2, fail=False), "
        "after_delete=FilterState(value=0, nbits=2, fail=False))",
    ),
    (
        ReductionReport,
        (
            6, 2, "witness(exact_set)", 2, 4, 15, 1, 0, Fraction(1, 2),
            {((0, 1), 0): Fraction(1, 2)}, False, 8, 8, Fraction(1, 4), 3,
            (Seed(1, 2), (0, 1), [2]), [[0, 1]],
        ),
        {
            "fn_matches_delete_fp": True,
            "space_pair_bits": 0,
            "space_budget_bits": 0,
            "fail_fraction": Fraction(0),
            "failed_pairs": 0,
            "first_false_positive": None,
            "misses_by_seed": [],
        },
        # fn_rate_by_cell and misses_by_seed are left out of the repr
        "ReductionReport(u=6, n=2, model='witness(exact_set)', seed_bits=2, seed_count=4, "
        "dataset_count=15, false_positive_count=1, completeness_violations=0, "
        "max_false_negative_rate=Fraction(1, 2), fn_matches_delete_fp=False, "
        "space_pair_bits=8, space_budget_bits=8, fail_fraction=Fraction(1, 4), "
        "failed_pairs=3, first_false_positive=(Seed(value=1, bits=2), (0, 1), [2]))",
    ),
]

MUTABLE = {CheckResult, VerificationReport, ReductionReport}


@pytest.mark.parametrize(
    "cls, values, defaults, text", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_keeps_its_dataclass_behaviour(cls, values, defaults, text):
    names = cls.__slots__
    assert len(names) == len(values)
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record

    required = len(values) - len(defaults)
    assert tuple(defaults) == names[required:]
    bare, other_bare = cls(*values[:required]), cls(*values[:required])
    for name, default in defaults.items():
        assert getattr(bare, name) == default
        if isinstance(default, (list, dict)):
            assert getattr(bare, name) is not getattr(other_bare, name)

    twin = cls(*values)
    assert twin == record and not twin != record
    assert (bare == record) == (values[required:] == tuple(defaults.values()))

    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
        setattr(twin, names[0], values[1])
        assert getattr(twin, names[0]) == values[1]
        assert twin != record
    else:
        assert hash(twin) == hash(record)
        assert hash(record) == hash(values)
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[1])
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert getattr(record, names[0]) == values[0]

    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record and copy.copy(record) == record

    stranger = type("Stranger", (cls,), {})(*values)
    assert stranger != record and record != stranger

    assert repr(record) == text


VALIDATING = {Operation, UniverseParams, Seed, FilterState, BoundsParams}


def test_only_validating_records_write_their_own_init():
    own = {case[0] for case in RECORDS if "__init__" in vars(case[0])}
    assert own == VALIDATING
    assert all(case[0].__init__ is _Record.__init__ for case in RECORDS if case[0] not in own)


@pytest.mark.parametrize(
    "cls, values, defaults, text",
    [case for case in RECORDS if case[0] not in VALIDATING],
    ids=[case[0].__name__ for case in RECORDS if case[0] not in VALIDATING],
)
def test_binding_init_rejects_bad_arguments(cls, values, defaults, text):
    names = cls.__slots__
    required = len(values) - len(defaults)
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*values[: required - 1])
        with pytest.raises(TypeError, match="missing"):
            cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="multiple"):
        cls(*values[:1], **{names[0]: values[0]})
    with pytest.raises(TypeError, match="multiple"):
        cls(*values, **{names[-1]: values[-1]})
    with pytest.raises(TypeError, match="arguments"):
        cls(*values, values[0])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Seed(256, 8), ValueError),
        (lambda: Seed(-1, 8), ValueError),
        (lambda: Seed(0, -1), ValueError),
        (lambda: FilterState(4, 2), ValueError),
        (lambda: FilterState(-1, 2), ValueError),
        (lambda: FilterState(0, -1), ValueError),
        (lambda: UniverseParams(0, 1), ValueError),
        (lambda: UniverseParams(1, 0), ValueError),
        (lambda: Operation(OpKind.INS), ValueError),
        (lambda: Operation(OpKind.INIT, 1), ValueError),
        (lambda: BoundsParams(0, 1), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, eps_plus=Fraction(2)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, eps_minus=Fraction(-1)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, p_fail=Fraction(3, 2)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, alpha=Fraction(1)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, beta=Fraction(2)), ParamsOutOfRange),
    ],
)
def test_record_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_cli_import_pulls_in_neither_dataclasses_nor_inspect():
    # every command is one short process, so the modules its import drags
    # in are paid on every run; these two cost several milliseconds
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import filterbounds.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = out.stdout.split()
    assert "filterbounds.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added
